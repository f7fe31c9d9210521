"""Stuck-open faults (SOF).

A stuck-open cell is disconnected from its bit line (e.g. a broken pass
transistor).  Writes never reach the cell, and a read does not discharge the
bit line, so the sense amplifier reports whatever it latched on the
*previous* read -- the classical SOF model from van de Goor.  Detecting an
SOF therefore requires two consecutive reads expecting *different* values,
which ordinary single-read March elements can miss.
"""

from __future__ import annotations

from repro.faults.base import Fault, VectorSemantics
from repro.memory.array import MemoryArray

__all__ = ["StuckOpenFault"]


class StuckOpenFault(Fault):
    """Cell ``cell`` is disconnected: writes lost, reads return the sense
    amplifier's previous value.

    The pre-fault cell content is irrelevant (the cell floats); the sense
    latch powers up at ``initial_sense`` (default 0).

    >>> StuckOpenFault(4).name
    'SOF(cell=4)'
    """

    fault_class = "SOF"

    def __init__(self, cell: int, initial_sense: int = 0):
        if cell < 0:
            raise ValueError(f"cell must be non-negative, got {cell}")
        if initial_sense < 0:
            raise ValueError("initial sense value must be non-negative")
        self._cell = cell
        self._initial_sense = initial_sense
        self._sense = initial_sense

    @property
    def name(self) -> str:
        return f"SOF(cell={self._cell})"

    def __repr__(self) -> str:
        return self.name

    def cells(self) -> tuple[int, ...]:
        return (self._cell,)

    def reset(self) -> None:
        self._sense = self._initial_sense

    def read_value(self, array: MemoryArray, cell: int, stored: int,
                   time: int) -> int:
        if cell != self._cell:
            # A healthy read refreshes the shared sense amplifier.
            self._sense = stored
            return stored
        # Open cell: bit line keeps the latched value.
        return self._sense

    def transform_write(self, array: MemoryArray, cell: int, old: int,
                        new: int, time: int) -> int:
        if cell != self._cell:
            return new
        return old  # write never reaches the cell

    def vector_semantics(self) -> VectorSemantics | None:
        """Lane description for the bit-packed engine: kind
        ``"stuck-open"``, with ``value`` carrying the latch's power-up
        bit.  The latch state itself lives in the lane model
        (:class:`repro.sim.batched._StuckOpenLanes`, one sense latch per
        lane), so the fault stays exact lane-parallel.  Multi-bit
        power-up values (``initial_sense > 1``) have no single-descriptor
        encoding and stay on the per-fault path."""
        if self._initial_sense not in (0, 1):
            return None
        return VectorSemantics("stuck-open", cell=self._cell,
                               value=self._initial_sense)
