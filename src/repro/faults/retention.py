"""Data-retention faults (DRF).

A data-retention fault makes a cell leak: after going unaccessed for longer
than its retention interval, its content decays to a preferred value.
Detecting a DRF requires a *pause* between writing and reading -- which is
why industrial March tests insert delay elements, and why fast back-to-back
tests miss these faults.  Time is measured in memory cycles (the RAM's cycle
counter is passed into every behaviour hook).
"""

from __future__ import annotations

from repro.faults.base import Fault, VectorSemantics
from repro.memory.array import MemoryArray

__all__ = ["DataRetentionFault"]


class DataRetentionFault(Fault):
    """Cell ``cell`` decays to ``decay_to`` after ``retention`` idle cycles.

    "Idle" counts cycles since the last write *or* read of the cell (an
    access refreshes the cell, as in DRAM or a weak SRAM cell being
    rewritten by its sense amplifier).

    >>> DataRetentionFault(2, retention=100).name
    'DRF(cell=2, retention=100)'
    """

    fault_class = "DRF"

    def __init__(self, cell: int, retention: int, decay_to: int = 0):
        if cell < 0:
            raise ValueError(f"cell must be non-negative, got {cell}")
        if retention < 1:
            raise ValueError(f"retention must be >= 1 cycle, got {retention}")
        if decay_to < 0:
            raise ValueError("decay value must be non-negative")
        self._cell = cell
        self._retention = retention
        self._decay_to = decay_to
        self._last_access: int | None = None

    @property
    def name(self) -> str:
        return f"DRF(cell={self._cell}, retention={self._retention})"

    def __repr__(self) -> str:
        return self.name

    def cells(self) -> tuple[int, ...]:
        return (self._cell,)

    @property
    def retention(self) -> int:
        """Idle cycles the cell survives without decaying."""
        return self._retention

    def reset(self) -> None:
        self._last_access = None

    def _decayed(self, time: int) -> bool:
        return (
            self._last_access is not None
            and time - self._last_access > self._retention
        )

    def read_value(self, array: MemoryArray, cell: int, stored: int,
                   time: int) -> int:
        if cell != self._cell:
            return stored
        if self._decayed(time):
            # The decayed value is now the real cell content.
            array.write(cell, self._decay_to)
            stored = self._decay_to
        self._last_access = time
        return stored

    def transform_write(self, array: MemoryArray, cell: int, old: int,
                        new: int, time: int) -> int:
        if cell == self._cell:
            self._last_access = time
        return new

    def vector_semantics(self) -> VectorSemantics:
        """Lane description for the bit-packed engine: kind
        ``"retention"``, with ``value`` the decay value and ``extra[0]``
        the retention interval.  The lane model replays the stream's
        cycle clock (operations and ``"i"`` idles alike), so decay
        timing is exact per lane."""
        return VectorSemantics(
            "retention", cell=self._cell, value=self._decay_to,
            extra=(self._retention,),
        )
