"""Transition faults (TF).

A transition fault prevents one bit of one cell from making one of its two
transitions: a TF-up cell cannot go 0 -> 1, a TF-down cell cannot go 1 -> 0.
The other transition, and reads, work normally -- so detecting a TF requires
writing the bit *into* the blocked transition and reading afterwards, which
is why March tests always pair ``w`` with a subsequent ``r``.
"""

from __future__ import annotations

from repro.faults.base import Fault, VectorSemantics
from repro.memory.array import MemoryArray

__all__ = ["TransitionFault"]


class TransitionFault(Fault):
    """Bit ``bit`` of cell ``cell`` fails its rising or falling transition.

    Parameters
    ----------
    cell, bit:
        Location of the faulty bit.
    rising:
        True: the 0->1 transition fails (bit stays 0).
        False: the 1->0 transition fails (bit stays 1).

    >>> TransitionFault(2, rising=True).name
    'TF-up(cell=2, bit=0)'
    """

    fault_class = "TF"

    def __init__(self, cell: int, rising: bool, bit: int = 0):
        if cell < 0:
            raise ValueError(f"cell must be non-negative, got {cell}")
        if bit < 0:
            raise ValueError(f"bit must be non-negative, got {bit}")
        self._cell = cell
        self._bit = bit
        self._rising = bool(rising)

    @property
    def name(self) -> str:
        direction = "up" if self._rising else "down"
        return f"TF-{direction}(cell={self._cell}, bit={self._bit})"

    def __repr__(self) -> str:
        return self.name

    def cells(self) -> tuple[int, ...]:
        return (self._cell,)

    @property
    def rising(self) -> bool:
        """True when the rising (0->1) transition is the one that fails."""
        return self._rising

    def vector_semantics(self) -> VectorSemantics:
        return VectorSemantics("transition", cell=self._cell, bit=self._bit,
                               rising=self._rising)

    def transform_write(self, array: MemoryArray, cell: int, old: int,
                        new: int, time: int) -> int:
        if cell != self._cell:
            return new
        mask = 1 << self._bit
        old_bit = (old >> self._bit) & 1
        new_bit = (new >> self._bit) & 1
        if self._rising and old_bit == 0 and new_bit == 1:
            return new & ~mask  # rise blocked: stays 0
        if not self._rising and old_bit == 1 and new_bit == 0:
            return new | mask  # fall blocked: stays 1
        return new
