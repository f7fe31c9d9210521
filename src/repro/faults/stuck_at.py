"""Stuck-at faults (SAF).

A stuck-at fault pins one bit of one cell to a constant.  For a bit-oriented
memory the bit is the whole cell; for a word-oriented memory any single bit
of the word can be stuck while the others work (which is what makes WOM
backgrounds matter -- a test that only ever writes 0x0/0xF cannot tell which
bit is stuck).
"""

from __future__ import annotations

from repro.faults.base import Fault, VectorSemantics
from repro.memory.array import MemoryArray

__all__ = ["StuckAtFault"]


class StuckAtFault(Fault):
    """Bit ``bit`` of cell ``cell`` permanently reads and stores ``value``.

    >>> fault = StuckAtFault(3, 1)          # SA1 on the whole bit cell 3
    >>> fault.fault_class
    'SAF'
    >>> StuckAtFault(5, 0, bit=2).name
    'SA0(cell=5, bit=2)'
    """

    fault_class = "SAF"

    def __init__(self, cell: int, value: int, bit: int = 0):
        if value not in (0, 1):
            raise ValueError(f"stuck value must be 0 or 1, got {value!r}")
        if cell < 0:
            raise ValueError(f"cell must be non-negative, got {cell}")
        if bit < 0:
            raise ValueError(f"bit must be non-negative, got {bit}")
        self._cell = cell
        self._bit = bit
        self._value = value

    @property
    def name(self) -> str:
        return f"SA{self._value}(cell={self._cell}, bit={self._bit})"

    def __repr__(self) -> str:
        return self.name

    def cells(self) -> tuple[int, ...]:
        return (self._cell,)

    @property
    def stuck_value(self) -> int:
        """The pinned bit value."""
        return self._value

    def _force(self, word: int) -> int:
        if self._value:
            return word | (1 << self._bit)
        return word & ~(1 << self._bit)

    def read_value(self, array: MemoryArray, cell: int, stored: int,
                   time: int) -> int:
        if cell != self._cell:
            return stored
        return self._force(stored)

    def transform_write(self, array: MemoryArray, cell: int, old: int,
                        new: int, time: int) -> int:
        if cell != self._cell:
            return new
        return self._force(new)

    def vector_semantics(self) -> VectorSemantics:
        return VectorSemantics("stuck", cell=self._cell, bit=self._bit,
                               value=self._value)

    def settle(self, array: MemoryArray, time: int) -> None:
        # The physical cell node is pinned, so the stored value is forced
        # too (a coupling fault writing the victim cannot unpin it).
        if self._cell < array.n and self._bit < array.m:
            stored = array.read(self._cell)
            forced = self._force(stored)
            if forced != stored:
                array.write(self._cell, forced)
