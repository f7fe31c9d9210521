"""Bridging faults (BF).

A bridging fault resistively shorts two cells.  After any write that
touches either cell, both take the bit-wise wired-AND (or wired-OR) of the
two contents -- the standard model for a low-resistance short between the
storage nodes.  For word-oriented memories the short is bit-wise across the
full word.
"""

from __future__ import annotations

from repro.faults.base import Fault, VectorSemantics
from repro.memory.array import MemoryArray

__all__ = ["BridgingFault"]


class BridgingFault(Fault):
    """Cells ``cell_a`` and ``cell_b`` are shorted.

    Parameters
    ----------
    kind:
        ``"and"`` -- both cells settle to ``a & b`` (typical NMOS short),
        ``"or"`` -- both settle to ``a | b`` (typical PMOS short).

    >>> BridgingFault(2, 5).name
    'BF-and(2, 5)'
    """

    fault_class = "BF"

    def __init__(self, cell_a: int, cell_b: int, kind: str = "and"):
        if cell_a == cell_b:
            raise ValueError("a bridge needs two distinct cells")
        if cell_a < 0 or cell_b < 0:
            raise ValueError("cells must be non-negative")
        if kind not in ("and", "or"):
            raise ValueError(f"bridge kind must be 'and' or 'or', got {kind!r}")
        self._a, self._b = sorted((cell_a, cell_b))
        self._kind = kind

    @property
    def name(self) -> str:
        return f"BF-{self._kind}({self._a}, {self._b})"

    def __repr__(self) -> str:
        return self.name

    def cells(self) -> tuple[int, ...]:
        return (self._a, self._b)

    @property
    def kind(self) -> str:
        """``"and"`` or ``"or"``."""
        return self._kind

    def _short(self, array: MemoryArray) -> None:
        va = array.read(self._a)
        vb = array.read(self._b)
        merged = (va & vb) if self._kind == "and" else (va | vb)
        if va != merged:
            array.write(self._a, merged)
        if vb != merged:
            array.write(self._b, merged)

    def after_write(self, array: MemoryArray, cell: int, old: int,
                    committed: int, time: int) -> None:
        if cell in (self._a, self._b):
            self._short(array)

    def settle(self, array: MemoryArray, time: int) -> None:
        self._short(array)

    def vector_semantics(self) -> VectorSemantics:
        """Lane description for the bit-packed engine: kind ``"bridge"``,
        the shorted pair in ``(cell, victim_cell)`` and the wired rule in
        ``value`` (1 = wired-OR, 0 = wired-AND)."""
        return VectorSemantics(
            "bridge", cell=self._a, victim_cell=self._b,
            value=1 if self._kind == "or" else 0,
        )
