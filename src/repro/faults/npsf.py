"""Neighbourhood pattern-sensitive faults (static NPSF).

A static NPSF forces a victim cell to a fixed value whenever its
neighbourhood holds a specific pattern.  In a physical layout the
neighbourhood is the 4 (type-1) or 8 (type-2) adjacent cells; in this
behavioural model any tuple of cells can form the neighbourhood, which also
covers the linear (address-ordered) neighbourhoods the pseudo-ring walk
sweeps through.
"""

from __future__ import annotations

from repro.faults.base import Fault, VectorSemantics
from repro.memory.array import MemoryArray

__all__ = ["StaticNPSF"]


class StaticNPSF(Fault):
    """Victim forced to ``force_to`` while ``neighbors`` hold ``pattern``.

    >>> fault = StaticNPSF(victim=2, neighbors=(1, 3), pattern=(1, 1),
    ...                    force_to=0)
    >>> fault.name
    'NPSF(victim=2, nbhd=(1, 3)=(1, 1) -> 0)'
    """

    fault_class = "NPSF"

    def __init__(self, victim: int, neighbors: tuple[int, ...] | list[int],
                 pattern: tuple[int, ...] | list[int], force_to: int):
        neighbors = tuple(neighbors)
        pattern = tuple(pattern)
        if not neighbors:
            raise ValueError("NPSF needs a non-empty neighbourhood")
        if len(neighbors) != len(pattern):
            raise ValueError(
                f"pattern length {len(pattern)} does not match "
                f"{len(neighbors)} neighbours"
            )
        if victim in neighbors:
            raise ValueError("the victim cannot be its own neighbour")
        if len(set(neighbors)) != len(neighbors):
            raise ValueError("duplicate neighbour cells")
        if force_to < 0:
            raise ValueError("forced value must be non-negative")
        for p in pattern:
            if p < 0:
                raise ValueError("pattern values must be non-negative")
        self._victim = victim
        self._neighbors = neighbors
        self._pattern = pattern
        self._force_to = force_to

    @property
    def name(self) -> str:
        return (f"NPSF(victim={self._victim}, "
                f"nbhd={self._neighbors}={self._pattern} -> {self._force_to})")

    def __repr__(self) -> str:
        return self.name

    def cells(self) -> tuple[int, ...]:
        return (self._victim,) + self._neighbors

    def _active(self, array: MemoryArray) -> bool:
        return all(
            array.read(cell) == value
            for cell, value in zip(self._neighbors, self._pattern,
                                   strict=True)
        )

    def _enforce(self, array: MemoryArray) -> None:
        if self._active(array) and array.read(self._victim) != self._force_to:
            array.write(self._victim, self._force_to)

    def settle(self, array: MemoryArray, time: int) -> None:
        self._enforce(array)

    def after_write(self, array: MemoryArray, cell: int, old: int,
                    committed: int, time: int) -> None:
        if cell == self._victim or cell in self._neighbors:
            self._enforce(array)

    def vector_semantics(self) -> VectorSemantics:
        """Lane description for the bit-packed engine: kind ``"npsf"``,
        with ``value`` the forced victim value and ``extra`` the
        ``(neighbour_cell, pattern_value)`` pairs -- full m-bit cell
        values, exactly what :meth:`_active` compares."""
        return VectorSemantics(
            "npsf", cell=self._victim, value=self._force_to,
            extra=tuple(zip(self._neighbors, self._pattern, strict=True)),
        )
