"""Coupling faults between two bits (CFin, CFid, CFst).

Coupling faults involve an *aggressor* bit and a *victim* bit (different
cells for the classical inter-cell faults; the same cell's bits for the
paper's intra-word case, claim C7):

* **CFin** (inversion): a rising or falling transition of the aggressor
  *inverts* the victim;
* **CFid** (idempotent): a rising or falling transition of the aggressor
  *forces* the victim to a fixed value;
* **CFst** (state): while the aggressor *holds* a given state, the victim
  is forced to a fixed value.

CFin/CFid fire on committed write transitions of the aggressor (the
:meth:`after_write` hook); CFst is a steady-state condition enforced after
every cycle (the :meth:`settle` hook).
"""

from __future__ import annotations

from repro.faults.base import BitLocation, Fault, VectorSemantics
from repro.memory.array import MemoryArray

__all__ = ["InversionCouplingFault", "IdempotentCouplingFault", "StateCouplingFault"]


def _as_location(loc: BitLocation | int) -> BitLocation:
    if isinstance(loc, BitLocation):
        return loc
    return BitLocation(loc, 0)


class _TwoCellFault(Fault):
    """Shared plumbing for aggressor/victim faults."""

    def __init__(self, aggressor: BitLocation | int, victim: BitLocation | int):
        self._aggressor = _as_location(aggressor)
        self._victim = _as_location(victim)
        if self._aggressor == self._victim:
            raise ValueError("aggressor and victim must be distinct bits")

    @property
    def aggressor(self) -> BitLocation:
        """The coupling source bit."""
        return self._aggressor

    @property
    def victim(self) -> BitLocation:
        """The coupled (corrupted) bit."""
        return self._victim

    def cells(self) -> tuple[int, ...]:
        if self._aggressor.cell == self._victim.cell:
            return (self._aggressor.cell,)
        return (self._aggressor.cell, self._victim.cell)

    @property
    def is_intra_word(self) -> bool:
        """True when aggressor and victim are bits of the same word
        (the paper's intra-word fault class, claim C7)."""
        return self._aggressor.cell == self._victim.cell

    def _bits(self) -> str:
        """The name suffix naming the two coupled bits."""
        a, v = self._aggressor, self._victim
        return f"(aggr=({a.cell},{a.bit}), victim=({v.cell},{v.bit}))"

    def _aggressor_transition(self, cell: int, old: int,
                              committed: int) -> tuple[int, int] | None:
        """(old_bit, new_bit) of the aggressor if this write moved it."""
        if cell != self._aggressor.cell:
            return None
        bit = self._aggressor.bit
        old_bit = (old >> bit) & 1
        new_bit = (committed >> bit) & 1
        if old_bit == new_bit:
            return None
        return old_bit, new_bit


class InversionCouplingFault(_TwoCellFault):
    """CFin: an aggressor transition inverts the victim bit.

    ``rising=True`` couples the 0->1 aggressor transition, ``rising=False``
    the 1->0 transition.

    >>> InversionCouplingFault(1, 3, rising=True).name
    'CFin-up(aggr=(1,0), victim=(3,0))'
    """

    fault_class = "CFin"

    def __init__(self, aggressor: BitLocation | int, victim: BitLocation | int,
                 rising: bool):
        super().__init__(aggressor, victim)
        self._rising = bool(rising)

    @property
    def name(self) -> str:
        direction = "up" if self._rising else "down"
        return f"CFin-{direction}{self._bits()}"

    def __repr__(self) -> str:
        return self.name

    def after_write(self, array: MemoryArray, cell: int, old: int,
                    committed: int, time: int) -> None:
        transition = self._aggressor_transition(cell, old, committed)
        if transition is None:
            return
        _old_bit, new_bit = transition
        if new_bit == (1 if self._rising else 0):
            current = self._victim.read(array)
            self._victim.write(array, current ^ 1)

    def vector_semantics(self) -> VectorSemantics:
        return VectorSemantics(
            "coupling", cell=self._aggressor.cell, bit=self._aggressor.bit,
            rising=self._rising, value=None,
            victim_cell=self._victim.cell, victim_bit=self._victim.bit,
        )


class IdempotentCouplingFault(_TwoCellFault):
    """CFid: an aggressor transition forces the victim bit to ``force_to``.

    >>> IdempotentCouplingFault(0, 2, rising=False, force_to=1).name
    'CFid-down->1(aggr=(0,0), victim=(2,0))'
    """

    fault_class = "CFid"

    def __init__(self, aggressor: BitLocation | int, victim: BitLocation | int,
                 rising: bool, force_to: int):
        super().__init__(aggressor, victim)
        if force_to not in (0, 1):
            raise ValueError(f"forced value must be 0 or 1, got {force_to!r}")
        self._rising = bool(rising)
        self._force_to = force_to

    @property
    def name(self) -> str:
        direction = "up" if self._rising else "down"
        return f"CFid-{direction}->{self._force_to}{self._bits()}"

    def __repr__(self) -> str:
        return self.name

    def after_write(self, array: MemoryArray, cell: int, old: int,
                    committed: int, time: int) -> None:
        transition = self._aggressor_transition(cell, old, committed)
        if transition is None:
            return
        _old_bit, new_bit = transition
        if new_bit == (1 if self._rising else 0):
            self._victim.write(array, self._force_to)

    def vector_semantics(self) -> VectorSemantics:
        return VectorSemantics(
            "coupling", cell=self._aggressor.cell, bit=self._aggressor.bit,
            rising=self._rising, value=self._force_to,
            victim_cell=self._victim.cell, victim_bit=self._victim.bit,
        )


class StateCouplingFault(_TwoCellFault):
    """CFst: while the aggressor bit holds ``aggressor_state``, the victim
    bit is forced to ``force_to``.

    >>> StateCouplingFault(1, 2, aggressor_state=1, force_to=0).name
    'CFst<1->0>(aggr=(1,0), victim=(2,0))'
    """

    fault_class = "CFst"

    def __init__(self, aggressor: BitLocation | int, victim: BitLocation | int,
                 aggressor_state: int, force_to: int):
        super().__init__(aggressor, victim)
        if aggressor_state not in (0, 1):
            raise ValueError(
                f"aggressor state must be 0 or 1, got {aggressor_state!r}"
            )
        if force_to not in (0, 1):
            raise ValueError(f"forced value must be 0 or 1, got {force_to!r}")
        self._aggressor_state = aggressor_state
        self._force_to = force_to

    @property
    def name(self) -> str:
        return (f"CFst<{self._aggressor_state}->{self._force_to}>"
                f"{self._bits()}")

    def __repr__(self) -> str:
        return self.name

    def _enforce(self, array: MemoryArray) -> None:
        if self._aggressor.read(array) == self._aggressor_state:
            self._victim.write(array, self._force_to)

    def settle(self, array: MemoryArray, time: int) -> None:
        self._enforce(array)

    def after_write(self, array: MemoryArray, cell: int, old: int,
                    committed: int, time: int) -> None:
        # Enforce immediately as well, so a same-cycle read-after-write
        # inside one port cycle already sees the forced value.
        if cell in (self._aggressor.cell, self._victim.cell):
            self._enforce(array)

    def vector_semantics(self) -> VectorSemantics:
        """Lane description for the bit-packed engine: kind ``"state"``,
        with ``rising`` carrying the aggressor state (True = holds 1)
        and ``value`` the forced victim value.  The lane model
        (:class:`repro.sim.batched._StateCouplingLanes`) re-enforces the
        condition through the executor's ``settle``/``after_write``
        hooks, mirroring the scalar hooks above."""
        return VectorSemantics(
            "state", cell=self._aggressor.cell, bit=self._aggressor.bit,
            rising=bool(self._aggressor_state), value=self._force_to,
            victim_cell=self._victim.cell, victim_bit=self._victim.bit,
        )
