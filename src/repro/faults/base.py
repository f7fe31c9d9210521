"""Fault interface.

Every fault model implements a handful of hooks that the
:class:`~repro.faults.injector.FaultInjector` calls at the right points of a
memory cycle:

* :meth:`Fault.read_value` -- perturb the value sensed from a cell,
* :meth:`Fault.transform_write` -- perturb (or block) the value a write
  stores into a cell,
* :meth:`Fault.after_write` -- react to a *committed* transition of a cell
  (coupling faults fire here),
* :meth:`Fault.settle` -- enforce steady-state conditions after each cycle
  (state coupling, bridges, pattern-sensitive faults),
* :meth:`Fault.decoder_overrides` -- contribute faulty address mappings.

Faults carrying internal analogue state (stuck-open latches, retention
timers) implement :meth:`Fault.reset` so one fault object can be reused
across many test runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.memory.array import MemoryArray

__all__ = ["Fault", "BitLocation", "VectorSemantics"]


class VectorSemantics(NamedTuple):
    """Lane-parallel description of a fault, for the bit-packed engine.

    A fault whose effect can be expressed as a few mask operations on a
    bit-plane memory (:class:`repro.memory.packed.PackedMemoryArray`)
    returns one of these from :meth:`Fault.vector_semantics`; the batched
    campaign engine (:func:`repro.sim.batched.run_campaign_batched`) then
    replays one compiled stream against hundreds of such faults at once,
    one lane per fault.  Faults whose behaviour no lane model can express
    (custom analogue models, front-end-dependent semantics) return
    ``None`` and take the per-fault path.

    ``kind`` selects which other slots are meaningful:

    ================  =======================================================
    kind              semantics
    ================  =======================================================
    ``"stuck"``       bit ``(cell, bit)`` pinned to ``value``
    ``"transition"``  bit ``(cell, bit)`` cannot rise (``rising=True``) or
                      fall (``rising=False``) on a write
    ``"coupling"``    a write moving aggressor bit ``(cell, bit)`` to 1
                      (``rising=True``) or 0 (``rising=False``) corrupts
                      victim bit ``(victim_cell, victim_bit)``: inverted
                      when ``value`` is None (CFin), forced to ``value``
                      otherwise (CFid)
    ``"state"``       while aggressor bit ``(cell, bit)`` holds 1
                      (``rising=True``) or 0 (``rising=False``), victim
                      bit ``(victim_cell, victim_bit)`` is forced to
                      ``value`` (CFst)
    ``"npsf"``        while every neighbour cell holds its pattern value
                      (``extra`` = ``(neighbour_cell, m_bit_value)``
                      pairs), victim cell ``cell`` is forced to ``value``
    ``"bridge"``      cells ``cell`` and ``victim_cell`` are shorted;
                      ``value`` is 1 for a wired-OR short, 0 for
                      wired-AND
    ``"retention"``   cell ``cell`` decays to ``value`` after
                      ``extra[0]`` idle cycles without an access
    ``"linked"``      composite: ``extra`` holds the component
                      descriptors (all ``"coupling"``), fired in order on
                      every aggressor edge
    ``"decoder"``     address-decoder rewiring; ``extra`` holds the
                      sorted ``(address, activated_cells)`` override
                      pairs
    ================  =======================================================

    It is a :class:`~typing.NamedTuple`, because the batched engine
    builds one per fault on every cold campaign and a tuple is the
    cheapest immutable record to construct.  Being a tuple, it compares
    equal to a plain tuple of its fields in declaration order.

    >>> VectorSemantics("stuck", cell=3, value=1)
    VectorSemantics(kind='stuck', cell=3, bit=0, value=1, rising=None, victim_cell=None, victim_bit=None, extra=())
    >>> VectorSemantics("stuck", cell=3) == ("stuck", 3, 0, None, None,
    ...                                      None, None, ())
    True
    """

    kind: str
    cell: int
    bit: int = 0
    value: int | None = None
    rising: bool | None = None
    victim_cell: int | None = None
    victim_bit: int | None = None
    extra: tuple = ()


@dataclass(frozen=True, order=True)
class BitLocation:
    """A single bit of a single cell: the unit coupling faults act on.

    For a bit-oriented memory every location has ``bit == 0``.

    >>> BitLocation(3, 1)
    BitLocation(cell=3, bit=1)
    """

    cell: int
    bit: int = 0

    def read(self, array: MemoryArray) -> int:
        """Current value of this bit in the array."""
        return array.read_bit(self.cell, self.bit)

    def write(self, array: MemoryArray, value: int) -> None:
        """Force this bit in the array."""
        array.write_bit(self.cell, self.bit, value)


class Fault:
    """Base class for all fault models.  Subclasses override what they need.

    The default implementation is a no-op fault (healthy behaviour).
    """

    #: short class tag, e.g. "SAF", "CFin"; overridden by subclasses.
    fault_class: str = "NONE"

    @property
    def name(self) -> str:
        """Human-readable identity used in coverage reports."""
        return repr(self)

    def cells(self) -> tuple[int, ...]:
        """Physical cells this fault involves (for reporting)."""
        return ()

    # -- hooks -----------------------------------------------------------------

    def read_value(self, array: MemoryArray, cell: int, stored: int,
                   time: int) -> int:
        """Value sensed when reading ``cell`` whose array content is
        ``stored``.  Default: faithful."""
        return stored

    def transform_write(self, array: MemoryArray, cell: int, old: int,
                        new: int, time: int) -> int:
        """Value actually stored when writing ``new`` over ``old``.
        Default: faithful."""
        return new

    def after_write(self, array: MemoryArray, cell: int, old: int,
                    committed: int, time: int) -> None:
        """React to the committed write ``old -> committed`` on ``cell``
        (coupling faults mutate their victims here).  Default: nothing."""

    def settle(self, array: MemoryArray, time: int) -> None:
        """Enforce steady-state conditions after a cycle.  Default: nothing."""

    def decoder_overrides(self) -> dict[int, tuple[int, ...]]:
        """Address-decoder rewiring contributed by this fault.
        Default: none."""
        return {}

    def vector_semantics(self) -> VectorSemantics | None:
        """Lane-parallel (mask-operation) description of this fault, or
        None when the fault cannot be vectorized (custom analogue state,
        front-end-dependent behaviour).  Default: None."""

    def reset(self) -> None:
        """Clear internal analogue state (latches, timers).  Default: none."""
