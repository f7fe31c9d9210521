"""Address-decoder faults (AF).

Van de Goor's four decoder fault types are expressed as faulty
address-to-cell mappings installed into the RAM's
:class:`~repro.memory.decoder.AddressDecoder`:

* **AF-A** (:func:`af_no_access`): address ``a`` activates no cell.
  Writes are lost; reads return the sense amplifier's stale value.
* **AF-B** (:func:`af_unreached_cell`): cell ``c`` is activated by no
  address (its address is redirected elsewhere).
* **AF-C** (:func:`af_multi_access`): address ``a`` activates its own cell
  *plus* others; reads combine wired-AND/OR, writes hit all of them.
* **AF-D** (:func:`af_shared_cell`): two addresses activate the same cell.

In real decoders these come in complementary pairs (an address losing its
cell usually means some cell losing its address); the factories build the
individual primitive, and :func:`repro.faults.universe.decoder_universe`
composes realistic pairs.
"""

from __future__ import annotations

from repro.faults.base import Fault, VectorSemantics

__all__ = [
    "AddressDecoderFault",
    "af_no_access",
    "af_unreached_cell",
    "af_multi_access",
    "af_shared_cell",
]


class AddressDecoderFault(Fault):
    """A decoder fault: a bundle of address-mapping overrides.

    Use the ``af_*`` factory functions for the four canonical types.

    >>> af = AddressDecoderFault("AF-A", {3: ()})
    >>> af.decoder_overrides()
    {3: ()}
    """

    fault_class = "AF"

    def __init__(self, subtype: str, overrides: dict[int, tuple[int, ...]]):
        if not overrides:
            raise ValueError("a decoder fault needs at least one override")
        self._subtype = subtype
        self._overrides = {
            addr: tuple(cells) for addr, cells in overrides.items()
        }

    @staticmethod
    def format_name(subtype: str, overrides) -> str:
        """The :attr:`name` of a ``subtype`` fault whose overrides are
        the address-sorted ``(address, cells)`` pairs ``overrides``."""
        parts = ", ".join(f"{addr}->{list(cells)}" for addr, cells in overrides)
        return f"{subtype}({parts})"

    @property
    def name(self) -> str:
        return self.format_name(self._subtype,
                                sorted(self._overrides.items()))

    def __repr__(self) -> str:
        return self.name

    @property
    def subtype(self) -> str:
        """One of ``"AF-A"``, ``"AF-B"``, ``"AF-C"``, ``"AF-D"``."""
        return self._subtype

    def cells(self) -> tuple[int, ...]:
        touched: set[int] = set(self._overrides)
        for cells in self._overrides.values():
            touched.update(cells)
        return tuple(sorted(touched))

    def decoder_overrides(self) -> dict[int, tuple[int, ...]]:
        return dict(self._overrides)

    def vector_semantics(self) -> VectorSemantics:
        """Lane description for the bit-packed engine: kind
        ``"decoder"``, with ``extra`` the sorted ``(address,
        activated_cells)`` override pairs.  The lane model reproduces
        the canonical single-port read path -- lost writes, redirected
        writes, wired-AND multi-cell reads and the AF-A sense-amplifier
        latch -- column-parallel."""
        overrides = tuple(sorted(self._overrides.items()))
        return VectorSemantics("decoder", cell=overrides[0][0],
                               extra=overrides)


def af_no_access(addr: int) -> AddressDecoderFault:
    """AF-A: ``addr`` activates no cell.

    >>> af_no_access(3).decoder_overrides()
    {3: ()}
    """
    return AddressDecoderFault("AF-A", {addr: ()})


def af_unreached_cell(cell: int, redirected_to: int) -> AddressDecoderFault:
    """AF-B: cell ``cell`` is never activated -- its own address is
    redirected to ``redirected_to``.

    >>> af_unreached_cell(2, 5).decoder_overrides()
    {2: (5,)}
    """
    if cell == redirected_to:
        raise ValueError("redirect target must differ from the orphaned cell")
    return AddressDecoderFault("AF-B", {cell: (redirected_to,)})


def af_multi_access(addr: int, extra_cells: tuple[int, ...] | list[int]) -> AddressDecoderFault:
    """AF-C: ``addr`` activates its own cell plus ``extra_cells``.

    >>> af_multi_access(1, (4,)).decoder_overrides()
    {1: (1, 4)}
    """
    extra = tuple(extra_cells)
    if not extra:
        raise ValueError("AF-C needs at least one extra cell")
    if addr in extra:
        raise ValueError("extra cells must differ from the address's own cell")
    return AddressDecoderFault("AF-C", {addr: (addr,) + extra})


def af_shared_cell(addr: int, other_addr: int) -> AddressDecoderFault:
    """AF-D: ``other_addr`` activates ``addr``'s cell instead of its own.

    >>> af_shared_cell(0, 1).decoder_overrides()
    {1: (0,)}
    """
    if addr == other_addr:
        raise ValueError("the two addresses must be distinct")
    return AddressDecoderFault("AF-D", {other_addr: (addr,)})
