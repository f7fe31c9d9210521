"""Fault-universe generators for coverage campaigns.

A *fault universe* is the set of fault instances a coverage experiment
injects one at a time (single-fault assumption, as in the paper and in
van de Goor's coverage tables).  The generators below enumerate the
canonical universes for a memory of ``n`` cells by ``m`` bits:

* :func:`single_cell_universe` -- SAF/TF per bit, SOF/DRF per cell;
* :func:`coupling_universe` -- CFin/CFid/CFst over ordered cell pairs
  (all adjacent pairs plus a seeded random sample of distant pairs, so the
  universe stays linear in n);
* :func:`decoder_universe` -- the four AF types over a sample of addresses;
* :func:`intra_word_universe` -- intra-word coupling for WOMs (claim C7);
* :func:`bridging_universe` -- wired-AND/OR bridges between adjacent cells;
* :func:`standard_universe` -- the union used by the headline experiments
  (E3, E9); :func:`standard_universe_spec` is its recipe, built without
  enumerating any fault.

Every generator is deterministic (seeded sampling), which is what makes
process sharding cheap: a universe built here carries a
:class:`UniverseSpec` -- a tiny picklable *recipe* naming the generator
and its arguments -- and :func:`materialize_spec` re-enumerates the
identical fault list anywhere (in particular inside the worker processes
of :mod:`repro.sim.pool`), so shards travel as ``(spec, index range)``
instead of pickled fault objects.

Each generator enumerates its faults exactly once, as *descriptor rows*
``(maker, VectorSemantics)`` (:func:`descriptor_table`).  The lane
descriptor is what the batched engine packs into masks, and ``maker``
names the constructor that rebuilds the :class:`~repro.faults.base.Fault`
from it (:func:`fault_from_descriptor`).  :meth:`UniverseSpec.build`
maps every row to a fault up front; :meth:`FaultUniverse.from_spec`
keeps the rows and builds a fault only when one is asked for, so a cold
campaign names just the faults it missed.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from repro.faults.base import BitLocation, Fault, VectorSemantics
from repro.faults.bridging import BridgingFault
from repro.faults.coupling import (
    IdempotentCouplingFault,
    InversionCouplingFault,
    StateCouplingFault,
)
from repro.faults.decoder_faults import (
    AddressDecoderFault,
    af_multi_access,
    af_no_access,
    af_shared_cell,
    af_unreached_cell,
)
from repro.faults.npsf import StaticNPSF
from repro.faults.retention import DataRetentionFault
from repro.faults.stuck_at import StuckAtFault
from repro.faults.stuck_open import StuckOpenFault
from repro.faults.transition import TransitionFault

__all__ = [
    "FaultUniverse",
    "UniverseSpec",
    "DescriptorTable",
    "descriptor_table",
    "fault_from_descriptor",
    "materialize_spec",
    "single_cell_universe",
    "coupling_universe",
    "decoder_universe",
    "intra_word_universe",
    "bridging_universe",
    "npsf_universe",
    "standard_universe",
    "standard_universe_spec",
]


@dataclass(frozen=True)
class UniverseSpec:
    """A picklable recipe that re-enumerates a fault universe anywhere.

    ``generator`` names a registered universe generator (or one of the
    combinators ``"union"`` / ``"sample"``), ``kwargs`` holds its
    arguments as a sorted tuple of pairs (hashable, so specs key caches),
    and ``parts`` holds the child specs of a combinator.  Because every
    generator is seeded-deterministic, ``spec.build()`` produces the
    *identical* fault sequence in any process -- the contract the
    process-sharded campaign engines rely on when they ship a
    ``(spec, index range)`` shard instead of pickled fault objects.
    :func:`descriptor_table` reads the same sequence as lane descriptors
    without building a fault.

    >>> spec = single_cell_universe(8, classes=("SAF",)).spec
    >>> spec.generator, dict(spec.kwargs)["n"]
    ('single_cell', 8)
    >>> [f.name for f in spec.build()] == [
    ...     f.name for f in single_cell_universe(8, classes=("SAF",))]
    True
    """

    generator: str
    kwargs: tuple[tuple[str, object], ...] = ()
    parts: tuple["UniverseSpec", ...] = ()

    @classmethod
    def call(cls, generator: str, **kwargs) -> "UniverseSpec":
        """Spec for one generator call; kwargs are sorted for stable hashing."""
        return cls(generator, kwargs=tuple(sorted(kwargs.items())))

    def build(self) -> "FaultUniverse":
        """Enumerate the universe this spec describes, every fault built
        up front (see :meth:`FaultUniverse.from_spec` for the lazy form)."""
        table = descriptor_table(self)
        faults = [fault_from_descriptor(maker, semantics)
                  for maker, semantics in table.rows]
        return FaultUniverse._from_table(table, self, faults, complete=True)

    def __repr__(self) -> str:
        pieces = [f"{k}={v!r}" for k, v in self.kwargs]
        if self.parts:
            pieces.append("[" + ", ".join(repr(p) for p in self.parts) + "]")
        return f"UniverseSpec({self.generator!r}, {', '.join(pieces)})"


@lru_cache(maxsize=8)
def materialize_spec(spec: UniverseSpec) -> tuple[Fault, ...]:
    """Enumerate a spec's faults, cached per process.

    This is the worker-side entry point of spec-based *scalar* sharding
    (``run_campaign(workers=N)``): each pool worker materializes a
    campaign's universe once and serves every shard of it from the
    cache, so the faults never travel over the task pipe.
    """
    return tuple(spec.build())


def _union_spec(left: UniverseSpec | None,
                right: UniverseSpec | None) -> UniverseSpec | None:
    """Spec of a concatenation -- None when either side is untracked."""
    if left is None or right is None:
        return None
    parts = (left.parts if left.generator == "union" else (left,)) + \
        (right.parts if right.generator == "union" else (right,))
    return UniverseSpec("union", parts=parts)


# -- descriptor tables --------------------------------------------------------

#: ``VectorSemantics`` rows are built with ``tuple.__new__`` and all
#: eight fields positional: the NamedTuple constructor's argument
#: parsing costs about three times as much, on every fault of a cold
#: campaign.
_new = tuple.__new__


class DescriptorTable(NamedTuple):
    """A universe as lane descriptors: one ``(maker, semantics)`` row per
    universe index.

    ``semantics`` equals what the fault at that index returns from
    :meth:`~repro.faults.base.Fault.vector_semantics`, and ``maker``
    names the constructor that rebuilds the fault
    (:func:`fault_from_descriptor`).  The maker is needed because two
    faults can share one descriptor: AF-B (address ``a`` redirected to
    cell ``c``) and AF-D (address ``a`` reaching cell ``c`` instead of
    its own) both override address ``a`` with cell ``c``.

    ``spans`` holds ``(start, stop, n, m)`` runs: rows ``[start, stop)``
    come from a generator part recorded for an ``n x m`` memory, so
    every one of them fits a stream at least that large
    (:func:`repro.sim.campaign.partition_table` checks rows one by one
    only in spans larger than the stream).

    >>> table = descriptor_table(UniverseSpec.call("decoder", n=4,
    ...                                            max_addresses=1))
    >>> [maker for maker, _semantics in table.rows]
    ['AF-A', 'AF-B', 'AF-C', 'AF-D']
    >>> table.class_tags()
    ['AF', 'AF', 'AF', 'AF']
    >>> table.spans
    ((0, 4, 4, 1),)
    """

    rows: list[tuple[str, VectorSemantics]]
    spans: tuple[tuple[int, int, int, int], ...]

    def class_tags(self) -> list[str]:
        """The fault class tag (``"SAF"``, ``"AF"``, ...) of every row."""
        return [_CLASS_TAGS[maker] for maker, _semantics in self.rows]

    def take(self, indices) -> "DescriptorTable":
        """The rows at ``indices``, in that order, with their spans."""
        starts = [span[0] for span in self.spans]
        spans: list[tuple[int, int, int, int]] = []
        for position, index in enumerate(indices):
            _start, _stop, n, m = self.spans[bisect_right(starts, index) - 1]
            if spans and spans[-1][2:] == (n, m):
                spans[-1] = (spans[-1][0], position + 1, n, m)
            else:
                spans.append((position, position + 1, n, m))
        return DescriptorTable([self.rows[index] for index in indices],
                               tuple(spans))


def _concat_tables(tables) -> DescriptorTable:
    rows: list[tuple[str, VectorSemantics]] = []
    spans: list[tuple[int, int, int, int]] = []
    for table in tables:
        offset = len(rows)
        rows.extend(table.rows)
        spans.extend((start + offset, stop + offset, n, m)
                     for start, stop, n, m in table.spans)
    return DescriptorTable(rows, tuple(spans))


def descriptor_table(spec: UniverseSpec) -> DescriptorTable:
    """The descriptor rows of a spec's universe, in universe order.

    No :class:`~repro.faults.base.Fault` is built: each generator part
    runs its one enumeration, ``union`` concatenates the parts' tables
    and ``sample`` takes the parent's rows at the indices
    ``Random(0).sample(range(len(parent)), k)`` picks, exactly as
    :meth:`FaultUniverse.sample` does.

    >>> table = descriptor_table(standard_universe_spec(8))
    >>> len(table.rows) == len(standard_universe(8))
    True
    >>> table.rows[0]
    ('SAF', VectorSemantics(kind='stuck', cell=0, bit=0, value=0, rising=None, victim_cell=None, victim_bit=None, extra=()))
    """
    if spec.generator == "union":
        return _concat_tables(descriptor_table(part) for part in spec.parts)
    if spec.generator == "sample":
        parent = descriptor_table(spec.parts[0])
        k = dict(spec.kwargs)["k"]
        if k >= len(parent.rows):
            return parent
        return parent.take(random.Random(0).sample(range(len(parent.rows)),
                                                   k))
    try:
        generate = _SPEC_GENERATORS[spec.generator]
    except KeyError:
        raise ValueError(
            f"unknown universe generator {spec.generator!r} "
            f"(known: {sorted(_SPEC_GENERATORS)})"
        ) from None
    kwargs = dict(spec.kwargs)
    rows = generate(**kwargs)
    return DescriptorTable(rows, ((0, len(rows), kwargs["n"],
                                   kwargs.get("m", 1)),))


def _coupling_sites(semantics: VectorSemantics) -> tuple[BitLocation,
                                                         BitLocation]:
    return (BitLocation(semantics.cell, semantics.bit),
            BitLocation(semantics.victim_cell, semantics.victim_bit))


#: Descriptor maker -> (class tag, constructor from the descriptor,
#: name from the descriptor).  Each name goes through the fault class's
#: own ``format_name``, the formatter its ``name`` property calls, so
#: a missed fault is named without being built.
_MAKERS = {
    "SAF": ("SAF", lambda s: StuckAtFault(s.cell, s.value, bit=s.bit),
            lambda s: StuckAtFault.format_name(s.cell, s.value, s.bit)),
    "TF": ("TF", lambda s: TransitionFault(s.cell, rising=s.rising,
                                           bit=s.bit),
           lambda s: TransitionFault.format_name(s.cell, s.rising, s.bit)),
    "SOF": ("SOF", lambda s: StuckOpenFault(s.cell, initial_sense=s.value),
            lambda s: StuckOpenFault.format_name(s.cell)),
    "DRF": ("DRF", lambda s: DataRetentionFault(
        s.cell, retention=s.extra[0], decay_to=s.value),
        lambda s: DataRetentionFault.format_name(s.cell, s.extra[0])),
    "CFin": ("CFin", lambda s: InversionCouplingFault(
        *_coupling_sites(s), rising=s.rising),
        lambda s: InversionCouplingFault.format_name(
            s.cell, s.bit, s.victim_cell, s.victim_bit, s.rising)),
    "CFid": ("CFid", lambda s: IdempotentCouplingFault(
        *_coupling_sites(s), s.rising, s.value),
        lambda s: IdempotentCouplingFault.format_name(
            s.cell, s.bit, s.victim_cell, s.victim_bit, s.rising, s.value)),
    "CFst": ("CFst", lambda s: StateCouplingFault(
        *_coupling_sites(s), int(s.rising), s.value),
        lambda s: StateCouplingFault.format_name(
            s.cell, s.bit, s.victim_cell, s.victim_bit, int(s.rising),
            s.value)),
    "BF": ("BF", lambda s: BridgingFault(s.cell, s.victim_cell,
                                         kind="or" if s.value else "and"),
           lambda s: BridgingFault.format_name(
               "or" if s.value else "and", s.cell, s.victim_cell)),
    "NPSF": ("NPSF", lambda s: StaticNPSF(
        victim=s.cell, neighbors=tuple(cell for cell, _ in s.extra),
        pattern=tuple(value for _, value in s.extra), force_to=s.value),
        lambda s: StaticNPSF.format_name(
            s.cell, tuple(cell for cell, _ in s.extra),
            tuple(value for _, value in s.extra), s.value)),
    # Decoder descriptors are ((address, cells),): AF-B and AF-D rows
    # can coincide, so the maker alone says which fault a row is.
    "AF-A": ("AF", lambda s: af_no_access(s.cell),
             lambda s: AddressDecoderFault.format_name("AF-A", s.extra)),
    "AF-B": ("AF", lambda s: af_unreached_cell(s.cell, s.extra[0][1][0]),
             lambda s: AddressDecoderFault.format_name("AF-B", s.extra)),
    "AF-C": ("AF", lambda s: af_multi_access(s.cell, s.extra[0][1][1:]),
             lambda s: AddressDecoderFault.format_name("AF-C", s.extra)),
    "AF-D": ("AF", lambda s: af_shared_cell(s.extra[0][1][0], s.cell),
             lambda s: AddressDecoderFault.format_name("AF-D", s.extra)),
}


_CLASS_TAGS = {maker: entry[0] for maker, entry in _MAKERS.items()}


def fault_from_descriptor(maker: str, semantics: VectorSemantics) -> Fault:
    """Build the fault one descriptor row stands for.

    >>> fault_from_descriptor(*descriptor_table(
    ...     UniverseSpec.call("bridging", n=2)).rows[1]).name
    'BF-or(0, 1)'
    """
    return _MAKERS[maker][1](semantics)


# -- the universe -------------------------------------------------------------


class FaultUniverse:
    """An ordered collection of faults with per-class queries.

    ``spec``, when not None, is the :class:`UniverseSpec` that rebuilds
    this exact universe in another process; universes assembled from
    generator outputs (including via ``+`` and seeded :meth:`sample`)
    keep their specs automatically.

    A universe made from a spec also keeps its :attr:`descriptors`
    table.  :meth:`from_spec` builds no fault up front: indexing builds
    (and keeps) the one fault asked for, iteration builds the rest, and
    ``len``, :meth:`counts`, :meth:`classes`, :meth:`class_tags` and
    :meth:`name_of` read the table alone.  Every query returns what the
    fully built universe returns.

    >>> universe = single_cell_universe(4, classes=("SAF",))
    >>> len(universe)
    8
    >>> sorted(universe.counts())
    ['SAF']
    >>> lazy = FaultUniverse.from_spec(universe.spec)
    >>> lazy.counts(), lazy.name_of(7), lazy[7].name
    ({'SAF': 8}, 'SA1(cell=3, bit=0)', 'SA1(cell=3, bit=0)')
    """

    def __init__(self, faults: list[Fault], spec: UniverseSpec | None = None):
        self._faults: list[Fault | None] = list(faults)
        self.spec = spec
        self._table: DescriptorTable | None = None
        self._complete = True

    @classmethod
    def from_spec(cls, spec: UniverseSpec) -> FaultUniverse:
        """The universe ``spec`` describes, with no fault built yet."""
        return cls._from_table(descriptor_table(spec), spec)

    @classmethod
    def _from_table(cls, table: DescriptorTable, spec: UniverseSpec | None,
                    faults: list[Fault | None] | None = None,
                    complete: bool = False) -> FaultUniverse:
        universe = cls.__new__(cls)
        universe._faults = faults if faults is not None \
            else [None] * len(table.rows)
        universe.spec = spec
        universe._table = table
        universe._complete = complete
        return universe

    @property
    def descriptors(self) -> DescriptorTable | None:
        """The descriptor table of a universe made from a spec (None for
        a hand-built fault list)."""
        return self._table

    def _fault(self, index: int) -> Fault:
        fault = self._faults[index]
        if fault is None:
            fault = fault_from_descriptor(*self._table.rows[index])
            self._faults[index] = fault
        return fault

    def name_of(self, index: int) -> str:
        """The name of the fault at ``index``: the built fault's when it
        exists, else formatted from its descriptor row, building
        nothing."""
        fault = self._faults[index]
        if fault is not None:
            return fault.name
        maker, semantics = self._table.rows[index]
        return _MAKERS[maker][2](semantics)

    def _all(self) -> list[Fault]:
        if not self._complete:
            for index, fault in enumerate(self._faults):
                if fault is None:
                    self._fault(index)
            self._complete = True
        return self._faults

    def __len__(self) -> int:
        return len(self._faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self._all())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._fault(i) for i in range(len(self._faults))[index]]
        return self._fault(index)

    def class_tags(self) -> list[str]:
        """The class tag of every fault, in universe order."""
        if self._table is not None:
            return self._table.class_tags()
        return [fault.fault_class for fault in self._faults]

    def by_class(self, fault_class: str) -> list[Fault]:
        """All faults of one class tag (e.g. ``"SAF"``)."""
        return [self._fault(index)
                for index, tag in enumerate(self.class_tags())
                if tag == fault_class]

    def classes(self) -> list[str]:
        """Distinct class tags, sorted."""
        return sorted(set(self.class_tags()))

    def counts(self) -> dict[str, int]:
        """``{class_tag: number_of_faults}``."""
        return dict(Counter(self.class_tags()))

    def sample(self, k: int, rng: random.Random | None = None) -> FaultUniverse:
        """A reproducible random subset of ``k`` faults.

        With the default ``rng`` (seed 0) the subset is a pure function
        of the universe, so a spec-carrying universe keeps a spec; a
        caller-supplied ``rng`` has unknown state and drops it.
        """
        spec = None
        if rng is None:
            rng = random.Random(0)
            if self.spec is not None:
                spec = UniverseSpec("sample", kwargs=(("k", k),),
                                    parts=(self.spec,))
        if k >= len(self._faults):
            if self._table is None:
                return FaultUniverse(self._faults, spec=spec)
            return FaultUniverse._from_table(self._table, spec,
                                             list(self._faults),
                                             self._complete)
        # random.sample picks positions from the population's length
        # alone, so sampling indices picks the same faults (and leaves
        # ``rng`` in the same state) as sampling the fault list.
        picks = rng.sample(range(len(self._faults)), k)
        faults = [self._faults[index] for index in picks]
        if self._table is None:
            return FaultUniverse(faults, spec=spec)
        return FaultUniverse._from_table(self._table.take(picks), spec,
                                         faults)

    def __add__(self, other: FaultUniverse) -> FaultUniverse:
        spec = _union_spec(self.spec, other.spec)
        if self._table is None or other._table is None:
            return FaultUniverse(self._all() + other._all(), spec=spec)
        return FaultUniverse._from_table(
            _concat_tables((self._table, other._table)), spec,
            self._faults + other._faults,
            self._complete and other._complete)

    def __repr__(self) -> str:
        inner = ", ".join(f"{c}:{k}" for c, k in sorted(self.counts().items()))
        return f"FaultUniverse({len(self._faults)} faults; {inner})"


# -- generators ---------------------------------------------------------------
#
# Each public generator records its spec and builds it; the one
# enumeration of its faults is the ``_*_rows`` function the spec names
# (see _SPEC_GENERATORS), which emits descriptor rows.


def _normalize_classes(classes) -> tuple[str, ...]:
    """Class filters as a hashable tuple (the shape ``UniverseSpec`` keys).

    A bare string would silently pass every membership test as a
    substring probe and, tuple()'d, yield an empty universe -- wrap it
    into the intended one-element filter instead.
    """
    if isinstance(classes, str):
        return (classes,)
    return tuple(classes)


def single_cell_universe(
    n: int, m: int = 1,
    classes: tuple[str, ...] = ("SAF", "TF", "SOF", "DRF"),
    retention: int = 64,
) -> FaultUniverse:
    """All single-cell faults of the requested classes.

    SAF and TF enumerate every bit of every cell (2 polarities each);
    SOF and DRF are one per cell.

    >>> len(single_cell_universe(8, m=1))   # 16 SAF + 16 TF + 8 SOF + 8 DRF
    48
    """
    return UniverseSpec.call(
        "single_cell", n=n, m=m, classes=_normalize_classes(classes),
        retention=retention).build()


def _single_cell_rows(n: int, m: int = 1,
                      classes=("SAF", "TF", "SOF", "DRF"),
                      retention: int = 64) -> list:
    classes = _normalize_classes(classes)
    saf, tf = "SAF" in classes, "TF" in classes
    sof, drf = "SOF" in classes, "DRF" in classes
    if drf and retention < 1:
        raise ValueError(f"retention must be >= 1 cycle, got {retention}")
    vs = VectorSemantics
    rows: list = []
    add = rows.append
    for cell in range(n):
        for bit in range(m):
            if saf:
                add(("SAF", _new(vs, ("stuck", cell, bit, 0, None, None,
                                      None, ()))))
                add(("SAF", _new(vs, ("stuck", cell, bit, 1, None, None,
                                      None, ()))))
            if tf:
                add(("TF", _new(vs, ("transition", cell, bit, None, True,
                                     None, None, ()))))
                add(("TF", _new(vs, ("transition", cell, bit, None, False,
                                     None, None, ()))))
        if sof:
            add(("SOF", _new(vs, ("stuck-open", cell, 0, 0, None, None,
                                  None, ()))))
        if drf:
            add(("DRF", _new(vs, ("retention", cell, 0, 0, None, None,
                                  None, (retention,)))))
    return rows


def _cell_pairs(n: int, extra_random: int, rng: random.Random) -> list[tuple[int, int]]:
    """Ordered aggressor/victim cell pairs: all adjacent + random sample."""
    pairs = []
    for i in range(n - 1):
        pairs.append((i, i + 1))
        pairs.append((i + 1, i))
    seen = set(pairs)
    attempts = 0
    while len(pairs) - 2 * (n - 1) < extra_random and attempts < 50 * extra_random:
        attempts += 1
        a = rng.randrange(n)
        v = rng.randrange(n)
        if a == v or (a, v) in seen:
            continue
        seen.add((a, v))
        pairs.append((a, v))
    return pairs


#: The ten faults of one aggressor -> victim bit pair, in enumeration
#: order: ``(maker, kind, value, rising)``.  CFin/CFid fire on the
#: aggressor edge ``rising``; for CFst ``rising`` carries the aggressor
#: state (True = holds 1).  ``value`` is the forced victim value (None
#: inverts).
_PAIR_ROWS = (
    ("CFin", "coupling", None, True), ("CFin", "coupling", None, False),
    ("CFid", "coupling", 0, True), ("CFid", "coupling", 1, True),
    ("CFid", "coupling", 0, False), ("CFid", "coupling", 1, False),
    ("CFst", "state", 0, False), ("CFst", "state", 1, False),
    ("CFst", "state", 0, True), ("CFst", "state", 1, True),
)


def _pair_templates(classes: tuple[str, ...]) -> list:
    return [row for row in _PAIR_ROWS if row[0] in classes]


def _pair_rows(templates: list, a_cell: int, a_bit: int, v_cell: int,
               v_bit: int) -> list:
    """The rows of one aggressor -> victim bit pair."""
    vs = VectorSemantics
    return [(maker, _new(vs, (kind, a_cell, a_bit, value, rising, v_cell,
                              v_bit, ())))
            for maker, kind, value, rising in templates]


def coupling_universe(
    n: int, m: int = 1,
    classes: tuple[str, ...] = ("CFin", "CFid", "CFst"),
    extra_random_pairs: int = 0,
    seed: int = 0,
) -> FaultUniverse:
    """Two-cell coupling faults over adjacent (plus sampled) cell pairs.

    For ``m > 1`` the coupled bits are chosen pseudo-randomly per pair so
    word-oriented campaigns exercise all bit positions without exploding
    the universe size.
    """
    return UniverseSpec.call(
        "coupling", n=n, m=m, classes=_normalize_classes(classes),
        extra_random_pairs=extra_random_pairs, seed=seed).build()


def _coupling_rows(n: int, m: int = 1, classes=("CFin", "CFid", "CFst"),
                   extra_random_pairs: int = 0, seed: int = 0) -> list:
    if n < 2:
        raise ValueError("coupling faults need at least two cells")
    templates = _pair_templates(_normalize_classes(classes))
    rng = random.Random(seed)
    rows: list = []
    for a_cell, v_cell in _cell_pairs(n, extra_random_pairs, rng):
        a_bit = rng.randrange(m) if m > 1 else 0
        v_bit = rng.randrange(m) if m > 1 else 0
        rows += _pair_rows(templates, a_cell, a_bit, v_cell, v_bit)
    return rows


def decoder_universe(n: int, max_addresses: int = 8, seed: int = 0) -> FaultUniverse:
    """The four AF types over a sample of addresses.

    >>> universe = decoder_universe(16, max_addresses=4)
    >>> universe.counts()
    {'AF': 16}
    """
    return UniverseSpec.call("decoder", n=n, max_addresses=max_addresses,
                             seed=seed).build()


def _decoder_rows(n: int, max_addresses: int = 8, seed: int = 0) -> list:
    if n < 2:
        raise ValueError("decoder faults need at least two addresses")
    rng = random.Random(seed)
    addresses = list(range(n))
    if n > max_addresses:
        addresses = sorted(rng.sample(addresses, max_addresses))
    vs = VectorSemantics
    rows: list = []
    add = rows.append
    for addr in addresses:
        other = (addr + 1) % n
        # AF-A addr reaches no cell; AF-B its cell is redirected to
        # ``other``; AF-C it reaches ``other`` too; AF-D ``other``
        # reaches addr's cell instead of its own.
        add(("AF-A", _new(vs, ("decoder", addr, 0, None, None, None, None,
                               ((addr, ()),)))))
        add(("AF-B", _new(vs, ("decoder", addr, 0, None, None, None, None,
                               ((addr, (other,)),)))))
        add(("AF-C", _new(vs, ("decoder", addr, 0, None, None, None, None,
                               ((addr, (addr, other)),)))))
        add(("AF-D", _new(vs, ("decoder", other, 0, None, None, None, None,
                               ((other, (addr,)),)))))
    return rows


def intra_word_universe(
    n: int, m: int,
    classes: tuple[str, ...] = ("CFin", "CFid", "CFst"),
    max_cells: int = 8, seed: int = 0,
) -> FaultUniverse:
    """Intra-word coupling faults: aggressor/victim bits of the same word.

    This is the fault class the paper's claim C7 addresses with parallel /
    random bit-slice trajectories.  Adjacent bit pairs of each sampled cell
    are enumerated in both directions.
    """
    return UniverseSpec.call(
        "intra_word", n=n, m=m, classes=_normalize_classes(classes),
        max_cells=max_cells, seed=seed).build()


def _intra_word_rows(n: int, m: int, classes=("CFin", "CFid", "CFst"),
                     max_cells: int = 8, seed: int = 0) -> list:
    if m < 2:
        raise ValueError("intra-word faults need word width m >= 2")
    templates = _pair_templates(_normalize_classes(classes))
    rng = random.Random(seed)
    cells = list(range(n))
    if n > max_cells:
        cells = sorted(rng.sample(cells, max_cells))
    bit_pairs = [(b, b + 1) for b in range(m - 1)]
    bit_pairs += [(b + 1, b) for b in range(m - 1)]
    rows: list = []
    for cell in cells:
        for a_bit, v_bit in bit_pairs:
            rows += _pair_rows(templates, cell, a_bit, cell, v_bit)
    return rows


def bridging_universe(n: int) -> FaultUniverse:
    """Wired-AND and wired-OR bridges between all adjacent cell pairs."""
    return UniverseSpec.call("bridging", n=n).build()


def _bridging_rows(n: int) -> list:
    if n < 2:
        raise ValueError("bridging faults need at least two cells")
    vs = VectorSemantics
    rows: list = []
    add = rows.append
    for i in range(n - 1):
        # ``value`` is the wired rule: 0 = wired-AND, 1 = wired-OR.
        add(("BF", _new(vs, ("bridge", i, 0, 0, None, i + 1, None, ()))))
        add(("BF", _new(vs, ("bridge", i, 0, 1, None, i + 1, None, ()))))
    return rows


def npsf_universe(n: int, max_victims: int = 8, seed: int = 0) -> FaultUniverse:
    """Static NPSFs over linear (address-adjacent) neighbourhoods.

    For each sampled victim cell ``v`` with interior neighbours
    ``(v-1, v+1)``, enumerate all four neighbourhood patterns forcing the
    victim to the value that contradicts the pattern-implied deceptive
    state (both force polarities).

    >>> npsf_universe(8, max_victims=2).counts()
    {'NPSF': 16}
    """
    return UniverseSpec.call("npsf", n=n, max_victims=max_victims,
                             seed=seed).build()


def _npsf_rows(n: int, max_victims: int = 8, seed: int = 0) -> list:
    if n < 3:
        raise ValueError("NPSF needs at least three cells")
    rng = random.Random(seed)
    victims = list(range(1, n - 1))
    if len(victims) > max_victims:
        victims = sorted(rng.sample(victims, max_victims))
    vs = VectorSemantics
    rows: list = []
    add = rows.append
    for victim in victims:
        for p0 in (0, 1):
            for p1 in (0, 1):
                pattern = ((victim - 1, p0), (victim + 1, p1))
                for force_to in (0, 1):
                    add(("NPSF", _new(vs, ("npsf", victim, 0, force_to,
                                           None, None, None, pattern))))
    return rows


def standard_universe_spec(n: int, m: int = 1, seed: int = 0) -> UniverseSpec:
    """The :class:`UniverseSpec` of :func:`standard_universe`, built
    without enumerating a single fault.

    It is the union recipe the generators record when the universe is
    assembled, so it equals ``standard_universe(n, m, seed).spec`` (and
    has the same ``repr``, which is what cache keys hash).  Nothing is
    validated here: an impossible geometry (``n < 2``) only fails when
    the spec is built.

    >>> spec = standard_universe_spec(8)
    >>> [part.generator for part in spec.parts]
    ['single_cell', 'coupling', 'bridging', 'decoder']
    >>> spec == standard_universe(8).spec
    True
    """
    parts = (
        UniverseSpec.call("single_cell", n=n, m=m,
                          classes=("SAF", "TF", "SOF"), retention=64),
        UniverseSpec.call("coupling", n=n, m=m,
                          classes=("CFin", "CFid", "CFst"),
                          extra_random_pairs=0, seed=seed),
        UniverseSpec.call("bridging", n=n),
        UniverseSpec.call("decoder", n=n, max_addresses=8, seed=seed),
    )
    if m > 1:
        parts += (UniverseSpec.call("intra_word", n=n, m=m,
                                    classes=("CFin", "CFid", "CFst"),
                                    max_cells=8, seed=seed),)
    return UniverseSpec("union", parts=parts)


def standard_universe(n: int, m: int = 1, seed: int = 0) -> FaultUniverse:
    """The union universe used by the headline experiments (E3, E9).

    Single-cell SAF/TF (every bit), SOF, coupling faults over adjacent
    pairs, bridges, and the four decoder-fault types, plus intra-word
    coupling when ``m > 1``.  DRF is excluded by default because
    detecting it requires explicit pause elements (both March and PRT
    need the same added delay; see E3's notes).  This is
    ``standard_universe_spec(n, m, seed).build()``: callers that only
    need the recipe (cache keys, request resolution) should take
    :func:`standard_universe_spec` and skip the enumeration.

    >>> universe = standard_universe(8)
    >>> universe.spec == standard_universe_spec(8)
    True
    """
    return standard_universe_spec(n, m, seed).build()


# Spec-resolvable generators (see UniverseSpec): name -> the descriptor
# enumeration behind the public generator of that name.
# standard_universe is omitted on purpose: it already decomposes into a
# union spec of these.
_SPEC_GENERATORS = {
    "single_cell": _single_cell_rows,
    "coupling": _coupling_rows,
    "decoder": _decoder_rows,
    "intra_word": _intra_word_rows,
    "bridging": _bridging_rows,
    "npsf": _npsf_rows,
}
