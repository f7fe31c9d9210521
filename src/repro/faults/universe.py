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

Each generator is a *part* of a :class:`DescriptorTable`: its sites
(cells, coupled bit pairs, addresses) times one fixed record of faults
per site.  Any universe index maps to a *descriptor row* ``(maker,
VectorSemantics)`` by arithmetic: the lane descriptor, and ``maker``
naming the constructor that rebuilds the
:class:`~repro.faults.base.Fault` from it (:func:`fault_from_descriptor`).
:meth:`UniverseSpec.build` maps every row to a fault up front;
:meth:`FaultUniverse.from_spec` makes a row, and builds a fault, only
when one is asked for.  A cold campaign needs no row at all:
:meth:`DescriptorTable.lane_plan` gives the batched engine's lane models
their inputs as whole columns, built per address and per coupled pair
from the records, and :func:`tally` counts the verdicts per record slot
and names the misses per site.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import itemgetter, not_, or_
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
    "tally",
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
#: parsing costs about three times as much, on every row a caller asks
#: for.
_new = tuple.__new__


class DescriptorTable:
    """A universe as lane descriptors: one ``(maker, semantics)`` row per
    universe index, made on demand.

    ``semantics`` equals what the fault at that index returns from
    :meth:`~repro.faults.base.Fault.vector_semantics`, and ``maker``
    names the constructor that rebuilds the fault
    (:func:`fault_from_descriptor`).  The maker is needed because two
    faults can share one descriptor: AF-B (address ``a`` redirected to
    cell ``c``) and AF-D (address ``a`` reaching cell ``c`` instead of
    its own) both override address ``a`` with cell ``c``.

    The table is a sequence of *parts*, one per generator call (or one
    per run of rows a :meth:`take` picked).  A generator part computes
    any row from its index, so :meth:`row` makes one row and
    :attr:`rows` (every row, kept once made) is only for callers that
    ask.  :meth:`class_tags`, :meth:`name` and :func:`tally` come from
    the parts' records, and :meth:`lane_plan` gives the batched engine
    its lane model inputs as whole columns, all without a row.

    ``spans`` holds ``(start, stop, n, m)`` runs: rows ``[start, stop)``
    come from a part recorded for an ``n x m`` memory, so every one of
    them fits a stream at least that large (a stream smaller than a
    part has its rows checked one by one, see
    :func:`repro.sim.campaign.partition_table`).

    >>> table = descriptor_table(UniverseSpec.call("decoder", n=4,
    ...                                            max_addresses=1))
    >>> [maker for maker, _semantics in table.rows]
    ['AF-A', 'AF-B', 'AF-C', 'AF-D']
    >>> table.class_tags()
    ['AF', 'AF', 'AF', 'AF']
    >>> table.spans
    ((0, 4, 4, 1),)
    """

    def __init__(self, parts):
        self.parts = tuple(parts)
        starts, size = [], 0
        for part in self.parts:
            starts.append(size)
            size += part.size
        self._starts = starts
        self._size = size
        self._rows: list | None = None

    def __len__(self) -> int:
        return self._size

    @property
    def spans(self) -> tuple[tuple[int, int, int, int], ...]:
        return tuple((start, start + part.size, part.n, part.m)
                     for start, part in zip(self._starts, self.parts))

    def _locate(self, index: int):
        """``(part, index within the part)`` of a universe index."""
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError(f"descriptor index {index} out of range")
        slot = bisect_right(self._starts, index) - 1
        return self.parts[slot], index - self._starts[slot]

    def row(self, index: int) -> tuple[str, VectorSemantics]:
        """The ``(maker, semantics)`` row at ``index``, made from the
        index alone."""
        part, local = self._locate(index)
        return part.row(local)

    def name(self, index: int) -> str:
        """The name of the fault at ``index``, formatted by its part."""
        part, local = self._locate(index)
        return part.name(local)

    @property
    def rows(self) -> list[tuple[str, VectorSemantics]]:
        """Every row in universe order (made on first use, then kept)."""
        if self._rows is None:
            self._rows = []
            for part in self.parts:
                self._rows += part.rows()
        return self._rows

    def class_tags(self) -> list[str]:
        """The fault class tag (``"SAF"``, ``"AF"``, ...) of every row."""
        tags: list[str] = []
        for part in self.parts:
            tags += part.class_tags()
        return tags

    def take(self, indices) -> "DescriptorTable":
        """The rows at ``indices``, in that order, with their spans.  Each
        picked row stays a ``(generator part, index)`` reference, made
        only when asked for."""
        runs: list[tuple[list, int, int]] = []
        for index in indices:
            part, local = self._locate(index)
            if isinstance(part, _RowsPart):  # a sample of a sample
                part, local = part.picks[local]
            if runs and runs[-1][1:] == (part.n, part.m):
                runs[-1][0].append((part, local))
            else:
                runs.append(([(part, local)], part.n, part.m))
        return DescriptorTable(_RowsPart(picks, n, m)
                               for picks, n, m in runs)

    def lane_plan(self, n: int, m: int = 1) -> "LanePlan | None":
        """The lane plan of every row on an ``n x m`` stream, built from
        the generator parts alone.

        None when a part must be read row by row: rows a :meth:`take`
        picked (a ``sample``), or a part recorded for a memory larger
        than ``n x m``, whose rows need the per-row geometry check.
        """
        sizes: dict[str, int] = {}
        segments: dict[str, list[tuple[int, int, int, _Part]]] = {}
        for start, part in zip(self._starts, self.parts):
            if not isinstance(part, _Part) or part.n > n or part.m > m:
                return None
            for kind, offsets in part.lane_offsets.items():
                first, count = sizes.get(kind, 0), len(offsets) * part.sites
                sizes[kind] = first + count
                segments.setdefault(kind, []).append(
                    (first, count, start, part))
        return LanePlan(sizes, [], segments)


def _strided(offsets, record: int, sites: int, base: int) -> list[int]:
    """``[base + site * record + offset for site for offset]``, written
    one offset column at a time."""
    width = len(offsets)
    indices = [0] * (width * sites)
    for column, offset in enumerate(offsets):
        first = base + offset
        indices[column::width] = range(first, first + sites * record, record)
    return indices


def _concat_tables(tables) -> DescriptorTable:
    return DescriptorTable(part for table in tables for part in table.parts)


def tally(faults, verdicts) -> tuple[dict[str, int], dict[str, int],
                                     list[str]]:
    """``(total, detected, missed names)`` of a campaign whose
    ``verdicts[i]`` is the ``detected`` flag of ``faults[i]``.

    Equal, key order included, to the ``total``, ``detected`` and
    ``missed_faults`` that :meth:`CoverageReport.record
    <repro.analysis.coverage.CoverageReport.record>` makes fault by
    fault: classes in order of first appearance, detections in order of
    first detection, misses in universe order.  A universe with a
    descriptor table is tallied per generator part and builds no fault;
    a hand-built fault list is tallied fault by fault.

    >>> universe = FaultUniverse.from_spec(UniverseSpec.call(
    ...     "single_cell", n=2, m=1, classes=("SAF", "SOF"), retention=64))
    >>> total, detected, missed = tally(universe, [1, 0, 0, 1, 1, 1])
    >>> total, detected
    ({'SAF': 4, 'SOF': 2}, {'SAF': 3, 'SOF': 1})
    >>> missed
    ['SA1(cell=0, bit=0)', 'SOF(cell=0)']
    """
    total: dict[str, int] = {}
    detected: dict[str, int] = {}
    missed: list[str] = []
    table = getattr(faults, "descriptors", None)
    if table is None:
        faults = list(faults)
        _tally_each([fault.fault_class for fault in faults], verdicts,
                    lambda k: faults[k].name, total, detected, missed)
    else:
        for start, part in zip(table._starts, table.parts):
            part.tally(verdicts, start, total, detected, missed)
    return total, detected, missed


def _format_all(templates, values: tuple) -> list[str]:
    """One string per ``%``-template of ``templates``, each filled with
    its share of ``values`` in order, made by a single ``%`` over the
    newline-joined templates (no name holds a newline)."""
    return ("\n".join(templates) % values).split("\n")


def _tally_each(tags, verdicts, name, total: dict, detected: dict,
                missed: list) -> None:
    """Tally ``tags[k]`` with verdict ``verdicts[k]`` fault by fault,
    naming the ``k``-th fault ``name(k)`` when it was missed."""
    for k, (tag, hit) in enumerate(zip(tags, verdicts, strict=True)):
        total[tag] = total.get(tag, 0) + 1
        if hit:
            detected[tag] = detected.get(tag, 0) + 1
        else:
            missed.append(name(k))


def descriptor_table(spec: UniverseSpec) -> DescriptorTable:
    """The descriptor table of a spec's universe, in universe order.

    No :class:`~repro.faults.base.Fault` and no row is built: each
    generator part records its sites, ``union`` concatenates the parts'
    tables and ``sample`` takes the parent's rows at the indices
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
        if k >= len(parent):
            return parent
        return parent.take(random.Random(0).sample(range(len(parent)), k))
    try:
        generate = _SPEC_GENERATORS[spec.generator]
    except KeyError:
        raise ValueError(
            f"unknown universe generator {spec.generator!r} "
            f"(known: {sorted(_SPEC_GENERATORS)})"
        ) from None
    return DescriptorTable((generate(**dict(spec.kwargs)),))


# -- lane plans ---------------------------------------------------------------
#
# A lane plan hands the batched engine each lane kind's model inputs
# as whole columns.  Lane ``k`` of a pass over members ``[lo, hi)`` of a
# kind carries member ``lo + k``; in a word-oriented pass its bit in
# plane ``b`` sits at column bit ``b * (hi - lo) + k``.  The columns of
# each kind (what ``repro.sim.batched``'s model of that kind takes, and
# what its rows -> columns adapter makes from descriptors):
#
# ``stuck``       ``({cell: SA1 column}, {cell: SA0 column})``
# ``transition``  ``({cell: TF-up column}, {cell: TF-down column})``
# ``stuck-open``  ``({cell: open lanes}, sense lanes powering up at 1)``
# ``retention``   ``{cell: {(retention, decay_to): lanes}}``
# ``coupling``    ``{aggressor cell: [(victim cell, plane shift,
#                 rise_inv, rise_set, rise_clr, fall_inv, fall_set,
#                 fall_clr)]}``: one entry per (aggressor cell, victim
#                 cell, plane delta), its six masks in the victim plane
#                 (:func:`coupling_slot` orders them)
# ``state``       ``[(aggressor cell, victim cell, plane shift, state1,
#                 state0, force1, force0)]``: one entry per (aggressor
#                 cell, aggressor bit, victim cell, victim bit), the
#                 state masks in the aggressor plane, the force masks
#                 in the victim plane
# ``bridge``      ``{(cell_a, cell_b, wired_or): lanes}``
# ``npsf``        ``{(victim, ((cell, value), ...), force_to): lanes}``
# ``decoder``     ``{((address, cells), ...): lanes}``
#
# "lanes" is a one-plane lane mask; a "column" has its lane bits in the
# faulty bit's plane; a "plane shift" is the aggressor -> victim plane
# delta times the pass's lane count.  Entries and keys come in order of
# their first lane.


def coupling_slot(rising: bool, value) -> int:
    """The mask slot of a coupling fault in its column entry: edge
    (rise 0, fall 3) plus effect (invert 0, set 1, clear 2)."""
    return (0 if rising else 3) + (0 if value is None else 1 if value else 2)


def _new_columns(kind: str):
    """An empty accumulator for a pass's columns of ``kind``.  Coupling
    and CFst entries come with a ``{key: position}`` index that merges a
    second entry of one key into the first."""
    if kind in ("coupling", "state"):
        return {} if kind == "coupling" else [], {}
    if kind in ("stuck", "transition"):
        return {}, {}
    if kind == "stuck-open":
        return {}, 0  # no generator row powers its sense latch up at 1
    return {}


class LanePlan(NamedTuple):
    """The lane classes of a universe on one stream geometry.

    Lane ``k`` of a pass over members ``[lo, hi)`` of a kind carries the
    kind's member ``lo + k``, and members follow universe order.
    ``sizes[kind]`` counts a kind's members and ``fallback`` lists the
    universe indices no lane model takes.  Built from a spec's generator
    parts (:meth:`DescriptorTable.lane_plan`), it keeps ``segments``,
    ``(first member, members, universe start, part)`` per part, and
    gives each pass its model inputs through :meth:`columns`.  A
    universe read row by row gets a plan with the same interface from
    the engine's rows -> columns adapter
    (:class:`repro.sim.batched.RowPlan`).

    >>> plan = descriptor_table(UniverseSpec.call(
    ...     "single_cell", n=2, m=1, classes=("SAF",),
    ...     retention=64)).lane_plan(2)
    >>> plan.sizes, plan.members("stuck")
    ({'stuck': 4}, [0, 1, 2, 3])
    >>> plan.columns("stuck", 0, 4)   # (SA1, SA0) lanes per cell
    ({0: 2, 1: 8}, {0: 1, 1: 4})
    >>> plan.columns("stuck", 1, 3)   # a pass cut inside cell 0
    ({0: 1}, {1: 2})
    >>> verdicts = [None] * 4
    >>> plan.unpack("stuck", 1, 3, 0b10, verdicts)   # lane 1 detected
    >>> verdicts
    [None, False, True, None]
    """

    sizes: dict[str, int]
    fallback: list[int]
    segments: dict[str, list[tuple[int, int, int, "_Part"]]]

    def members(self, kind: str) -> list[int]:
        """The universe indices of a kind's members, in lane order."""
        indices: list[int] = []
        for _first, _count, start, part in self.segments[kind]:
            indices += _strided(part.lane_offsets[kind], len(part.record),
                                part.sites, start)
        return indices

    def columns(self, kind: str, lo: int, hi: int):
        """The columns of one pass over members ``[lo, hi)`` of
        ``kind`` (see the table above this class)."""
        lanes = hi - lo
        parts = [(max(lo, first), min(hi, first + count), first, part)
                 for first, count, _start, part in self.segments[kind]
                 if first < hi and lo < first + count]
        columns = _new_columns(kind)
        for low, high, first, part in parts:
            part.fill(kind, low - first, high - first, low - lo, lanes,
                      columns)
        return columns[0] if kind in ("coupling", "state") else columns

    def unpack(self, kind: str, lo: int, hi: int, detected: int,
               verdicts: list) -> None:
        """Write lane ``k`` of a pass's ``detected`` mask to the verdict
        of member ``lo + k``.  One binary rendering of the mask, not a
        shift per lane (a shift copies the whole wide int), then one
        slice assignment per record offset."""
        width = hi - lo
        bits = format(detected, f"0{width}b")[::-1][:width]
        for first, count, start, part in self.segments[kind]:
            low, high = max(lo, first), min(hi, first + count)
            if low < high:
                part.unpack(kind, low - first, high - first,
                            bits[low - lo:high - lo], start, verdicts)


def _site_units(lo: int, hi: int, width: int, units, lane: int,
                cut=None):
    """``(site, units, shift)`` for every site holding members ``[lo,
    hi)`` of a kind with ``width`` members per site, in member order.

    ``units`` are the masks of one site's members, member ``k`` at bit
    ``k`` of one plane.  ``shift`` moves them to the site's lanes in a
    pass whose lane ``lane`` carries member ``lo``.  The whole sites
    come out of a ``zip`` of ranges.  A site the range cuts gets
    ``cut(first, last)``: the units of its members ``first..last-1``,
    moved down to the first of them (by default ``units`` masked).
    """
    if cut is None:
        def cut(first: int, last: int) -> list[int]:
            keep = (1 << last) - (1 << first)
            return [(unit & keep) >> first for unit in units]

    def cut_site(site: int):
        base = site * width
        first, last = max(lo - base, 0), min(hi - base, width)
        return site, cut(first, last), lane + base + first - lo

    first, last = -(-lo // width), hi // width  # the whole sites
    if first > last:  # [lo, hi) lies inside one site
        return iter([cut_site(lo // width)])
    start = lane + first * width - lo
    whole = zip(range(first, last), repeat(units),
                range(start, start + (last - first) * width, width))
    before = [cut_site(first - 1)] if lo % width else []
    after = [cut_site(last)] if hi % width else []
    return chain(before, whole, after)


def _merge_entry(entries: list, position: int, entry: tuple,
                 head: int) -> None:
    """OR ``entry``'s masks (its fields from ``head`` on) into the entry
    of the same key at ``entries[position]``."""
    old = entries[position]
    entries[position] = (*old[:head], *map(or_, old[head:], entry[head:]))


# -- generator parts ----------------------------------------------------------
#
# Every generator emits a fixed *record* of rows per *site* (a cell, a
# coupled bit pair, a decoder address, an NPSF victim): row ``i`` of a
# part is template ``i % len(record)`` of site ``i // len(record)``.  So
# a row is made from its index alone (``row``), a kind's members are a
# stride pattern over the records (``lane_offsets``), and a lane model's
# masks are one record's pattern shifted to each site (``fill``).


class _Part:
    """One generator call: ``sites`` records of ``record`` makers.

    Subclasses give ``_row(site, slot)``, ``fill(kind, lo, hi, lane,
    lanes, columns)``, which ORs members ``[lo, hi)`` of ``kind`` (counted
    within this part) into ``columns`` from lane ``lane`` of a
    ``lanes``-wide pass on, and the names of their rows: ``_heads``, one
    ``%``-template per record slot (``"CFid-up->0%s"``), filled with the
    site's tail, ``_tail % _tail_args(site)``
    (``"(aggr=(3,0), victim=(4,0))"``; the site number by default).
    """

    _heads: tuple[str, ...] = ()
    _tail = "%d"

    def _tail_args(self, site: int) -> tuple:
        return (site,)

    def __init__(self, n: int, m: int, sites: int, record: tuple[str, ...]):
        self.n, self.m = n, m
        self.sites = max(sites, 0)
        self.record = record
        self.size = self.sites * len(record)
        offsets: dict[str, list[int]] = {}
        for offset, maker in enumerate(record):
            offsets.setdefault(_KINDS[maker], []).append(offset)
        #: kind -> positions of the kind's rows within one record
        self.lane_offsets = offsets if self.sites else {}

    def row(self, index: int) -> tuple[str, VectorSemantics]:
        site, slot = divmod(index, len(self.record))
        return self._row(site, slot)

    def unpack(self, kind: str, lo: int, hi: int, bits: str, start: int,
               verdicts: list) -> None:
        """Write ``bits[k]``, the verdict of member ``lo + k`` of
        ``kind``, to ``verdicts``; the part's row 0 is universe index
        ``start``.  The members at one record offset sit ``record`` rows
        apart, so each offset takes one slice assignment."""
        offsets = self.lane_offsets[kind]
        width, record = len(offsets), len(self.record)
        for column, offset in enumerate(offsets):
            member = lo + (column - lo) % width  # the first in range
            if member >= hi:
                continue
            index = start + member // width * record + offset
            count = (hi - 1 - member) // width + 1
            verdicts[index:index + (count - 1) * record + 1:record] = \
                map("1".__eq__, bits[member - lo::width])

    def rows(self) -> list[tuple[str, VectorSemantics]]:
        record = range(len(self.record))
        return [self._row(site, slot) for site in range(self.sites)
                for slot in record]

    def class_tags(self) -> list[str]:
        return [_CLASS_TAGS[maker] for maker in self.record] * self.sites

    def name(self, local: int) -> str:
        """The name of the row at part index ``local``."""
        site, slot = divmod(local, len(self.record))
        return self._heads[slot] % (self._tail % self._tail_args(site))

    def names(self, local: list[int]) -> list[str]:
        """The names of the rows at the part indices ``local``, as
        :meth:`name` makes them: the tails of the sites with a row in
        ``local`` in one ``%``, then the names in another."""
        if len(local) < 2:
            return list(map(self.name, local))
        sites = list(map(int.__floordiv__, local, repeat(len(self.record))))
        unique = list(dict.fromkeys(sites))
        tails = dict(zip(unique, _format_all(
            repeat(self._tail, len(unique)),
            tuple(chain.from_iterable(map(self._tail_args, unique))))))
        return _format_all(itemgetter(*local)(self._heads * self.sites),
                           itemgetter(*sites)(tails))

    def tally(self, verdicts, start: int, total: dict, detected: dict,
              missed: list) -> None:
        """Add this part's verdicts (its row 0 is ``verdicts[start]``)
        to the running tally of :func:`tally`.  Per record slot: the
        class count is ``sites``, and the slot's column (a strided
        slice) gives its detections and, only where some are missing,
        its misses, named together by :meth:`names`."""
        if not self.sites:
            return
        width, size = len(self.record), self.size
        hits: dict[str, int] = {}
        firsts: dict[str, int] = {}  # tag -> its first detected row
        misses: list[int] = []
        for slot, maker in enumerate(self.record):
            tag = _CLASS_TAGS[maker]
            total[tag] = total.get(tag, 0) + self.sites
            column = verdicts[start + slot:start + size:width]
            count = sum(column)
            if count:
                hits[tag] = hits.get(tag, 0) + count
                first = slot + width * column.index(True)
                if first < firsts.get(tag, size):
                    firsts[tag] = first
            if count < self.sites:
                misses += compress(range(slot, size, width),
                                   map(not_, column))
        for tag in sorted(firsts, key=firsts.__getitem__):
            detected[tag] = detected.get(tag, 0) + hits[tag]
        if misses:
            misses.sort()
            missed += self.names(misses)


class _RowsPart:
    """Rows picked one by one (a :meth:`DescriptorTable.take` run):
    ``picks`` holds a ``(generator part, index within it)`` per row."""

    def __init__(self, picks: list, n: int, m: int):
        self.picks = picks
        self.n, self.m = n, m
        self.size = len(picks)

    def row(self, index: int) -> tuple[str, VectorSemantics]:
        part, local = self.picks[index]
        return part.row(local)

    def rows(self) -> list[tuple[str, VectorSemantics]]:
        return [part.row(local) for part, local in self.picks]

    def class_tags(self) -> list[str]:
        return [_CLASS_TAGS[part.record[local % len(part.record)]]
                for part, local in self.picks]

    def name(self, index: int) -> str:
        part, local = self.picks[index]
        return part.name(local)

    def tally(self, verdicts, start: int, total: dict, detected: dict,
              missed: list) -> None:
        _tally_each(self.class_tags(), verdicts[start:start + self.size],
                    self.name, total, detected, missed)


class _SingleCellPart(_Part):
    """Per cell: SAF and TF rows per bit, then SOF and DRF."""

    def __init__(self, n: int, m: int = 1,
                 classes=("SAF", "TF", "SOF", "DRF"), retention: int = 64):
        classes = _normalize_classes(classes)
        if "DRF" in classes and retention < 1:
            raise ValueError(f"retention must be >= 1 cycle, got {retention}")
        self.retention = retention
        #: (maker, bit, value or rising) per record slot
        self._templates = []
        for bit in range(m):
            if "SAF" in classes:
                self._templates += [("SAF", bit, 0), ("SAF", bit, 1)]
            if "TF" in classes:
                self._templates += [("TF", bit, True), ("TF", bit, False)]
        self._templates += [(maker, 0, 0) for maker in ("SOF", "DRF")
                            if maker in classes]
        super().__init__(n, m, n, tuple(t[0] for t in self._templates))
        self._heads = tuple(
            f"SA{arg}(cell=%s, bit={bit})" if maker == "SAF"
            else f"TF-{'up' if arg else 'down'}(cell=%s, bit={bit})"
            if maker == "TF" else "SOF(cell=%s)" if maker == "SOF"
            else f"DRF(cell=%s, retention={retention})"
            for maker, bit, arg in self._templates)

    def _row(self, cell: int, slot: int) -> tuple[str, VectorSemantics]:
        maker, bit, arg = self._templates[slot]
        vs = VectorSemantics
        if maker == "SAF":
            fields = ("stuck", cell, bit, arg, None, None, None, ())
        elif maker == "TF":
            fields = ("transition", cell, bit, None, arg, None, None, ())
        elif maker == "SOF":
            fields = ("stuck-open", cell, 0, 0, None, None, None, ())
        else:
            fields = ("retention", cell, 0, 0, None, None, None,
                      (self.retention,))
        return maker, _new(vs, fields)

    def fill(self, kind, lo, hi, lane, lanes, columns):
        if kind == "stuck-open":  # one lane per cell
            open_lanes = columns[0]
            for cell in range(lo, hi):
                open_lanes[cell] = open_lanes.get(cell, 0) \
                    | 1 << (lane + cell - lo)
            return
        if kind == "retention":
            key = (self.retention, 0)
            for cell in range(lo, hi):
                per_cell = columns.setdefault(cell, {})
                per_cell[key] = per_cell.get(key, 0) | 1 << (lane + cell - lo)
            return
        # stuck / transition: member 2b + v of a cell sits in plane b;
        # v = 1 is SA1 / TF-down, which feeds the first dict of stuck
        # columns and the second of transition columns.
        ones = 1 if kind == "stuck" else 0

        def cut(first: int, last: int) -> list[int]:
            # A cell cut by the pass: its members' bits one by one (the
            # pass may be narrower than the cell's 2m members).
            units = [0, 0]
            for member in range(first, last):
                bit, v = divmod(member, 2)
                units[v != ones] |= 1 << (bit * lanes + member - first)
            return units

        low = sum(1 << (b * lanes + 2 * b) for b in range(self.m))
        units = [low << 1, low] if ones else [low, low << 1]
        first, second = columns
        for cell, (one, two), shift in _site_units(lo, hi, 2 * self.m,
                                                   units, lane, cut):
            if one:
                first[cell] = first.get(cell, 0) | one << shift
            if two:
                second[cell] = second.get(cell, 0) | two << shift


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


class _PairPart(_Part):
    """Per coupled bit pair ``(a_cell, a_bit, v_cell, v_bit)``: the
    :data:`_PAIR_ROWS` of the requested classes."""

    def __init__(self, n: int, m: int, pairs: list, classes):
        classes = _normalize_classes(classes)
        self._pairs = pairs
        self._templates = [row for row in _PAIR_ROWS if row[0] in classes]
        super().__init__(n, m, len(pairs),
                         tuple(row[0] for row in self._templates))
        self._heads = tuple(
            f"CFst<{int(rising)}->{value}>%s" if maker == "CFst"
            else f"{maker}-{'up' if rising else 'down'}"
            + ("%s" if value is None else f"->{value}%s")
            for maker, _kind, value, rising in self._templates)
        self._tail_args = pairs.__getitem__

    _tail = "(aggr=(%d,%d), victim=(%d,%d))"

    def _row(self, site: int, slot: int) -> tuple[str, VectorSemantics]:
        a_cell, a_bit, v_cell, v_bit = self._pairs[site]
        maker, kind, value, rising = self._templates[slot]
        return maker, _new(VectorSemantics, (kind, a_cell, a_bit, value,
                                             rising, v_cell, v_bit, ()))

    def fill(self, kind, lo, hi, lane, lanes, columns):
        templates = [row for row in self._templates if row[1] == kind]
        # One pair's lanes per mask slot, member k at bit k: coupling
        # slots by (edge, effect), CFst state1, state0, force1, force0.
        if kind == "coupling":
            units = [0] * 6
            for member, (_maker, _kind, value, rising) in \
                    enumerate(templates):
                units[coupling_slot(rising, value)] |= 1 << member
        else:
            units = [0] * 4
            for member, (_maker, _kind, value, rising) in \
                    enumerate(templates):
                units[0 if rising else 1] |= 1 << member
                units[2 if value else 3] |= 1 << member
        pairs = self._pairs
        sites = _site_units(lo, hi, len(templates), units, lane)
        if kind == "coupling":  # every mask in the victim plane
            table, where = columns
            for site, (u0, u1, u2, u3, u4, u5), shift in sites:
                a_cell, a_bit, v_cell, v_bit = pairs[site]
                delta = v_bit - a_bit
                at = shift + v_bit * lanes
                entry = (v_cell, delta * lanes, u0 << at, u1 << at,
                         u2 << at, u3 << at, u4 << at, u5 << at)
                key = (a_cell, v_cell, delta)
                found = where.get(key)
                if found is not None:
                    _merge_entry(*found, entry, 2)
                    continue
                entries = table.get(a_cell)
                if entries is None:
                    entries = table[a_cell] = []
                where[key] = (entries, len(entries))
                entries.append(entry)
            return
        entries, where = columns  # state masks in the aggressor plane
        for site, (u0, u1, u2, u3), shift in sites:
            a_cell, a_bit, v_cell, v_bit = pairs[site]
            at, to = shift + a_bit * lanes, shift + v_bit * lanes
            entry = (a_cell, v_cell, (v_bit - a_bit) * lanes, u0 << at,
                     u1 << at, u2 << to, u3 << to)
            key = (a_cell, a_bit, v_cell, v_bit)
            position = where.get(key)
            if position is not None:
                _merge_entry(entries, position, entry, 3)
                continue
            where[key] = len(entries)
            entries.append(entry)


class _BridgingPart(_Part):
    """Per adjacent cell pair: the wired-AND then the wired-OR bridge."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("bridging faults need at least two cells")
        super().__init__(n, 1, n - 1, ("BF", "BF"))

    _heads = ("BF-and(%s)", "BF-or(%s)")
    _tail = "%d, %d"

    def _tail_args(self, cell: int) -> tuple[int, int]:
        return cell, cell + 1

    def _row(self, cell: int, wired_or: int) -> tuple[str, VectorSemantics]:
        # ``value`` is the wired rule: 0 = wired-AND, 1 = wired-OR.
        return "BF", _new(VectorSemantics, ("bridge", cell, 0, wired_or,
                                            None, cell + 1, None, ()))

    def fill(self, kind, lo, hi, lane, lanes, columns):
        for cell, (wired_and, wired_or), shift in _site_units(
                lo, hi, 2, (1, 2), lane):
            if wired_and:
                key = (cell, cell + 1, 0)
                columns[key] = columns.get(key, 0) | wired_and << shift
            if wired_or:
                key = (cell, cell + 1, 1)
                columns[key] = columns.get(key, 0) | wired_or << shift


class _DecoderPart(_Part):
    """Per sampled address: AF-A, AF-B, AF-C and AF-D."""

    def __init__(self, n: int, max_addresses: int = 8, seed: int = 0):
        if n < 2:
            raise ValueError("decoder faults need at least two addresses")
        addresses = list(range(n))
        if n > max_addresses:
            addresses = sorted(random.Random(seed).sample(addresses,
                                                          max_addresses))
        self._addresses = addresses
        super().__init__(n, 1, len(addresses),
                         ("AF-A", "AF-B", "AF-C", "AF-D"))

    def _overrides(self, site: int, slot: int) -> tuple[int, tuple]:
        """``(cell, ((address, cells),))`` of one row: AF-A addr reaches
        no cell; AF-B its cell is redirected to ``other``; AF-C it
        reaches ``other`` too; AF-D ``other`` reaches addr's cell instead
        of its own."""
        addr = self._addresses[site]
        other = (addr + 1) % self.n
        if slot == 3:
            return other, ((other, (addr,)),)
        return addr, ((addr, ((), (other,), (addr, other))[slot]),)

    def _row(self, site: int, slot: int) -> tuple[str, VectorSemantics]:
        cell, extra = self._overrides(site, slot)
        return self.record[slot], _new(VectorSemantics, (
            "decoder", cell, 0, None, None, None, None, extra))

    def name(self, local: int) -> str:
        # A row's overrides depend on its slot and its site both.
        site, slot = divmod(local, 4)
        return AddressDecoderFault.format_name(
            self.record[slot], self._overrides(site, slot)[1])

    def names(self, local: list[int]) -> list[str]:
        return list(map(self.name, local))

    def fill(self, kind, lo, hi, lane, lanes, columns):
        for member in range(lo, hi):
            key = self._overrides(*divmod(member, 4))[1]
            columns[key] = columns.get(key, 0) | 1 << (lane + member - lo)


class _NpsfPart(_Part):
    """Per sampled victim: both forces of all four neighbour patterns."""

    def __init__(self, n: int, max_victims: int = 8, seed: int = 0):
        if n < 3:
            raise ValueError("NPSF needs at least three cells")
        victims = list(range(1, n - 1))
        if len(victims) > max_victims:
            victims = sorted(random.Random(seed).sample(victims,
                                                        max_victims))
        self._victims = victims
        super().__init__(n, 1, len(victims), ("NPSF",) * 8)

    _heads = tuple(f"NPSF(victim=%s=({slot >> 2}, {slot >> 1 & 1}) -> "
                   f"{slot & 1})" for slot in range(8))

    _tail = "%d, nbhd=(%d, %d)"

    def _tail_args(self, site: int) -> tuple[int, int, int]:
        victim = self._victims[site]
        return victim, victim - 1, victim + 1

    def _key(self, site: int, slot: int) -> tuple[int, tuple, int]:
        """``(victim, pattern, force_to)``: slot ``4 p0 + 2 p1 + f``."""
        victim = self._victims[site]
        return (victim, ((victim - 1, slot >> 2), (victim + 1, slot >> 1 & 1)),
                slot & 1)

    def _row(self, site: int, slot: int) -> tuple[str, VectorSemantics]:
        victim, pattern, force_to = self._key(site, slot)
        return "NPSF", _new(VectorSemantics, ("npsf", victim, 0, force_to,
                                              None, None, None, pattern))

    def fill(self, kind, lo, hi, lane, lanes, columns):
        for member in range(lo, hi):
            key = self._key(*divmod(member, 8))
            columns[key] = columns.get(key, 0) | 1 << (lane + member - lo)


def _coupling_sites(semantics: VectorSemantics) -> tuple[BitLocation,
                                                         BitLocation]:
    return (BitLocation(semantics.cell, semantics.bit),
            BitLocation(semantics.victim_cell, semantics.victim_bit))


#: Descriptor maker -> (class tag, constructor from the descriptor).
_MAKERS = {
    "SAF": ("SAF", lambda s: StuckAtFault(s.cell, s.value, bit=s.bit)),
    "TF": ("TF", lambda s: TransitionFault(s.cell, rising=s.rising,
                                           bit=s.bit)),
    "SOF": ("SOF", lambda s: StuckOpenFault(s.cell, initial_sense=s.value)),
    "DRF": ("DRF", lambda s: DataRetentionFault(
        s.cell, retention=s.extra[0], decay_to=s.value)),
    "CFin": ("CFin", lambda s: InversionCouplingFault(
        *_coupling_sites(s), rising=s.rising)),
    "CFid": ("CFid", lambda s: IdempotentCouplingFault(
        *_coupling_sites(s), s.rising, s.value)),
    "CFst": ("CFst", lambda s: StateCouplingFault(
        *_coupling_sites(s), int(s.rising), s.value)),
    "BF": ("BF", lambda s: BridgingFault(s.cell, s.victim_cell,
                                         kind="or" if s.value else "and")),
    "NPSF": ("NPSF", lambda s: StaticNPSF(
        victim=s.cell, neighbors=tuple(cell for cell, _ in s.extra),
        pattern=tuple(value for _, value in s.extra), force_to=s.value)),
    # Decoder descriptors are ((address, cells),): AF-B and AF-D rows
    # can coincide, so the maker alone says which fault a row is.
    "AF-A": ("AF", lambda s: af_no_access(s.cell)),
    "AF-B": ("AF", lambda s: af_unreached_cell(s.cell, s.extra[0][1][0])),
    "AF-C": ("AF", lambda s: af_multi_access(s.cell, s.extra[0][1][1:])),
    "AF-D": ("AF", lambda s: af_shared_cell(s.extra[0][1][0], s.cell)),
}


_CLASS_TAGS = {maker: entry[0] for maker, entry in _MAKERS.items()}

#: Descriptor maker -> the lane kind of its rows.
_KINDS = {"SAF": "stuck", "TF": "transition", "SOF": "stuck-open",
          "DRF": "retention", "CFin": "coupling", "CFid": "coupling",
          "CFst": "state", "BF": "bridge", "NPSF": "npsf",
          "AF-A": "decoder", "AF-B": "decoder", "AF-C": "decoder",
          "AF-D": "decoder"}


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
            else [None] * len(table)
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
            fault = fault_from_descriptor(*self._table.row(index))
            self._faults[index] = fault
        return fault

    def name_of(self, index: int) -> str:
        """The name of the fault at ``index``: formatted by its
        descriptor table's part when the universe has one (building
        nothing), else the fault's own."""
        if self._table is None:
            return self._faults[index].name
        return self._table.name(index)

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


def _cell_pairs(n: int, extra_random: int, rng: random.Random) -> list[tuple[int, int]]:
    """Ordered aggressor/victim cell pairs: all adjacent + random sample."""
    pairs = []
    for i in range(n - 1):
        pairs.append((i, i + 1))
        pairs.append((i + 1, i))
    seen = set(pairs) if extra_random > 0 else set()
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


def _coupling_part(n: int, m: int = 1, classes=("CFin", "CFid", "CFst"),
                   extra_random_pairs: int = 0, seed: int = 0) -> _PairPart:
    if n < 2:
        raise ValueError("coupling faults need at least two cells")
    rng = random.Random(seed)
    cells = _cell_pairs(n, extra_random_pairs, rng)
    if m > 1:  # one aggressor and one victim bit per pair, drawn in order
        pairs = [(a_cell, rng.randrange(m), v_cell, rng.randrange(m))
                 for a_cell, v_cell in cells]
    else:
        pairs = [(a_cell, 0, v_cell, 0) for a_cell, v_cell in cells]
    return _PairPart(n, m, pairs, classes)


def decoder_universe(n: int, max_addresses: int = 8, seed: int = 0) -> FaultUniverse:
    """The four AF types over a sample of addresses.

    >>> universe = decoder_universe(16, max_addresses=4)
    >>> universe.counts()
    {'AF': 16}
    """
    return UniverseSpec.call("decoder", n=n, max_addresses=max_addresses,
                             seed=seed).build()


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


def _intra_word_part(n: int, m: int, classes=("CFin", "CFid", "CFst"),
                     max_cells: int = 8, seed: int = 0) -> _PairPart:
    if m < 2:
        raise ValueError("intra-word faults need word width m >= 2")
    cells = list(range(n))
    if n > max_cells:
        cells = sorted(random.Random(seed).sample(cells, max_cells))
    bit_pairs = [(b, b + 1) for b in range(m - 1)]
    bit_pairs += [(b + 1, b) for b in range(m - 1)]
    return _PairPart(n, m, [(cell, a_bit, cell, v_bit) for cell in cells
                            for a_bit, v_bit in bit_pairs], classes)


def bridging_universe(n: int) -> FaultUniverse:
    """Wired-AND and wired-OR bridges between all adjacent cell pairs."""
    return UniverseSpec.call("bridging", n=n).build()


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


# Spec-resolvable generators (see UniverseSpec): name -> the part
# (the sites and record) behind the public generator of that name.
# standard_universe is omitted on purpose: it already decomposes into a
# union spec of these.
_SPEC_GENERATORS = {
    "single_cell": _SingleCellPart,
    "coupling": _coupling_part,
    "decoder": _DecoderPart,
    "intra_word": _intra_word_part,
    "bridging": _BridgingPart,
    "npsf": _NpsfPart,
}
