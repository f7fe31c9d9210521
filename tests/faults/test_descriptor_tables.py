"""Differential tests: descriptor tables against the Fault path.

A universe made from a spec carries its faults as descriptor rows; the
batched engine packs lanes from those rows and builds a fault only for
a miss or the scalar remainder.  Everything read from the rows must
equal what the fully built universe gives:

* the lane split (``partition_table``) equals ``partition_universe``
  over ``spec.build()``, per kind and for the fallback, on streams both
  smaller and larger than the spec's parts;
* the class tags equal every fault's ``fault_class``;
* a lazily built fault has the built fault's name at every index;
* the lazy universe answers every query as the eager one does.

The built faults themselves are checked against ``_reference``, a plain
enumeration of each generator's documented order, so a maker that
rebuilds the wrong fault from a shared descriptor (AF-B vs AF-D) fails
here even though both paths would agree with each other.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    BitLocation,
    BridgingFault,
    DataRetentionFault,
    FaultUniverse,
    IdempotentCouplingFault,
    InversionCouplingFault,
    StateCouplingFault,
    StaticNPSF,
    StuckAtFault,
    StuckOpenFault,
    TransitionFault,
    UniverseSpec,
    af_multi_access,
    af_no_access,
    af_shared_cell,
    af_unreached_cell,
    descriptor_table,
    standard_universe_spec,
)
from repro.sim.campaign import partition_table, partition_universe

CELL_CLASSES = ("SAF", "TF", "SOF", "DRF")
PAIR_CLASSES = ("CFin", "CFid", "CFst")


# -- an independent enumeration of every generator ---------------------------


def _pair_faults(classes, aggressor, victim):
    faults = []
    if "CFin" in classes:
        faults += [InversionCouplingFault(aggressor, victim, rising=r)
                   for r in (True, False)]
    if "CFid" in classes:
        faults += [IdempotentCouplingFault(aggressor, victim, r, f)
                   for r in (True, False) for f in (0, 1)]
    if "CFst" in classes:
        faults += [StateCouplingFault(aggressor, victim, s, f)
                   for s in (0, 1) for f in (0, 1)]
    return faults


def _reference(spec):
    """The faults of ``spec``, enumerated without descriptor rows."""
    if spec.generator == "union":
        return [f for part in spec.parts for f in _reference(part)]
    if spec.generator == "sample":
        parent = _reference(spec.parts[0])
        k = dict(spec.kwargs)["k"]
        if k >= len(parent):
            return parent
        return random.Random(0).sample(parent, k)
    kw = dict(spec.kwargs)
    n = kw["n"]
    rng = random.Random(kw.get("seed", 0))
    faults = []
    if spec.generator == "single_cell":
        for cell in range(n):
            for bit in range(kw["m"]):
                if "SAF" in kw["classes"]:
                    faults += [StuckAtFault(cell, v, bit=bit) for v in (0, 1)]
                if "TF" in kw["classes"]:
                    faults += [TransitionFault(cell, r, bit=bit)
                               for r in (True, False)]
            if "SOF" in kw["classes"]:
                faults.append(StuckOpenFault(cell))
            if "DRF" in kw["classes"]:
                faults.append(DataRetentionFault(cell, kw["retention"]))
    elif spec.generator == "coupling":
        m = kw["m"]
        pairs = [p for i in range(n - 1) for p in ((i, i + 1), (i + 1, i))]
        seen, adjacent, attempts = set(pairs), len(pairs), 0
        extra = kw["extra_random_pairs"]
        while len(pairs) - adjacent < extra and attempts < 50 * extra:
            attempts += 1
            pair = (rng.randrange(n), rng.randrange(n))
            if pair[0] != pair[1] and pair not in seen:
                seen.add(pair)
                pairs.append(pair)
        for a, v in pairs:
            a_bit = rng.randrange(m) if m > 1 else 0
            v_bit = rng.randrange(m) if m > 1 else 0
            faults += _pair_faults(kw["classes"], BitLocation(a, a_bit),
                                   BitLocation(v, v_bit))
    elif spec.generator == "decoder":
        addresses = list(range(n))
        if n > kw["max_addresses"]:
            addresses = sorted(rng.sample(addresses, kw["max_addresses"]))
        for addr in addresses:
            other = (addr + 1) % n
            faults += [af_no_access(addr), af_unreached_cell(addr, other),
                       af_multi_access(addr, (other,)),
                       af_shared_cell(addr, other)]
    elif spec.generator == "intra_word":
        m = kw["m"]
        cells = list(range(n))
        if n > kw["max_cells"]:
            cells = sorted(rng.sample(cells, kw["max_cells"]))
        bit_pairs = [(b, b + 1) for b in range(m - 1)] \
            + [(b + 1, b) for b in range(m - 1)]
        for cell in cells:
            for a_bit, v_bit in bit_pairs:
                faults += _pair_faults(kw["classes"], BitLocation(cell, a_bit),
                                       BitLocation(cell, v_bit))
    elif spec.generator == "bridging":
        faults = [BridgingFault(i, i + 1, kind)
                  for i in range(n - 1) for kind in ("and", "or")]
    elif spec.generator == "npsf":
        victims = list(range(1, n - 1))
        if len(victims) > kw["max_victims"]:
            victims = sorted(rng.sample(victims, kw["max_victims"]))
        faults = [StaticNPSF(v, (v - 1, v + 1), (p0, p1), f)
                  for v in victims for p0 in (0, 1) for p1 in (0, 1)
                  for f in (0, 1)]
    return faults


# -- spec strategies ----------------------------------------------------------

_seeds = st.integers(0, 40)


def _classes(names):
    return st.lists(st.sampled_from(names), unique=True, max_size=len(names)
                    ).map(tuple)


_leaves = st.one_of(
    st.builds(lambda n, m, c, r: UniverseSpec.call(
        "single_cell", n=n, m=m, classes=c, retention=r),
        st.integers(1, 10), st.integers(1, 4), _classes(CELL_CLASSES),
        st.integers(1, 80)),
    st.builds(lambda n, m, c, x, s: UniverseSpec.call(
        "coupling", n=n, m=m, classes=c, extra_random_pairs=x, seed=s),
        st.integers(2, 9), st.integers(1, 4), _classes(PAIR_CLASSES),
        st.integers(0, 6), _seeds),
    st.builds(lambda n, a, s: UniverseSpec.call(
        "decoder", n=n, max_addresses=a, seed=s),
        st.integers(2, 16), st.integers(1, 8), _seeds),
    st.builds(lambda n, m, c, k, s: UniverseSpec.call(
        "intra_word", n=n, m=m, classes=c, max_cells=k, seed=s),
        st.integers(1, 9), st.integers(2, 5), _classes(PAIR_CLASSES),
        st.integers(1, 5), _seeds),
    st.builds(lambda n: UniverseSpec.call("bridging", n=n),
              st.integers(2, 10)),
    st.builds(lambda n, v, s: UniverseSpec.call(
        "npsf", n=n, max_victims=v, seed=s),
        st.integers(3, 12), st.integers(1, 5), _seeds),
    st.builds(standard_universe_spec, st.integers(2, 10), st.integers(1, 4),
              _seeds),
)


def _union(parts):
    return UniverseSpec("union", parts=tuple(parts))


_unions = st.lists(_leaves, min_size=1, max_size=3).map(_union)
_samples = st.builds(
    lambda parent, k: UniverseSpec("sample", kwargs=(("k", k),),
                                   parts=(parent,)),
    st.one_of(_leaves, _unions), st.integers(0, 60))
specs = st.one_of(_leaves, _unions, _samples)
#: Stream geometries: smaller than, equal to and larger than the parts.
geometries = st.tuples(st.integers(1, 12), st.integers(1, 5))


# -- the tests ------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(spec=specs, geometry=geometries)
def test_tables_match_the_fault_path(spec, geometry):
    n, m = geometry
    eager = spec.build()
    reference = _reference(spec)
    assert [f.name for f in eager] == [f.name for f in reference]

    expected_classes, expected_fallback = partition_universe(eager, n, m)
    table = descriptor_table(spec)
    classes, fallback = partition_table(table, n, m)
    assert classes == {kind: [(index, semantics)
                              for index, _fault, semantics in members]
                       for kind, members in expected_classes.items()}
    assert fallback == [index for index, _fault in expected_fallback]
    assert table.class_tags() == [f.fault_class for f in eager]

    lazy = FaultUniverse.from_spec(spec)
    assert [lazy[index].name for index in range(len(lazy))] == \
        [f.name for f in eager]


def _names(faults):
    return [fault.name for fault in faults]


@settings(max_examples=60, deadline=None)
@given(spec=specs, k=st.integers(0, 50), seed=st.integers(0, 9),
       other=_leaves)
def test_lazy_universe_answers_like_the_eager_one(spec, k, seed, other):
    eager, lazy = spec.build(), FaultUniverse.from_spec(spec)
    assert len(lazy) == len(eager)
    assert lazy.counts() == eager.counts()
    assert list(lazy.counts()) == list(eager.counts())  # same order
    assert lazy.classes() == eager.classes()
    assert repr(lazy) == repr(eager)
    for fault_class in eager.classes() + ["NONE"]:
        assert _names(lazy.by_class(fault_class)) == \
            _names(eager.by_class(fault_class))
    if len(eager):
        assert lazy[-1].name == eager[-1].name
        assert _names(lazy[1::2]) == _names(eager[1::2])
    for left, right in ((lazy.sample(k), eager.sample(k)),
                        (lazy.sample(k, rng=random.Random(seed)),
                         eager.sample(k, rng=random.Random(seed)))):
        assert left.spec == right.spec
        assert _names(left) == _names(right)
        assert left.counts() == right.counts()
    joined_lazy = lazy + FaultUniverse.from_spec(other)
    joined_eager = eager + other.build()
    assert joined_lazy.spec == joined_eager.spec
    assert _names(joined_lazy) == _names(joined_eager)
    assert _names(lazy) == _names(eager)  # iteration


def test_lazy_universe_builds_on_demand_and_keeps_what_it_built():
    lazy = FaultUniverse.from_spec(standard_universe_spec(16))
    assert lazy.counts()["AF"] == 32  # from the table alone
    first = lazy[5]
    assert lazy[5] is first
    assert list(lazy)[5] is first
    assert [f for f in lazy] == list(lazy)


def test_parts_larger_than_the_stream_are_checked_per_row():
    # A part recorded for 8 cells on a 4-cell stream: rows naming cells
    # >= 4 fall back, the rest still ride lanes.
    table = descriptor_table(UniverseSpec.call("bridging", n=8))
    classes, fallback = partition_table(table, 4, 1)
    assert [index for index, _ in classes["bridge"]] == [0, 1, 2, 3, 4, 5]
    assert fallback == list(range(6, 14))


def test_shared_decoder_descriptors_rebuild_their_own_subtype():
    # On two cells, AF-B of address 0 (redirected to cell 1) and AF-D of
    # cells 1 and 0 (address 0 reaches cell 1 instead of its own) both
    # override address 0 with cell 1: one descriptor, two faults.
    spec = UniverseSpec.call("decoder", n=2, max_addresses=8, seed=0)
    table = descriptor_table(spec)
    makers = [maker for maker, _semantics in table.rows]
    b = makers.index("AF-B")
    d = len(makers) - 1 - makers[::-1].index("AF-D")
    assert table.rows[b][1] == table.rows[d][1]
    lazy = FaultUniverse.from_spec(spec)
    assert (lazy[b].name, lazy[d].name) == ("AF-B(0->[1])", "AF-D(0->[1])")



def test_campaign_results_compare_their_faults_element_by_element():
    from repro.march.library import MARCH_C_MINUS
    from repro.sim.batched import run_campaign_batched
    from repro.sim.compilers import compile_march

    spec = UniverseSpec.call("single_cell", n=8, classes=("SAF", "TF"))
    stream = compile_march(MARCH_C_MINUS, 8)
    faults = list(FaultUniverse.from_spec(spec))
    first = run_campaign_batched(stream, FaultUniverse(faults, spec=spec))
    second = run_campaign_batched(stream, FaultUniverse(faults, spec=spec))
    assert first.faults is not second.faults
    assert first == second
    second.faults = faults[::-1]
    assert first != second
