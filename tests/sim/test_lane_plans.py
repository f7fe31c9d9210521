"""Differential tests: lane plans from the spec against the rows adapter.

A universe made from a spec gives the batched engine its lane model
inputs as whole columns, built from the generator records with no
descriptor row.  Everything else (hand-built fault lists, ``sample``
specs, parts larger than the stream) reaches the same model
constructors through the rows -> columns adapter.  The two must agree:

* the plan's members and fallback equal the row-by-row split
  (``partition_table``) of the spec's descriptor table, and a pass's
  verdicts land on the members' universe indices;
* every pass's columns equal what the adapter makes from that pass's
  descriptors, for passes cut at any width -- so also inside a record,
  e.g. between two faults of one coupled pair;
* campaign verdicts equal ``run_campaign``'s on a March C- stream and a
  dual-port stream, also with a lane cap that cuts coupled pairs.
"""

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.analysis.request import CampaignRequest, resolve_campaign
from repro.faults import (
    FaultUniverse,
    UniverseSpec,
    descriptor_table,
    standard_universe_spec,
)
from repro.sim import batched
from repro.faults.universe import LanePlan
from repro.sim.batched import (
    _ROW_COLUMNS,
    RowPlan,
    lane_plan_of,
    run_campaign_batched,
)
from repro.sim.campaign import partition_table, run_campaign
from tests.faults.test_descriptor_tables import geometries, specs

_reseeded = st.builds(
    lambda n, m, extra, seed, cells: UniverseSpec("union", parts=(
        UniverseSpec.call("coupling", n=n, m=m,
                          classes=("CFin", "CFid", "CFst"),
                          extra_random_pairs=extra, seed=seed),
        UniverseSpec.call("intra_word", n=n, m=max(m, 2),
                          classes=("CFid", "CFst"), max_cells=cells,
                          seed=seed))),
    st.integers(2, 10), st.integers(1, 4), st.integers(0, 8),
    st.integers(1, 50), st.integers(1, 6))
plan_specs = st.one_of(specs, _reseeded)


def _row_plan(spec, n, m):
    """``(members, fallback, semantics)`` read row by row."""
    classes, fallback = partition_table(descriptor_table(spec), n, m)
    return ({kind: [index for index, _sem in group]
             for kind, group in classes.items()}, fallback,
            {kind: [sem for _index, sem in group]
             for kind, group in classes.items()})


@settings(max_examples=300, deadline=None)
@given(spec=plan_specs, geometry=geometries, fit=st.booleans(),
       width=st.integers(1, 40))
def test_spec_plan_equals_the_rows_adapter(spec, geometry, fit, width):
    n, m = geometry
    spans = descriptor_table(spec).spans
    if fit and spans:  # the smallest stream every part fits
        n = max(span[2] for span in spans)
        m = max(span[3] for span in spans)
    plan = lane_plan_of(FaultUniverse.from_spec(spec), n, m)
    event("columns from the spec" if isinstance(plan, LanePlan)
          else "columns from the rows")
    members, fallback, semantics = _row_plan(spec, n, m)
    assert {kind: plan.members(kind) for kind in plan.sizes} == members
    assert plan.sizes == {kind: len(group) for kind, group in members.items()}
    assert plan.fallback == fallback
    size = len(descriptor_table(spec))
    for kind, group in semantics.items():
        for lo in range(0, len(group), width):
            hi = min(lo + width, len(group))
            expected = _ROW_COLUMNS[kind](group[lo:hi])
            assert plan.columns(kind, lo, hi) == expected, (kind, lo, hi)
            # Every other lane detected: the verdicts land on the members.
            verdicts = [None] * size
            detected = sum(1 << lane for lane in range(0, hi - lo, 2))
            plan.unpack(kind, lo, hi, detected, verdicts)
            assert [verdicts[index] for index in members[kind][lo:hi]] == \
                [lane % 2 == 0 for lane in range(hi - lo)]
            assert sum(v is not None for v in verdicts) == hi - lo


def test_whole_standard_universe_has_a_spec_plan():
    # The default universe at a fitting geometry never reads a row; a
    # smaller stream or a sample falls back to the rows.
    spec = standard_universe_spec(16, 4)
    universe = FaultUniverse.from_spec(spec)
    assert isinstance(lane_plan_of(universe, 16, 4), LanePlan)
    assert isinstance(lane_plan_of(universe, 15, 4), RowPlan)
    assert isinstance(lane_plan_of(universe.sample(40), 16, 4), RowPlan)


def _stream(test, n, m):
    return resolve_campaign(CampaignRequest(test=test, n=n, m=m)).compile()


def _assert_verdicts_match(spec, test, n, m):
    universe = FaultUniverse.from_spec(spec)
    stream = _stream(test, n, m)
    lanes = run_campaign_batched(stream, universe)
    scalar = run_campaign(stream, FaultUniverse.from_spec(spec))
    assert lanes.verdicts == scalar.verdicts


@st.composite
def campaigns(draw):
    """``(spec, test, n, m)`` with every part at the stream's geometry
    (the scalar engine cannot place a larger part's faults)."""
    test = draw(st.sampled_from(["march-c", "dual-port"]))
    n, m = draw(st.integers(3, 10)), draw(st.sampled_from([1, 4]))
    seed = st.integers(0, 30)
    leaves = [
        st.builds(lambda s: standard_universe_spec(n, m, s), seed),
        st.builds(lambda x, s: UniverseSpec.call(
            "coupling", n=n, m=m, classes=("CFin", "CFid", "CFst"),
            extra_random_pairs=x, seed=s), st.integers(0, 8), seed),
        st.builds(lambda r: UniverseSpec.call(
            "single_cell", n=n, m=m, classes=("SAF", "TF", "SOF", "DRF"),
            retention=r), st.integers(1, 80)),
        st.builds(lambda v, s: UniverseSpec.call(
            "npsf", n=n, max_victims=v, seed=s), st.integers(1, 5), seed),
    ]
    if m > 1:
        leaves.append(st.builds(lambda c, s: UniverseSpec.call(
            "intra_word", n=n, m=m, classes=("CFin", "CFid", "CFst"),
            max_cells=c, seed=s), st.integers(1, 5), seed))
    parts = draw(st.lists(st.one_of(leaves), min_size=1, max_size=3))
    spec = UniverseSpec("union", parts=tuple(parts))
    if draw(st.booleans()):
        spec = UniverseSpec("sample", kwargs=(("k", draw(
            st.integers(1, 80))),), parts=(spec,))
    return spec, test, n, m


@settings(max_examples=25, deadline=None)
@given(campaigns())
def test_spec_plan_verdicts_match_run_campaign(campaign):
    _assert_verdicts_match(*campaign)


def test_lane_cap_inside_coupled_pairs(monkeypatch):
    # Seven lanes per pass cut the six CFin/CFid and four CFst faults of
    # each coupled pair at every offset, and the per-bit SAF/TF records
    # of a word.
    monkeypatch.setattr(batched, "MAX_LANES", 7)
    for test in ("march-c", "dual-port"):
        for n, m in ((9, 1), (6, 4)):
            spec = standard_universe_spec(n, m, seed=3)
            _assert_verdicts_match(spec, test, n, m)
            plan = lane_plan_of(FaultUniverse.from_spec(spec), n, m)
            assert isinstance(plan, LanePlan)
