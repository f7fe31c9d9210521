"""Differential test of the merged coupling and CFst lane tables.

The batched engine merges every lane of one coupled pair into a single
table entry: CFin/CFid lanes per (aggressor cell, victim cell, plane
delta) with one mask per (edge, effect), CFst lanes per (aggressor bit,
victim bit) with state and force rows, and linked faults as one such
table per component rank.  The merge is exact only because each lane
carries one fault, so these tests draw small random universes that
stress the merge -- duplicate faults (two lanes, one key), all four
CFst variants of one pair, intra-word pairs at m=4 with positive and
negative plane deltas and aggressor cell == victim cell -- and demand
per-fault verdicts identical to the scalar engine on a March C- stream
and on a dual-port stream.  A last test swaps the effect slots of the
coupling table and checks that the comparison then fails.
"""

from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.analysis.request import CampaignRequest, resolve_campaign
from repro.faults import (
    BitLocation,
    IdempotentCouplingFault,
    InversionCouplingFault,
    LinkedFault,
    StateCouplingFault,
)
from repro.sim import batched
from repro.sim.batched import run_campaign_batched
from repro.sim.campaign import run_campaign

TESTS = ("march-c", "dual-port")


@st.composite
def bit_pairs(draw, n, m):
    """Distinct (aggressor, victim) bits; at m > 1 often one word."""
    a_cell = draw(st.integers(0, n - 1))
    if m > 1 and draw(st.booleans()):
        v_cell = a_cell  # intra-word: the plane delta carries the pair
    else:
        v_cell = draw(st.integers(0, n - 1).filter(lambda c: c != a_cell))
    a_bit = draw(st.integers(0, m - 1))
    bits = range(m) if v_cell != a_cell else \
        [b for b in range(m) if b != a_bit]
    v_bit = draw(st.sampled_from(bits))
    return BitLocation(a_cell, a_bit), BitLocation(v_cell, v_bit)


@st.composite
def edge_faults(draw, n, m):
    """One CFin or CFid fault."""
    aggressor, victim = draw(bit_pairs(n, m))
    rising = draw(st.booleans())
    force_to = draw(st.sampled_from([None, 0, 1]))
    if force_to is None:
        return InversionCouplingFault(aggressor, victim, rising=rising)
    return IdempotentCouplingFault(aggressor, victim, rising, force_to)


@st.composite
def cases(draw):
    """``(test, n, m, faults)`` for one differential run."""
    test = draw(st.sampled_from(TESTS))
    m = draw(st.sampled_from([1, 4]))
    n = draw(st.integers(3, 5))
    faults = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["edge", "state", "state4", "linked"]))
        if kind == "edge":
            faults.append(draw(edge_faults(n, m)))
        elif kind == "linked":
            parts = draw(st.lists(edge_faults(n, m), min_size=2,
                                  max_size=3))
            faults.append(LinkedFault(parts))
        else:
            aggressor, victim = draw(bit_pairs(n, m))
            variants = [(s, f) for s in (0, 1) for f in (0, 1)]
            if kind == "state":  # one variant; "state4": all of them
                variants = [draw(st.sampled_from(variants))]
            faults.extend(StateCouplingFault(aggressor, victim, s, f)
                          for s, f in variants)
    # Duplicates: the same fault again, on lanes sharing its table key.
    for index in draw(st.lists(st.integers(0, len(faults) - 1),
                               max_size=3)):
        faults.append(faults[index])
    return test, n, m, faults


def _verdicts(test, n, m, faults):
    """Per-fault (batched, scalar) verdicts for one case."""
    stream = resolve_campaign(CampaignRequest(test=test, n=n, m=m)).compile()
    lanes = run_campaign_batched(stream, faults)
    assert lanes.faults_batched == len(faults)  # every fault took a lane
    scalar = run_campaign(stream, faults)
    return ([det for _, det in lanes.outcomes],
            [det for _, det in scalar.outcomes])


@given(cases())
@settings(max_examples=80, deadline=None)
def test_merged_tables_match_scalar_engine(case):
    batched_verdicts, scalar_verdicts = _verdicts(*case)
    assert batched_verdicts == scalar_verdicts


def test_fixed_pair_with_every_variant():
    # All six CFin/CFid and all four CFst faults of one intra-word pair
    # (negative plane delta) and one inter-cell pair, each twice: every
    # mask slot of both tables is populated, and each key holds two
    # lanes per slot.
    faults = []
    for aggressor, victim in ((BitLocation(1, 3), BitLocation(1, 0)),
                              (BitLocation(0, 1), BitLocation(2, 2))):
        for rising in (True, False):
            faults.append(InversionCouplingFault(aggressor, victim, rising))
            for force_to in (0, 1):
                faults.append(IdempotentCouplingFault(aggressor, victim,
                                                      rising, force_to))
                faults.append(StateCouplingFault(aggressor, victim,
                                                 int(rising), force_to))
    faults += faults
    for test in TESTS:
        batched_verdicts, scalar_verdicts = _verdicts(test, 4, 4, faults)
        assert batched_verdicts == scalar_verdicts


def _swap_set_and_clear(table_builder):
    """A coupling-table builder whose CFid effects are swapped."""

    def build(pairs, stride):
        table = table_builder(pairs, stride)
        return {aggr: [(victim, delta, r_inv, r_clr, r_set,
                        f_inv, f_clr, f_set)
                       for victim, delta, r_inv, r_set, r_clr,
                       f_inv, f_set, f_clr in entries]
                for aggr, entries in table.items()}

    return build


def test_wrong_effect_mapping_is_caught(monkeypatch):
    # The differential check has teeth: with CFid -> 1 and CFid -> 0
    # swapped in the lane table, the strategy above reaches a universe
    # whose batched verdicts disagree with the scalar engine.
    monkeypatch.setattr(batched, "_coupling_table",
                        _swap_set_and_clear(batched._coupling_table))

    def disagrees(case):
        batched_verdicts, scalar_verdicts = _verdicts(*case)
        return batched_verdicts != scalar_verdicts

    test, n, m, faults = find(cases(), disagrees,
                              settings=settings(max_examples=500))
    assert any(isinstance(fault, (IdempotentCouplingFault, LinkedFault))
               for fault in faults)
