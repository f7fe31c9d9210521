"""``tally`` equals ``CoverageReport.record`` run fault by fault.

A campaign's report is built per generator part of the universe's
descriptor table: class counts from each part's record times its sites,
detections counted per record slot, misses named per site.  These tests
pin that the result is the report the fault-by-fault loop makes -- the
same dicts with the same key order (pickled reports are compared byte
for byte across engines), and the same missed names in universe order --
for random verdicts over every generator, unions and samples at word
widths 1, 4 and 8, on lazy, partly built, eager and hand-built
universes, and that the table path builds no fault.
"""

import pickle
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.coverage import CoverageReport
from repro.faults import FaultUniverse, fault_from_descriptor
from repro.faults import universe as universe_module
from repro.faults.universe import descriptor_table, tally
from tests.faults.test_descriptor_names import specs


def _recorded(spec, verdicts) -> CoverageReport:
    report = CoverageReport(test_name="t")
    for row, detected in zip(descriptor_table(spec).rows, verdicts,
                             strict=True):
        fault = fault_from_descriptor(*row)
        report.record(fault.fault_class, fault.name, detected)
    return report


def _tallied(universe, verdicts) -> CoverageReport:
    report = CoverageReport(test_name="t")
    report.total, report.detected, report.missed_faults = tally(universe,
                                                                verdicts)
    return report


def _assert_same(report, expected):
    assert list(report.total.items()) == list(expected.total.items())
    assert list(report.detected.items()) == list(expected.detected.items())
    assert report.missed_faults == expected.missed_faults
    assert pickle.dumps(report) == pickle.dumps(expected)


#: A verdict list of the universe's length: all detected, none, or a
#: random mix leaning either way.
_bias = st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0))


@settings(max_examples=150, deadline=None)
@given(spec=specs, bias=_bias, seed=st.integers(0, 2**16),
       built=st.lists(st.integers(0, 300), max_size=20))
def test_tally_equals_record_fault_by_fault(spec, bias, seed, built):
    size = len(descriptor_table(spec))
    rng = random.Random(seed)
    verdicts = [rng.random() < bias for _ in range(size)]
    expected = _recorded(spec, verdicts)
    lazy = FaultUniverse.from_spec(spec)
    partly = FaultUniverse.from_spec(spec)
    for index in built:
        if index < len(partly):
            _ = partly[index]
    with mock.patch.object(universe_module, "fault_from_descriptor",
                           side_effect=AssertionError("built a fault")):
        _assert_same(_tallied(lazy, verdicts), expected)
        _assert_same(_tallied(partly, verdicts), expected)
    eager = spec.build()
    _assert_same(_tallied(eager, verdicts), expected)
    _assert_same(_tallied(FaultUniverse(list(eager)), verdicts), expected)
    _assert_same(_tallied(list(eager), verdicts), expected)


@settings(max_examples=40, deadline=None)
@given(spec=specs, k=st.integers(0, 40), seed=st.integers(0, 2**16))
def test_tally_of_a_sampled_lazy_universe(spec, k, seed):
    sample = FaultUniverse.from_spec(spec).sample(k)
    rng = random.Random(seed)
    verdicts = [rng.random() < 0.5 for _ in range(len(sample))]
    expected = CoverageReport(test_name="t")
    for fault, detected in zip(list(sample), verdicts, strict=True):
        expected.record(fault.fault_class, fault.name, detected)
    lazy = FaultUniverse.from_spec(spec).sample(k)
    with mock.patch.object(universe_module, "fault_from_descriptor",
                           side_effect=AssertionError("built a fault")):
        _assert_same(_tallied(lazy, verdicts), expected)
    _assert_same(_tallied(spec.build().sample(k), verdicts), expected)


def test_detections_keep_the_order_of_first_detection():
    # SAF rows come first in a single-cell record, but when only a
    # later cell's SAF rows are detected, SOF is detected first.
    spec = universe_module.UniverseSpec.call(
        "single_cell", n=2, m=1, classes=("SAF", "SOF"), retention=64)
    verdicts = [False, False, True, True, False, False]
    report = _tallied(FaultUniverse.from_spec(spec), verdicts)
    assert list(report.detected) == ["SOF", "SAF"]
    _assert_same(report, _recorded(spec, verdicts))
