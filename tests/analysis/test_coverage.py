"""Tests for the coverage campaign harness."""

from repro.analysis import (
    CoverageReport,
    iteration_runner,
    march_runner,
    run_coverage,
    schedule_runner,
)
from repro.faults import single_cell_universe
from repro.march.library import MARCH_C_MINUS, MATS
from repro.prt import PiIteration, standard_schedule


class TestCoverageReport:
    def test_record_and_ratios(self):
        report = CoverageReport(test_name="t")
        report.record("SAF", "a", True)
        report.record("SAF", "b", False)
        report.record("TF", "c", True)
        assert report.coverage_of("SAF") == 0.5
        assert report.coverage_of("TF") == 1.0
        assert report.overall == 2 / 3
        assert report.missed_faults == ["b"]

    def test_absent_class_is_full(self):
        assert CoverageReport(test_name="t").coverage_of("SAF") == 1.0

    def test_empty_overall(self):
        assert CoverageReport(test_name="t").overall == 1.0

    def test_rows(self):
        report = CoverageReport(test_name="t")
        report.record("SAF", "a", True)
        assert report.rows() == [("SAF", 1, 1, 1.0)]

    def test_classes_sorted(self):
        report = CoverageReport(test_name="t")
        report.record("TF", "a", True)
        report.record("SAF", "b", True)
        assert report.classes == ["SAF", "TF"]

    def test_repr(self):
        assert "overall" in repr(CoverageReport(test_name="t"))


class TestRunCoverage:
    def test_march_c_minus_full_saf(self):
        universe = single_cell_universe(8, classes=("SAF", "TF"))
        report = run_coverage(march_runner(MARCH_C_MINUS), universe, 8)
        assert report.coverage_of("SAF") == 1.0
        assert report.coverage_of("TF") == 1.0

    def test_mats_weaker_than_march_c(self):
        universe = single_cell_universe(8, classes=("SOF",))
        mats = run_coverage(march_runner(MATS), universe, 8)
        march_c = run_coverage(march_runner(MARCH_C_MINUS), universe, 8)
        assert mats.overall <= march_c.overall

    def test_schedule_runner(self):
        universe = single_cell_universe(14, classes=("SAF",))
        report = run_coverage(
            schedule_runner(standard_schedule(n=14)), universe, 14,
            test_name="PRT-3",
        )
        assert report.coverage_of("SAF") == 1.0
        assert report.test_name == "PRT-3"

    def test_iteration_runner(self):
        universe = single_cell_universe(14, classes=("SAF",))
        report = run_coverage(
            iteration_runner(PiIteration(generator=(1, 0, 1, 1), seed=(0, 0, 1))),
            universe, 14,
        )
        # One iteration catches some but not all SAFs.
        assert 0.0 < report.coverage_of("SAF") < 1.0

    def test_wom_campaign(self):
        universe = single_cell_universe(8, m=4, classes=("SAF",))
        report = run_coverage(march_runner(MARCH_C_MINUS), universe, 8, m=4)
        assert report.coverage_of("SAF") == 1.0
