"""PRT vs March head-to-head comparison (experiment E9).

The paper positions pseudo-ring testing against the March family; this
module runs both over the same fault universe and produces rows of
(test, cost, per-class coverage) -- who wins, by what factor, and where
the crossovers fall.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.coverage import (
    CoverageReport,
    Runner,
    run_coverage,
)
from repro.faults.universe import FaultUniverse
from repro.sim.pool import WorkerPool

__all__ = ["ComparisonRow", "compare_tests"]


@dataclass
class ComparisonRow:
    """One comparison-table row: a test's cost and coverage."""

    name: str
    operations: int
    report: CoverageReport

    @property
    def ops_per_cell(self) -> float:
        """Cost normalized to memory size (filled by :func:`compare_tests`)."""
        return self._ops_per_cell

    def coverage(self, fault_class: str) -> float:
        """Coverage of one fault class."""
        return self.report.coverage_of(fault_class)

    @property
    def overall(self) -> float:
        """Overall coverage."""
        return self.report.overall


def compare_tests(entries: list[tuple[str, Runner, int]],
                  universe: FaultUniverse | None = None,
                  n: int | None = None, m: int = 1,
                  workers: int = 0,
                  pool: WorkerPool | None = None,
                  cache=None) -> list[ComparisonRow]:
    """Run each (name, runner, operation_count) entry over the universe.

    Two call forms.  The canonical one takes a list of
    :class:`~repro.analysis.request.CampaignRequest` objects::

        compare_tests([CampaignRequest(test="prt3", n=28),
                       CampaignRequest(test="march-c", n=28)])

    Row names and operation counts then come from the shared resolver
    (the display names and complexity accounting the CLI table has
    always printed), reports route through the content-addressed result
    cache (``cache`` as in :func:`run_coverage`), and ``universe``/``n``
    must be left at their defaults.  The legacy entry form below keeps
    working byte-identically.

    ``operation_count`` is the test's cost on the n-cell memory (exact
    counts from :mod:`repro.analysis.complexity` or the engines' own
    accounting).  Each compilable runner is lowered once and replayed by
    the lane-parallel batched campaign engine
    (:func:`~repro.sim.batched.run_campaign_batched`, what the default
    ``engine="auto"`` resolves to); ``workers`` fans each campaign out over
    that many processes (0 = in-process).  All rows share one persistent
    worker pool (``pool``, or the process-wide shared pool), so pool
    startup is paid once for the whole table, not per test.

    >>> from repro.analysis.coverage import march_runner
    >>> from repro.analysis.complexity import march_operations
    >>> from repro.faults import single_cell_universe
    >>> from repro.march.library import MATS
    >>> universe = single_cell_universe(8, classes=("SAF",))
    >>> rows = compare_tests(
    ...     [("MATS", march_runner(MATS), march_operations(MATS, 8))],
    ...     universe, 8)
    >>> rows[0].coverage("SAF")
    1.0
    """
    from repro.analysis.request import (
        CampaignRequest,
        execute_request,
        resolve_campaign,
    )

    entries = list(entries)
    if entries and all(isinstance(e, CampaignRequest) for e in entries):
        if universe is not None or n is not None:
            raise ValueError(
                "compare_tests(requests) takes no universe/n -- each "
                "CampaignRequest already carries them"
            )
        rows = []
        for request in entries:
            resolved = resolve_campaign(request)
            outcome = execute_request(request, cache=cache, pool=pool,
                                      test_name=resolved.display_name)
            row = ComparisonRow(name=resolved.display_name,
                                operations=resolved.operations,
                                report=outcome.report)
            row._ops_per_cell = resolved.operations / request.n
            rows.append(row)
        return rows
    if universe is None or n is None:
        raise TypeError(
            "compare_tests needs (entries, universe, n) -- or a list of "
            "CampaignRequest objects"
        )
    rows = []
    for name, runner, operations in entries:
        report = run_coverage(runner, universe, n, m=m, test_name=name,
                              workers=workers, pool=pool)
        row = ComparisonRow(name=name, operations=operations, report=report)
        row._ops_per_cell = operations / n
        rows.append(row)
    return rows
