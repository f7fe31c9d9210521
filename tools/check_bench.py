"""Guard benchmark timings against a checked-in baseline.

Compares the JSON summary a fresh benchmark run produced (e.g. the CI
``bench-smoke`` job's ``BENCH_ci.json``) with the committed baseline in
``benchmarks/out/``.  Rows are matched by ``(section, test, n,
universe)``; every wall-clock field (``*_s``) present in both rows is
compared, and the check fails when any of them regressed by more than
``--max-slowdown``.

Rows or fields only one side has are skipped (quick mode runs a subset
of the full benchmark), as are baseline timings below ``--min-seconds``
(too noisy to gate on).  Speedup ratios are *not* compared -- CI runners
have different core counts than the baseline host; absolute per-path
wall clock with generous headroom is the stable signal.

``fallback_summary`` rows additionally gate *vectorization*: any fault
class appearing in a current row's ``fallback`` census that was
lane-vectorized in the matching baseline row (absent from its
``fallback``) fails the check outright, slowdown budget notwithstanding
-- a class silently dropping out of the lane passes is an engine
regression even when the smoke timings still fit.

``cache_rows`` rows additionally gate the *result cache*: each row's
``speedup_warm`` (cold campaign wall clock over warm cache-hit wall
clock, measured on the same host in the same process) must stay at or
above ``--min-cache-speedup``.  Unlike cross-host absolute timings this
ratio is host-independent, so it is compared directly against the
current run rather than the baseline.

``default_rows`` rows gate the *default engine* the same way: each
row's ``default_vs_compiled`` (a default-engine request's wall clock
against the same request on ``engine="compiled"``) must stay at or above
``MIN_DEFAULT_SPEEDUP`` on rows of at least ``DEFAULT_GATE_MIN_FAULTS``
faults.  Below that size fixed per-request costs swamp the ratio.  A
ratio near 1 means ``engine="auto"`` no longer reaches the lane-parallel
engine.

``spec_lane_rows`` rows gate the *lane source* alike: each row's
``spec_vs_enumerate`` (building every fault and partitioning it, over
reading the same lanes from the spec's descriptor tables) must stay at
or above ``MIN_SPEC_SPEEDUP`` on rows of at least
``SPEC_GATE_MIN_FAULTS`` faults.  A ratio near 1 means the tables
started building faults again.

``plan_rows`` rows gate the *lane plan* the same way: each row's
``plan_vs_rows`` (the lane classes, every pass's columns and models
built from descriptor rows, over the same from the spec's lane plan)
must stay at or above ``MIN_PLAN_SPEEDUP`` on rows of at least
``PLAN_GATE_MIN_FAULTS`` faults.  A ratio near 1 means the plan started
reading rows again.

``glue_rows`` (compile, error-only verify, miss naming, reseeding and
the report of one cold request) and ``lane_rows`` (one lane class's
passes of one cold request) have no gate of their own.  Each of their
timings is far below ``--min-seconds`` on its own, so for these two
sections each ``*_s`` field is also summed over the rows both sides
have, and the sums are held to ``--max-slowdown`` and ``--min-seconds``
like a row's field.  With the committed baseline and the default floor
of 0.05 s, ``--quick`` (n=64/32) gates the lane rows' ``pass_s`` sum
(0.066 s) and no glue field: the largest glue sum, ``built_naming_s``,
is 0.010 s.  A full run gates ``pass_s`` and ``built_naming_s``; its
``compile_s``, ``verify_s``, ``naming_s``, ``reseed_s``, ``report_s``
and ``per_fault_report_s`` sums are still too small.

Usage::

    python tools/check_bench.py \
        --baseline benchmarks/out/bench_campaign_engine.json \
        --current BENCH_ci.json --max-slowdown 3
"""

from __future__ import annotations

import argparse
import json
import sys

#: Sections whose ``*_s`` fields are also compared as sums over the
#: rows both sides have.
SUMMED_SECTIONS = ("glue_rows", "lane_rows")

ROW_SECTIONS = ("rows", "single_cell_rows", "multiport_rows",
                "wordlane_rows", "sharded_rows", "cache_rows",
                "default_rows", "spec_lane_rows", "plan_rows",
                "glue_rows", "lane_rows", "fallback_summary")

#: Floor of a ``default_rows`` row's ``default_vs_compiled``; rows
#: smaller than ``DEFAULT_GATE_MIN_FAULTS`` faults are exempt.
MIN_DEFAULT_SPEEDUP = 2.0
DEFAULT_GATE_MIN_FAULTS = 1000

#: Floor of a ``spec_lane_rows`` row's ``spec_vs_enumerate``; rows
#: smaller than ``SPEC_GATE_MIN_FAULTS`` faults are exempt.
MIN_SPEC_SPEEDUP = 2.0
SPEC_GATE_MIN_FAULTS = 1000

#: Floor of a ``plan_rows`` row's ``plan_vs_rows``; rows smaller than
#: ``PLAN_GATE_MIN_FAULTS`` faults are exempt.
MIN_PLAN_SPEEDUP = 2.0
PLAN_GATE_MIN_FAULTS = 1000


def _row_key(section: str, row: dict) -> tuple:
    return (section, row.get("test"), row.get("n"), row.get("universe"))


def _index_rows(summary: dict) -> dict[tuple, dict]:
    indexed: dict[tuple, dict] = {}
    for section in ROW_SECTIONS:
        for row in summary.get(section, ()):
            indexed[_row_key(section, row)] = row
    return indexed


def compare(baseline: dict, current: dict, max_slowdown: float,
            min_seconds: float,
            min_cache_speedup: float = 100.0) -> tuple[list[str], list[str]]:
    """Returns (comparison lines, regression lines)."""
    lines: list[str] = []
    regressions: list[str] = []
    base_rows = _index_rows(baseline)
    cur_rows = _index_rows(current)
    # Result-cache gate: same-host cold/warm ratio, checked against the
    # current run alone (an older baseline without cache_rows still
    # gates a fresh run that has them).
    for row in current.get("cache_rows", ()):
        label = f"{row.get('test')} n={row.get('n')} [result cache]"
        speedup = row.get("speedup_warm")
        if not isinstance(speedup, (int, float)):
            continue
        verdict = "ok"
        if speedup < min_cache_speedup:
            verdict = "REGRESSION"
            regressions.append(
                f"{label}: warm cache hit only {speedup:.1f}x faster than "
                f"the cold campaign (floor {min_cache_speedup:.0f}x)"
            )
        lines.append(f"{label:>40} {'speedup_warm':>14} "
                     f"{speedup:>10.1f}x (floor "
                     f"{min_cache_speedup:.0f}x) {verdict}")
    # Same-host ratio gates, checked against the current run alone: the
    # default request against its engine="compiled" twin, the spec's
    # lane tables against building and partitioning every fault, and
    # the lane plan against building lane models from rows.
    for section, field, column, floor, min_faults, tag, what in (
            ("default_rows", "default_vs_compiled", "vs_compiled",
             MIN_DEFAULT_SPEEDUP, DEFAULT_GATE_MIN_FAULTS, "default engine",
             "the default engine is only {:.2f}x faster than "
             "engine='compiled'"),
            ("spec_lane_rows", "spec_vs_enumerate", "vs_enumerate",
             MIN_SPEC_SPEEDUP, SPEC_GATE_MIN_FAULTS, "spec lanes",
             "the spec's lane tables are only {:.2f}x faster than "
             "enumerating the faults"),
            ("plan_rows", "plan_vs_rows", "vs_rows", MIN_PLAN_SPEEDUP,
             PLAN_GATE_MIN_FAULTS, "lane plan",
             "the lane plan is only {:.2f}x faster than building the "
             "lane models from descriptor rows")):
        for row in current.get(section, ()):
            speedup = row.get(field)
            if not isinstance(speedup, (int, float)) \
                    or row.get("faults", 0) < min_faults:
                continue
            label = f"{row.get('test')} n={row.get('n')} m={row.get('m')} " \
                    f"[{tag}]"
            verdict = "ok"
            if speedup < floor:
                verdict = "REGRESSION"
                regressions.append(f"{label}: {what.format(speedup)} "
                                   f"(floor {floor:.1f}x)")
            lines.append(f"{label:>40} {column:>14} "
                         f"{speedup:>10.2f}x (floor {floor:.1f}x) {verdict}")
    shared_keys = [key for key in base_rows if key in cur_rows]
    if not shared_keys:
        regressions.append(
            "no comparable rows between baseline and current summaries "
            "(did the benchmark's row identities change?)"
        )
        return lines, regressions
    def check(label: str, field: str, base_t, cur_t) -> None:
        if not isinstance(base_t, (int, float)) or base_t < min_seconds:
            return
        ratio = cur_t / base_t if base_t else float("inf")
        verdict = "ok"
        if ratio > max_slowdown:
            verdict = "REGRESSION"
            regressions.append(
                f"{label} {field}: {cur_t:.3f}s vs baseline "
                f"{base_t:.3f}s ({ratio:.2f}x > {max_slowdown}x)"
            )
        lines.append(f"{label:>40} {field:>14} "
                     f"{base_t:>8.3f}s -> {cur_t:>8.3f}s "
                     f"({ratio:>5.2f}x) {verdict}")

    sums: dict[tuple[str, str], list] = {}  # (section, field) -> sums
    for key in shared_keys:
        base, cur = base_rows[key], cur_rows[key]
        section, test, n, universe = key
        label = f"{test} n={n}" + (f" [{universe}]" if universe else "")
        for field in sorted(base):
            if not field.endswith("_s") or field not in cur:
                continue
            check(label, field, base[field], cur[field])
            if section in SUMMED_SECTIONS \
                    and isinstance(base[field], (int, float)):
                total = sums.setdefault((section, field), [0.0, 0.0, 0])
                total[0] += base[field]
                total[1] += cur[field]
                total[2] += 1
        if section == "fallback_summary":
            # Vectorization gate: a fault class that resolved in lane
            # passes in the baseline must never reappear in the scalar
            # fallback -- that is a silent engine regression even when
            # the wall clock stays inside the slowdown budget.
            base_fallback = base.get("fallback", {})
            for cls, count in sorted(cur.get("fallback", {}).items()):
                if cls not in base_fallback:
                    regressions.append(
                        f"{label}: fault class {cls!r} regressed to the "
                        f"scalar fallback ({count} faults were "
                        f"lane-vectorized in the baseline)"
                    )
                    lines.append(f"{label:>40} {'fallback':>14} "
                                 f"{cls}: lanes -> scalar REGRESSION")
    for (section, field), (base_t, cur_t, count) in sums.items():
        check(f"{section} sum of {count} rows", field, base_t, cur_t)
    return lines, regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="checked-in benchmark summary JSON")
    parser.add_argument("--current", required=True,
                        help="freshly produced benchmark summary JSON")
    parser.add_argument("--max-slowdown", type=float, default=3.0,
                        help="fail when current/baseline exceeds this "
                             "ratio (default: 3)")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="ignore baseline timings below this (noise "
                             "floor, default: 0.05s)")
    parser.add_argument("--min-cache-speedup", type=float, default=100.0,
                        help="fail when a cache_rows warm hit is less than "
                             "this many times faster than its cold campaign "
                             "(default: 100)")
    args = parser.parse_args(argv)

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.current) as handle:
        current = json.load(handle)

    lines, regressions = compare(baseline, current,
                                 args.max_slowdown, args.min_seconds,
                                 args.min_cache_speedup)
    for line in lines:
        print(line)
    base_cpus, cur_cpus = baseline.get("cpus"), current.get("cpus")
    if base_cpus != cur_cpus:
        print(f"note: baseline host had {base_cpus} cpus, "
              f"this host has {cur_cpus}")
    if regressions:
        print(f"\n{len(regressions)} benchmark regression(s):",
              file=sys.stderr)
        for regression in regressions:
            print(f"  {regression}", file=sys.stderr)
        return 1
    print(f"\nbenchmark check passed ({len(lines)} timings compared, "
          f"max slowdown allowed {args.max_slowdown}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
