"""BENCH -- campaign engines: interpreted vs compiled vs bit-packed vs sharded.

Times single-fault coverage campaigns for March C- and the standard
3-iteration PRT schedule over ``standard_universe(n)`` samples at
n in {64, 256, 1024}, on four paths:

* ``interpreted`` -- the seed behaviour: re-run the interpreted engine
  for every fault (``run_coverage(engine="interpreted")``),
* ``compiled``    -- compile once, replay per fault with early abort
  (``engine="compiled"``, single process),
* ``compiled-mp`` -- the same with ``workers=2`` (omitted when the
  platform cannot fork),
* ``batched``     -- the bit-packed lane-parallel engine
  (``repro.sim.batched``): one replay pass per vectorizable fault
  class, scalar fallback for anything without lane semantics (since
  the uint64 column kernel PR that is the empty set for every built-in
  class).

A second section times the batched engine on its home turf -- the full
single-cell SAF/TF universe (one lane per fault, zero scalar fallback)
-- against the compiled single-process engine; that ratio is the
headline ``single_cell_batched_speedup`` in the JSON summary.

A third section times the *port-parallel* π-schemes (dual-/quad-port,
``repro.prt.dual_port``): the interpreted per-cycle engine vs the
compiled cycle-grouped replay vs the batched lane-parallel engine
(``multiport_rows``; the packed executor runs cycle groups natively,
so the batched column is lane passes, not scalar delegation; detection
happens at the final signature, so the compiled ratio isolates the
grouped executor win and the batched ratio the lane-vs-scalar win).

A fourth section keeps the historical *process sharding* rows: the
NPSF + bridging + decoder universe that used to be the batched engine's
worst case (pure scalar fallback, the sharding pool's whole reason to
exist).  Since the uint64 column kernel PR these classes carry lane
encodings, so the "scalar-heavy" rows now resolve entirely in lane
passes and the pool is never started -- the rows are retained under
their original identities precisely to pin that cliff: ``sharded_s``
tracking ``batched_s`` (instead of interpreted/workers) *is* the win.

A fifth section times the *word-lane* packed backend (``wordlane_rows``):
the full word-oriented ``standard_universe(n, m=8)`` (per-bit single-cell
faults, inter-cell and intra-word coupling) on March C- and a GF(2^8)
PRT schedule, plus a CFst-only coupling universe (the last coupling
class to join the lane passes) and an NPSF-only universe (lane-encoded
by the uint64 column kernel PR) -- compiled per-fault replay vs the
batched engine.  The acceptance bar is >= 5x over the compiled engine
at n=1024 (``min_wordlane_speedup``).

A sixth section (``fallback_summary``) is the *vectorization census*:
for the full ``standard_universe`` at each n and m in {1, 8}, the
per-class lane/vs/fallback split from ``partition_universe`` plus a
lane-vs-scalar wall-clock split on a sampled subset -- and, per
geometry, one census row per cycle-grouped multi-port campaign
(dual-/quad-port streams through ``run_campaign_batched``), whose
``fallback`` records any faults the engine handed back to the scalar
path (a ``delegated`` entry there means the grouped packed executor
regressed to scalar delegation).  ``fallback_rows`` lists the
identities of census entries whose fallback set is non-empty -- the
committed baseline keeps it ``[]``, and ``tools/check_bench.py`` fails
when a class that vectorized in the baseline regresses to the scalar
fallback.

A seventh section (``cache_rows``) times the serving layer's
content-addressed result cache (``repro.server.cache``): one cold
campaign through ``execute_request`` (full ``standard_universe(n)``,
batched engine) vs the warm repeat served from the cache -- the warm hit
unpickles a byte-identical report without touching the engines or even
materializing the universe.  The acceptance bar is >= 100x at n=1024
(``min_cache_speedup``); in practice the hit is microseconds against a
half-second campaign, three to four orders of magnitude.

An eighth section (``default_rows``) keeps the *default path* fast: one
``run_request(CampaignRequest(test, n, m), cache=False)`` on the default
``engine="auto"`` against the same request with ``engine="compiled"``,
for March C- and PRT-3 at one bit-oriented and one word-oriented
geometry.  ``default_vs_compiled`` is a same-host ratio, and
``tools/check_bench.py`` fails when it drops below 2 on a row of at
least 1000 faults -- the sign that ``"auto"`` stopped resolving to the
lane-parallel engine.

A ninth section (``spec_lane_rows``) times the batched engine's
lane source on its own: the descriptor tables read straight from
``standard_universe_spec(n, m)`` (``descriptor_table`` then
``partition_table`` and the class tags, no ``Fault`` built) against the
per-fault path they replace (``partition_universe(spec.build())``).
Both outputs must be equal before a number is emitted.
``spec_vs_enumerate`` is a same-host ratio, and ``tools/check_bench.py``
fails when it drops below 2 on a row of at least 1000 faults.

A section (``plan_rows``) times what a cold request builds before its
lane kernels run: the lane plan of ``standard_universe_spec(n, m)``
(members by stride, every ``MAX_LANES`` pass's columns from the
generator records, and the pass's lane model) against the same inputs
from the descriptor rows (``partition_table`` and the rows -> columns
adapter), at n=1024/m=1 and n=256/m=8.  Members, fallback and every
pass's columns must be equal before a number is emitted.
``plan_vs_rows`` is a same-host ratio, and ``tools/check_bench.py``
fails when it drops below its floor on a row of at least 1000 faults.

A tenth section (``glue_rows``) times the per-request glue around the
lane kernels of a cold request, for March C-, PRT-3 and the dual-port
schedule at n=512/m=1 and n=176/m=8: a fresh stream compile (its digest
must equal the request path's stream), the error-only static verify of
the request gate, and naming the missed faults from the descriptor rows
(``FaultUniverse.name_of``), with building each missed fault to read its
name as the reference (the two name lists must be equal).  Its
``reseed_s`` column times resolution, the request gate and the
reference pass of a request that only reseeds the universe of a
geometry already served; that request's stream must be the first
request's object.  Its ``report_s`` column times the campaign's report
built per generator part (``repro.faults.universe.tally``), and
``per_fault_report_s`` the per-fault path it replaced (class tags, two
``Counter`` and ``name_of`` per miss); both must give equal dicts, key
order and names.  The section has no gate of its own;
``tools/check_bench.py`` diffs its timings, one by one and summed,
against the baseline.

An eleventh section (``lane_rows``) times the lane kernels of the same
cold requests class by class: for March C-, PRT-3 and the dual-port
schedule at n=512/m=1 and n=176/m=8, the wall clock of each lane
class's passes (``pass_s``) and the records they execute.  The lane
verdicts of a small evenly spaced sample of faults must equal the
scalar ``run_campaign``'s before a number is emitted.  No gate of its
own either; the timings are diffed, one by one and summed, against the
baseline.

Reports are cross-checked for equality on every path before a number is
emitted.  Run as a script::

    PYTHONPATH=src python benchmarks/bench_campaign_engine.py \
        [--out benchmarks/out/bench_campaign_engine.json] [--quick]

``--quick`` is the CI smoke mode: n=64 plus a small single-cell /
sharded section, a couple of seconds total, emitting rows whose
``(test, n, universe)`` identities match the full run so
``tools/check_bench.py`` can diff them against the checked-in baseline.

The JSON summary records per-(test, n) wall-clock seconds and speedups,
so the benchmark trajectory can be tracked across PRs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pickle
import sys
import time
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis import (  # noqa: E402
    CampaignRequest,
    dual_port_runner,
    execute_request,
    march_runner,
    quad_port_runner,
    resolve_campaign,
    run_coverage,
    run_request,
    schedule_runner,
)
from repro.analysis.request import (  # noqa: E402
    _ensure_stream_verified,
    build_field,
)
from repro.faults import (  # noqa: E402
    FaultUniverse,
    bridging_universe,
    coupling_universe,
    decoder_universe,
    descriptor_table,
    fault_from_descriptor,
    npsf_universe,
    single_cell_universe,
    standard_universe,
    standard_universe_spec,
)
from repro.faults.universe import LanePlan, tally  # noqa: E402
from repro.gf2 import primitive_polynomial  # noqa: E402
from repro.gf2m import GF2m  # noqa: E402
from repro.march.library import MARCH_C_MINUS  # noqa: E402
from repro.memory import PackedMemoryArray  # noqa: E402
from repro.prt import (  # noqa: E402
    DualPortPiIteration,
    QuadPortPiIteration,
    standard_multi_schedule,
    standard_schedule,
)
from repro.server.cache import ResultCache  # noqa: E402
from repro.sim import (  # noqa: E402
    build_lane_model,
    cached_dual_port_stream,
    cached_quad_port_stream,
    compile_march,
    compile_multi_schedule,
    compile_schedule,
    partition_table,
    partition_universe,
    run_campaign,
    run_campaign_batched,
    shutdown_shared_pools,
    verify,
)
from repro.sim.batched import (  # noqa: E402
    _MODELS,
    _ROW_COLUMNS,
    MAX_LANES,
    lane_plan_of,
)
from repro.sim.campaign import _reference_pass  # noqa: E402

SIZES = (64, 256, 1024)
SAMPLE = {64: None, 256: 400, 1024: 200}  # None = full universe
SHARDED_SAMPLE = 500  # scalar-fallback faults per sharded row
TESTS = (
    ("March C-", lambda n: march_runner(MARCH_C_MINUS)),
    ("PRT-3", lambda n: schedule_runner(standard_schedule(n=n))),
)
MULTIPORT_SCHEMES = (
    ("PRT dual-port",
     lambda: dual_port_runner(DualPortPiIteration(seed=(0, 1)))),
    ("PRT quad-port",
     lambda: quad_port_runner(QuadPortPiIteration(seed=(0, 1)))),
)


def _report_key(report):
    return (report.detected, report.total, report.missed_faults)


def _time_coverage(runner, universe, n, **kwargs):
    start = time.perf_counter()
    report = run_coverage(runner, universe, n, **kwargs)
    return time.perf_counter() - start, report


def bench_one(name: str, runner_factory, n: int, workers: int) -> dict:
    universe = standard_universe(n)
    sample = SAMPLE[n]
    if sample is not None and len(universe) > sample:
        universe = universe.sample(sample)
    t_int, r_int = _time_coverage(runner_factory(), universe, n,
                                  engine="interpreted")
    t_cmp, r_cmp = _time_coverage(runner_factory(), universe, n,
                                  engine="compiled")
    if _report_key(r_int) != _report_key(r_cmp):
        raise AssertionError(
            f"{name} n={n}: compiled campaign diverged from interpreted"
        )
    t_bat, r_bat = _time_coverage(runner_factory(), universe, n,
                                  engine="batched")
    if _report_key(r_int) != _report_key(r_bat):
        raise AssertionError(
            f"{name} n={n}: batched campaign diverged from interpreted"
        )
    row = {
        "test": name,
        "n": n,
        "faults": len(universe),
        "coverage": round(r_int.overall, 4),
        "interpreted_s": round(t_int, 3),
        "compiled_s": round(t_cmp, 3),
        "speedup": round(t_int / t_cmp, 2) if t_cmp else float("inf"),
        "batched_s": round(t_bat, 3),
        "speedup_batched": round(t_int / t_bat, 2) if t_bat else float("inf"),
    }
    if workers > 0:
        t_mp, r_mp = _time_coverage(runner_factory(), universe, n,
                                    engine="compiled", workers=workers)
        if _report_key(r_int) == _report_key(r_mp):
            row["compiled_mp_s"] = round(t_mp, 3)
            row["speedup_mp"] = round(t_int / t_mp, 2) if t_mp else float("inf")
    return row


def bench_single_cell(n: int) -> list[dict]:
    """The batched engine's home turf: a full single-cell SAF/TF universe
    (one lane per fault, zero scalar fallback) vs the compiled engine."""
    universe = single_cell_universe(n, classes=("SAF", "TF"))
    rows = []
    for name, build in TESTS:
        t_cmp, r_cmp = _time_coverage(build(n), universe, n,
                                      engine="compiled")
        t_bat, r_bat = _time_coverage(build(n), universe, n,
                                      engine="batched")
        if _report_key(r_cmp) != _report_key(r_bat):
            raise AssertionError(
                f"{name} n={n}: batched single-cell campaign diverged "
                f"from compiled"
            )
        speedup = round(t_cmp / t_bat, 2) if t_bat else float("inf")
        rows.append({
            "test": name,
            "n": n,
            "universe": "single-cell SAF/TF",
            "faults": len(universe),
            "coverage": round(r_cmp.overall, 4),
            "compiled_s": round(t_cmp, 3),
            "batched_s": round(t_bat, 3),
            "speedup_batched_vs_compiled": speedup,
        })
        print(f"{name:>9} n={n:<5} single-cell faults={len(universe):<5} "
              f"compiled {t_cmp:>7.3f}s  batched {t_bat:>7.3f}s  "
              f"x{speedup}")
    return rows


def bench_multiport(n: int) -> list[dict]:
    """The port-parallel π-schemes: interpreted cycle() loop vs compiled
    cycle-grouped replay (``MultiPortRAM.apply_stream``) vs the batched
    lane-parallel engine (the packed executor runs cycle groups
    natively -- pre-cycle reads, in-order write commit, one clock tick
    per group -- so the batched column is lane passes, not scalar
    delegation).

    Detection happens at the final signature window, so early abort buys
    nothing here -- the compiled ratio is the grouped executor vs the
    per-cycle interpreted engine (acceptance bar >= 3x at n=1024), and
    the batched ratio is lane-vs-scalar replay of the same grouped
    stream.
    """
    universe = standard_universe(n)
    sample = SAMPLE.get(n)
    if sample is not None and len(universe) > sample:
        universe = universe.sample(sample)
    rows = []
    for name, build in MULTIPORT_SCHEMES:
        t_int, r_int = _time_coverage(build(), universe, n,
                                      engine="interpreted")
        t_cmp, r_cmp = _time_coverage(build(), universe, n,
                                      engine="compiled")
        if _report_key(r_int) != _report_key(r_cmp):
            raise AssertionError(
                f"{name} n={n}: compiled multi-port campaign diverged "
                f"from interpreted"
            )
        t_bat, r_bat = _time_coverage(build(), universe, n,
                                      engine="batched")
        if _report_key(r_int) != _report_key(r_bat):
            raise AssertionError(
                f"{name} n={n}: batched multi-port campaign diverged "
                f"from interpreted"
            )
        speedup = round(t_int / t_cmp, 2) if t_cmp else float("inf")
        speedup_bat = round(t_cmp / t_bat, 2) if t_bat else float("inf")
        rows.append({
            "test": name,
            "n": n,
            "universe": "standard, port-parallel",
            "faults": len(universe),
            "coverage": round(r_int.overall, 4),
            "interpreted_s": round(t_int, 3),
            "compiled_s": round(t_cmp, 3),
            "speedup_multiport": speedup,
            "batched_s": round(t_bat, 3),
            "speedup_batched_vs_compiled": speedup_bat,
        })
        print(f"{name:>14} n={n:<5} faults={len(universe):<5} "
              f"interpreted {t_int:>7.3f}s  compiled {t_cmp:>7.3f}s  "
              f"x{speedup}  batched {t_bat:>7.3f}s  x{speedup_bat}")
    return rows


MULTIPORT_CENSUS = (
    ("PRT dual-port",
     lambda n: cached_dual_port_stream(DualPortPiIteration(seed=(0, 1)), n)),
    ("PRT quad-port",
     lambda n: cached_quad_port_stream(QuadPortPiIteration(seed=(0, 1)), n)),
)


def bench_multiport_census(n: int) -> list[dict]:
    """Lane-resolution census for the cycle-grouped multi-port campaigns.

    Feeds the compiled dual-/quad-port streams straight to
    ``run_campaign_batched`` and records how many faults rode lane
    passes (``faults_batched``) vs the per-fault scalar path.  The
    committed baseline keeps ``fallback`` empty: every standard-universe
    fault lane-resolves through the grouped packed executor.  A
    ``delegated`` entry appearing here means grouped streams regressed
    to scalar delegation -- ``tools/check_bench.py`` fails on it exactly
    like a fault class dropping out of the lane passes.
    """
    universe = standard_universe(n)
    sample = SAMPLE.get(n)
    if sample is not None and len(universe) > sample:
        universe = universe.sample(sample)
    rows = []
    for name, stream_of in MULTIPORT_CENSUS:
        stream = stream_of(n)
        start = time.perf_counter()
        result = run_campaign_batched(stream, universe)
        lane_s = time.perf_counter() - start
        fallback_counts: dict[str, int] = {}
        if result.faults_batched != len(universe):
            fallback_counts["delegated"] = \
                len(universe) - result.faults_batched
        row = {
            "test": name,
            "n": n,
            "m": 1,
            "universe": "standard multi-port census",
            "faults": len(universe),
            "faults_batched": result.faults_batched,
            "fallback": fallback_counts,
            "lane_s": round(lane_s, 3),
        }
        rows.append(row)
        fallback_text = f"fallback={fallback_counts}" if fallback_counts \
            else "fallback=none"
        print(f" census   n={n:<5} [{name}] faults={len(universe):<6} "
              f"lanes {lane_s:>7.3f}s  {fallback_text}")
    return rows


WORDLANE_M = 8
WORDLANE_TESTS = (
    ("March C-", lambda n: march_runner(MARCH_C_MINUS)),
    ("PRT-3", lambda n: schedule_runner(standard_schedule(
        field=GF2m(primitive_polynomial(WORDLANE_M)), n=n))),
)


def bench_wordlane(n: int) -> list[dict]:
    """The word-lane packed backend: compiled per-fault replay vs lane
    passes with m=8 bit planes per lane, plus a CFst-only row (the state
    coupling class now resolved by the settle-hook lane model)."""
    rows = []
    sample = SAMPLE.get(n)

    def _capped(universe):
        if sample is not None and len(universe) > sample:
            return universe.sample(sample)
        return universe

    universe = _capped(standard_universe(n, m=WORDLANE_M))
    jobs = [(name, build, universe, WORDLANE_M, f"standard m={WORDLANE_M}")
            for name, build in WORDLANE_TESTS]
    jobs.append(("March C-", WORDLANE_TESTS[0][1],
                 _capped(coupling_universe(n, classes=("CFst",))), 1,
                 "CFst coupling"))
    jobs.append(("March C-", WORDLANE_TESTS[0][1],
                 _capped(npsf_universe(n, max_victims=32)), 1,
                 "NPSF lanes"))
    for name, build, faults, m, label in jobs:
        t_cmp, r_cmp = _time_coverage(build(n), faults, n, m=m,
                                      engine="compiled")
        t_bat, r_bat = _time_coverage(build(n), faults, n, m=m,
                                      engine="batched")
        if _report_key(r_cmp) != _report_key(r_bat):
            raise AssertionError(
                f"{name} n={n} [{label}]: batched word-lane campaign "
                f"diverged from compiled"
            )
        speedup = round(t_cmp / t_bat, 2) if t_bat else float("inf")
        rows.append({
            "test": name,
            "n": n,
            "universe": label,
            "m": m,
            "faults": len(faults),
            "coverage": round(r_cmp.overall, 4),
            "compiled_s": round(t_cmp, 3),
            "batched_s": round(t_bat, 3),
            "speedup_batched_vs_compiled": speedup,
        })
        print(f"{name:>9} n={n:<5} [{label}] faults={len(faults):<5} "
              f"compiled {t_cmp:>7.3f}s  batched {t_bat:>7.3f}s  "
              f"x{speedup}")
    return rows


def bench_fallback_census(n: int, m: int) -> dict:
    """The vectorization census for one ``standard_universe(n, m)``.

    Counts, per descriptor kind, how many faults the lane passes absorb
    and which fault classes (if any) still take the per-fault scalar
    path, then splits the March C- campaign wall clock into the lane
    portion and the scalar-fallback portion on a sampled subset
    (``timed_faults``).  The committed baseline pins ``fallback`` empty
    at every geometry -- ``tools/check_bench.py`` fails the build when a
    class regresses out of the lane passes.
    """
    universe = standard_universe(n, m=m)
    classes, fallback = partition_universe(universe, n=n, m=m)
    vectorized = {kind: len(group) for kind, group in sorted(classes.items())}
    fallback_counts: dict[str, int] = {}
    for _, fault in fallback:
        cls = fault.fault_class
        fallback_counts[cls] = fallback_counts.get(cls, 0) + 1
    timed = universe
    sample = SAMPLE.get(n)
    if sample is not None and len(timed) > sample:
        timed = timed.sample(sample)
    timed_classes, timed_fallback = partition_universe(timed, n=n, m=m)
    lane_faults = [fault for group in timed_classes.values()
                   for _, fault, _ in group]
    scalar_faults = [fault for _, fault in timed_fallback]
    lane_s = 0.0
    if lane_faults:
        lane_s, _ = _time_coverage(march_runner(MARCH_C_MINUS), lane_faults,
                                   n, m=m, engine="batched")
    scalar_s = 0.0
    if scalar_faults:
        scalar_s, _ = _time_coverage(march_runner(MARCH_C_MINUS),
                                     scalar_faults, n, m=m, engine="compiled")
    row = {
        "test": "March C-",
        "n": n,
        "m": m,
        "universe": f"standard census m={m}",
        "faults": len(universe),
        "vectorized": vectorized,
        "fallback": fallback_counts,
        "timed_faults": len(timed),
        "lane_s": round(lane_s, 3),
        "scalar_s": round(scalar_s, 3),
    }
    fallback_text = f"fallback={fallback_counts}" if fallback_counts \
        else "fallback=none"
    print(f" census   n={n:<5} m={m} faults={len(universe):<6} "
          f"lanes {lane_s:>7.3f}s  scalar {scalar_s:>7.3f}s  "
          f"{fallback_text}")
    return row


def scalar_heavy_universe(n: int, sample: int | None = SHARDED_SAMPLE):
    """NPSF + bridging + decoder: the classes that *used* to be scalar.

    Historically the sharding benchmark's subject (nothing here was
    lane-vectorizable); since the uint64 column kernel PR all three
    classes carry lane encodings, so these rows now measure the lane
    passes absorbing the pool's former workload.  The universe carries a
    spec, so any genuine remainder would still shard as
    ``(spec, index range)``.
    """
    universe = npsf_universe(n, max_victims=32) \
        + bridging_universe(n) + decoder_universe(n, max_addresses=16)
    if sample is not None and len(universe) > sample:
        universe = universe.sample(sample)
    return universe


def bench_sharded(name: str, make_runner, n: int, workers: int) -> dict:
    """Serial vs ``workers=N`` batched on the ex-scalar-heavy universe.

    Kept under the historical row identities: with NPSF/bridging/decoder
    lane-encoded there is no scalar remainder to shard, so ``sharded_s``
    should track ``batched_s`` (lane passes, pool never started), both
    far below the interpreted column.
    """
    universe = scalar_heavy_universe(n)
    t_int, r_int = _time_coverage(make_runner(), universe, n,
                                  engine="interpreted")
    t_bat, r_bat = _time_coverage(make_runner(), universe, n,
                                  engine="batched")
    if _report_key(r_int) != _report_key(r_bat):
        raise AssertionError(
            f"{name} n={n}: batched scalar-heavy campaign diverged "
            f"from interpreted"
        )
    t_shd, r_shd = _time_coverage(make_runner(), universe, n,
                                  engine="batched", workers=workers)
    if _report_key(r_int) != _report_key(r_shd):
        raise AssertionError(
            f"{name} n={n}: sharded campaign diverged from interpreted"
        )
    row = {
        "test": name,
        "n": n,
        "universe": "scalar-heavy NPSF/BF/AF",
        "faults": len(universe),
        "workers": workers,
        "coverage": round(r_int.overall, 4),
        "interpreted_s": round(t_int, 3),
        "batched_s": round(t_bat, 3),
        "sharded_s": round(t_shd, 3),
        "speedup_sharded": round(t_int / t_shd, 2) if t_shd else float("inf"),
        "sharded_vs_serial": round(t_bat / t_shd, 2) if t_shd
        else float("inf"),
    }
    print(f"{name:>9} n={n:<5} scalar-heavy faults={row['faults']:<5} "
          f"interpreted {t_int:>7.3f}s  batched {t_bat:>7.3f}s  "
          f"sharded({workers}w) {t_shd:>7.3f}s  x{row['speedup_sharded']} "
          f"(vs serial x{row['sharded_vs_serial']})")
    return row


CACHE_TESTS = (("March C-", "march-c"), ("PRT-3", "prt3"))
CACHE_WARM_REPEATS = 5


def bench_cache(n: int) -> list[dict]:
    """The content-addressed result cache: cold campaign vs warm hit.

    One cold ``execute_request`` over the *full* ``standard_universe(n)``
    (batched engine -- the fastest cold path, so the reported speedup is
    the cache against the engines' best effort, not a strawman), then
    the warm repeat of the identical request.  The warm path resolves the
    memoized request, hashes nothing new, and unpickles the stored
    report -- it never materializes the universe.  ``warm_s`` is the
    best of a few repeats (a sub-millisecond path measured once is all
    timer noise); the hit is verified byte-identical to the cold report
    before any number is emitted.
    """
    rows = []
    for name, selector in CACHE_TESTS:
        cache = ResultCache()
        request = CampaignRequest(test=selector, n=n, engine="batched")
        start = time.perf_counter()
        cold = execute_request(request, cache=cache)
        cold_s = time.perf_counter() - start
        if cold.cached:
            raise AssertionError(f"{name} n={n}: cold request hit the cache")
        warm_s = float("inf")
        for _ in range(CACHE_WARM_REPEATS):
            start = time.perf_counter()
            warm = execute_request(request, cache=cache)
            warm_s = min(warm_s, time.perf_counter() - start)
            if not warm.cached:
                raise AssertionError(
                    f"{name} n={n}: warm request missed the cache")
            if pickle.dumps(warm.report) != pickle.dumps(cold.report):
                raise AssertionError(
                    f"{name} n={n}: cache hit diverged from the cold report")
        speedup = round(cold_s / warm_s, 2) if warm_s else float("inf")
        rows.append({
            "test": name,
            "n": n,
            "universe": "standard (result cache)",
            "faults": sum(cold.report.total.values()),
            "coverage": round(cold.report.overall, 4),
            "cold_s": round(cold_s, 3),
            "warm_s": round(warm_s, 6),
            "speedup_warm": speedup,
        })
        print(f"{name:>9} n={n:<5} cache cold {cold_s:>7.3f}s  "
              f"warm {warm_s * 1e6:>8.1f}us  x{speedup}")
    return rows


DEFAULT_REPEATS = 3


def _best_request_s(request: CampaignRequest):
    """Best-of-``DEFAULT_REPEATS`` wall clock of one uncached request."""
    best = float("inf")
    for _ in range(DEFAULT_REPEATS):
        start = time.perf_counter()
        report = run_request(request, cache=False)
        best = min(best, time.perf_counter() - start)
    return best, report


def bench_default(n: int, m: int) -> list[dict]:
    """The default engine against the per-fault compiled engine.

    Each request runs uncached, best of a few, so the one-off stream
    compile the first run pays (shared by both engines) drops out.
    """
    rows = []
    for name, selector in CACHE_TESTS:
        request = CampaignRequest(test=selector, n=n, m=m)
        default_s, report = _best_request_s(request)
        compiled_s, compiled = _best_request_s(
            request.replace(engine="compiled"))
        if _report_key(report) != _report_key(compiled):
            raise AssertionError(
                f"{name} n={n} m={m}: default engine diverged from compiled")
        speedup = round(compiled_s / default_s, 2)
        rows.append({
            "test": name,
            "n": n,
            "m": m,
            "universe": f"standard m={m} (default engine)",
            "faults": sum(report.total.values()),
            "coverage": round(report.overall, 4),
            "default_s": round(default_s, 4),
            "compiled_s": round(compiled_s, 4),
            "default_vs_compiled": speedup,
        })
        print(f"{name:>9} n={n:<5} m={m} default {default_s:>7.3f}s  "
              f"compiled {compiled_s:>7.3f}s  x{speedup}")
    return rows


SPEC_LANE_REPEATS = 7


def _best_of(repeats: int, work):
    """``(best wall clock, last result)`` of ``repeats`` calls."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = work()
        best = min(best, time.perf_counter() - start)
    return best, result


def _spec_lanes(spec, n: int, m: int):
    table = descriptor_table(spec)
    classes, fallback = partition_table(table, n, m)
    return classes, fallback, table.class_tags()


def _enumerated_lanes(spec, n: int, m: int):
    universe = spec.build()
    classes, fallback = partition_universe(universe, n, m)
    return ({kind: [(index, semantics) for index, _fault, semantics
                    in members] for kind, members in classes.items()},
            [index for index, _fault in fallback],
            [fault.fault_class for fault in universe])


def bench_spec_lanes(n: int, m: int) -> dict:
    """Lane descriptors from the spec against building every fault.

    Both sides produce the batched engine's inputs for one
    ``standard_universe(n, m)``: per-kind ``(index, semantics)`` lists,
    the fallback indices and the per-index class tags.  Best of a few
    runs each; the two outputs are compared before any number is kept.
    """
    spec = standard_universe_spec(n, m)
    spec_s, tables = _best_of(SPEC_LANE_REPEATS,
                              lambda: _spec_lanes(spec, n, m))
    enumerate_s, enumerated = _best_of(SPEC_LANE_REPEATS,
                                       lambda: _enumerated_lanes(spec, n, m))
    if tables != enumerated:
        raise AssertionError(
            f"n={n} m={m}: spec lane tables diverged from the per-fault "
            f"partition")
    ratio = round(enumerate_s / spec_s, 2) if spec_s else float("inf")
    print(f" spec lanes n={n:<5} m={m} faults={len(tables[2]):<6} "
          f"tables {spec_s * 1e3:>7.2f}ms  enumerate "
          f"{enumerate_s * 1e3:>7.2f}ms  x{ratio}")
    return {
        "test": "standard universe",
        "n": n,
        "m": m,
        "universe": f"standard m={m} (spec lanes)",
        "faults": len(tables[2]),
        "spec_s": round(spec_s, 5),
        "enumerate_s": round(enumerate_s, 5),
        "spec_vs_enumerate": ratio,
    }


#: Sub-millisecond at the quick geometries, so more repeats than the
#: spec lane rows.
PLAN_REPEATS = 15


def _pass_ranges(count: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + MAX_LANES, count))
            for lo in range(0, count, MAX_LANES)]


def _plan_lanes(spec, n: int, m: int):
    """Members, fallback and every pass's columns from the spec's lane
    plan, with each pass's model built from them."""
    plan = lane_plan_of(FaultUniverse.from_spec(spec), n, m)
    if not isinstance(plan, LanePlan):
        raise AssertionError(f"n={n} m={m}: the spec has no lane plan")
    columns = {}
    for kind, lanes in plan.sizes.items():
        columns[kind] = [plan.columns(kind, lo, hi)
                         for lo, hi in _pass_ranges(lanes)]
        for pass_columns in columns[kind]:
            _MODELS[kind](pass_columns)
    return ({kind: plan.members(kind) for kind in plan.sizes},
            plan.fallback, columns)


def _row_lanes(spec, n: int, m: int):
    """The same from the spec's descriptor rows: ``partition_table``,
    then the rows -> columns adapter per pass."""
    classes, fallback = partition_table(descriptor_table(spec), n, m)
    columns = {}
    for kind, group in classes.items():
        semantics = [sem for _index, sem in group]
        columns[kind] = [_ROW_COLUMNS[kind](semantics[lo:hi])
                         for lo, hi in _pass_ranges(len(group))]
        for pass_columns in columns[kind]:
            _MODELS[kind](pass_columns)
    return ({kind: [index for index, _sem in group]
             for kind, group in classes.items()}, fallback, columns)


def bench_plan(n: int, m: int) -> dict:
    """A cold request's lane inputs: the spec's lane plan against rows.

    Both sides turn ``standard_universe_spec(n, m)`` into the batched
    engine's lane classes and, for every ``MAX_LANES`` pass, the lane
    model's columns and the model itself: the plan from the generator
    records, the rows through ``partition_table`` and the rows ->
    columns adapter.  The plan side also lists its members (the engine
    itself writes verdicts by stride and never lists them).  Best of a
    few runs each; members, fallback and every pass's columns are
    compared before any number is kept.
    """
    spec = standard_universe_spec(n, m)
    plan_s, planned = _best_of(PLAN_REPEATS, lambda: _plan_lanes(spec, n, m))
    rows_s, from_rows = _best_of(PLAN_REPEATS, lambda: _row_lanes(spec, n, m))
    if planned != from_rows:
        raise AssertionError(
            f"n={n} m={m}: the lane plan diverged from the rows adapter")
    faults = sum(len(members) for members in planned[0].values()) \
        + len(planned[1])
    ratio = round(rows_s / plan_s, 2) if plan_s else float("inf")
    print(f" lane plan n={n:<5} m={m} faults={faults:<6} "
          f"plan {plan_s * 1e3:>7.2f}ms  rows {rows_s * 1e3:>7.2f}ms  "
          f"x{ratio}")
    return {
        "test": "standard universe",
        "n": n,
        "m": m,
        "universe": f"standard m={m} (lane plan)",
        "faults": faults,
        "plan_s": round(plan_s, 5),
        "rows_s": round(rows_s, 5),
        "plan_vs_rows": ratio,
    }


GLUE_TESTS = (("March C-", "march-c"), ("PRT-3", "prt3"),
              ("dual-schedule", "dual-schedule"))
GLUE_REPEATS = 5


def _compile_uncached(selector: str, n: int, m: int):
    """A fresh compile of the stream a request for ``selector`` replays
    (the resolver's runners memoize theirs)."""
    field = build_field(m, None)
    if selector == "march-c":
        return compile_march(MARCH_C_MINUS, n, m)
    if selector == "prt3":
        return compile_schedule(standard_schedule(field=field, n=n), n, m)
    generator = (1, 1, 1) if field is None else (1, 2, 2)
    return compile_multi_schedule(standard_multi_schedule(
        ports=2, field=field, generator=generator), n, m)


def _serve_reseeded(request: CampaignRequest, seed: int):
    """Resolve ``request`` with its default universe reseeded, and pass
    the checks its campaign runs first: the request gate and the
    reference pass."""
    resolved = resolve_campaign(request.replace(
        universe=standard_universe_spec(request.n, request.m, seed=seed)))
    _ensure_stream_verified(resolved)
    _reference_pass(resolved.compile(), request.n, request.m)
    return resolved


def _report_per_fault(universe, verdicts):
    """A report's ``(total, detected, missed names)`` fault by fault: the
    class tag of every fault counted, then every miss named by index."""
    tags = universe.class_tags()
    total = dict(Counter(tags))
    detected = dict(Counter(itertools.compress(tags, verdicts)))
    return total, detected, [universe.name_of(index)
                             for index, hit in enumerate(verdicts) if not hit]


def _ordered(report) -> tuple[list, list, list]:
    """A report's dicts as item lists, so equality checks key order."""
    total, detected, names = report
    return list(total.items()), list(detected.items()), names


def bench_glue(n: int, m: int) -> list[dict]:
    """The per-request glue around the lane kernels of a cold request.

    Per test: a fresh stream compile (its digest must equal the
    request path's stream), the error-only static verify the request
    gate runs, and naming the campaign's missed faults from the
    descriptor rows (``FaultUniverse.name_of``) against building each
    missed fault to read its name.  The two name lists are compared
    before a number is kept.  Then, with the request served, a request
    that only reseeds its universe (a new seed each run, so each run
    misses the resolve memo): its resolution, request gate and
    reference pass, whose stream must be the first request's object.
    Last, the report of the campaign: :func:`tally` per generator part
    (``report_s``) against the per-fault path it replaced, class tags,
    two ``Counter`` and ``name_of`` per miss (``per_fault_report_s``);
    their dicts, key order and names must be equal.  Best of a few runs
    each.
    """
    rows = []
    for name, selector in GLUE_TESTS:
        request = CampaignRequest(test=selector, n=n, m=m, engine="batched")
        resolved = resolve_campaign(request)
        compile_s, stream = _best_of(
            GLUE_REPEATS, lambda: _compile_uncached(selector, n, m))
        if stream.digest() != resolved.compile().digest():
            raise AssertionError(
                f"{name} n={n} m={m}: bench compile diverged from the "
                f"request path's stream")
        verify_s, report = _best_of(
            GLUE_REPEATS, lambda: verify(stream, dataflow=False))
        if not report.ok:
            raise AssertionError(f"{name} n={n} m={m}: stream failed verify")
        universe = resolved.build_universe()
        campaign = run_campaign_batched(stream, universe)
        missed = [index for index, detected in enumerate(campaign.verdicts)
                  if not detected]
        rows_of = universe.descriptors.rows
        naming_s, names = _best_of(
            GLUE_REPEATS, lambda: [universe.name_of(i) for i in missed])
        built_naming_s, built = _best_of(
            GLUE_REPEATS,
            lambda: [fault_from_descriptor(*rows_of[i]).name for i in missed])
        if names != built:
            raise AssertionError(
                f"{name} n={n} m={m}: row names diverged from built names")
        report_s, report = _best_of(
            GLUE_REPEATS, lambda: tally(universe, campaign.verdicts))
        per_fault_report_s, per_fault = _best_of(
            GLUE_REPEATS,
            lambda: _report_per_fault(universe, campaign.verdicts))
        if _ordered(report) != _ordered(per_fault):
            raise AssertionError(
                f"{name} n={n} m={m}: the tally diverged from the "
                f"per-fault report")
        served = _serve_reseeded(request, 0).compile()
        seeds = itertools.count(1)
        reseed_s, reseeded = _best_of(
            GLUE_REPEATS, lambda: _serve_reseeded(request, next(seeds)))
        if reseeded.compile() is not served:
            raise AssertionError(
                f"{name} n={n} m={m}: a reseeded request compiled its "
                f"own stream")
        print(f"      glue {name:>13} n={n:<4} m={m} records="
              f"{len(stream.ops):<6} compile {compile_s * 1e3:>6.2f}ms  "
              f"verify {verify_s * 1e3:>6.2f}ms  name {len(missed)} misses "
              f"{naming_s * 1e3:>6.2f}ms (built {built_naming_s * 1e3:.2f}ms)"
              f"  reseed {reseed_s * 1e3:.3f}ms  report "
              f"{report_s * 1e3:.3f}ms (per fault "
              f"{per_fault_report_s * 1e3:.3f}ms)")
        rows.append({
            "test": name,
            "n": n,
            "m": m,
            "universe": f"standard m={m} (glue)",
            "records": len(stream.ops),
            "misses": len(missed),
            "compile_s": round(compile_s, 5),
            "verify_s": round(verify_s, 5),
            "naming_s": round(naming_s, 5),
            "built_naming_s": round(built_naming_s, 5),
            "reseed_s": round(reseed_s, 6),
            "report_s": round(report_s, 6),
            "per_fault_report_s": round(per_fault_report_s, 6),
        })
    return rows


LANE_REPEATS = 3
LANE_CHECK_SAMPLE = 48  # faults checked against run_campaign per row


def _lane_passes(stream, kind: str, members: list) -> tuple[int, int]:
    """``(detected mask over members, records executed)`` of one class:
    the lane passes ``run_campaign_batched`` runs for it, chunk by
    chunk, with the chunk masks concatenated in member order."""
    detected = executed = 0
    for base in range(0, len(members), MAX_LANES):
        chunk = members[base:base + MAX_LANES]
        model = build_lane_model(kind, [sem for _, sem in chunk])
        packed = PackedMemoryArray(stream.n, lanes=len(chunk), m=stream.m)
        model.install(packed)
        mask, records = packed.apply_stream(stream.ops, tables=stream.tables,
                                            model=model)
        detected |= mask << base
        executed += records
    return detected, executed


def bench_lane_passes(n: int, m: int) -> list[dict]:
    """Per-class lane-pass wall clock of one cold request's campaign.

    Per test: the request's stream and universe, split into lane
    classes as ``run_campaign_batched`` splits them, then every class's
    lane passes timed on their own (best of a few runs) with the
    records they execute.  Before any number is kept, the lane verdicts
    of an evenly spaced sample of faults are checked against the scalar
    ``run_campaign``.
    """
    rows = []
    for name, selector in GLUE_TESTS:
        request = CampaignRequest(test=selector, n=n, m=m, engine="batched")
        resolved = resolve_campaign(request)
        stream = resolved.compile()
        universe = resolved.build_universe()
        classes, fallback = partition_table(universe.descriptors, n, m)
        if fallback:
            raise AssertionError(
                f"{name} n={n} m={m}: {len(fallback)} faults fell back")
        verdicts = [False] * len(universe)
        timed = []
        for kind in sorted(classes):
            members = classes[kind]
            pass_s, (detected, executed) = _best_of(
                LANE_REPEATS, lambda: _lane_passes(stream, kind, members))
            bits = format(detected, f"0{len(members)}b")[::-1]
            for (index, _sem), bit in zip(members, bits):
                verdicts[index] = bit == "1"
            timed.append((kind, len(members), executed, pass_s))
        step = max(1, len(universe) // LANE_CHECK_SAMPLE)
        sample = list(range(0, len(universe), step))[:LANE_CHECK_SAMPLE]
        scalar = run_campaign(stream, [universe[i] for i in sample],
                              reference_check=False)
        if scalar.verdicts != [verdicts[i] for i in sample]:
            raise AssertionError(
                f"{name} n={n} m={m}: lane verdicts diverged from "
                f"run_campaign")
        for kind, faults, executed, pass_s in timed:
            print(f"     lanes {name:>13} n={n:<4} m={m} {kind:>10} "
                  f"faults={faults:<5} records={executed:<7} "
                  f"{pass_s * 1e3:>8.2f}ms")
            rows.append({
                "test": name,
                "n": n,
                "m": m,
                "universe": f"standard m={m} ({kind} lanes)",
                "faults": faults,
                "executed": executed,
                "pass_s": round(pass_s, 5),
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON summary here (default: stdout)")
    parser.add_argument("--workers", type=int, default=2,
                        help="processes for the multiprocessing and "
                             "sharded rows (0 disables them)")
    parser.add_argument("--sizes", type=int, nargs="*", default=list(SIZES))
    parser.add_argument("--single-cell-n", type=int, default=1024,
                        help="memory size for the single-cell batched "
                             "headline row")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: n=64 rows plus small "
                             "single-cell/sharded sections (seconds, not "
                             "minutes), row identities matching the full "
                             "run for baseline comparison")
    args = parser.parse_args(argv)

    if args.quick and (args.sizes != list(SIZES) or args.single_cell_n != 1024):
        parser.error("--quick selects its own sizes so its rows match the "
                     "checked-in baseline; drop --sizes/--single-cell-n")
    if args.quick:
        sizes = [64]
        single_cell_sizes = [256]
        sharded_sizes = [64]
        multiport_sizes = [64]
        wordlane_sizes = [64]
        census_sizes = [64]
        cache_sizes = [64]
        default_geometries = [(64, 1), (32, 4)]
        spec_lane_geometries = [(64, 1), (32, 8)]
        plan_geometries = [(64, 1), (32, 8)]
        glue_geometries = [(64, 1), (32, 8)]
    else:
        sizes = list(args.sizes)
        single_cell_sizes = sorted({256, args.single_cell_n})
        sharded_sizes = [64, 1024]
        multiport_sizes = [64, 1024]
        wordlane_sizes = [64, 1024]
        census_sizes = [64, 1024]
        cache_sizes = [1024]
        default_geometries = [(256, 1), (64, 4)]
        spec_lane_geometries = [(1024, 1), (256, 8)]
        plan_geometries = [(1024, 1), (256, 8)]
        glue_geometries = [(512, 1), (176, 8)]

    rows = []
    for n in sizes:
        for name, build in TESTS:
            row = bench_one(name, lambda n=n, build=build: build(n), n,
                            args.workers)
            rows.append(row)
            speedup_mp = row.get("speedup_mp")
            mp_text = f"  mp x{speedup_mp}" if speedup_mp else ""
            print(f"{name:>9} n={n:<5} faults={row['faults']:<5} "
                  f"interpreted {row['interpreted_s']:>7.3f}s  "
                  f"compiled {row['compiled_s']:>7.3f}s  "
                  f"x{row['speedup']}{mp_text}  "
                  f"batched {row['batched_s']:>7.3f}s  "
                  f"x{row['speedup_batched']}")
    single_cell_rows = []
    for n in single_cell_sizes:
        single_cell_rows.extend(bench_single_cell(n))
    multiport_rows = []
    for n in multiport_sizes:
        multiport_rows.extend(bench_multiport(n))
    wordlane_rows = []
    for n in wordlane_sizes:
        wordlane_rows.extend(bench_wordlane(n))
    fallback_summary = []
    for n in census_sizes:
        for m in (1, WORDLANE_M):
            fallback_summary.append(bench_fallback_census(n, m))
        fallback_summary.extend(bench_multiport_census(n))
    cache_rows = []
    for n in cache_sizes:
        cache_rows.extend(bench_cache(n))
    default_rows = []
    for n, m in default_geometries:
        default_rows.extend(bench_default(n, m))
    spec_lane_rows = [bench_spec_lanes(n, m)
                      for n, m in spec_lane_geometries]
    plan_rows = [bench_plan(n, m) for n, m in plan_geometries]
    glue_rows = [row for n, m in glue_geometries for row in bench_glue(n, m)]
    # The lane kernels of the glue rows' cold requests.
    lane_rows = [row for n, m in glue_geometries
                 for row in bench_lane_passes(n, m)]
    sharded_rows = []
    if args.workers > 0:
        for n in sharded_sizes:
            for name, build in TESTS:
                sharded_rows.append(bench_sharded(
                    name, lambda n=n, build=build: build(n), n,
                    args.workers))
    summary = {
        "benchmark": "campaign_engine",
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "quick": args.quick,
        "rows": rows,
        "min_single_process_speedup": min(r["speedup"] for r in rows),
        "single_cell_rows": single_cell_rows,
        "single_cell_batched_speedup": min(
            r["speedup_batched_vs_compiled"] for r in single_cell_rows
        ),
        "multiport_rows": multiport_rows,
        "min_multiport_speedup": min(
            r["speedup_multiport"] for r in multiport_rows
        ),
        "min_multiport_lane_speedup": min(
            r["speedup_batched_vs_compiled"] for r in multiport_rows
        ),
        "wordlane_rows": wordlane_rows,
        # The documented >= 5x acceptance bar is stated at n=1024; the
        # quick run has no n=1024 rows, so it falls back to what it has
        # (small-n rows are overhead-dominated and not held to the bar).
        "min_wordlane_speedup": min(
            r["speedup_batched_vs_compiled"]
            for r in ([r for r in wordlane_rows if r["n"] == 1024]
                      or wordlane_rows)
        ),
        "fallback_summary": fallback_summary,
        # Identities of census entries still carrying scalar-fallback
        # faults.  The committed baseline keeps this empty: every
        # built-in class of the standard universe resolves in lane
        # passes at every benchmarked geometry.
        "fallback_rows": [
            {"test": row["test"], "n": row["n"], "m": row["m"],
             "universe": row["universe"], "fallback": row["fallback"]}
            for row in fallback_summary if row["fallback"]
        ],
        "cache_rows": cache_rows,
        # The serving-layer acceptance bar: a warm request >= 100x the
        # cold campaign at n=1024 (quick mode's n=64 rows are still far
        # above the bar, but the documented number is the full-run one).
        "min_cache_speedup": min(r["speedup_warm"] for r in cache_rows),
        "default_rows": default_rows,
        # check_bench fails when this drops below 2 on >= 1000 faults.
        "min_default_speedup": min(
            r["default_vs_compiled"] for r in default_rows),
        "spec_lane_rows": spec_lane_rows,
        # check_bench fails when this drops below 2 on >= 1000 faults.
        "min_spec_lane_speedup": min(
            r["spec_vs_enumerate"] for r in spec_lane_rows),
        "plan_rows": plan_rows,
        # check_bench fails when this drops below its floor on >= 1000
        # faults.
        "min_plan_speedup": min(r["plan_vs_rows"] for r in plan_rows),
        "glue_rows": glue_rows,
        "lane_rows": lane_rows,
        "sharded_rows": sharded_rows,
    }
    shutdown_shared_pools()
    text = json.dumps(summary, indent=2)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
