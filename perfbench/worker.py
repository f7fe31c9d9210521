"""The process that drives one workload and prints one JSON line.

Started by ``run.py`` (never imported by it) as::

    python perfbench/worker.py MODE WORKLOAD SEED SECONDS

with ``PYTHONPATH`` pointing at the program's ``src`` and
``PERFBENCH_TMP`` at a scratch directory inside the checkout.

Modes:

``measure``
    Untraced closed loop for ``SECONDS``; then the correctness checks.
``trace``
    Pairs of like requests, one member through the public call and the
    other with each layer called on its own inside a span, plus
    per-layer probes.  Compares every traced report with the untraced
    report of the same request.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import sys
import time
import traceback

from procs import (
    PROBE_REF_MS,
    http_request,
    launch_ready_s,
    pin_one_cpu,
    probe_ms,
    server_ready_s,
    start_server,
    stop_server,
    vmhwm_mb,
)
from tracing import Tracer, median
from workloads import (
    BLOCK,
    CYCLE,
    SERVER_CACHE_SIZE,
    SHARDED_WORKERS,
    Item,
    geometry_band,
    hot_set,
    library_pairs,
    library_stream,
    library_warmup,
    serve_mixed,
    serve_pairs,
)

from repro import cli
from repro.analysis.coverage import CoverageReport, run_coverage
from repro.analysis.request import (
    RequestOutcome,
    execute_request,
    resolve_campaign,
)
from repro.faults.linked import linked_universe
from repro.faults.universe import (
    FaultUniverse,
    npsf_universe,
    single_cell_universe,
)
from repro.memory.multiport import MultiPortRAM
from repro.memory.ram import SinglePortRAM
from repro.server.app import create_app
from repro.server.cache import ResultCache
from repro.server.schemas import (
    coverage_response,
    report_to_dict,
    request_from_dict,
    request_to_dict,
)
from repro.server.testing import TestClient
from repro.sim.batched import run_campaign_batched
from repro.sim.campaign import partition_universe, run_campaign
from repro.sim.pool import shared_pool
from repro.sim.verify import verify

#: Library requests run before timing starts (lazy imports, pool start).
WARM = 2
#: Measured seconds between two host probe pauses, probe readings per
#: pause, and measured seconds between two launches (see ``Clock``).
PROBE_EVERY_S = 0.1
PROBE_READINGS = 2
LAUNCH_EVERY_S = 2.0
#: Full request cycles in the library hit set, the least time one hit
#: sample takes, and the least time of a block of rounds through the
#: set between two probe readings (see ``LibraryHits``).
HIT_CYCLES = 3
HIT_SAMPLE_S = 0.1
HIT_BLOCK_S = 0.005
#: Measured requests after which the peak RSS is read, so that it
#: reflects the same work in every run (a run that ends sooner reads it
#: at its end).
RSS_AFTER = {"cold-batched": 48, "default-sharded": 48, "serve-mixed": 1000}
#: Faults per correctness spot check.
SPOT_FAULTS = 32
#: Pairs of requests in the traced run, per workload.
TRACED_PAIRS = {"cold-batched": 12, "default-sharded": 6, "serve-mixed": 40}
#: Sample size for the scalar-vs-sharded probe on large universes.
SHARD_SAMPLE = 256
#: Lane cap of run_campaign_batched (its ``max_lanes`` default).
MAX_LANES = 4096
LANE_KINDS = ("stuck", "transition", "coupling", "stuck-open", "state",
              "npsf", "bridge", "retention", "linked", "decoder")


def scratch(name: str) -> str:
    return os.path.join(os.environ["PERFBENCH_TMP"], name)


def library_call(workload: str):
    """The public call a library workload makes per request."""
    if workload == "default-sharded":
        return lambda request: run_coverage(request, cache=False)
    return lambda request: execute_request(request, cache=False).report


def spot_check(request, missed: set[str], total: int, seed: int) -> bool:
    """Re-run a seeded 32-fault sample on a second engine; every verdict
    must match the report.  Batched requests are checked against the
    compiled engine, default-engine requests against the batched one."""
    resolved = resolve_campaign(request)
    stream = resolved.compile()
    universe = resolved.build_universe()
    if len(universe) != total:
        return False
    sample = universe.sample(SPOT_FAULTS, rng=random.Random(seed))
    engine = run_campaign if request.engine == "batched" \
        else run_campaign_batched
    result = engine(stream, sample)
    return all(detected == (fault.name not in missed)
               for fault, detected in result.outcomes)


def report_total(report: dict) -> int:
    return sum(row["total"] for row in report["classes"].values())


def guarded(failures: dict, attempt: str, fn, *args):
    """``fn(*args)``, or None after recording ``attempt`` as failed."""
    try:
        return fn(*args)
    except Exception as exc:  # a failed request is counted, never fatal
        failures.setdefault(attempt, f"{type(exc).__name__}: {exc}")
        traceback.print_exc()
        return None


# -- measure -----------------------------------------------------------------


class Clock:
    """Measured time of a closed loop, minus its pauses, and the host
    probe readings that normalise it.

    Between two requests the loop pauses for side measurements:
    ``PROBE_READINGS`` host probe readings every ``PROBE_EVERY_S`` of
    measured time, and every ``LAUNCH_EVERY_S`` a fresh launch of the
    program (``setup_s``), on one CPU between probe readings of its own,
    plus, when given, a library hit sample.  Work inside :meth:`paused`
    (side measurements, making the next request) is left out of the
    measured time.

    The host's speed changes within seconds, so each measurement is
    normalised by the readings taken right around it: a request or a
    stretch of measured time by the mean of the readings that open and
    close its window between two probe pauses, a launch by the readings
    just before and after it.  A library hit sample normalises itself.
    A time ``t`` becomes ``t * PROBE_REF_MS / probe``.  ``norm`` holds
    the normalised values and ``raw`` the measured ones, under the same
    keys.
    """

    def __init__(self, launch):
        self.launch = launch
        self.probe_ms: list[float] = []
        keys = ("request_ms", "hit_ms", "miss_ms", "setup_s")
        self.norm: dict = {key: [] for key in keys}
        self.raw: dict = {key: [] for key in keys}
        self.norm["wall_s"] = self.raw["wall_s"] = 0.0
        self.pending: list[tuple[str, float]] = []
        self.last = self.read_probe()
        self.paused_s = 0.0
        self.window_start = 0.0
        self.next_probe = PROBE_EVERY_S
        self.next_launch = LAUNCH_EVERY_S / 2
        self.start = time.perf_counter()

    def measured_s(self) -> float:
        return time.perf_counter() - self.start - self.paused_s

    @contextlib.contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - t0

    def read_probe(self) -> float:
        readings = [probe_ms() for _ in range(PROBE_READINGS)]
        self.probe_ms.extend(readings)
        return sum(readings) / len(readings)

    def record(self, kind: str, ms: float) -> None:
        """One request of ``kind`` ("hit" or "miss") took ``ms``."""
        self.pending.append((kind, ms))

    def _put(self, key: str, value: float, before: float,
             after: float) -> None:
        self.raw[key].append(value)
        self.norm[key].append(value * PROBE_REF_MS * 2 / (before + after))

    def _close_window(self) -> None:
        """Read the probe; normalise the requests since the last pause."""
        now = self.measured_s()
        with self.paused():
            before, self.last = self.last, self.read_probe()
        scale = PROBE_REF_MS * 2 / (before + self.last)
        self.raw["wall_s"] += now - self.window_start
        self.norm["wall_s"] += (now - self.window_start) * scale
        self.window_start = now
        for kind, ms in self.pending:
            for key in ("request_ms", f"{kind}_ms"):
                self.raw[key].append(ms)
                self.norm[key].append(ms * scale)
        self.pending.clear()

    def tick(self, hit_sample=None, force: bool = False) -> None:
        """Take the side measurements that are due (all of them when
        ``force``).  ``hit_sample()`` returns None or a hit time as
        ``(raw, normalised)``."""
        now = self.measured_s()
        if force or now >= self.next_probe:
            self._close_window()
            self.next_probe = now + PROBE_EVERY_S
        if force or now >= self.next_launch:
            with self.paused():
                # On one CPU, so the readings are of the CPU the launch
                # ran on.
                allowed = pin_one_cpu()
                try:
                    before = self.read_probe()
                    ready = self.launch()
                    self.last = self.read_probe()
                finally:
                    os.sched_setaffinity(0, allowed)
                self._put("setup_s", ready, before, self.last)
                hit = hit_sample() if hit_sample is not None else None
                if hit is not None:
                    self.raw["hit_ms"].append(hit[0])
                    self.norm["hit_ms"].append(hit[1])
            self.next_launch += LAUNCH_EVERY_S

    def finish(self) -> None:
        """Close the last window; the measured phase is over."""
        self._close_window()


def module_launch():
    modules = "repro.analysis.request, repro.analysis.coverage"
    return lambda: launch_ready_s(modules, os.getcwd(), dict(os.environ))


class LibraryHits:
    """Repeats through a result cache holding each report: the library's
    hit path (resolve and verify memoized, one unpickle).

    A hit's cost grows with its report, which differs by test, so a
    median over single hits would land between test classes.  The hit
    set is therefore the first ``HIT_CYCLES`` full cycles of measured
    requests, the same number per class.

    A sample runs blocks of at least ``HIT_BLOCK_S`` of rounds through
    the set for at least ``HIT_SAMPLE_S``, with a probe reading before
    and after each block.  A hit takes under a millisecond, far less than
    the host takes to change speed, so each block is normalised by its
    own two readings.  The sample is the median over blocks of the time
    per hit, as ``(raw, normalised)``."""

    def __init__(self, cycle: int, failures: dict):
        self.cycle = cycle
        self.size = cycle * HIT_CYCLES
        self.failures = failures
        self.store = None
        self.members: list = []
        self.count = 0

    def sample_when_ready(self, done: list):
        """A hit sample, once ``done`` holds the hit set; else None."""
        if self.store is None:
            members = done[:self.size]
            if len(members) < self.size or any(report is None
                                                for _, report in members):
                return None
            self.store = ResultCache(maxsize=self.size)
            for item, report in members:
                self.store.put(resolve_campaign(item.request).cache_key,
                               report)
            self.members = members
        return self.sample()

    def sample(self) -> tuple[float, float]:
        raw, norm = [], []
        reading = probe_ms()
        end = time.perf_counter() + HIT_SAMPLE_S
        while not raw or time.perf_counter() < end:
            hits = 0
            t0 = time.perf_counter()
            while not hits or time.perf_counter() - t0 < HIT_BLOCK_S:
                self.check([execute_request(item.request, cache=self.store)
                            for item, _ in self.members])
                hits += len(self.members)
            ms = (time.perf_counter() - t0) * 1e3 / hits
            after = probe_ms()
            raw.append(ms)
            norm.append(ms * PROBE_REF_MS * 2 / (reading + after))
            reading = after
        return median(raw), median(norm)

    def check(self, outcomes: list) -> None:
        for (item, report), outcome in zip(self.members, outcomes,
                                           strict=True):
            self.count += 1
            if not outcome.cached or report_to_dict(outcome.report) \
                    != report_to_dict(report):
                self.failures.setdefault(f"hit {self.count}", "wrong report")


def check_cold(failures: dict, seed: int, item, missed, total) -> None:
    ok = guarded(failures, f"request {item.index}", spot_check,
                 item.request, set(missed), total, seed * 1000 + item.index)
    if ok is False:
        failures.setdefault(f"request {item.index}", "verdict mismatch")


def measure_library(workload: str, seed: int, seconds: float) -> dict:
    stream = library_stream(workload, seed)
    call = library_call(workload)
    failures: dict[str, str] = {}
    launch = module_launch()
    launch()  # untimed: bytecode caches of a fresh checkout
    for request in library_warmup(workload, WARM):
        call(request)
    hits = LibraryHits(CYCLE[workload], failures)
    done = []
    clock = Clock(launch)
    while True:
        with clock.paused():
            item = next(stream)
        t0 = time.perf_counter()
        report = guarded(failures, f"request {item.index}", call,
                         item.request)
        clock.record("miss", (time.perf_counter() - t0) * 1e3)
        done.append((item, report))
        if len(done) == RSS_AFTER[workload]:
            peak = vmhwm_mb()
        if clock.measured_s() >= seconds and len(done) % hits.cycle == 0:
            break  # whole cycles only: every run has the same class mix
        clock.tick(lambda: hits.sample_when_ready(done))
    clock.finish()
    if len(done) < RSS_AFTER[workload]:
        peak = vmhwm_mb()
    if not clock.raw["hit_ms"]:  # a short run: use the cycles it has
        hits.size = max(len(done) // hits.cycle * hits.cycle, 1)
        clock.tick(lambda: hits.sample_when_ready(done), force=True)
    faults = sum(sum(r.total.values()) for _, r in done if r is not None)
    for item, report in done:
        if report is not None:
            check_cold(failures, seed, item, report.missed_faults,
                       sum(report.total.values()))
    return {
        "norm": clock.norm, "raw": clock.raw, "probe_ms": clock.probe_ms,
        "faults": faults, "peak_rss_mb": peak,
        "attempted": len(done) + hits.count, "failures": failures,
    }


def canonical(response: dict) -> bytes:
    """The parts of a /coverage response that must repeat exactly."""
    return json.dumps({key: response[key]
                       for key in ("request", "report", "cache_key")},
                      sort_keys=True).encode("utf-8")


def post_coverage(port: int, request) -> tuple[float, int, bytes]:
    body = json.dumps(request_to_dict(request)).encode()
    t0 = time.perf_counter()
    status, data = http_request(port, "POST", "/coverage", body)
    return (time.perf_counter() - t0) * 1e3, status, data


def measure_serve(seed: int, seconds: float) -> dict:
    # The client and the server take turns (one request in flight), so
    # they share one CPU.  Handing a request to a vCPU that sits idle
    # costs a wake-up whose delay follows the hypervisor's steal, not the
    # program; on one CPU the probe also reads the CPU the server runs on.
    pin_one_cpu()
    env = dict(os.environ)
    proc, port, _ = start_server(os.getcwd(), env, scratch("server-cache"),
                                 SERVER_CACHE_SIZE)
    failures: dict[str, str] = {}
    first: dict = {}
    cold = []
    attempted = 0
    launches = itertools.count()

    def launch() -> float:
        cache_dir = scratch(f"setup-cache-{next(launches)}")
        return server_ready_s(os.getcwd(), env, cache_dir,
                              SERVER_CACHE_SIZE)

    try:
        launch()  # untimed, as in the library workloads
        for request in hot_set(seed):  # warm-up: fill both cache tiers
            _, status, data = post_coverage(port, request)
            if status != 200:
                raise RuntimeError(f"warm-up failed: {status} {data[:200]}")
            first[request] = canonical(json.loads(data))
        stream = serve_mixed(seed)
        clock = Clock(launch)
        # Whole blocks only: every run has the same hit/miss mix.
        while clock.measured_s() < seconds or attempted % BLOCK:
            clock.tick()
            with clock.paused():
                item = next(stream)
            attempted += 1
            try:
                ms, status, data = post_coverage(port, item.request)
            except OSError:
                failures.setdefault(f"request {item.index}", "connection")
                traceback.print_exc()
                continue
            clock.record("hit" if item.kind == "hit" else "miss", ms)
            if attempted == RSS_AFTER["serve-mixed"]:
                peak = vmhwm_mb(proc.pid)
            if status != 200:
                failures.setdefault(f"request {item.index}",
                                    f"HTTP {status}")
                continue
            response = json.loads(data)
            if response["cached"] != (item.kind == "hit"):
                failures.setdefault(
                    f"request {item.index}",
                    f"cached={response['cached']} for a {item.kind}")
            elif item.kind == "hit":
                if canonical(response) != first[item.request]:
                    failures.setdefault(f"request {item.index}",
                                        "hit differs")
            else:
                cold.append((item, response["report"]))
        clock.finish()
        if attempted < RSS_AFTER["serve-mixed"]:
            peak = vmhwm_mb(proc.pid)
        if not clock.raw["setup_s"]:  # shorter than one launch interval
            clock.tick(force=True)
    finally:
        stop_server(proc)
    for item, report in cold:
        check_cold(failures, seed, item, report["missed_faults"],
                   report_total(report))
    return {
        "norm": clock.norm, "raw": clock.raw, "probe_ms": clock.probe_ms,
        "faults": sum(report_total(r) for _, r in cold),
        "peak_rss_mb": peak, "attempted": attempted, "failures": failures,
    }


# -- trace -------------------------------------------------------------------


def reference_pass(stream) -> None:
    """Fault-free replay on the canonical front-end of the stream."""
    if stream.ports > 1:
        ram = MultiPortRAM(stream.n, m=stream.m, ports=stream.ports)
    else:
        ram = SinglePortRAM(stream.n, m=stream.m)
    mismatches: list = []
    ram.apply_stream(stream.ops, tables=stream.tables, mismatches=mismatches)
    if mismatches:
        raise RuntimeError(f"reference pass mismatched: {mismatches[:3]}")


def build_report(name: str, outcomes) -> CoverageReport:
    report = CoverageReport(test_name=name)
    for fault, detected in outcomes:
        report.record(fault.fault_class, fault.name, detected)
    return report


class Probe:
    """Everything the traced run needs besides the tracer.

    One in-process app serves the untraced ``serve-mixed`` requests, and
    its cache is the one the traced requests read and write, so both see
    the same cache state."""

    def __init__(self, workload: str):
        self.workload = workload
        self.cache = ResultCache(SERVER_CACHE_SIZE,
                                 disk_dir=scratch("trace-cache"))
        self.app = create_app(cache=self.cache)
        self.client = TestClient(self.app)
        self.probe_dir = scratch("probe-cache")
        self.lane_ops = 0
        self.lane_capacity = 0
        self.universe_sizes: list[int] = []
        self.shard_faults: list[int] = []
        self.failures: dict[str, str] = {}
        self.cli_next: dict = {}

    def cli_request(self, request):
        """A default-universe request of ``request``'s class whose ``n``,
        above the class's band and its warm-up requests, nothing else in
        the run uses, so it runs cold."""
        band = geometry_band(self.workload, request.m)
        key = (request.test, request.m)
        n = self.cli_next.get(key, band[-1] + band.step * (WARM + 1))
        self.cli_next[key] = n + band.step
        return request.replace(n=n, universe=None)

    def untraced(self, request) -> tuple[float, dict]:
        """The workload's public call, timed: ``(ms, report dict)``."""
        if self.workload == "serve-mixed":
            body = request_to_dict(request)
            t0 = time.perf_counter()
            response = self.client.post("/coverage", body)
            ms = (time.perf_counter() - t0) * 1e3
            if response.status != 200:
                raise RuntimeError(f"app answered {response.status}")
            return ms, response.json()["report"]
        call = library_call(self.workload)
        t0 = time.perf_counter()
        report = call(request)
        ms = (time.perf_counter() - t0) * 1e3
        return ms, report_to_dict(report)

    def expected(self, item, request) -> dict:
        """The untraced report of a request that already ran traced."""
        if self.workload == "serve-mixed" and item.kind == "cold":
            # The traced run cached it, so the app would only echo that.
            return report_to_dict(execute_request(request,
                                                  cache=False).report)
        return self.untraced(request)[1]


def traced_cold(tr: Tracer, rid: int, request, probe: Probe,
                serve: bool = False):
    """A cold request, layer by layer, as ``execute_request`` (and, for
    ``serve``, the app around it) runs it."""
    with tr.span("request", rid):
        if serve:
            body = json.dumps(request_to_dict(request)).encode()
            with tr.span("server.schemas", rid):
                request = request_from_dict(json.loads(body))
        with tr.span("request.resolve", rid):
            resolved = resolve_campaign(request)
        with tr.span("sim.compile", rid):
            stream = resolved.compile()
        with tr.span("sim.verify", rid):
            verdict = verify(stream, dataflow=False)
        if not verdict.ok:
            raise RuntimeError(f"stream failed verification: "
                               f"{verdict.errors[0]}")
        with tr.span("request.digest", rid):
            key = resolved.cache_key
        with tr.span("faults.universe", rid):
            universe = resolved.build_universe()
        with tr.span("memory.reference", rid):
            reference_pass(stream)
        if request.engine == "batched":
            with tr.span("sim.batched", rid):
                result = run_campaign_batched(stream, universe,
                                              reference_check=False)
        else:
            with tr.span("sim.sharded", rid):
                result = run_campaign(stream, universe,
                                      workers=request.workers,
                                      reference_check=False)
        with tr.span("analysis.report", rid):
            report = build_report(resolved.test_name, result.outcomes)
        if serve:
            with tr.span("server.cache_put", rid):
                probe.cache.put(key, report)
            outcome = RequestOutcome(report, False, 0.0, key)
            with tr.span("server.encode", rid):
                json.dumps(coverage_response(request, outcome))
    probe.universe_sizes.append(len(universe))
    return report, (stream, universe, key)


def traced_hit(tr: Tracer, rid: int, request, probe: Probe):
    """A repeated request as the server answers it from its cache."""
    body = json.dumps(request_to_dict(request)).encode()
    with tr.span("request", rid):
        with tr.span("server.schemas", rid):
            request = request_from_dict(json.loads(body))
        with tr.span("request.resolve", rid):
            resolved = resolve_campaign(request)
        with tr.span("request.digest", rid):
            key = resolved.cache_key
        promotions = probe.cache.stats()["disk_promotions"]
        with tr.span("server.cache_get", rid) as span:
            report = probe.cache.get(key)
        if probe.cache.stats()["disk_promotions"] > promotions:
            span.name = "server.cache_disk_get"
        outcome = RequestOutcome(report, True, 0.0, key)
        with tr.span("server.encode", rid):
            json.dumps(coverage_response(request, outcome))
    return report


def cli_argv(request) -> list[str]:
    selector = (["--scheme", request.test]
                if request.test.endswith(("-port", "-schedule"))
                else ["--test", request.test])
    argv = ["coverage", *selector, "--n", str(request.n), "--m",
            str(request.m), "--json"]
    if request.engine != "auto":
        argv += ["--engine", request.engine]
    if request.workers:
        argv += ["--workers", str(request.workers)]
    return argv


def run_probes(tr: Tracer, rid: int, request, report, context,
               probe: Probe) -> None:
    """Per-layer calls next to a traced cold request (root spans)."""
    stream, universe, key = context
    n, m = stream.n, stream.m
    with tr.span("sim.partition", rid):
        classes, _ = partition_universe(universe, n, m)
    extra = (npsf_universe(n) + single_cell_universe(n, m, classes=("DRF",))
             + linked_universe(n))
    extra_classes, _ = partition_universe(extra, n, m)
    for kind in LANE_KINDS:
        members = classes.get(kind) or extra_classes.get(kind)
        if not members:
            continue
        sub = FaultUniverse([fault for _, fault, _ in members])
        with tr.span(f"sim.lanes.{kind}", rid):
            lanes = run_campaign_batched(stream, sub, reference_check=False)
        probe.lane_ops += lanes.operations_replayed
        probe.lane_capacity += (math.ceil(len(members) / MAX_LANES)
                                * len(stream.ops))
    if request.engine == "batched":
        sample = universe.sample(min(SHARD_SAMPLE, len(universe)),
                                 rng=random.Random(rid))
        with tr.span("sim.scalar", rid):
            serial = run_campaign(stream, sample, reference_check=False)
        with tr.span("sim.sharded", rid):
            sharded = run_campaign(stream, sample, workers=SHARDED_WORKERS,
                                   reference_check=False)
        if [d for _, d in serial.outcomes] != [d for _, d in sharded.outcomes]:
            probe.failures.setdefault(f"request {rid}", "sharded verdicts differ")
    else:
        sample = universe
        with tr.span("sim.scalar", rid):
            serial = run_campaign(stream, sample, reference_check=False)
        with tr.span("sim.batched", rid):
            batched = run_campaign_batched(stream, universe,
                                           reference_check=False)
        if [d for _, d in serial.outcomes] != [d for _, d in batched.outcomes]:
            probe.failures.setdefault(f"request {rid}", "batched verdicts differ")
    probe.shard_faults.append(len(sample))
    with tr.span("server.schemas", rid):
        request_from_dict(json.loads(json.dumps(request_to_dict(request))))
    outcome = RequestOutcome(report, False, 0.0, key)
    with tr.span("server.encode", rid):
        json.dumps(coverage_response(request, outcome))
    cache = ResultCache(SERVER_CACHE_SIZE, disk_dir=probe.probe_dir)
    with tr.span("server.cache_put", rid):
        cache.put(key, report)
    with tr.span("server.cache_get", rid):
        cache.get(key)
    with tr.span("server.cache_disk_get", rid):
        ResultCache(SERVER_CACHE_SIZE, disk_dir=probe.probe_dir).get(key)
    probe.cache.put(key, report)
    with tr.span("server.app_hit", rid):
        response = probe.client.post("/coverage", request_to_dict(request))
    if response.status != 200 or not response.json()["cached"]:
        probe.failures.setdefault(f"request {rid}", f"app hit {response.status}")
    captured = io.StringIO()
    with tr.span("cli.coverage", rid), contextlib.redirect_stdout(captured):
        code = cli.main(cli_argv(probe.cli_request(request)))
    if code != 0 or "report" not in json.loads(captured.getvalue()):
        probe.failures.setdefault(f"request {rid}", f"cli exit {code}")


def traced_pairs(workload: str, seed: int, probe: Probe) -> list:
    """Warm up, then return the ``(item, twin)`` pairs of the run."""
    count = TRACED_PAIRS[workload]
    if workload == "serve-mixed":
        for request in hot_set(seed):  # fill both cache tiers
            probe.untraced(request)
        return serve_pairs(seed, count)
    call = library_call(workload)
    for request in library_warmup(workload, WARM):
        call(request)
    return [(Item(k, "cold", a), b)
            for k, (a, b) in enumerate(library_pairs(workload, seed, count))]


def trace(workload: str, seed: int) -> dict:
    """Each pair runs one member traced and the other untraced through
    the public call, in the same process.  The roles alternate every
    pair and the order every two pairs, so neither the members' small
    cost difference nor a drifting host favours one side."""
    probe = Probe(workload)
    serve = workload == "serve-mixed"
    tr = Tracer()
    pairs = []  # (kind, traced root ms, layer self ms, untraced ms)
    try:
        for k, (item, twin) in enumerate(traced_pairs(workload, seed, probe)):
            traced, plain = ((item.request, twin) if k % 2 == 0
                             else (twin, item.request))
            plain_first = (k // 2) % 2 == 0
            if plain_first:
                plain_ms, _ = probe.untraced(plain)
            if item.kind == "hit":
                report = traced_hit(tr, item.index, traced, probe)
            else:
                report, context = traced_cold(tr, item.index, traced, probe,
                                              serve=serve)
            if not plain_first:
                plain_ms, _ = probe.untraced(plain)
            total, inner = tr.split(tr.roots("request")[-1])
            pairs.append((item.kind, total, inner, plain_ms))
            if report_to_dict(report) != probe.expected(item, traced):
                probe.failures.setdefault(f"request {item.index}",
                                          "traced report differs")
            if item.kind == "cold":
                run_probes(tr, item.index, traced, report, context, probe)
        stats = probe.client.get("/stats").json()["cache"]
    finally:
        probe.app.close()
    pool_stats = shared_pool(SHARDED_WORKERS).broadcast_stats()
    spans = os.path.join(os.path.dirname(os.environ["PERFBENCH_TMP"]),
                         "spans")
    os.makedirs(spans, exist_ok=True)
    tr.dump(os.path.join(spans, f"{workload}-seed{seed}.json"))
    return layer_metrics(tr, probe, stats, pool_stats, pairs)


def layer_metrics(tr: Tracer, probe: Probe, stats: dict,
                  pool_stats: dict, pairs: list) -> dict:
    by_name = tr.self_ms_by_name()

    def ms(name: str) -> float:
        return median(by_name.get(name, []))

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in ("cli.coverage", "request.resolve", "request.digest",
                 "sim.compile", "sim.verify", "faults.universe",
                 "sim.partition", "sim.scalar", "sim.sharded",
                 "memory.reference", "sim.batched", "analysis.report",
                 "server.schemas", "server.encode", "server.app_hit",
                 "server.cache_get", "server.cache_disk_get",
                 "server.cache_put"):
        put(f"{name}_ms", ms(name), "ms")
    for kind in LANE_KINDS:
        put(f"sim.lanes.{kind}_ms", ms(f"sim.lanes.{kind}"), "ms")
    put("faults.universe_size", median(probe.universe_sizes), "count")
    put("sim.shard_faults", median(probe.shard_faults), "count")
    sharded = ms("sim.sharded")
    put("sim.shard_speedup", ms("sim.scalar") / sharded if sharded else 0.0,
        "ratio")
    put("sim.ops_replayed", probe.lane_ops, "count")
    put("sim.abort_depth", probe.lane_ops / max(probe.lane_capacity, 1),
        "fraction")
    put("sim.pool.broadcast_shm", pool_stats["shm"], "count")
    put("sim.pool.broadcast_pickle", pool_stats["pickle"], "count")
    put("sim.pool.dedup_hits", pool_stats["dedup_hits"], "count")
    put("server.cache_hits", stats["hits"], "count")
    put("server.cache_misses", stats["misses"], "count")
    put("server.cache_evictions", stats["evictions"], "count")
    put("server.cache_disk_promotions", stats["disk_promotions"], "count")
    put("trace.request_ms", median(total for _, total, _, _ in pairs), "ms")
    put("trace.traced_total_ms", sum(total for _, total, _, _ in pairs), "ms")
    put("trace.untraced_total_ms", sum(plain for *_, plain in pairs), "ms")
    put("trace.overhead_pct",
        100.0 * (median(total / plain for _, total, _, plain in pairs) - 1),
        "%")
    put("trace.span_coverage_pct",
        100.0 * median(inner / plain for _, _, inner, plain in pairs), "%")
    print(f"pairs: {len(pairs)} "
          f"cold={sum(kind == 'cold' for kind, *_ in pairs)} "
          f"traced/untraced ms: "
          + " ".join(f"{total:.2f}/{plain:.2f}"
                     for _, total, _, plain in pairs), file=sys.stderr)
    return {"metrics": metrics, "attempted": 2 * len(pairs),
            "failures": probe.failures}


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), \
        float(argv[3])
    if mode == "measure":
        out = (measure_serve(seed, seconds) if workload == "serve-mixed"
               else measure_library(workload, seed, seconds))
    elif mode == "trace":
        out = trace(workload, seed)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
