"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-batched --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``: an
untraced closed loop in a worker process, paused every tenth of a
measured second for a host probe and every two measured seconds to time
one fresh launch of the program, then the correctness checks.  Times
are reported host-normalised (see ``end_to_end``).  ``--trace 1`` runs
pairs of like requests, one member untraced and the other traced layer
by layer, in one process, and reports the per-layer metrics.  The last
line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line above it
records the error rate and the host's state (probe and CPU steal).

This script imports only the standard library; the program under test
runs in child processes with ``PYTHONPATH`` set to the checkout's
``src``.  Scratch files live under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from procs import host_probe_ms, launch_ready_s

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold-batched", "default-sharded", "serve-mixed")
#: Fresh ``import repro.cli`` launches behind ``cli.import_s``.
CLI_LAUNCHES = 5
#: Every child must finish before this many seconds into the run.
DEADLINE_S = 170.0
UNITS = {"setup_s": "s", "request_p50_ms": "ms", "requests_per_s": "req/s",
         "faults_per_s": "faults/s", "hit_p50_ms": "ms", "miss_p50_ms": "ms"}


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat``, in jiffies."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def steal_pct(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor took between two readings."""
    delta = [b - a for a, b in zip(before, after)]
    return 100.0 * delta[7] / max(sum(delta), 1)


def run_worker(mode: str, args, env: dict, deadline: float) -> tuple[dict, str]:
    """Run ``worker.py`` to completion; return its JSON line and stderr."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), mode,
         args.workload, str(args.seed), str(args.seconds)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def tracker_errors(stderr: str) -> int:
    """``KeyError`` tracebacks the multiprocessing resource tracker
    printed (it shares the worker's stderr)."""
    if "resource_tracker" not in stderr:
        return 0
    return len(re.findall(r"^KeyError", stderr, flags=re.MULTILINE))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def summary(values: dict, faults: int) -> dict:
    """The end-to-end values of one run, from its normalised or its raw
    measurements."""
    wall = values["wall_s"]
    return {
        "setup_s": statistics.median(values["setup_s"]),
        "request_p50_ms": statistics.median(values["request_ms"]),
        "requests_per_s": len(values["request_ms"]) / wall,
        "faults_per_s": faults / wall,
        "hit_p50_ms": statistics.median(values["hit_ms"]),
        "miss_p50_ms": statistics.median(values["miss_ms"]),
    }


def end_to_end(args, env: dict, deadline: float):
    """Host-normalised end-to-end metrics (see ``Clock`` in
    ``worker.py``); the raw values are printed on the ``raw:`` line."""
    out, stderr = run_worker("measure", args, env, deadline)
    metrics = {name: metric(value, UNITS[name])
               for name, value in summary(out["norm"], out["faults"]).items()}
    metrics["peak_rss_mb"] = metric(out["peak_rss_mb"], "MB")
    raw = out["raw"]
    print(f"samples: requests={len(raw['request_ms'])} "
          f"hits={len(raw['hit_ms'])} misses={len(raw['miss_ms'])} "
          f"setup_launches={len(raw['setup_s'])} "
          f"probes={len(out['probe_ms'])} measured_s={raw['wall_s']:.3f} "
          f"sim.pool.tracker_errors={tracker_errors(stderr)}")
    print(f"raw: host.probe_ms mean={statistics.fmean(out['probe_ms']):.4f} "
          + " ".join(f"{name}={value:.6g}" for name, value
                     in summary(raw, out["faults"]).items()))
    return metrics, out


def per_layer(args, env: dict, deadline: float):
    out, stderr = run_worker("trace", args, env, deadline)
    metrics = out["metrics"]
    imports = [launch_ready_s("repro.cli", str(ROOT), env)
               for _ in range(CLI_LAUNCHES)]
    metrics["cli.import_s"] = metric(statistics.median(imports), "s")
    metrics["sim.pool.tracker_errors"] = metric(tracker_errors(stderr),
                                                "count")
    print(f"sim.pool.tracker_errors={tracker_errors(stderr)}")
    return metrics, out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PERFBENCH_TMP=str(tmp), TMPDIR=str(tmp))
    try:
        cpu_before = cpu_times()
        probe_before = host_probe_ms()
        if args.trace:
            metrics, out = per_layer(args, env, deadline)
        else:
            metrics, out = end_to_end(args, env, deadline)
        probe_after = host_probe_ms()
        steal = steal_pct(cpu_before, cpu_times())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    probe = (probe_before + probe_after) / 2
    if args.trace:
        metrics["host.probe_ms"] = metric(probe, "ms")
    failures = out["failures"]
    attempted = out["attempted"]
    for attempt, reason in failures.items():
        print(f"FAILED: {attempt}: {reason}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"error_rate={len(failures) / max(attempted, 1):.6f} "
          f"host.probe_ms before={probe_before:.3f} after={probe_after:.3f} "
          f"host.steal_pct={steal:.2f}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
