"""Child processes of the benchmark (fresh launches, the server) and the
host probe.

Standard library only, so ``run.py`` can use it without importing the
program.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

READY_TIMEOUT_S = 60.0
#: The host probe's fixed document and its JSON round trips per reading.
PROBE_DOC = {"classes": {f"C{k}": {"total": k,
                                   "missed": [f"f{j}" for j in range(40)]}
                         for k in range(60)}}
PROBE_ROUNDS = 12
#: Reference reading of the probe, in ms.  A host-normalised time is
#: the time the work would take on a host where one reading takes this
#: long (about a typical reading on the 2-vCPU Xeon VM the benchmark
#: was tuned on).
PROBE_REF_MS = 5.0


def http_request(port: int, method: str, path: str,
                 body: bytes | None = None) -> tuple[int, bytes]:
    """One request on a fresh connection (the server closes each one)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def start_server(cwd: str, env: dict, cache_dir: str,
                 cache_size: int) -> tuple[subprocess.Popen, int, float]:
    """Spawn the server on a free port; return ``(process, port,
    seconds from spawn until GET /schemes answered 200)``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.server", "--port", "0",
         "--cache-dir", cache_dir, "--cache-size", str(cache_size)],
        cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1])
        while True:
            try:
                status, _ = http_request(port, "GET", "/schemes")
            except ConnectionError:
                status = 0
            if status == 200:
                return proc, port, time.perf_counter() - start
            if time.perf_counter() - start > READY_TIMEOUT_S:
                raise RuntimeError("server never answered GET /schemes")
            time.sleep(0.005)
    except BaseException:
        stop_server(proc)
        raise


def stop_server(proc: subprocess.Popen) -> None:
    """Terminate the server and wait until it has exited."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def pin_one_cpu() -> set[int]:
    """Pin the calling thread, and the processes it starts from now on,
    to the lowest CPU it may run on; return the CPUs it had before."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


def vmhwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def launch_ready_s(modules: str, cwd: str, env: dict) -> float:
    """Seconds from spawning an interpreter until it has imported
    ``modules`` and said so."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c",
         f"import {modules}; print('ready', flush=True)"],
        cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"import of {modules} failed")
    return ready


def server_ready_s(cwd: str, env: dict, cache_dir: str,
                   cache_size: int) -> float:
    """Seconds from spawning ``python -m repro.server`` until it answers."""
    proc, _, ready = start_server(cwd, env, cache_dir, cache_size)
    stop_server(proc)
    shutil.rmtree(cache_dir, ignore_errors=True)
    return ready


def probe_ms() -> float:
    """One reading of the host probe, in ms: a fixed stdlib-only piece of
    work that moves only when the host does.  JSON round trips of a
    fixed document allocate and free many small objects, as the program
    does, so they slow down with the host about as much as it does."""
    start = time.perf_counter_ns()
    for _ in range(PROBE_ROUNDS):
        json.loads(json.dumps(PROBE_DOC, sort_keys=True))
    return (time.perf_counter_ns() - start) / 1e6


def host_probe_ms(samples: int = 20) -> float:
    """Median of ``samples`` probe readings, in ms."""
    return statistics.median(probe_ms() for _ in range(samples))
