"""Process sharding: persistent pools, spec shards, graceful fallback.

The sharded paths must be *invisible* in the results: ``workers=N``
produces byte-identical outcomes to single-process execution on both
campaign engines, whether the universe ships as a spec or as pickled
fault lists, and an environment that cannot spawn processes silently
degrades to the serial path.
"""

import logging
import os
import pickle
import subprocess
import sys

import pytest

from repro.analysis import march_runner, run_coverage
from repro.faults import StuckAtFault, standard_universe
from repro.faults.base import VectorSemantics
from repro.faults.universe import FaultUniverse, UniverseSpec
from repro.march.library import MARCH_C_MINUS, MATS
from repro.sim import (
    PoolUnavailable,
    WorkerPool,
    compile_march,
    run_campaign,
    run_campaign_batched,
    shared_pool,
)
from repro.sim import pool as pool_module
from repro.sim.campaign import (
    SERIAL_CHUNK,
    _drain_shards,
    _run_task,
    _shard_plan,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

# One campaign on a first pool, then one on a second pool started after
# it, over a stream whose pickle is larger than 64 KiB.
_TWO_POOLS = """
from repro.faults import single_cell_universe
from repro.march.library import MARCH_C_MINUS
from repro.sim import WorkerPool, compile_march, run_campaign

stream = compile_march(MARCH_C_MINUS, 520)
universe = single_cell_universe(16, classes=("SAF",))
serial = [d for _, d in run_campaign(stream, universe).outcomes]
for _ in range(2):
    with WorkerPool(2) as pool:
        result = run_campaign(stream, universe, workers=2, pool=pool)
    assert result.workers_used == 2
    assert [d for _, d in result.outcomes] == serial
print("verdicts equal serial")
"""


def _broken_pool(workers=2):
    """A pool whose start always fails (invalid context name)."""
    return WorkerPool(workers, context="no-such-start-method")


@pytest.fixture
def worker_cache():
    """This process's worker-side stream cache, empty before and after."""
    pool_module._WORKER_STREAMS.clear()
    yield pool_module._WORKER_STREAMS
    pool_module._WORKER_STREAMS.clear()


def _verdicts(result):
    return [detected for _, detected in result.outcomes]


def _assert_one_fallback_warning(caplog):
    """The serial fallback was logged once, naming the pool's failure."""
    records = [record for record in caplog.records
               if record.name == "repro.sim"]
    assert [record.levelno for record in records] == [logging.WARNING]
    assert "running serially" in records[0].getMessage()
    assert "PoolUnavailable" in records[0].getMessage()


class _Recorded(Exception):
    """Raised by :class:`_TaskRecorder` once it holds a campaign's tasks."""


class _TaskRecorder(WorkerPool):
    """Keeps the tasks a campaign queues instead of running them."""

    def imap_unordered(self, fn, tasks):
        self.tasks = list(tasks)
        raise _Recorded


class _Results:
    """Stands in for the ``imap_unordered`` iterator a drain reads."""

    def __init__(self, payloads):
        self._payloads = iter(payloads)

    def next(self, timeout=None):
        assert timeout is not None  # a bare next() would hang
        return next(self._payloads)


class ExoticKindFault(StuckAtFault):
    """A stuck-at under a vector-semantics kind no lane model knows.

    Module-level so the fault-list shard path can pickle it.
    """

    def vector_semantics(self):
        base = StuckAtFault.vector_semantics(self)
        return VectorSemantics("exotic-kind", cell=base.cell,
                               value=base.value)


class TestWorkerPool:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_lazy_start(self):
        pool = WorkerPool(2)
        assert not pool.started
        assert "idle" in repr(pool)
        pool.close()

    def test_broadcast_deduplicates_streams(self):
        stream = compile_march(MARCH_C_MINUS, 16)
        other = compile_march(MATS, 16)
        universe = standard_universe(16)
        with WorkerPool(2) as pool:
            run_campaign(stream, universe, workers=2, pool=pool)
            run_campaign(stream, universe, workers=2, pool=pool)
            run_campaign(other, universe, workers=2, pool=pool)
            # Each distinct digest shipped once; the repeat campaign
            # reused the stream the workers already hold.
            assert pool.broadcast_stats() == {
                "streams": 2, "shm": 0, "pickle": 2, "dedup_hits": 1}

    def test_streams_past_the_cache_ship_again(self):
        streams = [compile_march(MATS, n)
                   for n in range(8, 9 + pool_module.STREAM_CACHE)]
        pool = WorkerPool(2)
        for stream in streams + streams[:1]:
            digest, blob = pool.stream_pair(stream)
            assert digest == stream.digest()
            assert pickle.loads(blob) == stream
        # The first stream was evicted by the later ones, so workers
        # would unpickle it again: it counts as shipped, not reused.
        assert pool.broadcast_stats()["streams"] == len(streams) + 1
        assert pool.broadcast_stats()["dedup_hits"] == 0
        assert not pool.started

    def test_worker_cache_is_bounded_and_content_keyed(self, worker_cache):
        streams = [compile_march(MATS, n)
                   for n in range(8, 9 + pool_module.STREAM_CACHE)]
        pool = WorkerPool(1)
        pairs = [pool.stream_pair(stream) for stream in streams]
        first = pool_module.worker_stream(*pairs[0])
        assert first == streams[0]
        assert pool_module.worker_stream(*pairs[0]) is first
        for pair in pairs[1:]:
            pool_module.worker_stream(*pair)
        assert len(worker_cache) == pool_module.STREAM_CACHE
        assert pairs[0][0] not in worker_cache

    def test_unavailable_pool_raises(self):
        pool = _broken_pool()
        with pytest.raises(PoolUnavailable):
            pool.imap_unordered(abs, [-1])
        assert pool.broken
        with pytest.raises(PoolUnavailable, match="broken"):
            pool.imap_unordered(abs, [-1])

    def test_second_pool_prints_no_tracker_errors(self):
        # A fresh interpreter, so no earlier test has started a resource
        # tracker; the second pool forks after the first campaign.
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run([sys.executable, "-c", _TWO_POOLS], env=env,
                                capture_output=True, text=True, timeout=240)
        assert result.returncode == 0, result.stderr
        assert "verdicts equal serial" in result.stdout
        assert "KeyError" not in result.stderr

    def test_stream_less_worker_unpickles_its_task(self, worker_cache):
        # A worker that Pool respawned holds no stream; the task it
        # draws must still carry everything it needs.
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = standard_universe(16)
        pool = _TaskRecorder(2)
        with pytest.raises(_Recorded):
            run_campaign(stream, universe, workers=2, pool=pool)
        pool.close()
        worker_cache.clear()
        outcomes = [None] * len(universe)
        for task in pool.tasks:
            lo, hi, data = _run_task(task)
            outcomes[lo:hi] = data
        assert [detected for detected, _ in outcomes] == \
            _verdicts(run_campaign(stream, universe))

    def test_shared_pool_reused_and_replaced_when_broken(self):
        first = shared_pool(2)
        assert shared_pool(2) is first
        first.mark_broken()
        replacement = shared_pool(2)
        assert replacement is not first
        assert not replacement.broken

    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.close()
        pool.close()


class TestShardedRunCampaign:
    def test_spec_sharded_matches_serial(self):
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = standard_universe(16)
        assert universe.spec is not None
        serial = run_campaign(stream, universe)
        with WorkerPool(2) as pool:
            sharded = run_campaign(stream, universe, workers=2, pool=pool)
        assert sharded.workers_used == 2
        assert _verdicts(sharded) == _verdicts(serial)
        assert sharded.operations_replayed == serial.operations_replayed

    def test_list_sharded_matches_serial(self):
        # No spec: shards carry explicit pickled fault chunks.
        stream = compile_march(MARCH_C_MINUS, 16)
        faults = list(standard_universe(16))
        serial = run_campaign(stream, faults)
        with WorkerPool(2) as pool:
            sharded = run_campaign(stream, faults, workers=2, pool=pool)
        assert sharded.workers_used == 2
        assert _verdicts(sharded) == _verdicts(serial)

    def test_pool_unavailable_degrades_to_serial(self, caplog):
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = standard_universe(16)
        pool = _broken_pool()
        with caplog.at_level(logging.WARNING, logger="repro.sim"):
            result = run_campaign(stream, universe, workers=2, pool=pool)
        assert result.workers_used == 0
        assert _verdicts(result) == _verdicts(run_campaign(stream, universe))
        _assert_one_fallback_warning(caplog)

    def test_sandboxed_shared_pool_degrades(self, monkeypatch):
        # Simulate a sandbox where no pool can ever start: the shared
        # registry hands out broken pools, the campaign stays correct.
        def refuse(self):
            raise PoolUnavailable("sandboxed")

        monkeypatch.setattr(pool_module.WorkerPool, "_ensure", refuse)
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = standard_universe(16)
        result = run_campaign(stream, universe, workers=2,
                              pool=pool_module.WorkerPool(2))
        assert result.workers_used == 0
        assert result.detection_ratio > 0.9

    def test_progress_monotonic_with_workers(self):
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = standard_universe(16)
        seen = []
        with WorkerPool(2) as pool:
            run_campaign(stream, universe, workers=2, pool=pool,
                         progress=lambda done, total:
                         seen.append((done, total)))
        assert seen[-1] == (len(universe), len(universe))
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)

    def test_lost_shard_result_raises_pool_unavailable(self):
        # A worker killed mid-shard loses its task: the results
        # iterator's next() would block forever, so the drain's timeout
        # must surface PoolUnavailable (which callers turn into serial
        # degradation).
        import multiprocessing

        class LostResults:
            def next(self, timeout=None):
                assert timeout is not None  # a bare next() would hang
                raise multiprocessing.TimeoutError

        with pytest.raises(PoolUnavailable, match="worker lost"):
            _drain_shards(LostResults(), [None] * 5, None)

    def test_drain_merges_out_of_order_payloads_in_position(self):
        # imap_unordered yields shards in completion order; every one
        # must land in its own universe range, exactly once.
        total = 37
        payloads = [(lo, min(lo + 10, total),
                     [(True, index) for index in range(lo, min(lo + 10,
                                                               total))])
                    for lo in range(0, total, 10)][::-1]
        outcomes = [None] * total
        seen = []
        _drain_shards(_Results(payloads), outcomes,
                      lambda d, t: seen.append((d, t)))
        assert outcomes == [(True, index) for index in range(total)]
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)
        assert seen[-1] == (total, total)

    def test_drain_rejects_short_coverage(self):
        # A worker that silently covers fewer faults than expected must
        # fail the campaign loudly, never merge truncated verdicts.
        results = _Results([(0, 1, [(True, 0)])])
        with pytest.raises(RuntimeError, match="covered 1"):
            _drain_shards(results, [None] * 5, None)


class TestShardPlan:
    @staticmethod
    def _tiles_exactly(plan, total):
        if total == 0:
            return plan == []
        return plan[0][0] == 0 and plan[-1][1] == total \
            and all(plan[i][1] == plan[i + 1][0]
                    for i in range(len(plan) - 1)) \
            and all(lo < hi for lo, hi in plan)

    def test_plan_tiles_the_range_exactly(self):
        for total in (0, 1, 2, 7, 100, 1000, 10_000):
            for workers in (1, 2, 3, 16):
                plan = _shard_plan(total, workers)
                assert self._tiles_exactly(plan, total), (total, workers)

    def test_plan_oversubscribes_the_workers(self):
        # A small universe still gives every worker a few shards ...
        plan = _shard_plan(256, workers=2)
        assert len(plan) == 8
        assert {hi - lo for lo, hi in plan} == {32}
        # ... and a large one is cut into SERIAL_CHUNK-fault shards.
        plan = _shard_plan(10_000, workers=2)
        assert {hi - lo for lo, hi in plan[:-1]} == {SERIAL_CHUNK}
        assert plan[-1] == (9984, 10_000)

    def test_tiny_universe_never_yields_empty_shards(self):
        assert _shard_plan(1, workers=16) == [(0, 1)]


class TestShardedRunCampaignBatched:
    def test_sharded_matches_serial(self):
        # Every built-in class vectorizes now, so a genuine scalar
        # remainder (what the pool exists for) needs faults with an
        # unregistered lane kind mixed into the universe.
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = list(standard_universe(16)) + \
            [ExoticKindFault(cell, 1) for cell in range(16)]
        serial = run_campaign_batched(stream, universe)
        with WorkerPool(2) as pool:
            sharded = run_campaign_batched(stream, universe, workers=2,
                                           pool=pool)
        assert sharded.workers_used == 2
        assert sharded.faults_batched == serial.faults_batched
        assert sharded.faults_batched == len(universe) - 16
        assert _verdicts(sharded) == _verdicts(serial)
        assert sharded.operations_replayed == serial.operations_replayed

    def test_no_fallback_skips_the_pool(self):
        # A fully vectorizable universe has nothing to shard; the lane
        # passes are the batch, and no pool should ever start.  The
        # full standard universe qualifies now that bridging and decoder
        # faults carry lane semantics.
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = standard_universe(16)
        pool = WorkerPool(2)
        result = run_campaign_batched(stream, universe, workers=2, pool=pool)
        assert not pool.started
        assert result.workers_used == 0
        assert result.faults_batched == len(universe)
        pool.close()

    def test_pool_unavailable_degrades_to_serial(self, caplog):
        # A scalar remainder, so the campaign does reach for the pool.
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = list(standard_universe(16)) + \
            [ExoticKindFault(cell, 1) for cell in range(16)]
        pool = _broken_pool()
        with caplog.at_level(logging.WARNING, logger="repro.sim"):
            result = run_campaign_batched(stream, universe, workers=2,
                                          pool=pool)
        assert result.workers_used == 0
        serial = run_campaign_batched(stream, universe)
        assert _verdicts(result) == _verdicts(serial)
        _assert_one_fallback_warning(caplog)

    def test_progress_monotonic_with_workers(self):
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = standard_universe(16)
        seen = []
        with WorkerPool(2) as pool:
            run_campaign_batched(stream, universe, workers=2, pool=pool,
                                 progress=lambda done, total:
                                 seen.append((done, total)))
        assert seen[-1] == (len(universe), len(universe))
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)
        assert all(total == len(universe) for _, total in seen)

    def test_unknown_lane_kind_ships_fault_lists(self):
        # A runtime-registered vector kind may not exist in the workers,
        # so spec sharding is unsound for that partition; explicit fault
        # chunks must be shipped instead -- still with correct verdicts.
        universe = FaultUniverse(
            [StuckAtFault(1, 1), ExoticKindFault(3, 1), StuckAtFault(5, 0)],
            # A lying spec: if a worker used it, it would enumerate the
            # wrong faults and verdict counts would diverge.
            spec=UniverseSpec.call("bridging", n=16),
        )
        stream = compile_march(MARCH_C_MINUS, 16)
        with WorkerPool(2) as pool:
            result = run_campaign_batched(stream, universe, workers=2,
                                          pool=pool)
        assert [f for f, _ in result.outcomes] == list(universe)
        assert result.detection_ratio == 1.0


class TestRunCoverageSharded:
    def test_engine_batched_workers_matches_serial(self):
        universe = standard_universe(16)
        runner = march_runner(MARCH_C_MINUS)
        serial = run_coverage(runner, universe, 16, engine="batched")
        with WorkerPool(2) as pool:
            sharded = run_coverage(runner, universe, 16, engine="batched",
                                   workers=2, pool=pool)
        assert (sharded.detected, sharded.total, sharded.missed_faults) == \
            (serial.detected, serial.total, serial.missed_faults)
