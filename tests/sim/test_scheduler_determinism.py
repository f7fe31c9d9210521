"""Shard determinism: every execution path, byte-identical results.

Process sharding must be *invisible* in the results: serial execution,
``workers=2`` on the shared pool and an explicit :class:`WorkerPool`
must produce identical verdicts -- and identical pickled
:class:`CoverageReport`s -- on both stream engines, for arbitrary
universes and streams.  Hypothesis draws the sub-universes; every
sharded run must really have engaged two workers, or the comparison
would be vacuous.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import march_runner, run_coverage
from repro.faults import StuckAtFault, standard_universe
from repro.march.library import MARCH_C_MINUS, MARCH_X, MATS
from repro.sim import (
    WorkerPool,
    compile_march,
    run_campaign,
    run_campaign_batched,
)

_TESTS = {"mats": MATS, "march-x": MARCH_X, "march-c-": MARCH_C_MINUS}

_ENGINES = {"compiled": run_campaign, "batched": run_campaign_batched}


class ScalarOnlyStuckAt(StuckAtFault):
    """A stuck-at with no lane semantics: the batched engine's scalar
    remainder, which is what it shards over the pool.

    Module-level so fault-list shards can pickle it.
    """

    def vector_semantics(self):
        return None


@pytest.fixture(scope="module")
def local_pool():
    with WorkerPool(2) as pool:
        yield pool


def _sub_universe(data, n):
    """A drawn sample of ``standard_universe(n)`` plus scalar-only faults
    (so the batched engine has a remainder to shard)."""
    everything = list(standard_universe(n))
    keep = data.draw(st.lists(
        st.integers(min_value=0, max_value=len(everything) - 1),
        min_size=2, max_size=min(len(everything), 200), unique=True))
    cells = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                               min_size=2, max_size=8, unique=True))
    return [everything[index] for index in sorted(keep)] + \
        [ScalarOnlyStuckAt(cell, cell % 2) for cell in cells]


class TestSchedulerDeterminism:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(test_name=st.sampled_from(sorted(_TESTS)),
           engine=st.sampled_from(sorted(_ENGINES)),
           n=st.integers(min_value=4, max_value=12),
           data=st.data())
    def test_all_paths_agree(self, local_pool, test_name, engine, n, data):
        stream = compile_march(_TESTS[test_name], n)
        faults = _sub_universe(data, n)
        run = _ENGINES[engine]

        serial = run(stream, list(faults))
        shared = run(stream, list(faults), workers=2)
        explicit = run(stream, list(faults), pool=local_pool)

        # The sharded paths must actually have engaged (degradation
        # would make this test vacuous).
        assert shared.workers_used == 2
        assert explicit.workers_used == 2
        assert shared.verdicts == serial.verdicts
        assert explicit.verdicts == serial.verdicts
        # Replay counts are per-fault (scalar) or per-pass (lanes run in
        # the parent either way), so the operation totals agree too.
        assert shared.operations_replayed == serial.operations_replayed
        assert explicit.operations_replayed == serial.operations_replayed

        def report(**kwargs):
            return pickle.dumps(run_coverage(
                march_runner(_TESTS[test_name]), list(faults), n=n,
                engine=engine, **kwargs))

        expected = report()
        assert report(workers=2) == expected
        assert report(pool=local_pool) == expected

    def test_reports_byte_identical_across_paths(self, local_pool):
        # Spec'd universe: workers enumerate their shards from the spec.
        def report(**kwargs):
            return pickle.dumps(run_coverage(
                march_runner(MARCH_C_MINUS), standard_universe(24), n=24,
                **kwargs))

        for engine in sorted(_ENGINES):
            serial = report(engine=engine)
            assert report(engine=engine, pool=local_pool) == serial
            assert report(engine=engine, workers=2) == serial
