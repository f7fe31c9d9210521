"""The default engine: ``engine="auto"`` resolves to the batched engine.

``run_coverage`` is the one dispatch every default caller goes through
(the library, ``CampaignRequest``, ``compare_tests``, the CLI and the
server), so these tests pin where ``"auto"`` goes and that the report
it returns is the one every other engine returns.
"""

import argparse

import pytest

import repro.analysis.coverage as coverage
from repro.analysis import CampaignRequest, iteration_runner, march_runner
from repro.analysis.coverage import ENGINES, run_coverage
from repro.analysis.request import ENGINES as request_engines
from repro.cli import build_parser
from repro.faults import StuckAtFault, single_cell_universe, standard_universe
from repro.march.library import MARCH_C_MINUS
from repro.prt import PiIteration
from repro.server.schemas import report_to_dict


@pytest.mark.parametrize("n, m", [(12, 1), (8, 4)])
@pytest.mark.parametrize("test", ["march-c", "prt3", "dual-schedule"])
def test_default_path_matches_compiled_and_interpreted(test, n, m):
    request = CampaignRequest(test=test, n=n, m=m, workers=2,
                              universe=standard_universe(n, m, seed=2).spec)
    default = report_to_dict(run_coverage(request, cache=False))
    for engine in ("compiled", "interpreted"):
        other = run_coverage(request.replace(engine=engine), cache=False)
        assert report_to_dict(other) == default, engine


def _spy(calls, name, engine):
    def spy(*args, **kwargs):
        calls.append(name)
        return engine(*args, **kwargs)
    return spy


@pytest.fixture
def spies(monkeypatch):
    """Names of the campaign engines ``run_coverage`` calls, in order."""
    calls = []
    for name in ("run_campaign_batched", "run_campaign"):
        monkeypatch.setattr(coverage, name,
                            _spy(calls, name, getattr(coverage, name)))
    return calls


class TestRouting:
    universe = single_cell_universe(8, classes=("SAF", "TF"))

    def _run(self, runner, **kwargs):
        return run_coverage(runner, self.universe, 8, **kwargs)

    def test_one_list_of_engine_names(self):
        commands = next(action for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        engine_flag = next(action for action
                           in commands.choices["coverage"]._actions
                           if action.dest == "engine")
        assert tuple(engine_flag.choices) == ENGINES
        assert request_engines is ENGINES

    def test_auto_compilable_runs_batched(self, spies):
        self._run(march_runner(MARCH_C_MINUS))
        assert spies == ["run_campaign_batched"]

    def test_compiled_runs_per_fault_engine(self, spies):
        self._run(march_runner(MARCH_C_MINUS), engine="compiled")
        assert spies == ["run_campaign"]

    def test_non_compilable_runner_is_interpreted(self, spies):
        runner = iteration_runner(
            PiIteration(generator=(1, 0, 1, 1), seed=(0, 0, 1)))
        report = self._run(lambda ram: runner(ram))
        assert spies == []
        assert report_to_dict(report) == report_to_dict(
            self._run(runner, engine="compiled"))

    def test_unknown_engine_lists_every_name(self):
        with pytest.raises(ValueError, match="engine must be one of") as err:
            self._run(march_runner(MARCH_C_MINUS), engine="fast")
        for name in ENGINES:
            assert repr(name) in str(err.value)


class _OpaqueStuckAt(StuckAtFault):
    """A custom fault the lane models cannot express."""

    def vector_semantics(self):
        return None


class TestAutoScalarRoutes:
    """``"auto"`` inputs the lane passes hand to the scalar engine."""

    def _both(self, universe, **kwargs):
        runner = march_runner(MARCH_C_MINUS)
        return [report_to_dict(run_coverage(runner, universe, 8,
                                            engine=engine, **kwargs))
                for engine in ("auto", "compiled")]

    def test_custom_fault(self):
        universe = list(single_cell_universe(8, classes=("SAF", "TF")))
        universe += [_OpaqueStuckAt(cell, 1) for cell in range(0, 8, 3)]
        assert _OpaqueStuckAt(0, 1).vector_semantics() is None
        auto, compiled = self._both(universe)
        assert auto == compiled
