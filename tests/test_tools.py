"""Unit tests for the benchmark-guard and trend-plot tools.

``tools/`` is not a package; the modules are loaded by file path.  The
``--from-artifacts`` mode is tested against a fake ``gh`` runner -- no
network, no GitHub CLI required.
"""

import importlib.util
import io
import json
import os
import zipfile

import pytest

_TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(_TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_bench = _load("check_bench")
plot_bench_trend = _load("plot_bench_trend")


def _zip_bytes(payload: dict, member: str = "BENCH_full.json") -> bytes:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr(member, json.dumps(payload))
    return buffer.getvalue()


class _FakeGh:
    """Canned `gh` responses keyed by the first two CLI words."""

    def __init__(self, artifacts, zips):
        self.artifacts = artifacts
        self.zips = zips
        self.calls = []

    def __call__(self, args):
        self.calls.append(args)
        if args[0] == "repo":
            return b"acme/repro\n"
        if args[1].endswith("/actions/artifacts"):
            lines = [json.dumps(entry) for entry in self.artifacts]
            return ("\n".join(lines) + "\n").encode()
        for artifact_id, payload in self.zips.items():
            if args[1].endswith(f"/artifacts/{artifact_id}/zip"):
                return payload
        raise AssertionError(f"unexpected gh call: {args}")


@pytest.fixture
def fake_gh():
    artifacts = [
        {"id": 3, "name": "bench-full-cccc", "expired": False,
         "created_at": "2026-07-03T00:00:00Z"},
        {"id": 1, "name": "bench-full-aaaa", "expired": False,
         "created_at": "2026-07-01T00:00:00Z"},
        {"id": 2, "name": "bench-full-bbbb", "expired": True,
         "created_at": "2026-07-02T00:00:00Z"},
        {"id": 4, "name": "coverage-html", "expired": False,
         "created_at": "2026-07-04T00:00:00Z"},
    ]
    zips = {
        1: _zip_bytes({"rows": [{"test": "March C-", "n": 64,
                                 "compiled_s": 0.4}]}),
        3: _zip_bytes({"rows": [{"test": "March C-", "n": 64,
                                 "compiled_s": 0.5}]}),
    }
    return _FakeGh(artifacts, zips)


class TestFetchArtifactSeries:
    def test_filters_sorts_and_extracts(self, fake_gh, tmp_path):
        paths = plot_bench_trend.fetch_artifact_series(
            "acme/repro", str(tmp_path), run=fake_gh)
        # Expired and foreign artifacts dropped; oldest..newest order.
        assert [os.path.basename(p) for p in paths] == \
            ["bench-full-aaaa-1.json", "bench-full-cccc-3.json"]
        with open(paths[0]) as handle:
            assert json.load(handle)["rows"][0]["compiled_s"] == 0.4

    def test_rerun_same_name_keeps_newest_once(self, fake_gh, tmp_path):
        # A re-run workflow uploads a second bench-full-<sha> artifact:
        # only the newest contributes, and it is actually downloaded
        # (the cache keys on the artifact id, not the name).
        fake_gh.artifacts.append(
            {"id": 9, "name": "bench-full-cccc", "expired": False,
             "created_at": "2026-07-05T00:00:00Z"})
        fake_gh.zips[9] = _zip_bytes(
            {"rows": [{"test": "March C-", "n": 64, "compiled_s": 0.6}]})
        paths = plot_bench_trend.fetch_artifact_series(
            "acme/repro", str(tmp_path), run=fake_gh)
        assert [os.path.basename(p) for p in paths] == \
            ["bench-full-aaaa-1.json", "bench-full-cccc-9.json"]
        with open(paths[1]) as handle:
            assert json.load(handle)["rows"][0]["compiled_s"] == 0.6

    def test_cache_skips_downloaded_artifacts(self, fake_gh, tmp_path):
        plot_bench_trend.fetch_artifact_series("acme/repro", str(tmp_path),
                                               run=fake_gh)
        downloads = sum(1 for call in fake_gh.calls
                        if call[-1].endswith("/zip")
                        or "/zip" in call[1])
        plot_bench_trend.fetch_artifact_series("acme/repro", str(tmp_path),
                                               run=fake_gh)
        again = sum(1 for call in fake_gh.calls
                    if call[-1].endswith("/zip") or "/zip" in call[1])
        assert downloads == 2
        assert again == downloads  # second fetch served from cache

    def test_limit_keeps_newest(self, fake_gh, tmp_path):
        paths = plot_bench_trend.fetch_artifact_series(
            "acme/repro", str(tmp_path), limit=1, run=fake_gh)
        assert [os.path.basename(p) for p in paths] == \
            ["bench-full-cccc-3.json"]

    def test_no_artifacts_is_a_pointed_error(self, tmp_path):
        empty = _FakeGh([], {})
        with pytest.raises(RuntimeError, match="no unexpired"):
            plot_bench_trend.fetch_artifact_series(
                "acme/repro", str(tmp_path), run=empty)

    def test_zip_without_summary_is_a_pointed_error(self, tmp_path):
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w") as archive:
            archive.writestr("README.txt", "nope")
        gh = _FakeGh(
            [{"id": 1, "name": "bench-full-aaaa", "expired": False,
              "created_at": "2026-07-01T00:00:00Z"}],
            {1: buffer.getvalue()},
        )
        with pytest.raises(RuntimeError, match="no JSON summary"):
            plot_bench_trend.fetch_artifact_series(
                "acme/repro", str(tmp_path), run=gh)

    def test_missing_gh_cli_degrades(self, monkeypatch):
        def boom(*args, **kwargs):
            raise FileNotFoundError("gh")

        monkeypatch.setattr(plot_bench_trend.subprocess, "run", boom)
        with pytest.raises(RuntimeError, match="GitHub CLI"):
            plot_bench_trend._run_gh(["api", "whatever"])

    def test_main_from_artifacts_renders_trend(self, fake_gh, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.setattr(plot_bench_trend, "_run_gh", fake_gh)
        code = plot_bench_trend.main([
            "--from-artifacts", "--repo", "acme/repro",
            "--artifacts-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fetched 2 summaries from acme/repro" in out
        assert "March C- n=64" in out

    def test_main_rejects_files_with_from_artifacts(self, tmp_path):
        with pytest.raises(SystemExit):
            plot_bench_trend.main(["--from-artifacts", "x.json"])
        with pytest.raises(SystemExit):
            plot_bench_trend.main([])


class TestCheckBenchWordlaneRows:
    def test_wordlane_rows_are_gated(self):
        base = {"wordlane_rows": [
            {"test": "March C-", "n": 1024, "universe": "standard m=8",
             "compiled_s": 10.0, "batched_s": 1.0},
        ]}
        current = {"wordlane_rows": [
            {"test": "March C-", "n": 1024, "universe": "standard m=8",
             "compiled_s": 10.0, "batched_s": 9.0},
        ]}
        lines, regressions = check_bench.compare(base, current,
                                                 max_slowdown=3.0,
                                                 min_seconds=0.05)
        assert any("batched_s" in r for r in regressions)
        assert any("standard m=8" in line for line in lines)

    def test_wordlane_section_distinct_from_rows(self):
        # Same (test, n) identity in two sections must not cross-match.
        base = {"rows": [{"test": "March C-", "n": 64, "compiled_s": 1.0}],
                "wordlane_rows": [{"test": "March C-", "n": 64,
                                   "universe": "standard m=8",
                                   "compiled_s": 8.0}]}
        current = {"wordlane_rows": [{"test": "March C-", "n": 64,
                                      "universe": "standard m=8",
                                      "compiled_s": 8.5}]}
        lines, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert not regressions
        assert len(lines) == 1


class TestCheckBenchCacheRows:
    @staticmethod
    def _cache_row(**overrides):
        row = {"test": "March C-", "n": 1024,
               "universe": "standard (result cache)",
               "cold_s": 0.5, "warm_s": 0.0001, "speedup_warm": 5000.0}
        row.update(overrides)
        return row

    def test_slow_warm_hit_is_a_regression(self):
        # The speedup floor gates the *current* run alone: a baseline
        # predating cache_rows must not disable the gate.
        base = {"rows": [{"test": "March C-", "n": 64, "compiled_s": 1.0}]}
        current = {"rows": [{"test": "March C-", "n": 64,
                             "compiled_s": 1.0}],
                   "cache_rows": [self._cache_row(speedup_warm=12.0)]}
        lines, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert any("warm cache hit only 12.0x" in r for r in regressions)

    def test_fast_warm_hit_passes(self):
        base = {"cache_rows": [self._cache_row()]}
        current = {"cache_rows": [self._cache_row(speedup_warm=2300.0)]}
        lines, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert not regressions
        assert any("speedup_warm" in line and "ok" in line
                   for line in lines)

    def test_cold_campaign_timing_is_gated(self):
        base = {"cache_rows": [self._cache_row(cold_s=0.5)]}
        current = {"cache_rows": [self._cache_row(cold_s=5.0)]}
        lines, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert any("cold_s" in r for r in regressions)

    def test_warm_timing_below_noise_floor_not_gated(self):
        # warm_s (~1e-4s) sits far below --min-seconds; only the ratio
        # and the cold path carry the signal.
        base = {"cache_rows": [self._cache_row(warm_s=0.0001)]}
        current = {"cache_rows": [self._cache_row(warm_s=0.01)]}
        lines, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert not regressions

    def test_custom_speedup_floor(self):
        base = {"cache_rows": [self._cache_row()]}
        current = {"cache_rows": [self._cache_row(speedup_warm=150.0)]}
        _, ok = check_bench.compare(base, current, 3.0, 0.05,
                                    min_cache_speedup=100.0)
        _, bad = check_bench.compare(base, current, 3.0, 0.05,
                                     min_cache_speedup=500.0)
        assert not ok
        assert any("floor 500x" in r for r in bad)


class TestCheckBenchDefaultRows:
    """The current-run-only default-engine gate."""

    @staticmethod
    def _shared():
        return [{"test": "March C-", "n": 64, "compiled_s": 1.0}]

    @staticmethod
    def _default_row(**overrides):
        row = {"test": "March C-", "n": 64, "m": 1,
               "universe": "standard m=1 (default engine)", "faults": 1738,
               "default_s": 0.02, "compiled_s": 0.2,
               "default_vs_compiled": 10.0}
        row.update(overrides)
        return row

    def test_slow_default_is_a_regression(self):
        # The committed baseline predates default_rows: the gate must
        # still fire on the current run alone.
        base = {"rows": self._shared()}
        current = {"rows": self._shared(),
                   "default_rows": [self._default_row(
                       default_vs_compiled=1.1)]}
        _, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert any("only 1.10x faster than engine='compiled'" in r
                   for r in regressions)

    def test_fast_default_passes(self):
        base = {"rows": self._shared()}
        current = {"rows": self._shared(),
                   "default_rows": [self._default_row()]}
        lines, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert not regressions
        assert any("default engine" in line and "ok" in line
                   for line in lines)

    def test_small_row_is_exempt(self):
        base = {"rows": self._shared()}
        current = {"rows": self._shared(),
                   "default_rows": [self._default_row(
                       faults=874, default_vs_compiled=1.0)]}
        _, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert not regressions

    def test_default_timings_diff_against_baseline(self):
        base = {"default_rows": [self._default_row()]}
        current = {"default_rows": [self._default_row(default_s=0.5)]}
        _, regressions = check_bench.compare(base, current, 3.0, 0.01)
        assert any("default_s" in r for r in regressions)


class TestCheckBenchSpecLaneRows:
    """The current-run-only lane-source gate."""

    @staticmethod
    def _shared():
        return [{"test": "March C-", "n": 64, "compiled_s": 1.0}]

    @staticmethod
    def _spec_row(**overrides):
        row = {"test": "standard universe", "n": 64, "m": 1,
               "universe": "standard m=1 (spec lanes)", "faults": 1738,
               "spec_s": 0.001, "enumerate_s": 0.006,
               "spec_vs_enumerate": 6.0}
        row.update(overrides)
        return row

    def test_slow_tables_are_a_regression(self):
        base = {"rows": self._shared()}
        current = {"rows": self._shared(),
                   "spec_lane_rows": [self._spec_row(
                       spec_vs_enumerate=1.2)]}
        _, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert any("lane tables are only 1.20x faster" in r
                   for r in regressions)

    def test_fast_tables_pass(self):
        base = {"rows": self._shared()}
        current = {"rows": self._shared(),
                   "spec_lane_rows": [self._spec_row()]}
        lines, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert not regressions
        assert any("spec lanes" in line and "ok" in line for line in lines)

    def test_small_row_is_exempt(self):
        base = {"rows": self._shared()}
        current = {"rows": self._shared(),
                   "spec_lane_rows": [self._spec_row(
                       faults=999, spec_vs_enumerate=1.0)]}
        _, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert not regressions

    def test_spec_timings_diff_against_baseline(self):
        base = {"spec_lane_rows": [self._spec_row(spec_s=0.1)]}
        current = {"spec_lane_rows": [self._spec_row(spec_s=0.5)]}
        _, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert any("spec_s" in r for r in regressions)


class TestCheckBenchPlanRows:
    """The current-run-only lane-plan gate."""

    @staticmethod
    def _shared():
        return [{"test": "March C-", "n": 64, "compiled_s": 1.0}]

    @staticmethod
    def _plan_row(**overrides):
        row = {"test": "standard universe", "n": 1024, "m": 1,
               "universe": "standard m=1 (lane plan)", "faults": 27628,
               "plan_s": 0.008, "rows_s": 0.06, "plan_vs_rows": 7.5}
        row.update(overrides)
        return row

    def _gate(self, **overrides):
        current = {"rows": self._shared(),
                   "plan_rows": [self._plan_row(**overrides)]}
        return check_bench.compare({"rows": self._shared()}, current,
                                   3.0, 0.05)

    def test_slow_plan_is_a_regression(self):
        _, regressions = self._gate(plan_vs_rows=1.1)
        assert any("lane plan is only 1.10x faster" in r
                   for r in regressions)

    def test_fast_plan_passes(self):
        lines, regressions = self._gate()
        assert not regressions
        assert any("lane plan" in line and "ok" in line for line in lines)

    def test_small_row_is_exempt(self):
        _, regressions = self._gate(faults=999, plan_vs_rows=1.0)
        assert not regressions

    def test_plan_timings_diff_against_baseline(self):
        base = {"plan_rows": [self._plan_row(plan_s=0.1)]}
        current = {"plan_rows": [self._plan_row(plan_s=0.5)]}
        _, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert any("plan_s" in r for r in regressions)


class TestCheckBenchGlueRows:
    """Glue timings are diffed against the baseline, with no own gate."""

    @staticmethod
    def _glue_row(**overrides):
        row = {"test": "PRT-3", "n": 64, "m": 1,
               "universe": "standard m=1 (glue)", "records": 792,
               "misses": 252, "compile_s": 0.1, "verify_s": 0.1,
               "naming_s": 0.1, "built_naming_s": 0.4}
        row.update(overrides)
        return row

    @pytest.mark.parametrize("field", ["compile_s", "verify_s", "naming_s"])
    def test_slower_glue_is_a_regression(self, field):
        base = {"glue_rows": [self._glue_row()]}
        current = {"glue_rows": [self._glue_row(**{field: 0.5})]}
        _, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert any(field in r for r in regressions)

    def test_matching_glue_passes(self):
        base = {"glue_rows": [self._glue_row()]}
        current = {"glue_rows": [self._glue_row(verify_s=0.2)]}
        lines, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert not regressions
        assert any("glue" in line for line in lines)


class TestCheckBenchLaneRows:
    """Per-class lane-pass timings are diffed against the baseline."""

    @staticmethod
    def _lane_row(**overrides):
        row = {"test": "PRT-3", "n": 176, "m": 8,
               "universe": "standard m=8 (state lanes)", "faults": 3864,
               "executed": 1958, "pass_s": 0.1}
        row.update(overrides)
        return row

    def test_slower_lane_pass_is_a_regression(self):
        base = {"lane_rows": [self._lane_row()]}
        current = {"lane_rows": [self._lane_row(pass_s=0.5)]}
        _, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert any("pass_s" in r and "state lanes" in r
                   for r in regressions)

    def test_matching_lane_pass_passes(self):
        base = {"lane_rows": [self._lane_row()]}
        current = {"lane_rows": [self._lane_row(pass_s=0.12)]}
        lines, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert not regressions
        assert any("state lanes" in line for line in lines)

    def test_classes_do_not_cross_match(self):
        # Two classes of one (test, n) are distinct rows.
        base = {"lane_rows": [self._lane_row()]}
        current = {"lane_rows": [self._lane_row(
            universe="standard m=8 (coupling lanes)", pass_s=0.5)]}
        _, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert regressions == [
            "no comparable rows between baseline and current summaries "
            "(did the benchmark's row identities change?)"]


_BASELINE = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                         "out", "bench_campaign_engine.json")


class TestCheckBenchSummedSections:
    """Glue and lane timings are each below the noise floor, so their
    sums over the matched rows are gated too."""

    @staticmethod
    def _quick_lane_rows():
        # The committed baseline's rows at the --quick geometries.
        with open(_BASELINE) as handle:
            rows = json.load(handle)["lane_rows"]
        return [row for row in rows if (row["n"], row["m"]) in
                ((64, 1), (32, 8))]

    def _scaled(self, factor):
        base = {"lane_rows": self._quick_lane_rows()}
        current = {"lane_rows": [dict(row, pass_s=row["pass_s"] * factor)
                                 for row in self._quick_lane_rows()]}
        return check_bench.compare(base, current, 3.0, 0.05)

    def test_every_quick_lane_row_is_below_the_floor(self):
        rows = self._quick_lane_rows()
        assert rows and max(row["pass_s"] for row in rows) < 0.05
        assert sum(row["pass_s"] for row in rows) >= 0.05

    def test_tenfold_slower_lane_passes_fail(self):
        lines, regressions = self._scaled(10.0)
        assert [r for r in regressions if "lane_rows sum" in r
                and "pass_s" in r]
        assert not [r for r in regressions if "sum" not in r]

    def test_slightly_slower_lane_passes_pass(self):
        lines, regressions = self._scaled(1.2)
        assert not regressions
        assert any("lane_rows sum" in line and "ok" in line
                   for line in lines)

    def test_glue_sums_cover_only_rows_both_sides_have(self):
        def row(test, **timings):
            return {"test": test, "n": 64, "m": 1,
                    "universe": "standard m=1 (glue)", **timings}

        base = {"glue_rows": [row("a", compile_s=0.03),
                              row("b", compile_s=0.03),
                              row("c", compile_s=0.03)]}
        current = {"glue_rows": [row("a", compile_s=0.2),
                                 row("b", compile_s=0.2),
                                 row("d", compile_s=9.0)]}
        lines, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert regressions == [
            "glue_rows sum of 2 rows compile_s: 0.400s vs baseline "
            "0.060s (6.67x > 3.0x)"]
        _, small = check_bench.compare(base, current, 3.0, 0.1)
        assert not small  # the 0.06 s sum is below this floor


#: A ``_resolve`` that takes the recipe only (lint rule 5's clean case).
CLEAN_RESOLVE = (
    "def _resolve(request):\n"
    "    if request.universe is None:\n"
    "        return standard_universe_spec(request.n, request.m)\n"
    "    return request.universe\n"
)


class TestLintContracts:
    """The repo-wide invariant linter runs clean on the real tree and
    still has teeth on synthetic violations."""

    def setup_method(self):
        self.lint = _load("lint_contracts")

    def test_repo_is_clean(self):
        assert self.lint.run() == []

    def test_main_exit_code(self, capsys):
        assert self.lint.main([]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def _tree(self, tmp_path, batched="", pool="",
              campaign="def _fits_geometry(d, n, m, p):\n    return True\n",
              fault="", request=CLEAN_RESOLVE, extra=None):
        src = tmp_path / "src" / "repro"
        (src / "sim").mkdir(parents=True)
        (src / "faults").mkdir()
        (src / "analysis").mkdir()
        (src / "analysis" / "request.py").write_text(request)
        (src / "sim" / "batched.py").write_text(
            batched or "_MODELS = {}\n")
        (src / "sim" / "pool.py").write_text(pool)
        (src / "sim" / "campaign.py").write_text(campaign)
        (src / "faults" / "demo.py").write_text(fault)
        for relative, text in (extra or {}).items():
            path = src / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return str(tmp_path)

    def test_flags_private_attribute_access(self, tmp_path):
        root = self._tree(tmp_path, batched=(
            "_MODELS = {}\n"
            "def f(memory):\n    return memory._backend\n"))
        assert any("packed-surface" in f for f in self.lint.run(root))

    def test_flags_lambda_in_pool(self, tmp_path):
        root = self._tree(tmp_path, pool="f = lambda x: x\n")
        assert any("picklable-payloads" in f for f in self.lint.run(root))

    def test_flags_nested_def_in_pool(self, tmp_path):
        root = self._tree(tmp_path, pool=(
            "def outer():\n    def inner():\n        pass\n    return inner\n"))
        assert any("picklable-payloads" in f for f in self.lint.run(root))

    def test_flags_hook_without_flag(self, tmp_path):
        root = self._tree(tmp_path, batched=(
            "_MODELS = {}\n"
            "class LaneFaultModel:\n    pass\n"
            "class Broken(LaneFaultModel):\n"
            "    def settle(self):\n        pass\n"))
        assert any("hook-flags" in f for f in self.lint.run(root))

    def test_flag_via_base_class_is_fine(self, tmp_path):
        root = self._tree(tmp_path, batched=(
            "_MODELS = {}\n"
            "class LaneFaultModel:\n    pass\n"
            "class Base(LaneFaultModel):\n    settles = True\n"
            "class Ok(Base):\n"
            "    def settle(self):\n        pass\n"))
        assert not any("hook-flags" in f for f in self.lint.run(root))

    def test_flags_unregistered_kind(self, tmp_path):
        root = self._tree(
            tmp_path,
            batched="_MODELS = {'stuck': object}\n",
            fault="s = VectorSemantics('mystery', ())\n")
        findings = self.lint.run(root)
        assert any("kind-registry" in f and "mystery" in f
                   for f in findings)

    def test_flags_stale_fits_geometry_branch(self, tmp_path):
        root = self._tree(
            tmp_path,
            batched="_MODELS = {'stuck': object}\n",
            campaign=("def _fits_geometry(d, n, m, p):\n"
                      "    return d.kind == 'ghost'\n"),
            fault="s = VectorSemantics('stuck', ())\n")
        assert any("ghost" in f for f in self.lint.run(root))

    def _resolve_findings(self, root):
        return [f for f in self.lint.run(root) if "spec-only-resolve" in f]

    def test_spec_only_resolve_clean(self, tmp_path):
        assert self._resolve_findings(self._tree(tmp_path)) == []

    @pytest.mark.parametrize("call", [
        "standard_universe(request.n, request.m).spec",
        "request.universe.build()",
        "resolved.build_universe()",
        "repro.faults.coupling_universe(request.n)",
    ])
    def test_flags_universe_enumeration_in_resolve(self, tmp_path, call):
        root = self._tree(tmp_path, request=(
            "def _resolve(request):\n"
            f"    spec = {call}\n"
            "    return spec\n"))
        findings = self._resolve_findings(root)
        assert len(findings) == 1
        assert "request.py:2:" in findings[0]

    def test_universe_calls_outside_resolve_are_fine(self, tmp_path):
        root = self._tree(tmp_path, request=(
            CLEAN_RESOLVE
            + "def build_universe(spec):\n    return spec.build()\n"))
        assert self._resolve_findings(root) == []

    @pytest.mark.parametrize("call", [
        "resolved.build_universe()",
        "coupling_universe(n)",
    ])
    def test_flags_universe_enumeration_in_functions_resolve_calls(
            self, tmp_path, call):
        # The test binding runs on every resolve-memo miss, so the rule
        # follows _resolve into it (and into what it calls in turn).
        root = self._tree(tmp_path, request=(
            "def _resolve(request):\n"
            "    return _bind_test(request.n)\n"
            "def _bind_test(n):\n"
            "    return _floor(n)\n"
            "def _floor(n):\n"
            f"    return {call}\n"))
        findings = self._resolve_findings(root)
        assert len(findings) == 1
        assert "request.py:6:" in findings[0]
        assert "_floor calls" in findings[0]

    def test_real_test_binding_is_scanned(self, tmp_path):
        # Planted in the repository's own binding helper, a universe
        # build is reported: the rule reaches the helper from _resolve.
        path = os.path.join(os.path.dirname(__file__), "..", "src",
                            "repro", "analysis", "request.py")
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        head = "    kind, display = _TESTS[test]\n"
        assert source.count(head) == 1
        planted = source.replace(
            head, head + "    standard_universe(n, m)\n")
        root = self._tree(tmp_path, request=planted)
        findings = self._resolve_findings(root)
        assert len(findings) == 1
        assert "_bind_test calls standard_universe()" in findings[0]

    @pytest.mark.parametrize("code", [
        "import pickle\nobj = pickle.loads(blob)\n",
        "import pickle as p\nobj = p.load(handle)\n",
        "from pickle import Unpickler\n",
    ])
    def test_flags_unpickle_outside_allowed_modules(self, tmp_path, code):
        root = self._tree(tmp_path, extra={"server/app.py": code})
        findings = [f for f in self.lint.run(root)
                    if "no-untrusted-unpickle" in f]
        assert len(findings) == 1
        assert "app.py" in findings[0]

    def test_unpickle_allowed_in_pool_and_cache(self, tmp_path):
        code = "import pickle\nobj = pickle.loads(blob)\n"
        root = self._tree(tmp_path, pool=code,
                          extra={"server/cache.py": code,
                                 "server/schemas.py": "import pickle\n"
                                 "blob = pickle.dumps(1)\n"})
        assert not any("no-untrusted-unpickle" in f
                       for f in self.lint.run(root))

    def test_missing_resolve_is_a_finding(self, tmp_path):
        root = self._tree(tmp_path, request="def resolve():\n    pass\n")
        assert any("could not locate _resolve" in f
                   for f in self._resolve_findings(root))


class TestVerifyCorpus:
    """The verifier's acceptance gate: compilers in, mutations out."""

    def setup_method(self):
        self.corpus = _load("check_verify_corpus")

    def test_corpus_is_large_enough(self):
        assert len(self.corpus.MUTATIONS) >= 20

    def test_compiler_streams_accepted(self):
        assert self.corpus.accept_failures() == []

    def test_all_mutations_rejected(self):
        assert self.corpus.reject_failures() == []

    def test_main_exit_code(self, capsys):
        assert self.corpus.main() == 0
        assert "0 failure(s)" in capsys.readouterr().out
