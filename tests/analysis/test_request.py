"""CampaignRequest: the one shared resolver behind every entry point.

Two contracts are pinned here.  **Validation**: every malformed request
dies in :func:`resolve_campaign` with a pointed :class:`RequestError`,
identically no matter which surface (API, CLI, server) submitted it.
**Equivalence**: the request path is byte-identical to the legacy kwarg
forms -- same reports, same comparison rows -- over the full
``standard_universe(256)`` acceptance geometry, so the old surface can
be described as a shim with a straight face.
"""

import pickle

import pytest

from repro.analysis import (
    CampaignRequest,
    RequestError,
    RequestOutcome,
    compare_tests,
    execute_request,
    known_tests,
    march_runner,
    resolve_campaign,
    run_coverage,
    schedule_runner,
)
from repro.analysis.complexity import march_operations
from repro.analysis.request import (
    _TESTS,
    MAX_CELLS,
    MAX_WORD_BITS,
    MAX_WORKERS,
    run_request,
)
from repro.faults import standard_universe
from repro.faults.universe import UniverseSpec
from repro.march.library import MARCH_C_MINUS, MATS_PLUS
from repro.prt import extended_schedule, standard_schedule
from repro.server.cache import ResultCache
from tests.sim.conftest import assert_reports_identical


class TestValidation:
    def test_unknown_test(self):
        with pytest.raises(RequestError, match="unknown test 'nope'"):
            resolve_campaign(CampaignRequest(test="nope", n=8))

    def test_bad_geometry(self):
        with pytest.raises(RequestError, match="n must be a positive int"):
            resolve_campaign(CampaignRequest(test="mats", n=0))
        with pytest.raises(RequestError, match="m must be a positive int"):
            resolve_campaign(CampaignRequest(test="mats", n=8, m=-1))
        with pytest.raises(RequestError, match="n must be a positive int"):
            resolve_campaign(CampaignRequest(test="mats", n="8"))

    def test_bad_execution_options(self):
        with pytest.raises(RequestError, match="engine must be one of"):
            resolve_campaign(CampaignRequest(test="mats", n=8, engine="warp"))
        with pytest.raises(TypeError, match="backend"):
            CampaignRequest(test="mats", n=8, backend="int")
        with pytest.raises(RequestError, match="workers must be"):
            resolve_campaign(CampaignRequest(test="mats", n=8, workers=-1))

    @pytest.mark.parametrize("workers", [True, False, MAX_WORKERS + 1,
                                         100000])
    def test_workers_are_bounded_before_any_pool(self, no_pools, workers):
        # A bool equals (and hashes like) the int it stands for, so warm
        # the resolver's memo with that int first.
        resolve_campaign(CampaignRequest(test="mats", n=8,
                                         workers=int(workers) % 2))
        request = CampaignRequest(test="mats", n=8, workers=workers)
        with pytest.raises(RequestError, match="workers must be an int in"):
            run_request(request, cache=False)

    def test_memory_size_is_bounded(self):
        resolve_campaign(CampaignRequest(test="mats", n=MAX_CELLS))
        for n in (MAX_CELLS + 1, 10**9):
            with pytest.raises(RequestError,
                               match=f"n must be at most {MAX_CELLS}"):
                resolve_campaign(CampaignRequest(test="march-c", n=n))

    def test_word_width_is_bounded(self):
        resolve_campaign(CampaignRequest(test="mats", n=8, m=MAX_WORD_BITS))
        for m in (MAX_WORD_BITS + 1, 20, 10**6):
            with pytest.raises(RequestError,
                               match=f"m must be at most {MAX_WORD_BITS}"):
                resolve_campaign(CampaignRequest(test="dual-port", n=64,
                                                 m=m))

    @pytest.mark.parametrize("test", ["prt3", "dual-port", "quad-schedule"])
    def test_poly_degree_must_match_m(self, test):
        with pytest.raises(RequestError, match="has degree 4, but m=1"):
            resolve_campaign(CampaignRequest(test=test, n=16, m=1,
                                             poly="1+z+z^4"))
        with pytest.raises(RequestError, match="has degree 4, but m=8"):
            resolve_campaign(CampaignRequest(test=test, n=16, m=8,
                                             poly="1+z+z^4"))
        resolve_campaign(CampaignRequest(test=test, n=16, m=4,
                                         poly="1+z+z^4"))

    def test_march_tests_ignore_poly(self):
        # A March test uses no field, so its poly stays inert.
        resolve_campaign(CampaignRequest(test="march-c", n=16, m=1,
                                         poly="1+z+z^4"))

    @pytest.mark.parametrize("field, value", [("m", True), ("n", True),
                                              ("n", 8.0)])
    def test_geometry_types_are_checked_before_the_memo(self, field, value):
        # True and 8.0 equal (and hash like) 1 and 8, so warm the
        # resolver's memo with the int first.  A one-cell memory needs a
        # universe of its own (the default one spans two cells).
        spec = UniverseSpec.call("single_cell", n=1, m=1, classes=("SAF",),
                                 retention=64)
        base = CampaignRequest(test="mats", n=8,
                               universe=spec if field == "n" and value == 1
                               else None)
        resolve_campaign(base.replace(**{field: int(value)}))
        with pytest.raises(RequestError,
                           match=f"{field} must be a positive int"):
            resolve_campaign(base.replace(**{field: value}))

    def test_the_pool_guard_catches_a_pool(self, no_pools):
        # The guard above is only evidence if starting a pool trips it.
        with pytest.raises(AssertionError, match="worker pool was started"):
            run_request(CampaignRequest(test="mats", n=8, engine="compiled",
                                        workers=MAX_WORKERS), cache=False)

    def test_bad_polynomial(self):
        with pytest.raises(RequestError, match="bad field polynomial"):
            resolve_campaign(CampaignRequest(test="prt3", n=8, m=4,
                                             poly="garbage"))

    @pytest.mark.parametrize("test", sorted(_TESTS))
    def test_small_memories_give_a_report_or_a_request_error(self, test):
        # A memory below a test's automaton window must be rejected at
        # resolve time, never escape later as a bare ValueError.
        outcomes = []
        for n in range(1, 7):
            spec = UniverseSpec.call("single_cell", n=n, m=1,
                                     classes=("SAF",), retention=64)
            try:
                report = run_request(CampaignRequest(test=test, n=n,
                                                     universe=spec),
                                     cache=False)
            except RequestError:
                outcomes.append("rejected")
            else:
                assert sum(report.total.values()) == 2 * n
                outcomes.append("report")
        # Every test runs at n=6, and once a size runs, the next size of
        # the same parity runs too (a floor, not holes).
        assert outcomes[-1] == "report"
        for n in range(3, 7):
            if outcomes[n - 3] == "report":
                assert outcomes[n - 1] == "report"

    def test_floor_comes_from_the_runner(self):
        for test, floor in (("prt3", 4), ("prt5", 4), ("dual-port", 3),
                            ("dual-schedule", 3)):
            with pytest.raises(RequestError, match=f"needs n >= {floor}"):
                resolve_campaign(CampaignRequest(test=test, n=floor - 1))
            assert resolve_campaign(CampaignRequest(test=test, n=floor))

    def test_quad_schemes_need_even_n(self):
        for test in ("quad-port", "quad-schedule"):
            with pytest.raises(RequestError, match="even n >= 6"):
                resolve_campaign(CampaignRequest(test=test, n=13))
        resolve_campaign(CampaignRequest(test="quad-port", n=14))  # fine

    def test_universe_must_be_a_spec(self):
        with pytest.raises(RequestError, match="must be a UniverseSpec"):
            resolve_campaign(CampaignRequest(test="mats", n=8,
                                             universe="standard"))

    def test_unknown_universe_generator(self):
        spec = UniverseSpec.call("made_up", n=8)
        with pytest.raises(RequestError, match="unknown universe generator"):
            resolve_campaign(CampaignRequest(test="mats", n=8, universe=spec))

    def test_default_universe_needs_two_cells(self):
        with pytest.raises(RequestError, match="needs n >= 2"):
            resolve_campaign(CampaignRequest(test="march-c", n=1))

    def test_custom_universe_at_one_cell(self):
        spec = UniverseSpec.call("single_cell", n=1, m=1,
                                 classes=("SAF", "TF"), retention=64)
        report = run_request(CampaignRequest(test="march-c", n=1,
                                             universe=spec), cache=False)
        assert report.total == {"SAF": 2, "TF": 2}
        assert report.overall == 1.0

    def test_not_a_request(self):
        with pytest.raises(RequestError, match="expected a CampaignRequest"):
            resolve_campaign("march-c")

    def test_known_tests_resolve(self):
        """Every advertised selector resolves at a safe geometry."""
        for entry in known_tests():
            resolved = resolve_campaign(
                CampaignRequest(test=entry["test"], n=12))
            assert resolved.display_name == entry["display_name"]
            assert resolved.ports == entry["ports"]
            assert resolved.operations > 0


class TestResolution:
    def test_memoized_on_equal_requests(self):
        a = resolve_campaign(CampaignRequest(test="march-c", n=32))
        b = resolve_campaign(CampaignRequest(test="march-c", n=32))
        assert a is b  # same runner -> same memoized compiled stream

    def test_default_universe_is_never_enumerated(self, monkeypatch):
        # Resolution and the cache key need the recipe only; building
        # the faults is the cold path's job.
        calls = []
        build = UniverseSpec.build

        def spy(self):
            calls.append(self)
            return build(self)

        monkeypatch.setattr(UniverseSpec, "build", spy)
        for m in (1, 4):
            resolved = resolve_campaign(
                CampaignRequest(test="march-c", n=53, m=m))
            assert resolved.universe_spec.generator == "union"
            assert len(resolved.cache_key) == 64
        assert calls == []

    def test_field_is_shared_across_resolves(self, monkeypatch):
        import repro.analysis.request as request_module

        built = []
        field_class = request_module.GF2m

        def spy(modulus):
            built.append(field_class(modulus))
            return built[-1]

        request_module._field.cache_clear()
        monkeypatch.setattr(request_module, "GF2m", spy)
        requests = [CampaignRequest(test="prt3", n=n, m=8) for n in (19, 22)]
        reports = [run_request(request, cache=False) for request in requests]
        assert len(built) == 1
        assert request_module.build_field(8, None) is built[0]
        # Same reports as a field built afresh for each campaign.
        for request, report in zip(requests, reports):
            schedule = standard_schedule(field=field_class(built[0].modulus),
                                         n=request.n, verify=True)
            legacy = run_coverage(schedule_runner(schedule),
                                  standard_universe(request.n, 8),
                                  request.n, m=8, test_name="prt3")
            assert_reports_identical(legacy, report)

    def test_scheme_reports_use_display_labels(self):
        """Legacy CLI labeled scheme reports by display name."""
        assert resolve_campaign(
            CampaignRequest(test="dual-port", n=12)).test_name == "dual-port π"
        assert resolve_campaign(
            CampaignRequest(test="march-c", n=12)).test_name == "march-c"

    def test_mixed_entry_forms_rejected(self):
        with pytest.raises(ValueError, match="no universe/n"):
            run_coverage(CampaignRequest(test="mats", n=8), n=8)
        with pytest.raises(ValueError, match="no universe/n"):
            compare_tests([CampaignRequest(test="mats", n=8)], n=8)
        with pytest.raises(TypeError, match="needs"):
            run_coverage(march_runner(MARCH_C_MINUS))


@pytest.fixture(scope="module")
def universe_256():
    return standard_universe(256)


class TestLegacyEquivalence:
    """Request path vs legacy kwargs, full standard_universe(256)."""

    def test_march_campaign_byte_identical(self, universe_256):
        legacy = run_coverage(march_runner(MARCH_C_MINUS), universe_256, 256,
                              test_name="march-c")
        request = run_coverage(CampaignRequest(test="march-c", n=256),
                               cache=False)
        assert_reports_identical(legacy, request)

    def test_schedule_campaign_byte_identical(self, universe_256):
        schedule = standard_schedule(n=256, verify=True)
        legacy = run_coverage(schedule_runner(schedule), universe_256, 256,
                              test_name="prt3")
        request = run_coverage(CampaignRequest(test="prt3", n=256),
                               cache=False)
        assert_reports_identical(legacy, request)

    def test_compare_rows_byte_identical(self):
        n = 28
        from repro.faults import standard_universe

        universe = standard_universe(n)
        verifying = standard_schedule(n=n, verify=True)
        extended = extended_schedule(n=n, verify=True)
        legacy = compare_tests(
            [
                ("PRT-3", schedule_runner(verifying),
                 verifying.operation_count(n)),
                ("PRT-5", schedule_runner(extended),
                 extended.operation_count(n)),
                ("MATS+", march_runner(MATS_PLUS),
                 march_operations(MATS_PLUS, n)),
                ("March C-", march_runner(MARCH_C_MINUS),
                 march_operations(MARCH_C_MINUS, n)),
            ],
            universe, n,
        )
        requests = [CampaignRequest(test=test, n=n)
                    for test in ("prt3", "prt5", "mats+", "march-c")]
        modern = compare_tests(requests, cache=False)
        assert [r.name for r in modern] == [r.name for r in legacy]
        assert [r.operations for r in modern] == [r.operations for r in legacy]
        assert [r.ops_per_cell for r in modern] == [
            r.ops_per_cell for r in legacy]
        for old, new in zip(legacy, modern, strict=True):
            assert_reports_identical(old.report, new.report)


class TestCachedExecution:
    def test_hit_is_byte_identical_and_runs_engine_once(self, monkeypatch):
        import repro.analysis.request as request_module

        calls = []
        original = request_module._run_resolved

        def spying(resolved, name, pool, progress):
            calls.append(resolved.request)
            return original(resolved, name, pool, progress)

        monkeypatch.setattr(request_module, "_run_resolved", spying)
        cache = ResultCache()
        request = CampaignRequest(test="march-c", n=24)
        cold = execute_request(request, cache=cache)
        warm = execute_request(request, cache=cache)
        assert len(calls) == 1  # the engine ran exactly once
        assert cold.cached is False and warm.cached is True
        assert cold.cache_key == warm.cache_key == request.cache_key()
        assert pickle.dumps(warm.report) == pickle.dumps(cold.report)
        assert warm.report is not cold.report  # fresh copy per hit

    def test_cache_false_disables_caching(self, monkeypatch):
        import repro.analysis.request as request_module

        calls = []
        original = request_module._run_resolved

        def spying(resolved, name, pool, progress):
            calls.append(resolved.request)
            return original(resolved, name, pool, progress)

        monkeypatch.setattr(request_module, "_run_resolved", spying)
        request = CampaignRequest(test="mats", n=12)
        run_request(request, cache=False)
        run_request(request, cache=False)
        assert len(calls) == 2

    def test_uncached_request_hashes_its_stream_only_when_asked(
            self, monkeypatch):
        from repro.sim.ir import OpStream

        def refuse(_stream):
            raise AssertionError("the stream was hashed")

        request = CampaignRequest(test="march-c", n=27, m=2,
                                  engine="batched")
        with monkeypatch.context() as patch:
            patch.setattr(OpStream, "digest", refuse)
            outcome = execute_request(request, cache=False)
            assert outcome.cached is False
            with pytest.raises(AssertionError, match="hashed"):
                outcome.cache_key  # noqa: B018 -- the key is computed here
        assert outcome.cache_key == request.cache_key()

    def test_outcome_fields_take_keywords_and_compare_by_key(self):
        request = CampaignRequest(test="march-c", n=26, m=2,
                                  engine="batched")
        lazy = execute_request(request, cache=False)
        eager = RequestOutcome(report=lazy.report, cached=False,
                               elapsed_s=lazy.elapsed_s,
                               cache_key=request.cache_key())
        assert lazy == eager
        assert lazy.cache_key == eager.cache_key
        assert lazy == eager  # once the key is read as well
        assert "cache_key=" in repr(lazy)

    def test_uncached_outcome_pickles_with_its_key(self):
        request = CampaignRequest(test="mats+", n=25, m=1,
                                  engine="batched")
        outcome = execute_request(request, cache=False)
        copy = pickle.loads(pickle.dumps(outcome))
        assert copy.__dict__["cache_key"] == request.cache_key()
        assert copy == outcome

    def test_workers_share_a_cache_entry(self):
        """workers is excluded from the key: a sharded rerun of a cached
        campaign is served from cache."""
        cache = ResultCache()
        serial = execute_request(CampaignRequest(test="march-c", n=24),
                                 cache=cache)
        sharded = execute_request(
            CampaignRequest(test="march-c", n=24, workers=4), cache=cache)
        assert sharded.cached is True
        assert pickle.dumps(sharded.report) == pickle.dumps(serial.report)

    def test_compare_and_coverage_share_entries(self):
        """compare relabels rows from the same cache entries coverage
        fills -- one campaign each, two labels."""
        cache = ResultCache()
        report = run_request(CampaignRequest(test="march-c", n=20),
                             cache=cache)
        rows = compare_tests([CampaignRequest(test="march-c", n=20)],
                             cache=cache)
        assert rows[0].name == "March C-"
        assert rows[0].report.test_name == "March C-"
        assert report.test_name == "march-c"
        assert rows[0].report.detected == report.detected
        assert rows[0].report.total == report.total
        assert cache.stats()["misses"] >= 1
        assert cache.stats()["hits"] >= 1


class TestColdPathBuildsOnlyMisses:
    """A cold batched request reads lanes from the spec's descriptor
    table: it never enumerates the universe, and it builds a Fault only
    to name a missed one."""

    def test_no_enumeration_and_faults_only_for_misses(self, monkeypatch):
        import repro.faults.universe as universe_module
        import repro.sim.campaign as campaign_module
        from repro.server.schemas import report_to_dict

        requests = [CampaignRequest(test="march-c", n=64, m=m,
                                    engine="batched") for m in (1, 4)]
        expected = [report_to_dict(execute_request(r, cache=False).report)
                    for r in requests]

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the cold path enumerated the universe")

        monkeypatch.setattr(UniverseSpec, "build", forbidden)
        for module in (universe_module, campaign_module):
            monkeypatch.setattr(module, "materialize_spec", forbidden)
        built = []
        make = universe_module.fault_from_descriptor

        def spy(maker, semantics):
            built.append(maker)
            return make(maker, semantics)

        monkeypatch.setattr(universe_module, "fault_from_descriptor", spy)
        for request, want in zip(requests, expected, strict=True):
            built.clear()
            report = execute_request(request, cache=False).report
            assert report_to_dict(report) == want
            assert report.missed_faults  # the bound below is not vacuous
            assert len(built) <= len(report.missed_faults)

