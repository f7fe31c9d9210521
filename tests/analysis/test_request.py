"""CampaignRequest: the one shared resolver behind every entry point.

Two contracts are pinned here.  **Validation**: every malformed request
dies in :func:`resolve_campaign` with a pointed :class:`RequestError`,
identically no matter which surface (API, CLI, server) submitted it.
**Equivalence**: the request path is byte-identical to the legacy kwarg
forms -- same reports, same comparison rows -- over the full
``standard_universe(256)`` acceptance geometry, so the old surface can
be described as a shim with a straight face.
"""

import hashlib
import importlib
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
    CACHE_KEY_VERSION,
    MAX_CELLS,
    MAX_WORD_BITS,
    MAX_WORKERS,
    build_field,
    run_request,
)
from repro.faults import standard_universe
from repro.faults.universe import UniverseSpec, standard_universe_spec
from repro.march.library import MARCH_C_MINUS, MATS_PLUS
from repro.prt import (
    QuadPortPiIteration,
    extended_schedule,
    standard_multi_schedule,
    standard_schedule,
)
from repro.server.cache import ResultCache
from repro.sim.compilers import (
    compile_multi_schedule,
    compile_quad_port_pi,
    compile_schedule,
)
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



@pytest.fixture()
def cold_memos():
    """Empty the resolution and March stream memos, so the streams a
    test compiles are new and no check has run on them yet."""
    import repro.analysis.request as request_module
    from repro.sim import compilers

    for memo in (request_module._resolve, request_module._bind_test,
                 compilers._cached_march):
        memo.cache_clear()
    return request_module


def _reseeded(request, seed):
    return request.replace(
        universe=standard_universe_spec(request.n, request.m, seed=seed))


class TestTestBinding:
    """Resolution binds each test once per geometry: requests that
    differ only in universe, engine or workers share one runner and one
    compiled stream, whose checks then run once."""

    @pytest.mark.parametrize("test", sorted(_TESTS))
    def test_reseeded_requests_share_one_checked_stream(
            self, cold_memos, monkeypatch, test):
        import repro.sim.batched as batched_module
        import repro.sim.campaign as campaign_module

        # The package re-exports verify(), shadowing the module name.
        verify_module = importlib.import_module("repro.sim.verify")
        verified, referenced = [], []
        verify, reference_pass = verify_module.verify, \
            campaign_module._reference_pass

        def count_verify(stream, **kwargs):
            verified.append(stream)
            return verify(stream, **kwargs)

        def count_reference(stream, n, m):
            if not stream.reference_verified:
                referenced.append(stream)
            reference_pass(stream, n, m)

        monkeypatch.setattr(verify_module, "verify", count_verify)
        for module in (campaign_module, batched_module):
            monkeypatch.setattr(module, "_reference_pass", count_reference)
        first = CampaignRequest(test=test, n=12)
        variants = [_reseeded(first, 5), first.replace(engine="batched"),
                    first.replace(workers=2),
                    _reseeded(first, 6).replace(engine="compiled")]
        stream = resolve_campaign(first).compile()
        for request in variants:
            assert resolve_campaign(request).compile() is stream
        for request in (first, variants[0]):
            run_request(request, cache=False)
        assert verified == [stream]
        assert referenced == [stream]

    @pytest.mark.parametrize("test", sorted(_TESTS))
    def test_other_geometries_get_other_streams(self, test):
        base = CampaignRequest(test=test, n=16, m=4)
        stream = resolve_campaign(base).compile()
        for changes in ({"n": 20}, {"m": 2}):
            other = resolve_campaign(base.replace(**changes)).compile()
            assert other is not stream
        for changes in ({"poly": "1+z^3+z^4"}, {"pure": True}):
            other = resolve_campaign(base.replace(**changes)).compile()
            if _TESTS[test][0] == "march":  # March tests ignore both
                assert other is stream
            else:
                assert other is not stream

    @pytest.mark.parametrize("request_", [
        CampaignRequest(test="prt3", n=3),
        CampaignRequest(test="quad-port", n=13),
        CampaignRequest(test="prt3", n=16, m=4, poly="1+z+z^3"),
        CampaignRequest(test="dual-schedule", n=16, m=4, poly="1+z^"),
    ], ids=["floor", "odd-quad", "poly-degree", "poly-syntax"])
    def test_failed_binding_raises_every_time_and_is_not_memoized(
            self, cold_memos, request_):
        memos = (cold_memos._resolve, cold_memos._bind_test)
        for reseed in (0, 1, 2):
            with pytest.raises(RequestError):
                resolve_campaign(_reseeded(request_, reseed))
        assert [memo.cache_info().currsize for memo in memos] == [0, 0]

    def test_both_memos_are_bounded(self, cold_memos):
        for memo in (cold_memos._resolve, cold_memos._bind_test):
            assert memo.cache_info().maxsize is not None

    @pytest.mark.parametrize("test", ["prt3", "dual-schedule", "quad-port"])
    @pytest.mark.parametrize("m", [1, 4])
    def test_shared_stream_keeps_the_fresh_cache_key(self, test, m):
        """A reseeded request's key is the one a freshly constructed
        schedule or iteration gives, so entries written before the
        binding memo existed still hit."""
        field = build_field(m, None)
        generator = (1, 1, 1) if m == 1 else (1, 2, 2)
        n = 16
        if test == "prt3":
            fresh = compile_schedule(
                standard_schedule(field=field, n=n, verify=True), n, m)
        elif test == "dual-schedule":
            fresh = compile_multi_schedule(standard_multi_schedule(
                ports=2, field=field, generator=generator, verify=True),
                n, m)
        else:
            fresh = compile_quad_port_pi(QuadPortPiIteration(
                field=field, generator=generator, seed=(0, 1)), n, m)
        first = resolve_campaign(CampaignRequest(test=test, n=n, m=m))
        assert len(first.cache_key) == 64  # the geometry is served first
        reseeded = _reseeded(first.request, 9)
        assert resolve_campaign(reseeded).compile() is first.compile()
        text = "\x00".join((
            "cache-key-v2", fresh.digest(),
            repr(standard_universe_spec(n, m, seed=9)), str(m), str(n),
            str(first.ports)))
        assert CACHE_KEY_VERSION == 2
        assert reseeded.cache_key() == \
            hashlib.sha256(text.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize("test", ["prt3", "dual-schedule", "quad-port"])
    def test_engines_agree_on_a_reseeded_pair_run_twice(self, test):
        """No run mutates the shared schedule or iteration: every
        engine, run twice over a reseeded pair, gives the same reports."""
        pair = [CampaignRequest(test=test, n=12, m=4),
                _reseeded(CampaignRequest(test=test, n=12, m=4), 3)]
        reports = {index: [] for index in range(len(pair))}
        for _ in range(2):
            for engine in ("interpreted", "compiled", "batched"):
                for index, request in enumerate(pair):
                    reports[index].append(run_request(
                        request.replace(engine=engine), cache=False))
        for runs in reports.values():
            assert_reports_identical(*runs)
