"""Canonical campaign requests: one hashable object per coverage campaign.

Historically every campaign entry point -- :func:`run_coverage`,
:func:`compare_tests`, the CLI ``coverage``/``compare`` commands, and
now the HTTP endpoints of :mod:`repro.server` -- threaded its own sprawl
of ``engine/workers/scheme/poly`` kwargs and duplicated the
validation.  This module collapses them onto one surface:

* :class:`CampaignRequest` -- a frozen dataclass naming the test (a
  selector such as ``"march-c"`` or ``"dual-port"``), the memory
  geometry, an optional :class:`~repro.faults.universe.UniverseSpec`
  (default: the standard universe for the geometry) and the execution
  options.  It is hashable and **content-addressable**: equal requests
  describe byte-identical campaigns.

* :func:`resolve_campaign` -- the one shared resolver: validates every
  field (unknown tests, bad engines, odd-``n`` quad schemes,
  malformed field polynomials ... all raise :class:`RequestError` with a
  pointed message), builds the runner, compiles the stream, and derives
  the :meth:`CampaignRequest.cache_key` from the stream's
  :meth:`~repro.sim.ir.OpStream.digest`.  ``run_coverage(request)``,
  ``compare_tests([request, ...])``, the CLI and the server all route
  through it -- three copies of kwarg threading became one.

* :func:`execute_request` / :func:`run_request` -- run a resolved
  campaign through the legacy engines, optionally consulting a
  :class:`~repro.server.cache.ResultCache` so a repeated request is a
  dict lookup instead of a campaign.

The cache key is built from ``(stream digest, universe spec, m, n,
ports)`` under a key-format version -- everything that determines the
report, and nothing that does not: ``engine`` and ``workers`` change
wall clock, never verdicts (every engine returns byte-identical
reports), so they are deliberately excluded.

>>> request = CampaignRequest(test="march-c", n=16)
>>> resolve_campaign(request).ports
1
>>> report = run_request(request, cache=False)
>>> report.overall == run_request(request, cache=False).overall
True
"""

from __future__ import annotations

import hashlib
import inspect
import time
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from collections.abc import Callable

    from repro.server.cache import ResultCache
    from repro.sim.ir import OpStream
    from repro.sim.pool import WorkerPool

from repro.analysis.complexity import march_operations
from repro.analysis.coverage import (
    ENGINES,
    CompilableRunner,
    CoverageReport,
    dual_port_runner,
    march_runner,
    multi_schedule_runner,
    quad_port_runner,
    run_coverage,
    schedule_runner,
)
from repro.faults.universe import (
    FaultUniverse,
    UniverseSpec,
    standard_universe_spec,
)
from repro.gf2 import poly_from_string, primitive_polynomial
from repro.gf2m import GF2m
from repro.march.library import MARCH_B, MARCH_C_MINUS, MATS, MATS_PLUS
from repro.prt import (
    DualPortPiIteration,
    QuadPortPiIteration,
    extended_schedule,
    standard_multi_schedule,
    standard_schedule,
)

__all__ = [
    "CampaignRequest",
    "RequestError",
    "RequestOutcome",
    "ResolvedCampaign",
    "resolve_campaign",
    "execute_request",
    "run_request",
    "build_field",
    "known_tests",
    "ENGINES",
]

#: Version of the :attr:`ResolvedCampaign.cache_key` text format.  It
#: prefixes the hashed text, so entries written under an older format
#: (on disk, by an older server) miss instead of colliding.
CACHE_KEY_VERSION = 2

#: Upper bound of :attr:`CampaignRequest.workers`.  Each distinct count
#: starts its own shared pool of that many processes, so a request body
#: must not pick the number freely.  A fixed constant, not the host's
#: cpu count, so a request valid on one host is valid on every host.
MAX_WORKERS = 32

#: Upper bound of :attr:`CampaignRequest.n`.  A campaign's cost grows
#: with n (universe size and stream length alike), so a request body must
#: not pick it freely either.  Above every n the tests, docs and
#: benchmarks use; not a full cost budget (m and the universe still
#: scale it).
MAX_CELLS = 1 << 16

#: Upper bound of :attr:`CampaignRequest.m`, the largest field the
#: library tabulates (``GF(2^16)``).  Resolving a port scheme compiles
#: it, and that cost grows steeply with m past this bound.
MAX_WORD_BITS = 16

_MARCH_TESTS = {
    "mats": MATS,
    "mats+": MATS_PLUS,
    "march-c": MARCH_C_MINUS,
    "march-b": MARCH_B,
}

#: Selector -> (kind, comparison-table display name).  ``kind`` picks the
#: runner family; the display name is what :func:`compare_tests` rows and
#: the CLI ``compare`` table print.
_TESTS: dict[str, tuple[str, str]] = {
    "mats": ("march", "MATS"),
    "mats+": ("march", "MATS+"),
    "march-c": ("march", "March C-"),
    "march-b": ("march", "March B"),
    "prt3": ("schedule", "PRT-3"),
    "prt5": ("schedule", "PRT-5"),
    "dual-port": ("port", "dual-port π"),
    "quad-port": ("port", "quad-port π"),
    "dual-schedule": ("multi-schedule", "dual-port π schedule"),
    "quad-schedule": ("multi-schedule", "quad-port π schedule"),
}


class RequestError(ValueError):
    """A :class:`CampaignRequest` failed validation.

    Raised by :func:`resolve_campaign` (and therefore by every entry
    point routing through it: ``run_coverage(request)``, the CLI, the
    server).  The message always names the offending field and the valid
    choices, so API layers can surface it verbatim.
    """


def known_tests() -> list[dict]:
    """The selectable tests/schemes, one describing dict per selector.

    This is the payload behind the server's ``GET /schemes`` endpoint
    and the source of truth for CLI choice lists.

    >>> [t["test"] for t in known_tests()][:3]
    ['dual-port', 'dual-schedule', 'march-b']
    """
    out = []
    for selector in sorted(_TESTS):
        kind, display = _TESTS[selector]
        out.append({
            "test": selector,
            "kind": kind,
            "display_name": display,
            "ports": _ports_for(selector),
        })
    return out


def build_field(m: int, poly: str | None) -> GF2m | None:
    """The GF(2^m) field for a request: ``None`` keeps GF(2) defaults.

    Mirrors the CLI's historical rule: bit-oriented requests without an
    explicit modulus stay on the engines' GF(2) defaults; ``poly`` (e.g.
    ``"1+z+z^4"``) overrides the tabulated primitive polynomial.
    """
    if m == 1 and poly is None:
        return None
    if poly is not None:
        return _field(poly_from_string(poly))
    return _field(primitive_polynomial(m))


@lru_cache(maxsize=32)
def _field(modulus: int) -> GF2m:
    """One shared :class:`GF2m` per modulus: a field is immutable once
    built, and building one tests irreducibility, searches a generator
    and, up to GF(2^16), fills log tables of ``2**m`` entries."""
    return GF2m(modulus)


def _ports_for(test: str) -> int:
    if test.startswith("quad"):
        return 4
    if test.startswith("dual"):
        return 2
    return 1


@dataclass(frozen=True)
class CampaignRequest:
    """One canonical, hashable coverage-campaign description.

    Parameters
    ----------
    test:
        Test/scheme selector -- one of :func:`known_tests`:
        ``"mats"``/``"mats+"``/``"march-c"``/``"march-b"`` (March tests),
        ``"prt3"``/``"prt5"`` (π-test schedules), ``"dual-port"`` /
        ``"quad-port"`` (single port-parallel π-iterations) or
        ``"dual-schedule"``/``"quad-schedule"`` (verifying multi-port
        schedules).
    n, m:
        Memory geometry (cells x bits per cell); ``n`` is at most
        :data:`MAX_CELLS` and ``m`` at most :data:`MAX_WORD_BITS`.
    universe:
        Optional :class:`~repro.faults.universe.UniverseSpec`; ``None``
        selects ``standard_universe_spec(n, m)``, which needs
        ``n >= 2``.  Passing a spec (not a fault list) is what keeps
        requests hashable and shardable.
    engine, workers:
        Execution options, identical to ``run_coverage``'s kwargs;
        ``workers`` is at most :data:`MAX_WORKERS`.  Both are excluded
        from :meth:`cache_key` -- they change wall clock, never
        verdicts.
    pure:
        Drop transparent verification from the PRT schedules (the
        paper-exact signature-only mode; ignored for March tests).
    poly:
        Field modulus as text (e.g. ``"1+z+z^4"``), of degree ``m``;
        default is the tabulated primitive polynomial for ``m``.  March
        tests use no field and ignore it.

    >>> CampaignRequest(test="prt3", n=28) == CampaignRequest(test="prt3", n=28)
    True
    >>> len({CampaignRequest(test="prt3", n=28),
    ...      CampaignRequest(test="prt3", n=28, m=4)})
    2
    """

    test: str
    n: int
    m: int = 1
    universe: UniverseSpec | None = None
    engine: str = "auto"
    workers: int = 0
    pure: bool = False
    poly: str | None = None

    def cache_key(self) -> str:
        """Stable content address of this campaign's result.

        SHA-256 over ``(key-format version, stream digest, universe
        spec, m, n, ports)`` -- stable across processes and Python
        runs, so an on-disk cache written by one server process serves
        another, and shared by every engine and worker count.
        Validation runs first: an invalid request has no key.
        """
        return resolve_campaign(self).cache_key

    def replace(self, **changes: object) -> "CampaignRequest":
        """A copy with ``changes`` applied (convenience over
        ``dataclasses.replace``)."""
        import dataclasses

        return dataclasses.replace(self, **changes)


@dataclass
class ResolvedCampaign:
    """A validated request bound to its runner, stream and universe spec.

    Produced (and memoized) by :func:`resolve_campaign`.  The fault
    universe itself is *not* materialized here -- cache hits must not
    pay universe enumeration -- call :meth:`build_universe` on the cold
    path.
    """

    request: CampaignRequest
    runner: CompilableRunner
    universe_spec: UniverseSpec
    test_name: str  #: report label (CLI legacy: selector, or scheme display)
    display_name: str  #: comparison-table row name ("March C-", "PRT-3", ...)
    ports: int
    operations: int  #: test cost on the n-cell memory (comparison rows)
    _cache_key: str | None = dataclass_field(default=None, repr=False)

    def compile(self) -> OpStream:
        """The compiled :class:`~repro.sim.ir.OpStream` (memoized by the
        ``cached_*`` compiler adapters)."""
        return self.runner.compile(self.request.n, self.request.m)

    def build_universe(self) -> FaultUniverse:
        """The fault universe (cold path only), lazy: it holds the spec's
        descriptor table and builds a fault only when one is asked for
        (see :meth:`FaultUniverse.from_spec`).  A generator that rejects
        its kwargs (too few cells for a pair, a retention below one
        cycle) raises :class:`RequestError`."""
        try:
            return FaultUniverse.from_spec(self.universe_spec)
        except ValueError as exc:
            raise RequestError(f"universe spec: {exc}") from exc

    @property
    def cache_key(self) -> str:
        """See :meth:`CampaignRequest.cache_key`."""
        if self._cache_key is None:
            request = self.request
            text = "\x00".join((
                f"cache-key-v{CACHE_KEY_VERSION}",
                self.compile().digest(),
                repr(self.universe_spec),
                str(request.m),
                str(request.n),
                str(self.ports),
            ))
            self._cache_key = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return self._cache_key


@lru_cache(maxsize=16)
def _generator_signature(generator: str) -> inspect.Signature:
    """The signature of a spec generator (computing one costs more than
    binding a spec's kwargs to it)."""
    from repro.faults.universe import _SPEC_GENERATORS

    return inspect.signature(_SPEC_GENERATORS[generator])


def _validate_spec(spec: UniverseSpec, n: int, m: int) -> None:
    """Reject a spec no worker could build for an ``n x m`` request.

    Every leaf must name a known generator, and its kwargs must bind to
    that generator's signature.  Its ``n`` and ``m``, explicit or
    default, must be ints in ``[1, n]`` and ``[1, m]``: a larger part
    would address cells or bits the request's memory does not have.
    Nothing is built.
    """
    from repro.faults.universe import _SPEC_GENERATORS

    if spec.generator in ("union", "sample"):
        if not spec.parts:
            raise RequestError(
                f"universe spec {spec.generator!r} needs child specs"
            )
        for part in spec.parts:
            _validate_spec(part, n, m)
        return
    if spec.generator not in _SPEC_GENERATORS:
        raise RequestError(
            f"unknown universe generator {spec.generator!r} "
            f"(known: {sorted(_SPEC_GENERATORS)})"
        )
    signature = _generator_signature(spec.generator)
    try:
        bound = signature.bind(**dict(spec.kwargs))
    except TypeError as exc:
        raise RequestError(
            f"universe spec {spec.generator!r}: {exc}") from None
    for name, limit in (("n", n), ("m", m)):
        parameter = signature.parameters.get(name)
        value = bound.arguments.get(
            name, 1 if parameter is None else parameter.default)
        if not _is_int(value) or not 1 <= value <= limit:
            raise RequestError(
                f"universe spec {spec.generator!r}: {name} must be an "
                f"int in [1, {limit}] (the request's {name}), "
                f"got {value!r}")


@lru_cache(maxsize=256)
def _bind_test(test: str, n: int, m: int, poly: str | None,
               pure: bool) -> dict:
    """The universe-independent half of resolution: the
    :class:`ResolvedCampaign` fields that depend only on the test and
    its memory (runner, labels, ports, operation count).

    Memoized on its arguments, so requests that differ only in
    ``universe``, ``engine`` or ``workers`` share one runner and,
    through the ``cached_*`` compiler adapters, one compiled stream:
    its static verification, reference pass and digest run once per
    geometry.  A binding that fails raises and leaves no memo entry.
    """
    kind, display = _TESTS[test]
    try:
        field = build_field(m, poly)
    except (ValueError, KeyError) as exc:
        raise RequestError(f"bad field polynomial "
                           f"{poly!r}: {exc}") from exc
    if kind != "march" and field is not None and field.m != m:
        raise RequestError(
            f"field polynomial {poly!r} has degree {field.m}, "
            f"but m={m}: the poly must define GF(2^m)"
        )
    test_name = test
    if kind == "march":
        march = _MARCH_TESTS[test]
        runner = march_runner(march)
        operations = march_operations(march, n, m=m)
    elif kind == "schedule":
        builder = standard_schedule if test == "prt3" else extended_schedule
        schedule = builder(field=field, n=n, verify=not pure)
        runner = schedule_runner(schedule)
        operations = schedule.operation_count(n)
    else:
        generator = (1, 1, 1) if field is None or field.m == 1 else (1, 2, 2)
        quad = test.startswith("quad")
        if kind == "multi-schedule":
            schedule = standard_multi_schedule(
                ports=4 if quad else 2, field=field, generator=generator,
                verify=not pure,
            )
            runner = multi_schedule_runner(schedule)
        elif quad:
            runner = quad_port_runner(
                QuadPortPiIteration(field=field, generator=generator,
                                    seed=(0, 1)))
        else:
            runner = dual_port_runner(
                DualPortPiIteration(field=field, generator=generator,
                                    seed=(0, 1)))
        test_name = display  # legacy CLI labels scheme reports by display
    # The smallest memory the test runs on comes from its runner (a
    # π-test needs more cells than its automaton window): reject a
    # smaller n here, before anything compiles.
    floor = runner.min_cells
    if test.startswith("quad") and (n % 2 != 0 or n < floor):
        raise RequestError(
            f"test {test!r} needs an even n >= {floor} "
            f"(two concurrent half-array automata), got {n}"
        )
    if n < floor:
        raise RequestError(
            f"test {test!r} needs n >= {floor} (more cells than "
            f"its automaton window), got n={n}"
        )
    if kind in ("port", "multi-schedule"):
        # Counted off the compiled stream, now that n is known good.
        operations = runner.compile(n, m).operation_count
    return {"runner": runner, "test_name": test_name,
            "display_name": display, "ports": _ports_for(test),
            "operations": operations}


@lru_cache(maxsize=256)
def _resolve(request: CampaignRequest) -> ResolvedCampaign:
    if not isinstance(request.test, str) or request.test not in _TESTS:
        raise RequestError(
            f"unknown test {request.test!r} "
            f"(known: {sorted(_TESTS)})"
        )
    if request.engine not in ENGINES:
        raise RequestError(
            f"engine must be one of {ENGINES}, got {request.engine!r}"
        )
    n, m = request.n, request.m
    binding = _bind_test(request.test, n, m, request.poly, request.pure)
    if request.universe is None:
        # The recipe only: enumerating the faults is the cold path's job
        # (a cache hit never pays it).  Building is also where the
        # generators validate, so the default universe's two-cell floor
        # is checked here instead.
        if n < 2:
            raise RequestError(
                f"the default universe needs n >= 2 (coupling, bridging "
                f"and decoder faults span two cells), got n={n}; pass a "
                f"universe spec to test a smaller memory"
            )
        spec = standard_universe_spec(n, m)
    else:
        if not isinstance(request.universe, UniverseSpec):
            raise RequestError(
                f"universe must be a UniverseSpec or None, "
                f"got {type(request.universe).__name__}"
            )
        _validate_spec(request.universe, n, m)
        spec = request.universe
    return ResolvedCampaign(request=request, universe_spec=spec, **binding)


def resolve_campaign(request: CampaignRequest) -> ResolvedCampaign:
    """Validate a request and bind it to a runner + universe spec.

    This is the single shared resolver behind ``run_coverage(request)``,
    ``compare_tests([request, ...])``, the CLI and the server.  Raises
    :class:`RequestError` on any invalid field.  Resolution is memoized
    twice: on the (hashable) request, so a repeated request returns the
    same :class:`ResolvedCampaign`, and on ``(test, n, m, poly, pure)``,
    so every request for one test on one memory -- whatever its
    universe, engine or workers -- gets the same runner and therefore
    the same memoized compiled stream.

    >>> resolved = resolve_campaign(CampaignRequest(test="prt3", n=14))
    >>> resolved.display_name, resolved.ports
    ('PRT-3', 1)
    >>> try:
    ...     resolve_campaign(CampaignRequest(test="nope", n=8))
    ... except RequestError as exc:
    ...     "unknown test 'nope'" in str(exc)
    True
    """
    if not isinstance(request, CampaignRequest):
        raise RequestError(
            f"expected a CampaignRequest, got {type(request).__name__}"
        )
    # Checked outside the memo of _resolve: m=True and n=8.0 equal (and
    # hash like) m=1 and n=8, so a memoized resolution would let them in.
    for name in ("n", "m"):
        value = getattr(request, name)
        if not _is_int(value) or value < 1:
            raise RequestError(
                f"{name} must be a positive int, got {value!r}")
    if request.n > MAX_CELLS:
        raise RequestError(
            f"n must be at most {MAX_CELLS}, got {request.n!r}")
    if request.m > MAX_WORD_BITS:
        raise RequestError(
            f"m must be at most {MAX_WORD_BITS}, got {request.m!r}")
    workers = request.workers
    if not _is_int(workers) or not 0 <= workers <= MAX_WORKERS:
        raise RequestError(
            f"workers must be an int in [0, {MAX_WORKERS}], got {workers!r}"
        )
    return _resolve(request)


def _is_int(value: object) -> bool:
    """True for an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


class _CacheKeyField:
    """The ``cache_key`` field of :class:`RequestOutcome`: the key, or
    the :class:`ResolvedCampaign` whose memoized key it reads on first
    access, so a request run without a cache hashes its stream only if
    a caller asks for the key."""

    def __get__(self, outcome, owner=None):
        if outcome is None:  # a required field: no class-level default
            raise AttributeError("cache_key")
        key = outcome.__dict__["cache_key"]
        if isinstance(key, ResolvedCampaign):
            key = outcome.__dict__["cache_key"] = key.cache_key
        return key

    def __set__(self, outcome, key) -> None:
        outcome.__dict__["cache_key"] = key


@dataclass
class RequestOutcome:
    """What :func:`execute_request` produced, with cache provenance."""

    report: CoverageReport
    cached: bool  #: True when the report came out of the result cache
    elapsed_s: float  #: wall clock of this call (lookup or campaign)
    cache_key: str = _CacheKeyField()  # type: ignore[assignment]

    def __getstate__(self) -> dict:
        return {**self.__dict__, "cache_key": self.cache_key}


def _resolve_cache(cache: ResultCache | bool | None) -> ResultCache | None:
    """``None`` -> process default, ``False`` -> disabled, else as-is."""
    if cache is None:
        from repro.server.cache import default_cache

        return default_cache()
    if cache is False:
        return None
    assert not isinstance(cache, bool)
    return cache


def _ensure_stream_verified(resolved: ResolvedCampaign) -> None:
    """Static-verification gate: no malformed stream reaches the cache.

    Runs the error-only pass of :func:`repro.sim.verify.verify` on the
    compiled stream before any result is computed *or cached* -- a
    stream that fails verification must never mint a cache entry.  The
    verdict is memoized on the stream object (compiled streams are
    shared via the ``cached_*`` adapters), mirroring the
    ``reference_verified`` replay bookkeeping.
    """
    stream = resolved.compile()
    if stream.__dict__.get("_static_verified", False):
        return
    from repro.sim.verify import verify

    report = verify(stream, dataflow=False)
    if not report.ok:
        first = report.errors[0]
        raise RequestError(
            f"compiled stream for test {resolved.request.test!r} failed "
            f"static verification: {first}"
        )
    stream.__dict__["_static_verified"] = True


def execute_request(request: CampaignRequest,
                    cache: ResultCache | bool | None = None,
                    pool: WorkerPool | None = None,
                    progress: Callable[[int, int], None] | None = None,
                    test_name: str | None = None) -> RequestOutcome:
    """Run (or cache-serve) one campaign request, with provenance.

    Parameters
    ----------
    cache:
        ``None`` (default) uses the process-wide
        :func:`repro.server.cache.default_cache`; ``False`` disables
        caching; any :class:`~repro.server.cache.ResultCache` is used
        as given.  Reports are stored pickled and a hit returns a fresh
        unpickled copy, so callers can never corrupt cached state.
    pool:
        Optional explicit :class:`~repro.sim.pool.WorkerPool` for
        sharded requests (``request.workers > 0``).
    progress:
        ``progress(done, total)`` hook threaded through to the engines
        (cold path only -- a cache hit has no campaign to report on).
    test_name:
        Override the report label (``compare_tests`` passes its row
        names); default is the resolver's legacy-compatible label.
    """
    start = time.perf_counter()
    resolved = resolve_campaign(request)
    _ensure_stream_verified(resolved)
    name = test_name if test_name is not None else resolved.test_name
    store = _resolve_cache(cache)
    if store is not None:
        key = resolved.cache_key
        hit = store.get(key)
        if hit is not None:
            hit.test_name = name
            return RequestOutcome(report=hit, cached=True,
                                  elapsed_s=time.perf_counter() - start,
                                  cache_key=key)

        def compute() -> CoverageReport:
            return _run_resolved(resolved, name, pool, progress)

        report, fresh = store.get_or_compute(key, compute)
        report.test_name = name
        return RequestOutcome(report=report, cached=not fresh,
                              elapsed_s=time.perf_counter() - start,
                              cache_key=key)
    report = _run_resolved(resolved, name, pool, progress)
    return RequestOutcome(report=report, cached=False,
                          elapsed_s=time.perf_counter() - start,
                          cache_key=resolved)


def _run_resolved(resolved: ResolvedCampaign, name: str,
                  pool: WorkerPool | None,
                  progress: Callable[[int, int], None] | None
                  ) -> CoverageReport:
    """The cold path: run the engine on the lazy universe.  The batched
    engine reads its lanes from the descriptor table, so only the
    scalar remainder and the missed faults ever become Fault objects."""
    request = resolved.request
    return run_coverage(
        resolved.runner, resolved.build_universe(), request.n, m=request.m,
        test_name=name, workers=request.workers, engine=request.engine,
        pool=pool, progress=progress,
    )


def run_request(request: CampaignRequest,
                cache: ResultCache | bool | None = None,
                pool: WorkerPool | None = None,
                progress: Callable[[int, int], None] | None = None
                ) -> CoverageReport:
    """:func:`execute_request` without the provenance wrapper.

    This is what ``run_coverage(request)`` delegates to.

    >>> report = run_request(CampaignRequest(test="mats+", n=8,
    ...     universe=UniverseSpec.call("single_cell", n=8, m=1,
    ...                                classes=("SAF",), retention=64)),
    ...     cache=False)
    >>> report.coverage_of("SAF")
    1.0
    """
    return execute_request(request, cache=cache, pool=pool,
                           progress=progress).report
