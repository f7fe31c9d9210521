"""JSON request/response schemas for the serving layer (and ``--json`` CLI).

One schema, three consumers: the HTTP endpoints of
:mod:`repro.server.app`, the CLI's ``--json`` machine-readable output,
and any client scripting against either.  Everything here is plain
dict <-> dataclass plumbing with *pointed* validation:
:class:`SchemaError` always names the offending field, and the app layer
turns it into a 400 with ``{"error": ..., "field": ...}``.

Request bodies
--------------

``POST /coverage`` takes a JSON object mirroring
:class:`~repro.analysis.request.CampaignRequest`::

    {"test": "march-c", "n": 64, "m": 1,
     "engine": "auto", "workers": 0,
     "pure": false, "poly": null,
     "universe": {"generator": "single_cell",
                  "kwargs": {"n": 64, "m": 1,
                             "classes": ["SAF", "TF"], "retention": 64}}}

Only ``test`` and ``n`` are required; ``universe: null`` selects the
standard universe.  Nested specs use ``generator``/``kwargs``/``parts``
exactly like :class:`~repro.faults.universe.UniverseSpec`.

``POST /compare`` takes ``{"requests": [<coverage body>, ...]}`` or the
shorthand ``{"tests": ["prt3", "march-c"], "n": 28, ...}`` (shared
options applied to every test).

>>> request = request_from_dict({"test": "march-c", "n": 16})
>>> request.n, request.engine
(16, 'auto')
>>> request_from_dict({"test": "march-c"})
Traceback (most recent call last):
        ...
repro.server.schemas.SchemaError: n: missing required field
"""

from __future__ import annotations

from dataclasses import asdict

from repro.analysis.compare import ComparisonRow
from repro.analysis.coverage import CoverageReport
from repro.analysis.request import CampaignRequest, RequestOutcome
from repro.faults.universe import UniverseSpec

__all__ = [
    "SchemaError",
    "request_from_dict",
    "request_to_dict",
    "compare_from_dict",
    "spec_from_dict",
    "spec_to_dict",
    "report_to_dict",
    "coverage_response",
    "compare_response",
    "comparison_row_to_dict",
    "diagnostic_to_dict",
    "verify_response",
]

#: Diagnostics listed per verify response; the rest is summarized in the
#: per-code counts (a pathological stream can carry one finding per op).
_MAX_DIAGNOSTICS = 200


class SchemaError(ValueError):
    """A JSON body failed validation; ``field`` names the culprit."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.reason = message


_REQUEST_FIELDS = {
    "test": (str, True),
    "n": (int, True),
    "m": (int, False),
    "universe": (dict, False),
    "engine": (str, False),
    "workers": (int, False),
    "pure": (bool, False),
    "poly": (str, False),
}


def _check_type(field: str, value, expected: type):
    # bool is an int subclass; "n": true must not pass as an int.
    if expected is int and isinstance(value, bool):
        raise SchemaError(field, f"expected an integer, got {value!r}")
    if not isinstance(value, expected):
        raise SchemaError(
            field,
            f"expected {expected.__name__}, got {type(value).__name__}"
        )
    return value


def _jsonify(value):
    """kwargs values back to JSON shape (tuples -> lists, recursively)."""
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    return value


def _dejsonify(value):
    """JSON kwargs values to the hashable shape specs store."""
    if isinstance(value, list):
        return tuple(_dejsonify(v) for v in value)
    return value


def spec_to_dict(spec: UniverseSpec) -> dict:
    """A :class:`UniverseSpec` as a JSON-ready dict (inverse of
    :func:`spec_from_dict`)."""
    out: dict = {"generator": spec.generator}
    if spec.kwargs:
        out["kwargs"] = {k: _jsonify(v) for k, v in spec.kwargs}
    if spec.parts:
        out["parts"] = [spec_to_dict(part) for part in spec.parts]
    return out


def spec_from_dict(data: dict, field: str = "universe") -> UniverseSpec:
    """Parse a nested ``{"generator", "kwargs", "parts"}`` spec dict.

    Generator-name validity is checked later by the shared resolver;
    this layer only enforces the structural shape.
    """
    _check_type(field, data, dict)
    unknown = set(data) - {"generator", "kwargs", "parts"}
    if unknown:
        raise SchemaError(field, f"unknown spec field(s) {sorted(unknown)}")
    generator = _check_type(f"{field}.generator",
                            data.get("generator"), str) \
        if "generator" in data else None
    if generator is None:
        raise SchemaError(f"{field}.generator", "missing required field")
    kwargs = data.get("kwargs", {})
    _check_type(f"{field}.kwargs", kwargs, dict)
    for key in kwargs:
        _check_type(f"{field}.kwargs", key, str)
    parts = data.get("parts", [])
    _check_type(f"{field}.parts", parts, list)
    return UniverseSpec(
        generator=generator,
        kwargs=tuple(sorted((k, _dejsonify(v)) for k, v in kwargs.items())),
        parts=tuple(spec_from_dict(part, field=f"{field}.parts[{i}]")
                    for i, part in enumerate(parts)),
    )


def request_from_dict(data: dict) -> CampaignRequest:
    """Validate a ``POST /coverage`` body into a
    :class:`CampaignRequest`.

    Structural validation only (types, required/unknown fields);
    semantic validation -- known tests, engines, generators -- is the
    resolver's job, so the two layers never disagree.
    """
    _check_type("request", data, dict)
    unknown = set(data) - set(_REQUEST_FIELDS)
    if unknown:
        raise SchemaError("request",
                          f"unknown field(s) {sorted(unknown)}")
    kwargs = {}
    for field, (expected, required) in _REQUEST_FIELDS.items():
        if field not in data or data[field] is None:
            if required:
                raise SchemaError(field, "missing required field")
            continue
        value = _check_type(field, data[field], expected)
        if field == "universe":
            value = spec_from_dict(value)
        kwargs[field] = value
    return CampaignRequest(**kwargs)


def request_to_dict(request: CampaignRequest) -> dict:
    """A :class:`CampaignRequest` as the JSON body that produces it."""
    out = asdict(request)
    out["universe"] = (spec_to_dict(request.universe)
                       if request.universe is not None else None)
    return out


def compare_from_dict(data: dict) -> list[CampaignRequest]:
    """Validate a ``POST /compare`` body into request objects.

    Accepts ``{"requests": [...]}`` (full per-row bodies) or the
    shorthand ``{"tests": [...], ...shared options}``.
    """
    _check_type("request", data, dict)
    if "requests" in data and "tests" in data:
        raise SchemaError("request",
                          "pass either 'requests' or 'tests', not both")
    if "requests" in data:
        entries = _check_type("requests", data["requests"], list)
        extra = set(data) - {"requests"}
        if extra:
            raise SchemaError("request",
                              f"unknown field(s) {sorted(extra)}")
        if not entries:
            raise SchemaError("requests", "needs at least one entry")
        return [request_from_dict(_check_type(f"requests[{i}]", entry, dict))
                for i, entry in enumerate(entries)]
    if "tests" not in data:
        raise SchemaError("request", "missing 'requests' or 'tests'")
    tests = _check_type("tests", data["tests"], list)
    if not tests:
        raise SchemaError("tests", "needs at least one entry")
    shared = {k: v for k, v in data.items() if k != "tests"}
    return [
        request_from_dict(
            dict(shared, test=_check_type(f"tests[{i}]", test, str)))
        for i, test in enumerate(tests)
    ]


def report_to_dict(report: CoverageReport) -> dict:
    """A :class:`CoverageReport` as the canonical JSON response shape."""
    return {
        "test_name": report.test_name,
        "overall": report.overall,
        "classes": {
            fault_class: {
                "detected": detected,
                "total": total,
                "coverage": ratio,
            }
            for fault_class, detected, total, ratio in report.rows()
        },
        "missed_faults": list(report.missed_faults),
    }


def coverage_response(request: CampaignRequest,
                      outcome: RequestOutcome) -> dict:
    """The ``POST /coverage`` response body (also the CLI ``--json``
    output)."""
    return {
        "request": request_to_dict(request),
        "report": report_to_dict(outcome.report),
        "cached": outcome.cached,
        "cache_key": outcome.cache_key,
        "elapsed_s": round(outcome.elapsed_s, 6),
    }


def diagnostic_to_dict(diagnostic) -> dict:
    """One :class:`~repro.sim.diagnostics.Diagnostic` as JSON."""
    return {
        "code": diagnostic.code,
        "severity": diagnostic.severity,
        "index": diagnostic.index,
        "message": diagnostic.message,
    }


def verify_response(request: CampaignRequest, stream, report) -> dict:
    """The ``POST /verify`` response body (also ``repro verify --json``).

    ``diagnostics`` is truncated to the first ``200`` findings
    (``truncated`` says so); ``counts`` always covers every finding.
    """
    diagnostics = report.diagnostics
    counts: dict[str, int] = {}
    for diagnostic in diagnostics:
        counts[diagnostic.code] = counts.get(diagnostic.code, 0) + 1
    return {
        "request": request_to_dict(request),
        "stream": {
            "name": stream.name,
            "source": stream.source,
            "n": stream.n,
            "m": stream.m,
            "ports": stream.ports,
            "records": len(stream.ops),
            "digest": stream.digest(),
        },
        "ok": report.ok,
        "errors": len(report.errors),
        "warnings": len(report.warnings),
        "counts": counts,
        "diagnostics": [diagnostic_to_dict(d)
                        for d in diagnostics[:_MAX_DIAGNOSTICS]],
        "truncated": len(diagnostics) > _MAX_DIAGNOSTICS,
    }


def comparison_row_to_dict(row: ComparisonRow) -> dict:
    """One comparison-table row as JSON."""
    return {
        "name": row.name,
        "operations": row.operations,
        "ops_per_cell": row.ops_per_cell,
        "overall": row.overall,
        "coverage": {c: row.coverage(c) for c in row.report.classes},
        "report": report_to_dict(row.report),
    }


def compare_response(requests: list[CampaignRequest], rows) -> dict:
    """The ``POST /compare`` response body."""
    return {
        "requests": [request_to_dict(request) for request in requests],
        "rows": [comparison_row_to_dict(row) for row in rows],
    }
