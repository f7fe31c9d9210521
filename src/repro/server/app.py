"""The ASGI application: campaign endpoints with zero framework deps.

:class:`ReproApp` is a plain `ASGI 3 <https://asgi.readthedocs.io>`_
callable -- ``async def __call__(scope, receive, send)`` -- so it runs
unchanged under uvicorn/hypercorn, under the in-repo
:class:`~repro.server.testing.TestClient`, or under the bundled asyncio
HTTP bridge (``python -m repro.server``).  Endpoints:

====== ===================== ============================================
Method Path                  Meaning
====== ===================== ============================================
GET    ``/schemes``          selectable tests/schemes + option vocabulary
GET    ``/stats``            cache + job-queue telemetry counters
POST   ``/coverage``         run (or cache-serve) one campaign, wait
POST   ``/compare``          comparison table over several requests
POST   ``/verify``           statically verify a compiled stream

POST   ``/jobs``             submit a campaign job, return immediately
                             (429 + ``Retry-After`` when the queue is full)
GET    ``/jobs/{id}``        poll job status/progress/result
GET    ``/jobs/{id}/stream`` NDJSON live progress until the job settles
====== ===================== ============================================

Campaign work never blocks the event loop: synchronous endpoints offload
to the :class:`~repro.server.jobs.JobManager` thread pool and ``await``
the result; ``/jobs`` returns while the same pool works in the
background.  Validation failures (:class:`~repro.server.schemas.
SchemaError`, :class:`~repro.analysis.request.RequestError`) become
``400 {"error": ...}`` bodies -- the message text is the resolver's,
shared verbatim with the CLI.

>>> from repro.server.testing import TestClient
>>> client = TestClient(create_app())
>>> client.get("/schemes").json()["schemes"][0]["test"]
'dual-port'
>>> client.post("/coverage", {"test": "mats", "n": 4}).json()["report"]["overall"] > 0
True
>>> client.post("/coverage", {"test": "mats"}).status
400
"""

from __future__ import annotations

import asyncio
import json

from repro.analysis.compare import compare_tests
from repro.analysis.request import (
    ENGINES,
    RequestError,
    execute_request,
    known_tests,
    resolve_campaign,
)
from repro.server.cache import ResultCache, default_cache
from repro.server.jobs import JobManager, JobQueueFull
from repro.server.schemas import (
    SchemaError,
    compare_from_dict,
    compare_response,
    coverage_response,
    request_from_dict,
    verify_response,
)

__all__ = ["ReproApp", "create_app"]

_STREAM_POLL_S = 0.05  # progress poll cadence for /jobs/{id}/stream


class _HttpError(Exception):
    def __init__(self, status: int, error: str, headers=(), **extra):
        super().__init__(error)
        self.status = status
        self.headers = headers
        self.body = {"error": error, **extra}


class ReproApp:
    """The campaign service: routes, cache, and job manager in one object.

    Parameters
    ----------
    cache:
        The :class:`~repro.server.cache.ResultCache` behind every
        endpoint (None = the process-wide default).
    job_manager:
        Override the :class:`~repro.server.jobs.JobManager` (tests);
        default builds one sharing ``cache``.
    """

    def __init__(self, cache: ResultCache | None = None,
                 job_manager: JobManager | None = None):
        self.cache = cache if cache is not None else default_cache()
        self.jobs = (job_manager if job_manager is not None
                     else JobManager(cache=self.cache))

    # -- ASGI ----------------------------------------------------------------

    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - websockets etc.
            raise RuntimeError(f"unsupported scope type {scope['type']!r}")
        try:
            await self._dispatch(scope, receive, send)
        except _HttpError as exc:
            await self._send_json(send, exc.status, exc.body, exc.headers)

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                self.close()
                await send({"type": "lifespan.shutdown.complete"})
                return

    async def _dispatch(self, scope, receive, send) -> None:
        method, path = scope["method"], scope["path"]
        if path == "/schemes":
            self._require(method, "GET")
            await self._send_json(send, 200, self._schemes())
        elif path == "/stats":
            self._require(method, "GET")
            await self._send_json(send, 200, {
                "cache": self.cache.stats(),
                "jobs": self.jobs.stats(),
            })
        elif path == "/coverage":
            self._require(method, "POST")
            body = await self._json_body(receive)
            await self._send_json(send, 200, await self._coverage(body))
        elif path == "/compare":
            self._require(method, "POST")
            body = await self._json_body(receive)
            await self._send_json(send, 200, await self._compare(body))
        elif path == "/verify":
            self._require(method, "POST")
            body = await self._json_body(receive)
            await self._send_json(send, 200, await self._verify(body))
        elif path == "/jobs":
            self._require(method, "POST")
            body = await self._json_body(receive)
            await self._send_json(send, 202, self._submit(body))
        elif path.startswith("/jobs/") and path.endswith("/stream"):
            self._require(method, "GET")
            job_id = path[len("/jobs/"):-len("/stream")]
            await self._stream_job(send, job_id)
        elif path.startswith("/jobs/"):
            self._require(method, "GET")
            job = self.jobs.get(path[len("/jobs/"):])
            if job is None:
                raise _HttpError(404, "unknown job id")
            await self._send_json(send, 200, job.to_dict())
        else:
            raise _HttpError(404, f"unknown path {path!r}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected}")

    async def _json_body(self, receive) -> dict:
        chunks = []
        while True:
            message = await receive()
            if message["type"] == "http.disconnect":
                raise _HttpError(400, "client disconnected")
            chunks.append(message.get("body", b""))
            if not message.get("more_body", False):
                break
        raw = b"".join(chunks)
        try:
            body = json.loads(raw) if raw else {}
        except ValueError as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return body

    # -- endpoints -----------------------------------------------------------

    def _schemes(self) -> dict:
        return {
            "schemes": known_tests(),
            "engines": list(ENGINES),
        }

    async def _offload(self, fn):
        """Run blocking campaign work on the job pool, translate errors."""
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(self.jobs.executor, fn)
        except (SchemaError, RequestError) as exc:
            raise _HttpError(400, str(exc)) from None

    async def _coverage(self, body: dict) -> dict:
        request = self._parse(request_from_dict, body)
        outcome = await self._offload(
            lambda: execute_request(request, cache=self.cache))
        return coverage_response(request, outcome)

    async def _verify(self, body: dict) -> dict:
        # The request surface is the coverage body (engine/workers are
        # validated and ignored -- verification is static).
        request = self._parse(request_from_dict, body)

        def run() -> dict:
            from repro.sim.verify import verify

            resolved = resolve_campaign(request)
            stream = resolved.compile()
            return verify_response(request, stream, verify(stream))

        return await self._offload(run)

    async def _compare(self, body: dict) -> dict:
        requests = self._parse(compare_from_dict, body)
        rows = await self._offload(
            lambda: compare_tests(requests, cache=self.cache))
        return compare_response(requests, rows)

    def _submit(self, body: dict) -> dict:
        kind = body.get("kind", "coverage")
        payload = body.get("request")
        if not isinstance(payload, dict):
            raise _HttpError(400, "request: missing required field",
                             field="request")
        try:
            if kind == "coverage":
                job = self.jobs.submit_coverage(
                    self._parse(request_from_dict, payload))
            elif kind == "compare":
                job = self.jobs.submit_compare(
                    self._parse(compare_from_dict, payload))
            else:
                raise _HttpError(400,
                                 f"kind must be 'coverage' or 'compare', "
                                 f"got {kind!r}", field="kind")
        except RequestError as exc:
            raise _HttpError(400, str(exc)) from None
        except JobQueueFull as exc:
            raise _HttpError(429, str(exc),
                             headers=[(b"retry-after", b"1")]) from None
        return job.to_dict()

    def _parse(self, parser, body: dict):
        try:
            return parser(body)
        except SchemaError as exc:
            raise _HttpError(400, str(exc), field=exc.field) from None
        except RequestError as exc:
            raise _HttpError(400, str(exc)) from None

    async def _stream_job(self, send, job_id: str) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            raise _HttpError(404, "unknown job id")
        await send({
            "type": "http.response.start",
            "status": 200,
            "headers": [(b"content-type", b"application/x-ndjson")],
        })

        def line(payload: dict) -> bytes:
            return json.dumps(payload).encode("utf-8") + b"\n"

        last = None
        while True:
            snapshot = job.to_dict()
            settled = snapshot["status"] in ("done", "error")
            if settled or snapshot != last:
                await send({"type": "http.response.body",
                            "body": line(snapshot),
                            "more_body": not settled})
                last = snapshot
            if settled:
                return
            await asyncio.sleep(_STREAM_POLL_S)

    # -- plumbing ------------------------------------------------------------

    @staticmethod
    async def _send_json(send, status: int, payload: dict,
                         headers=()) -> None:
        body = json.dumps(payload).encode("utf-8")
        await send({
            "type": "http.response.start",
            "status": status,
            "headers": [
                (b"content-type", b"application/json"),
                (b"content-length", str(len(body)).encode("ascii")),
                *headers,
            ],
        })
        await send({"type": "http.response.body", "body": body})

    def close(self) -> None:
        """Drain the job pool (lifespan shutdown / tests)."""
        self.jobs.close()


def create_app(cache: ResultCache | None = None) -> ReproApp:
    """Build the service (the conventional ASGI factory entry point).

    ``cache=None`` shares the process-wide default cache -- campaigns
    run via :func:`~repro.analysis.coverage.run_coverage` in the same
    process warm the server's endpoints, and vice versa.
    """
    return ReproApp(cache=cache)
