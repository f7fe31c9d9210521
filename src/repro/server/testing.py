"""In-repo ASGI test client: drive :class:`ReproApp` without sockets.

The repo takes no web-framework dependency, so it carries its own tiny
equivalent of ``httpx``/``starlette.testclient``: :class:`TestClient`
builds an ASGI HTTP scope per request, runs the app to completion on a
private event loop (``asyncio.run`` per call -- each request is
hermetic), and collects the sent messages into a :class:`Response`.
Streaming endpoints work too; chunks are concatenated, so an NDJSON
stream comes back as its full line sequence.

>>> from repro.server.app import create_app
>>> client = TestClient(create_app())
>>> response = client.get("/schemes")
>>> response.status, response.headers["content-type"]
(200, 'application/json')
>>> sorted(response.json())
['engines', 'schemes']
"""

from __future__ import annotations

import asyncio
import json as _json

__all__ = ["Response", "TestClient"]


class Response:
    """What the app sent: status, headers, and the concatenated body."""

    def __init__(self, status: int, headers: dict[str, str], body: bytes):
        self.status = status
        self.headers = headers
        self.body = body

    @property
    def text(self) -> str:
        """The body decoded as UTF-8."""
        return self.body.decode("utf-8")

    def json(self):
        """The body parsed as JSON."""
        return _json.loads(self.body)

    def ndjson(self) -> list:
        """The body parsed as newline-delimited JSON (streaming)."""
        return [_json.loads(line)
                for line in self.text.splitlines() if line]

    def __repr__(self) -> str:
        return f"Response({self.status}, {len(self.body)} bytes)"


class TestClient:
    """Synchronous facade over one ASGI app instance.

    The app instance is shared across calls (so its cache and job
    manager persist), but each request runs on a fresh event loop --
    exactly the hermetic shape pytest wants.
    """

    __test__ = False  # not a pytest test class, despite the name

    def __init__(self, app):
        self.app = app

    # -- verbs ---------------------------------------------------------------

    def get(self, path: str) -> Response:
        """``GET path``."""
        return self.request("GET", path)

    def post(self, path: str, json=None) -> Response:
        """``POST path`` with an optional JSON body."""
        return self.request("POST", path, json=json)

    def request(self, method: str, path: str, json=None) -> Response:
        """Run one request through the app and return its response."""
        body = b"" if json is None else _json.dumps(json).encode("utf-8")
        return asyncio.run(self._run(method, path, body))

    # -- ASGI plumbing -------------------------------------------------------

    async def _run(self, method: str, path: str, body: bytes) -> Response:
        headers = [(b"host", b"testclient")]
        if body:
            headers += [
                (b"content-type", b"application/json"),
                (b"content-length", str(len(body)).encode("ascii")),
            ]
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": "1.1",
            "method": method,
            "scheme": "http",
            "path": path,
            "raw_path": path.encode("utf-8"),
            "query_string": b"",
            "root_path": "",
            "headers": headers,
            "client": ("testclient", 0),
            "server": ("testclient", 80),
        }
        request_messages = [
            {"type": "http.request", "body": body, "more_body": False},
        ]

        async def receive():
            if request_messages:
                return request_messages.pop(0)
            return {"type": "http.disconnect"}

        sent: list[dict] = []

        async def send(message):
            sent.append(message)

        await self.app(scope, receive, send)
        status, response_headers, chunks = 500, {}, []
        for message in sent:
            if message["type"] == "http.response.start":
                status = message["status"]
                response_headers = {
                    name.decode("latin-1"): value.decode("latin-1")
                    for name, value in message.get("headers", [])
                }
            elif message["type"] == "http.response.body":
                chunks.append(message.get("body", b""))
        return Response(status, response_headers, b"".join(chunks))
