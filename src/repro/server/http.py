"""A minimal asyncio HTTP/1.1 bridge for the ASGI app -- no server dep.

``python -m repro.server`` has to work in a bare environment, so this
module adapts :class:`~repro.server.app.ReproApp` onto
:func:`asyncio.start_server` directly: parse one request (request line,
headers, ``Content-Length`` body), translate it into an ASGI HTTP scope,
stream the app's response back (``Content-Length`` when the app declares
one, chunked transfer-encoding otherwise -- which is how the NDJSON job
stream reaches ``curl`` live), then close.  One request per connection
(``Connection: close``): campaigns dwarf connection setup, and the
simplicity is the point.  Production deployments should point a real
ASGI server (uvicorn etc.) at ``repro.server.app:create_app`` instead.

>>> REASONS[404]
'Not Found'
>>> _status_line(200)
b'HTTP/1.1 200 OK\\r\\n'
"""

from __future__ import annotations

import asyncio
import contextlib

__all__ = ["REASONS", "serve", "run"]

REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

_MAX_BODY = 8 * 1024 * 1024  # campaigns are small JSON; refuse the rest


def _status_line(status: int) -> bytes:
    reason = REASONS.get(status, "Unknown")
    return f"HTTP/1.1 {status} {reason}\r\n".encode("ascii")


async def _read_request(reader: asyncio.StreamReader):
    """``(method, path, headers, body)`` or None on a closed socket."""
    request_line = await reader.readline()
    if not request_line.strip():
        return None
    try:
        method, target, _version = request_line.decode("ascii").split()
    except ValueError as exc:
        raise ValueError(
            f"malformed request line {request_line!r}") from exc
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > _MAX_BODY:
        raise ValueError(f"request body too large ({length} bytes)")
    body = await reader.readexactly(length) if length else b""
    path, _, query = target.partition("?")
    return method, path, query, headers, body


def _scope(method: str, path: str, query: str, headers: dict,
           peer) -> dict:
    return {
        "type": "http",
        "asgi": {"version": "3.0", "spec_version": "2.3"},
        "http_version": "1.1",
        "method": method.upper(),
        "scheme": "http",
        "path": path,
        "raw_path": path.encode("utf-8"),
        "query_string": query.encode("utf-8"),
        "root_path": "",
        "headers": [(k.encode("latin-1"), v.encode("latin-1"))
                    for k, v in headers.items()],
        "client": peer,
        "server": None,
    }


async def _handle(app, reader: asyncio.StreamReader,
                  writer: asyncio.StreamWriter) -> None:
    try:
        try:
            parsed = await _read_request(reader)
        except (ValueError, asyncio.IncompleteReadError) as exc:
            writer.write(_status_line(400))
            writer.write(b"content-length: 0\r\nconnection: close\r\n\r\n")
            await writer.drain()
            del exc
            return
        if parsed is None:
            return
        method, path, query, headers, body = parsed
        scope = _scope(method, path, query, headers,
                       writer.get_extra_info("peername"))
        request_messages = [
            {"type": "http.request", "body": body, "more_body": False},
        ]

        async def receive():
            if request_messages:
                return request_messages.pop(0)
            return {"type": "http.disconnect"}

        state = {"started": False, "chunked": False}

        async def send(message):
            if message["type"] == "http.response.start":
                writer.write(_status_line(message["status"]))
                declared = dict(message.get("headers", []))
                for name, value in declared.items():
                    writer.write(name + b": " + value + b"\r\n")
                if b"content-length" not in declared:
                    state["chunked"] = True
                    writer.write(b"transfer-encoding: chunked\r\n")
                writer.write(b"connection: close\r\n\r\n")
                state["started"] = True
            elif message["type"] == "http.response.body":
                chunk = message.get("body", b"")
                if state["chunked"]:
                    if chunk:
                        writer.write(f"{len(chunk):x}\r\n".encode("ascii"))
                        writer.write(chunk + b"\r\n")
                    if not message.get("more_body", False):
                        writer.write(b"0\r\n\r\n")
                else:
                    writer.write(chunk)
                await writer.drain()

        try:
            await app(scope, receive, send)
        except Exception:
            if not state["started"]:
                writer.write(_status_line(500))
                writer.write(b"content-length: 0\r\n"
                             b"connection: close\r\n\r\n")
            await writer.drain()
    finally:
        with contextlib.suppress(ConnectionError, OSError):
            writer.close()
            await writer.wait_closed()


async def serve(app, host: str = "127.0.0.1", port: int = 8714):
    """Serve ``app`` forever on ``host:port`` (returns the server once
    listening; callers ``await server.serve_forever()``)."""
    return await asyncio.start_server(
        lambda r, w: _handle(app, r, w), host=host, port=port)


def run(app, host: str = "127.0.0.1", port: int = 8714) -> None:
    """Blocking entry point behind ``python -m repro.server``."""

    async def main():
        server = await serve(app, host=host, port=port)
        addresses = ", ".join(
            f"{sock.getsockname()[0]}:{sock.getsockname()[1]}"
            for sock in server.sockets)
        print(f"repro.server listening on http://{addresses}")
        async with server:
            await server.serve_forever()

    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(main())
