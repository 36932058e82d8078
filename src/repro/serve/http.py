"""Minimal asyncio HTTP/1.1 layer for the job server — stdlib only.

The job server needs exactly four things from HTTP: parse a request line
plus headers plus an optional ``Content-Length`` body, route it by method
and path pattern, write a fixed-length JSON response, and stream a
chunked-transfer body for the progress endpoint. This module provides
those four things over :mod:`asyncio` streams and nothing else — no
keep-alive pipelining, no TLS, no compression. Every connection serves
one request and closes (``Connection: close``), which every stdlib and
curl-style client handles.

Kept deliberately separate from the job-server logic so the routing and
handlers in :mod:`repro.serve.server` stay testable without sockets.

:class:`App` is the one shell both HTTP job planes (``repro serve`` and
the fleet broker) are built on: a router behind a listening socket, plus
the ``/metrics`` route they share. :func:`run_app` is the one
SIGTERM/SIGINT loop that runs either as a blocking command.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, AsyncIterator, Awaitable, Callable, Dict, List, Optional,
    Tuple,
)
from urllib.parse import parse_qs, unquote, urlsplit

if TYPE_CHECKING:
    from repro.exec.cache import ResultCache
    from repro.serve.metrics import PlaneMetrics

__all__ = ["App", "HttpError", "Request", "Response", "Router", "run_app",
           "serve_connection"]

#: Request bodies above this are rejected with 413 — a job submission is a
#: small JSON document; anything bigger is a client bug or abuse.
MAX_BODY_BYTES = 1 << 20
MAX_HEADER_BYTES = 32 * 1024


class HttpError(Exception):
    """Raise inside a handler to produce a non-200 JSON error response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


_REASONS = {
    200: "OK", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    409: "Conflict", 413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, List[str]]
    headers: Dict[str, str]          # keys lower-cased
    body: bytes = b""
    #: Path parameters captured by the matched route pattern.
    params: Dict[str, str] = field(default_factory=dict)

    def json(self) -> Dict:
        """Decode the body as a JSON object (400 on anything else)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise HttpError(400, f"invalid JSON body: {e}") from None
        if not isinstance(payload, dict):
            raise HttpError(400, "JSON body must be an object")
        return payload

    def first(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """First query-string value for ``key``."""
        vals = self.query.get(key)
        return vals[0] if vals else default


@dataclass
class Response:
    """A fixed-length response, or a chunked stream when ``stream`` is set."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)
    #: Async iterator of byte chunks; when set the response is sent with
    #: ``Transfer-Encoding: chunked`` and ``body`` is ignored.
    stream: Optional[AsyncIterator[bytes]] = None

    @classmethod
    def json(cls, payload: Dict, status: int = 200) -> "Response":
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        return cls(status=status, body=body)

    @classmethod
    def text(cls, text: str, status: int = 200,
             content_type: str = "text/plain; charset=utf-8") -> "Response":
        return cls(status=status, body=text.encode("utf-8"),
                   content_type=content_type)


Handler = Callable[[Request], Awaitable[Response]]


class Router:
    """Method + path-pattern dispatch; ``{name}`` segments capture params."""

    def __init__(self) -> None:
        self._routes: List[Tuple[str, "re.Pattern[str]", Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        regex = "^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", pattern) + "$"
        self._routes.append((method.upper(), re.compile(regex), handler))

    def resolve(self, method: str, path: str) -> Tuple[Handler, Dict[str, str]]:
        """Find the handler for a request (404 / 405 raised as HttpError)."""
        path_matched = False
        for meth, regex, handler in self._routes:
            m = regex.match(path)
            if not m:
                continue
            path_matched = True
            if meth == method.upper():
                return handler, {k: unquote(v)
                                 for k, v in m.groupdict().items()}
        if path_matched:
            raise HttpError(405, f"method {method} not allowed for {path}")
        raise HttpError(404, f"no route for {path}")


async def _read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on a closed connection."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as e:
        if not e.partial:
            return None                      # client closed before sending
        raise HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request head too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            raise HttpError(400, f"malformed header line: {line!r}")
        key, value = line.split(":", 1)
        headers[key.strip().lower()] = value.strip()
    split = urlsplit(target)
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            raise HttpError(400, f"bad Content-Length: {length!r}") from None
        if n > MAX_BODY_BYTES:
            raise HttpError(413, f"body of {n} bytes exceeds the "
                                 f"{MAX_BODY_BYTES}-byte limit")
        if n:
            body = await reader.readexactly(n)
    return Request(method=method, path=unquote(split.path),
                   query=parse_qs(split.query), headers=headers, body=body)


def _head(status: int, content_type: str, extra: Dict[str, str],
          length: Optional[int]) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}",
             "Connection: close"]
    if length is None:
        lines.append("Transfer-Encoding: chunked")
    else:
        lines.append(f"Content-Length: {length}")
    for k, v in extra.items():
        lines.append(f"{k}: {v}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def _write_response(writer: asyncio.StreamWriter,
                          resp: Response) -> None:
    if resp.stream is None:
        writer.write(_head(resp.status, resp.content_type, resp.headers,
                           len(resp.body)))
        writer.write(resp.body)
        await writer.drain()
        return
    writer.write(_head(resp.status, resp.content_type, resp.headers, None))
    await writer.drain()
    async for chunk in resp.stream:
        if not chunk:
            continue
        writer.write(f"{len(chunk):x}\r\n".encode("latin-1"))
        writer.write(chunk)
        writer.write(b"\r\n")
        await writer.drain()
    writer.write(b"0\r\n\r\n")
    await writer.drain()


async def serve_connection(router: Router, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter,
                           on_request: Callable[[Request, Response], None],
                           ) -> None:
    """Serve one request on one connection, then close it.

    Handler exceptions become 500s; :class:`HttpError` carries its own
    status. ``on_request`` observes every completed exchange — the job
    server uses it to count HTTP status classes.
    """
    req: Optional[Request] = None
    try:
        try:
            req = await _read_request(reader)
            if req is None:
                return
            handler, params = router.resolve(req.method, req.path)
            req.params = params
            resp = await handler(req)
        except HttpError as e:
            resp = Response.json({"error": e.message}, status=e.status)
        except asyncio.CancelledError:
            raise
        except Exception as e:                   # pragma: no cover - defensive
            resp = Response.json(
                {"error": f"internal error: {type(e).__name__}: {e}"},
                status=500)
        if req is not None:
            on_request(req, resp)
        await _write_response(writer, resp)
    except (ConnectionError, asyncio.IncompleteReadError):
        pass                                     # client went away mid-write
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class App:
    """One HTTP plane: a :class:`Router` behind a listening socket.

    The shell serves ``GET /metrics`` from the plane's ``metrics`` (and
    the result-cache counters it lifts at scrape time); subclasses add
    their own routes to :attr:`router` and may extend :meth:`start`.
    """

    def __init__(self, metrics: "PlaneMetrics",
                 cache: Optional["ResultCache"]) -> None:
        self.metrics = metrics
        self.cache = cache
        self.router = Router()
        self.router.add("GET", "/metrics", self.handle_metrics)
        self._server: Optional[asyncio.base_events.Server] = None

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.base_events.Server:
        """Bind the listening socket (``port=0`` picks a free one)."""
        self._server = await asyncio.start_server(
            self._on_connection, host=host, port=port)
        return self._server

    @property
    def port(self) -> int:
        assert self._server is not None, "start() first"
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    def on_request(self, req: Request, resp: Response) -> None:
        """Observe one completed exchange (a no-op here)."""

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        await serve_connection(self.router, reader, writer, self.on_request)

    async def handle_metrics(self, req: Request) -> Response:
        return Response.text(self.metrics.render(self.cache),
                             content_type="text/plain; version=0.0.4; "
                                          "charset=utf-8")


def run_app(app: App, host: str, port: int, banner: Callable[[], str],
            stop: Callable[[], Awaitable[None]]) -> int:
    """Serve ``app`` until SIGTERM or SIGINT; returns the exit code, 0.

    Starts the app, prints ``banner()`` once it listens, and on the first
    signal awaits ``stop()``, which closes and drains the app.
    """

    async def main() -> int:
        await app.start(host=host, port=port)
        signalled = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, signalled.set)
        print(banner(), flush=True)
        await signalled.wait()
        await stop()
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        return 0
