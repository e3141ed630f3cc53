"""Prometheus text exposition + a stdlib ``/metrics`` scrape endpoint.

The PR-3 telemetry layer is post-hoc: spans and metrics are exported
after ``solve()`` returns, which is useless for watching a multi-hour
solve *while it runs*.  This module renders the live
:class:`~repro.telemetry.metrics.MetricsRegistry` in the Prometheus text
exposition format (version 0.0.4) and serves it from a daemon-thread
``http.server`` so any scraper (Prometheus, ``curl``, the tests) can
watch counters move mid-solve.

* counters → ``counter`` samples (names sanitized: ``kernel.combos_scored``
  becomes ``repro_kernel_combos_scored``);
* gauges → ``gauge`` samples;
* histograms → ``summary``-style ``_count`` / ``_sum`` samples plus
  ``_min`` / ``_max`` gauges (the registry keeps moments, not buckets).

The endpoint reads whatever session is installed at scrape time, so
pool/SPMD workers feed it through the registry snapshots the engines
absorb as each chunk/rank result arrives — mid-iteration, not
end-of-run.  ``/healthz`` answers liveness probes with uptime JSON.

No external dependency: :class:`MetricsServer` is
``http.server.ThreadingHTTPServer`` on a daemon thread, and
:func:`validate_prometheus` is a strict format checker the test suite
runs against real scrapes.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = [
    "MetricsServer",
    "PROM_CONTENT_TYPE",
    "Response",
    "json_reply",
    "prometheus_name",
    "render_prometheus",
    "text_reply",
    "validate_prometheus",
]

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Largest request body any route reads (a gateway job spec is well
#: under a kilobyte); a larger declared ``Content-Length`` is a 413.
MAX_BODY_BYTES = 1 << 20

#: Seconds a connection may sit silent mid-request (or idle between
#: keep-alive requests) before its handler thread drops it.
REQUEST_TIMEOUT_S = 10.0

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$"
)


def prometheus_name(name: str) -> str:
    """Sanitize a registry metric name into a legal Prometheus name."""
    return "repro_" + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _fmt(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(metrics: "dict | object") -> str:
    """Render a registry (or its ``to_dict`` snapshot) as exposition text."""
    if hasattr(metrics, "to_dict"):
        metrics = metrics.to_dict()
    lines: list[str] = []
    for name in sorted(metrics.get("counters", {})):
        prom = prometheus_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_fmt(metrics['counters'][name])}")
    for name in sorted(metrics.get("gauges", {})):
        prom = prometheus_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_fmt(metrics['gauges'][name])}")
    for name in sorted(metrics.get("histograms", {})):
        h = metrics["histograms"][name]
        prom = prometheus_name(name)
        lines.append(f"# TYPE {prom} summary")
        lines.append(f"{prom}_count {_fmt(h['count'])}")
        lines.append(f"{prom}_sum {_fmt(h['total'])}")
        for stat in ("min", "max"):
            lines.append(f"# TYPE {prom}_{stat} gauge")
            lines.append(f"{prom}_{stat} {_fmt(h[stat])}")
    return "\n".join(lines) + "\n"


def validate_prometheus(text: str) -> int:
    """Strict exposition-format check; returns the sample count.

    Raises :class:`ValueError` on the first violation: unparseable
    sample line, a sample whose metric was not declared by a preceding
    ``# TYPE`` line (histogram ``_count``/``_sum`` ride their summary
    declaration), an unknown type keyword, or a duplicate declaration.
    """
    declared: dict[str, str] = {}
    n_samples = 0
    for i, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {i}: malformed TYPE declaration")
            _, _, name, kind = parts
            if kind not in ("counter", "gauge", "summary", "histogram", "untyped"):
                raise ValueError(f"line {i}: unknown metric type {kind!r}")
            if not _NAME_OK.match(name):
                raise ValueError(f"line {i}: illegal metric name {name!r}")
            if name in declared:
                raise ValueError(f"line {i}: duplicate declaration of {name}")
            declared[name] = kind
            continue
        if line.startswith("#"):
            continue  # HELP / comments
        m = _SAMPLE.match(line)
        if m is None:
            raise ValueError(f"line {i}: unparseable sample {line!r}")
        name = m.group(1)
        base = name
        for suffix in ("_count", "_sum", "_bucket"):
            if name.endswith(suffix) and name[: -len(suffix)] in declared:
                base = name[: -len(suffix)]
                break
        if base not in declared:
            raise ValueError(f"line {i}: sample {name!r} missing TYPE declaration")
        n_samples += 1
    return n_samples


class Response:
    """A route's reply: status + content type + encoded body.

    ``json_reply`` / ``text_reply`` are the idiomatic constructors; the
    gateway's ``/v1`` routes add headers (``Retry-After`` on 429)
    through ``headers``.
    """

    __slots__ = ("status", "ctype", "body", "headers")

    def __init__(
        self,
        status: int,
        ctype: str,
        body: bytes,
        headers: "dict[str, str] | None" = None,
    ) -> None:
        self.status = status
        self.ctype = ctype
        self.body = body
        self.headers = headers or {}


def json_reply(
    status: int, payload: dict, headers: "dict[str, str] | None" = None
) -> Response:
    return Response(
        status, "application/json",
        (json.dumps(payload) + "\n").encode(), headers,
    )


def text_reply(status: int, text: str) -> Response:
    return Response(status, "text/plain; charset=utf-8", text.encode())


class _Handler(BaseHTTPRequestHandler):
    """Thin dispatcher into the owning server's route table.

    Subclass-friendly by construction: routes live on the *server*
    (:meth:`_Server.build_routes`), so mounting new endpoints (the
    gateway's ``/v1/*``) means subclassing :class:`_Server`, not
    re-implementing ``do_GET``.

    ``timeout`` (:data:`REQUEST_TIMEOUT_S`) bounds every socket read: a
    client that stalls mid-body times out, and ``handle_one_request``
    closes its connection.
    """

    def setup(self) -> None:
        self.timeout = REQUEST_TIMEOUT_S  # read per connection
        super().setup()

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        path, _, query = self.path.partition("?")
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self._refuse(400, "malformed Content-Length")
            return
        if int(declared) > MAX_BODY_BYTES:
            self._refuse(413, f"body over {MAX_BODY_BYTES} bytes")
            return
        body = self.rfile.read(int(declared))
        if len(body) < int(declared):
            # The client closed before sending its whole body: a
            # truncated request is never routed, nor answered.
            self.close_connection = True
            return
        try:
            resp = self.server.route(method, path, body, query)
        except Exception as exc:  # route bug: answer 500, keep serving
            resp = json_reply(500, {"error": f"{type(exc).__name__}: {exc}"})
        self._reply(resp)

    def _refuse(self, status: int, error: str) -> None:
        # The body stays unread, so the connection cannot carry another
        # request.
        self.close_connection = True
        self._reply(json_reply(status, {"error": error}))

    def _reply(self, resp: Response) -> None:
        self.send_response(resp.status)
        self.send_header("Content-Type", resp.ctype)
        self.send_header("Content-Length", str(len(resp.body)))
        for key, value in resp.headers.items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(resp.body)

    def log_message(self, *args) -> None:  # silence per-request stderr spam
        pass


class _Server(ThreadingHTTPServer):
    """The route-table HTTP server behind :class:`MetricsServer`.

    ``allow_reuse_address`` sets ``SO_REUSEADDR`` before bind, so rapid
    start/stop cycles (every test, the CI smoke jobs) never trip over a
    socket lingering in ``TIME_WAIT``.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, addr, telemetry):
        super().__init__(addr, _Handler)
        self._telemetry = telemetry
        self.started_at = time.monotonic()
        self.routes = self.build_routes()

    def build_routes(self) -> "list[tuple[str, re.Pattern, object]]":
        """``(method, compiled path pattern, fn(match, body, query))``.

        Subclasses extend the returned list to mount endpoints beside
        ``/metrics`` — first match wins, declaration order is precedence.
        """
        return [
            ("GET", re.compile(r"^/metrics$"), self._route_metrics),
            ("GET", re.compile(r"^/healthz$"), self._route_healthz),
        ]

    def route(self, method: str, path: str, body: bytes, query: str) -> Response:
        matched_path = False
        for want_method, pattern, fn in self.routes:
            match = pattern.match(path)
            if match is None:
                continue
            matched_path = True
            if want_method == method:
                return fn(match, body, query)
        if matched_path:
            return json_reply(405, {"error": f"method {method} not allowed"})
        return text_reply(404, "not found\n")

    # -- built-in routes ----------------------------------------------

    def _route_metrics(self, match, body, query) -> Response:
        return Response(200, PROM_CONTENT_TYPE, self.render().encode())

    def _route_healthz(self, match, body, query) -> Response:
        return json_reply(
            200,
            {
                "status": "ok",
                "uptime_s": round(time.monotonic() - self.started_at, 3),
            },
        )

    def render(self) -> str:
        from repro.telemetry.session import get_telemetry

        telemetry = self._telemetry or get_telemetry()
        return render_prometheus(telemetry.metrics)


class MetricsServer:
    """A ``/metrics`` + ``/healthz`` endpoint on a daemon thread.

    ``telemetry=None`` scrapes whatever session is installed at request
    time (the right default for the CLI); pass a session explicitly to
    pin the endpoint to one run.  ``port=0`` binds an ephemeral port
    (read it back from ``.port`` — what the tests do).  Use as a context
    manager or call :meth:`start` / :meth:`stop` — ``stop()`` is
    idempotent and safe before ``start()``.

    Subclasses override :attr:`server_class` (and :meth:`_make_server`)
    to serve extra routes on the same socket; the gateway
    (:class:`repro.service.http.GatewayServer`) mounts ``/v1/*`` beside
    the scrape endpoints this way.
    """

    server_class = _Server

    def __init__(
        self,
        telemetry=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.telemetry = telemetry
        self.host = host
        self.port = port
        self._server: "_Server | None" = None
        self._thread: "threading.Thread | None" = None

    def _make_server(self) -> _Server:
        return self.server_class((self.host, self.port), self.telemetry)

    def start(self) -> "MetricsServer":
        if self._server is not None:
            return self
        self._server = self._make_server()
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down; a no-op when not (or no longer) running."""
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
