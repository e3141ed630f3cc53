"""The gateway's HTTP layer: one route-table server, and the job API on it.

:class:`HttpServer` serves a list of ``(method, path regex, fn)``
routes from a stdlib ``ThreadingHTTPServer`` on a daemon thread, and
checks each request's framing before any route sees it.

:func:`metrics_routes` are the scrape endpoints, ``/metrics`` (the live
registry in Prometheus text, :mod:`repro.telemetry.prom`) and
``/healthz``.  :class:`MetricsServer` serves just those (``multihit
solve --prom-port``); :class:`Gateway` serves them beside its job API
on one socket:

====== ============================ ==========================================
method path                         behavior
====== ============================ ==========================================
POST   ``/v1/jobs``                 submit a cohort -> ``202`` + job id
                                    (``400`` malformed, ``429`` + Retry-After
                                    when the queue/tenant quota rejects)
GET    ``/v1/jobs``                 list jobs (``?tenant=`` / ``?state=``)
GET    ``/v1/jobs/<id>``            lifecycle + progress/ETA
GET    ``/v1/jobs/<id>/result``     the solve result (``409`` until terminal)
GET    ``/v1/jobs/<id>/trace``      causal analysis of the job's trace
                                    (``409`` until written)
DELETE ``/v1/jobs/<id>``            cancel (queued: instant; running: within
                                    one solver iteration)
GET    ``/metrics``                 gateway-wide Prometheus exposition
                                    (``job.*`` lifecycle + merged counters)
GET    ``/healthz``                 liveness + queue/runner snapshot
====== ============================ ==========================================

Submission body (JSON)::

    {
      "tenant": "team-a",
      "cohort": {"n_genes": 32, "n_tumor": 90, "n_normal": 90,
                 "hits": 3, "seed": 7},          # or {"dataset": "name"}
      "solver": {"hits": 3, "prune": true}        # optional knobs/pins
    }

:class:`Gateway` is the composition root: it builds the job store
(the one record of every job, and the queue with its admission limits)
and the runner (which sizes each job with the one dispatch rule,
:func:`repro.service.dispatch.decide`), recovers interrupted jobs from a
previous process (non-terminal jobs are re-queued, whatever the limits
it boots under; their per-job checkpoints turn the re-run into a
resume), and serves until stopped.  The Python API
(:meth:`Gateway.submit` / :meth:`Gateway.cancel`) is the same code path
the HTTP routes call — the tests drive both.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs

from repro.core.solver import MultiHitSolver
from repro.data.registry import dataset_names
from repro.data.synthesis import CohortConfig
from repro.service.jobs import AdmissionError, Job, JobState, JobStore
from repro.service.runner import JobRunner
from repro.telemetry.prom import PROM_CONTENT_TYPE, render_prometheus
from repro.telemetry.session import Telemetry, get_telemetry

__all__ = [
    "Gateway",
    "HttpServer",
    "MetricsServer",
    "metrics_routes",
    "validate_spec",
]

#: Largest request body any route reads (a gateway job spec is well
#: under a kilobyte); a larger declared ``Content-Length`` is a 413.
MAX_BODY_BYTES = 1 << 20

#: Seconds a connection may sit silent mid-request (or idle between
#: keep-alive requests) before its handler thread drops it.
REQUEST_TIMEOUT_S = 10.0

#: How often the serving thread checks for :meth:`HttpServer.stop`;
#: ``stop`` waits up to this long (``serve_forever``'s default is 0.5 s).
SHUTDOWN_POLL_S = 0.05


@dataclass
class Response:
    """A route's reply; ``headers`` are extras (``Retry-After`` on a 429)."""

    status: int
    ctype: str
    body: bytes
    headers: "dict[str, str]" = field(default_factory=dict)


def json_reply(
    status: int, payload: dict, headers: "dict[str, str] | None" = None
) -> Response:
    return Response(
        status, "application/json",
        (json.dumps(payload) + "\n").encode(), headers or {},
    )


class _Handler(BaseHTTPRequestHandler):
    """Frames one request and hands it to the server's ``route``.

    A malformed ``Content-Length`` is a 400 and one over
    :data:`MAX_BODY_BYTES` a 413, both with the body unread; a body cut
    short is dropped unanswered; a route that raises is a 500.
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


class HttpServer:
    """A route table served from a daemon-thread ``ThreadingHTTPServer``.

    ``routes`` is a list of ``(method, path regex, fn)``; ``fn(match,
    body, query)`` returns a :class:`Response`.  The first route whose
    pattern and method match answers; a path some route matches under
    another method is a 405, any other a 404.  ``port=0`` binds an ephemeral port (read it back from
    ``.port``).  Use as a context manager or call :meth:`start` /
    :meth:`stop`; ``stop()`` is idempotent and safe before ``start()``,
    and the server may be started again after it.
    """

    def __init__(self, routes, host: str = "127.0.0.1", port: int = 0) -> None:
        self.routes = [(method, re.compile(path), fn) for method, path, fn in routes]
        self.host = host
        self.port = port
        self._httpd: "ThreadingHTTPServer | None" = None
        self._thread: "threading.Thread | None" = None

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
        return Response(404, "text/plain; charset=utf-8", b"not found\n")

    def start(self) -> "HttpServer":
        if self._httpd is not None:
            return self
        # The stdlib defaults already give daemon handler threads and
        # SO_REUSEADDR (quick rebinds never trip over TIME_WAIT).
        self._httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        self._httpd.route = self.route
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            args=(SHUTDOWN_POLL_S,),
            name="repro-http-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down; a no-op when not (or no longer) running."""
        httpd, self._httpd = self._httpd, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "HttpServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def metrics_routes(telemetry=None, health=None) -> list:
    """``/metrics`` and ``/healthz`` as routes for an :class:`HttpServer`.

    ``telemetry=None`` scrapes whatever session is installed at request
    time; pass a session to pin the endpoint to one run.  ``/healthz``
    answers ``{"status": "ok", "uptime_s": ...}`` (uptime since this
    call), plus the fields ``health()`` returns when given.
    """
    started_at = time.monotonic()

    def scrape(match, body, query) -> Response:
        text = render_prometheus((telemetry or get_telemetry()).metrics)
        return Response(200, PROM_CONTENT_TYPE, text.encode())

    def healthz(match, body, query) -> Response:
        payload = {
            "status": "ok",
            "uptime_s": round(time.monotonic() - started_at, 3),
        }
        if health is not None:
            payload.update(health())
        return json_reply(200, payload)

    return [("GET", r"^/metrics$", scrape), ("GET", r"^/healthz$", healthz)]


class MetricsServer(HttpServer):
    """Just the scrape endpoints (:func:`metrics_routes`) on a daemon thread."""

    def __init__(
        self,
        telemetry=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(metrics_routes(telemetry), host, port)


#: The gateway's one list of cohort keys — a registry ``dataset`` name or
#: tenant-settable :class:`CohortConfig` fields — with their JSON types.
_ALLOWED_COHORT_KEYS = {
    "dataset": str, "n_genes": int, "n_tumor": int, "n_normal": int,
    "hits": int, "seed": int, "n_driver_combos": int,
    "driver_penetrance": float, "sporadic_fraction": float,
}
#: The gateway's one list of solver keys: each tenant-settable
#: :class:`MultiHitSolver` field and its JSON type.
_ALLOWED_SOLVER_KEYS = {
    "hits": int, "alpha": float, "backend": str, "n_workers": int,
    "n_nodes": int, "prune": bool, "elastic": bool, "max_iterations": int,
}


def _check_keys(section: str, values: dict, allowed: dict) -> None:
    """Every key of ``values`` is on the allow-list at its JSON type."""
    unknown = values.keys() - allowed.keys()
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    for key, value in values.items():
        want = allowed[key]
        # bool is an int subclass and an int is a valid JSON float.
        if type(value) is not want and (want, type(value)) != (float, int):
            raise ValueError(
                f"{section}.{key} must be {want.__name__}, "
                f"got {type(value).__name__}"
            )


def validate_spec(payload: dict) -> tuple[str, dict]:
    """Validate a submission body; returns ``(tenant, spec)``.

    Raises :class:`ValueError` with a client-readable message (-> 400).
    Validation is allow-listed: unknown keys are rejected rather than
    silently dropped, so a typo'd knob fails loudly at submit time
    instead of quietly solving the wrong problem.  Values are checked by
    type here and by range where they are declared — the cohort's in
    ``CohortConfig.__post_init__``, the solver's in
    ``MultiHitSolver.__post_init__`` (which is also where an ``elastic``
    spec without a pinned ``backend`` that supports it is refused) — so
    a spec that is stored is one its job can run.
    """
    if not isinstance(payload, dict):
        raise ValueError("body must be a JSON object")
    tenant = payload.get("tenant", "anonymous")
    if not isinstance(tenant, str) or not tenant or len(tenant) > 128:
        raise ValueError("tenant must be a non-empty string (<= 128 chars)")
    cohort = payload.get("cohort")
    if not isinstance(cohort, dict) or not cohort:
        raise ValueError("cohort must be a non-empty object")
    _check_keys("cohort", cohort, _ALLOWED_COHORT_KEYS)
    if "dataset" in cohort:
        if cohort["dataset"] not in dataset_names():
            raise ValueError(f"cohort.dataset must be one of {dataset_names()}")
    else:
        for key in ("n_genes", "n_tumor", "n_normal"):
            if cohort.get(key, 0) < 1:
                raise ValueError(f"cohort.{key} must be a positive integer")
        if cohort["n_genes"] > 4096:
            raise ValueError("cohort.n_genes over the service limit (4096)")
        try:
            CohortConfig(**cohort)
        except ValueError as exc:
            raise ValueError(f"cohort: {exc}") from None
    solver = payload.get("solver", {})
    if not isinstance(solver, dict):
        raise ValueError("solver must be an object")
    _check_keys("solver", solver, _ALLOWED_SOLVER_KEYS)
    try:
        MultiHitSolver(**solver)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"solver: {exc}") from None
    return tenant, {"cohort": cohort, "solver": solver}


class Gateway:
    """Composition root: job store + dispatch + runner + HTTP server."""

    def __init__(
        self,
        state_dir: "str | Path",
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrent: int = 2,
        max_workers: int = 8,
        queue_depth: int = 32,
        tenant_quota: int = 8,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.telemetry = telemetry or Telemetry(enabled=True)
        self.store = JobStore(
            self.state_dir, depth=queue_depth, tenant_quota=tenant_quota
        )
        self.runner = JobRunner(
            store=self.store,
            state_dir=self.state_dir,
            telemetry=self.telemetry,
            max_concurrent=max_concurrent,
            max_workers=max_workers,
        )
        one_job = r"^/v1/jobs/(?P<job_id>[\w-]+)"
        self.server = HttpServer(
            metrics_routes(self.telemetry, health=self._health) + [
                ("POST", r"^/v1/jobs$", self._route_submit),
                ("GET", r"^/v1/jobs$", self._route_list),
                ("GET", one_job + "/result$", self._route_result),
                ("GET", one_job + "/trace$", self._route_trace),
                ("GET", one_job + "$", self._route_status),
                ("DELETE", one_job + "$", self._route_cancel),
            ],
            host,
            port,
        )
        self._recovered = self._recover()

    # -- lifecycle -----------------------------------------------------

    def _recover(self) -> int:
        """Re-queue jobs interrupted by a previous gateway's death.

        Non-terminal jobs (``queued`` / ``admitted`` / ``running``) go
        back to the queue in their original submission order, without
        an admission check: a gateway rebooted under tighter limits
        runs them all, and answers new submissions 429 until the
        backlog drains.  Their per-job checkpoint files make the re-run
        resume mid-cover.
        """
        recovered = 0
        for job in self.store.jobs():
            if job.terminal:
                continue
            if job.cancel_requested:
                self.store.transition(job.job_id, JobState.CANCELLED)
                self.telemetry.count("job.cancelled")
                continue
            self.store.requeue(job.job_id)
            self.telemetry.count("job.recovered")
            recovered += 1
        return recovered

    def start(self) -> "Gateway":
        self.runner.start()
        self.server.start()
        return self

    def stop(self) -> None:
        self.server.stop()
        self.runner.stop()

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def port(self) -> int:
        return self.server.port

    # -- the Python API (HTTP routes call these) -----------------------

    def submit(self, payload: dict) -> Job:
        """Validate + admit + enqueue; raises ValueError/AdmissionError."""
        tenant, spec = validate_spec(payload)
        try:
            job = self.store.new_job(tenant, spec)
        except AdmissionError:
            self.telemetry.count("job.rejected")
            raise
        self.telemetry.count("job.submitted")
        return job

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; returns whether the request landed.

        A still-queued job is cancelled immediately (never runs); a
        running one stops within one solver iteration.  Terminal jobs
        are not cancellable.
        """
        state = self.store.cancel(job_id)
        if state is None:
            return False
        self.telemetry.count(
            "job.cancelled" if state == JobState.CANCELLED
            else "job.cancel_requested"
        )
        return True

    def job(self, job_id: str) -> "Job | None":
        return self.store.get(job_id)

    def jobs(self, tenant=None, state=None) -> list[Job]:
        return self.store.jobs(tenant=tenant, state=state)

    def wait(
        self, job_ids, timeout: float = 60.0, poll_s: float = 0.05
    ) -> list[Job]:
        """Block until the given jobs are terminal (testing/CLI helper)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            jobs = [self.store.get(j) for j in job_ids]
            if all(j is not None and j.terminal for j in jobs):
                return jobs
            time.sleep(poll_s)
        raise TimeoutError(
            f"jobs not terminal after {timeout}s: "
            f"{[(j.job_id, j.state) for j in jobs if j is not None and not j.terminal]}"
        )

    def _health(self) -> dict:
        return {
            "jobs": len(self.store),
            "backlog": self.store.backlog,
            "in_flight": self.store.in_flight,
            "running": self.store.running,
        }

    # -- /v1 routes ----------------------------------------------------

    def _route_submit(self, match, body, query) -> Response:
        try:
            payload = json.loads(body or b"{}")
        except (
            json.JSONDecodeError, UnicodeDecodeError, RecursionError
        ) as exc:  # malformed, not UTF-8/16/32, or nested too deep
            return json_reply(
                400, {"error": f"invalid JSON: {type(exc).__name__}: {exc}"}
            )
        try:
            job = self.submit(payload)
        except AdmissionError as exc:
            return json_reply(
                429,
                {"error": str(exc)},
                headers={"Retry-After": str(int(exc.retry_after_s) or 1)},
            )
        except ValueError as exc:
            return json_reply(400, {"error": str(exc)})
        return json_reply(
            202,
            {
                "job_id": job.job_id,
                "state": job.state,
                "url": f"/v1/jobs/{job.job_id}",
            },
        )

    def _route_list(self, match, body, query) -> Response:
        params = parse_qs(query)
        jobs = self.jobs(
            tenant=params.get("tenant", [None])[0],
            state=params.get("state", [None])[0],
        )
        return json_reply(200, {"jobs": [j.summary() for j in jobs]})

    def _route_status(self, match, body, query) -> Response:
        job = self.job(match.group("job_id"))
        if job is None:
            return json_reply(404, {"error": "unknown job"})
        return json_reply(200, job.summary())

    def _route_result(self, match, body, query) -> Response:
        job = self.job(match.group("job_id"))
        if job is None:
            return json_reply(404, {"error": "unknown job"})
        if not job.terminal:
            return json_reply(
                409, {"error": f"job is {job.state}, result not ready"}
            )
        if job.result is None:
            return json_reply(
                409, {"error": f"job {job.state} without result", "detail": job.error}
            )
        return json_reply(
            200, {"job_id": job.job_id, "state": job.state, "result": job.result}
        )

    def _route_trace(self, match, body, query) -> Response:
        """Causal analysis of a finished job's trace.

        Serves the critical path + per-bucket time attribution computed
        from ``traces/<job id>.jsonl`` (written by the runner on every
        job exit path).  ``?spans=1`` includes the raw span dicts.
        """
        job = self.job(match.group("job_id"))
        if job is None:
            return json_reply(404, {"error": "unknown job"})
        trace_path = self.state_dir / "traces" / f"{job.job_id}.jsonl"
        if not trace_path.exists():
            return json_reply(
                409,
                {
                    "error": f"job is {job.state}, trace not written yet",
                    "trace_id": job.trace_id,
                },
            )
        from repro.telemetry.critpath import analyze_trace, load_trace

        spans = load_trace(trace_path)
        report = analyze_trace(spans)
        payload = {
            "job_id": job.job_id,
            "state": job.state,
            "trace_id": job.trace_id,
            "report": report,
        }
        params = parse_qs(query)
        if params.get("spans", ["0"])[0] in ("1", "true"):
            payload["spans"] = spans
        else:
            # The full segment list can be large; the default response
            # keeps the headline numbers and top segments only.
            payload["report"] = dict(report)
            payload["report"]["critical_path"] = {
                k: v
                for k, v in report["critical_path"].items()
                if k != "segments"
            }
        return json_reply(200, payload)

    def _route_cancel(self, match, body, query) -> Response:
        job_id = match.group("job_id")
        job = self.job(job_id)
        if job is None:
            return json_reply(404, {"error": "unknown job"})
        if job.terminal:
            return json_reply(
                409, {"error": f"job already terminal ({job.state})"}
            )
        self.cancel(job_id)
        return json_reply(
            202, {"job_id": job_id, "state": self.job(job_id).state}
        )
