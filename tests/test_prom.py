"""Tests for the Prometheus exposition renderer and /metrics endpoint.

* rendered text passes the strict exposition-format validator;
* name sanitization produces legal Prometheus identifiers;
* the endpoint serves /metrics and /healthz from a daemon thread;
* a scrape taken *mid-solve* (pool backend) observes the live
  ``progress.combos_scored`` counter moving monotonically — the
  liveness property the per-chunk feed exists for.
"""

import json
import socket
import threading
import urllib.request

import pytest

from repro.core.solver import MultiHitSolver
from repro.service import MetricsServer
from repro.service.http import MAX_BODY_BYTES, HttpServer, metrics_routes
from repro.telemetry import (
    MetricsRegistry,
    Telemetry,
    render_prometheus,
    telemetry_session,
    validate_prometheus,
)
from repro.telemetry.prom import PROM_CONTENT_TYPE, prometheus_name


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read().decode()


class TestRender:
    def test_names_sanitized(self):
        assert prometheus_name("kernel.combos_scored") == (
            "repro_kernel_combos_scored"
        )
        assert prometheus_name("spmd.heartbeat_stale_s.max") == (
            "repro_spmd_heartbeat_stale_s_max"
        )
        assert prometheus_name("weird metric-name!") == "repro_weird_metric_name_"

    def test_all_metric_types_render_and_validate(self):
        reg = MetricsRegistry()
        reg.inc("kernel.combos_scored", 42)
        reg.set_gauge("progress.fraction", 0.875)
        reg.observe("job.wall_s", 0.5)
        reg.observe("job.wall_s", 1.5)
        text = render_prometheus(reg)
        n = validate_prometheus(text)
        assert n == 6  # counter + gauge + summary(count,sum) + min + max
        assert "# TYPE repro_kernel_combos_scored counter" in text
        assert "repro_kernel_combos_scored 42" in text
        assert "repro_job_wall_s_count 2" in text
        assert "repro_job_wall_s_sum 2" in text
        assert "repro_job_wall_s_max 1.5" in text

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError, match="missing TYPE"):
            validate_prometheus("undeclared_sample 1\n")
        with pytest.raises(ValueError, match="unknown metric type"):
            validate_prometheus("# TYPE x bogus\nx 1\n")
        with pytest.raises(ValueError, match="duplicate"):
            validate_prometheus("# TYPE x counter\n# TYPE x counter\nx 1\n")
        with pytest.raises(ValueError, match="unparseable"):
            validate_prometheus("# TYPE x counter\nx one two\n")


class TestEndpoint:
    def test_metrics_and_healthz(self):
        tel = Telemetry()
        tel.count("kernel.combos_scored", 7)
        with MetricsServer(telemetry=tel) as server:
            status, ctype, body = _get(server.url + "/metrics")
            assert status == 200 and ctype == PROM_CONTENT_TYPE
            assert validate_prometheus(body) > 0
            assert "repro_kernel_combos_scored 7" in body

            status, ctype, body = _get(server.url + "/healthz")
            assert status == 200 and ctype.startswith("application/json")
            health = json.loads(body)
            assert health["status"] == "ok" and health["uptime_s"] >= 0

            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/nope")
            assert err.value.code == 404

    def test_default_session_resolved_at_scrape_time(self):
        with MetricsServer() as server:
            with telemetry_session() as tel:
                tel.count("late.counter", 3)
                _, _, body = _get(server.url + "/metrics")
            assert "repro_late_counter 3" in body

    def test_ephemeral_port_assigned(self):
        server = MetricsServer(port=0).start()
        try:
            assert server.port != 0
        finally:
            server.stop()


class TestMidSolveScrape:
    def test_pool_solve_scrape_is_monotonic(self, small_matrices):
        """Scrapes taken while the pool backend solves must observe
        ``repro_progress_combos_scored`` strictly increasing to its
        final value — workers feed the registry per chunk, not at
        end of run."""
        t, n, _ = small_matrices
        readings: list[int] = []
        errors: list[Exception] = []
        stop = threading.Event()

        def scrape_loop(url: str) -> None:
            import re

            pat = re.compile(r"^repro_progress_combos_scored (\d+)$", re.M)
            while not stop.is_set():
                try:
                    _, _, body = _get(url + "/metrics")
                    validate_prometheus(body)
                    m = pat.search(body)
                    if m:
                        readings.append(int(m.group(1)))
                except Exception as exc:  # pragma: no cover - fail the test
                    errors.append(exc)
                    return
                stop.wait(0.002)

        with telemetry_session() as tel:
            with MetricsServer(telemetry=tel) as server:
                scraper = threading.Thread(
                    target=scrape_loop, args=(server.url,), daemon=True
                )
                scraper.start()
                result = MultiHitSolver(
                    hits=2, backend="pool", n_workers=2
                ).solve(t, n)
                stop.set()
                scraper.join(timeout=10)
            final = tel.metrics.to_dict()["counters"]["progress.combos_scored"]

        assert not errors
        assert readings, "scraper never saw the progress counter"
        assert readings == sorted(readings), "scrape went backwards"
        assert readings[-1] <= final
        # The live feed means the counter was visible before the end:
        # at least one scrape caught an intermediate (non-final) value,
        # and the total matches the solver's own accounting.
        assert final == result.counters.combos_scored
        assert readings[0] < final


class TestElasticScrape:
    def test_scrape_after_elastic_distributed_solve_validates(
        self, small_matrices
    ):
        """The lease ledger's counters must not collide with any other
        series: one name, one type, one ``# TYPE`` line."""
        t, n, _ = small_matrices
        with telemetry_session() as tel:
            MultiHitSolver(
                hits=2, backend="distributed", n_nodes=2, elastic=True
            ).solve(t, n)
            with MetricsServer(telemetry=tel) as server:
                status, _, body = _get(server.url + "/metrics")
        assert status == 200
        assert validate_prometheus(body) > 0
        assert "# TYPE repro_lease_completed counter" in body


class TestServerLifecycle:
    def test_stop_is_idempotent(self):
        server = MetricsServer().start()
        server.stop()
        server.stop()  # second stop: no-op, no error

    def test_stop_before_start_is_a_noop(self):
        MetricsServer().stop()

    def test_rapid_start_stop_cycles(self):
        """SO_REUSEADDR keeps quick rebinds from tripping on TIME_WAIT."""
        server = MetricsServer()
        for _ in range(5):
            server.start()
            status, _, _ = _get(server.url + "/healthz")
            assert status == 200
            server.stop()

    def test_wrong_method_is_405(self):
        with MetricsServer() as server:
            req = urllib.request.Request(
                server.url + "/metrics", data=b"{}", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=5)
            assert err.value.code == 405

    @pytest.mark.parametrize(
        "length,status",
        [("abc", 400), ("-1", 400), ("1_0", 400), ("100000000000", 413)],
    )
    def test_content_length_framing(self, length, status):
        """A malformed or negative ``Content-Length`` is a 400, one over
        the body cap a 413 — answered without reading (or allocating)
        the declared body — and the server keeps serving."""
        with MetricsServer() as server:
            with socket.create_connection(("127.0.0.1", server.port)) as sock:
                sock.settimeout(5)
                sock.sendall(
                    b"POST /metrics HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: " + length.encode() + b"\r\n\r\n"
                )
                reply = sock.makefile("rb").readline()
            assert reply.split()[1:2] == [str(status).encode()], reply
            assert _get(server.url + "/healthz")[0] == 200

    def test_body_under_the_cap_reaches_the_route(self):
        assert MAX_BODY_BYTES >= 1 << 16
        with MetricsServer() as server:
            req = urllib.request.Request(
                server.url + "/metrics", data=b"x" * 1000, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=5)
            assert err.value.code == 405

    def test_route_bug_answers_500_and_survives(self):
        def boom(match, body, query):
            raise RuntimeError("route bug")

        routes = metrics_routes() + [("GET", r"^/boom$", boom)]
        with HttpServer(routes) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/boom")
            assert err.value.code == 500
            status, _, _ = _get(server.url + "/healthz")  # still serving
            assert status == 200
