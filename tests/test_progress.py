"""Tests for the progress/ETA monitor.

* the ETA is what is left of the iteration at the measured rate, and
  ``None`` until a combination has been examined;
* a sample over a live solve reports the iteration accounting the
  solver published (scheduled = C(G, h); done <= scheduled);
* the monitor thread renders and re-exports gauges, and the status
  line carries fault/heartbeat annotations when they exist.
"""

import io
import math
import time

import pytest

from repro.core.solver import MultiHitSolver
from repro.telemetry import (
    ProgressMonitor,
    ProgressSnapshot,
    Telemetry,
    telemetry_session,
)


class TestEta:
    """The monitor's ETA over a hand-fed registry: 300 combinations
    scheduled, ``examined`` of them counted between two samples."""

    @staticmethod
    def _eta(examined: int) -> ProgressSnapshot:
        tel = Telemetry()
        tel.set_gauge("progress.combos_scheduled", 300)
        monitor = ProgressMonitor(telemetry=tel)
        first = monitor.sample()  # starts the clock: nothing measured yet
        assert first.eta_s is None
        time.sleep(0.01)
        tel.count("progress.combos_scored", examined)
        return monitor.sample()

    def test_measured_rate_wins(self):
        snap = self._eta(100)
        assert snap.rate_combos_per_s == pytest.approx(100 / snap.elapsed_s)
        assert snap.eta_s == pytest.approx(200 / snap.rate_combos_per_s)

    def test_no_rate_no_eta(self):
        snap = self._eta(0)
        assert snap.rate_combos_per_s is None and snap.eta_s is None

    def test_complete_is_zero(self):
        assert self._eta(300).eta_s == 0.0
        assert self._eta(400).eta_s == 0.0


class TestStatusLine:
    def _snap(self, **kw):
        base = dict(
            elapsed_s=65.0, iteration=3, combos_examined=5000,
            iteration_done=500, iteration_total=1000, fraction=0.5,
            rate_combos_per_s=1234.0, eta_s=30.0,
            heartbeat_stale_s=None, fault_events=0,
        )
        base.update(kw)
        return ProgressSnapshot(**base)

    def test_core_fields(self):
        line = self._snap().status_line()
        assert "iter 3" in line and "50.0%" in line
        assert "500/1,000" in line and "1,234/s" in line
        assert "eta 30s" in line and "elapsed 1.1m" in line
        assert "faults" not in line and "hb" not in line

    def test_fault_and_heartbeat_annotations(self):
        line = self._snap(fault_events=2, heartbeat_stale_s=3.25).status_line()
        assert "faults 2" in line and "hb 3.2s" in line


class TestLiveSampling:
    def test_sample_reflects_solver_accounting(self, small_matrices):
        t, n, _ = small_matrices
        monitor = ProgressMonitor(interval_s=10.0)  # sample manually
        with telemetry_session() as tel:
            monitor.telemetry = tel
            result = MultiHitSolver(hits=2).solve(t, n)
            snap = monitor.sample()
        g = t.shape[0]
        assert snap.iteration_total == math.comb(g, 2)
        assert snap.iteration == len(result.iterations) + 1  # final probe
        assert snap.combos_examined == (
            result.counters.combos_scored + result.counters.combos_pruned
        )
        assert 0.0 <= snap.fraction <= 1.0
        # The sample re-exported itself as gauges for /metrics.
        gauges = tel.metrics.to_dict()["gauges"]
        assert gauges["progress.fraction"] == snap.fraction

    def test_monitor_thread_renders_and_stops(self, small_matrices):
        t, n, _ = small_matrices
        stream = io.StringIO()
        with telemetry_session() as tel:
            with ProgressMonitor(
                telemetry=tel, interval_s=0.01, stream=stream
            ) as monitor:
                MultiHitSolver(hits=2, backend="pool", n_workers=2).solve(t, n)
            assert monitor._thread is None  # stopped on exit
        out = stream.getvalue()
        assert out.endswith("\n")  # final newline after the last rewrite
        assert "iter" in out and "elapsed" in out
        assert monitor.samples  # collected at least the final sample

    def test_monitor_without_telemetry_is_inert(self):
        monitor = ProgressMonitor(interval_s=0.01, stream=None)
        snap = monitor.sample()  # NULL_TELEMETRY: all zeros, no crash
        assert snap.combos_examined == 0 and snap.iteration_total == 0
        assert snap.eta_s is None

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            ProgressMonitor(interval_s=0.0)
