"""The job runner: supervisor threads executing jobs on the engines.

``max_concurrent`` supervisor threads block on the admission queue,
claim jobs FIFO, size each one with the dispatch rule
(:func:`repro.service.dispatch.decide`: backend + budget from its
modeled cost, tenant pins honored), and drive the existing solver stack end to end.  Per job, the runner
isolates everything the engines share process-wide:

* **telemetry** — each job solves inside its own thread-scoped
  :class:`~repro.telemetry.session.Telemetry` session (rank threads
  inherit it), so concurrent jobs never interleave spans or counters.
  On completion the job's registry is folded into the gateway-wide
  session re-namespaced under ``job.*`` (``job.kernel.combos_scored``
  aggregates the fleet's scoring traffic across tenants), and the
  lifecycle counters (``job.completed`` / ``job.failed`` / ...) move.
* **checkpoints** — each job writes ``checkpoints/<job id>.json`` under
  the gateway state dir, by the clock (at most one save per
  :data:`CHECKPOINT_INTERVAL_S`, plus the final state); a restarted
  gateway re-queues interrupted jobs and their solves resume from the
  checkpoint, bit-identical.
* **flight recorder** — each job gets its own recorder tagged with the
  job id, dumping ``blackbox-<job id>-*.json`` into a shared directory,
  so a crashing job leaves its own post-mortem and nothing else's.

A job pays five durable writes: the submit and ``running`` job-file
writes, the final checkpoint, the trace, and the terminal job-file
write — in that order, the trace before the terminal state.  A long
job adds one checkpoint per :data:`CHECKPOINT_INTERVAL_S`.  Entering
``admitted`` and the per-iteration progress feed are published in the
store's memory only (HTTP pollers read memory; recovery re-queues
every active job whatever it says), and the terminal write carries the
final progress.

Cancellation is cooperative: ``cancel()`` sets the job's event, the
solver's ``should_stop`` observes it between iterations, and the job
lands in ``cancelled`` with the combinations found so far (still
checkpointed — a cancelled job's partial work is inspectable and
resumable).  A job that raises is ``failed`` with the error recorded
and its flight dump written; the supervisor thread survives to run the
next job.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.service.dispatch import FleetState, decide
from repro.service.jobs import JobState, JobStore
from repro.service.queue import AdmissionQueue
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.session import Telemetry, thread_telemetry_session

__all__ = ["CHECKPOINT_INTERVAL_S", "JobRunner"]

#: Least solve time between two mid-run checkpoint saves of one job: the
#: most a crash can lose.  One save measured ~0.4 ms traced on a 2-core,
#: ext4-backed host (~0.18 ms of it the tmp + fsync + rename), so a 1 s
#: interval keeps saves under 0.05 % of a long solve; one save per
#: iteration was 16 % of a 4-iteration, ~10 ms gateway job.
CHECKPOINT_INTERVAL_S = 1.0
#: How long the supervisor blocks on the admission queue before it
#: re-checks whether it was stopped.
CLAIM_TIMEOUT_S = 0.2


class JobRunner:
    """Claim → dispatch → solve → persist, ``max_concurrent`` at a time.

    ``telemetry`` is the gateway-wide session (``/metrics`` scrapes it);
    job-side sessions are private and merged in under ``job.*`` as jobs
    finish.
    """

    def __init__(
        self,
        store: JobStore,
        queue: AdmissionQueue,
        state_dir: "str | Path",
        telemetry: "Telemetry | None" = None,
        max_concurrent: int = 2,
        max_workers: int = 8,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.store = store
        self.queue = queue
        self.state_dir = Path(state_dir)
        self.telemetry = telemetry or Telemetry(enabled=True)
        self.max_concurrent = max_concurrent
        self.fleet = FleetState(max_workers=max_workers)
        self.checkpoint_dir = self.state_dir / "checkpoints"
        self.flight_dir = self.state_dir / "flight"
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.flight_dir.mkdir(parents=True, exist_ok=True)
        self._cancel_events: dict[str, threading.Event] = {}
        self._cancel_lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._running = 0
        self._running_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "JobRunner":
        if self._threads:
            return self
        self._stop.clear()
        for i in range(self.max_concurrent):
            t = threading.Thread(
                target=self._supervise, name=f"repro-job-runner-{i}",
                daemon=True,
            )
            self._threads.append(t)
            t.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop claiming; cancel running jobs; join the supervisors."""
        self._stop.set()
        with self._cancel_lock:
            for event in self._cancel_events.values():
                event.set()
        deadline = time.monotonic() + timeout
        for t in self._threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        self._threads = []

    @property
    def n_running(self) -> int:
        with self._running_lock:
            return self._running

    # -- cancellation --------------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; returns whether the request landed.

        A still-queued job is cancelled immediately (never runs); a
        running one stops within one solver iteration.  Terminal jobs
        are not cancellable.
        """
        job = self.store.get(job_id)
        if job is None or job.terminal:
            return False
        self.store.update(job_id, cancel_requested=True)
        with self._cancel_lock:
            event = self._cancel_events.setdefault(job_id, threading.Event())
        event.set()
        if self.queue.abandon(job_id):
            # Never claimed: finalize here, no solver will see it.
            self.store.transition(job_id, JobState.CANCELLED)
            self.telemetry.count("job.cancelled")
            return True
        self.telemetry.count("job.cancel_requested")
        return True

    def _cancel_event(self, job_id: str) -> threading.Event:
        with self._cancel_lock:
            return self._cancel_events.setdefault(job_id, threading.Event())

    # -- the supervisor loop -------------------------------------------

    def _supervise(self) -> None:
        while not self._stop.is_set():
            job_id = self.queue.claim(timeout=CLAIM_TIMEOUT_S)
            if job_id is None:
                continue
            try:
                self._run_job(job_id)
            except Exception as exc:
                # Whatever ``_run_job`` does not contain itself (dispatch,
                # store I/O): this job fails, the thread keeps claiming.
                job = self.store.get(job_id)
                if job is not None and job.can_enter(JobState.FAILED):
                    self.store.transition(
                        job_id, JobState.FAILED,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    self.telemetry.count("job.failed")
            finally:
                self.queue.release(job_id)
                self.fleet.unregister(job_id)
                with self._cancel_lock:
                    self._cancel_events.pop(job_id, None)

    def _run_job(self, job_id: str) -> None:
        tel = self.telemetry
        job = self.store.get(job_id)
        if job is None:
            return
        event = self._cancel_event(job_id)
        if job.cancel_requested or self._stop.is_set():
            if job.can_enter(JobState.CANCELLED):
                self.store.transition(job_id, JobState.CANCELLED)
                tel.count("job.cancelled")
            return
        decision = decide(job, self.fleet)
        self.fleet.register(job_id, decision)
        # Published in memory only; the ``running`` write below is the
        # one that persists the decision.
        self.store.transition(
            job_id, JobState.ADMITTED, dispatch=decision.to_payload()
        )
        tel.count("job.admitted")
        tel.count(f"job.backend.{decision.backend}")

        # The per-job session adopts the trace id minted at submission,
        # so every span of the solve (including the rank threads'
        # spans) joins the gateway request's trace end to end.
        job_tel = Telemetry(enabled=True, trace_id=job.trace_id)
        recorder = FlightRecorder(out_dir=self.flight_dir, tag=job_id)
        job_tel.attach_flight(recorder)
        self.store.transition(job_id, JobState.RUNNING)
        with self._running_lock:
            self._running += 1
            tel.set_gauge("job.running", self._running)
        t_start = time.monotonic()
        finalized = False
        try:
            with thread_telemetry_session(job_tel):
                result = self._solve(job, decision, event)
            cancelled = event.is_set()
            current = self.store.get(job_id)
            user_cancel = current is not None and current.cancel_requested
            if cancelled and not user_cancel:
                # Gateway shutdown, not a tenant cancel: leave the job in
                # ``running`` so restart recovery re-queues it and the
                # solve resumes from its checkpoint.
                tel.count("job.interrupted")
                return
            from repro.io.results import result_to_dict

            payload = result_to_dict(result)
            payload["cancelled"] = cancelled
            # Persist metrics and the causal trace *before* the terminal
            # transition: a tenant that polls for ``done`` and then asks
            # for the trace must never race a still-pending write.
            self._merge_job_metrics(job_tel)
            self._persist_trace(job_id, job_tel)
            finalized = True
            self.store.transition(
                job_id,
                JobState.CANCELLED if cancelled else JobState.DONE,
                result=payload,
                progress=self._final_progress(result, t_start),
            )
            tel.count("job.cancelled" if cancelled else "job.completed")
        except Exception as exc:
            # Isolate the blast radius: this job fails with its black
            # box written; the supervisor (and every other job) lives.
            recorder.dump("job-failed", exc=exc, telemetry=job_tel)
            if not finalized:
                self._merge_job_metrics(job_tel)
                self._persist_trace(job_id, job_tel)
                finalized = True
            self.store.transition(
                job_id, JobState.FAILED,
                error=f"{type(exc).__name__}: {exc}",
            )
            tel.count("job.failed")
        finally:
            with self._running_lock:
                self._running -= 1
                tel.set_gauge("job.running", self._running)
            tel.observe("job.wall_s", time.monotonic() - t_start)
            if not finalized:
                self._merge_job_metrics(job_tel)
                self._persist_trace(job_id, job_tel)

    # -- execution -----------------------------------------------------

    def _solve(self, job, decision, event: threading.Event):
        from repro.core.checkpoint import solve_with_checkpoints
        from repro.core.solver import MultiHitSolver

        tumor, normal, hits = self._cohort_arrays(job.spec)
        # The spec's solver dict was validated at submit against the
        # MultiHitSolver fields; dispatch fills in where it runs.
        solver = MultiHitSolver(
            **{
                **job.spec.get("solver", {}),
                "hits": hits,
                "backend": decision.backend,
                "n_workers": decision.n_workers,
                "n_nodes": decision.n_nodes,
            }
        )

        total = int(tumor.shape[1]) if hasattr(tumor, "shape") else 0
        t0 = time.monotonic()

        def on_iteration(state) -> None:
            elapsed = time.monotonic() - t0
            covered = total - state.n_uncovered
            rate = covered / elapsed if elapsed > 0 and covered > 0 else 0.0
            self.store.publish(
                job.job_id,
                progress={
                    "iterations": state.n_found,
                    "uncovered": state.n_uncovered,
                    "covered": covered,
                    "total": total,
                    "eta_s": (
                        round(state.n_uncovered / rate, 3) if rate > 0 else None
                    ),
                    "elapsed_s": round(elapsed, 3),
                },
            )

        return solve_with_checkpoints(
            solver,
            tumor,
            normal,
            self.checkpoint_dir / f"{job.job_id}.json",
            on_iteration=on_iteration,
            should_stop=event.is_set,
            min_interval_s=CHECKPOINT_INTERVAL_S,
        )

    def _cohort_arrays(self, spec: dict):
        """Materialize the job's cohort: (tumor, normal, hits)."""
        cohort_spec = dict(spec.get("cohort", {}))
        if "dataset" in cohort_spec:
            from repro.data.registry import dataset

            cohort = dataset(cohort_spec["dataset"])
        else:
            from repro.data.synthesis import CohortConfig, generate_cohort

            cohort = generate_cohort(CohortConfig(**cohort_spec))
        hits = int(spec.get("solver", {}).get("hits", cohort.config.hits))
        return cohort.tumor.values, cohort.normal.values, hits

    def _persist_trace(self, job_id: str, job_tel: Telemetry) -> None:
        """Write the job's span timeline to ``traces/<job id>.jsonl``.

        Written on every exit path (done, failed, cancelled, even
        interrupted) so ``GET /v1/jobs/<id>/trace`` can always serve the
        causal analysis of whatever actually ran.  Best-effort: a trace
        that cannot be written never fails the job.
        """
        try:
            from repro.telemetry.export import write_jsonl

            trace_dir = self.state_dir / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            write_jsonl(trace_dir / f"{job_id}.jsonl", job_tel)
        except OSError:  # pragma: no cover - disk-full / permission edge
            self.telemetry.count("job.trace_write_failed")

    # -- accounting ----------------------------------------------------

    def _final_progress(self, result, t_start: float) -> dict:
        total = result.params.n_tumor
        return {
            "iterations": len(result.combinations),
            "uncovered": result.uncovered,
            "covered": total - result.uncovered,
            "total": total,
            "coverage": result.coverage,
            "eta_s": 0.0,
            "elapsed_s": round(time.monotonic() - t_start, 3),
        }

    def _merge_job_metrics(self, job_tel: Telemetry) -> None:
        """Fold the job session into the gateway registry under ``job.*``.

        Counters and histograms aggregate across jobs (typed merge);
        per-job gauges are point-in-time and tenant-private, so they
        stay behind.
        """
        snapshot = job_tel.metrics.to_dict()
        self.telemetry.metrics.merge_dict(
            {
                "counters": {
                    f"job.{k}": v for k, v in snapshot["counters"].items()
                },
                "histograms": {
                    f"job.{k}": v for k, v in snapshot["histograms"].items()
                },
            }
        )
