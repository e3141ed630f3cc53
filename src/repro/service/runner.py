"""The job runner: supervisor threads executing jobs on the engines.

``max_concurrent`` supervisor threads block on the job store
(:meth:`repro.service.jobs.JobStore.claim`), claim jobs FIFO, size each
one with the dispatch rule (:func:`repro.service.dispatch.decide`:
backend + budget from its modeled cost and the store's other admitted
and running jobs, tenant pins honored), and drive the existing solver
stack end to end.  The runner keeps no record of its own: which jobs
run, and which were asked to cancel, is read from the store.  Per job,
the runner isolates everything the engines share process-wide:

* **telemetry** — each job solves inside its own thread-scoped
  :class:`~repro.telemetry.session.Telemetry` session (rank threads
  inherit it), so concurrent jobs never interleave spans or counters.
  On completion the job's registry is folded into the gateway-wide
  session re-namespaced under ``job.*`` (``job.kernel.combos_scored``
  aggregates the fleet's scoring traffic across tenants), and the
  lifecycle counters (``job.completed`` / ``job.failed`` / ...) move.
* **checkpoints** — each job writes ``checkpoints/<job id>.json`` under
  the gateway state dir, by the clock (at most one save per
  :data:`CHECKPOINT_INTERVAL_S`, plus the final state; the first save
  is a snapshot, later ones append a record to it); a restarted
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

Cancellation is cooperative: a cancel request sets the job's stored
``cancel_requested`` flag, the solver's ``should_stop`` reads it (and
the runner's stop event) between iterations, and the job lands in
``cancelled`` with the combinations found so far (still
checkpointed — a cancelled job's partial work is inspectable and
resumable).  A job that raises is ``failed`` with the error recorded
and its flight dump written; the supervisor thread survives to run the
next job.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.service.dispatch import decide
from repro.service.jobs import JobState, JobStore
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.session import Telemetry, thread_telemetry_session

__all__ = ["CHECKPOINT_INTERVAL_S", "JobRunner"]

#: Least solve time between two mid-run checkpoint saves of one job: the
#: most a crash can lose.  One save measured ~0.4 ms traced on a 2-core,
#: ext4-backed host (~0.18 ms of it the tmp + fsync + rename), so a 1 s
#: interval keeps saves under 0.05 % of a long solve; one save per
#: iteration was 16 % of a 4-iteration, ~10 ms gateway job.
CHECKPOINT_INTERVAL_S = 1.0
#: How long the supervisor blocks on the job store's queue before it
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
        state_dir: "str | Path",
        telemetry: "Telemetry | None" = None,
        max_concurrent: int = 2,
        max_workers: int = 8,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.store = store
        self.state_dir = Path(state_dir)
        self.telemetry = telemetry or Telemetry(enabled=True)
        self.max_concurrent = max_concurrent
        self.max_workers = max_workers
        self.checkpoint_dir = self.state_dir / "checkpoints"
        self.flight_dir = self.state_dir / "flight"
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.flight_dir.mkdir(parents=True, exist_ok=True)
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

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
        """Stop claiming; interrupt running jobs; join the supervisors."""
        self._stop.set()
        deadline = time.monotonic() + timeout
        for t in self._threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        self._threads = []

    # -- the supervisor loop -------------------------------------------

    def _supervise(self) -> None:
        while not self._stop.is_set():
            job = self.store.claim(timeout=CLAIM_TIMEOUT_S)
            if job is None:
                continue
            try:
                self._run_job(job)
            except Exception as exc:
                # Whatever ``_run_job`` does not contain itself (dispatch,
                # store I/O): this job fails, the thread keeps claiming.
                if job.can_enter(JobState.FAILED):
                    self.store.transition(
                        job.job_id, JobState.FAILED,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    self.telemetry.count("job.failed")

    def _run_job(self, job) -> None:
        tel = self.telemetry
        job_id = job.job_id
        if job.cancel_requested:
            self.store.transition(job_id, JobState.CANCELLED)
            tel.count("job.cancelled")
            return
        if self._stop.is_set():
            # Claimed as the gateway stopped: ``admitted`` lives in memory
            # only, so the job is still ``queued`` on disk and restart
            # recovery runs it.
            tel.count("job.interrupted")
            return
        decision = decide(
            job, self.store.others_cost(job_id), self.max_workers
        )
        # The decision enters the store's load (the next job's sizing
        # input) at once; the ``running`` write below persists it.
        self.store.publish(job_id, dispatch=decision.to_payload())
        tel.count("job.admitted")
        tel.count(f"job.backend.{decision.backend}")

        # The per-job session adopts the trace id minted at submission,
        # so every span of the solve (including the rank threads'
        # spans) joins the gateway request's trace end to end.
        job_tel = Telemetry(enabled=True, trace_id=job.trace_id)
        recorder = FlightRecorder(out_dir=self.flight_dir, tag=job_id)
        job_tel.attach_flight(recorder)
        self.store.transition(job_id, JobState.RUNNING)
        tel.set_gauge("job.running", self.store.running)
        t_start = time.monotonic()
        finalized = False

        def should_stop() -> bool:
            # ``job`` is the store's live record: a cancel request lands
            # on it under the store's lock.
            return job.cancel_requested or self._stop.is_set()

        try:
            with thread_telemetry_session(job_tel):
                result = self._solve(job, decision, should_stop)
            cancelled = job.cancel_requested
            if self._stop.is_set() and not cancelled:
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
            tel.set_gauge("job.running", self.store.running)
            tel.observe("job.wall_s", time.monotonic() - t_start)
            if not finalized:
                self._merge_job_metrics(job_tel)
                self._persist_trace(job_id, job_tel)

    # -- execution -----------------------------------------------------

    def _solve(self, job, decision, should_stop):
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
            should_stop=should_stop,
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
