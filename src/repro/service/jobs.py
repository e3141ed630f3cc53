"""Job lifecycle + the atomic JSON-on-disk job store, which is the queue.

A *job* is one tenant's request to solve one cohort: the cohort spec
(either generative parameters for :func:`repro.data.synthesis.generate_cohort`
or a registry dataset name), the solver knobs the tenant is allowed to
set, and the lifecycle bookkeeping the gateway stamps on as the job
moves through

    queued -> admitted -> running -> done | failed | cancelled

``queued`` means accepted past admission control but not yet claimed;
``admitted`` means a supervisor thread claimed it and the dispatch
rule is sizing its backend + worker budget; ``cancelled`` can be entered
from any non-terminal state (a queued job cancels instantly, a running
one within one solver iteration via the cooperative ``should_stop``).

:class:`JobStore` is the one record of a job's state.  Admission, the
FIFO queue, the in-flight count, the tenant loads, the fleet's
outstanding modeled cost and the running count are all read from the
job states under the store's one lock; nothing else keeps a copy to
fall out of step.

A write is durable only where restart recovery reads what it records.
Submission (or its rejection), ``running`` (which carries the dispatch
decision), every terminal state and every ``cancel_requested`` go
through the same atomic discipline as checkpoints (sibling tmp file +
fsync + ``os.replace``), one file per job, so a crashed or restarted
gateway recovers the exact set of jobs from the directory — and a job
interrupted mid-solve resumes from its per-job checkpoint file rather
than restarting.  Entering ``admitted`` and the runner's progress feed
are published in memory only: recovery re-queues every active job
alike, whatever its state and progress say, so writing either would
buy nothing.  The next durable write of the job carries them.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry.export import atomic_write_text

__all__ = [
    "ACTIVE_STATES",
    "AdmissionError",
    "JOB_SCHEMA",
    "Job",
    "JobState",
    "JobStore",
    "QueueFullError",
    "QuotaExceededError",
    "TERMINAL_STATES",
]

JOB_SCHEMA = "repro.service.jobs/v1"


class JobState:
    """The lifecycle vocabulary (plain strings: JSON- and API-friendly)."""

    QUEUED = "queued"
    ADMITTED = "admitted"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)
ACTIVE_STATES = frozenset(
    {JobState.QUEUED, JobState.ADMITTED, JobState.RUNNING}
)

_TRANSITIONS: dict[str, frozenset] = {
    JobState.QUEUED: frozenset({JobState.ADMITTED, JobState.CANCELLED, JobState.FAILED}),
    JobState.ADMITTED: frozenset({JobState.RUNNING, JobState.CANCELLED, JobState.FAILED}),
    JobState.RUNNING: frozenset({JobState.DONE, JobState.FAILED, JobState.CANCELLED}),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}

_OPTIONAL = type(None)
#: The JSON type of each job-file field; the first six are required.
_FIELD_TYPES: dict[str, "type | tuple"] = {
    "job_id": str,
    "tenant": str,
    "spec": dict,
    "state": str,
    "created_at": (int, float),
    "updated_at": (int, float),
    "dispatch": (dict, _OPTIONAL),
    "progress": (dict, _OPTIONAL),
    "result": (dict, _OPTIONAL),
    "error": (str, _OPTIONAL),
    "cancel_requested": (bool, _OPTIONAL),
    "trace_id": (str, _OPTIONAL),
}


@dataclass
class Job:
    """One tenant's solve request plus its lifecycle bookkeeping.

    ``spec`` is the validated submission payload (see
    :meth:`JobStore.new_job`); ``dispatch`` is the dispatch rule's
    decision (backend, worker budget, modeled cost); ``progress`` is
    the runner's live feed (iterations, coverage, ETA — in memory, on
    disk only as of the job's last write); ``result`` is
    the :func:`repro.io.results.result_to_dict` payload once terminal.
    """

    job_id: str
    tenant: str
    spec: dict
    state: str = JobState.QUEUED
    created_at: float = 0.0
    updated_at: float = 0.0
    dispatch: "dict | None" = None
    progress: dict = field(default_factory=dict)
    result: "dict | None" = None
    error: "str | None" = None
    cancel_requested: bool = False
    # Causal-trace identity, minted at submission: the runner's per-job
    # telemetry session adopts it, flight dumps stamp it, and
    # GET /v1/jobs/<id>/trace joins on it.
    trace_id: "str | None" = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def can_enter(self, state: str) -> bool:
        return state in _TRANSITIONS[self.state]

    def to_payload(self) -> dict:
        return {
            "schema": JOB_SCHEMA,
            "job_id": self.job_id,
            "tenant": self.tenant,
            "spec": self.spec,
            "state": self.state,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "dispatch": self.dispatch,
            "progress": self.progress,
            "result": self.result,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Job":
        """Rebuild a job from its file; :class:`ValueError` if malformed."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"job payload must be an object, got {type(payload).__name__}"
            )
        if payload.get("schema") != JOB_SCHEMA:
            raise ValueError(
                f"unsupported job schema {payload.get('schema')!r}"
            )
        for key, kind in _FIELD_TYPES.items():
            if not isinstance(payload.get(key), kind):
                raise ValueError(f"job field {key!r} is missing or mistyped")
        if payload["state"] not in _TRANSITIONS:
            raise ValueError(f"unknown job state {payload['state']!r}")
        return cls(
            job_id=payload["job_id"],
            tenant=payload["tenant"],
            spec=payload["spec"],
            state=payload["state"],
            created_at=payload["created_at"],
            updated_at=payload["updated_at"],
            dispatch=payload.get("dispatch"),
            progress=payload.get("progress") or {},
            result=payload.get("result"),
            error=payload.get("error"),
            cancel_requested=bool(payload.get("cancel_requested")),
            trace_id=payload.get("trace_id"),
        )

    def summary(self) -> dict:
        """The list-endpoint row: lifecycle without the result payload."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "dispatch": self.dispatch,
            "progress": self.progress,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
            "trace_id": self.trace_id,
        }


class AdmissionError(Exception):
    """Base of submit-time rejections; maps to HTTP 429."""

    #: advisory seconds before the client should retry
    retry_after_s = 1.0


class QueueFullError(AdmissionError):
    """The fleet-wide in-flight bound is hit."""


class QuotaExceededError(AdmissionError):
    """The submitting tenant is at its in-flight quota."""


class JobStore:
    """One JSON file per job under ``root/jobs/``: the one record of a job.

    Memory holds each job's current state, the directory what restart
    recovery reads, and the states are also the queue and its
    accounting, read under the store's one lock.  The ``queued`` jobs in
    submission order are the queue (:meth:`claim` takes the oldest); the
    ``queued``, ``admitted`` and ``running`` ones are in flight, and
    :meth:`new_job` admits a submission only while fewer than ``depth``
    are, fleet-wide, and fewer than ``tenant_quota`` of its tenant's
    (``0``: no quota) — one noisy tenant cannot starve the fleet.  A
    rejected submission is refused now (HTTP 429), never parked in an
    unbounded backlog.

    :meth:`new_job`, :meth:`update`, :meth:`requeue`, :meth:`cancel` and
    every :meth:`transition` except into ``admitted`` write the job's
    file (tmp + fsync + ``os.replace``, so a crash mid-write can never
    leave a torn file); :meth:`publish`, :meth:`claim` and entering
    ``admitted`` change memory only, and the job's next write carries
    them.  A fresh store pointed at an existing directory reloads every
    job (what gateway restart recovery is built on); the jobs it finds
    in flight count toward the limits, whatever the limits are.
    """

    def __init__(
        self, root: "str | Path", depth: int = 32, tenant_quota: int = 8
    ) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if tenant_quota < 0:
            raise ValueError("tenant_quota must be >= 0")
        self.depth = depth
        self.tenant_quota = tenant_quota
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        # One lock for every job: the HTTP threads, the supervisors
        # (blocked in ``claim``) and the progress feeds all share it.
        self._lock = threading.Condition()
        self._jobs: dict[str, Job] = {}
        # The jobs in flight, in submission order.
        self._active: dict[str, Job] = {}
        loaded = []
        for path in sorted(self.jobs_dir.glob("job-*.json")):
            try:
                loaded.append(Job.from_payload(json.loads(path.read_text())))
            except ValueError:  # torn, undecodable or malformed
                continue  # skip the entry, don't brick the store
        for job in sorted(loaded, key=lambda j: j.created_at):
            self._jobs[job.job_id] = job
            if not job.terminal:
                self._active[job.job_id] = job

    # -- creation ------------------------------------------------------

    def new_job(self, tenant: str, spec: dict) -> Job:
        """Admit and persist a queued job.

        Over the depth or the tenant's quota, the job is persisted as
        ``failed`` (the tenant can audit the rejection; it never runs)
        and :class:`QueueFullError` / :class:`QuotaExceededError` is
        raised.
        """
        from repro.telemetry.causal import new_trace_id

        now = time.time()
        job = Job(
            job_id=f"job-{uuid.uuid4().hex[:12]}",
            tenant=tenant,
            spec=spec,
            created_at=now,
            updated_at=now,
            trace_id=new_trace_id(),
        )
        with self._lock:
            self._jobs[job.job_id] = job
            try:
                self._admit_locked(tenant)
            except AdmissionError:
                job.state = JobState.FAILED
                job.error = "rejected: queue full or quota"
                self._save_locked(job)
                raise
            self._active[job.job_id] = job
            self._save_locked(job)
            self._lock.notify()
        return job

    def _admit_locked(self, tenant: str) -> None:
        in_flight = len(self._active)
        if in_flight >= self.depth:
            raise QueueFullError(
                f"queue full: {in_flight}/{self.depth} jobs in flight"
            )
        load = sum(j.tenant == tenant for j in self._active.values())
        if self.tenant_quota and load >= self.tenant_quota:
            raise QuotaExceededError(
                f"tenant {tenant!r} at quota: {load}/{self.tenant_quota} "
                "jobs in flight"
            )

    # -- access --------------------------------------------------------

    def get(self, job_id: str) -> "Job | None":
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(
        self, tenant: "str | None" = None, state: "str | None" = None
    ) -> list[Job]:
        """Jobs in submission order, optionally filtered."""
        with self._lock:
            rows = sorted(self._jobs.values(), key=lambda j: j.created_at)
        if tenant is not None:
            rows = [j for j in rows if j.tenant == tenant]
        if state is not None:
            rows = [j for j in rows if j.state == state]
        return rows

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    @property
    def backlog(self) -> int:
        """Jobs queued: admitted past the limits, not yet claimed."""
        return self._count(JobState.QUEUED)

    @property
    def in_flight(self) -> int:
        """Jobs queued, admitted or running: what the limits count."""
        with self._lock:
            return len(self._active)

    @property
    def running(self) -> int:
        """Jobs running: claimed, sized and solving."""
        return self._count(JobState.RUNNING)

    def _count(self, state: str) -> int:
        with self._lock:
            return sum(j.state == state for j in self._active.values())

    def others_cost(self, job_id: str) -> float:
        """Modeled cost (``dispatch["est_cost"]``) of the admitted and
        running jobs other than ``job_id``: the dispatch rule's load."""
        with self._lock:
            return sum(
                (j.dispatch or {}).get("est_cost", 0.0)
                for j in self._active.values()
                if j.state != JobState.QUEUED and j.job_id != job_id
            )

    # -- the supervisor side -------------------------------------------

    def claim(self, timeout: "float | None" = None) -> "Job | None":
        """Move the oldest queued job to ``admitted`` (in memory) and
        return it; ``None`` if none is queued within ``timeout``."""
        with self._lock:
            job = self._lock.wait_for(self._oldest_queued, timeout)
            if job is not None:
                self._enter_locked(job, JobState.ADMITTED, {})
            return job

    def _oldest_queued(self) -> "Job | None":
        return next(
            (j for j in self._active.values() if j.state == JobState.QUEUED),
            None,
        )

    # -- mutation ------------------------------------------------------

    def transition(self, job_id: str, state: str, **updates) -> Job:
        """Move a job to ``state``, stamping + persisting atomically.

        Entering ``admitted`` is not persisted: on disk the job stays
        ``queued`` until ``running`` is written, and recovery treats the
        two alike.  Raises :class:`ValueError` on an illegal lifecycle
        edge (e.g. ``done -> running``) — transitions are where the
        state machine is enforced, so no caller can corrupt a record.
        """
        with self._lock:
            job = self._require(job_id)
            self._enter_locked(job, state, updates)
            return job

    def cancel(self, job_id: str) -> "str | None":
        """Record a cancel request; the job's state after it.

        A queued job is cancelled at once (it never runs); an admitted
        or running one keeps its state, and its supervisor stops it
        within one solver iteration.  ``None`` for an unknown or
        terminal job: the request landed nowhere.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return None
            updates = {"cancel_requested": True}
            if job.state == JobState.QUEUED:
                self._enter_locked(job, JobState.CANCELLED, updates)
            else:
                self._apply_locked(job, updates)
            return job.state

    def requeue(self, job_id: str) -> Job:
        """Reset an interrupted (non-terminal) job back to ``queued``.

        The one sanctioned backward edge in the lifecycle, reserved for
        gateway restart recovery: a job found ``admitted`` or
        ``running`` at boot was interrupted by the previous process's
        death, and goes back to the queue (its checkpoint makes the
        re-run a resume, not a restart) without an admission check.
        Its stale dispatch decision is dropped; a supervisor sizes it
        afresh.  Terminal jobs are refused.
        """
        with self._lock:
            job = self._require(job_id)
            if job.terminal:
                raise ValueError(f"cannot requeue terminal job {job_id}")
            job.state = JobState.QUEUED
            self._apply_locked(job, {"dispatch": None})
            self._lock.notify()
            return job

    def update(self, job_id: str, **updates) -> Job:
        """Persist non-lifecycle fields (cancel_requested...)."""
        with self._lock:
            job = self._require(job_id)
            self._apply_locked(job, updates)
            return job

    def publish(self, job_id: str, **updates) -> Job:
        """Set non-lifecycle fields in memory only (the progress feed).

        Readers of the store see them at once; the job's next durable
        write carries them to disk.
        """
        with self._lock:
            job = self._require(job_id)
            self._apply_locked(job, updates, durable=False)
            return job

    def _require(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job

    def _enter_locked(self, job: Job, state: str, updates: dict) -> None:
        if not job.can_enter(state):
            raise ValueError(
                f"illegal transition {job.state!r} -> {state!r} "
                f"for {job.job_id}"
            )
        job.state = state
        if job.terminal:
            self._active.pop(job.job_id, None)
        self._apply_locked(job, updates, durable=state != JobState.ADMITTED)

    def _apply_locked(
        self, job: Job, updates: dict, durable: bool = True
    ) -> None:
        for key, value in updates.items():
            if not hasattr(job, key):
                raise AttributeError(f"job has no field {key!r}")
            setattr(job, key, value)
        job.updated_at = time.time()
        if durable:
            self._save_locked(job)

    def _save_locked(self, job: Job) -> None:
        atomic_write_text(
            self.jobs_dir / f"{job.job_id}.json",
            json.dumps(job.to_payload()) + "\n",
        )
