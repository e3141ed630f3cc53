"""Operations: what one timed unit of each workload does.

A *session* owns one workload's inputs for one run.  ``setup()`` builds
them and performs the warm-up operation; ``op(variant)`` performs one
operation on the next input in rotation (each ``lane`` — a series of
operations that will be compared with another — rotates on its own, so
all lanes see the same inputs) and returns an :class:`Outcome`;
``check(outcomes)`` counts the failed ones afterwards.  Variants other
than ``"plain"`` exist only for the traced run's ratios (``single``,
``static``, ``direct``) and for the dense reference of the correctness
check (``dense``).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.bitmatrix.matrix import BitMatrix
from repro.core.checkpoint import solve_with_checkpoints
from repro.core.sequential import sequential_solve
from repro.core.solver import MultiHitSolver

import check
from workloads import Workload, sha256_of

__all__ = ["GatewaySession", "Outcome", "SolveSession", "open_session"]

# Solver overrides of the non-plain variants.
VARIANTS = {
    "plain": {},
    "single": {"backend": "single", "elastic": False},
    "static": {"elastic": False},
    "dense": {"backend": "single", "elastic": False, "sparse": False, "prune": False},
}
CUT_ITERATIONS = 2
POLL_S = 0.002


@dataclass
class Outcome:
    """One operation: how long it took and what it returned."""

    seconds: float
    signature: "tuple | None"  # None: the operation raised or was refused
    combos_scored: int = 0
    iterations: int = 0
    key: int = 0  # which of the run's inputs it ran on
    result: object = None  # solver result / terminal job, for the traced run

    @property
    def answer(self) -> "tuple | None":
        if self.signature is None:
            return None
        return (self.signature, self.combos_scored)


class SolveSession:
    """Workloads whose operation is one solve on generated matrices."""

    def __init__(self, workload: Workload, seed: int, scratch: Path) -> None:
        self.w = workload
        self.seed = seed
        self.checkpoint = scratch / "checkpoint.json"
        self.instances: list = []
        self.matrices: list = []  # (tumor, normal) BitMatrix pairs
        self.sent: Counter = Counter()  # operations so far, per lane
        self.pack_s = 0.0

    def setup(self) -> None:
        self.instances = [
            self.w.instance(self.seed, i) for i in range(self.w.instances)
        ]
        t0 = perf_counter()
        self.matrices = [
            (BitMatrix.from_dense(i.tumor), BitMatrix.from_dense(i.normal))
            for i in self.instances
        ]
        self.pack_s = perf_counter() - t0
        self.op()

    def _solve(self, variant: str, tumor, normal, iterations: int, key: int = 0) -> Outcome:
        knobs = {**self.w.solver, **VARIANTS[variant]}
        solver = MultiHitSolver(hits=self.w.hits, max_iterations=iterations, **knobs)
        checkpointed = self.w.kind == "checkpointed" and variant == "plain"
        if checkpointed:
            self.checkpoint.unlink(missing_ok=True)
        t0 = perf_counter()
        try:
            if checkpointed:
                result = solve_with_checkpoints(
                    solver, tumor, normal, self.checkpoint, every=1
                )
            else:
                result = solver.solve(tumor, normal)
        except Exception as exc:  # a failed operation is data, not a crash
            print(f"operation failed: {type(exc).__name__}: {exc}", flush=True)
            return Outcome(perf_counter() - t0, None, key=key)
        return Outcome(
            seconds=perf_counter() - t0,
            signature=check.signature(result.combinations),
            combos_scored=result.counters.combos_scored,
            iterations=len(result.iterations),
            key=key,
            result=result,
        )

    def op(self, variant: str = "plain", lane: str = "") -> Outcome:
        key = self.sent[lane] % len(self.matrices)
        self.sent[lane] += 1
        return self._solve(variant, *self.matrices[key], self.w.iterations, key)

    def check(self, outcomes: list) -> tuple:
        """``(attempted, failed)`` over ``outcomes`` plus the cut-down run."""
        failed = 0
        for key in sorted({o.key for o in outcomes}):
            inst = self.instances[key]
            reference = self._solve("dense", *self.matrices[key], self.w.iterations)
            failed += check.failed_operations(
                [o.answer for o in outcomes if o.key == key],
                reference.signature, inst.tumor, inst.normal,
            )
        # The workload's own configuration against the sequential oracle,
        # on an instance small enough for itertools.combinations.
        cut_t = self.instances[0].tumor[: self.w.cut_genes]
        cut_n = self.instances[0].normal[: self.w.cut_genes]
        cut = self._solve(
            "plain", BitMatrix.from_dense(cut_t), BitMatrix.from_dense(cut_n),
            CUT_ITERATIONS,
        )
        oracle = check.signature(
            sequential_solve(cut_t, cut_n, self.w.hits, max_iterations=CUT_ITERATIONS)
        )
        if cut.signature != oracle:
            failed += 1
        return len(outcomes) + 1, failed

    def header(self) -> dict:
        return {
            "tumor_sha256": [sha256_of(i.tumor) for i in self.instances],
            "normal_sha256": [sha256_of(i.normal) for i in self.instances],
            "density": [i.density for i in self.instances],
        }

    def close(self) -> None:
        self.checkpoint.unlink(missing_ok=True)


class GatewaySession:
    """One closed-loop client of an in-process ``repro.service.Gateway``.

    The client submits a job, polls it every 2 ms until it is terminal,
    and only then submits the next; cohorts rotate over ``instances`` seeds
    derived from ``--seed``.  The program receives job specs, not matrices: the
    gateway generates each cohort itself, which is part of its latency.
    """

    def __init__(self, workload: Workload, seed: int, scratch: Path) -> None:
        self.w = workload
        self.seed = seed
        self.scratch = scratch
        self.gateway = None
        self.state_dir: "Path | None" = None
        self.sent: Counter = Counter()  # operations so far, per lane
        self.pack_s = 0.0

    def _cohort(self, key: int) -> dict:
        w = self.w
        return {
            "n_genes": w.n_genes, "n_tumor": w.n_tumor, "n_normal": w.n_normal,
            "hits": w.hits, "seed": 1000 * self.seed + key,
        }

    def _knobs(self) -> dict:
        return {**self.w.solver, "max_iterations": self.w.iterations}

    def setup(self) -> None:
        from repro.service import Gateway

        self.state_dir = Path(tempfile.mkdtemp(prefix="gateway-", dir=self.scratch))
        self.gateway = Gateway(state_dir=self.state_dir, max_concurrent=2).start()
        self.op()

    def op(self, variant: str = "plain", lane: str = "") -> Outcome:
        key = self.sent[lane] % self.w.instances
        self.sent[lane] += 1
        if variant == "direct":
            return self._direct(key)
        spec = {
            "tenant": "bench",
            "cohort": self._cohort(key),
            "solver": {**self._knobs(), "hits": self.w.hits},
        }
        t0 = perf_counter()
        try:
            job_id = self.gateway.submit(spec).job_id
            while True:
                job = self.gateway.job(job_id)
                if job.terminal:
                    break
                time.sleep(POLL_S)
        except Exception as exc:  # refused at admission counts as failed
            print(f"job refused: {type(exc).__name__}: {exc}", flush=True)
            return Outcome(perf_counter() - t0, None, key=key)
        seconds = perf_counter() - t0
        if job.state != "done":
            return Outcome(seconds, None, key=key, result=job)
        return Outcome(
            seconds=seconds,
            signature=check.signature(job.result["combinations"]),
            combos_scored=job.result["counters"]["combos_scored"],
            iterations=len(job.result["iterations"]),
            key=key,
            result=job,
        )

    def _arrays(self, key: int):
        from repro.data.synthesis import CohortConfig, generate_cohort

        cohort = generate_cohort(CohortConfig(**self._cohort(key)))
        return cohort.tumor.values, cohort.normal.values

    def _direct(self, key: int) -> Outcome:
        """The same cohort solved without the service, for the overhead."""
        tumor, normal = self._arrays(key)
        t0 = perf_counter()
        result = MultiHitSolver(hits=self.w.hits, **self._knobs()).solve(tumor, normal)
        return Outcome(
            seconds=perf_counter() - t0,
            signature=check.signature(result.combinations),
            combos_scored=result.counters.combos_scored,
            iterations=len(result.iterations),
            key=key,
            result=result,
        )

    def check(self, outcomes: list) -> tuple:
        failed = 0
        for key in sorted({o.key for o in outcomes}):
            tumor, normal = self._arrays(key)
            reference = check.signature(
                MultiHitSolver(
                    hits=self.w.hits, max_iterations=self.w.iterations,
                    **VARIANTS["dense"],
                ).solve(tumor, normal).combinations
            )
            failed += check.failed_operations(
                [o.answer for o in outcomes if o.key == key],
                reference, tumor, normal,
            )
        return len(outcomes), failed

    def header(self) -> dict:
        return {"cohorts": [self._cohort(k) for k in range(self.w.instances)]}

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)
            self.state_dir = None


def open_session(workload: Workload, seed: int, scratch: Path):
    cls = GatewaySession if workload.kind == "gateway" else SolveSession
    return cls(workload, seed, scratch)
