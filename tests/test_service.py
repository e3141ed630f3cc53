"""Tests for the solve-as-a-service gateway (repro.service)."""

import json
import os
import socket
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.solver import MultiHitSolver
from repro.data.synthesis import CohortConfig, generate_cohort
from repro.service import (
    Gateway,
    JobState,
    JobStore,
    QueueFullError,
    QuotaExceededError,
    validate_spec,
)
from repro.service import runner as runner_mod
from repro.service.dispatch import SINGLE_THRESHOLD, _job_cost, decide
from repro.service.runner import JobRunner
from repro.service.http import _ALLOWED_COHORT_KEYS, _ALLOWED_SOLVER_KEYS
from repro.service.jobs import ACTIVE_STATES, TERMINAL_STATES, Job
from repro.service import http as service_http
from tests.test_checkpoint import draw_damage


def signature(combos):
    """Order-sensitive bit-identity signature of a combination list."""
    return [(tuple(c["genes"]) if isinstance(c, dict) else tuple(c.genes),
             round(c["f"] if isinstance(c, dict) else c.f, 12))
            for c in combos]


def spec_for(seed, hits=3, n_genes=20, n_tumor=50, n_normal=50, solver=None):
    return {
        "tenant": f"tenant-{seed % 2}",
        "cohort": {
            "n_genes": n_genes, "n_tumor": n_tumor, "n_normal": n_normal,
            "hits": hits, "seed": seed,
        },
        "solver": dict(solver or {}, hits=hits),
    }


def direct_solve(spec):
    cohort = generate_cohort(CohortConfig(**spec["cohort"]))
    solver = MultiHitSolver(hits=spec["solver"]["hits"])
    return solver.solve(cohort.tumor.values, cohort.normal.values)


# ---------------------------------------------------------------------------
# job store


class TestJobStore:
    def test_roundtrip_and_restart_reload(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.new_job("acme", {"cohort": {"n_genes": 8}})
        store.transition(job.job_id, JobState.ADMITTED,
                         dispatch={"backend": "single"})
        store.transition(job.job_id, JobState.RUNNING)
        store.update(job.job_id, progress={"iterations": 3})

        reloaded = JobStore(tmp_path)
        got = reloaded.get(job.job_id)
        assert got is not None
        assert got.state == JobState.RUNNING
        assert got.tenant == "acme"
        assert got.dispatch == {"backend": "single"}
        assert got.progress == {"iterations": 3}

    def test_admitted_and_progress_stay_in_memory(self, tmp_path):
        """Entering ``admitted`` and publishing progress write nothing;
        the ``running`` write carries both, with the dispatch decision."""
        store = JobStore(tmp_path)
        job = store.new_job("acme", {"cohort": {"n_genes": 8}})
        path = tmp_path / "jobs" / f"{job.job_id}.json"
        submitted = path.read_bytes()
        store.transition(job.job_id, JobState.ADMITTED,
                         dispatch={"backend": "single"})
        store.publish(job.job_id, progress={"iterations": 1})
        assert store.get(job.job_id).state == JobState.ADMITTED
        assert store.get(job.job_id).progress == {"iterations": 1}
        assert path.read_bytes() == submitted
        assert JobStore(tmp_path).get(job.job_id).state == JobState.QUEUED

        store.transition(job.job_id, JobState.RUNNING)
        on_disk = JobStore(tmp_path).get(job.job_id)
        assert on_disk.state == JobState.RUNNING
        assert on_disk.dispatch == {"backend": "single"}
        assert on_disk.progress == {"iterations": 1}

    def test_illegal_transitions_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.new_job("t", {})
        with pytest.raises(ValueError, match="illegal transition"):
            store.transition(job.job_id, JobState.DONE)  # queued -> done
        store.transition(job.job_id, JobState.CANCELLED)
        with pytest.raises(ValueError, match="illegal transition"):
            store.transition(job.job_id, JobState.RUNNING)  # terminal

    def test_requeue_is_the_only_backward_edge(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.new_job("t", {})
        store.transition(job.job_id, JobState.ADMITTED)
        store.transition(job.job_id, JobState.RUNNING)
        assert store.requeue(job.job_id).state == JobState.QUEUED
        store.transition(job.job_id, JobState.CANCELLED)
        with pytest.raises(ValueError, match="terminal"):
            store.requeue(job.job_id)

    def test_unreadable_file_skipped(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.new_job("t", {})
        (tmp_path / "jobs" / "job-torn.json").write_text("{not json")
        reloaded = JobStore(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.get(job.job_id) is not None

    def test_schema_guard(self):
        with pytest.raises(ValueError, match="schema"):
            Job.from_payload({"schema": "bogus/v9"})

    @pytest.mark.parametrize(
        "edit",
        [
            lambda raw: [1, 2],
            lambda raw: "job",
            lambda raw: {k: v for k, v in raw.items() if k != "tenant"},
            lambda raw: {**raw, "created_at": "yesterday"},
            lambda raw: {**raw, "spec": [1]},
            lambda raw: {**raw, "state": "paused"},
            lambda raw: {**raw, "progress": [3]},
        ],
        ids=[
            "list", "string", "missing-tenant", "created_at-str", "spec-list",
            "unknown-state", "progress-list",
        ],
    )
    def test_malformed_file_skipped_at_boot(self, tmp_path, edit):
        store = JobStore(tmp_path)
        good = store.new_job("t", {})
        bad = store.new_job("t", {})
        path = tmp_path / "jobs" / f"{bad.job_id}.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError):
            Job.from_payload(json.loads(path.read_text()))
        reloaded = JobStore(tmp_path)
        assert [j.job_id for j in reloaded.jobs()] == [good.job_id]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_store_boots_past_any_damaged_file(self, data):
        """Every truncation and single-byte flip of a job file: the store
        boots, keeps the intact job, and either skips the damaged entry
        or loads it as a well-formed job."""
        job = Job(
            job_id="job-0123456789ab", tenant="acme",
            spec={"cohort": {"n_genes": 9}}, state=JobState.RUNNING,
            created_at=1.7e9, updated_at=1.7e9 + 2.5,
            dispatch={"backend": "pool"}, progress={"iterations": 2},
            trace_id="0f" * 16,
        )
        blob = (json.dumps(job.to_payload()) + "\n").encode()
        damaged, torn = draw_damage(data, blob)
        with tempfile.TemporaryDirectory() as tmp:
            good = JobStore(tmp).new_job("acme", {"cohort": {"n_genes": 8}})
            (Path(tmp) / "jobs" / f"{job.job_id}.json").write_bytes(damaged)

            reloaded = JobStore(tmp)
            rows = reloaded.jobs()  # sorts on created_at
            assert reloaded.get(good.job_id) is not None
            if torn:
                assert len(rows) == 1
            for row in rows:
                assert row.state in TERMINAL_STATES | ACTIVE_STATES
                json.dumps(row.summary())


# ---------------------------------------------------------------------------
# admission: the job store is the queue


class TestAdmissionQueue:
    def test_depth_bound(self, tmp_path):
        store = JobStore(tmp_path, depth=2, tenant_quota=0)
        a = store.new_job("t1", {})
        store.new_job("t2", {})
        with pytest.raises(QueueFullError, match="queue full: 2/2"):
            store.new_job("t3", {})
        # claiming does NOT free capacity (the job is still in flight)...
        assert store.claim(timeout=0).job_id == a.job_id
        store.transition(a.job_id, JobState.RUNNING)
        with pytest.raises(QueueFullError):
            store.new_job("t3", {})
        # ...reaching a terminal state does.
        store.transition(a.job_id, JobState.DONE)
        store.new_job("t3", {})
        assert (store.backlog, store.in_flight, store.running) == (2, 2, 0)

    def test_tenant_quota(self, tmp_path):
        store = JobStore(tmp_path, depth=16, tenant_quota=2)
        a = store.new_job("noisy", {})
        store.new_job("noisy", {})
        with pytest.raises(QuotaExceededError, match="'noisy' at quota: 2/2"):
            store.new_job("noisy", {})
        store.new_job("quiet", {})  # other tenants unaffected
        store.transition(a.job_id, JobState.CANCELLED)
        store.new_job("noisy", {})  # a terminal job reopens the quota

    def test_rejection_is_written_once_as_failed(self, tmp_path, monkeypatch):
        writes = []
        monkeypatch.setattr(
            JobStore, "_save_locked",
            lambda self, job: writes.append((job.job_id, job.state)),
        )
        store = JobStore(tmp_path, depth=1)
        store.new_job("t", {})
        with pytest.raises(QueueFullError):
            store.new_job("t", {})
        rejected = writes[-1][0]
        assert writes[1:] == [(rejected, JobState.FAILED)]
        assert store.get(rejected).error == "rejected: queue full or quota"
        assert store.in_flight == 1

    def test_fifo_claim_and_cancel(self, tmp_path):
        store = JobStore(tmp_path, depth=8)
        a, b, c = (store.new_job("t", {}) for _ in range(3))
        assert store.cancel(b.job_id) == JobState.CANCELLED
        assert store.cancel(b.job_id) is None  # already terminal
        assert store.get(b.job_id).cancel_requested
        claimed = [store.claim(timeout=0), store.claim(timeout=0)]
        assert [j.job_id for j in claimed] == [a.job_id, c.job_id]
        assert all(j.state == JobState.ADMITTED for j in claimed)
        assert store.claim(timeout=0) is None
        assert store.in_flight == 2  # the cancel released b's slot
        # A claimed job keeps its state; its runner sees the flag.
        assert store.cancel(a.job_id) == JobState.ADMITTED
        assert store.get(a.job_id).cancel_requested

    def test_requeue_keeps_submission_order_and_drops_dispatch(self, tmp_path):
        store = JobStore(tmp_path)
        a, b = store.new_job("t", {}), store.new_job("t", {})
        store.claim(timeout=0)
        store.publish(a.job_id, dispatch={"backend": "single", "est_cost": 5.0})
        assert store.others_cost(b.job_id) == 5.0
        assert store.others_cost(a.job_id) == 0.0
        store.transition(a.job_id, JobState.RUNNING)
        store.requeue(a.job_id)
        assert store.get(a.job_id).dispatch is None
        assert store.others_cost(b.job_id) == 0.0
        assert store.claim(timeout=0).job_id == a.job_id

    def test_limits_validated(self, tmp_path):
        with pytest.raises(ValueError, match="depth"):
            JobStore(tmp_path, depth=0)
        with pytest.raises(ValueError, match="tenant_quota"):
            JobStore(tmp_path, tenant_quota=-1)


# ---------------------------------------------------------------------------
# dispatch


class TestDispatch:
    def _job(self, spec=None):
        return Job(job_id="job-x", tenant="t", spec=spec or spec_for(0))

    @pytest.fixture
    def cores(self, monkeypatch):
        """Set the host core count the rule reads."""
        return lambda n: monkeypatch.setattr(os, "cpu_count", lambda: n)

    def test_pins_honored_and_clamped(self):
        decision = decide(
            self._job({"cohort": {"n_genes": 20},
                       "solver": {"backend": "pool", "n_workers": 99}}),
            0.0, 4,
        )
        assert decision.backend == "pool"
        assert decision.n_workers == 4  # clamped to the fleet
        assert decision.n_nodes == 4
        single = decide(self._job(spec_for(0, solver={"backend": "single"})), 0.0, 4)
        assert (single.backend, single.n_workers, single.n_nodes) == ("single", 1, 1)
        nodes = decide(self._job(spec_for(0, solver={
            "backend": "distributed", "n_workers": 2, "n_nodes": 3})), 0.0, 4)
        assert (nodes.backend, nodes.n_workers, nodes.n_nodes) == (
            "distributed", 2, 3)

    def test_cost_aware_sizes_to_the_job(self, cores):
        cores(8)
        small = decide(self._job(spec_for(0, n_genes=10)), 0.0, 8)
        assert small.backend == "single"
        assert small.n_workers == 1
        big = decide(self._job(spec_for(0, n_genes=800)), 0.0, 8)
        assert big.backend == "pool"
        assert big.n_workers == 8  # alone in the fleet: the whole budget
        assert big.est_cost > small.est_cost
        # A second job of the same cost gets its half of the budget.
        assert decide(
            self._job(spec_for(1, n_genes=800)), big.est_cost, 8
        ).n_workers == 4

    def test_threshold_sits_at_the_measured_break_even(self, cores):
        cores(2)
        below = decide(self._job(spec_for(0, n_genes=600)), 0.0, 8)
        above = decide(self._job(spec_for(0, n_genes=700)), 0.0, 8)
        assert below.est_cost < SINGLE_THRESHOLD < above.est_cost
        assert below.backend == "single"
        assert (above.backend, above.n_workers) == ("pool", 2)

    @pytest.mark.parametrize("hits, n_genes", [(3, 600), (4, 160)])
    def test_jobs_two_ranks_do_not_speed_up_stay_single(self, cores, hits, n_genes):
        """Measured on a 2-core host at the paper's density (DESIGN §14):
        a 2-worker pool took 0.97-1.03x single's time at 3-hit G 600 and
        0.97-0.98x at 4-hit G 160.  At parity ``single`` is the faster
        choice for the fleet: it leaves the second core to another job."""
        cores(2)
        job = self._job(spec_for(0, hits=hits, n_genes=n_genes))
        assert decide(job, 0.0, 8).backend == "single"

    def test_budget_capped_at_the_core_count(self, cores):
        big = self._job(spec_for(0, n_genes=800))
        cores(2)
        assert decide(big, 0.0, 8).n_workers == 2
        cores(1)
        assert decide(big, 0.0, 8).backend == "single"
        # A tenant's pinned worker count is theirs: only max_workers clamps.
        pinned = self._job(spec_for(0, solver={"backend": "pool", "n_workers": 6}))
        assert decide(pinned, 0.0, 8).n_workers == 6

    def test_dataset_job_priced_from_its_recipe(self):
        named = _job_cost({"cohort": {"dataset": "brca-mini"}})
        assert named == _job_cost({"cohort": {"n_genes": 60, "hits": 4}})
        assert named == pytest.approx(7.49e7, rel=1e-3)
        # The solver's hits win over the dataset's, as in the runner.
        assert _job_cost(
            {"cohort": {"dataset": "brca-mini"}, "solver": {"hits": 3}}
        ) == _job_cost({"cohort": {"n_genes": 60, "hits": 3}})
        assert _job_cost({"cohort": {"dataset": "no-such-dataset"}}) == 0.0

    def test_policy_inputs_are_gone(self, tmp_path):
        with pytest.raises(TypeError, match="policy"):
            Gateway(state_dir=tmp_path, policy="cost_aware")
        with pytest.raises(TypeError, match="policy"):
            JobRunner(store=JobStore(tmp_path), policy=None, state_dir=tmp_path)


# ---------------------------------------------------------------------------
# spec validation


class TestValidateSpec:
    def test_accepts_minimal(self):
        tenant, spec = validate_spec({"cohort": self.COHORT})
        assert tenant == "anonymous"
        assert spec == {"cohort": self.COHORT, "solver": {}}

    @pytest.mark.parametrize("payload", [
        [],
        {"cohort": {}},
        {"cohort": {"n_genes": 16, "n_tumor": 10, "n_normal": 10,
                    "evil_knob": 1}},
        {"cohort": {"n_genes": -4, "n_tumor": 10, "n_normal": 10}},
        {"cohort": {"n_genes": 16, "n_tumor": 10, "n_normal": 10},
         "solver": {"backend": "mainframe"}},
        {"tenant": "", "cohort": {"n_genes": 16, "n_tumor": 10, "n_normal": 10}},
    ])
    def test_rejects(self, payload):
        with pytest.raises(ValueError):
            validate_spec(payload)

    # 16 genes: room for the default 4 disjoint 4-hit driver combinations.
    COHORT = {"n_genes": 16, "n_tumor": 10, "n_normal": 10}

    @pytest.mark.parametrize("key,want", sorted(_ALLOWED_COHORT_KEYS.items()))
    def test_rejects_wrong_typed_cohort_value(self, key, want):
        wrong = 7 if want is str else "x"
        with pytest.raises(ValueError, match=f"cohort.{key} must be"):
            validate_spec({"cohort": {**self.COHORT, key: wrong}})
        with pytest.raises(ValueError, match=f"cohort.{key} must be"):
            validate_spec({"cohort": {**self.COHORT, key: True}})

    @pytest.mark.parametrize("cohort,named", [
        ({"hits": "x"}, "cohort.hits"),
        ({"n_genes": True}, "cohort.n_genes"),
        ({"driver_penetrance": 5}, "driver_penetrance"),
        ({"dataset": "nope"}, "cohort.dataset"),
        ({"n_genes": 8, "hits": 3}, "n_genes"),
        ({"sporadic_fraction": 1}, "sporadic_fraction"),
        ({"hits": 0}, "hits"),
        ({"seed": -1}, "seed"),
    ])
    def test_rejects_bad_cohort_values(self, cohort, named):
        """A spec whose cohort could only fail once claimed is a 400."""
        if "dataset" not in cohort:
            cohort = {**self.COHORT, **cohort}
        with pytest.raises(ValueError, match=named):
            validate_spec({"cohort": cohort})

    def test_accepts_every_cohort_key_at_a_valid_value(self):
        cohort = {
            "n_genes": 12, "n_tumor": 10, "n_normal": 10, "hits": 3, "seed": 1,
            "n_driver_combos": 4, "driver_penetrance": 1, "sporadic_fraction": 0.5,
        }
        assert set(cohort) | {"dataset"} == set(_ALLOWED_COHORT_KEYS)
        assert validate_spec({"cohort": cohort})[1]["cohort"] == cohort
        named = {"dataset": "demo"}
        assert validate_spec({"cohort": named})[1]["cohort"] == named

    @pytest.mark.parametrize("key,want", sorted(
        _ALLOWED_SOLVER_KEYS.items(), key=lambda kv: kv[0]))
    def test_rejects_wrong_typed_solver_value(self, key, want):
        """Parametrized over the allow-list itself: a key added to it is
        type-checked here with no new test."""
        wrong = 7 if want is str else "x"
        with pytest.raises(ValueError, match=f"solver.{key} must be"):
            validate_spec({"cohort": self.COHORT, "solver": {key: wrong}})
        if want is not bool:  # a bool is not an int here, JSON or not
            with pytest.raises(ValueError, match=f"solver.{key} must be"):
                validate_spec({"cohort": self.COHORT, "solver": {key: True}})

    @pytest.mark.parametrize("solver,named", [
        ({"n_workers": 0}, "n_workers"),
        ({"n_nodes": 0}, "n_nodes"),
        ({"hits": 1}, "hits"),
        ({"elastic": True}, "backend"),
        ({"elastic": True, "backend": "sequential"}, "backend"),
        ({"prune_blocks": 64}, "unknown solver keys"),
        ({"lease_blocks": 8}, "unknown solver keys"),
    ])
    def test_rejects_out_of_range_and_removed(self, solver, named):
        with pytest.raises(ValueError, match=named):
            validate_spec({"cohort": self.COHORT, "solver": solver})

    def test_accepts_every_key_at_a_valid_value(self):
        solver = {
            "hits": 3, "alpha": 1, "backend": "pool", "n_workers": 2,
            "n_nodes": 2, "prune": True, "elastic": True, "max_iterations": 4,
        }
        assert set(solver) == set(_ALLOWED_SOLVER_KEYS)
        _, spec = validate_spec({"cohort": self.COHORT, "solver": solver})
        assert spec["solver"] == solver


# ---------------------------------------------------------------------------
# end-to-end: the gateway
#
# These boot a real gateway (ephemeral port, tmp state dir) and exercise
# the acceptance criteria: concurrent mixed-backend jobs bit-identical
# to direct solves, 429 on over-quota, cancellation within an iteration,
# crash isolation, and restart recovery.


@pytest.fixture
def slow_iterations(monkeypatch):
    """Stretch every greedy iteration to >= 50ms (via the checkpoint wrapper).

    Returns the list of per-iteration ``n_found`` observations, which
    doubles as a "has the solve started yet" signal.  Makes the
    cancellation/backpressure tests deterministic: a job cannot finish
    before the test reacts to it.
    """
    from repro.core import checkpoint as checkpoint_mod

    real = checkpoint_mod.solve_with_checkpoints
    started = []

    def slowed(solver, tumor, normal, path, on_iteration=None, **kw):
        def slow_iteration(state):
            started.append(state.n_found)
            time.sleep(0.05)
            if on_iteration is not None:
                on_iteration(state)
        return real(solver, tumor, normal, path,
                    on_iteration=slow_iteration, **kw)

    monkeypatch.setattr(
        "repro.core.checkpoint.solve_with_checkpoints", slowed)
    return started


def _wait_started(started, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not started and time.monotonic() < deadline:
        time.sleep(0.01)
    assert started, "no job reached its first iteration"


def _http(method, url, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(url, data=data, method=method,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)


def _raw_post(port, declared, body):
    """A socket that has sent ``POST /v1/jobs`` declaring ``declared``
    body bytes, followed by ``body``."""
    sock = socket.create_connection(("127.0.0.1", port))
    sock.settimeout(5)
    sock.sendall(
        b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
        b"Content-Length: %d\r\n\r\n" % declared + body
    )
    return sock


class TestGatewayEndToEnd:
    def test_concurrent_mixed_backends_bit_identical(self, tmp_path):
        """>= 8 concurrent jobs across mixed backends match direct solves."""
        backends = ["single", "pool", "sequential", "single",
                    "pool", "sequential", "single", "single"]
        specs = [
            spec_for(seed, solver={"backend": b, "n_workers": 2})
            for seed, b in enumerate(backends)
        ]
        with Gateway(state_dir=tmp_path, max_concurrent=4,
                     queue_depth=16, tenant_quota=8) as gw:
            jobs = [gw.submit(spec) for spec in specs]
            done = gw.wait([j.job_id for j in jobs], timeout=300)
        assert [j.state for j in done] == [JobState.DONE] * 8
        for job, spec in zip(done, specs):
            expected = direct_solve(spec)
            assert signature(job.result["combinations"]) == signature(
                expected.combinations
            ), f"job {job.job_id} ({spec['solver']['backend']}) diverged"
            assert job.result["uncovered"] == expected.uncovered
        # lifecycle counters moved on the gateway session
        counters = gw.telemetry.metrics.to_dict()["counters"]
        assert counters["job.submitted"] == 8
        assert counters["job.completed"] == 8
        # per-job kernel traffic was folded in under job.*
        assert any(k.startswith("job.") and "combos" in k for k in counters)

    def test_http_roundtrip_and_errors(self, tmp_path):
        with Gateway(state_dir=tmp_path, max_concurrent=1) as gw:
            url = gw.url
            # malformed JSON -> 400
            req = urllib.request.Request(
                f"{url}/v1/jobs", data=b"{oops", method="POST")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            assert err.value.code == 400
            # bad spec -> 400
            status, body, _ = _http("POST", f"{url}/v1/jobs",
                                    {"cohort": {"n_genes": 0}})
            assert status == 400 and "error" in body
            # unknown job -> 404 (status, result, cancel)
            for method, path in [("GET", "/v1/jobs/job-nope"),
                                 ("GET", "/v1/jobs/job-nope/result"),
                                 ("DELETE", "/v1/jobs/job-nope")]:
                status, _, _ = _http(method, f"{url}{path}")
                assert status == 404
            # wrong method on a known path -> 405
            status, _, _ = _http("DELETE", f"{url}/v1/jobs")
            assert status == 405
            # happy path: submit -> poll -> result
            status, sub, _ = _http("POST", f"{url}/v1/jobs", spec_for(3))
            assert status == 202 and sub["state"] == JobState.QUEUED
            jid = sub["job_id"]
            gw.wait([jid], timeout=120)
            status, body, _ = _http("GET", f"{url}/v1/jobs/{jid}")
            assert status == 200 and body["state"] == JobState.DONE
            status, body, _ = _http("GET", f"{url}/v1/jobs/{jid}/result")
            assert status == 200
            assert signature(body["result"]["combinations"]) == signature(
                direct_solve(spec_for(3)).combinations
            )
            # result of a terminal job again, list filters, healthz
            status, body, _ = _http("GET", f"{url}/v1/jobs?state=done")
            assert [j["job_id"] for j in body["jobs"]] == [jid]
            status, body, _ = _http("GET", f"{url}/healthz")
            assert status == 200 and body["jobs"] == 1

    @pytest.mark.parametrize(
        "body", [b"\x80abc", b"[" * 200000], ids=["not-utf8", "too-deep"]
    )
    def test_undecodable_body_is_400(self, tmp_path, body):
        with Gateway(state_dir=tmp_path, max_concurrent=1) as gw:
            req = urllib.request.Request(
                f"{gw.url}/v1/jobs", data=body, method="POST")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            assert err.value.code == 400
            assert "invalid JSON" in json.loads(err.value.read())["error"]
            assert len(gw.store) == 0
            assert _http("GET", f"{gw.url}/healthz")[0] == 200

    def test_stalled_body_is_dropped_and_stores_nothing(
        self, tmp_path, monkeypatch
    ):
        """A client that declares more body than it sends and goes quiet
        loses its connection after the handler timeout; nothing is
        stored, and the gateway keeps serving."""
        monkeypatch.setattr(service_http, "REQUEST_TIMEOUT_S", 0.3)
        with Gateway(state_dir=tmp_path, max_concurrent=1) as gw:
            with _raw_post(gw.port, 100, b'{"ten') as sock:
                assert sock.recv(1024) == b""  # closed, unanswered
            assert len(gw.store) == 0
            status, sub, _ = _http("POST", f"{gw.url}/v1/jobs", spec_for(3))
            assert status == 202
            gw.wait([sub["job_id"]], timeout=120)

    def test_short_body_is_never_routed(self, tmp_path):
        """A body cut short of its ``Content-Length`` — even one that
        parses as a valid spec — is never submitted."""
        body = json.dumps(spec_for(3)).encode()
        with Gateway(state_dir=tmp_path, max_concurrent=1) as gw:
            with _raw_post(gw.port, len(body) + 50, body) as sock:
                sock.shutdown(socket.SHUT_WR)
                assert sock.recv(1024) == b""
            assert len(gw.store) == 0
            assert gw.store.backlog == 0 and gw.store.in_flight == 0
            assert _http("GET", f"{gw.url}/healthz")[0] == 200

    def test_trace_endpoint_serves_causal_analysis(
        self, tmp_path, slow_iterations
    ):
        with Gateway(state_dir=tmp_path, max_concurrent=1) as gw:
            url = gw.url
            status, _, _ = _http("GET", f"{url}/v1/jobs/job-nope/trace")
            assert status == 404
            status, sub, _ = _http("POST", f"{url}/v1/jobs", spec_for(5))
            assert status == 202
            jid = sub["job_id"]
            # Mid-run: the trace file is not written yet, but the
            # trace id minted at submission is already servable.
            _wait_started(slow_iterations)
            status, body, _ = _http("GET", f"{url}/v1/jobs/{jid}/trace")
            assert status == 409 and body["trace_id"]
            gw.wait([jid], timeout=120)
            job = gw.job(jid)
            status, body, _ = _http("GET", f"{url}/v1/jobs/{jid}/trace")
            assert status == 200
            assert body["trace_id"] == job.trace_id
            report = body["report"]
            assert report["schema"] == "repro.telemetry.critpath/v1"
            assert report["trace_id"] == job.trace_id
            assert report["attribution"]["closure"] == pytest.approx(
                1.0, abs=0.01
            )
            # Default response trims the full segment list.
            assert "segments" not in report["critical_path"]
            assert report["critical_path"]["top_segments"]
            # ?spans=1 ships the raw spans, all on the job's trace.
            status, body, _ = _http(
                "GET", f"{url}/v1/jobs/{jid}/trace?spans=1"
            )
            assert status == 200 and body["spans"]
            assert {s.get("trace") for s in body["spans"]} == {job.trace_id}
            assert "segments" in body["report"]["critical_path"]

    def test_over_quota_is_429_with_retry_after(self, tmp_path, slow_iterations):
        with Gateway(state_dir=tmp_path, max_concurrent=1,
                     queue_depth=2, tenant_quota=2) as gw:
            url = gw.url
            # the slowed first job occupies the single supervisor
            spec = spec_for(0, n_genes=28)
            codes = []
            for _ in range(3):
                status, body, headers = _http("POST", f"{url}/v1/jobs", spec)
                codes.append(status)
            assert codes[:2] == [202, 202]
            assert codes[2] == 429
            assert int(headers["Retry-After"]) >= 1
            # rejection is audited on the gateway session
            counters = gw.telemetry.metrics.to_dict()["counters"]
            assert counters["job.rejected"] == 1
            terminal = gw.wait(
                [j.job_id for j in gw.jobs() if j.state != JobState.FAILED],
                timeout=120,
            )
            assert all(j.state == JobState.DONE for j in terminal)

    def test_queued_job_cancels_instantly(self, tmp_path, slow_iterations):
        with Gateway(state_dir=tmp_path, max_concurrent=1) as gw:
            blocker = gw.submit(spec_for(0, n_genes=28))
            victim = gw.submit(spec_for(1))
            status, body, _ = _http(
                "DELETE", f"{gw.url}/v1/jobs/{victim.job_id}")
            assert status == 202
            got = gw.job(victim.job_id)
            assert got.state == JobState.CANCELLED
            assert got.result is None  # never ran
            # double-cancel of a terminal job -> 409
            status, _, _ = _http(
                "DELETE", f"{gw.url}/v1/jobs/{victim.job_id}")
            assert status == 409
            gw.wait([blocker.job_id], timeout=120)

    def test_running_job_cancels_within_one_iteration(
        self, tmp_path, slow_iterations
    ):
        """Cancel lands between greedy iterations, keeping partial work."""
        with Gateway(state_dir=tmp_path, max_concurrent=1) as gw:
            job = gw.submit(spec_for(0, n_genes=32, n_tumor=120, n_normal=120))
            _wait_started(slow_iterations)
            at_cancel = slow_iterations[-1]
            assert gw.cancel(job.job_id) is True
            done = gw.wait([job.job_id], timeout=60)[0]
        assert done.state == JobState.CANCELLED
        assert done.result["cancelled"] is True
        found = len(done.result["combinations"])
        # the cooperative stop fired within one iteration of the request
        assert at_cancel <= found <= at_cancel + 2
        full = direct_solve(spec_for(0, n_genes=32, n_tumor=120, n_normal=120))
        assert found < len(full.combinations)
        # ...and the partial prefix is bit-identical to the full run's
        assert signature(done.result["combinations"]) == signature(
            full.combinations[:found])

    def test_crashing_job_isolated_with_flight_dump(self, tmp_path):
        bad = {"cohort": {"dataset": "no-such-dataset"}, "solver": {"hits": 3}}
        with Gateway(state_dir=tmp_path, max_concurrent=2) as gw:
            # Submit refuses this spec; queue it the way a job file
            # written before the value check would arrive.
            crash = gw.store.new_job("clumsy", bad)
            good = gw.submit(spec_for(5))
            done = gw.wait([crash.job_id, good.job_id], timeout=120)
        crashed, ok = done
        assert crashed.state == JobState.FAILED
        assert crashed.error and "no-such-dataset" in crashed.error
        # the healthy job was untouched by its neighbor's crash
        assert ok.state == JobState.DONE
        assert signature(ok.result["combinations"]) == signature(
            direct_solve(spec_for(5)).combinations)
        # the black box landed, namespaced by job id
        dumps = list((tmp_path / "flight").glob(
            f"blackbox-{crash.job_id}-*.json"))
        assert len(dumps) == 1
        payload = json.loads(dumps[0].read_text())
        assert payload["reason"] == "job-failed"
        assert not list((tmp_path / "flight").glob(
            f"blackbox-{ok.job_id}-*.json"))
        counters = gw.telemetry.metrics.to_dict()["counters"]
        assert counters["job.failed"] == 1
        assert counters["job.completed"] == 1

    def test_bad_solver_values_are_400_and_leave_no_trace(self, tmp_path):
        cohort = spec_for(0)["cohort"]
        with Gateway(state_dir=tmp_path, max_concurrent=1) as gw:
            for solver, named in [
                ({"n_workers": "x"}, "n_workers"),
                ({"hits": "3"}, "hits"),
                ({"hits": 3, "elastic": True}, "elastic"),
                ({"hits": 3, "prune_blocks": 64}, "unknown solver keys"),
            ]:
                status, body, _ = _http(
                    "POST", f"{gw.url}/v1/jobs",
                    {"cohort": cohort, "solver": solver})
                assert status == 400 and named in body["error"], body
            assert len(gw.store) == 0
            assert gw.store.backlog == 0 and gw.store.in_flight == 0

    def test_bad_cohort_values_are_400_and_leave_no_trace(self, tmp_path):
        """A cohort that could only fail once a runner claimed it is
        refused before it is stored, queued or charged to a quota."""
        good = spec_for(0)
        with Gateway(state_dir=tmp_path, max_concurrent=1) as gw:
            for cohort, named in [
                ({"hits": "x"}, "cohort.hits"),
                ({"n_genes": True}, "cohort.n_genes"),
                ({"driver_penetrance": 5}, "driver_penetrance"),
                ({"dataset": "nope"}, "cohort.dataset"),
                ({"n_genes": 8, "hits": 3}, "n_genes"),
            ]:
                if "dataset" not in cohort:
                    cohort = {**good["cohort"], **cohort}
                status, body, _ = _http(
                    "POST", f"{gw.url}/v1/jobs",
                    {"cohort": cohort, "solver": good["solver"]})
                assert status == 400 and named in body["error"], body
            assert len(gw.store) == 0
            assert not list((tmp_path / "jobs").iterdir())
            assert gw.store.backlog == 0 and gw.store.in_flight == 0
            # A valid spec is stored exactly as submitted.
            job = gw.submit(good)
            stored = json.loads((tmp_path / "jobs" / f"{job.job_id}.json").read_text())
            assert stored["spec"] == {
                "cohort": good["cohort"], "solver": good["solver"]
            }
            gw.wait([job.job_id], timeout=120)

    def test_dispatch_failure_fails_the_job_not_the_supervisor(
        self, tmp_path, monkeypatch
    ):
        seen = []

        def first_job_explodes(job, *sizing):
            seen.append(job.job_id)
            if len(seen) == 1:
                raise RuntimeError("dispatch exploded")
            return decide(job, *sizing)

        monkeypatch.setattr(runner_mod, "decide", first_job_explodes)
        with Gateway(state_dir=tmp_path, max_concurrent=1) as gw:
            doomed = gw.submit(spec_for(1))
            after = gw.submit(spec_for(2))
            failed, ok = gw.wait([doomed.job_id, after.job_id], timeout=120)
        assert failed.state == JobState.FAILED
        assert "dispatch exploded" in failed.error
        assert ok.state == JobState.DONE
        counters = gw.telemetry.metrics.to_dict()["counters"]
        assert counters["job.failed"] == 1 and counters["job.completed"] == 1

    def test_elastic_spec_is_decided_at_submit_not_by_rotation(self, tmp_path):
        """An unpinned elastic spec is refused at submit every time,
        whatever dispatch would pick for it; a pinned one runs."""
        unpinned = spec_for(1, solver={"elastic": True})
        pinned = spec_for(
            1, solver={"elastic": True, "backend": "pool", "n_workers": 2})
        with Gateway(state_dir=tmp_path, max_concurrent=1) as gw:
            for _ in range(2):
                with pytest.raises(ValueError, match="backend"):
                    gw.submit(unpinned)
            jobs = [gw.submit(pinned) for _ in range(2)]
            done = gw.wait([j.job_id for j in jobs], timeout=120)
        assert [j.state for j in done] == [JobState.DONE] * 2
        assert [j.dispatch["backend"] for j in done] == ["pool", "pool"]
        assert signature(done[0].result["combinations"]) == signature(
            done[1].result["combinations"]
        ) == signature(direct_solve(pinned).combinations)

    def test_unpinned_jobs_run_single_on_a_default_gateway(self, tmp_path):
        """Small unpinned jobs stay in-process, every one of them: the
        sizing rule has no rotation to land a job on a pool."""
        specs = [spec_for(seed, n_genes=24) for seed in (0, 1)]
        with Gateway(state_dir=tmp_path, max_concurrent=1) as gw:
            jobs = [gw.submit(spec) for spec in specs]
            done = gw.wait([j.job_id for j in jobs], timeout=120)
        assert [j.dispatch["backend"] for j in done] == ["single", "single"]
        for job, spec in zip(done, specs):
            assert job.dispatch["n_workers"] == 1
            assert signature(job.result["combinations"]) == signature(
                direct_solve(spec).combinations)

    def test_metrics_endpoint_exposes_job_counters(self, tmp_path):
        from repro.telemetry.prom import validate_prometheus

        with Gateway(state_dir=tmp_path, max_concurrent=1) as gw:
            job = gw.submit(spec_for(7))
            gw.wait([job.job_id], timeout=120)
            with urllib.request.urlopen(f"{gw.url}/metrics", timeout=10) as r:
                text = r.read().decode()
        validate_prometheus(text)
        assert "repro_job_submitted 1" in text
        assert "repro_job_completed 1" in text
        assert "repro_job_wall_s_count 1" in text


class TestRestartRecovery:
    def test_job_claimed_at_shutdown_stays_queued(self, tmp_path):
        """A job claimed as the runner stops is not a tenant cancel: it
        stays ``queued`` on disk, so the next boot runs it."""
        store = JobStore(tmp_path)
        job = store.new_job("t", spec_for(0))
        runner = JobRunner(store=store, state_dir=tmp_path)
        assert store.claim(timeout=0).job_id == job.job_id
        runner._stop.set()
        runner._run_job(job)
        reloaded = JobStore(tmp_path).get(job.job_id)
        assert reloaded.state == JobState.QUEUED
        assert not reloaded.cancel_requested

    def test_interrupted_job_resumes_from_checkpoint(self, tmp_path):
        """A job found running at boot re-queues and resumes, bit-identical."""
        spec = {
            "cohort": {"n_genes": 20, "n_tumor": 50, "n_normal": 50,
                       "hits": 3, "seed": 9},
            "solver": {"hits": 3, "backend": "single"},
        }
        # Simulate a gateway that died mid-solve: a running-state job
        # record plus a 3-iteration checkpoint on disk.
        store = JobStore(tmp_path)
        job = store.new_job("phoenix", spec)
        store.transition(job.job_id, JobState.ADMITTED)
        store.transition(job.job_id, JobState.RUNNING)
        from repro.core.checkpoint import solve_with_checkpoints

        cohort = generate_cohort(CohortConfig(**spec["cohort"]))
        ckpt_dir = tmp_path / "checkpoints"
        ckpt_dir.mkdir()
        solve_with_checkpoints(
            MultiHitSolver(hits=3, max_iterations=3),
            cohort.tumor.values, cohort.normal.values,
            ckpt_dir / f"{job.job_id}.json",
        )
        del store

        with Gateway(state_dir=tmp_path, max_concurrent=1) as gw:
            assert gw._recovered == 1
            counters = gw.telemetry.metrics.to_dict()["counters"]
            assert counters["job.recovered"] == 1
            done = gw.wait([job.job_id], timeout=120)[0]
        assert done.state == JobState.DONE
        full = direct_solve(spec)
        assert signature(done.result["combinations"]) == signature(
            full.combinations)
        # the solve resumed: only the post-checkpoint iterations ran
        assert len(done.result["iterations"]) == len(full.iterations) - 3

    def test_job_files_from_before_the_value_check_fail_cleanly(self, tmp_path):
        """Specs stored by an older gateway were never value-checked: one
        carries a since-removed key, one a wrong-typed pin.  Each fails
        on its own; the runner lives to finish the job behind them."""
        store = JobStore(tmp_path)
        base = spec_for(4)
        removed_key = store.new_job("old", {
            "cohort": base["cohort"], "solver": {"hits": 3, "prune_blocks": 64}})
        bad_pin = store.new_job("old", {
            "cohort": base["cohort"], "solver": {"hits": 3, "n_workers": "x"}})
        del store
        with Gateway(state_dir=tmp_path, max_concurrent=1) as gw:
            assert gw._recovered == 2
            fresh = gw.submit(spec_for(5))
            stale_a, stale_b, ok = gw.wait(
                [removed_key.job_id, bad_pin.job_id, fresh.job_id], timeout=120)
        assert stale_a.state == JobState.FAILED
        assert "prune_blocks" in stale_a.error
        assert stale_b.state == JobState.FAILED
        assert ok.state == JobState.DONE

    def test_job_file_with_a_policy_name_recovers(self, tmp_path):
        """A job file written when decisions still named their dispatch
        policy loads, re-queues and is re-sized by the one rule."""
        spec = spec_for(6)
        store = JobStore(tmp_path)
        job = store.new_job("old", spec)
        store.transition(job.job_id, JobState.ADMITTED, dispatch={
            "backend": "pool", "n_workers": 4, "n_nodes": 4,
            "policy": "round_robin", "est_cost": 1.2e5,
        })
        store.transition(job.job_id, JobState.RUNNING)
        del store
        with Gateway(state_dir=tmp_path, max_concurrent=1) as gw:
            assert gw._recovered == 1
            done = gw.wait([job.job_id], timeout=120)[0]
        assert done.state == JobState.DONE
        assert done.dispatch["backend"] == "single"
        assert "policy" not in done.dispatch
        assert signature(done.result["combinations"]) == signature(
            direct_solve(spec).combinations)

    @pytest.mark.parametrize(
        "limits", [{"queue_depth": 2}, {"tenant_quota": 2}],
        ids=["depth", "quota"],
    )
    def test_reboot_under_tighter_limits_runs_the_backlog(self, tmp_path, limits):
        """Four queued jobs of one tenant, stored under a depth of 4: a
        gateway rebooted on them with a depth or a quota of 2 boots,
        answers a fifth submission with 429, runs all four, and then
        admits again."""
        first = Gateway(state_dir=tmp_path, queue_depth=4)  # never started
        specs = [spec_for(seed) for seed in (0, 2, 4, 6)]  # all tenant-0
        ids = [first.submit(spec).job_id for spec in specs]
        del first

        gw = Gateway(state_dir=tmp_path, max_concurrent=1, **limits)
        try:
            assert gw._recovered == 4
            gw.server.start()
            status, body, headers = _http(
                "POST", f"{gw.url}/v1/jobs", spec_for(8))
            assert status == 429, body
            assert int(headers["Retry-After"]) >= 1
            gw.start()
            done = gw.wait(ids, timeout=120)
            assert [j.state for j in done] == [JobState.DONE] * 4
            for job, spec in zip(done, specs):
                assert signature(job.result["combinations"]) == signature(
                    direct_solve(spec).combinations)
            status, sub, _ = _http("POST", f"{gw.url}/v1/jobs", spec_for(8))
            assert status == 202
            assert gw.wait([sub["job_id"]], timeout=120)[0].state == JobState.DONE
        finally:
            gw.stop()

    def test_cancel_requested_job_finalized_at_boot(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.new_job("t", spec_for(0))
        store.update(job.job_id, cancel_requested=True)
        del store
        with Gateway(state_dir=tmp_path) as gw:
            assert gw.job(job.job_id).state == JobState.CANCELLED
            assert gw._recovered == 0

    def test_shutdown_leaves_running_job_resumable(
        self, tmp_path, slow_iterations
    ):
        """Gateway stop is not a tenant cancel: the job stays ``running``."""
        spec = spec_for(0, n_genes=32, n_tumor=120, n_normal=120,
                        solver={"backend": "single"})
        gw = Gateway(state_dir=tmp_path, max_concurrent=1)
        gw.start()
        job = gw.submit(spec)
        _wait_started(slow_iterations)
        gw.stop()  # interrupts the solve mid-flight
        interrupted = JobStore(tmp_path).get(job.job_id)
        assert interrupted.state == JobState.RUNNING  # resumable, not cancelled
        assert not interrupted.cancel_requested
        ckpt = tmp_path / "checkpoints" / f"{job.job_id}.json"
        assert ckpt.exists()

        # Boot a second gateway on the same state dir: the job re-queues
        # and resumes from its checkpoint, landing bit-identical.
        with Gateway(state_dir=tmp_path, max_concurrent=1) as gw2:
            assert gw2._recovered == 1
            done = gw2.wait([job.job_id], timeout=120)[0]
        assert done.state == JobState.DONE
        plain = {k: v for k, v in spec.items() if k != "tenant"}
        full = direct_solve(plain)
        assert signature(done.result["combinations"]) == signature(
            full.combinations)


class TestDurability:
    """A job's durable writes are the ones restart recovery reads."""

    def test_gateway_job_makes_five_fsyncs(self, tmp_path, monkeypatch):
        """Submit, running, the final checkpoint, the trace, done: no
        admitted write, no progress write and no checkpoint per
        iteration (a 4-iteration job made 13 when each was durable)."""
        fsyncs = []
        real_fsync = os.fsync

        def counting(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr("repro.telemetry.export.os.fsync", counting)
        spec = spec_for(0, n_genes=24, n_tumor=60, n_normal=60,
                        solver={"max_iterations": 4})
        with Gateway(state_dir=tmp_path, max_concurrent=2) as gw:
            job = gw.submit(spec)
            done = gw.wait([job.job_id], timeout=120)[0]
        # Leaving the context joined the supervisors: every write landed.
        assert done.state == JobState.DONE
        assert len(done.result["iterations"]) == 4
        assert len(fsyncs) == 5
        # The terminal write carries the final progress.
        on_disk = JobStore(tmp_path).get(job.job_id)
        assert on_disk.state == JobState.DONE
        assert on_disk.progress["iterations"] == 4
        assert on_disk.dispatch == done.dispatch

    def test_slowed_job_checkpoints_mid_run(
        self, tmp_path, monkeypatch, slow_iterations
    ):
        """With the interval shorter than an iteration, a running job
        saves as it goes, not only at the end."""
        from repro.core import checkpoint as checkpoint_mod

        monkeypatch.setattr(runner_mod, "CHECKPOINT_INTERVAL_S", 0.01)
        saves = []
        real_save = checkpoint_mod._Journal.save
        monkeypatch.setattr(
            checkpoint_mod._Journal, "save",
            lambda journal, state: (saves.append(state.n_found),
                                    real_save(journal, state)),
        )
        spec = spec_for(0, n_genes=32, n_tumor=120, n_normal=120)
        with Gateway(state_dir=tmp_path, max_concurrent=1) as gw:
            job = gw.submit(spec)
            done = gw.wait([job.job_id], timeout=120)[0]
        assert done.state == JobState.DONE
        found = len(done.result["combinations"])
        assert found >= 3
        # Every iteration after the first sleeps past the interval first.
        assert set(range(2, found + 1)) <= set(saves)
        assert saves[-1] == found

    @pytest.mark.parametrize("state", [JobState.ADMITTED, JobState.RUNNING])
    def test_job_file_with_persisted_progress_recovers(self, tmp_path, state):
        """Job files from a gateway that wrote ``admitted`` and every
        progress update to disk still load, re-queue and resume from
        their checkpoint, bit-identical."""
        from repro.core.checkpoint import solve_with_checkpoints

        spec = spec_for(9, solver={"backend": "single"})
        job = JobStore(tmp_path).new_job("old", spec)
        path = tmp_path / "jobs" / f"{job.job_id}.json"
        raw = json.loads(path.read_text())
        raw.update(
            state=state,
            dispatch={"backend": "single", "n_workers": 1, "n_nodes": 1,
                      "est_cost": 1.0e5},
            progress={"iterations": 2, "uncovered": 9, "covered": 41,
                      "total": 50, "eta_s": 0.01, "elapsed_s": 0.02},
        )
        path.write_text(json.dumps(raw) + "\n")
        cohort = generate_cohort(CohortConfig(**spec["cohort"]))
        (tmp_path / "checkpoints").mkdir()
        solve_with_checkpoints(
            MultiHitSolver(hits=3, max_iterations=2),
            cohort.tumor.values, cohort.normal.values,
            tmp_path / "checkpoints" / f"{job.job_id}.json",
        )
        with Gateway(state_dir=tmp_path, max_concurrent=1) as gw:
            assert gw._recovered == 1
            done = gw.wait([job.job_id], timeout=120)[0]
        assert done.state == JobState.DONE
        full = direct_solve(spec)
        assert signature(done.result["combinations"]) == signature(
            full.combinations)
        assert len(done.result["iterations"]) == len(full.iterations) - 2
        assert done.progress["iterations"] == len(full.combinations)

    def test_checkpoint_cadence_is_not_a_knob(self, tmp_path):
        with pytest.raises(TypeError, match="checkpoint_every"):
            Gateway(state_dir=tmp_path, checkpoint_every=1)
        with pytest.raises(TypeError, match="checkpoint_every"):
            JobRunner(store=JobStore(tmp_path), state_dir=tmp_path,
                      checkpoint_every=1)
