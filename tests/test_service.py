"""The diagnosis service: job lifecycle, tenancy, durability, HTTP face.

Covers the service-layer guarantees end to end: submit/status/result
round-trips, concurrent multi-tenant execution with zero lost jobs,
chaos-injected worker crashes absorbed by retries, restart re-adoption
of orphaned jobs after an (effective) ``kill -9``, cancellation of both
queued and running jobs, and the ``/v1`` HTTP API over a real socket.
"""

import json
import multiprocessing
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.experiments import scenarios
from repro.scenarios.spec import build_scenario
from repro.service import (
    PRIORITIES,
    DiagnosisService,
    HttpServiceClient,
    JobNotFinishedError,
    JobNotFoundError,
    JobSpec,
    NamespacePolicy,
    ServiceClient,
    ServiceError,
)
from repro.service import jobs
from repro.service.jobs import TERMINAL_STATES, execute_job
from repro.service.store import JobStore, replay_store


@pytest.fixture(autouse=True)
def _clean_chaos_env(monkeypatch):
    from repro.exec.chaos import CHAOS_ENV_VARS

    for name in CHAOS_ENV_VARS:
        monkeypatch.delenv(name, raising=False)


def _service(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    return DiagnosisService(tmp_path / "svc", **kwargs)


# ------------------------------------------------------------- job specs


def test_job_spec_validation_rejects_bad_fields():
    with pytest.raises(ValueError, match="kind"):
        JobSpec(kind="made-up")
    with pytest.raises(ValueError, match="namespace"):
        JobSpec(kind="sleep", namespace="../escape")
    with pytest.raises(ValueError, match="namespace"):
        JobSpec(kind="sleep", namespace="UPPER")
    with pytest.raises(ValueError, match="timeout"):
        JobSpec(kind="sleep", timeout=0)
    with pytest.raises(ValueError, match="max_attempts"):
        JobSpec(kind="sleep", max_attempts=0)
    with pytest.raises(ValueError, match="unknown job spec fields"):
        JobSpec.from_payload({"kind": "sleep", "nope": 1})


def test_job_spec_round_trips_through_payload():
    spec = JobSpec(
        kind="experiment",
        payload={"name": "fig10", "preset": "smoke"},
        namespace="team-a",
        timeout=30.0,
        max_attempts=3,
    )
    assert JobSpec.from_payload(spec.to_payload()) == spec


# ------------------------------------------------------------ round trip


def test_submit_status_result_round_trip(tmp_path):
    with _service(tmp_path) as svc:
        client = ServiceClient(svc)
        job_id = client.submit(
            "experiment", {"name": "fig10", "preset": "smoke"},
            namespace="team-a",
        )
        assert client.wait(job_id, timeout=120) == "done"
        status = client.status(job_id)
        assert status["state"] == "done"
        assert status["status"] == "ok"
        assert status["namespace"] == "team-a"
        result = client.result(job_id)
        assert result["kind"] == "experiment"
        assert result["result"]["experiment"] == "fig10"
        assert result["integrity"]["algorithm"] == "sha256"
        # The artifact lives inside the tenant's namespace subtree.
        assert "team-a" in status["result_path"]


def test_diagnose_job_round_trip(tmp_path):
    """The ``diagnose`` kind runs one bounded diagnosis of a scenario
    cell, calibrated exactly like the arena's."""
    with _service(tmp_path, workers=1) as svc:
        client = ServiceClient(svc)
        job_id = client.submit(
            "diagnose",
            {
                "scenario": "static-under-rotation",
                "n_qubits": 6,
                "diagnoser": "battery",
                "trial": 0,
            },
        )
        assert client.wait(job_id, timeout=120) == "done"
        result = client.result(job_id)["result"]
        assert result["schema"] == "repro-service-diagnosis/v1"
        assert result["diagnoser"] == "battery"
        assert result["n_qubits"] == 6
        assert isinstance(result["detected"], bool)
        assert result["shots"] > 0
        # An injected static fault at trial 0 must be in the truth set.
        assert result["ground_truth"]


_GOOD_DIAGNOSE = {"scenario": "static-under-rotation", "n_qubits": 8}

#: (payload, error) pairs a worker could not run: each is refused at
#: submit, before it is journaled.
MALFORMED_DIAGNOSE = [
    ({**_GOOD_DIAGNOSE, "trial": None}, "'trial' must be an int"),
    ({**_GOOD_DIAGNOSE, "trial": -1}, "'trial' must be an int"),
    ({**_GOOD_DIAGNOSE, "trial": True}, "'trial' must be an int"),
    ({**_GOOD_DIAGNOSE, "n_qubits": 1}, "'n_qubits' must be an int"),
    ({**_GOOD_DIAGNOSE, "n_qubits": "8"}, "'n_qubits' must be an int"),
    ({**_GOOD_DIAGNOSE, "scenario": "made-up"}, "unknown scenario"),
    ({"n_qubits": 8}, "unknown scenario"),
    ({**_GOOD_DIAGNOSE, "diagnoser": "oracle"}, "unknown diagnoser"),
    ({**_GOOD_DIAGNOSE, "bogus": 1}, "unknown diagnose job payload fields"),
]


def _submitted(service) -> list[dict]:
    if not service.store.path.exists():
        return []
    records = map(json.loads, service.store.path.read_text().splitlines())
    return [r for r in records if r["type"] == "submitted"]


def test_malformed_diagnose_jobs_are_refused_at_submit(tmp_path):
    with _service(tmp_path, workers=1) as svc:
        for payload, error in MALFORMED_DIAGNOSE:
            with pytest.raises(ValueError, match=error):
                svc.submit(JobSpec(kind="diagnose", payload=payload))
        assert svc.list_jobs() == [] and _submitted(svc) == []
    # What the service's own callers send still passes.
    for payload in (
        _GOOD_DIAGNOSE,
        {
            "scenario": "phase-miscalibration",
            "n_qubits": 8,
            "trial": 3,
            "diagnoser": "worst",
            "preset": "smoke",
            "overrides": {"seed": 5},
        },
    ):
        jobs.check_diagnose_request(payload)


def test_result_before_done_and_unknown_job_raise(tmp_path):
    with _service(tmp_path, workers=1) as svc:
        job_id = svc.submit(JobSpec(kind="sleep", payload={"seconds": 5}))
        with pytest.raises(JobNotFinishedError):
            svc.result(job_id)
        with pytest.raises(JobNotFoundError):
            svc.status("no-such-job")
        svc.cancel(job_id)


def test_failed_job_reports_cause_not_silence(tmp_path):
    with _service(tmp_path, workers=1) as svc:
        job_id = svc.submit(
            JobSpec(kind="experiment", payload={"name": "no-such-figure"})
        )
        assert svc.wait(job_id, timeout=60) == "failed"
        status = svc.status(job_id)
        assert status["status"] == "gave_up"
        assert status["n_attempts"] == 1
        with pytest.raises(JobNotFinishedError):
            svc.result(job_id)


def test_corrupted_result_artifact_is_quarantined_not_served(tmp_path):
    with _service(tmp_path, workers=1) as svc:
        job_id = svc.submit(JobSpec(kind="sleep", payload={"seconds": 0}))
        assert svc.wait(job_id, timeout=30) == "done"
        path = svc._jobs[job_id].result_path
        artifact = json.loads(path.read_text())
        artifact["result"]["slept_seconds"] = 999  # checksum now disagrees
        path.write_text(json.dumps(artifact))
        with pytest.raises(RuntimeError, match="integrity"):
            svc.result(job_id)
        assert not path.exists()  # moved into quarantine/


# ----------------------------------------------------- concurrent tenancy


def test_concurrent_jobs_across_namespaces_none_lost(tmp_path):
    """Eight concurrent jobs over two tenants: all complete, artifacts
    land in their own namespace subtrees, and they really overlap in
    time (wall << serial sum)."""
    with _service(tmp_path, workers=8) as svc:
        client = ServiceClient(svc)
        start = time.monotonic()
        jobs = [
            client.submit(
                "sleep",
                {"seconds": 0.5},
                namespace="alice" if i % 2 else "bob",
            )
            for i in range(8)
        ]
        states = [client.wait(j, timeout=30) for j in jobs]
        elapsed = time.monotonic() - start
        assert states == ["done"] * 8
        assert elapsed < 3.0  # 8 x 0.5s serial would be 4s+
        assert len(client.list_jobs("alice")) == 4
        assert len(client.list_jobs("bob")) == 4
        for job_id in jobs:
            status = client.status(job_id)
            assert status["namespace"] in status["result_path"]
        alice = svc.results_dir("alice")
        bob = svc.results_dir("bob")
        assert len(list(alice.glob("*.json"))) == 4
        assert len(list(bob.glob("*.json"))) == 4


# -------------------------------------------------------- chaos + retries


def test_chaos_worker_crashes_absorbed_by_retries(tmp_path, monkeypatch):
    """With a 50% per-attempt crash rate injected, a generous retry
    budget still lands every job in ``done`` — zero lost jobs.

    Injection is a function of the chaos seed and the job id, so the
    ids come from a seeded generator: with ``uuid4`` ids about one run
    in 140 drew a job that crashed ten times in a row, whose retry
    backoff alone outlasts the wait.  Each job's attempt count must
    match the offline replay of :func:`repro.exec.chaos.decide`.
    """
    from repro.exec.chaos import ChaosConfig, decide

    monkeypatch.setenv("REPRO_CHAOS_CRASH_RATE", "0.5")
    monkeypatch.setenv("REPRO_CHAOS_SEED", "13")
    id_rng = random.Random(4)
    monkeypatch.setattr(
        sys.modules["repro.service.service"],
        "uuid",
        SimpleNamespace(uuid4=lambda: uuid.UUID(int=id_rng.getrandbits(128))),
    )
    chaos = ChaosConfig.from_env()

    def expected_attempts(job_id: str) -> int:
        attempt = 0
        while decide(chaos, f"{job_id}#a{attempt}") == "crash":
            attempt += 1
        return attempt + 1

    with _service(tmp_path, workers=4) as svc:
        client = ServiceClient(svc)
        jobs = [
            client.submit(
                "sleep",
                {"seconds": 0.05},
                namespace="alice" if i % 2 else "bob",
                max_attempts=16,
            )
            for i in range(8)
        ]
        for job_id in jobs:
            assert client.wait(job_id, timeout=60) == "done"
        statuses = [client.status(j) for j in jobs]
        assert all(s["status"] in ("ok", "retried") for s in statuses)
        assert [s["n_attempts"] for s in statuses] == [
            expected_attempts(j) for j in jobs
        ]
        # At least one attempt crashed and was retried through.
        assert sum(s["n_attempts"] for s in statuses) > 8


def test_chaos_crash_exhaustion_is_a_failed_job_not_a_hang(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS_CRASH_RATE", "1.0")
    with _service(tmp_path, workers=1) as svc:
        job_id = svc.submit(
            JobSpec(kind="sleep", payload={"seconds": 0}, max_attempts=2)
        )
        assert svc.wait(job_id, timeout=60) == "failed"
        status = svc.status(job_id)
        assert status["status"] == "crashed"
        assert status["n_attempts"] == 2


# --------------------------------------------------------- durability


def test_restart_readopts_orphaned_jobs(tmp_path):
    """Jobs left ``queued`` or ``running`` by a dead service are
    re-adopted and completed by the next service over the same root."""
    root = tmp_path / "svc"
    # A service that never starts its dispatchers stands in for one
    # killed before dispatch: the job is journaled but never runs.
    svc = DiagnosisService(root, workers=1)
    queued_id = svc.submit(JobSpec(kind="sleep", payload={"seconds": 0.05}))
    svc.close()
    # Forge the kill -9 signature for a *running* orphan: submitted and
    # running records, no done record, torn final line included.
    store = JobStore(root / "service.journal.jsonl")
    store.record_submitted(
        "orphan-running", JobSpec(kind="sleep", payload={"seconds": 0.05})
    )
    store.record_state("orphan-running", "running")
    store.close()
    with open(root / "service.journal.jsonl", "a") as handle:
        handle.write('{"type": "state", "job_id": "orphan-ru')  # torn

    with DiagnosisService(root, workers=2) as revived:
        assert sorted(revived.adopted) == sorted(
            [queued_id, "orphan-running"]
        )
        assert revived.wait(queued_id, timeout=30) == "done"
        assert revived.wait("orphan-running", timeout=30) == "done"
        assert revived.status("orphan-running")["adopted"] >= 1
    # The journal now proves completion: a third service re-adopts nothing.
    third = DiagnosisService(root, workers=1)
    try:
        assert third.adopted == []
        assert third.status(queued_id)["state"] == "done"
        assert third.result(queued_id)["result"]["slept_seconds"] == 0.05
    finally:
        third.close()


def test_terminal_jobs_survive_restart_without_rerunning(tmp_path):
    root = tmp_path / "svc"
    with DiagnosisService(root, workers=1) as svc:
        done_id = svc.submit(JobSpec(kind="sleep", payload={"seconds": 0}))
        assert svc.wait(done_id, timeout=30) == "done"
        cancelled_id = svc.submit(JobSpec(kind="sleep", payload={"seconds": 30}))
        while svc.status(cancelled_id)["state"] == "queued":
            time.sleep(0.01)
        svc.cancel(cancelled_id)
        assert svc.wait(cancelled_id, timeout=30) == "cancelled"
    replayed = replay_store(root / "service.journal.jsonl")
    assert replayed[done_id].state == "done"
    assert replayed[cancelled_id].state == "cancelled"
    with DiagnosisService(root, workers=1) as revived:
        assert revived.adopted == []
        assert revived.status(done_id)["state"] == "done"
        assert revived.status(cancelled_id)["state"] == "cancelled"


# --------------------------------------------------------- cancellation


def test_cancel_queued_job_never_runs(tmp_path):
    with _service(tmp_path, workers=1) as svc:
        blocker = svc.submit(JobSpec(kind="sleep", payload={"seconds": 5}))
        queued = svc.submit(JobSpec(kind="sleep", payload={"seconds": 5}))
        assert svc.cancel(queued) is True
        assert svc.status(queued)["state"] == "cancelled"
        assert svc.status(queued)["n_attempts"] == 0  # never dispatched
        assert svc.cancel(queued) is False  # idempotent on terminal
        svc.cancel(blocker)
        assert svc.wait(blocker, timeout=30) == "cancelled"


def test_cancel_running_job_kills_the_worker(tmp_path):
    with _service(tmp_path, workers=1) as svc:
        job_id = svc.submit(JobSpec(kind="sleep", payload={"seconds": 60}))
        while svc.status(job_id)["state"] != "running":
            time.sleep(0.01)
        start = time.monotonic()
        assert svc.cancel(job_id) is True
        assert svc.wait(job_id, timeout=30) == "cancelled"
        assert time.monotonic() - start < 10  # not the 60s sleep
        status = svc.status(job_id)
        assert status["status"] == "cancelled"
        assert status["n_attempts"] == 1  # the killed attempt is recorded


# ------------------------------------------------------------- HTTP face


@pytest.fixture()
def http_service(tmp_path):
    from repro.service.http import make_server

    service = DiagnosisService(tmp_path / "svc", workers=2).start()
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = HttpServiceClient(f"http://{host}:{port}")
    try:
        yield client
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()


def test_http_round_trip(http_service):
    client = http_service
    health = client.health()
    assert health["ok"] and health["schema"] == "repro-service/v1"
    job_id = client.submit("sleep", {"seconds": 0.05}, namespace="team-a")
    assert client.wait(job_id, timeout=30) == "done"
    assert client.status(job_id)["namespace"] == "team-a"
    result = client.result(job_id)
    assert result["result"]["slept_seconds"] == 0.05
    assert [j["job_id"] for j in client.list_jobs("team-a")] == [job_id]
    assert client.list_jobs("team-b") == []


def test_http_error_mapping(http_service):
    client = http_service
    with pytest.raises(ServiceError, match="no such job"):
        client.status("missing")
    with pytest.raises(ServiceError, match="invalid request"):
        # Raw POST: client-side JobSpec validation would catch this
        # first, but the server must reject bad specs on its own too.
        client._call("POST", "/v1/jobs", {"kind": "made-up-kind"})
    with pytest.raises(ServiceError, match="not done"):
        job_id = client.submit("sleep", {"seconds": 10})
        try:
            client.result(job_id)
        finally:
            client.cancel(job_id)


def test_http_refuses_malformed_diagnose_jobs_with_400(http_service):
    for payload, error in MALFORMED_DIAGNOSE:
        body = {"kind": "diagnose", "payload": payload}
        with pytest.raises(ServiceError, match=error) as refused:
            http_service._call("POST", "/v1/jobs", body)
        assert refused.value.__cause__.code == 400
    assert http_service.list_jobs() == []


def _raw_post(client, content_length):
    """Status code of a bodiless POST /v1/jobs declaring ``content_length``."""
    host, port = client.base_url.split("//")[1].split(":")
    with socket.create_connection((host, int(port)), timeout=3) as sock:
        sock.sendall(
            (
                "POST /v1/jobs HTTP/1.1\r\n"
                f"Host: {host}\r\n"
                f"Content-Length: {content_length}\r\n\r\n"
            ).encode()
        )
        status_line = sock.makefile("rb").readline().decode()
    return int(status_line.split()[1])


def test_http_refuses_bad_content_length_before_reading(http_service):
    from repro.service.http import MAX_BODY_BYTES

    assert _raw_post(http_service, -1) == 400
    assert _raw_post(http_service, MAX_BODY_BYTES + 1) == 413
    assert http_service.health()["ok"]


def test_http_cancel(http_service):
    client = http_service
    job_id = client.submit("sleep", {"seconds": 60})
    deadline = time.monotonic() + 10
    while client.status(job_id)["state"] == "queued":
        assert time.monotonic() < deadline
        time.sleep(0.02)
    assert client.cancel(job_id) is True
    assert client.wait(job_id, timeout=30) == "cancelled"
    assert client.cancel(job_id) is False


@pytest.mark.parametrize(
    "method, path, attribute, error",
    [
        ("GET", "/v1/queue", "queue_snapshot", KeyError("lost")),
        ("GET", "/v1/jobs/abc", "status", OSError(5, "disk gone")),
        ("POST", "/v1/jobs/abc/cancel", "cancel", KeyError("lost")),
        ("POST", "/v1/jobs/abc/cancel", "cancel", OSError(5, "disk gone")),
    ],
)
def test_http_unmapped_errors_are_logged_500s(
    http_service, monkeypatch, caplog, method, path, attribute, error
):
    def boom(*_args, **_kwargs):
        raise error

    monkeypatch.setattr(DiagnosisService, attribute, boom)
    with caplog.at_level("ERROR", logger="repro.service.http"):
        with pytest.raises(ServiceError, match="internal error") as info:
            http_service._call(method, path, {} if method == "POST" else None)
    assert info.value.__cause__.code == 500
    message = str(info.value)
    assert type(error).__name__ in message
    error_id = message.split()[2]
    assert any(error_id in r.getMessage() for r in caplog.records)
    # The handler thread survived: the server keeps serving.
    monkeypatch.undo()
    assert http_service.health()["ok"]
    with pytest.raises(ServiceError, match="no such job"):
        http_service.status("abc")


# ------------------------------------------------- scheduler integration


def test_stress_two_tenants_mixed_priorities_zero_lost(tmp_path):
    """A flood of mixed-priority jobs across two capped tenants on two
    real dispatchers: every job runs exactly once (one ``submitted``
    and one ``done`` journal record each), caps are never observed
    exceeded, and both tenants' artifacts land intact."""
    policies = {
        "alice": NamespacePolicy(weight=2.0, max_inflight=1),
        "bob": NamespacePolicy(max_inflight=2),
    }
    root = tmp_path / "svc"
    with DiagnosisService(root, workers=2, policies=policies) as svc:
        client = ServiceClient(svc)
        jobs = [
            client.submit(
                "sleep",
                {"seconds": 0.02},
                namespace="alice" if i % 2 else "bob",
                priority=PRIORITIES[i % 3],
            )
            for i in range(16)
        ]
        pending = set(jobs)
        deadline = time.monotonic() + 90
        while pending:
            assert time.monotonic() < deadline, f"lost jobs: {pending}"
            snap = svc.queue_snapshot()
            for name, policy in policies.items():
                tenant = snap["namespaces"].get(name)
                if tenant is not None and policy.max_inflight is not None:
                    assert tenant["inflight"] <= policy.max_inflight
            for job_id in list(pending):
                if client.status(job_id)["state"] in TERMINAL_STATES:
                    pending.discard(job_id)
            time.sleep(0.01)
        assert all(client.status(j)["state"] == "done" for j in jobs)
        snap = svc.queue_snapshot()
        assert snap["total_queued"] == 0
        assert snap["dispatched"] == len(jobs)
    # Journal audit: exactly one submitted and one done line per job —
    # nothing lost, nothing run twice.
    submitted, done = {}, {}
    for line in (root / "service.journal.jsonl").read_text().splitlines():
        record = json.loads(line)
        bucket = {"submitted": submitted, "done": done}.get(record["type"])
        if bucket is not None:
            bucket[record["job_id"]] = bucket.get(record["job_id"], 0) + 1
    assert submitted == {job_id: 1 for job_id in jobs}
    assert done == {job_id: 1 for job_id in jobs}


def test_restart_readopts_orphans_in_scheduler_order(tmp_path):
    """After a forged ``kill -9``, the revived service re-dispatches
    orphans in scheduler order — priority bands first, not journal
    FIFO — and the already-dispatched orphan re-enters ahead of
    still-queued ones in the adoption list."""
    root = tmp_path / "svc"
    root.mkdir()
    store = JobStore(root / "service.journal.jsonl")

    def spec(priority):
        return JobSpec(
            kind="sleep", payload={"seconds": 0.01}, priority=priority
        )

    store.record_submitted("batch-early", spec("batch"), seq=1)
    store.record_submitted("interactive-late", spec("interactive"), seq=2)
    store.record_submitted("was-running", spec("normal"), seq=3)
    store.record_state("was-running", "running", dispatch_seq=1)
    store.close()
    with open(root / "service.journal.jsonl", "a") as handle:
        handle.write('{"type": "state", "job_id": "batch-ea')  # torn

    with DiagnosisService(root, workers=1) as svc:
        # Previously-dispatched orphans re-enter first (the dead
        # service had already chosen them), then queued ones by seq.
        assert svc.adopted == [
            "was-running", "batch-early", "interactive-late",
        ]
        for job_id in svc.adopted:
            assert svc.wait(job_id, timeout=60) == "done"
    replayed = replay_store(root / "service.journal.jsonl")
    order = {j: replayed[j].dispatch_seq for j in replayed}
    # Fresh dispatch decisions follow the bands: interactive before
    # normal before batch, regardless of submission order.
    assert (
        order["interactive-late"]
        < order["was-running"]
        < order["batch-early"]
    )


def test_stop_under_load_never_strands_dispatchers(tmp_path):
    """Stopping with a deep backlog must release *every* dispatcher
    promptly (the scheduler broadcast is the sentinel) and leave the
    undispatched backlog journaled for the next service to re-adopt."""
    root = tmp_path / "svc"
    svc = DiagnosisService(root, workers=4).start()
    jobs = [
        svc.submit(JobSpec(kind="sleep", payload={"seconds": 0.3}))
        for _ in range(16)
    ]
    time.sleep(0.2)  # let the dispatchers pick up a first wave
    threads = list(svc._threads)
    start = time.monotonic()
    svc.close()
    assert time.monotonic() - start < 20
    assert all(not thread.is_alive() for thread in threads)
    # Every job is accounted for: finished in the journal, or queued
    # and re-adopted by the next service — none lost, none stranded.
    replayed = replay_store(root / "service.journal.jsonl")
    finished = {j for j in jobs if replayed[j].state == "done"}
    leftover = set(jobs) - finished
    assert leftover, "backlog drained before stop — not a load test"
    revived = DiagnosisService(root, workers=1)
    try:
        assert set(revived.adopted) == leftover
    finally:
        revived.close()


def test_http_queue_contract_and_priority_validation(http_service):
    client = http_service
    snap = client.queue()
    assert snap["schema"] == "repro-service-queue/v1"
    for key in (
        "aging_seconds",
        "stopped",
        "total_queued",
        "inflight",
        "dispatched",
        "namespaces",
        "job_states",
    ):
        assert key in snap, key
    job_id = client.submit(
        "sleep", {"seconds": 0.05}, namespace="team-a", priority="batch"
    )
    assert client.status(job_id)["priority"] == "batch"
    assert client.wait(job_id, timeout=30) == "done"
    snap = client.queue()
    tenant = snap["namespaces"]["team-a"]
    assert set(tenant["queued"]) == set(PRIORITIES)
    assert tenant["queued"]["batch"] == []  # dispatched, not queued
    assert snap["job_states"] == {"done": 1}
    # The server rejects a bad priority on its own (raw POST bypasses
    # the client-side JobSpec validation).
    with pytest.raises(ServiceError, match="invalid request"):
        client._call(
            "POST", "/v1/jobs", {"kind": "sleep", "priority": "urgent"}
        )


def test_queue_snapshot_parity_between_clients(tmp_path):
    """The in-process and HTTP clients serve the identical queue
    payload for the same service state."""
    from repro.service.http import make_server

    service = DiagnosisService(tmp_path / "svc", workers=1).start()
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        local = ServiceClient(service)
        remote = HttpServiceClient(f"http://{host}:{port}")
        job_id = local.submit(
            "sleep", {"seconds": 0.02}, namespace="team-a",
            priority="interactive",
        )
        assert local.wait(job_id, timeout=30) == "done"
        assert local.queue() == remote.queue()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()


# ------------------------------------------------------------ warm workers


def test_dispatcher_keeps_its_worker_warm_across_jobs(tmp_path):
    with _service(tmp_path, workers=1) as svc:
        pids = []
        for _ in range(3):
            job_id = svc.submit(JobSpec(kind="sleep", payload={"seconds": 0}))
            assert svc.wait(job_id, timeout=30) == "done"
            pids.append([p.pid for p in multiprocessing.active_children()])
        assert len(pids[0]) == 1 and pids == [pids[0]] * 3


def test_close_leaves_no_live_workers(tmp_path):
    svc = _service(tmp_path, workers=2).start()
    job_ids = [
        svc.submit(JobSpec(kind="sleep", payload={"seconds": 0.2}, namespace=ns))
        for ns in ("alice", "bob")
    ]
    for job_id in job_ids:
        assert svc.wait(job_id, timeout=30) == "done"
    assert multiprocessing.active_children()  # warm between jobs
    svc.close()
    assert multiprocessing.active_children() == []


def _stub_calibration(monkeypatch):
    """Count calibration passes behind a fresh, stubbed shared memo."""
    calls = []
    monkeypatch.setattr(
        scenarios,
        "_calibrate",
        lambda cfg, n_qubits, noise: calls.append(cfg) or ("t", "b", {}),
    )
    scenarios._calibrated_environment.cache_clear()
    return calls


def _bumped(value):
    if isinstance(value, tuple):
        return value + (max(value) + 2,)
    if isinstance(value, int):
        return value + 1
    return value / 2


def test_calibration_memo_keys_on_calibration_fields_not_seed(monkeypatch):
    from repro.analysis.registry import get_experiment

    calls = _stub_calibration(monkeypatch)
    try:
        cfg = get_experiment("arena").config("smoke")
        spec = build_scenario("static-under-rotation", 6)

        def calibrate(config):
            return scenarios.calibrate_cell(config, 6, spec)

        calibrate(cfg)
        calibrate(replace(cfg, seed=cfg.seed + 1))
        assert len(calls) == 1  # seed is not a calibration input
        for n, name in enumerate(scenarios.CALIBRATION_FIELDS, start=2):
            changed = replace(cfg, **{name: _bumped(getattr(cfg, name))})
            calibrate(changed)
            assert len(calls) == n, name
            assert getattr(calls[-1], name) == getattr(changed, name)
    finally:
        scenarios._calibrated_environment.cache_clear()


def test_calibration_memo_is_bounded(monkeypatch):
    from repro.analysis.registry import get_experiment

    _stub_calibration(monkeypatch)
    try:
        cfg = get_experiment("arena").config("smoke")
        spec = build_scenario("over-rotation", 6)
        for shots in range(scenarios.CALIBRATION_MEMO_CELLS + 5):
            scenarios.calibrate_cell(replace(cfg, shots=100 + shots), 6, spec)
        info = scenarios._calibrated_environment.cache_info()
        assert info.maxsize == scenarios.CALIBRATION_MEMO_CELLS == 64
        assert info.currsize == scenarios.CALIBRATION_MEMO_CELLS
    finally:
        scenarios._calibrated_environment.cache_clear()


def _without_wall(result):
    stable = json.loads(json.dumps(result))
    stable.pop("wall_seconds")
    return stable


def test_warm_service_results_match_cold_execution(tmp_path):
    """Differential: a seeded sequence of diagnose jobs — several kinds
    and diagnosers, repeated cells under varying machine seeds — served
    by one warm worker equals each job run cold with the memo cleared."""
    rng = random.Random(17)
    kinds = ("static-under-rotation", "correlated-burst", "phase-miscalibration")
    diagnosers = ("battery", "binary-search", "contrast-ranked", "syndrome")
    # Every kind at both sizes, twice over: repeated cells hit the memo.
    cells = [(kind, n) for kind in kinds for n in (6, 8)] * 2
    rng.shuffle(cells)
    payloads = [
        {
            "scenario": kind,
            "n_qubits": n_qubits,
            "trial": rng.randrange(2),
            "diagnoser": rng.choice(diagnosers),
            "overrides": {"seed": rng.randrange(1, 50)},
        }
        for kind, n_qubits in cells
    ]
    with _service(tmp_path, workers=1) as svc:
        job_ids = [
            svc.submit(JobSpec(kind="diagnose", payload=p)) for p in payloads
        ]
        served = []
        for job_id in job_ids:
            assert svc.wait(job_id, timeout=120) == "done", svc.status(job_id)
            served.append(svc.result(job_id)["result"])
    try:
        for payload, warm in zip(payloads, served):
            scenarios._calibrated_environment.cache_clear()
            cold = execute_job(
                {
                    "job_id": "cold",
                    "kind": "diagnose",
                    "payload": payload,
                    "cache_dir": str(tmp_path / "cold"),
                }
            )
            assert _without_wall(warm) == _without_wall(cold), payload
    finally:
        scenarios._calibrated_environment.cache_clear()


def _live_group_members(pgid):
    """Pids in process group ``pgid`` that have not exited.

    An orphaned worker is reparented to init, and an init that does not
    reap leaves an exited one behind as a zombie: that counts as gone.
    """
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(stat.parent.name))
    return members


def _group_gone(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return not _live_group_members(pgid)


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads process groups from /proc"
)
def test_kill_9_of_serve_leaves_no_worker_behind(tmp_path):
    """Warm workers outlive jobs, not their server: after ``kill -9`` of
    ``repro serve`` — one worker idle, one mid-job — the server's whole
    process group is gone within seconds."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--root", str(tmp_path / "svc"),
         "--port", "0", "--workers", "2", "--quiet"],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        start_new_session=True,
    )
    pgid = server.pid
    try:
        line = server.stdout.readline()
        assert "repro-service ready" in line, line
        client = HttpServiceClient(line.split()[2])
        # Two overlapping sleeps occupy both dispatchers, so both fork.
        job_ids = [
            client.submit("sleep", {"seconds": 0.5}, namespace=ns)
            for ns in ("alice", "bob")
        ]
        job_ids += [
            client.submit(
                "diagnose",
                {"scenario": "over-rotation", "n_qubits": 6, "diagnoser": "battery"},
                namespace=ns,
            )
            for ns in ("alice", "bob")
        ]
        for job_id in job_ids:
            assert client.wait(job_id, timeout=120, poll_seconds=0.05) == "done"
        running = client.submit("sleep", {"seconds": 60}, namespace="alice")
        while client.status(running)["state"] != "running":
            time.sleep(0.02)
        assert len(_live_group_members(pgid)) == 3  # server + two workers
    finally:
        os.kill(server.pid, signal.SIGKILL)
        server.wait()
        server.stdout.close()
    deadline = time.monotonic() + 5.0
    while not _group_gone(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = _live_group_members(pgid)
    if survivors:
        os.killpg(pgid, signal.SIGKILL)
    assert not survivors, f"workers outlived their server: {survivors}"
