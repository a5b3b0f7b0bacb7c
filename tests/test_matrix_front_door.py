"""Parity of the matrix front doors (tier-1).

Each ``MATRIX_SPECS`` row is driven three ways at tiny settings — the
CLI subcommand, :func:`repro.analysis.runner.run_matrix` and a service
job — against one shared cache, and the three reports must agree apart
from run-time fields.  Also covers the service's submit-time checks of
matrix-job payloads, over HTTP and in process.
"""

import copy
import json
import subprocess
import sys
import threading

import pytest

from repro.__main__ import main
from repro.analysis.runner import MATRIX_SPECS, run_matrix
from repro.service import DiagnosisService, HttpServiceClient, ServiceError

NAMESPACE = "parity"

#: Per row: the chosen names, tiny overrides and the expected CLI exit.
#: Both hard-checked reports fail a check at this size: the one-size
#: arena measures no crossover, and a fleet without the periodic policy
#: has nothing to beat.
CASES = {
    "scenarios": (
        ["over-rotation"],
        {
            "qubit_counts": [5],
            "shots": 60,
            "detection_trials": 2,
            "identification_trials": 1,
            "baseline_trials": 2,
            "verify_shots": 100,
            "fig6_anchor": False,
        },
        0,
    ),
    "arena": (
        ["static-under-rotation"],
        {
            "qubit_counts": [5],
            "trials": 2,
            "clean_trials": 1,
            "baseline_trials": 2,
            "shots": 60,
            "verify_shots": 100,
        },
        1,
    ),
    "fleet": (
        ["battery", "point-check"],
        {"horizon_seconds": 3600, "n_traps": 1},
        1,
    ),
}


def _stable(payload):
    """The report minus its run-time fields."""
    clone = copy.deepcopy(payload)
    clone.pop("created_unix", None)
    clone.pop("provenance", None)
    for record in clone.get("records", []):
        record.pop("cache_hit", None)
    return clone


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    with DiagnosisService(
        tmp_path_factory.mktemp("matrix") / "svc", workers=1
    ) as svc:
        yield svc


@pytest.fixture(scope="module")
def http_client(service):
    from repro.service.http import make_server

    server = make_server(service, port=0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield HttpServiceClient(f"http://{host}:{port}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_table_rows_match_the_cli_and_service_kinds():
    from repro.service.jobs import JOB_KINDS

    assert list(MATRIX_SPECS) == ["scenarios", "arena", "fleet"]
    assert set(MATRIX_SPECS) <= set(JOB_KINDS)
    assert {m.key for m in MATRIX_SPECS.values()} == {"kinds", "policies"}


@pytest.mark.parametrize("name", list(MATRIX_SPECS))
def test_cli_run_matrix_and_service_job_agree(name, service, tmp_path):
    matrix = MATRIX_SPECS[name]
    values, overrides, exit_code = CASES[name]
    cache = service.cache_dir(NAMESPACE)
    argv = [name, "--smoke", "--out", str(tmp_path), "--cache-dir", str(cache)]
    for value in values:
        argv += [matrix.flag, value]
    for field, value in overrides.items():
        argv += ["--set", f"{field}={json.dumps(value)}"]
    assert main(argv) == exit_code
    (artifact,) = tmp_path.glob("*.json")
    assert artifact.name == f"{matrix.prefix}_smoke.json"
    written = json.loads(artifact.read_text())

    direct, records = run_matrix(
        name, "smoke", values=values, overrides=overrides, cache_dir=cache
    )
    assert all(record.cache_hit for record in records)
    assert [r[matrix.key] for r in direct["records"]] == [[v] for v in values]
    assert _stable(written) == _stable(direct)

    job_id = service.submit(
        {
            "kind": name,
            "payload": {
                "preset": "smoke",
                matrix.key: values,
                "overrides": overrides,
            },
            "namespace": NAMESPACE,
        }
    )
    assert service.wait(job_id, timeout=60) == "done", service.status(job_id)
    served = service.result(job_id)["result"]
    assert _stable(served) == _stable(direct)


@pytest.mark.parametrize(
    "kind, payload, match",
    [
        ("fleet", {"kinds": ["battery"]}, "unknown fleet job payload fields"),
        ("scenarios", {"policies": ["battery"]}, "payload fields"),
        ("arena", {"kinds": ["warp-core"]}, "unknown scenario kinds: warp-core"),
        ("fleet", {"policies": ["crystal-ball"]}, "unknown policies"),
        ("fleet", {"policies": "battery"}, "must be a list"),
    ],
)
def test_bad_matrix_payload_is_refused_at_submit(
    kind, payload, match, service, http_client
):
    before = len(service.list_jobs())
    with pytest.raises(ValueError, match=match):
        service.submit({"kind": kind, "payload": payload})
    with pytest.raises(ServiceError, match=f"invalid request: .*{match}"):
        http_client.submit(kind, payload)
    assert len(service.list_jobs()) == before


def test_serve_parent_never_loads_the_experiment_modules():
    import os
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        "import sys, repro.__main__ as m; m._build_parser(); "
        "import repro.service.http, repro.service.client; "
        "print('repro.analysis.experiments' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
