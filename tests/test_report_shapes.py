"""The declarative report schemas: the shared shape checker and the
arena/fleet payload shapes it enforces.

Minimal hand-built payloads go through the real ``arena_payload`` /
``fleet_payload`` assemblers, then one mutation each must be refused
with the report's ``invalid <name> payload`` error.
"""

import pytest

from repro.arena.report import arena_payload, validate_arena_payload
from repro.fleet.report import fleet_payload, validate_fleet_payload
from repro.provenance import Shape, check_payload, shape_problems


def _check(check_id):
    return {
        "check_id": check_id,
        "description": "d",
        "passed": True,
        "hard": True,
        "observed": "o",
        "target": "t",
        "value": 1.0,
        "drift_tolerance": 0.0,
    }


def _minimal_arena_payload():
    cell = {
        "diagnoser": "battery",
        "scenario": "static-under-rotation",
        "n_qubits": 6,
        "fault_trials": 6,
        "clean_trials": 2,
        "ambiguous_trials": 0,
        "detections": 6,
        "false_alarms": 0,
        "isolated": 6,
        "covered": 6,
        "mean_precision": 0.5,
        "mean_ambiguity": 3.0,
        "mean_shots": 3000.0,
        "mean_adaptations": 0.0,
        "mean_wall_seconds": 0.01,
        "timeouts": 0,
    }
    return arena_payload(
        preset="smoke",
        cells=[cell],
        budget={"soft_seconds": 20.0, "hard_seconds": None},
        detect_floor=0.18,
        random_detect_rate=0.25,
        checks=[_check("arena.battery_beats_random")],
        records=[
            {
                "kinds": ["static-under-rotation"],
                "config_digest": "ab",
                "cache_hit": False,
            }
        ],
    )


def _minimal_fleet_payload():
    trap = {
        "index": 0,
        "final_state": "healthy",
        "faults_injected": 1,
        "fault_resolutions": {"repaired": 1},
    }
    cell = {
        "policy": "battery",
        "n_qubits": 6,
        "n_traps": 1,
        "diagnosis_episodes": 3,
        "faults_injected": 1,
        "faults_repaired": 1,
        "faults_quarantined": 0,
        "misdiagnoses": 0,
        "repair_failures": 0,
        "stalls": 0,
        "timeouts": 0,
        "jobs_lost_to_undetected_faults": 0,
        "uptime": 0.6,
        "corrupted_job_rate": 0.1,
        "good_jobs_per_hour": 8.0,
        "mttr_seconds": None,
        "duty_cycle": {
            "jobs": 0.6,
            "coupling_tests": 0.1,
            "other_calibration": 0.3,
        },
        "traps": [trap],
        "final_states": {
            "healthy": 1,
            "under-repair": 0,
            "quarantined-degraded": 0,
        },
    }
    return fleet_payload(
        preset="smoke",
        cells=[cell],
        detect_floor=0.18,
        corruption_floor=0.05,
        checks=[_check("fleet.faults_accounted")],
        records=[
            {"policies": ["battery"], "config_digest": "ab", "cache_hit": True}
        ],
    )


def test_arena_shape_accepts_the_reference_payload():
    validate_arena_payload(_minimal_arena_payload())


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.update(schema="repro-fleet/v1"),
        lambda p: p["cells"][0].update(detections=True),
        lambda p: p["cells"][0].update(diagnoser="oracle"),
        lambda p: p.update(diagnosers=["battery", "oracle"]),
        lambda p: p["checks"][0].update(check_id="fleet.faults_accounted"),
        lambda p: p["records"][0].pop("cache_hit"),
        lambda p: p["cells"][0].update(n_qubits=3),
        lambda p: p["budget"].update(hard_seconds="30"),
        lambda p: p.update(leaderboard=[]),
    ],
    ids=[
        "schema",
        "bool-count",
        "unknown-diagnoser",
        "unknown-diagnoser-list",
        "check-prefix",
        "missing-cache-hit",
        "too-few-qubits",
        "budget-type",
        "empty-leaderboard",
    ],
)
def test_arena_shape_rejects_violations(mutate):
    payload = _minimal_arena_payload()
    mutate(payload)
    with pytest.raises(ValueError, match="invalid arena payload"):
        validate_arena_payload(payload)


def test_fleet_shape_accepts_the_reference_payload():
    validate_fleet_payload(_minimal_fleet_payload())


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.update(schema="repro-arena/v1"),
        lambda p: p["cells"][0].update(stalls=False),
        lambda p: p["cells"][0].update(policy="crystal-ball"),
        lambda p: p.update(policies=["crystal-ball"]),
        lambda p: p["checks"][0].update(check_id="arena.no_hard_timeouts"),
        lambda p: p["records"][0].pop("cache_hit"),
        lambda p: p["cells"][0].update(uptime=1.2),
        lambda p: p["cells"][0]["traps"][0].update(final_state="on-fire"),
        lambda p: p["cells"][0]["final_states"].pop("under-repair"),
    ],
    ids=[
        "schema",
        "bool-count",
        "unknown-policy",
        "unknown-policy-list",
        "check-prefix",
        "missing-cache-hit",
        "uptime-range",
        "trap-state",
        "final-states-keys",
    ],
)
def test_fleet_shape_rejects_violations(mutate):
    payload = _minimal_fleet_payload()
    mutate(payload)
    with pytest.raises(ValueError, match="invalid fleet payload"):
        validate_fleet_payload(payload)


def test_every_problem_is_listed_with_its_path():
    payload = _minimal_arena_payload()
    payload["cells"][0]["detections"] = True
    payload["records"][0].pop("cache_hit")
    with pytest.raises(ValueError) as err:
        validate_arena_payload(payload)
    message = str(err.value)
    assert "cells[0].detections must be a non-negative integer" in message
    assert "records[0].cache_hit must be a boolean" in message


def test_shape_checker_primitives():
    count = Shape("int", lo=0)
    assert shape_problems(3, count) == []
    assert shape_problems(True, count)  # a bool is never an int
    assert shape_problems(True, Shape("number"))
    assert shape_problems(-1, count, "n") == ["n must be a non-negative integer"]
    assert shape_problems(None, Shape("number", nullable=True)) == []
    assert shape_problems(None, Shape("number")) == ["payload must be a number"]
    assert shape_problems(0.5, Shape("number", lo=0.0, hi=1.0)) == []
    assert shape_problems(1.5, Shape("number", lo=0.0, hi=1.0), "x") == [
        "x must be a number in [0, 1]"
    ]
    assert shape_problems([], Shape("list", nonempty=True))
    assert shape_problems("b", Shape(None, one_of=("a",)), "s") == [
        "s must be 'a'"
    ]
    assert shape_problems("ab.c", Shape("str", prefix="ab.")) == []
    assert shape_problems({"a": 1}, Shape("object", keys=("a", "b")))
    odd = Shape("int", test=lambda v: v % 2 == 1, says="an odd integer")
    assert shape_problems(2, odd, "k") == ["k must be an odd integer"]
    nested = Shape(
        "object",
        fields={"xs": Shape("list", items=Shape("object", fields={"v": count}))},
    )
    assert shape_problems({"xs": [{"v": 1}, {"v": -2}, 7]}, nested) == [
        "xs[1].v must be a non-negative integer",
        "xs[2] must be an object",
    ]
    with pytest.raises(ValueError, match="invalid demo payload: payload"):
        check_payload([], nested, "demo")
