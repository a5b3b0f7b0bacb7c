"""The scenario taxonomy, matrix runner and report schema (tier-1)."""

import dataclasses

import pytest

from repro.analysis import runner
from repro.scenarios import (
    SCENARIO_KINDS,
    TAXONOMY,
    ScenarioFault,
    ScenarioSpec,
    build_scenario,
    matrix_payload,
    validate_matrix_payload,
)
from repro.trap.faults import Determinism, TimeScale, Unitarity
from repro.trap.machine import VirtualIonTrap


def test_every_kind_builds_and_classifies():
    """Each kind builds for several machine sizes and maps into Table I."""
    for kind in SCENARIO_KINDS:
        info = TAXONOMY[kind]
        assert info.fault_class is not None
        for n_qubits in (4, 6, 8, 11):
            scenario = build_scenario(kind, n_qubits)
            assert scenario.kind == kind
            assert scenario.required_qubits() <= n_qubits
            assert scenario.faults, "every default scenario injects a fault"
            assert scenario.is_xx_preserving() == info.xx_preserving


def test_taxonomy_covers_both_table_i_axes():
    """The kinds span deterministic-unitary and stochastic-non-unitary."""
    classes = {TAXONOMY[kind].fault_class for kind in SCENARIO_KINDS}
    assert any(
        c.determinism is Determinism.DETERMINISTIC
        and c.unitarity is Unitarity.UNITARY
        for c in classes
    )
    assert any(
        c.determinism is Determinism.STOCHASTIC
        and c.unitarity is Unitarity.NON_UNITARY
        for c in classes
    )
    scales = {TAXONOMY[kind].time_scale for kind in SCENARIO_KINDS}
    assert TimeScale.SLOW in scales and TimeScale.STATIC in scales


def test_drifting_magnitude_crosses_the_floor():
    """The drift scenario is in spec early and badly faulty late."""
    scenario = build_scenario("drifting-magnitude", 6)
    assert scenario.top_severity(0) < 0.18 * 0.7
    assert scenario.top_severity(6) > 0.18 * 1.3
    assert scenario.ground_truth(0, floor=0.18) == []
    assert scenario.ground_truth(6, floor=0.18) == [scenario.faults[0].key]


def test_apply_compiles_onto_the_calibration_state():
    """apply() lands magnitudes and phases in the machine calibration."""
    scenario = build_scenario("phase-miscalibration", 6)
    machine = VirtualIonTrap(6, noise=scenario.noise_parameters(), seed=1)
    scenario.apply(machine)
    fault = scenario.faults[0]
    assert machine.calibration.under_rotation(fault.pair) == fault.magnitude
    assert machine.calibration.phase_offset(fault.pair) == fault.phase
    assert machine.calibration.has_phase_offsets()
    machine.recalibrate(fault.pair)
    assert not machine.calibration.has_phase_offsets()
    assert machine.calibration.under_rotation(fault.pair) == 0.0


def test_scenario_spec_validation_errors():
    with pytest.raises(ValueError, match="unknown scenario kind"):
        build_scenario("cosmic-rays", 8)
    with pytest.raises(ValueError, match="at least four"):
        build_scenario("over-rotation", 3)
    with pytest.raises(ValueError, match="magnitude"):
        ScenarioFault((0, 1), magnitude=1.5)
    with pytest.raises(ValueError, match="distinct"):
        ScenarioFault((2, 2), magnitude=0.1)
    with pytest.raises(ValueError, match="unknown scenario kind"):
        ScenarioSpec(name="x", kind="nope")
    small = VirtualIonTrap(4, seed=0)
    with pytest.raises(ValueError, match="needs >="):
        build_scenario("static-under-rotation", 8).apply(small)


def test_matrix_payload_schema_round_trip(tmp_path):
    """A runner-shaped payload validates and writes; mutations fail."""
    cell = {
        "scenario": "over-rotation",
        "n_qubits": 6,
        "xx_preserving": True,
        "fallback_to_dense": False,
        "engines": ["xx", "dense"],
        "detection": [["xx", 3, 3], ["dense", 3, 3]],
        "false_flags": [["xx", 0, 40], ["dense", 0, 40]],
        "inspec_clean": [["xx", 0, 0], ["dense", 0, 0]],
        "identification_successes": 2,
        "identification_trials": 2,
        "ambiguous_trials": 0,
        "top_severity": 0.47,
    }
    payload = matrix_payload(
        preset="smoke",
        cells=[cell],
        anchor={"largest_resolved_2ms": True, "largest_resolved_4ms": True},
        detect_floor=0.18,
        records=[{"kinds": ["over-rotation"], "config_digest": "ab", "cache_hit": False}],
    )
    validate_matrix_payload(payload)
    path = runner.write_labelled_json(
        payload, tmp_path, "SCENARIOS", validate_matrix_payload
    )
    assert path.name == "SCENARIOS_smoke.json"

    broken = dict(payload, schema="bench/v0")
    with pytest.raises(ValueError, match="schema"):
        validate_matrix_payload(broken)
    bad_cell = dict(cell, detection=[["xx", 5, 3]])
    with pytest.raises(ValueError, match="detection"):
        validate_matrix_payload(dict(payload, cells=[bad_cell]))
    with pytest.raises(ValueError, match="cells"):
        validate_matrix_payload(dict(payload, cells=[]))


def test_run_matrix_scenarios_merges_and_caches(tmp_path):
    """Per-kind jobs cache independently and merge into one report."""
    cache = tmp_path / "cache"
    kinds = ["over-rotation", "phase-miscalibration"]
    overrides = {
        "qubit_counts": [5],
        "shots": 60,
        "detection_trials": 2,
        "identification_trials": 1,
        "baseline_trials": 2,
        "verify_shots": 100,
        "fig6_anchor": False,
    }
    payload, records = runner.run_matrix(
        "scenarios",
        "smoke",
        values=kinds,
        overrides=overrides,
        cache_dir=cache,
    )
    validate_matrix_payload(payload)
    assert payload["kinds"] == sorted(kinds)
    assert {c["scenario"] for c in payload["cells"]} == set(kinds)
    assert all(not r.cache_hit for r in records)
    over = next(
        c for c in payload["cells"] if c["scenario"] == "over-rotation"
    )
    phase = next(
        c for c in payload["cells"] if c["scenario"] == "phase-miscalibration"
    )
    assert over["engines"] == ["xx", "dense"] and not over["fallback_to_dense"]
    assert phase["engines"] == ["dense"] and phase["fallback_to_dense"]
    # A rerun is served from the per-kind cache entries.
    payload2, records2 = runner.run_matrix(
        "scenarios", "smoke", values=kinds, overrides=overrides, cache_dir=cache
    )
    assert all(r.cache_hit for r in records2)
    assert payload2["cells"] == payload["cells"]
    with pytest.raises(ValueError, match="unknown scenario kinds"):
        runner.run_matrix(
            "scenarios", "smoke", values=["warp-core"], cache_dir=cache
        )
    # An explicit values argument wins over a "scenarios" override (the
    # sweep owns that field); the combination must not trip the sweep's
    # duplicate-override guard.
    payload3, _ = runner.run_matrix(
        "scenarios",
        "smoke",
        values=["over-rotation"],
        overrides={**overrides, "scenarios": ["phase-miscalibration"]},
        cache_dir=cache,
    )
    assert payload3["kinds"] == ["over-rotation"]


def test_scenarios_cli_emits_schema_valid_report(tmp_path, monkeypatch):
    """python -m repro scenarios writes SCENARIOS_<preset>.json."""
    import json

    from repro.__main__ import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code = main(
        [
            "scenarios",
            "--smoke",
            "--kind",
            "correlated-burst",
            "--out",
            str(tmp_path),
            "--set",
            "qubit_counts=[5]",
            "--set",
            "detection_trials=2",
            "--set",
            "identification_trials=1",
            "--set",
            "baseline_trials=2",
            "--set",
            "shots=60",
            "--set",
            "verify_shots=100",
            "--set",
            "fig6_anchor=false",
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "SCENARIOS_smoke.json").read_text())
    validate_matrix_payload(payload)
    assert payload["kinds"] == ["correlated-burst"]


def test_scenario_cell_is_execution_order_independent():
    """series_jobs is execution-only: the digest ignores it."""
    from repro.analysis.registry import get_experiment

    spec = get_experiment("scenarios")
    sequential = spec.config("smoke")
    parallel = dataclasses.replace(sequential, series_jobs=4)
    assert runner.config_digest("scenarios", sequential) == runner.config_digest(
        "scenarios", parallel
    )
