"""The unified runner: registry coverage, cache round-trip, CLI, emission."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import registry, runner

EXPECTED_EXPERIMENTS = {
    "arena",
    "fig2",
    "fig3",
    "fleet",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "scenarios",
    "table2",
}


def test_every_paper_artifact_is_registered():
    assert set(registry.experiment_names()) == EXPECTED_EXPERIMENTS


def test_specs_build_both_presets():
    for spec in registry.all_experiments():
        full = spec.config("full")
        smoke = spec.config("smoke")
        if spec.config_type is not None:
            assert isinstance(full, spec.config_type)
            assert isinstance(smoke, spec.config_type)


def test_unknown_experiment_and_field_error():
    with pytest.raises(KeyError):
        registry.get_experiment("fig99")
    with pytest.raises(ValueError):
        registry.get_experiment("fig3").config("full", {"no_such_field": 1})


def test_retired_reference_switches_fail_closed(tmp_path):
    """Removed reference-path options are unknown, not silently ignored."""
    from repro.__main__ import main
    from repro.trap.machine import VirtualIonTrap

    retired = [
        ("fig3", "vectorized"),
        ("fig6", "compiled"),
        ("fig7", "batched"),
        ("fig7", "compiled"),
        ("fig8", "broadcast"),
    ]
    for name, key in retired:
        with pytest.raises(ValueError, match="unknown config field"):
            registry.get_experiment(name).run("smoke", {key: False})
        with pytest.raises(SystemExit, match="unknown config field"):
            main(
                [
                    "run", name, "--smoke", "--no-cache",
                    "--out", str(tmp_path), "--set", f"{key}=false",
                ]
            )
    with pytest.raises(TypeError):
        VirtualIonTrap(4, batched=False)


def test_override_coercion_to_tuples():
    cfg = registry.get_experiment("fig10").config(
        "full", {"qubit_counts": [8, 16]}
    )
    assert cfg.qubit_counts == (8, 16)


def test_runner_cache_round_trip(tmp_path):
    """A smoke run lands in the cache; the rerun is served from disk."""
    first = runner.run_experiment(
        "fig3", preset="smoke", cache_dir=tmp_path
    )
    assert not first.cache_hit
    assert first.payload["result"]
    second = runner.run_experiment(
        "fig3", preset="smoke", cache_dir=tmp_path
    )
    assert second.cache_hit
    assert second.config_digest == first.config_digest
    assert second.payload["result"] == runner.to_jsonable(first.result)
    # A different config misses the cache.
    third = runner.run_experiment(
        "fig3",
        preset="smoke",
        overrides={"realizations": 5},
        cache_dir=tmp_path,
    )
    assert not third.cache_hit
    assert third.config_digest != first.config_digest


def test_runner_force_recomputes(tmp_path):
    runner.run_experiment("fig10", preset="smoke", cache_dir=tmp_path)
    forced = runner.run_experiment(
        "fig10", preset="smoke", cache_dir=tmp_path, force=True
    )
    assert not forced.cache_hit


def test_emission_json_and_csv(tmp_path):
    record = runner.run_experiment(
        "fig10", preset="smoke", cache_dir=tmp_path / "cache"
    )
    json_path = runner.write_json(record, tmp_path / "out")
    payload = json.loads(json_path.read_text())
    assert payload["experiment"] == "fig10"
    assert payload["rows"]["headers"][0] == "n_qubits"
    csv_path = runner.write_csv(record, tmp_path / "out")
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("n_qubits,")
    assert len(lines) > 1
    # Cached records still emit identical CSV rows.
    cached = runner.run_experiment(
        "fig10", preset="smoke", cache_dir=tmp_path / "cache"
    )
    assert cached.cache_hit
    assert runner.write_csv(cached, tmp_path / "out2").read_text() == (
        csv_path.read_text()
    )


def test_run_many_fans_out(tmp_path):
    records = runner.run_many(
        ["fig10", "fig11", "fig2"],
        preset="smoke",
        jobs=2,
        cache_dir=tmp_path,
    )
    assert [r.name for r in records] == ["fig10", "fig11", "fig2"]
    assert all(r.payload["result"] for r in records)
    # Everything was cached by the workers.
    rerun = runner.run_many(
        ["fig10", "fig11", "fig2"], preset="smoke", cache_dir=tmp_path
    )
    assert all(r.cache_hit for r in rerun)


def test_to_jsonable_handles_experiment_shapes():
    import numpy as np

    payload = runner.to_jsonable(
        {
            frozenset({2, 6}): np.float64(0.25),
            (8, 2): (np.int64(1), [frozenset({0, 1})]),
        }
    )
    assert payload == {"2-6": 0.25, "2-8": [1, [[0, 1]]]}


def test_cli_run_emits_json(tmp_path):
    """``python -m repro run fig3 --smoke`` completes and emits JSON."""
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "run",
            "fig3",
            "--smoke",
            "--out",
            str(tmp_path / "out"),
            "--cache-dir",
            str(tmp_path / "cache"),
        ],
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
            "PATH": "/usr/bin:/bin",
        },
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads((tmp_path / "out" / "fig3-smoke.json").read_text())
    assert payload["experiment"] == "fig3"
    assert payload["result"]
    # Second invocation hits the cache.
    rerun = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "run",
            "fig3",
            "--smoke",
            "--out",
            str(tmp_path / "out"),
            "--cache-dir",
            str(tmp_path / "cache"),
        ],
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
            "PATH": "/usr/bin:/bin",
        },
        timeout=300,
    )
    assert rerun.returncode == 0, rerun.stderr
    assert "cache" in rerun.stdout
