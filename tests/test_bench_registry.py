"""The benchmark registry: schema'd BENCH_*.json emission and validation."""

import json

import pytest

from repro.analysis import bench


def test_run_bench_emits_valid_registry_record(tmp_path):
    payload, path = bench.run_bench(
        "smoke",
        case_names=["scenarios-compiled"],
        out_dir=tmp_path,
        label="test",
    )
    assert path == tmp_path / "BENCH_test.json"
    on_disk = json.loads(path.read_text())
    bench.validate_bench_payload(on_disk)
    assert on_disk["schema"] == bench.BENCH_SCHEMA_ID
    case = on_disk["cases"][0]
    assert case["name"] == "scenarios-compiled"
    assert case["reference_seconds"] > 0
    assert case["optimized_seconds"] > 0
    assert case["speedup"] == pytest.approx(
        case["reference_seconds"] / case["optimized_seconds"]
    )
    assert on_disk["provenance"]["repro_version"]


def test_unknown_case_names_fail_fast(tmp_path):
    with pytest.raises(ValueError, match="unknown bench cases"):
        bench.run_bench("smoke", case_names=["no-such-case"], out_dir=tmp_path)


def test_registered_cases_cover_the_headline_paths():
    names = {case.name for case in bench.bench_cases("smoke")}
    assert names == {
        "fig6-dense",
        "fig7-dense",
        "scenarios-compiled",
        "exec-overhead",
    }


def test_validator_rejects_malformed_payloads():
    good = {
        "schema": bench.BENCH_SCHEMA_ID,
        "label": "x",
        "preset": "smoke",
        "created_unix": 0.0,
        "provenance": {"repro_version": "1.0", "git_sha": None},
        "cases": [
            {
                "name": "c",
                "description": "d",
                "reference_seconds": 1.0,
                "optimized_seconds": 0.5,
                "speedup": 2.0,
                "repeats": 1,
            }
        ],
    }
    bench.validate_bench_payload(good)
    for mutation in (
        {"schema": "other/v9"},
        {"preset": "huge"},
        {"cases": []},
        {"provenance": {}},
    ):
        with pytest.raises(ValueError, match="invalid bench payload"):
            bench.validate_bench_payload({**good, **mutation})
    broken_case = {**good["cases"][0], "optimized_seconds": 0.0}
    with pytest.raises(ValueError, match="optimized_seconds"):
        bench.validate_bench_payload({**good, "cases": [broken_case]})
    no_repeats = {k: v for k, v in good["cases"][0].items() if k != "repeats"}
    with pytest.raises(ValueError, match="repeats"):
        bench.validate_bench_payload({**good, "cases": [no_repeats]})
