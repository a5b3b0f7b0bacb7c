"""Self-test of the benchmark: same seed, same counts; names match BENCHMARK.json.

Run from the root of a checkout (takes about three minutes)::

    python3 perfbench/selftest.py

For every workload it makes two traced runs with one seed and asserts
that the graded and counted results agree exactly: ``isolation_rate``,
``shots_per_op`` and ``ok_rate`` of the untraced pass, and the per-layer
counts.  It also checks the layer facts the workloads are built on, that
the printed metric names and units are the ones ``BENCHMARK.json``
declares, and that the benchmark fails without printing a result when
the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py"]

#: Results that must repeat exactly for one seed.
EXACT_END_TO_END = ("isolation_rate", "shots_per_op", "ok_rate")
EXACT_LAYER = (
    "trap.run_match_calls",
    "xx.plan_builds",
    "dense.plan_builds",
    "dense.plan_hits",
    "dense.plan_rebinds",
    "arena.adaptations",
    "arena.tests_per_op",
    "core.build_calls",
    "trap.battery_calls",
    "calibrate.calls",
)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def parse(done: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].split(" ", 1)[1])
    assert result["correct"] and result["failed"] == 0, result
    return result, detail


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for entry in bench["workloads"]:
        workload = entry["name"]
        runs = [parse(run(workload, 7, 1)) for _ in range(2)]
        (first, first_detail), (second, second_detail) = runs
        printed = {k: v["unit"] for k, v in first["metrics"].items()}
        assert printed == declared["1"], f"per-layer names differ: {sorted(set(printed) ^ set(declared['1']))}"
        assert set(first_detail["end_to_end"]) == set(declared["0"])
        for name in EXACT_END_TO_END:
            a, b = first_detail["end_to_end"][name], second_detail["end_to_end"][name]
            assert a == b, f"{workload} {name}: {a} then {b}"
        for name in EXACT_LAYER:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, f"{workload} {name}: {a} then {b}"
        layer = first["metrics"]
        if workload == "battery-compiled":
            assert layer["trap.run_match_calls"]["value"] == 0
        if workload == "diagnose-adaptive":
            assert layer["xx.plan_builds"]["value"] > 0
        print(f"{workload}: same seed, same counts")

    result, _ = parse(run(bench["workloads"][0]["name"], 7, 0))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared["0"]
    print("end-to-end names and units match BENCHMARK.json")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bench["workloads"][0]["name"], 7, 0, cwd=Path(bare))
        assert done.returncode != 0 and '"correct"' not in done.stdout
    print("fails without a result when the program is missing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
