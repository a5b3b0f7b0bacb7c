"""Persistent benchmark registry behind ``python -m repro bench``.

PR 1 measured its batching speedups ad hoc; this module makes the perf
trajectory a tracked artifact.  Each :class:`BenchCase` times a
*reference* path against its *optimized* counterpart (best-of-``repeats``
wall-clock), and :func:`run_bench` writes the results as a schema'd
``BENCH_<label>.json`` with full provenance, so future PRs can diff
speedups across commits instead of re-deriving them.

No experiment config selects a reference path: every experiment runs
one evaluation pipeline.  The reference sides below are workloads kept
in this module, plus the machine's ``dense_compiled=False`` switch.

Registered cases
----------------
``fig6-dense``
    The fig6 fault batteries over replicate machines, evaluated through
    warm compiled dense plans vs the per-test executor loop on a
    ``dense_compiled=False`` machine.
``fig7-dense``
    The headline dense-plan case: the fig7 threshold-calibration
    battery (2/4/8-repetition families) evaluated for 24 trials of each
    test under the full Sec. VI error model — compiled batteries stack
    all trials x realization groups of a test into one chunked dense
    batch with fused apply groups, vs the per-trial executor loop on
    the uncompiled dense path.
``scenarios-compiled``
    The scenario matrix's detection hot loop: repeated battery trials of
    one taxonomy scenario through compiled batteries (stacked trials per
    test) vs the per-trial ``TestExecutor`` loop.
``exec-overhead``
    The supervised worker pool (:mod:`repro.exec.pool`) vs the bare
    ``ProcessPoolExecutor`` fan-out it replaced, on a fault-free fig8
    smoke sweep.  Inverted semantics: the *reference* side is the
    supervised path, so a speedup near 1.0 means the resilience layer
    is free and a speedup above 1.05 means it costs more than 5%.

The JSON schema is deliberately hand-validated
(:func:`validate_bench_payload`) so the registry stays dependency-free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..provenance import provenance

__all__ = [
    "BENCH_SCHEMA_ID",
    "BenchCase",
    "bench_cases",
    "bench_payload",
    "run_bench",
    "validate_bench_payload",
]

#: Schema identifier stamped into (and required of) every bench payload.
BENCH_SCHEMA_ID = "repro-bench/v1"


@dataclass(frozen=True)
class BenchCase:
    """One timed reference-vs-optimized comparison.

    ``reference`` and ``optimized`` are zero-argument callables; each is
    run ``repeats`` times and the best wall-clock is kept (shrugging off
    scheduler stalls on busy machines).
    """

    name: str
    description: str
    reference: Callable[[], Any]
    optimized: Callable[[], Any]
    repeats: int = 1


def _fig7_dense_battery_workload(
    compiled: bool, trials: int = 24, shots: int = 200, realizations: int = 4
) -> None:
    """Repeated trials of the fig7 threshold-calibration batteries.

    Mirrors the per-test structure of fig7's threshold calibration under
    the full Sec. VI error model (amplitude + phase noise + residual
    kicks — the dense-engine setting): every test of the 2/4/8-repetition
    battery families runs ``trials`` times on one machine, shot-batched
    into ``realizations`` noise-realization groups per trial on both
    paths.  ``compiled=True`` evaluates each test's whole
    trials-times-groups block as a single chunked dense batch through
    the battery's cached :class:`~repro.sim.dense_plan.DensePlan`;
    ``compiled=False`` is the pre-compilation reference — a per-trial
    ``TestExecutor`` loop on a ``dense_compiled=False`` machine.
    """
    from ..analysis.detection import CalibratedThresholds
    from ..core.protocol import TestExecutor, compile_test_battery
    from ..noise.models import NoiseParameters
    from ..trap.machine import VirtualIonTrap
    from .experiments.fig6 import battery_specs

    n_qubits = 8
    noise = NoiseParameters(
        amplitude_sigma=0.10,
        residual_odd_population=0.01,
        phase_noise_rms=0.05,
    )
    machine = VirtualIonTrap(
        n_qubits,
        noise=noise,
        seed=3,
        noise_realizations=realizations,
        dense_compiled=compiled,
    )
    executor = TestExecutor(
        machine, thresholds=CalibratedThresholds(default=0.5), shots=shots
    )
    for repetitions in (2, 4, 8):
        specs = battery_specs(n_qubits, repetitions)
        if compiled:
            battery = compile_test_battery(n_qubits, specs)
            for index in range(len(specs)):
                battery.trial_fidelities(machine, index, shots, trials=trials)
        else:
            for spec in specs:
                for _ in range(trials):
                    executor.execute(spec)


def _fig6_dense_battery_workload(
    compiled: bool, replicates: int = 6, shots: int = 300
) -> None:
    """Repeated fig6 battery diagnoses against warm compiled batteries.

    The whole-experiment ``fig6`` comparison is structurally unable to
    show the dense-plan win at smoke scale: each battery is evaluated
    exactly once per run, so one-off costs the reference loop never pays
    (battery compilation, plan builds) cancel the kernel speedup — it
    measured ~1.1x while the kernel itself is ~2.5x faster.  Real fig6
    consumers are not single-pass: ``python -m repro validate`` runs 8
    replicates per figure and the diagnosis service holds warm batteries
    across jobs.  This workload mirrors that pattern — the paper's two
    fig6 batteries (full Sec. VI noise, both injected faults, 300 shots)
    diagnose ``replicates`` fresh machines; the compiled side compiles
    each battery once and serves every machine from its plan cache
    (structural rebinds make the per-skeleton cost O(slots)), the
    reference side is the per-test ``TestExecutor`` loop on a
    ``dense_compiled=False`` machine.
    """
    from ..core.protocol import (
        FixedThresholds,
        TestExecutor,
        compile_test_battery,
        execute_compiled_battery,
    )
    from ..noise.models import NoiseParameters
    from ..noise.spam import SpamModel
    from ..trap.faults import CouplingFault
    from ..trap.machine import VirtualIonTrap
    from .experiments.fig6 import battery_specs

    n_qubits = 8
    noise = NoiseParameters(
        amplitude_sigma=0.10,
        residual_odd_population=0.03,
        phase_noise_rms=0.08,
        spam=SpamModel(0.005, 0.005),
    )
    thresholds = FixedThresholds(by_repetitions=((2, 0.45), (4, 0.25)))
    batteries = {}
    for repetitions in (2, 4):
        specs = battery_specs(n_qubits, repetitions)
        battery = compile_test_battery(n_qubits, specs) if compiled else None
        batteries[repetitions] = (specs, battery)
    for replicate in range(replicates):
        machine = VirtualIonTrap(
            n_qubits, noise=noise, seed=100 + replicate, dense_compiled=compiled
        )
        machine.inject_fault(CouplingFault(frozenset({0, 4}), 0.47))
        machine.inject_fault(CouplingFault(frozenset({0, 7}), 0.22))
        executor = TestExecutor(machine, thresholds=thresholds, shots=shots)
        for specs, battery in batteries.values():
            if compiled:
                execute_compiled_battery(
                    machine,
                    specs,
                    battery=battery,
                    thresholds=thresholds,
                    shots=shots,
                )
            else:
                executor.execute_batch(specs)


def _scenario_battery_workload(
    compiled: bool, trials: int = 16, shots: int = 200, realizations: int = 4
) -> None:
    """Repeated detection-battery trials of one taxonomy scenario.

    Mirrors the scenario matrix's per-cell detection loop (an
    XX-preserving scenario, so the compiled side runs the exact XX
    contraction): every test of the 2/4-repetition batteries runs
    ``trials`` times on one miscalibrated machine.  ``compiled=True``
    stacks each test's trials-times-groups block against the cached
    contraction plan; ``compiled=False`` is the per-trial
    ``TestExecutor`` loop the matrix replaced.
    """
    from ..core.multi_fault import battery_specs
    from ..core.protocol import TestExecutor, compile_test_battery
    from ..scenarios.spec import build_scenario
    from ..trap.machine import VirtualIonTrap
    from .detection import CalibratedThresholds

    n_qubits = 8
    scenario = build_scenario("over-rotation", n_qubits)
    machine = VirtualIonTrap(
        n_qubits,
        noise=scenario.noise_parameters(),
        seed=5,
        noise_realizations=realizations,
    )
    scenario.apply(machine)
    executor = TestExecutor(
        machine,
        thresholds=CalibratedThresholds(default=0.5),
        shots=shots,
        shot_batch=realizations,
    )
    for repetitions in (2, 4):
        specs = battery_specs(n_qubits, repetitions)
        if compiled:
            battery = compile_test_battery(n_qubits, specs)
            for index in range(len(specs)):
                battery.trial_fidelities(
                    machine, index, shots, trials=trials,
                    realizations=realizations,
                )
        else:
            for spec in specs:
                for _ in range(trials):
                    executor.execute(spec)


def _exec_overhead_job(seed: int):
    """One fan-out cell of the exec-overhead bench (module-level: the bare
    ``ProcessPoolExecutor`` side must pickle the callable)."""
    from .runner import run_experiment

    return run_experiment(
        "fig8", preset="smoke", overrides={"seed": seed}, use_cache=False
    )


def _exec_overhead_workload(
    supervised: bool, cells: int = 8, jobs: int = 2
) -> None:
    """Fan a fault-free fig8 smoke sweep out both ways.

    Identical work on both sides — ``cells`` distinct-seed fig8 smoke
    runs over ``jobs`` worker processes, cache bypassed so every cell
    computes — so the measured difference is purely the execution
    layer's supervision cost (worker bookkeeping, outcome records,
    deadline accounting).
    """
    from .runner import fan_out

    fan_out(
        _exec_overhead_job,
        list(range(200, 200 + cells)),
        jobs=jobs,
        supervised=supervised,
    )


def bench_cases(preset: str = "smoke") -> list[BenchCase]:
    """The registered benchmark cases at the given preset."""
    repeats = 2 if preset == "smoke" else 1
    return [
        BenchCase(
            name="fig6-dense",
            description=(
                "fig6 fault batteries over 6 replicate machines: warm "
                "compiled dense-plan batteries vs per-test executor loop "
                "(the repro-validate / service usage pattern)"
            ),
            reference=lambda: _fig6_dense_battery_workload(compiled=False),
            optimized=lambda: _fig6_dense_battery_workload(compiled=True),
            repeats=repeats,
        ),
        BenchCase(
            name="fig7-dense",
            description=(
                "fig7 calibration batteries, 24 trials x 4 realization "
                "groups: stacked compiled-dense batch vs per-trial loop"
            ),
            reference=lambda: _fig7_dense_battery_workload(compiled=False),
            optimized=lambda: _fig7_dense_battery_workload(compiled=True),
            repeats=repeats,
        ),
        BenchCase(
            name="scenarios-compiled",
            description=(
                "scenario-matrix detection batteries: stacked compiled "
                "trials vs per-trial executor loop"
            ),
            reference=lambda: _scenario_battery_workload(compiled=False),
            optimized=lambda: _scenario_battery_workload(compiled=True),
            repeats=repeats,
        ),
        BenchCase(
            name="exec-overhead",
            description=(
                "supervised worker pool vs bare process-pool fan-out "
                "(inverted: reference = supervised; speedup ~1.0 means "
                "the resilience layer is free, > 1.05 means > 5% cost)"
            ),
            reference=lambda: _exec_overhead_workload(supervised=True),
            optimized=lambda: _exec_overhead_workload(supervised=False),
            repeats=max(repeats, 2),
        ),
    ]


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    best = float("inf")
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_payload(
    preset: str = "smoke",
    case_names: list[str] | None = None,
    label: str | None = None,
) -> dict[str, Any]:
    """Time the (selected) cases and assemble the schema'd payload."""
    cases = bench_cases(preset)
    if case_names is not None:
        known = {c.name for c in cases}
        unknown = set(case_names) - known
        if unknown:
            raise ValueError(
                "unknown bench cases: "
                + ", ".join(sorted(unknown))
                + "; known: "
                + ", ".join(sorted(known))
            )
        cases = [c for c in cases if c.name in set(case_names)]
    results = []
    for case in cases:
        # Warm both sides outside the timed region (imports, registry,
        # spin-table caches) so single-repeat cases compare fairly.
        case.optimized()
        case.reference()
        optimized = _best_of(case.optimized, case.repeats)
        reference = _best_of(case.reference, case.repeats)
        results.append(
            {
                "name": case.name,
                "description": case.description,
                "reference_seconds": reference,
                "optimized_seconds": optimized,
                "speedup": reference / optimized,
                "repeats": case.repeats,
            }
        )
    return {
        "schema": BENCH_SCHEMA_ID,
        "label": label or preset,
        "preset": preset,
        "created_unix": time.time(),
        "provenance": provenance(),
        "cases": results,
    }


def validate_bench_payload(payload: Any) -> None:
    """Raise ``ValueError`` listing every way ``payload`` violates the schema."""
    problems: list[str] = []

    def _check(cond: bool, message: str) -> None:
        if not cond:
            problems.append(message)

    _check(isinstance(payload, dict), "payload must be a JSON object")
    if isinstance(payload, dict):
        _check(
            payload.get("schema") == BENCH_SCHEMA_ID,
            f"schema must be {BENCH_SCHEMA_ID!r}",
        )
        _check(
            isinstance(payload.get("label"), str) and payload.get("label"),
            "label must be a non-empty string",
        )
        _check(
            payload.get("preset") in ("smoke", "full"),
            "preset must be 'smoke' or 'full'",
        )
        _check(
            isinstance(payload.get("created_unix"), (int, float)),
            "created_unix must be a number",
        )
        prov = payload.get("provenance")
        _check(isinstance(prov, dict), "provenance must be an object")
        if isinstance(prov, dict):
            _check(
                isinstance(prov.get("repro_version"), str),
                "provenance.repro_version must be a string",
            )
            _check(
                prov.get("git_sha") is None
                or isinstance(prov.get("git_sha"), str),
                "provenance.git_sha must be a string or null",
            )
        cases = payload.get("cases")
        _check(
            isinstance(cases, list) and len(cases) > 0,
            "cases must be a non-empty array",
        )
        if isinstance(cases, list):
            for k, case in enumerate(cases):
                where = f"cases[{k}]"
                if not isinstance(case, dict):
                    problems.append(f"{where} must be an object")
                    continue
                for key in ("name", "description"):
                    _check(
                        isinstance(case.get(key), str) and case.get(key),
                        f"{where}.{key} must be a non-empty string",
                    )
                for key in (
                    "reference_seconds",
                    "optimized_seconds",
                    "speedup",
                ):
                    value = case.get(key)
                    _check(
                        isinstance(value, (int, float))
                        and not isinstance(value, bool)
                        and value > 0,
                        f"{where}.{key} must be a positive number",
                    )
                _check(
                    isinstance(case.get("repeats"), int)
                    and case.get("repeats") >= 1,
                    f"{where}.repeats must be an integer >= 1",
                )
    if problems:
        raise ValueError(
            "invalid bench payload: " + "; ".join(problems)
        )


def run_bench(
    preset: str = "smoke",
    case_names: list[str] | None = None,
    out_dir: Path | str = ".",
    label: str | None = None,
) -> tuple[dict[str, Any], Path]:
    """Run the bench battery and persist the registry record.

    Returns the payload and the ``BENCH_<label>.json`` path it was
    written to (label defaults to the preset).
    """
    from .runner import write_labelled_json

    payload = bench_payload(preset, case_names=case_names, label=label)
    path = write_labelled_json(payload, out_dir, "BENCH", validate_bench_payload)
    return payload, path
