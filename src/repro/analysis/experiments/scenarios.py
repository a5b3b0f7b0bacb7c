"""Scenario matrix: detection/identification across the fault taxonomy.

Not a single paper figure: the cross-cutting battery the ROADMAP's
"as many scenarios as you can imagine" north star asks for.  Every cell
of an ``N x scenario-kind`` grid (kinds from
:mod:`repro.scenarios.spec`) runs the paper's non-adaptive detection
batteries and the Fig. 5 contrast-ranked identification loop against a
machine compiled from the scenario's :class:`~repro.scenarios.ScenarioSpec`,
and reports:

* **detection counts per engine** — XX-preserving scenarios run through
  *both* the exact XX contraction engine and the compiled dense-plan
  engine (``engine="xx"`` / ``engine="dense"`` forcing on the compiled
  battery); non-XX scenarios (phase-miscalibrated couplings) record
  their fall-back to the dense path;
* **identification counts** — the ranked loop must name the scenario's
  worst coupling first, or conclude *clean* when the machine is in
  spec (the drifting scenario's early trials);
* **the fig6 anchor** — when the grid contains the under-rotation kind,
  the literal Fig. 6 experiment (Sec. VI noise, fixed 0.45/0.25
  thresholds, default seed) re-runs and its ``largest_fault_resolved``
  verdicts are carried in the result, tying the matrix back to the
  PR 4 golden checks.

Trials whose worst fault sits inside the ambiguity band around the
detectability floor (``detect_floor`` +- ``ambiguity``) are excluded
from the success counts — a fault *at* the floor is neither a must-find
nor a must-ignore.

Thresholds and contrast baselines are calibrated per (N, environment)
from in-spec machines under the scenario's own noise environment
(including its SPAM channel), mirroring fig9's calibration pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any

import numpy as np

from ...analysis.detection import BaselineBank, CalibratedThresholds
from ...core.multi_fault import (
    ContrastVerifyConfig,
    MagnitudeSearchConfig,
    MultiFaultProtocol,
    battery_specs,
)
from ...core.protocol import (
    TestExecutor,
    compile_test_battery,
    execute_compiled_battery,
)
from ...core.tests_builder import TestSpec
from ...noise.models import NoiseParameters
from ...noise.spam import SpamModel
from ...scenarios.spec import SCENARIO_KINDS, ScenarioSpec, build_scenario
from ...trap.calibration import all_pairs
from ...trap.machine import VirtualIonTrap

__all__ = [
    "CALIBRATION_FIELDS",
    "CALIBRATION_MEMO_CELLS",
    "ScenarioCell",
    "ScenarioMatrixConfig",
    "ScenarioMatrixResult",
    "calibrate_cell",
    "calibration_environment",
    "run_scenarios",
]

Pair = frozenset[int]


@dataclass(frozen=True)
class ScenarioMatrixConfig:
    """Grid, battery and grading parameters of the scenario matrix."""

    qubit_counts: tuple[int, ...] = (8,)
    scenarios: tuple[str, ...] = SCENARIO_KINDS
    repetition_counts: tuple[int, ...] = (2, 4)
    shots: int = 300
    #: Trials per (cell, engine) of the detection battery sweep.
    detection_trials: int = 12
    #: Trials per cell of the ranked identification loop.
    identification_trials: int = 8
    #: In-spec machines sampled per cell environment for thresholds and
    #: contrast baselines.
    baseline_trials: int = 6
    noise_realizations: int = 4
    threshold_quantile: float = 0.05
    threshold_margin: float = 0.15
    #: Smallest fault magnitude the batteries are graded on finding.
    detect_floor: float = 0.18
    #: Relative half-width of the ambiguity band around the floor;
    #: trials whose worst fault lands inside it are not graded.
    ambiguity: float = 0.3
    verify_shots: int = 600
    verify_attempts: int = 3
    verify_margin: float = 3.0
    max_faults: int = 4
    #: Re-run the literal Fig. 6 experiment (Sec. VI noise, fixed
    #: thresholds, default seed) when the under-rotation kind is in the
    #: grid, carrying its golden-checked verdicts in the result.
    fig6_anchor: bool = True
    anchor_shots: int = 300
    #: Fan the (N, kind) cell grid out over worker processes
    #: (execution-only: never changes results, excluded from the cache
    #: digest).
    series_jobs: int = field(default=1, metadata={"execution_only": True})
    seed: int = 11


@dataclass(frozen=True)
class ScenarioCell:
    """One (scenario kind, machine size) cell of the matrix.

    Count fields are ``(engine, successes, trials)`` triples:
    ``detection`` grades must-find trials (worst fault clearly above the
    floor), ``inspec_clean`` grades must-pass trials (worst fault
    clearly below), and ``false_flags`` counts flagged fault-free tests
    across all graded trials.  ``identification_*`` pool the ranked
    loop's verdicts (finding the worst pair first, or correctly
    concluding clean).
    """

    scenario: str
    n_qubits: int
    xx_preserving: bool
    fallback_to_dense: bool
    engines: tuple[str, ...]
    detection: tuple[tuple[str, int, int], ...]
    false_flags: tuple[tuple[str, int, int], ...]
    inspec_clean: tuple[tuple[str, int, int], ...]
    identification_successes: int
    identification_trials: int
    ambiguous_trials: int
    top_severity: float

    def detection_rate(self, engine: str) -> float | None:
        """Detection success fraction for one engine (None if ungraded)."""
        for name, successes, trials in self.detection:
            if name == engine and trials:
                return successes / trials
        return None


@dataclass(frozen=True)
class ScenarioMatrixResult:
    """All cells plus the fig6 anchor verdicts and the grading floor."""

    cells: tuple[ScenarioCell, ...]
    anchor_largest_resolved_2ms: bool | None
    anchor_largest_resolved_4ms: bool | None
    detect_floor: float

    def cell(self, scenario: str, n_qubits: int) -> ScenarioCell:
        """Look up one cell by kind and machine size."""
        for cell in self.cells:
            if cell.scenario == scenario and cell.n_qubits == n_qubits:
                return cell
        raise KeyError(f"no cell for {scenario!r} at N={n_qubits}")


def _cell_engines(spec: ScenarioSpec) -> tuple[str, ...]:
    """Engines a scenario's detection battery runs through."""
    return ("xx", "dense") if spec.is_xx_preserving() else ("dense",)


#: The config fields :func:`calibrate_cell` reads.  With N and the noise
#: environment they determine its result (its baseline seeds are fixed),
#: so they key the calibration memo; ``seed`` is not among them.
CALIBRATION_FIELDS = (
    "repetition_counts",
    "baseline_trials",
    "noise_realizations",
    "shots",
    "verify_shots",
    "threshold_quantile",
    "threshold_margin",
)

#: Calibrated environments one process keeps (least recently used dropped).
CALIBRATION_MEMO_CELLS = 64


def calibration_environment(noise: NoiseParameters) -> tuple:
    """The values of ``noise`` a calibration depends on, as a memo key.

    Built from values only: two equal environments from distinct
    :class:`NoiseParameters`/:class:`~repro.noise.spam.SpamModel`
    objects share a key, and a recycled object address cannot alias two
    different channels.
    """
    spam = noise.spam
    return (
        noise.amplitude_sigma,
        noise.amplitude_sigma_1q,
        noise.phase_noise_rms,
        noise.residual_odd_population,
        None if spam is None else (spam.p01, spam.p10),
    )


def calibrate_cell(
    cfg, n_qubits: int, spec: ScenarioSpec
) -> tuple[CalibratedThresholds, BaselineBank, dict[int, Any]]:
    """Thresholds, contrast baselines and compiled batteries for a cell.

    In-spec machines (no injected faults) under the scenario's own noise
    environment — including its SPAM channel, so an asymmetric readout
    biases the baselines the same way it biases the faulty runs — yield
    per-(repetitions, kind) quantile thresholds, per-test-name baseline
    means and the verify mean/std.  The static batteries are compiled
    once per repetition count and reused by every baseline and detection
    trial.

    ``cfg`` is duck-typed over the :data:`CALIBRATION_FIELDS` so the
    diagnoser arena's config calibrates its cells through the same code
    path as the scenario matrix — the two workloads grade against
    identical thresholds and baselines.

    The result depends on ``spec`` only through its noise environment,
    so it is memoized per process by ``(n_qubits,``
    :func:`calibration_environment` ``, calibration fields)``, keeping
    the :data:`CALIBRATION_MEMO_CELLS` most recently used entries: scenario
    kinds that share an environment calibrate once, and so does every
    front door (matrix, arena, fleet, service worker) in one process.
    Callers share the returned thresholds, bank and batteries and must
    not mutate them.
    """
    return _calibrated_environment(
        n_qubits,
        calibration_environment(spec.noise_parameters()),
        tuple(getattr(cfg, name) for name in CALIBRATION_FIELDS),
    )


@functools.lru_cache(maxsize=CALIBRATION_MEMO_CELLS)
def _calibrated_environment(
    n_qubits: int, environment: tuple, calibration: tuple
) -> tuple[CalibratedThresholds, BaselineBank, dict[int, Any]]:
    """:func:`_calibrate` of one memo key, rebuilt from its values."""
    sigma, sigma_1q, phase_rms, residual, spam = environment
    noise = NoiseParameters(
        amplitude_sigma=sigma,
        amplitude_sigma_1q=sigma_1q,
        phase_noise_rms=phase_rms,
        residual_odd_population=residual,
        spam=None if spam is None else SpamModel(*spam),
    )
    cfg = SimpleNamespace(**dict(zip(CALIBRATION_FIELDS, calibration)))
    return _calibrate(cfg, n_qubits, noise)


def _calibrate(
    cfg, n_qubits: int, noise: NoiseParameters
) -> tuple[CalibratedThresholds, BaselineBank, dict[int, Any]]:
    """The calibration pass behind :func:`calibrate_cell` (unmemoized)."""
    pairs = all_pairs(n_qubits)
    canary_reps = max(cfg.repetition_counts)
    thresholds = CalibratedThresholds(default=0.5)
    batteries = {
        r: compile_test_battery(n_qubits, battery_specs(n_qubits, r))
        for r in cfg.repetition_counts
    }
    samples: dict[tuple[int, str], list[float]] = {}
    by_test: dict[str, list[float]] = {}
    verify_samples: list[float] = []
    for trial in range(cfg.baseline_trials):
        machine = VirtualIonTrap(
            n_qubits,
            noise=noise,
            seed=31000 + 61 * trial + n_qubits,
            noise_realizations=cfg.noise_realizations,
        )
        for r in cfg.repetition_counts:
            specs_r = battery_specs(n_qubits, r)
            for i, test in enumerate(specs_r):
                fidelity = float(
                    batteries[r].trial_fidelities(
                        machine,
                        i,
                        cfg.shots,
                        trials=1,
                        realizations=cfg.noise_realizations,
                    )[0]
                )
                samples.setdefault((r, test.kind), []).append(fidelity)
                by_test.setdefault(test.name, []).append(fidelity)
        executor = TestExecutor(
            machine,
            thresholds=thresholds,
            shots=cfg.verify_shots,
            shot_batch=cfg.noise_realizations,
        )
        verify_spec = TestSpec(
            name="verify-baseline",
            pairs=(pairs[trial % len(pairs)],),
            repetitions=canary_reps,
            kind="verify",
        )
        verify_samples.append(executor.execute(verify_spec).fidelity)
    for (r, kind), fidelities in samples.items():
        thresholds.set(
            r,
            kind,
            float(
                np.quantile(np.array(fidelities), cfg.threshold_quantile)
                * (1.0 - cfg.threshold_margin)
            ),
        )
    bank = BaselineBank(
        by_test={name: float(np.mean(v)) for name, v in by_test.items()},
        verify_mean=float(np.mean(verify_samples)),
        verify_std=float(np.std(verify_samples)),
    )
    return thresholds, bank, batteries


def _detection_counts(
    cfg: ScenarioMatrixConfig,
    n_qubits: int,
    spec: ScenarioSpec,
    thresholds: CalibratedThresholds,
    batteries: dict[int, Any],
) -> tuple[dict[str, dict[str, list[int]]], int]:
    """Per-engine detection / in-spec / false-flag counts for one cell."""
    engines = _cell_engines(spec)
    noise = spec.noise_parameters()
    deepest = max(cfg.repetition_counts)
    lo = cfg.detect_floor * (1.0 - cfg.ambiguity)
    hi = cfg.detect_floor * (1.0 + cfg.ambiguity)
    fault_pairs = {f.key for f in spec.faults}
    counts = {
        engine: {
            "detection": [0, 0],
            "false_flags": [0, 0],
            "inspec_clean": [0, 0],
        }
        for engine in engines
    }
    ambiguous = 0
    for engine in engines:
        for trial in range(cfg.detection_trials):
            machine = VirtualIonTrap(
                n_qubits,
                noise=noise,
                seed=cfg.seed + 977 * trial + 13 * n_qubits,
                noise_realizations=cfg.noise_realizations,
            )
            spec.apply(machine, trial=trial)
            top = spec.top_severity(trial)
            results = []
            for r in cfg.repetition_counts:
                results.extend(
                    execute_compiled_battery(
                        machine,
                        battery_specs(n_qubits, r),
                        battery=batteries[r],
                        thresholds=thresholds,
                        shots=cfg.shots,
                        realizations=cfg.noise_realizations,
                        engine=engine,
                    )
                )
            clean_tests = [
                res
                for res in results
                if not (fault_pairs & set(res.spec.pairs))
            ]
            counts[engine]["false_flags"][0] += sum(
                res.failed for res in clean_tests
            )
            counts[engine]["false_flags"][1] += len(clean_tests)
            if top >= hi:
                target = spec.ground_truth(trial, floor=hi)[0]
                hit = all(
                    res.failed
                    for res in results
                    if res.spec.repetitions == deepest
                    and target in res.spec.pairs
                )
                counts[engine]["detection"][0] += int(hit)
                counts[engine]["detection"][1] += 1
            elif top < lo:
                counts[engine]["inspec_clean"][0] += int(
                    all(not res.failed for res in results)
                )
                counts[engine]["inspec_clean"][1] += 1
            else:
                ambiguous += 1
    return counts, ambiguous


def _identification_counts(
    cfg: ScenarioMatrixConfig,
    n_qubits: int,
    spec: ScenarioSpec,
    thresholds: CalibratedThresholds,
    bank: BaselineBank,
) -> tuple[int, int]:
    """Ranked-loop verdict counts: (successes, graded trials)."""
    noise = spec.noise_parameters()
    canary_reps = max(cfg.repetition_counts)
    lo = cfg.detect_floor * (1.0 - cfg.ambiguity)
    hi = cfg.detect_floor * (1.0 + cfg.ambiguity)
    successes = 0
    graded = 0
    for trial in range(cfg.identification_trials):
        top = spec.top_severity(trial)
        if lo <= top < hi:
            continue
        graded += 1
        machine = VirtualIonTrap(
            n_qubits,
            noise=noise,
            seed=cfg.seed + 5003 * trial + 29 * n_qubits,
            noise_realizations=cfg.noise_realizations,
        )
        spec.apply(machine, trial=trial)
        truth = spec.ground_truth(trial, floor=hi)
        executor = TestExecutor(
            machine,
            thresholds=thresholds,
            shots=cfg.shots,
            shot_batch=cfg.noise_realizations,
        )
        protocol = MultiFaultProtocol(
            n_qubits,
            magnitude=MagnitudeSearchConfig((canary_reps,)),
            recalibrate=machine.recalibrate,
            max_faults=cfg.max_faults,
            canary_style="battery",
        )
        report = protocol.diagnose_all_ranked(
            executor,
            bank,
            verify=ContrastVerifyConfig(
                shots=cfg.verify_shots,
                realizations=2 * cfg.noise_realizations,
                attempts=cfg.verify_attempts,
                margin=cfg.verify_margin,
            ),
        )
        found = report.identified_by_magnitude()
        if truth:
            successes += int(bool(found) and found[0] == truth[0])
        else:
            successes += int(not found)
    return successes, graded


def _run_cell(args: tuple[ScenarioMatrixConfig, int, str]) -> ScenarioCell:
    """Worker entry point for the cell fan-out (must be module-level)."""
    cfg, n_qubits, kind = args
    spec = build_scenario(kind, n_qubits)
    thresholds, bank, batteries = calibrate_cell(cfg, n_qubits, spec)
    counts, ambiguous = _detection_counts(
        cfg, n_qubits, spec, thresholds, batteries
    )
    ident_successes, ident_trials = _identification_counts(
        cfg, n_qubits, spec, thresholds, bank
    )
    engines = _cell_engines(spec)

    def _triples(field_name: str) -> tuple[tuple[str, int, int], ...]:
        return tuple(
            (engine, counts[engine][field_name][0], counts[engine][field_name][1])
            for engine in engines
        )

    return ScenarioCell(
        scenario=kind,
        n_qubits=n_qubits,
        xx_preserving=spec.is_xx_preserving(),
        fallback_to_dense=not spec.is_xx_preserving(),
        engines=engines,
        detection=_triples("detection"),
        false_flags=_triples("false_flags"),
        inspec_clean=_triples("inspec_clean"),
        identification_successes=ident_successes,
        identification_trials=ident_trials,
        ambiguous_trials=ambiguous,
        top_severity=spec.top_severity(0),
    )


def run_scenarios(cfg: ScenarioMatrixConfig | None = None) -> ScenarioMatrixResult:
    """Run the full N x scenario matrix (plus the fig6 anchor).

    ``series_jobs > 1`` fans the cell grid out over worker processes;
    every cell is seeded independently of execution order, so results
    are identical to the sequential run.
    """
    from ..runner import fan_out

    cfg = cfg or ScenarioMatrixConfig()
    for kind in cfg.scenarios:
        if kind not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind {kind!r}; "
                f"known: {', '.join(SCENARIO_KINDS)}"
            )
    grid = [
        (cfg, n_qubits, kind)
        for n_qubits in cfg.qubit_counts
        for kind in cfg.scenarios
    ]
    cells = fan_out(_run_cell, grid, cfg.series_jobs)
    anchor_2ms = anchor_4ms = None
    if cfg.fig6_anchor and "static-under-rotation" in cfg.scenarios:
        from .fig6 import Fig6Config, run_fig6

        anchor = run_fig6(Fig6Config(shots=cfg.anchor_shots))
        anchor_2ms = anchor.largest_fault_resolved(2)
        anchor_4ms = anchor.largest_fault_resolved(4)
    return ScenarioMatrixResult(
        cells=tuple(cells),
        anchor_largest_resolved_2ms=anchor_2ms,
        anchor_largest_resolved_4ms=anchor_4ms,
        detect_floor=cfg.detect_floor,
    )


# -- validation contract ----------------------------------------------------------


def _pooled(cells: list[dict], field_name: str, kinds=None) -> tuple[int, int]:
    """Pool a count field over cells (optionally restricted to kinds)."""
    successes = trials = 0
    for cell in cells:
        if kinds is not None and cell["scenario"] not in kinds:
            continue
        for _, s, t in cell[field_name]:
            successes += s
            trials += t
    return successes, trials


def _detection_by_kind(result: dict) -> dict[str, tuple[int, int]]:
    """Kind -> pooled detection counts over engines and machine sizes."""
    out: dict[str, tuple[int, int]] = {}
    for cell in result["cells"]:
        s0, t0 = out.get(cell["scenario"], (0, 0))
        s, t = _pooled([cell], "detection")
        out[cell["scenario"]] = (s0 + s, t0 + t)
    return {k: v for k, v in out.items() if v[1] > 0}


def _identification_by_kind(result: dict) -> dict[str, tuple[int, int]]:
    """Kind -> pooled identification counts over machine sizes."""
    out: dict[str, tuple[int, int]] = {}
    for cell in result["cells"]:
        s0, t0 = out.get(cell["scenario"], (0, 0))
        out[cell["scenario"]] = (
            s0 + cell["identification_successes"],
            t0 + cell["identification_trials"],
        )
    return {k: v for k, v in out.items() if v[1] > 0}


def _identification_pooled(result: dict) -> tuple[int, int]:
    """Identification counts pooled over every cell of the matrix."""
    by_kind = _identification_by_kind(result)
    return (
        sum(s for s, _ in by_kind.values()),
        sum(t for _, t in by_kind.values()),
    )


def _engine_agreement(result: dict) -> float:
    """Worst |detection_rate(xx) - detection_rate(dense)| over XX cells."""
    worst = 0.0
    for cell in result["cells"]:
        rates = {
            engine: s / t for engine, s, t in cell["detection"] if t > 0
        }
        if "xx" in rates and "dense" in rates:
            worst = max(worst, abs(rates["xx"] - rates["dense"]))
    return worst


def _fallback_consistent(result: dict) -> float:
    """1.0 when every cell's engine routing matches its XX-preserving flag."""
    return float(
        all(
            cell["fallback_to_dense"] == (not cell["xx_preserving"])
            and (("xx" in cell["engines"]) == cell["xx_preserving"])
            for cell in result["cells"]
        )
    )


def _anchor_value(result: dict) -> float:
    """1.0 when the fig6 anchor resolves the 47% fault at both depths."""
    return float(
        bool(result["anchor_largest_resolved_2ms"])
        and bool(result["anchor_largest_resolved_4ms"])
    )


def _validation():
    """The scenario matrix's paper-fidelity locks (EXPERIMENTS.md)."""
    from ...validation.specs import Expectation, FigureValidation

    return FigureValidation(
        replicates=1,
        expectations=(
            Expectation(
                check_id="scenarios.fig6_anchor",
                description=(
                    "the under-rotation scenario's fig6 anchor reproduces "
                    "the PR 4 golden verdicts (47% fault resolved at both "
                    "depths, Sec. VI noise, default seed)"
                ),
                kind="band",
                target=(0.5, 1.5),
                drift_tolerance=0.0,
                extract=lambda ctx: _anchor_value(ctx.first),
            ),
            Expectation(
                check_id="scenarios.detection_each",
                description=(
                    "every scenario kind's clearly-detectable faults are "
                    "flagged by the deepest battery (pooled over engines)"
                ),
                kind="ci-lower-each",
                target=0.5,
                extract=lambda ctx: _detection_by_kind(ctx.first),
            ),
            Expectation(
                check_id="scenarios.identification_pooled",
                description=(
                    "the ranked loop names the worst coupling first (or "
                    "correctly concludes clean) across the whole matrix"
                ),
                kind="ci-lower",
                target=0.5,
                extract=lambda ctx: _identification_pooled(ctx.first),
            ),
            Expectation(
                check_id="scenarios.identification_each",
                description=(
                    "no scenario kind's identification collapses to zero"
                ),
                kind="ci-lower-each",
                target=0.05,
                hard=False,
                drift_tolerance=0.5,
                extract=lambda ctx: _identification_by_kind(ctx.first),
            ),
            Expectation(
                check_id="scenarios.engine_agreement",
                description=(
                    "XX and dense engines report the same detection rates "
                    "on XX-preserving scenarios (shared noise draws)"
                ),
                kind="band",
                target=(0.0, 0.25),
                extract=lambda ctx: _engine_agreement(ctx.first),
            ),
            Expectation(
                check_id="scenarios.dense_fallback",
                description=(
                    "non-XX scenarios fall back to the dense engine and "
                    "XX-preserving ones run both engines"
                ),
                kind="band",
                target=(0.5, 1.5),
                drift_tolerance=0.0,
                extract=lambda ctx: _fallback_consistent(ctx.first),
            ),
            Expectation(
                check_id="scenarios.inspec_clean",
                description=(
                    "in-spec trials (drifting scenario before the ramp) "
                    "raise no flags at all"
                ),
                kind="ci-lower",
                target=0.05,
                hard=False,
                drift_tolerance=0.5,
                extract=lambda ctx: _pooled(
                    ctx.first["cells"], "inspec_clean"
                ),
            ),
        ),
    )


def _register() -> None:
    """Hook this experiment into the unified runner registry."""
    from ..registry import register_experiment

    def _to_rows(result: ScenarioMatrixResult):
        rows = []
        for cell in result.cells:
            by_engine = {e: (s, t) for e, s, t in cell.detection}
            for engine in cell.engines:
                s, t = by_engine.get(engine, (0, 0))
                rows.append(
                    [
                        cell.scenario,
                        cell.n_qubits,
                        engine,
                        cell.xx_preserving,
                        s,
                        t,
                        cell.identification_successes,
                        cell.identification_trials,
                    ]
                )
        return (
            [
                "scenario",
                "n_qubits",
                "engine",
                "xx_preserving",
                "detected",
                "detection_trials",
                "identified",
                "identification_trials",
            ],
            rows,
        )

    def _summarize(result: ScenarioMatrixResult) -> str:
        parts = []
        for cell in result.cells:
            det = [
                f"{e}:{s}/{t}" for e, s, t in cell.detection if t
            ] or ["-"]
            parts.append(
                f"{cell.scenario}@N={cell.n_qubits} det "
                + ",".join(det)
                + f" id {cell.identification_successes}"
                f"/{cell.identification_trials}"
            )
        anchor = (
            "anchor 2MS/4MS "
            f"{result.anchor_largest_resolved_2ms}"
            f"/{result.anchor_largest_resolved_4ms}; "
            if result.anchor_largest_resolved_2ms is not None
            else ""
        )
        return anchor + "; ".join(parts)

    register_experiment(
        name="scenarios",
        anchor="Secs. III-VI",
        title="Fault-scenario taxonomy matrix across both engines",
        runner=run_scenarios,
        config_type=ScenarioMatrixConfig,
        smoke_overrides={
            "qubit_counts": (6,),
            "shots": 150,
            "detection_trials": 8,
            "identification_trials": 6,
            "baseline_trials": 4,
            "verify_shots": 300,
            "anchor_shots": 150,
        },
        to_rows=_to_rows,
        summarize=_summarize,
        validation=_validation(),
    )


_register()
