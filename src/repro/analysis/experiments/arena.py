"""Diagnoser arena: the five strategies head-to-head under one clock.

The ROADMAP's "Diagnoser arena" workload and the pressure test of the
paper's central economics claim (Fig. 10): every diagnosis strategy in
the repo — plus the Null/Random/Worst scoring baselines — sweeps the
PR 5 scenario taxonomy under per-diagnosis soft/hard time budgets, and
each (diagnoser, scenario kind, machine size) cell aggregates detection,
isolation precision against ``ground_truth``, shot cost, adaptation
count and wall-clock.

Fairness by construction:

* every diagnoser in a cell faces *identical* machines — the trial
  machines are seeded exactly like the scenario matrix's detection
  trials, and re-instantiated fresh per diagnoser;
* thresholds and contrast baselines come from the scenario matrix's own
  calibration pass (:func:`~repro.analysis.experiments.scenarios.calibrate_cell`),
  so the arena compares strategies, not tunings;
* trials are graded with the same ambiguity-band convention
  (:func:`~repro.arena.scoring.grade_trial`) as the matrix.

Clean trials (fault-free machines in the cell's own noise environment)
are appended after the scenario trials so every cell also measures false
alarms — the Null baseline's perfect score there is the floor any real
strategy must respect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ...arena.diagnosers import (
    BASELINE_NAMES,
    STRATEGY_NAMES,
    DiagnoserContext,
    build_diagnoser,
    run_bounded,
)
from ...arena.report import cell_payload
from ...arena.scoring import CellScore, grade_trial, score_trial
from ...core.multi_fault import ContrastVerifyConfig
from ...scenarios.spec import SCENARIO_KINDS, ScenarioSpec, build_scenario
from ...trap.machine import VirtualIonTrap
from .scenarios import calibrate_cell

__all__ = [
    "ArenaConfig",
    "ArenaResult",
    "run_arena_experiment",
]


@dataclass(frozen=True)
class ArenaConfig:
    """Grid, budget and grading parameters of the diagnoser arena."""

    #: At least two machine sizes, so the shot-cost crossover between the
    #: battery and the adaptive search is *measured* across N.
    qubit_counts: tuple[int, ...] = (6, 8)
    scenarios: tuple[str, ...] = SCENARIO_KINDS
    #: Competitors; defaults to all five strategies plus the baselines.
    diagnosers: tuple[str, ...] = (*STRATEGY_NAMES, *BASELINE_NAMES)
    repetition_counts: tuple[int, ...] = (2, 4)
    shots: int = 300
    #: Scenario trials per (cell, diagnoser); the trial index drives
    #: drifting scenarios, so early trials can be clean or ambiguous.
    trials: int = 8
    #: Extra fault-free trials per cell measuring false alarms.
    clean_trials: int = 2
    #: In-spec machines sampled per cell for thresholds and baselines.
    baseline_trials: int = 6
    noise_realizations: int = 4
    threshold_quantile: float = 0.05
    threshold_margin: float = 0.15
    detect_floor: float = 0.18
    ambiguity: float = 0.3
    verify_shots: int = 600
    verify_attempts: int = 3
    verify_margin: float = 3.0
    max_faults: int = 4
    #: Cooperative per-diagnosis budget (checked before each round).
    soft_seconds: float = 60.0
    #: External SIGALRM kill deadline per diagnosis.
    hard_seconds: float = 90.0
    #: The Random baseline's coin bias == its analytic detection rate.
    random_detect_rate: float = 0.25
    #: Fan the (N, kind) cell grid out over worker processes
    #: (execution-only: never changes results, excluded from the cache
    #: digest).
    series_jobs: int = field(default=1, metadata={"execution_only": True})
    seed: int = 11


@dataclass(frozen=True)
class ArenaResult:
    """Every (diagnoser, kind, N) cell plus the grading parameters."""

    cells: tuple[dict[str, Any], ...]
    detect_floor: float
    ambiguity: float
    soft_seconds: float
    hard_seconds: float
    random_detect_rate: float

    def cell(self, diagnoser: str, scenario: str, n_qubits: int) -> dict[str, Any]:
        """Look up one aggregated cell."""
        for cell in self.cells:
            if (
                cell["diagnoser"] == diagnoser
                and cell["scenario"] == scenario
                and cell["n_qubits"] == n_qubits
            ):
                return cell
        raise KeyError(
            f"no cell for {diagnoser!r} on {scenario!r} at N={n_qubits}"
        )


def _trial_machine(
    cfg: ArenaConfig, n_qubits: int, spec: ScenarioSpec, trial: int
) -> VirtualIonTrap:
    """A fresh scenario machine for one trial (scenario-matrix seeding).

    The seed depends only on (config seed, trial, N) — not on the
    diagnoser — so every competitor faces bit-identical machines.
    """
    machine = VirtualIonTrap(
        n_qubits,
        noise=spec.noise_parameters(),
        seed=cfg.seed + 977 * trial + 13 * n_qubits,
        noise_realizations=cfg.noise_realizations,
    )
    spec.apply(machine, trial=trial)
    return machine


def _clean_machine(
    cfg: ArenaConfig, n_qubits: int, spec: ScenarioSpec, trial: int
) -> VirtualIonTrap:
    """A fault-free machine in the cell's noise environment."""
    return VirtualIonTrap(
        n_qubits,
        noise=spec.noise_parameters(),
        seed=cfg.seed + 7121 * trial + 17 * n_qubits,
        noise_realizations=cfg.noise_realizations,
    )


def _cell_context(
    cfg: ArenaConfig, n_qubits: int, thresholds, bank
) -> DiagnoserContext:
    """The shared per-cell context every diagnoser builds its session from."""
    return DiagnoserContext(
        n_qubits=n_qubits,
        thresholds=thresholds,
        shots=cfg.shots,
        repetition_counts=cfg.repetition_counts,
        baselines=bank,
        shot_batch=cfg.noise_realizations,
        verify=ContrastVerifyConfig(
            shots=cfg.verify_shots,
            realizations=2 * cfg.noise_realizations,
            attempts=cfg.verify_attempts,
            margin=cfg.verify_margin,
        ),
        max_faults=cfg.max_faults,
        random_detect_rate=cfg.random_detect_rate,
    )


def _run_cell(args: tuple[ArenaConfig, int, str]) -> list[dict[str, Any]]:
    """Worker entry point for the cell fan-out (must be module-level).

    Returns one aggregated cell payload per diagnoser.
    """
    from ...arena.budget import TimeBudget

    cfg, n_qubits, kind = args
    spec = build_scenario(kind, n_qubits)
    thresholds, bank, _batteries = calibrate_cell(cfg, n_qubits, spec)
    ctx = _cell_context(cfg, n_qubits, thresholds, bank)
    hi = cfg.detect_floor * (1.0 + cfg.ambiguity)
    cells: list[dict[str, Any]] = []
    for name in cfg.diagnosers:
        diagnoser = build_diagnoser(name, ctx)
        cell = CellScore(diagnoser=name, kind=kind, n_qubits=n_qubits)
        for trial in range(cfg.trials):
            machine = _trial_machine(cfg, n_qubits, spec, trial)
            truth_kind = grade_trial(
                spec.top_severity(trial), cfg.detect_floor, cfg.ambiguity
            )
            truth = spec.ground_truth(trial, floor=hi)
            budget = TimeBudget(cfg.soft_seconds, cfg.hard_seconds)
            diagnosis, wall = run_bounded(diagnoser, machine, budget)
            cell.add(score_trial(diagnosis, truth, truth_kind, wall))
        for trial in range(cfg.clean_trials):
            machine = _clean_machine(cfg, n_qubits, spec, trial)
            budget = TimeBudget(cfg.soft_seconds, cfg.hard_seconds)
            diagnosis, wall = run_bounded(diagnoser, machine, budget)
            cell.add(score_trial(diagnosis, [], "clean", wall))
        cells.append(cell_payload(cell))
    return cells


def run_arena_experiment(cfg: ArenaConfig | None = None) -> ArenaResult:
    """Run the full diagnosers x scenarios x sizes tournament.

    ``series_jobs > 1`` fans the (N, kind) cell grid out over worker
    processes; cells are seeded independently of execution order, so
    results are identical to the sequential run.  (``SIGALRM`` hard
    deadlines work in workers too — each worker process arms the timer
    in its own main thread.)
    """
    from ..runner import fan_out

    cfg = cfg or ArenaConfig()
    for kind in cfg.scenarios:
        if kind not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind {kind!r}; "
                f"known: {', '.join(SCENARIO_KINDS)}"
            )
    for name in cfg.diagnosers:
        if name not in (*STRATEGY_NAMES, *BASELINE_NAMES):
            raise ValueError(
                f"unknown diagnoser {name!r}; known: "
                + ", ".join((*STRATEGY_NAMES, *BASELINE_NAMES))
            )
    grid = [
        (cfg, n_qubits, kind)
        for n_qubits in cfg.qubit_counts
        for kind in cfg.scenarios
    ]
    cell_lists = fan_out(_run_cell, grid, cfg.series_jobs)
    return ArenaResult(
        cells=tuple(cell for cells in cell_lists for cell in cells),
        detect_floor=cfg.detect_floor,
        ambiguity=cfg.ambiguity,
        soft_seconds=cfg.soft_seconds,
        hard_seconds=cfg.hard_seconds,
        random_detect_rate=cfg.random_detect_rate,
    )


# -- validation contract ----------------------------------------------------------


def _battery_cells(result: dict) -> dict[str, tuple[int, int]]:
    """(kind, N) cell -> the battery's detection counts."""
    return {
        f"{c['scenario']}/n={c['n_qubits']}": (
            c["detections"],
            c["fault_trials"],
        )
        for c in result["cells"]
        if c["diagnoser"] == "battery" and c["fault_trials"]
    }


def _total_timeouts(result: dict) -> float:
    """Hard-deadline kills summed over every cell."""
    return float(sum(c["timeouts"] for c in result["cells"]))


def _null_alarms(result: dict) -> float:
    """Alarms (detections + false alarms) the Null baseline raised."""
    return float(
        sum(
            c["detections"] + c["false_alarms"]
            for c in result["cells"]
            if c["diagnoser"] == "null"
        )
    )


def _worst_ambiguity_maximal(result: dict) -> float:
    """1.0 when Worst's mean ambiguity is C(N,2) in every fault cell."""
    rows = [
        c
        for c in result["cells"]
        if c["diagnoser"] == "worst" and c["fault_trials"]
    ]
    return float(
        bool(rows)
        and all(
            abs(
                c["mean_ambiguity"]
                - c["n_qubits"] * (c["n_qubits"] - 1) / 2.0
            )
            < 1e-9
            for c in rows
        )
    )


def _crossover_sizes(result: dict) -> float:
    """Machine sizes where battery and search shot costs are both measured."""
    from ...arena.report import crossover_section

    crossover = crossover_section(list(result["cells"]))
    return float(
        sum(
            1
            for row in crossover["per_n"]
            if row["battery_shots"] > 0 and row["binary_search_shots"] > 0
        )
    )


def _pooled_precision(cells: list[dict[str, Any]], name: str) -> float:
    """Fault-trial-weighted mean precision of one diagnoser."""
    rows = [c for c in cells if c["diagnoser"] == name]
    fault = sum(c["fault_trials"] for c in rows)
    if not fault:
        return 0.0
    return sum(c["mean_precision"] * c["fault_trials"] for c in rows) / fault


def _precision_edge(result: dict) -> float:
    """Battery pooled precision minus the Worst baseline's."""
    cells = list(result["cells"])
    return _pooled_precision(cells, "battery") - _pooled_precision(
        cells, "worst"
    )


def _validation():
    """The arena's golden-tracked tournament locks (EXPERIMENTS.md)."""
    from ...validation.specs import Expectation, FigureValidation

    return FigureValidation(
        replicates=1,
        expectations=(
            Expectation(
                check_id="arena.battery_beats_random",
                description=(
                    "battery detection CI lower bound beats the Random "
                    "baseline's analytic rate in every (kind, N) cell"
                ),
                kind="ci-lower-each",
                target=0.25,
                extract=lambda ctx: _battery_cells(ctx.first),
            ),
            Expectation(
                check_id="arena.no_hard_timeouts",
                description=(
                    "no diagnoser exceeded its hard time budget anywhere "
                    "in the sweep"
                ),
                kind="band",
                target=(0.0, 0.5),
                drift_tolerance=0.0,
                extract=lambda ctx: _total_timeouts(ctx.first),
            ),
            Expectation(
                check_id="arena.null_never_detects",
                description="the Null baseline never raises an alarm",
                kind="band",
                target=(0.0, 0.5),
                drift_tolerance=0.0,
                extract=lambda ctx: _null_alarms(ctx.first),
            ),
            Expectation(
                check_id="arena.worst_max_ambiguity",
                description=(
                    "the Worst baseline's ambiguity group is all C(N,2) "
                    "couplings in every fault cell"
                ),
                kind="band",
                target=(0.5, 1.5),
                drift_tolerance=0.0,
                extract=lambda ctx: _worst_ambiguity_maximal(ctx.first),
            ),
            Expectation(
                check_id="arena.crossover_measured",
                description=(
                    "the battery-vs-binary-search shot-cost crossover is "
                    "measured on at least two machine sizes"
                ),
                kind="band",
                target=(1.5, 1e9),
                drift_tolerance=None,
                extract=lambda ctx: _crossover_sizes(ctx.first),
            ),
            Expectation(
                check_id="arena.battery_precision_beats_worst",
                description=(
                    "battery isolation precision exceeds the "
                    "accuse-everything baseline's"
                ),
                kind="band",
                target=(0.0, 1.0),
                hard=False,
                drift_tolerance=0.5,
                extract=lambda ctx: _precision_edge(ctx.first),
            ),
        ),
    )


def _register() -> None:
    """Hook this experiment into the unified runner registry."""
    from ..registry import register_experiment

    def _to_rows(result: ArenaResult):
        rows = []
        for cell in result.cells:
            rows.append(
                [
                    cell["diagnoser"],
                    cell["scenario"],
                    cell["n_qubits"],
                    cell["detections"],
                    cell["fault_trials"],
                    cell["false_alarms"],
                    cell["clean_trials"],
                    round(cell["mean_precision"], 4),
                    round(cell["mean_shots"], 1),
                    round(cell["mean_adaptations"], 2),
                    cell["timeouts"],
                ]
            )
        return (
            [
                "diagnoser",
                "scenario",
                "n_qubits",
                "detections",
                "fault_trials",
                "false_alarms",
                "clean_trials",
                "mean_precision",
                "mean_shots",
                "mean_adaptations",
                "timeouts",
            ],
            rows,
        )

    def _summarize(result: ArenaResult) -> str:
        by_diagnoser: dict[str, list[int]] = {}
        for cell in result.cells:
            row = by_diagnoser.setdefault(cell["diagnoser"], [0, 0, 0])
            row[0] += cell["detections"]
            row[1] += cell["fault_trials"]
            row[2] += cell["timeouts"]
        parts = [
            f"{name} {s}/{t}" + (f" ({x} timeouts)" if x else "")
            for name, (s, t, x) in by_diagnoser.items()
        ]
        return "detections: " + "; ".join(parts)

    register_experiment(
        name="arena",
        anchor="Fig. 10 / Sec. IX",
        title="Diagnoser tournament under timeout-bounded scoring",
        runner=run_arena_experiment,
        config_type=ArenaConfig,
        smoke_overrides={
            "shots": 150,
            "trials": 6,
            "clean_trials": 2,
            "baseline_trials": 4,
            "verify_shots": 300,
            "soft_seconds": 20.0,
            "hard_seconds": 30.0,
        },
        to_rows=_to_rows,
        summarize=_summarize,
        validation=_validation(),
    )


_register()
