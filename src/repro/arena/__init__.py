"""Diagnoser arena: tournament harness for the repo's five strategies.

Wraps every diagnosis strategy behind one
``diagnose(machine, budget) -> Diagnosis`` interface
(:mod:`~repro.arena.diagnosers`), bounds each session with cooperative
soft budgets and ``SIGALRM`` hard deadlines (:mod:`~repro.arena.budget`),
scores outcomes against scenario ground truth with pure set arithmetic
(:mod:`~repro.arena.scoring`), and emits the schema'd
``ARENA_<label>.json`` leaderboard (:mod:`~repro.arena.report`).  The
sweep itself lives in :mod:`repro.analysis.experiments.arena` behind
``python -m repro arena``.
"""

from .budget import (
    BudgetedExecutor,
    DiagnosisTimeout,
    SoftBudgetExceeded,
    TimeBudget,
    hard_deadline,
    has_hard_deadline,
    run_with_thread_deadline,
)
from .diagnosers import (
    BASELINE_NAMES,
    STRATEGY_NAMES,
    BatteryDiagnoser,
    BinarySearchDiagnoser,
    Diagnosis,
    DiagnoserContext,
    NullDiagnoser,
    PointCheckDiagnoser,
    RandomDiagnoser,
    RankedDiagnoser,
    SyndromeDiagnoser,
    WorstDiagnoser,
    build_diagnoser,
    default_diagnosers,
    run_bounded,
)
from .report import (
    ARENA_SCHEMA_ID,
    arena_payload,
    validate_arena_payload,
)
from .scoring import CellScore, TrialScore, grade_trial, score_trial

__all__ = [
    "ARENA_SCHEMA_ID",
    "BASELINE_NAMES",
    "BatteryDiagnoser",
    "BinarySearchDiagnoser",
    "BudgetedExecutor",
    "CellScore",
    "Diagnosis",
    "DiagnoserContext",
    "DiagnosisTimeout",
    "NullDiagnoser",
    "PointCheckDiagnoser",
    "RandomDiagnoser",
    "RankedDiagnoser",
    "STRATEGY_NAMES",
    "SoftBudgetExceeded",
    "SyndromeDiagnoser",
    "TimeBudget",
    "TrialScore",
    "WorstDiagnoser",
    "arena_payload",
    "build_diagnoser",
    "default_diagnosers",
    "grade_trial",
    "hard_deadline",
    "has_hard_deadline",
    "run_bounded",
    "run_with_thread_deadline",
    "score_trial",
    "validate_arena_payload",
]
