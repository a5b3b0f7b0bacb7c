"""Experiment runners: one module per figure/table of the evaluation.

Each module exposes a frozen ``*Config`` dataclass (defaults match the
paper's parameters) and a ``run_*`` entry point returning structured
results, and registers itself with :mod:`repro.analysis.registry` at
import time — ``python -m repro run <name>`` and the unified runner
discover every experiment through that registry.  EXPERIMENTS.md (repo
root) documents full-size vs ``--smoke`` parameters and the expected
outputs for each figure.
"""

from .arena import ArenaConfig, ArenaResult, run_arena_experiment
from .fig2 import Fig2Config, Fig2Result, run_fig2
from .fig3 import Fig3Config, Fig3Point, run_fig3
from .fig6 import Fig6Config, Fig6Result, Fig6Row, battery_specs, run_fig6
from .fig7 import Fig7Config, Fig7Result, run_fig7
from .fig8 import Fig8Config, Fig8Series, class_test_for_pair, run_fig8
from .fig9 import Fig9Config, Fig9Panel, run_fig9
from .fig10 import Fig10Config, Fig10Row, run_fig10, sec9_headline
from .fig11 import Fig11Config, Fig11Row, run_fig11
from .fleet import FleetConfig, FleetResult, run_fleet_experiment
from .scenarios import (
    ScenarioCell,
    ScenarioMatrixConfig,
    ScenarioMatrixResult,
    run_scenarios,
)
from .table2 import (
    PAPER_TABLE_II,
    Table2Cell,
    Table2Config,
    run_table2,
    sequential_identification,
)

__all__ = [
    "ArenaConfig",
    "ArenaResult",
    "run_arena_experiment",
    "Fig2Config",
    "Fig2Result",
    "run_fig2",
    "Fig3Config",
    "Fig3Point",
    "run_fig3",
    "Fig6Config",
    "Fig6Result",
    "Fig6Row",
    "battery_specs",
    "run_fig6",
    "Fig7Config",
    "Fig7Result",
    "run_fig7",
    "Fig8Config",
    "Fig8Series",
    "class_test_for_pair",
    "run_fig8",
    "Fig9Config",
    "Fig9Panel",
    "run_fig9",
    "Fig10Config",
    "Fig10Row",
    "run_fig10",
    "sec9_headline",
    "Fig11Config",
    "Fig11Row",
    "run_fig11",
    "FleetConfig",
    "FleetResult",
    "run_fleet_experiment",
    "ScenarioCell",
    "ScenarioMatrixConfig",
    "ScenarioMatrixResult",
    "run_scenarios",
    "PAPER_TABLE_II",
    "Table2Cell",
    "Table2Config",
    "run_table2",
    "sequential_identification",
]
