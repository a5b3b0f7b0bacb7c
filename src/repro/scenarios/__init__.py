"""Fault-scenario taxonomy: declarative machine-miscalibration scenarios.

The substrate every workload PR plugs into: :class:`ScenarioSpec`
describes *what is wrong with the machine* (which couplings, which fault
species, which noise environment) as pure data; the matrix runner
(``python -m repro scenarios``, backed by the ``scenarios`` experiment
and :func:`repro.analysis.runner.run_matrix`) sweeps the
detection and identification batteries across an N x scenario grid
through both simulation engines.
"""

from .report import (
    SCENARIO_MATRIX_SCHEMA_ID,
    matrix_payload,
    validate_matrix_payload,
)
from .spec import (
    SCENARIO_KINDS,
    TAXONOMY,
    ScenarioFault,
    ScenarioKindInfo,
    ScenarioSpec,
    build_scenario,
)

__all__ = [
    "SCENARIO_KINDS",
    "SCENARIO_MATRIX_SCHEMA_ID",
    "TAXONOMY",
    "ScenarioFault",
    "ScenarioKindInfo",
    "ScenarioSpec",
    "build_scenario",
    "matrix_payload",
    "validate_matrix_payload",
]
