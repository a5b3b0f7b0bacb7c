"""The paper's contribution: combinatorial fault-testing protocols.

* :mod:`repro.core.combinatorics` — subcube classes and lemmas (Sec. V-A).
* :mod:`repro.core.syndrome` — syndrome decoding and explanation counting.
* :mod:`repro.core.tests_builder` — single-output test circuits (Sec. VI).
* :mod:`repro.core.protocol` — executors, thresholds, results.
* :mod:`repro.core.single_fault` — Theorem V.10's 3n-1 test protocol.
* :mod:`repro.core.multi_fault` — the Fig. 5 loop with magnitude search.
* :mod:`repro.core.binary_search`, :mod:`repro.core.point_check` —
  baselines.
* :mod:`repro.core.cost` — Sec. V-C cost accounting.
* :mod:`repro.core.oracle` — deterministic executor for combinatorial
  studies.
"""

from .binary_search import AdaptiveBinarySearch, BinarySearchOutcome
from .cost import CostTracker, predicted_adaptations, predicted_circuit_runs
from .multi_fault import MagnitudeSearchConfig, MultiFaultProtocol, MultiFaultReport
from .oracle import OracleExecutor
from .point_check import PointCheckStrategy
from .protocol import (
    FixedThresholds,
    TestExecutor,
    TestResult,
)
from .single_fault import SingleFaultDiagnosis, SingleFaultProtocol
from .syndrome import Syndrome, candidates_for_syndrome, count_explanations
from .tests_builder import TestSpec, build_test_circuit, expected_output

__all__ = [
    "AdaptiveBinarySearch",
    "BinarySearchOutcome",
    "CostTracker",
    "predicted_adaptations",
    "predicted_circuit_runs",
    "MagnitudeSearchConfig",
    "MultiFaultProtocol",
    "MultiFaultReport",
    "OracleExecutor",
    "PointCheckStrategy",
    "FixedThresholds",
    "TestExecutor",
    "TestResult",
    "SingleFaultDiagnosis",
    "SingleFaultProtocol",
    "Syndrome",
    "candidates_for_syndrome",
    "count_explanations",
    "TestSpec",
    "build_test_circuit",
    "expected_output",
]
