"""Quantum-simulation substrate: gates, circuits, and two engines.

* :mod:`repro.sim.gates` — native ion-trap gate matrices (Fig. 4).
* :mod:`repro.sim.circuit` — circuit IR with structural queries.
* :mod:`repro.sim.statevector` — dense reference simulator (<= 22 qubits).
* :mod:`repro.sim.xx_engine` — fast engine for commuting-XX test
  circuits (exact up to a component-size limit, sampled above it),
  enabling the paper's 32-qubit scaling studies.
* :mod:`repro.sim.dense_plan` — compiled evaluation plans for the dense
  path (compaction, permutations, fused apply groups cached per circuit).
* :mod:`repro.sim.sampling` — measurement counts utilities.
"""

from .circuit import Circuit, Operation
from .dense_plan import DensePlan, DensePlanCache
from .sampling import (
    Counts,
    match_fraction,
    sample_bernoulli_counts,
    sample_bernoulli_counts_batch,
    sample_counts_from_probs,
)
from .statevector import (
    MAX_DENSE_QUBITS,
    StatevectorSimulator,
    simulate,
    zero_state,
)
from .xx_engine import ContractionPlan

__all__ = [
    "Circuit",
    "Operation",
    "Counts",
    "match_fraction",
    "sample_bernoulli_counts",
    "sample_bernoulli_counts_batch",
    "sample_counts_from_probs",
    "StatevectorSimulator",
    "simulate",
    "zero_state",
    "MAX_DENSE_QUBITS",
    "ContractionPlan",
    "DensePlan",
    "DensePlanCache",
]
