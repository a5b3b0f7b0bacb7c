"""Application circuits and coupling-usage analysis (Fig. 11, Sec. VIII)."""

from .coupling_usage import (
    SuiteUsage,
    coupling_usage,
    suite_usage,
    usage_fraction,
)
from .library import (
    CIRCUIT_SUITE,
    bernstein_vazirani_circuit,
    build_suite,
    ghz_circuit,
    heisenberg_trotter_circuit,
    hidden_shift_circuit,
    qaoa_maxcut_circuit,
    qft_circuit,
    quantum_volume_circuit,
    ripple_carry_adder_circuit,
    vqe_ansatz_circuit,
)

__all__ = [
    "SuiteUsage",
    "coupling_usage",
    "suite_usage",
    "usage_fraction",
    "CIRCUIT_SUITE",
    "bernstein_vazirani_circuit",
    "build_suite",
    "ghz_circuit",
    "heisenberg_trotter_circuit",
    "hidden_shift_circuit",
    "qaoa_maxcut_circuit",
    "qft_circuit",
    "quantum_volume_circuit",
    "ripple_carry_adder_circuit",
    "vqe_ansatz_circuit",
]
