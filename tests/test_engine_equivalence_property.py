"""Property-based three-way engine equivalence on random circuits.

For random XX-only circuits with random fault sets, the *same realized
noise draws* must produce identical probabilities (to 1e-9) through all
three evaluation paths:

* the exact XX spin-table engine (``XXCircuitEvaluator``),
* the per-trial dense statevector reference
  (``StatevectorSimulator`` over the materialized circuits),
* the compiled ``DensePlan`` fused path.

Sharing draws (one ``_realize_slots`` call feeds every path) turns a
statistical comparison into an exact one, so any divergence is a real
engine bug, not sampling noise.
"""

import numpy as np
import pytest
from xx_oracle import XXCircuitEvaluator, slots_to_circuits

from repro.noise.models import NoiseParameters
from repro.sim.dense_plan import DensePlan
from repro.sim.statevector import StatevectorSimulator, subregister_bitstring
from repro.sim.circuit import Circuit
from repro.trap.calibration import all_pairs
from repro.trap.machine import VirtualIonTrap, slot_blocks


def _random_xx_circuit(
    rng: np.random.Generator, n_qubits: int, n_gates: int
) -> Circuit:
    """A random XX-only circuit over random couplings."""
    circuit = Circuit(n_qubits)
    for _ in range(n_gates):
        q1, q2 = map(int, rng.choice(n_qubits, size=2, replace=False))
        theta = float(rng.normal(np.pi / 2, 0.25))
        if rng.random() < 0.5:
            circuit.ms(q1, q2, theta)
        else:
            circuit.xx(q1, q2, theta)
    return circuit


def _random_faulty_machine(
    rng: np.random.Generator, n_qubits: int
) -> VirtualIonTrap:
    """Amplitude-noise machine with 1-3 random under-rotation faults."""
    machine = VirtualIonTrap(
        n_qubits,
        noise=NoiseParameters(amplitude_sigma=0.10),
        seed=int(rng.integers(0, 2**31)),
    )
    pairs = all_pairs(n_qubits)
    for index in rng.choice(len(pairs), size=int(rng.integers(1, 4)), replace=False):
        machine.calibration.set_under_rotation(
            pairs[int(index)], float(rng.uniform(0.05, 0.5))
        )
    return machine


def _dense_reference(machine, slots, plan, expected) -> np.ndarray:
    """Per-realization dense evolution of the identical realized draws."""
    sub, forced_zero = subregister_bitstring(
        machine.n_qubits, plan.touched, expected
    )
    if forced_zero:
        return np.zeros(slots[0].params.shape[0])
    probs = []
    for circuit in slots_to_circuits(machine, slots):
        sim = StatevectorSimulator(plan.n_local)
        for op in circuit.ops:
            sim.apply_gate(
                op.matrix(), tuple(plan.index[q] for q in op.qubits)
            )
        probs.append(sim.probability_of(sub))
    return np.array(probs)


@pytest.mark.parametrize("case", range(6))
def test_random_circuits_agree_across_all_three_engines(case, rng):
    """XX engine == dense per-trial == DensePlan on shared draws, 1e-9."""
    n_qubits = int(rng.integers(4, 8))
    circuit = _random_xx_circuit(rng, n_qubits, int(rng.integers(4, 16)))
    machine = _random_faulty_machine(rng, n_qubits)
    realizations = 5
    slots = machine._realize_slots(circuit, realizations)
    skeleton = tuple((s.gate, s.qubits) for s in slots)
    plan = DensePlan(n_qubits, skeleton)
    realized = slots_to_circuits(machine, slots)
    for expected in (0, int(rng.integers(0, 2**n_qubits))):
        compiled = plan.probabilities(slot_blocks(slots), expected)
        dense = _dense_reference(machine, slots, plan, expected)
        xx = np.array(
            [XXCircuitEvaluator(c).probability_of(expected) for c in realized]
        )
        assert compiled.shape == dense.shape == xx.shape == (realizations,)
        assert np.max(np.abs(compiled - dense)) < 1e-9
        assert np.max(np.abs(compiled - xx)) < 1e-9


def test_fault_under_rotation_actually_enters_the_draws(rng):
    """The property test is not vacuous: faults change the realized angles."""
    n_qubits = 4
    circuit = Circuit(n_qubits).ms(0, 1, np.pi / 2)
    clean = VirtualIonTrap(
        n_qubits, noise=NoiseParameters.noiseless(), seed=3
    )
    faulty = VirtualIonTrap(
        n_qubits, noise=NoiseParameters.noiseless(), seed=3
    )
    faulty.calibration.set_under_rotation((0, 1), 0.4)
    clean_theta = clean._realize_slots(circuit, 1)[0].params[0, 0]
    faulty_theta = faulty._realize_slots(circuit, 1)[0].params[0, 0]
    assert faulty_theta == pytest.approx(clean_theta * 0.6)
