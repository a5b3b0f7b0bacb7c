"""Cross-engine agreement: XX engine vs dense statevector, single vs batched."""

import math

import numpy as np
import pytest
from xx_oracle import (
    XXCircuitEvaluator,
    match_probabilities_slots,
    realize_slots,
    slot_blocks,
    slot_skeleton,
    slots_to_circuits,
)

from repro.sim.circuit import Circuit
from repro.sim.statevector import StatevectorSimulator, simulate


def _xx_circuit(delta: float) -> Circuit:
    """A small XX-only circuit with two coupling components and RX terms."""
    circ = Circuit(5)
    circ.xx(0, 1, math.pi / 2 + delta)
    circ.ms(1, 2, math.pi / 2 - delta, math.pi, 0.0)
    circ.rx(3, 0.3 + delta)
    circ.xx(0, 2, 0.7)
    return circ


def test_xx_engine_matches_statevector():
    """Exact XX evaluation equals dense simulation on every basis state."""
    circ = _xx_circuit(0.05)
    state = simulate(circ)
    evaluator = XXCircuitEvaluator(circ)
    for bitstring in range(2**circ.n_qubits):
        dense_p = abs(state[bitstring]) ** 2
        assert evaluator.probability_of(bitstring) == pytest.approx(
            dense_p, abs=1e-9
        )


def test_batched_statevector_matches_single():
    """Batched dense evolution equals per-circuit dense evolution.

    The oracle's realized slots (``realize_slots`` under the full
    Sec. VI error model) evolve as one batch through the dense plan
    ``run`` uses; each realization must match its own circuit on the
    single-state simulator.
    """
    from repro.noise.models import NoiseParameters
    from repro.trap.machine import VirtualIonTrap

    circ = Circuit(3)
    circ.ms(0, 1, 1.3, 0.2, 0.1)
    circ.r(2, 0.5, 1.0)
    circ.h(0)
    circ.rz(1, 0.4)
    circ.ms(1, 2, 0.9, 0.0, math.pi)
    noise = NoiseParameters(
        amplitude_sigma=0.2, phase_noise_rms=0.05, residual_odd_population=0.01
    )
    machine = VirtualIonTrap(3, noise=noise, seed=4)
    slots = realize_slots(machine, circ, 5)
    plan = machine._dense_plan_for(slot_skeleton(slots))
    assert plan.touched == [0, 1, 2]
    states = plan.states(slot_blocks(slots))
    for g, realized in enumerate(slots_to_circuits(machine, slots)):
        single = StatevectorSimulator(3)
        single.run(realized)
        assert np.allclose(states[g], single.state, atol=1e-12)


def test_batched_machine_matches_reference_statistically():
    """Batched slot evaluation agrees in distribution with per-circuit
    dense evaluation of single realizations from ``realize_slots``."""
    from repro.noise.models import NoiseParameters
    from repro.trap.machine import VirtualIonTrap

    noise = NoiseParameters(
        amplitude_sigma=0.10,
        residual_odd_population=0.01,
        phase_noise_rms=0.05,
    )
    circ = Circuit(4)
    circ.ms(0, 1, math.pi / 2)
    circ.ms(0, 1, math.pi / 2)
    circ.ms(2, 3, math.pi / 2)
    circ.ms(2, 3, math.pi / 2)
    expected = 0b1111

    batched = VirtualIonTrap(4, noise=noise, seed=11)
    p_batched = np.concatenate(
        [
            match_probabilities_slots(
                batched, realize_slots(batched, circ, 8), expected
            )
            for _ in range(25)
        ]
    )
    reference = VirtualIonTrap(4, noise=noise, seed=11)
    p_reference = []
    for _ in range(200):
        (realized,) = slots_to_circuits(
            reference, realize_slots(reference, circ, 1)
        )
        sim = StatevectorSimulator(4)
        sim.run(realized)
        p_reference.append(sim.probability_of(expected))
    p_reference = np.array(p_reference)
    assert p_batched.mean() == pytest.approx(p_reference.mean(), abs=0.02)
    assert p_batched.std() == pytest.approx(p_reference.std(), abs=0.03)


def test_batched_machine_full_counts_agree():
    """``run`` totals and dominant outcome agree with sampling each shot
    group from a dense simulation of one ``realize_slots`` realization."""
    from repro.noise.models import NoiseParameters
    from repro.sim.sampling import merge_counts
    from repro.trap.machine import VirtualIonTrap

    circ = Circuit(4).ms(0, 1, math.pi / 2).ms(2, 3, math.pi / 2)
    shots = 4000
    noise = NoiseParameters.paper_scaling()
    assert noise.spam is None
    machine = VirtualIonTrap(4, noise=noise, seed=1)
    counts = machine.run(circ, shots)
    assert sum(counts.values()) == shots

    reference = VirtualIonTrap(4, noise=noise, seed=1)
    parts = []
    for group_shots in reference._shot_groups(shots):
        (realized,) = slots_to_circuits(
            reference, realize_slots(reference, circ, 1)
        )
        sim = StatevectorSimulator(4)
        sim.run(realized)
        parts.append(sim.sample_counts(group_shots, reference.rng))
    reference_counts = merge_counts(*parts)
    assert sum(reference_counts.values()) == shots
    p_run = counts.get(0b1111, 0) / shots
    p_reference = reference_counts.get(0b1111, 0) / shots
    assert p_run == pytest.approx(p_reference, abs=0.05)
