"""Compiled batteries and magnitude broadcasts must match the reference path.

The acceptance bar: probabilities computed through the cached
:class:`~repro.sim.xx_engine.ContractionPlan` (and its stacked magnitude
broadcast) agree with per-realization :class:`XXCircuitEvaluator` runs of
the identically-realized circuits to 1e-9 — on the fig8 smoke grid specs
and across a magnitude loop.
"""

import numpy as np
import pytest

from repro.analysis.experiments.fig8 import class_test_for_pair
from repro.core.protocol import compile_test_battery
from repro.core.tests_builder import build_test_circuit, expected_output
from repro.noise.models import NoiseParameters
from repro.sim.circuit import Circuit, Operation
from repro.sim.xx_engine import XXCircuitEvaluator
from repro.trap.machine import VirtualIonTrap


def _reference_probabilities(battery, index, xi, under):
    """Per-realization XXCircuitEvaluator probabilities for explicit draws."""
    ct = battery.tests[index]
    n = ct.circuit.n_qubits
    probs = []
    for g in range(xi.shape[1]):
        realized = Circuit(n)
        for k, op in enumerate(ct.circuit.ops):
            col = int(ct.slot_edge[k])
            theta = op.params[0] * (1.0 - under[col]) * (1.0 + xi[k, g])
            realized.append(
                Operation(op.gate, op.qubits, (theta,) + tuple(op.params[1:]))
            )
        probs.append(XXCircuitEvaluator(realized).probability_of(ct.expected))
    return np.array(probs)


@pytest.mark.parametrize("repetitions", [2, 4])
def test_compiled_matches_reference_on_fig8_grid(repetitions, rng):
    """Fig8 smoke-grid class tests: compiled == per-point reference to 1e-9."""
    n_qubits = 8
    spec = class_test_for_pair(n_qubits, (0, 1), repetitions)
    battery = compile_test_battery(n_qubits, [spec])
    ct = battery.tests[0]
    xi = rng.normal(0.0, 0.1, (ct.slot_theta.size, 12))
    under = rng.uniform(0.0, 0.3, len(ct.pairs))
    compiled = battery.probabilities_from_noise(0, xi, under)
    reference = _reference_probabilities(battery, 0, xi, under)
    assert np.max(np.abs(compiled - reference)) < 1e-9


def test_magnitude_broadcast_matches_per_point_loop(rng):
    """A magnitude loop evaluated as one stacked broadcast == M point runs."""
    n_qubits = 8
    spec = class_test_for_pair(n_qubits, (0, 1), 4)
    battery = compile_test_battery(n_qubits, [spec])
    ct = battery.tests[0]
    col = battery.edge_column(0, (0, 1))
    xi = rng.normal(0.0, 0.1, (ct.slot_theta.size, 6))
    under = rng.uniform(0.0, 0.1, len(ct.pairs))
    magnitudes = np.array([0.0, 0.05, 0.2, 0.35, 0.5])
    broadcast = battery.probabilities_from_noise(
        0, xi, under, sweep_col=col, magnitudes=magnitudes
    )
    assert broadcast.shape == (len(magnitudes), xi.shape[1])
    for mi, magnitude in enumerate(magnitudes):
        point_under = under.copy()
        point_under[col] = magnitude
        reference = _reference_probabilities(battery, 0, xi, point_under)
        assert np.max(np.abs(broadcast[mi] - reference)) < 1e-9


def test_broadcast_row_chunking_is_exact(rng):
    """max_batch_bytes chunking changes memory, not results."""
    n_qubits = 8
    spec = class_test_for_pair(n_qubits, (0, 1), 2)
    battery = compile_test_battery(n_qubits, [spec])
    ct = battery.tests[0]
    xi = rng.normal(0.0, 0.1, (ct.slot_theta.size, 16))
    under = np.zeros(len(ct.pairs))
    full = battery.probabilities_from_noise(0, xi, under)
    chunked = battery.probabilities_from_noise(
        0, xi, under, max_batch_bytes=1
    )
    # Chunk boundaries change the BLAS kernel, not the math.
    assert np.max(np.abs(full - chunked)) < 1e-12


def test_trial_and_sweep_fidelities_shapes_and_accounting():
    """Machine-facing evaluation: shapes, [0,1] range, stats accounting."""
    n_qubits = 8
    spec = class_test_for_pair(n_qubits, (0, 1), 2)
    battery = compile_test_battery(n_qubits, [spec])
    machine = VirtualIonTrap(n_qubits, seed=5, noise_realizations=4)
    fids = battery.trial_fidelities(machine, 0, shots=200, trials=9)
    assert fids.shape == (9,)
    assert np.all((fids >= 0.0) & (fids <= 1.0))
    assert machine.stats.circuit_runs == 9
    assert machine.stats.shots == 9 * 200
    magnitudes = np.array([0.0, 0.25, 0.5])
    sweep = battery.sweep_fidelities(
        machine, 0, (0, 1), magnitudes, shots=200, trials=5
    )
    assert sweep.shape == (3, 5)
    assert machine.stats.circuit_runs == 9 + 3 * 5
    # Larger faults must not raise the mean fidelity.
    assert sweep[2].mean() < sweep[0].mean()


def test_battery_dispatches_and_rejects_appropriately():
    n_qubits = 8
    spec = class_test_for_pair(n_qubits, (0, 1), 2)
    battery = compile_test_battery(n_qubits, [spec])
    # Non-XX-preserving noise no longer rejects: trials dispatch to the
    # dense plan transparently...
    noisy = VirtualIonTrap(
        n_qubits,
        noise=NoiseParameters(amplitude_sigma=0.1, phase_noise_rms=0.05),
        seed=0,
    )
    fids = battery.trial_fidelities(noisy, 0, shots=100, trials=3)
    assert fids.shape == (3,)
    assert np.all((fids >= 0.0) & (fids <= 1.0))
    assert noisy.stats.dense_plan_builds == 1
    # ...but magnitude sweeps stay XX-only.
    with pytest.raises(ValueError, match="XX"):
        battery.sweep_fidelities(
            noisy, 0, (0, 1), np.array([0.0, 0.2]), shots=100, trials=1
        )
    wrong_size = VirtualIonTrap(6, seed=0)
    with pytest.raises(ValueError, match="qubits"):
        battery.trial_fidelities(wrong_size, 0, shots=100, trials=1)
    with pytest.raises(ValueError, match="not exercised"):
        battery.edge_column(0, (0, 7))
    # A dense-only circuit compiles without a contraction plan and still
    # evaluates through the dense dispatch.
    dense = Circuit(4).h(0)
    dense_battery = VirtualIonTrap(4, seed=0).compile_battery([(dense, 0)])
    assert dense_battery.tests[0].plan is None
    with pytest.raises(ValueError, match="without an XX contraction plan"):
        dense_battery.probabilities_from_noise(
            0, np.zeros((0, 1)), np.zeros(0)
        )
    fids = dense_battery.trial_fidelities(
        VirtualIonTrap(4, seed=0), 0, shots=100, trials=2
    )
    assert fids.shape == (2,)


def test_deterministic_machine_matches_realized_evaluator():
    """With amplitude noise off, compiled probabilities are exact."""
    n_qubits = 8
    spec = class_test_for_pair(n_qubits, (0, 1), 4)
    circuit = build_test_circuit(spec, n_qubits)
    expected = expected_output(spec, n_qubits)
    machine = VirtualIonTrap(
        n_qubits, noise=NoiseParameters.noiseless(), seed=0
    )
    machine.set_under_rotation((0, 1), 0.3)
    battery = machine.compile_battery([(circuit, expected)])
    ct = battery.tests[0]
    xi = np.zeros((ct.slot_theta.size, 1))
    under = battery._current_under(machine, ct)
    compiled = battery.probabilities_from_noise(0, xi, under)[0]
    (realized,) = machine._slots_to_circuits(
        machine._realize_slots(circuit, 1)
    )
    reference = XXCircuitEvaluator(realized).probability_of(expected)
    assert abs(compiled - reference) < 1e-12
