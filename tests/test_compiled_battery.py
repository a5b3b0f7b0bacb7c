"""Battery passes evaluate through the machine's routes, bit for bit.

A battery is a list of :class:`~repro.trap.machine.TestProgram`
objects; a ``run_battery`` pass evaluates each one's compiled XX
structure with ``run_match``'s own XX draw.  The
oracle is the per-call slot path (``_realize_slots`` followed by
``xx_oracle.match_probabilities_slots``) on a twin same-seed machine: trial
probabilities must be ``==``-equal to it, with the same clock and RNG
state afterwards.  A ``sweep_fidelities`` row is a twin's XX run with
that under-rotation set.
"""

import math

import numpy as np
import pytest
from xx_oracle import XXCircuitEvaluator, match_probabilities_slots, slots_to_circuits

from repro.analysis.experiments.fig8 import class_test_for_pair
from repro.core.multi_fault import battery_specs
from repro.core.protocol import built_test
from repro.core.tests_builder import build_test_circuit, expected_output
from repro.noise.models import NoiseParameters
from repro.sim.circuit import Circuit
from repro.sim.statevector import simulate
from repro.trap.faults import CouplingFault
from repro.trap.machine import VirtualIonTrap, _skeleton, as_program, slot_blocks


def _twins(n_qubits, seed=5, under=(), **kwargs):
    twins = []
    for _ in range(2):
        m = VirtualIonTrap(n_qubits, seed=seed, **kwargs)
        for pair, value in under:
            m.inject_fault(CouplingFault(frozenset(pair), value))
        twins.append(m)
    return twins


def _slot_oracle(machine, circuit, expected, n_batch):
    return match_probabilities_slots(
        machine, machine._realize_slots(circuit, n_batch), expected
    )


def _program(spec, n_qubits):
    return built_test(tuple(spec.pairs), spec.repetitions, n_qubits)


def _assert_same_machine_state(a, b):
    assert a._clock == b._clock
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


@pytest.mark.parametrize("repetitions", [2, 4])
def test_compiled_matches_reference_on_fig8_grid(repetitions):
    """Fig8 smoke-grid class tests: battery trials == the slot oracle."""
    n_qubits = 8
    spec = class_test_for_pair(n_qubits, (0, 1), repetitions)
    ct = _program(spec, n_qubits)
    compiled, oracle = _twins(
        n_qubits, under=(((0, 1), 0.2), ((2, 3), -0.05)), noise_realizations=4
    )
    for trials in (1, 3):
        probs = compiled._pass_probabilities(
            [ct], 100, trials, None, engine="xx"
        )[1][0]
        ref = _slot_oracle(oracle, ct.circuit, ct.expected, trials * 4)
        assert probs.shape == (trials, 4)
        assert (probs.ravel() == ref).all()
        _assert_same_machine_state(compiled, oracle)


def test_magnitude_broadcast_matches_per_point_loop(monkeypatch):
    """Each sweep row is a twin machine's XX run with that under-rotation.

    The sweep feeds the shared contraction plan one stacked ``(M * B, E)``
    angle block.  Its rows must be ``==`` to the angles a twin machine,
    with that magnitude set as the under-rotation, feeds the same plan,
    and the probabilities must agree to rounding: BLAS picks its kernel
    by row count, so a stacked row and a ``B``-row call may differ in
    the last bit.
    """
    n_qubits = 8
    spec = class_test_for_pair(n_qubits, (0, 1), 4)
    program = _program(spec, n_qubits)
    magnitudes = np.array([0.0, 0.05, 0.2, 0.35, 0.5])
    under = (((0, 4), 0.07), ((0, 1), 0.1))
    fed, sampled = [], []
    machine, _ = _twins(n_qubits, under=under, noise_realizations=3)
    plan = program.xx(machine.max_exact_qubits).plan
    evaluate, sample = plan.probabilities, machine._sample_fidelities

    def capture_fed(thetas, *args):
        fed.append(thetas)
        return evaluate(thetas, *args)

    def capture_sampled(ct, probs, shots, groups):
        sampled.append(probs)
        return sample(ct, probs, shots, groups)

    monkeypatch.setattr(plan, "probabilities", capture_fed)
    monkeypatch.setattr(machine, "_sample_fidelities", capture_sampled)
    fids = machine.sweep_fidelities(
        program, (0, 1), magnitudes, shots=100, trials=2
    )
    assert fids.shape == (len(magnitudes), 2)
    (stacked,), (sweep,) = fed, sampled
    assert stacked.shape == (len(magnitudes) * 6, len(plan.edge_keys))
    for k, magnitude in enumerate(magnitudes):
        fed.clear()
        twin, _ = _twins(n_qubits, under=under, noise_realizations=3)
        twin.set_under_rotation((0, 1), magnitude)
        probs = twin._pass_probabilities([program], 100, 2, None, "xx")[1][0]
        assert (stacked[6 * k : 6 * (k + 1)] == fed[0]).all()
        assert np.max(np.abs(sweep[k] - probs)) < 1e-15
        # The sweep drew (and timed) one batch, shared by every row.
        assert twin._clock == machine._clock


def test_broadcast_row_chunking_is_exact():
    """max_batch_bytes chunking changes memory, not results."""
    n_qubits = 8
    spec = class_test_for_pair(n_qubits, (0, 1), 2)
    program = _program(spec, n_qubits)
    full, chunked = (
        VirtualIonTrap(n_qubits, seed=3, max_batch_bytes=budget)
        for budget in (None, 1)
    )
    p_full = full._pass_probabilities([program], 100, 4, None)[1]
    p_chunked = chunked._pass_probabilities([program], 100, 4, None)[1]
    # Chunk boundaries change the BLAS kernel, not the math.
    assert np.max(np.abs(p_full - p_chunked)) < 1e-12


def test_trial_and_sweep_fidelities_shapes_and_accounting():
    """Machine-facing evaluation: shapes, [0,1] range, stats accounting."""
    n_qubits = 8
    spec = class_test_for_pair(n_qubits, (0, 1), 2)
    program = _program(spec, n_qubits)
    machine = VirtualIonTrap(n_qubits, seed=5, noise_realizations=4)
    fids = machine.run_battery([program], shots=200, trials=9)
    assert fids.shape == (1, 9)
    assert np.all((fids >= 0.0) & (fids <= 1.0))
    assert machine.stats.circuit_runs == 9
    assert machine.stats.shots == 9 * 200
    magnitudes = np.array([0.0, 0.25, 0.5])
    sweep = machine.sweep_fidelities(
        program, (0, 1), magnitudes, shots=200, trials=5
    )
    assert sweep.shape == (3, 5)
    assert machine.stats.circuit_runs == 9 + 3 * 5
    # Larger faults must not raise the mean fidelity.
    assert sweep[2].mean() < sweep[0].mean()


def test_battery_dispatches_and_rejects_appropriately(fresh_plan_cache):
    n_qubits = 8
    spec = class_test_for_pair(n_qubits, (0, 1), 2)
    program = _program(spec, n_qubits)
    # Non-XX-preserving noise no longer rejects: trials dispatch to the
    # dense plan transparently...
    noisy = VirtualIonTrap(
        n_qubits,
        noise=NoiseParameters(amplitude_sigma=0.1, phase_noise_rms=0.05),
        seed=0,
    )
    fids = noisy.run_battery([program], shots=100, trials=3)
    assert fids.shape == (1, 3)
    assert np.all((fids >= 0.0) & (fids <= 1.0))
    assert noisy.stats.dense_plan_builds == 1
    # ...but magnitude sweeps stay XX-only.
    with pytest.raises(ValueError, match="XX"):
        noisy.sweep_fidelities(
            program, (0, 1), np.array([0.0, 0.2]), shots=100, trials=1
        )
    wrong_size = VirtualIonTrap(6, seed=0)
    with pytest.raises(ValueError, match="qubits"):
        wrong_size.run_battery([program], shots=100)
    with pytest.raises(ValueError, match="qubits"):
        wrong_size.sweep_fidelities(
            program, (0, 1), np.array([0.1]), shots=100, trials=1
        )
    machine = VirtualIonTrap(n_qubits, seed=0)
    state = machine.rng.bit_generator.state
    with pytest.raises(ValueError, match="not exercised"):
        machine.sweep_fidelities(
            program, (0, 7), np.array([0.1]), shots=100, trials=1
        )
    assert machine.rng.bit_generator.state == state
    # A dense-only circuit compiles without an XX structure and still
    # evaluates through the dense dispatch; engine="xx" refuses it.
    dense = as_program(Circuit(4).h(0), 0)
    assert dense.xx(VirtualIonTrap(4).max_exact_qubits) is None
    with pytest.raises(ValueError, match="dense fallback"):
        VirtualIonTrap(4, seed=0).run_battery([dense], 100, engine="xx")
    fids = VirtualIonTrap(4, seed=0).run_battery([dense], 100, trials=2)
    assert fids.shape == (1, 2)
    # An XX-only test with a component above the exact limit compiles
    # to a sampled plan: engine="xx" refuses it before drawing, and
    # twin machines draw its fidelities alike.
    assert program.xx(2).plan.sampled
    a, b = _twins(n_qubits, under=(((0, 1), 0.2),), max_exact_qubits=2)
    with pytest.raises(ValueError, match="max_exact_qubits=2"):
        a.run_battery([program], 100, engine="xx")
    _assert_same_machine_state(a, b)
    assert a.stats == b.stats
    for trials in (1, 3):
        fids = a.run_battery([program], 100, trials)
        assert (fids == b.run_battery([program], 100, trials)).all()
        _assert_same_machine_state(a, b)
        assert a.stats == b.stats


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
    program = as_program(circuit, expected)
    compiled = machine._pass_probabilities([program], 1, 1, 1)[1][0, 0, 0]
    (realized,) = slots_to_circuits(machine, machine._realize_slots(circuit, 1))
    reference = XXCircuitEvaluator(realized).probability_of(expected)
    assert abs(compiled - reference) < 1e-12


@pytest.mark.parametrize("phases", [(0.0, math.pi), (math.pi, 0.0)])
def test_ms_drive_phases_both_reach_every_route(phases):
    """``M(theta, phi1, phi2)`` with phi1 != phi2, on every route.

    A phase pair one pi apart flips the XX axis sign, so the middle gate
    undoes the first: the statevector puts 3/4 of the mass on 000 and
    the rest on 011.  ``run``, ``run_match`` and both battery engines
    must see the same.
    """
    circuit = (
        Circuit(3)
        .ms(0, 1, math.pi / 4)
        .ms(0, 1, math.pi / 4, *phases)
        .ms(1, 2, math.pi / 3)
    )
    exact = np.abs(simulate(circuit)) ** 2
    assert exact[0] == pytest.approx(0.75)
    machine = VirtualIonTrap(3, noise=NoiseParameters.noiseless(), seed=0)
    slots = machine._realize_slots(circuit, 1)
    states = machine._dense_plan_for(_skeleton(slots)).states(slot_blocks(slots))
    assert np.abs(states[0]) ** 2 == pytest.approx(exact, abs=1e-12)
    support = {k for k, p in enumerate(exact) if p > 1e-12}
    assert set(machine.run(circuit, 2000)) <= support
    counts = machine.run_match(circuit, 0, 20000)
    assert counts[0] / 20000 == pytest.approx(0.75, abs=0.02)
    program = as_program(circuit, 0)
    assert machine._xx_slot_angles(program.xx(machine.max_exact_qubits)) is not None
    for engine in ("xx", "dense"):
        probs = machine._pass_probabilities([program], 1, 1, 1, engine)[1][0]
        assert probs[0, 0] == pytest.approx(exact[0], abs=1e-12)


def test_n32_battery_plans_stay_under_the_plan_bound(resident_bytes):
    """Building an N = 32 battery keeps no plan above 64 KiB."""
    sizes = []
    for spec in battery_specs(32, 2):
        plan = _program(spec, 32).xx(VirtualIonTrap(32).max_exact_qubits).plan
        sizes += [len(comp) for comp in plan.component_qubits]
        assert resident_bytes(plan) <= 64 * 1024
    assert max(sizes) == 16, "the battery exercises 16-qubit components"
