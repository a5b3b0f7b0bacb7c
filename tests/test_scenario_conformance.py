"""Cross-engine conformance matrix over the fault-scenario taxonomy.

For every XX-preserving scenario kind, the *same realized noise draws*
of a battery test must produce identical match probabilities (to 1e-9)
through all three evaluation paths — the exact XX spin-table engine,
the per-trial dense statevector reference, and the compiled
:class:`~repro.sim.dense_plan.DensePlan` — and through the compiled
battery's forced ``engine="xx"`` vs ``engine="dense"`` dispatch.
Non-XX scenarios (phase-miscalibrated couplings) must *refuse* the XX
engine and transparently fall back to the dense path.

Sharing draws (one ``_realize_slots`` call feeds every path, or two
same-seed machines that consume the RNG identically) turns a statistical
comparison into an exact one: any divergence is an engine bug, not
sampling noise.
"""

import numpy as np
import pytest
from xx_oracle import match_probabilities_slots, slots_to_circuits, slots_xx_only

from repro.core.multi_fault import battery_specs
from repro.core.protocol import built_test
from repro.core.tests_builder import build_test_circuit, expected_output
from repro.scenarios.spec import SCENARIO_KINDS, build_scenario
from repro.sim.dense_plan import DensePlan
from repro.sim.statevector import StatevectorSimulator, subregister_bitstring
from repro.trap.machine import VirtualIonTrap, slot_blocks

#: Taxonomy kinds whose default instance stays on the exact XX engine.
XX_KINDS = [k for k in SCENARIO_KINDS if build_scenario(k).is_xx_preserving()]
NON_XX_KINDS = [k for k in SCENARIO_KINDS if k not in XX_KINDS]

REALIZATIONS = 4


def _scenario_machine(kind: str, n_qubits: int, seed: int, trial: int = 1):
    """A machine carrying the scenario's environment and faults."""
    spec = build_scenario(kind, n_qubits)
    machine = VirtualIonTrap(
        n_qubits,
        noise=spec.noise_parameters(),
        seed=seed,
        noise_realizations=REALIZATIONS,
    )
    spec.apply(machine, trial=trial)
    return spec, machine


def _fault_test(spec, machine, repetitions):
    """A battery test exercising the scenario's worst coupling."""
    target = spec.ground_truth(trial=1)[0]
    for test in battery_specs(machine.n_qubits, repetitions):
        if target in test.pairs:
            return test
    raise AssertionError("battery must cover the faulty coupling")


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


@pytest.mark.parametrize("repetitions", [2, 4])
@pytest.mark.parametrize("n_qubits", [4, 6])
@pytest.mark.parametrize("kind", XX_KINDS)
def test_xx_scenarios_agree_across_all_three_engines(
    kind, n_qubits, repetitions
):
    """XX engine == dense per-trial == DensePlan at 1e-9 on shared draws."""
    spec, machine = _scenario_machine(kind, n_qubits, seed=17)
    test = _fault_test(spec, machine, repetitions)
    circuit = build_test_circuit(test, n_qubits)
    expected = expected_output(test, n_qubits)
    slots = machine._realize_slots(circuit, REALIZATIONS)
    assert slots_xx_only(slots), "scenario must stay XX-preserving"
    xx = match_probabilities_slots(machine, slots, expected)
    skeleton = tuple((s.gate, s.qubits) for s in slots)
    plan = DensePlan(n_qubits, skeleton)
    compiled = plan.probabilities(slot_blocks(slots), expected)
    dense = _dense_reference(machine, slots, plan, expected)
    assert xx.shape == compiled.shape == dense.shape == (REALIZATIONS,)
    assert np.max(np.abs(xx - compiled)) < 1e-9
    assert np.max(np.abs(xx - dense)) < 1e-9


@pytest.mark.parametrize("kind", XX_KINDS)
def test_compiled_battery_engine_forcing_agrees(kind):
    """engine='xx' and engine='dense' see identical probabilities at 1e-9.

    Both paths consume the machine RNG identically under amplitude-only
    noise (one ``(n_ms, B)`` Gaussian block), so two same-seed machines
    feed both engines the same draws.
    """
    n_qubits = 6
    spec_xx, machine_xx = _scenario_machine(kind, n_qubits, seed=23)
    _, machine_dense = _scenario_machine(kind, n_qubits, seed=23)
    for test in battery_specs(n_qubits, 2):
        program = built_test(tuple(test.pairs), test.repetitions, n_qubits)
        probs_xx = machine_xx._pass_probabilities(
            [program], 100, trials=2, realizations=2, engine="xx"
        )[1]
        probs_dense = machine_dense._pass_probabilities(
            [program], 100, trials=2, realizations=2, engine="dense"
        )[1]
        assert np.max(np.abs(probs_xx - probs_dense)) < 1e-9


@pytest.mark.parametrize("n_qubits", [4, 6])
@pytest.mark.parametrize("kind", NON_XX_KINDS)
def test_non_xx_scenarios_fall_back_to_dense(kind, n_qubits):
    """Phase-miscalibrated scenarios refuse engine='xx' and run densely."""
    spec, machine = _scenario_machine(kind, n_qubits, seed=31)
    assert not spec.is_xx_preserving()
    assert machine.calibration.has_phase_offsets()
    test = _fault_test(spec, machine, 2)
    assert test in battery_specs(n_qubits, 2)
    program = built_test(tuple(test.pairs), test.repetitions, n_qubits)
    assert machine._xx_slot_angles(program.xx(machine.max_exact_qubits)) is None
    with pytest.raises(ValueError, match="dense fallback"):
        machine._pass_probabilities(
            [program], 100, trials=1, realizations=2, engine="xx"
        )
    stats = machine.stats
    before = (
        stats.dense_plan_builds
        + stats.dense_plan_rebinds
        + stats.dense_plan_hits
    )
    machine.run_battery([program], 100, realizations=2)
    after = (
        stats.dense_plan_builds
        + stats.dense_plan_rebinds
        + stats.dense_plan_hits
    )
    assert after == before + 1, "auto dispatch must take the dense plan"


@pytest.mark.parametrize("kind", NON_XX_KINDS)
def test_non_xx_scenario_dense_plan_matches_per_trial_reference(kind):
    """The dense-plan fallback equals the per-trial reference at 1e-9."""
    n_qubits = 5
    spec, machine = _scenario_machine(kind, n_qubits, seed=37)
    test = _fault_test(spec, machine, 2)
    circuit = build_test_circuit(test, n_qubits)
    expected = expected_output(test, n_qubits)
    slots = machine._realize_slots(circuit, REALIZATIONS)
    assert not slots_xx_only(slots)
    skeleton = tuple((s.gate, s.qubits) for s in slots)
    plan = DensePlan(n_qubits, skeleton)
    compiled = plan.probabilities(slot_blocks(slots), expected)
    dense = _dense_reference(machine, slots, plan, expected)
    assert np.max(np.abs(compiled - dense)) < 1e-9


def test_phase_offset_changes_the_realization():
    """The fallback matrix is not vacuous: phase faults alter the slots."""
    from repro.sim.circuit import Circuit

    n_qubits = 4
    plain = VirtualIonTrap(n_qubits, seed=3)
    offset = VirtualIonTrap(n_qubits, seed=3)
    offset.calibration.set_phase_offset((0, 1), 0.4)
    circuit = Circuit(n_qubits).ms(0, 1, np.pi / 2).ms(2, 3, np.pi / 2)
    slots_plain = plain._realize_slots(circuit, 2)
    slots_offset = offset._realize_slots(circuit, 2)
    faulty = [
        (a, b)
        for a, b in zip(slots_plain, slots_offset)
        if a.gate == "MS" and frozenset(a.qubits) == frozenset({0, 1})
    ]
    assert faulty and all(
        np.allclose(b.params[:, 1:], a.params[:, 1:] + 0.4) for a, b in faulty
    )
    clean = [
        (a, b)
        for a, b in zip(slots_plain, slots_offset)
        if a.gate == "MS" and frozenset(a.qubits) == frozenset({2, 3})
    ]
    assert clean and all(
        np.allclose(b.params[:, 1:], a.params[:, 1:]) for a, b in clean
    )


def test_pure_phase_fault_is_invisible_to_the_battery():
    """Physics lock: a lone phase offset commutes out of noiseless tests.

    ``r`` repetitions of ``exp(-i theta/2 A)`` reach the identity (up to
    phase) for any axis ``A``, so a pure phase miscalibration cannot be
    detected by single-output tests — the reason the taxonomy's
    phase-miscalibration scenario carries an amplitude component.
    """
    from repro.noise.models import NoiseParameters

    n_qubits = 4
    machine = VirtualIonTrap(
        n_qubits, noise=NoiseParameters.noiseless(), seed=5
    )
    machine.calibration.set_phase_offset((0, 1), 0.7)
    for test in battery_specs(n_qubits, 4):
        circuit = build_test_circuit(test, n_qubits)
        expected = expected_output(test, n_qubits)
        counts = machine.run_match(circuit, expected, shots=50)
        assert counts.get(expected, 0) == 50
