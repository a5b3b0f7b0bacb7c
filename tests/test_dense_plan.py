"""Compiled dense plans must match the per-realization dense reference.

The acceptance bar mirrors the compiled-battery suite of the XX engine:
states and match probabilities computed through a fused
:class:`~repro.sim.dense_plan.DensePlan` agree with per-realization
:class:`StatevectorSimulator` evolution of the identically-realized
circuits to 1e-9 — on the fig6 smoke-grid batteries and a fig7 drift
scenario — and a warm trial loop recompiles no plan.
"""

import numpy as np
import pytest
from xx_oracle import slots_to_circuits

from repro.analysis.experiments.fig6 import battery_specs
from repro.core.protocol import TestExecutor as Executor
from repro.core.protocol import built_test, execute_compiled_battery
from repro.core.tests_builder import build_test_circuit, expected_output
from repro.noise.models import NoiseParameters
from repro.sim.circuit import Circuit
from repro.sim.dense_plan import DensePlan, DensePlanCache, canonical_skeleton
from repro.sim.statevector import StatevectorSimulator, subregister_bitstring
from repro.trap.machine import VirtualIonTrap, slot_blocks


def _fig6_noise() -> NoiseParameters:
    """The Sec. VI error model at fig6 strengths (forces the dense path)."""
    return NoiseParameters(
        amplitude_sigma=0.10,
        residual_odd_population=0.012,
        phase_noise_rms=0.08,
    )


def _fig7_noise() -> NoiseParameters:
    return NoiseParameters(
        amplitude_sigma=0.10,
        residual_odd_population=0.01,
        phase_noise_rms=0.05,
    )


def _reference_probabilities(machine, slots, plan, expected):
    """Per-realization dense evolution of the same realized draws."""
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
def test_dense_plan_matches_reference_on_fig6_battery(repetitions):
    """Fig6 batteries under the full error model: fused == reference, 1e-9."""
    n_qubits = 8
    machine = VirtualIonTrap(n_qubits, noise=_fig6_noise(), seed=11)
    machine.set_under_rotation((0, 4), 0.47)
    machine.set_under_rotation((0, 7), 0.22)
    for spec in battery_specs(n_qubits, repetitions):
        circuit = build_test_circuit(spec, n_qubits)
        expected = expected_output(spec, n_qubits)
        slots = machine._realize_slots(circuit, 6)
        skeleton = tuple((s.gate, s.qubits) for s in slots)
        plan = DensePlan(n_qubits, skeleton)
        compiled = plan.probabilities(slot_blocks(slots), expected)
        reference = _reference_probabilities(machine, slots, plan, expected)
        assert np.max(np.abs(compiled - reference)) < 1e-9, spec.name


def test_dense_plan_matches_reference_on_fig7_drift_scenario(rng):
    """A drifted fig7 machine: fused plan == reference on a deep battery."""
    n_qubits = 8
    machine = VirtualIonTrap(n_qubits, noise=_fig7_noise(), seed=7)
    from repro.trap.calibration import all_pairs

    snapshot = {
        p: float(rng.uniform(0.0, 0.06)) for p in all_pairs(n_qubits)
    }
    snapshot[frozenset({3, 4})] = 0.20
    snapshot[frozenset({2, 5})] = 0.17
    machine.calibration.load_snapshot(snapshot)
    for spec in battery_specs(n_qubits, 8)[:4]:
        circuit = build_test_circuit(spec, n_qubits)
        expected = expected_output(spec, n_qubits)
        slots = machine._realize_slots(circuit, 5)
        skeleton = tuple((s.gate, s.qubits) for s in slots)
        plan = DensePlan(n_qubits, skeleton)
        compiled = plan.probabilities(slot_blocks(slots), expected)
        reference = _reference_probabilities(machine, slots, plan, expected)
        assert np.max(np.abs(compiled - reference)) < 1e-9, spec.name


def test_fused_plan_states_match_statevector_oracle():
    """Fusion cuts the apply count below one per slot, not the states."""
    n_qubits = 8
    machine = VirtualIonTrap(n_qubits, noise=_fig6_noise(), seed=2)
    spec = battery_specs(n_qubits, 4)[0]
    circuit = build_test_circuit(spec, n_qubits)
    slots = machine._realize_slots(circuit, 4)
    skeleton = tuple((s.gate, s.qubits) for s in slots)
    plan = DensePlan(n_qubits, skeleton)
    assert plan.apply_count() < len(skeleton)
    states = plan.states(slot_blocks(slots))
    for state, realized in zip(states, slots_to_circuits(machine, slots)):
        sim = StatevectorSimulator(plan.n_local)
        for op in realized.ops:
            sim.apply_gate(op.matrix(), tuple(plan.index[q] for q in op.qubits))
        assert np.max(np.abs(state - sim.state)) < 1e-9


def test_plan_chunking_is_exact():
    """max_batch_bytes chunking changes memory, not probabilities."""
    n_qubits = 6
    machine = VirtualIonTrap(n_qubits, noise=_fig7_noise(), seed=5)
    circuit = Circuit(n_qubits).ms(0, 1, np.pi / 2).ms(2, 3, np.pi / 2)
    slots = machine._realize_slots(circuit, 12)
    skeleton = tuple((s.gate, s.qubits) for s in slots)
    plan = DensePlan(n_qubits, skeleton)
    blocks = slot_blocks(slots)
    full = plan.probabilities(blocks, 0)
    chunked = plan.probabilities(
        blocks, 0, max_batch_bytes=2 * 2**plan.n_local * 16
    )
    assert np.array_equal(full, chunked)


def _programs(specs, n_qubits):
    return [built_test(tuple(s.pairs), s.repetitions, n_qubits) for s in specs]


def test_second_trial_performs_no_rebuilds(fresh_plan_cache):
    """Warm compiled trials: no plan compilations, same compiled programs."""
    n_qubits = 8
    machine = VirtualIonTrap(n_qubits, noise=_fig7_noise(), seed=9)
    specs = battery_specs(n_qubits, 4)
    programs = _programs(specs, n_qubits)
    for program in programs:
        machine.run_battery([program], shots=100, trials=2)
    builds = machine.stats.dense_plan_builds
    rebinds = machine.stats.dense_plan_rebinds
    # Every spec got a plan, but structurally identical skeletons
    # (the same test shape shifted along the chain) share one compile.
    assert builds + rebinds == len(specs)
    assert 1 <= builds < len(specs)
    assert machine.stats.dense_plan_hits == 0

    def compiled():
        return {
            key: (
                plan,
                plan._order,
                plan._stack_gather,
                plan._ms_gather,
                plan._final_order,
            )
            for key, plan in fresh_plan_cache._plans.items()
        }

    first = compiled()
    assert len(first) == len(specs)
    for program in programs:
        machine.run_battery([program], shots=100, trials=3)
    # Second pass over the battery: every skeleton is served from the
    # process plan cache, and each plan evaluates through the same
    # axis-order program and block gathers it compiled on the first.
    assert machine.stats.dense_plan_builds == builds
    assert machine.stats.dense_plan_rebinds == rebinds
    assert machine.stats.dense_plan_hits == len(specs)
    second = compiled()
    assert second.keys() == first.keys()
    for key, parts in first.items():
        assert all(a is b for a, b in zip(parts, second[key])), key


def test_machine_run_match_reuses_plans_across_calls():
    """The machine-level cache serves repeated dense run_match calls."""
    n_qubits = 6
    machine = VirtualIonTrap(n_qubits, noise=_fig6_noise(), seed=4)
    spec = battery_specs(n_qubits, 2)[0]
    circuit = build_test_circuit(spec, n_qubits)
    expected = expected_output(spec, n_qubits)
    machine.run_match(circuit, expected, shots=60)
    builds = machine.stats.dense_plan_builds
    machine.run_match(circuit, expected, shots=60)
    assert machine.stats.dense_plan_builds == builds
    assert machine.stats.dense_plan_hits >= 1


def test_dense_plan_cache_bounds_and_keys():
    cache = DensePlanCache(max_plans=2)
    sk_a = (("MS", (0, 1)),)
    sk_b = (("MS", (1, 2)),)
    sk_c = (("MS", (2, 3)),)
    plan_a, hit = cache.get(4, sk_a)
    assert not hit
    again, hit = cache.get(4, sk_a)
    assert hit and again is plan_a
    cache.get(4, sk_b)
    cache.get(4, sk_c)
    assert len(cache) == 2
    _, hit = cache.get(4, sk_a)
    assert not hit  # evicted as least-recently-used
    with pytest.raises(ValueError):
        DensePlanCache(max_plans=0)
    with pytest.raises(ValueError):
        DensePlan(4, ())


def test_structural_rebind_matches_fresh_compile():
    """A rebound plan is numerically identical to a fresh compile.

    The fig6 batteries are the motivating case: every test of one depth
    is the same circuit shape shifted along the chain, so raw skeletons
    all miss while the canonical form hits.  The rebound plan must share
    the donor's compiled core and produce bit-identical probabilities.
    """
    n_qubits = 8
    machine = VirtualIonTrap(n_qubits, noise=_fig6_noise(), seed=11)
    spec_a, spec_b = battery_specs(n_qubits, 2)[:2]
    cache = DensePlanCache()
    plans = {}
    for label, spec in (("a", spec_a), ("b", spec_b)):
        circuit = build_test_circuit(spec, n_qubits)
        slots = machine._realize_slots(circuit, 6)
        skeleton = tuple((s.gate, s.qubits) for s in slots)
        plan, hit = cache.get(n_qubits, skeleton)
        assert not hit
        plans[label] = (plan, slots, expected_output(spec, n_qubits))
    assert cache.rebinds == 1, "shifted battery skeletons must share a compile"
    plan_a, _, _ = plans["a"]
    plan_b, slots_b, expected_b = plans["b"]
    assert plan_b._order is plan_a._order  # shared compiled core
    assert plan_b._buckets is plan_a._buckets
    assert plan_b._stack_gather is plan_a._stack_gather
    assert plan_b._final_order is plan_a._final_order
    assert plan_b.skeleton != plan_a.skeleton
    fresh = DensePlan(n_qubits, plan_b.skeleton)
    blocks = slot_blocks(slots_b)
    rebound_probs = plan_b.probabilities(blocks, expected_b)
    assert np.array_equal(rebound_probs, fresh.probabilities(blocks, expected_b))
    reference = _reference_probabilities(machine, slots_b, plan_b, expected_b)
    assert np.max(np.abs(rebound_probs - reference)) < 1e-9


def test_rebind_rejects_structurally_different_skeleton():
    donor = DensePlan(4, (("MS", (0, 1)), ("R", (0,)), ("R", (1,))))
    # Same canonical form, different absolute qubits: allowed.
    clone = donor.rebind(5, (("MS", (2, 3)), ("R", (2,)), ("R", (3,))))
    assert clone.touched == [2, 3]
    assert canonical_skeleton(clone.skeleton) == canonical_skeleton(
        donor.skeleton
    )
    with pytest.raises(ValueError, match="structurally"):
        donor.rebind(4, (("MS", (0, 1)), ("R", (1,)), ("R", (0,))))
    with pytest.raises(ValueError, match="structurally"):
        donor.rebind(4, (("MS", (0, 1)), ("R", (0,))))


def test_execute_compiled_battery_matches_executor_statistically():
    """Compiled battery execution tracks the executor loop's fidelities."""
    n_qubits = 8
    specs = battery_specs(n_qubits, 2)
    shots = 400

    def mean_fidelities(compiled: bool) -> np.ndarray:
        from repro.analysis.detection import CalibratedThresholds
        from repro.core.protocol import TestExecutor

        totals = np.zeros(len(specs))
        trials = 12
        for trial in range(trials):
            machine = VirtualIonTrap(
                n_qubits, noise=_fig7_noise(), seed=100 + trial
            )
            machine.set_under_rotation((0, 4), 0.4)
            if compiled:
                results = execute_compiled_battery(
                    machine, specs, battery=_programs(specs, n_qubits), shots=shots
                )
            else:
                executor = TestExecutor(
                    machine,
                    thresholds=CalibratedThresholds(default=0.5),
                    shots=shots,
                )
                results = executor.execute_round(specs)
            totals += np.array([r.fidelity for r in results])
        return totals / trials

    compiled = mean_fidelities(True)
    reference = mean_fidelities(False)
    assert np.all(np.abs(compiled - reference) < 0.12)


def test_execute_compiled_battery_rejects_mismatched_batteries():
    """A stale or reordered battery fails loudly, not silently."""
    n_qubits = 8
    specs = battery_specs(n_qubits, 2)
    machine = VirtualIonTrap(n_qubits, noise=_fig7_noise(), seed=1)
    short = _programs(specs[:-1], n_qubits)
    with pytest.raises(ValueError, match="compile it from this spec list"):
        execute_compiled_battery(machine, specs, battery=short, shots=50)
    reordered = _programs(specs[::-1], n_qubits)
    with pytest.raises(ValueError, match="does not match spec"):
        execute_compiled_battery(machine, specs, battery=reordered, shots=50)


def test_single_slot_chain_matches_reference():
    """A one-gate skeleton (link chain of length 1) compiles and is exact."""
    n_qubits = 5
    machine = VirtualIonTrap(n_qubits, noise=_fig6_noise(), seed=13)
    machine.set_under_rotation((1, 3), 0.35)
    circuit = Circuit(n_qubits).ms(1, 3, np.pi / 2)
    slots = machine._realize_slots(circuit, 7)
    skeleton = tuple((s.gate, s.qubits) for s in slots)
    plan = DensePlan(n_qubits, skeleton)
    # Only the touched pair survives compaction.
    assert plan.n_local == 2
    compiled = plan.probabilities(slot_blocks(slots), 0)
    reference = _reference_probabilities(machine, slots, plan, 0)
    assert np.max(np.abs(compiled - reference)) < 1e-9


def test_empty_battery_compiles_and_executes():
    """Zero test specs: compilation and execution degrade to no-ops."""
    machine = VirtualIonTrap(4, noise=_fig6_noise(), seed=1)
    state = machine.rng.bit_generator.state
    assert Executor(machine).execute_round([]) == []
    assert execute_compiled_battery(machine, [], battery=[]) == []
    assert machine.rng.bit_generator.state == state


def test_two_qubit_register_end_to_end():
    """The smallest legal machine runs the dense compiled path exactly."""
    n_qubits = 2
    machine = VirtualIonTrap(n_qubits, noise=_fig6_noise(), seed=21)
    machine.set_under_rotation((0, 1), 0.3)
    circuit = Circuit(n_qubits).ms(0, 1, np.pi / 2).ms(0, 1, np.pi / 2)
    slots = machine._realize_slots(circuit, 6)
    skeleton = tuple((s.gate, s.qubits) for s in slots)
    plan = DensePlan(n_qubits, skeleton)
    assert plan.n_local == 2
    compiled = plan.probabilities(slot_blocks(slots), 0b11)
    reference = _reference_probabilities(machine, slots, plan, 0b11)
    assert np.max(np.abs(compiled - reference)) < 1e-9
    counts = machine.run_match(circuit, 0b11, shots=80)
    assert sum(counts.values()) == 80


def test_tiny_byte_bound_with_plan_cache_eviction_stays_exact():
    """A 1-byte batch budget (single-row chunks) plus constant plan-cache
    eviction churn (``max_plans=1`` over two alternating skeletons)
    changes memory behaviour only — never probabilities."""
    n_qubits = 6
    machine = VirtualIonTrap(n_qubits, noise=_fig7_noise(), seed=17)
    circuits = [
        Circuit(n_qubits).ms(0, 1, np.pi / 2).ms(2, 3, np.pi / 2),
        Circuit(n_qubits).ms(1, 2, np.pi / 2).ms(4, 5, np.pi / 2),
    ]
    plans = []
    slot_sets = []
    for circuit in circuits:
        slots = machine._realize_slots(circuit, 9)
        slot_sets.append(slots)
        plans.append(
            DensePlan(n_qubits, tuple((s.gate, s.qubits) for s in slots))
        )
    unchunked = [
        plan.probabilities(slot_blocks(slots), 0)
        for plan, slots in zip(plans, slot_sets)
    ]
    cache = DensePlanCache(max_plans=1)
    for _ in range(3):
        for circuit, slots, reference in zip(
            circuits, slot_sets, unchunked
        ):
            skeleton = tuple((s.gate, s.qubits) for s in slots)
            plan, was_cached = cache.get(n_qubits, skeleton)
            assert not was_cached  # max_plans=1 evicts the other skeleton
            chunked = plan.probabilities(
                slot_blocks(slots), 0, max_batch_bytes=1
            )
            assert np.array_equal(chunked, reference)
    assert len(cache) == 1


def test_fig6_rows_follow_battery_order():
    """fig6 reports one row per battery test, in battery order, in [0, 1]."""
    from repro.analysis.experiments.fig6 import (
        Fig6Config,
        battery_specs,
        run_fig6,
    )

    cfg = Fig6Config(shots=60)
    result = run_fig6(cfg)
    assert [(r.repetitions, r.test_name) for r in result.rows] == [
        (reps, spec.name)
        for reps in (2, 4)
        for spec in battery_specs(cfg.n_qubits, reps)
    ]
    assert all(0.0 <= r.fidelity <= 1.0 for r in result.rows)


def _mixed_plan():
    """A plan over MS, R and RX slots with its realized blocks (B = 3)."""
    n_qubits = 4
    machine = VirtualIonTrap(n_qubits, noise=_fig7_noise(), seed=3)
    circuit = Circuit(n_qubits).ms(0, 1, np.pi / 2).rx(2, 0.3).ms(1, 2, 0.4)
    slots = machine._realize_slots(circuit, 3)
    plan = DensePlan(n_qubits, tuple((s.gate, s.qubits) for s in slots))
    return plan, slot_blocks(slots)


def test_slot_blocks_group_rows_by_kind_in_program_order():
    n_qubits = 4
    machine = VirtualIonTrap(n_qubits, noise=_fig7_noise(), seed=3)
    circuit = Circuit(n_qubits).ms(0, 1, np.pi / 2).rx(2, 0.3).h(3)
    slots = machine._realize_slots(circuit, 3)
    blocks = slot_blocks(slots)
    assert {k: b.shape for k, b in blocks.items()} == {
        "MS": (1, 3, 3),
        "R": (2, 3, 2),
        "RX": (1, 3, 1),
        "H": (1, 3, 0),
    }
    kicks = [s.params for s in slots if s.gate == "R"]
    assert np.array_equal(blocks["R"], np.stack(kicks))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda b: b.update(R=b["R"][:-1]), "R block has shape"),
        (lambda b: b.update(MS=b["MS"][:, :2]), "batch size"),
        (lambda b: b.update(RX=np.zeros(b["RX"].shape[:2] + (2,))), "RX block"),
        (lambda b: b.update(R=b["R"][0]), "R block has shape"),
        (lambda b: b.pop("RX"), "kinds"),
        (lambda b: b.update(H=np.zeros((1, 3, 0))), "kinds"),
    ],
    ids=["rows", "batch", "width", "ndim", "missing-kind", "extra-kind"],
)
def test_wrong_block_shapes_raise(mutate, message):
    plan, blocks = _mixed_plan()
    good = plan.probabilities(blocks, 0)
    mutate(blocks)
    with pytest.raises(ValueError, match=message):
        plan.probabilities(blocks, 0)
    with pytest.raises(ValueError, match=message):
        plan.states(blocks)
    assert good.shape == (3,)


def test_axis_order_program_and_final_index():
    """Steps transpose only when their qubits do not already lead."""
    plan, blocks = _mixed_plan()
    perms = [step[3] for step in plan._order]
    assert perms[0] is None  # the first group's qubits start in front
    assert any(p is not None for p in perms)
    assert sorted(plan._final_order) == list(range(plan.n_local))
    states = plan.states(blocks)
    for expected in range(2**plan.n_local):
        full = 0
        for k, q in enumerate(plan.touched):
            full |= ((expected >> (plan.n_local - 1 - k)) & 1) << (3 - q)
        assert np.array_equal(
            plan.probabilities(blocks, full),
            np.clip(np.abs(states[:, expected]) ** 2, 0.0, 1.0),
        )
