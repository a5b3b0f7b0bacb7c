"""A battery pass draws every test in order, stacks each plan core, samples once.

:meth:`~repro.trap.machine.VirtualIonTrap.run_battery` evaluates many
tests of one battery on one machine in a single pass.  Two properties
carry it:

* a stacked :meth:`~repro.sim.dense_plan.DensePlan.probabilities` call
  returns, row for row, exactly what one call per segment returns;
* the pass equals an oracle built from the per-call slot path: every
  test realized in order by ``_realize_slots`` and evaluated on its own
  plan, then one binomial draw over every (test, trial, group).  That
  holds for ``run_battery`` and for ``TestExecutor.execute_round``.

Both are compared with ``==``; machine clock, RNG state and
:class:`~repro.trap.machine.MachineStats` must match too (the pass on a
fresh process plan cache, the oracle on its own).
"""

import math

import numpy as np
import pytest
from xx_oracle import match_probabilities_slots, plan_cache, slots_xx_only

from repro.core.multi_fault import battery_specs
from repro.core.protocol import TestExecutor as Executor
from repro.core.protocol import built_test
from repro.core.tests_builder import TestSpec as Spec
from repro.noise.models import NoiseParameters
from repro.noise.spam import SpamModel
from repro.sim.circuit import Circuit
from repro.sim.dense_plan import DensePlanCache, Segment
from repro.trap.faults import CouplingFault, CouplingPhaseFault
from repro.trap.machine import (
    MachineStats,
    VirtualIonTrap,
    _skeleton,
    as_program,
    slot_blocks,
)

#: The full Sec. VI error model (Figs. 6/7): phase noise and kicks.
SEC6 = NoiseParameters(
    amplitude_sigma=0.10, phase_noise_rms=0.05, residual_odd_population=0.01
)
#: Fig. 6's environment: Sec. VI noise plus readout error.
SEC6_SPAM = NoiseParameters(
    amplitude_sigma=0.10,
    residual_odd_population=0.03,
    phase_noise_rms=0.08,
    spam=SpamModel(0.005, 0.005),
)
AMPLITUDE = NoiseParameters.paper_scaling()


def _programs(n_qubits, repetitions):
    return [
        built_test(tuple(spec.pairs), repetitions, n_qubits)
        for spec in battery_specs(n_qubits, repetitions)
    ]


def _twins(n_qubits, noise, faults=(), **kwargs):
    twins = []
    for _ in range(2):
        machine = VirtualIonTrap(n_qubits, noise=noise, seed=11, **kwargs)
        for fault in faults:
            machine.inject_fault(fault)
        twins.append(machine)
    return twins


def _assert_same_machine_state(a, b):
    assert a._clock == b._clock
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert a.stats == b.stats


# -- the stacked kernel ---------------------------------------------------------


@pytest.mark.parametrize("repetitions", [2, 4])
def test_stacked_probabilities_equal_one_call_per_segment(repetitions):
    """N = 12: 4-, 6- and 8-local cores, a forced-zero segment, split chunks."""
    n_qubits, n_batch = 12, 6
    machine = VirtualIonTrap(n_qubits, noise=SEC6, seed=7)
    cache = DensePlanCache()
    cores = {}
    for program in _programs(n_qubits, repetitions):
        test = machine._dense_test(program)
        plan, _ = cache.get(n_qubits, test.skeleton)
        blocks = machine._draw_dense(test, n_batch)
        cores.setdefault(test.canonical, []).append(
            (plan, program.expected, blocks)
        )
    plans = [members[0][0] for members in cores.values()]
    assert sorted(plan.n_local for plan in plans) == [4, 6, 8]
    for plan, members in zip(plans, cores.values()):
        # A bitstring with a 1 on a qubit its plan leaves untouched.
        first, expected, blocks = members[0]
        idle = next(q for q in range(n_qubits) if q not in first.touched)
        members = [
            *members,
            (first, expected | 1 << (n_qubits - 1 - idle), blocks),
        ]
        stacked = {
            kind: np.concatenate([b[kind] for _, _, b in members], axis=1)
            for kind in blocks
        }
        segments = [Segment(p, e, n_batch) for p, e, _ in members]
        # Four rows per chunk: chunks split the six-row segments.
        for budget in (None, 4 * 16 * 2**plan.n_local):
            got = plan.probabilities(stacked, segments, budget)
            want = np.concatenate(
                [p.probabilities(b, e, budget) for p, e, b in members]
            )
            assert got.shape == want.shape == (n_batch * len(members),)
            assert (got == want).all()
            assert not got[-n_batch:].any()
            assert got[:-n_batch].all()


def test_stacked_probabilities_refuse_foreign_segments():
    machine = VirtualIonTrap(12, noise=SEC6, seed=7)
    cache = DensePlanCache()
    tests = {}
    for program in _programs(12, 2):
        test = machine._dense_test(program)
        tests.setdefault(test.canonical, (program, test))
    (a, test_a), (b, test_b) = list(tests.values())[:2]
    plan_a, _ = cache.get(12, test_a.skeleton)
    plan_b, _ = cache.get(12, test_b.skeleton)
    blocks = machine._draw_dense(test_a, 3)
    with pytest.raises(ValueError, match="compiled core"):
        plan_a.probabilities(blocks, [Segment(plan_b, b.expected, 3)])
    with pytest.raises(ValueError, match="segments cover"):
        plan_a.probabilities(blocks, [Segment(plan_a, a.expected, 2)])


# -- the pass -------------------------------------------------------------------


def _oracle_pass(programs, plans, machine, shots, trials):
    """Each test realized in order on the slot path, then one binomial.

    Dense plans come from ``plans``, the oracle's own cache.
    """
    groups = np.asarray(machine._shot_groups(shots), dtype=np.int64)
    n_batch = trials * len(groups)
    probs = []
    for program in programs:
        slots = machine._realize_slots(program.circuit, n_batch)
        if slots_xx_only(slots):
            probs.append(
                match_probabilities_slots(machine, slots, program.expected)
            )
            continue
        with plan_cache(plans):
            plan = machine._dense_plan_for(_skeleton(slots))
        probs.append(
            plan.probabilities(
                slot_blocks(slots), program.expected, machine.max_batch_bytes
            )
        )
    spam = machine.noise.spam
    factors = np.array(
        [
            spam.match_probability_factor(program.expected, machine.n_qubits)
            if spam is not None
            else 1.0
            for program in programs
        ]
    )
    p = np.array(probs).reshape(len(programs), trials, len(groups))
    p = np.clip(p * factors[:, None, None], 0.0, 1.0)
    matches = machine.rng.binomial(np.broadcast_to(groups, p.shape), p)
    for program in programs:
        n2q = program.n_two_qubit
        machine.stats.circuit_runs += trials
        machine.stats.shots += trials * shots
        machine.stats.two_qubit_gates += n2q * shots * trials
        machine.stats.quantum_seconds += (
            machine.timing.circuit_run_time(n2q, machine.n_qubits, shots)
            * trials
        )
    return matches.sum(axis=2) / shots


PASS_CASES = {
    # Every test dense: three plan cores at N = 12, SPAM per test.
    "sec6": (12, SEC6_SPAM, (CouplingFault(frozenset({0, 5}), 0.3),)),
    # Every test on the XX route.
    "xx-preserving": (8, AMPLITUDE, (CouplingFault(frozenset({0, 4}), 0.4),)),
    # An off-grid drive phase sends the tests holding {1, 2} dense; the
    # others stay on the XX route.
    "phase-miscalibrated": (
        8,
        AMPLITUDE,
        (
            CouplingPhaseFault(frozenset({1, 2}), 0.6),
            CouplingFault(frozenset({1, 2}), 0.3),
        ),
    ),
}


#: The same cases as rounds: ``TestExecutor.execute_round``, one trial
#: per test.
ROUND_CASES = [f"{case}-round" for case in sorted(PASS_CASES)]


@pytest.mark.parametrize("case", sorted(PASS_CASES) + ROUND_CASES)
def test_pass_equals_in_order_oracle(case, fresh_plan_cache):
    by_round = case.endswith("-round")
    case = case.removesuffix("-round")
    n_qubits, noise, faults = PASS_CASES[case]
    specs = battery_specs(n_qubits, 2) + battery_specs(n_qubits, 4)
    programs = _programs(n_qubits, 2) + _programs(n_qubits, 4)
    compiled, oracle = _twins(n_qubits, noise, faults, noise_realizations=3)
    routes = {
        compiled._xx_slot_angles(program.xx(compiled.max_exact_qubits)) is not None
        for program in programs
    }
    assert routes == {"sec6": {False}, "xx-preserving": {True}}.get(
        case, {False, True}
    )
    plans = DensePlanCache()
    executor = Executor(compiled, shots=60)
    trials = 1 if by_round else 2
    everything = list(range(len(programs)))
    for indices in (everything, everything, [5, 0, 17, 3]):
        if by_round:
            results = executor.execute_round([specs[i] for i in indices])
            fids = np.array([[r.fidelity] for r in results])
        else:
            fids = compiled.run_battery([programs[i] for i in indices], 60, 2)
        ref = _oracle_pass([programs[i] for i in indices], plans, oracle, 60, trials)
        assert fids.shape == (len(indices), trials)
        assert (fids == ref).all()
        _assert_same_machine_state(compiled, oracle)
    if by_round:
        assert executor.cost.circuit_runs == 2 * len(everything) + 4


def test_xx_refusal_draws_nothing():
    """A dense-only test last in the pass: the refusal comes first."""
    dense_only = as_program(Circuit(8).ms(0, 1, math.pi / 2).r(2, 0.4, 0.3), 0)
    battery = _programs(8, 2) + [dense_only]
    machine = VirtualIonTrap(8, noise=AMPLITUDE, seed=3)
    state = machine.rng.bit_generator.state
    with pytest.raises(ValueError, match="engine='xx'"):
        machine.run_battery(battery, 100, engine="xx")
    assert machine.rng.bit_generator.state == state
    assert machine._clock == 0.0
    assert machine.stats == MachineStats()
    # The same pass on the automatic route does draw.
    machine.run_battery(battery, 100)
    assert machine.rng.bit_generator.state != state


def test_empty_specs_draw_nothing(fresh_plan_cache):
    specs = battery_specs(8, 2)
    empty = Spec("empty", (), 2)
    compiled, oracle = _twins(8, SEC6)
    results = Executor(compiled, shots=100).execute_round(
        [specs[0], empty, specs[1]]
    )
    with plan_cache(DensePlanCache()):
        reference = Executor(oracle, shots=100).execute_round(specs[:2])
    assert results[1].fidelity == 1.0
    assert [results[0].fidelity, results[2].fidelity] == [
        r.fidelity for r in reference
    ]
    _assert_same_machine_state(compiled, oracle)
    state = compiled.rng.bit_generator.state
    clock = compiled._clock
    only = Executor(compiled, shots=100).execute_round([empty, empty])
    assert [r.fidelity for r in only] == [1.0, 1.0]
    assert compiled.rng.bit_generator.state == state
    assert compiled._clock == clock
