"""A battery pass draws every test in order, stacks each plan core, samples once.

:meth:`~repro.trap.machine.VirtualIonTrap.run_battery` evaluates many
tests of one battery on one machine in a single pass.  Two properties
carry it:

* a stacked :meth:`~repro.sim.dense_plan.DensePlan.probabilities` call
  returns, row for row, exactly what one call per segment returns;
* the pass equals an oracle built from the per-call slot path: every
  test realized in order by ``realize_slots`` and evaluated on its own
  plan, then one binomial draw over every (test, trial, group).  That
  holds for ``run_battery`` and for ``TestExecutor.execute_round``.

Both are compared with ``==``; machine clock, RNG state and
:class:`~repro.trap.machine.MachineStats` must match too (the pass on a
fresh process plan cache, the oracle on its own).  A round's plan groups
its XX rows by plan structure and its dense rows by canonical skeleton,
each across the whole round, while draws keep row order: the mixed
rounds below put dense, sampled and declined tests between rows of one
structure.
"""

import math

import numpy as np
import pytest
from xx_oracle import (
    draw_dense,
    match_probabilities_slots,
    plan_cache,
    realize_slots,
    slot_blocks,
    slot_skeleton,
    slots_xx_only,
)

from repro.core.multi_fault import battery_specs
from repro.core.protocol import TestExecutor as Executor
from repro.core.protocol import built_test
from repro.core.tests_builder import TestSpec as Spec
from repro.noise.models import NoiseParameters
from repro.noise.spam import SpamModel
from repro.sim.circuit import Circuit
from repro.sim.dense_plan import DensePlanCache, Segment
from repro.trap.faults import CouplingFault, CouplingPhaseFault
from repro.sim.xx_engine import ContractionPlan
from repro.trap import machine as machine_module
from repro.trap.machine import MachineStats, VirtualIonTrap, as_program
from repro.trap.round import RoundPlan, TestProgram, _compiled_xx_test

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
def test_stacked_probabilities_equal_one_call_per_segment(
    repetitions, amplitude_cap
):
    """N = 12: 4-, 6- and 8-local cores, a forced-zero segment, split chunks."""
    n_qubits, n_batch = 12, 6
    machine = VirtualIonTrap(n_qubits, noise=SEC6, seed=7)
    cache = DensePlanCache()
    cores = {}
    for program in _programs(n_qubits, repetitions):
        test = program.dense(True)
        plan, _ = cache.get(n_qubits, test.skeleton)
        blocks = draw_dense(machine, program, n_batch)
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
        for rows in (None, 4):
            amplitude_cap(rows, plan.n_local)
            got = plan.probabilities(stacked, segments)
            want = np.concatenate(
                [p.probabilities(b, e) for p, e, b in members]
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
        test = program.dense(True)
        tests.setdefault(test.canonical, (program, test))
    (a, test_a), (b, test_b) = list(tests.values())[:2]
    plan_a, _ = cache.get(12, test_a.skeleton)
    plan_b, _ = cache.get(12, test_b.skeleton)
    blocks = draw_dense(machine, a, 3)
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
        slots = realize_slots(machine, program.circuit, n_batch)
        if slots_xx_only(slots):
            probs.append(
                match_probabilities_slots(machine, slots, program.expected)
            )
            continue
        with plan_cache(plans):
            plan = machine._dense_plan_for(slot_skeleton(slots))
        probs.append(
            plan.probabilities(slot_blocks(slots), program.expected)
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
    routes = {bool(compiled._routes([p], "auto").xx_rows) for p in programs}
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


# -- XX runs --------------------------------------------------------------------


def _pair_test(a, b, repetitions=2):
    return built_test((frozenset({a, b}),), repetitions, 8)


def _mixed_round():
    """N = 8 programs whose XX runs break at a dense and a sampled test.

    Several tests per structure (relabeled point checks, two forced-zero
    tests), RX/X linear terms with their own angles, a dense-only test
    and, on a machine with ``max_exact_qubits=3``, a sampled class test.
    """
    half_pi = math.pi / 2

    def pair(a, b):
        return Circuit(8).ms(a, b, half_pi).ms(a, b, half_pi)

    return [
        _pair_test(0, 1),
        _pair_test(2, 3),
        # Forced zero: a 1 expected on an untouched qubit.
        as_program(pair(0, 1), 0b00000001),
        # One structure, each test with its own RX angle.
        as_program(pair(4, 5).rx(4, 0.3), 0b00001100),
        as_program(pair(2, 3).rx(2, 0.7), 0b00110000),
        _pair_test(6, 7, 4),
        as_program(Circuit(8).ms(0, 1, half_pi).r(2, 0.4, 0.3), 0),
        _pair_test(4, 5),
        as_program(pair(2, 3), 0b10000000),
        as_program(Circuit(8).ms(6, 7, half_pi).x(6).ms(6, 7, half_pi), 1),
        _pair_test(6, 7),
        built_test(
            tuple(frozenset(p) for p in ((0, 2), (0, 4), (2, 4), (4, 6))), 2, 8
        ),
        _pair_test(0, 1),
        _pair_test(2, 3, 4),
        _pair_test(6, 7),
    ]


@pytest.mark.parametrize(
    "offset", [None, math.pi, 0.6], ids=["none", "pi", "off-grid"]
)
def test_mixed_round_equals_in_order_oracle(offset, monkeypatch, fresh_plan_cache):
    """Runs of XX tests equal the per-test oracle; breaks keep their order."""
    programs = _mixed_round()
    faults = [CouplingFault(frozenset({0, 1}), 0.3)]
    if offset is not None:
        faults.append(CouplingPhaseFault(frozenset({2, 3}), offset))
    compiled, oracle = _twins(
        8, AMPLITUDE, faults, noise_realizations=3, max_exact_qubits=3
    )
    # The dense-only test (row 6) and, off the grid, the tests on {2, 3}
    # (rows 1, 4, 8 and 13) go dense; the sampled row 11 is its own group.
    dense = {6} | ({1, 4, 8, 13} if offset == 0.6 else set())
    assert compiled._routes(programs, "auto").xx_rows == tuple(
        row for row in range(len(programs)) if row not in dense
    )
    assert programs[11].xx(3).plan.sampled
    assert programs[2].xx(3).plan.forced_zero
    structures = {}
    for row in range(len(programs)):
        if row not in dense | {11}:
            structure = programs[row].xx(3).plan.structure
            structures.setdefault(structure, []).append(row)
    # Groups span the dense rows, and some hold two or more tests.
    assert any(min(rows) < 6 < max(rows) for rows in structures.values())
    assert max(map(len, structures.values())) > 1
    taken = []
    original = VirtualIonTrap._xx_probabilities

    def spy(self, group, *args):
        taken.append(group.rows.tolist())
        return original(self, group, *args)

    monkeypatch.setattr(VirtualIonTrap, "_xx_probabilities", spy)
    plans = DensePlanCache()
    for trials in (1, 2):
        fids = compiled.run_battery(programs, 60, trials)
        ref = _oracle_pass(programs, plans, oracle, 60, trials)
        assert (fids == ref).all()
        _assert_same_machine_state(compiled, oracle)
    # The sampled row is contracted as it is drawn, then each structure
    # once across the round.
    assert taken == ([[11]] + list(structures.values())) * 2


def test_round_plan_groups_across_dense_rows(monkeypatch, fresh_plan_cache):
    """Rows 0 and 12 share a plan structure with dense rows between them
    (an off-grid phase sends the tests on {2, 3} dense): one contraction
    takes both.  A warm pass looks its round plan up once and finds no
    row's route; it equals the in-order oracle, the sampled row 11 drawing
    its spins before row 12 draws."""
    programs = _mixed_round()
    faults = [
        CouplingFault(frozenset({0, 1}), 0.3),
        CouplingPhaseFault(frozenset({2, 3}), 0.6),
    ]
    compiled, oracle = _twins(
        8, AMPLITUDE, faults, noise_realizations=3, max_exact_qubits=3
    )
    routes = compiled._routes(programs, "auto")
    assert not {1, 4, 6, 8} & set(routes.xx_rows)
    (group,) = [group for group in routes.groups if 0 in group.rows]
    assert 12 in group.rows
    structure = programs[0].xx(3).plan.structure
    counts = dict.fromkeys(("lookup", "compile", "angles", "dense", "xx"), 0)

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    calls = []
    contract = ContractionPlan.probabilities

    def counted_contract(self, thetas, *args):
        calls.append((self.structure, thetas.shape[0]))
        return contract(self, thetas, *args)

    for name, owner, attr in (
        ("lookup", machine_module, "round_plan"),
        ("compile", RoundPlan, "_compile"),
        ("angles", VirtualIonTrap, "_xx_slot_angles"),
        ("dense", TestProgram, "dense"),
        ("xx", TestProgram, "xx"),
    ):
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    monkeypatch.setattr(ContractionPlan, "probabilities", counted_contract)
    plans = DensePlanCache()
    for _ in range(2):
        counts.update(dict.fromkeys(counts, 0))
        calls.clear()
        fids = compiled.run_battery(programs, 60)
        seen = (dict(counts), list(calls))
        ref = _oracle_pass(programs, plans, oracle, 60, 1)
        assert (fids == ref).all()
        _assert_same_machine_state(compiled, oracle)
    warm, calls = seen
    # One contraction per group, and one for the sampled row.
    contractions = len(routes.groups) + 1
    assert contractions < len(routes.xx_rows)
    assert warm == {
        "lookup": 1,
        "compile": 0,
        "angles": 1,
        "dense": 0,
        "xx": contractions,
    }
    assert len(calls) == contractions
    assert (structure, group.rows.size * 3) in calls


def test_round_equals_one_pass_per_test():
    """A round's rows equal one pass per test on a twin, to rounding."""
    programs = _programs(8, 2) + _programs(8, 4)
    faults = (CouplingFault(frozenset({0, 4}), 0.4),)
    whole, single = _twins(8, AMPLITUDE, faults)
    (stretch,) = whole._routes(programs, "auto").schedule
    assert len(stretch.n_ms) == len(programs)
    _, probs = whole._pass_probabilities(programs, 80, 2)
    rows = [single._pass_probabilities([p], 80, 2)[1][0] for p in programs]
    # BLAS may pick another kernel for the stacked row count.
    assert np.max(np.abs(probs - np.array(rows))) < 1e-15
    assert whole.rng.bit_generator.state == single.rng.bit_generator.state
    assert whole._clock == single._clock


def test_battery_round_contracts_once_per_structure(monkeypatch):
    programs = _programs(8, 2)
    machine = VirtualIonTrap(8, noise=AMPLITUDE, seed=4)
    structures = {p.xx(20).plan.structure for p in programs}
    assert len(structures) < len(programs)
    calls = []
    original = ContractionPlan.probabilities

    def counted(self, thetas, *args):
        calls.append(thetas.shape[0])
        return original(self, thetas, *args)

    monkeypatch.setattr(ContractionPlan, "probabilities", counted)
    Executor(machine, shots=100).execute_round(battery_specs(8, 2))
    assert len(calls) == len(structures)
    assert sum(calls) == len(programs) * machine.noise_realizations


def test_structure_keys_relabeled_tests_together():
    def plan(program):
        return program.xx(20).plan

    class_00, class_01, *_ = _programs(8, 2)
    deeper = _programs(8, 4)[0]
    assert plan(class_00).edge_keys != plan(class_01).edge_keys
    assert plan(class_00).structure == plan(class_01).structure
    # The same couplings with another expected bitstring.
    assert plan(class_00).edge_keys == plan(deeper).edge_keys
    assert plan(class_00).structure != plan(deeper).structure
    # Linear terms: added, and moved to another spin of the component.
    edges = [frozenset(p) for p in ((0, 2), (0, 4), (2, 4))]
    bare = ContractionPlan(8, edges, [], 0)
    on_0, on_2 = (ContractionPlan(8, edges, [q], 0) for q in (0, 2))
    assert len({bare.structure, on_0.structure, on_2.structure}) == 3
    # Relabeling the qubits keeps the key, linear term included.
    shifted = [frozenset(q + 1 for q in e) for e in edges]
    assert ContractionPlan(8, shifted, [1], 0).structure == on_0.structure


@pytest.mark.parametrize("refused", ["dense", "sampled"])
def test_xx_refusal_after_a_run_draws_nothing(refused):
    battery = [_pair_test(0, 1), _pair_test(2, 3), _pair_test(4, 5)]
    if refused == "dense":
        battery.append(
            as_program(Circuit(8).ms(0, 1, math.pi / 2).r(2, 0.4, 0.3), 0)
        )
    else:
        battery.append(_programs(8, 2)[0])
    machine = VirtualIonTrap(8, noise=AMPLITUDE, seed=3, max_exact_qubits=3)
    # The refused row ends a stretch of XX rows (a sampled one closes it).
    stretch = machine._routes(battery, "auto").schedule[0]
    assert len(stretch.n_ms) == (3 if refused == "dense" else 4)
    state = machine.rng.bit_generator.state
    with pytest.raises(ValueError, match="engine='xx'"):
        machine.run_battery(battery, 100, engine="xx")
    assert machine.rng.bit_generator.state == state
    assert machine._clock == 0.0
    assert machine.stats == MachineStats()


def test_dense_only_round_compiles_no_xx_plan(monkeypatch, fresh_plan_cache):
    """Under Sec. VI noise a round's MS tests never resolve an XX entry."""
    _compiled_xx_test.cache_clear()
    builds = []
    original = ContractionPlan.__init__

    def counted(self, *args, **kwargs):
        builds.append(args[1])
        original(self, *args, **kwargs)

    monkeypatch.setattr(ContractionPlan, "__init__", counted)
    specs = battery_specs(16, 2)
    machine = VirtualIonTrap(16, noise=NoiseParameters.paper_physical(), seed=2)
    results = Executor(machine, shots=20).execute_round(specs)
    assert len(results) == len(specs)
    assert builds == []
    # Under amplitude noise alone the same round compiles its plans.
    machine = VirtualIonTrap(16, noise=AMPLITUDE, seed=2)
    Executor(machine, shots=20).execute_round(specs)
    assert len(builds) == len(specs)


def test_declined_run_splits_at_its_declined_tests(monkeypatch, fresh_plan_cache):
    """An off-grid offset on one coupling sends only the tests holding it
    dense; they split the round's XX rows into stretches, one draw block
    each, while every plan structure still contracts once, and the round
    draws as the in-order oracle draws."""
    specs = battery_specs(12, 2)
    programs = _programs(12, 2)
    faults = (
        CouplingPhaseFault(frozenset({0, 5}), 0.6),
        CouplingFault(frozenset({2, 9}), 0.3),
    )
    split, oracle = _twins(12, AMPLITUDE, faults)
    declined = [not split._routes([p], "auto").xx_rows for p in programs]
    assert 0 < sum(declined) < len(programs)
    routes = split._routes(programs, "auto")
    assert routes.xx_rows == tuple(
        row for row, off in enumerate(declined) if not off
    )
    starts = sum(
        1
        for row, off in enumerate(declined)
        if not off and (row == 0 or declined[row - 1])
    )
    stretches = [s for s in routes.schedule if not isinstance(s, tuple)]
    assert len(stretches) == starts > 1
    calls = []
    original = ContractionPlan.probabilities

    def counted(self, thetas, *args):
        calls.append(thetas.shape[0])
        return original(self, thetas, *args)

    monkeypatch.setattr(ContractionPlan, "probabilities", counted)
    results = Executor(split, shots=100).execute_round(specs)
    assert len(calls) == len(
        {programs[row].xx(20).plan.structure for row in routes.xx_rows}
    )
    reference = _oracle_pass(programs, DensePlanCache(), oracle, 100, 1)
    assert [r.fidelity for r in results] == list(reference[:, 0])
    _assert_same_machine_state(split, oracle)


def test_lone_xx_test_resolves_once(monkeypatch):
    """One XX-route ``execute`` gathers its angles, contracts and samples
    once each, and ends where a one-spec round ends."""
    spec = battery_specs(12, 2)[3]
    faults = (CouplingFault(frozenset({2, 9}), 0.3),)
    lone, round_ = _twins(12, AMPLITUDE, faults)
    counts = {"angles": 0, "contract": 0, "sample": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        VirtualIonTrap,
        "_xx_slot_angles",
        counting("angles", VirtualIonTrap._xx_slot_angles),
    )
    monkeypatch.setattr(
        ContractionPlan,
        "probabilities",
        counting("contract", ContractionPlan.probabilities),
    )
    monkeypatch.setattr(
        machine_module,
        "sample_bernoulli_counts_batch",
        counting("sample", machine_module.sample_bernoulli_counts_batch),
    )
    result = Executor(lone, shots=150).execute(spec)
    assert counts == {"angles": 1, "contract": 1, "sample": 1}
    (reference,) = Executor(round_, shots=150).execute_round([spec])
    assert result == reference
    _assert_same_machine_state(lone, round_)
