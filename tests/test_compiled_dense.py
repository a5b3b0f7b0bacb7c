"""The compiled routes must equal the slot oracle bit for bit.

Batteries and ``run_match``'s non-XX fallback draw their noise straight
into the dense layout a :class:`TestProgram` holds instead of realizing
slot objects per call; battery tests the XX route
takes run through ``run_match``'s XX draw.  The oracle is the per-call
path: ``realize_slots`` followed by a :class:`DensePlan` resolved
through the oracle's own plan cache (or ``xx_oracle``'s slot XX path
when a draw stays X-diagonal, where the compiled route takes the XX
entry).  On twin same-seed machines, the compiled one on a fresh process
cache, both must return ``==``-equal probabilities and counts, and
leave the same clock, RNG state and :class:`MachineStats`, first pass
of a fresh battery included.
"""

import math

import numpy as np
import pytest
from xx_oracle import (
    dense_match_probabilities_slots,
    draw_dense,
    match_probabilities_slots,
    plan_cache,
    realize_slots,
    slot_blocks,
    slot_skeleton,
    slots_xx_only,
)

from repro.core.multi_fault import battery_specs
from repro.core.tests_builder import TestSpec as Spec
from repro.core.tests_builder import build_test_circuit, expected_output
from repro.noise.models import GateNoiseModel, NoiseParameters
from repro.noise.one_over_f import OneOverFProcess
from repro.sim import dense_plan
from repro.sim.circuit import Circuit
from repro.sim.dense_plan import DensePlan, DensePlanCache
from repro.sim.sampling import sample_bernoulli_counts_batch
from repro.trap import round as round_mod
from repro.trap.faults import CouplingFault, CouplingPhaseFault
from repro.trap.machine import VirtualIonTrap, as_program

#: Compiled twins start from an empty process plan cache, as their
#: oracle twins start from an empty cache of their own.
pytestmark = pytest.mark.usefixtures("fresh_plan_cache")

N = 6

#: The full Sec. VI error model (Figs. 6/7): phase noise and kicks.
SEC6 = NoiseParameters(
    amplitude_sigma=0.10, phase_noise_rms=0.05, residual_odd_population=0.01
)
#: Phase noise without residual kicks: X-diagonality is decided on the
#: drawn MS phase block.
PHASE_ONLY = NoiseParameters(amplitude_sigma=0.10, phase_noise_rms=0.05)
#: Kicks without phase noise, plus one-qubit amplitude noise on R gates.
KICKS_1Q = NoiseParameters(
    amplitude_sigma=0.10, amplitude_sigma_1q=0.02, residual_odd_population=0.01
)
AMPLITUDE = NoiseParameters.paper_scaling()


def _class_test() -> tuple[Circuit, int]:
    spec = Spec("t", (frozenset({0, 3}), frozenset({1, 4}), frozenset({0, 1})), 2)
    return build_test_circuit(spec, N), expected_output(spec, N)


def _mixed() -> tuple[Circuit, int]:
    """MS (on and off the pi grid), XX, R and fixed gates interleaved."""
    c = Circuit(N).r(2, 0.4, 0.3).ms(0, 1, math.pi / 2).h(3)
    c.xx(1, 2, 0.7).ms(2, 3, math.pi / 2, math.pi / 2, math.pi / 2)
    c.rx(0, 0.2).r(1, math.pi, 0.0).cnot(3, 4).ms(0, 1, math.pi / 2, math.pi)
    return c.rz(4, 0.3).x(5), 0b100001


def _no_ms() -> tuple[Circuit, int]:
    """``n_ms = 0``: R and fixed gates only."""
    return Circuit(N).r(0, 0.5, 0.1).h(2).rx(1, 0.3).r(2, 0.2, 0.0), 0


def _split_ms(bare_first: bool) -> tuple[Circuit, int]:
    """One MS merged with R/RX on both its qubits and one bare MS.

    Without kicks the MS block's rows split between a merged link and
    the plan's builder stack.
    """
    c = Circuit(N)
    if bare_first:
        c.ms(2, 3, math.pi / 2)
    c.ms(0, 1, math.pi / 2).r(0, 0.3, 0.1).rx(1, 0.2)
    return (c if bare_first else c.ms(2, 3, math.pi / 2)), 0b110000


CIRCUITS = {
    "class": _class_test,
    "mixed": _mixed,
    "no-ms": _no_ms,
    "split-ms-bare-first": lambda: _split_ms(True),
    "split-ms-bare-last": lambda: _split_ms(False),
    "empty": lambda: (Circuit(N), 0),
}


def _twins(noise, seed=5, faults=(), **kwargs):
    twins = []
    for _ in range(2):
        m = VirtualIonTrap(N, noise=noise, seed=seed, **kwargs)
        for fault in faults:
            m.inject_fault(fault)
        twins.append(m)
    return twins


def _assert_same_machine_state(a: VirtualIonTrap, b: VirtualIonTrap):
    assert a._clock == b._clock
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert a.stats == b.stats


def _oracle_probabilities(machine, plans, circuit, expected, n_batch, force):
    """The per-call slot path the compiled route replaces."""
    slots = realize_slots(machine, circuit, n_batch)
    if not slots:
        return np.full(n_batch, 1.0 if expected == 0 else 0.0)
    if not force and slots_xx_only(slots):
        return match_probabilities_slots(machine, slots, expected)
    with plan_cache(plans):
        return dense_match_probabilities_slots(machine, slots, expected)


def _oracle_run_match(machine, plans, circuit, expected, shots):
    """``run_match`` on the slot path alone."""
    machine._account([circuit.depth_two_qubit()], shots)
    groups = machine._shot_groups(shots)
    p = _oracle_probabilities(
        machine, plans, circuit, expected, len(groups), force=False
    )
    spam = machine.noise.spam
    factor = spam.match_probability_factor(expected, N) if spam else 1.0
    return sample_bernoulli_counts_batch(
        p * factor, expected, np.asarray(groups, dtype=np.int64), machine.rng
    )


def _oracle_trial_fidelities(plans, machine, ct, shots, trials, force):
    groups = np.asarray(machine._shot_groups(shots), dtype=np.int64)
    probs = _oracle_probabilities(
        machine,
        plans,
        ct.circuit,
        ct.expected,
        trials * len(groups),
        force,
    ).reshape(trials, len(groups))
    return machine._sample_fidelities([ct], probs[None], shots, groups)[0]


# -- the 1/f series block ---------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_phase_series_block_equals_per_process_construction(seed):
    rng_block = np.random.default_rng(seed)
    rng_each = np.random.default_rng(seed)
    model = GateNoiseModel(12, PHASE_ONLY, rng_block)
    rms = PHASE_ONLY.phase_noise_rms
    each = np.stack([OneOverFProcess(rms, rng_each).series for _ in range(12)])
    assert np.array_equal(model._phase_series, each)
    assert rng_block.bit_generator.state == rng_each.bit_generator.state


def test_ms_block_reads_each_targets_own_phase_process():
    """The block gather equals per-ion :class:`OneOverFProcess` lookups."""
    model = GateNoiseModel(5, PHASE_ONLY, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    procs = [OneOverFProcess(PHASE_ONLY.phase_noise_rms, rng) for _ in range(5)]
    q1 = np.array([0, 3, 4, 1])
    q2 = np.array([2, 1, 0, 4])
    phi1 = np.array([0.0, 0.2, -0.1, math.pi])
    phi2 = np.array([math.pi, 0.2, 0.3, 0.0])
    ts = np.linspace(0.0, 9.0, 4 * 6).reshape(4, 6)
    out = model.noisy_ms_params_block(
        q1, q2, np.full(4, math.pi / 2), np.zeros(4), phi1, phi2, ts
    )
    for k in range(4):
        assert (out[k, :, 1] == phi1[k] + procs[q1[k]].values_at(ts[k])).all()
        assert (out[k, :, 2] == phi2[k] + procs[q2[k]].values_at(ts[k])).all()


# -- the draw itself --------------------------------------------------------


@pytest.mark.parametrize("noise", [SEC6, PHASE_ONLY, KICKS_1Q, AMPLITUDE])
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_draw_matches_realize_slots(noise, name):
    circuit, expected = CIRCUITS[name]()
    faults = (
        CouplingFault(frozenset({0, 1}), 0.1),
        CouplingPhaseFault(frozenset({1, 2}), 0.4),
    )
    compiled, oracle = _twins(noise, faults=faults)
    for n_batch in (1, 5):
        program = as_program(circuit, expected)
        test = program.dense(noise.residual_odd_population > 0)
        blocks = draw_dense(compiled, program, n_batch)
        slots = realize_slots(oracle, circuit, n_batch)
        assert test.skeleton == tuple((s.gate, s.qubits) for s in slots)
        oracle_blocks = slot_blocks(slots)
        assert blocks.keys() == oracle_blocks.keys()
        for kind, block in oracle_blocks.items():
            assert np.array_equal(blocks[kind], block), kind
        _assert_same_machine_state(compiled, oracle)


@pytest.mark.parametrize("noise", [SEC6, KICKS_1Q, AMPLITUDE])
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_run_counts_equal_slot_oracle(noise, name):
    """``run`` draws a circuit's dense layout as a stack of one: its full
    counts, clock, RNG state and stats equal the op-by-op oracle's."""
    circuit, _ = CIRCUITS[name]()
    faults = (CouplingPhaseFault(frozenset({1, 2}), 0.4),)
    compiled, oracle = _twins(noise, faults=faults)
    plans = DensePlanCache()
    for shots in (1, 40):
        counts = compiled.run(circuit, shots)
        oracle._account([circuit.depth_two_qubit()], shots)
        groups = oracle._shot_groups(shots)
        slots = realize_slots(oracle, circuit, len(groups))
        with plan_cache(plans):
            reference = oracle._run_dense(
                slot_skeleton(slots), slot_blocks(slots), groups
            )
        assert counts == reference
        _assert_same_machine_state(compiled, oracle)


# -- run_match's non-XX fallback --------------------------------------------

RUN_MATCH_CASES = {
    "sec6": (SEC6, (), {}),
    "phase-noise": (PHASE_ONLY, (), {}),
    "kicks-1q": (KICKS_1Q, (), {}),
    "phase-fault": (
        AMPLITUDE,
        (
            CouplingPhaseFault(frozenset({0, 3}), 0.5),
            CouplingFault(frozenset({1, 4}), 0.15),
        ),
        {},
    ),
    # Components above max_exact_qubits: the XX route samples them in
    # the order of the slot path's per-realization Monte-Carlo oracle.
    "oversized-component": (
        AMPLITUDE,
        (CouplingFault(frozenset({0, 3}), 0.2),),
        {"max_exact_qubits": 2},
    ),
}


@pytest.mark.parametrize("case", sorted(RUN_MATCH_CASES))
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_run_match_fallback_equals_slot_oracle(case, name):
    noise, faults, kwargs = RUN_MATCH_CASES[case]
    circuit, expected = CIRCUITS[name]()
    compiled, oracle = _twins(noise, faults=faults, **kwargs)
    plans = DensePlanCache()
    for shots in (40, 300, 300):
        assert compiled.run_match(circuit, expected, shots) == _oracle_run_match(
            oracle, plans, circuit, expected, shots
        )
    _assert_same_machine_state(compiled, oracle)


@pytest.mark.parametrize("case", sorted(RUN_MATCH_CASES))
def test_fallback_probabilities_bit_identical(case, monkeypatch):
    noise, faults, kwargs = RUN_MATCH_CASES[case]
    for name in sorted(CIRCUITS):
        monkeypatch.setattr(dense_plan, "PLAN_CACHE", DensePlanCache())
        circuit, expected = CIRCUITS[name]()
        compiled, oracle = _twins(noise, faults=faults, **kwargs)
        p = compiled._pass_probabilities(
            [as_program(circuit, expected)], 7, realizations=7
        )[1][0, 0]
        ref = _oracle_probabilities(
            oracle, DensePlanCache(), circuit, expected, 7, False
        )
        assert p.dtype == ref.dtype and p.shape == ref.shape
        assert (p == ref).all(), name
        _assert_same_machine_state(compiled, oracle)


# -- batteries ----------------------------------------------------------------


def _battery_items():
    specs = battery_specs(N, 2)
    items = [(build_test_circuit(s, N), expected_output(s, N)) for s in specs]
    return items + [_mixed(), _no_ms(), (Circuit(N), 0)]


@pytest.mark.parametrize(
    "noise, faults, engine",
    [
        (SEC6, (), "auto"),
        (PHASE_ONLY, (), "auto"),
        # Plain amplitude noise: the XX tests take the XX route.
        (AMPLITUDE, (), "auto"),
        (AMPLITUDE, (CouplingFault(frozenset({1, 4}), 0.2),), "auto"),
        (KICKS_1Q, (), "dense"),
        (AMPLITUDE, (CouplingPhaseFault(frozenset({0, 3}), -0.6),), "auto"),
        (AMPLITUDE, (CouplingFault(frozenset({1, 4}), 0.2),), "dense"),
        # A pi offset leaves the draws X-diagonal: the XX route.
        (AMPLITUDE, (CouplingPhaseFault(frozenset({0, 1}), math.pi),), "auto"),
    ],
)
def test_fresh_battery_passes_equal_slot_oracle(noise, faults, engine):
    """First and second pass: fidelities, clock, RNG and plan counts."""
    programs = [as_program(*item) for item in _battery_items()]
    plans = DensePlanCache()
    compiled, oracle = _twins(noise, faults=faults, noise_realizations=3)
    for _ in range(2):
        for program in programs:
            fids = compiled.run_battery([program], 60, trials=2, engine=engine)[0]
            ref = _oracle_trial_fidelities(
                plans, oracle, program, 60, 2, force=(engine == "dense")
            )
            assert (fids == ref).all()
        _assert_same_machine_state(compiled, oracle)
    assert compiled.stats.dense_plan_builds > 0
    assert compiled.stats.dense_plan_hits > 0


def test_tiny_batch_budget_is_bit_identical(amplitude_cap):
    """Realization rows chunked two at a time change nothing."""
    amplitude_cap(2, N)
    program = as_program(*_mixed())
    plans = DensePlanCache()
    compiled, oracle = _twins(SEC6)
    for _ in range(2):
        fids = compiled.run_battery([program], 50, trials=3, engine="dense")[0]
        ref = _oracle_trial_fidelities(plans, oracle, program, 50, 3, force=True)
        assert (fids == ref).all()
    _assert_same_machine_state(compiled, oracle)


# -- the cache ----------------------------------------------------------------


def test_programs_hold_their_dense_layouts(monkeypatch):
    """Each layout is compiled once per program and kicks setting.

    Two machines and a battery holding the same structure share one
    program, so later dense calls, from any of them, compile nothing.
    """
    compiles = []
    original = round_mod._compiled_dense_test

    def counted(ops, kicks):
        compiles.append(kicks)
        return original(ops, kicks)

    monkeypatch.setattr(round_mod, "_compiled_dense_test", counted)
    circuit, expected = _mixed()
    # A fresh op tuple: a structure no other test has wrapped.
    circuit = Circuit(N, list(circuit.ops) + [circuit.ops[0]])
    program = as_program(circuit, expected)
    a, b = _twins(SEC6)
    first, second = (
        program.dense(m.noise.residual_odd_population > 0) for m in (a, b)
    )
    assert first is second
    assert first.kicks and compiles == [True]
    # A battery holds the same program; its dense calls reuse the layout.
    mixed = [as_program(circuit, expected)]
    assert mixed == [program] and mixed[0] is program
    for _ in range(2):
        a.run_battery(mixed, 30)
        a.run_match(circuit, expected, 30)
    assert compiles == [True]
    kickless = _twins(PHASE_ONLY)[0]
    kickless.run_match(program, expected, 30)
    assert compiles == [True, False]
    assert not program.dense(False).kicks


def test_layout_without_kicks_or_ms_slots():
    circuit, _ = _no_ms()
    test = round_mod._compiled_dense_test(tuple(circuit.ops), True)
    assert not test.kicks, "no MS slot, so no kick slots"
    assert test.ms_theta.size == 0
    assert test.skeleton == tuple((op.gate, op.qubits) for op in circuit.ops)


# -- out-of-range expected bitstrings ----------------------------------------


@pytest.mark.parametrize("expected", [28, -1])
@pytest.mark.parametrize(
    "noise, route",
    [
        (NoiseParameters.paper_scaling(), "xx"),
        (NoiseParameters.paper_physical(), "dense"),
    ],
)
def test_out_of_range_expected_fails_closed(noise, route, expected):
    """A bitstring outside [0, 2^N) raises before anything is drawn."""
    machine = VirtualIonTrap(4, noise=noise, seed=1)
    circuit = Circuit(4).ms(0, 1, math.pi / 2, 0, 0)
    # The in-range call takes the route under test.
    xx = as_program(circuit, 12).xx(20)
    assert (xx is not None and noise.is_xx_preserving()) == (route == "xx")
    state = machine.rng.bit_generator.state
    with pytest.raises(ValueError, match="outside"):
        machine.run_match(circuit, expected, 100)
    assert machine.rng.bit_generator.state == state
    assert machine._clock == 0.0 and machine.stats.circuit_runs == 0
    assert sum(machine.run_match(circuit, 12, 100).values()) == 100
    with pytest.raises(ValueError, match="outside"):
        as_program(circuit, expected)
    slots = realize_slots(machine, circuit, 3)
    plan = DensePlan(4, tuple((s.gate, s.qubits) for s in slots))
    with pytest.raises(ValueError, match="outside"):
        plan.probabilities(slot_blocks(slots), expected)
