"""The compiled ``run_match`` route must equal the slot path bit for bit.

``VirtualIonTrap.run_match`` serves XX tests from the compiled entry a
:class:`TestProgram` resolves once, out of a process-wide bounded cache
(one streaming contraction plan per test structure).  The
per-call slot path (``_realize_slots`` + ``match_probabilities_slots``
from ``xx_oracle``) is the oracle: on twin same-seed machines both
routes must return ``==``-equal probabilities, equal counts, the same
clock and the same RNG state.  Settings the compiled route does not cover
must fall back without drawing anything.  A component above
``max_exact_qubits`` stays on the XX route, sampled in the oracle's
draw order.  The cache itself is bounded, shared across machines
and safe under concurrent callers.  On every route, a one-spec
``TestExecutor.execute_round`` (the machine's pass) equals
``TestExecutor.execute`` (``run_match``) bit for bit.
"""

import math
import sys
import threading

import numpy as np
import pytest
from xx_oracle import match_probabilities_slots, plan_cache, slot_run_match

from repro.core import protocol
from repro.core.protocol import TestExecutor as Executor
from repro.core.protocol import built_test
from repro.core.tests_builder import TestSpec as Spec
from repro.core.tests_builder import build_test_circuit, expected_output
from repro.noise.models import NoiseParameters
from repro.noise.spam import SpamModel
from repro.sim.circuit import Circuit
from repro.sim.dense_plan import DensePlan, DensePlanCache
from repro.sim.xx_engine import ContractionPlan
from repro.trap import machine as machine_mod
from repro.trap.faults import CouplingFault
from repro.trap.machine import VirtualIonTrap, as_program

GROUPS = 8


def _class_spec(n_qubits: int, repetitions: int = 2) -> Spec:
    pairs = tuple(
        frozenset((q, q + n_qubits // 2)) for q in range(n_qubits // 2)
    ) + (frozenset((0, 1)), frozenset((1, 2)))
    return Spec("t", pairs, repetitions)


def _class_test(n_qubits: int, repetitions: int = 2) -> tuple[Circuit, int]:
    spec = _class_spec(n_qubits, repetitions)
    return build_test_circuit(spec, n_qubits), expected_output(spec, n_qubits)


def _faulty_twins(n_qubits, noise, seed=7, **kwargs):
    twins = []
    for _ in range(2):
        m = VirtualIonTrap(n_qubits, noise=noise, seed=seed, **kwargs)
        m.inject_fault(CouplingFault(frozenset({0, n_qubits // 2}), 0.12))
        m.inject_fault(CouplingFault(frozenset({1, 2}), -0.05))
        twins.append(m)
    return twins


def _rng_state(m: VirtualIonTrap) -> dict:
    return m.rng.bit_generator.state


def _xx_route(machine, circuit, expected, n_batch):
    """``run_match``'s XX route: ``None`` (nothing drawn) if it declines."""
    test = as_program(circuit, expected).xx(machine.max_exact_qubits)
    angles = machine._xx_slot_angles(test)
    if angles is None:
        return None
    return machine._xx_probabilities(test, angles, n_batch)[0]


def _assert_identical(compiled, slots, circuit, expected):
    p = _xx_route(compiled, circuit, expected, GROUPS)
    assert p is not None, "the compiled route should apply"
    ref = match_probabilities_slots(
        slots, slots._realize_slots(circuit, GROUPS), expected
    )
    assert p.dtype == ref.dtype and p.shape == ref.shape
    assert (p == ref).all()
    assert compiled._clock == slots._clock
    assert _rng_state(compiled) == _rng_state(slots)


def _assert_counts_identical(compiled, slots, circuit, expected, rounds=3):
    for _ in range(rounds):
        assert compiled.run_match(circuit, expected, 300) == slot_run_match(
            slots, circuit, expected, 300
        )
    assert compiled._clock == slots._clock
    assert _rng_state(compiled) == _rng_state(slots)


@pytest.mark.parametrize(
    "noise",
    [
        NoiseParameters.paper_scaling(),
        NoiseParameters.amplitude_only(0.1, spam=SpamModel(0.02, 0.01)),
        NoiseParameters.noiseless(),
    ],
    ids=["amplitude", "spam", "sigma0"],
)
def test_compiled_route_is_bit_identical(noise):
    circuit, expected = _class_test(8)
    _assert_identical(*_faulty_twins(8, noise), circuit, expected)
    _assert_counts_identical(*_faulty_twins(8, noise), circuit, expected)


def test_pi_phase_offset_stays_compiled():
    circuit, expected = _class_test(8)
    twins = _faulty_twins(8, NoiseParameters.paper_scaling())
    for m in twins:
        m.calibration.set_phase_offset((0, 4), math.pi)
    _assert_identical(*twins, circuit, expected)


def _plan_lookups(machine) -> int:
    """Dense-plan lookups, however the shared process cache served them."""
    stats = machine.stats
    return stats.dense_plan_builds + stats.dense_plan_rebinds + stats.dense_plan_hits


def test_off_grid_phase_offset_falls_back_to_dense():
    circuit, expected = _class_test(8)
    compiled, slots = _faulty_twins(8, NoiseParameters.paper_scaling())
    for m in (compiled, slots):
        m.calibration.set_phase_offset((1, 2), 0.3)
    before = _rng_state(compiled)
    assert _xx_route(compiled, circuit, expected, 4) is None
    assert _rng_state(compiled) == before and compiled._clock == 0.0
    lookups = _plan_lookups(slots)
    _assert_counts_identical(compiled, slots, circuit, expected)
    assert _plan_lookups(slots) > lookups, "the slot oracle takes the dense plan"


def test_rx_x_gates_and_forced_zero_expected():
    circuit = Circuit(6)
    circuit.ms(0, 1, math.pi / 2).rx(2, 0.4).ms(1, 2, math.pi / 2, math.pi)
    circuit.x(0).xx(0, 1, 0.3).rx(2, 0.1).ms(0, 1, math.pi / 2)
    noise = NoiseParameters.paper_scaling()
    for expected in (0b110000, 0b101000, 0b000001):  # the last is forced zero
        _assert_identical(*_faulty_twins(6, noise), circuit, expected)
        _assert_counts_identical(*_faulty_twins(6, noise), circuit, expected)


def test_swap_inserted_test_falls_back():
    spec = Spec("swap", (frozenset((0, 4)), frozenset((1, 5))), 2)
    circuit = build_test_circuit(
        spec, 8, swap_insertion={frozenset((0, 4)): 6}
    )
    expected = expected_output(spec, 8)
    compiled, slots = _faulty_twins(8, NoiseParameters.paper_scaling())
    assert _xx_route(compiled, circuit, expected, 4) is None
    _assert_counts_identical(compiled, slots, circuit, expected)


@pytest.mark.parametrize("max_exact", [3, 1])
def test_component_above_exact_limit_is_sampled_on_the_xx_route(max_exact):
    """The sampled plan replays the per-realization Monte-Carlo oracle.

    The N = 8 class test has a 6-qubit and a 2-qubit component: at
    ``max_exact_qubits=3`` the first is sampled and the second exact, at
    1 both are sampled, row by row in component order.  The oracle draws
    the noise, then one spin sample per realization and sampled
    component; the plan's exact sums differ from its full tables only
    in rounding.
    """
    circuit, expected = _class_test(8)
    program = as_program(circuit, expected)

    def twins():
        return _faulty_twins(
            8, NoiseParameters.paper_scaling(), max_exact_qubits=max_exact
        )

    plan = program.xx(max_exact).plan
    assert plan.sampled
    assert sorted(map(len, plan.component_qubits)) == [2, 6]
    compiled, oracle = twins()
    p = _xx_route(compiled, circuit, expected, GROUPS)
    ref = match_probabilities_slots(
        oracle, oracle._realize_slots(circuit, GROUPS), expected
    )
    assert np.max(np.abs(p - ref)) < 1e-12
    assert compiled._clock == oracle._clock
    assert _rng_state(compiled) == _rng_state(oracle)
    _assert_counts_identical(*twins(), circuit, expected, rounds=2)
    by_pass, oracle = twins()
    fids = by_pass.run_battery([program], 300, trials=2)
    groups = np.asarray(oracle._shot_groups(300), dtype=np.int64)
    probs = match_probabilities_slots(
        oracle, oracle._realize_slots(circuit, 2 * len(groups)), expected
    )
    want = oracle._sample_fidelities(
        [program], probs.reshape(1, 2, len(groups)), 300, groups
    )
    assert (fids == want).all()
    assert by_pass._clock == oracle._clock
    assert _rng_state(by_pass) == _rng_state(oracle)


# -- one-spec rounds ------------------------------------------------------------

#: Sec. VI noise: phase noise and residual kicks.
SEC6 = NoiseParameters(
    amplitude_sigma=0.1, phase_noise_rms=0.05, residual_odd_population=0.01
)


def _x_only_program():
    """RX/X gates only: with no MS slot the XX route takes it under any
    noise, phase noise included."""
    circuit = Circuit(8).x(0).rx(4, 0.7).x(5).rx(0, 0.2)
    return as_program(circuit, 0b10000100)


#: route -> (noise, machine options, program replacing the built test).
#: The X-diagonal program without MS slots and the component above
#: ``max_exact_qubits`` both run on the compiled XX route.
ONE_SPEC_ROUTES = {
    "compiled-xx": (NoiseParameters.paper_scaling(), {}, None),
    "dense-plan": (SEC6, {}, None),
    "x-diagonal-slots": (
        NoiseParameters(amplitude_sigma=0.1, phase_noise_rms=0.05),
        {},
        _x_only_program,
    ),
    "monte-carlo": (NoiseParameters.paper_scaling(), {"max_exact_qubits": 3}, None),
}


@pytest.mark.parametrize("route", sorted(ONE_SPEC_ROUTES))
def test_one_spec_round_equals_execute(route, monkeypatch):
    noise, kwargs, program = ONE_SPEC_ROUTES[route]
    if program is not None:
        replacement = program()
        monkeypatch.setattr(protocol, "built_test", lambda *args: replacement)
    kernels = {
        ContractionPlan: _count_calls(monkeypatch, ContractionPlan, "probabilities"),
        DensePlan: _count_calls(monkeypatch, DensePlan, "probabilities"),
    }
    spec = _class_spec(8)
    by_round, by_test = _faulty_twins(8, noise, **kwargs)
    rounds = Executor(by_round, shots=300)
    tests = Executor(by_test, shots=300)
    # Each twin looks its plans up in a cache of its own.
    round_plans, test_plans = DensePlanCache(), DensePlanCache()
    for _ in range(3):
        with plan_cache(round_plans):
            got = rounds.execute_round([spec])
        with plan_cache(test_plans):
            assert got == [tests.execute(spec)]
    assert by_round._clock == by_test._clock
    assert _rng_state(by_round) == _rng_state(by_test)
    assert by_round.stats == by_test.stats
    assert rounds.cost == tests.cost
    used = {kernel for kernel, calls in kernels.items() if calls}
    assert used == {DensePlan if route == "dense-plan" else ContractionPlan}


# -- cache behaviour ------------------------------------------------------------


@pytest.fixture
def fresh_cache():
    cache = machine_mod._compiled_xx_test
    cache.cache_clear()
    yield cache
    cache.cache_clear()


def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_one_plan_serves_many_machines(fresh_cache, monkeypatch):
    circuit, expected = _class_test(12)
    builds = _count_calls(monkeypatch, ContractionPlan, "__init__")
    evals = _count_calls(monkeypatch, ContractionPlan, "probabilities")
    for seed in range(5):
        VirtualIonTrap(12, seed=seed).run_match(circuit, expected, 200)
    assert len(builds) == 1
    assert len(evals) == 5
    assert fresh_cache.cache_info().currsize == 1


def test_cache_stays_within_its_bound(fresh_cache):
    bound = fresh_cache.cache_info().maxsize
    assert bound == machine_mod._XX_TEST_CACHE_SIZE
    m = VirtualIonTrap(8, seed=1, noise=NoiseParameters.noiseless())
    for k in range(bound + 5):
        circuit = Circuit(8).ms(k % 7, k % 7 + 1, 0.001 * k)
        m.run_match(circuit, 0, 1, realizations=1)
    assert fresh_cache.cache_info().currsize == bound


def test_concurrent_callers_agree(fresh_cache):
    """Threads racing on cold cache entries neither raise nor disagree.

    More threads than cores and a short switch interval force misses on
    the same keys to interleave; every thread must still reproduce the
    sequential reference, and the cache must hold one entry per test.
    """
    tests = [_class_test(12, r) for r in (2, 4, 6)]
    n_threads = 4

    def trial(out: list, barrier=None):
        m = VirtualIonTrap(12, seed=9)
        m.inject_fault(CouplingFault(frozenset({0, 6}), 0.1))
        if barrier is not None:
            barrier.wait(timeout=30)
        for _ in range(3):
            for circuit, expected in tests:
                out.append(m.run_match(circuit, expected, 200))

    reference: list = []
    trial(reference)
    fresh_cache.cache_clear()
    barrier = threading.Barrier(n_threads)
    results: list[list] = [[] for _ in range(n_threads)]
    errors: list[Exception] = []

    def worker(k):
        try:
            trial(results[k], barrier)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(k,)) for k in range(n_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert all(out == reference for out in results)
    assert fresh_cache.cache_info().currsize == len(tests)


# -- built-test memo ------------------------------------------------------------


def test_executor_builds_each_test_once(monkeypatch):
    built_test.cache_clear()
    builds = []
    original = protocol.build_test_circuit

    def counted(spec, n_qubits, *args, **kwargs):
        builds.append(spec.pairs)
        return original(spec, n_qubits, *args, **kwargs)

    monkeypatch.setattr(protocol, "build_test_circuit", counted)
    executor = Executor(VirtualIonTrap(8, seed=2), shots=100)
    pairs = (frozenset((0, 4)), frozenset((1, 5)))
    for name in ("a", "b", "c"):
        executor.execute(Spec(name, pairs, 2, kind="point"))
    assert len(builds) == 1
    program = built_test(pairs, 2, 8)
    fresh = build_test_circuit(Spec("x", pairs, 2), 8)
    assert program.circuit.ops == fresh.ops
    assert program.expected == expected_output(Spec("x", pairs, 2), 8)
    assert program.n_two_qubit == fresh.depth_two_qubit()
    assert program is as_program(fresh, program.expected)
    built_test.cache_clear()


def test_repetitions_share_one_operation():
    spec = Spec("t", (frozenset((0, 1)), frozenset((2, 3))), 4)
    ops = build_test_circuit(spec, 4).ops
    assert ops[0] is ops[3] and ops[4] is ops[7] and ops[0] is not ops[4]
    assert ops[0].params == (math.pi / 2, 0.0, 0.0)
