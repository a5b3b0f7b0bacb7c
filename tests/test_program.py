"""A built test is a value: ``TestProgram`` routes and array calibration.

``run_match`` takes a :class:`~repro.trap.machine.TestProgram` resolved
once, or a bare circuit it wraps into one.  On twin same-seed machines
both must give identical counts, RNG state, clock and
:class:`MachineStats` on every route.  A warm call on a built program
hashes no ``Operation`` and looks up no coupling one by one.  The
calibration arrays stay symmetric and agree with every accessor, and
the compiled XX entries programs hold stay within the one cache's
bound.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from xx_oracle import plan_cache

from repro.core.protocol import built_test
from repro.core.tests_builder import TestSpec as Spec
from repro.core.tests_builder import build_test_circuit, expected_output
from repro.noise.models import NoiseParameters
from repro.noise.spam import SpamModel
from repro.sim.circuit import Circuit, Operation
from repro.sim.dense_plan import DensePlanCache
from repro.trap import machine as machine_mod
from repro.trap.calibration import CalibrationState, all_pairs
from repro.trap.faults import CouplingFault, CouplingPhaseFault
from repro.trap.machine import VirtualIonTrap, as_program

N = 8
PAIRS = (frozenset({0, 4}), frozenset({1, 5}), frozenset({0, 1}), frozenset({2, 3}))
SEC6 = NoiseParameters(
    amplitude_sigma=0.10, phase_noise_rms=0.05, residual_odd_population=0.01
)
AMPLITUDE = NoiseParameters.paper_scaling()
FAULTS = (CouplingFault(frozenset({0, 4}), 0.15), CouplingFault(frozenset({2, 3}), -0.1))


def _class_test():
    return Spec("t", PAIRS, 2)


def _linear_only():
    """RX/X gates only: with no MS slot the XX route takes it under any
    noise, the Sec. VI model included."""
    return Circuit(N).rx(0, 0.4).x(3).rx(0, 0.2), 0b00010000


#: route -> (noise, extra faults, machine kwargs, circuit builder); the
#: dense routes, and only they, build dense plans.
ROUTES = {
    "xx": (AMPLITUDE, (), {}, None),
    "dense-phase-offset": (
        AMPLITUDE, (CouplingPhaseFault(frozenset({1, 5}), 0.5),), {}, None,
    ),
    "dense-sec6": (SEC6, (), {}, None),
    "x-diagonal-slots": (SEC6, (), {}, _linear_only),
    "oversized-component": (AMPLITUDE, (), {"max_exact_qubits": 2}, None),
    "spam": (
        NoiseParameters.amplitude_only(0.1, spam=SpamModel(0.02, 0.01)),
        (), {}, None,
    ),
}


def _twins(noise, faults=(), **kwargs):
    twins = []
    for _ in range(2):
        m = VirtualIonTrap(N, noise=noise, seed=13, **kwargs)
        for fault in FAULTS + tuple(faults):
            m.inject_fault(fault)
        twins.append(m)
    return twins


def _assert_same_state(a, b):
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert a._clock == b._clock
    assert a.stats == b.stats


def _program_and_bare(builder):
    """A built program and a bare circuit of the same structure built
    separately (equal ops, distinct objects)."""
    if builder is None:
        spec = _class_test()
        program = built_test(spec.pairs, spec.repetitions, N)
        return program, build_test_circuit(spec, N), expected_output(spec, N)
    circuit, expected = builder()
    bare = Circuit(N, [Operation(op.gate, op.qubits, op.params) for op in circuit])
    return as_program(circuit, expected), bare, expected


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_program_and_bare_circuit_agree_on_every_route(route):
    noise, faults, kwargs, builder = ROUTES[route]
    program, bare, expected = _program_and_bare(builder)
    assert bare.ops is not program.circuit.ops
    assert program.expected == expected
    with_program, with_circuit = _twins(noise, faults, **kwargs)
    # Each twin looks its plans up in a cache of its own.
    program_plans, circuit_plans = DensePlanCache(), DensePlanCache()
    for shots, realizations in ((300, None), (57, 3), (300, None)):
        with plan_cache(program_plans):
            got = with_program.run_match(program, expected, shots, realizations)
        with plan_cache(circuit_plans):
            want = with_circuit.run_match(bare, expected, shots, realizations)
        assert got == want
        _assert_same_state(with_program, with_circuit)
    assert with_program.stats.two_qubit_gates == (
        bare.depth_two_qubit() * (300 + 57 + 300)
    )
    dense = route.startswith("dense")
    assert (with_program.stats.dense_plan_builds > 0) == dense


def test_battery_and_sweep_share_programs_with_run_match():
    """Batteries hold the built programs; bare items wrap to equal ones."""
    specs = [_class_test(), Spec("u", PAIRS[1:], 4)]
    battery = [built_test(spec.pairs, spec.repetitions, N) for spec in specs]
    bare = [as_program(build_test_circuit(s, N), expected_output(s, N)) for s in specs]
    assert bare == battery
    a, b = _twins(AMPLITUDE)
    for program, twin in zip(battery, bare):
        assert (
            a.run_battery([program], 90, trials=3)
            == b.run_battery([twin], 90, trials=3)
        ).all()
        mags = np.array([0.0, 0.1, 0.3])
        assert (
            a.sweep_fidelities(program, (1, 5), mags, 90, trials=2)
            == b.sweep_fidelities(twin, (1, 5), mags, 90, trials=2)
        ).all()
        assert a.run_match(program, program.expected, 80) == b.run_match(
            program.circuit, program.expected, 80
        )
        _assert_same_state(a, b)


def test_run_match_refuses_a_mismatched_program():
    program = built_test(PAIRS, 2, N)
    machine = VirtualIonTrap(N, seed=1)
    state = machine.rng.bit_generator.state
    with pytest.raises(ValueError, match="program expects"):
        machine.run_match(program, program.expected ^ 1, 100)
    with pytest.raises(ValueError, match="program expects"):
        VirtualIonTrap(N + 1, seed=1).run_match(program, program.expected, 100)
    assert machine.rng.bit_generator.state == state
    assert machine.stats.circuit_runs == 0


# -- the structural guard ----------------------------------------------------


def _count(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("noise", [AMPLITUDE, SEC6], ids=["xx", "dense"])
def test_warm_run_match_hashes_no_op_and_looks_up_no_coupling(
    monkeypatch, noise
):
    machine = _twins(noise)[0]
    program = built_test(PAIRS, 2, N)
    machine.run_match(program, program.expected, 100)  # warm
    calls: list[str] = []
    _count(monkeypatch, Operation, "__hash__", calls)
    _count(monkeypatch, Operation, "__eq__", calls)
    for name in ("_key", "under_rotation", "phase_offset"):
        _count(monkeypatch, CalibrationState, name, calls)
    for _ in range(3):
        machine.run_match(program, program.expected, 100)
    assert calls == []


# -- calibration arrays ------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_calibration_arrays_stay_symmetric_and_agree(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    state = CalibrationState(n)
    pairs = all_pairs(n)

    def some_pair():
        i, j = sorted(map(int, rng.choice(n, 2, replace=False)))
        return (j, i) if rng.random() < 0.5 else frozenset({i, j})

    for _ in range(60):
        action = rng.integers(6)
        if action == 0:
            state.set_under_rotation(some_pair(), float(rng.uniform(-1, 1)))
        elif action == 1:
            state.set_phase_offset(some_pair(), float(rng.uniform(-3, 3)))
        elif action == 2:
            pair = frozenset(some_pair())
            if rng.random() < 0.5:
                state.inject_fault(CouplingFault(pair, float(rng.uniform(0, 1))))
            else:
                state.inject_fault(
                    CouplingPhaseFault(pair, float(rng.uniform(-3, 3)))
                )
        elif action == 3:
            state.recalibrate(some_pair())
        elif action == 4 and rng.random() < 0.2:
            state.recalibrate()
        elif action == 5:
            chosen = rng.choice(len(pairs), int(rng.integers(1, len(pairs) + 1)))
            state.load_snapshot(
                {pairs[int(k)]: float(rng.uniform(-1, 1)) for k in chosen}
            )
        for values in (state.under_rotations, state.phase_offsets):
            assert values.shape == (n, n)
            assert (values == values.T).all()
            assert not values.diagonal().any()
        snapshot = state.snapshot()
        assert list(snapshot) == pairs
        for pair in pairs:
            i, j = sorted(pair)
            assert state.under_rotation(pair) == snapshot[pair]
            assert snapshot[pair] == state.under_rotations[i, j]
            assert state.phase_offset((j, i)) == state.phase_offsets[i, j]
        assert state.has_phase_offsets() == bool(state.phase_offsets.any())


def test_calibration_setters_validate_as_before():
    state = CalibrationState(4)
    with pytest.raises(KeyError, match=r"unknown coupling \[1\]"):
        state.set_under_rotation((1, 1), 0.1)
    with pytest.raises(KeyError, match=r"unknown coupling \[0, 9\]"):
        state.phase_offset((0, 9))
    with pytest.raises(ValueError, match="outside"):
        state.set_under_rotation((0, 1), 1.5)
    with pytest.raises(ValueError, match="outside"):
        state.set_phase_offset((0, 1), -4.0)
    state.set_phase_offset((2, 3), math.pi)
    assert state.largest_faults(1)[0].under_rotation == 0.0
    assert not state.under_rotations.any() and state.phase_offsets[3, 2] == math.pi


# -- the memory bound --------------------------------------------------------


def test_held_programs_pin_no_more_plans_than_the_cache_bound(resident_bytes):
    """Programs kept alive (as the 2048-entry built-test cache keeps
    them) hold their XX entries weakly: only the cache's 1024 entries,
    at most 64 KiB of plan arrays each, stay alive."""
    cache = machine_mod._compiled_xx_test
    bound = cache.cache_info().maxsize
    assert bound == machine_mod._XX_TEST_CACHE_SIZE == 1024
    cache.cache_clear()
    try:
        programs = [
            as_program(Circuit(N).ms(k % 7, k % 7 + 1, 1e-4 * (k + 1)), 0)
            for k in range(bound + 16)
        ]
        refs = [weakref.ref(program.xx(20)) for program in programs]
        gc.collect()
        alive = [entry for entry in (ref() for ref in refs) if entry is not None]
        assert len(alive) == bound
        sizes = [resident_bytes(entry.plan) for entry in alive]
        assert max(sizes) <= 64 * 1024
        assert sum(sizes) <= bound * 64 * 1024 == 64 * 2**20
        # An evicted entry is compiled again on its program's next use.
        assert refs[0]() is None and programs[0].xx(20) is not None
    finally:
        cache.cache_clear()
