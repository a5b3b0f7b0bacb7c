"""One dense-plan cache per process: shared, thread- and fork-safe, inert.

Every machine looks its dense plans up in
:data:`repro.sim.dense_plan.PLAN_CACHE`.  What the cache already holds
decides only how a lookup is served (build, structural rebind or hit),
never a drawn or computed value: a round on a warm cache equals the
same round on a cold one bit for bit, clock, RNG state and cost
counters included.  Lookups hold the cache lock, so rounds on several
threads share it safely, and a child forked while another thread holds
that lock gets a fresh one.  A round refuses match probabilities
outside ``[0, 1]`` beyond rounding, as ``run_match`` does.
"""

import os
import select
import threading
import time

import numpy as np
import pytest
from xx_oracle import plan_cache

from repro.core.multi_fault import battery_specs
from repro.core.protocol import TestExecutor as Executor
from repro.noise.models import NoiseParameters
from repro.sim import dense_plan
from repro.sim.dense_plan import DensePlan, DensePlanCache
from repro.trap.faults import CouplingFault
from repro.trap.machine import VirtualIonTrap

#: The Sec. VI error model: every battery test takes the dense plan.
SEC6 = NoiseParameters(
    amplitude_sigma=0.10, phase_noise_rms=0.05, residual_odd_population=0.01
)
N = 8


def _both_depths(n_qubits):
    """Two canonical skeletons, each shared by one depth's tests."""
    return battery_specs(n_qubits, 2) + battery_specs(n_qubits, 4)


ROUND = _both_depths(N)


def _machine(n_qubits=N, seed=3):
    machine = VirtualIonTrap(n_qubits, noise=SEC6, seed=seed)
    machine.inject_fault(CouplingFault(frozenset({0, 4}), 0.3))
    return machine


def _costs(machine):
    stats = machine.stats
    return (
        stats.circuit_runs,
        stats.shots,
        stats.two_qubit_gates,
        stats.quantum_seconds,
    )


def _round(machine, specs=ROUND):
    return [r.fidelity for r in Executor(machine, shots=200).execute_round(specs)]


def test_cache_warmth_never_moves_values(fresh_plan_cache):
    """A warm cache serves plans by rebind and hit; values stay put.

    An N = 6 machine warms the cache with its 2-repetition battery, whose
    canonical skeleton the N = 8 2-repetition tests share: the warm twin
    rebinds those from the other size's donor and still builds the
    4-repetition core, where the cold twin builds both.
    """
    _round(_machine(6, seed=1), battery_specs(6, 2))
    cold, warm = _machine(), _machine()
    with plan_cache(DensePlanCache()):
        cold_fids = _round(cold)
    warm_fids = _round(warm)
    assert (cold.stats.dense_plan_builds, warm.stats.dense_plan_builds) == (2, 1)
    assert warm.stats.dense_plan_rebinds == cold.stats.dense_plan_rebinds + 1
    assert warm_fids == cold_fids
    assert warm.rng.bit_generator.state == cold.rng.bit_generator.state
    assert warm._clock == cold._clock
    assert _costs(warm) == _costs(cold)
    # The round's plans are all cached now: a fresh machine builds none.
    again = _machine(seed=4)
    _round(again)
    assert again.stats.dense_plan_builds == 0
    assert again.stats.dense_plan_rebinds == 0
    assert again.stats.dense_plan_hits == len(ROUND)


def test_rounds_on_four_threads_match_serial_twins(fresh_plan_cache):
    """Four threads, four machines, one cold cache: the serial values."""
    seeds = [(6, 11), (8, 12), (8, 13), (10, 14)]
    serial = {}
    for n_qubits, seed in seeds:
        twin = _machine(n_qubits, seed)
        with plan_cache(DensePlanCache()):
            fids = _round(twin, _both_depths(n_qubits))
        serial[seed] = (fids, twin.rng.bit_generator.state, _costs(twin))
    start = threading.Barrier(len(seeds))
    threaded, errors = {}, []

    def run(n_qubits, seed):
        try:
            machine = _machine(n_qubits, seed)
            start.wait()
            fids = _round(machine, _both_depths(n_qubits))
            state = machine.rng.bit_generator.state
            threaded[seed] = (fids, state, _costs(machine))
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=args) for args in seeds]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors
    assert threaded == serial
    assert not fresh_plan_cache.lock.locked()
    assert fresh_plan_cache.evictions == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_child_forked_under_a_held_lock_still_evaluates(fresh_plan_cache):
    """A fork while another thread holds the cache lock: the child's
    lookups take a fresh lock instead of waiting forever."""
    held, release = threading.Event(), threading.Event()

    def hold():
        with dense_plan.PLAN_CACHE.lock:
            held.set()
            release.wait(30)

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    assert held.wait(10)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: one round, then report and leave at once
        code = 1
        try:
            os.close(read_end)
            fids = _round(_machine(), battery_specs(N, 2))
            os.write(write_end, f"{len(fids)}".encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        ready, _, _ = select.select([read_end], [], [], 30)
        report = os.read(read_end, 64) if ready else b""
    finally:
        release.set()
        holder.join(10)
        os.close(read_end)
        deadline = time.monotonic() + 10
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)
    assert report == str(len(battery_specs(N, 2))).encode(), (
        "the forked child did not finish its round"
    )


@pytest.mark.parametrize(
    "noise", [SEC6, NoiseParameters.paper_scaling()], ids=["dense", "xx"]
)
def test_round_refuses_out_of_range_probabilities(monkeypatch, noise):
    """A kernel result outside [0, 1] fails the round before any shot is
    drawn, on either route; rounding within 1e-9 is clipped."""
    skew = [0.0]
    for kernel, name in (
        (DensePlan, "probabilities"),
        (VirtualIonTrap, "_xx_probabilities"),
    ):
        original = getattr(kernel, name)

        def skewed(*args, _original=original, **kwargs):
            return np.full_like(_original(*args, **kwargs), skew[0])

        monkeypatch.setattr(kernel, name, skewed)
    machine = VirtualIonTrap(N, noise=noise, seed=5)
    binomials = []
    machine.rng = _Counting(machine.rng, binomials)
    spec = battery_specs(N, 2)[:1]
    for skew[0] in (1.0 + 1e-6, -1e-6):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            Executor(machine).execute_round(spec)
    assert binomials == []
    for skew[0] in (1.0 + 1e-10, -1e-10):
        (result,) = Executor(machine).execute_round(spec)
        assert result.fidelity == (1.0 if skew[0] > 1 else 0.0)
    assert len(binomials) == 2


class _Counting:
    """A generator that records its ``binomial`` calls."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def binomial(self, *args, **kwargs):
        self._calls.append(args)
        return self._rng.binomial(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)
