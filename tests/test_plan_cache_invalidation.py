"""Dense-plan cache keys and the invalidation counter.

The regression these tests pin: plans are keyed by ``(n_qubits, slot
skeleton)`` and *nothing else* — changing an evaluation knob such as
``max_batch_bytes`` between calls on the same machine must be served
from cache, never silently recompiled.  ``MachineStats`` carries an
explicit ``dense_plan_invalidations`` counter (LRU evictions of the
process-wide cache during the machine's lookups) so a stable workload
can assert zero churn and a skeleton-churning one can see its
evictions.  Tests that count per-machine builds start from a fresh
process cache (the ``fresh_plan_cache`` fixture).
"""

import numpy as np

from repro.core.multi_fault import battery_specs
from repro.core.protocol import built_test
from repro.noise.models import NoiseParameters
from repro.sim.circuit import Circuit
from repro.sim import dense_plan
from repro.sim.dense_plan import DensePlanCache
from repro.trap.machine import VirtualIonTrap

#: The full Sec. VI error model: forces the compiled dense path.
DENSE_NOISE = NoiseParameters(
    amplitude_sigma=0.10,
    phase_noise_rms=0.05,
    residual_odd_population=0.01,
)


def _dense_machine(**kwargs) -> VirtualIonTrap:
    return VirtualIonTrap(
        6, noise=DENSE_NOISE, seed=9, noise_realizations=2, **kwargs
    )


def _programs(specs, n_qubits):
    return [built_test(tuple(s.pairs), s.repetitions, n_qubits) for s in specs]


def test_battery_cache_key_ignores_max_batch_bytes(fresh_plan_cache):
    """Changing max_batch_bytes between calls must not recompile plans."""
    machine = _dense_machine()
    specs = battery_specs(machine.n_qubits, 2)
    programs = _programs(specs, machine.n_qubits)
    for program in programs:
        machine.run_battery([program], 50, realizations=2)
    builds = machine.stats.dense_plan_builds
    assert builds + machine.stats.dense_plan_rebinds == len(specs)
    assert machine.stats.dense_plan_hits == 0
    for budget in (1 << 12, 1 << 20, None):
        machine.max_batch_bytes = budget
        for program in programs:
            machine.run_battery([program], 50, realizations=2)
    assert machine.stats.dense_plan_builds == builds, (
        "a max_batch_bytes change silently recompiled cached plans"
    )
    assert machine.stats.dense_plan_hits == 3 * len(specs)
    assert machine.stats.dense_plan_invalidations == 0


def test_battery_results_stable_across_batch_budgets():
    """Chunked evaluation under a tiny budget equals the unchunked run."""
    probs = []
    for budget in (None, 1 << 10):
        machine = _dense_machine(max_batch_bytes=budget)
        specs = battery_specs(machine.n_qubits, 2)
        p = machine._pass_probabilities(
            _programs(specs[:1], machine.n_qubits), 50, trials=3, realizations=2
        )[1][0]
        probs.append(p)
    assert np.max(np.abs(probs[0] - probs[1])) < 1e-12


def test_machine_run_cache_key_ignores_max_batch_bytes():
    """``run_match``'s plan lookups are budget-agnostic too."""
    machine = _dense_machine()
    circuit = Circuit(6).ms(0, 1, np.pi / 2).ms(1, 2, np.pi / 2)
    machine.run_match(circuit, 0, shots=20)
    builds = machine.stats.dense_plan_builds
    machine.max_batch_bytes = 1 << 14
    machine.run_match(circuit, 0, shots=20)
    assert machine.stats.dense_plan_builds == builds
    assert machine.stats.dense_plan_hits >= 1
    assert machine.stats.dense_plan_invalidations == 0


def test_dense_plan_cache_counts_evictions():
    """LRU drops are counted in ``evictions``."""
    cache = DensePlanCache(max_plans=1)
    first = (("MS", (0, 1)),)
    second = (("MS", (1, 2)),)
    cache.get(4, first)
    assert cache.evictions == 0
    cache.get(4, second)  # evicts the first plan
    assert cache.evictions == 1
    _, hit = cache.get(4, second)
    assert hit and cache.evictions == 1


def test_machine_stats_report_cache_churn(monkeypatch):
    """Skeleton churn past the cache bound lands in MachineStats."""
    machine = _dense_machine()
    monkeypatch.setattr(dense_plan, "PLAN_CACHE", DensePlanCache(max_plans=1))
    a = Circuit(6).ms(0, 1, np.pi / 2)
    b = Circuit(6).ms(2, 3, np.pi / 2)
    machine.run_match(a, 0, shots=10)
    assert machine.stats.dense_plan_invalidations == 0
    machine.run_match(b, 0, shots=10)  # different skeleton: evicts a's plan
    assert machine.stats.dense_plan_invalidations == 1
    machine.run_match(a, 0, shots=10)  # re-enters the cache, evicts again
    assert machine.stats.dense_plan_invalidations == 2
    machine.stats.reset()
    assert machine.stats.dense_plan_invalidations == 0
