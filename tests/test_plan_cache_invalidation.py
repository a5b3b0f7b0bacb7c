"""Dense-plan cache keys and the invalidation counter.

The regression these tests pin: plans are keyed by ``(n_qubits, slot
skeleton)`` and *nothing else* — changing an evaluation knob such as
``max_batch_bytes`` between calls on the same machine must be served
from cache, never silently recompiled.  ``MachineStats`` carries an
explicit ``dense_plan_invalidations`` counter (LRU evictions attributed
to the machine) so a stable workload can assert zero churn and a
skeleton-churning one can see its evictions.
"""

import numpy as np

from repro.core.multi_fault import battery_specs
from repro.core.protocol import compile_test_battery
from repro.noise.models import NoiseParameters
from repro.sim.circuit import Circuit
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


def test_battery_cache_key_ignores_max_batch_bytes():
    """Changing max_batch_bytes between calls must not recompile plans."""
    machine = _dense_machine()
    specs = battery_specs(machine.n_qubits, 2)
    battery = compile_test_battery(machine.n_qubits, specs)
    for index in range(len(specs)):
        battery.trial_fidelities(machine, index, 50, trials=1, realizations=2)
    builds = machine.stats.dense_plan_builds
    assert builds + machine.stats.dense_plan_rebinds == len(specs)
    assert machine.stats.dense_plan_hits == 0
    for budget in (1 << 12, 1 << 20, None):
        machine.max_batch_bytes = budget
        for index in range(len(specs)):
            battery.trial_fidelities(
                machine, index, 50, trials=1, realizations=2
            )
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
        battery = compile_test_battery(machine.n_qubits, specs)
        p = machine._pass_probabilities(
            battery.tests[:1], 50, trials=3, realizations=2
        )[1][0]
        probs.append(p)
    assert np.max(np.abs(probs[0] - probs[1])) < 1e-12


def test_machine_run_cache_key_ignores_max_batch_bytes():
    """The machine-level plan cache is budget-agnostic too."""
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
    """LRU drops are counted and drained through take_invalidations()."""
    cache = DensePlanCache(max_plans=1)
    first = (("MS", (0, 1)),)
    second = (("MS", (1, 2)),)
    cache.get(4, first)
    assert cache.evictions == 0
    cache.get(4, second)  # evicts the first plan
    assert cache.evictions == 1
    assert cache.take_invalidations() == 1
    assert cache.take_invalidations() == 0, "the pending count drains"
    _, hit = cache.get(4, second)
    assert hit and cache.evictions == 1


def test_machine_stats_report_cache_churn():
    """Skeleton churn past the cache bound lands in MachineStats."""
    machine = _dense_machine()
    machine._dense_plans = DensePlanCache(max_plans=1)
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
