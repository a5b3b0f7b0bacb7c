"""Compiled dense batteries do the work of one draw per test, not per trial.

Both the compiled battery and a per-trial ``TestExecutor`` loop run the
same :class:`~repro.sim.dense_plan.DensePlan` kernel under the same
noise model, so the compiled route's advantage comes from exactly four
mechanisms: trial stacking (one noise draw and one kernel call per test
for all trials x realization groups), test stacking (a battery pass
contracts every test sharing a plan core in one kernel call), plan
reuse (the process-wide plan cache plus canonical rebinds across one
family's tests) and fusion (adjacent slots on at most two qubits
collapse into one application).  These tests count each of them on the
Fig. 6 / Fig. 7 workload shapes, so a regression in any one fails
deterministically instead of showing up as a slower wall clock.  A
predetermined round through ``TestExecutor.execute_round`` is one such
pass too: one binomial draw per round (the arena's battery diagnoser).
"""

import pytest

from repro.analysis.experiments.fig6 import battery_specs
from repro.analysis.detection import CalibratedThresholds
from repro.arena.budget import TimeBudget
from repro.arena.diagnosers import BatteryDiagnoser, DiagnoserContext
from repro.core import multi_fault
from repro.core.protocol import FixedThresholds, built_test
from repro.core.protocol import TestExecutor as Executor
from repro.noise.models import GateNoiseModel, NoiseParameters
from repro.noise.spam import SpamModel
from repro.sim.dense_plan import DensePlan
from repro.trap.faults import CouplingFault
from repro.trap.machine import VirtualIonTrap

N_QUBITS = 8
#: The Sec. VI error model of the Fig. 7 threshold calibration.
SEC6_NOISE = NoiseParameters(
    amplitude_sigma=0.10, residual_odd_population=0.01, phase_noise_rms=0.05
)


@pytest.fixture
def work(monkeypatch, fresh_plan_cache):
    """Count MS noise draws, plan compiles and kernel calls.

    ``draws`` holds the batch width of every MS block drawn and
    ``plans`` every plan a kernel call ran, one entry per call.  Plans
    compile into a fresh process cache, so the counts do not depend on
    what ran earlier.
    """
    tally = {"draws": [], "plans": [], "compiles": 0}
    draw = GateNoiseModel.noisy_ms_params_block
    init = DensePlan.__init__
    probabilities = DensePlan.probabilities

    def counted_draw(self, *args, **kwargs):
        block = draw(self, *args, **kwargs)
        tally["draws"].append(block.shape[1])
        return block

    def counted_init(self, *args, **kwargs):
        tally["compiles"] += 1
        init(self, *args, **kwargs)

    def counted_probabilities(self, *args, **kwargs):
        tally["plans"].append(self)
        return probabilities(self, *args, **kwargs)

    monkeypatch.setattr(GateNoiseModel, "noisy_ms_params_block", counted_draw)
    monkeypatch.setattr(DensePlan, "__init__", counted_init)
    monkeypatch.setattr(DensePlan, "probabilities", counted_probabilities)
    return tally


def _assert_fused(plans, slots_by_depth):
    """Every plan is 4 local qubits whose slots fuse into 6 applications."""
    for plan in plans:
        assert plan.n_local == 4
        assert len(plan.skeleton) in slots_by_depth
        assert plan.apply_count() == 6


def test_fig7_battery_stacks_trials_into_one_draw_per_test(work):
    """Sec. VI noise, 24 trials x 4 groups: 30 draws where a loop made 720.

    The Fig. 7 threshold-calibration shape: every test of the
    2/4/8-repetition families runs 24 trials of 4 realization groups.
    A per-trial loop draws and evaluates 30 x 24 = 720 times; a
    one-test pass of all trials draws each test's 96 rows at once, calls
    the kernel once per test and compiles one plan per family (the other
    nine tests of a family rebind it).
    """
    trials, groups = 24, 4
    machine = VirtualIonTrap(
        N_QUBITS, noise=SEC6_NOISE, seed=3, noise_realizations=groups
    )
    n_tests = 0
    for repetitions in (2, 4, 8):
        specs = battery_specs(N_QUBITS, repetitions)
        for spec in specs:
            program = built_test(tuple(spec.pairs), spec.repetitions, N_QUBITS)
            fidelities = machine.run_battery([program], 200, trials=trials)
            assert fidelities.shape == (1, trials)
        n_tests += len(specs)
    assert n_tests == 30
    assert work["draws"] == [trials * groups] * n_tests
    assert len(work["plans"]) == n_tests
    assert work["compiles"] == 3
    assert machine.stats.dense_plan_rebinds == n_tests - 3
    _assert_fused(work["plans"], {36, 72, 144})


def test_fig7_per_trial_executor_draws_once_per_trial(work):
    """The loop a stacked pass replaces: one draw per trial.

    A ``TestExecutor`` runs one trial per call, so the 2-repetition
    family's 10 tests x 24 trials make 240 draws of 4 rows and 240
    kernel calls, where one pass per test makes 10 of each (the 24x
    that trial stacking removes).  Plan reuse and fusion hold on this
    route too: the machine compiles one plan and rebinds it for the
    family's other nine tests.
    """
    trials, groups = 24, 4
    machine = VirtualIonTrap(
        N_QUBITS, noise=SEC6_NOISE, seed=3, noise_realizations=groups
    )
    executor = Executor(
        machine, thresholds=CalibratedThresholds(default=0.5), shots=200
    )
    specs = battery_specs(N_QUBITS, 2)
    for spec in specs:
        for _ in range(trials):
            executor.execute(spec)
    assert len(specs) == 10
    assert work["draws"] == [groups] * (len(specs) * trials)
    assert len(work["plans"]) == len(specs) * trials
    assert work["compiles"] == 1
    assert machine.stats.dense_plan_rebinds == len(specs) - 1
    _assert_fused(work["plans"], {36})


def test_fig6_warm_batteries_compile_once_across_machines(work):
    """Six fresh machines, two battery rounds each: 120 draws, 12 kernel calls.

    The validate/service pattern: the paper's two Fig. 6 batteries
    diagnose six fresh seeded machines.  A plan per evaluation would
    compile 120 times; the process plan cache compiles one plan per
    depth, rebinds it for the other nine tests and serves every later
    machine.  Each battery pass draws
    its ten tests one by one but contracts them in one stacked call on
    their shared plan core: one call per machine and depth.
    """
    noise = NoiseParameters(
        amplitude_sigma=0.10,
        residual_odd_population=0.03,
        phase_noise_rms=0.08,
        spam=SpamModel(0.005, 0.005),
    )
    thresholds = FixedThresholds(by_repetitions=((2, 0.45), (4, 0.25)))
    batteries = [battery_specs(N_QUBITS, r) for r in (2, 4)]
    hits = rebinds = 0
    for replicate in range(6):
        machine = VirtualIonTrap(N_QUBITS, noise=noise, seed=100 + replicate)
        machine.inject_fault(CouplingFault(frozenset({0, 4}), 0.47))
        machine.inject_fault(CouplingFault(frozenset({0, 7}), 0.22))
        executor = Executor(machine, thresholds=thresholds, shots=300)
        for specs in batteries:
            results = executor.execute_round(specs)
            assert len(results) == len(specs)
        hits += machine.stats.dense_plan_hits
        rebinds += machine.stats.dense_plan_rebinds
    assert work["draws"] == [8] * 120
    assert len(work["plans"]) == 6 * len(batteries)
    assert work["compiles"] == 2
    assert (rebinds, hits) == (18, 100)
    _assert_fused(work["plans"], {36, 72})


class _CountingRng:
    """A machine's generator, counting its ``binomial`` calls."""

    def __init__(self, rng):
        self._rng = rng
        self.binomials = 0

    def binomial(self, *args, **kwargs):
        self.binomials += 1
        return self._rng.binomial(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_battery_diagnoser_samples_once_per_round(work):
    """A battery diagnosis: one binomial draw per repetition count.

    The arena's battery diagnoser runs the 2- and 4-repetition batteries
    as two rounds on a fresh Sec. VI machine.  Each round draws its
    tests in order (one MS block per test), contracts each canonical
    skeleton once on the process plan cache and samples every
    test's shots with one binomial draw, where a loop over the tests
    draws a binomial and calls the kernel once per test.
    """
    ctx = DiagnoserContext(
        N_QUBITS, thresholds=CalibratedThresholds(default=0.5), shots=200
    )
    machine = VirtualIonTrap(N_QUBITS, noise=SEC6_NOISE, seed=3)
    machine.rng = _CountingRng(machine.rng)
    diagnosis = BatteryDiagnoser(ctx).diagnose(machine, TimeBudget().begin())
    rounds = [
        multi_fault.battery_specs(N_QUBITS, r) for r in ctx.repetition_counts
    ]
    n_tests = sum(len(specs) for specs in rounds)
    cores = [
        {
            built_test(tuple(spec.pairs), spec.repetitions, N_QUBITS)
            .dense(True)
            .canonical
            for spec in specs
        }
        for specs in rounds
    ]
    assert diagnosis.tests_used == n_tests
    assert machine.rng.binomials == len(rounds)
    assert work["draws"] == [machine.noise_realizations] * n_tests
    assert len(work["plans"]) == sum(len(c) for c in cores) < n_tests
