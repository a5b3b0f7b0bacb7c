"""Deadline-without-SIGALRM tests: injectable clocks and thread fallback.

The fleet simulator runs diagnosis episodes from worker threads where
POSIX signals cannot fire, so the arena budget grew two signal-free
mechanisms pinned here: a :class:`TimeBudget` with an injectable
monotonic clock (soft expiry becomes deterministic, no sleeping), and
:func:`run_with_thread_deadline` / ``run_bounded(mechanism="thread")``
which kill a stalled diagnosis from a joining caller.  The SIGALRM path
keeps its own regression so the default mechanism stays covered.
"""

import copy
import threading
import time

import pytest

from repro.arena.budget import (
    BudgetedExecutor,
    DiagnosisTimeout,
    SoftBudgetExceeded,
    TimeBudget,
    has_hard_deadline,
    run_with_thread_deadline,
)
from repro.arena.diagnosers import Diagnosis, DiagnoserContext, run_bounded
from repro.core.multi_fault import battery_specs
from repro.trap.machine import VirtualIonTrap

needs_sigalrm = pytest.mark.skipif(
    not has_hard_deadline(), reason="platform has no SIGALRM hard deadlines"
)


class _FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


class _StallingDiagnoser:
    """Ignores its budget entirely; must be killed from outside."""

    name = "stall"

    def diagnose(self, machine, budget):
        deadline = time.perf_counter() + 30.0
        while time.perf_counter() < deadline:
            time.sleep(0.01)
        raise AssertionError("the hard deadline never fired")


class _InstantDiagnoser:
    """Returns a fixed clean diagnosis immediately."""

    name = "instant"

    def diagnose(self, machine, budget):
        return Diagnosis(diagnoser=self.name, detected=False)


def _ctx():
    return DiagnoserContext(n_qubits=4, thresholds=None)


class TestInjectableClock:
    """Soft-budget arithmetic driven by a fake clock, no sleeping."""

    def test_soft_expiry_is_deterministic(self):
        clock = _FakeClock()
        budget = TimeBudget(soft_seconds=10.0, clock=clock).begin()
        assert not budget.soft_expired()
        assert budget.soft_remaining() == 10.0
        clock.advance(9.999)
        assert not budget.soft_expired()
        clock.advance(0.001)
        assert budget.soft_expired()
        assert budget.soft_remaining() == 0.0

    def test_elapsed_tracks_the_injected_clock(self):
        clock = _FakeClock()
        budget = TimeBudget(clock=clock)
        assert budget.elapsed() == 0.0  # before begin()
        budget.begin()
        clock.advance(3.5)
        assert budget.elapsed() == 3.5

    def test_begin_restarts_the_window(self):
        clock = _FakeClock()
        budget = TimeBudget(soft_seconds=5.0, clock=clock).begin()
        clock.advance(6.0)
        assert budget.soft_expired()
        budget.begin()
        assert not budget.soft_expired()


class TestBudgetedRounds:
    """The soft budget is checked once per round, before anything is drawn."""

    def test_spent_budget_leaves_machine_and_cost_untouched(self):
        clock = _FakeClock()
        machine = VirtualIonTrap(4, seed=1)
        executor = BudgetedExecutor(
            machine,
            shots=50,
            budget=TimeBudget(soft_seconds=1.0, clock=clock).begin(),
        )
        specs = battery_specs(4, 2)
        assert len(executor.execute_round(specs)) == len(specs)
        clock.advance(1.0)
        state = machine.rng.bit_generator.state
        now = machine._clock
        stats = copy.deepcopy(machine.stats)
        cost = copy.deepcopy(executor.cost)
        with pytest.raises(SoftBudgetExceeded):
            executor.execute_round(specs)
        with pytest.raises(SoftBudgetExceeded):
            executor.execute(specs[0])
        assert machine.rng.bit_generator.state == state
        assert machine._clock == now
        assert machine.stats == stats
        assert executor.cost == cost
        assert cost.circuit_runs == len(specs)


class TestThreadDeadline:
    """The signal-free hard deadline."""

    def test_stalled_fn_raises_in_the_caller(self):
        started = time.perf_counter()
        with pytest.raises(DiagnosisTimeout):
            run_with_thread_deadline(lambda: time.sleep(30.0), 0.2)
        assert time.perf_counter() - started < 5.0

    def test_value_and_exceptions_propagate(self):
        assert run_with_thread_deadline(lambda: 41 + 1, 5.0) == 42
        with pytest.raises(KeyError):
            run_with_thread_deadline(lambda: {}["missing"], 5.0)

    def test_spent_deadline_raises_immediately(self):
        with pytest.raises(DiagnosisTimeout):
            run_with_thread_deadline(lambda: 1, 0.0)

    def test_unbounded_join(self):
        assert run_with_thread_deadline(lambda: "done", None) == "done"


class TestRunBoundedMechanisms:
    """run_bounded under each deadline mechanism."""

    def test_thread_mechanism_scores_a_stall_as_timeout(self):
        diagnosis, wall = run_bounded(
            _StallingDiagnoser(),
            machine=None,
            budget=TimeBudget(soft_seconds=0.1, hard_seconds=0.3),
            mechanism="thread",
        )
        assert diagnosis.timed_out
        assert diagnosis.claimed == ()
        assert wall < 10.0

    @needs_sigalrm
    def test_signal_mechanism_scores_a_stall_as_timeout(self):
        diagnosis, _wall = run_bounded(
            _StallingDiagnoser(),
            machine=None,
            budget=TimeBudget(soft_seconds=0.1, hard_seconds=0.3),
            mechanism="signal",
        )
        assert diagnosis.timed_out

    def test_auto_falls_back_off_the_main_thread(self):
        """From a worker thread, auto must pick the thread fallback."""
        outcome = {}

        def worker():
            outcome["has_sigalrm"] = has_hard_deadline()
            diagnosis, _wall = run_bounded(
                _StallingDiagnoser(),
                machine=None,
                budget=TimeBudget(soft_seconds=0.1, hard_seconds=0.3),
                mechanism="auto",
            )
            outcome["diagnosis"] = diagnosis

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(20.0)
        assert not thread.is_alive()
        assert outcome["has_sigalrm"] is False  # signals never arm off-main
        assert outcome["diagnosis"].timed_out

    def test_well_behaved_diagnoser_is_untouched(self):
        for mechanism in ("auto", "thread"):
            diagnosis, _wall = run_bounded(
                _InstantDiagnoser(),
                machine=None,
                budget=TimeBudget(soft_seconds=5.0, hard_seconds=10.0),
                mechanism=mechanism,
            )
            assert not diagnosis.timed_out

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError, match="mechanism"):
            run_bounded(
                _InstantDiagnoser(), None, TimeBudget(), mechanism="carrier-pigeon"
            )
