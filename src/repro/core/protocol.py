"""Shared protocol infrastructure: execution, thresholds, outcomes.

The fault-testing protocols are expressed against a tiny backend surface —
anything with ``run_match(test, expected, shots)`` taking a built
:class:`~repro.trap.machine.TestProgram` — so they run unchanged on the
virtual trap, on a noiseless simulator adapter, or (in principle) on real
hardware.  :class:`TestExecutor` turns a
:class:`~repro.core.tests_builder.TestSpec` into a pass/fail
:class:`TestResult` by comparing the measured target-state fidelity to a
threshold policy (Figs. 6/7 use fixed thresholds; the multi-fault loop of
Fig. 5 adjusts thresholds to maximize fault/no-fault contrast).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Protocol as TypingProtocol

from ..sim.sampling import Counts, match_fraction
from ..trap.machine import CompiledBattery, TestProgram, as_program
from .cost import CostTracker
from .tests_builder import TestSpec, build_test_circuit, expected_output

__all__ = [
    "MatchBackend",
    "ThresholdPolicy",
    "FixedThresholds",
    "TestResult",
    "TestExecutor",
    "DiagnosisReport",
    "compile_test_battery",
    "execute_compiled_battery",
]

Pair = frozenset[int]

#: Built test programs kept per process (least recently used dropped
#: first).  Each program's circuit holds one shared frozen operation per
#: coupling and only weak references to its compiled XX entries, so
#: entries stay small.
_BUILT_TEST_CACHE_SIZE = 2048


class MatchBackend(TypingProtocol):
    """Minimal machine surface the protocols need.

    ``test`` is a :class:`~repro.trap.machine.TestProgram` from
    :func:`built_test` and ``expected`` its own bitstring; a backend may
    read the program's ``circuit`` or use the compiled entries it holds.
    ``realizations`` is the optional shot-batching hint: how many
    independent noise realizations to split the shots across (backends
    without stochastic noise may ignore it).
    """

    n_qubits: int

    def run_match(
        self,
        test: TestProgram,
        expected: int,
        shots: int,
        realizations: int | None = None,
    ) -> Counts:  # pragma: no cover - protocol definition
        """Run a test and report counts for the expected bitstring."""
        ...


class ThresholdPolicy(TypingProtocol):
    """Maps a test's repetition count (and role) to its fidelity threshold."""

    def threshold_for(
        self, repetitions: int, kind: str = "class"
    ) -> float:  # pragma: no cover - protocol definition
        """Fidelity threshold for a test family."""
        ...


@dataclass(frozen=True)
class FixedThresholds:
    """Fixed per-repetition-count thresholds, e.g. Fig. 6's 0.45 / 0.25.

    ``default`` applies to repetition counts without an explicit entry.
    Canary tests exercise every relevant coupling at once, so their
    baseline fidelity is lower; ``canary_margin`` scales their threshold.
    """

    by_repetitions: tuple[tuple[int, float], ...] = ((2, 0.45), (4, 0.25))
    default: float = 0.5
    canary_margin: float = 1.0

    def threshold_for(self, repetitions: int, kind: str = "class") -> float:
        """Threshold for the repetition count, scaled for canaries."""
        threshold = self.default
        for reps, value in self.by_repetitions:
            if reps == repetitions:
                threshold = value
                break
        if kind == "canary":
            threshold *= self.canary_margin
        return threshold


@dataclass(frozen=True)
class TestResult:
    """Outcome of one executed test."""

    spec: TestSpec
    fidelity: float
    threshold: float
    shots: int

    @property
    def failed(self) -> bool:
        """A *failing* test signals a fault among its couplings."""
        return self.fidelity < self.threshold

    @property
    def passed(self) -> bool:
        return not self.failed


@dataclass
class TestExecutor:
    """Runs test specs on a backend and applies the threshold policy.

    Parameters
    ----------
    machine:
        The backend (usually a :class:`~repro.trap.machine.VirtualIonTrap`).
    thresholds:
        Pass/fail policy.
    shots:
        Shots per test circuit (the paper uses 300-1000).
    shot_batch:
        Optional shot-batching override threaded through to the backend:
        the number of noise-realization groups the shots are split across
        per test.  ``None`` keeps the backend's own granularity.
    cost:
        Optional cost tracker shared across a diagnosis session.
    """

    machine: MatchBackend
    thresholds: ThresholdPolicy = field(default_factory=FixedThresholds)
    shots: int = 300
    shot_batch: int | None = None
    cost: CostTracker = field(default_factory=CostTracker)

    def execute(self, spec: TestSpec) -> TestResult:
        """Build, run and judge one test."""
        n = self.machine.n_qubits
        threshold = self.thresholds.threshold_for(spec.repetitions, spec.kind)
        if not spec.pairs:
            # An empty test (all couplings excluded) trivially passes.
            return TestResult(
                spec=spec, fidelity=1.0, threshold=threshold, shots=self.shots
            )
        program = built_test(tuple(spec.pairs), spec.repetitions, n)
        counts = self.machine.run_match(
            program, program.expected, self.shots, realizations=self.shot_batch
        )
        fidelity = match_fraction(counts, program.expected)
        self.cost.record_run(spec, self.shots)
        return TestResult(
            spec=spec, fidelity=fidelity, threshold=threshold, shots=self.shots
        )

    def execute_batch(self, specs: list[TestSpec]) -> list[TestResult]:
        """Run a predetermined batch (no adaptation between tests)."""
        return [self.execute(spec) for spec in specs]


@lru_cache(maxsize=_BUILT_TEST_CACHE_SIZE)
def built_test(
    pairs: tuple[Pair, ...], repetitions: int, n_qubits: int
) -> TestProgram:
    """The :class:`~repro.trap.machine.TestProgram` of a test, built once.

    Only the couplings, the repetition count and the machine size shape a
    test circuit, so every spec sharing them shares one program (and
    :func:`~repro.trap.machine.as_program` shares it with bare circuits
    of the same structure).  Callers must not mutate its circuit.
    """
    spec = TestSpec("built", pairs, repetitions)
    return as_program(
        build_test_circuit(spec, n_qubits), expected_output(spec, n_qubits)
    )


def compile_test_battery(
    n_qubits: int, specs: list[TestSpec], max_exact_qubits: int = 20
):
    """Compile a battery of test specs for repeated evaluation.

    Takes each spec's :func:`built_test` program and hands them to
    :class:`~repro.trap.machine.CompiledBattery`, which resolves each
    test's compiled XX structure (and, from its first dense call, its
    dense layout) outside the per-trial hot loop.  The battery is
    machine-independent — compile per ``(n_qubits, repetitions)`` family,
    evaluate against every trial machine, calibration snapshot and sweep
    point.  Tests with non-XX gates compile dense-only.

    Raises ``ValueError`` when an XX-only spec has a coupling component
    above ``max_exact_qubits`` (e.g. a full canary at N = 32); callers
    fall back to :class:`TestExecutor`.
    """
    items = [
        built_test(tuple(spec.pairs), spec.repetitions, n_qubits)
        for spec in specs
    ]
    return CompiledBattery(n_qubits, items, max_exact_qubits=max_exact_qubits)


def execute_compiled_battery(
    machine,
    specs: list[TestSpec],
    battery=None,
    thresholds: ThresholdPolicy | None = None,
    shots: int = 300,
    realizations: int | None = None,
    engine: str = "auto",
) -> list[TestResult]:
    """Run a predetermined battery through its compiled form.

    The compiled counterpart of ``TestExecutor.execute_batch``: each
    spec's circuit-static structure (XX contraction plan or dense plan)
    is built once in the battery, and the whole battery is evaluated in
    one :meth:`~repro.trap.machine.CompiledBattery.fidelities` pass —
    under the full Sec. VI error model this is the compiled *dense*
    path of Figs. 6/7.  Pass a pre-built ``battery`` (from
    :func:`compile_test_battery`, with tests in ``specs`` order) to
    amortize compilation across trial machines; otherwise one is
    compiled on the fly.  ``engine`` forces an evaluation path
    (``"xx"``/``"dense"``) instead of the automatic dispatch — the
    scenario matrix uses it to run one battery through both engines.
    Specs without couplings draw nothing and pass with fidelity 1.0.

    Results are statistically equivalent to the per-test
    :class:`TestExecutor` loop, though the RNG stream is consumed in
    another order: every test's noise is drawn in spec order, then
    every test's shots are sampled at once.  ``machine`` must be a
    :class:`~repro.trap.machine.VirtualIonTrap` (the compiled paths need
    its noise internals, not just the ``run_match`` surface).
    """
    if battery is None:
        battery = compile_test_battery(
            machine.n_qubits, specs, max_exact_qubits=machine.max_exact_qubits
        )
    elif len(battery.tests) != len(specs):
        raise ValueError(
            f"battery holds {len(battery.tests)} tests for "
            f"{len(specs)} specs; compile it from this spec list"
        )
    if thresholds is None:
        thresholds = FixedThresholds()
    indices = []
    for index, spec in enumerate(specs):
        if not spec.pairs:
            continue
        program = battery.tests[index]
        if program.expected != expected_output(
            spec, machine.n_qubits
        ) or program.n_two_qubit != len(spec.pairs) * spec.repetitions:
            raise ValueError(
                f"battery test {index} does not match spec {spec.name!r}; "
                "compile the battery from this spec list (same order)"
            )
        indices.append(index)
    measured = iter(
        battery.fidelities(
            machine,
            indices,
            shots,
            realizations=realizations,
            engine=engine,
        )[:, 0].tolist()
    )
    return [
        TestResult(
            spec=spec,
            fidelity=next(measured) if spec.pairs else 1.0,
            threshold=thresholds.threshold_for(spec.repetitions, spec.kind),
            shots=shots,
        )
        for spec in specs
    ]


@dataclass
class DiagnosisReport:
    """What a diagnosis session concluded and what it cost."""

    identified: list[Pair]
    results: list[TestResult]
    adaptations: int
    circuit_runs: int
    shots: int

    def summary(self) -> str:
        """One-line human rendering of the diagnosis outcome."""
        found = (
            ", ".join("{%d,%d}" % tuple(sorted(p)) for p in self.identified)
            or "none"
        )
        return (
            f"faulty couplings: {found} | adaptations: {self.adaptations} | "
            f"circuit runs: {self.circuit_runs} | shots: {self.shots}"
        )
