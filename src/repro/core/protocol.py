"""Shared protocol infrastructure: execution, thresholds, outcomes.

The fault-testing protocols are expressed against a tiny backend surface,
:class:`MatchBackend`, so they run unchanged on the virtual trap or any
backend with its two calls.  :class:`TestExecutor` turns
:class:`~repro.core.tests_builder.TestSpec` objects into pass/fail
:class:`TestResult` objects by comparing the measured target-state
fidelity to a threshold policy (Figs. 6/7 use fixed thresholds; the
multi-fault loop of Fig. 5 adjusts thresholds to maximize fault/no-fault
contrast), one adaptive test or one predetermined round at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Protocol as TypingProtocol

import numpy as np

from ..sim.sampling import Counts, match_fraction
from ..trap.machine import TestProgram, as_program
from .cost import CostTracker
from .tests_builder import TestSpec, build_test_circuit, expected_output

__all__ = [
    "MatchBackend",
    "ThresholdPolicy",
    "FixedThresholds",
    "TestResult",
    "TestExecutor",
    "DiagnosisReport",
    "execute_compiled_battery",
]

Pair = frozenset[int]

#: Built test programs kept per process (least recently used dropped
#: first).  Programs hold one shared frozen operation per coupling and
#: weak references to their compiled XX entries, so entries stay small.
_BUILT_TEST_CACHE_SIZE = 2048


class MatchBackend(TypingProtocol):
    """Minimal machine surface the protocols need.

    Tests are :class:`~repro.trap.machine.TestProgram` objects from
    :func:`built_test` (a backend may read a program's ``circuit`` or use
    its compiled entries): ``run_match`` runs one, ``run_battery`` a
    round.  ``realizations`` is the optional shot-batching hint: how many
    independent noise realizations to split each test's shots across
    (backends without stochastic noise may ignore it).
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

    def run_battery(
        self,
        programs: list[TestProgram],
        shots: int,
        trials: int = 1,
        realizations: int | None = None,
        engine: str = "auto",
    ) -> np.ndarray:  # pragma: no cover - protocol definition
        """Run a round of tests: fidelities of shape ``(len(programs), trials)``."""
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
        threshold = next(
            (v for reps, v in self.by_repetitions if reps == repetitions),
            self.default,
        )
        if kind == "canary":
            threshold *= self.canary_margin
        return threshold


@dataclass(frozen=True)
class TestResult:
    """Outcome of one executed test."""

    __test__ = False  # not a pytest test class

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

    __test__ = False  # not a pytest test class

    machine: MatchBackend
    thresholds: ThresholdPolicy = field(default_factory=FixedThresholds)
    shots: int = 300
    shot_batch: int | None = None
    cost: CostTracker = field(default_factory=CostTracker)

    def execute(self, spec: TestSpec) -> TestResult:
        """Build, run and judge one adaptive test on ``run_match``."""
        fidelity = 1.0  # a spec without couplings is not run and passes
        if spec.pairs:
            program = built_test(
                tuple(spec.pairs), spec.repetitions, self.machine.n_qubits
            )
            counts = self.machine.run_match(
                program, program.expected, self.shots, realizations=self.shot_batch
            )
            self.cost.record_run(spec, self.shots)
            fidelity = match_fraction(counts, program.expected)
        threshold = self.thresholds.threshold_for(spec.repetitions, spec.kind)
        return TestResult(spec, fidelity, threshold, self.shots)

    def execute_round(
        self, specs: list[TestSpec], engine: str = "auto"
    ) -> list[TestResult]:
        """Run a predetermined round (no adaptation between tests) in one
        ``run_battery`` pass: all noise drawn in spec order, then all
        shots sampled at once.  A one-spec round equals :meth:`execute`
        bit for bit; specs without couplings draw nothing and pass.
        ``engine`` forces an evaluation path (``"xx"``/``"dense"``): the
        scenario matrix runs one round through both engines."""
        run = [spec for spec in specs if spec.pairs]
        n, shots = self.machine.n_qubits, self.shots
        fidelities = self.machine.run_battery(
            [built_test(tuple(s.pairs), s.repetitions, n) for s in run],
            shots,
            realizations=self.shot_batch,
            engine=engine,
        )
        for spec in run:
            self.cost.record_run(spec, shots)
        return _judged(specs, fidelities[:, 0].tolist(), self.thresholds, shots)


def _judged(
    specs: list[TestSpec], fidelities: list, thresholds: ThresholdPolicy, shots: int
) -> list[TestResult]:
    """Results of ``specs``, measured in order by ``fidelities`` except
    the specs without couplings, which were not run and pass at 1.0."""
    measured = iter(fidelities)
    return [
        TestResult(
            spec,
            next(measured) if spec.pairs else 1.0,
            thresholds.threshold_for(spec.repetitions, spec.kind),
            shots,
        )
        for spec in specs
    ]


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


def execute_compiled_battery(
    machine,
    specs: list[TestSpec],
    battery,
    thresholds: ThresholdPolicy | None = None,
    shots: int = 300,
    realizations: int | None = None,
) -> list[TestResult]:
    """:meth:`TestExecutor.execute_round` of ``specs`` after checking that
    ``battery`` holds their :func:`built_test` programs in order.

    Kept for the benchmark's battery-compiled op, which passes the
    programs :func:`~repro.analysis.experiments.scenarios.calibrate_cell`
    returns; nothing in ``src/`` calls it.
    """
    if len(battery) != len(specs):
        raise ValueError(
            f"battery holds {len(battery)} tests for "
            f"{len(specs)} specs; compile it from this spec list"
        )
    n = machine.n_qubits
    for index, (program, spec) in enumerate(zip(battery, specs)):
        if spec.pairs and program != built_test(tuple(spec.pairs), spec.repetitions, n):
            raise ValueError(
                f"battery test {index} does not match spec {spec.name!r}; "
                "compile the battery from this spec list (same order)"
            )
    executor = TestExecutor(
        machine,
        FixedThresholds() if thresholds is None else thresholds,
        shots,
        realizations,
    )
    return executor.execute_round(specs)


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
