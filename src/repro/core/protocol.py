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
        """Build, run and judge one adaptive test on ``run_match``."""
        if not spec.pairs:
            return _judged([spec], [], self.thresholds, self.shots)[0]
        program = built_test(
            tuple(spec.pairs), spec.repetitions, self.machine.n_qubits
        )
        counts = self.machine.run_match(
            program, program.expected, self.shots, realizations=self.shot_batch
        )
        self.cost.record_run(spec, self.shots)
        fidelity = match_fraction(counts, program.expected)
        return _judged([spec], [fidelity], self.thresholds, self.shots)[0]

    def execute_round(self, specs: list[TestSpec]) -> list[TestResult]:
        """Run a predetermined round (no adaptation between tests) in one
        ``run_battery`` pass: all noise drawn in spec order, then all
        shots sampled at once.  A one-spec round equals :meth:`execute`
        bit for bit; specs without couplings draw nothing and pass."""
        run = [spec for spec in specs if spec.pairs]
        n, shots = self.machine.n_qubits, self.shots
        fidelities = self.machine.run_battery(
            [built_test(tuple(s.pairs), s.repetitions, n) for s in run],
            shots,
            realizations=self.shot_batch,
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


def compile_test_battery(
    n_qubits: int, specs: list[TestSpec], max_exact_qubits: int = 20
):
    """A :class:`~repro.trap.machine.CompiledBattery` of each spec's
    :func:`built_test` program, for repeated evaluation against every
    trial machine, calibration snapshot and sweep point.

    An XX-only spec with a coupling component above ``max_exact_qubits``
    (e.g. a class test at N = 44) compiles to a plan that samples that
    component; such a battery runs on the XX route under ``"auto"``,
    and ``engine="xx"`` refuses it.
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
    """:meth:`TestExecutor.execute_round` on a compiled battery's plan
    cache, which outlives the machine, and without a cost tracker.

    Pass a ``battery`` from :func:`compile_test_battery`, with tests in
    ``specs`` order, to amortize compilation across trial machines
    (Figs. 6/7); otherwise one is compiled on the fly.  ``engine``
    forces an evaluation path (``"xx"``/``"dense"``) — the scenario
    matrix runs one battery through both engines.
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
    indices = [index for index, spec in enumerate(specs) if spec.pairs]
    for index in indices:
        spec = specs[index]
        if battery.tests[index] != built_test(
            tuple(spec.pairs), spec.repetitions, machine.n_qubits
        ):
            raise ValueError(
                f"battery test {index} does not match spec {spec.name!r}; "
                "compile the battery from this spec list (same order)"
            )
    fidelities = battery.fidelities(
        machine, indices, shots, realizations=realizations, engine=engine
    )
    return _judged(specs, fidelities[:, 0].tolist(), thresholds, shots)


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
