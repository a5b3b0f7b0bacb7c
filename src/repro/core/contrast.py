"""Contrast-based test classification for heavily drifted machines.

Fixed per-test thresholds (Figs. 6/7) assume the non-faulty couplings sit
near their calibration baseline.  In the Fig. 9 regime — every coupling's
under-rotation drawn from the composite distribution — most couplings are
somewhat miscalibrated, the whole fidelity floor sinks, and fixed
thresholds flag everything.  Fig. 5's prescription is to adjust the
threshold "to maximize the fault vs no-fault contrast"; this module makes
that operational with a two-parameter model:

1. **Clean baseline model.**  On an in-spec machine the log-fidelity of a
   single-output test is, to good accuracy, affine in its coupling count
   ``m`` (each coupling contributes an independent multiplicative factor):
   ``log f ~ a_r + b_r * m`` per repetition count ``r``.  The model is fit
   once from calibration runs over tests of varying size
   (:func:`fit_fidelity_model`), so round-2 tests with restricted classes
   are baselined correctly even though no identical test was calibrated.

2. **Bulk-drift estimate.**  On the machine under diagnosis, ordinary
   drift adds a further per-coupling penalty ``d``; a single fault affects
   at most ``n - 1`` of a 2n-test round, so the *median* per-coupling
   anomaly of a round estimates ``d`` robustly.

A test then *fails* when its log-fidelity undercuts the drift-adjusted
baseline by more than the **contrast gap**:

    log f  <  a_r + b_r * m + d * m - gap

The gap sets the smallest detectable fault magnitude (a fault multiplies
test fidelity by ``cos^2(r pi u / 4)`` regardless of m); shot noise at
300 shots contributes ~0.1 to log-fidelity, so the default 0.35 is a
comfortable 3-sigma margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cost import CostTracker
from .protocol import TestExecutor, TestResult
from .tests_builder import TestSpec

__all__ = ["FidelityModel", "fit_fidelity_model", "ContrastExecutor"]

_LOG_FLOOR = 1e-6


@dataclass(frozen=True)
class FidelityModel:
    """Affine clean-baseline model: ``log f = a_r + b_r * m`` per r."""

    coefficients: dict[int, tuple[float, float]]

    def log_baseline(self, repetitions: int, n_couplings: int) -> float:
        """Log of the fault-free fidelity of a test on ``n_couplings``."""
        if repetitions not in self.coefficients:
            raise KeyError(f"model not fit for repetitions={repetitions}")
        a, b = self.coefficients[repetitions]
        return a + b * n_couplings

    def baseline(self, repetitions: int, n_couplings: int) -> float:
        """Fault-free fidelity of a test exercising ``n_couplings``."""
        return math.exp(self.log_baseline(repetitions, n_couplings))


def fit_fidelity_model(
    machine_factory,
    n_qubits: int,
    repetition_counts: tuple[int, ...],
    shots: int = 300,
    trials: int = 6,
) -> FidelityModel:
    """Fit the clean baseline from in-spec machines.

    Measures the protocol's battery tests plus single-coupling tests (the
    m = 1 anchor used by verification tests) on freshly produced machines
    (one round per machine) and regresses log-fidelity on coupling count
    per repetition value.
    ``machine_factory`` must return machines whose calibration represents
    the in-spec state (e.g. bulk drift below the calibration threshold).
    """
    samples: dict[int, list[tuple[int, float]]] = {r: [] for r in repetition_counts}
    for trial in range(trials):
        specs = _model_fit_specs(n_qubits, repetition_counts, trial)
        executor = TestExecutor(machine_factory(), shots=shots)
        for result in executor.execute_round(specs):
            samples[result.spec.repetitions].append(
                (len(result.spec.pairs), math.log(max(result.fidelity, _LOG_FLOOR)))
            )
    coefficients: dict[int, tuple[float, float]] = {}
    for r, points in samples.items():
        ms = np.array([m for m, _ in points], dtype=float)
        logs = np.array([lf for _, lf in points])
        if len(set(ms)) < 2:
            raise ValueError("need tests of at least two sizes to fit the model")
        b, a = np.polyfit(ms, logs, 1)
        coefficients[r] = (float(a), float(b))
    return FidelityModel(coefficients)


def _model_fit_specs(
    n_qubits: int, repetition_counts: tuple[int, ...], trial: int
) -> list[TestSpec]:
    from ..core.combinatorics import all_couplings
    from ..core.single_fault import SingleFaultProtocol

    pairs = all_couplings(n_qubits)
    specs: list[TestSpec] = []
    for r in repetition_counts:
        protocol = SingleFaultProtocol(n_qubits, repetitions=r)
        specs.extend(protocol.round1_specs())
        anchor = pairs[trial % len(pairs)]
        specs.append(
            TestSpec(
                name=f"anchor({min(anchor)},{max(anchor)})",
                pairs=(anchor,),
                repetitions=r,
                kind="verify",
            )
        )
    return specs


@dataclass
class ContrastExecutor:
    """Executor classifying tests against the drift-adjusted baseline.

    Implements the same surface as
    :class:`~repro.core.protocol.TestExecutor` (``execute`` /
    ``execute_round`` / ``cost``), so every protocol runs on it unchanged.

    Parameters
    ----------
    machine:
        Backend with ``run_match`` and ``run_battery``.
    model:
        Clean baseline fit from :func:`fit_fidelity_model`.
    gap:
        Contrast gap in log-fidelity; the smallest detectable fault
        multiplies test fidelity by ``e^{-gap}``.
    shots:
        Shots per test.
    """

    machine: object
    model: FidelityModel
    gap: float = 0.35
    shots: int = 300
    cost: CostTracker = field(default_factory=CostTracker)
    #: Per-repetitions bulk-drift estimate (log-fidelity per coupling).
    drift: dict[int, float] = field(default_factory=dict)

    def execute(self, spec: TestSpec) -> TestResult:
        """Run one spec through the analytic contrast model."""
        return self._classify(spec, self._measurer().execute(spec).fidelity)

    def execute_round(self, specs: list[TestSpec]) -> list[TestResult]:
        """Measure a round in one pass, re-estimate bulk drift, then classify."""
        fidelities = [r.fidelity for r in self._measurer().execute_round(specs)]
        self._update_drift(specs, fidelities)
        return [
            self._classify(spec, fidelity)
            for spec, fidelity in zip(specs, fidelities)
        ]

    # -- internals -----------------------------------------------------------------

    def _measurer(self) -> TestExecutor:
        """A plain executor measuring on this one's machine, shots and cost."""
        return TestExecutor(self.machine, shots=self.shots, cost=self.cost)

    def _update_drift(self, specs: list[TestSpec], fidelities: list[float]) -> None:
        per_r: dict[int, list[float]] = {}
        for spec, fidelity in zip(specs, fidelities):
            m = len(spec.pairs)
            if m < 3:
                continue  # small tests carry too little bulk signal
            base = self.model.log_baseline(spec.repetitions, m)
            anomaly = math.log(max(fidelity, _LOG_FLOOR)) - base
            per_r.setdefault(spec.repetitions, []).append(anomaly / m)
        for r, values in per_r.items():
            # Median over the round: a single fault touches a minority of
            # tests, so the median tracks the bulk drift level.
            self.drift[r] = float(np.median(values))

    def _classify(self, spec: TestSpec, fidelity: float) -> TestResult:
        if not spec.pairs:
            return TestResult(spec=spec, fidelity=1.0, threshold=0.0, shots=self.shots)
        m = len(spec.pairs)
        base = self.model.log_baseline(spec.repetitions, m)
        drift = self.drift.get(spec.repetitions, 0.0)
        log_threshold = base + min(drift, 0.0) * m - self.gap
        return TestResult(
            spec=spec,
            fidelity=fidelity,
            threshold=math.exp(log_threshold),
            shots=self.shots,
        )
