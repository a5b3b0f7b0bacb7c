"""Detection thresholds: separating fault from no-fault fidelities.

Fig. 5's loop note: "the threshold is adjusted accordingly to maximize the
fault vs no-fault contrast".  In the paper's figures thresholds are fixed
by eye (0.45/0.25 in Fig. 6, 0.38/0.46 in Fig. 7); programmatically we
calibrate them from the fault-free fidelity distribution of the same test
family on the same machine size: run the battery on a freshly calibrated
(but noisy) machine many times and place the threshold a safety margin
below the observed lower quantile.

:class:`CalibratedThresholds` implements the executor's threshold-policy
surface keyed by (repetitions, kind) with sensible fallbacks.

:class:`BaselineBank` holds the *per-test* clean-machine baselines the
contrast-ranked multi-fault mode normalizes against: in a machine whose
couplings all carry some damage (the Fig. 9 composite population), a test
is suspicious not because its fidelity is low in absolute terms but
because it is low *relative to its own fault-free level* — exactly the
Fig. 5 "adjust the threshold to maximize the fault vs no-fault contrast"
rule made operational.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "threshold_from_baseline",
    "two_cluster_threshold",
    "CalibratedThresholds",
    "calibrate_thresholds",
    "BaselineBank",
]


def threshold_from_baseline(
    baseline_fidelities: np.ndarray,
    quantile: float = 0.02,
    margin: float = 0.05,
    relative: bool = True,
) -> float:
    """Threshold below the fault-free population's lower quantile.

    With ``relative=True`` (default) the margin is multiplicative:
    ``threshold = quantile(baseline, q) * (1 - margin)``.  Fault effects
    are multiplicative on test fidelity (each coupling contributes a
    factor), so a relative margin keeps detection contrast uniform even
    when the baseline itself is small (deep tests on many couplings).
    ``relative=False`` subtracts the margin instead.
    """
    values = np.asarray(baseline_fidelities, dtype=float)
    if values.size == 0:
        raise ValueError("need baseline fidelities")
    if not 0.0 <= quantile <= 0.5:
        raise ValueError("quantile must be in [0, 0.5]")
    base = float(np.quantile(values, quantile))
    if relative:
        return base * (1.0 - margin)
    return base - margin


def two_cluster_threshold(fidelities: np.ndarray) -> float:
    """Otsu-style split of a mixed fidelity population into two clusters.

    Maximizes between-class variance over candidate cut points; used when
    fault and no-fault fidelities are observed together and the operator
    wants the contrast-maximizing cut (the Fig. 5 adjustment rule).
    """
    values = np.sort(np.asarray(fidelities, dtype=float))
    if values.size < 2:
        raise ValueError("need at least two fidelities to split")
    best_cut = values[0]
    best_score = -1.0
    for k in range(1, values.size):
        lo, hi = values[:k], values[k:]
        w0, w1 = lo.size / values.size, hi.size / values.size
        score = w0 * w1 * (hi.mean() - lo.mean()) ** 2
        if score > best_score:
            best_score = score
            best_cut = (lo.max() + hi.min()) / 2.0
    return float(best_cut)


@dataclass
class CalibratedThresholds:
    """Per-(repetitions, kind) thresholds with graceful fallback."""

    table: dict[tuple[int, str], float] = field(default_factory=dict)
    default: float = 0.5

    def set(self, repetitions: int, kind: str, threshold: float) -> None:
        """Record the calibrated threshold for one (repetitions, kind)."""
        self.table[(repetitions, kind)] = threshold

    def threshold_for(self, repetitions: int, kind: str = "class") -> float:
        """Threshold for a test family, falling back across kinds."""
        if (repetitions, kind) in self.table:
            return self.table[(repetitions, kind)]
        # Canaries and magnitude-search tests reuse the class calibration
        # when not calibrated separately, and vice versa.
        for fallback_kind in ("class", "canary"):
            if (repetitions, fallback_kind) in self.table:
                return self.table[(repetitions, fallback_kind)]
        return self.default


@dataclass
class BaselineBank:
    """Clean-machine fidelity baselines for contrast normalization.

    Built from repeated runs of a battery on freshly calibrated (but
    noisy) machines; consumed by
    :meth:`~repro.core.multi_fault.MultiFaultProtocol.diagnose_all_ranked`.

    Attributes
    ----------
    by_test:
        Mean fault-free fidelity per test *name* (names are stable across
        machines for a fixed (N, repetitions) battery family).
    verify_mean, verify_std:
        Baseline statistics of the single-pair verification test; the
        verify acceptance threshold sits ``margin`` standard deviations
        below the mean (see :meth:`verify_threshold`).
    """

    by_test: dict[str, float] = field(default_factory=dict)
    verify_mean: float = 1.0
    verify_std: float = 0.0

    def record(self, name: str, fidelities: list[float]) -> None:
        """Store one test's mean clean fidelity."""
        self.by_test[name] = float(np.mean(fidelities))

    def normalized(self, name: str, fidelity: float) -> float | None:
        """Fidelity relative to the test's clean baseline.

        Returns ``None`` for unknown tests or degenerate (zero)
        baselines — callers skip those tests in contrast scoring.
        """
        base = self.by_test.get(name)
        if not base:
            return None
        return fidelity / base

    def verify_threshold(
        self, margin: float = 3.0, min_std: float = 0.02
    ) -> float:
        """Accept/reject cut for the verification test.

        ``margin`` standard deviations below the clean baseline mean;
        ``min_std`` guards against a spuriously tight spread estimated
        from few calibration trials.
        """
        return self.verify_mean - margin * max(self.verify_std, min_std)


def calibrate_thresholds(
    machine_factory,
    specs_by_key,
    shots: int = 300,
    trials: int = 20,
    quantile: float = 0.02,
    margin: float = 0.05,
) -> CalibratedThresholds:
    """Measure fault-free baselines and derive thresholds.

    Parameters
    ----------
    machine_factory:
        Zero-argument callable returning a *fault-free* machine with the
        target noise configuration (fresh seed per call is fine).
    specs_by_key:
        Mapping ``(repetitions, kind) -> list[TestSpec]`` of representative
        tests to baseline.
    shots, trials:
        Sampling effort per spec.
    quantile, margin:
        Passed to :func:`threshold_from_baseline`.
    """
    from ..core.protocol import TestExecutor

    calibrated = CalibratedThresholds()
    for (repetitions, kind), specs in specs_by_key.items():
        fidelities: list[float] = []
        for trial in range(trials):
            machine = machine_factory()
            executor = TestExecutor(machine, thresholds=calibrated, shots=shots)
            fidelities.extend(r.fidelity for r in executor.execute_round(specs))
        calibrated.set(
            repetitions,
            kind,
            threshold_from_baseline(
                np.array(fidelities), quantile=quantile, margin=margin
            ),
        )
    return calibrated
