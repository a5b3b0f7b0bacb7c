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

__all__ = ["CalibratedThresholds", "BaselineBank"]


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
