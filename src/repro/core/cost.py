"""Cost accounting for diagnosis sessions.

Sec. V-C summarizes the cost of the full protocol:

* 0 faults — periodic canary runs only (negligible);
* k faults — ``4k + 1`` **adaptations** and ``k * s * (3n + R)``
  **circuit runs**, where ``s`` is shots per circuit and ``R`` the number
  of repetition configurations checked by the magnitude search.

:class:`CostTracker` counts what actually happened; the module-level
formulas compute the paper's predictions so tests and benchmarks can
compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tests_builder import TestSpec

__all__ = [
    "CostTracker",
    "predicted_adaptations",
    "predicted_circuit_runs",
]


@dataclass
class CostTracker:
    """Counts adaptations, circuit runs and shots during a session."""

    adaptations: int = 0
    circuit_runs: int = 0
    shots: int = 0
    runs_by_kind: dict[str, int] = field(default_factory=dict)

    def record_run(self, spec: TestSpec, shots: int) -> None:
        """Account one executed test circuit and its shots."""
        self.circuit_runs += 1
        self.shots += shots
        self.runs_by_kind[spec.kind] = self.runs_by_kind.get(spec.kind, 0) + 1

    def record_adaptation(self, reason: str = "") -> None:
        """One round of classical feedback: decide + recompile + upload."""
        self.adaptations += 1


def predicted_adaptations(k_faults: int) -> int:
    """Sec. V-C: ``4k + 1`` adaptations to diagnose ``k`` faults."""
    if k_faults < 0:
        raise ValueError("fault count must be non-negative")
    return 4 * k_faults + 1


def predicted_circuit_runs(
    k_faults: int, n_bits: int, repetition_configs: int
) -> int:
    """Sec. V-C: ``k * (3n + R)`` circuit runs (excluding the shot factor).

    The paper quotes ``k s (3n + R)`` total shots; dividing by ``s`` gives
    the number of distinct circuit executions.
    """
    if k_faults < 0 or n_bits < 1 or repetition_configs < 0:
        raise ValueError("invalid cost parameters")
    return k_faults * (3 * n_bits + repetition_configs)
