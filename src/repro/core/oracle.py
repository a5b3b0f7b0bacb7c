"""Deterministic oracle executor for combinatorial protocol studies.

When studying the protocols' combinatorics (Theorem V.10, Corollary V.12,
Table II), the relevant abstraction is noiseless: a test *fails* iff its
coupling set contains at least one faulty pair.  :class:`OracleExecutor`
implements the :class:`~repro.core.protocol.TestExecutor` surface against
that rule directly, with no quantum simulation, which makes exhaustive
enumeration over fault sets cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cost import CostTracker
from .tests_builder import TestSpec
from .protocol import TestResult

__all__ = ["OracleExecutor"]

Pair = frozenset[int]


@dataclass
class OracleExecutor:
    """Pass/fail oracle: a test fails iff it touches a faulty coupling."""

    faults: set[Pair]
    shots: int = 1
    cost: CostTracker = field(default_factory=CostTracker)

    def execute(self, spec: TestSpec) -> TestResult:
        """Judge one spec deterministically against the fault set."""
        return self.execute_round([spec])[0]

    def execute_round(self, specs: list[TestSpec]) -> list[TestResult]:
        """Judge a predetermined round of specs."""
        results = []
        for spec in specs:
            failed = any(p in self.faults for p in spec.pairs)
            self.cost.record_run(spec, self.shots)
            results.append(
                TestResult(spec, 0.0 if failed else 1.0, 0.5, self.shots)
            )
        return results
