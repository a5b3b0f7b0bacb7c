"""Brute-force point-check baseline (Sec. IV, Fig. 10's denominator).

"Today's strategy": test every coupling individually with its own circuit.
Finds *all* faults with certainty (given adequate thresholds) but costs
C(N,2) circuit set-ups — over a minute of wall-clock per full pass on an
11-qubit machine versus ~10 s for the paper's protocol (Sec. IX).
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import all_couplings
from .protocol import TestExecutor, TestResult
from .tests_builder import TestSpec

__all__ = ["PointCheckStrategy"]

Pair = frozenset[int]


@dataclass
class PointCheckStrategy:
    """One single-coupling test per relevant pair (non-adaptive batch)."""

    n_qubits: int
    relevant: set[Pair] | None = None
    repetitions: int = 4

    def __post_init__(self) -> None:
        if self.relevant is None:
            self.relevant = set(all_couplings(self.n_qubits))

    def specs(self) -> list[TestSpec]:
        """One verify-style spec per relevant coupling."""
        return [
            TestSpec(
                name=f"point({min(p)},{max(p)})",
                pairs=(p,),
                repetitions=self.repetitions,
                kind="point",
            )
            for p in sorted(self.relevant, key=sorted)
        ]

    def find_all(self, executor: TestExecutor) -> list[Pair]:
        """Run every point check; return the failing couplings."""
        return [r.spec.pairs[0] for r in self.run(executor) if r.failed]

    def run(self, executor: TestExecutor) -> list[TestResult]:
        """Execute the full round and return raw results (Figs. 6/7 use
        these per-pair fidelities directly)."""
        return executor.execute_round(self.specs())
