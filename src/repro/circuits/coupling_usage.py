"""Coupling-usage analysis (Fig. 11, Sec. VIII).

How many couplings do applications actually use?  Fig. 11 finds an
average around 1/3 of the C(N,2) available — so detected faulty
couplings can often be tolerated instead of recalibrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..sim.circuit import Circuit
from .library import build_suite

__all__ = [
    "coupling_usage",
    "usage_fraction",
    "SuiteUsage",
    "suite_usage",
]

Pair = frozenset[int]


def coupling_usage(circuit: Circuit) -> set[Pair]:
    """The set of couplings a circuit's two-qubit gates exercise."""
    return circuit.couplings()


def usage_fraction(circuit: Circuit) -> float:
    """Utilized couplings over the total available C(N,2)."""
    total = math.comb(circuit.n_qubits, 2)
    return len(coupling_usage(circuit)) / total


@dataclass(frozen=True)
class SuiteUsage:
    """Per-circuit and aggregate coupling usage at one machine size."""

    n_qubits: int
    used: dict[str, int]
    fractions: dict[str, float]

    @property
    def mean_used(self) -> float:
        return float(np.mean(list(self.used.values())))

    @property
    def mean_fraction(self) -> float:
        return float(np.mean(list(self.fractions.values())))


def suite_usage(n_qubits: int) -> SuiteUsage:
    """Coupling usage of the whole Fig. 11 suite at one size."""
    suite = build_suite(n_qubits)
    used = {name: len(coupling_usage(c)) for name, c in suite.items()}
    fractions = {name: usage_fraction(c) for name, c in suite.items()}
    return SuiteUsage(n_qubits=n_qubits, used=used, fractions=fractions)
