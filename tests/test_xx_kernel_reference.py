"""The compiled XX kernel against its references.

``ContractionPlan`` sums only half the spin table for components without
linear terms and contracts in real trig; ``XXCircuitEvaluator`` still
sums the full table in complex arithmetic, and the dense statevector
knows nothing of either.  All three must agree to 1e-12 on seeded random
coupling graphs, with and without RX/X terms, for even and odd output
parity, and on components large enough for the spin table to be
processed in chunks.
"""

import math

import numpy as np
import pytest

from repro.sim import xx_engine
from repro.sim.circuit import Circuit
from repro.sim.statevector import simulate
from repro.sim.xx_engine import ContractionPlan, XXCircuitEvaluator

REALIZATIONS = 3


def _random_structure(rng, n_qubits, n_components, n_extra, linear):
    """Edges (spanning chains plus extras) over disjoint qubit groups."""
    qubits = rng.permutation(n_qubits)
    groups = np.array_split(qubits, n_components)
    edges = []
    for group in groups:
        group = [int(q) for q in group]
        edges += [frozenset(p) for p in zip(group, group[1:])]
        pool = [
            frozenset((a, b))
            for i, a in enumerate(group)
            for b in group[i + 1 :]
            if frozenset((a, b)) not in edges
        ]
        take = min(n_extra, len(pool))
        edges += [pool[k] for k in rng.choice(len(pool), take, replace=False)]
    lin = []
    if linear:
        lin = sorted(int(q) for q in rng.choice(n_qubits, 2, replace=False))
    return edges, lin, [sorted(int(q) for q in g) for g in groups]


def _bitstring(rng, n_qubits, groups, odd):
    """A bitstring whose parity on the first group is odd or even."""
    bits = rng.integers(0, 2, n_qubits)
    first = groups[0]
    if bits[first].sum() % 2 != odd:
        bits[first[0]] ^= 1
    return int("".join(str(b) for b in bits), 2)


def _circuit(n_qubits, edges, thetas, lin, lin_thetas, x_gates):
    circuit = Circuit(n_qubits)
    for e, theta in zip(edges, thetas):
        i, j = sorted(e)
        circuit.xx(i, j, float(theta))
    for q, theta in zip(lin, lin_thetas):
        if x_gates:
            # RX(theta - pi) X == RX(theta) up to the global phase the
            # XX engine drops for X.
            circuit.rx(q, float(theta) - math.pi)
            circuit.x(q)
        else:
            circuit.rx(q, float(theta))
    return circuit


CASES = [
    # (n_qubits, components, extra edges per component, linear, x gates)
    (6, 1, 4, False, False),
    (7, 2, 3, False, False),
    (8, 2, 5, True, False),
    (8, 1, 10, True, True),
    (5, 3, 1, True, False),
]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("odd", [False, True])
def test_plan_matches_evaluator_and_dense_statevector(rng, case, odd):
    n_qubits, n_components, n_extra, linear, x_gates = case
    edges, lin, groups = _random_structure(
        rng, n_qubits, n_components, n_extra, linear
    )
    expected = _bitstring(rng, n_qubits, groups, odd)
    thetas = rng.normal(math.pi / 2, 0.4, (REALIZATIONS, len(edges)))
    lin_thetas = rng.normal(0.3, 0.5, (REALIZATIONS, len(lin)))
    plan = ContractionPlan(n_qubits, edges, lin, expected)
    amps = plan.amplitudes(thetas, lin_thetas if lin else None)
    for g in range(REALIZATIONS):
        circuit = _circuit(
            n_qubits, edges, thetas[g], lin, lin_thetas[g], x_gates
        )
        reference = XXCircuitEvaluator(circuit).amplitude(expected)
        assert abs(amps[g] - reference) < 1e-12
        dense = simulate(circuit)[expected]
        assert abs(abs(amps[g]) ** 2 - abs(dense) ** 2) < 1e-12


@pytest.mark.parametrize("m, linear", [(15, False), (14, True)])
def test_chunked_components_match_the_full_table(rng, m, linear, monkeypatch):
    """Components whose summed rows span several spin chunks."""
    edges, lin, groups = _random_structure(rng, m, 1, 6, linear)
    rows = 2 ** (m - (0 if linear else 1))
    assert rows > xx_engine._CHUNK_SPINS
    expected = _bitstring(rng, m, groups, odd=False)
    thetas = rng.normal(math.pi / 2, 0.4, (2, len(edges)))
    lin_thetas = rng.normal(0.3, 0.5, (2, len(lin))) if lin else None
    streamed = ContractionPlan(m, edges, lin, expected)
    monkeypatch.setattr(xx_engine, "_RESIDENT_PLAN_BYTES", 1 << 40)
    resident = ContractionPlan(m, edges, lin, expected)
    assert streamed._components[0].blocks is None
    assert resident._components[0].blocks is not None
    amps = streamed.amplitudes(thetas, lin_thetas)
    assert np.array_equal(amps, resident.amplitudes(thetas, lin_thetas))
    for g in range(2):
        circuit = _circuit(
            m, edges, thetas[g], lin, [] if lin_thetas is None else lin_thetas[g],
            x_gates=False,
        )
        reference = XXCircuitEvaluator(circuit).amplitude(expected)
        assert abs(amps[g] - reference) < 1e-12


def test_small_streaming_plans_keep_their_blocks(rng, monkeypatch):
    edges, _, _ = _random_structure(rng, 8, 1, 10, False)
    small = ContractionPlan(8, edges, [], 0)
    assert all(c.blocks is not None for c in small._components)
    # A resident bound below the plan's size keeps it streaming.
    monkeypatch.setattr(xx_engine, "_RESIDENT_PLAN_BYTES", 64)
    tight = ContractionPlan(8, edges, [], 0)
    assert all(c.blocks is None for c in tight._components)
    thetas = rng.normal(math.pi / 2, 0.4, (5, len(edges)))
    assert np.array_equal(small.amplitudes(thetas), tight.amplitudes(thetas))


def test_odd_parity_without_linear_terms_is_exactly_zero(rng):
    edges, _, groups = _random_structure(rng, 9, 2, 4, False)
    expected = _bitstring(rng, 9, groups, odd=True)
    plan = ContractionPlan(9, edges, [], expected)
    assert plan.forced_zero
    thetas = rng.normal(math.pi / 2, 0.4, (4, len(edges)))
    amps = plan.amplitudes(thetas)
    assert amps.dtype == complex and np.all(amps == 0)
    assert np.all(plan.probabilities(thetas) == 0)
