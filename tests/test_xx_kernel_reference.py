"""The compiled XX kernel against its references.

``ContractionPlan`` sums only half the spin assignments for components
without linear terms.  A component whose table would exceed 256
assignments splits into spins A and B, and its sum over B becomes one
bilinear contraction per row: ``G = chi_B e^{i phi_B}`` between tables
of ``e^{+-i (Theta^T s_A)_j}`` products over B's halves L and H.
``XXCircuitEvaluator`` (the exact oracle in ``xx_oracle``) sums the full
table in complex arithmetic, and the dense statevector knows nothing of
either.  Up to 8 spins the plan must equal the one-table formula written
out here, bit for bit; above, all three must agree to 1e-12 on seeded
random coupling graphs up to 16 spins (complete and sparse), with and
without RX/X terms, for even and odd output parity, on plans that mix
split and unsplit components, and with the realization rows chunked.
At 18 and 20 spins two different A/L/H splits must agree to 1e-12.
"""

import itertools
import math

import numpy as np
import pytest
from xx_oracle import XXCircuitEvaluator

from repro.sim import xx_engine
from repro.sim.circuit import Circuit
from repro.sim.statevector import simulate
from repro.sim.xx_engine import ContractionPlan

REALIZATIONS = 3


def _random_structure(rng, n_qubits, n_components, n_extra, linear):
    """Edges (spanning chains plus extras) over disjoint qubit groups."""
    sizes = [len(g) for g in np.array_split(np.arange(n_qubits), n_components)]
    return _structure(rng, sizes, n_extra, linear)


def _structure(rng, sizes, n_extra, linear):
    """Edges over disjoint random qubit groups of the given sizes."""
    n_qubits = sum(sizes)
    qubits = rng.permutation(n_qubits)
    groups = np.split(qubits, np.cumsum(sizes)[:-1])
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


def _half_table_amplitudes(comps, edges, lin, expected, n_qubits, thetas, lin_thetas):
    """The unsplit kernel written out: per component, one table of the
    ``s_0 = +1`` half (or all of it, with linear terms) and the phase's
    ``-1/2`` folded into the spin products."""
    amps = np.ones(thetas.shape[0], dtype=complex)
    for comp in comps:
        local = {q: k for k, q in enumerate(comp)}
        cols = [c for c, e in enumerate(edges) if min(e) in local]
        lins = [c for c, q in enumerate(lin) if q in local]
        rows = 2 ** (len(comp) - (0 if lins else 1))
        table = np.array(
            list(itertools.product((1, -1), repeat=len(comp))), dtype=np.int8
        )[:rows]
        spins = np.ascontiguousarray(table.T)
        i = [local[min(edges[c])] for c in cols]
        j = [local[max(edges[c])] for c in cols]
        phase = thetas[:, cols] @ (-0.5 * (spins[i] * spins[j]))
        if lins:
            phase += lin_thetas[:, lins] @ (-0.5 * spins[[local[lin[c]] for c in lins]])
        z = [local[q] for q in comp if (expected >> (n_qubits - 1 - q)) & 1]
        chi = (1.0 / rows) * np.prod(spins[z], axis=0)
        re, im = np.cos(phase) @ chi, np.sin(phase) @ chi
        amps *= re + 1j * im
    return amps


UNSPLIT_CASES = [
    # (component sizes, extra edges per component, linear, odd parity)
    ((5,), 4, False, False),
    ((8,), 10, False, False),
    ((8,), 28, False, False),
    ((8,), 12, True, False),
    ((8,), 12, True, True),
    ((6, 8), 6, True, True),
    ((3, 7), 5, False, False),
]


@pytest.mark.parametrize("case", UNSPLIT_CASES)
def test_unsplit_components_equal_the_half_table_formula(rng, case):
    """Up to 8 spins a component is one table contraction, bit for bit."""
    sizes, n_extra, linear, odd = case
    n_qubits = sum(sizes)
    edges, lin, groups = _structure(rng, sizes, n_extra, linear)
    expected = _bitstring(rng, n_qubits, groups, odd)
    if not linear:
        # Odd parity on a component without linear terms is zero outright.
        for group in groups[1:]:
            if sum((expected >> (n_qubits - 1 - q)) & 1 for q in group) % 2:
                expected ^= 1 << (n_qubits - 1 - group[0])
    thetas = rng.normal(math.pi / 2, 0.4, (REALIZATIONS, len(edges)))
    lin_thetas = rng.normal(0.3, 0.5, (REALIZATIONS, len(lin)))
    plan = ContractionPlan(n_qubits, edges, lin, expected)
    assert not plan.forced_zero
    assert plan.component_qubits == sorted(groups)
    amps = plan.amplitudes(thetas, lin_thetas if lin else None)
    formula = _half_table_amplitudes(
        plan.component_qubits, edges, lin, expected, n_qubits, thetas, lin_thetas
    )
    assert np.array_equal(amps, formula)


SPLIT_CASES = [
    # (component sizes, extra edges per component, linear)
    ((9,), 30, False),
    ((9,), 8, True),
    ((12,), 20, False),
    ((12,), 66, True),
    ((15,), 12, False),
    ((15,), 12, True),
    ((9, 5), 6, True),
    ((12, 2, 4), 5, False),
    # K16 (every pair) and a sparse 16-spin graph.
    ((16,), 120, False),
    ((16,), 120, True),
    ((16,), 8, False),
    ((16,), 8, True),
]


@pytest.mark.parametrize("case", SPLIT_CASES)
@pytest.mark.parametrize("odd", [False, True])
def test_split_components_match_the_full_table(rng, case, odd):
    """Above 8 spins the sum splits in two halves and a cross term; it
    must still agree with the full-table oracle and the statevector."""
    sizes, n_extra, linear = case
    n_qubits = sum(sizes)
    edges, lin, groups = _structure(rng, sizes, n_extra, linear)
    expected = _bitstring(rng, n_qubits, groups, odd)
    thetas = rng.normal(math.pi / 2, 0.4, (REALIZATIONS, len(edges)))
    lin_thetas = rng.normal(0.3, 0.5, (REALIZATIONS, len(lin)))
    plan = ContractionPlan(n_qubits, edges, lin, expected)
    amps = plan.amplitudes(thetas, lin_thetas if lin else None)
    for g in range(REALIZATIONS):
        circuit = _circuit(
            n_qubits, edges, thetas[g], lin, lin_thetas[g], x_gates=False
        )
        reference = XXCircuitEvaluator(circuit).amplitude(expected)
        assert abs(amps[g] - reference) < 1e-12
        dense = simulate(circuit)[expected]
        assert abs(abs(amps[g]) ** 2 - abs(dense) ** 2) < 1e-12


@pytest.mark.parametrize("m", [18, 20])
def test_two_splits_of_one_component_agree(rng, monkeypatch, m):
    """Moving spins between A, L and H changes the arithmetic, not the sum."""
    edges, lin, groups = _structure(rng, (m,), 3 * m, linear=True)
    expected = _bitstring(rng, m, groups, odd=True)
    thetas = rng.normal(math.pi / 2, 0.4, (REALIZATIONS, len(edges)))
    lin_thetas = rng.normal(0.3, 0.5, (REALIZATIONS, len(lin)))
    default = xx_engine._split(m, flip_even=False)
    amps = ContractionPlan(m, edges, lin, expected).amplitudes(thetas, lin_thetas)
    for a, n_low in ((m - 9, 3), (m - 10, 6)):
        assert (a, n_low) != default
        monkeypatch.setattr(xx_engine, "_split", lambda *_, s=(a, n_low): s)
        other = ContractionPlan(m, edges, lin, expected).amplitudes(
            thetas, lin_thetas
        )
        assert np.max(np.abs(other - amps)) < 1e-12
    assert np.abs(amps).max() > 1e-6


def test_row_chunks_of_a_split_plan_match_the_oracle(rng):
    """A ``max_batch_bytes`` that splits the rows leaves every row's
    amplitude where the oracle puts it."""
    edges, lin, groups = _structure(rng, (11, 4), 9, True)
    expected = _bitstring(rng, 15, groups, odd=True)
    thetas = rng.normal(math.pi / 2, 0.4, (5, len(edges)))
    lin_thetas = rng.normal(0.3, 0.5, (5, len(lin)))
    plan = ContractionPlan(15, edges, lin, expected)
    per_row = 24 * min(2**11, xx_engine._CHUNK_SPINS)
    chunked = plan.amplitudes(thetas, lin_thetas, max_batch_bytes=2 * per_row)
    whole = plan.amplitudes(thetas, lin_thetas)
    assert np.max(np.abs(chunked - whole)) < 1e-15
    for g in range(5):
        circuit = _circuit(15, edges, thetas[g], lin, lin_thetas[g], x_gates=False)
        reference = XXCircuitEvaluator(circuit).amplitude(expected)
        assert abs(chunked[g] - reference) < 1e-12


def test_odd_parity_without_linear_terms_is_exactly_zero(rng):
    edges, _, groups = _random_structure(rng, 9, 2, 4, False)
    expected = _bitstring(rng, 9, groups, odd=True)
    plan = ContractionPlan(9, edges, [], expected)
    assert plan.forced_zero
    thetas = rng.normal(math.pi / 2, 0.4, (4, len(edges)))
    amps = plan.amplitudes(thetas)
    assert amps.dtype == complex and np.all(amps == 0)
    assert np.all(plan.probabilities(thetas) == 0)
