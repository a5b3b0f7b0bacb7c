"""Benchmark application circuits (the Fig. 11 workload suite).

Fig. 11 measures how many of the C(N,2) available couplings "real-life
quantum circuits" actually use (data from ref. [27]), finding an average
around one third.  We rebuild a representative suite of standard
algorithm circuits on the all-to-all ion-trap connectivity:

* GHZ state preparation (star-shaped coupling usage),
* quantum Fourier transform (all-to-all usage),
* Bernstein-Vazirani (star),
* QAOA MaxCut on random 3-regular graphs (sparse),
* hardware-efficient VQE ansatz with linear entanglement (chain),
* cuccaro-style ripple-carry adder (local),
* Heisenberg-chain Hamiltonian simulation by Trotter steps (chain),
* quantum-volume-style random pairings (dense),
* hidden-shift circuits with random CZ pattern (medium).

Every builder returns a nominal :class:`~repro.sim.circuit.Circuit`; the
coupling-usage analysis only inspects which pairs carry two-qubit gates.
"""

from __future__ import annotations

import math
import random
from typing import Callable

import numpy as np

from ..sim.circuit import Circuit

__all__ = [
    "ghz_circuit",
    "qft_circuit",
    "bernstein_vazirani_circuit",
    "qaoa_maxcut_circuit",
    "vqe_ansatz_circuit",
    "ripple_carry_adder_circuit",
    "heisenberg_trotter_circuit",
    "quantum_volume_circuit",
    "hidden_shift_circuit",
    "CIRCUIT_SUITE",
    "build_suite",
]


def ghz_circuit(n_qubits: int) -> Circuit:
    """GHZ state preparation: H then a CNOT fan-out from qubit 0."""
    circ = Circuit(n_qubits)
    circ.h(0)
    for q in range(1, n_qubits):
        circ.cnot(0, q)
    return circ


def qft_circuit(n_qubits: int) -> Circuit:
    """Quantum Fourier transform with controlled-phase ladders.

    Controlled phases are compiled to CZ-equivalent two-qubit usage; on
    all-to-all hardware QFT touches every coupling.
    """
    circ = Circuit(n_qubits)
    for q in range(n_qubits):
        circ.h(q)
        for target in range(q + 1, n_qubits):
            # Controlled-RZ(pi / 2^{target-q}) uses the (q, target) coupling.
            circ.rz(target, math.pi / 2 ** (target - q))
            circ.cz(q, target)
    for q in range(n_qubits // 2):
        circ.swap(q, n_qubits - 1 - q)
    return circ


def bernstein_vazirani_circuit(n_qubits: int, secret: int | None = None) -> Circuit:
    """Bernstein-Vazirani with an ancilla on the last qubit."""
    if n_qubits < 2:
        raise ValueError("BV needs a data register plus ancilla")
    if secret is None:
        secret = (1 << (n_qubits - 1)) - 1
    circ = Circuit(n_qubits)
    ancilla = n_qubits - 1
    circ.x(ancilla)
    for q in range(n_qubits):
        circ.h(q)
    for q in range(n_qubits - 1):
        if (secret >> q) & 1:
            circ.cnot(q, ancilla)
    for q in range(n_qubits - 1):
        circ.h(q)
    return circ


def random_regular_edges(degree: int, n: int, seed: int) -> list[tuple[int, int]]:
    """Edges ``(u, v)``, ``u < v``, of a random ``degree``-regular graph.

    The Steger-Wormald pairing generator (Combinatorics, Probability and
    Computing 8, 1999) driven by ``random.Random(seed)``: shuffle the
    stubs, pair them up, keep the pairs that are new simple edges and
    re-pair the leftover stubs until none remain, restarting when no
    leftover pair can still form a new edge.  Draws and edge order
    follow networkx's ``random_regular_graph(degree, n, seed).edges()``,
    so seeded graphs match that generator edge for edge.
    """
    if (n * degree) % 2 or not 0 <= degree < n:
        raise ValueError(f"no {degree}-regular graph on {n} nodes")
    rng = random.Random(seed)
    edges = None
    while edges is None:
        edges = _pair_stubs(degree, n, rng)
    # networkx's Graph.edges() order: nodes ascending, each node's
    # neighbours in the order its edges come out of the edge set.
    adjacency: dict[int, list[int]] = {u: [] for u in range(n)}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return [(u, v) for u in range(n) for v in adjacency[u] if v > u]


def _pair_stubs(
    degree: int, n: int, rng: random.Random
) -> set[tuple[int, int]] | None:
    """One pairing attempt of :func:`random_regular_edges` (None: failed)."""
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * degree
    while stubs:
        leftover: dict[int, int] = {}
        rng.shuffle(stubs)
        stub_iter = iter(stubs)
        for u, v in zip(stub_iter, stub_iter):
            if u > v:
                u, v = v, u
            if u != v and (u, v) not in edges:
                edges.add((u, v))
            else:
                leftover[u] = leftover.get(u, 0) + 1
                leftover[v] = leftover.get(v, 0) + 1
        if leftover and not _can_extend(edges, leftover):
            return None
        stubs = [node for node, count in leftover.items() for _ in range(count)]
    return edges


def _can_extend(edges: set[tuple[int, int]], leftover: dict[int, int]) -> bool:
    """Whether some pair of leftover stubs may still form a new edge.

    networkx's scan, kept as is (it decides when an attempt restarts,
    so it fixes the draws): a swap inside the inner loop rebinds the
    outer node, so the scan is not a plain test of every pair.
    """
    for u in leftover:
        for v in leftover:
            if u == v:
                break
            if u > v:
                u, v = v, u
            if (u, v) not in edges:
                return True
    return False


def qaoa_maxcut_circuit(
    n_qubits: int, p_layers: int = 2, seed: int = 7
) -> Circuit:
    """QAOA for MaxCut on a random 3-regular graph (sparse usage)."""
    degree = 3 if n_qubits >= 4 and (3 * n_qubits) % 2 == 0 else 2
    edges = random_regular_edges(degree, n_qubits, seed)
    rng = np.random.default_rng(seed)
    circ = Circuit(n_qubits)
    for q in range(n_qubits):
        circ.h(q)
    for _ in range(p_layers):
        gamma = float(rng.uniform(0, math.pi))
        beta = float(rng.uniform(0, math.pi))
        for u, v in edges:
            circ.cnot(u, v)
            circ.rz(v, 2 * gamma)
            circ.cnot(u, v)
        for q in range(n_qubits):
            circ.rx(q, 2 * beta)
    return circ


def vqe_ansatz_circuit(n_qubits: int, layers: int = 3, seed: int = 11) -> Circuit:
    """Hardware-efficient VQE ansatz: RY/RZ layers + linear CNOT chain."""
    rng = np.random.default_rng(seed)
    circ = Circuit(n_qubits)
    for _ in range(layers):
        for q in range(n_qubits):
            circ.ry(q, float(rng.uniform(0, 2 * math.pi)))
            circ.rz(q, float(rng.uniform(0, 2 * math.pi)))
        for q in range(n_qubits - 1):
            circ.cnot(q, q + 1)
    return circ


def ripple_carry_adder_circuit(n_qubits: int) -> Circuit:
    """Cuccaro-style ripple-carry adder usage pattern (local couplings).

    Registers a and b interleave; MAJ/UMA blocks touch neighbouring
    triples, giving strictly local coupling usage.
    """
    if n_qubits < 4:
        raise ValueError("adder needs at least 4 qubits")
    circ = Circuit(n_qubits)
    # MAJ cascade
    for q in range(0, n_qubits - 2, 2):
        circ.cnot(q + 1, q)
        circ.cnot(q + 1, q + 2)
        circ.cnot(q, q + 1)  # Toffoli approximated by its coupling usage
        circ.cnot(q + 1, q + 2)
    # UMA cascade (reverse)
    for q in range(n_qubits - 4, -1, -2):
        circ.cnot(q + 1, q + 2)
        circ.cnot(q, q + 1)
        circ.cnot(q + 1, q)
    return circ


def heisenberg_trotter_circuit(n_qubits: int, steps: int = 2) -> Circuit:
    """First-order Trotterization of a Heisenberg chain (chain usage)."""
    circ = Circuit(n_qubits)
    dt = 0.1
    for _ in range(steps):
        for parity in (0, 1):
            for q in range(parity, n_qubits - 1, 2):
                # exp(-i dt (XX + YY + ZZ)) compiled to native XX + rotations.
                circ.xx(q, q + 1, 2 * dt)
                circ.rz(q, dt)
                circ.rz(q + 1, dt)
                circ.xx(q, q + 1, 2 * dt)
    return circ


def quantum_volume_circuit(n_qubits: int, depth: int | None = None, seed: int = 3) -> Circuit:
    """Quantum-volume-style circuit: random pairings per layer (dense)."""
    rng = np.random.default_rng(seed)
    depth = depth if depth is not None else n_qubits
    circ = Circuit(n_qubits)
    for _ in range(depth):
        perm = rng.permutation(n_qubits)
        for k in range(0, n_qubits - 1, 2):
            q1, q2 = int(perm[k]), int(perm[k + 1])
            circ.r(q1, float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
            circ.r(q2, float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
            circ.xx(q1, q2, math.pi / 2)
    return circ


def hidden_shift_circuit(n_qubits: int, seed: int = 5) -> Circuit:
    """Hidden-shift circuit with a random CZ oracle (medium usage)."""
    rng = np.random.default_rng(seed)
    circ = Circuit(n_qubits)
    for q in range(n_qubits):
        circ.h(q)
    pairs = [(i, j) for i in range(n_qubits) for j in range(i + 1, n_qubits)]
    chosen = rng.choice(len(pairs), size=max(1, len(pairs) // 4), replace=False)
    for idx in chosen:
        circ.cz(*pairs[int(idx)])
    for q in range(n_qubits):
        circ.h(q)
    return circ


#: Name -> builder for the Fig. 11 suite.
CIRCUIT_SUITE: dict[str, Callable[[int], Circuit]] = {
    "ghz": ghz_circuit,
    "qft": qft_circuit,
    "bernstein-vazirani": bernstein_vazirani_circuit,
    "qaoa-maxcut": qaoa_maxcut_circuit,
    "vqe-ansatz": vqe_ansatz_circuit,
    "ripple-adder": ripple_carry_adder_circuit,
    "heisenberg": heisenberg_trotter_circuit,
    "quantum-volume": quantum_volume_circuit,
    "hidden-shift": hidden_shift_circuit,
}


def build_suite(n_qubits: int) -> dict[str, Circuit]:
    """Instantiate every suite circuit at the given size."""
    return {name: builder(n_qubits) for name, builder in CIRCUIT_SUITE.items()}
