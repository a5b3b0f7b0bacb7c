"""Quantum gate library for the ion-trap simulator.

All matrices follow the conventions of the paper (Sec. II-A and Fig. 4):

* ``R(theta, phi)`` — the general native one-qubit gate, a rotation by
  ``theta`` about the Bloch-sphere axis ``cos(phi) X + sin(phi) Y``.
* ``M(theta, phi1, phi2)`` — the general native two-qubit Molmer-Sorensen
  (MS) gate.  ``M(theta, 0, 0)`` equals ``XX(theta) = exp(-i theta XX / 2)``.

Gates are returned as dense ``numpy`` arrays of ``complex128``.
``gate_on_qubits`` embeds a gate in a full register for reference
computations.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "I2",
    "X",
    "Y",
    "Z",
    "H",
    "P",
    "S",
    "T",
    "rx",
    "ry",
    "rz",
    "r_gate",
    "xx",
    "ms_gate",
    "r_gate_batch",
    "rx_batch",
    "ry_batch",
    "rz_batch",
    "ms_gate_batch",
    "cnot",
    "cz",
    "swap",
    "controlled",
    "gate_on_qubits",
]

# ---------------------------------------------------------------------------
# Fixed one-qubit gates (Sec. II-A).
# ---------------------------------------------------------------------------

I2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
P = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)
S = P
T = np.array([[1.0, 0.0], [0.0, np.exp(0.25j * np.pi)]], dtype=complex)


def rx(theta: float) -> np.ndarray:
    """Rotation ``exp(-i theta X / 2)`` about the Pauli-X axis."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1.0j * s], [-1.0j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    """Rotation ``exp(-i theta Y / 2)`` about the Pauli-Y axis."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    """Rotation ``exp(-i theta Z / 2)`` about the Pauli-Z axis."""
    return np.array(
        [[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]], dtype=complex
    )


def r_gate(theta: float, phi: float) -> np.ndarray:
    """General native one-qubit gate ``R(theta, phi)`` from Fig. 4.

    ``R(theta, phi) = exp(-i theta (cos(phi) X + sin(phi) Y) / 2)``; the
    matrix form matches the paper exactly::

        [[cos(t/2),              -i e^{-i phi} sin(t/2)],
         [-i e^{i phi} sin(t/2),  cos(t/2)]]
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [c, -1.0j * np.exp(-1.0j * phi) * s],
            [-1.0j * np.exp(1.0j * phi) * s, c],
        ],
        dtype=complex,
    )


# ---------------------------------------------------------------------------
# Batched gate construction.
#
# The batched builders accept arrays of angles and return a stack of gate
# matrices of shape ``(B, 2^k, 2^k)``.  They exist for the vectorized
# simulation paths (noise-realization batching in the virtual machine, the
# Fig. 3 sequence sweep), where constructing B small matrices one Python
# call at a time dominates the runtime.
# ---------------------------------------------------------------------------


def _broadcast_params(*params: object) -> tuple[np.ndarray, ...]:
    """Broadcast scalar/array gate parameters to a common batch shape."""
    arrays = [np.asarray(p, dtype=float) for p in params]
    first = arrays[0].shape
    if all(a.ndim == 1 for a in arrays) and all(
        a.shape == first for a in arrays
    ):
        return tuple(arrays)
    arrays = np.broadcast_arrays(*arrays)
    if arrays[0].ndim > 1:
        raise ValueError("batched gate parameters must be scalars or 1-D")
    return tuple(np.atleast_1d(a) for a in arrays)


def r_gate_batch(theta: object, phi: object) -> np.ndarray:
    """Batched ``R(theta, phi)``: returns a ``(B, 2, 2)`` stack."""
    theta_a, phi_a = _broadcast_params(theta, phi)
    c = np.cos(theta_a / 2.0)
    s = np.sin(theta_a / 2.0)
    out = np.zeros((theta_a.size, 2, 2), dtype=complex)
    out[:, 0, 0] = c
    out[:, 0, 1] = -1.0j * np.exp(-1.0j * phi_a) * s
    out[:, 1, 0] = -1.0j * np.exp(1.0j * phi_a) * s
    out[:, 1, 1] = c
    return out


def rx_batch(theta: object) -> np.ndarray:
    """Batched ``RX(theta)``: returns a ``(B, 2, 2)`` stack."""
    return r_gate_batch(theta, 0.0)


def ry_batch(theta: object) -> np.ndarray:
    """Batched ``RY(theta)``: returns a ``(B, 2, 2)`` stack."""
    return r_gate_batch(theta, math.pi / 2.0)


def rz_batch(theta: object) -> np.ndarray:
    """Batched ``RZ(theta)``: returns a ``(B, 2, 2)`` stack."""
    (theta_a,) = _broadcast_params(theta)
    out = np.zeros((theta_a.size, 2, 2), dtype=complex)
    out[:, 0, 0] = np.exp(-0.5j * theta_a)
    out[:, 1, 1] = np.exp(0.5j * theta_a)
    return out


def ms_gate_batch(theta: object, phi1: object, phi2: object) -> np.ndarray:
    """Batched ``M(theta, phi1, phi2)``: returns a ``(B, 4, 4)`` stack."""
    theta_a, phi1_a, phi2_a = _broadcast_params(theta, phi1, phi2)
    c = np.cos(theta_a / 2.0)
    s = np.sin(theta_a / 2.0)
    e_pp = np.exp(-1.0j * (phi1_a + phi2_a))
    e_pm = np.exp(-1.0j * (phi1_a - phi2_a))
    out = np.zeros((theta_a.size, 4, 4), dtype=complex)
    out[:, 0, 0] = c
    out[:, 0, 3] = -1.0j * e_pp * s
    out[:, 1, 1] = c
    out[:, 1, 2] = -1.0j * e_pm * s
    out[:, 2, 1] = -1.0j * np.conj(e_pm) * s
    out[:, 2, 2] = c
    out[:, 3, 0] = -1.0j * np.conj(e_pp) * s
    out[:, 3, 3] = c
    return out


# ---------------------------------------------------------------------------
# Two-qubit gates.
# ---------------------------------------------------------------------------


def xx(theta: float) -> np.ndarray:
    """The Molmer-Sorensen interaction ``XX(theta) = exp(-i theta XX / 2)``."""
    return ms_gate(theta, 0.0, 0.0)


def ms_gate(theta: float, phi1: float, phi2: float) -> np.ndarray:
    """General two-qubit MS gate ``M(theta, phi1, phi2)`` from Fig. 4.

    ``phi1`` and ``phi2`` are the drive phases on the two ions; nonzero
    phases rotate the interaction axis away from pure XX.  The matrix is
    written in the computational basis ``|00>, |01>, |10>, |11>``.
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    e_pp = np.exp(-1.0j * (phi1 + phi2))
    e_pm = np.exp(-1.0j * (phi1 - phi2))
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = c
    m[0, 3] = -1.0j * e_pp * s
    m[1, 1] = c
    m[1, 2] = -1.0j * e_pm * s
    m[2, 1] = -1.0j * np.conj(e_pm) * s
    m[2, 2] = c
    m[3, 0] = -1.0j * np.conj(e_pp) * s
    m[3, 3] = c
    return m


def cnot() -> np.ndarray:
    """Controlled-NOT with qubit 0 (most-significant) as control."""
    m = np.eye(4, dtype=complex)
    m[[2, 3]] = m[[3, 2]]
    return m


def cz() -> np.ndarray:
    """Controlled-Z gate (symmetric under qubit exchange)."""
    return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def swap() -> np.ndarray:
    """SWAP gate exchanging two qubits."""
    m = np.eye(4, dtype=complex)
    m[[1, 2]] = m[[2, 1]]
    return m


def controlled(u: np.ndarray) -> np.ndarray:
    """Two-qubit controlled-``u`` with qubit 0 as control."""
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = u
    return m


# ---------------------------------------------------------------------------
# Utilities.
# ---------------------------------------------------------------------------


def gate_on_qubits(
    u: np.ndarray, qubits: tuple[int, ...], n_qubits: int
) -> np.ndarray:
    """Embed gate ``u`` acting on ``qubits`` into an ``n_qubits`` operator.

    Qubit 0 is the most-significant bit of the basis index, matching the
    statevector simulator's convention.  This builds a dense 2^n x 2^n
    matrix and is intended for reference computations in tests, not for
    production simulation.
    """
    k = len(qubits)
    if u.shape != (2**k, 2**k):
        raise ValueError(f"gate shape {u.shape} does not act on {k} qubits")
    if len(set(qubits)) != k:
        raise ValueError("duplicate qubits in gate application")
    if any(q < 0 or q >= n_qubits for q in qubits):
        raise ValueError("qubit index out of range")

    dim = 2**n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(n_qubits) if q not in qubits]
    for col in range(dim):
        col_bits = [(col >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
        sub_col = 0
        for q in qubits:
            sub_col = (sub_col << 1) | col_bits[q]
        for sub_row in range(2**k):
            amp = u[sub_row, sub_col]
            if amp == 0.0:
                continue
            row_bits = list(col_bits)
            for idx, q in enumerate(qubits):
                row_bits[q] = (sub_row >> (k - 1 - idx)) & 1
            row = 0
            for b in row_bits:
                row = (row << 1) | b
            out[row, col] += amp
    return out
