"""Dense statevector simulator.

Simulates circuits on up to ~22 qubits by direct state evolution.  This is
the reference engine: it handles arbitrary gates, including the non-XX
operations produced by phase-noise and residual-coupling error models.  The
paper's physical-scale experiments (8 and 11 qubits, Figs. 3/6/7) run here;
the 16- and 32-qubit scaling studies use :mod:`repro.sim.xx_engine`.

Conventions
-----------
Qubit 0 is the most-significant bit of the computational-basis index, so
``|q0 q1 ... q_{n-1}>`` maps to integer ``q0*2^{n-1} + ... + q_{n-1}``.
Bitstrings returned by measurement use the same ordering.
"""

from __future__ import annotations

import numpy as np

from . import gates
from .circuit import Circuit
from .sampling import sample_counts_from_probs

__all__ = [
    "StatevectorSimulator",
    "zero_state",
    "zero_states",
    "simulate",
    "check_bitstring",
    "subregister_bitstring",
    "batched_matrices_from_params",
    "realization_chunks",
    "MAX_DENSE_QUBITS",
    "MAX_BATCH_AMPLITUDES",
]

#: Hard cap for dense simulation (2^22 amplitudes = 64 MiB of complex128).
MAX_DENSE_QUBITS = 22

#: Combined cap for *batched* dense simulation: ``batch * 2^n`` amplitudes
#: (2^25 complex128 = 512 MiB).  Without this, realization batching would
#: multiply the per-state cap by the batch size.
MAX_BATCH_AMPLITUDES = 1 << 25


def zero_state(n_qubits: int) -> np.ndarray:
    """The all-zeros state ``|0...0>`` as a flat complex vector."""
    if n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"{n_qubits} qubits exceeds dense limit of {MAX_DENSE_QUBITS}"
        )
    state = np.zeros(2**n_qubits, dtype=complex)
    state[0] = 1.0
    return state


class StatevectorSimulator:
    """Evolves a dense statevector through a :class:`Circuit`.

    Parameters
    ----------
    n_qubits:
        Register width.  The initial state is ``|0...0>``.
    """

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        if n_qubits > MAX_DENSE_QUBITS:
            raise ValueError(
                f"{n_qubits} qubits exceeds dense limit of {MAX_DENSE_QUBITS}"
            )
        self.n_qubits = n_qubits
        self.state = zero_state(n_qubits)

    # -- state evolution -----------------------------------------------------

    def reset(self) -> None:
        """Re-initialize to ``|0...0>`` (qubit re-initialization)."""
        self.state = zero_state(self.n_qubits)

    def apply_gate(self, u: np.ndarray, qubits: tuple[int, ...]) -> None:
        """Apply gate matrix ``u`` to the given qubits in place."""
        k = len(qubits)
        if u.shape != (2**k, 2**k):
            raise ValueError(f"gate shape {u.shape} does not act on {k} qubits")
        n = self.n_qubits
        psi = self.state.reshape((2,) * n)
        # Move the target axes to the front, contract, and move them back.
        src = list(qubits)
        psi = np.moveaxis(psi, src, range(k))
        shape = psi.shape
        psi = psi.reshape(2**k, -1)
        psi = u @ psi
        psi = psi.reshape(shape)
        psi = np.moveaxis(psi, range(k), src)
        self.state = np.ascontiguousarray(psi).reshape(-1)

    def run(self, circuit: Circuit) -> np.ndarray:
        """Apply all operations of ``circuit`` and return the state."""
        if circuit.n_qubits != self.n_qubits:
            raise ValueError(
                f"circuit is on {circuit.n_qubits} qubits, "
                f"simulator on {self.n_qubits}"
            )
        for op in circuit.ops:
            self.apply_gate(op.matrix(), op.qubits)
        return self.state

    # -- measurement ----------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Measurement probabilities of all 2^n basis states."""
        return np.abs(self.state) ** 2

    def probability_of(self, bitstring: int) -> float:
        """Probability of measuring the given basis state (as an integer)."""
        return float(np.abs(self.state[bitstring]) ** 2)

    def sample(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``shots`` measurement outcomes (basis-state integers)."""
        probs = self.probabilities()
        # Guard against tiny negative values from floating-point error.
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum()
        return rng.choice(len(probs), size=shots, p=probs)

    def sample_counts(self, shots: int, rng: np.random.Generator) -> dict[int, int]:
        """Sample and aggregate outcomes into a ``{bitstring: count}`` map.

        Uses a single multinomial draw over the probability vector instead
        of materializing per-shot outcomes — O(2^n) work independent of the
        shot count.
        """
        return sample_counts_from_probs(self.probabilities(), shots, rng)


def simulate(circuit: Circuit) -> np.ndarray:
    """Convenience: run ``circuit`` from ``|0...0>`` and return the state."""
    sim = StatevectorSimulator(circuit.n_qubits)
    return sim.run(circuit)


# ---------------------------------------------------------------------------
# Batched simulation across noise realizations.
# ---------------------------------------------------------------------------


def zero_states(n_qubits: int, batch: int) -> np.ndarray:
    """``batch`` copies of ``|0...0>`` as a ``(batch, 2^n)`` state block.

    Refuses blocks above the dense caps: :data:`MAX_DENSE_QUBITS` per
    state and :data:`MAX_BATCH_AMPLITUDES` combined.  Every chunk
    :func:`realization_chunks` emits passes.
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"{n_qubits} qubits exceeds dense limit of {MAX_DENSE_QUBITS}"
        )
    if batch < 1:
        raise ValueError("batch must be positive")
    if batch * 2**n_qubits > MAX_BATCH_AMPLITUDES:
        raise ValueError(
            f"batch of {batch} states on {n_qubits} qubits exceeds the "
            f"combined amplitude cap (2^{MAX_BATCH_AMPLITUDES.bit_length() - 1})"
        )
    states = np.zeros((batch, 2**n_qubits), dtype=complex)
    states[:, 0] = 1.0
    return states


def realization_chunks(n_qubits: int, n_batch: int) -> list[tuple[int, int]]:
    """Split a realization batch into contiguous ``(start, stop)`` chunks.

    Each chunk's dense state block (``chunk * 2^n`` complex128
    amplitudes) fits :data:`MAX_BATCH_AMPLITUDES`.  A single realization
    always forms a chunk (the per-state :data:`MAX_DENSE_QUBITS` cap
    keeps it under the combined one).
    """
    if n_batch < 1:
        raise ValueError("batch must be positive")
    per_chunk = max(1, MAX_BATCH_AMPLITUDES // 2**n_qubits)
    return [
        (start, min(start + per_chunk, n_batch))
        for start in range(0, n_batch, per_chunk)
    ]


def check_bitstring(bitstring: int, n_qubits: int) -> None:
    """Refuse a basis-state integer outside ``[0, 2^n_qubits)``.

    Bit arithmetic on such a value would silently alias it onto a
    register state (or, negative, onto none), so it fails closed.
    """
    if not 0 <= bitstring < 1 << n_qubits:
        raise ValueError(
            f"bitstring {bitstring} is outside [0, 2^{n_qubits})"
        )


def subregister_bitstring(
    n_qubits: int, touched: list[int], bitstring: int
) -> tuple[int, bool]:
    """Project a full-width bitstring onto a compacted sub-register.

    Returns ``(sub_bitstring, forced_zero)`` where ``forced_zero`` is True
    when an *untouched* qubit would have to read ``1`` — impossible from
    ``|0...0>``, so the amplitude is identically zero.  ``touched`` must be
    sorted ascending (the compaction order used throughout the dense
    paths).  A ``bitstring`` outside ``[0, 2^n_qubits)`` raises
    ``ValueError`` (see :func:`check_bitstring`).
    """
    check_bitstring(bitstring, n_qubits)
    touched_set = set(touched)
    for q in range(n_qubits):
        if q not in touched_set and (bitstring >> (n_qubits - 1 - q)) & 1:
            return 0, True
    sub = 0
    for q in touched:
        sub = (sub << 1) | ((bitstring >> (n_qubits - 1 - q)) & 1)
    return sub, False


def batched_matrices_from_params(gate: str, params: np.ndarray) -> np.ndarray:
    """Gate matrices for one op slot from a ``(B, n_params)`` array.

    Parameterized native gates (``MS``, ``R``, ``RX``, ``RY``, ``RZ``) are
    constructed in one vectorized call; parameter-free gates broadcast a
    single matrix across the batch.
    """
    n_batch = params.shape[0]
    if gate == "MS":
        return gates.ms_gate_batch(params[:, 0], params[:, 1], params[:, 2])
    if gate == "R":
        return gates.r_gate_batch(params[:, 0], params[:, 1])
    if gate == "RX":
        return gates.rx_batch(params[:, 0])
    if gate == "RY":
        return gates.ry_batch(params[:, 0])
    if gate == "RZ":
        return gates.rz_batch(params[:, 0])
    fixed = {
        "X": gates.X,
        "Y": gates.Y,
        "Z": gates.Z,
        "H": gates.H,
        "CNOT": gates.cnot(),
        "CZ": gates.cz(),
        "SWAP": gates.swap(),
    }
    if gate not in fixed:
        raise ValueError(f"gate {gate!r} has no batched construction")
    matrix = fixed[gate]
    return np.broadcast_to(matrix, (n_batch,) + matrix.shape)
