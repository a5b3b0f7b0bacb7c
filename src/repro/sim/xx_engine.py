"""Fast exact evaluator for commuting-XX test circuits.

Every single-output test circuit in the paper is a product of MS gates, i.e.
``XX(theta)`` rotations (possibly with per-application angle errors).  All
such operators are diagonal in the X basis: ``XX(theta) |s> =
exp(-i theta s_i s_j / 2) |s>`` where ``s in {+-1}^n`` labels X-basis
states.  Expanding ``|0...0>`` over the X basis gives, for any output
bitstring ``z``,

    <z| U |0...0> = 2^{-n} * sum_s  chi_z(s) * exp(i * phase(s))
    phase(s) = -1/2 * [ sum_edges theta_e s_i s_j  +  sum_i beta_i s_i ]
    chi_z(s) = prod_{i : z_i = 1} s_i

The sum factorizes over connected components of the coupling graph, so a
class test on an N = 32 machine (which touches only the 16 qubits of one
class) needs a 2^16-term sum instead of a 2^32 statevector.  Components up
to :attr:`XXCircuitEvaluator.max_exact_qubits` are summed exactly with
vectorized numpy; larger components fall back to a Monte-Carlo estimate of
the same expectation (the sum is ``E_s[chi_z(s) e^{i phase(s)}]`` over
uniform spins).

The compiled :class:`ContractionPlan` also uses the global spin flip: a
component without linear terms has a flip-even phase, so its sum is
``(1 + (-1)^|z|)`` times the sum over ``s_0 = +1`` — zero for odd ``|z|``
and twice the half-table sum otherwise.  Above 8 spins it splits the
phase, which is quadratic in the spins, between two halves A and B:
``phase(s) = phi_A(s_A) + phi_B(s_B) + s_A^T Theta s_B``, so a 2^m-term
sum needs two 2^(m/2)-row tables and one cross product, and nothing is
cached between calls.  :class:`XXCircuitEvaluator` builds the full table
per call and serves as its reference.

Supported operations: ``XX``, ``MS`` with drive phases that are multiples of
pi (the axis stays on +-X), ``RX``, and ``X``.  Use
:meth:`Circuit.is_xx_only` to check eligibility; anything else belongs on
the dense simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit

__all__ = [
    "ms_axis_sign",
    "XXCircuitEvaluator",
    "CouplingTerms",
    "ContractionPlan",
    "batch_amplitudes_from_terms",
]


@dataclass
class CouplingTerms:
    """Accumulated X-basis-diagonal terms extracted from a circuit.

    Attributes
    ----------
    edge_angles:
        Total XX angle per qubit pair (sums repeated gate applications —
        valid because all terms commute).
    linear_angles:
        Total RX angle per qubit.  A plain ``X`` gate is ``i RX(pi)``: it
        adds ``pi`` here, and its global phase is dropped.
    """

    edge_angles: dict[frozenset[int], float] = field(default_factory=dict)
    linear_angles: dict[int, float] = field(default_factory=dict)

    def add_edge(self, i: int, j: int, theta: float) -> None:
        """Accumulate an XX rotation of ``theta`` on the pair ``{i, j}``."""
        key = frozenset((i, j))
        self.edge_angles[key] = self.edge_angles.get(key, 0.0) + theta

    def add_linear(self, q: int, theta: float) -> None:
        """Accumulate an RX rotation of ``theta`` on qubit ``q``."""
        self.linear_angles[q] = self.linear_angles.get(q, 0.0) + theta

    def touched_qubits(self) -> set[int]:
        """All qubits appearing in edge or linear terms."""
        out: set[int] = set()
        for e in self.edge_angles:
            out.update(e)
        out.update(self.linear_angles)
        return out


def ms_axis_sign(phi1, phi2):
    """Sign of the XX angle for pi-multiple MS drive phases (elementwise).

    The MS axis is ``(+-X) x (+-X)``: the angle flips sign when exactly
    one phase is an odd multiple of pi.  Single source of the sign
    convention shared by term extraction and the batched machine path.
    """
    return (-1.0) ** (
        np.rint(np.asarray(phi1) / math.pi)
        + np.rint(np.asarray(phi2) / math.pi)
    )


def _extract_terms(circuit: Circuit) -> CouplingTerms:
    """Fold an XX-only circuit into accumulated rotation angles."""
    terms = CouplingTerms()
    for op in circuit.ops:
        if op.gate == "XX":
            terms.add_edge(op.qubits[0], op.qubits[1], op.params[0])
        elif op.gate == "MS":
            theta, phi1, phi2 = op.params
            if not op.is_xx_like():
                raise ValueError(
                    "MS gate with non-multiple-of-pi phases is not X-diagonal"
                )
            terms.add_edge(
                op.qubits[0], op.qubits[1], float(ms_axis_sign(phi1, phi2)) * theta
            )
        elif op.gate == "RX":
            terms.add_linear(op.qubits[0], op.params[0])
        elif op.gate == "X":
            # X = i * RX(pi); the global phase cancels in probabilities and
            # is irrelevant to the pass/fail statistics this engine feeds.
            terms.add_linear(op.qubits[0], math.pi)
        else:
            raise ValueError(f"gate {op.gate} is not supported by the XX engine")
    return terms


def _connected_components(
    qubits: set[int], edges: dict[frozenset[int], float]
) -> list[list[int]]:
    """Connected components of the coupling graph (sorted qubit lists)."""
    adj: dict[int, set[int]] = {q: set() for q in qubits}
    for e in edges:
        i, j = tuple(e)
        adj[i].add(j)
        adj[j].add(i)
    seen: set[int] = set()
    comps: list[list[int]] = []
    for q in sorted(qubits):
        if q in seen:
            continue
        stack, comp = [q], []
        seen.add(q)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def _spin_columns(m: int, rows: int) -> np.ndarray:
    """The first ``rows`` assignments of ``m`` spins as ``(m, rows)`` int8 +-1.

    Column order is big-endian in the spins, so the first ``2^(m-1)``
    columns are the ``s_0 = +1`` half of the full ``2^m`` table.
    """
    idx = np.arange(rows, dtype=np.uint32)
    shifts = np.arange(m - 1, -1, -1, dtype=np.uint32)[:, None]
    return (1 - 2 * ((idx >> shifts) & 1)).astype(np.int8)


#: Spin assignments contracted at once per realization row: bounds the
#: transient phase and trig arrays of the oracle and of split components.
_CHUNK_SPINS = 1 << 13


def _component_amplitudes_vectorized(
    spins: np.ndarray,
    weight: float,
    i_idx: np.ndarray,
    j_idx: np.ndarray,
    thetas: np.ndarray,
    lin_idx: np.ndarray,
    lin_thetas: np.ndarray,
    z_idx: np.ndarray,
) -> np.ndarray:
    """Batched component sum ``weight * sum_s chi_z(s) e^{i phase_g(s)}``.

    ``thetas``/``lin_thetas`` carry one row per batch entry (noise
    realization); the spin table is shared, so the per-edge products are
    computed once and contracted against every realization's angles in a
    single matmul.  Chunked over spins to bound memory on 16-qubit
    components.  Returns one complex amplitude per batch row.
    """
    n_batch = thetas.shape[0]
    amps = np.zeros(n_batch, dtype=complex)
    for start in range(0, spins.shape[0], _CHUNK_SPINS):
        block = spins[start : start + _CHUNK_SPINS]
        # (S, E) pair products contracted against (G, E) angles -> (G, S).
        pair = (block[:, i_idx] * block[:, j_idx]).astype(np.float64)
        phase = (-0.5 * thetas) @ pair.T
        if lin_idx.size:
            phase += (-0.5 * lin_thetas) @ block[:, lin_idx].T.astype(np.float64)
        if z_idx.size:
            chi = np.prod(block[:, z_idx], axis=1).astype(np.float64)
        else:
            chi = np.ones(block.shape[0])
        amps += np.exp(1.0j * phase) @ chi
    return weight * amps


#: Components above this many spins split their sum into halves A and B;
#: up to it B is empty and the sum is one table contraction.
_SPLIT_ABOVE = 8


def _term_rows(
    spins: np.ndarray, i_idx: np.ndarray, j_idx: np.ndarray, lin_idx: np.ndarray
) -> np.ndarray:
    """int8 rows a half's phase contracts: edge spin products, then linear spins."""
    return np.concatenate((spins[i_idx] * spins[j_idx], spins[lin_idx]))


@dataclass(frozen=True)
class _Half:
    """One half of a component's spins.

    ``spins`` is the half's ``(k, S)`` int8 table and ``chi`` its
    ``(S,)`` character; ``edges`` and ``lins`` slice the half's own
    columns out of the component's, and ``i_idx``, ``j_idx`` and
    ``lin_idx`` index its spins.  A half of at most :data:`_SPLIT_ABOVE`
    spins keeps its :func:`_term_rows` in ``terms`` (at most 36 x 256
    bytes); a larger one forms them per call, since the two halves of a
    20-qubit component would keep 69 KB.
    """

    spins: np.ndarray
    chi: np.ndarray
    edges: slice
    lins: slice
    i_idx: np.ndarray
    j_idx: np.ndarray
    lin_idx: np.ndarray
    terms: np.ndarray | None

    def phase(self, th: np.ndarray, ln: np.ndarray | None) -> np.ndarray:
        """``(B, S)`` phases of the half's own edge and linear terms.

        ``th`` and ``ln`` carry the phase's ``-1/2`` already: a power of
        two, so where it is applied does not change a bit.
        """
        terms = self.terms
        if terms is None:
            terms = _term_rows(self.spins, self.i_idx, self.j_idx, self.lin_idx)
        terms = terms.astype(np.float64)
        phase = th[:, self.edges] @ terms[: self.i_idx.size]
        if self.lin_idx.size:
            phase += ln[:, self.lins] @ terms[self.i_idx.size :]
        return phase


@dataclass(frozen=True)
class _PlanComponent:
    """Contraction data for one coupling-graph component of ``m`` spins.

    The spins split into A, the first ``m - b``, and B, the last ``b``,
    with ``b = 0`` up to :data:`_SPLIT_ABOVE` spins and ``m // 2`` above.
    Then ``phase(s) = phi_A(s_A) + phi_B(s_B) + s_A^T Theta s_B``, where
    ``Theta`` holds the cross edges' ``-theta / 2``, and the character
    factorizes as ``chi_A(s_A) chi_B(s_B)``.  The component's edge
    columns come ordered A, B, cross; its linear columns A, B.  Only
    int8 tables, characters and index arrays stay resident: each call
    forms its phases from them.

    ``rows`` is the number of spin assignments summed.  A component with
    no linear (RX/X) terms has a phase that is even under the global
    spin flip ``s -> -s``, while its character picks up ``(-1)^|z|``;
    for even ``|z|`` both halves of the spin space contribute equally,
    so only ``s_0 = +1`` (the first half of A's table) is summed, with
    weight ``2 / 2^m`` folded into ``chi_A``.  Odd ``|z|`` never
    compiles to a component: the plan is zero outright.
    """

    rows: int
    edge_cols: np.ndarray | slice
    lin_cols: np.ndarray
    half_a: _Half
    half_b: _Half | None
    cross: slice
    cross_i: np.ndarray
    cross_j: np.ndarray

    def amplitudes(self, th: np.ndarray, ln: np.ndarray | None) -> np.ndarray:
        """Weighted component sums for ``-1/2``-scaled ``(B, E)`` / ``(B, L)`` rows.

        ``sum_s chi(s) e^{i phase(s)}`` in real arithmetic: ``cos(phase)``
        and ``sin(phase)`` contracted with each half's character.
        """
        th = th[:, self.edge_cols]
        ln = ln[:, self.lin_cols] if self.lin_cols.size else None
        phase = self.half_a.phase(th, ln)
        if self.half_b is None:
            cos, sin = np.cos(phase), np.sin(phase)
        else:
            cos, sin = self._sum_b(phase, th, ln)
        chi = self.half_a.chi
        re, im = cos @ chi, sin @ chi
        return re + 1j * im

    def _sum_b(
        self, phase_a: np.ndarray, th: np.ndarray, ln: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(B, S_A)`` cosine and sine sums over B for every ``s_A``.

        One ``(S_A x a)(a x b)(b x S_B)`` product gives the cross phase,
        in chunks of A rows that span at most :data:`_CHUNK_SPINS`
        assignments each.
        """
        a, b = self.half_a, self.half_b
        phase_b = b.phase(th, ln)
        theta = np.zeros((th.shape[0], a.spins.shape[0], b.spins.shape[0]))
        theta[:, self.cross_i, self.cross_j] = th[:, self.cross]
        theta_b = theta @ b.spins.astype(np.float64)
        spins_a = a.spins.T.astype(np.float64)
        cos = np.empty_like(phase_a)
        sin = np.empty_like(phase_a)
        step = max(1, _CHUNK_SPINS // phase_b.shape[1])
        for start in range(0, phase_a.shape[1], step):
            chunk = slice(start, start + step)
            phase = spins_a[chunk] @ theta_b
            phase += phase_a[:, chunk, None]
            phase += phase_b[:, None, :]
            cos[:, chunk] = np.cos(phase) @ b.chi
            sin[:, chunk] = np.sin(phase) @ b.chi
        return cos, sin


class ContractionPlan:
    """Pre-contracted evaluation plan for one XX term structure.

    A plan fixes everything about a test circuit that does not change
    across noise realizations, trials, or magnitude sweep points: the
    coupling-graph components, the per-component local edge/linear
    indexing, the split of each component's spins, their int8 half
    tables and the expected-bitstring characters.  Evaluating a batch of
    realizations then reduces to a few small matmuls and two real trig
    passes per component (see :class:`_PlanComponent`) instead of
    re-deriving the graph per call.  Components without linear terms sum
    only half their spin assignments.

    Parameters
    ----------
    n_qubits:
        Register width of the underlying circuit.
    edge_keys:
        Coupling pairs in **column order**: row ``g`` of a ``thetas``
        matrix passed to :meth:`amplitudes` carries realization ``g``'s
        accumulated XX angle for ``edge_keys[e]`` in column ``e``.
    linear_keys:
        Qubits with linear (RX-like) terms, defining ``lin_thetas``
        column order.
    bitstring:
        The output state whose amplitude the plan computes.
    max_exact_qubits:
        Components above this size raise ``ValueError`` (callers fall
        back to per-realization Monte-Carlo evaluation).

    A plan keeps ``O(2^(m/2) m)`` bytes per ``m``-qubit component, about
    42 KB at the 20-qubit exact limit; nothing else persists between
    calls.
    """

    def __init__(
        self,
        n_qubits: int,
        edge_keys: list[frozenset[int]],
        linear_keys: list[int],
        bitstring: int,
        max_exact_qubits: int = 20,
    ):
        if not 0 <= bitstring < 2**n_qubits:
            raise ValueError("bitstring out of range")
        self.n_qubits = n_qubits
        self.edge_keys = list(edge_keys)
        self.linear_keys = list(linear_keys)
        self.bitstring = bitstring
        self.max_exact_qubits = max_exact_qubits
        touched: set[int] = set()
        for e in self.edge_keys:
            touched.update(e)
        touched.update(self.linear_keys)
        z_bits = [(bitstring >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
        self.forced_zero = any(
            z_bits[q] for q in range(n_qubits) if q not in touched
        )
        components = _connected_components(
            touched, {e: 0.0 for e in self.edge_keys}
        )
        if self.forced_zero:
            # The amplitude is identically zero; skip compilation (and the
            # exact-size check — nothing will be summed).
            components = []
        elif any(len(c) > max_exact_qubits for c in components):
            raise ValueError(
                "component exceeds the exact-summation limit; "
                "use per-realization Monte-Carlo evaluation"
            )
        self.component_qubits = components
        linear = set(self.linear_keys)
        if any(
            not linear.intersection(comp) and sum(z_bits[q] for q in comp) % 2
            for comp in components
        ):
            # A flip-odd character against a flip-even phase.
            self.forced_zero = True
            components = []
        self._components = tuple(
            self._compile_component(comp, z_bits, not linear.intersection(comp))
            for comp in components
        )
        #: Largest spin-chunk length, for memory-budget row chunking.
        self._max_block_spins = max(
            (min(c.rows, _CHUNK_SPINS) for c in self._components),
            default=1,
        )

    def _compile_component(
        self, comp: list[int], z_bits: list[int], flip_even: bool
    ) -> _PlanComponent:
        """Split one component's spins and build its half tables."""
        m = len(comp)
        a = m - (0 if m <= _SPLIT_ABOVE else m // 2)
        local = {q: k for k, q in enumerate(comp)}
        # Edges as (column, i, j) with i < j, ordered A, B, cross; linear
        # terms as (column, spin), ordered A, B.
        edges = sorted(
            (
                (c, local[min(e)], local[max(e)])
                for c, e in enumerate(self.edge_keys)
                if min(e) in local
            ),
            key=lambda e: 0 if e[2] < a else 1 if e[1] >= a else 2,
        )
        lins = sorted(
            ((c, local[q]) for c, q in enumerate(self.linear_keys) if q in local),
            key=lambda lin: lin[1] >= a,
        )
        n_aa = sum(j < a for _, _, j in edges)
        n_ab = n_aa + sum(i >= a for _, i, _ in edges)
        n_la = sum(k < a for _, k in lins)
        z_idx = [k for k, q in enumerate(comp) if z_bits[q]]
        rows_a, rows_b = 2 ** (a - flip_even), 2 ** (m - a)

        def half(lo, hi, rows, weight, edge_cols, lin_cols):
            """Spins ``lo`` to ``hi - 1`` over their first ``rows`` assignments."""
            spins = _spin_columns(hi - lo, rows)
            i_idx = np.array([i - lo for _, i, _ in edges[edge_cols]], dtype=np.intp)
            j_idx = np.array([j - lo for _, _, j in edges[edge_cols]], dtype=np.intp)
            lin_idx = np.array([k - lo for _, k in lins[lin_cols]], dtype=np.intp)
            z = [k - lo for k in z_idx if lo <= k < hi]
            return _Half(
                spins=spins,
                chi=weight * np.prod(spins[z], axis=0),
                edges=edge_cols,
                lins=lin_cols,
                i_idx=i_idx,
                j_idx=j_idx,
                lin_idx=lin_idx,
                terms=(
                    _term_rows(spins, i_idx, j_idx, lin_idx)
                    if hi - lo <= _SPLIT_ABOVE
                    else None
                ),
            )

        weight = 1.0 / (rows_a * rows_b)
        half_a = half(0, a, rows_a, weight, slice(0, n_aa), slice(0, n_la))
        half_b = None
        if a < m:
            half_b = half(a, m, rows_b, 1.0, slice(n_aa, n_ab), slice(n_la, None))
        cross = edges[n_ab:]
        edge_cols = np.array([c for c, _, _ in edges], dtype=np.intp)
        if np.array_equal(edge_cols, np.arange(len(self.edge_keys))):
            # One component owns every edge in order: a slice skips the gather.
            edge_cols = slice(None)
        return _PlanComponent(
            rows=rows_a * rows_b,
            edge_cols=edge_cols,
            lin_cols=np.array([c for c, _ in lins], dtype=np.intp),
            half_a=half_a,
            half_b=half_b,
            cross=slice(n_ab, None),
            cross_i=np.array([i for _, i, _ in cross], dtype=np.intp),
            cross_j=np.array([j - a for _, _, j in cross], dtype=np.intp),
        )

    def amplitudes(
        self,
        thetas: np.ndarray,
        lin_thetas: np.ndarray | None = None,
        max_batch_bytes: int | None = None,
    ) -> np.ndarray:
        """Per-realization amplitudes ``<z|U_g|0...0>`` from angle rows.

        Parameters
        ----------
        thetas:
            ``(B, E)`` accumulated XX angles, columns ordered as
            ``edge_keys``.
        lin_thetas:
            ``(B, L)`` accumulated linear angles (``linear_keys`` order);
            may be omitted when the plan has no linear terms.
        max_batch_bytes:
            When set, realization rows are processed in chunks sized so
            the transient phase/trig blocks stay within this budget
            (peak memory stays bounded for very large batches).
        """
        thetas = np.asarray(thetas, dtype=np.float64)
        if thetas.ndim != 2 or thetas.shape[1] != len(self.edge_keys):
            raise ValueError(
                f"thetas must be (B, {len(self.edge_keys)}); got {thetas.shape}"
            )
        n_batch = thetas.shape[0]
        if self.linear_keys:
            if lin_thetas is None:
                raise ValueError("plan has linear terms; lin_thetas required")
            lin_thetas = np.asarray(lin_thetas, dtype=np.float64)
            if lin_thetas.shape != (n_batch, len(self.linear_keys)):
                raise ValueError(
                    f"lin_thetas must be (B, {len(self.linear_keys)})"
                )
        else:
            lin_thetas = None
        if self.forced_zero:
            return np.zeros(n_batch, dtype=complex)
        if not (self._components and n_batch):
            return np.ones(n_batch, dtype=complex)
        if max_batch_bytes is None:
            rows = n_batch
        else:
            # Transient per chunk: (rows, S) float64 phase, cos and sin.
            rows = max(1, max_batch_bytes // (24 * self._max_block_spins))
        chunks = []
        for start in range(0, n_batch, rows):
            # The phase's -1/2, applied once for every component.
            th = -0.5 * thetas[start : start + rows]
            ln = None if lin_thetas is None else -0.5 * lin_thetas[start : start + rows]
            amps = self._components[0].amplitudes(th, ln)
            for comp in self._components[1:]:
                amps *= comp.amplitudes(th, ln)
            chunks.append(amps)
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    def probabilities(
        self,
        thetas: np.ndarray,
        lin_thetas: np.ndarray | None = None,
        max_batch_bytes: int | None = None,
    ) -> np.ndarray:
        """Per-realization probabilities of the bitstring, clipped to [0, 1]."""
        amps = self.amplitudes(thetas, lin_thetas, max_batch_bytes)
        # |amp|^2 >= 0, so only the upper clip can bind.
        return np.minimum(np.abs(amps) ** 2, 1.0)


class XXCircuitEvaluator:
    """Exact (or Monte-Carlo) output amplitudes for XX-only circuits.

    Parameters
    ----------
    circuit:
        An XX-only circuit (see module docstring for supported gates).
    max_exact_qubits:
        Components with at most this many qubits are summed exactly
        (2^m terms); larger components use Monte-Carlo estimation.
    mc_samples:
        Spin-sample count for the Monte-Carlo branch.
    rng:
        Random generator for Monte-Carlo sampling; defaults to a fixed seed
        so evaluation is deterministic unless a generator is supplied.
    """

    def __init__(
        self,
        circuit: Circuit,
        max_exact_qubits: int = 20,
        mc_samples: int = 1 << 16,
        rng: np.random.Generator | None = None,
    ):
        if not circuit.is_xx_only():
            raise ValueError("circuit contains gates not diagonal in the X basis")
        self.circuit = circuit
        self.n_qubits = circuit.n_qubits
        self.max_exact_qubits = max_exact_qubits
        self.mc_samples = mc_samples
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.terms = _extract_terms(circuit)
        self.components = _connected_components(
            self.terms.touched_qubits(), self.terms.edge_angles
        )
        self._touched = self.terms.touched_qubits()

    # -- public API -----------------------------------------------------------

    def amplitude(self, bitstring: int) -> complex:
        """Output amplitude ``<z|U|0...0>`` up to a global phase.

        The per-component sums are exact; a global phase from ``X`` gates is
        dropped (probabilities are unaffected).
        """
        z_bits = self._bits(bitstring)
        # Untouched qubits stay |0>: amplitude vanishes unless their z is 0.
        for q in range(self.n_qubits):
            if q not in self._touched and z_bits[q]:
                return 0.0j
        amp = 1.0 + 0.0j
        for comp in self.components:
            amp *= self._component_amplitude(comp, z_bits)
            if amp == 0.0:
                return amp
        return amp

    def probability_of(self, bitstring: int) -> float:
        """Probability of measuring ``bitstring``; clipped to [0, 1]."""
        p = abs(self.amplitude(bitstring)) ** 2
        return float(min(max(p, 0.0), 1.0))

    # -- internals -------------------------------------------------------------

    def _bits(self, bitstring: int) -> list[int]:
        if not 0 <= bitstring < 2**self.n_qubits:
            raise ValueError("bitstring out of range")
        return [
            (bitstring >> (self.n_qubits - 1 - q)) & 1 for q in range(self.n_qubits)
        ]

    def _component_amplitude(self, comp: list[int], z_bits: list[int]) -> complex:
        m = len(comp)
        local = {q: k for k, q in enumerate(comp)}
        edges = [
            (local[min(e)], local[max(e)], theta)
            for e, theta in self.terms.edge_angles.items()
            if min(e) in local
        ]
        linear = [
            (local[q], theta)
            for q, theta in self.terms.linear_angles.items()
            if q in local
        ]
        if m <= self.max_exact_qubits:
            spins = np.ascontiguousarray(_spin_columns(m, 2**m).T)
            weight = 1.0 / 2**m
        else:
            spins = self.rng.choice(
                np.array([-1, 1], dtype=np.int8), size=(self.mc_samples, m)
            )
            weight = 1.0 / self.mc_samples
        amps = _component_amplitudes_vectorized(
            spins,
            weight,
            np.array([i for i, _, _ in edges], dtype=np.intp),
            np.array([j for _, j, _ in edges], dtype=np.intp),
            np.array([[theta for _, _, theta in edges]], dtype=np.float64),
            np.array([i for i, _ in linear], dtype=np.intp),
            np.array([[theta for _, theta in linear]], dtype=np.float64),
            np.array(
                [k for k, q in enumerate(comp) if z_bits[q]], dtype=np.intp
            ),
        )
        return complex(amps[0])


def batch_amplitudes_from_terms(
    n_qubits: int,
    edge_angles: dict[frozenset[int], np.ndarray],
    linear_angles: dict[int, np.ndarray],
    bitstring: int,
    max_exact_qubits: int = 20,
    max_batch_bytes: int | None = None,
) -> np.ndarray:
    """Per-realization amplitudes from array-valued coupling terms.

    The terms carry one accumulated angle *per noise realization* (shape
    ``(G,)`` values in both dicts).  Internally this builds a one-shot
    :class:`ContractionPlan` and discards it after the call, so it
    computes exactly what the machine's cached plans compute, for all G
    realization rows at once.  The virtual machine's evaluation pass
    shares one plan per test structure in its compiled-test cache; this
    serves its slot path instead: dense draws that stay
    X-diagonal and the per-call oracle the compiled routes are checked
    against.

    ``max_batch_bytes`` chunks the realization rows so transient memory
    stays bounded for very large batches (full-size N = 32 runs).

    Raises ``ValueError`` when a component exceeds ``max_exact_qubits``
    (callers fall back to per-realization Monte-Carlo evaluation).
    """
    sizes = {len(v) for v in edge_angles.values()}
    sizes.update(len(v) for v in linear_angles.values())
    if len(sizes) != 1:
        raise ValueError("term arrays must share one realization count")
    n_batch = sizes.pop()
    edge_keys = list(edge_angles)
    linear_keys = list(linear_angles)
    plan = ContractionPlan(
        n_qubits,
        edge_keys,
        linear_keys,
        bitstring,
        max_exact_qubits=max_exact_qubits,
    )
    thetas = (
        np.stack([edge_angles[e] for e in edge_keys], axis=1)
        if edge_keys
        else np.zeros((n_batch, 0))
    )
    lin_thetas = (
        np.stack([linear_angles[q] for q in linear_keys], axis=1)
        if linear_keys
        else None
    )
    return plan.amplitudes(thetas, lin_thetas, max_batch_bytes=max_batch_bytes)
