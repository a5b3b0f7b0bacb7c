"""Fast evaluator for commuting-XX test circuits.

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
class) needs a 2^16-term sum instead of a 2^32 statevector.  A
:class:`ContractionPlan` sums components up to its ``max_exact_qubits``
exactly; a larger component is sampled: each realization row estimates
the same expectation (the sum is ``E_s[chi_z(s) e^{i phase(s)}]`` over
uniform spins) from :data:`MC_SAMPLES` spin draws of the caller's
generator.

An exact component also uses the global spin flip: a component without
linear terms has a flip-even phase, so its sum is ``(1 + (-1)^|z|)``
times the sum over ``s_0 = +1`` — zero for odd ``|z|`` and twice the
half-table sum otherwise.  Above 8 spins it splits the phase, which is
quadratic in the spins, between two halves A and B:
``phase(s) = phi_A(s_A) + phi_B(s_B) + s_A^T Theta s_B``, so a 2^m-term
sum needs two 2^(m/2)-row tables and one cross product, and nothing is
cached between calls.

Supported operations: ``XX``, ``MS`` with drive phases that are multiples of
pi (the axis stays on +-X), ``RX``, and ``X``.  Use
:meth:`Circuit.is_xx_only` to check eligibility; anything else belongs on
the dense simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MC_SAMPLES",
    "ms_axis_sign",
    "ContractionPlan",
    "batch_amplitudes_from_terms",
]

#: Spin assignments a sampled component draws per realization row.
MC_SAMPLES = 1 << 16


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
#: transient phase and trig arrays of sampled and of split components.
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

    ``spins`` holds one ``(m,)`` int8 assignment per row: a sampled
    component's draws, or a full table.  ``thetas``/``lin_thetas`` carry
    one row per batch entry (noise realization); the spin rows are
    shared, so the per-edge products are computed once and contracted
    against every realization's angles in a single matmul.  Chunked over
    spins to bound memory.  Returns one complex amplitude per batch row.
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


@dataclass(frozen=True)
class _SampledComponent:
    """A component above the plan's exact limit, estimated from samples.

    Keeps no tables: for each realization row it draws a uniform
    ``(MC_SAMPLES, m)`` block of spin rows from the caller's generator
    and sums it with :func:`_component_amplitudes_vectorized`, weight
    ``1 / MC_SAMPLES``.
    ``edge_cols``/``lin_cols`` pick the component's angle columns, in
    plan order; ``i_idx``, ``j_idx``, ``lin_idx`` and ``z_idx`` index its
    spins.
    """

    m: int
    edge_cols: np.ndarray
    i_idx: np.ndarray
    j_idx: np.ndarray
    lin_cols: np.ndarray
    lin_idx: np.ndarray
    z_idx: np.ndarray

    def amplitude(
        self, th: np.ndarray, ln: np.ndarray | None, rng: np.random.Generator
    ) -> complex:
        """One row's estimate from ``-1/2``-scaled ``(E,)``/``(L,)`` angles."""
        spins = rng.choice(
            np.array([-1, 1], dtype=np.int8), size=(MC_SAMPLES, self.m)
        )
        # Undo the -1/2 (a power of two, so exactly): the sum applies it.
        lin = np.zeros((1, 0)) if ln is None else -2.0 * ln[None, self.lin_cols]
        amps = _component_amplitudes_vectorized(
            spins,
            1.0 / MC_SAMPLES,
            self.i_idx,
            self.j_idx,
            -2.0 * th[None, self.edge_cols],
            self.lin_idx,
            lin,
            self.z_idx,
        )
        return complex(amps[0])


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
    only half their spin assignments.  A component above
    ``max_exact_qubits`` is sampled instead (:class:`_SampledComponent`).

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
        Largest component summed exactly.  A larger one is sampled, and
        :attr:`sampled` is set: every call then needs a generator, from
        which each realization row draws :data:`MC_SAMPLES` spin
        assignments per sampled component, row by row and in component
        order.

    A plan keeps ``O(2^(m/2) m)`` bytes per exact ``m``-qubit component,
    about 42 KB at the 20-qubit exact limit, and index arrays for a
    sampled one; nothing else persists between calls.
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
            # The amplitude is identically zero; skip compilation.
            components = []
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
            if len(comp) <= max_exact_qubits
        )
        self._sampled = tuple(
            self._sampled_component(comp, z_bits)
            for comp in components
            if len(comp) > max_exact_qubits
        )
        #: Whether a component is estimated from spin samples.
        self.sampled = bool(self._sampled)
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

    def _sampled_component(
        self, comp: list[int], z_bits: list[int]
    ) -> _SampledComponent:
        """Index arrays of one component summed over spin samples."""
        local = {q: k for k, q in enumerate(comp)}
        edges = [
            (c, local[min(e)], local[max(e)])
            for c, e in enumerate(self.edge_keys)
            if min(e) in local
        ]
        lins = [
            (c, local[q]) for c, q in enumerate(self.linear_keys) if q in local
        ]

        def index(values):
            return np.array(values, dtype=np.intp)

        return _SampledComponent(
            m=len(comp),
            edge_cols=index([c for c, _, _ in edges]),
            i_idx=index([i for _, i, _ in edges]),
            j_idx=index([j for _, _, j in edges]),
            lin_cols=index([c for c, _ in lins]),
            lin_idx=index([k for _, k in lins]),
            z_idx=index([k for k, q in enumerate(comp) if z_bits[q]]),
        )

    def amplitudes(
        self,
        thetas: np.ndarray,
        lin_thetas: np.ndarray | None = None,
        max_batch_bytes: int | None = None,
        rng: np.random.Generator | None = None,
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
        rng:
            The generator a :attr:`sampled` plan draws its spins from;
            without one such a plan raises ``ValueError``.
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
        if self.sampled and rng is None:
            raise ValueError(
                f"a component exceeds max_exact_qubits={self.max_exact_qubits}; "
                "sampling it needs an rng"
            )
        if self.forced_zero:
            return np.zeros(n_batch, dtype=complex)
        if not ((self._components or self.sampled) and n_batch):
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
            parts = [comp.amplitudes(th, ln) for comp in self._components]
            if self.sampled:
                parts.extend(self._sample(th, ln, rng))
            amps = parts[0]
            for part in parts[1:]:
                amps *= part
            chunks.append(amps)
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    def _sample(
        self, th: np.ndarray, ln: np.ndarray | None, rng: np.random.Generator
    ) -> np.ndarray:
        """``(K, B)`` sampled-component sums, drawn row by row in component order."""
        out = np.empty((len(self._sampled), th.shape[0]), dtype=complex)
        for g in range(th.shape[0]):
            for k, comp in enumerate(self._sampled):
                row = None if ln is None else ln[g]
                out[k, g] = comp.amplitude(th[g], row, rng)
        return out

    def probabilities(
        self,
        thetas: np.ndarray,
        lin_thetas: np.ndarray | None = None,
        max_batch_bytes: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Per-realization probabilities of the bitstring, clipped to [0, 1]."""
        amps = self.amplitudes(thetas, lin_thetas, max_batch_bytes, rng)
        # |amp|^2 >= 0, so only the upper clip can bind.
        return np.minimum(np.abs(amps) ** 2, 1.0)


def batch_amplitudes_from_terms(
    n_qubits: int,
    edge_angles: dict[frozenset[int], np.ndarray],
    linear_angles: dict[int, np.ndarray],
    bitstring: int,
    max_exact_qubits: int = 20,
    max_batch_bytes: int | None = None,
) -> np.ndarray:
    """Per-realization amplitudes from array-valued coupling terms.

    A one-shot helper: the terms carry one accumulated angle *per noise
    realization* (shape ``(G,)`` values in both dicts), and a
    :class:`ContractionPlan` is built for them and discarded after the
    call, so it computes exactly what the machine's cached plans
    compute, for all G rows at once.  Nothing in the package calls it;
    it serves the tests' slot-path oracle and the traced benchmark's
    kernel accounting.

    ``max_batch_bytes`` chunks the realization rows so transient memory
    stays bounded for very large batches (full-size N = 32 runs).

    Raises ``ValueError`` when a component exceeds ``max_exact_qubits``:
    it takes no generator to sample it with.
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
