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
class test on an N = 32 machine (the 16 qubits of one class) needs a
2^16-term sum instead of a 2^32 statevector.  A :class:`ContractionPlan`
sums components up to its ``max_exact_qubits`` exactly; a larger one is
sampled: each realization row estimates ``E_s[chi_z(s) e^{i phase(s)}]``
over uniform spins from :data:`MC_SAMPLES` draws of the caller's
generator.

An exact component also uses the global spin flip: a component without
linear terms has a flip-even phase, so its sum is ``(1 + (-1)^|z|)``
times the sum over ``s_0 = +1`` — zero for odd ``|z|`` and twice the
half-table sum otherwise.  A larger component splits its spins into A
and B, ``phase(s) = phi_A(s_A) + phi_B(s_B) + s_A^T Theta s_B``; the
sum over B is then one bilinear form per row, ``G = chi_B e^{i phi_B}``
against products of ``e^{+-i (Theta^T s_A)_j}``, so no sine or cosine
is taken per assignment, and nothing is cached between calls.

Supported operations: ``XX``, ``MS`` with drive phases that are multiples of
pi (the axis stays on +-X), ``RX``, and ``X``.  Use
:meth:`Circuit.is_xx_only` to check eligibility; anything else belongs on
the dense simulator.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
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
    qubits: set[int], edges: Iterable[frozenset[int]]
) -> list[list[int]]:
    """Connected components of the coupling graph (sorted qubit lists)."""
    members = {q: {q} for q in qubits}
    for e in edges:
        i, j = tuple(e)
        if members[i] is not members[j]:
            merged = members[i] | members[j]
            for q in merged:
                members[q] = merged
    unique = {id(comp): comp for comp in members.values()}
    return sorted(sorted(comp) for comp in unique.values())


def _spin_columns(m: int, rows: int) -> np.ndarray:
    """The first ``rows`` assignments of ``m`` spins as ``(m, rows)`` int8 +-1.

    Column order is big-endian in the spins, so the first ``2^(m-1)``
    columns are the ``s_0 = +1`` half of the full ``2^m`` table.
    """
    idx = np.arange(rows, dtype=np.uint32)
    shifts = np.arange(m - 1, -1, -1, dtype=np.uint32)[:, None]
    return (1 - 2 * ((idx >> shifts) & 1)).astype(np.int8)


#: Spin draws contracted at once per realization row: bounds the
#: transient phase and trig arrays of sampled components.
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

    ``spins`` holds one ``(m,)`` int8 assignment per row (a sampled
    component's draws); ``thetas``/``lin_thetas`` one row per noise
    realization, each contracted against the shared pair products in one
    matmul, chunked over spins.  One complex amplitude per batch row.
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


#: A component whose summed table has at most ``2^_SPLIT_ABOVE``
#: assignments is one table contraction; a larger one splits (see
#: :func:`_split`).
_SPLIT_ABOVE = 8


def _split(m: int, flip_even: bool) -> tuple[int, int]:
    """Spins of A and of B's half L for an ``m``-spin component.

    One table, ``(m, 0)``, up to ``2^_SPLIT_ABOVE`` summed assignments.
    Above, a table of ``t`` spins gives B ``t // 2 + 2`` of them, at most
    11 (its int8 table and character stay under 40 KB), and L half of
    B's: the fastest split measured on complete and sparse graphs of 9
    to 20 spins.
    """
    table = m - flip_even
    if table <= _SPLIT_ABOVE:
        return m, 0
    b = min(table // 2 + 2, 11)
    return m - b, b // 2


def _term_rows(
    spins: np.ndarray, i_idx: np.ndarray, j_idx: np.ndarray, lin_idx: np.ndarray
) -> np.ndarray:
    """int8 rows a half's phase contracts: edge spin products, then linear spins."""
    return np.concatenate((spins[i_idx] * spins[j_idx], spins[lin_idx]))


@dataclass(frozen=True)
class _Half:
    """One half of a component's spins.

    ``spins`` is the half's ``(k, S)`` int8 table and ``chi`` its
    ``(S,)`` character; ``edges`` and ``lins`` slice its own columns out
    of the component's, and ``i_idx``, ``j_idx`` and ``lin_idx`` index
    its spins.  A table of at most ``2^_SPLIT_ABOVE`` assignments keeps
    its :func:`_term_rows` (``terms``); a larger one forms them per call.
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


def _expi(phase: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``e^{i phase}`` from one real cosine and one real sine pass."""
    out = np.empty(phase.shape, dtype=complex) if out is None else out
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _products(table: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """An ``(R, S, K)`` table times each product of one factor per spin of
    ``(R, S, k, 2)`` pairs: ``(R, S, K 2^k)``, big-endian in the spins."""
    for j in range(pairs.shape[2] - 1, -1, -1):
        table = (pairs[:, :, j, :, None] * table[:, :, None, :]).reshape(
            *table.shape[:2], -1
        )
    return table


@dataclass(frozen=True)
class _PlanComponent:
    """Contraction data for one coupling-graph component of ``m`` spins.

    The spins split into A, the first ``m - b``, and B, the last ``b``
    (:func:`_split`; ``b = 0`` for one table), B's first ``low`` spins
    forming its half L and the rest its half H.  Then ``phase(s) =
    phi_A(s_A) + phi_B(s_B) + s_A^T Theta s_B``, ``Theta`` holding the
    cross edges' ``-theta / 2``, and ``chi = chi_A(s_A) chi_B(s_B)``.
    Edge columns come ordered A, B, cross; linear columns A, B.  Only
    int8 tables, characters and index arrays stay resident.

    Without linear (RX/X) terms the phase is even under the global spin
    flip ``s -> -s`` and the character picks up ``(-1)^|z|``: for even
    ``|z|`` only ``s_0 = +1`` (the first half of A's table) is summed,
    with weight ``2 / 2^m`` folded into ``chi_A``; odd ``|z|`` never
    compiles to a component, the plan is zero outright.
    """

    edge_cols: np.ndarray | slice
    lin_cols: np.ndarray
    half_a: _Half
    half_b: _Half | None
    cross: slice
    cross_i: np.ndarray
    cross_j: np.ndarray
    low: int

    def amplitudes(self, th: np.ndarray, ln: np.ndarray | None) -> np.ndarray:
        """Weighted component sums for ``-1/2``-scaled ``(B, E)`` / ``(B, L)`` rows.

        ``sum_s chi(s) e^{i phase(s)}``: one table's ``cos(phase)`` and
        ``sin(phase)`` contracted with its character, or for a split
        component :meth:`_sum_b`.
        """
        th = th[:, self.edge_cols]
        ln = ln[:, self.lin_cols] if self.lin_cols.size else None
        phase = self.half_a.phase(th, ln)
        if self.half_b is not None:
            return self._sum_b(phase, th, ln)
        chi = self.half_a.chi
        re, im = np.cos(phase) @ chi, np.sin(phase) @ chi
        return re + 1j * im

    def _sum_b(
        self, phase_a: np.ndarray, th: np.ndarray, ln: np.ndarray | None
    ) -> np.ndarray:
        """The split sum as one bilinear contraction per row.

        With ``c = Theta^T s_A`` the sum over B is ``sum_{s_L, s_H}
        G[s_L, s_H] e^{i c_L . s_L} e^{i c_H . s_H}`` for the ``2^|L| x
        2^|H|`` matrix ``G = chi_B e^{i phi_B}``; with ``chi_A e^{i
        phi_A}`` folded into ``E_L`` the component sum is ``sum(G *
        (E_L^T @ E_H))`` over A's assignments.  ``E_L`` and ``E_H`` are
        products of ``e^{+-i c_j}`` (:func:`_products`), so a row takes
        ``S_A (b + 1) + 2^b`` sines and cosines and one matmul.
        """
        a, b = self.half_a, self.half_b
        g = _expi(b.phase(th, ln))
        g *= b.chi
        theta = np.zeros((th.shape[0], a.spins.shape[0], b.spins.shape[0]))
        theta[:, self.cross_i, self.cross_j] = th[:, self.cross]
        c = a.spins.T.astype(np.float64) @ theta
        # e^{+i c_j} for s_j = +1 first, as in the spin tables.
        pairs = np.empty((*c.shape, 2), dtype=complex)
        np.conjugate(_expi(c, pairs[..., 0]), out=pairs[..., 1])
        e_l = _expi(phase_a) * a.chi
        e_l = _products(e_l[:, :, None], pairs[:, :, : self.low])
        e_h = _products(pairs[:, :, -1], pairs[:, :, self.low : -1])
        k = np.swapaxes(e_l, 1, 2) @ e_h
        return (g[:, None, :] @ k.reshape(len(k), -1, 1))[:, 0, 0]


@dataclass(frozen=True)
class _SampledComponent:
    """A component above the plan's exact limit, estimated from samples.

    Keeps no tables: each realization row draws a uniform ``(MC_SAMPLES,
    m)`` block of spins from the caller's generator, summed by
    :func:`_component_amplitudes_vectorized` with weight ``1 /
    MC_SAMPLES``.  ``edge_cols``/``lin_cols`` pick its angle columns;
    ``i_idx``, ``j_idx``, ``lin_idx`` and ``z_idx`` index its spins.
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
    coupling-graph components, their local indexing and split, their
    int8 tables and the expected-bitstring characters.  A batch of
    realizations then costs a few small matmuls and one trig pass per
    component and row, over one table's phases or a split component's
    factors (:class:`_PlanComponent`).  A component above
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

    A plan keeps ``O(2^b m)`` bytes of tables and characters per exact
    component, B at most 11 spins (under 60 KB at the 20-qubit exact
    limit), and index arrays for a sampled one; nothing else persists.

    Plans of tests that differ only in qubit labels (the class tests of
    one battery, the point checks of one depth) share a :attr:`structure`
    key, so any one of them can contract the stacked angle rows of all:
    the machine's round pass makes one call per key.
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
        touched = set().union(*self.edge_keys, self.linear_keys)
        z_bits = [(bitstring >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
        self.forced_zero = any(
            z_bits[q] for q in range(n_qubits) if q not in touched
        )
        components = _connected_components(touched, self.edge_keys)
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
        terms = [self._local_terms(comp, z_bits) for comp in components]
        self._components = tuple(
            self._compile_component(len(comp), *local)
            for comp, local in zip(components, terms)
            if len(comp) <= max_exact_qubits
        )
        self._sampled = tuple(
            self._sampled_component(len(comp), *local)
            for comp, local in zip(components, terms)
            if len(comp) > max_exact_qubits
        )
        #: Whether a component is estimated from spin samples.
        self.sampled = bool(self._sampled)
        #: What the plan computes from its rows, up to qubit labels: column
        #: counts and each component's size, sampling, and local terms.
        #: Plans with equal keys can contract each other's rows.
        self.structure = (
            len(self.edge_keys),
            len(self.linear_keys),
            self.forced_zero,
            tuple(
                (len(comp), len(comp) > max_exact_qubits, *local)
                for comp, local in zip(components, terms)
            ),
        )

    def _local_terms(
        self, comp: list[int], z_bits: list[int]
    ) -> tuple[tuple, tuple, tuple]:
        """One component's terms in local spins, in plan column order: edges
        ``(column, i, j)`` with ``i < j``, linear terms ``(column, spin)``
        and the character's spins ``z_idx``."""
        local = {q: k for k, q in enumerate(comp)}
        edges = tuple(
            (c, local[min(e)], local[max(e)])
            for c, e in enumerate(self.edge_keys)
            if min(e) in local
        )
        lins = tuple(
            (c, local[q]) for c, q in enumerate(self.linear_keys) if q in local
        )
        z_idx = tuple(k for k, q in enumerate(comp) if z_bits[q])
        return edges, lins, z_idx

    def _compile_component(
        self, m: int, edges: tuple, lins: tuple, z_idx: tuple
    ) -> _PlanComponent:
        """Split one exact component's spins (its terms in local spins, see
        :meth:`_local_terms`) and build its half tables."""
        flip_even = not lins
        a, n_low = _split(m, flip_even)
        # Edges ordered A, B, cross; linear terms ordered A, B.
        edges = sorted(edges, key=lambda e: 0 if e[2] < a else 1 if e[1] >= a else 2)
        lins = sorted(lins, key=lambda lin: lin[1] >= a)
        n_aa = sum(j < a for _, _, j in edges)
        n_ab = n_aa + sum(i >= a for _, i, _ in edges)
        n_la = sum(k < a for _, k in lins)
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
                    if rows <= 1 << _SPLIT_ABOVE
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
            edge_cols=edge_cols,
            lin_cols=np.array([c for c, _ in lins], dtype=np.intp),
            half_a=half_a,
            half_b=half_b,
            cross=slice(n_ab, None),
            cross_i=np.array([i for _, i, _ in cross], dtype=np.intp),
            cross_j=np.array([j - a for _, _, j in cross], dtype=np.intp),
            low=n_low,
        )

    def _sampled_component(
        self, m: int, edges: tuple, lins: tuple, z_idx: tuple
    ) -> _SampledComponent:
        """Index arrays of one component summed over spin samples."""

        def index(values):
            return np.array(values, dtype=np.intp)

        return _SampledComponent(
            m=m,
            edge_cols=index([c for c, _, _ in edges]),
            i_idx=index([i for _, i, _ in edges]),
            j_idx=index([j for _, _, j in edges]),
            lin_cols=index([c for c, _ in lins]),
            lin_idx=index([k for _, k in lins]),
            z_idx=index(z_idx),
        )

    def amplitudes(
        self,
        thetas: np.ndarray,
        lin_thetas: np.ndarray | None = None,
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
        # The phase's -1/2, applied once for every component.
        th = -0.5 * thetas
        ln = None if lin_thetas is None else -0.5 * lin_thetas
        parts = [comp.amplitudes(th, ln) for comp in self._components]
        if self.sampled:
            parts.extend(self._sample(th, ln, rng))
        amps = parts[0]
        for part in parts[1:]:
            amps *= part
        return amps

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
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Per-realization probabilities of the bitstring, clipped to [0, 1]."""
        amps = self.amplitudes(thetas, lin_thetas, rng)
        # |amp|^2 >= 0, so only the upper clip can bind.
        return np.minimum(np.abs(amps) ** 2, 1.0)


def batch_amplitudes_from_terms(
    n_qubits: int,
    edge_angles: dict[frozenset[int], np.ndarray],
    linear_angles: dict[int, np.ndarray],
    bitstring: int,
    max_exact_qubits: int = 20,
) -> np.ndarray:
    """Per-realization amplitudes from array-valued coupling terms.

    A one-shot helper: the terms carry one accumulated angle *per noise
    realization* (``(G,)`` values in both dicts), and a throwaway
    :class:`ContractionPlan` computes what the machine's cached plans
    compute, for all G rows at once.
    Nothing in the package calls it; it serves the tests' slot-path
    oracle and the traced benchmark's kernel accounting.  A component
    above ``max_exact_qubits`` raises ``ValueError``: it takes no
    generator to sample it with.
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
    return plan.amplitudes(thetas, lin_thetas)
