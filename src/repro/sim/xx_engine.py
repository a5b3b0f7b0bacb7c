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
and twice the half-table sum otherwise.  :class:`XXCircuitEvaluator`
keeps the full table and serves as its reference.

Supported operations: ``XX``, ``MS`` with drive phases that are multiples of
pi (the axis stays on +-X), ``RX``, and ``X``.  Use
:meth:`Circuit.is_xx_only` to check eligibility; anything else belongs on
the dense simulator.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit

__all__ = [
    "ms_axis_sign",
    "XXCircuitEvaluator",
    "CouplingTerms",
    "ContractionPlan",
    "batch_amplitudes_from_terms",
    "set_spin_table_cache_bytes",
    "spin_table_cache_info",
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
        Total RX angle per qubit.
    x_parity:
        Per-qubit parity of plain ``X`` gates (each contributes a factor
        ``s_i`` and a global ``-i`` we track separately via ``RX(pi)``'s
        phase, so here we fold X into ``linear_angles`` as ``pi``).
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


_SPIN_TABLE_CACHE: OrderedDict[int, np.ndarray] = OrderedDict()

#: Guards every read and write of :data:`_SPIN_TABLE_CACHE`: the LRU
#: reorders entries on each hit, so even lookups mutate it.
_SPIN_TABLE_LOCK = threading.Lock()

#: Total bytes of spin tables kept resident; least-recently-used tables
#: are evicted first once the budget is exceeded (the table being
#: returned is never evicted).
_SPIN_TABLE_CACHE_MAX_BYTES = 256 * 1024 * 1024


def set_spin_table_cache_bytes(max_bytes: int) -> None:
    """Re-bound the spin-table cache and evict down to the new budget."""
    global _SPIN_TABLE_CACHE_MAX_BYTES
    if max_bytes < 0:
        raise ValueError("cache budget must be non-negative")
    with _SPIN_TABLE_LOCK:
        _SPIN_TABLE_CACHE_MAX_BYTES = max_bytes
        _evict_spin_tables()


def spin_table_cache_info() -> dict[str, int]:
    """Cache occupancy: resident table sizes, total bytes, byte budget."""
    with _SPIN_TABLE_LOCK:
        return {
            "tables": len(_SPIN_TABLE_CACHE),
            "total_bytes": sum(t.nbytes for t in _SPIN_TABLE_CACHE.values()),
            "max_bytes": _SPIN_TABLE_CACHE_MAX_BYTES,
        }


def _evict_spin_tables() -> None:
    """Drop least-recently-used tables until the byte budget is met.

    The most-recently-used table always survives, so the table a caller
    just requested stays resident even when it alone exceeds the budget.
    Callers hold :data:`_SPIN_TABLE_LOCK`.
    """
    while (
        len(_SPIN_TABLE_CACHE) > 1
        and sum(t.nbytes for t in _SPIN_TABLE_CACHE.values())
        > _SPIN_TABLE_CACHE_MAX_BYTES
    ):
        _SPIN_TABLE_CACHE.popitem(last=False)


def _spin_table(m: int) -> np.ndarray:
    """All 2^m spin assignments as a (2^m, m) int8 array of +-1 (cached).

    Row order is big-endian in the spins: the first half of the table
    has ``s_0 = +1``.  The cache is an LRU bounded by total bytes (see
    :func:`set_spin_table_cache_bytes`), so a long-running sweep over many
    component sizes keeps its working set resident without pinning the
    largest table ever built forever.  Safe under concurrent callers.
    """
    with _SPIN_TABLE_LOCK:
        table = _SPIN_TABLE_CACHE.get(m)
        if table is None:
            idx = np.arange(2**m, dtype=np.uint32)
            cols = [
                1 - 2 * ((idx >> (m - 1 - i)) & 1).astype(np.int8)
                for i in range(m)
            ]
            table = (
                np.stack(cols, axis=1) if m else np.zeros((1, 0), dtype=np.int8)
            )
            _SPIN_TABLE_CACHE[m] = table
        else:
            _SPIN_TABLE_CACHE.move_to_end(m)
        _evict_spin_tables()
        return table


#: Spin-table blocks larger than this many (spin, edge) entries are
#: processed in chunks to bound transient memory.
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


@dataclass(frozen=True)
class _PlanComponent:
    """Contraction data for one coupling-graph component.

    ``rows`` is the number of spin-table rows summed.  A component with
    no linear (RX/X) terms has a phase that is even under the global
    spin flip ``s -> -s``, while its character picks up ``(-1)^|z|``;
    for even ``|z|`` the two halves of the table contribute equally, so
    only the ``s_0 = +1`` half (the first ``2^(m-1)`` rows) is summed
    with weight ``2 / 2^m``.  Odd ``|z|`` never compiles to a component:
    the plan is zero outright.

    ``blocks`` holds the pre-chunked spin-table artifacts: the float64
    ``(E, S)`` pair-product matrix and ``(L, S)`` linear-spin matrix,
    both scaled by the phase's ``-1/2``, and the ``(S,)`` character
    vector scaled by the weight.  When ``blocks`` is ``None`` (a plan
    above the resident bound) the same arrays are rebuilt per evaluation
    from the index arrays, trading repeat-evaluation speed for zero
    resident block memory.
    """

    weight: float
    m: int
    rows: int
    edge_cols: np.ndarray | slice
    lin_cols: np.ndarray
    i_idx: np.ndarray
    j_idx: np.ndarray
    lin_idx: np.ndarray
    z_idx: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] | None

    def iter_blocks(self):
        """The ``(pair, lin, chi)`` blocks: cached, or rebuilt on the fly."""
        if self.blocks is not None:
            return self.blocks
        return self._stream_blocks()

    def _stream_blocks(self):
        spins = _spin_table(self.m)
        for start in range(0, self.rows, _CHUNK_SPINS):
            yield _spin_blocks(
                spins[start : min(start + _CHUNK_SPINS, self.rows)],
                self.weight,
                self.i_idx,
                self.j_idx,
                self.lin_idx,
                self.z_idx,
            )

    def amplitudes(self, th: np.ndarray, ln: np.ndarray | None) -> np.ndarray:
        """Weighted component sums for the ``(B, E)`` / ``(B, L)`` rows.

        ``sum_s chi(s) e^{i phase(s)}`` in real arithmetic: one
        ``cos(phase) @ chi`` and one ``sin(phase) @ chi`` per block.
        """
        th = th[:, self.edge_cols]
        ln = ln[:, self.lin_cols] if self.lin_cols.size else None
        re = im = None
        for pair, lin, chi in self.iter_blocks():
            phase = th @ pair
            if ln is not None:
                phase += ln @ lin
            if re is None:
                re, im = np.cos(phase) @ chi, np.sin(phase) @ chi
            else:
                re += np.cos(phase) @ chi
                im += np.sin(phase) @ chi
        return re + 1j * im


def _spin_blocks(
    block: np.ndarray,
    weight: float,
    i_idx: np.ndarray,
    j_idx: np.ndarray,
    lin_idx: np.ndarray,
    z_idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One spin chunk's ``(E, S)`` pair / ``(L, S)`` linear / chi arrays.

    The phase's ``-1/2`` and the component weight are powers of two, so
    folding them in here is exact.
    """
    cols = block.T
    pair = -0.5 * (cols[i_idx] * cols[j_idx])
    lin = -0.5 * cols[lin_idx]
    chi = weight * np.prod(cols[z_idx], axis=0)
    return pair, lin, chi


#: Plans at or under this many block bytes keep their blocks resident:
#: rebuilding them costs more than the contraction.  Larger plans stream
#: their blocks per evaluation, which keeps the 1024-entry compiled-test
#: cache under 64 MiB.
_RESIDENT_PLAN_BYTES = 64 * 1024


class ContractionPlan:
    """Pre-contracted evaluation plan for one XX term structure.

    A plan fixes everything about a test circuit that does not change
    across noise realizations, trials, or magnitude sweep points: the
    coupling-graph components, the per-component local edge/linear
    indexing, the expected-bitstring characters, and — most importantly —
    the spin-table pair-product blocks.  Evaluating a batch of
    realizations then reduces to one ``(B, E) @ (E, S)`` matmul and two
    real trig passes per block instead of re-deriving the graph and
    re-multiplying spin columns per call.  Components without linear
    terms sum only half their spin table (see :class:`_PlanComponent`).

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

    Blocks of at most :data:`_RESIDENT_PLAN_BYTES` in total stay
    resident; larger ones are rebuilt transiently per evaluation.  Both
    hold the same block values, so their results are ``==``.
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
        # Per component: (qubits, summed rows, edge count, linear count).
        shapes = []
        for comp in components:
            local = set(comp)
            n_lin = len(local & linear)
            if not n_lin and sum(z_bits[q] for q in comp) % 2:
                # Flip-odd character against a flip-even phase.
                self.forced_zero = True
                shapes = []
                break
            n_edges = sum(1 for e in self.edge_keys if min(e) in local)
            rows = 2 ** (len(comp) - (0 if n_lin else 1))
            shapes.append((comp, rows, n_edges, n_lin))
        # Size the blocks before materializing anything: per spin row,
        # E + L float64 products plus the chi entry.
        plan_bytes = sum(
            8 * rows * (n_edges + n_lin + 1) for _, rows, n_edges, n_lin in shapes
        )
        resident = plan_bytes <= _RESIDENT_PLAN_BYTES
        self._components = tuple(
            self._compile_component(comp, rows, z_bits, resident)
            for comp, rows, _, _ in shapes
        )
        #: Largest spin-chunk length, for memory-budget row chunking.
        self._max_block_spins = max(
            (min(c.rows, _CHUNK_SPINS) for c in self._components),
            default=1,
        )

    def _compile_component(
        self, comp: list[int], rows: int, z_bits: list[int], resident: bool
    ) -> _PlanComponent:
        """Hoist one component's spin-table contraction artifacts."""
        m = len(comp)
        local = {q: k for k, q in enumerate(comp)}
        edge_cols = np.array(
            [c for c, e in enumerate(self.edge_keys) if min(e) in local],
            dtype=np.intp,
        )
        lin_cols = np.array(
            [c for c, q in enumerate(self.linear_keys) if q in local],
            dtype=np.intp,
        )
        i_idx = np.array(
            [local[min(self.edge_keys[c])] for c in edge_cols], dtype=np.intp
        )
        j_idx = np.array(
            [local[max(self.edge_keys[c])] for c in edge_cols], dtype=np.intp
        )
        lin_idx = np.array(
            [local[self.linear_keys[c]] for c in lin_cols], dtype=np.intp
        )
        z_idx = np.array(
            [k for k, q in enumerate(comp) if z_bits[q]], dtype=np.intp
        )
        if np.array_equal(edge_cols, np.arange(len(self.edge_keys))):
            # One component owns every edge: a slice skips the gather.
            edge_cols = slice(None)
        component = _PlanComponent(
            weight=1.0 / rows,
            m=m,
            rows=rows,
            edge_cols=edge_cols,
            lin_cols=lin_cols,
            i_idx=i_idx,
            j_idx=j_idx,
            lin_idx=lin_idx,
            z_idx=z_idx,
            blocks=None,
        )
        if not resident:
            return component
        blocks = tuple(component.iter_blocks())
        return dataclasses.replace(component, blocks=blocks)

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
            th = thetas[start : start + rows]
            ln = None if lin_thetas is None else lin_thetas[start : start + rows]
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
            spins = _spin_table(m)
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
    ``(G,)`` values in both dicts).  Every coupling-graph component is
    summed once over its shared spin table, contracting all G realization
    rows in a single matmul.  Internally this builds a one-shot
    :class:`ContractionPlan` and discards it after the call, so it
    computes exactly what the machine's cached plans compute.  The
    virtual machine's ``run_match`` and batteries share one plan per test
    structure in its compiled-test cache, so this serves only its
    per-call slot path (the oracle the compiled routes are checked
    against).

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
