"""Compiled evaluation plans for the dense statevector path.

The XX engine got its compilation layer in an earlier PR: a
:class:`~repro.sim.xx_engine.ContractionPlan` caches everything about a
test circuit that is static across noise realizations and trials.  The
*dense* engine — the one forced by the paper's full Sec. VI error model
(1/f phase noise, residual kicks), i.e. the hot path of Figs. 6/7 — had no
such layer: every evaluation of a realized slot batch re-derived the
touched-qubit compaction, rebuilt axis permutations and applied every
residual-kick slot as a separate full-state pass.

A :class:`DensePlan` hoists all of that out of the per-trial loop.  Per
*slot skeleton* (the ``(gate, qubits)`` sequence shared by every noise
realization of one nominal circuit under one noise structure) it compiles
once:

* the compacted register of touched qubits and its index map;
* the per-slot local qubit tuples;
* broadcast matrix stacks for parameter-free gate slots;
* **fused apply groups**: maximal runs of adjacent slots whose combined
  support stays within two qubits collapse into a single gate
  application, so the residual-kick ``R`` slots flanking every MS gate
  (and the MS repetitions themselves, when they share a coupling) cost
  small-matrix arithmetic instead of full-state passes.

Fused groups are folded into *link chains*: the two kick rotations after
an MS gate act on disjoint qubits, so they merge into one Kronecker
link, and that link contracts with its MS gate elementwise (the MS
matrix is ``c*I`` plus an anti-diagonal — no matmul, and no full MS
matrix stack is ever materialized for merged slots).  Chains are padded
with identities to power-of-two lengths, stacked into per-length
buckets, and multiplied out as a logarithmic tree of
``(G, L/2, B, 4, 4)`` matmuls; buckets whose chains are uniform skip the
scatter entirely and reshape the link block in place.

**Input.**  Evaluation takes one parameter block per gate kind,
``{kind: (rows of that kind in program order, B, n_params)}`` —
``n_params`` is 3 for ``MS``, 2 for ``R``, 1 for ``RX``/``RY``/``RZ``
and 0 for parameter-free gates.  The machine's compiled dense test
draws its noise straight into that form and ``slot_blocks`` in
:mod:`repro.trap.machine` groups :class:`~repro.trap.machine.RealizedSlot`
lists into it.  The plan compiles one gather index per kind for its
builder stacks and one for its merged-MS links (``None`` where the rows
already sit in stack order, as for every battery test), so a call builds
each kind's matrices from one reshaped block.  Row counts, the shared
batch size and parameter widths are checked per kind.

**Apply.**  The apply order is compiled into an *axis-order program*:
the state tensor is never permuted back between applications.  Each
step records the transpose that brings its qubits to the front from
the axis order the previous step left (``None`` when they are already
there) and the gate width it applies, so a step is one reshape (plus
that transpose) and one batched ``matmul``.  The plan also records the
final axis order: :meth:`DensePlan.probabilities` reads the expected
amplitude at its index in that order, and :meth:`DensePlan.states`
un-permutes once at the end.  Every link and amplitude is formed from
the same per-element expressions in the same order as an apply-and-
restore evolution, so results are bit-identical to it.  Realization
rows are chunked to a byte budget.  Plans depend only on
``(n_qubits, skeleton)`` — they are machine-independent and meant to be
cached across trials (see :class:`DensePlanCache`).

**Stacking.**  Every step acts per batch row, so the rows of several
tests that share one canonical skeleton stack along the batch axis into
one call: :meth:`DensePlan.probabilities` takes a list of
:class:`Segment` runs, each read for its own expected bitstring on its
own plan's touched map.  Each row is bit-identical to a one-segment
call on that row's plan.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .statevector import (
    batched_matrices_from_params,
    realization_chunks,
    subregister_bitstring,
    zero_states,
)

__all__ = [
    "Blocks",
    "DensePlan",
    "DensePlanCache",
    "Segment",
    "Skeleton",
    "canonical_skeleton",
]

#: A slot skeleton: the ``(gate, qubits)`` sequence of a realized batch.
Skeleton = tuple[tuple[str, tuple[int, ...]], ...]


def canonical_skeleton(skeleton: Skeleton) -> Skeleton:
    """The skeleton with its touched qubits relabeled to ``0..k-1``.

    Two skeletons with the same canonical form differ only in *which*
    full-register qubits they touch, not in the compiled schedule — the
    plan's fused buckets, builder stacks and apply order all live on the
    compacted register, so such plans can share one compiled core (see
    :meth:`DensePlan.rebind`).  Relabeling follows the same sorted-touched
    order the plan's own compaction uses.
    """
    touched = sorted({q for _, qubits in skeleton for q in qubits})
    index = {q: k for k, q in enumerate(touched)}
    return tuple(
        (gate, tuple(index[q] for q in qubits)) for gate, qubits in skeleton
    )

#: Parameter columns of the gates whose slot matrices depend on
#: per-realization parameters; every other gate takes none.
_PARAM_WIDTH = {"MS": 3, "R": 2, "RX": 1, "RY": 1, "RZ": 1}

#: Per-kind parameter blocks: ``{kind: (rows, B, n_params)}``.
Blocks = dict[str, np.ndarray]

#: Basis permutation exchanging the two qubits of a 4x4 gate matrix.
_SWAP_PERM = np.array([0, 2, 1, 3], dtype=np.intp)

_DIAG4 = np.arange(4)

_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class _Lift:
    """How one slot's matrix embeds into its fused group register.

    ``mode`` is ``"direct"`` (same qubit tuple), ``"swapped"`` (two-qubit
    gate with reversed qubit order), ``"kron_left"`` (one-qubit gate on
    the group's first qubit) or ``"kron_right"`` (on the second).
    """

    slot: int
    mode: str


@dataclass(frozen=True)
class _ApplyGroup:
    """One fused gate application covering a run of adjacent slots."""

    qubits: tuple[int, ...]
    lifts: tuple[_Lift, ...]


@dataclass
class _Bucket:
    """All fused two-qubit groups sharing one padded chain length.

    ``param_assigns`` scatters batched-builder stack positions into the
    padded ``(n_groups, length, B, 4, 4)`` product array — one
    advanced-indexing assignment per (gate kind, lift mode);
    ``kron_assigns`` scatters merged kick pairs (one batched outer
    product per kind pair); ``mskron_assigns`` scatters MS gates merged
    with their kick pair, contracted elementwise from the compact
    ``(c, anti-diagonal)`` MS representation.  ``uniform`` marks buckets
    whose every position is one mskron batch in row-major order — those
    reshape the link block directly instead of scattering.
    """

    length: int
    n_groups: int = 0
    #: ``(kind, mode) -> (stack_pos, groups, positions)`` index arrays.
    param_assigns: dict = field(default_factory=dict)
    #: ``(kind_q0, kind_q1) -> (pos_q0, pos_q1, groups, positions)``.
    kron_assigns: dict = field(default_factory=dict)
    #: ``(kind_q0, kind_q1) -> (ms_pos, pos_q0, pos_q1, groups, positions)``.
    mskron_assigns: dict = field(default_factory=dict)
    #: ``[(group, position, lifted_4x4), ...]``
    fixed_assigns: list = field(default_factory=list)
    uniform: bool = False


def _next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    return 1 << (n - 1).bit_length()


class Segment(NamedTuple):
    """A run of ``rows`` consecutive stacked rows of one test.

    The rows are matched against the full-width ``expected`` bitstring,
    read on ``plan``'s touched map; ``plan`` must share the evaluating
    plan's canonical skeleton.
    """

    plan: "DensePlan"
    expected: int
    rows: int


class DensePlan:
    """Compiled dense-evolution plan for one realized slot skeleton.

    Parameters
    ----------
    n_qubits:
        Full machine register width (the skeleton's qubit indices live
        here; evolution happens on the compacted touched sub-register).
    skeleton:
        ``(gate, qubits)`` per slot, in program order.  Must be
        non-empty — callers short-circuit empty circuits.
    """

    def __init__(self, n_qubits: int, skeleton: Skeleton):
        if not skeleton:
            raise ValueError("a dense plan needs at least one slot")
        self.n_qubits = n_qubits
        self.skeleton = tuple(skeleton)
        self.touched = sorted({q for _, qubits in skeleton for q in qubits})
        self.index = {q: k for k, q in enumerate(self.touched)}
        #: Width of the compacted register the plan evolves.
        self.n_local = len(self.touched)
        local = [
            (gate, tuple(self.index[q] for q in qubits))
            for gate, qubits in self.skeleton
        ]
        self._local_slots = local
        self._fixed: dict[int, np.ndarray] = {}
        for i, (gate, _) in enumerate(local):
            if gate not in _PARAM_WIDTH:
                self._fixed[i] = batched_matrices_from_params(
                    gate, np.zeros((1, 0))
                )[0]
        # Full-matrix stack bookkeeping: slots that need their gate
        # matrix materialized (everything except MS slots merged into
        # mskron links) get a position in their kind's builder stack.
        self._stack_slots: dict[str, list[int]] = {}
        self._stack_pos: dict[int, int] = {}
        # MS slots merged into mskron links: only (c, anti) are built.
        self._ms_slots: list[int] = []
        self._ms_swapped: list[bool] = []
        self._compile_schedule(self._segment(local))
        self._ms_swapped = np.array(self._ms_swapped, dtype=bool)
        self._compile_gathers()
        self._compile_program()

    # -- compilation -----------------------------------------------------------

    @staticmethod
    def _segment(
        local: list[tuple[str, tuple[int, ...]]],
    ) -> tuple[_ApplyGroup, ...]:
        """Greedy segmentation of the slot list into fused apply groups.

        Adjacent slots merge while their combined support stays within
        two qubits; grouping never reorders slots, so the fused product
        is exactly the original operator sequence.
        """
        runs: list[list[int]] = []
        support: set[int] = set()
        for i, (_, qubits) in enumerate(local):
            if runs and len(support | set(qubits)) <= 2:
                runs[-1].append(i)
                support |= set(qubits)
            else:
                runs.append([i])
                support = set(qubits)
        groups = []
        for run in runs:
            if len(run) == 1:
                groups.append(
                    _ApplyGroup(local[run[0]][1], (_Lift(run[0], "direct"),))
                )
                continue
            gq = tuple(sorted({q for i in run for q in local[i][1]}))
            lifts = []
            for i in run:
                qubits = local[i][1]
                if qubits == gq or len(gq) == 1:
                    mode = "direct"
                elif len(qubits) == 2:
                    mode = "swapped"
                elif qubits[0] == gq[0]:
                    mode = "kron_left"
                else:
                    mode = "kron_right"
                lifts.append(_Lift(i, mode))
            groups.append(_ApplyGroup(gq, tuple(lifts)))
        return tuple(groups)

    def _is_param(self, slot: int) -> bool:
        return slot not in self._fixed

    def _need_stack(self, slot: int) -> int:
        """Reserve a full-matrix builder-stack position for a slot."""
        pos = self._stack_pos.get(slot)
        if pos is None:
            kind = self._local_slots[slot][0]
            rows = self._stack_slots.setdefault(kind, [])
            pos = len(rows)
            rows.append(slot)
            self._stack_pos[slot] = pos
        return pos

    def _link_chain(self, lifts: tuple[_Lift, ...]) -> list[tuple]:
        """Fold a group's slot run into its link chain (order-preserving).

        Links are ``("slot", lift)`` for stand-alone slots,
        ``("kron", lift_q0, lift_q1)`` for two adjacent parameterized
        one-qubit slots on different qubits (they commute, so the pair
        collapses into one Kronecker product), and
        ``("mskron", ms, lift_q0, lift_q1)`` when such a pair directly
        follows an MS gate — the canonical MS-plus-residual-kicks
        pattern, contracted elementwise via the MS matrix's
        diagonal/anti-diagonal sparsity.
        """
        links: list[tuple] = []
        pending: _Lift | None = None
        for lift in lifts:
            one_q = lift.mode in ("kron_left", "kron_right")
            if not (one_q and self._is_param(lift.slot)):
                if pending is not None:
                    links.append(("slot", pending))
                    pending = None
                links.append(("slot", lift))
                continue
            if pending is None:
                pending = lift
            elif pending.mode != lift.mode:
                first, second = (
                    (pending, lift)
                    if pending.mode == "kron_left"
                    else (lift, pending)
                )
                prev = links[-1] if links else None
                if (
                    prev is not None
                    and prev[0] == "slot"
                    and self._is_param(prev[1].slot)
                    and self._local_slots[prev[1].slot][0] == "MS"
                    and prev[1].mode in ("direct", "swapped")
                ):
                    links[-1] = ("mskron", prev[1], first, second)
                else:
                    links.append(("kron", first, second))
                pending = None
            else:
                links.append(("slot", pending))
                pending = lift
        if pending is not None:
            links.append(("slot", pending))
        return links

    def _compile_schedule(self, groups: tuple[_ApplyGroup, ...]) -> None:
        """Turn apply groups into the bucketed evaluation schedule.

        Each schedule step is ``(source, qubits, payload)``:

        * ``("single", qubits, slot)`` — one unfused slot, applied from
          its builder stack (or fixed broadcast) directly;
        * ``("bucket", qubits, (length, group_index))`` — a fused
          two-qubit group, applied from the bucket's tree-reduced
          product;
        * ``("generic", qubits, group)`` — a fused one-qubit run
          (rare), multiplied out sequentially.
        """
        self._buckets: dict[int, _Bucket] = {}
        self._order: list[tuple[str, tuple[int, ...], object]] = []
        for group in groups:
            if len(group.lifts) == 1:
                slot = group.lifts[0].slot
                if self._is_param(slot):
                    self._need_stack(slot)
                self._order.append(("single", group.qubits, slot))
                continue
            if len(group.qubits) != 2:
                for lift in group.lifts:
                    if self._is_param(lift.slot):
                        self._need_stack(lift.slot)
                self._order.append(("generic", group.qubits, group))
                continue
            links = self._link_chain(group.lifts)
            length = _next_pow2(len(links))
            bucket = self._buckets.setdefault(length, _Bucket(length))
            g = bucket.n_groups
            bucket.n_groups += 1
            for position, link in enumerate(links):
                if link[0] == "kron":
                    _, first, second = link
                    key = (
                        self._local_slots[first.slot][0],
                        self._local_slots[second.slot][0],
                    )
                    bucket.kron_assigns.setdefault(key, []).append(
                        (
                            self._need_stack(first.slot),
                            self._need_stack(second.slot),
                            g,
                            position,
                        )
                    )
                    continue
                if link[0] == "mskron":
                    _, ms, first, second = link
                    ms_pos = len(self._ms_slots)
                    self._ms_slots.append(ms.slot)
                    self._ms_swapped.append(ms.mode == "swapped")
                    key = (
                        self._local_slots[first.slot][0],
                        self._local_slots[second.slot][0],
                    )
                    bucket.mskron_assigns.setdefault(key, []).append(
                        (
                            ms_pos,
                            self._need_stack(first.slot),
                            self._need_stack(second.slot),
                            g,
                            position,
                        )
                    )
                    continue
                lift = link[1]
                if lift.slot in self._fixed:
                    bucket.fixed_assigns.append(
                        (g, position, self._lift_fixed(lift.slot, lift.mode))
                    )
                else:
                    key = (self._local_slots[lift.slot][0], lift.mode)
                    bucket.param_assigns.setdefault(key, []).append(
                        (self._need_stack(lift.slot), g, position)
                    )
            self._order.append(("bucket", group.qubits, (length, g)))
        # Freeze assignment tuples into index arrays for fancy indexing,
        # and mark buckets whose whole padded grid is one row-major
        # mskron batch — those skip the identity scatter entirely.
        for bucket in self._buckets.values():
            for assigns in (
                bucket.param_assigns,
                bucket.kron_assigns,
                bucket.mskron_assigns,
            ):
                for key, entries in assigns.items():
                    assigns[key] = tuple(
                        np.array(col, dtype=np.intp) for col in zip(*entries)
                    )
            if (
                len(bucket.mskron_assigns) == 1
                and not bucket.param_assigns
                and not bucket.kron_assigns
                and not bucket.fixed_assigns
            ):
                (_, _, _, gs, ls) = next(iter(bucket.mskron_assigns.values()))
                grid = bucket.n_groups * bucket.length
                bucket.uniform = gs.size == grid and np.array_equal(
                    gs * bucket.length + ls, np.arange(grid)
                )

    def _lift_fixed(self, slot: int, mode: str) -> np.ndarray:
        """Compile-time 4x4 lift of a parameter-free slot matrix."""
        matrix = self._fixed[slot]
        if mode == "direct":
            return matrix
        if mode == "swapped":
            return matrix[np.ix_(_SWAP_PERM, _SWAP_PERM)]
        if mode == "kron_left":
            return np.kron(matrix, _I2)
        return np.kron(_I2, matrix)

    def _compile_gathers(self) -> None:
        """Per-kind row counts and the gathers from blocks to stacks.

        A slot's *row* is its rank among the slots of its kind in
        program order — its row in that kind's input block.  Builder
        stacks and merged-MS links list their slots in link order; each
        compiles one gather of rows, or ``None`` when it takes the whole
        block in the block's own order.  MS rows may be split between
        the builder stack and the merged links, so neither side may
        skip its gather just because its rows start at 0.
        """
        self._kind_rows: dict[str, int] = {}
        row: dict[int, int] = {}
        for i, (gate, _) in enumerate(self._local_slots):
            row[i] = self._kind_rows.get(gate, 0)
            self._kind_rows[gate] = row[i] + 1

        def gather(kind: str, slots: list[int]) -> np.ndarray | None:
            rows = [row[i] for i in slots]
            if rows == list(range(self._kind_rows.get(kind, 0))):
                return None
            return np.array(rows, dtype=np.intp)

        self._stack_gather = {
            kind: gather(kind, slots)
            for kind, slots in self._stack_slots.items()
        }
        self._ms_gather = gather("MS", self._ms_slots)

    def _compile_program(self) -> None:
        """Turn the apply order into the axis-order program.

        The evolving ``(B, 2, ..., 2)`` state keeps its qubit axes in a
        tracked order instead of restoring them after each application.
        Each step of ``_order`` becomes ``(source, qubits, payload, perm,
        dim)``: ``perm`` transposes the state from the previous step's
        order so ``qubits`` lead (``None`` when they already do) and
        ``dim`` is the applied gate's width.  ``_final_order`` is the
        axis order evaluation ends in; ``_unpermute`` restores logical
        order from it (``None`` when it already is).
        """
        order = tuple(range(self.n_local))
        program = []
        for source, qubits, payload in self._order:
            k = len(qubits)
            perm = None
            if order[:k] != qubits:
                rest = tuple(q for q in order if q not in qubits)
                perm = (0, *(1 + order.index(q) for q in qubits + rest))
                order = qubits + rest
            program.append((source, qubits, payload, perm, 2**k))
        self._order = tuple(program)
        self._final_order = order
        self._unpermute = (
            None
            if order == tuple(range(self.n_local))
            else (0, *(1 + order.index(q) for q in range(self.n_local)))
        )

    # -- evaluation ------------------------------------------------------------

    def _check_blocks(self, blocks: Blocks) -> int:
        """Validate per-kind parameter blocks; returns the batch size.

        Every kind of the skeleton needs one ``(rows, B, n_params)``
        block with exactly that kind's row count and parameter width,
        and all blocks share one batch size ``B``.
        """
        if blocks.keys() != self._kind_rows.keys():
            raise ValueError(
                f"parameter blocks for kinds {sorted(blocks)}; the plan "
                f"needs {sorted(self._kind_rows)}"
            )
        n_batch = None
        for kind, rows in self._kind_rows.items():
            shape = np.shape(blocks[kind])
            width = _PARAM_WIDTH.get(kind, 0)
            if len(shape) != 3 or shape[0] != rows or shape[2] != width:
                raise ValueError(
                    f"{kind} block has shape {shape}; expected "
                    f"({rows}, B, {width})"
                )
            if n_batch is None:
                n_batch = shape[1]
            elif shape[1] != n_batch:
                raise ValueError(
                    f"{kind} block has batch size {shape[1]}, other "
                    f"kinds {n_batch}"
                )
        return n_batch

    @staticmethod
    def _gathered(block: np.ndarray, index: np.ndarray | None) -> np.ndarray:
        """A block's gathered rows, flattened to ``(rows * B, n_params)``."""
        if index is not None:
            block = block[index]
        return block.reshape(-1, block.shape[2])

    def _kind_stacks(self, blocks: Blocks, n_batch: int) -> dict[str, np.ndarray]:
        """Per-gate-kind matrix stacks ``(n_slots_needed, B, d, d)``.

        One batched-builder call per parameterized kind over the rows of
        the slots that need full matrices (MS slots merged into mskron
        links are excluded — see :meth:`_ms_links`).
        """
        stacks: dict[str, np.ndarray] = {}
        for gate, slots in self._stack_slots.items():
            params = self._gathered(blocks[gate], self._stack_gather[gate])
            stack = batched_matrices_from_params(gate, params)
            dim = stack.shape[-1]
            stacks[gate] = stack.reshape(len(slots), n_batch, dim, dim)
        return stacks

    def _ms_links(
        self, blocks: Blocks, n_batch: int
    ) -> tuple[np.ndarray, np.ndarray] | tuple[None, None]:
        """Compact ``(c, anti)`` form of every merged MS slot.

        The MS matrix is ``c*I`` plus an anti-diagonal ``anti`` (column
        ``j`` pairs with row ``3-j``), so merged links never materialize
        the full ``(B, 4, 4)`` stack.  Qubit-swapped MS applications
        exchange the two middle anti-diagonal entries.
        """
        if not self._ms_slots:
            return None, None
        params = self._gathered(blocks["MS"], self._ms_gather)
        theta, phi1, phi2 = params[:, 0], params[:, 1], params[:, 2]
        c = np.cos(theta / 2.0)
        s = np.sin(theta / 2.0)
        e_pp = np.exp(-1.0j * (phi1 + phi2))
        e_pm = np.exp(-1.0j * (phi1 - phi2))
        outer0 = -1.0j * np.conj(e_pp) * s
        outer3 = -1.0j * e_pp * s
        mid1 = -1.0j * np.conj(e_pm) * s
        mid2 = -1.0j * e_pm * s
        anti = np.empty((theta.size, 4), dtype=complex)
        anti[:, 0] = outer0
        swapped = np.repeat(self._ms_swapped, n_batch)
        anti[:, 1] = np.where(swapped, mid2, mid1)
        anti[:, 2] = np.where(swapped, mid1, mid2)
        anti[:, 3] = outer3
        n_ms = len(self._ms_slots)
        return (
            c.reshape(n_ms, n_batch),
            anti.reshape(n_ms, n_batch, 4),
        )

    @staticmethod
    def _kron_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batched Kronecker product of ``(S, B, 2, 2)`` stacks -> 4x4."""
        s, n_batch = a.shape[0], a.shape[1]
        return (
            a[:, :, :, None, :, None] * b[:, :, None, :, None, :]
        ).reshape(s, n_batch, 4, 4)

    @staticmethod
    def _lift_block(block: np.ndarray, mode: str) -> np.ndarray:
        """Embed a ``(R, B, d, d)`` stack into the 4x4 group register."""
        if mode == "direct":
            return block
        if mode == "swapped":
            return block[:, :, _SWAP_PERM][:, :, :, _SWAP_PERM]
        out = np.zeros(block.shape[:2] + (4, 4), dtype=complex)
        if mode == "kron_left":
            out[:, :, 0::2, 0::2] = block
            out[:, :, 1::2, 1::2] = block
        elif mode == "kron_right":
            out[:, :, 0:2, 0:2] = block
            out[:, :, 2:4, 2:4] = block
        else:
            raise ValueError(f"unknown lift mode {mode!r}")
        return out

    def _fused_products(
        self,
        stacks: dict[str, np.ndarray],
        ms_c: np.ndarray | None,
        ms_anti: np.ndarray | None,
        n_batch: int,
    ) -> dict[int, np.ndarray]:
        """Tree-reduced products of every bucket: ``(G, B, 4, 4)`` each.

        The padded ``(G, L, B, 4, 4)`` array starts as identities, gets
        the link matrices scattered in (or, for uniform buckets, is a
        straight reshape of the mskron block), and collapses along the
        chain axis by pairwise matmul — ``log2(L)`` vectorized calls
        regardless of group count.
        """
        fused: dict[int, np.ndarray] = {}
        for length, bucket in self._buckets.items():
            prod = None
            if not bucket.uniform:
                prod = np.zeros(
                    (bucket.n_groups, length, n_batch, 4, 4), dtype=complex
                )
                prod[..., _DIAG4, _DIAG4] = 1.0
                for (kind, mode), (pos, gs, ls) in (
                    bucket.param_assigns.items()
                ):
                    prod[gs, ls] = self._lift_block(stacks[kind][pos], mode)
                for (k0, k1), (p0, p1, gs, ls) in bucket.kron_assigns.items():
                    prod[gs, ls] = self._kron_block(
                        stacks[k0][p0], stacks[k1][p1]
                    )
            for (k0, k1), (ms_pos, p0, p1, gs, ls) in (
                bucket.mskron_assigns.items()
            ):
                kick = self._kron_block(stacks[k0][p0], stacks[k1][p1])
                # kick @ MS with MS = c*I + anti-diagonal: two
                # elementwise multiplies replace the matmul.
                block = ms_c[ms_pos, :, None, None] * kick
                block += kick[..., ::-1] * ms_anti[ms_pos][..., None, :]
                if bucket.uniform:
                    prod = block.reshape(
                        bucket.n_groups, length, n_batch, 4, 4
                    )
                else:
                    prod[gs, ls] = block
            if prod is None:
                raise AssertionError("bucket compiled without links")
            for g, position, matrix in bucket.fixed_assigns:
                prod[g, position] = matrix
            while prod.shape[1] > 1:
                # Pairwise product preserves program order: the later
                # factor of each adjacent pair multiplies from the left.
                prod = np.matmul(prod[:, 1::2], prod[:, 0::2])
            fused[length] = prod[:, 0]
        return fused

    def _single_matrices(
        self, slot: int, stacks: dict[str, np.ndarray], n_batch: int
    ) -> np.ndarray:
        """The ``(B, d, d)`` stack of one unfused slot."""
        if slot in self._fixed:
            matrix = self._fixed[slot]
            return np.broadcast_to(matrix, (n_batch,) + matrix.shape)
        kind = self._local_slots[slot][0]
        return stacks[kind][self._stack_pos[slot]]

    def _generic_product(
        self, group: _ApplyGroup, stacks: dict[str, np.ndarray], n_batch: int
    ) -> np.ndarray:
        """Sequential product of a (rare) fused one-qubit run."""
        out = self._single_matrices(group.lifts[0].slot, stacks, n_batch)
        for lift in group.lifts[1:]:
            out = np.matmul(
                self._single_matrices(lift.slot, stacks, n_batch), out
            )
        return out

    def _evolve(
        self, blocks: Blocks, n_batch: int, max_batch_bytes: int | None
    ) -> np.ndarray:
        """Run the axis-order program: ``(B, 2^n_local)`` in final order.

        The state block must fit ``max_batch_bytes``; the budget is
        enforced by :func:`~repro.sim.statevector.zero_states`, which
        allocates it, so chunker and guard agree.
        """
        stacks = self._kind_stacks(blocks, n_batch)
        ms_c, ms_anti = self._ms_links(blocks, n_batch)
        fused = self._fused_products(stacks, ms_c, ms_anti, n_batch)
        psi = zero_states(self.n_local, n_batch, max_batch_bytes)
        shape = (n_batch,) + (2,) * self.n_local
        for source, qubits, payload, perm, dim in self._order:
            if source == "single":
                us = self._single_matrices(payload, stacks, n_batch)
            elif source == "bucket":
                length, g = payload
                us = fused[length][g]
            else:
                us = self._generic_product(payload, stacks, n_batch)
            if us.shape != (n_batch, dim, dim):
                raise ValueError(
                    f"gate stack shape {us.shape} does not act on "
                    f"{len(qubits)} qubits for batch {n_batch}"
                )
            if perm is not None:
                psi = psi.reshape(shape).transpose(perm)
            psi = np.matmul(us, psi.reshape(n_batch, dim, -1))
        return psi.reshape(n_batch, -1)

    def states(
        self, blocks: Blocks, max_batch_bytes: int | None = None
    ) -> np.ndarray:
        """Evolved compacted states in logical qubit order, ``(B, 2^n_local)``.

        ``blocks`` maps each gate kind to its ``(rows, B, n_params)``
        parameter block (see the module docstring).  The state block must
        fit ``max_batch_bytes``: callers chunk realization rows first
        (see :meth:`probabilities`).
        """
        n_batch = self._check_blocks(blocks)
        psi = self._evolve(blocks, n_batch, max_batch_bytes)
        if self._unpermute is None:
            return psi
        shape = (n_batch,) + (2,) * self.n_local
        return psi.reshape(shape).transpose(self._unpermute).reshape(n_batch, -1)

    def probabilities(
        self,
        blocks: Blocks,
        expected: int | Sequence[Segment],
        max_batch_bytes: int | None = None,
    ) -> np.ndarray:
        """Per-realization probabilities of the full-width ``expected``.

        ``expected`` is one bitstring for every row, or the
        :class:`Segment` runs that stack several tests' rows in order:
        each run is read for its own bitstring on its own plan's touched
        map.  Realization rows are evaluated in contiguous chunks sized
        to ``max_batch_bytes`` (or the global amplitude cap), so peak
        memory stays bounded for stacked trials-times-groups batches; a
        chunk may split a segment.  Untouched qubits must read 0 in a
        bitstring; otherwise its rows' probability is identically zero.
        A bitstring outside ``[0, 2^n_qubits)``, a segment plan with
        another compiled core, or segment rows that do not add up to the
        batch raise ``ValueError``.
        """
        n_batch = self._check_blocks(blocks)
        if isinstance(expected, (int, np.integer)):
            expected = (Segment(self, expected, n_batch),)
        covered = sum(segment.rows for segment in expected)
        if covered != n_batch:
            raise ValueError(
                f"segments cover {covered} rows of a batch of {n_batch}"
            )
        # Each segment's expected amplitude in the final axis order, or
        # -1 where an untouched qubit reads 1.
        n = self.n_local
        indices = []
        for plan, bits, _ in expected:
            if plan._local_slots != self._local_slots:
                raise ValueError(
                    "segment plan does not share this plan's compiled core"
                )
            sub, forced_zero = subregister_bitstring(
                plan.n_qubits, plan.touched, bits
            )
            index = -1
            if not forced_zero:
                index = 0
                for pos, q in enumerate(self._final_order):
                    index |= ((sub >> (n - 1 - q)) & 1) << (n - 1 - pos)
            indices.append(index)
        if max(indices) < 0:
            return np.zeros(n_batch)
        rows = np.repeat(indices, [segment.rows for segment in expected])
        forced = rows < 0
        rows[forced] = 0
        parts = []
        for start, stop in realization_chunks(n, n_batch, max_batch_bytes):
            chunk = (
                blocks
                if (start, stop) == (0, n_batch)
                else {k: b[:, start:stop] for k, b in blocks.items()}
            )
            psi = self._evolve(chunk, stop - start, max_batch_bytes)
            parts.append(
                np.abs(psi[np.arange(stop - start), rows[start:stop]]) ** 2
            )
        probs = np.clip(np.concatenate(parts), 0.0, 1.0)
        probs[forced] = 0.0
        return probs

    def apply_count(self) -> int:
        """Full-state gate applications per evaluation (fusion metric)."""
        return len(self._order)

    def rebind(self, n_qubits: int, skeleton: Skeleton) -> "DensePlan":
        """A plan for ``skeleton`` sharing this plan's compiled core.

        The expensive compilation products — fused apply groups, builder
        stacks, link buckets, the apply order — live entirely on the
        compacted register, so any skeleton with the same canonical form
        (see :func:`canonical_skeleton`) can reuse them.  Only the
        absolute-index bookkeeping (``touched``/``index``/``skeleton``/
        ``n_qubits``, consumed by :meth:`probabilities` to locate the
        expected bitstring) is rebuilt, which is O(slots) dict work
        instead of a full schedule compile.

        The clone aliases the donor's compiled structures — the
        axis-order program and the per-kind gathers included; they are
        read-only after compilation, so sharing is safe.
        """
        skeleton = tuple(skeleton)
        touched = sorted({q for _, qubits in skeleton for q in qubits})
        index = {q: k for k, q in enumerate(touched)}
        local = [
            (gate, tuple(index[q] for q in qubits)) for gate, qubits in skeleton
        ]
        if len(touched) != self.n_local or local != self._local_slots:
            raise ValueError(
                "skeleton is not structurally identical to this plan"
            )
        clone = copy.copy(self)
        clone.n_qubits = n_qubits
        clone.skeleton = skeleton
        clone.touched = touched
        clone.index = index
        return clone


class DensePlanCache:
    """Bounded LRU of :class:`DensePlan` objects keyed by skeleton.

    One cache lives on each :class:`~repro.trap.machine.VirtualIonTrap`
    (serving ``run``, ``run_match`` and executor rounds across a
    diagnosis session) and one on each
    :class:`~repro.trap.machine.CompiledBattery` (surviving across trial
    machines).  The bound is an entry count — plans hold only index
    tuples and a handful of fixed 4x4 matrices, so residency is tiny; the
    cap is a guard against unbounded skeleton churn, not a byte budget.

    Cache keys are ``(n_qubits, skeleton)`` and nothing else: evaluation
    knobs (``max_batch_bytes``, shot counts, trial counts) never enter
    the key, so changing them between calls must never recompile.
    ``evictions`` counts LRU drops since construction;
    :meth:`take_invalidations` drains the count incrementally into the
    ``MachineStats`` of whichever machine touches the cache next — exact
    per-machine attribution on a machine-private cache, best-effort on
    a battery cache shared across trial machines.

    Raw-key misses consult a second, *structural* index keyed by the
    canonical (compacted) skeleton: skeletons that touch different
    absolute qubits but share one local structure — e.g. one nominal
    test circuit shifted along the chain, the entire fig6/fig7 battery
    shape — reuse the donor's compiled core through
    :meth:`DensePlan.rebind` instead of recompiling.  ``rebinds`` counts
    those cheap clones (drained per-machine via :meth:`take_rebinds`);
    only true structural misses pay a full compile.
    """

    def __init__(self, max_plans: int = 256):
        if max_plans < 1:
            raise ValueError("cache must hold at least one plan")
        self.max_plans = max_plans
        self.evictions = 0
        self.rebinds = 0
        self._unclaimed_evictions = 0
        self._unclaimed_rebinds = 0
        self._plans: OrderedDict[tuple[int, Skeleton], DensePlan] = (
            OrderedDict()
        )
        # Structural donors survive raw-key eviction: they are templates,
        # not entries, and are bounded separately by the same cap.
        self._canonical: OrderedDict[Skeleton, DensePlan] = OrderedDict()

    def get(self, n_qubits: int, skeleton: Skeleton) -> tuple[DensePlan, bool]:
        """Return ``(plan, was_cached)`` for a skeleton, compiling on miss.

        ``was_cached`` reports a raw-key hit only; a structural rebind
        returns ``False`` (the entry is new) while skipping the compile.
        """
        key = (n_qubits, tuple(skeleton))
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            return plan, True
        canonical = canonical_skeleton(key[1])
        donor = self._canonical.get(canonical)
        if donor is not None:
            self._canonical.move_to_end(canonical)
            plan = donor.rebind(n_qubits, key[1])
            self.rebinds += 1
            self._unclaimed_rebinds += 1
        else:
            plan = DensePlan(n_qubits, key[1])
            self._canonical[canonical] = plan
            while len(self._canonical) > self.max_plans:
                self._canonical.popitem(last=False)
        self._plans[key] = plan
        while len(self._plans) > self.max_plans:
            self._plans.popitem(last=False)
            self.evictions += 1
            self._unclaimed_evictions += 1
        return plan, False

    def take_invalidations(self) -> int:
        """Evictions since the last call (drained; see ``evictions``)."""
        count = self._unclaimed_evictions
        self._unclaimed_evictions = 0
        return count

    def take_rebinds(self) -> int:
        """Structural rebinds since the last call (drained; see ``rebinds``)."""
        count = self._unclaimed_rebinds
        self._unclaimed_rebinds = 0
        return count

    def __len__(self) -> int:
        return len(self._plans)
