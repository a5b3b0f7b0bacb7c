"""Compiled evaluation plans for the dense statevector path.

The dense engine is the one forced by the paper's full Sec. VI error
model (1/f phase noise, residual kicks), i.e. the hot path of Figs. 6/7.
A :class:`DensePlan` hoists everything static out of the per-trial loop.
Per *slot skeleton* (the ``(gate, qubits)`` sequence shared by every
noise realization of one nominal circuit under one noise structure) it
compiles once:

* the compacted register of touched qubits and its index map;
* **fused apply groups**: maximal runs of adjacent slots whose combined
  support stays within two qubits collapse into a single gate
  application, so the residual-kick ``R`` slots after every MS gate (and
  the MS repetitions themselves, when they share a coupling) cost
  small-matrix arithmetic instead of full-state passes;
* **link chains**: each group's slots, in program order, as links in
  factored form — an MS slot as ``c*I`` plus its anti-diagonal, a
  parameterized one-qubit slot as a 2x2 factor on one qubit of the
  group, parameter-free slots as one fixed matrix.  Groups with the same
  link sequence form one :class:`_Chain`.

**Link chains.**  A chain is multiplied out left to right for all its
groups at once, in matrix-major layout ``(d, d, groups, B)``: each level
updates every running product in three elementwise passes (an MS link
reads the product's rows reversed; a factor link splits the row index
around its qubit's bit), over one preallocated block of three buffers.
No 4x4 product goes through BLAS, and a chain is as long as its links.
Each kind's parameter rows are gathered once into link order, so every
level reads contiguous ``(groups, B)`` slabs.

**Input.**  Evaluation takes one parameter block per gate kind,
``{kind: (rows of that kind in program order, B, n_params)}`` —
``n_params`` is 3 for ``MS``, 2 for ``R``, 1 for ``RX``/``RY``/``RZ``
and 0 for parameter-free gates.  The machine's dense pass builds that
form once per stack of tests.  Row counts, the shared batch size and parameter widths
are checked per kind.

**Apply.**  The apply order is compiled into an *axis-order program*:
the state tensor is never permuted back between applications.  Each
step records the transpose that brings its qubits to the front from
the axis order the previous step left (``None`` when they are already
there) and the gate width it applies, so a step is one reshape (plus
that transpose) and one batched ``matmul``.  The first step acts on
``|0...0>`` and only copies its gates' first columns; the last sums its
gate columns in order, and :meth:`DensePlan.probabilities` has it form
only the expected amplitude, at its index in the final axis order
(memoized per plan), while :meth:`DensePlan.states` forms every
amplitude the same way and un-permutes once.  Realization rows are
chunked under the combined amplitude cap.  Plans depend only on
``(n_qubits, skeleton)`` — they are machine-independent and meant to be
cached across trials and machines (see :data:`PLAN_CACHE`).

**Stacking.**  Every step acts per batch row, so the rows of several
tests that share one canonical skeleton stack along the batch axis into
one call: :meth:`DensePlan.probabilities` takes a list of
:class:`Segment` runs, each read for its own expected bitstring on its
own plan's touched map.  Each row is bit-identical to a one-segment
call on that row's plan.
"""

from __future__ import annotations

import copy
import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
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
    "PLAN_CACHE",
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
    plan's fused groups, link chains and apply order all live on the
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
_ANTI4 = _DIAG4[::-1].copy()

_I2 = np.eye(2, dtype=complex)

#: Expected bitstrings whose amplitude index a plan memoizes before its
#: memo starts over.
_INDEX_MEMO = 64

#: Elements per ufunc iteration buffer while a plan multiplies out its
#: chains.  Chain levels broadcast ``(G, B)`` parameters over the running
#: products, and numpy's buffered iterator allocates one buffer per
#: broadcast operand for every such call: at the default 8192 elements
#: that is 128 KiB of complex128, allocated and freed per call, and
#: copied through out of cache.  512-element buffers keep the copies in
#: cache and the transients small.
_UFUNC_BUFSIZE = 512


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


@dataclass(frozen=True)
class _Chain:
    """Fused groups sharing one link sequence, multiplied out together.

    Every group of a chain has the gate width ``dim`` (2 or 4) and the
    same links in program order; ``levels`` holds one entry per link,
    applied to all ``n_groups`` groups at once:

    * ``("ms", rows, swapped)`` — an MS slot: ``c*I`` plus an
      anti-diagonal, with its qubits exchanged when ``swapped``;
    * ``("factor", kind, rows, side)`` — a parameterized one-qubit slot:
      a 2x2 factor on the group's first (``side`` 0) or second qubit;
    * ``("fixed", matrix)`` — parameter-free slots, consecutive ones
      multiplied together at compile time.

    ``rows`` is the slice of the level's rows, one per group, in its
    kind's parameters gathered into link order (see
    :meth:`DensePlan._compile_chains`), so every level reads contiguous
    ``(G, B)`` blocks.  A chain of fixed slots alone has its product in
    ``constant`` and is broadcast instead of evaluated.
    """

    dim: int
    n_groups: int
    levels: tuple[tuple, ...]
    constant: np.ndarray | None = None

    def products(
        self,
        ms: tuple[np.ndarray, np.ndarray] | None,
        factors: dict[str, np.ndarray],
        n_batch: int,
    ) -> np.ndarray:
        """Each group's fused matrices: a ``(G, B, d, d)`` view.

        The chain is accumulated left to right in matrix-major layout
        ``(d, d, G, B)``: each level multiplies every group's running
        product from the left in three elementwise passes over one
        preallocated block of three buffers, so no 4x4 product goes
        through BLAS.
        """
        d = self.dim
        if self.constant is not None:
            return np.broadcast_to(self.constant, (self.n_groups, n_batch, d, d))
        shape = (d, d, self.n_groups, n_batch)
        bufs = np.empty((3,) + shape, dtype=complex)
        split: dict[int, np.ndarray] = {}
        acc, spare, term = 0, 1, 2
        for k, level in enumerate(self.levels):
            if level[0] == "ms":
                _, rows, swapped = level
                c, anti = ms[0][rows], ms[1][:, rows]
                if swapped:
                    anti = anti[_SWAP_PERM]
                if k == 0:
                    bufs[acc].fill(0.0)
                    bufs[acc][_DIAG4, _DIAG4] = c
                    bufs[acc][_DIAG4, _ANTI4] = anti
                    continue
                # Row i of MS @ P is c * P[i] + anti[i] * P[3 - i].
                np.multiply(anti[:, None], bufs[acc][::-1], out=bufs[term])
                np.multiply(c, bufs[acc], out=bufs[spare])
            elif level[0] == "factor":
                _, kind, rows, side = level
                u = factors[kind][:, :, rows]
                if k == 0:
                    np.copyto(bufs[acc], np.eye(d)[:, :, None, None])
                # The buffers with their row index split around the
                # factor's qubit bit: (outer, bit, inner, column, G, B).
                if side not in split:
                    outer = 2**side
                    split[side] = bufs.reshape(
                        (3, outer, 2, d // (2 * outer), d) + shape[2:]
                    )
                parts = split[side]
                np.multiply(
                    u[:, 0][None, :, None, None],
                    parts[acc][:, :1],
                    out=parts[spare],
                )
                np.multiply(
                    u[:, 1][None, :, None, None],
                    parts[acc][:, 1:],
                    out=parts[term],
                )
            else:
                matrix = level[1]
                if k == 0:
                    np.copyto(bufs[acc], matrix[:, :, None, None])
                    continue
                np.matmul(
                    matrix,
                    bufs[acc].reshape(d, -1),
                    out=bufs[spare].reshape(d, -1),
                )
                acc, spare = spare, acc
                continue
            bufs[spare] += bufs[term]
            acc, spare = spare, acc
        return bufs[acc].transpose(2, 3, 0, 1)


def _ms_terms(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The MS block as ``(c, anti)``: ``(rows, B)`` and ``(4, rows, B)``.

    An MS matrix is ``c*I`` plus the anti-diagonal whose row ``i``
    entry ``anti[i]`` sits in column ``3 - i``.  ``c`` is stored complex
    so the chain's products need no cast.
    """
    theta, phi1, phi2 = params[..., 0], params[..., 1], params[..., 2]
    c = np.cos(theta / 2.0).astype(complex)
    s = -1.0j * np.sin(theta / 2.0)
    e_pp = np.exp(-1.0j * (phi1 + phi2))
    e_pm = np.exp(-1.0j * (phi1 - phi2))
    anti = np.empty((4,) + theta.shape, dtype=complex)
    np.multiply(e_pp, s, out=anti[0])
    np.multiply(e_pm, s, out=anti[1])
    np.multiply(np.conj(e_pm), s, out=anti[2])
    np.multiply(np.conj(e_pp), s, out=anti[3])
    return c, anti


def _factor_block(kind: str, params: np.ndarray) -> np.ndarray:
    """A one-qubit kind's gate matrices, matrix-major: ``(2, 2, rows, B)``."""
    theta = params[..., 0]
    u = np.empty((2, 2) + theta.shape, dtype=complex)
    if kind == "RZ":
        u[0, 0] = np.exp(-0.5j * theta)
        u[1, 1] = np.exp(0.5j * theta)
        u[0, 1] = u[1, 0] = 0.0
        return u
    phi = {"R": None, "RX": 0.0, "RY": math.pi / 2.0}[kind]
    if phi is None:
        phi = params[..., 1]
    c = np.cos(theta / 2.0)
    s = -1.0j * np.sin(theta / 2.0)
    e = np.exp(-1.0j * phi)
    u[0, 0] = c
    u[1, 1] = c
    np.multiply(e, s, out=u[0, 1])
    np.multiply(np.conj(e), s, out=u[1, 0])
    return u


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
        self._local_slots = [
            (gate, tuple(self.index[q] for q in qubits))
            for gate, qubits in self.skeleton
        ]
        self._fixed: dict[int, np.ndarray] = {}
        for i, (gate, _) in enumerate(self._local_slots):
            if gate not in _PARAM_WIDTH:
                self._fixed[i] = batched_matrices_from_params(
                    gate, np.zeros((1, 0))
                )[0]
        self._indices: dict[int, int] = {}
        self._compile_program(self._compile_chains(self._segment(self._local_slots)))

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

    def _compile_chains(
        self, groups: tuple[_ApplyGroup, ...]
    ) -> list[tuple[tuple[int, ...], int, int]]:
        """Sort the apply groups into chains; returns the apply order.

        A slot's *row* is its rank among the slots of its kind in
        program order — its row in that kind's input block.  Each group
        becomes a link sequence (see :class:`_Chain`); groups with equal
        sequences form one chain, evaluated together.  Each apply step
        is ``(qubits, chain, group)``: the group's place in its chain.
        """
        self._kind_rows: dict[str, int] = {}
        row: dict[int, int] = {}
        for i, (gate, _) in enumerate(self._local_slots):
            row[i] = self._kind_rows.get(gate, 0)
            self._kind_rows[gate] = row[i] + 1
        # signature -> (chain index, dim, links, each member's param rows)
        chains: dict[tuple, tuple[int, int, list[tuple], list[list[int]]]] = {}
        steps = []
        for group in groups:
            links: list[tuple] = []
            rows: list[int] = []
            for lift in group.lifts:
                gate = self._local_slots[lift.slot][0]
                if gate not in _PARAM_WIDTH:
                    matrix = self._lift_fixed(lift.slot, lift.mode)
                    if links and links[-1][0] == "fixed":
                        matrix = matrix @ links.pop()[1]
                    links.append(("fixed", matrix))
                    continue
                rows.append(row[lift.slot])
                if gate == "MS":
                    links.append(("ms", lift.mode == "swapped"))
                else:
                    links.append(("factor", gate, int(lift.mode == "kron_right")))
            dim = 2 ** len(group.qubits)
            signature = (dim,) + tuple(
                ("fixed", link[1].tobytes()) if link[0] == "fixed" else link
                for link in links
            )
            chain, _, _, members = chains.setdefault(
                signature, (len(chains), dim, links, [])
            )
            steps.append((group.qubits, chain, len(members)))
            members.append(rows)
        # Each kind's parameter rows in the order the chains read them:
        # chain by chain, level by level, group by group.
        consumed: dict[str, list[int]] = {}
        self._chains = tuple(
            self._chain(dim, links, members, consumed)
            for _, dim, links, members in chains.values()
        )
        self._gathers = {
            kind: None
            if order == list(range(len(order)))
            else np.array(order, dtype=np.intp)
            for kind, order in consumed.items()
        }
        return steps

    @staticmethod
    def _chain(
        dim: int,
        links: list[tuple],
        members: list[list[int]],
        consumed: dict[str, list[int]],
    ) -> _Chain:
        """One chain's levels; appends the rows it reads to ``consumed``."""
        if len(links) == 1 and links[0][0] == "fixed":
            return _Chain(dim, len(members), (), links[0][1])
        levels = []
        param = 0
        for link in links:
            if link[0] == "fixed":
                levels.append(link)
                continue
            order = consumed.setdefault("MS" if link[0] == "ms" else link[1], [])
            rows = slice(len(order), len(order) + len(members))
            order.extend(member[param] for member in members)
            param += 1
            if link[0] == "ms":
                levels.append(("ms", rows, link[1]))
            else:
                levels.append(("factor", link[1], rows, link[2]))
        return _Chain(dim, len(members), tuple(levels))

    def _lift_fixed(self, slot: int, mode: str) -> np.ndarray:
        """Compile-time lift of a parameter-free slot matrix."""
        matrix = self._fixed[slot]
        if mode == "direct":
            return matrix
        if mode == "swapped":
            return matrix[np.ix_(_SWAP_PERM, _SWAP_PERM)]
        if mode == "kron_left":
            return np.kron(matrix, _I2)
        return np.kron(_I2, matrix)

    def _compile_program(
        self, steps: list[tuple[tuple[int, ...], int, int]]
    ) -> None:
        """Turn the apply order into the axis-order program.

        The evolving ``(B, 2, ..., 2)`` state keeps its qubit axes in a
        tracked order instead of restoring them after each application.
        Each step becomes ``(qubits, chain, group, perm, dim)``: ``perm``
        transposes the state from the previous step's order so
        ``qubits`` lead (``None`` when they already do) and ``dim`` is
        the applied gate's width.  ``_final_order`` is the axis order
        evaluation ends in; ``_unpermute`` restores logical order from it
        (``None`` when it already is).  ``_last_gather[j, r]`` is the flat
        index, before the last step's transpose, of the amplitude that
        step reads at gate row ``j`` and remainder ``r``.
        """
        n = self.n_local
        order = tuple(range(n))
        program = []
        for qubits, chain, group in steps:
            k = len(qubits)
            perm = None
            if order[:k] != qubits:
                rest = tuple(q for q in order if q not in qubits)
                perm = (0, *(1 + order.index(q) for q in qubits + rest))
                order = qubits + rest
            program.append((qubits, chain, group, perm, 2**k))
        self._order = tuple(program)
        self._final_order = order
        self._unpermute = (
            None
            if order == tuple(range(n))
            else (0, *(1 + order.index(q) for q in range(n)))
        )
        _, _, _, perm, dim = program[-1]
        flat = np.arange(2**n).reshape((2,) * n)
        if perm is not None:
            flat = flat.transpose([axis - 1 for axis in perm[1:]])
        self._last_gather = flat.reshape(dim, -1)

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

    def _products(self, blocks: Blocks, n_batch: int) -> list[np.ndarray]:
        """Every chain's fused matrices, ``(G, B, d, d)`` each."""
        ms, factors = None, {}
        for kind, gather in self._gathers.items():
            params = blocks[kind] if gather is None else blocks[kind][gather]
            if kind == "MS":
                ms = _ms_terms(params)
            else:
                factors[kind] = _factor_block(kind, params)
        return [chain.products(ms, factors, n_batch) for chain in self._chains]

    def _evolve(
        self, blocks: Blocks, n_batch: int, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Run the axis-order program: ``(B, 2^n_local)`` in final order.

        With ``rows`` (each row's amplitude index in the final order)
        only those amplitudes are formed, shape ``(B,)`` (see
        :meth:`_last_step`).  The state block must fit the amplitude
        cap, which :func:`~repro.sim.statevector.zero_states` enforces as
        it allocates it, so chunker and guard agree.
        """
        bufsize = np.setbufsize(_UFUNC_BUFSIZE)
        try:
            products = self._products(blocks, n_batch)
        finally:
            np.setbufsize(bufsize)
        psi = zero_states(self.n_local, n_batch)
        # Transposes and products alternate between two state buffers.
        spare = np.empty_like(psi)
        shape = (n_batch,) + (2,) * self.n_local
        last = len(self._order) - 1
        for step, (_, chain, group, perm, dim) in enumerate(self._order):
            us = products[chain][group]
            if step == 0:
                # On |0...0> the transpose is the identity and the
                # product is the gate's first column.
                psi.reshape(n_batch, dim, -1)[:, :, 0] = us[:, :, 0]
                continue
            if step == last:
                return self._last_step(us, psi, rows)
            if perm is not None:
                np.copyto(spare.reshape(shape), psi.reshape(shape).transpose(perm))
                psi, spare = spare, psi
            np.matmul(
                us,
                psi.reshape(n_batch, dim, -1),
                out=spare.reshape(n_batch, dim, -1),
            )
            psi, spare = spare, psi
        return psi if rows is None else psi[np.arange(n_batch), rows]

    def _last_step(
        self, us: np.ndarray, psi: np.ndarray, rows: np.ndarray | None
    ) -> np.ndarray:
        """The last step's output, its gate columns summed in order.

        Without ``rows`` this is the full ``(B, 2^n_local)`` state; with
        them, only each row's amplitude: its gate row times the state
        column the step's transpose would bring there, read through
        ``_last_gather``.  Both sum the same products in the same order,
        so an amplitude is bit-identical either way.
        """
        dim, rest = self._last_gather.shape
        if rows is None:
            terms = us[:, :, :, None] * psi[:, self._last_gather][:, None]
            axis = 2
        else:
            batch = np.arange(psi.shape[0])
            columns = self._last_gather[:, rows % rest].T
            terms = us[batch, rows // rest] * psi[batch[:, None], columns]
            axis = 1
        lead = (slice(None),) * axis
        total = terms[lead + (0,)] + terms[lead + (1,)]
        for j in range(2, dim):
            total += terms[lead + (j,)]
        return total.reshape(psi.shape[0], -1) if rows is None else total

    def states(self, blocks: Blocks) -> np.ndarray:
        """Evolved compacted states in logical qubit order, ``(B, 2^n_local)``.

        ``blocks`` maps each gate kind to its ``(rows, B, n_params)``
        parameter block (see the module docstring).  The state block must
        fit the amplitude cap: callers chunk realization rows first (see
        :meth:`probabilities`).
        """
        n_batch = self._check_blocks(blocks)
        psi = self._evolve(blocks, n_batch)
        if self._unpermute is None:
            return psi
        shape = (n_batch,) + (2,) * self.n_local
        return psi.reshape(shape).transpose(self._unpermute).reshape(n_batch, -1)

    def _expected_index(self, bits: int) -> int:
        """``bits``' amplitude index in the final axis order, memoized.

        ``-1`` when a qubit this plan leaves untouched reads 1.  The memo
        is the plan's own: a rebound plan reads the same bits on another
        touched map (see :meth:`rebind`).
        """
        index = self._indices.get(bits)
        if index is not None:
            return index
        sub, forced_zero = subregister_bitstring(self.n_qubits, self.touched, bits)
        index = -1
        if not forced_zero:
            n = self.n_local
            index = 0
            for pos, q in enumerate(self._final_order):
                index |= ((sub >> (n - 1 - q)) & 1) << (n - 1 - pos)
        if len(self._indices) >= _INDEX_MEMO:
            self._indices.clear()
        self._indices[bits] = index
        return index

    def probabilities(
        self,
        blocks: Blocks,
        expected: int | Sequence[Segment],
    ) -> np.ndarray:
        """Per-realization probabilities of the full-width ``expected``.

        ``expected`` is one bitstring for every row, or the
        :class:`Segment` runs that stack several tests' rows in order:
        each run is read for its own bitstring on its own plan's touched
        map.  Realization rows are evaluated in contiguous chunks under
        :data:`~repro.sim.statevector.MAX_BATCH_AMPLITUDES`, so peak
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
        indices = []
        for plan, bits, _ in expected:
            if (
                plan._local_slots is not self._local_slots
                and plan._local_slots != self._local_slots
            ):
                raise ValueError(
                    "segment plan does not share this plan's compiled core"
                )
            indices.append(plan._expected_index(int(bits)))
        if max(indices) < 0:
            return np.zeros(n_batch)
        rows = np.repeat(indices, [segment.rows for segment in expected])
        forced = rows < 0
        rows[forced] = 0
        parts = []
        for start, stop in realization_chunks(self.n_local, n_batch):
            chunk = (
                blocks
                if (start, stop) == (0, n_batch)
                else {k: b[:, start:stop] for k, b in blocks.items()}
            )
            amps = self._evolve(chunk, stop - start, rows[start:stop])
            parts.append(np.abs(amps) ** 2)
        probs = np.clip(np.concatenate(parts), 0.0, 1.0)
        probs[forced] = 0.0
        return probs

    def apply_count(self) -> int:
        """Full-state gate applications per evaluation (fusion metric)."""
        return len(self._order)

    def rebind(self, n_qubits: int, skeleton: Skeleton) -> "DensePlan":
        """A plan for ``skeleton`` sharing this plan's compiled core.

        The expensive compilation products — fused apply groups, link
        chains, the apply order — live entirely on the compacted
        register, so any skeleton with the same canonical form (see
        :func:`canonical_skeleton`) can reuse them.  Only the
        absolute-index bookkeeping (``touched``/``index``/``skeleton``/
        ``n_qubits``, consumed by :meth:`probabilities` to locate the
        expected bitstring) is rebuilt, which is O(slots) dict work
        instead of a full schedule compile.

        The clone aliases the donor's compiled structures — the
        axis-order program and the chains included; they are read-only
        after compilation, so sharing is safe.  The expected-index memo
        depends on the touched map, so the clone starts its own.
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
        clone._indices = {}
        return clone


class DensePlanCache:
    """Bounded LRU of :class:`DensePlan` objects keyed by skeleton.

    One cache serves the whole process: :data:`PLAN_CACHE`, which every
    :class:`~repro.trap.machine.VirtualIonTrap` evaluates on (``run``,
    ``run_match`` and rounds alike), so a fresh machine finds the plans
    an earlier machine compiled.  The bound is an entry count — plans
    hold only index tuples and a handful of fixed 4x4 matrices, so
    residency is tiny; the cap is a guard against unbounded skeleton
    churn, not a byte budget.

    Cache keys are ``(n_qubits, skeleton)`` and nothing else: shot and
    trial counts never enter the key, so changing them between calls
    must never recompile.
    ``evictions`` counts LRU drops since construction.

    Raw-key misses consult a second, *structural* index keyed by the
    canonical (compacted) skeleton: skeletons that touch different
    absolute qubits but share one local structure — e.g. one nominal
    test circuit shifted along the chain, the entire fig6/fig7 battery
    shape — reuse the donor's compiled core through
    :meth:`DensePlan.rebind` instead of recompiling.  ``rebinds`` counts
    those cheap clones; only true structural misses pay a full compile.

    :meth:`get` is not synchronized itself: callers that share a cache
    across threads hold ``lock`` around it (and around reading the
    counters they attribute to one lookup).
    """

    def __init__(self, max_plans: int = 256):
        if max_plans < 1:
            raise ValueError("cache must hold at least one plan")
        self.max_plans = max_plans
        self.lock = threading.Lock()
        self.evictions = 0
        self.rebinds = 0
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
        # A tuple is kept as given: a skeleton that caches its hash
        # keeps doing so in the key.
        if not isinstance(skeleton, tuple):
            skeleton = tuple(skeleton)
        key = (n_qubits, skeleton)
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
        else:
            plan = DensePlan(n_qubits, key[1])
            self._canonical[canonical] = plan
            while len(self._canonical) > self.max_plans:
                self._canonical.popitem(last=False)
        self._plans[key] = plan
        while len(self._plans) > self.max_plans:
            self._plans.popitem(last=False)
            self.evictions += 1
        return plan, False

    def __len__(self) -> int:
        return len(self._plans)


#: The process-wide plan cache.  Plans depend only on ``(n_qubits,
#: skeleton)``, so every machine, round and trial shares it; its lock
#: guards lookups from concurrent threads (a timed-out round may leave
#: its worker thread running beside the next one).
PLAN_CACHE = DensePlanCache()


def _reset_plan_lock() -> None:
    """In a forked child, drop the lock state copied from the parent."""
    PLAN_CACHE.lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_plan_lock)
