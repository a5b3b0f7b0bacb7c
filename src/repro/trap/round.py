"""Compiled tests and round plans: everything a pass fixes before it draws.

A *round* is a tuple of :class:`TestProgram` objects one machine runs in
one pass, with no adaptation between them.  Compiled here, once:

* per program, its XX entry per ``max_exact_qubits``
  (:func:`_compiled_xx_test`: a
  :class:`~repro.sim.xx_engine.ContractionPlan`, the test's own
  :class:`_XXRun` and its static RX/X angles) and its dense layout per
  residual kicks on/off (:func:`_compiled_dense_test`);
* per round and route key (engine, XX-preserving noise, kicks,
  ``max_exact_qubits``), a :class:`RoundPlan` (:func:`round_plan`),
  held in one process-wide LRU, or by its program for a round of one.
  A machine's drive-phase offsets can decline some of its XX rows; the
  plan finds them with one vectorized check per pass and keeps one
  :class:`Routes` per declined set.

:class:`Routes` apply one grouping rule to both routes, across the whole
round: XX rows contract by plan structure, dense rows stack by canonical
skeleton.  Draws keep row order.  Plans hold index arrays only: a pass
fetches compiled plans through :meth:`TestProgram.xx` and
:data:`~repro.sim.dense_plan.PLAN_CACHE`, whose bounds stay the only
bounds on pinned plans.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from ..sim.circuit import Circuit, Operation, is_multiple_of_pi
from ..sim.dense_plan import Skeleton, canonical_skeleton
from ..sim.statevector import check_bitstring
from ..sim.xx_engine import ContractionPlan
from .faults import Pair

__all__ = ["RoundPlan", "Routes", "TestProgram", "as_program", "round_plan"]

#: Programs wrapped per process by :func:`as_program` (least recently
#: used dropped first).  A program holds its circuit, its dense layouts
#: and weak references to its XX entries, so entries stay small.
_PROGRAM_CACHE_SIZE = 2048


@dataclass(frozen=True)
class TestProgram:
    """A built test, resolved once: what ``run_match`` and batteries run.

    Holds the nominal circuit (a private copy: do not mutate it), the
    expected bitstring, the two-qubit gate count charged per shot and the
    structure ``key`` ``(n_qubits, ops, expected)``, hashed once; two
    programs are equal when their keys are.  The compiled entries are
    resolved on first use and then held: the XX entry per
    ``max_exact_qubits`` (:meth:`xx`) and the dense layout per residual
    kicks on/off (:meth:`dense`).  Build programs with :func:`as_program`
    or :func:`repro.core.protocol.built_test`.
    """

    __test__ = False  # not a pytest test class

    circuit: Circuit = field(compare=False)
    expected: int = field(compare=False)
    #: Two-qubit gate applications per shot, for cost accounting.
    n_two_qubit: int = field(compare=False)
    key: tuple[int, tuple[Operation, ...], int]
    _hash: int = field(init=False, repr=False, compare=False)
    #: ``max_exact_qubits -> weakref to the entry``, or ``None`` when the
    #: XX route cannot take the test.  Held weakly so that
    #: ``_compiled_xx_test``'s bound is the bound on pinned plan blocks.
    _xx: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    #: ``kicks -> _CompiledDenseTest`` (index arrays, no plans).
    _dense: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    #: ``route key -> RoundPlan`` of the program run alone.
    _rounds: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.key))

    def __hash__(self) -> int:
        return self._hash

    def xx(self, max_exact_qubits: int) -> "_CompiledXXTest | None":
        """The compiled XX entry, or ``None`` where the XX route declines."""
        ref = self._xx.get(max_exact_qubits)
        if ref is not None:
            test = ref()
            if test is not None:
                return test
        elif max_exact_qubits in self._xx:
            return None  # the XX route cannot take this test
        test = _compiled_xx_test(self, max_exact_qubits)
        self._xx[max_exact_qubits] = None if test is None else weakref.ref(test)
        return test

    def dense(self, kicks: bool) -> "_CompiledDenseTest":
        """The dense layout, with or without residual-kick slots."""
        test = self._dense.get(kicks)
        if test is None:
            test = _compiled_dense_test(self.key[1], kicks)
            self._dense[kicks] = test
        return test


def as_program(circuit: Circuit, expected: int) -> TestProgram:
    """``(circuit, expected)`` as a :class:`TestProgram`, one per structure.

    An ``expected`` outside ``[0, 2^n_qubits)`` raises ``ValueError``.
    """
    return _program(circuit.n_qubits, tuple(circuit.ops), expected)


@lru_cache(maxsize=_PROGRAM_CACHE_SIZE)
def _program(
    n_qubits: int, ops: tuple[Operation, ...], expected: int
) -> TestProgram:
    check_bitstring(expected, n_qubits)
    circuit = Circuit(n_qubits, list(ops))
    return TestProgram(
        circuit, expected, circuit.depth_two_qubit(), (n_qubits, ops, expected)
    )


# -- the XX route -------------------------------------------------------------


@dataclass(frozen=True)
class _XXRun:
    """XX rows as one layout: one compiled test's, or a round's XX rows'.

    ``edge_index`` holds the flat calibration index ``q1 * N + q2`` (``q1
    < q2``) of every row's edge columns, concatenated: the columns of the
    accumulated angle block and the calibration gather index.  Each
    MS/XX slot has its column ``slot_edge`` and nominal angle
    ``slot_theta``; ``slot_phases`` holds the slots' nominal drive
    phases, ``(n_ms, 2)``, or is ``None`` when every one is 0 (XX gates
    and every protocol test).  ``n_ms`` holds each row's slot count.
    """

    edge_index: np.ndarray
    slot_edge: np.ndarray
    slot_theta: np.ndarray
    slot_phases: np.ndarray | None
    n_ms: tuple[int, ...]

    @classmethod
    def of(cls, runs: list["_XXRun"]) -> "_XXRun":
        """``runs`` side by side, each row's edge columns after the last's."""
        if len(runs) == 1:
            return runs[0]
        offsets = np.cumsum([0] + [run.edge_index.size for run in runs])
        phases = None
        if any(run.slot_phases is not None for run in runs):
            phases = np.concatenate(
                [
                    np.zeros((run.slot_edge.size, 2))
                    if run.slot_phases is None
                    else run.slot_phases
                    for run in runs
                ]
            )
        return cls(
            edge_index=np.concatenate([run.edge_index for run in runs]),
            slot_edge=np.concatenate(
                [run.slot_edge + off for run, off in zip(runs, offsets)]
            ),
            slot_theta=np.concatenate([run.slot_theta for run in runs]),
            slot_phases=phases,
            n_ms=sum((run.n_ms for run in runs), ()),
        )


def realized_phases(run: _XXRun, phase_offsets: np.ndarray) -> np.ndarray | None:
    """Each slot's realized drive phases: nominal plus its coupling's offset.

    ``(n_ms, 2)``, or ``(n_ms, 1)`` for both phases when every nominal
    phase is 0; ``None`` when every realized phase is 0 (no offset on
    the run's couplings and no nominal phase).
    """
    offsets = phase_offsets.take(run.edge_index)
    if run.slot_phases is None and not np.count_nonzero(offsets):
        return None
    return offsets[run.slot_edge, None] + (
        0.0 if run.slot_phases is None else run.slot_phases
    )


@dataclass(frozen=True)
class _CompiledXXTest:
    """Machine-independent structure of one XX test: its run of one, its
    plan and its static RX/X angles.  ``run``'s edge columns follow
    ``plan.edge_keys``; ``linear`` sums the static angles per
    ``plan.linear_keys``."""

    run: _XXRun
    plan: ContractionPlan
    linear: np.ndarray


#: Compiled XX tests kept per process (least recently resolved dropped
#: first), their one owner: programs hold weak references.  Plans stay
#: under 64 KiB up to the 20-qubit exact limit, so all pin at most 64 MiB.
_XX_TEST_CACHE_SIZE = 1024


@lru_cache(maxsize=_XX_TEST_CACHE_SIZE)
def _compiled_xx_test(
    program: TestProgram, max_exact_qubits: int
) -> _CompiledXXTest | None:
    """The compiled XX structure of a program's nominal ops.

    ``None`` for structures with non-XX gates (cached too, so such tests
    go dense without being re-examined).  A component above
    ``max_exact_qubits`` compiles as a sampled one.  Thread-safe:
    concurrent misses on one key may both compile, equivalently.
    """
    n_qubits, ops, expected = program.key
    edge_index: dict[Pair, int] = {}
    slot_edge: list[int] = []
    slot_theta: list[float] = []
    slot_phases: list[tuple[float, float]] = []
    linear: dict[int, float] = {}
    for op in ops:
        if op.gate in ("MS", "XX"):
            col = edge_index.setdefault(frozenset(op.qubits), len(edge_index))
            slot_edge.append(col)
            slot_theta.append(op.params[0])
            slot_phases.append(op.params[1:] if op.gate == "MS" else (0.0, 0.0))
        elif op.gate == "RX":
            q = op.qubits[0]
            linear[q] = linear.get(q, 0.0) + op.params[0]
        elif op.gate == "X":
            q = op.qubits[0]
            linear[q] = linear.get(q, 0.0) + math.pi
        else:
            return None
    plan = ContractionPlan(
        n_qubits,
        list(edge_index),
        list(linear),
        expected,
        max_exact_qubits=max_exact_qubits,
    )
    edges = np.array(
        [sorted(pair) for pair in edge_index], dtype=np.intp
    ).reshape(-1, 2)
    phases = np.array(slot_phases, dtype=np.float64).reshape(len(slot_edge), 2)
    run = _XXRun(
        edge_index=edges[:, 0] * n_qubits + edges[:, 1],
        slot_edge=np.array(slot_edge, dtype=np.intp),
        slot_theta=np.array(slot_theta, dtype=np.float64),
        slot_phases=phases if phases.any() else None,
        n_ms=(len(slot_edge),),
    )
    return _CompiledXXTest(
        run=run, plan=plan, linear=np.array(list(linear.values()), dtype=np.float64)
    )


# -- the dense route ----------------------------------------------------------


@dataclass(frozen=True)
class _DenseStack:
    """The dense layouts of tests sharing one canonical skeleton, side by side.

    Per-slot arrays are ``(slots, T)``, column ``t`` holding test
    ``t``'s values: each MS/XX application's targets ``ms_q1``/``ms_q2``
    (also the calibration gather index), nominal angle and nominal
    drive phases ``ms_phi1``/``ms_phi2`` (0 for XX), and each R gate's
    qubit, angle and phase.  What the canonical skeleton fixes is
    shared: the MS slot count, whether a residual-kick slot pair follows
    each MS slot (``kicks``), the MS slots before each R gate (``r_ms``)
    and the index putting the kick rows, then the R rows, into program
    order (``r_order``, ``None`` when they already are, as in every
    battery test).  ``static`` holds every other kind's parameter rows,
    ``(rows, T, 1, n_params)``, or ``(rows, 1, 1, n_params)`` when all
    tests share them.
    """

    n_tests: int
    n_ms: int
    ms_q1: np.ndarray
    ms_q2: np.ndarray
    ms_theta: np.ndarray
    ms_phi1: np.ndarray
    ms_phi2: np.ndarray
    kicks: bool
    r_q: np.ndarray
    r_theta: np.ndarray
    r_phi: np.ndarray
    r_ms: np.ndarray
    r_order: np.ndarray | None
    static: tuple[tuple[str, np.ndarray], ...]

    @classmethod
    def of(cls, layouts: tuple["_DenseStack", ...]) -> "_DenseStack":
        """One stack of ``layouts`` (which share a canonical skeleton)."""
        first = layouts[0]
        if len(layouts) == 1:
            return first

        def columns(name: str) -> np.ndarray:
            return np.concatenate([getattr(s, name) for s in layouts], axis=1)

        static = []
        for k, (kind, rows) in enumerate(first.static):
            each = [layout.static[k][1] for layout in layouts]
            shared = all(np.array_equal(rows, other) for other in each)
            static.append((kind, rows if shared else np.concatenate(each, axis=1)))
        return replace(
            first,
            n_tests=len(layouts),
            **{
                name: columns(name)
                for name in (
                    "ms_q1", "ms_q2", "ms_theta", "ms_phi1", "ms_phi2",
                    "r_q", "r_theta", "r_phi",
                )
            },
            static=tuple(static),
        )


@dataclass(frozen=True)
class _CompiledDenseTest:
    """Machine-independent dense layout of one nominal op list.

    ``layout`` is the test's :class:`_DenseStack` of one; a draw builds
    a :class:`~repro.sim.dense_plan.DensePlan`'s per-kind blocks from
    it.  ``canonical`` is the skeleton's
    :func:`~repro.sim.dense_plan.canonical_skeleton`, the key a round
    plan stacks tests by; both skeletons hash once.
    """

    layout: _DenseStack
    skeleton: Skeleton
    canonical: Skeleton

    @property
    def kicks(self) -> bool:
        return self.layout.kicks

    @property
    def ms_theta(self) -> np.ndarray:
        return self.layout.ms_theta


def _compiled_dense_test(
    ops: tuple[Operation, ...], kicks: bool
) -> _CompiledDenseTest:
    """The dense layout of a nominal op list (held by its program).

    ``kicks`` (residual motional coupling on) inserts the two kick slots
    after every MS slot, the slots the machine draws them into.
    """
    ms: list[tuple[int, int, float, float, float]] = []
    r_slots: list[tuple[int, float, float, int]] = []
    static: dict[str, list[tuple[float, ...]]] = {}
    skeleton: list[tuple[str, tuple[int, ...]]] = []
    # Program-order R-kind rows as ("kick", k) or ("r", k) draws.
    r_rows: list[tuple[str, int]] = []
    for op in ops:
        if op.gate in ("MS", "XX"):
            k = len(ms)
            phases = op.params[1:] if op.gate == "MS" else (0.0, 0.0)
            ms.append((*op.qubits, op.params[0], *phases))
            skeleton.append(("MS", op.qubits))
            if kicks:
                skeleton += [("R", (q,)) for q in op.qubits]
                r_rows += [("kick", 2 * k), ("kick", 2 * k + 1)]
        elif op.gate == "R":
            skeleton.append(("R", op.qubits))
            r_rows.append(("r", len(r_slots)))
            r_slots.append((op.qubits[0], op.params[0], op.params[1], len(ms)))
        else:
            skeleton.append((op.gate, op.qubits))
            static.setdefault(op.gate, []).append(op.params)
    n_ms = len(ms)
    kicks = kicks and n_ms > 0
    first_row = {"kick": 0, "r": 2 * n_ms if kicks else 0}
    r_order = [first_row[block] + i for block, i in r_rows]
    ms_cols = np.array(ms, dtype=float).reshape(n_ms, 5).T[:, :, None]
    r_cols = np.array(r_slots, dtype=float).reshape(len(r_slots), 4).T[:, :, None]
    layout = _DenseStack(
        n_tests=1,
        n_ms=n_ms,
        ms_q1=ms_cols[0].astype(np.intp),
        ms_q2=ms_cols[1].astype(np.intp),
        ms_theta=ms_cols[2].copy(),
        ms_phi1=ms_cols[3].copy(),
        ms_phi2=ms_cols[4].copy(),
        kicks=kicks,
        r_q=r_cols[0].astype(np.intp),
        r_theta=r_cols[1].copy(),
        r_phi=r_cols[2].copy(),
        r_ms=r_cols[3, :, 0].astype(np.intp),
        r_order=(
            None
            if r_order == list(range(len(r_order)))
            else np.array(r_order, dtype=np.intp)
        ),
        static=tuple(
            (
                gate,
                np.array(rows, dtype=float).reshape(len(rows), 1, 1, len(rows[0])),
            )
            for gate, rows in static.items()
        ),
    )
    return _CompiledDenseTest(
        layout=layout,
        skeleton=_HashedSkeleton(skeleton),
        canonical=_HashedSkeleton(canonical_skeleton(skeleton)),
    )


class _HashedSkeleton(tuple):
    """A skeleton tuple that computes its hash once.

    Skeletons run to hundreds of slots, and a pass looks its plans up by
    them test by test; a plain tuple rehashes every time.  Pickling
    drops the cached hash (string hashes differ between processes).
    """

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = tuple.__hash__(self)
            return self._hash

    def __reduce__(self):
        return (_HashedSkeleton, (tuple(self),))


# -- the round plan -----------------------------------------------------------


@dataclass(frozen=True)
class _XXGroup:
    """Round rows whose XX plans share one structure: one contraction on
    the first one's plan.  ``edge_rows`` holds each member's columns of
    the round's accumulated block, ``(k, E)``, and ``linear`` its static
    RX/X angles, ``(k, L)``."""

    rows: np.ndarray
    edge_rows: np.ndarray
    linear: np.ndarray


@dataclass(frozen=True)
class _Stretch:
    """Consecutive XX rows: one draw block and one accumulation.

    ``slots`` and ``edges`` slice the round's XX layout, ``slot_edge``
    holds each slot's column within ``edges`` and ``n_ms`` each row's slot
    count.  ``sampled`` is the last row's group when its plan samples a
    component: it is contracted before the next row draws.
    """

    slots: slice
    edges: slice
    slot_edge: np.ndarray
    n_ms: tuple[int, ...]
    sampled: _XXGroup | None


@dataclass(frozen=True)
class _Stack:
    """Dense rows sharing one canonical skeleton: one stacked contraction
    of their layouts, side by side, and one plan lookup per skeleton."""

    rows: np.ndarray
    layout: _DenseStack
    skeletons: tuple[Skeleton, ...]


@dataclass(frozen=True)
class Routes:
    """A round's routes for one set of declined rows.

    ``xx`` lays out the XX rows (``xx_rows``) in row order.  ``schedule``
    is the draw order: :class:`_Stretch` entries and dense draws
    ``(stack, column)``.  The contractions: ``groups`` (XX, by plan
    structure, sampled rows excluded) and ``stacks`` (dense, by canonical
    skeleton).  ``refusal`` is the error ``engine='xx'`` raises.
    """

    xx: _XXRun | None
    xx_rows: tuple[int, ...]
    schedule: tuple[_Stretch | tuple[int, int], ...]
    groups: tuple[_XXGroup, ...]
    stacks: tuple[_Stack, ...]
    refusal: str | None


#: Rounds of two or more tests kept per process, least recently used
#: dropped first.  A plan holds index and angle arrays, 16 bytes per XX
#: slot (an N = 16 battery at 16 repetitions: 100 KB), and its stacked
#: dense layouts.
_ROUND_CACHE_SIZE = 256

#: Declined-row sets whose routes one plan keeps; more clear them all.
_ROUTE_VARIANTS = 8

class RoundPlan:
    """A round compiled for one route key (see :func:`round_plan`).

    ``candidates`` are the rows the XX route takes unless a realized
    drive phase leaves the pi grid: rows with an XX entry, with no MS
    slot unless the noise is XX-preserving (so other noise never
    resolves such a row's XX entry), and with no gate under
    ``engine='dense'`` (an empty contraction is exactly 1 or 0).
    """

    def __init__(
        self,
        programs: tuple[TestProgram, ...],
        engine: str,
        xx_preserving: bool,
        kicks: bool,
        max_exact_qubits: int,
    ) -> None:
        self.engine = engine
        self.kicks = kicks
        self.max_exact_qubits = max_exact_qubits
        self.candidates = tuple(
            row
            for row, program in enumerate(programs)
            if (engine != "dense" or not program.key[1])
            and (xx_preserving or not program.n_two_qubit)
            and program.xx(max_exact_qubits) is not None
        )
        runs = [programs[r].xx(max_exact_qubits).run for r in self.candidates]
        self.check = _XXRun.of(runs) if runs else None
        self._slot_row = np.repeat(
            np.array(self.candidates, dtype=np.intp), [run.n_ms[0] for run in runs]
        )
        self._routes: dict[tuple[int, ...], Routes] = {}

    def declined(self, phase_offsets: np.ndarray) -> tuple[int, ...]:
        """The candidate rows with a realized drive phase off the pi grid."""
        phases = None if self.check is None else realized_phases(
            self.check, phase_offsets
        )
        if phases is None:
            return ()
        off = ~np.all(is_multiple_of_pi(phases), axis=1)
        return tuple(np.unique(self._slot_row[off]).tolist())

    def routes(
        self, programs: tuple[TestProgram, ...], declined: tuple[int, ...] = ()
    ) -> Routes:
        """The routes of ``programs`` (the plan's round) with ``declined``
        rows sent dense, compiled once."""
        routes = self._routes.get(declined)
        if routes is None:
            if len(self._routes) >= _ROUTE_VARIANTS:
                self._routes.clear()
            routes = self._routes[declined] = self._compile(programs, declined)
        return routes

    def _compile(
        self, programs: tuple[TestProgram, ...], declined: tuple[int, ...]
    ) -> Routes:
        limit = self.max_exact_qubits
        taken = [row for row in self.candidates if row not in declined]
        tests = [programs[row].xx(limit) for row in taken]
        xx = self.check if not declined else (
            _XXRun.of([test.run for test in tests]) if tests else None
        )
        slot_at = np.cumsum([0, *(xx.n_ms if xx else ())])
        edge_at = np.cumsum([0] + [test.run.edge_index.size for test in tests])

        def group(ks: list[int]) -> _XXGroup:
            return _XXGroup(
                rows=np.array([taken[k] for k in ks], dtype=np.intp),
                edge_rows=edge_at[ks][:, None]
                + np.arange(tests[ks[0]].run.edge_index.size),
                linear=np.stack([tests[k].linear for k in ks]),
            )

        schedule: list[_Stretch | tuple[int, int]] = []
        stretch: list[int] = []

        def close(sampled: _XXGroup | None = None) -> None:
            if stretch:
                a, b = stretch[0], stretch[-1] + 1
                schedule.append(
                    _Stretch(
                        slots=slice(slot_at[a], slot_at[b]),
                        edges=slice(edge_at[a], edge_at[b]),
                        slot_edge=xx.slot_edge[slot_at[a] : slot_at[b]] - edge_at[a],
                        n_ms=xx.n_ms[a:b],
                        sampled=sampled,
                    )
                )
                stretch.clear()

        structures: dict[tuple, list[int]] = {}
        canonicals: dict[Skeleton, int] = {}
        stacks: list[list[int]] = []
        refusal = None
        k = 0
        for row, program in enumerate(programs):
            if k < len(taken) and taken[k] == row:
                stretch.append(k)
                if tests[k].plan.sampled:
                    close(group([k]))
                    refusal = refusal or (
                        "engine='xx' requested but a coupling component "
                        f"exceeds max_exact_qubits={limit}, so the XX route "
                        "would sample it"
                    )
                else:
                    structures.setdefault(tests[k].plan.structure, []).append(k)
                k += 1
                continue
            close()
            refusal = refusal or (
                "engine='xx' requested but the setting requires the dense "
                "fallback (non-XX-preserving noise, a dense-only test, or "
                "drive phases off the pi grid)"
            )
            test = program.dense(self.kicks)
            stack = canonicals.setdefault(test.canonical, len(stacks))
            if stack == len(stacks):
                stacks.append([])
            schedule.append((stack, len(stacks[stack])))
            stacks[stack].append(row)
        close()
        return Routes(
            xx=xx,
            xx_rows=tuple(taken),
            schedule=tuple(schedule),
            groups=tuple(group(ks) for ks in structures.values()),
            stacks=tuple(
                _Stack(
                    rows=np.array(rows, dtype=np.intp),
                    layout=_DenseStack.of(
                        tuple(programs[r].dense(self.kicks).layout for r in rows)
                    ),
                    skeletons=tuple(
                        programs[r].dense(self.kicks).skeleton for r in rows
                    ),
                )
                for rows in stacks
            ),
            refusal=refusal if self.engine == "xx" else None,
        )


def round_plan(programs: tuple[TestProgram, ...], key: tuple) -> RoundPlan:
    """The :class:`RoundPlan` of ``programs`` under the route ``key``
    ``(engine, xx_preserving, kicks, max_exact_qubits)``.

    A round of one keeps its plan on its program, as the program keeps
    its dense layout, so lone tests never evict a battery's plan from
    the process-wide LRU that holds the rest.  Thread-safe: concurrent
    misses on one key may both compile, equivalently.
    """
    if len(programs) != 1:
        return _round_plan(programs, key)
    plan = programs[0]._rounds.get(key)
    if plan is None:
        plan = programs[0]._rounds[key] = RoundPlan(programs, *key)
    return plan


@lru_cache(maxsize=_ROUND_CACHE_SIZE)
def _round_plan(programs: tuple[TestProgram, ...], key: tuple) -> RoundPlan:
    return RoundPlan(programs, *key)
