"""The virtual ion-trap machine.

:class:`VirtualIonTrap` substitutes for the paper's physical 11-qubit
IonQ system (and its up-to-32-qubit simulated extensions).  It executes
*nominal* circuits — the protocols speak in ideal MS/R gates — and
realizes them with the configured calibration errors and noise model
before simulation:

* every MS gate picks up its coupling's deterministic under-rotation from
  the :class:`~repro.trap.calibration.CalibrationState`;
* the :class:`~repro.noise.models.GateNoiseModel` adds per-application
  amplitude noise, optional 1/f phase noise and residual-coupling kicks;
* readout optionally passes through the SPAM channel.

Engine selection is automatic: noisy realizations that remain XX-only run
on the fast exact engine (any machine size); anything else runs densely on
the compacted sub-register of touched qubits (sufficient for the paper's
physical-scale experiments).

Every test is a :class:`~repro.trap.round.TestProgram` (bare circuits
are wrapped once per structure by :func:`as_program`).  Tests run with no
adaptation between them form a *round*: one pass of
:meth:`VirtualIonTrap.run_battery` (``run_match`` and
``sweep_fidelities`` run rounds of one).  A pass looks up the round's
:class:`~repro.trap.round.RoundPlan` once (:meth:`VirtualIonTrap._routes`),
then (:meth:`VirtualIonTrap._route_probabilities`) draws in row order
what the generator draws there, contracts each group of the plan in one
call (XX rows by plan structure, dense rows by canonical skeleton, each
across the round) and samples every test's shots with one binomial
draw.  ``run`` draws a circuit's dense layout the same way and returns
full counts.  The tests hold the op-by-op oracle the pass is checked
against, bit for bit (``realize_slots`` in ``tests/xx_oracle.py``).

Shot batching: stochastic noise is re-drawn per *realization group* rather
than per shot (control noise varies slowly compared to a ~ms shot cycle);
``noise_realizations`` controls the granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from ..noise.models import GateNoiseModel, NoiseParameters
from ..sim.circuit import Circuit
from ..sim.sampling import (
    Counts,
    merge_counts,
    sample_bernoulli_counts_batch,
    sample_counts_from_probs,
)
from ..sim import dense_plan
from ..sim.dense_plan import Blocks, DensePlan, Segment, Skeleton
from ..sim.statevector import (
    MAX_DENSE_QUBITS,
    check_bitstring,
    realization_chunks,
)
from ..sim.xx_engine import ms_axis_sign
from .calibration import CalibrationState
from .faults import CouplingFault, CouplingPhaseFault, Pair
from .round import (
    Routes,
    TestProgram,
    _DenseStack,
    _XXGroup,
    _XXRun,
    as_program,
    realized_phases,
    round_plan,
)
from .timing import TimingModel

__all__ = [
    "MachineStats",
    "TestProgram",
    "VirtualIonTrap",
    "as_program",
]


@dataclass
class MachineStats:
    """Usage counters for cost accounting and plan-cache introspection.

    ``dense_plan_builds``/``dense_plan_hits`` count dense-plan compilations
    vs. cache reuses of every dense evaluation on this machine.  Every
    machine shares the process-wide
    :data:`~repro.sim.dense_plan.PLAN_CACHE`, so these counters say what
    this machine's lookups found there: a fresh machine on a round an
    earlier machine ran reads no builds.  They never move values.
    """

    circuit_runs: int = 0
    shots: int = 0
    two_qubit_gates: int = 0
    quantum_seconds: float = 0.0
    dense_plan_builds: int = 0
    dense_plan_hits: int = 0
    #: Raw-key misses served by cloning a structurally identical plan's
    #: compiled core (see :meth:`~repro.sim.dense_plan.DensePlan.rebind`)
    #: — skeletons shifted along the chain share one compile.
    dense_plan_rebinds: int = 0
    #: Cached plans dropped by LRU eviction during this machine's lookups
    #: (cache churn).  A stable workload keeps this at zero: plans are
    #: keyed by slot skeleton alone, never by batch budgets.
    dense_plan_invalidations: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        for counter in fields(self):
            setattr(self, counter.name, counter.default)


@dataclass
class VirtualIonTrap:
    """A simulated ion-trap QC with injectable coupling faults.

    Parameters
    ----------
    n_qubits:
        Machine size.
    noise:
        Error-source strengths; defaults to the paper's scaling setting
        (10 % amplitude noise only).
    seed:
        Seed for all stochastic behaviour of this machine instance.
    noise_realizations:
        Independent noise draws per ``run`` call (shots are split among
        them).
    max_exact_qubits:
        Largest coupling-graph component the XX route sums exactly; it
        samples bigger ones from the machine's generator.
    """

    n_qubits: int
    noise: NoiseParameters = field(default_factory=NoiseParameters.paper_scaling)
    seed: int = 0
    noise_realizations: int = 8
    max_exact_qubits: int = 20
    timing: TimingModel = field(default_factory=TimingModel)

    def __post_init__(self) -> None:
        if self.n_qubits < 2:
            raise ValueError("a machine needs at least two qubits")
        if self.noise_realizations < 1:
            raise ValueError("need at least one noise realization")
        self.rng = np.random.default_rng(self.seed)
        self.calibration = CalibrationState(self.n_qubits)
        self.noise_model = GateNoiseModel(self.n_qubits, self.noise, self.rng)
        self.stats = MachineStats()
        self._clock = 0.0

    # -- fault injection ----------------------------------------------------------

    def inject_fault(self, fault: CouplingFault | CouplingPhaseFault) -> None:
        """Install a coupling fault into the calibration state.

        Amplitude faults set the coupling's under-rotation; phase faults
        (:class:`~repro.trap.faults.CouplingPhaseFault`) set its MS
        drive-phase offset, which moves realizations off the XX form and
        routes evaluation to the dense engine.
        """
        self.calibration.inject_fault(fault)

    def set_under_rotation(self, pair: Pair | tuple[int, int], value: float) -> None:
        """Pin one coupling's under-rotation to ``value``."""
        self.calibration.set_under_rotation(pair, value)

    def recalibrate(self, pair: Pair | tuple[int, int] | None = None) -> None:
        """Re-zero one coupling's miscalibration (or all of them)."""
        self.calibration.recalibrate(pair)

    # -- execution ------------------------------------------------------------------

    def run(
        self, circuit: Circuit, shots: int, realizations: int | None = None
    ) -> Counts:
        """Execute a nominal circuit, returning full measurement counts.

        Draws the circuit's dense layout as a stack of one, as a pass
        draws a dense row, and evolves it on the compacted register of
        touched qubits, so that sub-register must fit the dense limit.
        ``realizations`` overrides the machine's noise-realization count
        for this call (shot-batching granularity).
        """
        if shots < 1:
            raise ValueError("shots must be positive")
        self._account([circuit.depth_two_qubit()], shots)
        groups = self._shot_groups(shots, realizations)
        test = as_program(circuit, 0).dense(self.noise.residual_odd_population > 0)
        draws = _StackDraws(test.layout, len(groups), self.noise)
        self._draw_test(draws, 0)
        counts = self._run_dense(test.skeleton, self._stack_blocks(draws), groups)
        if self.noise.spam is not None:
            counts = self.noise.spam.apply_to_counts(
                counts, self.n_qubits, self.rng
            )
        return counts

    def run_match(
        self,
        test: TestProgram | Circuit,
        expected: int,
        shots: int,
        realizations: int | None = None,
    ) -> Counts:
        """Execute a test, tracking only the expected bitstring.

        ``test`` is a :class:`TestProgram` (``expected`` must be its own)
        or a bare nominal circuit, wrapped once per structure by
        :func:`as_program`.  The one-program case of :meth:`run_battery`,
        its shots drawn with one multi-group binomial call; returned
        counts lump all mismatches into one placeholder state.
        ``realizations`` overrides the machine's noise-realization count.
        An ``expected`` outside ``[0, 2^n_qubits)``, or a program for
        another bitstring or register width, raises ``ValueError`` before
        anything is drawn.
        """
        check_bitstring(expected, self.n_qubits)
        program = test if isinstance(test, TestProgram) else as_program(
            test, expected
        )
        width = program.circuit.n_qubits
        if (program.expected, width) != (expected, self.n_qubits):
            raise ValueError(
                f"program expects {program.expected} on {width} qubits; "
                f"run_match got {expected} on {self.n_qubits}"
            )
        groups, probs = self._pass_probabilities([program], shots, 1, realizations)
        self._account([program.n_two_qubit], shots)
        p = probs[0, 0]
        if self.noise.spam is not None:
            p = p * self._spam_factors([program])
        return sample_bernoulli_counts_batch(p, expected, groups, self.rng)

    def run_battery(
        self,
        programs: list[TestProgram],
        shots: int,
        trials: int = 1,
        realizations: int | None = None,
        engine: str = "auto",
    ) -> np.ndarray:
        """Measured fidelities of ``programs``: shape ``(len(programs), trials)``.

        The one evaluation route, one pass per call: the round's plan is
        looked up before anything is drawn, each program's ``trials`` x
        realization-group batch is drawn in list order (see
        :meth:`_pass_probabilities`), and the shots of every (test, trial,
        group) are sampled with one binomial draw.  A battery (Figs. 6/7,
        the scenario matrix) is one such pass per machine.

        ``engine`` selects the evaluation path: ``"auto"`` takes the XX
        route wherever it applies, ``"dense"`` forces the dense plan even
        for XX-preserving settings (scenario-matrix engine comparisons),
        ``"xx"`` demands the exact XX contraction and raises
        ``ValueError``, with nothing drawn, when the XX route declines
        any of the programs or would sample one of their components.
        ``shots`` or ``trials`` below 1 raise ``ValueError`` before
        anything is drawn.
        """
        groups, probs = self._pass_probabilities(
            programs, shots, trials, realizations, engine
        )
        return self._sample_fidelities(programs, probs, shots, groups)

    def sweep_fidelities(
        self,
        program: TestProgram,
        pair: Pair | tuple[int, int],
        magnitudes: np.ndarray,
        shots: int,
        trials: int,
        realizations: int | None = None,
    ) -> np.ndarray:
        """Fidelities of a magnitude sweep of one test: shape ``(M, trials)``.

        Each magnitude replaces ``pair``'s under-rotation, and every
        sweep point reuses the same noise draws, so the whole ``(M,
        trials, groups)`` grid costs one stacked contraction plus one
        binomial draw (Fig. 8).  Sweeps run on the XX route only.
        ``shots`` or ``trials`` below 1 raise ``ValueError`` before
        anything is drawn, as on :meth:`run_battery`.
        """
        _check_counts(shots, trials)
        self._check_widths([program])
        routes = self._routes([program], "auto")
        if routes.xx is None:
            raise ValueError(
                "magnitude sweeps require XX-preserving noise, an "
                "XX-compilable test and drive phases on the pi grid "
                "(amplitude noise only); run the dense setting per "
                "magnitude point via run_battery"
            )
        groups = self._shot_groups(shots, realizations)
        mags = np.asarray(magnitudes, dtype=np.float64)
        probs = self._route_probabilities(
            [program], routes, trials * len(groups), (pair, mags)
        ).reshape(mags.size, trials, len(groups))
        return self._sample_fidelities([program], probs, shots, groups)

    # -- internals ---------------------------------------------------------------------

    def _pass_probabilities(
        self,
        programs: list[TestProgram],
        shots: int,
        trials: int = 1,
        realizations: int | None = None,
        engine: str = "auto",
    ) -> tuple[np.ndarray, np.ndarray]:
        """A pass's shot groups and ``(tests, trials, groups)`` match probabilities.

        ``engine='xx'`` refuses (:meth:`_routes`) before anything is drawn.
        """
        if engine not in ("auto", "xx", "dense"):
            raise ValueError(
                f"unknown engine {engine!r}; choose auto, xx or dense"
            )
        _check_counts(shots, trials)
        self._check_widths(programs)
        routes = self._routes(programs, engine)
        if routes.refusal is not None:
            raise ValueError(routes.refusal)
        groups = self._shot_groups(shots, realizations)
        probs = self._route_probabilities(programs, routes, trials * len(groups))
        return groups, probs.reshape(len(programs), trials, len(groups))

    def _routes(self, programs: list[TestProgram], engine: str) -> Routes:
        """The round's :class:`~repro.trap.round.Routes` on this machine: one
        :func:`~repro.trap.round.round_plan` lookup, then the routes for
        the rows this machine's drive-phase offsets decline."""
        programs, noise = tuple(programs), self.noise
        key = (
            engine,
            noise.is_xx_preserving(),
            noise.residual_odd_population > 0,
            self.max_exact_qubits,
        )
        plan = round_plan(programs, key)
        return plan.routes(programs, plan.declined(self.calibration.phase_offsets))

    def _route_probabilities(
        self,
        programs: list[TestProgram],
        routes: Routes,
        n_batch: int,
        sweep: tuple[Pair | tuple[int, int], np.ndarray] | None = None,
    ) -> np.ndarray:
        """Match probabilities of a round's rows: shape ``(rows, M * n_batch)``.

        Draws in row order: a stretch of XX rows one ``(n_ms, n_batch)``
        amplitude-noise block, shared by the ``M`` columns of
        :meth:`_xx_slot_angles` and summed per edge in slot order; a dense
        row into its stack (:meth:`_draw_test`).  A sampled XX row is
        contracted right after its stretch, every other group after the
        last draw.  Draws, arithmetic and clock are those of realizing
        each test on its own, op by op, in row order.
        """
        xx = routes.xx
        slot_angles = None if xx is None else self._xx_slot_angles(xx, sweep)
        n_cols = 1 if slot_angles is None else slot_angles.shape[1]
        rows = n_cols * n_batch
        probs = np.empty((len(programs), rows))
        acc = None if xx is None else np.empty((rows, xx.edge_index.size))
        draws = [
            _StackDraws(stack.layout, n_batch, self.noise)
            for stack in routes.stacks
        ]
        sigma = self.noise.amplitude_sigma
        gate_dt = self.timing.gate_time(self.n_qubits)
        for step in routes.schedule:
            if type(step) is tuple:
                self._draw_test(draws[step[0]], step[1])
                continue
            angles = slot_angles[step.slots, :, None]
            n_ms = angles.shape[0]
            if sigma > 0 and n_ms:
                xi = self.rng.normal(0.0, sigma, (n_ms, n_batch))
                angles = angles * (1.0 + xi[:, None, :])
            else:
                angles = np.broadcast_to(angles, (n_ms, n_cols, n_batch))
            n_edges = step.edges.stop - step.edges.start
            # Bin r * E + e sums row r's angles on edge e in slot order.
            bins = np.arange(rows) * n_edges + step.slot_edge[:, None]
            acc[:, step.edges] = np.bincount(
                bins.reshape(-1), angles.reshape(-1), rows * n_edges
            ).reshape(rows, n_edges)
            for count in step.n_ms:
                self._clock += n_batch * count * gate_dt
            if step.sampled is not None:
                probs[step.sampled.rows] = self._xx_probabilities(
                    step.sampled, acc, programs
                )
        for group in routes.groups:
            probs[group.rows] = self._xx_probabilities(group, acc, programs)
        for stack, drawn in zip(routes.stacks, draws):
            plans = self._dense_plans_for(stack.skeletons)
            segments = [
                Segment(plan, programs[r].expected, n_batch)
                for plan, r in zip(plans, stack.rows)
            ]
            probs[stack.rows] = plans[0].probabilities(
                self._stack_blocks(drawn), segments
            ).reshape(len(stack.rows), n_batch)
        return probs

    def _check_widths(self, programs: list[TestProgram]) -> None:
        for program in programs:
            if program.circuit.n_qubits != self.n_qubits:
                raise ValueError(
                    f"program is on {program.circuit.n_qubits} qubits, "
                    f"machine has {self.n_qubits}"
                )

    def _spam_factors(self, programs: list[TestProgram]) -> np.ndarray:
        """Each program's readout factor (with a SPAM channel; without one
        every factor is 1)."""
        spam, n = self.noise.spam, self.n_qubits
        return np.array(
            [spam.match_probability_factor(p.expected, n) for p in programs]
        )

    def _sample_fidelities(
        self,
        programs: list[TestProgram],
        probs: np.ndarray,
        shots: int,
        groups: np.ndarray,
    ) -> np.ndarray:
        """One binomial shot draw + cost accounting; probs is ``(R, T, G)``.

        Row ``r`` belongs to ``programs[r]``, or every row to the one
        program when ``programs`` holds one (a magnitude sweep).
        Probabilities outside ``[0, 1]`` by more than rounding raise
        ``ValueError`` before anything is drawn, as on ``run_match``.
        """
        if not programs:
            return np.empty((0, probs.shape[1]))
        p = probs
        if self.noise.spam is not None:
            p = probs * self._spam_factors(programs)[:, None, None]
        if p.size and (p.min() < -1e-9 or p.max() > 1.0 + 1e-9):
            raise ValueError("match probabilities outside [0, 1]")
        p = np.minimum(np.maximum(p, 0.0), 1.0)
        matches = self.rng.binomial(groups, p)  # groups broadcast over rows
        runs = p.shape[0] * p.shape[1] // len(programs)
        self._account([program.n_two_qubit for program in programs], shots, runs)
        return matches.sum(axis=2) / shots

    def _shot_groups(
        self, shots: int, realizations: int | None = None
    ) -> np.ndarray:
        wanted = realizations if realizations is not None else self.noise_realizations
        return _group_shots(shots, wanted)

    # -- compiled XX route -------------------------------------------------------

    def _xx_slot_angles(
        self,
        run: _XXRun,
        sweep: tuple[Pair | tuple[int, int], np.ndarray] | None = None,
    ) -> np.ndarray:
        """Each MS/XX slot's calibrated angle ``sign * theta * (1 - u)``.

        Shape ``(n_ms, M)``, with the X-basis axis sign of the slot's
        realized drive phases and calibration gathered once per edge.
        ``M`` is 1, or with ``sweep = (pair, magnitudes)`` one column per
        magnitude, each replacing ``pair``'s under-rotation.
        """
        calibration = self.calibration
        theta = run.slot_theta
        phases = realized_phases(run, calibration.phase_offsets)
        if phases is not None:
            theta = ms_axis_sign(phases[:, 0], phases[:, -1]) * theta
        unders = calibration.under_rotations.take(run.edge_index)[:, None]
        if sweep is not None:
            pair, magnitudes = sweep
            col = run.edge_index == min(pair) * self.n_qubits + max(pair)
            if not col.any():
                raise ValueError(
                    f"pair {sorted(pair)} is not exercised by this test"
                )
            unders = np.repeat(unders, len(magnitudes), axis=1)
            unders[col] = magnitudes
        return theta[:, None] * (1.0 - unders)[run.slot_edge]

    def _xx_probabilities(
        self, group: _XXGroup, acc: np.ndarray, programs: list[TestProgram]
    ) -> np.ndarray:
        """One XX group's match probabilities, ``(members, rows)``: one
        contraction on the first member's plan over every member's rows
        of ``acc``.  A sampled plan draws its spins from ``self.rng``."""
        tests, width = group.edge_rows.shape
        rows = acc.shape[0]
        thetas = acc[:, group.edge_rows].transpose(1, 0, 2)
        lin = group.linear
        plan = programs[group.rows[0]].xx(self.max_exact_qubits).plan
        return plan.probabilities(
            thetas.reshape(tests * rows, width),
            np.repeat(lin, rows, axis=0) if lin.size else None,
            self.rng,
        ).reshape(tests, rows)

    # -- compiled dense route ------------------------------------------------------

    def _draw_test(self, draws: _StackDraws, t: int) -> None:
        """Draw test ``t`` of a stack: what the generator draws in row order.

        Its clock, the amplitude noise of its MS slots, its residual
        kicks and its R slots' amplitude noise, in that order, land in
        the stack's column ``t``; then the clock advances past the
        test's MS slots.  Everything else is built once per stack
        (:meth:`_stack_blocks`).
        """
        stack, n_batch = draws.stack, draws.n_batch
        n_ms = stack.n_ms
        draws.clocks[t] = self._clock
        if draws.xi is not None:
            draws.xi[:, t] = self.rng.normal(
                0.0, self.noise.amplitude_sigma, (n_ms, n_batch)
            )
        if draws.kicks is not None:
            self.noise_model.residual_kick_params_block(
                2 * n_ms, n_batch, out=draws.kicks[:, t]
            )
        if draws.r_xi is not None:
            for j in range(stack.r_ms.size):
                draws.r_xi[j, t] = self.rng.normal(
                    0.0, self.noise.amplitude_sigma_1q, n_batch
                )
        self._clock += n_batch * n_ms * self.timing.gate_time(self.n_qubits)

    def _stack_blocks(self, draws: _StackDraws) -> Blocks:
        """A drawn stack's :class:`~repro.sim.dense_plan.DensePlan` blocks.

        Built once for all ``T`` tests, each ``(rows, T * n_batch,
        n_params)`` with test ``t`` in columns ``t * n_batch`` on: gate
        times from each test's clock, one calibration gather per
        quantity, one 1/f phase gather per MS target, and the kick and
        R rows merged into program order: value for value the rows of
        each test realized on its own.
        """
        stack, n_batch = draws.stack, draws.n_batch
        gate_dt = self.timing.gate_time(self.n_qubits)
        n_ms, width = stack.n_ms, draws.clocks.size * n_batch
        start = draws.clocks[:, None] + np.arange(n_batch) * (n_ms * gate_dt)
        blocks: Blocks = {}
        r_blocks: list[np.ndarray] = []
        if n_ms:
            q1, q2 = stack.ms_q1, stack.ms_q2
            offsets = self.calibration.phase_offsets[q1, q2]
            blocks["MS"] = self.noise_model.noisy_ms_params_block(
                q1,
                q2,
                stack.ms_theta,
                self.calibration.under_rotations[q1, q2],
                stack.ms_phi1 + offsets,
                stack.ms_phi2 + offsets,
                start + (np.arange(n_ms) * gate_dt)[:, None, None],
                draws.xi,
            ).reshape(n_ms, width, 3)
            if draws.kicks is not None:
                r_blocks.append(draws.kicks.reshape(2 * n_ms, width, 2))
        if stack.r_ms.size:
            r_blocks.append(
                self.noise_model.noisy_r_params(
                    stack.r_q,
                    stack.r_theta,
                    stack.r_phi,
                    start + (stack.r_ms * gate_dt)[:, None, None],
                    draws.r_xi,
                ).reshape(stack.r_ms.size, width, 2)
            )
        if r_blocks:
            r_block = (
                r_blocks[0] if len(r_blocks) == 1 else np.concatenate(r_blocks)
            )
            blocks["R"] = (
                r_block if stack.r_order is None else r_block[stack.r_order]
            )
        for kind, rows in stack.static:
            n_rows, n_tests, _, n_params = rows.shape
            blocks[kind] = (
                np.broadcast_to(rows[:, 0], (n_rows, width, n_params))
                if n_tests == 1
                else np.broadcast_to(
                    rows, (n_rows, n_tests, n_batch, n_params)
                ).reshape(n_rows, width, n_params)
            )
        return blocks

    def _dense_plans_for(self, skeletons: list[Skeleton]) -> list[DensePlan]:
        """The compiled :class:`~repro.sim.dense_plan.DensePlan` of each skeleton.

        Keyed by the slot skeleton in the process-wide
        :data:`~repro.sim.dense_plan.PLAN_CACHE`, looked up under one
        lock, so one nominal circuit compiles once however often it
        runs; each lookup's build/hit/rebind/eviction counts land in
        :class:`MachineStats`.  A plan above
        :data:`~repro.sim.statevector.MAX_DENSE_QUBITS` raises
        ``ValueError``: only the XX route evaluates larger tests.
        """
        cache, stats = dense_plan.PLAN_CACHE, self.stats
        plans = []
        with cache.lock:
            for skeleton in skeletons:
                rebinds, evictions = cache.rebinds, cache.evictions
                plan, hit = cache.get(self.n_qubits, skeleton)
                rebound = cache.rebinds - rebinds
                stats.dense_plan_rebinds += rebound
                if hit:
                    stats.dense_plan_hits += 1
                elif not rebound:
                    stats.dense_plan_builds += 1
                stats.dense_plan_invalidations += cache.evictions - evictions
                plans.append(plan)
        for plan in plans:
            if plan.n_local > MAX_DENSE_QUBITS:
                raise ValueError(
                    f"circuit touches {plan.n_local} qubits; the dense route "
                    f"takes at most {MAX_DENSE_QUBITS}"
                )
        return plans

    def _dense_plan_for(self, skeleton: Skeleton) -> DensePlan:
        """One skeleton's compiled plan (see :meth:`_dense_plans_for`)."""
        return self._dense_plans_for([skeleton])[0]

    def _run_dense(
        self, skeleton: Skeleton, blocks: Blocks, groups: np.ndarray
    ) -> Counts:
        """Full-counts dense execution of all realization groups.

        Chunked like the match path so peak memory stays within the
        global amplitude cap.
        """
        if not skeleton:
            return {0: int(groups.sum())}
        plan = self._dense_plan_for(skeleton)
        counts_parts = []
        for start, stop in realization_chunks(plan.n_local, len(groups)):
            states = plan.states({k: b[:, start:stop] for k, b in blocks.items()})
            probs = np.abs(states) ** 2
            counts_parts.extend(
                _expand_counts(
                    sample_counts_from_probs(
                        probs[g - start], groups[g], self.rng
                    ),
                    plan.touched,
                    self.n_qubits,
                )
                for g in range(start, stop)
            )
        return merge_counts(*counts_parts)

    def _account(self, gate_counts: list[int], shots: int, runs: int = 1) -> None:
        """Charge ``runs`` runs of ``shots`` shots to each test in order;
        ``gate_counts`` holds each test's two-qubit gates per shot."""
        stats, seconds = self.stats, {}
        for n2q in gate_counts:
            stats.circuit_runs += runs
            stats.shots += runs * shots
            stats.two_qubit_gates += n2q * shots * runs
            if n2q not in seconds:
                seconds[n2q] = self.timing.circuit_run_time(n2q, self.n_qubits, shots)
            stats.quantum_seconds += seconds[n2q] * runs


@lru_cache(maxsize=64)
def _group_shots(shots: int, wanted: int) -> np.ndarray:
    """``shots`` over ``min(wanted, shots)`` groups, the first ones one shot
    larger: a shared read-only int64 array."""
    if wanted < 1:
        raise ValueError("need at least one noise realization")
    base, extra = divmod(shots, min(wanted, shots))
    out = np.full(min(wanted, shots), base, dtype=np.int64)
    out[:extra] += 1
    out.flags.writeable = False
    return out


def _check_counts(shots: int, trials: int) -> None:
    """Refuse a pass of no shots or no trials before anything is drawn."""
    if shots < 1:
        raise ValueError("shots must be positive")
    if trials < 1:
        raise ValueError("trials must be positive")


class CompiledBattery:
    """Compatibility shim for the benchmark's tracer; nothing in ``src/`` uses it.

    ``perfbench/layers.py`` resolves :meth:`trial_fidelities` by name, so
    this class holds programs and delegates that one method to
    :meth:`VirtualIonTrap.run_battery`; it keeps no cache.
    """

    def __init__(self, tests: list[TestProgram]):
        self.tests = list(tests)

    def trial_fidelities(
        self,
        machine: VirtualIonTrap,
        index: int,
        shots: int,
        trials: int,
        realizations: int | None = None,
        engine: str = "auto",
    ) -> np.ndarray:
        """``machine.run_battery`` over test ``index`` alone: ``(trials,)``."""
        return machine.run_battery(
            [self.tests[index]], shots, trials, realizations, engine
        )[0]


class _StackDraws:
    """One stack's noise, drawn test by test into its columns.

    Each test's clock at its draw, and ``(slots, T, n_batch)`` blocks
    of MS amplitude noise ``xi``, kick rows ``kicks`` (one more axis of
    ``(angle, axis)``) and R-slot amplitude noise ``r_xi``; a block is
    ``None`` where the noise model draws nothing.
    """

    def __init__(
        self, stack: _DenseStack, n_batch: int, noise: NoiseParameters
    ) -> None:
        n_tests, n_ms, n_r = stack.n_tests, stack.n_ms, stack.r_ms.size
        self.stack = stack
        self.n_batch = n_batch
        self.clocks = np.empty(n_tests)
        self.xi = (
            np.empty((n_ms, n_tests, n_batch))
            if n_ms and noise.amplitude_sigma > 0
            else None
        )
        self.kicks = (
            np.empty((2 * n_ms, n_tests, n_batch, 2)) if stack.kicks else None
        )
        self.r_xi = (
            np.empty((n_r, n_tests, n_batch))
            if n_r and noise.amplitude_sigma_1q > 0
            else None
        )


def _expand_counts(
    compact_counts: Counts, touched: list[int], n_qubits: int
) -> Counts:
    """Re-embed compact-register outcomes into full-width bitstrings."""
    m = len(touched)
    out: Counts = {}
    for sub, count in compact_counts.items():
        full = 0
        for k, q in enumerate(touched):
            bit = (sub >> (m - 1 - k)) & 1
            full |= bit << (n_qubits - 1 - q)
        out[full] = out.get(full, 0) + count
    return out
