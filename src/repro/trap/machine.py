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

Every test is a :class:`TestProgram` (a bare circuit is wrapped once per
structure by :func:`as_program`), which resolves two compiled entries on
first use and then holds them:

* its XX entry per ``max_exact_qubits``: a
  :class:`~repro.sim.xx_engine.ContractionPlan` (int8 half tables, under
  64 KiB) and the test's *run of one* (``_XXRun``): flat calibration
  indices of its edges, per-slot edge columns, nominal angles and drive
  phases, and static RX/X angles.  The bounded ``_compiled_xx_test``
  cache owns these entries and programs hold weak references, so its
  bound is the bound on pinned plans.
* its dense layout per residual kicks on/off: per-MS-slot targets,
  angles and phases, R and fixed-gate parameters, slot skeleton and the
  index merging kick and R rows into program order.  A dense call
  gathers its calibration in one step, draws its noise straight into the
  per-kind parameter blocks a :class:`~repro.sim.dense_plan.DensePlan`
  takes (the MS block as drawn) and evaluates the skeleton's cached plan.

One route evaluates programs: :meth:`VirtualIonTrap.run_battery`, a pass
over a list of them.  It finds every program's route before anything is
drawn (:meth:`VirtualIonTrap._units`), then draws every test in order.
The XX route takes *runs*: consecutive XX tests without a sampled
component or an off-grid nominal phase form one (:func:`_compiled_runs`,
cached per program tuple), a run the route declines splits at the tests
it declines, and every other XX test is its own run of one.  One step
gathers a run's calibration and checks its realized drive phases
(:meth:`VirtualIonTrap._xx_slot_angles`); one draw, one accumulation
and one contraction per :attr:`~repro.sim.xx_engine.ContractionPlan.structure`
evaluate it (:meth:`VirtualIonTrap._xx_probabilities`).  A test the
route declines (MS slots under non-XX-preserving noise, drive phases off
the pi grid, non-XX gates) is drawn through its dense layout and waits
for its plan core, contracted once for all tests sharing its canonical
skeleton, on the process-wide :data:`~repro.sim.dense_plan.PLAN_CACHE`.
Then one binomial draw samples every test's shots.  ``run_match`` is
the pass's one-program case, returning counts; a battery is a list of
programs run as one pass.  ``_realize_slots`` builds the same draws as
:class:`RealizedSlot` objects: it serves ``run`` and is the oracle the
pass is tested against, bit for bit.

Shot batching: stochastic noise is re-drawn per *realization group* rather
than per shot (control noise varies slowly compared to a ~ms shot cycle);
``noise_realizations`` controls the granularity.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from ..noise.models import GateNoiseModel, NoiseParameters
from ..sim.circuit import Circuit, Operation, is_multiple_of_pi
from ..sim.sampling import (
    Counts,
    merge_counts,
    sample_bernoulli_counts_batch,
    sample_counts_from_probs,
)
from ..sim import dense_plan
from ..sim.dense_plan import (
    Blocks,
    DensePlan,
    Segment,
    Skeleton,
    canonical_skeleton,
)
from ..sim.statevector import (
    MAX_DENSE_QUBITS,
    check_bitstring,
    realization_chunks,
)
from ..sim.xx_engine import ContractionPlan, ms_axis_sign
from .calibration import CalibrationState
from .faults import CouplingFault, CouplingPhaseFault, Pair
from .timing import TimingModel

__all__ = [
    "MachineStats",
    "RealizedSlot",
    "TestProgram",
    "VirtualIonTrap",
    "as_program",
]


@dataclass(frozen=True)
class RealizedSlot:
    """One gate slot of a noise-realized circuit batch.

    ``params`` carries one parameter row per noise realization (shape
    ``(n_batch, n_params)``); the gate name and targets are shared by the
    whole batch.  Slot lists are the batched counterpart of a realized
    :class:`~repro.sim.circuit.Circuit` — they skip per-realization
    ``Operation`` construction entirely.
    """

    gate: str
    qubits: tuple[int, ...]
    params: np.ndarray


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
    max_batch_bytes:
        Optional memory budget for batched evaluation: dense
        realization batches are chunked so the state block stays within
        this many bytes (default: the global combined-amplitude cap),
        and the budget is threaded into the XX engine's row chunking.
    """

    n_qubits: int
    noise: NoiseParameters = field(default_factory=NoiseParameters.paper_scaling)
    seed: int = 0
    noise_realizations: int = 8
    max_exact_qubits: int = 20
    max_batch_bytes: int | None = None
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

        Uses the dense simulator on the compacted register of touched
        qubits, so it requires that sub-register to fit the dense limit.
        ``realizations`` overrides the machine's noise-realization count
        for this call (shot-batching granularity).
        """
        if shots < 1:
            raise ValueError("shots must be positive")
        self._account([circuit.depth_two_qubit()], shots)
        groups = self._shot_groups(shots, realizations)
        slots = self._realize_slots(circuit, len(groups))
        counts = self._run_dense_slots(slots, groups)
        if self.noise.spam is not None:
            counts = self.noise.spam.apply_to_counts(
                counts, self.n_qubits, self.rng
            )
        return counts

    def run_match(
        self,
        test: "TestProgram | Circuit",
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
        programs: list["TestProgram"],
        shots: int,
        trials: int = 1,
        realizations: int | None = None,
        engine: str = "auto",
    ) -> np.ndarray:
        """Measured fidelities of ``programs``: shape ``(len(programs), trials)``.

        The one evaluation route, one pass per call: every program's
        route is found before anything is drawn, each program's ``trials``
        x realization-group batch is drawn in list order (see
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
        program: "TestProgram",
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
        run = self._own_run(program)
        mags = np.asarray(magnitudes, dtype=np.float64)
        angles = self._xx_slot_angles(run, sweep=(pair, mags))
        if angles is None:
            raise ValueError(
                "magnitude sweeps require XX-preserving noise, an "
                "XX-compilable test and drive phases on the pi grid "
                "(amplitude noise only); run the dense setting per "
                "magnitude point via run_battery"
            )
        groups = self._shot_groups(shots, realizations)
        probs = self._xx_probabilities(
            run, angles, trials * len(groups), [program]
        ).reshape(mags.size, trials, len(groups))
        return self._sample_fidelities([program], probs, shots, groups)

    # -- internals ---------------------------------------------------------------------

    def _pass_probabilities(
        self,
        programs: list["TestProgram"],
        shots: int,
        trials: int = 1,
        realizations: int | None = None,
        engine: str = "auto",
    ) -> tuple[np.ndarray, np.ndarray]:
        """A pass's shot groups and ``(tests, trials, groups)`` match probabilities.

        Drawn in list order, unit by unit (:meth:`_units`): an XX run by
        :meth:`_xx_probabilities`, a declined test into its dense layout,
        where it waits for one stacked
        :meth:`~repro.sim.dense_plan.DensePlan.probabilities` call per
        canonical skeleton.
        """
        if engine not in ("auto", "xx", "dense"):
            raise ValueError(
                f"unknown engine {engine!r}; choose auto, xx or dense"
            )
        _check_counts(shots, trials)
        self._check_widths(programs)
        units = self._units(programs, engine)
        for row, run, _ in units if engine == "xx" else ():
            if run is None:
                raise ValueError(
                    "engine='xx' requested but the setting requires the "
                    "dense fallback (non-XX-preserving noise, a dense-only "
                    "test, or drive phases off the pi grid)"
                )
            # A run's first test is never sampled: runs hold none.
            if programs[row].xx(self.max_exact_qubits).plan.sampled:
                raise ValueError(
                    "engine='xx' requested but a coupling component exceeds "
                    f"max_exact_qubits={self.max_exact_qubits}, so the XX "
                    "route would sample it"
                )
        groups = self._shot_groups(shots, realizations)
        n_batch = trials * len(groups)
        probs = np.empty((len(programs), n_batch))
        # Dense draws awaiting their plan core's one stacked call:
        # canonical skeleton -> [(row, segment, blocks), ...].
        stacks: dict[Skeleton, list[tuple[int, Segment, Blocks]]] = {}
        for row, run, angles in units:
            program = programs[row]
            if run is not None:
                stop = row + len(run.n_ms)
                probs[row:stop] = self._xx_probabilities(
                    run, angles, n_batch, programs[row:stop]
                )[:, 0]
                continue
            test = self._dense_test(program)
            blocks = self._draw_dense(test, n_batch)
            if not test.skeleton:
                probs[row] = 1.0 if program.expected == 0 else 0.0
                continue
            plan = self._dense_plan_for(test.skeleton)
            stacks.setdefault(test.canonical, []).append(
                (row, Segment(plan, program.expected, n_batch), blocks)
            )
        for members in stacks.values():
            rows, segments, drawn = zip(*members)
            blocks = drawn[0]
            if len(drawn) > 1:
                blocks = {
                    kind: np.concatenate([b[kind] for b in drawn], axis=1)
                    for kind in blocks
                }
            probs[list(rows)] = segments[0].plan.probabilities(
                blocks, segments, self.max_batch_bytes
            ).reshape(len(rows), n_batch)
        return groups, probs.reshape(len(programs), trials, len(groups))

    def _units(
        self, programs: list["TestProgram"], engine: str
    ) -> list[tuple[int, "_XXRun | None", np.ndarray | None]]:
        """A pass's units in draw order, found before anything is drawn.

        A unit is ``(row, run, angles)``: an XX run from ``row`` with its
        slot angles (:meth:`_xx_slot_angles`), or ``run = None`` for a
        test the XX route declines.  A round's stretches of two or more
        XX tests are runs (:func:`_compiled_runs`); one the route
        declines as a whole (a drive-phase offset off the pi grid, say)
        splits at the tests it declines.  Other tests are runs of one.
        """
        xx_route = engine != "dense"
        runs = (
            _compiled_runs(tuple(programs), self.max_exact_qubits)
            if xx_route and len(programs) > 1 and self.noise.is_xx_preserving()
            else {}
        )
        units, row = [], 0
        while row < len(programs):
            run = runs.get(row)
            if run is None and xx_route:
                run = self._own_run(programs[row])
            angles = self._xx_slot_angles(run)
            if angles is None and row in runs:
                # Re-plan each stretch: the taken as runs, the declined dense.
                stop = row + len(run.n_ms)
                for ok, rows in itertools.groupby(
                    range(row, stop),
                    lambda k: self._xx_slot_angles(self._own_run(programs[k]))
                    is not None,
                ):
                    first, *rest = rows
                    part = programs[first : first + 1 + len(rest)]
                    units += [
                        (first + k, *unit)
                        for k, *unit in self._units(part, engine if ok else "dense")
                    ]
                row = stop
                continue
            units.append((row, None if angles is None else run, angles))
            row += 1 if angles is None else len(run.n_ms)
        return units

    def _check_widths(self, programs: list["TestProgram"]) -> None:
        for program in programs:
            if program.circuit.n_qubits != self.n_qubits:
                raise ValueError(
                    f"program is on {program.circuit.n_qubits} qubits, "
                    f"machine has {self.n_qubits}"
                )

    def _spam_factors(self, programs: list["TestProgram"]) -> np.ndarray:
        """Each program's readout factor (with a SPAM channel; without one
        every factor is 1)."""
        spam, n = self.noise.spam, self.n_qubits
        return np.array(
            [spam.match_probability_factor(p.expected, n) for p in programs]
        )

    def _sample_fidelities(
        self,
        programs: list["TestProgram"],
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

    def _own_run(self, program: "TestProgram") -> "_XXRun | None":
        """``program``'s compiled run of one, or ``None`` where the XX route
        declines; under non-XX-preserving noise a program with two-qubit
        gates is declined without compiling a plan it would never use."""
        if program.n_two_qubit and not self.noise.is_xx_preserving():
            return None
        xx = program.xx(self.max_exact_qubits)
        return None if xx is None else xx.run

    def _xx_slot_angles(
        self,
        run: "_XXRun | None",
        sweep: tuple[Pair | tuple[int, int], np.ndarray] | None = None,
    ) -> np.ndarray | None:
        """The XX route's eligibility step: each slot's calibrated angle.

        Returns ``None`` (nothing drawn, clock untouched) when the route
        declines the run: no compiled run, MS slots under
        non-XX-preserving noise, or a realized drive phase (nominal plus
        the coupling's offset) off the pi grid.  A run with no MS slot is
        taken under any noise: its RX/X angles are static.  Otherwise
        returns the ``(n_ms, M)`` angles ``sign * theta * (1 - u)`` of
        every MS/XX slot, with the X-basis axis sign of its realized
        drive phases; calibration is gathered once per edge.
        ``M`` is 1, or with ``sweep = (pair, magnitudes)`` one column per
        magnitude, each replacing ``pair``'s under-rotation.
        """
        if run is None or (
            not self.noise.is_xx_preserving() and run.slot_edge.size
        ):
            return None
        calibration = self.calibration
        theta = run.slot_theta
        offsets = calibration.phase_offsets.take(run.edge_index)
        if run.slot_phases is not None or np.count_nonzero(offsets):
            # (n_ms, 2), or (n_ms, 1) for both phases when nominally 0.
            phases = offsets[run.slot_edge, None] + (
                0.0 if run.slot_phases is None else run.slot_phases
            )
            if not np.all(is_multiple_of_pi(phases)):
                return None
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
        self,
        run: "_XXRun",
        slot_angles: np.ndarray,
        n_batch: int,
        programs: list["TestProgram"],
    ) -> np.ndarray:
        """Match probabilities of ``run``'s tests: shape ``(tests, M, n_batch)``.

        The one XX draw, for a run of any length (``programs`` are its
        tests): ``slot_angles`` (:meth:`_xx_slot_angles`) times ``1 + xi``
        for one ``(n_ms, n_batch)`` amplitude-noise draw shared by all
        ``M`` columns, each slot summed into the run's ``(M x n_batch,
        edges)`` block in slot order, and the clock advanced test by
        test: :meth:`_realize_slots`'s draws, arithmetic and clock.  Each
        structure group is contracted in one call on its first member's
        plan over its members' stacked rows; a sampled plan (always a run
        of one) draws its spins from the machine's generator.
        """
        n_ms, n_cols = slot_angles.shape
        sigma = self.noise.amplitude_sigma
        if sigma > 0 and n_ms:
            xi = self.rng.normal(0.0, sigma, (n_ms, n_batch))
            angles = slot_angles[:, :, None] * (1.0 + xi[:, None, :])
        else:
            angles = np.broadcast_to(
                slot_angles[:, :, None], (n_ms, n_cols, n_batch)
            )
        rows = n_cols * n_batch
        n_edges = run.edge_index.size
        # Bin r * E + e sums row r's angles on edge e in slot order.
        bins = np.arange(rows) * n_edges + run.slot_edge[:, None]
        acc = np.bincount(
            bins.reshape(-1), angles.reshape(-1), rows * n_edges
        ).reshape(rows, n_edges)
        gate_dt = self.timing.gate_time(self.n_qubits)
        for count in run.n_ms:
            self._clock += n_batch * count * gate_dt
        probs = np.empty((len(run.n_ms), rows))
        for group in run.groups:
            tests, width = group.edge_rows.shape
            thetas = acc[:, group.edge_rows].transpose(1, 0, 2)
            lin = group.linear
            plan = programs[group.rows[0]].xx(self.max_exact_qubits).plan
            probs[group.rows] = plan.probabilities(
                thetas.reshape(tests * rows, width),
                np.repeat(lin, rows, axis=0) if lin.size else None,
                self.max_batch_bytes,
                self.rng,
            ).reshape(tests, rows)
        return probs.reshape(len(run.n_ms), n_cols, n_batch)

    # -- batched (slot-based) realization and evaluation ---------------------------

    def _realize_slots(
        self, circuit: Circuit, n_batch: int
    ) -> list[RealizedSlot]:
        """Realize ``n_batch`` noisy copies of a nominal circuit as slots.

        One copy per noise-realization group: each slot draws its
        per-realization noise parameters in one RNG call, and no
        per-realization ``Operation`` objects are built.  Realization g's
        clock starts where realization g-1's gates ended.
        """
        gate_dt = self.timing.gate_time(self.n_qubits)
        ms_ops = [op for op in circuit.ops if op.gate in ("MS", "XX")]
        n_ms = len(ms_ops)
        start = self._clock + np.arange(n_batch) * (n_ms * gate_dt)
        p_odd = self.noise.residual_odd_population
        # Block draws: every MS slot's amplitude noise comes from one RNG
        # call, every residual kick from another — circuit depth adds
        # array rows, not Python calls.
        ms_params = None
        if n_ms:
            q1s, q2s = np.array([op.qubits for op in ms_ops], dtype=np.intp).T
            phases = np.array(
                [op.params[1:] if op.gate == "MS" else (0, 0) for op in ms_ops],
                dtype=float,
            )
            # Deterministic drive-phase miscalibration of each coupling
            # (the phase-fault scenario species): applied to the physical
            # MS drive realizing either abstraction.
            offsets = self.calibration.phase_offsets[q1s, q2s]
            ts_block = start[None, :] + np.arange(n_ms)[:, None] * gate_dt
            ms_params = self.noise_model.noisy_ms_params_block(
                q1s,
                q2s,
                np.array([op.params[0] for op in ms_ops], dtype=float),
                self.calibration.under_rotations[q1s, q2s],
                phases[:, 0] + offsets,
                phases[:, 1] + offsets,
                ts_block,
            )
        kick_params = None
        if n_ms and p_odd > 0:
            kick_params = self.noise_model.residual_kick_params_block(
                2 * n_ms, n_batch
            )
        slots: list[RealizedSlot] = []
        k_ms = 0
        for op in circuit.ops:
            if op.gate in ("MS", "XX"):
                q1, q2 = op.qubits
                slots.append(
                    RealizedSlot("MS", (q1, q2), ms_params[k_ms])
                )
                if kick_params is not None:
                    for j, q in enumerate((q1, q2)):
                        slots.append(
                            RealizedSlot("R", (q,), kick_params[2 * k_ms + j])
                        )
                k_ms += 1
            elif op.gate == "R":
                ts = start + k_ms * gate_dt
                slots.append(
                    RealizedSlot(
                        "R",
                        op.qubits,
                        self.noise_model.noisy_r_params(
                            op.qubits[0], op.params[0], op.params[1], ts
                        ),
                    )
                )
            else:
                params = np.broadcast_to(
                    np.array(op.params, dtype=float),
                    (n_batch, len(op.params)),
                )
                slots.append(RealizedSlot(op.gate, op.qubits, params))
        self._clock += n_batch * n_ms * gate_dt
        return slots

    # -- compiled dense route ------------------------------------------------------

    def _dense_test(self, program: "TestProgram") -> "_CompiledDenseTest":
        """``program``'s dense layout under this machine's noise."""
        return program.dense(self.noise.residual_odd_population > 0)

    def _draw_dense(self, test: "_CompiledDenseTest", n_batch: int) -> Blocks:
        """Draw ``n_batch`` realizations straight into ``test``'s blocks.

        Returns a :class:`~repro.sim.dense_plan.DensePlan`'s per-kind
        blocks: the ``(n_ms, n_batch, 3)`` MS block as drawn, the kick and
        R rows merged into program order, and every other kind's static
        rows broadcast over the batch.  Draw for draw, value for value and
        clock for clock this is :meth:`_realize_slots` without its slot
        objects.
        """
        gate_dt = self.timing.gate_time(self.n_qubits)
        n_ms = test.ms_theta.size
        start = self._clock + np.arange(n_batch) * (n_ms * gate_dt)
        blocks: Blocks = {}
        r_blocks: list[np.ndarray] = []
        if n_ms:
            offsets = self.calibration.phase_offsets[test.ms_q1, test.ms_q2]
            blocks["MS"] = self.noise_model.noisy_ms_params_block(
                test.ms_q1,
                test.ms_q2,
                test.ms_theta,
                self.calibration.under_rotations[test.ms_q1, test.ms_q2],
                test.ms_phi1 + offsets,
                test.ms_phi2 + offsets,
                start[None, :] + np.arange(n_ms)[:, None] * gate_dt,
            )
            if test.kicks:
                r_blocks.append(
                    self.noise_model.residual_kick_params_block(
                        2 * n_ms, n_batch
                    )
                )
        if test.r_slots:
            r_blocks.append(
                np.stack(
                    [
                        self.noise_model.noisy_r_params(
                            q, theta, phi, start + k_ms * gate_dt
                        )
                        for q, theta, phi, k_ms in test.r_slots
                    ]
                )
            )
        if r_blocks:
            r_block = (
                r_blocks[0] if len(r_blocks) == 1 else np.concatenate(r_blocks)
            )
            blocks["R"] = (
                r_block if test.r_order is None else r_block[test.r_order]
            )
        for kind, rows in test.static:
            blocks[kind] = np.broadcast_to(
                rows, (rows.shape[0], n_batch, rows.shape[2])
            )
        self._clock += n_batch * n_ms * gate_dt
        return blocks

    def _dense_plan_for(self, skeleton: Skeleton) -> DensePlan:
        """The compiled :class:`~repro.sim.dense_plan.DensePlan` for a skeleton.

        Keyed by the slot skeleton in the process-wide
        :data:`~repro.sim.dense_plan.PLAN_CACHE`, so one nominal circuit
        compiles once however often it runs; the lookup's
        build/hit/rebind/eviction counts land in :class:`MachineStats`.
        A plan above :data:`~repro.sim.statevector.MAX_DENSE_QUBITS`
        raises ``ValueError``: only the XX route evaluates larger tests.
        """
        cache = dense_plan.PLAN_CACHE
        with cache.lock:
            rebinds, evictions = cache.rebinds, cache.evictions
            plan, hit = cache.get(self.n_qubits, skeleton)
            rebound = cache.rebinds - rebinds
            evicted = cache.evictions - evictions
        self.stats.dense_plan_rebinds += rebound
        if hit:
            self.stats.dense_plan_hits += 1
        elif not rebound:
            self.stats.dense_plan_builds += 1
        self.stats.dense_plan_invalidations += evicted
        if plan.n_local > MAX_DENSE_QUBITS:
            raise ValueError(
                f"circuit touches {plan.n_local} qubits; the dense route "
                f"takes at most {MAX_DENSE_QUBITS}"
            )
        return plan

    def _run_dense_slots(
        self, slots: list[RealizedSlot], groups: np.ndarray
    ) -> Counts:
        """Full-counts dense execution of all realization groups.

        Chunked like the match path so peak memory stays within
        ``max_batch_bytes`` (or the global amplitude cap).
        """
        if not slots or not {q for slot in slots for q in slot.qubits}:
            return {0: int(groups.sum())}
        plan = self._dense_plan_for(_skeleton(slots))
        blocks = slot_blocks(slots)
        counts_parts = []
        for start, stop in realization_chunks(
            plan.n_local, len(groups), self.max_batch_bytes
        ):
            states = plan.states(
                {k: b[:, start:stop] for k, b in blocks.items()},
                self.max_batch_bytes,
            )
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

    def __init__(self, tests: list["TestProgram"]):
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


@dataclass(frozen=True)
class _RunGroup:
    """The tests of one run that share a plan structure.

    ``rows`` holds each member's index in the run (the first one's plan
    contracts the group), ``edge_rows`` each member's edge columns as
    columns of the run's accumulated block, ``(k, E)``, and ``linear`` each
    member's static RX/X angles, ``(k, L)``.
    """

    rows: np.ndarray
    edge_rows: np.ndarray
    linear: np.ndarray


@dataclass(frozen=True)
class _XXRun:
    """Consecutive XX tests as one layout; a compiled XX test is a run of one.

    ``edge_index`` holds the flat calibration index ``q1 * N + q2`` (``q1
    < q2``) of every test's edge columns, concatenated: the columns of the
    run's accumulated block and the calibration gather index.  Each MS/XX
    slot has its column ``slot_edge`` and nominal angle ``slot_theta``; ``slot_phases``
    holds the slots' nominal drive phases, ``(n_ms, 2)``, or is ``None``
    when every one is 0 (XX gates and every protocol test).  ``n_ms``
    holds each test's slot count for the clock.
    """

    edge_index: np.ndarray
    slot_edge: np.ndarray
    slot_theta: np.ndarray
    slot_phases: np.ndarray | None
    n_ms: tuple[int, ...]
    groups: tuple[_RunGroup, ...]


@dataclass(frozen=True)
class _CompiledXXTest:
    """Machine-independent structure of one XX test: its run of one and
    plan.  ``run``'s edge columns follow ``plan.edge_keys``; its group's
    linear row sums the static RX/X angles per ``plan.linear_keys``."""

    run: _XXRun
    plan: ContractionPlan


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
        groups=(
            _RunGroup(
                rows=np.zeros(1, dtype=np.intp),
                edge_rows=np.arange(len(edge_index), dtype=np.intp)[None, :],
                linear=np.array([list(linear.values())], dtype=np.float64),
            ),
        ),
    )
    return _CompiledXXTest(run=run, plan=plan)


#: Rounds (and stretches of declined runs) whose XX runs are kept per
#: process, least recently used dropped first: index and angle arrays,
#: 16 bytes per MS slot (an N = 16 battery at 16 repetitions: 100 KB).
_ROUND_CACHE_SIZE = 256


@lru_cache(maxsize=_ROUND_CACHE_SIZE)
def _compiled_runs(
    programs: tuple[TestProgram, ...], max_exact_qubits: int
) -> dict[int, _XXRun]:
    """A round's XX runs of two or more tests, by first row: maximal
    stretches of programs whose XX entry has no sampled component and
    nominal drive phases on the pi grid.  Do not mutate the dict."""
    entries = [program.xx(max_exact_qubits) for program in programs]
    runs: dict[int, _XXRun] = {}
    start = 0
    for stop, entry in enumerate([*entries, None]):
        if (
            entry is not None
            and not entry.plan.sampled
            and (
                entry.run.slot_phases is None
                or np.all(is_multiple_of_pi(entry.run.slot_phases))
            )
        ):
            continue
        if stop - start > 1:
            runs[start] = _xx_run(entries[start:stop])
        start = stop + 1
    return runs


def _xx_run(tests: list[_CompiledXXTest]) -> _XXRun:
    """Consecutive XX tests' runs of one, concatenated and grouped by structure."""
    runs = [test.run for test in tests]
    offsets = np.cumsum([0] + [run.edge_index.size for run in runs])
    members: dict[tuple, list[int]] = {}
    for k, test in enumerate(tests):
        members.setdefault(test.plan.structure, []).append(k)
    groups = tuple(
        _RunGroup(
            rows=np.array(ks, dtype=np.intp),
            edge_rows=offsets[ks][:, None] + runs[ks[0]].groups[0].edge_rows,
            linear=np.concatenate([runs[k].groups[0].linear for k in ks]),
        )
        for ks in members.values()
    )
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
    return _XXRun(
        edge_index=np.concatenate([run.edge_index for run in runs]),
        slot_edge=np.concatenate(
            [run.slot_edge + off for run, off in zip(runs, offsets)]
        ),
        slot_theta=np.concatenate([run.slot_theta for run in runs]),
        slot_phases=phases,
        n_ms=tuple(run.slot_edge.size for run in runs),
        groups=groups,
    )


@dataclass(frozen=True)
class _CompiledDenseTest:
    """Machine-independent dense layout of one nominal op list.

    Each MS/XX application has its nominal angle, nominal drive phases
    ``ms_phi1``/``ms_phi2`` (0 for XX) and targets ``ms_q1``/``ms_q2``
    (also the calibration gather index).  ``r_slots`` holds each R
    gate's ``(qubit, theta, phi, MS slots before it)`` and ``static``
    the ``(rows, 1, n_params)`` parameter rows of every other kind, in
    program order.  ``kicks`` says whether a residual-kick slot pair
    follows each MS slot.

    One call's draw is a :class:`~repro.sim.dense_plan.DensePlan`'s
    per-kind blocks.  The R block stacks the kick rows, then the R rows;
    ``r_order`` puts them into program order (``None`` when they already
    are, as in every battery test).  ``canonical`` is the skeleton's
    :func:`~repro.sim.dense_plan.canonical_skeleton`, the key a battery
    pass stacks tests by.
    """

    ms_theta: np.ndarray
    ms_phi1: np.ndarray
    ms_phi2: np.ndarray
    ms_q1: np.ndarray
    ms_q2: np.ndarray
    kicks: bool
    r_slots: tuple[tuple[int, float, float, int], ...]
    r_order: np.ndarray | None
    static: tuple[tuple[str, np.ndarray], ...]
    skeleton: Skeleton
    canonical: Skeleton


def _compiled_dense_test(
    ops: tuple[Operation, ...], kicks: bool
) -> _CompiledDenseTest:
    """The dense layout of a nominal op list (held by its program).

    ``kicks`` (residual motional coupling on) inserts the two kick slots
    after every MS slot, as :meth:`VirtualIonTrap._realize_slots` does.
    """
    ms_theta: list[float] = []
    ms_phases: list[tuple[float, float]] = []
    ms_qubits: list[tuple[int, int]] = []
    r_slots: list[tuple[int, float, float, int]] = []
    static: dict[str, list[tuple[float, ...]]] = {}
    skeleton: list[tuple[str, tuple[int, ...]]] = []
    # Program-order R-kind rows as ("kick", k) or ("r", k) draws.
    r_rows: list[tuple[str, int]] = []
    for op in ops:
        if op.gate in ("MS", "XX"):
            k = len(ms_theta)
            ms_theta.append(op.params[0])
            ms_phases.append(op.params[1:] if op.gate == "MS" else (0.0, 0.0))
            ms_qubits.append(op.qubits)
            skeleton.append(("MS", op.qubits))
            if kicks:
                skeleton += [("R", (q,)) for q in op.qubits]
                r_rows += [("kick", 2 * k), ("kick", 2 * k + 1)]
        elif op.gate == "R":
            skeleton.append(("R", op.qubits))
            r_rows.append(("r", len(r_slots)))
            r_slots.append(
                (op.qubits[0], op.params[0], op.params[1], len(ms_theta))
            )
        else:
            skeleton.append((op.gate, op.qubits))
            static.setdefault(op.gate, []).append(op.params)
    n_ms = len(ms_theta)
    kicks = kicks and n_ms > 0
    first_row = {"kick": 0, "r": 2 * n_ms if kicks else 0}
    r_order = [first_row[block] + i for block, i in r_rows]
    qubits = np.array(ms_qubits, dtype=np.intp).reshape(n_ms, 2)
    phases = np.array(ms_phases, dtype=float).reshape(n_ms, 2)
    return _CompiledDenseTest(
        ms_theta=np.array(ms_theta, dtype=float),
        ms_phi1=phases[:, 0].copy(),
        ms_phi2=phases[:, 1].copy(),
        ms_q1=qubits[:, 0].copy(),
        ms_q2=qubits[:, 1].copy(),
        kicks=kicks,
        r_slots=tuple(r_slots),
        r_order=(
            None
            if r_order == list(range(len(r_order)))
            else np.array(r_order, dtype=np.intp)
        ),
        static=tuple(
            (
                gate,
                np.array(rows, dtype=float).reshape(len(rows), 1, len(rows[0])),
            )
            for gate, rows in static.items()
        ),
        skeleton=tuple(skeleton),
        canonical=canonical_skeleton(skeleton),
    )


def slot_blocks(slots: list[RealizedSlot]) -> Blocks:
    """Realized slots as a :class:`~repro.sim.dense_plan.DensePlan`'s input.

    One ``np.stack`` per gate kind of the slots' ``(B, n_params)`` rows,
    in program order: ``{kind: (rows, B, n_params)}``.
    """
    rows: dict[str, list[np.ndarray]] = {}
    for slot in slots:
        rows.setdefault(slot.gate, []).append(slot.params)
    return {gate: np.stack(params) for gate, params in rows.items()}


def _skeleton(slots: list[RealizedSlot]) -> Skeleton:
    """The ``(gate, qubits)`` sequence of a realized slot list."""
    return tuple((s.gate, s.qubits) for s in slots)


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
