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

* its XX entry per ``max_exact_qubits``: edge columns, per-slot targets,
  nominal angles, drive phases and axis signs, static RX/X angles and a
  :class:`~repro.sim.xx_engine.ContractionPlan` (int8 half tables, under
  64 KiB).  An XX call gathers each slot's calibrated
  angle from the calibration arrays (:meth:`VirtualIonTrap._xx_slot_angles`),
  draws its amplitude noise, forms the ``(G, E)`` angle matrix and
  contracts (:meth:`VirtualIonTrap._xx_probabilities`).  The bounded
  ``_compiled_xx_test`` cache owns these entries and programs hold weak
  references, so its bound is the bound on pinned plans.
* its dense layout per residual kicks on/off: per-MS-slot targets,
  angles and phases, R and fixed-gate parameters, slot skeleton and the
  index merging kick and R rows into program order.  A dense call
  gathers its calibration in one step, draws its noise straight into the
  per-kind parameter blocks a :class:`~repro.sim.dense_plan.DensePlan`
  takes (the MS block as drawn) and evaluates the skeleton's cached plan.

One route evaluates programs: :meth:`VirtualIonTrap.run_battery`, a pass
over a list of them.  It checks every program's route before anything is
drawn, then draws every test in order: on its XX entry where that
applies (any size: the plan samples a component above
``max_exact_qubits``), through its dense layout otherwise (MS slots
under non-XX-preserving noise, drive phases off the pi grid, non-XX
gates).  Every dense draw waits for its plan core, contracted once for
all tests sharing its canonical skeleton, on the process-wide
:data:`~repro.sim.dense_plan.PLAN_CACHE`.  Then one binomial draw
samples every test's shots.  ``run_match`` is the pass's one-program
case, returning counts; a battery is a list of programs run as one
pass.  ``_realize_slots`` builds the same draws as
:class:`RealizedSlot` objects: it serves ``run`` and is the oracle the
pass is tested against, bit for bit.

Shot batching: stochastic noise is re-drawn per *realization group* rather
than per shot (control noise varies slowly compared to a ~ms shot cycle);
``noise_realizations`` controls the granularity.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
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
    #: Cached plans dropped by LRU eviction during this machine's
    #: lookups (cache churn).  A stable
    #: workload — including one that only changes evaluation knobs like
    #: ``max_batch_bytes`` between calls — must keep this at zero;
    #: plans are keyed by slot skeleton alone, never by batch budgets.
    dense_plan_invalidations: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.circuit_runs = 0
        self.shots = 0
        self.two_qubit_gates = 0
        self.quantum_seconds = 0.0
        self.dense_plan_builds = 0
        self.dense_plan_hits = 0
        self.dense_plan_rebinds = 0
        self.dense_plan_invalidations = 0


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
        self._account(circuit.depth_two_qubit(), shots)
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
        :func:`as_program`.  This is the one-program case of
        :meth:`run_battery`: the same
        draw and evaluation, then every realization group's shots drawn
        with a single multi-group binomial call.  Returned counts lump
        all mismatches into a single placeholder state.
        ``realizations`` overrides the machine's noise-realization count
        for this call.  An ``expected`` outside ``[0, 2^n_qubits)``, or a
        program for another bitstring or register width, raises
        ``ValueError`` before anything is drawn.
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
        self._account(program.n_two_qubit, shots)
        return sample_bernoulli_counts_batch(
            probs[0, 0] * self._spam_factors([program]), expected, groups, self.rng
        )

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
        route is checked before anything is drawn, each program's
        ``trials`` x realization-group batch is drawn in list order (see
        :meth:`_pass_probabilities`), and the shots of every (test,
        trial, group) are sampled with one binomial draw.  Dense plans
        come from the process-wide
        :data:`~repro.sim.dense_plan.PLAN_CACHE`.  A battery (Figs. 6/7,
        the scenario matrix) is one such pass per machine.

        ``engine`` selects the evaluation path: ``"auto"`` takes the XX
        route wherever it applies, ``"dense"`` forces the dense plan even
        for XX-preserving settings (scenario-matrix engine comparisons),
        ``"xx"`` demands the exact XX contraction and raises
        ``ValueError``, with nothing drawn, when the XX route declines
        any of the programs or would sample one of their components.
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
        """
        if program.circuit.n_qubits != self.n_qubits:
            raise ValueError(
                f"program is on {program.circuit.n_qubits} qubits, "
                f"machine has {self.n_qubits}"
            )
        xx = program.xx(self.max_exact_qubits)
        mags = np.asarray(magnitudes, dtype=np.float64)
        angles = self._xx_slot_angles(xx, sweep=(pair, mags))
        if angles is None:
            raise ValueError(
                "magnitude sweeps require XX-preserving noise, an "
                "XX-compilable test and drive phases on the pi grid "
                "(amplitude noise only); run the dense setting per "
                "magnitude point via run_battery"
            )
        groups = np.asarray(self._shot_groups(shots, realizations), dtype=np.int64)
        probs = self._xx_probabilities(xx, angles, trials * len(groups)).reshape(
            mags.size, trials, len(groups)
        )
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

        Each program's batch is drawn in list order: on its XX entry
        when the route takes it (drawn and contracted per test),
        otherwise into its dense layout, where it waits for its plan
        core: dense tests sharing a canonical skeleton are contracted in
        one stacked :meth:`~repro.sim.dense_plan.DensePlan.probabilities`
        call.
        """
        if engine not in ("auto", "xx", "dense"):
            raise ValueError(
                f"unknown engine {engine!r}; choose auto, xx or dense"
            )
        if shots < 1:
            raise ValueError("shots must be positive")
        routes = []
        for program in programs:
            if program.circuit.n_qubits != self.n_qubits:
                raise ValueError(
                    f"program is on {program.circuit.n_qubits} qubits, "
                    f"machine has {self.n_qubits}"
                )
            xx = None if engine == "dense" else program.xx(self.max_exact_qubits)
            angles = self._xx_slot_angles(xx)
            if engine == "xx" and angles is None:
                raise ValueError(
                    "engine='xx' requested but the setting requires the "
                    "dense fallback (non-XX-preserving noise, a dense-only "
                    "test, or drive phases off the pi grid)"
                )
            if engine == "xx" and xx.plan.sampled:
                raise ValueError(
                    "engine='xx' requested but a coupling component exceeds "
                    f"max_exact_qubits={self.max_exact_qubits}, so the XX "
                    "route would sample it"
                )
            routes.append((xx, angles))
        groups = np.asarray(self._shot_groups(shots, realizations), dtype=np.int64)
        n_batch = trials * len(groups)
        probs = np.empty((len(programs), n_batch))
        # Dense draws awaiting their plan core's one stacked call:
        # canonical skeleton -> [(row, segment, blocks), ...].
        stacks: dict[Skeleton, list[tuple[int, Segment, Blocks]]] = {}
        for row, (program, (xx, angles)) in enumerate(zip(programs, routes)):
            if angles is not None:
                probs[row] = self._xx_probabilities(xx, angles, n_batch)[0]
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

    def _spam_factors(self, programs: list["TestProgram"]) -> np.ndarray:
        """Each program's readout factor on its match probability."""
        spam = self.noise.spam
        return np.array(
            [
                spam.match_probability_factor(program.expected, self.n_qubits)
                if spam is not None
                else 1.0
                for program in programs
            ]
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
        p = probs * self._spam_factors(programs)[:, None, None]
        if p.size and (p.min() < -1e-9 or p.max() > 1.0 + 1e-9):
            raise ValueError("match probabilities outside [0, 1]")
        p = np.clip(p, 0.0, 1.0)
        matches = self.rng.binomial(np.broadcast_to(groups, p.shape), p)
        runs = p.shape[0] * p.shape[1] // len(programs)
        for program in programs:
            self._account(program.n_two_qubit, shots, runs)
        return matches.sum(axis=2) / shots

    def _shot_groups(
        self, shots: int, realizations: int | None = None
    ) -> list[int]:
        wanted = realizations if realizations is not None else self.noise_realizations
        if wanted < 1:
            raise ValueError("need at least one noise realization")
        groups = min(wanted, shots)
        base, extra = divmod(shots, groups)
        return [base + (1 if g < extra else 0) for g in range(groups)]

    # -- compiled XX route -------------------------------------------------------

    def _xx_slot_angles(
        self,
        test: "_CompiledXXTest | None",
        sweep: tuple[Pair | tuple[int, int], np.ndarray] | None = None,
    ) -> np.ndarray | None:
        """The XX route's eligibility step: each slot's calibrated angle.

        Returns ``None`` (nothing drawn, clock untouched) when the route
        declines: no compiled XX test, MS slots under non-XX-preserving
        noise, or a realized drive phase off the pi grid.  A test with no
        MS slot is taken under any noise: its RX/X angles are static.
        Otherwise returns the ``(n_ms, M)`` angles ``sign * theta * (1 -
        u)`` of every MS/XX slot, with the X-basis axis sign of its
        realized drive phases.
        ``M`` is 1, or with ``sweep = (pair, magnitudes)`` one column per
        magnitude, each replacing ``pair``'s under-rotation.
        """
        if test is None or (
            not self.noise.is_xx_preserving() and test.slot_edge.size
        ):
            return None
        calibration = self.calibration
        offsets = calibration.phase_offsets[test.slot_q1, test.slot_q2]
        if offsets.any():
            phi1 = test.slot_phi1 + offsets
            phi2 = test.slot_phi2 + offsets
            if not (
                np.all(is_multiple_of_pi(phi1)) and np.all(is_multiple_of_pi(phi2))
            ):
                return None
            theta = ms_axis_sign(phi1, phi2) * test.slot_theta
        elif test.slot_axis_theta is None:
            return None
        else:
            theta = test.slot_axis_theta
        unders = calibration.under_rotations[test.slot_q1, test.slot_q2]
        if sweep is None:
            return (theta * (1.0 - unders))[:, None]
        pair, magnitudes = sweep
        try:
            col = test.pairs.index(frozenset(pair))
        except ValueError:
            raise ValueError(
                f"pair {sorted(pair)} is not exercised by this test"
            ) from None
        slot_unders = np.repeat(unders[:, None], len(magnitudes), axis=1)
        slot_unders[test.slot_edge == col] = magnitudes
        return theta[:, None] * (1.0 - slot_unders)

    def _xx_probabilities(
        self, test: "_CompiledXXTest", slot_angles: np.ndarray, n_batch: int
    ) -> np.ndarray:
        """Match probabilities of ``n_batch`` draws: shape ``(M, n_batch)``.

        The one XX draw: ``slot_angles`` (from :meth:`_xx_slot_angles`)
        times ``1 + xi`` for one ``(n_ms, n_batch)`` amplitude-noise draw
        shared by all ``M`` columns, accumulated per edge in slot order
        and contracted as one stacked ``(M * n_batch, E)`` batch; a
        sampled plan then draws its spins from the machine's generator.
        Draw, arithmetic and clock advance are those of
        :meth:`_realize_slots` with the realized angles summed per edge in
        slot order, so each row equals that oracle's.
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
        acc = np.zeros((len(test.pairs), n_cols, n_batch))
        np.add.at(acc, test.slot_edge, angles)
        rows = n_cols * n_batch
        lin = np.tile(test.linear, (rows, 1)) if test.linear.size else None
        self._clock += n_batch * n_ms * self.timing.gate_time(self.n_qubits)
        probs = test.plan.probabilities(
            np.ascontiguousarray(acc.reshape(len(test.pairs), rows).T),
            lin,
            self.max_batch_bytes,
            self.rng,
        )
        return probs.reshape(n_cols, n_batch)

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

        Returns the per-kind parameter blocks a
        :class:`~repro.sim.dense_plan.DensePlan` takes: the
        ``(n_ms, n_batch, 3)`` MS block as drawn, the kick and R rows
        merged into program order, and the static rows of every other
        kind broadcast over the batch.  Draw for draw, value for value
        and clock for clock this is :meth:`_realize_slots`: one
        calibration gather per kind, then the MS block, the kick block
        and each R slot's draw in program order, and no slot objects.
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

        Plans are cached keyed by the slot skeleton in the process-wide
        :data:`~repro.sim.dense_plan.PLAN_CACHE`, so every execution of
        one nominal circuit (a diagnosis loop, a trial sweep, machine
        after machine) compiles the compaction, permutations and fused
        apply groups once.  The lookup and its build/hit/rebind/eviction
        counts are read under the cache lock and land in
        :class:`MachineStats`.  A plan above
        :data:`~repro.sim.statevector.MAX_DENSE_QUBITS` raises
        ``ValueError``: only the XX route evaluates larger tests.
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
        self, slots: list[RealizedSlot], groups: list[int]
    ) -> Counts:
        """Full-counts dense execution of all realization groups.

        Chunked like the match path so peak memory stays within
        ``max_batch_bytes`` (or the global amplitude cap).
        """
        if not slots or not {q for slot in slots for q in slot.qubits}:
            return {0: sum(groups)}
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

    def _account(self, n2q: int, shots: int, runs: int = 1) -> None:
        self.stats.circuit_runs += runs
        self.stats.shots += runs * shots
        self.stats.two_qubit_gates += n2q * shots * runs
        self.stats.quantum_seconds += (
            self.timing.circuit_run_time(n2q, self.n_qubits, shots) * runs
        )


class CompiledBattery:
    """Compatibility shim for the benchmark's tracer; nothing in ``src/`` uses it.

    A battery is a list of :class:`TestProgram` objects run as one
    :meth:`VirtualIonTrap.run_battery` pass.  ``perfbench/layers.py``
    still resolves :meth:`trial_fidelities` by name, so this class holds
    programs and delegates that one method to the pass; it keeps no
    cache.
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
class _CompiledXXTest:
    """Machine-independent structure of one XX test.

    ``pairs`` fixes the plan's edge-column order (first appearance);
    ``slot_edge``/``slot_q1``/``slot_q2``/``slot_theta``/``slot_phi1``/
    ``slot_phi2`` give each MS/XX application's column, targets (the
    calibration gather index), nominal angle and nominal drive phases (0
    for XX).  ``slot_axis_theta`` holds each nominal angle times the
    X-basis axis sign of its phases, or is ``None`` when a phase sits off
    the pi grid.  ``linear`` holds the
    static RX/X angle per ``plan.linear_keys`` entry, summed in program
    order.
    """

    pairs: tuple[Pair, ...]
    slot_edge: np.ndarray
    slot_q1: np.ndarray
    slot_q2: np.ndarray
    slot_theta: np.ndarray
    slot_phi1: np.ndarray
    slot_phi2: np.ndarray
    slot_axis_theta: np.ndarray | None
    linear: np.ndarray
    plan: ContractionPlan


#: Compiled XX tests kept per process; the least recently resolved entry
#: is dropped first.  This cache is their one owner (programs hold weak
#: references).  Entries hold plans of int8 half tables, characters and
#: index arrays, under 64 KiB each up to the 20-qubit exact limit, so all
#: compiled XX tests alive pin at most 64 MiB.
_XX_TEST_CACHE_SIZE = 1024


@lru_cache(maxsize=_XX_TEST_CACHE_SIZE)
def _compiled_xx_test(
    program: TestProgram, max_exact_qubits: int
) -> _CompiledXXTest | None:
    """The compiled XX structure of a program's nominal ops.

    Returns ``None`` for structures with non-XX gates; that verdict is
    cached too, so such tests take the dense route without being
    re-examined.  A component above ``max_exact_qubits`` compiles as a
    sampled one.  Keyed by the program, whose hash is cached.  The cache
    is thread-safe: concurrent misses on one key may both compile, and
    either result is equivalent.
    """
    n_qubits, ops, expected = program.key
    edge_index: dict[Pair, int] = {}
    slot_edge: list[int] = []
    slot_qubits: list[tuple[int, int]] = []
    slot_theta: list[float] = []
    slot_phases: list[tuple[float, float]] = []
    linear: dict[int, float] = {}
    for op in ops:
        if op.gate in ("MS", "XX"):
            col = edge_index.setdefault(frozenset(op.qubits), len(edge_index))
            slot_edge.append(col)
            slot_qubits.append(op.qubits)
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
    phases = np.array(slot_phases, dtype=np.float64).reshape(len(slot_edge), 2)
    qubits = np.array(slot_qubits, dtype=np.intp).reshape(len(slot_edge), 2)
    thetas = np.array(slot_theta, dtype=np.float64)
    return _CompiledXXTest(
        pairs=tuple(edge_index),
        slot_edge=np.array(slot_edge, dtype=np.intp),
        slot_q1=qubits[:, 0].copy(),
        slot_q2=qubits[:, 1].copy(),
        slot_theta=thetas,
        slot_phi1=phases[:, 0].copy(),
        slot_phi2=phases[:, 1].copy(),
        slot_axis_theta=(
            ms_axis_sign(phases[:, 0], phases[:, 1]) * thetas
            if np.all(is_multiple_of_pi(phases))
            else None
        ),
        linear=np.array(list(linear.values()), dtype=np.float64),
        plan=plan,
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
