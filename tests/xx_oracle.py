"""The one exact XX oracle, and the per-call slot path built on it.

:class:`XXCircuitEvaluator` folds an XX-only circuit into accumulated
angles and sums every coupling component's full spin table in complex
arithmetic: the reference the compiled :class:`ContractionPlan` and the
dense statevector are checked against.

The slot path evaluates a realized slot list per call, the way the
machine did before every X-diagonal test moved onto its compiled XX
route: X-diagonal slots go through a one-shot plan
(``batch_amplitudes_from_terms``), or, with a component above
``max_exact_qubits``, through one Monte-Carlo estimate per realization
and component (:func:`sampled_amplitude`); any other slot list goes
through the machine's cached dense plan.  Tests replay the machine's
draws with :func:`realize_slots` and check its routes against this path.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.sim import dense_plan
from repro.sim.circuit import Circuit, Operation, is_multiple_of_pi
from repro.sim.sampling import sample_bernoulli_counts_batch
from repro.sim.xx_engine import (
    MC_SAMPLES,
    _component_amplitudes_vectorized,
    _connected_components,
    _spin_columns,
    batch_amplitudes_from_terms,
    ms_axis_sign,
)
from repro.sim.dense_plan import Blocks, Skeleton
from repro.trap.machine import _StackDraws


@dataclass
class CouplingTerms:
    """Accumulated X-basis-diagonal terms extracted from a circuit.

    ``edge_angles`` holds the total XX angle per qubit pair (repeated
    applications sum, because all terms commute); ``linear_angles`` the
    total RX angle per qubit.  A plain ``X`` gate is ``i RX(pi)``: it
    adds ``pi`` there, and its global phase is dropped.
    """

    edge_angles: dict[frozenset[int], float] = field(default_factory=dict)
    linear_angles: dict[int, float] = field(default_factory=dict)

    def add_edge(self, i: int, j: int, theta: float) -> None:
        key = frozenset((i, j))
        self.edge_angles[key] = self.edge_angles.get(key, 0.0) + theta

    def add_linear(self, q: int, theta: float) -> None:
        self.linear_angles[q] = self.linear_angles.get(q, 0.0) + theta

    def touched_qubits(self) -> set[int]:
        out: set[int] = set()
        for e in self.edge_angles:
            out.update(e)
        out.update(self.linear_angles)
        return out


def extract_terms(circuit: Circuit) -> CouplingTerms:
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
            terms.add_linear(op.qubits[0], math.pi)
        else:
            raise ValueError(f"gate {op.gate} is not supported by the XX engine")
    return terms


class XXCircuitEvaluator:
    """Exact output amplitudes of an XX-only circuit.

    Every component is summed over its full ``2^m`` spin table; a global
    phase from ``X`` gates is dropped (probabilities are unaffected).
    """

    def __init__(self, circuit: Circuit):
        if not circuit.is_xx_only():
            raise ValueError("circuit contains gates not diagonal in the X basis")
        self.n_qubits = circuit.n_qubits
        self.terms = extract_terms(circuit)
        self.touched = self.terms.touched_qubits()
        self.components = _connected_components(
            self.touched, self.terms.edge_angles
        )

    def amplitude(self, bitstring: int, spins=lambda comp: None) -> complex:
        """Output amplitude ``<z|U|0...0>`` up to a global phase.

        ``spins(comp)`` may return spin rows to sum a component over
        instead of its full table (see :func:`sampled_amplitude`).
        """
        z_bits = self.bits(bitstring)
        # Untouched qubits stay |0>: the amplitude vanishes if their z is 1.
        if any(z_bits[q] for q in range(self.n_qubits) if q not in self.touched):
            return 0.0j
        amp = 1.0 + 0.0j
        for comp in self.components:
            amp *= self.component_amplitude(comp, z_bits, spins(comp))
            if amp == 0.0:
                return amp
        return amp

    def probability_of(self, bitstring: int) -> float:
        """Probability of measuring ``bitstring``; clipped to [0, 1]."""
        p = abs(self.amplitude(bitstring)) ** 2
        return float(min(max(p, 0.0), 1.0))

    def bits(self, bitstring: int) -> list[int]:
        if not 0 <= bitstring < 2**self.n_qubits:
            raise ValueError("bitstring out of range")
        return [
            (bitstring >> (self.n_qubits - 1 - q)) & 1 for q in range(self.n_qubits)
        ]

    def component_amplitude(
        self, comp: list[int], z_bits: list[int], spins: np.ndarray | None = None
    ) -> complex:
        """One component's sum: over its full table, or over ``spins`` rows."""
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
        if spins is None:
            spins = np.ascontiguousarray(_spin_columns(m, 2**m).T)
        amps = _component_amplitudes_vectorized(
            spins,
            1.0 / spins.shape[0],
            np.array([i for i, _, _ in edges], dtype=np.intp),
            np.array([j for _, j, _ in edges], dtype=np.intp),
            np.array([[theta for _, _, theta in edges]], dtype=np.float64),
            np.array([i for i, _ in linear], dtype=np.intp),
            np.array([[theta for _, theta in linear]], dtype=np.float64),
            np.array([k for k, q in enumerate(comp) if z_bits[q]], dtype=np.intp),
        )
        return complex(amps[0])


def sampled_amplitude(
    circuit: Circuit, bitstring: int, max_exact_qubits: int, rng
) -> complex:
    """The amplitude with components above ``max_exact_qubits`` sampled.

    Components in order: an exact one from :class:`XXCircuitEvaluator`,
    a larger one summed over one ``rng.choice`` draw of
    :data:`~repro.sim.xx_engine.MC_SAMPLES` spin rows.
    """

    def spins(comp):
        if len(comp) <= max_exact_qubits:
            return None
        return rng.choice(
            np.array([-1, 1], dtype=np.int8), size=(MC_SAMPLES, len(comp))
        )

    return XXCircuitEvaluator(circuit).amplitude(bitstring, spins)


# -- the slot path ----------------------------------------------------------------


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


def realize_slots(machine, circuit: Circuit, n_batch: int) -> list[RealizedSlot]:
    """Realize ``n_batch`` noisy copies of a nominal circuit on ``machine``.

    The oracle the machine's draws are checked against: op by op, one
    copy per noise-realization group, each slot's per-realization noise
    parameters drawn in one RNG call and the machine's clock advanced as
    a pass advances it (realization g's clock starts where realization
    g-1's gates ended).
    """
    gate_dt = machine.timing.gate_time(machine.n_qubits)
    ms_ops = [op for op in circuit.ops if op.gate in ("MS", "XX")]
    n_ms = len(ms_ops)
    start = machine._clock + np.arange(n_batch) * (n_ms * gate_dt)
    p_odd = machine.noise.residual_odd_population
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
        offsets = machine.calibration.phase_offsets[q1s, q2s]
        ts_block = start[None, :] + np.arange(n_ms)[:, None] * gate_dt
        ms_params = machine.noise_model.noisy_ms_params_block(
            q1s,
            q2s,
            np.array([op.params[0] for op in ms_ops], dtype=float),
            machine.calibration.under_rotations[q1s, q2s],
            phases[:, 0] + offsets,
            phases[:, 1] + offsets,
            ts_block,
        )
    kick_params = None
    if n_ms and p_odd > 0:
        kick_params = machine.noise_model.residual_kick_params_block(
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
                    machine.noise_model.noisy_r_params(
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
    machine._clock += n_batch * n_ms * gate_dt
    return slots


def slot_blocks(slots: list[RealizedSlot]) -> Blocks:
    """Realized slots as a :class:`~repro.sim.dense_plan.DensePlan`'s input.

    One ``np.stack`` per gate kind of the slots' ``(B, n_params)`` rows,
    in program order: ``{kind: (rows, B, n_params)}``.
    """
    rows: dict[str, list[np.ndarray]] = {}
    for slot in slots:
        rows.setdefault(slot.gate, []).append(slot.params)
    return {gate: np.stack(params) for gate, params in rows.items()}


def slot_skeleton(slots: list[RealizedSlot]) -> Skeleton:
    """The ``(gate, qubits)`` sequence of a realized slot list."""
    return tuple((s.gate, s.qubits) for s in slots)


def slots_xx_only(slots) -> bool:
    """True if every realized slot is diagonal in the X basis."""
    for slot in slots:
        if slot.gate in ("XX", "RX", "X"):
            continue
        if slot.gate == "MS":
            if np.all(is_multiple_of_pi(slot.params[:, 1:])):
                continue
        return False
    return True


def slots_to_circuits(machine, slots) -> list[Circuit]:
    """One realized circuit per realization row of ``slots``."""
    n_batch = slots[0].params.shape[0] if slots else 1
    circuits = []
    for g in range(n_batch):
        circuit = Circuit(machine.n_qubits)
        for slot in slots:
            circuit.append(Operation(slot.gate, slot.qubits, tuple(slot.params[g])))
        circuits.append(circuit)
    return circuits


@contextmanager
def plan_cache(cache):
    """Serve every machine's dense-plan lookups from ``cache`` in the block.

    Twin machines share the process-wide plan cache, so the twin that
    looks a skeleton up second finds it compiled.  An oracle twin on its
    own cache, beside a compiled twin on a fresh process cache, builds,
    rebinds and hits exactly as the compiled twin does.
    """
    saved = dense_plan.PLAN_CACHE
    dense_plan.PLAN_CACHE = cache
    try:
        yield cache
    finally:
        dense_plan.PLAN_CACHE = saved


def draw_dense(machine, program, n_batch: int):
    """``program``'s dense layout drawn as a stack of one: its plan blocks.

    Draw for draw, value for value and clock for clock this is
    ``realize_slots`` without its slot objects.
    """
    layout = program.dense(machine.noise.residual_odd_population > 0).layout
    draws = _StackDraws(layout, n_batch, machine.noise)
    machine._draw_test(draws, 0)
    return machine._stack_blocks(draws)


def dense_match_probabilities_slots(machine, slots, expected: int) -> np.ndarray:
    """Match probabilities of ``slots`` on the machine's cached dense plan."""
    plan = machine._dense_plan_for(slot_skeleton(slots))
    return plan.probabilities(slot_blocks(slots), expected, machine.max_batch_bytes)


def match_probabilities_slots(machine, slots, expected: int) -> np.ndarray:
    """Match probabilities of every realization row of ``slots``.

    X-diagonal slots are summed per edge in slot order and contracted by
    a one-shot plan; with a component above the machine's
    ``max_exact_qubits`` each realization is evaluated by
    :func:`sampled_amplitude` on the machine's generator instead.  Any
    other slot list runs on the dense plan.
    """
    if not slots_xx_only(slots):
        return dense_match_probabilities_slots(machine, slots, expected)
    edge_angles: dict[frozenset[int], np.ndarray] = {}
    linear_angles: dict[int, np.ndarray] = {}
    for slot in slots:
        if slot.gate in ("MS", "XX"):
            key = frozenset(slot.qubits)
            theta = slot.params[:, 0]
            if slot.gate == "MS":
                theta = ms_axis_sign(slot.params[:, 1], slot.params[:, 2]) * theta
            edge_angles[key] = edge_angles.get(key, 0.0) + theta
        elif slot.gate == "RX":
            q = slot.qubits[0]
            linear_angles[q] = linear_angles.get(q, 0.0) + slot.params[:, 0]
        else:  # X
            q = slot.qubits[0]
            linear_angles[q] = (
                linear_angles.get(q, np.zeros(slot.params.shape[0])) + math.pi
            )
    try:
        amps = batch_amplitudes_from_terms(
            machine.n_qubits,
            edge_angles,
            linear_angles,
            expected,
            max_exact_qubits=machine.max_exact_qubits,
            max_batch_bytes=machine.max_batch_bytes,
        )
    except ValueError:
        # A component above the exact limit: sampled per realization.
        amps = np.array(
            [
                sampled_amplitude(
                    circuit, expected, machine.max_exact_qubits, machine.rng
                )
                for circuit in slots_to_circuits(machine, slots)
            ]
        )
    return np.clip(np.abs(amps) ** 2, 0.0, 1.0)


def slot_run_match(machine, circuit: Circuit, expected: int, shots: int):
    """``run_match`` on the slot path: realize, evaluate, one binomial."""
    machine._account([circuit.depth_two_qubit()], shots)
    groups = machine._shot_groups(shots)
    slots = realize_slots(machine, circuit, len(groups))
    if slots:
        p = match_probabilities_slots(machine, slots, expected)
    else:
        p = np.full(len(groups), 1.0 if expected == 0 else 0.0)
    spam = machine.noise.spam
    if spam is not None:
        p = p * spam.match_probability_factor(expected, machine.n_qubits)
    return sample_bernoulli_counts_batch(
        p, expected, np.asarray(groups, dtype=np.int64), machine.rng
    )
