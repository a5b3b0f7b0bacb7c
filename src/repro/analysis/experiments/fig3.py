"""Fig. 3: infidelity of concatenated MS-gate sequences, echoed vs not.

The paper stacks q MS gates on two pairs ({3,8} and {0,10}) of an 11-ion
chain and plots the infidelity of the resulting state against the ideal
``XX(q pi/2)`` target, for gates concatenated *in phase* versus *echoed*
(gate phases stepping by pi).  Deterministic (correlated) angle errors add
coherently — quadratic infidelity growth — while the echo cancels them
pairwise, leaving the slower stochastic accumulation.  Our simulator
reproduces the simulation side with the paper's stated error model: static
per-pair calibration error, per-gate amplitude noise, 1/f phase noise and
residual motional coupling.

Echo modelling (documented in DESIGN.md): stepping the drive phase by pi
leaves an ideal MS gate invariant, so its error-suppression acts on the
systematic part of the angle error; we model it as sign alternation of the
deterministic miscalibration, with stochastic noise unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ...noise.one_over_f import OneOverFProcess
from ...sim import gates
from ...sim.statevector import zero_states

__all__ = ["Fig3Config", "Fig3Point", "run_fig3"]


@dataclass(frozen=True)
class Fig3Config:
    """Parameters of the concatenated-sequence experiment."""

    n_qubits: int = 11
    pairs: tuple[tuple[int, int], ...] = ((3, 8), (0, 10))
    #: Static calibration error (rad per gate, added to theta) per pair;
    #: the two pairs differ, as the paper observes.
    static_errors: tuple[float, ...] = (0.05, 0.11)
    max_gates: int = 16
    amplitude_sigma: float = 0.02
    phase_noise_rms: float = 0.05
    residual_odd_population: float = 0.01
    shots: int = 1000
    realizations: int = 40
    seed: int = 2


@dataclass(frozen=True)
class Fig3Point:
    """One (pair, echo, gate-count) infidelity sample."""

    pair: tuple[int, int]
    echoed: bool
    n_gates: int
    infidelity: float


def _ideal_state(n_gates: int) -> np.ndarray:
    """``XX(q pi/2)|00>`` on the two-qubit subspace."""
    theta = n_gates * math.pi / 2.0
    return np.array(
        [math.cos(theta / 2.0), 0.0, 0.0, -1.0j * math.sin(theta / 2.0)],
        dtype=complex,
    )


def _sequence_fidelities_batch(
    static_error: float,
    n_gates: int,
    echoed: bool,
    cfg: Fig3Config,
    rng: np.random.Generator,
    phase_proc_1: OneOverFProcess,
    phase_proc_2: OneOverFProcess,
) -> np.ndarray:
    """All realizations of one noisy q-gate sequence in one batched pass.

    The pair is simulated on its own two-qubit register (residual kicks
    act on the pair's qubits; spectators stay |0> and drop out of the
    overlap).  Each gate's amplitude noise (and residual kicks) is drawn
    for every realization at once, and the whole ``(B, 4)`` realization
    block evolves through one stacked ``matmul`` per gate.
    """
    n_real = cfg.realizations
    states = zero_states(2, n_real)
    gate_time = 0.2e-3
    d0 = (
        math.sqrt(2.0 * cfg.residual_odd_population)
        if cfg.residual_odd_population > 0
        else 0.0
    )
    for k in range(n_gates):
        sign = -1.0 if (echoed and k % 2 == 1) else 1.0
        xi = rng.normal(0.0, cfg.amplitude_sigma, n_real)
        theta = math.pi / 2.0 + sign * static_error + xi * math.pi / 2.0
        t = k * gate_time
        phi1 = phase_proc_1.value_at(t)
        phi2 = phase_proc_2.value_at(t)
        states = np.matmul(
            gates.ms_gate_batch(theta, phi1, phi2), states.reshape(n_real, 4, 1)
        ).reshape(n_real, 4)
        if d0 > 0:
            for q in (0, 1):
                delta = rng.normal(0.0, d0, n_real)
                axis = rng.uniform(0.0, 2.0 * math.pi, n_real)
                us = gates.r_gate_batch(delta, axis)
                # Amplitude index is 2 * q0 + q1: qubit 1's axis is last.
                psi = states.reshape(n_real, 2, 2)
                if q == 0:
                    psi = np.matmul(us, psi)
                else:
                    psi = np.matmul(us, psi.transpose(0, 2, 1)).transpose(0, 2, 1)
                states = psi.reshape(n_real, 4)
    overlaps = states @ np.conj(_ideal_state(n_gates))
    return np.abs(overlaps) ** 2


def run_fig3(cfg: Fig3Config | None = None) -> list[Fig3Point]:
    """Produce the Fig. 3 series: infidelity vs gate count, both modes."""
    cfg = cfg or Fig3Config()
    rng = np.random.default_rng(cfg.seed)
    points: list[Fig3Point] = []
    for pair, static_error in zip(cfg.pairs, cfg.static_errors):
        phase_1 = OneOverFProcess(cfg.phase_noise_rms, rng)
        phase_2 = OneOverFProcess(cfg.phase_noise_rms, rng)
        for echoed in (False, True):
            for n_gates in range(1, cfg.max_gates + 1):
                fidelities = _sequence_fidelities_batch(
                    static_error, n_gates, echoed, cfg, rng, phase_1, phase_2
                )
                mean_f = float(np.mean(fidelities))
                # Shot noise of the measured estimate.
                measured = rng.binomial(cfg.shots, min(1.0, mean_f)) / cfg.shots
                points.append(
                    Fig3Point(
                        pair=pair,
                        echoed=echoed,
                        n_gates=n_gates,
                        infidelity=1.0 - measured,
                    )
                )
    return points


def _register() -> None:
    """Hook this experiment into the unified runner registry."""
    from ..registry import register_experiment

    def _summarize(points: list[Fig3Point]) -> str:
        deepest = max(p.n_gates for p in points)
        plain = max(
            p.infidelity for p in points if not p.echoed and p.n_gates == deepest
        )
        echoed = max(
            p.infidelity for p in points if p.echoed and p.n_gates == deepest
        )
        return (
            f"at {deepest} gates: infidelity {plain:.2f} in-phase "
            f"vs {echoed:.2f} echoed"
        )

    register_experiment(
        name="fig3",
        anchor="Fig. 3",
        title="Infidelity of concatenated MS sequences, echoed vs not",
        runner=run_fig3,
        config_type=Fig3Config,
        smoke_overrides={"max_gates": 8, "realizations": 20, "shots": 300},
        to_rows=lambda points: (
            ["pair", "echoed", "n_gates", "infidelity"],
            [
                ["%d-%d" % p.pair, p.echoed, p.n_gates, p.infidelity]
                for p in points
            ],
        ),
        summarize=_summarize,
    )


_register()
