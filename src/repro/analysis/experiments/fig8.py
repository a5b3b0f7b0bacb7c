"""Fig. 8: fault contrast vs under-rotation at 8, 16 and 32 qubits.

Sweeps the under-rotation of a single coupling and records the fidelity of
the class test containing it, under the Sec. VII scaling error model (10 %
random amplitude errors only — phase noise and residual couplings are
suppressed, as the paper does for clarity).  As N grows, a class test
exercises C(N/2, 2) couplings, so the fault-free baseline fidelity decays
and its spread widens — the faulty pair "needs to be an outlier to be
distinguished".

Reported per (N, repetitions):

* the fault-free baseline fidelity (the figure's dashed line),
* the detection threshold (lower quantile of the baseline distribution),
* mean test fidelity vs under-rotation (the figure's curves),
* the minimum under-rotation detected in >= 95 % of trials — the paper
  quotes ~25/30/35 % (2-MS) and ~20/25/30 % (4-MS) for N = 8/16/32.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...core.protocol import built_test
from ...core.single_fault import SingleFaultProtocol
from ...core.tests_builder import TestSpec
from ...noise.models import NoiseParameters
from ...trap.machine import VirtualIonTrap

__all__ = ["Fig8Config", "Fig8Series", "run_fig8", "class_test_for_pair"]


@dataclass(frozen=True)
class Fig8Config:
    """Sweep grid, noise strengths and detection criteria."""

    qubit_counts: tuple[int, ...] = (8, 16, 32)
    repetition_counts: tuple[int, ...] = (2, 4)
    under_rotations: tuple[float, ...] = (
        0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50,
    )
    amplitude_sigma: float = 0.10
    shots: int = 300
    trials: int = 40
    baseline_trials: int = 60
    detection_quantile: float = 0.05
    target_detection: float = 0.95
    noise_realizations: int = 4
    #: Fan the (N, repetitions) series grid out over worker processes
    #: (execution-only: never changes results, excluded from the cache
    #: digest).
    series_jobs: int = field(default=1, metadata={"execution_only": True})
    seed: int = 8


@dataclass(frozen=True)
class Fig8Series:
    """One (N, repetitions) sweep."""

    n_qubits: int
    repetitions: int
    under_rotations: tuple[float, ...]
    mean_fidelity: tuple[float, ...]
    detection_rate: tuple[float, ...]
    baseline_mean: float
    threshold: float
    min_detectable_95: float | None


def class_test_for_pair(
    n_qubits: int, pair: tuple[int, int], repetitions: int
) -> TestSpec:
    """The first round-1 class test containing the given pair."""
    protocol = SingleFaultProtocol(n_qubits, repetitions=repetitions)
    for spec in protocol.round1_specs():
        if frozenset(pair) in spec.pairs:
            return spec
    raise ValueError(f"pair {pair} is bit-complementary; no class contains it")


def _run_series(args: tuple[Fig8Config, int, int]) -> Fig8Series:
    """One (N, repetitions) sweep via the compiled magnitude broadcast.

    The class test is built once; the baseline's trials run as one
    ``run_battery`` pass, and the whole magnitude grid's ``(M, trials,
    realizations)`` block as one ``sweep_fidelities`` call on its
    contraction plan — sweep points share noise draws, so the sweep
    costs one stacked matmul instead of M independent point runs.
    Worker entry point for the series fan-out (must be module-level).
    """
    cfg, n_qubits, repetitions = args
    pair = (0, 1)
    spec = class_test_for_pair(n_qubits, pair, repetitions)
    program = built_test(tuple(spec.pairs), spec.repetitions, n_qubits)
    noise = NoiseParameters(amplitude_sigma=cfg.amplitude_sigma)
    baseline_machine = VirtualIonTrap(
        n_qubits,
        noise=noise,
        seed=cfg.seed,
        noise_realizations=cfg.noise_realizations,
    )
    baseline = baseline_machine.run_battery(
        [program], cfg.shots, cfg.baseline_trials
    )[0]
    threshold = float(np.quantile(baseline, cfg.detection_quantile))
    sweep_machine = VirtualIonTrap(
        n_qubits,
        noise=noise,
        seed=cfg.seed + 13 + n_qubits,
        noise_realizations=cfg.noise_realizations,
    )
    samples = sweep_machine.sweep_fidelities(
        program,
        pair,
        np.array(cfg.under_rotations),
        cfg.shots,
        cfg.trials,
    )
    rates = [float(np.mean(row < threshold)) for row in samples]
    return Fig8Series(
        n_qubits=n_qubits,
        repetitions=repetitions,
        under_rotations=cfg.under_rotations,
        mean_fidelity=tuple(float(row.mean()) for row in samples),
        detection_rate=tuple(rates),
        baseline_mean=float(baseline.mean()),
        threshold=threshold,
        min_detectable_95=_first_crossing(
            cfg.under_rotations, rates, cfg.target_detection
        ),
    )


def run_fig8(cfg: Fig8Config | None = None) -> list[Fig8Series]:
    """Produce every (N, repetitions) sweep of Fig. 8."""
    from ..runner import fan_out

    cfg = cfg or Fig8Config()
    grid = [
        (cfg, n_qubits, repetitions)
        for n_qubits in cfg.qubit_counts
        for repetitions in cfg.repetition_counts
    ]
    return fan_out(_run_series, grid, cfg.series_jobs)


def _first_crossing(
    xs: tuple[float, ...], rates: list[float], target: float
) -> float | None:
    """Smallest x where the detection rate first reaches the target."""
    for x, rate in zip(xs, rates):
        if rate >= target:
            return x
    return None


def _monotone(values: list[float], slack: float, increasing: bool) -> bool:
    """Sequence monotonicity within an additive slack."""
    diffs = [b - a for a, b in zip(values, values[1:])]
    if increasing:
        return min(diffs, default=0.0) >= -slack
    return max(diffs, default=0.0) <= slack


def _validation():
    """Fig. 8's paper-fidelity locks (see EXPERIMENTS.md "Validation")."""
    from ...validation.specs import Expectation, FigureValidation

    return FigureValidation(
        replicates=4,
        expectations=(
            Expectation(
                check_id="fig8.fidelity_decays_with_fault",
                description=(
                    "test fidelity falls monotonically with the injected "
                    "under-rotation (every series of the sweep)"
                ),
                kind="ci-lower",
                target=0.5,
                extract=lambda ctx: [
                    all(
                        _monotone(s["mean_fidelity"], 0.03, increasing=False)
                        for s in r
                    )
                    for r in ctx.results
                ],
            ),
            Expectation(
                check_id="fig8.detection_grows_with_fault",
                description=(
                    "detection rate grows monotonically with the "
                    "injected under-rotation (every series of the sweep)"
                ),
                kind="ci-lower",
                target=0.5,
                extract=lambda ctx: [
                    all(
                        _monotone(s["detection_rate"], 0.05, increasing=True)
                        for s in r
                    )
                    for r in ctx.results
                ],
            ),
            Expectation(
                check_id="fig8.min_detectable_band",
                description=(
                    "the 95%-detected under-rotation at N=8 lands in the "
                    "paper's ~20-35% neighbourhood"
                ),
                kind="ci-lower",
                target=0.5,
                extract=lambda ctx: [
                    r[0]["min_detectable_95"] is not None
                    and 0.10 <= r[0]["min_detectable_95"] <= 0.45
                    for r in ctx.results
                ],
            ),
        ),
    )


def _register() -> None:
    """Hook this experiment into the unified runner registry."""
    from ..registry import register_experiment

    def _to_rows(series: list[Fig8Series]):
        rows = []
        for s in series:
            for u, mean, rate in zip(
                s.under_rotations, s.mean_fidelity, s.detection_rate
            ):
                rows.append(
                    [
                        s.n_qubits,
                        s.repetitions,
                        u,
                        mean,
                        rate,
                        s.baseline_mean,
                        s.threshold,
                        s.min_detectable_95,
                    ]
                )
        return (
            [
                "n_qubits",
                "repetitions",
                "under_rotation",
                "mean_fidelity",
                "detection_rate",
                "baseline_mean",
                "threshold",
                "min_detectable_95",
            ],
            rows,
        )

    register_experiment(
        name="fig8",
        anchor="Fig. 8",
        title="Fault contrast vs under-rotation at 8/16/32 qubits",
        runner=run_fig8,
        config_type=Fig8Config,
        smoke_overrides={
            "qubit_counts": (8,),
            "repetition_counts": (2,),
            "under_rotations": (0.0, 0.15, 0.30, 0.45),
            "trials": 10,
            "baseline_trials": 15,
            "shots": 150,
        },
        to_rows=_to_rows,
        summarize=lambda series: "min detectable (95%): " + "; ".join(
            f"N={s.n_qubits}/{s.repetitions}-MS: "
            + (f"{s.min_detectable_95:.0%}" if s.min_detectable_95 else "n/a")
            for s in series
        ),
        validation=_validation(),
    )


_register()
