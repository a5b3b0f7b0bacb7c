"""Fig. 6: single-output tests with artificially introduced faults.

8-qubit machine; artificial under-rotations of **47 %** on coupling
``{0,4}`` and **22 %** on ``{0,7}``; every circuit measured 300 times.
The figure shows the fidelity of each test in the two-MS-gate and
four-MS-gate batteries; thresholds of **0.45** (2-MS) and **0.25** (4-MS)
separate positive (fault-containing) tests from negative ones.

The battery is the protocol's non-adaptive family: the 2n class tests plus
the equal/unequal-bits tests (which catch ``{0,7}``, a bit-complementary
pair that no class test contains).  The simulator uses the Sec. VI error
model: 10 % random amplitude errors on all two-qubit gates, residual
motional coupling, 1/f phase noise and sub-1 % SPAM.  The residual-kick
strength (3 % odd population per MS gate) absorbs the per-gate
decoherence the paper observes but does not enumerate, and is tuned so
the clean fidelity levels sit where the paper's fixed thresholds
separate fault-containing tests: clean 2-MS ~0.55-0.75 over the 0.45
threshold, clean 4-MS ~0.3-0.5 over the 0.25 threshold (consistent with
Fig. 7's 4-MS thresholds of 0.38/0.46).

Expected shape (as in the paper): the 47 % fault is resolved at both
depths; the 22 % fault needs the deeper 4-MS tests ("deeper circuits show
higher contrast").  The 47 % resolution predicates hold across seeds;
the 22 % fault's 4-MS separation is marginal by construction (its bar
sits just below the threshold in the paper too), so
``all_faults_resolved(4)`` succeeds only in about half the seeded runs —
the validation suite (``python -m repro validate``) grades it with a
confidence interval over replicates instead of a point assertion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...core.multi_fault import battery_specs as _battery_specs
from ...core.protocol import FixedThresholds, TestExecutor
from ...core.tests_builder import TestSpec
from ...noise.models import NoiseParameters
from ...noise.spam import SpamModel
from ...trap.faults import CouplingFault
from ...trap.machine import VirtualIonTrap

__all__ = ["Fig6Config", "Fig6Row", "Fig6Result", "run_fig6", "battery_specs"]

Pair = frozenset[int]


@dataclass(frozen=True)
class Fig6Config:
    """Experiment parameters (defaults are the paper's).

    Noise strengths follow the Sec. VI description (10 % amplitude
    noise, residual bus coupling, 1/f phase noise, sub-1 % SPAM); the
    residual-kick strength is the recalibrated 3 % (see the module
    docstring) so that the paper's fixed 0.45/0.25 thresholds actually
    separate fault-containing tests at both depths.
    """

    n_qubits: int = 8
    faults: tuple[tuple[tuple[int, int], float], ...] = (
        ((0, 4), 0.47),
        ((0, 7), 0.22),
    )
    shots: int = 300
    threshold_2ms: float = 0.45
    threshold_4ms: float = 0.25
    amplitude_sigma: float = 0.10
    residual_odd_population: float = 0.03
    phase_noise_rms: float = 0.08
    spam_flip: float = 0.005
    seed: int = 7


@dataclass(frozen=True)
class Fig6Row:
    """One test's measured fidelity and verdict."""

    test_name: str
    repetitions: int
    fidelity: float
    threshold: float
    flagged: bool
    contains_fault: bool
    contains_largest: bool


@dataclass(frozen=True)
class Fig6Result:
    """All battery rows plus the injected faults, largest first."""

    rows: tuple[Fig6Row, ...]
    #: Faults injected, largest first: ((pair, under_rotation), ...).
    faults: tuple[tuple[tuple[int, int], float], ...]

    def rows_for(self, repetitions: int) -> list[Fig6Row]:
        """Rows of the battery with the given gate-repetition count."""
        return [r for r in self.rows if r.repetitions == repetitions]

    def largest_fault_resolved(self, repetitions: int) -> bool:
        """Tests containing the 47 % fault fail; clean tests pass."""
        rows = self.rows_for(repetitions)
        return all(
            row.flagged == True
            for row in rows
            if row.contains_largest
        ) and all(not row.flagged for row in rows if not row.contains_fault)

    def all_faults_resolved(self, repetitions: int) -> bool:
        """Every fault-containing test fails; every clean test passes."""
        return all(
            row.flagged == row.contains_fault
            for row in self.rows_for(repetitions)
        )


def battery_specs(
    n_qubits: int, repetitions: int, relevant: set[Pair] | None = None
) -> list[TestSpec]:
    """The full non-adaptive battery: class tests + equal/unequal-bits.

    Re-exported from :func:`repro.core.multi_fault.battery_specs` — the
    single source of the battery definition, shared with fig9's
    baseline calibration and the ranked loop.
    """
    return _battery_specs(n_qubits, repetitions, relevant)


def run_fig6(cfg: Fig6Config | None = None) -> Fig6Result:
    """Run both batteries on the artificially miscalibrated machine."""
    cfg = cfg or Fig6Config()
    noise = NoiseParameters(
        amplitude_sigma=cfg.amplitude_sigma,
        residual_odd_population=cfg.residual_odd_population,
        phase_noise_rms=cfg.phase_noise_rms,
        spam=SpamModel(cfg.spam_flip, cfg.spam_flip) if cfg.spam_flip else None,
    )
    machine = VirtualIonTrap(cfg.n_qubits, noise=noise, seed=cfg.seed)
    fault_pairs: set[Pair] = set()
    for pair, under in cfg.faults:
        machine.inject_fault(CouplingFault(frozenset(pair), under))
        fault_pairs.add(frozenset(pair))
    largest = frozenset(cfg.faults[0][0])
    thresholds = FixedThresholds(
        by_repetitions=((2, cfg.threshold_2ms), (4, cfg.threshold_4ms))
    )
    executor = TestExecutor(machine, thresholds=thresholds, shots=cfg.shots)
    rows: list[Fig6Row] = []
    for repetitions in (2, 4):
        specs = battery_specs(cfg.n_qubits, repetitions)
        results = executor.execute_round(specs)
        for spec, result in zip(specs, results):
            rows.append(
                Fig6Row(
                    test_name=spec.name,
                    repetitions=repetitions,
                    fidelity=result.fidelity,
                    threshold=result.threshold,
                    flagged=result.failed,
                    contains_fault=any(p in fault_pairs for p in spec.pairs),
                    contains_largest=largest in spec.pairs,
                )
            )
    return Fig6Result(rows=tuple(rows), faults=cfg.faults)


def _json_rows(result: dict, repetitions: int) -> list[dict]:
    """One depth's rows from a runner-payload (JSON-able) result."""
    return [r for r in result["rows"] if r["repetitions"] == repetitions]


def _json_largest_resolved(result: dict, repetitions: int) -> bool:
    """``largest_fault_resolved`` evaluated on the JSON payload shape."""
    rows = _json_rows(result, repetitions)
    return all(r["flagged"] for r in rows if r["contains_largest"]) and all(
        not r["flagged"] for r in rows if not r["contains_fault"]
    )


def _json_all_resolved(result: dict, repetitions: int) -> bool:
    """``all_faults_resolved`` evaluated on the JSON payload shape."""
    return all(
        r["flagged"] == r["contains_fault"]
        for r in _json_rows(result, repetitions)
    )


def _json_contrast(result: dict, repetitions: int) -> float:
    """22 %-fault-test fidelity relative to the clean mean at one depth.

    Lower is stronger contrast; the paper's "deeper circuits show higher
    contrast" claim is this ratio shrinking from 2-MS to 4-MS.
    """
    rows = _json_rows(result, repetitions)
    faulty = [
        r["fidelity"]
        for r in rows
        if r["contains_fault"] and not r["contains_largest"]
    ]
    clean = [r["fidelity"] for r in rows if not r["contains_fault"]]
    return float(np.mean(faulty)) / float(np.mean(clean))


def _validation():
    """Fig. 6's paper-fidelity locks (see EXPERIMENTS.md "Validation")."""
    from ...validation.specs import Expectation, FigureValidation

    return FigureValidation(
        replicates=8,
        expectations=(
            Expectation(
                check_id="fig6.largest_fault_resolved_2ms",
                description=(
                    "47% fault separated by the paper's 0.45 threshold "
                    "in the 2-MS battery"
                ),
                kind="ci-lower",
                target=0.5,
                extract=lambda ctx: [
                    _json_largest_resolved(r, 2) for r in ctx.results
                ],
            ),
            Expectation(
                check_id="fig6.largest_fault_resolved_4ms",
                description=(
                    "47% fault separated by the paper's 0.25 threshold "
                    "in the 4-MS battery"
                ),
                kind="ci-lower",
                target=0.5,
                extract=lambda ctx: [
                    _json_largest_resolved(r, 4) for r in ctx.results
                ],
            ),
            Expectation(
                check_id="fig6.default_run_resolves_largest",
                description=(
                    "the default-seed run resolves the 47% fault at both "
                    "depths (what 'repro run fig6' prints)"
                ),
                kind="band",
                target=(0.5, 1.5),
                extract=lambda ctx: float(
                    _json_largest_resolved(ctx.first, 2)
                    and _json_largest_resolved(ctx.first, 4)
                ),
                drift_tolerance=0.0,
            ),
            Expectation(
                check_id="fig6.deeper_contrast",
                description=(
                    "deeper circuits show higher contrast: the 22% "
                    "fault's relative fidelity drop grows from 2-MS to "
                    "4-MS"
                ),
                kind="ci-lower",
                target=0.5,
                extract=lambda ctx: [
                    _json_contrast(r, 4) < _json_contrast(r, 2)
                    for r in ctx.results
                ],
            ),
            Expectation(
                check_id="fig6.all_faults_resolved_4ms",
                description=(
                    "22% fault also separated at 4-MS (marginal in the "
                    "paper: its bar sits just below the threshold)"
                ),
                kind="ci-lower",
                target=0.1,
                hard=False,
                drift_tolerance=0.5,
                extract=lambda ctx: [
                    _json_all_resolved(r, 4) for r in ctx.results
                ],
            ),
        ),
    )


def _register() -> None:
    """Hook this experiment into the unified runner registry."""
    from ..registry import register_experiment

    register_experiment(
        name="fig6",
        anchor="Fig. 6",
        title="Test batteries against artificially injected faults",
        runner=run_fig6,
        config_type=Fig6Config,
        smoke_overrides={"shots": 150},
        to_rows=lambda r: (
            [
                "test_name",
                "repetitions",
                "fidelity",
                "threshold",
                "flagged",
                "contains_fault",
                "contains_largest",
            ],
            [
                [
                    row.test_name,
                    row.repetitions,
                    row.fidelity,
                    row.threshold,
                    row.flagged,
                    row.contains_fault,
                    row.contains_largest,
                ]
                for row in r.rows
            ],
        ),
        summarize=lambda r: (
            f"47% fault resolved: 2-MS {r.largest_fault_resolved(2)}, "
            f"4-MS {r.largest_fault_resolved(4)}; all faults resolved: "
            f"2-MS {r.all_faults_resolved(2)}, 4-MS {r.all_faults_resolved(4)}"
        ),
        validation=_validation(),
    )


_register()
