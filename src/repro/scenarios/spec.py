"""Declarative fault-scenario taxonomy.

The paper validates its battery against one fault species — a static
under-rotation on a coupling (Secs. IV-VI) — but motivates it by the
breadth of ways calibration drifts on a real machine (Fig. 7's naturally
drifted system, Table I's fault quadrants).  This module names that
breadth: a :class:`ScenarioSpec` is a declarative, composable description
of *what is wrong with the machine* that compiles onto the existing
:mod:`repro.trap` calibration state and :mod:`repro.noise` error models.

Six scenario kinds (:data:`SCENARIO_KINDS`):

``static-under-rotation``
    The paper's species: fixed fractional under-rotations on one or two
    couplings (the Fig. 6 shape — a large and a small fault).
``over-rotation``
    The mirrored calibration error: the coupling rotates *too far*
    (negative under-rotation).  Same Table I quadrant, opposite sign.
``correlated-burst``
    Several couplings sharing one ion miscalibrate together with
    decaying magnitudes — a charging electrode or beam-pointing event
    damaging a whole star of couplings at once.
``drifting-magnitude``
    A time-varying fault: the magnitude ramps across trials, crossing
    the detectability floor mid-session (Table I's *slow* time scale).
``phase-miscalibration``
    The MS drive phase of a coupling is off by a fixed angle alongside a
    moderate amplitude error.  The phase component moves realizations
    off the XX form, so this scenario exercises the dense-engine
    fallback end to end.  (A *pure* phase offset commutes out of the
    single-output tests — see
    :class:`~repro.trap.faults.CouplingPhaseFault` — which is why the
    taxonomy pairs it with an amplitude component.)
``asymmetric-spam``
    An under-rotation diagnosed through an asymmetric readout channel
    (``p01 != p10``): detection must survive a biased SPAM environment
    that the thresholds and baselines are calibrated under.

Scenarios are machine-size generic: :func:`build_scenario` places the
faults for any ``n_qubits >= 4``, and :meth:`ScenarioSpec.relabel` maps
a scenario through an ion-relabeling permutation (the metamorphic-test
surface).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..noise.models import NoiseParameters
from ..noise.spam import SpamModel
from ..trap.faults import FaultClass, TimeScale, classify_fault

__all__ = [
    "SCENARIO_KINDS",
    "ScenarioFault",
    "ScenarioKindInfo",
    "ScenarioSpec",
    "TAXONOMY",
    "build_scenario",
]

Pair = frozenset[int]

#: The taxonomy's scenario kinds, in canonical (matrix-row) order.
SCENARIO_KINDS = (
    "static-under-rotation",
    "over-rotation",
    "correlated-burst",
    "drifting-magnitude",
    "phase-miscalibration",
    "asymmetric-spam",
)


@dataclass(frozen=True)
class ScenarioKindInfo:
    """Taxonomy metadata for one scenario kind.

    ``phenomenon`` keys into Table I via
    :func:`repro.trap.faults.classify_fault`; ``time_scale`` is the
    third classification axis; ``xx_preserving`` states whether the
    kind's *default instance* stays on the exact XX engine.
    """

    kind: str
    phenomenon: str
    time_scale: TimeScale
    xx_preserving: bool
    summary: str

    @property
    def fault_class(self) -> FaultClass:
        """The Table I quadrant this kind's phenomenon falls into."""
        return classify_fault(self.phenomenon)


#: Kind -> Table I placement and engine routing of the default instance.
TAXONOMY: dict[str, ScenarioKindInfo] = {
    "static-under-rotation": ScenarioKindInfo(
        "static-under-rotation",
        "under-rotation",
        TimeScale.STATIC,
        True,
        "fixed fractional under-rotations on two couplings (Fig. 6 shape)",
    ),
    "over-rotation": ScenarioKindInfo(
        "over-rotation",
        "over-rotation",
        TimeScale.STATIC,
        True,
        "the mirrored calibration error: the coupling rotates too far",
    ),
    "correlated-burst": ScenarioKindInfo(
        "correlated-burst",
        "correlated burst",
        TimeScale.STATIC,
        True,
        "a star of couplings around one ion miscalibrates together",
    ),
    "drifting-magnitude": ScenarioKindInfo(
        "drifting-magnitude",
        "calibration drift",
        TimeScale.SLOW,
        True,
        "fault magnitude ramps across trials, crossing detectability",
    ),
    "phase-miscalibration": ScenarioKindInfo(
        "phase-miscalibration",
        "phase miscalibration",
        TimeScale.STATIC,
        False,
        "MS drive-phase offset plus amplitude error (dense-engine path)",
    ),
    "asymmetric-spam": ScenarioKindInfo(
        "asymmetric-spam",
        "asymmetric readout",
        TimeScale.STATIC,
        True,
        "an under-rotation diagnosed through a biased readout channel",
    ),
}


@dataclass(frozen=True)
class ScenarioFault:
    """One coupling's miscalibration inside a scenario.

    Attributes
    ----------
    pair:
        The affected coupling, as a sorted qubit tuple.
    magnitude:
        Fractional under-rotation at trial 0 (negative = over-rotation).
    phase:
        MS drive-phase offset in radians (0 keeps the coupling on the XX
        form).
    drift_rate:
        Per-trial magnitude increment — the time-varying component of
        the ``drifting-magnitude`` kind.
    """

    pair: tuple[int, int]
    magnitude: float = 0.0
    phase: float = 0.0
    drift_rate: float = 0.0

    def __post_init__(self) -> None:
        if len(set(self.pair)) != 2:
            raise ValueError("a coupling joins exactly two distinct qubits")
        if not -1.0 <= self.magnitude <= 1.0:
            raise ValueError("magnitude outside [-1, 1]")
        if not -math.pi <= self.phase <= math.pi:
            raise ValueError("phase outside [-pi, pi]")

    def magnitude_at(self, trial: int) -> float:
        """The fault's fractional under-rotation at a given trial index."""
        value = self.magnitude + self.drift_rate * trial
        return max(-0.95, min(0.95, value))

    def severity_at(self, trial: int) -> float:
        """Absolute miscalibration magnitude at a trial (ranking key)."""
        return abs(self.magnitude_at(trial))

    @property
    def key(self) -> Pair:
        """The coupling as a frozenset (calibration-state key)."""
        return frozenset(self.pair)


@dataclass(frozen=True)
class ScenarioSpec:
    """A composable fault scenario: faults plus their noise environment.

    A spec is pure data; :meth:`apply` compiles it onto a
    :class:`~repro.trap.machine.VirtualIonTrap`'s calibration state and
    :meth:`noise_parameters` builds the matching
    :class:`~repro.noise.models.NoiseParameters`.  Composability is by
    construction: the fault tuple concatenates and every environment
    field overrides independently (``dataclasses.replace``).
    """

    name: str
    kind: str
    faults: tuple[ScenarioFault, ...] = ()
    amplitude_sigma: float = 0.10
    phase_noise_rms: float = 0.0
    residual_odd_population: float = 0.0
    spam_p01: float = 0.0
    spam_p10: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in TAXONOMY:
            raise ValueError(
                f"unknown scenario kind {self.kind!r}; "
                f"known: {', '.join(SCENARIO_KINDS)}"
            )

    # -- environment -----------------------------------------------------------

    def noise_parameters(self) -> NoiseParameters:
        """The scenario's stochastic-noise environment."""
        spam = (
            SpamModel(self.spam_p01, self.spam_p10)
            if (self.spam_p01 or self.spam_p10)
            else None
        )
        return NoiseParameters(
            amplitude_sigma=self.amplitude_sigma,
            phase_noise_rms=self.phase_noise_rms,
            residual_odd_population=self.residual_odd_population,
            spam=spam,
        )

    def is_xx_preserving(self) -> bool:
        """True when every realization stays diagonal in the X basis.

        Requires an XX-preserving stochastic environment *and* phase-free
        faults; SPAM does not count against it (readout errors enter at
        sampling time, after the unitary evolution).
        """
        return (
            self.phase_noise_rms == 0.0
            and self.residual_odd_population == 0.0
            and all(f.phase == 0.0 for f in self.faults)
        )

    def required_qubits(self) -> int:
        """Smallest machine this scenario fits on."""
        return max((q for f in self.faults for q in f.pair), default=1) + 1

    # -- compilation onto a machine ----------------------------------------------

    def apply(self, machine, trial: int = 0) -> None:
        """Install the scenario's faults into a machine's calibration.

        ``trial`` selects the time point for drifting faults.  The
        machine must already carry the scenario's noise environment
        (:meth:`noise_parameters`) — faults and environment compile onto
        different layers.
        """
        if machine.n_qubits < self.required_qubits():
            raise ValueError(
                f"scenario {self.name!r} needs >= {self.required_qubits()} "
                f"qubits; machine has {machine.n_qubits}"
            )
        for fault in self.faults:
            machine.calibration.set_under_rotation(
                fault.pair, fault.magnitude_at(trial)
            )
            if fault.phase:
                machine.calibration.set_phase_offset(fault.pair, fault.phase)

    # -- ground truth -------------------------------------------------------------

    def ground_truth(self, trial: int = 0, floor: float = 0.0) -> list[Pair]:
        """Faulty couplings at a trial, worst first, above ``floor``.

        The grading reference for detection and identification: ranking
        is by absolute miscalibration magnitude (species-agnostic), ties
        broken by sorted pair.
        """
        ranked = sorted(
            (f for f in self.faults if f.severity_at(trial) >= floor),
            key=lambda f: (-f.severity_at(trial), sorted(f.pair)),
        )
        return [f.key for f in ranked if f.severity_at(trial) > 0.0]

    def top_severity(self, trial: int = 0) -> float:
        """Largest fault magnitude at a trial (0.0 for a clean scenario)."""
        return max((f.severity_at(trial) for f in self.faults), default=0.0)

    # -- transforms ---------------------------------------------------------------

    def relabel(self, perm: list[int] | tuple[int, ...]) -> "ScenarioSpec":
        """The scenario under an ion-relabeling permutation.

        ``perm[q]`` is the new label of ion ``q``.  Relabeling is the
        metamorphic symmetry of the whole stack: it permutes the faulty
        couplings but must leave detection rates and (under a fixed
        seed and label-independent noise) battery fidelities unchanged.
        """
        mapped = tuple(
            replace(f, pair=tuple(sorted(perm[q] for q in f.pair)))
            for f in self.faults
        )
        return replace(self, faults=mapped)

    @property
    def info(self) -> ScenarioKindInfo:
        """Taxonomy metadata of this scenario's kind."""
        return TAXONOMY[self.kind]


def _pair(a: int, b: int) -> tuple[int, int]:
    return tuple(sorted((a, b)))


def build_scenario(kind: str, n_qubits: int = 8) -> ScenarioSpec:
    """The taxonomy's default instance of ``kind``, sized to a machine.

    Fault placements scale with ``n_qubits`` (>= 4) so a matrix run
    exercises different parts of the coupling graph; each kind targets
    its own couplings where the machine size allows, but placements of
    *different* kinds may coincide on small machines (the matrix applies
    one scenario per machine, so this never aliases — callers composing
    several specs onto one machine should check pair overlap first).
    """
    if n_qubits < 4:
        raise ValueError("scenarios need at least four qubits")
    if kind == "static-under-rotation":
        return ScenarioSpec(
            name=f"under-rotation(n={n_qubits})",
            kind=kind,
            faults=(
                ScenarioFault(_pair(0, n_qubits // 2), 0.47),
                ScenarioFault(_pair(0, n_qubits - 1), 0.22),
            ),
            description="Fig. 6 shape: 47% and 22% static under-rotations",
        )
    if kind == "over-rotation":
        return ScenarioSpec(
            name=f"over-rotation(n={n_qubits})",
            kind=kind,
            faults=(
                ScenarioFault(_pair(1, n_qubits // 2 + 1), -0.47),
            ),
            description="47% over-rotation (negative calibration error)",
        )
    if kind == "correlated-burst":
        width = min(3, n_qubits - 1)
        decay = 0.55
        return ScenarioSpec(
            name=f"correlated-burst(n={n_qubits})",
            kind=kind,
            faults=tuple(
                ScenarioFault(_pair(0, 1 + k), 0.45 * decay**k)
                for k in range(width)
            ),
            description=(
                "star of couplings around ion 0 with decaying magnitudes"
            ),
        )
    if kind == "drifting-magnitude":
        return ScenarioSpec(
            name=f"drifting-magnitude(n={n_qubits})",
            kind=kind,
            faults=(
                ScenarioFault(
                    _pair(1, n_qubits - 2), magnitude=0.06, drift_rate=0.08
                ),
            ),
            description=(
                "magnitude ramps 6% + 8%/trial, crossing detectability"
            ),
        )
    if kind == "phase-miscalibration":
        return ScenarioSpec(
            name=f"phase-miscalibration(n={n_qubits})",
            kind=kind,
            faults=(
                ScenarioFault(_pair(0, 3), magnitude=0.35, phase=0.40),
            ),
            description=(
                "0.4 rad MS drive-phase offset with a 35% amplitude error"
            ),
        )
    if kind == "asymmetric-spam":
        return ScenarioSpec(
            name=f"asymmetric-spam(n={n_qubits})",
            kind=kind,
            faults=(
                ScenarioFault(_pair(2, n_qubits - 1), 0.40),
            ),
            spam_p01=0.02,
            spam_p10=0.004,
            description=(
                "40% under-rotation read out through a biased SPAM channel"
            ),
        )
    raise ValueError(
        f"unknown scenario kind {kind!r}; known: {', '.join(SCENARIO_KINDS)}"
    )

