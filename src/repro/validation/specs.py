"""Declarative per-figure expectation specs.

Each experiment module registers a :class:`FigureValidation` alongside
its runner entry (see ``register_experiment(validation=...)``): how many
seeded replicates to sample, and a tuple of :class:`Expectation` rows
declaring what the paper claims and how strictly to grade it.

An expectation extracts an observation from the replicated results and
grades it with one of four criteria:

``ci-lower``
    The observation is a ``(successes, trials)`` pair (or a list of
    per-replicate booleans); passes when the binomial confidence bound's
    lower end exceeds ``target`` — the statistically sound version of
    "the predicate holds".
``ci-lower-each``
    The observation is a mapping ``label -> (successes, trials)``; every
    label's CI lower bound must clear the shared ``target`` — used for
    per-scenario matrices where each row must hold on its own (a strong
    row must not mask a broken one, which pooling would allow).
``band``
    A scalar that must land inside ``(lo, hi)`` — used for Table II
    probabilities against the paper's values.
``non-increasing`` / ``non-decreasing``
    A sequence that must be monotonic within an additive ``slack`` —
    used for contrast-vs-depth and identification-vs-sigma trends.

Extractors receive a :class:`ValidationContext` and read the runner's
JSON payloads (``payload["result"]``), never live result objects, so
validation works identically on fresh runs and cache hits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .stats import binomial_ci

__all__ = [
    "Check",
    "Expectation",
    "FigureValidation",
    "ValidationContext",
    "evaluate_expectations",
]


@dataclass(frozen=True)
class ValidationContext:
    """What an extractor sees: one experiment's replicated results.

    Attributes
    ----------
    experiment:
        Registered experiment name.
    preset:
        ``"smoke"`` or ``"full"``.
    results:
        One JSON-able result per replicate (the runner payload's
        ``result`` entry), in replicate order.
    configs:
        The JSON-able config of each replicate, aligned with
        ``results``.
    """

    experiment: str
    preset: str
    results: tuple[Any, ...]
    configs: tuple[Any, ...]

    @property
    def first(self) -> Any:
        """The first replicate's result (the experiment's default seed)."""
        return self.results[0]


@dataclass(frozen=True)
class Expectation:
    """One declarative check over an experiment's replicated results.

    Attributes
    ----------
    check_id:
        Stable identifier (``"fig9.top1_at_low_sigma"``) — the golden
        record and report key.
    description:
        The paper claim being locked, in one human line.
    kind:
        ``"ci-lower"``, ``"ci-lower-each"``, ``"band"``,
        ``"non-increasing"`` or ``"non-decreasing"``.
    extract:
        ``extract(context)`` returning the kind's observation shape.
    target:
        ``ci-lower``/``ci-lower-each``: the probability the CI lower
        bound(s) must clear.  ``band``: the ``(lo, hi)`` interval.
        Monotonic kinds: unused.
    slack:
        Additive tolerance for the monotonic kinds.
    confidence, method:
        CI construction for ``ci-lower`` (Wilson by default;
        ``"clopper-pearson"`` for the exact interval).
    hard:
        Hard checks gate the validate exit code; soft checks are
        reported (and golden-tracked) only — used for claims the paper
        itself shows as marginal.
    drift_tolerance:
        Allowed absolute drift of :attr:`Check.value` against the
        committed golden record (``None`` exempts the check).
    """

    check_id: str
    description: str
    kind: str
    extract: Callable[[ValidationContext], Any]
    target: Any = None
    slack: float = 0.0
    confidence: float = 0.95
    method: str = "wilson"
    hard: bool = True
    drift_tolerance: float | None = 0.25


@dataclass(frozen=True)
class FigureValidation:
    """An experiment's validation contract.

    Attributes
    ----------
    replicates:
        How many seeded copies of the experiment to run; seeds are
        ``base_seed + 0 .. base_seed + replicates - 1`` over
        ``seed_field`` (replicate 0 is the experiment's default
        configuration).
    seed_field:
        Config field carrying the seed.
    overrides:
        Extra config overrides applied to every replicate (on top of
        the preset), e.g. a panel restriction.
    expectations:
        The checks to grade.
    """

    expectations: tuple[Expectation, ...]
    replicates: int = 1
    seed_field: str = "seed"
    overrides: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Check:
    """One graded expectation, ready for reporting and golden tracking."""

    check_id: str
    description: str
    passed: bool
    hard: bool
    observed: str
    target: str
    #: Scalar fingerprint tracked by the golden drift checker
    #: (``None`` exempts the check from drift tracking).
    value: float | None
    drift_tolerance: float | None


def evaluate_expectations(
    validation: FigureValidation, context: ValidationContext
) -> list[Check]:
    """Grade every expectation of one experiment's contract."""
    checks = []
    for exp in validation.expectations:
        observation = exp.extract(context)
        if exp.kind == "ci-lower":
            checks.append(_grade_ci_lower(exp, observation))
        elif exp.kind == "ci-lower-each":
            checks.append(_grade_ci_lower_each(exp, observation))
        elif exp.kind == "band":
            checks.append(_grade_band(exp, observation))
        elif exp.kind in ("non-increasing", "non-decreasing"):
            checks.append(_grade_monotonic(exp, observation))
        else:
            raise ValueError(f"unknown expectation kind {exp.kind!r}")
    return checks


def _grade_ci_lower(exp: Expectation, observation: Any) -> Check:
    successes, trials = _as_counts(observation)
    ci = binomial_ci(successes, trials, exp.confidence, exp.method)
    passed = ci.lower > float(exp.target)
    return Check(
        check_id=exp.check_id,
        description=exp.description,
        passed=passed,
        hard=exp.hard,
        observed=(
            f"{successes}/{trials} "
            f"(CI {ci.lower:.3f}..{ci.upper:.3f} @{exp.confidence:.0%})"
        ),
        target=f"CI lower bound > {float(exp.target):.2f}",
        value=ci.estimate,
        drift_tolerance=exp.drift_tolerance,
    )


def _grade_ci_lower_each(exp: Expectation, observation: Any) -> Check:
    """Grade a per-label count matrix: every label's CI must clear target.

    An empty mapping (nothing labelled was measured) fails the check
    rather than passing vacuously.
    """
    if not isinstance(observation, dict):
        raise ValueError(
            f"{exp.check_id}: ci-lower-each needs a label -> counts mapping"
        )
    target = f"every label's CI lower bound > {float(exp.target):.2f}"
    if not observation:
        return Check(
            check_id=exp.check_id,
            description=exp.description,
            passed=False,
            hard=exp.hard,
            observed="no labelled counts",
            target=target,
            value=None,
            drift_tolerance=exp.drift_tolerance,
        )
    cis = {
        label: binomial_ci(*_as_counts(counts), exp.confidence, exp.method)
        for label, counts in observation.items()
    }
    worst_label = min(cis, key=lambda label: cis[label].lower)
    passed = all(ci.lower > float(exp.target) for ci in cis.values())
    observed = ", ".join(
        f"{label} {ci.successes}/{ci.trials}"
        for label, ci in sorted(cis.items())
    )
    worst = cis[worst_label]
    return Check(
        check_id=exp.check_id,
        description=exp.description,
        passed=passed,
        hard=exp.hard,
        observed=(
            f"{observed} (worst: {worst_label} CI lower {worst.lower:.3f})"
        ),
        target=target,
        value=worst.estimate,
        drift_tolerance=exp.drift_tolerance,
    )


def _grade_band(exp: Expectation, observation: Any) -> Check:
    value = float(observation)
    lo, hi = exp.target
    passed = float(lo) <= value <= float(hi)
    return Check(
        check_id=exp.check_id,
        description=exp.description,
        passed=passed,
        hard=exp.hard,
        observed=f"{value:.3f}",
        target=f"in [{float(lo):.2f}, {float(hi):.2f}]",
        value=value,
        drift_tolerance=exp.drift_tolerance,
    )


def _grade_monotonic(exp: Expectation, observation: Sequence[float]) -> Check:
    values = [float(v) for v in observation]
    if len(values) < 2:
        raise ValueError(
            f"{exp.check_id}: monotonic checks need at least two values"
        )
    diffs = [b - a for a, b in zip(values, values[1:])]
    if exp.kind == "non-increasing":
        margin = -max(diffs)
    else:
        margin = min(diffs)
    passed = margin >= -exp.slack
    arrow = "dec" if exp.kind == "non-increasing" else "inc"
    return Check(
        check_id=exp.check_id,
        description=exp.description,
        passed=passed,
        hard=exp.hard,
        observed=(
            "["
            + ", ".join(f"{v:.3f}" for v in values)
            + f"] (worst step {margin:+.3f})"
        ),
        target=f"{arrow} within slack {exp.slack:.3f}",
        value=margin,
        drift_tolerance=exp.drift_tolerance,
    )


def _as_counts(observation: Any) -> tuple[int, int]:
    """Accept ``(successes, trials)`` or a list of per-replicate bools."""
    if (
        isinstance(observation, (tuple, list))
        and len(observation) == 2
        and isinstance(observation[0], int)
        and isinstance(observation[1], int)
        and not isinstance(observation[0], bool)
    ):
        return observation[0], observation[1]
    flags = [bool(v) for v in observation]
    return sum(flags), len(flags)
