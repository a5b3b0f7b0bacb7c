"""The arena's common diagnoser surface and its competitors.

Every diagnosis strategy in the repo — the paper's non-adaptive battery,
brute-force point checks, adaptive binary search, the contrast-ranked
multi-fault loop and the Theorem V.10 syndrome decode — is wrapped
behind one interface::

    diagnoser.diagnose(machine, budget) -> Diagnosis

so the arena can run them head-to-head over the same scenario machines
under the same clock.  Three reference diagnosers bracket the scoring
scale, after the DXC competition's ``RunDiagnoser`` harness
(SNIPPETS.md snippets 1-2):

* :class:`NullDiagnoser` — never detects anything (the floor: any real
  strategy must beat its detection rate on faulty machines and tie its
  perfect score on clean ones).
* :class:`RandomDiagnoser` — flips a ``p_detect`` coin and, on heads,
  accuses one uniformly random coupling.  Its detection rate has an
  *analytic* expectation, which makes "battery beats Random" a
  statistically grounded golden check rather than an empirical one.
* :class:`WorstDiagnoser` — always detects and accuses every coupling:
  perfect recall, maximal ambiguity group, the precision floor.

Adapters convert :class:`~repro.arena.budget.SoftBudgetExceeded` into a
partial, ``timed_out`` diagnosis; the hard-deadline kill is handled one
level up by :func:`run_bounded`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.binary_search import AdaptiveBinarySearch
from ..core.combinatorics import all_couplings
from ..core.multi_fault import (
    ContrastVerifyConfig,
    MagnitudeSearchConfig,
    MultiFaultProtocol,
    battery_specs,
)
from ..core.point_check import PointCheckStrategy
from ..core.protocol import MatchBackend, TestResult, ThresholdPolicy
from .budget import (
    BudgetedExecutor,
    DiagnosisTimeout,
    SoftBudgetExceeded,
    TimeBudget,
    hard_deadline,
    has_hard_deadline,
    run_with_thread_deadline,
)

__all__ = [
    "BASELINE_NAMES",
    "BatteryDiagnoser",
    "BinarySearchDiagnoser",
    "Diagnosis",
    "DiagnoserContext",
    "NullDiagnoser",
    "PointCheckDiagnoser",
    "RandomDiagnoser",
    "RankedDiagnoser",
    "STRATEGY_NAMES",
    "SyndromeDiagnoser",
    "WorstDiagnoser",
    "build_diagnoser",
    "run_bounded",
]

Pair = frozenset[int]

#: The five real strategies, in the order the leaderboard lists them.
STRATEGY_NAMES = (
    "battery",
    "point-check",
    "binary-search",
    "contrast-ranked",
    "syndrome",
)

#: The scoring floors/ceilings.
BASELINE_NAMES = ("null", "random", "worst")


@dataclass(frozen=True)
class Diagnosis:
    """What one diagnoser concluded about one machine, and what it cost.

    ``claimed`` is the accused couplings best-first (the diagnoser's own
    confidence order); ``ambiguity_group`` is every coupling the
    diagnoser could not exonerate — isolation precision is scored
    against its size.  Costs come from the session's
    :class:`~repro.core.cost.CostTracker`; a baseline that runs no
    quantum circuits reports zeros.
    """

    diagnoser: str
    detected: bool
    claimed: tuple[Pair, ...] = ()
    ambiguity_group: frozenset[Pair] = frozenset()
    tests_used: int = 0
    shots: int = 0
    adaptations: int = 0
    timed_out: bool = False

    def claimed_sorted(self) -> list[tuple[int, int]]:
        """Accused pairs in claim order, as sorted int tuples (for JSON)."""
        return [tuple(sorted(p)) for p in self.claimed]


@dataclass(frozen=True)
class DiagnoserContext:
    """Shared per-cell configuration every adapter builds its session from.

    One context is constructed per (scenario kind, machine size) arena
    cell so all diagnosers face identical thresholds, shot budgets and
    amplification schedules — the arena compares *strategies*, not
    tunings.

    Attributes
    ----------
    n_qubits:
        Machine size.
    thresholds:
        Pass/fail policy (usually per-cell
        :class:`~repro.analysis.detection.CalibratedThresholds`).
    shots:
        Shots per battery/point/search test circuit.
    repetition_counts:
        Ascending amplification schedule; the deepest entry is the
        working depth for single-depth strategies and the canary depth
        for the multi-fault loops.
    baselines:
        Clean-machine :class:`~repro.analysis.detection.BaselineBank`
        (required by the contrast-ranked adapter; ``None`` elsewhere).
    shot_batch:
        Optional noise-realization batching threaded to the backend.
    verify:
        Verification knobs of the contrast-ranked mode.
    max_faults:
        Iteration safety bound for the multi-fault strategies.
    random_detect_rate:
        The Random baseline's coin bias — also its analytic detection
        expectation, which the golden checks test against.
    """

    n_qubits: int
    thresholds: ThresholdPolicy
    shots: int = 300
    repetition_counts: tuple[int, ...] = (2, 4)
    baselines: object | None = None
    shot_batch: int | None = None
    verify: ContrastVerifyConfig = field(default_factory=ContrastVerifyConfig)
    max_faults: int = 4
    random_detect_rate: float = 0.25

    @property
    def deepest(self) -> int:
        """The working amplification (last repetition count)."""
        return self.repetition_counts[-1]

    def relevant(self) -> set[Pair]:
        """All couplings of the machine (every adapter's suspect set)."""
        return set(all_couplings(self.n_qubits))

    def executor(self, machine: MatchBackend, budget: TimeBudget) -> BudgetedExecutor:
        """A budget-cooperative executor bound to one diagnosis session."""
        return BudgetedExecutor(
            machine,
            thresholds=self.thresholds,
            shots=self.shots,
            shot_batch=self.shot_batch,
            budget=budget,
        )


class _Adapter:
    """Shared plumbing for strategy adapters (context + cost read-out)."""

    name = "adapter"

    def __init__(self, ctx: DiagnoserContext) -> None:
        """Bind the adapter to one arena cell's shared context."""
        self.ctx = ctx

    def _diagnosis(
        self,
        executor: BudgetedExecutor,
        detected: bool,
        claimed: tuple[Pair, ...],
        ambiguity: frozenset[Pair],
        timed_out: bool = False,
    ) -> Diagnosis:
        """Assemble a :class:`Diagnosis` from the session's cost tracker."""
        return Diagnosis(
            diagnoser=self.name,
            detected=detected,
            claimed=claimed,
            ambiguity_group=ambiguity,
            tests_used=executor.cost.circuit_runs,
            shots=executor.cost.shots,
            adaptations=executor.cost.adaptations,
            timed_out=timed_out,
        )


class BatteryDiagnoser(_Adapter):
    """The paper's non-adaptive battery (2n class + equal-bits tests).

    Runs the full battery at every repetition count in one predetermined
    batch — zero adaptations — then decodes combinatorially: a coupling
    is exonerated by any passing test containing it; the ambiguity group
    is the intersection of the failing tests' couplings minus the
    exonerated set (single-fault logic), falling back to the union when
    faults overlap and the intersection empties out.
    """

    name = "battery"

    def diagnose(self, machine: MatchBackend, budget: TimeBudget) -> Diagnosis:
        """Run the batteries, decode pass/fail combinatorially."""
        executor = self.ctx.executor(machine, budget)
        results: list[TestResult] = []
        timed_out = False
        try:
            for repetitions in self.ctx.repetition_counts:
                specs = battery_specs(self.ctx.n_qubits, repetitions)
                results.extend(executor.execute_round(specs))
        except SoftBudgetExceeded:
            timed_out = True
        detected = any(r.failed for r in results)
        ambiguity, claimed = self._decode(results) if detected else (frozenset(), ())
        return self._diagnosis(executor, detected, claimed, ambiguity, timed_out)

    def _decode(
        self, results: list[TestResult]
    ) -> tuple[frozenset[Pair], tuple[Pair, ...]]:
        """Ambiguity group + best-first claims from battery pass/fails.

        Decoding uses only the deepest repetition count that failed at
        all: a *passing* shallow test does not exonerate its couplings
        (a small fault may sit under-amplified below threshold there),
        but a passing test at the decode depth does.
        """
        deepest_failing = max(
            (r.spec.repetitions for r in results if r.failed), default=0
        )
        results = [r for r in results if r.spec.repetitions == deepest_failing]
        failing = [r for r in results if r.failed]
        exonerated: set[Pair] = set()
        for r in results:
            if r.passed:
                exonerated.update(r.spec.pairs)
        candidates: set[Pair] | None = None
        for r in failing:
            pairs = set(r.spec.pairs)
            candidates = pairs if candidates is None else candidates & pairs
        candidates = (candidates or set()) - exonerated
        if not candidates:
            # Overlapping faults: no single pair explains every failure.
            candidates = {
                p for r in failing for p in r.spec.pairs
            } - exonerated
        if not candidates:
            # Contradictory outcomes (noise): nothing is exonerable.
            candidates = self.ctx.relevant()
        # Best-first: the pair implicated by the most failing tests.
        votes = {
            p: sum(1 for r in failing if p in r.spec.pairs) for p in candidates
        }
        claimed = tuple(
            sorted(candidates, key=lambda p: (-votes[p], sorted(p)))
        )
        return frozenset(candidates), claimed


class PointCheckDiagnoser(_Adapter):
    """Brute-force per-coupling point checks (Fig. 10's denominator).

    One single-coupling circuit per pair at the working depth; failing
    pairs are claimed worst-fidelity-first and *are* the ambiguity group
    (point checks exonerate every passing pair individually).
    """

    name = "point-check"

    def diagnose(self, machine: MatchBackend, budget: TimeBudget) -> Diagnosis:
        """Run every point check; claim the failing pairs."""
        executor = self.ctx.executor(machine, budget)
        strategy = PointCheckStrategy(
            self.ctx.n_qubits, repetitions=self.ctx.deepest
        )
        results: list[TestResult] = []
        timed_out = False
        try:
            results = strategy.run(executor)
        except SoftBudgetExceeded:
            timed_out = True
        failing = sorted(
            (r for r in results if r.failed),
            key=lambda r: (r.fidelity, sorted(r.spec.pairs[0])),
        )
        claimed = tuple(r.spec.pairs[0] for r in failing)
        return self._diagnosis(
            executor, bool(claimed), claimed, frozenset(claimed), timed_out
        )


class BinarySearchDiagnoser(_Adapter):
    """The adaptive halving search (Sec. IV), repeated for multi-fault.

    Each found coupling is removed from the suspect set and the search
    restarts, up to ``max_faults`` times; every halving step pays one
    adaptation — the cost Fig. 10 shows dominating wall-clock at scale.
    """

    name = "binary-search"

    def diagnose(self, machine: MatchBackend, budget: TimeBudget) -> Diagnosis:
        """Repeat find-one searches, excluding found couplings."""
        executor = self.ctx.executor(machine, budget)
        remaining = self.ctx.relevant()
        found: list[Pair] = []
        timed_out = False
        try:
            for _ in range(self.ctx.max_faults):
                if not remaining:
                    break
                search = AdaptiveBinarySearch(
                    self.ctx.n_qubits,
                    relevant=remaining,
                    repetitions=self.ctx.deepest,
                )
                outcome = search.find_one(executor)
                if outcome.identified is None:
                    break
                found.append(outcome.identified)
                remaining.discard(outcome.identified)
        except SoftBudgetExceeded:
            timed_out = True
        return self._diagnosis(
            executor, bool(found), tuple(found), frozenset(found), timed_out
        )


class RankedDiagnoser(_Adapter):
    """PR 4's contrast-ranked multi-fault loop (Fig. 5, contrast mode).

    Normalizes battery fidelities by the cell's clean baselines, ranks
    couplings by fault/no-fault contrast and confirms top candidates
    with high-precision verification tests.  Requires the context's
    :class:`~repro.analysis.detection.BaselineBank`.
    """

    name = "contrast-ranked"

    def diagnose(self, machine: MatchBackend, budget: TimeBudget) -> Diagnosis:
        """Run the contrast-ranked Fig. 5 loop to completion."""
        if self.ctx.baselines is None:
            raise ValueError("contrast-ranked diagnoser needs baselines")
        executor = self.ctx.executor(machine, budget)
        protocol = MultiFaultProtocol(
            self.ctx.n_qubits,
            magnitude=MagnitudeSearchConfig((self.ctx.deepest,)),
            max_faults=self.ctx.max_faults,
            canary_style="battery",
        )
        try:
            report = protocol.diagnose_all_ranked(
                executor, self.ctx.baselines, verify=self.ctx.verify
            )
        except SoftBudgetExceeded:
            return self._diagnosis(
                executor, False, (), frozenset(), timed_out=True
            )
        claimed = tuple(report.identified_by_magnitude())
        return self._diagnosis(
            executor, bool(claimed), claimed, frozenset(claimed)
        )


class SyndromeDiagnoser(_Adapter):
    """The literal Theorem V.10 syndrome decode inside the Fig. 5 loop.

    Magnitude search over the full repetition schedule, then the 3n-1
    single-fault protocol (class syndrome, equal-bits round, verify) per
    iteration.  Exact when one fault dominates; overlapping faults union
    their syndromes into undecodable patterns — detection without
    isolation, which the arena scores as an empty claim set.
    """

    name = "syndrome"

    def diagnose(self, machine: MatchBackend, budget: TimeBudget) -> Diagnosis:
        """Run the syndrome-mode Fig. 5 loop to completion."""
        executor = self.ctx.executor(machine, budget)
        protocol = MultiFaultProtocol(
            self.ctx.n_qubits,
            magnitude=MagnitudeSearchConfig(self.ctx.repetition_counts),
            max_faults=self.ctx.max_faults,
            canary_style="battery",
        )
        try:
            report = protocol.diagnose_all(executor)
        except SoftBudgetExceeded:
            return self._diagnosis(
                executor, False, (), frozenset(), timed_out=True
            )
        claimed = tuple(report.identified)
        # An aborted session (failed canary, undecodable syndrome) still
        # *detected* a fault even when it could not isolate one.
        detected = bool(claimed) or not report.completed
        ambiguity = frozenset(claimed) if claimed else (
            frozenset(self.ctx.relevant()) if detected else frozenset()
        )
        return self._diagnosis(executor, detected, claimed, ambiguity)


class NullDiagnoser(_Adapter):
    """The floor: never detects, never claims, costs nothing."""

    name = "null"

    def diagnose(self, machine: MatchBackend, budget: TimeBudget) -> Diagnosis:
        """Report a clean machine unconditionally."""
        return Diagnosis(diagnoser=self.name, detected=False)


class RandomDiagnoser(_Adapter):
    """Coin-flip baseline with an analytic detection expectation.

    Detects with probability ``ctx.random_detect_rate`` and, on
    detection, accuses one uniformly random coupling.  The coin stream
    is seeded from the machine's own seed, so reruns are reproducible
    and relabeling the qubits leaves the verdict unchanged (the accused
    pair is drawn by index, not by label semantics).
    """

    name = "random"

    def diagnose(self, machine: MatchBackend, budget: TimeBudget) -> Diagnosis:
        """Flip the detect coin; accuse one random pair on heads."""
        seed = int(getattr(machine, "seed", 0))
        rng = np.random.default_rng((seed, 0x4A5A))
        if rng.random() >= self.ctx.random_detect_rate:
            return Diagnosis(diagnoser=self.name, detected=False)
        pairs = sorted(self.ctx.relevant(), key=sorted)
        pair = pairs[int(rng.integers(len(pairs)))]
        return Diagnosis(
            diagnoser=self.name,
            detected=True,
            claimed=(pair,),
            ambiguity_group=frozenset((pair,)),
        )


class WorstDiagnoser(_Adapter):
    """The ceiling-recall floor-precision baseline: accuse everything."""

    name = "worst"

    def diagnose(self, machine: MatchBackend, budget: TimeBudget) -> Diagnosis:
        """Detect unconditionally and claim every coupling."""
        pairs = tuple(sorted(self.ctx.relevant(), key=sorted))
        return Diagnosis(
            diagnoser=self.name,
            detected=True,
            claimed=pairs,
            ambiguity_group=frozenset(pairs),
        )


#: Name -> adapter class, in leaderboard order (strategies then baselines).
_REGISTRY = {
    cls.name: cls
    for cls in (
        BatteryDiagnoser,
        PointCheckDiagnoser,
        BinarySearchDiagnoser,
        RankedDiagnoser,
        SyndromeDiagnoser,
        NullDiagnoser,
        RandomDiagnoser,
        WorstDiagnoser,
    )
}


def build_diagnoser(name: str, ctx: DiagnoserContext):
    """Instantiate one registered diagnoser by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown diagnoser {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return cls(ctx)


def run_bounded(
    diagnoser,
    machine: MatchBackend,
    budget: TimeBudget,
    mechanism: str = "auto",
) -> tuple[Diagnosis, float]:
    """Run one diagnosis under the budget's hard deadline.

    Starts the budget clock, enforces the hard deadline, and converts a
    :class:`~repro.arena.budget.DiagnosisTimeout` kill into a
    ``timed_out`` :class:`Diagnosis` (zero claims) so the sweep scores
    the stall and continues.  Returns ``(diagnosis, wall_seconds)``.

    ``mechanism`` selects how the deadline is enforced:

    * ``"signal"`` — the ``SIGALRM`` interval timer (the default where
      available; interrupts the diagnosis in place, main thread only);
    * ``"thread"`` — :func:`~repro.arena.budget.run_with_thread_deadline`
      (works on any thread/platform; a stalled diagnosis is abandoned on
      a daemon worker instead of interrupted);
    * ``"auto"`` — ``"signal"`` when it can be armed here
      (:func:`~repro.arena.budget.has_hard_deadline`), else
      ``"thread"`` — which is what lets the fleet simulator call
      diagnosers from non-main threads.

    A forced ``"signal"`` in a context where the timer cannot be armed
    (a non-main thread — service dispatchers, fleet episodes — or a
    platform without ``SIGALRM``) also falls back to ``"thread"``:
    :func:`~repro.arena.budget.hard_deadline` yields unarmed there, and
    honoring the literal request would silently run with *no* deadline
    at all — a stalling diagnoser would hang its worker forever.
    """
    if mechanism not in ("auto", "signal", "thread"):
        raise ValueError(
            f"unknown deadline mechanism {mechanism!r}; "
            "expected 'auto', 'signal' or 'thread'"
        )
    resolved = mechanism
    if resolved in ("auto", "signal") and not has_hard_deadline():
        resolved = "thread"
    elif resolved == "auto":
        resolved = "signal"
    budget.begin()
    try:
        if resolved == "signal":
            with hard_deadline(budget.hard_seconds):
                diagnosis = diagnoser.diagnose(machine, budget)
        else:
            diagnosis = run_with_thread_deadline(
                lambda: diagnoser.diagnose(machine, budget),
                budget.hard_seconds,
            )
    except DiagnosisTimeout:
        diagnosis = Diagnosis(
            diagnoser=getattr(diagnoser, "name", "unknown"),
            detected=False,
            timed_out=True,
        )
    return diagnosis, budget.elapsed()
