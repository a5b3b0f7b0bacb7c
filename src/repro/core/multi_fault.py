"""The multi-fault diagnosis loop of Fig. 5 (Sec. V-C).

The key principle: *separate faults in time and magnitude before trying to
diagnose them; diagnosed faults are separated by qubit couplings.*

Loop structure (one iteration per diagnosed fault):

1. **Canary** — a single test exercising every relevant coupling at the
   highest repetition count.  Passing ends the session (no faults above
   the smallest detectable magnitude).
2. **Magnitude search** — a non-adaptive batch of the same all-couplings
   test at R different repetition counts; the smallest failing count
   becomes the working amplification, so only the largest fault(s) sit
   above threshold (adaptation #1).
3. **Single-fault protocol** at that repetition count: 2n class tests,
   adaptation #2, the equal-bits tests, adaptation #3, verification.
4. **Separation by couplings** — the diagnosed pair is recalibrated (via
   callback) and removed from the relevant set (Corollary V.12);
   adaptation #4 restarts the loop.

Cost: ``4k + 1`` adaptations for ``k`` faults (the ``+1`` is the final
canary-passes conclusion) and ``k * (3n + R)`` circuit executions of
``s`` shots each — both tracked and compared against Sec. V-C's formulas
in the test suite.

Two identification modes drive each iteration's single-fault step:

``syndrome``
    The literal Theorem V.10 decode (round-1 syndrome, round-2
    equal-bits, verification) against the executor's threshold policy —
    exact when at most one fault sits above threshold.
``contrast``
    Fig. 5's "threshold is adjusted accordingly to maximize the fault vs
    no-fault contrast" note made operational
    (:meth:`MultiFaultProtocol.diagnose_all_ranked`): battery fidelities
    are normalized by per-test clean baselines, every relevant coupling
    is scored by the contrast between the tests containing it and the
    rest, and the top-scoring candidates are confirmed by high-precision
    verification tests.  This is the mode that stays accurate when the
    whole machine carries background miscalibration (the Fig. 9
    composite population) and syndromes of several overlapping faults
    would otherwise union into an undecodable pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .combinatorics import all_couplings, bit, class_pairs, num_bits
from .protocol import TestExecutor, TestResult
from .single_fault import (
    _SPEC_CACHE_SIZE,
    SingleFaultDiagnosis,
    SingleFaultProtocol,
)
from .tests_builder import TestSpec

__all__ = [
    "ContrastVerifyConfig",
    "MagnitudeSearchConfig",
    "MultiFaultReport",
    "MultiFaultProtocol",
    "battery_specs",
]

Pair = frozenset[int]


def _equal_bits_specs(
    n_qubits: int, relevant: set[Pair], repetitions: int
) -> list[TestSpec]:
    """Equal/unequal-bits tests over all positions (battery coverage).

    Class tests alone are blind to bit-complementary pairs (Lemma V.1);
    the battery canary adds both ``[j, =]`` and ``[j, !=]`` tests so every
    complementary pair sits wholly inside at least one batch test
    (Lemma V.5 guarantees one of the two per position).  Built once per
    input; every call returns a fresh list of the shared specs.
    """
    return list(_equal_bits_tuple(n_qubits, frozenset(relevant), repetitions))


@lru_cache(maxsize=_SPEC_CACHE_SIZE)
def _equal_bits_tuple(
    n_qubits: int, relevant: frozenset[Pair], repetitions: int
) -> tuple[TestSpec, ...]:
    """:func:`_equal_bits_specs`, built once per input."""
    n = num_bits(n_qubits)
    if n == 1:
        # Two qubits have no bit positions to compare, and no class test
        # holds their one (complementary) coupling: give it a test.
        pairs = tuple(class_pairs([0, 1], relevant))
        meta = (("j", 0), ("equal", False), ("role", "canary"))
        return (TestSpec("canary-bits[0,!=]", pairs, repetitions, "equal-bits", meta),)
    specs = []
    for j in range(1, n):
        for want_equal, tag in ((True, "="), (False, "!=")):
            members = [
                q
                for q in range(n_qubits)
                if (bit(q, j - 1) == bit(q, j)) == want_equal
            ]
            pairs = class_pairs(members, relevant)
            specs.append(
                TestSpec(
                    name=f"canary-bits[{j},{tag}]",
                    pairs=tuple(pairs),
                    repetitions=repetitions,
                    kind="equal-bits",
                    metadata=(("j", j), ("equal", want_equal), ("role", "canary")),
                )
            )
    return tuple(specs)


@dataclass(frozen=True)
class MagnitudeSearchConfig:
    """Repetition counts checked by the non-adaptive magnitude search.

    ``repetition_configs`` must be ascending; the last entry doubles as
    the canary's amplification.
    """

    repetition_configs: tuple[int, ...] = (2, 4, 8, 16)

    def __post_init__(self) -> None:
        if not self.repetition_configs:
            raise ValueError("need at least one repetition configuration")
        if list(self.repetition_configs) != sorted(set(self.repetition_configs)):
            raise ValueError("repetition configs must be ascending and unique")
        for r in self.repetition_configs:
            if r < 2 or r % 2:
                raise ValueError("repetition counts must be even and >= 2")

    @property
    def canary_repetitions(self) -> int:
        return self.repetition_configs[-1]


def battery_specs(
    n_qubits: int, repetitions: int, relevant: set[Pair] | None = None
) -> list[TestSpec]:
    """The protocol's full non-adaptive battery at one depth.

    The 2n class tests plus the equal/unequal-bits tests (which cover
    the bit-complementary pairs no class test contains).  The single
    source of the battery definition: fig6's experiment, fig9's baseline
    calibration and the ranked loop's per-iteration observation all
    build from here, so their test *names* stay aligned — the
    contrast mode's :class:`~repro.analysis.detection.BaselineBank`
    lookups key on them.  Built once per input; every call returns a
    fresh list of the shared specs.
    """
    key = None if relevant is None else frozenset(relevant)
    return list(_battery_tuple(n_qubits, repetitions, key))


@lru_cache(maxsize=_SPEC_CACHE_SIZE)
def _battery_tuple(
    n_qubits: int, repetitions: int, relevant: frozenset[Pair] | None
) -> tuple[TestSpec, ...]:
    """:func:`battery_specs`, built once per input."""
    protocol = SingleFaultProtocol(
        n_qubits, relevant=relevant, repetitions=repetitions
    )
    relevant_set = (
        relevant if relevant is not None else set(all_couplings(n_qubits))
    )
    return tuple(
        protocol.round1_specs()
        + _equal_bits_specs(n_qubits, relevant_set, repetitions)
    )


@dataclass(frozen=True)
class ContrastVerifyConfig:
    """Verification knobs of the contrast-ranked identification mode.

    Attributes
    ----------
    shots, realizations:
        Sampling effort of each verification test.  Verification doubles
        as the magnitude measurement that orders the identified faults,
        so it runs at higher precision than the battery tests.
    attempts:
        How many of the top-scoring candidates to verify per iteration
        before concluding no further fault is confirmable (the contrast
        score is a noisy statistic; the verification test is the
        arbiter).
    margin, min_std:
        The verify accept/reject cut sits ``margin`` standard deviations
        below the clean verify baseline (``min_std`` floors the spread
        estimate); see
        :meth:`repro.analysis.detection.BaselineBank.verify_threshold`.
    """

    shots: int = 600
    realizations: int = 16
    attempts: int = 3
    margin: float = 3.0
    min_std: float = 0.02


@dataclass(frozen=True)
class MultiFaultReport:
    """Result of a full Fig. 5 diagnosis session.

    ``magnitudes`` is populated by the contrast-ranked mode: the
    verification-test fidelity measured for each identified pair (lower
    fidelity = larger fault), aligned with ``identified``.
    """

    identified: tuple[Pair, ...]
    diagnoses: tuple[SingleFaultDiagnosis, ...]
    iterations: int
    completed: bool
    adaptations: int
    circuit_runs: int
    magnitudes: tuple[float, ...] = ()

    def identified_sorted(self) -> list[tuple[int, int]]:
        """Identified pairs in diagnosis order, as sorted int tuples."""
        return [tuple(sorted(p)) for p in self.identified]

    def identified_by_magnitude(self) -> list[Pair]:
        """Identified pairs ordered largest-damage first.

        Uses the measured verification fidelities (ascending) when the
        contrast mode recorded them; falls back to diagnosis order — the
        magnitude-search order, already largest-first — otherwise.
        """
        if len(self.magnitudes) != len(self.identified):
            return list(self.identified)
        order = np.argsort(np.array(self.magnitudes), kind="stable")
        return [self.identified[i] for i in order]


def _sorted_outside(ordered: list[float], held: list[int], k: int) -> float:
    """The ``k``-th smallest of ``ordered`` (ascending) without the
    positions in ``held`` (ascending)."""
    for h in held:
        if h > k:
            break
        k += 1
    return ordered[k]


@dataclass
class MultiFaultProtocol:
    """Drives the Fig. 5 loop against an executor.

    Parameters
    ----------
    n_qubits:
        Machine size.
    relevant:
        Couplings under test (defaults to all pairs).
    magnitude:
        Repetition schedule for canary + magnitude search.
    recalibrate:
        Callback invoked with each diagnosed pair (typically the machine's
        ``recalibrate``); ``None`` means detection-only (map-around mode,
        Sec. VIII).
    max_faults:
        Iteration safety bound.
    """

    n_qubits: int
    relevant: set[Pair] | None = None
    magnitude: MagnitudeSearchConfig = field(default_factory=MagnitudeSearchConfig)
    recalibrate: Callable[[Pair], None] | None = None
    max_faults: int = 16
    #: "single": one all-couplings canary circuit per repetition count
    #: (Fig. 5 as drawn; fine up to ~16 qubits).  "battery": the 2n-class
    #: non-adaptive battery doubles as the canary (any failing test signals
    #: a fault) — required at larger N, where a single circuit exercising
    #: all C(N,2) couplings has no usable baseline fidelity under 10 %
    #: amplitude noise.  "auto" picks by machine size.
    canary_style: str = "auto"

    def __post_init__(self) -> None:
        self.n_bits = num_bits(self.n_qubits)
        if self.relevant is None:
            self.relevant = set(all_couplings(self.n_qubits))
        if self.canary_style not in ("single", "battery", "auto"):
            raise ValueError(f"unknown canary style {self.canary_style!r}")
        if self.canary_style == "auto":
            self.canary_style = "single" if self.n_qubits <= 16 else "battery"

    # -- building blocks ---------------------------------------------------------

    def canary_spec(self, relevant: set[Pair], repetitions: int) -> TestSpec:
        """One test exercising every relevant coupling."""
        return TestSpec(
            name=f"canary(r={repetitions})",
            pairs=tuple(sorted(relevant, key=sorted)),
            repetitions=repetitions,
            kind="canary",
            metadata=(("repetitions", repetitions),),
        )

    def magnitude_search(
        self, executor: TestExecutor, relevant: set[Pair]
    ) -> tuple[int | None, list[TestResult]]:
        """Non-adaptive batch over R repetition counts.

        Returns the smallest repetition count at which a fault is
        detectable (``None`` when everything passes), plus raw results.
        In ``single`` style each repetition count costs one all-couplings
        circuit; in ``battery`` style it costs the 2n-class battery and a
        fault is signalled by any failing class test.
        """
        results: list[TestResult] = []
        chosen: int | None = None
        for r in self.magnitude.repetition_configs:
            if self.canary_style == "single":
                batch = [self.canary_spec(relevant, r)]
            else:
                protocol = SingleFaultProtocol(
                    self.n_qubits, relevant=relevant, repetitions=r
                )
                batch = protocol.round1_specs() + _equal_bits_specs(
                    self.n_qubits, relevant, r
                )
            batch_results = executor.execute_round(batch)
            results.extend(batch_results)
            if chosen is None and any(res.failed for res in batch_results):
                chosen = r
        return chosen, results

    # -- contrast-ranked identification ------------------------------------------

    def battery_specs(self, relevant: set[Pair], repetitions: int) -> list[TestSpec]:
        """The non-adaptive battery one iteration observes (the shared
        module-level :func:`battery_specs` over the still-relevant
        couplings)."""
        return battery_specs(self.n_qubits, repetitions, relevant)

    @staticmethod
    def contrast_scores(
        results: list[TestResult], relevant: set[Pair], baselines
    ) -> list[tuple[float, Pair]]:
        """Rank couplings by baseline-normalized fault/no-fault contrast.

        Each test's fidelity is divided by its clean baseline
        (:class:`~repro.analysis.detection.BaselineBank`); a coupling's
        score is the bulk level (median over the tests *not* containing
        it — median, so that other faults' damage does not drag the
        reference down) minus the mean over the tests containing it.
        The faultier the coupling, the larger the score.  Returned
        sorted best-first.

        The score is agnostic to the fault *species*: any deterministic
        miscalibration that depresses a test's fidelity relative to its
        clean baseline ranks — under-rotations, over-rotations (the
        angle error enters through its magnitude), correlated
        multi-coupling bursts (the median reference shrugs off the other
        members' damage) and phase-miscalibrated couplings whose
        combined amplitude-plus-axis error leaks fidelity.  Non-finite
        normalized values (degenerate baselines) are skipped, not
        propagated into the ranking.
        """
        values: list[float] = []
        # Each relevant coupling's tests, as indices into ``values`` in order.
        members: dict[Pair, list[int]] = {pair: [] for pair in relevant}
        for result in results:
            value = baselines.normalized(result.spec.name, result.fidelity)
            if value is not None and np.isfinite(value):
                for pair in frozenset(result.spec.pairs):
                    if pair in members:
                        members[pair].append(len(values))
                values.append(value)
        ranked = sorted(range(len(values)), key=values.__getitem__)
        ordered = [values[i] for i in ranked]
        place = {i: k for k, i in enumerate(ranked)}
        scored: list[tuple[float, Pair]] = []
        for pair in relevant:
            tests = members[pair]
            n_out = len(values) - len(tests)
            if not tests or not n_out:
                continue
            # statistics.median of the outside values (equal to np.median
            # on finite floats at a thirtieth of the cost): the middle of
            # the sorted values once the inside ones are skipped.
            held = sorted(place[i] for i in tests)
            median = _sorted_outside(ordered, held, n_out // 2)
            if n_out % 2 == 0:
                below = _sorted_outside(ordered, held, n_out // 2 - 1)
                median = (below + median) / 2
            # np.mean's own pairwise sum over the tests in list order,
            # without its dispatch.
            inside = np.array([values[i] for i in tests])
            mean = float(np.add.reduce(inside)) / len(tests)
            scored.append((float(median) - mean, pair))
        scored.sort(key=lambda item: (-item[0], sorted(item[1])))
        return scored

    def diagnose_all_ranked(
        self,
        executor: TestExecutor,
        baselines,
        verify: ContrastVerifyConfig | None = None,
    ) -> MultiFaultReport:
        """Run the Fig. 5 loop in contrast-ranked identification mode.

        Per iteration: execute the battery over the still-relevant
        couplings at the canary amplification, score every coupling by
        normalized contrast (:meth:`contrast_scores`), then confirm the
        top-scoring candidates with high-precision verification tests —
        the first candidate whose verify test falls below the clean
        baseline cut is the iteration's fault (recalibrated and removed,
        as in the syndrome mode).  The session ends when no candidate
        verifies (machine within spec), when couplings run out, or at
        the ``max_faults`` safety bound.

        ``baselines`` is a :class:`~repro.analysis.detection.BaselineBank`
        (any object with ``normalized``/``verify_threshold`` works).
        The report's ``magnitudes`` carry each identified pair's verify
        fidelity, so ``identified_by_magnitude()`` orders faults
        largest-first even though every iteration runs at one
        amplification.
        """
        verify = verify or ContrastVerifyConfig()
        repetitions = self.magnitude.canary_repetitions
        verify_executor = TestExecutor(
            executor.machine,
            thresholds=executor.thresholds,
            shots=verify.shots,
            shot_batch=verify.realizations,
            cost=executor.cost,
        )
        verify_cut = baselines.verify_threshold(verify.margin, verify.min_std)
        relevant = set(self.relevant)
        identified: list[Pair] = []
        magnitudes: list[float] = []
        iterations = 0
        completed = False
        while iterations < self.max_faults:
            iterations += 1
            if not relevant:
                completed = True
                executor.cost.record_adaptation("no couplings left")
                break
            specs = self.battery_specs(relevant, repetitions)
            results = executor.execute_round(specs)
            executor.cost.record_adaptation("contrast ranking decision")
            confirmed: tuple[Pair, float] | None = None
            for _, candidate in self.contrast_scores(
                results, relevant, baselines
            )[: verify.attempts]:
                spec = TestSpec(
                    name=f"verify({min(candidate)},{max(candidate)})",
                    pairs=(candidate,),
                    repetitions=repetitions,
                    kind="verify",
                )
                fidelity = verify_executor.execute(spec).fidelity
                if fidelity < verify_cut:
                    confirmed = (candidate, fidelity)
                    break
            if confirmed is None:
                # No candidate verified: every remaining coupling looks
                # in-spec at this amplification.
                completed = True
                break
            pair, fidelity = confirmed
            identified.append(pair)
            magnitudes.append(fidelity)
            if self.recalibrate is not None:
                self.recalibrate(pair)
            relevant.discard(pair)
            executor.cost.record_adaptation("recalibrate and restart")
        return MultiFaultReport(
            identified=tuple(identified),
            diagnoses=(),
            iterations=iterations,
            completed=completed,
            adaptations=executor.cost.adaptations,
            circuit_runs=executor.cost.circuit_runs,
            magnitudes=tuple(magnitudes),
        )

    # -- the loop -------------------------------------------------------------------

    def diagnose_all(self, executor: TestExecutor) -> MultiFaultReport:
        """Run the Fig. 5 loop to completion."""
        relevant = set(self.relevant)
        identified: list[Pair] = []
        diagnoses: list[SingleFaultDiagnosis] = []
        iterations = 0
        completed = False
        while iterations < self.max_faults:
            iterations += 1
            if not relevant:
                completed = True
                executor.cost.record_adaptation("no couplings left")
                break
            repetitions, _ = self.magnitude_search(executor, relevant)
            executor.cost.record_adaptation("magnitude search decision")
            if repetitions is None:
                completed = True
                break
            # Fig. 5's feedback arrow: if diagnosis at the least-detecting
            # amplification fails (marginal fault, partial syndrome),
            # increase gate repetitions and retry.
            diagnosis = None
            configs = self.magnitude.repetition_configs
            for attempt, r in enumerate(
                [c for c in configs if c >= repetitions]
            ):
                if attempt:
                    executor.cost.record_adaptation("increase gate repetitions")
                protocol = SingleFaultProtocol(
                    self.n_qubits, relevant=relevant, repetitions=r
                )
                diagnosis = protocol.diagnose(executor, verify=True)
                diagnoses.append(diagnosis)
                if diagnosis.identified is not None:
                    break
            if diagnosis is None or diagnosis.identified is None:
                # Identification failed at every amplification: stop
                # rather than recalibrate a healthy coupling.
                break
            pair = diagnosis.identified
            identified.append(pair)
            if self.recalibrate is not None:
                self.recalibrate(pair)
            relevant.discard(pair)
            executor.cost.record_adaptation("recalibrate and restart")
        return MultiFaultReport(
            identified=tuple(identified),
            diagnoses=tuple(diagnoses),
            iterations=iterations,
            completed=completed,
            adaptations=executor.cost.adaptations,
            circuit_runs=executor.cost.circuit_runs,
        )
