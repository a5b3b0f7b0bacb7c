"""The single-fault protocol of Sec. V-B (Theorem V.10).

Finds one faulty coupling among C(N,2) candidates with at most ``3n - 1``
tests and a single round of adaptation, ``n = ceil(log2 N)``:

1. **Round 1** (non-adaptive, 2n tests): one test per class ``(i, b)``,
   exercising every relevant coupling inside the class.  The failing set —
   the *syndrome* — pins the bits shared by the faulty pair's endpoints.
2. **Round 2** (one adaptation, ``<= n - 1`` tests): the surviving
   candidates are bit-complementary in the syndrome's free positions;
   equal-bits classes ``[j, =]`` over those positions (restricted to
   indices matching the fixed bits) read out the pair's consecutive-XOR
   signature, which identifies it uniquely (Theorem V.7).
3. An optional **verification** test on the identified pair distinguishes
   the fault from the zero-fault case (footnote 9) and guards against
   noise-induced misidentification.

Corollary V.12: restricting to a ``relevant`` subset of couplings (pairs
not yet diagnosed, or simply unused) only shrinks the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .combinatorics import bit, class_pairs, num_bits, subcube_class
from .protocol import TestExecutor, TestResult
from .syndrome import Syndrome, candidates_for_syndrome
from .tests_builder import TestSpec

__all__ = ["SingleFaultDiagnosis", "SingleFaultProtocol"]

Pair = frozenset[int]


@dataclass(frozen=True)
class SingleFaultDiagnosis:
    """Outcome of one run of the single-fault protocol."""

    identified: Pair | None
    syndrome: Syndrome
    candidates: tuple[Pair, ...]
    results: tuple[TestResult, ...]
    adaptations: int
    verified: bool | None = None


@dataclass
class SingleFaultProtocol:
    """Builds and interprets the 3n-1 test schedule for one machine size.

    Parameters
    ----------
    n_qubits:
        Machine size (any value >= 2; non-powers of two are padded).
    relevant:
        Couplings under test; ``None`` means all pairs.  Diagnosed or
        unused couplings are excluded here (Corollary V.12).
    repetitions:
        MS-gate stack height per coupling in each test (even; higher
        values amplify smaller faults, Sec. V-C).
    """

    n_qubits: int
    relevant: set[Pair] | None = None
    repetitions: int = 4

    def __post_init__(self) -> None:
        self.n_bits = num_bits(self.n_qubits)

    # -- round 1 -------------------------------------------------------------------

    def round1_specs(self) -> list[TestSpec]:
        """The 2n non-adaptive class tests (a fresh list of shared specs)."""
        relevant = None if self.relevant is None else frozenset(self.relevant)
        return list(_round1_specs(self.n_qubits, relevant, self.repetitions))

    def syndrome_from_results(self, results: list[TestResult]) -> Syndrome:
        """Collect the failing class tests into a syndrome."""
        entries = set()
        for result in results:
            meta = result.spec.meta()
            if result.spec.kind != "class" or meta.get("round") != 1:
                raise ValueError("round-1 results must come from class tests")
            if result.failed:
                entries.add((int(meta["bit"]), int(meta["value"])))
        return Syndrome(frozenset(entries), self.n_bits)

    def candidates(self, syndrome: Syndrome) -> list[Pair]:
        """Surviving fault locations after round 1 (Lemma V.9)."""
        if not syndrome.is_single_fault_consistent():
            return []
        return candidates_for_syndrome(syndrome, self.n_qubits, self.relevant)

    # -- round 2 --------------------------------------------------------------------

    def round2_specs(self, syndrome: Syndrome) -> list[TestSpec]:
        """The adaptive equal-bits tests over the syndrome's free positions.

        Empty when the syndrome already pins a unique candidate.
        """
        if not syndrome.is_single_fault_consistent():
            return []
        if len(self.candidates(syndrome)) <= 1:
            return []
        fixed = syndrome.fixed_positions()
        free = syndrome.free_positions()
        specs = []
        for j in range(1, len(free)):
            members = [
                q
                for q in range(self.n_qubits)
                if all(bit(q, i) == b for i, b in fixed.items())
                and bit(q, free[j - 1]) == bit(q, free[j])
            ]
            pairs = self._pairs_within(members)
            specs.append(
                TestSpec(
                    name=f"equal-bits({free[j - 1]},{free[j]})",
                    pairs=tuple(pairs),
                    repetitions=self.repetitions,
                    kind="equal-bits",
                    metadata=(("j", j), ("low", free[j - 1]), ("high", free[j])),
                )
            )
        return specs

    def identify(
        self, syndrome: Syndrome, round2_results: list[TestResult]
    ) -> Pair | None:
        """Reconstruct the faulty pair from both rounds' outcomes.

        The failing pattern of the equal-bits tests is the candidate
        pair's consecutive-XOR signature: test ``j`` fails iff the pair's
        free bits at positions ``j-1`` and ``j`` agree.  Returns ``None``
        when the outcome matches no candidate (no fault, or multi-fault
        contamination).
        """
        candidates = self.candidates(syndrome)
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        free = syndrome.free_positions()
        signature = 0
        for result in round2_results:
            j = int(result.spec.meta()["j"])
            if not result.failed:
                signature |= 1 << (j - 1)
        for pair in candidates:
            x = min(pair)
            pair_sig = 0
            for j in range(1, len(free)):
                g = bit(x, free[j - 1]) ^ bit(x, free[j])
                pair_sig |= g << (j - 1)
            if pair_sig == signature:
                return pair
        return None

    # -- end-to-end -------------------------------------------------------------------

    def diagnose(
        self, executor: TestExecutor, verify: bool = True
    ) -> SingleFaultDiagnosis:
        """Run round 1, adapt, run round 2, optionally verify.

        The verification test (footnote 9 / Sec. V-C) runs the identified
        coupling alone; if it *passes*, the identification is retracted
        (zero-fault case or contamination).
        """
        results: list[TestResult] = list(
            executor.execute_round(self.round1_specs())
        )
        syndrome = self.syndrome_from_results(results)
        adaptations = 1  # deciding round 2 from round 1's outcome
        executor.cost.record_adaptation("syndrome -> equal-bits tests")
        round2 = self.round2_specs(syndrome)
        round2_results = list(executor.execute_round(round2))
        results.extend(round2_results)
        identified = self.identify(syndrome, round2_results)
        verified: bool | None = None
        if verify and identified is not None:
            adaptations += 1
            executor.cost.record_adaptation("verification test")
            verify_spec = TestSpec(
                name=f"verify({min(identified)},{max(identified)})",
                pairs=(identified,),
                repetitions=self.repetitions,
                kind="verify",
            )
            verify_result = executor.execute(verify_spec)
            results.append(verify_result)
            verified = verify_result.failed
            if not verified:
                identified = None
        return SingleFaultDiagnosis(
            identified=identified,
            syndrome=syndrome,
            candidates=tuple(self.candidates(syndrome)),
            results=tuple(results),
            adaptations=adaptations,
            verified=verified,
        )

    # -- helpers ----------------------------------------------------------------------

    def _pairs_within(self, members: list[int]) -> list[Pair]:
        return class_pairs(members, self.relevant)


#: Spec lists kept per process by the memoized builders (least recently
#: used dropped first); a list of small frozen specs each.
_SPEC_CACHE_SIZE = 256


@lru_cache(maxsize=_SPEC_CACHE_SIZE)
def _round1_specs(
    n_qubits: int, relevant: frozenset[Pair] | None, repetitions: int
) -> tuple[TestSpec, ...]:
    """:meth:`SingleFaultProtocol.round1_specs`, built once per input."""
    specs = []
    for i in range(num_bits(n_qubits)):
        for b in (0, 1):
            members = subcube_class(i, b, n_qubits)
            specs.append(
                TestSpec(
                    name=f"class({i},{b})",
                    pairs=tuple(class_pairs(members, relevant)),
                    repetitions=repetitions,
                    kind="class",
                    metadata=(("bit", i), ("value", b), ("round", 1)),
                )
            )
    return tuple(specs)
