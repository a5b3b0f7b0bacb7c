"""The paper's combinatorial claims, certified on the noiseless oracle.

* Theorem V.10: one round of adaptation and at most ``3n - 1`` tests
  identify any single faulty coupling, ``n = ceil(log2 N)``.
* Corollary V.12: restricting the protocol to a ``relevant`` subset of
  couplings keeps both bounds, and every test stays inside the subset.
* Lemma V.5 at the battery level: every coupling sits in some test of
  the non-adaptive battery, so a battery diagnosis can fail a test for
  any single fault.
* The battery's ambiguity floor: couplings with the same signature (the
  set of battery tests holding them) fail the same tests, so no decode
  of the battery alone tells them apart.  Their group sizes are pinned.

``OracleExecutor`` fails a test iff it holds a faulty coupling, so no
quantum simulation is involved and the cases can be exhaustive.
"""

from collections import Counter

import pytest

from repro.core.combinatorics import all_couplings, num_bits
from repro.core.multi_fault import battery_specs
from repro.core.oracle import OracleExecutor
from repro.core.single_fault import SingleFaultProtocol

#: Sizes N = 2^k + 1, where the worst single fault takes 3n - 2 tests;
#: at every other N from 2 to 20 the bound is met with equality.
ONE_UNDER_THE_BOUND = (3, 5, 9, 17)


def _diagnose(n_qubits, fault, relevant=None):
    """Diagnose ``fault`` and check the theorem's bounds; the test count."""
    protocol = SingleFaultProtocol(n_qubits, relevant=relevant)
    executor = OracleExecutor({fault})
    diagnosis = protocol.diagnose(executor, verify=False)
    assert diagnosis.identified == fault, (n_qubits, sorted(fault))
    assert diagnosis.adaptations == executor.cost.adaptations == 1
    tests = len(diagnosis.results)
    assert tests == executor.cost.circuit_runs
    assert tests <= 3 * num_bits(n_qubits) - 1, (n_qubits, sorted(fault))
    if relevant is not None:
        for result in diagnosis.results:
            assert set(result.spec.pairs) <= relevant
    return tests


@pytest.mark.parametrize("n_qubits", range(2, 21))
def test_every_single_fault_is_identified_within_3n_minus_1(n_qubits):
    worst = max(
        _diagnose(n_qubits, fault) for fault in all_couplings(n_qubits)
    )
    bound = 3 * num_bits(n_qubits) - 1
    assert worst == bound - (n_qubits in ONE_UNDER_THE_BOUND)


@pytest.mark.parametrize("n_qubits", [32, 64])
def test_sampled_single_faults_at_scale(rng, n_qubits):
    couplings = all_couplings(n_qubits)
    for k in rng.choice(len(couplings), 200, replace=False):
        _diagnose(n_qubits, couplings[k])


@pytest.mark.parametrize("n_qubits", range(2, 21))
def test_relevant_subsets_keep_the_bounds(rng, n_qubits):
    """Corollary V.12 on five random halves of the couplings."""
    couplings = all_couplings(n_qubits)
    for _ in range(5):
        keep = rng.choice(len(couplings), max(1, len(couplings) // 2), replace=False)
        relevant = {couplings[k] for k in keep}
        for fault in relevant:
            _diagnose(n_qubits, fault, relevant)


@pytest.mark.parametrize("repetitions", [2, 4])
def test_the_battery_covers_every_coupling(repetitions):
    for n_qubits in range(2, 65):
        covered = set()
        for spec in battery_specs(n_qubits, repetitions):
            assert spec.repetitions == repetitions
            covered.update(spec.pairs)
        assert covered == set(all_couplings(n_qubits)), n_qubits


#: ``{group size: number of groups}`` of ``battery_specs(N, 2)``'s
#: coupling signatures.  A group of 3 first appears at N = 21, of 4 at
#: N = 22.
SIGNATURE_GROUPS = {
    **{n: {1: n * (n - 1) // 2} for n in range(2, 6)},
    6: {1: 13, 2: 1},
    7: {1: 19, 2: 1},
    8: {1: 24, 2: 2},
    9: {1: 32, 2: 2},
    10: {1: 37, 2: 4},
    11: {1: 43, 2: 6},
    12: {1: 46, 2: 10},
    13: {1: 58, 2: 10},
    14: {1: 65, 2: 13},
    15: {1: 75, 2: 15},
    16: {1: 80, 2: 20},
    17: {1: 96, 2: 20},
    18: {1: 105, 2: 24},
    19: {1: 115, 2: 28},
    20: {1: 118, 2: 36},
    21: {1: 131, 2: 38, 3: 1},
    22: {1: 137, 2: 45, 4: 1},
    23: {1: 144, 2: 51, 3: 1, 4: 1},
    24: {1: 144, 2: 62, 4: 2},
    25: {1: 168, 2: 62, 4: 2},
    26: {1: 181, 2: 68, 4: 2},
    27: {1: 195, 2: 74, 4: 2},
    28: {1: 198, 2: 86, 4: 2},
    29: {1: 219, 2: 88, 3: 1, 4: 2},
    30: {1: 229, 2: 97, 4: 3},
    31: {1: 240, 2: 105, 3: 1, 4: 3},
    32: {1: 240, 2: 120, 4: 4},
    48: {1: 416, 2: 300, 4: 28},
    64: {1: 672, 2: 560, 4: 56},
}


@pytest.mark.parametrize("n_qubits", sorted(SIGNATURE_GROUPS))
def test_battery_signature_groups_match_the_table(n_qubits):
    specs = battery_specs(n_qubits, 2)
    groups = Counter(
        frozenset(k for k, spec in enumerate(specs) if coupling in spec.pairs)
        for coupling in all_couplings(n_qubits)
    )
    assert frozenset() not in groups, "a coupling no battery test holds"
    assert Counter(groups.values()) == SIGNATURE_GROUPS[n_qubits]


def test_a_two_qubit_battery_fails_on_its_one_coupling():
    executor = OracleExecutor({frozenset({0, 1})})
    results = executor.execute_round(battery_specs(2, 2))
    assert [r.spec.name for r in results if r.failed] == ["canary-bits[0,!=]"]
    clean = OracleExecutor(set()).execute_round(battery_specs(2, 2))
    assert not any(r.failed for r in clean)


@pytest.mark.parametrize("n_qubits", [2, 5, 8])
def test_memoized_spec_builders_return_fresh_equal_lists(n_qubits):
    """The builders are memoized: each call returns a new list holding
    what an uncached build holds, keyed on the relevant set's value."""
    from repro.core import multi_fault, single_fault

    couplings = all_couplings(n_qubits)
    relevant = set(couplings[1::2])
    for subset in (None, relevant):
        first = battery_specs(n_qubits, 4, subset)
        first.append(None)
        again = battery_specs(n_qubits, 4, None if subset is None else set(subset))
        assert again == first[:-1]
        protocol = SingleFaultProtocol(n_qubits, relevant=subset, repetitions=4)
        round1 = single_fault._round1_specs.__wrapped__(
            n_qubits, None if subset is None else frozenset(subset), 4
        )
        bits = multi_fault._equal_bits_tuple.__wrapped__(
            n_qubits, frozenset(couplings if subset is None else subset), 4
        )
        assert protocol.round1_specs() == list(round1)
        assert again == [*round1, *bits]
    assert battery_specs(n_qubits, 4, relevant) != battery_specs(n_qubits, 4)
