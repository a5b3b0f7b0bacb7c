"""Metamorphic test: qubit-relabeling invariance of the whole stack.

Relabeling the ions of the machine (a permutation ``perm[q] -> q'``) and
relabeling a scenario's faulty couplings the same way is a symmetry of
the physics: under a fixed seed and label-independent noise (amplitude
noise draws do not depend on which qubits a gate touches), the permuted
battery must produce **bitwise-identical** fidelities and detection
verdicts, and the contrast ranking must identify exactly the permuted
faulty coupling.

The battery circuits are built from the *permuted specs* — pair tuples
mapped through the permutation with names kept fixed — so the gate
count and program order (hence the RNG consumption) match the original
exactly.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.detection import BaselineBank
from repro.core.multi_fault import MultiFaultProtocol, battery_specs
from repro.core.protocol import FixedThresholds, built_test
from repro.core.protocol import TestResult as _Outcome
from repro.scenarios.spec import build_scenario
from repro.trap.machine import VirtualIonTrap

N_QUBITS = 6
PERMS = {
    "reverse": [5, 4, 3, 2, 1, 0],
    "rotate": [1, 2, 3, 4, 5, 0],
    "swap-ends": [5, 1, 2, 3, 4, 0],
}
XX_STATIC_KINDS = [
    "static-under-rotation",
    "over-rotation",
    "correlated-burst",
]


def _permuted_specs(specs, perm):
    """Battery specs with pairs mapped through ``perm``, names kept."""
    return [
        dataclasses.replace(
            spec,
            pairs=tuple(
                frozenset(perm[q] for q in pair) for pair in spec.pairs
            ),
        )
        for spec in specs
    ]


def _battery_fidelities(scenario, specs, seed, shots=200, trials=3):
    """All tests' trial fidelities on a scenario machine (fixed seed)."""
    machine = VirtualIonTrap(
        N_QUBITS,
        noise=scenario.noise_parameters(),
        seed=seed,
        noise_realizations=2,
    )
    scenario.apply(machine, trial=1)
    return np.concatenate(
        [
            machine.run_battery(
                [built_test(tuple(s.pairs), s.repetitions, N_QUBITS)],
                shots,
                trials=trials,
                realizations=2,
            )
            for s in specs
        ]
    )


@pytest.mark.parametrize("perm_name", sorted(PERMS))
@pytest.mark.parametrize("kind", XX_STATIC_KINDS)
def test_relabeling_leaves_fidelities_bitwise_stable(kind, perm_name):
    """Permuted scenario + permuted battery == original, bit for bit."""
    perm = PERMS[perm_name]
    scenario = build_scenario(kind, N_QUBITS)
    specs = battery_specs(N_QUBITS, 2)
    base = _battery_fidelities(scenario, specs, seed=41)
    permuted = _battery_fidelities(
        scenario.relabel(perm), _permuted_specs(specs, perm), seed=41
    )
    assert np.array_equal(base, permuted), (
        "relabeling must not change a single sampled fidelity"
    )
    threshold = FixedThresholds(default=0.5)
    flags_base = base.mean(axis=1) < threshold.threshold_for(2)
    flags_perm = permuted.mean(axis=1) < threshold.threshold_for(2)
    assert np.array_equal(flags_base, flags_perm)


@pytest.mark.parametrize("kind", XX_STATIC_KINDS)
def test_relabeling_permutes_the_identified_coupling(kind):
    """The contrast ranking's top candidate maps through the permutation.

    Scoring is a pure function of the (bitwise-stable) fidelities, so
    the permuted run's best-scoring coupling must be exactly the image
    of the original's — the identified fault relabels with the ions.
    """
    perm = PERMS["reverse"]
    scenario = build_scenario(kind, N_QUBITS)
    # The deeper battery: contrast grows with depth, so the raw score's
    # top candidate is the actual fault (no verification step here).
    specs = battery_specs(N_QUBITS, 4)
    specs_perm = _permuted_specs(specs, perm)
    fids = _battery_fidelities(scenario, specs, seed=43)
    fids_perm = _battery_fidelities(
        scenario.relabel(perm), specs_perm, seed=43
    )
    bank = BaselineBank(by_test={spec.name: 1.0 for spec in specs})

    def _scores(specs_used, values):
        results = [
            _Outcome(
                spec=spec,
                fidelity=float(values[i].mean()),
                threshold=0.5,
                shots=200,
            )
            for i, spec in enumerate(specs_used)
        ]
        relevant = {pair for spec in specs_used for pair in spec.pairs}
        return MultiFaultProtocol.contrast_scores(results, relevant, bank)

    scores = _scores(specs, fids)
    scores_perm = _scores(specs_perm, fids_perm)
    # The full score table maps through the permutation, pair by pair.
    table = {pair: score for score, pair in scores}
    table_perm = {pair: score for score, pair in scores_perm}
    assert table_perm == {
        frozenset(perm[q] for q in pair): score
        for pair, score in table.items()
    }
    # The faulty coupling sits in the top score group (pairs sharing one
    # single covering test tie exactly; verification breaks such ties in
    # the full pipeline), and the permuted run's top group is its image.
    best = max(score for score, _ in scores)
    argmax = {pair for score, pair in scores if score == best}
    argmax_perm = {pair for score, pair in scores_perm if score == best}
    assert scenario.ground_truth(trial=1)[0] in argmax
    assert argmax_perm == {
        frozenset(perm[q] for q in pair) for pair in argmax
    }


def _map_pair(pair, perm):
    """One coupling through the permutation."""
    return frozenset(perm[q] for q in pair)


@pytest.mark.parametrize("perm_name", sorted(PERMS))
@pytest.mark.parametrize("truth_kind", ["fault", "clean", "ambiguous"])
def test_arena_scoring_is_permutation_invariant(perm_name, truth_kind):
    """score_trial(σ·diagnosis, σ·truth) == score_trial(diagnosis, truth).

    The arena's scoring is pure set arithmetic over the diagnosis and
    the ground truth, so pushing *both* through the same relabeling must
    leave every scored field bitwise unchanged — including the ordered
    ``isolated_top`` comparison and the precision ratio.
    """
    from repro.arena.diagnosers import Diagnosis
    from repro.arena.scoring import score_trial

    perm = PERMS[perm_name]
    truth = [frozenset({0, 3}), frozenset({2, 5}), frozenset({1, 4})]
    diagnosis = Diagnosis(
        diagnoser="point-check",
        detected=True,
        claimed=(frozenset({0, 3}), frozenset({0, 1})),
        ambiguity_group=frozenset(
            {frozenset({0, 3}), frozenset({0, 1}), frozenset({2, 5})}
        ),
        tests_used=15,
        shots=900,
        adaptations=0,
    )
    mapped = dataclasses.replace(
        diagnosis,
        claimed=tuple(_map_pair(p, perm) for p in diagnosis.claimed),
        ambiguity_group=frozenset(
            _map_pair(p, perm) for p in diagnosis.ambiguity_group
        ),
    )
    base = score_trial(diagnosis, truth, truth_kind)
    permuted = score_trial(
        mapped, [_map_pair(p, perm) for p in truth], truth_kind
    )
    assert permuted == base


@pytest.mark.parametrize("perm_name", sorted(PERMS))
def test_arena_diagnosis_is_permutation_equivariant(perm_name):
    """A relabeled planted fault yields the relabeled diagnosis.

    End-to-end through a real strategy adapter: the point-check
    diagnoser on a noiseless machine with one planted coupling fault
    isolates exactly that coupling, so diagnosing the relabeled machine
    claims exactly the relabeled coupling at identical cost — and the
    two trials fold into bitwise-identical arena cell payloads.
    """
    from repro.arena.budget import TimeBudget
    from repro.arena.diagnosers import DiagnoserContext, PointCheckDiagnoser
    from repro.arena.report import cell_payload
    from repro.arena.scoring import CellScore, score_trial
    from repro.core.protocol import FixedThresholds
    from repro.noise.models import NoiseParameters
    from repro.trap.machine import CouplingFault

    perm = PERMS[perm_name]
    pair = frozenset({0, 3})

    def _diagnose(fault_pair):
        machine = VirtualIonTrap(
            N_QUBITS, noise=NoiseParameters.noiseless(), seed=17
        )
        machine.inject_fault(CouplingFault(fault_pair, under_rotation=0.5))
        ctx = DiagnoserContext(
            n_qubits=N_QUBITS, thresholds=FixedThresholds(), shots=64
        )
        return PointCheckDiagnoser(ctx).diagnose(machine, TimeBudget())

    base = _diagnose(pair)
    permuted = _diagnose(_map_pair(pair, perm))
    assert base.claimed == (pair,)
    assert permuted.claimed == (_map_pair(pair, perm),)
    assert permuted.ambiguity_group == {
        _map_pair(p, perm) for p in base.ambiguity_group
    }
    assert (permuted.tests_used, permuted.shots, permuted.adaptations) == (
        base.tests_used,
        base.shots,
        base.adaptations,
    )

    def _cell(diagnosis, truth):
        cell = CellScore(diagnoser="point-check", kind="planted", n_qubits=N_QUBITS)
        cell.add(score_trial(diagnosis, truth, "fault"))
        return cell_payload(cell)

    assert _cell(base, [pair]) == _cell(permuted, [_map_pair(pair, perm)])


def test_relabel_round_trip_and_ground_truth():
    """relabel() is invertible and preserves severity ordering."""
    perm = PERMS["rotate"]
    inverse = [perm.index(q) for q in range(N_QUBITS)]
    scenario = build_scenario("correlated-burst", N_QUBITS)
    there_and_back = scenario.relabel(perm).relabel(inverse)
    assert there_and_back == scenario
    mapped = scenario.relabel(perm)
    assert mapped.ground_truth() == [
        frozenset(perm[q] for q in pair) for pair in scenario.ground_truth()
    ]
