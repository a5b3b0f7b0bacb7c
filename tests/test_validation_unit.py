"""Tier-1 unit tests for the validation subsystem (fast, deterministic)."""

import json

import numpy as np
import pytest

from repro.core.multi_fault import MultiFaultReport
from repro.validation.golden import (
    capture_golden,
    check_drift,
    load_golden,
    merge_golden,
    restrict_golden,
    write_golden,
)
from repro.validation.specs import (
    Check,
    Expectation,
    FigureValidation,
    ValidationContext,
    evaluate_expectations,
)
from repro.validation.stats import (
    binomial_ci,
    clopper_pearson_interval,
    wilson_interval,
)


def test_wilson_interval_reference_values():
    """Spot values against standard tables."""
    lo, hi = wilson_interval(14, 16, 0.95)
    assert lo == pytest.approx(0.6398, abs=2e-4)
    assert hi == pytest.approx(0.9650, abs=2e-4)
    lo, _ = wilson_interval(0, 10)
    assert lo == 0.0
    _, hi = wilson_interval(10, 10)
    assert hi == 1.0


def test_clopper_pearson_reference_values():
    """The exact interval matches textbook values."""
    lo, hi = clopper_pearson_interval(5, 10, 0.95)
    assert lo == pytest.approx(0.1871, abs=2e-4)
    assert hi == pytest.approx(0.8129, abs=2e-4)
    _, hi = clopper_pearson_interval(0, 10, 0.95)
    assert hi == pytest.approx(0.3085, abs=2e-4)  # the rule of three's cousin
    lo, _ = clopper_pearson_interval(10, 10, 0.95)
    assert lo == pytest.approx(0.6915, abs=2e-4)


def test_clopper_pearson_contains_wilson_mass():
    """CP is conservative: it always contains the Wilson interval."""
    for k, n in ((1, 8), (3, 12), (9, 16), (15, 16)):
        w_lo, w_hi = wilson_interval(k, n)
        c_lo, c_hi = clopper_pearson_interval(k, n)
        assert c_lo <= w_lo and c_hi >= w_hi


def test_binomial_ci_validation_errors():
    with pytest.raises(ValueError):
        binomial_ci(5, 0)
    with pytest.raises(ValueError):
        binomial_ci(7, 6)
    with pytest.raises(ValueError):
        binomial_ci(2, 8, method="bogus")


def _context(results):
    return ValidationContext(
        experiment="x", preset="smoke", results=tuple(results), configs=({},)
    )


def test_expectation_kinds_grade_correctly():
    contract = FigureValidation(
        expectations=(
            Expectation(
                check_id="x.ci",
                description="ci",
                kind="ci-lower",
                target=0.5,
                extract=lambda ctx: [True] * 15 + [False],
            ),
            Expectation(
                check_id="x.band",
                description="band",
                kind="band",
                target=(0.3, 0.5),
                extract=lambda ctx: 0.41,
            ),
            Expectation(
                check_id="x.dec",
                description="dec",
                kind="non-increasing",
                slack=0.05,
                extract=lambda ctx: [0.9, 0.92, 0.7],
            ),
            Expectation(
                check_id="x.inc",
                description="inc",
                kind="non-decreasing",
                extract=lambda ctx: [0.2, 0.1],
                hard=False,
            ),
        )
    )
    checks = {c.check_id: c for c in evaluate_expectations(contract, _context([{}]))}
    assert checks["x.ci"].passed  # Wilson lower at 15/16 = 0.717 > 0.5
    assert checks["x.ci"].value == pytest.approx(15 / 16)
    assert checks["x.band"].passed
    assert checks["x.dec"].passed  # +0.02 rise within 0.05 slack
    assert not checks["x.inc"].passed
    assert not checks["x.inc"].hard


def test_ci_lower_each_grades_every_label_and_fails_when_empty():
    """Each label must clear the target on its own; an empty mapping
    (nothing measured) is a failed check, not an exception."""

    def contract(counts):
        return FigureValidation(
            expectations=(
                Expectation(
                    check_id="x.each",
                    description="each",
                    kind="ci-lower-each",
                    target=0.25,
                    extract=lambda ctx: counts,
                ),
            )
        )

    (strong,) = evaluate_expectations(
        contract({"a": (6, 6), "b": (3, 3)}), _context([{}])
    )
    assert strong.passed
    assert strong.value == pytest.approx(1.0)
    (weak,) = evaluate_expectations(
        contract({"a": (6, 6), "b": (0, 3)}), _context([{}])
    )
    assert not weak.passed
    (empty,) = evaluate_expectations(contract({}), _context([{}]))
    assert not empty.passed
    assert empty.hard
    assert empty.observed == "no labelled counts"
    assert empty.value is None


def test_expectation_rejects_unknown_kind():
    contract = FigureValidation(
        expectations=(
            Expectation(
                check_id="x.q",
                description="?",
                kind="quantile",
                extract=lambda ctx: 1.0,
            ),
        )
    )
    with pytest.raises(ValueError, match="unknown expectation kind"):
        evaluate_expectations(contract, _context([{}]))


def test_golden_round_trip_and_drift(tmp_path):
    checks = [
        Check(
            check_id="a.one",
            description="",
            passed=True,
            hard=True,
            observed="",
            target="",
            value=0.8,
            drift_tolerance=0.1,
        ),
        Check(
            check_id="a.two",
            description="",
            passed=True,
            hard=True,
            observed="",
            target="",
            value=None,  # untracked
            drift_tolerance=0.1,
        ),
    ]
    path = tmp_path / "GOLDEN_smoke.json"
    write_golden(path, capture_golden("smoke", checks))
    golden = load_golden(path)
    assert golden["preset"] == "smoke"
    assert set(golden["checks"]) == {"a.one"}
    assert check_drift(checks, golden) == []
    # Within tolerance: no finding; beyond: one finding.
    drifted = [
        Check(
            check_id="a.one",
            description="",
            passed=True,
            hard=True,
            observed="",
            target="",
            value=0.65,
            drift_tolerance=0.1,
        )
    ]
    findings = check_drift(drifted, golden)
    assert len(findings) == 1 and "drifted" in findings[0].message
    # A check deleted from the run is itself a finding.
    findings = check_drift([], golden)
    assert len(findings) == 1 and "not in run" in findings[0].message
    # Unknown schema versions refuse loudly.
    payload = json.loads(path.read_text())
    payload["schema"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="schema"):
        load_golden(path)


def test_missing_golden_is_none(tmp_path):
    assert load_golden(tmp_path / "GOLDEN_none.json") is None


def _check(check_id, value):
    return Check(
        check_id=check_id,
        description="",
        passed=True,
        hard=True,
        observed="",
        target="",
        value=value,
        drift_tolerance=0.1,
    )


def test_subset_validation_golden_semantics():
    """--experiment runs neither flag nor truncate other experiments' locks."""
    full = capture_golden(
        "smoke", [_check("fig6.a", 0.9), _check("fig9.b", 0.8)]
    )
    # Drift on a fig6-only run checks fig6 entries only: no spurious
    # "present in golden but not in run" findings for fig9.
    restricted = restrict_golden(full, {"fig6"})
    assert set(restricted["checks"]) == {"fig6.a"}
    assert check_drift([_check("fig6.a", 0.9)], restricted) == []
    # A fig6-only --update-golden merges: fig9's lock survives, fig6's
    # stale ids under the namespace drop out, fresh ids replace them.
    update = capture_golden("smoke", [_check("fig6.a2", 0.7)])
    merged = merge_golden(full, update, {"fig6"})
    assert set(merged["checks"]) == {"fig6.a2", "fig9.b"}
    assert merged["checks"]["fig9.b"]["value"] == 0.8


def test_battery_specs_single_source():
    """fig6, the calibration and the ranked loop share one battery."""
    from repro.analysis.experiments.fig6 import battery_specs as fig6_specs
    from repro.core.multi_fault import MultiFaultProtocol, battery_specs

    protocol = MultiFaultProtocol(8, canary_style="battery")
    names = [s.name for s in battery_specs(8, 2)]
    assert [s.name for s in fig6_specs(8, 2)] == names
    assert [
        s.name for s in protocol.battery_specs(set(protocol.relevant), 2)
    ] == names


def test_report_magnitude_ordering():
    """Identified faults reorder by measured verify fidelity (ascending)."""
    pairs = (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}))
    report = MultiFaultReport(
        identified=pairs,
        diagnoses=(),
        iterations=3,
        completed=True,
        adaptations=0,
        circuit_runs=0,
        magnitudes=(0.4, 0.1, 0.7),
    )
    assert report.identified_by_magnitude() == [pairs[1], pairs[0], pairs[2]]
    # Without magnitudes the diagnosis order is preserved.
    bare = MultiFaultReport(
        identified=pairs,
        diagnoses=(),
        iterations=3,
        completed=True,
        adaptations=0,
        circuit_runs=0,
    )
    assert bare.identified_by_magnitude() == list(pairs)


def test_contrast_scores_rank_the_damaged_coupling(rng):
    """The coupling inside the low-fidelity tests outranks the rest."""
    from repro.analysis.detection import BaselineBank
    from repro.core.multi_fault import MultiFaultProtocol
    from repro.core.protocol import TestResult
    from repro.core.tests_builder import TestSpec

    protocol = MultiFaultProtocol(8, canary_style="battery")
    specs = protocol.battery_specs(set(protocol.relevant), 2)
    bank = BaselineBank(by_test={s.name: 0.9 for s in specs})
    bad = frozenset({0, 4})
    results = [
        TestResult(
            spec=s,
            fidelity=0.45 if bad in s.pairs else 0.9 + rng.normal(0, 0.01),
            threshold=0.5,
            shots=100,
        )
        for s in specs
    ]
    scored = MultiFaultProtocol.contrast_scores(
        results, set(protocol.relevant), bank
    )
    assert scored[0][1] == bad
    assert scored[0][0] > scored[1][0]


def test_contrast_scores_equal_the_quadratic_formula():
    """Scores of a seeded two-depth round equal the per-pair scan, float for float."""
    import statistics

    from repro.analysis.detection import BaselineBank
    from repro.core.multi_fault import MultiFaultProtocol
    from repro.core.protocol import TestExecutor
    from repro.noise.models import NoiseParameters
    from repro.trap.faults import CouplingFault
    from repro.trap.machine import VirtualIonTrap

    protocol = MultiFaultProtocol(8, canary_style="battery")
    relevant = set(protocol.relevant)
    specs = protocol.battery_specs(relevant, 2) + protocol.battery_specs(
        relevant, 4
    )
    clean = VirtualIonTrap(8, noise=NoiseParameters.paper_scaling(), seed=3)
    bank = BaselineBank()
    for spec, result in zip(
        specs, TestExecutor(clean, shots=200).execute_round(specs)
    ):
        bank.record(spec.name, [result.fidelity])
    bank.by_test[specs[1].name] = 0.0  # a degenerate baseline is skipped
    machine = VirtualIonTrap(8, noise=NoiseParameters.paper_scaling(), seed=4)
    machine.inject_fault(CouplingFault(frozenset({1, 6}), 0.3))
    machine.inject_fault(CouplingFault(frozenset({2, 3}), 0.2))
    results = TestExecutor(machine, shots=200).execute_round(specs)

    normalized = [
        (r.spec, bank.normalized(r.spec.name, r.fidelity)) for r in results
    ]
    normalized = [(s, v) for s, v in normalized if v is not None]
    expected = []
    for pair in relevant:
        inside = [v for s, v in normalized if pair in s.pairs]
        outside = [v for s, v in normalized if pair not in s.pairs]
        if inside and outside:
            score = float(statistics.median(outside)) - float(np.mean(inside))
            expected.append((score, pair))
    expected.sort(key=lambda item: (-item[0], sorted(item[1])))
    scored = MultiFaultProtocol.contrast_scores(results, relevant, bank)
    assert len(scored) == len(relevant)
    assert scored == expected


def test_run_replicates_seeds_and_caches(tmp_path):
    """Replicate seeding walks consecutive seeds and shares the cache."""
    from repro.analysis.runner import run_replicates

    records = run_replicates(
        "fig6", preset="smoke", replicates=2, cache_dir=tmp_path
    )
    seeds = [r.payload["config"]["seed"] for r in records]
    assert seeds[1] == seeds[0] + 1
    assert [r.cache_hit for r in records] == [False, False]
    again = run_replicates(
        "fig6", preset="smoke", replicates=2, cache_dir=tmp_path
    )
    assert [r.cache_hit for r in again] == [True, True]
    with pytest.raises(ValueError, match="at least one replicate"):
        run_replicates("fig6", replicates=0)
    with pytest.raises(ValueError, match="no config field"):
        run_replicates("fig10", replicates=2, cache_dir=tmp_path)
