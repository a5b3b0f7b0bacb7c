"""Tier-2 statistical suite for the scenario matrix.

Marked ``scenarios`` and excluded from tier-1 (see ``pytest.ini``); CI's
scenario-smoke job selects it with ``-m scenarios``.  The assertions
mirror the acceptance bar of ``python -m repro scenarios --smoke``: at
least five distinct scenario kinds run through both engines, every
kind's detection/identification clears its contract, and the
under-rotation cell reproduces the fig6 anchor verdicts the PR 4 golden
record pins.
"""

import pytest

from repro.analysis import runner
from repro.scenarios import validate_matrix_payload
from repro.scenarios.spec import SCENARIO_KINDS
from repro.validation import run_validation

pytestmark = pytest.mark.scenarios


@pytest.fixture(scope="module")
def smoke_matrix():
    """One shared smoke matrix run.

    Served from the per-kind cache entries a preceding ``python -m
    repro scenarios --smoke`` left behind (CI runs one); the
    validation-contract test below runs the all-kinds experiment job
    instead, which keys its own cache entry.
    """
    payload, _ = runner.run_matrix("scenarios", "smoke")
    return payload


def test_matrix_report_is_schema_valid(smoke_matrix):
    validate_matrix_payload(smoke_matrix)


def test_at_least_five_kinds_through_both_engines(smoke_matrix):
    """The acceptance bar: >= 5 distinct kinds, both engines exercised."""
    assert len(smoke_matrix["kinds"]) >= 5
    engines_seen = {
        engine
        for cell in smoke_matrix["cells"]
        for engine in cell["engines"]
    }
    assert engines_seen == {"xx", "dense"}
    both = [
        cell
        for cell in smoke_matrix["cells"]
        if set(cell["engines"]) == {"xx", "dense"}
    ]
    assert len({cell["scenario"] for cell in both}) >= 4


def test_underrotation_cell_reproduces_fig6_anchor(smoke_matrix):
    """The PR 4 golden verdicts hold inside the matrix run."""
    anchor = smoke_matrix["anchor"]
    assert anchor["largest_resolved_2ms"] is True
    assert anchor["largest_resolved_4ms"] is True


def test_every_kind_detects_its_clear_faults(smoke_matrix):
    """Per kind: pooled detection counts clear a CI lower bound of 0.5."""
    from repro.validation.stats import binomial_ci

    pooled: dict[str, list[int]] = {}
    for cell in smoke_matrix["cells"]:
        entry = pooled.setdefault(cell["scenario"], [0, 0])
        for _, successes, trials in cell["detection"]:
            entry[0] += successes
            entry[1] += trials
    assert set(pooled) == set(smoke_matrix["kinds"])
    for kind, (successes, trials) in pooled.items():
        assert trials > 0, f"{kind} graded no detection trials"
        assert binomial_ci(successes, trials).lower > 0.5, (
            f"{kind}: {successes}/{trials}"
        )


def test_non_xx_kind_falls_back_and_xx_kinds_agree(smoke_matrix):
    """Engine routing flags and cross-engine detection agreement."""
    for cell in smoke_matrix["cells"]:
        assert cell["fallback_to_dense"] == (not cell["xx_preserving"])
        rates = {
            engine: successes / trials
            for engine, successes, trials in cell["detection"]
            if trials
        }
        if "xx" in rates and "dense" in rates:
            assert abs(rates["xx"] - rates["dense"]) <= 0.25


def test_validation_contract_hard_checks_pass():
    """The registered scenarios contract gates green end to end."""
    report = run_validation("smoke", experiments=["scenarios"])
    failures = [c.check_id for c in report.hard_failures]
    assert failures == []
    checks = {c.check_id: c for c in report.checks}
    assert set(checks) >= {
        "scenarios.fig6_anchor",
        "scenarios.detection_each",
        "scenarios.identification_pooled",
        "scenarios.engine_agreement",
        "scenarios.dense_fallback",
    }


def test_taxonomy_is_frozen_against_silent_kind_loss():
    """Removing a kind from the default grid is a contract change."""
    assert SCENARIO_KINDS == (
        "static-under-rotation",
        "over-rotation",
        "correlated-burst",
        "drifting-magnitude",
        "phase-miscalibration",
        "asymmetric-spam",
    )
