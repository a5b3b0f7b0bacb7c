"""Tier-2 arena suite: the full smoke tournament, end to end.

Runs the real ``run_matrix("arena")`` sweep (every diagnoser x every
scenario kind x both machine sizes at smoke scale) once per session and
checks the assembled ``ARENA_smoke.json`` payload: schema validity, the
embedded hard checks, leaderboard sanity, and the measured shot-cost
crossover section.  Statistical and minutes-long, so it is excluded from tier-1
and selected explicitly with ``-m arena`` (CI's arena-smoke job).
"""

import math

import pytest

from repro.analysis.runner import run_matrix
from repro.arena.report import ARENA_SCHEMA_ID, validate_arena_payload

pytestmark = pytest.mark.arena


@pytest.fixture(scope="module")
def arena_payload():
    """One shared smoke sweep (served from the default on-disk cache
    when the CLI's ``arena --smoke`` ran first, as in CI)."""
    payload, _records = run_matrix("arena", "smoke", jobs=2)
    return payload


def test_payload_is_schema_valid(arena_payload):
    """The merged payload passes the declared arena schema."""
    validate_arena_payload(arena_payload)
    assert arena_payload["schema"] == ARENA_SCHEMA_ID


def test_every_hard_check_passes(arena_payload):
    """The embedded tournament locks hold at smoke scale."""
    failed = [
        c["check_id"]
        for c in arena_payload["checks"]
        if c["hard"] and not c["passed"]
    ]
    assert failed == []


def test_checks_are_the_golden_tracked_contract(
    arena_payload, assert_golden_tracked
):
    """The embedded checks are the golden-tracked ``arena.*`` checks."""
    assert_golden_tracked(arena_payload["checks"], "arena.")


def test_full_grid_is_covered(arena_payload):
    """Every (diagnoser, kind, N) cell is present exactly once."""
    seen = {
        (c["diagnoser"], c["scenario"], c["n_qubits"])
        for c in arena_payload["cells"]
    }
    expected = {
        (d, k, n)
        for d in arena_payload["diagnosers"]
        for k in arena_payload["kinds"]
        for n in (6, 8)
    }
    assert seen == expected
    assert len(arena_payload["cells"]) == len(expected)


def test_leaderboard_ranks_every_strategy_above_null(arena_payload):
    """All five real strategies outrank the never-detect floor."""
    rank = {r["diagnoser"]: r["rank"] for r in arena_payload["leaderboard"]}
    for name in ("battery", "point-check", "binary-search",
                 "contrast-ranked", "syndrome"):
        assert rank[name] < rank["null"]


def test_adaptive_strategies_pay_adaptations(arena_payload):
    """Fig. 10's cost split: adaptive strategies adapt, batches do not."""
    board = {r["diagnoser"]: r for r in arena_payload["leaderboard"]}
    assert board["binary-search"]["mean_adaptations"] > 0
    assert board["battery"]["mean_adaptations"] == 0
    assert board["point-check"]["mean_adaptations"] == 0


def test_crossover_section_measures_both_sizes(arena_payload):
    """Shot costs for battery and search are positive at every N."""
    per_n = arena_payload["crossover"]["per_n"]
    assert [row["n_qubits"] for row in per_n] == [6, 8]
    for row in per_n:
        assert row["battery_shots"] > 0
        assert row["binary_search_shots"] > 0
        assert row["shot_ratio"] == pytest.approx(
            row["battery_shots"] / row["binary_search_shots"]
        )


def test_worst_ambiguity_is_maximal_in_every_cell(arena_payload):
    """The accuse-everything baseline's group is C(N,2) everywhere."""
    for cell in arena_payload["cells"]:
        if cell["diagnoser"] == "worst" and cell["fault_trials"]:
            assert cell["mean_ambiguity"] == pytest.approx(
                math.comb(cell["n_qubits"], 2)
            )
