"""Tier-2 fleet suite: the full smoke policy sweep, end to end.

Runs the real ``run_matrix("fleet")`` sweep (every maintenance policy
over the same fleet window) and asserts the report contract the CI gate relies
on: schema-valid payload, every hard check passing — including the
battery-beats-periodic uptime comparison and the Fig. 2 duty-cycle
reconciliation — and bit-reproducibility of a same-seed re-run.  Slow
(tens of seconds), so excluded from tier-1 and selected explicitly with
``-m fleet`` (CI's fleet-smoke job).
"""

import copy
import json

import pytest

from repro.analysis.runner import run_matrix
from repro.fleet.report import FLEET_SCHEMA_ID, validate_fleet_payload

pytestmark = pytest.mark.fleet


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    cache = tmp_path_factory.mktemp("fleet-cache")
    payload, records = run_matrix("fleet", preset="smoke", cache_dir=cache)
    return payload, records, cache


def _stable(payload):
    """The payload minus run-time-of-day fields."""
    clone = copy.deepcopy(payload)
    clone.pop("created_unix", None)
    clone.pop("provenance", None)
    for record in clone.get("records", []):
        record.pop("cache_hit", None)
    return clone


class TestReportContract:
    """Schema, checks, and the acceptance comparisons."""

    def test_payload_validates(self, smoke):
        payload, _records, _cache = smoke
        assert payload["schema"] == FLEET_SCHEMA_ID
        validate_fleet_payload(payload)  # raises on any violation

    def test_all_hard_checks_pass(self, smoke):
        payload, _records, _cache = smoke
        failed = [
            check["check_id"]
            for check in payload["checks"]
            if check["hard"] and not check["passed"]
        ]
        assert failed == []

    def test_checks_are_the_golden_tracked_contract(
        self, smoke, assert_golden_tracked
    ):
        """The embedded checks are the golden-tracked ``fleet.*`` checks."""
        payload, _records, _cache = smoke
        assert_golden_tracked(payload["checks"], "fleet.")

    def test_battery_beats_periodic_on_uptime(self, smoke):
        payload, _records, _cache = smoke
        cells = {cell["policy"]: cell for cell in payload["cells"]}
        assert (
            cells["battery"]["uptime"]
            > cells["periodic-recalibration"]["uptime"]
        )

    def test_every_trap_window_is_defined_and_balanced(self, smoke):
        payload, _records, _cache = smoke
        for cell in payload["cells"]:
            for trap in cell["traps"]:
                assert trap["final_state"] in (
                    "healthy",
                    "under-repair",
                    "quarantined-degraded",
                )
                assert (
                    sum(trap["fault_resolutions"].values())
                    == trap["faults_injected"]
                )


class TestReproducibility:
    """Same seed, same bits (modulo provenance timestamps)."""

    def test_cache_served_rerun_is_identical(self, smoke):
        payload, _records, cache = smoke
        again, _records2 = run_matrix("fleet", preset="smoke", cache_dir=cache)
        assert _stable(again) == _stable(payload)

    def test_uncached_rerun_is_identical(self, smoke):
        payload, _records, _cache = smoke
        fresh, _records2 = run_matrix("fleet", preset="smoke", use_cache=False)
        assert json.dumps(_stable(fresh), sort_keys=True) == json.dumps(
            _stable(payload), sort_keys=True
        )


class TestRunnerGuards:
    """Bad requests fail fast, before any simulation."""

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            run_matrix(
                "fleet", preset="smoke", values=["crystal-ball"], use_cache=False
            )
