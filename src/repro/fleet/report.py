"""Schema'd fleet reports (``FLEET_<label>.json``).

The matrix runner (:func:`repro.analysis.runner.run_matrix` with
``"fleet"``, behind ``python -m repro fleet``) merges per-policy
experiment records into one payload: every policy's uptime / throughput
/ MTTR / corruption cell, a leaderboard ranked by good jobs per hour,
and embedded golden-style checks that gate the CLI exit code — including
the Fig. 2 reconciliation: the simulated point-check baseline must land
on the paper's duty-cycle fractions, and the battery's measured jobs
share must agree with what
:func:`~repro.trap.duty_cycle.improved_duty_cycle` projects from the
measured episode speed-up. Hand-validated like the arena and scenario
reports, so the artifact stays dependency-free and diffable across PRs.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import Any

from ..provenance import (
    provenance,
    validate_matrix_records,
    validate_report_envelope,
)
from ..trap.duty_cycle import DutyCycleBreakdown, improved_duty_cycle
from ..validation.specs import Check
from .policies import POLICY_NAMES
from .traps import TRAP_STATES

__all__ = [
    "FLEET_SCHEMA_ID",
    "fleet_checks",
    "fleet_leaderboard",
    "fleet_payload",
    "validate_fleet_payload",
]

#: Schema identifier stamped into (and required of) every fleet payload.
FLEET_SCHEMA_ID = "repro-fleet/v1"

#: The simulated baseline whose duty cycle must reproduce Fig. 2.
_BASELINE_POLICY = "point-check"

#: Cell fields that must be non-negative integers.
_CELL_COUNTS = (
    "diagnosis_episodes",
    "faults_injected",
    "faults_repaired",
    "faults_quarantined",
    "misdiagnoses",
    "repair_failures",
    "stalls",
    "timeouts",
    "jobs_lost_to_undetected_faults",
)

#: Tolerance band around each Fig. 2 fraction for the baseline policy.
_FIG2_BAND = 0.12

#: Allowed gap between the battery's measured jobs share and the
#: ``improved_duty_cycle`` projection from the measured speed-up.
_PROJECTION_BAND = 0.10

#: Allowed excess of the battery's corrupted-job rate over periodic
#: recalibration's (the equal-fault-coverage side of the uptime claim).
_COVERAGE_BAND = 0.10


def fleet_leaderboard(cells: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Rank the policies: throughput first, uptime second.

    Good jobs per hour is the quantity a fleet operator sells; uptime
    breaks ties (a policy can buy throughput with risk, so both are
    shown alongside the corruption rate it paid).
    """
    rows = [
        {
            "policy": cell["policy"],
            "uptime": cell["uptime"],
            "good_jobs_per_hour": cell["good_jobs_per_hour"],
            "corrupted_job_rate": cell["corrupted_job_rate"],
            "mttr_seconds": cell["mttr_seconds"],
            "faults_repaired": cell["faults_repaired"],
            "faults_quarantined": cell["faults_quarantined"],
            "stalls": cell["stalls"],
        }
        for cell in cells
    ]
    rows.sort(
        key=lambda r: (-r["good_jobs_per_hour"], -r["uptime"], r["policy"])
    )
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return rows


def _cell_by_policy(
    cells: list[dict[str, Any]], policy: str
) -> dict[str, Any] | None:
    """The (single) cell of one policy, if it was swept."""
    for cell in cells:
        if cell["policy"] == policy:
            return cell
    return None


def _measured_breakdown(cell: dict[str, Any]) -> DutyCycleBreakdown:
    """A cell's duty cycle as a validated three-slice breakdown."""
    duty = cell["duty_cycle"]
    return DutyCycleBreakdown(
        jobs=duty["jobs"],
        coupling_tests=duty["coupling_tests"],
        other_calibration=duty["other_calibration"],
        label=f"simulated {cell['policy']}",
    )


def fleet_checks(cells: list[dict[str, Any]]) -> list[Check]:
    """The payload's embedded golden-style checks.

    Hard checks gate the CLI exit code: the battery beats periodic full
    recalibration on uptime without paying for it in corrupted jobs,
    every trap ends the window in a defined state with every injected
    fault accounted for, and the simulated baseline's duty cycle
    reconciles with Fig. 2 both directly and through the
    ``improved_duty_cycle`` projection.
    """
    checks: list[Check] = []
    battery = _cell_by_policy(cells, "battery")
    periodic = _cell_by_policy(cells, "periodic-recalibration")
    baseline = _cell_by_policy(cells, _BASELINE_POLICY)

    both = battery is not None and periodic is not None
    checks.append(
        Check(
            check_id="fleet.battery_beats_periodic_uptime",
            description=(
                "the paper's battery policy yields higher fleet uptime than "
                "periodic full recalibration at the same check cadence"
            ),
            passed=bool(both and battery["uptime"] > periodic["uptime"]),
            hard=True,
            observed=(
                f"battery {battery['uptime']:.3f} vs periodic "
                f"{periodic['uptime']:.3f}"
                if both
                else "policy missing from sweep"
            ),
            target="battery uptime > periodic uptime",
            value=battery["uptime"] if battery else None,
            drift_tolerance=0.25,
        )
    )

    checks.append(
        Check(
            check_id="fleet.coverage_parity",
            description=(
                "the battery's uptime win is not bought with undetected "
                "faults: its corrupted-job rate stays within "
                f"{_COVERAGE_BAND:.2f} of periodic recalibration's"
            ),
            passed=bool(
                both
                and battery["corrupted_job_rate"]
                <= periodic["corrupted_job_rate"] + _COVERAGE_BAND
            ),
            hard=True,
            observed=(
                f"battery {battery['corrupted_job_rate']:.3f} vs periodic "
                f"{periodic['corrupted_job_rate']:.3f}"
                if both
                else "policy missing from sweep"
            ),
            target=f"battery rate <= periodic rate + {_COVERAGE_BAND:.2f}",
            value=battery["corrupted_job_rate"] if battery else None,
            drift_tolerance=0.25,
        )
    )

    undefined = [
        (cell["policy"], trap["index"], trap["final_state"])
        for cell in cells
        for trap in cell["traps"]
        if trap["final_state"] not in TRAP_STATES
    ]
    state_totals_ok = all(
        sum(cell["final_states"].values()) == cell["n_traps"] for cell in cells
    )
    checks.append(
        Check(
            check_id="fleet.defined_final_states",
            description=(
                "every trap of every policy ends the window in a defined "
                "state (healthy, under-repair, quarantined-degraded)"
            ),
            passed=not undefined and state_totals_ok,
            hard=True,
            observed=(
                f"{sum(len(c['traps']) for c in cells)} trap windows, "
                f"{len(undefined)} undefined"
            ),
            target="0 undefined states, totals match the fleet size",
            value=float(len(undefined)),
            drift_tolerance=0.0,
        )
    )

    unbalanced = [
        (cell["policy"], trap["index"])
        for cell in cells
        for trap in cell["traps"]
        if sum(trap["fault_resolutions"].values()) != trap["faults_injected"]
    ]
    checks.append(
        Check(
            check_id="fleet.faults_accounted",
            description=(
                "every injected fault is accounted for: repaired, swept by "
                "recalibration, quarantined, or still active at the horizon"
            ),
            passed=not unbalanced,
            hard=True,
            observed=f"{len(unbalanced)} trap window(s) out of balance",
            target="resolutions sum to injections on every trap",
            value=float(len(unbalanced)),
            drift_tolerance=0.0,
        )
    )

    fig2 = DutyCycleBreakdown()
    if baseline is not None:
        measured = _measured_breakdown(baseline)
        deltas = {
            "jobs": abs(measured.jobs - fig2.jobs),
            "coupling_tests": abs(measured.coupling_tests - fig2.coupling_tests),
            "other_calibration": abs(
                measured.other_calibration - fig2.other_calibration
            ),
        }
        worst = max(deltas.values())
        observed = (
            f"jobs {measured.jobs:.3f}/{fig2.jobs:.2f}, tests "
            f"{measured.coupling_tests:.3f}/{fig2.coupling_tests:.2f}, other "
            f"{measured.other_calibration:.3f}/{fig2.other_calibration:.2f}"
        )
    else:
        worst, observed = None, "point-check baseline missing from sweep"
    checks.append(
        Check(
            check_id="fleet.duty_cycle_fig2",
            description=(
                "the simulated point-check baseline reproduces Fig. 2's "
                "duty-cycle breakdown (53/25/22) within "
                f"+-{_FIG2_BAND:.2f} per slice"
            ),
            passed=bool(worst is not None and worst <= _FIG2_BAND),
            hard=True,
            observed=observed,
            target=f"every slice within +-{_FIG2_BAND:.2f} of Fig. 2",
            value=worst,
            drift_tolerance=0.25,
        )
    )

    projectable = (
        battery is not None
        and baseline is not None
        and battery["mean_diagnosis_seconds"]
        and baseline["mean_diagnosis_seconds"]
    )
    if projectable:
        speedup = (
            baseline["mean_diagnosis_seconds"]
            / battery["mean_diagnosis_seconds"]
        )
        if speedup >= 1.0:
            projected = improved_duty_cycle(
                _measured_breakdown(baseline), speedup
            )
            delta = abs(battery["duty_cycle"]["jobs"] - projected.jobs)
            passed = delta <= _PROJECTION_BAND
            observed = (
                f"speedup {speedup:.2f}x, battery jobs "
                f"{battery['duty_cycle']['jobs']:.3f} vs projected "
                f"{projected.jobs:.3f}"
            )
        else:
            delta, passed = None, False
            observed = f"battery slower than baseline (speedup {speedup:.2f}x)"
    else:
        delta, passed = None, False
        observed = "battery or baseline episode durations missing"
    checks.append(
        Check(
            check_id="fleet.improved_duty_cycle_consistent",
            description=(
                "the battery's measured jobs share agrees with the "
                "improved_duty_cycle projection from the measured episode "
                f"speed-up (within {_PROJECTION_BAND:.2f})"
            ),
            passed=bool(passed),
            hard=True,
            observed=observed,
            target=f"|measured - projected| <= {_PROJECTION_BAND:.2f}",
            value=delta,
            drift_tolerance=0.25,
        )
    )

    exercised = sum(
        cell["stalls"]
        + cell["misdiagnoses"]
        + cell["repair_failures"]
        + cell["faults_quarantined"]
        for cell in cells
    )
    checks.append(
        Check(
            check_id="fleet.failure_path_exercised",
            description=(
                "the robustness machinery actually fired: at least one "
                "stall, misdiagnosis, repair failure or quarantine across "
                "the sweep"
            ),
            passed=exercised > 0,
            hard=True,
            observed=f"{exercised} failure-path event(s)",
            target=">= 1 event",
            value=float(exercised),
            drift_tolerance=0.25,
        )
    )
    return checks


def fleet_payload(
    preset: str,
    cells: list[dict[str, Any]],
    detect_floor: float,
    corruption_floor: float,
    records: list[dict[str, Any]],
    label: str | None = None,
) -> dict[str, Any]:
    """Assemble the schema'd fleet report from merged policy cells.

    Derives the leaderboard and embedded checks from ``cells``;
    ``records`` carries per-policy run provenance (config digest, cache
    hit), mirroring the arena report.
    """
    checks = fleet_checks(cells)
    return {
        "schema": FLEET_SCHEMA_ID,
        "label": label or preset,
        "preset": preset,
        "created_unix": time.time(),
        "provenance": provenance(),
        "detect_floor": detect_floor,
        "corruption_floor": corruption_floor,
        "policies": [cell["policy"] for cell in cells],
        "cells": cells,
        "leaderboard": fleet_leaderboard(cells),
        "checks": [asdict(check) for check in checks],
        "records": records,
    }


def validate_fleet_payload(payload: Any) -> None:
    """Raise ``ValueError`` listing every way ``payload`` violates the schema."""
    problems: list[str] = []

    def _check(cond: bool, message: str) -> None:
        if not cond:
            problems.append(message)

    _check(isinstance(payload, dict), "payload must be a JSON object")
    if not isinstance(payload, dict):
        raise ValueError("invalid fleet payload: payload must be a JSON object")
    problems.extend(validate_report_envelope(payload, FLEET_SCHEMA_ID))
    for scalar in ("detect_floor", "corruption_floor"):
        _check(
            isinstance(payload.get(scalar), (int, float)),
            f"{scalar} must be a number",
        )
    policies = payload.get("policies")
    _check(
        isinstance(policies, list)
        and policies
        and all(p in POLICY_NAMES for p in policies),
        "policies must be a non-empty list of known policies",
    )
    cells = payload.get("cells")
    _check(
        isinstance(cells, list) and len(cells) > 0,
        "cells must be a non-empty array",
    )
    if isinstance(cells, list):
        for k, cell in enumerate(cells):
            where = f"cells[{k}]"
            if not isinstance(cell, dict):
                problems.append(f"{where} must be an object")
                continue
            _check(
                cell.get("policy") in POLICY_NAMES,
                f"{where}.policy must be a known policy",
            )
            _check(
                isinstance(cell.get("n_qubits"), int)
                and cell.get("n_qubits", 0) >= 4,
                f"{where}.n_qubits must be an integer >= 4",
            )
            _check(
                isinstance(cell.get("n_traps"), int)
                and cell.get("n_traps", 0) >= 1,
                f"{where}.n_traps must be a positive integer",
            )
            for count in _CELL_COUNTS:
                _check(
                    isinstance(cell.get(count), int)
                    and not isinstance(cell.get(count), bool)
                    and cell.get(count, -1) >= 0,
                    f"{where}.{count} must be a non-negative integer",
                )
            uptime = cell.get("uptime")
            _check(
                isinstance(uptime, (int, float)) and 0.0 <= uptime <= 1.0,
                f"{where}.uptime must be a number in [0, 1]",
            )
            rate = cell.get("corrupted_job_rate")
            _check(
                isinstance(rate, (int, float)) and 0.0 <= rate <= 1.0,
                f"{where}.corrupted_job_rate must be a number in [0, 1]",
            )
            _check(
                isinstance(cell.get("good_jobs_per_hour"), (int, float))
                and cell.get("good_jobs_per_hour", -1) >= 0,
                f"{where}.good_jobs_per_hour must be a non-negative number",
            )
            mttr = cell.get("mttr_seconds")
            _check(
                mttr is None or (isinstance(mttr, (int, float)) and mttr >= 0),
                f"{where}.mttr_seconds must be a non-negative number or null",
            )
            duty = cell.get("duty_cycle")
            _check(isinstance(duty, dict), f"{where}.duty_cycle must be an object")
            if isinstance(duty, dict):
                for slice_name in ("jobs", "coupling_tests", "other_calibration"):
                    fraction = duty.get(slice_name)
                    _check(
                        isinstance(fraction, (int, float))
                        and 0.0 <= fraction <= 1.0,
                        f"{where}.duty_cycle.{slice_name} must be in [0, 1]",
                    )
            traps = cell.get("traps")
            _check(
                isinstance(traps, list) and len(traps) > 0,
                f"{where}.traps must be a non-empty array",
            )
            if isinstance(traps, list):
                for j, trap in enumerate(traps):
                    tw = f"{where}.traps[{j}]"
                    if not isinstance(trap, dict):
                        problems.append(f"{tw} must be an object")
                        continue
                    _check(
                        trap.get("final_state") in TRAP_STATES,
                        f"{tw}.final_state must be a defined trap state",
                    )
                    _check(
                        isinstance(trap.get("fault_resolutions"), dict),
                        f"{tw}.fault_resolutions must be an object",
                    )
            states = cell.get("final_states")
            _check(
                isinstance(states, dict)
                and set(states) == set(TRAP_STATES),
                f"{where}.final_states must map every defined state",
            )
    board = payload.get("leaderboard")
    _check(
        isinstance(board, list) and len(board) > 0,
        "leaderboard must be a non-empty array",
    )
    if isinstance(board, list):
        for k, row in enumerate(board):
            where = f"leaderboard[{k}]"
            if not isinstance(row, dict):
                problems.append(f"{where} must be an object")
                continue
            _check(
                row.get("policy") in POLICY_NAMES,
                f"{where}.policy must be a known policy",
            )
            _check(
                isinstance(row.get("rank"), int) and row.get("rank", 0) >= 1,
                f"{where}.rank must be a positive integer",
            )
    checks = payload.get("checks")
    _check(
        isinstance(checks, list) and len(checks) > 0,
        "checks must be a non-empty array",
    )
    if isinstance(checks, list):
        for k, check in enumerate(checks):
            where = f"checks[{k}]"
            if not isinstance(check, dict):
                problems.append(f"{where} must be an object")
                continue
            _check(
                isinstance(check.get("check_id"), str)
                and check.get("check_id", "").startswith("fleet."),
                f"{where}.check_id must be a 'fleet.'-prefixed string",
            )
            for flag in ("passed", "hard"):
                _check(
                    isinstance(check.get(flag), bool),
                    f"{where}.{flag} must be a boolean",
                )
    problems.extend(validate_matrix_records(payload.get("records"), "policies"))
    if problems:
        raise ValueError("invalid fleet payload: " + "; ".join(problems))
