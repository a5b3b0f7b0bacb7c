"""Schema'd fleet reports (``FLEET_<label>.json``).

The matrix runner (:func:`repro.analysis.runner.run_matrix` with
``"fleet"``, behind ``python -m repro fleet``) merges per-policy
experiment records into one payload: every policy's uptime / throughput
/ MTTR / corruption cell, a leaderboard ranked by good jobs per hour,
and embedded checks that gate the CLI exit code — including the Fig. 2
reconciliation: the simulated point-check baseline must land on the
paper's duty-cycle fractions, and the battery's measured jobs share must
agree with what :func:`~repro.trap.duty_cycle.improved_duty_cycle`
projects from the measured episode speed-up. Those checks are the
registered fleet contract's graded ``Check``s over the merged cells —
the same ones ``validate`` grades and ``GOLDEN_smoke.json`` tracks. The
schema is one declarative :data:`FLEET_SHAPE` for the shared checker in
:mod:`repro.provenance`, like the arena and scenario reports.
"""

from __future__ import annotations

import time
from typing import Any

from ..provenance import (
    Shape,
    check_payload,
    checks_shape,
    provenance,
    records_shape,
    report_fields,
)
from .policies import POLICY_NAMES
from .traps import TRAP_STATES

__all__ = [
    "FLEET_SCHEMA_ID",
    "FLEET_SHAPE",
    "fleet_leaderboard",
    "fleet_payload",
    "validate_fleet_payload",
]

#: Schema identifier stamped into (and required of) every fleet payload.
FLEET_SCHEMA_ID = "repro-fleet/v1"

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


def fleet_payload(
    preset: str,
    cells: list[dict[str, Any]],
    detect_floor: float,
    corruption_floor: float,
    checks: list[dict[str, Any]],
    records: list[dict[str, Any]],
    label: str | None = None,
) -> dict[str, Any]:
    """Assemble the schema'd fleet report from merged policy cells.

    Derives the leaderboard from ``cells``; ``checks`` are the fleet
    contract's graded checks and ``records`` carries per-policy run
    provenance (config digest, cache hit), mirroring the arena report.
    """
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
        "checks": checks,
        "records": records,
    }


_POLICY = Shape(None, one_of=POLICY_NAMES, says="a known policy")
_FRACTION = Shape("number", lo=0.0, hi=1.0)

#: The schema every fleet payload must match.
FLEET_SHAPE = Shape(
    "object",
    fields={
        **report_fields(FLEET_SCHEMA_ID),
        "detect_floor": Shape("number"),
        "corruption_floor": Shape("number"),
        "policies": Shape("list", nonempty=True, items=_POLICY),
        "cells": Shape(
            "list",
            nonempty=True,
            items=Shape(
                "object",
                fields={
                    "policy": _POLICY,
                    "n_qubits": Shape("int", lo=4),
                    "n_traps": Shape("int", lo=1),
                    **{count: Shape("int", lo=0) for count in _CELL_COUNTS},
                    "uptime": _FRACTION,
                    "corrupted_job_rate": _FRACTION,
                    "good_jobs_per_hour": Shape("number", lo=0),
                    "mttr_seconds": Shape("number", lo=0, nullable=True),
                    "duty_cycle": Shape(
                        "object",
                        fields={
                            "jobs": _FRACTION,
                            "coupling_tests": _FRACTION,
                            "other_calibration": _FRACTION,
                        },
                    ),
                    "traps": Shape(
                        "list",
                        nonempty=True,
                        items=Shape(
                            "object",
                            fields={
                                "final_state": Shape(
                                    None,
                                    one_of=TRAP_STATES,
                                    says="a defined trap state",
                                ),
                                "fault_resolutions": Shape("object"),
                            },
                        ),
                    ),
                    "final_states": Shape(
                        "object",
                        keys=TRAP_STATES,
                        says="an object mapping every defined state",
                    ),
                },
            ),
        ),
        "leaderboard": Shape(
            "list",
            nonempty=True,
            items=Shape(
                "object",
                fields={"policy": _POLICY, "rank": Shape("int", lo=1)},
            ),
        ),
        "checks": checks_shape("fleet."),
        "records": records_shape("policies"),
    },
)


def validate_fleet_payload(payload: Any) -> None:
    """Raise ``ValueError`` listing every way ``payload`` violates the schema."""
    check_payload(payload, FLEET_SHAPE, "fleet")
