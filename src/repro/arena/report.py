"""Schema'd arena leaderboards (``ARENA_<label>.json``).

The matrix runner (:func:`repro.analysis.runner.run_matrix` with
``"arena"``, behind ``python -m repro arena``) merges per-scenario-kind
experiment records into one tournament payload: every (diagnoser,
scenario kind, machine size) cell's detection/isolation/cost aggregates,
a pooled per-diagnoser leaderboard, the measured
battery-vs-binary-search shot-cost crossover (Fig. 10's economics claim,
measured rather than assumed), and the embedded golden-style checks that
gate the CLI exit code. Like the scenario matrix, the schema is
hand-validated (:func:`validate_arena_payload`) so the report stays
dependency-free and diffable across PRs.
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
from ..scenarios.spec import SCENARIO_KINDS
from ..validation.specs import Check
from ..validation.stats import binomial_ci
from .diagnosers import BASELINE_NAMES, STRATEGY_NAMES
from .scoring import CellScore

__all__ = [
    "ARENA_SCHEMA_ID",
    "arena_checks",
    "arena_payload",
    "cell_payload",
    "crossover_section",
    "leaderboard",
    "validate_arena_payload",
]

#: Schema identifier stamped into (and required of) every arena payload.
ARENA_SCHEMA_ID = "repro-arena/v1"

#: Every registered diagnoser, leaderboard order.
ALL_DIAGNOSERS = (*STRATEGY_NAMES, *BASELINE_NAMES)

#: Cell fields that must be non-negative integers.
_CELL_COUNTS = (
    "fault_trials",
    "clean_trials",
    "ambiguous_trials",
    "detections",
    "false_alarms",
    "isolated",
    "covered",
    "timeouts",
)

#: Cell fields that must be non-negative numbers.
_CELL_MEANS = (
    "mean_precision",
    "mean_ambiguity",
    "mean_shots",
    "mean_adaptations",
    "mean_wall_seconds",
)


def cell_payload(cell: CellScore) -> dict[str, Any]:
    """One aggregated arena cell as a JSON-able dict."""
    return {
        "diagnoser": cell.diagnoser,
        "scenario": cell.kind,
        "n_qubits": cell.n_qubits,
        "fault_trials": cell.fault_trials,
        "clean_trials": cell.clean_trials,
        "ambiguous_trials": cell.ambiguous_trials,
        "detections": cell.detections,
        "false_alarms": cell.false_alarms,
        "isolated": cell.isolated,
        "covered": cell.covered,
        "mean_precision": cell.mean_precision() or 0.0,
        "mean_ambiguity": cell.mean_ambiguity() or 0.0,
        "mean_shots": cell.mean_shots(),
        "mean_adaptations": cell.mean_adaptations(),
        "mean_wall_seconds": cell.mean_wall(),
        "timeouts": cell.timeouts,
    }


def leaderboard(cells: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Pool cells per diagnoser and rank them.

    Ranking is lexicographic: detection CI lower bound (desc), mean
    isolation precision (desc), mean shots (asc) — detect first, accuse
    precisely second, spend little third.  Wall-clock is reported but
    not ranked on (it is hardware-dependent and would make the
    leaderboard non-reproducible across machines).
    """
    pooled: dict[str, dict[str, float]] = {}
    for cell in cells:
        row = pooled.setdefault(
            cell["diagnoser"],
            {key: 0.0 for key in (*_CELL_COUNTS, "cells", *_WEIGHTED)},
        )
        row["cells"] += 1
        for key in _CELL_COUNTS:
            row[key] += cell[key]
        trials = (
            cell["fault_trials"]
            + cell["clean_trials"]
            + cell["ambiguous_trials"]
        )
        row["shots_sum"] += cell["mean_shots"] * trials
        row["adaptations_sum"] += cell["mean_adaptations"] * trials
        row["wall_sum"] += cell["mean_wall_seconds"] * trials
        row["precision_sum"] += cell["mean_precision"] * cell["fault_trials"]
        row["ambiguity_sum"] += cell["mean_ambiguity"] * cell["fault_trials"]
        row["trials"] += trials
    rows = []
    for name, row in pooled.items():
        fault = int(row["fault_trials"])
        clean = int(row["clean_trials"])
        trials = int(row["trials"])
        ci = binomial_ci(int(row["detections"]), fault) if fault else None
        rows.append(
            {
                "diagnoser": name,
                "fault_trials": fault,
                "clean_trials": clean,
                "detections": int(row["detections"]),
                "detection_rate": (row["detections"] / fault) if fault else None,
                "detection_ci_lower": ci.lower if ci else None,
                "false_alarm_rate": (
                    row["false_alarms"] / clean if clean else None
                ),
                "isolation_rate": (row["isolated"] / fault) if fault else None,
                "mean_precision": (
                    row["precision_sum"] / fault if fault else None
                ),
                "mean_ambiguity": (
                    row["ambiguity_sum"] / fault if fault else None
                ),
                "mean_shots": row["shots_sum"] / trials if trials else 0.0,
                "mean_adaptations": (
                    row["adaptations_sum"] / trials if trials else 0.0
                ),
                "mean_wall_seconds": row["wall_sum"] / trials if trials else 0.0,
                "timeouts": int(row["timeouts"]),
            }
        )
    rows.sort(
        key=lambda r: (
            -(r["detection_ci_lower"] or 0.0),
            -(r["mean_precision"] or 0.0),
            r["mean_shots"],
            r["diagnoser"],
        )
    )
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return rows


_WEIGHTED = (
    "trials",
    "shots_sum",
    "adaptations_sum",
    "wall_sum",
    "precision_sum",
    "ambiguity_sum",
)


def crossover_section(cells: list[dict[str, Any]]) -> dict[str, Any]:
    """Measure the battery-vs-binary-search shot-cost crossover.

    The Fig. 10 economics claim, measured instead of assumed: per
    machine size (pooled over scenario kinds), the mean shots and
    adaptations of the non-adaptive battery, the brute-force point
    checks (the N² reference) and the adaptive binary search.
    ``crossover_n`` is the smallest N where the battery's mean shot cost
    drops to or below the search's (``None`` when the sign never flips
    in the measured range — itself a result worth recording).
    """
    by_n: dict[int, dict[str, dict[str, float]]] = {}
    for cell in cells:
        if cell["diagnoser"] not in ("battery", "point-check", "binary-search"):
            continue
        slot = by_n.setdefault(cell["n_qubits"], {}).setdefault(
            cell["diagnoser"], {"shots": 0.0, "adaptations": 0.0, "cells": 0}
        )
        slot["shots"] += cell["mean_shots"]
        slot["adaptations"] += cell["mean_adaptations"]
        slot["cells"] += 1
    per_n = []
    for n in sorted(by_n):

        def _mean(name: str, field: str) -> float:
            slot = by_n[n].get(name)
            return slot[field] / slot["cells"] if slot and slot["cells"] else 0.0

        battery = _mean("battery", "shots")
        search = _mean("binary-search", "shots")
        per_n.append(
            {
                "n_qubits": n,
                "battery_shots": battery,
                "point_check_shots": _mean("point-check", "shots"),
                "binary_search_shots": search,
                "battery_adaptations": _mean("battery", "adaptations"),
                "binary_search_adaptations": _mean(
                    "binary-search", "adaptations"
                ),
                "shot_ratio": battery / search if search else None,
            }
        )
    crossover_n = None
    for row in per_n:
        if (
            row["binary_search_shots"] > 0
            and row["battery_shots"] <= row["binary_search_shots"]
        ):
            crossover_n = row["n_qubits"]
            break
    return {"per_n": per_n, "crossover_n": crossover_n}


def arena_checks(
    cells: list[dict[str, Any]],
    crossover: dict[str, Any],
    random_detect_rate: float,
) -> list[Check]:
    """The payload's embedded golden-style checks.

    Hard checks gate the CLI exit code (and, via the registered
    validation contract, the validate command): the battery's detection
    CI lower bound beats the Random baseline's *analytic* rate in every
    (kind, N) cell, no diagnoser ever hit its hard timeout, Null never
    raised an alarm, Worst's ambiguity group is maximal everywhere, and
    the shot-cost crossover was actually measured on at least two
    machine sizes.
    """
    checks: list[Check] = []

    battery = [c for c in cells if c["diagnoser"] == "battery"]
    worst_cell, worst_ci = None, 1.0
    all_beat = bool(battery)
    for cell in battery:
        if not cell["fault_trials"]:
            continue
        ci = binomial_ci(cell["detections"], cell["fault_trials"])
        if ci.lower <= random_detect_rate:
            all_beat = False
        if ci.lower < worst_ci:
            worst_ci, worst_cell = ci.lower, cell
    checks.append(
        Check(
            check_id="arena.battery_beats_random",
            description=(
                "battery detection CI lower bound beats Random's analytic "
                f"rate ({random_detect_rate:.2f}) in every (kind, N) cell"
            ),
            passed=all_beat,
            hard=True,
            observed=(
                "worst cell "
                f"{worst_cell['scenario']}/n={worst_cell['n_qubits']} "
                f"{worst_cell['detections']}/{worst_cell['fault_trials']} "
                f"(CI lower {worst_ci:.3f})"
                if worst_cell
                else "no battery fault trials"
            ),
            target=f"every cell's CI lower bound > {random_detect_rate:.2f}",
            value=worst_ci if worst_cell else None,
            drift_tolerance=0.25,
        )
    )

    timeouts = sum(c["timeouts"] for c in cells)
    checks.append(
        Check(
            check_id="arena.no_hard_timeouts",
            description="no diagnoser exceeded its hard time budget",
            passed=timeouts == 0,
            hard=True,
            observed=f"{timeouts} timeout(s) across {len(cells)} cells",
            target="0 timeouts",
            value=float(timeouts),
            drift_tolerance=0.0,
        )
    )

    null_alarms = sum(
        c["detections"] + c["false_alarms"]
        for c in cells
        if c["diagnoser"] == "null"
    )
    checks.append(
        Check(
            check_id="arena.null_never_detects",
            description="the Null baseline never raises an alarm",
            passed=null_alarms == 0,
            hard=True,
            observed=f"{null_alarms} alarm(s)",
            target="0 alarms",
            value=float(null_alarms),
            drift_tolerance=0.0,
        )
    )

    worst_rows = [
        c for c in cells if c["diagnoser"] == "worst" and c["fault_trials"]
    ]
    maximal = all(
        abs(c["mean_ambiguity"] - _n_pairs(c["n_qubits"])) < 1e-9
        for c in worst_rows
    )
    checks.append(
        Check(
            check_id="arena.worst_max_ambiguity",
            description=(
                "the Worst baseline's ambiguity group is all C(N,2) "
                "couplings on every fault trial"
            ),
            passed=bool(worst_rows) and maximal,
            hard=True,
            observed=f"{len(worst_rows)} cells checked",
            target="mean ambiguity == C(N,2) in every cell",
            value=float(len(worst_rows)),
            drift_tolerance=None,
        )
    )

    measured = [
        row
        for row in crossover["per_n"]
        if row["battery_shots"] > 0 and row["binary_search_shots"] > 0
    ]
    checks.append(
        Check(
            check_id="arena.crossover_measured",
            description=(
                "the battery-vs-binary-search shot-cost crossover is "
                "measured on at least two machine sizes"
            ),
            passed=len(measured) >= 2,
            hard=True,
            observed=(
                f"{len(measured)} size(s): "
                + ", ".join(
                    f"N={row['n_qubits']} ratio {row['shot_ratio']:.2f}"
                    for row in measured
                )
                + f"; crossover_n={crossover['crossover_n']}"
            ),
            target=">= 2 sizes with positive shot costs for both",
            value=float(len(measured)),
            drift_tolerance=None,
        )
    )

    battery_precision = _pooled_precision(cells, "battery")
    worst_precision = _pooled_precision(cells, "worst")
    checks.append(
        Check(
            check_id="arena.battery_precision_beats_worst",
            description=(
                "battery isolation precision exceeds the accuse-everything "
                "baseline's"
            ),
            passed=battery_precision > worst_precision,
            hard=False,
            observed=(
                f"battery {battery_precision:.3f} vs worst "
                f"{worst_precision:.3f}"
            ),
            target="battery > worst",
            value=battery_precision,
            drift_tolerance=0.25,
        )
    )
    return checks


def _n_pairs(n_qubits: int) -> float:
    """C(N, 2) as a float."""
    return n_qubits * (n_qubits - 1) / 2.0


def _pooled_precision(cells: list[dict[str, Any]], name: str) -> float:
    """Fault-trial-weighted mean precision of one diagnoser."""
    rows = [c for c in cells if c["diagnoser"] == name]
    fault = sum(c["fault_trials"] for c in rows)
    if not fault:
        return 0.0
    return sum(c["mean_precision"] * c["fault_trials"] for c in rows) / fault


def arena_payload(
    preset: str,
    cells: list[dict[str, Any]],
    budget: dict[str, Any],
    detect_floor: float,
    random_detect_rate: float,
    records: list[dict[str, Any]],
    label: str | None = None,
) -> dict[str, Any]:
    """Assemble the schema'd arena report from merged cell dicts.

    Derives the leaderboard, crossover section and embedded checks from
    ``cells``; ``records`` carries per-kind run provenance (config
    digest, cache hit), mirroring the scenario-matrix report.
    """
    crossover = crossover_section(cells)
    checks = arena_checks(cells, crossover, random_detect_rate)
    return {
        "schema": ARENA_SCHEMA_ID,
        "label": label or preset,
        "preset": preset,
        "created_unix": time.time(),
        "provenance": provenance(),
        "detect_floor": detect_floor,
        "random_detect_rate": random_detect_rate,
        "budget": budget,
        "kinds": sorted({cell["scenario"] for cell in cells}),
        "diagnosers": sorted({cell["diagnoser"] for cell in cells}),
        "cells": cells,
        "leaderboard": leaderboard(cells),
        "crossover": crossover,
        "checks": [asdict(check) for check in checks],
        "records": records,
    }


def validate_arena_payload(payload: Any) -> None:
    """Raise ``ValueError`` listing every way ``payload`` violates the schema."""
    problems: list[str] = []

    def _check(cond: bool, message: str) -> None:
        if not cond:
            problems.append(message)

    _check(isinstance(payload, dict), "payload must be a JSON object")
    if not isinstance(payload, dict):
        raise ValueError("invalid arena payload: payload must be a JSON object")
    problems.extend(validate_report_envelope(payload, ARENA_SCHEMA_ID))
    for scalar in ("detect_floor", "random_detect_rate"):
        _check(
            isinstance(payload.get(scalar), (int, float)),
            f"{scalar} must be a number",
        )
    budget = payload.get("budget")
    _check(isinstance(budget, dict), "budget must be an object")
    if isinstance(budget, dict):
        for bound in ("soft_seconds", "hard_seconds"):
            value = budget.get(bound)
            _check(
                value is None or isinstance(value, (int, float)),
                f"budget.{bound} must be a number or null",
            )
    kinds = payload.get("kinds")
    _check(
        isinstance(kinds, list)
        and kinds
        and all(k in SCENARIO_KINDS for k in kinds),
        "kinds must be a non-empty list of known scenario kinds",
    )
    diagnosers = payload.get("diagnosers")
    _check(
        isinstance(diagnosers, list)
        and diagnosers
        and all(d in ALL_DIAGNOSERS for d in diagnosers),
        "diagnosers must be a non-empty list of registered diagnosers",
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
                cell.get("diagnoser") in ALL_DIAGNOSERS,
                f"{where}.diagnoser must be a registered diagnoser",
            )
            _check(
                cell.get("scenario") in SCENARIO_KINDS,
                f"{where}.scenario must be a known kind",
            )
            _check(
                isinstance(cell.get("n_qubits"), int)
                and cell.get("n_qubits", 0) >= 4,
                f"{where}.n_qubits must be an integer >= 4",
            )
            for count in _CELL_COUNTS:
                _check(
                    isinstance(cell.get(count), int)
                    and cell.get(count, -1) >= 0
                    and not isinstance(cell.get(count), bool),
                    f"{where}.{count} must be a non-negative integer",
                )
            for mean in _CELL_MEANS:
                _check(
                    isinstance(cell.get(mean), (int, float))
                    and cell.get(mean, -1) >= 0,
                    f"{where}.{mean} must be a non-negative number",
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
                row.get("diagnoser") in ALL_DIAGNOSERS,
                f"{where}.diagnoser must be a registered diagnoser",
            )
            _check(
                isinstance(row.get("rank"), int) and row.get("rank", 0) >= 1,
                f"{where}.rank must be a positive integer",
            )
    crossover = payload.get("crossover")
    _check(isinstance(crossover, dict), "crossover must be an object")
    if isinstance(crossover, dict):
        per_n = crossover.get("per_n")
        _check(isinstance(per_n, list), "crossover.per_n must be an array")
        n_value = crossover.get("crossover_n")
        _check(
            n_value is None or isinstance(n_value, int),
            "crossover.crossover_n must be an integer or null",
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
                and check.get("check_id", "").startswith("arena."),
                f"{where}.check_id must be an 'arena.'-prefixed string",
            )
            for flag in ("passed", "hard"):
                _check(
                    isinstance(check.get(flag), bool),
                    f"{where}.{flag} must be a boolean",
                )
    problems.extend(validate_matrix_records(payload.get("records"), "kinds"))
    if problems:
        raise ValueError("invalid arena payload: " + "; ".join(problems))
