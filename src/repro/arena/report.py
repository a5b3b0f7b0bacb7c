"""Schema'd arena leaderboards (``ARENA_<label>.json``).

The matrix runner (:func:`repro.analysis.runner.run_matrix` with
``"arena"``, behind ``python -m repro arena``) merges per-scenario-kind
experiment records into one tournament payload: every (diagnoser,
scenario kind, machine size) cell's detection/isolation/cost aggregates,
a pooled per-diagnoser leaderboard, the measured
battery-vs-binary-search shot-cost crossover (Fig. 10's economics claim,
measured rather than assumed), and the embedded checks that gate the CLI
exit code. Those checks are the registered arena contract's graded
``Check``s over the merged cells — the same ones ``validate`` grades and
``GOLDEN_smoke.json`` tracks. The schema is one declarative
:data:`ARENA_SHAPE` for the shared checker in :mod:`repro.provenance`,
so the report stays dependency-free and diffable.
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
from ..scenarios.spec import SCENARIO_KINDS
from ..validation.stats import binomial_ci
from .diagnosers import BASELINE_NAMES, STRATEGY_NAMES
from .scoring import CellScore

__all__ = [
    "ARENA_SCHEMA_ID",
    "ARENA_SHAPE",
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

_DIAGNOSER = Shape(None, one_of=ALL_DIAGNOSERS, says="a registered diagnoser")
_KIND = Shape(None, one_of=SCENARIO_KINDS, says="a known scenario kind")

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


def arena_payload(
    preset: str,
    cells: list[dict[str, Any]],
    budget: dict[str, Any],
    detect_floor: float,
    random_detect_rate: float,
    checks: list[dict[str, Any]],
    records: list[dict[str, Any]],
    label: str | None = None,
) -> dict[str, Any]:
    """Assemble the schema'd arena report from merged cell dicts.

    Derives the leaderboard and crossover section from ``cells``;
    ``checks`` are the arena contract's graded checks and ``records``
    carries per-kind run provenance (config digest, cache hit),
    mirroring the scenario-matrix report.
    """
    crossover = crossover_section(cells)
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
        "checks": checks,
        "records": records,
    }


#: The schema every arena payload must match.
ARENA_SHAPE = Shape(
    "object",
    fields={
        **report_fields(ARENA_SCHEMA_ID),
        "detect_floor": Shape("number"),
        "random_detect_rate": Shape("number"),
        "budget": Shape(
            "object",
            fields={
                "soft_seconds": Shape("number", nullable=True),
                "hard_seconds": Shape("number", nullable=True),
            },
        ),
        "kinds": Shape("list", nonempty=True, items=_KIND),
        "diagnosers": Shape("list", nonempty=True, items=_DIAGNOSER),
        "cells": Shape(
            "list",
            nonempty=True,
            items=Shape(
                "object",
                fields={
                    "diagnoser": _DIAGNOSER,
                    "scenario": _KIND,
                    "n_qubits": Shape("int", lo=4),
                    **{count: Shape("int", lo=0) for count in _CELL_COUNTS},
                    **{mean: Shape("number", lo=0) for mean in _CELL_MEANS},
                },
            ),
        ),
        "leaderboard": Shape(
            "list",
            nonempty=True,
            items=Shape(
                "object",
                fields={"diagnoser": _DIAGNOSER, "rank": Shape("int", lo=1)},
            ),
        ),
        "crossover": Shape(
            "object",
            fields={
                "per_n": Shape("list"),
                "crossover_n": Shape("int", nullable=True),
            },
        ),
        "checks": checks_shape("arena."),
        "records": records_shape("kinds"),
    },
)


def validate_arena_payload(payload: Any) -> None:
    """Raise ``ValueError`` listing every way ``payload`` violates the schema."""
    check_payload(payload, ARENA_SHAPE, "arena")
