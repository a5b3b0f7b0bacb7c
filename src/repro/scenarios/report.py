"""Schema'd scenario-matrix reports (``SCENARIOS_<label>.json``).

The matrix runner (:func:`repro.analysis.runner.run_matrix` with
``"scenarios"``, behind ``python -m repro scenarios``) merges the
per-kind experiment records into one matrix payload: every (scenario,
machine size) cell's per-engine detection counts, identification counts
and engine-routing flags, plus the fig6 anchor verdicts. Like the bench
registry, the schema is deliberately hand-validated
(:func:`validate_matrix_payload`) so the report stays dependency-free
and diffable across PRs.
"""

from __future__ import annotations

import time
from typing import Any

from ..provenance import (
    provenance,
    validate_matrix_records,
    validate_report_envelope,
)
from .spec import SCENARIO_KINDS

__all__ = [
    "SCENARIO_MATRIX_SCHEMA_ID",
    "matrix_payload",
    "validate_matrix_payload",
]

#: Schema identifier stamped into (and required of) every matrix payload.
SCENARIO_MATRIX_SCHEMA_ID = "repro-scenarios/v1"

#: Per-engine count triples every cell must carry.
_COUNT_FIELDS = ("detection", "false_flags", "inspec_clean")


def matrix_payload(
    preset: str,
    cells: list[dict[str, Any]],
    anchor: dict[str, Any],
    detect_floor: float,
    records: list[dict[str, Any]],
    label: str | None = None,
) -> dict[str, Any]:
    """Assemble the schema'd matrix report from merged cell dicts.

    ``cells`` are the JSON-able ``ScenarioCell`` payload entries of the
    underlying experiment records; ``records`` carries per-kind run
    provenance (config digest, cache hit) so a matrix report names
    exactly which cached results it merged.
    """
    return {
        "schema": SCENARIO_MATRIX_SCHEMA_ID,
        "label": label or preset,
        "preset": preset,
        "created_unix": time.time(),
        "provenance": provenance(),
        "detect_floor": detect_floor,
        "kinds": sorted({cell["scenario"] for cell in cells}),
        "cells": cells,
        "anchor": anchor,
        "records": records,
    }


def validate_matrix_payload(payload: Any) -> None:
    """Raise ``ValueError`` listing every way ``payload`` violates the schema."""
    problems: list[str] = []

    def _check(cond: bool, message: str) -> None:
        if not cond:
            problems.append(message)

    def _counts_ok(value: Any) -> bool:
        """[[engine, successes, trials], ...] with 0 <= successes <= trials."""
        if not isinstance(value, list):
            return False
        for entry in value:
            if not (isinstance(entry, list) and len(entry) == 3):
                return False
            engine, successes, trials = entry
            if engine not in ("xx", "dense"):
                return False
            if not (
                isinstance(successes, int)
                and isinstance(trials, int)
                and 0 <= successes <= trials
            ):
                return False
        return True

    _check(isinstance(payload, dict), "payload must be a JSON object")
    if isinstance(payload, dict):
        problems.extend(validate_report_envelope(payload, SCENARIO_MATRIX_SCHEMA_ID))
        _check(
            isinstance(payload.get("detect_floor"), (int, float)),
            "detect_floor must be a number",
        )
        kinds = payload.get("kinds")
        _check(
            isinstance(kinds, list)
            and kinds
            and all(k in SCENARIO_KINDS for k in kinds),
            "kinds must be a non-empty list of known scenario kinds",
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
                    cell.get("scenario") in SCENARIO_KINDS,
                    f"{where}.scenario must be a known kind",
                )
                _check(
                    isinstance(cell.get("n_qubits"), int)
                    and cell.get("n_qubits", 0) >= 4,
                    f"{where}.n_qubits must be an integer >= 4",
                )
                for flag in ("xx_preserving", "fallback_to_dense"):
                    _check(
                        isinstance(cell.get(flag), bool),
                        f"{where}.{flag} must be a boolean",
                    )
                for field in _COUNT_FIELDS:
                    _check(
                        _counts_ok(cell.get(field)),
                        f"{where}.{field} must be [[engine, successes, "
                        "trials], ...] count triples",
                    )
                for field in (
                    "identification_successes",
                    "identification_trials",
                ):
                    _check(
                        isinstance(cell.get(field), int)
                        and cell.get(field, -1) >= 0,
                        f"{where}.{field} must be a non-negative integer",
                    )
        anchor = payload.get("anchor")
        _check(isinstance(anchor, dict), "anchor must be an object")
        if isinstance(anchor, dict):
            for field in ("largest_resolved_2ms", "largest_resolved_4ms"):
                _check(
                    anchor.get(field) is None
                    or isinstance(anchor.get(field), bool),
                    f"anchor.{field} must be a boolean or null",
                )
        problems.extend(validate_matrix_records(payload.get("records"), "kinds"))
    if problems:
        raise ValueError("invalid scenario matrix payload: " + "; ".join(problems))
