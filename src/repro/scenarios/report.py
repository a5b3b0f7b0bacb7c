"""Schema'd scenario-matrix reports (``SCENARIOS_<label>.json``).

The matrix runner (:func:`repro.analysis.runner.run_matrix` with
``"scenarios"``, behind ``python -m repro scenarios``) merges the
per-kind experiment records into one matrix payload: every (scenario,
machine size) cell's per-engine detection counts, identification counts
and engine-routing flags, plus the fig6 anchor verdicts. The schema is
one declarative :data:`MATRIX_SHAPE` for the shared checker in
:mod:`repro.provenance`, so the report stays dependency-free and
diffable. It embeds no ``checks[]``: the scenarios contract's fig6
anchor needs the whole taxonomy, so a ``--kind`` subset would always
fail it; ``validate`` grades that contract instead.
"""

from __future__ import annotations

import time
from typing import Any

from ..provenance import (
    Shape,
    check_payload,
    provenance,
    records_shape,
    report_fields,
)
from .spec import SCENARIO_KINDS

__all__ = [
    "MATRIX_SHAPE",
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


def _count_triples(value: list[Any]) -> bool:
    """[[engine, successes, trials], ...] with 0 <= successes <= trials."""
    return all(
        isinstance(entry, list)
        and len(entry) == 3
        and entry[0] in ("xx", "dense")
        and all(
            isinstance(n, int) and not isinstance(n, bool) for n in entry[1:]
        )
        and 0 <= entry[1] <= entry[2]
        for entry in value
    )


_KIND = Shape(None, one_of=SCENARIO_KINDS, says="a known scenario kind")

#: The schema every scenario-matrix payload must match.
MATRIX_SHAPE = Shape(
    "object",
    fields={
        **report_fields(SCENARIO_MATRIX_SCHEMA_ID),
        "detect_floor": Shape("number"),
        "kinds": Shape("list", nonempty=True, items=_KIND),
        "cells": Shape(
            "list",
            nonempty=True,
            items=Shape(
                "object",
                fields={
                    "scenario": _KIND,
                    "n_qubits": Shape("int", lo=4),
                    "xx_preserving": Shape("bool"),
                    "fallback_to_dense": Shape("bool"),
                    **{
                        field: Shape(
                            "list",
                            test=_count_triples,
                            says="[[engine, successes, trials], ...] "
                            "count triples",
                        )
                        for field in _COUNT_FIELDS
                    },
                    "identification_successes": Shape("int", lo=0),
                    "identification_trials": Shape("int", lo=0),
                },
            ),
        ),
        "anchor": Shape(
            "object",
            fields={
                "largest_resolved_2ms": Shape("bool", nullable=True),
                "largest_resolved_4ms": Shape("bool", nullable=True),
            },
        ),
        "records": records_shape("kinds"),
    },
)


def validate_matrix_payload(payload: Any) -> None:
    """Raise ``ValueError`` listing every way ``payload`` violates the schema."""
    check_payload(payload, MATRIX_SHAPE, "scenario matrix")
