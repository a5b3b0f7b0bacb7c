"""Provenance stamping for cached results and benchmark records.

Every persisted artifact (runner cache payloads, ``BENCH_*.json``) should
be traceable to the code that produced it: the package version, the git
commit when the source tree is a checkout, and the interpreter/numpy
versions that shaped the numerics.  :func:`provenance` gathers all of it
defensively — a missing ``git`` binary or an installed (non-checkout)
package degrades to ``None`` fields, never an error.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
from pathlib import Path
from typing import Any

__all__ = [
    "VOLATILE_KEYS",
    "git_sha",
    "payload_fingerprint",
    "payloads_equivalent",
    "provenance",
    "strip_volatile",
    "validate_matrix_records",
    "validate_provenance_block",
    "validate_report_envelope",
]

#: Payload keys that legitimately differ between equivalent runs:
#: who/when/how-long, never *what*.
VOLATILE_KEYS = frozenset(
    {"provenance", "elapsed_seconds", "created_unix", "integrity"}
)


def git_sha() -> str | None:
    """Commit SHA of the source checkout, or ``None`` outside a repo."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else None


def provenance(config_digest: str | None = None) -> dict[str, Any]:
    """Stampable provenance record for a persisted artifact.

    ``config_digest`` threads the runner's invocation digest through when
    the artifact corresponds to one experiment config.
    """
    import numpy

    from . import __version__

    record: dict[str, Any] = {
        "repro_version": __version__,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if config_digest is not None:
        record["config_digest"] = config_digest
    return record


def strip_volatile(payload: Any) -> Any:
    """Recursively drop :data:`VOLATILE_KEYS` from a JSON-able payload.

    What remains is the *content* of an artifact — the part two
    equivalent runs must agree on byte-for-byte.  Used for "modulo
    provenance" diffing of runner cache entries and the ``FLEET_`` /
    ``ARENA_`` / ``CHAOS_`` report family.
    """
    if isinstance(payload, dict):
        return {
            key: strip_volatile(value)
            for key, value in payload.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(payload, list):
        return [strip_volatile(value) for value in payload]
    return payload


def payload_fingerprint(payload: Any) -> str:
    """SHA-256 of the canonical JSON of a volatile-stripped payload."""
    canonical = json.dumps(
        strip_volatile(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def payloads_equivalent(a: Any, b: Any) -> bool:
    """Whether two payloads agree modulo provenance/timing/integrity."""
    return payload_fingerprint(a) == payload_fingerprint(b)


def validate_provenance_block(
    block: Any, where: str = "provenance"
) -> list[str]:
    """Schema problems (empty list = valid) for a stamped provenance block.

    Shared by every report validator so ``FLEET_``/``ARENA_``/
    ``SCENARIOS_``/``CHAOS_`` artifacts carry a *uniform* provenance
    shape, not merely "some object".
    """
    if not isinstance(block, dict):
        return [f"{where} must be an object"]
    problems: list[str] = []
    if not (
        isinstance(block.get("repro_version"), str)
        and block.get("repro_version")
    ):
        problems.append(f"{where}.repro_version must be a non-empty string")
    if not (
        block.get("git_sha") is None or isinstance(block.get("git_sha"), str)
    ):
        problems.append(f"{where}.git_sha must be a string or null")
    for key in ("python", "numpy"):
        if not isinstance(block.get(key), str):
            problems.append(f"{where}.{key} must be a string")
    return problems


def validate_report_envelope(payload: dict[str, Any], schema_id: str) -> list[str]:
    """Schema problems of the fields every labelled report shares.

    ``SCENARIOS_``/``ARENA_``/``FLEET_``/``CHAOS_`` payloads all carry
    ``schema``, ``preset``, ``label``, ``created_unix`` and a stamped
    ``provenance`` block.
    """
    problems: list[str] = []
    if payload.get("schema") != schema_id:
        problems.append(f"schema must be {schema_id!r}")
    if payload.get("preset") not in ("smoke", "full"):
        problems.append("preset must be 'smoke' or 'full'")
    if not (isinstance(payload.get("label"), str) and payload.get("label")):
        problems.append("label must be a non-empty string")
    if not isinstance(payload.get("created_unix"), (int, float)):
        problems.append("created_unix must be a number")
    return problems + validate_provenance_block(payload.get("provenance"))


def validate_matrix_records(records: Any, key: str) -> list[str]:
    """Schema problems of a matrix report's ``records[]``.

    One entry per swept cell: the ``key`` list it ran (``kinds`` or
    ``policies``), its config digest and whether the cache served it.
    """
    if not isinstance(records, list):
        return ["records must be an array"]
    problems: list[str] = []
    for k, record in enumerate(records):
        where = f"records[{k}]"
        if not isinstance(record, dict):
            problems.append(f"{where} must be an object")
            continue
        for field, kind, shape in (
            (key, list, "an array"),
            ("config_digest", str, "a string"),
            ("cache_hit", bool, "a boolean"),
        ):
            if not isinstance(record.get(field), kind):
                problems.append(f"{where}.{field} must be {shape}")
    return problems
