"""Provenance stamping for cached results and labelled reports.

Every persisted artifact (runner cache payloads, the labelled reports)
should be traceable to the code that produced it: the package version,
the git commit when the source tree is a checkout, and the interpreter/numpy
versions that shaped the numerics.  :func:`provenance` gathers all of it
defensively — a missing ``git`` binary or an installed (non-checkout)
package degrades to ``None`` fields, never an error.

The labelled reports (``SCENARIOS_``/``ARENA_``/``FLEET_``/``CHAOS_``)
are schema-checked by one declarative checker: each report module
declares a :class:`Shape` and :func:`check_payload` lists every way a
payload departs from it.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "PROVENANCE_SHAPE",
    "Shape",
    "VOLATILE_KEYS",
    "check_payload",
    "checks_shape",
    "git_sha",
    "payload_fingerprint",
    "payloads_equivalent",
    "provenance",
    "records_shape",
    "report_fields",
    "shape_problems",
    "strip_volatile",
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


# -- report shapes ------------------------------------------------------------------

#: What each :attr:`Shape.type` is called in a problem message.
_NOUNS = {
    "int": "an integer",
    "number": "a number",
    "str": "a string",
    "bool": "a boolean",
    "list": "an array",
    "object": "an object",
}


@dataclass(frozen=True)
class Shape:
    """The declared shape of one JSON value in a labelled report.

    ``type`` is ``"int"``, ``"number"``, ``"str"``, ``"bool"``,
    ``"list"``, ``"object"`` or ``None`` (any type; used with
    ``one_of``).  A bool is never an int or a number.  The value must
    also sit in ``[lo, hi]``, be one of ``one_of``, be non-empty
    (``nonempty``), start with ``prefix``, have exactly the ``keys``
    and pass ``test`` — whichever are set.  ``fields`` declares an
    object's members and ``items`` every element of a list.  ``says``
    replaces the derived "must be ..." wording.
    """

    type: str | None
    nullable: bool = False
    lo: float | None = None
    hi: float | None = None
    one_of: tuple[Any, ...] | None = None
    nonempty: bool = False
    prefix: str | None = None
    keys: tuple[str, ...] | None = None
    test: Callable[[Any], bool] | None = None
    fields: dict[str, Shape] | None = None
    items: Shape | None = None
    says: str | None = None

    def describe(self) -> str:
        """What a conforming value is, for "<where> must be ..." messages."""
        if self.says is not None:
            text = self.says
        elif self.one_of is not None:
            text = " or ".join(repr(name) for name in self.one_of)
        elif self.prefix is not None:
            text = f"a {self.prefix!r}-prefixed string"
        else:
            text = _NOUNS[self.type]
            bare = text.split(" ", 1)[1]
            if self.nonempty:
                text = f"a non-empty {bare}"
            if self.lo is not None and self.hi is not None:
                text += f" in [{self.lo:g}, {self.hi:g}]"
            elif self.lo == 0:
                text = f"a non-negative {bare}"
            elif self.lo == 1 and self.type == "int":
                text = "a positive integer"
            elif self.lo is not None:
                text += f" >= {self.lo:g}"
        return text + " or null" if self.nullable else text

    def admits(self, value: Any) -> bool:
        """Whether ``value`` itself conforms (members are checked apart)."""
        if isinstance(value, bool) and self.type in ("int", "number"):
            return False
        if self.type is not None and not isinstance(value, _TYPES[self.type]):
            return False
        return (
            (self.lo is None or value >= self.lo)
            and (self.hi is None or value <= self.hi)
            and (self.one_of is None or value in self.one_of)
            and (not self.nonempty or len(value) > 0)
            and (self.prefix is None or value.startswith(self.prefix))
            and (self.keys is None or set(value) == set(self.keys))
            and (self.test is None or self.test(value))
        )


_TYPES = {
    "int": int,
    "number": (int, float),
    "str": str,
    "bool": bool,
    "list": list,
    "object": dict,
}


def shape_problems(value: Any, shape: Shape, where: str = "") -> list[str]:
    """Every way ``value`` departs from ``shape`` (empty list = valid).

    ``where`` is the value's path in the report (``cells[3].n_qubits``);
    the root is reported as ``payload``.
    """
    if value is None and shape.nullable:
        return []
    if not shape.admits(value):
        return [f"{where or 'payload'} must be {shape.describe()}"]
    problems: list[str] = []
    for key, member in (shape.fields or {}).items():
        path = f"{where}.{key}" if where else key
        problems.extend(shape_problems(value.get(key), member, path))
    if shape.items is not None:
        for k, item in enumerate(value):
            problems.extend(shape_problems(item, shape.items, f"{where}[{k}]"))
    return problems


def check_payload(payload: Any, shape: Shape, name: str) -> None:
    """Raise ``ValueError("invalid <name> payload: ...")`` listing every problem."""
    problems = shape_problems(payload, shape)
    if problems:
        raise ValueError(f"invalid {name} payload: " + "; ".join(problems))


#: A stamped :func:`provenance` block.
PROVENANCE_SHAPE = Shape(
    "object",
    fields={
        "repro_version": Shape("str", nonempty=True),
        "git_sha": Shape("str", nullable=True),
        "python": Shape("str"),
        "numpy": Shape("str"),
    },
)


def report_fields(schema_id: str) -> dict[str, Shape]:
    """The fields every labelled report shares, keyed by name.

    ``SCENARIOS_``/``ARENA_``/``FLEET_``/``CHAOS_`` payloads all carry
    ``schema``, ``preset``, ``label``, ``created_unix`` and a stamped
    ``provenance`` block.
    """
    return {
        "schema": Shape(None, one_of=(schema_id,)),
        "preset": Shape(None, one_of=("smoke", "full")),
        "label": Shape("str", nonempty=True),
        "created_unix": Shape("number"),
        "provenance": PROVENANCE_SHAPE,
    }


def records_shape(key: str) -> Shape:
    """A matrix report's ``records[]``: one entry per swept cell.

    Each names the ``key`` list it ran (``kinds`` or ``policies``), its
    config digest and whether the cache served it.
    """
    return Shape(
        "list",
        items=Shape(
            "object",
            fields={
                key: Shape("list"),
                "config_digest": Shape("str"),
                "cache_hit": Shape("bool"),
            },
        ),
    )


def checks_shape(prefix: str) -> Shape:
    """A report's embedded ``checks[]``: graded, ``prefix``-namespaced."""
    return Shape(
        "list",
        nonempty=True,
        items=Shape(
            "object",
            fields={
                "check_id": Shape("str", prefix=prefix),
                "passed": Shape("bool"),
                "hard": Shape("bool"),
            },
        ),
    )
