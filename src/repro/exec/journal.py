"""Crash-safe, append-only sweep journals.

A journal is a ``.journal.jsonl`` file sitting next to a sweep's output:
one JSON record per line, each line written with a *single* ``os.write``
on an ``O_APPEND`` descriptor, so a ``kill -9`` can at worst truncate
the final line — it can never corrupt earlier records.  (POSIX appends
of one small buffer are atomic with respect to readers; we deliberately
do not ``fsync`` — the journal protects against process death, not
power loss, and fsync per cell would blow the <5% supervision-overhead
budget.)

Record shapes (``repro-journal/v1``):

``begin``
    ``{"type": "begin", "schema": "repro-journal/v1", "sweep": <name>,
    "sweep_digest": <hex>, "n_points": N, "provenance": {...},
    "created_unix": t}`` — appended once per invocation.  The
    ``sweep_digest`` fingerprints the full sweep definition; resuming
    against a journal whose digest differs is refused rather than
    silently mixing results from two different sweeps.
``finished`` / ``failed``
    ``{"type": ..., "index": i, "key": <config digest>, "status": ...,
    "attempts": [...]}`` — appended *after* the cell's result is safely
    in the cache, so a ``finished`` record is a proof the cached value
    exists.  On ``--resume`` those cells are loaded from cache and
    marked ``resumed`` without dispatching a single worker.

:func:`load_journal` tolerates a truncated trailing line and ignores
blank lines, so a journal interrupted at any byte is still loadable.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

__all__ = ["JOURNAL_SCHEMA", "JournalWriter", "load_journal"]

#: Schema tag stamped into every ``begin`` record.
JOURNAL_SCHEMA = "repro-journal/v1"


class JournalWriter:
    """Append-only journal handle (one ``os.write`` per record)."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd: int | None = os.open(
            str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        # Heal a torn final line (truncated tail from a dead process)
        # before appending: the fragment is a record that never fully
        # landed, and appending after it would fuse both into one
        # corrupt *interior* record that readers can no longer dismiss
        # as a tail artifact.  Truncating back to the last complete
        # record keeps the "interior corruption is a real error"
        # contract of :func:`load_journal` intact.
        try:
            raw = self.path.read_bytes()
            if raw and not raw.endswith(b"\n"):
                os.ftruncate(self._fd, raw.rfind(b"\n") + 1)
        except OSError:
            pass  # unreadable tail: appends stay best-effort

    def append(self, record: dict[str, Any]) -> None:
        """Append one record as a single atomic line write."""
        if self._fd is None:
            raise ValueError("journal is closed")
        line = json.dumps(record, sort_keys=True) + "\n"
        os.write(self._fd, line.encode("utf-8"))

    def begin(
        self,
        sweep: str,
        sweep_digest: str,
        n_points: int,
        provenance: dict[str, Any],
    ) -> None:
        """Append the invocation header record."""
        self.append(
            {
                "type": "begin",
                "schema": JOURNAL_SCHEMA,
                "sweep": sweep,
                "sweep_digest": sweep_digest,
                "n_points": int(n_points),
                "provenance": provenance,
                "created_unix": time.time(),
            }
        )

    def record_outcome(
        self, index: int, key: str, status: str, attempts: list[dict[str, Any]]
    ) -> None:
        """Append a terminal cell record (``finished`` or ``failed``)."""
        from .outcomes import SUCCESS_STATES

        self.append(
            {
                "type": "finished" if status in SUCCESS_STATES else "failed",
                "index": int(index),
                "key": key,
                "status": status,
                "attempts": attempts,
            }
        )

    def close(self) -> None:
        """Release the descriptor (records already on disk stay put)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def load_journal(
    path: Path | str, sweep_digest: str | None = None
) -> dict[str, Any]:
    """Parse a journal into ``{"finished": {key: rec}, "failed": {...}}``.

    A truncated trailing line (the ``kill -9`` signature) is ignored;
    interior lines are expected to be intact because every record is one
    atomic append.  When ``sweep_digest`` is given, any ``begin`` record
    carrying a *different* digest raises ``ValueError`` — resuming must
    never splice cells from a different sweep definition into this one.
    A ``failed`` record for a key that later finishes (a resumed run
    completing it) is superseded by the ``finished`` record.
    """
    path = Path(path)
    finished: dict[str, dict[str, Any]] = {}
    failed: dict[str, dict[str, Any]] = {}
    begins: list[dict[str, Any]] = []
    if not path.exists():
        return {"finished": finished, "failed": failed, "begins": begins}
    raw = path.read_bytes().decode("utf-8", errors="replace")
    lines = raw.split("\n")
    for position, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if position >= len(lines) - 2:
                continue  # torn final append from a killed process
            raise ValueError(
                f"corrupt journal record at line {position + 1} of {path}"
            )
        kind = record.get("type")
        if kind == "begin":
            if (
                sweep_digest is not None
                and record.get("sweep_digest") != sweep_digest
            ):
                raise ValueError(
                    f"journal {path} belongs to a different sweep "
                    f"(digest {record.get('sweep_digest')!r}, "
                    f"expected {sweep_digest!r}); delete it or change --journal"
                )
            begins.append(record)
        elif kind == "finished":
            key = record.get("key")
            if isinstance(key, str):
                finished[key] = record
                failed.pop(key, None)
        elif kind == "failed":
            key = record.get("key")
            if isinstance(key, str) and key not in finished:
                failed[key] = record
    return {"finished": finished, "failed": failed, "begins": begins}
