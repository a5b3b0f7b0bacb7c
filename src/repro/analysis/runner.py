"""Unified experiment runner: caching, supervised fan-out, emission.

This is the execution layer over :mod:`repro.analysis.registry`:

* **Result cache** — every run is keyed by a SHA-256 digest of
  ``(experiment, package version, full config)``; the JSON payload lands
  in the cache directory (stamped with a SHA-256 integrity checksum,
  verified on read, corrupted entries quarantined) and a repeated
  invocation with the same config returns it without re-simulating.
* **Supervised fan-out** — ``run_many`` distributes independent
  experiment jobs across *supervised* worker processes
  (:mod:`repro.exec`): a worker crash or stall is isolated, retried
  under a :class:`~repro.exec.retry.RetryPolicy` and folded into a
  structured :class:`~repro.exec.outcomes.JobOutcome` instead of
  aborting the sweep.  ``run_sweep`` is the transpose — one experiment,
  a grid of configs — adding a crash-safe journal (``--resume`` skips
  cells a previous, possibly killed, invocation already finished) and
  graceful degradation (partial results plus a ``degradation`` section
  rather than all-or-nothing).
* **Matrix front doors** — ``run_matrix`` sweeps one
  :data:`MATRIX_SPECS` row (``scenarios``, ``arena`` or ``fleet``) one
  scenario kind or policy at a time, each a cached sweep cell, and
  merges the cells into one labelled ``<PREFIX>_<label>.json`` report.
* **Structured emission** — results serialize to JSON (``to_jsonable``
  handles the dataclass/numpy/frozenset shapes the experiments produce)
  and flatten to CSV via each spec's ``to_rows``.

The ``python -m repro`` CLI is a thin shell over this module.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..arena.report import arena_payload, validate_arena_payload
from ..exec.integrity import load_verified_json, stamp_integrity
from ..exec.journal import JournalWriter, load_journal
from ..exec.outcomes import JobOutcome, raise_outcome
from ..exec.pool import run_supervised
from ..exec.retry import RetryPolicy
from ..fleet.policies import POLICY_NAMES
from ..fleet.report import fleet_payload, validate_fleet_payload
from ..scenarios.report import matrix_payload, validate_matrix_payload
from ..scenarios.spec import SCENARIO_KINDS
from .registry import ExperimentSpec, get_experiment

__all__ = [
    "MATRIX_SPECS",
    "MatrixSpec",
    "RunRecord",
    "SweepDegradedError",
    "SweepResult",
    "config_digest",
    "default_cache_dir",
    "fan_out",
    "run_experiment",
    "run_many",
    "run_matrix",
    "run_replicates",
    "run_sweep",
    "sweep_grid",
    "to_jsonable",
    "write_csv",
    "write_json",
    "write_labelled_json",
]

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def fan_out(
    fn,
    items,
    jobs: int,
    policy: RetryPolicy | None = None,
    timeout: float | None = None,
    keys: list[str] | None = None,
) -> list:
    """Map ``fn`` over ``items``, optionally across worker processes.

    The one fan-out shape shared by the runner and the experiments'
    internal grids.  ``jobs`` is clamped to at least 1 (0/negative means
    "no parallelism", not an error) and an empty ``items`` returns an
    empty list without touching any pool.  ``jobs <= 1`` (or a single
    item) runs inline; otherwise the jobs run on the *supervised* pool
    (:func:`repro.exec.pool.run_supervised`): a worker crash or stall no
    longer aborts the whole map.  ``fn`` and the items must pickle —
    module-level functions only.  Results return in input order.

    Passing a ``policy`` or ``timeout`` forces supervision even for a
    single job (crash isolation is then the point).

    Failures keep raise-on-first-error semantics: a job that exhausts
    its attempts re-raises its original exception where the type is a
    builtin, else :class:`~repro.exec.outcomes.JobFailedError`.
    """
    items = list(items)
    jobs = max(1, int(jobs))
    if not items:
        return []
    wants_supervision = policy is not None or timeout is not None
    if (jobs <= 1 or len(items) <= 1) and not wants_supervision:
        return [fn(item) for item in items]
    outcomes = run_supervised(
        fn, items, jobs=jobs, policy=policy, timeout=timeout, keys=keys
    )
    return [raise_outcome(outcome) for outcome in outcomes]


def default_cache_dir() -> Path:
    """Cache location: ``$REPRO_CACHE_DIR`` or ``.repro-cache/`` in cwd."""
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else Path.cwd() / ".repro-cache"


def to_jsonable(value: Any) -> Any:
    """Convert experiment results to JSON-serializable structures.

    Handles the shapes the experiment dataclasses produce: nested
    dataclasses, numpy scalars/arrays, tuples/sets, and dicts keyed by
    non-strings (frozenset pairs render as ``"i-j"``).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {_key_str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [to_jsonable(v) for v in sorted(value)]
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def _key_str(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, (set, frozenset, tuple)):
        return "-".join(str(v) for v in sorted(key))
    return str(key)


def config_digest(name: str, config: Any) -> str:
    """Stable digest of an experiment invocation (name, version, config).

    Config fields marked ``metadata={"execution_only": True}`` (process
    fan-out knobs like ``series_jobs`` — they change wall-clock, never
    results) are excluded, so a parallel run is served from a sequential
    run's cache entry and vice versa.
    """
    from .. import __version__

    jsonable = to_jsonable(config)
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        for f in dataclasses.fields(config):
            if f.metadata.get("execution_only"):
                jsonable.pop(f.name, None)
    blob = json.dumps(
        {
            "experiment": name,
            "version": __version__,
            "config": jsonable,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclasses.dataclass
class RunRecord:
    """Outcome of one runner invocation (fresh or cache-served)."""

    name: str
    anchor: str
    preset: str
    config_digest: str
    elapsed_seconds: float
    cache_hit: bool
    payload: dict[str, Any]
    #: The live result object; ``None`` when served from the cache.
    result: Any = None

    @property
    def summary(self) -> str:
        """One-line summary carried in the payload."""
        return str(self.payload.get("summary", ""))

    def rows(self, spec: ExperimentSpec | None = None) -> tuple[list[str], list[list[object]]]:
        """CSV header and rows for this record.

        Fresh runs flatten the live result; cached records carry their
        rows inside the payload.
        """
        if self.result is not None:
            spec = spec or get_experiment(self.name)
            return spec.to_rows(self.result)
        table = self.payload.get("rows", {})
        return list(table.get("headers", [])), [
            list(r) for r in table.get("rows", [])
        ]


def _cache_path(cache_dir: Path, name: str, digest: str) -> Path:
    return cache_dir / f"{name}-{digest}.json"


def _atomic_write_json(path: Path, payload: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_experiment(
    name: str,
    preset: str = "smoke",
    overrides: dict[str, Any] | None = None,
    cache_dir: Path | str | None = None,
    use_cache: bool = True,
    force: bool = False,
) -> RunRecord:
    """Run one registered experiment (or serve it from the result cache).

    Parameters
    ----------
    name:
        Registered experiment name (see ``python -m repro list``).
    preset:
        ``"smoke"`` (scaled-down, seconds) or ``"full"`` (paper-sized).
    overrides:
        Config-field overrides applied on top of the preset.
    cache_dir:
        Cache location; defaults to :func:`default_cache_dir`.
    use_cache:
        Read/write the on-disk result cache.
    force:
        Recompute even when a cached payload exists (the fresh result
        overwrites it).
    """
    spec = get_experiment(name)
    config = spec.config(preset, overrides)
    digest = config_digest(name, config)
    cache_base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = _cache_path(cache_base, name, digest)
    if use_cache and not force:
        # Integrity-checked read: a corrupted entry (bad checksum or
        # undecodable JSON) is quarantined and transparently recomputed.
        payload, status = load_verified_json(path, cache_base)
        if payload is not None and status in ("ok", "legacy"):
            # The digest keys on the config alone; two presets can share
            # one payload (identical configs), so refresh the request
            # metadata.
            payload["preset"] = preset
            return RunRecord(
                name=name,
                anchor=spec.anchor,
                preset=preset,
                config_digest=digest,
                elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
                cache_hit=True,
                payload=payload,
            )
    from ..provenance import provenance

    start = time.perf_counter()
    result = spec.runner(config)
    elapsed = time.perf_counter() - start
    headers, rows = spec.to_rows(result)
    payload = {
        "experiment": name,
        "anchor": spec.anchor,
        "title": spec.title,
        "preset": preset,
        "config": to_jsonable(config),
        "config_digest": digest,
        "provenance": provenance(config_digest=digest),
        "elapsed_seconds": elapsed,
        "summary": spec.summarize(result),
        "result": to_jsonable(result),
        "rows": {"headers": headers, "rows": to_jsonable(rows)},
    }
    stamp_integrity(payload)
    if use_cache:
        _atomic_write_json(path, payload)
        # Chaos corruption hook: a no-op unless REPRO_CHAOS_CORRUPT_RATE
        # is armed, in which case this entry may be sabotaged on disk to
        # exercise the quarantine path (the in-memory record stays good).
        from ..exec.chaos import maybe_corrupt_file

        maybe_corrupt_file(path)
    return RunRecord(
        name=name,
        anchor=spec.anchor,
        preset=preset,
        config_digest=digest,
        elapsed_seconds=elapsed,
        cache_hit=False,
        payload=payload,
        result=result,
    )


def _run_job(args: tuple[str, str, dict[str, Any] | None, str | None, bool, bool]) -> RunRecord:
    """Worker entry point for :func:`run_many` (must be module-level)."""
    name, preset, overrides, cache_dir, use_cache, force = args
    record = run_experiment(
        name,
        preset=preset,
        overrides=overrides,
        cache_dir=cache_dir,
        use_cache=use_cache,
        force=force,
    )
    # The live result object may not pickle cheaply; the payload carries
    # everything consumers need across the process boundary.
    record.result = None
    return record


def run_many(
    names: list[str],
    preset: str = "smoke",
    overrides: dict[str, Any] | None = None,
    jobs: int = 1,
    cache_dir: Path | str | None = None,
    use_cache: bool = True,
    force: bool = False,
) -> list[RunRecord]:
    """Run several experiments, optionally fanned out across processes.

    With ``jobs > 1`` the configs are distributed over a process pool;
    each worker caches its own result, so a rerun (any job count) is
    served from disk.  Results return in input order.
    """
    for name in names:
        get_experiment(name)  # fail fast on unknown names
    job_args = [
        (name, preset, overrides, str(cache_dir) if cache_dir else None,
         use_cache, force)
        for name in names
    ]
    return fan_out(_run_job, job_args, jobs)


def run_replicates(
    name: str,
    preset: str = "smoke",
    replicates: int = 8,
    seed_field: str = "seed",
    base_seed: int | None = None,
    overrides: dict[str, Any] | None = None,
    jobs: int = 1,
    cache_dir: Path | str | None = None,
    use_cache: bool = True,
    force: bool = False,
) -> list[RunRecord]:
    """Run one experiment over consecutive seeds (Monte-Carlo replicas).

    The validation suite's sampling primitive: replicate ``i`` overrides
    ``seed_field`` with ``base_seed + i`` (``base_seed`` defaults to the
    preset's configured seed, so replicate 0 *is* the default run and
    shares its cache entry with plain ``repro run`` invocations).
    Replicates fan out over worker processes with ``jobs > 1`` and are
    individually cached, so a re-validation is served from disk.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    spec = get_experiment(name)
    config = spec.config(preset, overrides)
    if base_seed is None:
        if not hasattr(config, seed_field):
            raise ValueError(
                f"experiment {name!r} has no config field {seed_field!r}"
            )
        base_seed = int(getattr(config, seed_field))
    job_args = [
        (
            name,
            preset,
            {**(overrides or {}), seed_field: base_seed + i},
            str(cache_dir) if cache_dir else None,
            use_cache,
            force,
        )
        for i in range(replicates)
    ]
    return fan_out(_run_job, job_args, jobs)


def sweep_grid(sweep: dict[str, list[Any]]) -> list[dict[str, Any]]:
    """Cartesian product of a ``{field: [values...]}`` sweep specification.

    Field order follows the sweep dict's insertion order; the last field
    varies fastest.  Every value list must be non-empty.
    """
    import itertools

    if not sweep:
        raise ValueError("sweep specification is empty")
    for key, values in sweep.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(
                f"sweep field {key!r} needs a non-empty list of values"
            )
    keys = list(sweep)
    return [
        dict(zip(keys, point))
        for point in itertools.product(*(sweep[k] for k in keys))
    ]


@dataclasses.dataclass
class SweepResult:
    """Everything a (possibly degraded) sweep produced.

    Iterating / indexing yields the successful ``(point, record)`` pairs
    in grid order — the exact shape the pre-resilience ``run_sweep``
    returned, so existing consumers keep working — while ``outcomes``
    records the terminal :class:`~repro.exec.outcomes.JobOutcome` of
    *every* grid point, including the ones that crashed, timed out or
    gave up.
    """

    name: str
    preset: str
    points: list[dict[str, Any]]
    digests: list[str]
    outcomes: list[JobOutcome]
    sweep_digest: str
    journal: Path | None = None

    @property
    def completed(self) -> list[tuple[dict[str, Any], RunRecord]]:
        """Successful ``(point, record)`` pairs, grid order."""
        return [
            (self.points[o.index], o.value) for o in self.outcomes if o.ok
        ]

    @property
    def failures(self) -> list[JobOutcome]:
        """Outcomes of every grid point that did not produce a result."""
        return [o for o in self.outcomes if not o.ok]

    @property
    def completeness(self) -> float:
        """Fraction of grid points that produced a result."""
        if not self.outcomes:
            return 1.0
        return sum(o.ok for o in self.outcomes) / len(self.outcomes)

    @property
    def complete(self) -> bool:
        """True when every grid point produced a result."""
        return not self.failures

    def degradation(self) -> dict[str, Any]:
        """JSON-able degradation section for partial-result artifacts."""
        statuses: dict[str, int] = {}
        for outcome in self.outcomes:
            statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
        return {
            "n_points": len(self.outcomes),
            "n_completed": sum(o.ok for o in self.outcomes),
            "n_failed": len(self.failures),
            "n_resumed": statuses.get("resumed", 0),
            "n_retried": statuses.get("retried", 0),
            "completeness": self.completeness,
            "statuses": statuses,
            "failures": [
                {**o.to_payload(), "point": self.points[o.index]}
                for o in self.failures
            ],
        }

    def __iter__(self):
        return iter(self.completed)

    def __len__(self) -> int:
        return len(self.completed)

    def __getitem__(self, index):
        return self.completed[index]


class SweepDegradedError(RuntimeError):
    """A sweep completed below the caller's completeness floor.

    Carries the full :class:`SweepResult` so the partial results and the
    per-cell failure outcomes stay inspectable.
    """

    def __init__(self, result: SweepResult, min_complete: float):
        failures = ", ".join(
            f"{o.key}: {o.status}" for o in result.failures[:4]
        )
        more = len(result.failures) - 4
        if more > 0:
            failures += f" (+{more} more)"
        super().__init__(
            f"sweep degraded: {result.completeness:.0%} of "
            f"{len(result.outcomes)} cells completed "
            f"(floor {min_complete:.0%}); failed cells: {failures}"
        )
        self.result = result
        self.min_complete = min_complete


def _sweep_digest(name: str, preset: str, digests: list[str]) -> str:
    """Fingerprint of a full sweep definition (for journal ownership)."""
    blob = json.dumps(
        {"experiment": name, "preset": preset, "cells": digests},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_sweep(
    name: str,
    sweep: dict[str, list[Any]],
    preset: str = "smoke",
    base_overrides: dict[str, Any] | None = None,
    jobs: int = 1,
    cache_dir: Path | str | None = None,
    use_cache: bool = True,
    force: bool = False,
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
    journal: Path | str | None = None,
    resume: bool = False,
) -> SweepResult:
    """Run one experiment over a grid of config overrides, supervised.

    The transpose of :func:`run_many`: a single experiment, every point
    of the :func:`sweep_grid` built from ``sweep`` (applied on top of
    ``base_overrides``).  Points share the on-disk result cache — a
    rerun of an overlapping sweep is served from disk — and run on the
    supervised worker pool, so one crashing or stalling cell degrades
    the sweep instead of aborting it.

    Resilience knobs on top of the classic signature:

    ``retry``
        A :class:`~repro.exec.retry.RetryPolicy` applied to every cell
        (default: single attempt, no per-attempt deadline).
    ``timeout``
        Per-attempt deadline in seconds (overrides ``retry.timeout``).
    ``journal``
        Path of a crash-safe journal; every finished cell is recorded
        *after* its result is safely in the cache.
    ``resume``
        With ``journal``: cells a previous invocation (even one that was
        ``kill -9``-ed mid-sweep) proved finished are loaded from the
        cache and marked ``resumed`` — zero recomputation, zero worker
        dispatches for those cells.

    Returns a :class:`SweepResult`; iterate it for the successful
    ``(point, record)`` pairs in grid order.
    """
    spec = get_experiment(name)  # fail fast on unknown names
    points = sweep_grid(sweep)
    base = dict(base_overrides or {})
    overlap = set(base) & set(sweep)
    if overlap:
        raise ValueError(
            "sweep fields duplicate base overrides: "
            + ", ".join(sorted(overlap))
        )
    # Build every cell's config up front: config errors stay synchronous
    # (they are caller bugs, not infrastructure failures), and the
    # digests double as journal keys.
    digests = [
        config_digest(name, spec.config(preset, {**base, **point}))
        for point in points
    ]
    sweep_digest = _sweep_digest(name, preset, digests)
    # Pool/chaos/jitter keys are version-independent (point-based), so
    # seeded retry jitter and chaos decisions survive version bumps.
    keys = [
        f"{name}:" + json.dumps(point, sort_keys=True, default=str)
        for point in points
    ]

    if resume and journal is None:
        raise ValueError("resume=True requires a journal path")
    finished_before: dict[str, dict[str, Any]] = {}
    writer: JournalWriter | None = None
    if journal is not None:
        journal = Path(journal)
        if resume:
            finished_before = load_journal(journal, sweep_digest)["finished"]
        elif journal.exists():
            journal.unlink()  # fresh run: do not splice into an old journal
        writer = JournalWriter(journal)
        from ..provenance import provenance

        writer.begin(name, sweep_digest, len(points), provenance())

    outcomes: list[JobOutcome | None] = [None] * len(points)
    todo: list[int] = []
    cache_base = (
        Path(cache_dir) if cache_dir is not None else default_cache_dir()
    )
    for i, digest in enumerate(digests):
        if digest in finished_before and not force and use_cache:
            # The journal proves the cell *was* finished; trust it only
            # as far as the cache still backs it up.  An entry corrupted
            # since the journal was written (bad checksum, truncated
            # JSON) is quarantined here and the cell recomputes through
            # the supervised pool like any other — never honored as
            # done, never recomputed inline and mislabeled "resumed".
            payload, status = load_verified_json(
                _cache_path(cache_base, name, digest), cache_base
            )
            if payload is not None and status in ("ok", "legacy"):
                record = run_experiment(
                    name,
                    preset=preset,
                    overrides={**base, **points[i]},
                    cache_dir=cache_dir,
                    use_cache=use_cache,
                )
                outcomes[i] = JobOutcome(
                    index=i,
                    key=keys[i],
                    status="resumed",
                    attempts=[],
                    value=record,
                )
                continue
        todo.append(i)

    try:
        if todo:
            job_args = [
                (
                    name,
                    preset,
                    {**base, **points[i]},
                    str(cache_dir) if cache_dir else None,
                    use_cache,
                    force,
                )
                for i in todo
            ]

            def _journal_outcome(event: str, outcome: JobOutcome) -> None:
                if writer is None or event == "started":
                    return
                cell = todo[outcome.index]
                writer.record_outcome(
                    cell,
                    digests[cell],
                    outcome.status,
                    [a.to_payload() for a in outcome.attempts],
                )

            for outcome in run_supervised(
                _run_job,
                job_args,
                jobs=jobs,
                policy=retry,
                timeout=timeout,
                keys=[keys[i] for i in todo],
                on_event=_journal_outcome,
            ):
                cell = todo[outcome.index]
                outcome.index = cell
                outcomes[cell] = outcome
    finally:
        if writer is not None:
            writer.close()

    return SweepResult(
        name=name,
        preset=preset,
        points=points,
        digests=digests,
        outcomes=[o for o in outcomes if o is not None],
        sweep_digest=sweep_digest,
        journal=Path(journal) if journal is not None else None,
    )


def _gate_sweep(
    result: SweepResult, min_complete: float
) -> list[tuple[dict[str, Any], RunRecord]]:
    """Apply a front door's completeness floor to a sweep result.

    Returns the successful ``(point, record)`` pairs; raises
    :class:`SweepDegradedError` when nothing completed or the completed
    fraction is below ``min_complete``.
    """
    completed = result.completed
    if not completed or result.completeness < min_complete:
        raise SweepDegradedError(result, min_complete)
    return completed


@dataclasses.dataclass(frozen=True)
class MatrixSpec:
    """One matrix front door: a registered experiment swept one name at a time.

    ``experiment`` names the registry entry, the CLI subcommand and the
    service job kind.  Each name of ``field`` (the swept config field)
    runs as its own cached ``run_sweep`` cell; ``merge`` folds the cells
    into one report, which ``validate`` checks and :func:`write_labelled_json`
    writes as ``<prefix>_<label>.json``.  ``key`` is the request and
    ``records[]`` key of the chosen names.  The remaining fields are
    literal CLI help strings, kept here so building the parser never
    loads the experiment modules.
    """

    experiment: str
    field: str
    key: str
    known: tuple[str, ...]
    merge: Callable[..., dict[str, Any]]
    prefix: str
    validate: Callable[[Any], None]
    flag: str
    one: str
    many: str
    help: str
    smoke_help: str
    full_help: str
    set_help: str

    def check(self, values: list[str]) -> None:
        """Reject names outside ``known`` (``ValueError``)."""
        if not isinstance(values, list):
            raise ValueError(f"{self.key!r} must be a list of names")
        unknown = set(values) - set(self.known)
        if unknown:
            raise ValueError(
                f"unknown {self.many}: "
                + ", ".join(sorted(unknown))
                + "; known: "
                + ", ".join(self.known)
            )

    def check_request(self, payload: dict[str, Any]) -> None:
        """Reject a service job payload this front door cannot run as asked."""
        allowed = {"preset", "overrides", "use_cache", "force", self.key}
        unknown = set(payload) - allowed
        if unknown:
            raise ValueError(
                f"unknown {self.experiment} job payload fields: "
                f"{sorted(unknown)} (expected any of {sorted(allowed)})"
            )
        if payload.get(self.key) is not None:
            self.check(payload[self.key])


def _merge_scenarios(
    preset: str, cells: list[dict], runs: list[dict], records: list[dict]
) -> dict[str, Any]:
    """Scenario-matrix report, carrying the fig6 anchor verdicts."""
    anchor: dict[str, Any] = {
        "largest_resolved_2ms": None,
        "largest_resolved_4ms": None,
    }
    for run in runs:
        result = run["result"]
        if result.get("anchor_largest_resolved_2ms") is not None:
            anchor = {
                "largest_resolved_2ms": result["anchor_largest_resolved_2ms"],
                "largest_resolved_4ms": result["anchor_largest_resolved_4ms"],
            }
    return matrix_payload(
        preset=preset,
        cells=cells,
        anchor=anchor,
        detect_floor=float(runs[0]["config"]["detect_floor"]),
        records=records,
    )


def _contract_checks(
    name: str, preset: str, cells: list[dict], runs: list[dict]
) -> list[dict[str, Any]]:
    """The registered validation contract, graded over the merged cells.

    The report's embedded ``checks[]`` are therefore the very ``Check``s
    ``validate`` grades and the golden record tracks.
    """
    from ..validation.specs import ValidationContext, evaluate_expectations

    context = ValidationContext(
        experiment=name,
        preset=preset,
        results=({**runs[0]["result"], "cells": cells},),
        configs=(runs[0]["config"],),
    )
    checks = evaluate_expectations(get_experiment(name).validation, context)
    return [dataclasses.asdict(check) for check in checks]


def _merge_arena(
    preset: str, cells: list[dict], runs: list[dict], records: list[dict]
) -> dict[str, Any]:
    """Arena report: leaderboard, crossover and embedded checks."""
    config = runs[0]["config"]
    return arena_payload(
        preset=preset,
        cells=cells,
        budget={
            "soft_seconds": config["soft_seconds"],
            "hard_seconds": config["hard_seconds"],
        },
        detect_floor=float(config["detect_floor"]),
        random_detect_rate=float(config["random_detect_rate"]),
        checks=_contract_checks("arena", preset, cells, runs),
        records=records,
    )


def _merge_fleet(
    preset: str, cells: list[dict], runs: list[dict], records: list[dict]
) -> dict[str, Any]:
    """Fleet report: policy leaderboard and embedded checks."""
    config = runs[0]["config"]
    return fleet_payload(
        preset=preset,
        cells=cells,
        detect_floor=float(config["detect_floor"]),
        corruption_floor=float(config["corruption_floor"]),
        checks=_contract_checks("fleet", preset, cells, runs),
        records=records,
    )


#: The matrix front doors, in CLI order.
MATRIX_SPECS: dict[str, MatrixSpec] = {
    spec.experiment: spec
    for spec in (
        MatrixSpec(
            experiment="scenarios",
            field="scenarios",
            key="kinds",
            known=SCENARIO_KINDS,
            merge=_merge_scenarios,
            prefix="SCENARIOS",
            validate=validate_matrix_payload,
            flag="--kind",
            one="scenario kind",
            many="scenario kinds",
            help="run the fault-scenario matrix across both engines",
            smoke_help="matrix at smoke scale (the default; seconds)",
            full_help="paper-sized matrix (minutes)",
            set_help="override a ScenarioMatrixConfig field (JSON value; repeatable)",
        ),
        MatrixSpec(
            experiment="arena",
            field="scenarios",
            key="kinds",
            known=SCENARIO_KINDS,
            merge=_merge_arena,
            prefix="ARENA",
            validate=validate_arena_payload,
            flag="--kind",
            one="scenario kind",
            many="scenario kinds",
            help="run the diagnoser tournament over the scenario matrix",
            smoke_help="tournament at smoke scale (the default; seconds)",
            full_help="paper-sized tournament (minutes)",
            set_help="override an ArenaConfig field (JSON value; repeatable)",
        ),
        MatrixSpec(
            experiment="fleet",
            field="policies",
            key="policies",
            known=POLICY_NAMES,
            merge=_merge_fleet,
            prefix="FLEET",
            validate=validate_fleet_payload,
            flag="--policy",
            one="maintenance policy",
            many="policies",
            help="simulate maintenance policies over a fleet of drifting traps",
            smoke_help="fleet sweep at smoke scale (the default; seconds)",
            full_help="full-window fleet sweep (minutes)",
            set_help="override a FleetConfig field (JSON value; repeatable)",
        ),
    )
}


def run_matrix(
    name: str,
    preset: str = "smoke",
    values: list[str] | None = None,
    overrides: dict[str, Any] | None = None,
    jobs: int = 1,
    cache_dir: Path | str | None = None,
    use_cache: bool = True,
    force: bool = False,
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
    journal: Path | str | None = None,
    resume: bool = False,
    min_complete: float = 1.0,
) -> tuple[dict[str, Any], list[RunRecord]]:
    """Sweep a matrix experiment one name at a time and merge the report.

    The front door behind ``python -m repro scenarios|arena|fleet`` and
    the service's matrix jobs, driven by the :data:`MATRIX_SPECS` row
    ``name``.  Each of ``values`` (scenario kinds or maintenance
    policies; default: the preset's) runs as its *own* experiment job
    (``run_sweep`` over the row's config field), so names cache
    independently — re-running with one new name only simulates that
    name — and fan out over ``jobs`` worker processes.  The per-name
    records merge into one schema-validated payload.

    Returns ``(payload, records)``; write the payload with
    :func:`write_labelled_json` under the row's prefix.
    """
    matrix = MATRIX_SPECS[name]
    base = dict(overrides or {})
    # The sweep owns the swept field: it must never stay in the base
    # overrides, and an explicit ``values`` argument wins over it.
    override_values = base.pop(matrix.field, None)
    if values is None:
        values = override_values or getattr(
            get_experiment(name).config(preset), matrix.field
        )
    values = list(values)
    matrix.check(values)
    sweep_result = run_sweep(
        name,
        {matrix.field: [[value] for value in values]},
        preset=preset,
        base_overrides=base or None,
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
        force=force,
        retry=retry,
        timeout=timeout,
        journal=journal,
        resume=resume,
    )
    results = _gate_sweep(sweep_result, min_complete)
    runs = [record.payload for _, record in results]
    cells = [cell for run in runs for cell in run["result"]["cells"]]
    records = [
        {
            matrix.key: list(point[matrix.field]),
            "config_digest": record.config_digest,
            "cache_hit": record.cache_hit,
        }
        for point, record in results
    ]
    payload = matrix.merge(preset, cells, runs, records)
    if not sweep_result.complete:
        payload["degradation"] = sweep_result.degradation()
    matrix.validate(payload)
    return payload, [record for _, record in results]


def write_labelled_json(
    payload: dict[str, Any],
    out_dir: Path | str,
    prefix: str,
    validate: Callable[[Any], None],
) -> Path:
    """Validate and write a labelled report as ``<out>/<prefix>_<label>.json``."""
    validate(payload)
    label = "".join(
        c if c.isalnum() or c in "._-" else "-" for c in str(payload["label"])
    )
    path = Path(out_dir) / f"{prefix}_{label}.json"
    _atomic_write_json(path, payload)
    return path


def _out_stem(record: RunRecord, suffix: str | None) -> str:
    stem = f"{record.name}-{record.preset}"
    return f"{stem}-{suffix}" if suffix else stem


def write_json(
    record: RunRecord, out_dir: Path | str, suffix: str | None = None
) -> Path:
    """Write a record's payload to ``<out>/<name>-<preset>[-suffix].json``.

    ``suffix`` (typically the config digest) keeps the files of a sweep's
    many points from overwriting each other.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{_out_stem(record, suffix)}.json"
    _atomic_write_json(path, record.payload)
    return path


def write_csv(
    record: RunRecord, out_dir: Path | str, suffix: str | None = None
) -> Path:
    """Write a record's flattened rows to ``<out>/<name>-<preset>[-suffix].csv``."""
    from .reporting import series_csv

    headers, rows = record.rows()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{_out_stem(record, suffix)}.csv"
    path.write_text(series_csv(headers, rows) + "\n")
    return path
