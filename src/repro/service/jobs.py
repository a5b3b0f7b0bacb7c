"""Job specifications and the worker entry point of the diagnosis service.

A *job* is one unit of work the service runs on the supervised pool
(:func:`repro.exec.pool.run_supervised`): crash-isolated in a worker
process, retried under a :class:`~repro.exec.retry.RetryPolicy`, killed
at its per-attempt deadline, cancellable mid-flight.  The service's job
kinds map one-to-one onto the repo's existing front doors:

``experiment``
    One registered experiment through
    :func:`repro.analysis.runner.run_experiment` — payload
    ``{"name": ..., "preset": ..., "overrides": {...}}``.
``scenarios`` / ``arena`` / ``fleet``
    The matrix front doors, one
    :func:`~repro.analysis.runner.run_matrix` row each — payload
    ``{"preset": ..., "kinds"|"policies": [...], "overrides": {...}}``
    (``kinds`` for scenarios and arena, ``policies`` for fleet); the
    service rejects any other key, or an unknown name, at submit.
``diagnose``
    A single bounded diagnosis of one machine snapshot: the payload
    names a scenario cell (``scenario``, ``n_qubits``, ``trial``) and a
    diagnoser; the worker rebuilds the arena's calibrated context for
    that cell (identical thresholds/baselines as the tournament) and
    runs one :func:`repro.arena.diagnosers.run_bounded` session.  The
    calibration goes through the one per-process memo of
    :func:`~repro.analysis.experiments.scenarios.calibrate_cell`, keyed
    by N, noise environment and calibration config, so a warm worker
    calibrates each environment once, whichever kinds share it.  The
    service refuses at submit a key outside :data:`DIAGNOSE_FIELDS`, an
    unknown scenario or diagnoser and a malformed ``n_qubits`` or
    ``trial``.
``sleep``
    A diagnostic no-op (``{"seconds": s}``) used by the lifecycle tests
    and the CI smoke drill to exercise queueing, cancellation and
    restart re-adoption without paying for a simulation.

Every job executes against its namespace's private cache directory, so
two tenants can never collide on cache keys or result artifacts.
:func:`execute_job` is module-level (the pool pickles it into workers)
and returns a JSON-able payload — the service stamps it with an
integrity checksum and persists it as the job's result artifact.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "JOB_KINDS",
    "PRIORITIES",
    "SERVICE_STATES",
    "TERMINAL_STATES",
    "JobSpec",
    "execute_job",
    "outcome_state",
]

#: Work the service knows how to run.
JOB_KINDS = ("experiment", "scenarios", "arena", "fleet", "diagnose", "sleep")

#: Priority bands, strongest first (the scheduler ages across them).
PRIORITIES = ("interactive", "normal", "batch")

#: Lifecycle of a service job (exactly one terminal state per job).
SERVICE_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Tenant namespaces: filesystem-safe, lowercase, no path tricks.
_NAMESPACE_RE = re.compile(r"^[a-z0-9][a-z0-9._-]{0,63}$")

def outcome_state(status: str) -> str:
    """Map a pool :class:`~repro.exec.outcomes.JobOutcome` status onto
    the service state it terminates the job in."""
    from ..exec.outcomes import SUCCESS_STATES

    if status in SUCCESS_STATES:
        return "done"
    if status == "cancelled":
        return "cancelled"
    return "failed"


@dataclass(frozen=True)
class JobSpec:
    """What one service job should run, and under which guarantees.

    ``timeout`` is the per-attempt kill deadline (seconds) and
    ``max_attempts`` the supervised retry budget — both map straight
    onto the pool's :class:`~repro.exec.retry.RetryPolicy`.  The
    ``namespace`` scopes every filesystem artifact (cache entries,
    result files) to one tenant.
    """

    kind: str
    payload: dict[str, Any] = field(default_factory=dict)
    namespace: str = "default"
    priority: str = "normal"
    timeout: float | None = None
    max_attempts: int = 1
    retry_delay: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}"
            )
        if self.priority not in PRIORITIES:
            raise ValueError(
                f"unknown priority {self.priority!r}; "
                f"expected one of {PRIORITIES}"
            )
        if not isinstance(self.payload, dict):
            raise ValueError("job payload must be a JSON object")
        if not _NAMESPACE_RE.match(self.namespace):
            raise ValueError(
                f"invalid namespace {self.namespace!r}: need lowercase "
                "alphanumerics plus ._- (max 64 chars, no leading punctuation)"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.retry_delay < 0:
            raise ValueError("retry_delay must be non-negative")

    def to_payload(self) -> dict[str, Any]:
        """JSON-able spec (journal record + HTTP body shape)."""
        return {
            "kind": self.kind,
            "payload": self.payload,
            "namespace": self.namespace,
            "priority": self.priority,
            "timeout": self.timeout,
            "max_attempts": self.max_attempts,
            "retry_delay": self.retry_delay,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "JobSpec":
        """Rebuild a spec from :meth:`to_payload` output (validating)."""
        known = {
            "kind",
            "payload",
            "namespace",
            "priority",
            "timeout",
            "max_attempts",
            "retry_delay",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown job spec fields: {sorted(unknown)}")
        if "kind" not in payload:
            raise ValueError("job spec needs a 'kind'")
        return cls(
            kind=payload["kind"],
            payload=payload.get("payload") or {},
            namespace=payload.get("namespace", "default"),
            priority=payload.get("priority", "normal"),
            timeout=payload.get("timeout"),
            max_attempts=int(payload.get("max_attempts", 1)),
            retry_delay=float(payload.get("retry_delay", 0.1)),
        )


# ------------------------------------------------------------- execution


def _run_experiment_job(payload: dict[str, Any], cache_dir: str) -> dict[str, Any]:
    from ..analysis.runner import run_experiment

    name = payload.get("name")
    if not name:
        raise ValueError("experiment job needs a 'name'")
    record = run_experiment(
        name,
        preset=payload.get("preset", "smoke"),
        overrides=payload.get("overrides"),
        cache_dir=cache_dir,
        use_cache=payload.get("use_cache", True),
        force=payload.get("force", False),
    )
    return record.payload


def _run_matrix_job(
    kind: str, payload: dict[str, Any], cache_dir: str
) -> dict[str, Any]:
    from ..analysis.runner import MATRIX_SPECS, run_matrix

    report, _ = run_matrix(
        kind,
        preset=payload.get("preset", "smoke"),
        values=payload.get(MATRIX_SPECS[kind].key),
        overrides=payload.get("overrides"),
        jobs=1,  # the service already supervises this job; no nested pools
        cache_dir=cache_dir,
        use_cache=payload.get("use_cache", True),
        force=payload.get("force", False),
    )
    return report


#: The payload keys a ``diagnose`` job reads.
DIAGNOSE_FIELDS = (
    "scenario", "diagnoser", "n_qubits", "trial", "preset", "overrides"
)


def check_diagnose_request(payload: dict[str, Any]) -> None:
    """Refuse (``ValueError``) a ``diagnose`` payload a worker cannot run.

    Known keys only; ``scenario`` a scenario kind, ``diagnoser`` (if
    given) a registered diagnoser, ``n_qubits`` (if given) an int >= 2
    and ``trial`` (if given) an int >= 0.  Imports only modules the
    service parent already loads.
    """
    from ..arena.diagnosers import BASELINE_NAMES, STRATEGY_NAMES
    from ..scenarios.spec import SCENARIO_KINDS

    unknown = set(payload) - set(DIAGNOSE_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown diagnose job payload fields: {sorted(unknown)} "
            f"(expected any of {sorted(DIAGNOSE_FIELDS)})"
        )
    if payload.get("scenario") not in SCENARIO_KINDS:
        raise ValueError(
            f"unknown scenario {payload.get('scenario')!r}; "
            f"expected one of {SCENARIO_KINDS}"
        )
    diagnosers = (*STRATEGY_NAMES, *BASELINE_NAMES)
    if payload.get("diagnoser", "battery") not in diagnosers:
        raise ValueError(
            f"unknown diagnoser {payload['diagnoser']!r}; "
            f"expected one of {diagnosers}"
        )
    for name, least in (("n_qubits", 2), ("trial", 0)):
        value = payload.get(name, least)
        if type(value) is not int or value < least:
            raise ValueError(f"diagnose job {name!r} must be an int >= {least}")


def _run_diagnose_job(payload: dict[str, Any], cache_dir: str) -> dict[str, Any]:
    """One bounded diagnosis of one scenario machine snapshot.

    Reuses the arena's own calibration and seeding helpers so a service
    diagnosis of cell (scenario, N, trial) sees bit-identical
    thresholds, baselines and machines as the tournament — the service
    is a delivery mechanism, not a different experiment.
    """
    from ..analysis.experiments.arena import (
        _cell_context,
        _trial_machine,
    )
    from ..analysis.experiments.scenarios import calibrate_cell
    from ..analysis.registry import get_experiment
    from ..arena.budget import TimeBudget
    from ..arena.diagnosers import build_diagnoser, run_bounded
    from ..scenarios.spec import build_scenario

    scenario = payload.get("scenario")
    diagnoser_name = payload.get("diagnoser", "battery")
    if not scenario:
        raise ValueError("diagnose job needs a 'scenario' kind")
    spec = get_experiment("arena")
    cfg = spec.config(payload.get("preset", "smoke"), payload.get("overrides"))
    n_qubits = int(payload.get("n_qubits", cfg.qubit_counts[0]))
    trial = int(payload.get("trial", 0))
    scen = build_scenario(scenario, n_qubits)
    thresholds, bank, _batteries = calibrate_cell(cfg, n_qubits, scen)
    ctx = _cell_context(cfg, n_qubits, thresholds, bank)
    diagnoser = build_diagnoser(diagnoser_name, ctx)
    machine = _trial_machine(cfg, n_qubits, scen, trial)
    budget = TimeBudget(cfg.soft_seconds, cfg.hard_seconds)
    diagnosis, wall = run_bounded(diagnoser, machine, budget)
    return {
        "schema": "repro-service-diagnosis/v1",
        "scenario": scenario,
        "n_qubits": n_qubits,
        "trial": trial,
        "diagnoser": diagnosis.diagnoser,
        "detected": diagnosis.detected,
        "claimed": diagnosis.claimed_sorted(),
        "ambiguity_group": sorted(
            tuple(sorted(p)) for p in diagnosis.ambiguity_group
        ),
        "tests_used": diagnosis.tests_used,
        "shots": diagnosis.shots,
        "adaptations": diagnosis.adaptations,
        "timed_out": diagnosis.timed_out,
        "wall_seconds": wall,
        "ground_truth": [
            tuple(sorted(p)) for p in scen.ground_truth(trial, floor=0.0)
        ],
    }


def _run_sleep_job(payload: dict[str, Any]) -> dict[str, Any]:
    seconds = float(payload.get("seconds", 0.0))
    if seconds < 0:
        raise ValueError("sleep job needs non-negative 'seconds'")
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        time.sleep(min(0.05, max(0.0, deadline - time.monotonic())))
    return {"schema": "repro-service-sleep/v1", "slept_seconds": seconds}


def execute_job(item: dict[str, Any]) -> dict[str, Any]:
    """Run one service job inside a pool worker (module-level, pickles).

    ``item`` carries ``{"job_id", "kind", "payload", "cache_dir"}``;
    the return value is the job's JSON-able result payload, which the
    service persists as an integrity-stamped artifact.
    """
    kind = item["kind"]
    payload = item.get("payload") or {}
    cache_dir = item["cache_dir"]
    if kind == "experiment":
        return _run_experiment_job(payload, cache_dir)
    if kind in ("scenarios", "arena", "fleet"):
        return _run_matrix_job(kind, payload, cache_dir)
    if kind == "diagnose":
        return _run_diagnose_job(payload, cache_dir)
    if kind == "sleep":
        return _run_sleep_job(payload)
    raise ValueError(f"unknown job kind {kind!r}")
