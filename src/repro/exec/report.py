"""The chaos-injection harness behind ``python -m repro chaos``.

Resilience claims are only worth what survives contact with real
failures, so the harness runs a *real* experiment sweep (fig8's
under-rotation contrast at smoke scale) twice — once fault-free, once
with the :mod:`repro.exec.chaos` environment hooks armed — and proves,
with hard checks embedded in a schema'd ``CHAOS_<label>.json``
(``repro-chaos/v1``), that the execution layer holds its invariants:

* **Completion under fire** — with crashes, stalls, transient errors
  and cache corruption injected at the configured rates, every sweep
  cell still completes (via supervised retries).
* **Equivalence modulo provenance** — the merged faulty-run results are
  byte-identical to the fault-free run after stripping volatile keys
  (provenance, timings, integrity stamps): retries never change
  numbers.
* **Exact fault accounting** — chaos decisions are deterministic, so
  the harness replays :func:`repro.exec.chaos.decide` offline and
  checks every injected fault landed as exactly one matching
  :class:`~repro.exec.outcomes.AttemptRecord` (and nothing failed for
  any *other* reason).
* **Corruption quarantined** — every cache entry the corruption hook
  sabotaged is quarantined on re-read and transparently recomputed to a
  result matching the fault-free baseline.
* **Resume after ``kill -9``** — a journaled child sweep is killed with
  SIGKILL mid-flight; the resumed invocation loads every journaled cell
  from cache (status ``resumed``) and dispatches workers only for the
  remainder — zero finished cells recomputed.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any

from ..provenance import (
    Shape,
    check_payload,
    checks_shape,
    payload_fingerprint,
    provenance,
    report_fields,
)
from ..validation.specs import Check
from .chaos import CHAOS_ENV_VARS, ChaosConfig, _uniform, decide
from .integrity import QUARANTINE_DIRNAME
from .journal import load_journal
from .outcomes import JOB_STATES
from .retry import RetryPolicy

__all__ = [
    "CHAOS_SCHEMA_ID",
    "CHAOS_SHAPE",
    "chaos_checks",
    "run_chaos",
    "validate_chaos_payload",
]

#: Schema identifier stamped into (and required of) every chaos payload.
CHAOS_SCHEMA_ID = "repro-chaos/v1"

#: Map an offline chaos decision to the attempt cause it must produce.
_EXPECTED_CAUSE = {"crash": "crashed", "stall": "timed_out", "flaky": "error"}

#: How long the resume drill waits for the child to journal a cell.
_RESUME_DRILL_DEADLINE = 180.0


def _smoke_spec(seed: int) -> dict[str, Any]:
    """The smoke-scale chaos workload (seconds, CI-gated)."""
    return {
        # Eight independent seeds of the fig8 smoke preset (~tens of ms
        # per cell): cheap enough to retry a dozen times, real enough
        # that equivalence-modulo-provenance is a meaningful claim.
        "experiment": "fig8",
        "sweep": {"seed": [101 + i for i in range(8)]},
        "jobs": 2,
        # Resume drill: slower cells (fig10 smoke, ~0.5 s each) so the
        # parent can reliably SIGKILL the child mid-sweep.
        "resume_experiment": "fig10",
        "resume_sweep": {"shots": [280 + 10 * i for i in range(6)]},
        "chaos": ChaosConfig(
            crash_rate=0.30,
            stall_rate=0.10,
            flaky_rate=0.15,
            corrupt_rate=0.45,
            stall_seconds=60.0,
            seed=seed,
        ),
        "policy": RetryPolicy(
            max_attempts=12,
            base_delay=0.01,
            backoff=1.5,
            max_delay=0.2,
            jitter=0.1,
            seed=seed,
            timeout=5.0,
        ),
    }


def _full_spec(seed: int) -> dict[str, Any]:
    """The full-scale chaos workload (more cells, same invariants)."""
    spec = _smoke_spec(seed)
    spec["sweep"] = {"seed": [101 + i for i in range(16)]}
    spec["resume_sweep"] = {"shots": [250 + 10 * i for i in range(8)]}
    spec["jobs"] = 4
    return spec


class _ChaosEnv:
    """Context manager arming (or clearing) the chaos environment hooks."""

    def __init__(self, config: ChaosConfig | None):
        self.config = config
        self._saved: dict[str, str | None] = {}

    def __enter__(self) -> "_ChaosEnv":
        for name in CHAOS_ENV_VARS:
            self._saved[name] = os.environ.pop(name, None)
        if self.config is not None:
            os.environ.update(self.config.to_env())
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for name in CHAOS_ENV_VARS:
            os.environ.pop(name, None)
            if self._saved.get(name) is not None:
                os.environ[name] = self._saved[name]


def _subprocess_env() -> dict[str, str]:
    """Child environment: this interpreter's import path, no chaos vars."""
    env = dict(os.environ)
    for name in CHAOS_ENV_VARS:
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


def _resume_drill(
    spec: dict[str, Any], workdir: Path
) -> dict[str, Any]:
    """Kill a journaled child sweep mid-flight, resume it, account cells.

    Returns the ``resume`` section of the chaos payload: how many cells
    the killed invocation journaled as finished, how many the resumed
    invocation loaded back (``resumed`` status, zero dispatches) versus
    computed fresh, and whether the resumed sweep completed.
    """
    from ..analysis.runner import run_sweep

    cache_dir = workdir / "cache-resume"
    journal = workdir / "resume.journal.jsonl"
    n_points = len(next(iter(spec["resume_sweep"].values())))
    child_spec = {
        "experiment": spec["resume_experiment"],
        "sweep": spec["resume_sweep"],
        "preset": "smoke",
        "cache_dir": str(cache_dir),
        "journal": str(journal),
    }
    script = (
        "import json, sys\n"
        "from repro.analysis.runner import run_sweep\n"
        "spec = json.loads(sys.argv[1])\n"
        "run_sweep(spec['experiment'], spec['sweep'], preset=spec['preset'],\n"
        "          jobs=1, cache_dir=spec['cache_dir'],\n"
        "          journal=spec['journal'])\n"
    )
    child = subprocess.Popen(
        [sys.executable, "-c", script, json.dumps(child_spec)],
        env=_subprocess_env(),
        cwd=str(workdir),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        # Its own process group, so the kill reaches its pool worker too.
        start_new_session=True,
    )
    deadline = time.monotonic() + _RESUME_DRILL_DEADLINE
    killed = False
    try:
        while time.monotonic() < deadline:
            if journal.exists() and load_journal(journal)["finished"]:
                # At least one cell journaled: kill the child and its
                # worker mid-sweep, the hard way — no cleanup, no atexit.
                os.killpg(child.pid, signal.SIGKILL)
                killed = True
                break
            if child.poll() is not None:
                break  # the child outran us and finished the whole sweep
            time.sleep(0.02)
    finally:
        if child.poll() is None and not killed:
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()

    finished_before = len(load_journal(journal)["finished"])
    result = run_sweep(
        spec["resume_experiment"],
        spec["resume_sweep"],
        preset="smoke",
        jobs=1,
        cache_dir=cache_dir,
        journal=journal,
        resume=True,
    )
    resumed = sum(o.status == "resumed" for o in result.outcomes)
    recomputed_finished = sum(
        o.status == "resumed" and o.n_attempts > 0 for o in result.outcomes
    )
    dispatched = sum(o.n_attempts > 0 for o in result.outcomes)
    return {
        "n_points": n_points,
        "child_killed": killed,
        "finished_before": finished_before,
        "resumed": resumed,
        "dispatched": dispatched,
        "recomputed_finished": recomputed_finished,
        "complete": result.complete,
        "journal_finished_after": len(load_journal(journal)["finished"]),
    }


def _account_cell(
    config: ChaosConfig, outcome, digest: str
) -> tuple[dict[str, Any], dict[str, int], list[str]]:
    """Replay the chaos decisions for one cell against its attempt log.

    Returns the cell payload row, the per-kind injected-fault counts,
    and any accounting mismatches (an attempt whose observed cause does
    not match the offline-replayed injection decision).
    """
    injected: list[str | None] = []
    counts = {"crash": 0, "stall": 0, "flaky": 0}
    mismatches: list[str] = []
    for attempt in outcome.attempts:
        predicted = decide(config, f"{outcome.key}#a{attempt.attempt}")
        injected.append(predicted)
        if predicted is not None:
            expected = _EXPECTED_CAUSE[predicted]
            observed_kind = attempt.cause
            flaky_ok = (
                predicted == "flaky"
                and attempt.cause == "error"
                and attempt.error_type == "ChaosTransientError"
            )
            if (observed_kind == expected and predicted != "flaky") or flaky_ok:
                counts[predicted] += 1
            else:
                mismatches.append(
                    f"{outcome.key} attempt {attempt.attempt}: injected "
                    f"{predicted!r} but observed {attempt.cause!r} "
                    f"({attempt.error_type})"
                )
        elif attempt.cause != "ok":
            mismatches.append(
                f"{outcome.key} attempt {attempt.attempt}: no fault "
                f"injected but attempt {attempt.cause!r} "
                f"({attempt.error_type}: {attempt.message})"
            )
    cell = {
        "key": outcome.key,
        "digest": digest,
        "status": outcome.status,
        "n_attempts": outcome.n_attempts,
        "causes": outcome.causes,
        "injected": injected,
    }
    return cell, counts, mismatches


def run_chaos(
    preset: str = "smoke",
    out_dir: Path | str = ".",
    seed: int = 7,
    label: str | None = None,
    jobs: int | None = None,
    crash_rate: float | None = None,
    stall_rate: float | None = None,
    flaky_rate: float | None = None,
    corrupt_rate: float | None = None,
    keep_workdir: bool = False,
) -> tuple[dict[str, Any], Path]:
    """Run the chaos harness and persist the ``CHAOS_<label>.json`` record.

    Every stage works in a throwaway temp directory (fresh cache dirs
    per run, so injected faults hit real computation, never a warm
    cache).  Rate arguments override the preset's defaults; the harness
    refuses rate combinations :class:`~repro.exec.chaos.ChaosConfig`
    rejects.  Returns ``(payload, path)``.
    """
    from ..analysis.runner import _cache_path, run_experiment, run_sweep

    started = time.perf_counter()
    spec = (_full_spec if preset == "full" else _smoke_spec)(seed)
    config: ChaosConfig = spec["chaos"]
    overrides = {
        "crash_rate": crash_rate,
        "stall_rate": stall_rate,
        "flaky_rate": flaky_rate,
        "corrupt_rate": corrupt_rate,
    }
    applied = {k: v for k, v in overrides.items() if v is not None}
    if applied:
        config = ChaosConfig(**{**asdict(config), **applied})
    policy: RetryPolicy = spec["policy"]
    jobs = jobs if jobs is not None else spec["jobs"]
    experiment = spec["experiment"]
    sweep = spec["sweep"]

    workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    try:
        # Stage 1: the fault-free baseline (chaos hooks explicitly
        # cleared, fresh cache so every cell actually computes).
        with _ChaosEnv(None):
            baseline = run_sweep(
                experiment,
                sweep,
                preset="smoke",
                jobs=jobs,
                cache_dir=workdir / "cache-clean",
            )
        baseline_fp = [
            payload_fingerprint(record.payload) for _, record in baseline
        ]

        # Stage 2: the same sweep under injected faults.
        chaos_cache = workdir / "cache-chaos"
        with _ChaosEnv(config):
            faulty = run_sweep(
                experiment,
                sweep,
                preset="smoke",
                jobs=jobs,
                cache_dir=chaos_cache,
                retry=policy,
                journal=workdir / "chaos.journal.jsonl",
            )

        # Stage 3: offline replay — every injection accounted for.
        cells: list[dict[str, Any]] = []
        injected_counts = {"crash": 0, "stall": 0, "flaky": 0}
        mismatches: list[str] = []
        for outcome in faulty.outcomes:
            cell, counts, cell_mismatches = _account_cell(
                config, outcome, faulty.digests[outcome.index]
            )
            for kind, count in counts.items():
                injected_counts[kind] += count
            mismatches.extend(cell_mismatches)
            cells.append(cell)

        # Stage 4: equivalence modulo provenance, cell by cell.
        fingerprint_matches = []
        for position, (_, record) in enumerate(faulty):
            match = payload_fingerprint(record.payload) == baseline_fp[position]
            fingerprint_matches.append(match)
            cells[position]["fingerprint_match"] = match

        # Stage 5: corruption round-trip.  The corruption hook fired at
        # cache-write time during stage 2; with chaos cleared, re-read
        # every cell and confirm sabotaged entries are quarantined and
        # transparently recomputed to baseline-equivalent results.
        predicted_corrupt = set()
        for digest in faulty.digests:
            filename = _cache_path(chaos_cache, experiment, digest).name
            if _uniform(config.seed, filename, "corrupt") < config.corrupt_rate:
                predicted_corrupt.add(filename)
        reread_ok = True
        with _ChaosEnv(None):
            for position, point in enumerate(faulty.points):
                record = run_experiment(
                    experiment,
                    preset="smoke",
                    overrides=point,
                    cache_dir=chaos_cache,
                )
                filename = _cache_path(
                    chaos_cache, experiment, faulty.digests[position]
                ).name
                was_corrupted = filename in predicted_corrupt
                if record.cache_hit == was_corrupted:
                    reread_ok = False  # corrupted must miss, clean must hit
                if payload_fingerprint(record.payload) != baseline_fp[position]:
                    reread_ok = False
        quarantined = sorted(
            p.name for p in (chaos_cache / QUARANTINE_DIRNAME).glob("*.json")
        ) if (chaos_cache / QUARANTINE_DIRNAME).exists() else []
        corruption = {
            "predicted": sorted(predicted_corrupt),
            "quarantined": quarantined,
            "reread_ok": reread_ok,
        }

        # Stage 6: the kill -9 / --resume drill (fault-free, journaled).
        with _ChaosEnv(None):
            resume = _resume_drill(spec, workdir)
    finally:
        if keep_workdir:
            print(f"chaos workdir kept: {workdir}")
        else:
            shutil.rmtree(workdir, ignore_errors=True)

    checks = chaos_checks(
        faulty_result=faulty,
        fingerprint_matches=fingerprint_matches,
        injected_counts=injected_counts,
        mismatches=mismatches,
        corruption=corruption,
        resume=resume,
    )
    payload = {
        "schema": CHAOS_SCHEMA_ID,
        "label": label or preset,
        "preset": preset,
        "created_unix": time.time(),
        "provenance": provenance(),
        "experiment": experiment,
        "sweep": sweep,
        "jobs": jobs,
        "chaos": asdict(config),
        "policy": asdict(policy),
        "cells": cells,
        "injected": injected_counts,
        "accounting_mismatches": mismatches,
        "corruption": corruption,
        "resume": resume,
        "checks": [asdict(check) for check in checks],
        "elapsed_seconds": time.perf_counter() - started,
    }
    from ..analysis.runner import write_labelled_json

    path = write_labelled_json(payload, out_dir, "CHAOS", validate_chaos_payload)
    return payload, path


def chaos_checks(
    faulty_result,
    fingerprint_matches: list[bool],
    injected_counts: dict[str, int],
    mismatches: list[str],
    corruption: dict[str, Any],
    resume: dict[str, Any],
) -> list[Check]:
    """The hard checks that gate ``python -m repro chaos``'s exit code."""
    checks: list[Check] = []
    n = len(faulty_result.outcomes)

    checks.append(
        Check(
            check_id="chaos.sweep_completes_under_faults",
            description=(
                "every sweep cell completes despite injected crashes, "
                "stalls and transient errors (supervised retries)"
            ),
            passed=faulty_result.complete,
            hard=True,
            observed=(
                f"{sum(o.ok for o in faulty_result.outcomes)}/{n} cells "
                "completed; statuses "
                + json.dumps(faulty_result.degradation()["statuses"])
            ),
            target=f"{n}/{n} cells completed",
            value=faulty_result.completeness,
            drift_tolerance=0.0,
        )
    )

    matched = sum(fingerprint_matches)
    checks.append(
        Check(
            check_id="chaos.equivalent_modulo_provenance",
            description=(
                "the faulty run's merged results are byte-identical to "
                "the fault-free baseline after stripping volatile keys"
            ),
            passed=bool(fingerprint_matches) and all(fingerprint_matches),
            hard=True,
            observed=f"{matched}/{len(fingerprint_matches)} cell "
            "fingerprints match",
            target="every completed cell matches its baseline fingerprint",
            value=float(matched),
            drift_tolerance=0.0,
        )
    )

    checks.append(
        Check(
            check_id="chaos.fault_accounting_exact",
            description=(
                "every injected fault landed as exactly one matching "
                "attempt record, and nothing failed for any other reason"
            ),
            passed=not mismatches,
            hard=True,
            observed=(
                f"{len(mismatches)} mismatch(es)"
                + (": " + "; ".join(mismatches[:3]) if mismatches else "")
            ),
            target="0 mismatches between replayed decisions and attempts",
            value=float(len(mismatches)),
            drift_tolerance=0.0,
        )
    )

    fired = {
        **injected_counts,
        "corrupt": len(corruption["predicted"]),
    }
    checks.append(
        Check(
            check_id="chaos.every_fault_kind_fired",
            description=(
                "each fault kind (crash, stall, flaky, corruption) was "
                "actually injected at least once — the rates are not "
                "vacuous"
            ),
            passed=all(count >= 1 for count in fired.values()),
            hard=True,
            observed=json.dumps(fired),
            target="every kind >= 1",
            value=float(min(fired.values())) if fired else 0.0,
            drift_tolerance=None,
        )
    )

    predicted = set(corruption["predicted"])
    quarantined = {
        name.split(".json")[0] + ".json" for name in corruption["quarantined"]
    }
    checks.append(
        Check(
            check_id="chaos.corruption_quarantined",
            description=(
                "every corrupted cache entry is quarantined on re-read "
                "and transparently recomputed to a baseline-equivalent "
                "result; clean entries still cache-hit"
            ),
            passed=corruption["reread_ok"] and quarantined == predicted,
            hard=True,
            observed=(
                f"{len(quarantined)} quarantined vs "
                f"{len(predicted)} predicted; reread_ok="
                f"{corruption['reread_ok']}"
            ),
            target="quarantined == predicted and all rereads baseline-equal",
            value=float(len(quarantined)),
            drift_tolerance=0.0,
        )
    )

    checks.append(
        Check(
            check_id="chaos.resume_zero_recompute",
            description=(
                "after a mid-sweep kill -9, --resume loads every "
                "journaled cell from cache (zero recomputes, zero "
                "dispatches) and completes the rest"
            ),
            passed=(
                resume["finished_before"] >= 1
                and resume["resumed"] == resume["finished_before"]
                and resume["recomputed_finished"] == 0
                and resume["dispatched"]
                == resume["n_points"] - resume["finished_before"]
                and resume["complete"]
            ),
            hard=True,
            observed=(
                f"{resume['finished_before']} journaled before kill, "
                f"{resume['resumed']} resumed, "
                f"{resume['dispatched']} dispatched of "
                f"{resume['n_points']}, complete={resume['complete']}"
            ),
            target=(
                "resumed == journaled >= 1, dispatched == remainder, "
                "sweep complete"
            ),
            value=float(resume["resumed"]),
            drift_tolerance=None,
        )
    )

    retried = sum(o.status == "retried" for o in faulty_result.outcomes)
    checks.append(
        Check(
            check_id="chaos.retries_absorbed_faults",
            description=(
                "at least one cell recovered via retry (the policy did "
                "real work, not just the happy path)"
            ),
            passed=retried >= 1,
            hard=False,
            observed=f"{retried}/{n} cells recovered via retry",
            target=">= 1 retried cell",
            value=float(retried),
            drift_tolerance=None,
        )
    )
    return checks


_COUNT = Shape("int", lo=0)

#: The schema every chaos payload must match.
CHAOS_SHAPE = Shape(
    "object",
    fields={
        **report_fields(CHAOS_SCHEMA_ID),
        "experiment": Shape("str", nonempty=True),
        "chaos": Shape(
            "object",
            fields={
                rate: Shape("number", lo=0.0, hi=1.0)
                for rate in (
                    "crash_rate",
                    "stall_rate",
                    "flaky_rate",
                    "corrupt_rate",
                )
            },
        ),
        "policy": Shape("object", fields={"max_attempts": Shape("int", lo=1)}),
        "cells": Shape(
            "list",
            nonempty=True,
            items=Shape(
                "object",
                fields={
                    "key": Shape("str", nonempty=True),
                    "status": Shape(
                        None, one_of=JOB_STATES, says="a known job state"
                    ),
                    "n_attempts": _COUNT,
                    "injected": Shape("list"),
                },
            ),
        ),
        "injected": Shape(
            "object",
            fields={kind: _COUNT for kind in ("crash", "stall", "flaky")},
        ),
        "resume": Shape(
            "object",
            fields={
                key: _COUNT
                for key in (
                    "n_points",
                    "finished_before",
                    "resumed",
                    "dispatched",
                )
            },
        ),
        "checks": checks_shape("chaos."),
    },
)


def validate_chaos_payload(payload: Any) -> None:
    """Raise ``ValueError`` listing every way ``payload`` violates the schema."""
    check_payload(payload, CHAOS_SHAPE, "chaos")
