"""``python -m repro``: the command-line face of the reproduction.

Subcommands
-----------
``list``
    Table of registered experiments with their paper anchors.
``info <name>``
    Full/smoke config parameters of one experiment.
``run <names...|all>``
    Run experiments through the unified runner: ``--smoke``/``--full``
    presets, ``--jobs N`` multiprocessing fan-out, on-disk result cache,
    JSON (and optional CSV) emission under ``--out``.  With ``--sweep
    FIELD=[v1,v2,...]`` (repeatable) a single experiment runs over the
    Cartesian grid of the swept fields, sharing the cache across points.
``validate``
    Run the paper-fidelity validation suite: seeded replicates of every
    experiment with a registered expectation contract, graded with
    binomial confidence intervals and checked for drift against the
    committed golden record; emits ``VALIDATION_<preset>.json``.
``scenarios``
    Run the fault-scenario matrix: every scenario kind of the taxonomy
    (:mod:`repro.scenarios`) through the detection and identification
    batteries on both engines, merged into a schema-validated
    ``SCENARIOS_<preset>.json`` matrix report.
``chaos``
    Run the fault-injection harness (:mod:`repro.exec.report`): a real
    sweep under injected worker crashes, stalls, transient errors and
    cache corruption, plus a ``kill -9`` / ``--resume`` drill; emits a
    schema'd ``CHAOS_<label>.json`` and exits 1 on any failed hard check.
``serve``
    Run the diagnosis job service (:mod:`repro.service`): a long-running
    stdlib HTTP server accepting experiment / scenarios / arena / fleet
    / diagnose jobs asynchronously, executing them on the supervised
    pool with a crash-safe job journal — a restarted server re-adopts
    every job a ``kill -9`` orphaned, in the order the scheduler had
    them queued.  Dispatch runs through a weighted fair-share scheduler
    (``--ns-policy NS=JSON`` per-tenant weights, rate limits and
    inflight caps; ``--aging`` bounds priority starvation) and the
    ``--retain-*`` flags turn on periodic journal/artifact garbage
    collection.  The sweep-shaped commands accept ``--service URL``
    (plus ``--namespace`` and ``--priority``) to route their work
    through a running server instead of executing locally.
``gc``
    Offline retention pass over a service root no server currently
    owns: prunes terminal journal entries by age/count policy, compacts
    the journal atomically (a ``kill -9`` mid-compaction leaves the old
    or the new journal, never a hybrid), and sweeps orphaned result
    artifacts plus aged cache files.  ``--dry-run`` reports without
    deleting.

Sweep-shaped commands (``run --sweep``, ``scenarios``, ``arena``,
``fleet``) share the resilience flags of the supervised execution layer
(:mod:`repro.exec`): ``--retries``/``--retry-delay`` (per-cell retry
policy with exponential backoff and seeded jitter), ``--attempt-timeout``
(stalled attempts are killed, not waited on), ``--journal``/``--resume``
(crash-safe progress journal; a rerun skips every journaled-finished
cell), and ``--min-complete`` (accept partial sweeps down to a
completeness floor instead of failing outright).

Examples
--------
::

    python -m repro list
    python -m repro run fig3 --smoke
    python -m repro run all --smoke --jobs 4 --out results
    python -m repro run fig8 --full --set "qubit_counts=[8,16]"
    python -m repro run fig8 --smoke --sweep "shots=[150,300]" --jobs 2
    python -m repro run fig8 --smoke --sweep "seed=[1,2,3]" \\
        --retries 3 --attempt-timeout 60 --journal sweep.journal.jsonl
    python -m repro run fig8 --smoke --sweep "seed=[1,2,3]" \\
        --journal sweep.journal.jsonl --resume
    python -m repro validate --smoke
    python -m repro validate --smoke --update-golden
    python -m repro scenarios --smoke
    python -m repro scenarios --smoke --kind over-rotation --jobs 2
    python -m repro chaos --smoke
    python -m repro chaos --smoke --crash-rate 0.5 --seed 11 --out .
    python -m repro serve --root .repro-service --port 8765 --workers 4
    python -m repro serve --root .repro-service \\
        --ns-policy 'team-a={"weight": 3, "max_inflight": 2}' \\
        --retain-age 604800 --retain-count 200
    python -m repro run fig8 --smoke --service http://127.0.0.1:8765
    python -m repro arena --smoke --service http://127.0.0.1:8765 \\
        --namespace team-a --priority batch
    python -m repro gc --root .repro-service --max-age 86400 --dry-run
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from typing import Any

from .analysis import registry, runner
from .analysis.reporting import ascii_table


def _add_preset_flags(
    command: argparse.ArgumentParser, smoke_help: str, full_help: str
) -> None:
    """Attach the mutually exclusive ``--smoke``/``--full`` preset pair."""
    preset = command.add_mutually_exclusive_group()
    preset.add_argument("--smoke", action="store_true", help=smoke_help)
    preset.add_argument("--full", action="store_true", help=full_help)


def _add_cache_flags(command: argparse.ArgumentParser, force_help: str) -> None:
    """Attach ``--cache-dir``/``--no-cache``/``--force`` to a cached command."""
    command.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache location (default: $REPRO_CACHE_DIR or ./.repro-cache)",
    )
    command.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache entirely",
    )
    command.add_argument("--force", action="store_true", help=force_help)


def _add_resilience_flags(command: argparse.ArgumentParser) -> None:
    """Attach the shared supervised-execution flags to a sweep command."""
    command.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help=(
            "attempts per sweep cell before it is recorded as failed "
            "(default: 1, i.e. no retries)"
        ),
    )
    command.add_argument(
        "--retry-delay",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help=(
            "base backoff before the first retry; doubles per attempt "
            "with seeded jitter (default: 0.1)"
        ),
    )
    command.add_argument(
        "--attempt-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "kill an attempt (and its worker) after this many seconds; "
            "counts against --retries (default: no timeout)"
        ),
    )
    command.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help=(
            "append-only crash-safe progress journal; with --resume it "
            "defaults to <out>/<name>-<preset>.journal.jsonl"
        ),
    )
    command.add_argument(
        "--resume",
        action="store_true",
        help=(
            "skip cells the journal already records as finished "
            "(their cached results are loaded, not recomputed)"
        ),
    )
    command.add_argument(
        "--min-complete",
        type=float,
        default=1.0,
        metavar="FRACTION",
        help=(
            "accept a degraded sweep if at least this fraction of cells "
            "completed (default: 1.0 — any failed cell exits 1)"
        ),
    )


def _add_service_flags(command: argparse.ArgumentParser) -> None:
    """Attach the remote-execution flags to a service-routable command."""
    command.add_argument(
        "--service",
        default=None,
        metavar="URL",
        help=(
            "submit this command as a job to a running "
            "'python -m repro serve' instance instead of executing locally"
        ),
    )
    command.add_argument(
        "--namespace",
        default="default",
        metavar="NAME",
        help="tenant namespace for --service jobs (default: default)",
    )
    command.add_argument(
        "--priority",
        default="normal",
        choices=("interactive", "normal", "batch"),
        help="scheduling band for --service jobs (default: normal)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of 'Detecting Qubit-coupling Faults in Ion-trap "
            "Quantum Computers' (HPCA 2022): unified experiment runner."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    info = sub.add_parser("info", help="show one experiment's presets")
    info.add_argument("name", help="experiment name (see: list)")

    run = sub.add_parser("run", help="run experiments via the unified runner")
    run.add_argument(
        "names",
        nargs="+",
        help="experiment names, or 'all' for every registered experiment",
    )
    _add_preset_flags(
        run,
        "scaled-down preset (seconds; the default)",
        "paper-sized preset (minutes for the heavy experiments)",
    )
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="FIELD=JSON",
        help=(
            "override a config field (JSON value; repeatable; "
            "single experiment only)"
        ),
    )
    run.add_argument(
        "--sweep",
        dest="sweeps",
        action="append",
        default=[],
        metavar="FIELD=JSONLIST",
        help=(
            "sweep a config field over a JSON list of values "
            "(repeatable; fields combine as a Cartesian grid; "
            "single experiment only)"
        ),
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="fan experiments (or sweep points) out over N worker processes",
    )
    run.add_argument(
        "--out",
        default="results",
        help="directory for result JSON/CSV files (default: results/)",
    )
    run.add_argument(
        "--csv", action="store_true", help="also emit flattened CSV rows"
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache entirely",
    )
    run.add_argument(
        "--force",
        action="store_true",
        help="recompute even if a cached result exists",
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        help="cache location (default: $REPRO_CACHE_DIR or ./.repro-cache)",
    )
    run.add_argument(
        "--print-json",
        action="store_true",
        help="dump each result payload to stdout as JSON",
    )
    _add_resilience_flags(run)
    _add_service_flags(run)

    validate = sub.add_parser(
        "validate",
        help="run the paper-fidelity validation suite",
    )
    _add_preset_flags(
        validate,
        "validate at smoke scale (the default; seconds, CI-gated)",
        "validate the paper-sized preset (minutes, unpinned)",
    )
    validate.add_argument(
        "--experiment",
        dest="experiments",
        action="append",
        default=[],
        metavar="NAME",
        help="validate only the named experiment (repeatable)",
    )
    validate.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="fan replicate runs out over N worker processes",
    )
    validate.add_argument(
        "--out",
        default=".",
        help="directory for the VALIDATION_<preset>.json report (default: .)",
    )
    _add_cache_flags(
        validate, "recompute replicates even when cached results exist"
    )
    validate.add_argument(
        "--golden",
        default=None,
        metavar="PATH",
        help="golden record location (default: GOLDEN_<preset>.json in cwd)",
    )
    validate.add_argument(
        "--update-golden",
        action="store_true",
        help="rewrite the golden record from this run instead of checking drift",
    )

    for matrix in runner.MATRIX_SPECS.values():
        command = sub.add_parser(matrix.experiment, help=matrix.help)
        _add_preset_flags(command, matrix.smoke_help, matrix.full_help)
        command.add_argument(
            matrix.flag,
            dest=matrix.key,
            action="append",
            default=[],
            metavar="NAME",
            help=f"run only the named {matrix.one} (repeatable; default: all)",
        )
        command.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="FIELD=JSON",
            help=matrix.set_help,
        )
        command.add_argument(
            "--jobs",
            type=int,
            default=1,
            help=f"fan {matrix.many} out over N worker processes",
        )
        command.add_argument(
            "--out",
            default=".",
            help=(
                f"directory for the {matrix.prefix}_<preset>.json report "
                "(default: .)"
            ),
        )
        _add_cache_flags(command, "recompute even when cached results exist")
        _add_resilience_flags(command)
        _add_service_flags(command)

    chaos = sub.add_parser(
        "chaos",
        help="run the fault-injection harness and emit CHAOS_<label>.json",
    )
    _add_preset_flags(
        chaos,
        "harness at smoke scale (the default; seconds, CI-gated)",
        "harness at full scale (more cells, higher concurrency)",
    )
    chaos.add_argument(
        "--seed",
        type=int,
        default=7,
        help="chaos decision seed — same seed, same injected faults "
        "(default: 7)",
    )
    chaos.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the faulted sweep (default: preset's)",
    )
    for flag, kind in (
        ("--crash-rate", "worker crash (SIGKILL-equivalent os._exit)"),
        ("--stall-rate", "worker stall (hang past the attempt timeout)"),
        ("--flaky-rate", "transient in-worker exception"),
        ("--corrupt-rate", "cache-entry corruption at write time"),
    ):
        chaos.add_argument(
            flag,
            type=float,
            default=None,
            metavar="P",
            help=f"per-attempt probability of {kind} (default: preset's)",
        )
    chaos.add_argument(
        "--out",
        default=".",
        help="directory for the CHAOS_<label>.json record (default: .)",
    )
    chaos.add_argument(
        "--label",
        default=None,
        help="record label (default: the preset name)",
    )
    chaos.add_argument(
        "--keep-workdir",
        action="store_true",
        help="keep the harness's temp workdir (caches, journals) for "
        "inspection",
    )

    serve = sub.add_parser(
        "serve",
        help="run the long-running diagnosis job service (stdlib HTTP)",
    )
    serve.add_argument(
        "--root",
        default=".repro-service",
        help=(
            "service state directory: job journal plus per-namespace "
            "caches and result artifacts (default: .repro-service)"
        ),
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port; 0 picks an ephemeral port (default: 8765)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent jobs, one supervised worker process each "
        "(default: 2)",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=1,
        help="default attempts per job for specs that set none "
        "(default: 1)",
    )
    serve.add_argument(
        "--attempt-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-attempt kill deadline for specs that set none "
        "(default: no deadline)",
    )
    serve.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-request access logging",
    )
    serve.add_argument(
        "--ns-policy",
        dest="ns_policies",
        action="append",
        default=[],
        metavar="NS=JSON",
        help=(
            "fair-share policy for one namespace as a JSON object with "
            'any of "weight", "rate_limit", "burst", "max_inflight" '
            '(repeatable; e.g. team-a={"weight": 3, "max_inflight": 2}; '
            "a bare number is shorthand for the weight)"
        ),
    )
    serve.add_argument(
        "--aging",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help=(
            "priority-aging horizon: a queued job climbs one priority "
            "band per this many seconds waited, so batch work can never "
            "starve (default: 60)"
        ),
    )
    serve.add_argument(
        "--retain-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "GC done/cancelled jobs older than this many seconds "
            "(default: keep forever)"
        ),
    )
    serve.add_argument(
        "--retain-count",
        type=int,
        default=None,
        metavar="N",
        help=(
            "GC all but the newest N done/cancelled jobs per namespace "
            "(default: keep all)"
        ),
    )
    serve.add_argument(
        "--retain-failed",
        action="store_true",
        help="let GC prune failed jobs too (kept as evidence by default)",
    )
    serve.add_argument(
        "--retain-cache-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="GC per-namespace cache files older than this (default: keep)",
    )
    serve.add_argument(
        "--gc-interval",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="how often the retention GC pass runs (default: 300)",
    )

    gc = sub.add_parser(
        "gc",
        help="offline retention pass over a (stopped) service root",
    )
    gc.add_argument(
        "--root",
        default=".repro-service",
        help="service state directory to collect (default: .repro-service)",
    )
    gc.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="prune terminal jobs older than this many seconds",
    )
    gc.add_argument(
        "--max-count",
        type=int,
        default=None,
        metavar="N",
        help="keep only the newest N terminal jobs per namespace",
    )
    gc.add_argument(
        "--include-failed",
        action="store_true",
        help="prune failed jobs too (kept as evidence by default)",
    )
    gc.add_argument(
        "--cache-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="delete per-namespace cache files older than this",
    )
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be pruned without touching the disk",
    )
    return parser


def _cmd_list() -> int:
    rows = [
        [spec.name, spec.anchor, spec.title]
        for spec in registry.all_experiments()
    ]
    print(ascii_table(["name", "anchor", "title"], rows))
    print(
        "\nrun one with: python -m repro run <name> --smoke "
        "(see EXPERIMENTS.md for parameters)"
    )
    return 0


def _cmd_info(name: str) -> int:
    spec = registry.get_experiment(name)
    print(f"{spec.name} — {spec.anchor}: {spec.title}")
    if spec.config_type is None:
        print("no config parameters")
        return 0
    full = spec.config("full")
    smoke = spec.config("smoke")
    rows = []
    for f in dataclasses.fields(spec.config_type):
        full_v = getattr(full, f.name)
        smoke_v = getattr(smoke, f.name)
        rows.append([f.name, repr(full_v), repr(smoke_v)])
    print(ascii_table(["field", "full", "smoke"], rows))
    return 0


def _parse_overrides(pairs: list[str]) -> dict[str, Any] | None:
    if not pairs:
        return None
    overrides: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--set expects FIELD=JSON, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            overrides[key.strip()] = json.loads(raw)
        except json.JSONDecodeError:
            # A value that *looks* like JSON (list/dict/number/quoted
            # string) but fails to parse is a typo, not a bare word.
            if raw[:1] in set('[{"') or raw[:1].isdigit() or raw[:1] in "-+.":
                raise SystemExit(
                    f"--set {key.strip()}: invalid JSON value {raw!r}"
                )
            # Bare words are a convenience for string fields.
            overrides[key.strip()] = raw
    return overrides


def _parse_sweeps(pairs: list[str]) -> dict[str, list[Any]]:
    """Parse repeated ``--sweep FIELD=[v1,v2,...]`` options into a grid spec."""
    sweep: dict[str, list[Any]] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--sweep expects FIELD=JSONLIST, got {pair!r}")
        key, _, raw = pair.partition("=")
        key = key.strip()
        try:
            values = json.loads(raw)
        except json.JSONDecodeError:
            raise SystemExit(f"--sweep {key}: invalid JSON list {raw!r}")
        if not isinstance(values, list) or not values:
            raise SystemExit(
                f"--sweep {key}: expected a non-empty JSON list, got {raw!r}"
            )
        if key in sweep:
            raise SystemExit(f"--sweep {key}: field swept twice")
        sweep[key] = values
    return sweep


def _retry_policy(args: argparse.Namespace):
    """Build the sweep retry policy from the shared resilience flags."""
    from .exec.retry import RetryPolicy

    if args.retries <= 1 and args.attempt_timeout is None:
        return None
    return RetryPolicy(
        max_attempts=max(1, args.retries),
        base_delay=max(0.0, args.retry_delay),
        timeout=args.attempt_timeout,
    )


def _journal_arg(args: argparse.Namespace, default_stem: str) -> str | None:
    """Resolve --journal, deriving a default path when --resume needs one."""
    if args.journal is not None:
        return args.journal
    if args.resume:
        from pathlib import Path

        return str(Path(args.out) / f"{default_stem}.journal.jsonl")
    return None


def _report_degradation(result) -> None:
    """Print a degraded sweep's per-cell failures to stderr."""
    degradation = result.degradation()
    for failure in degradation["failures"]:
        point = ", ".join(f"{k}={v!r}" for k, v in failure["point"].items())
        last = failure["attempts"][-1] if failure["attempts"] else None
        detail = (
            f": {last['error_type']}: {last['message']}" if last else ""
        )
        print(
            f"failed cell [{point}] ({failure['status']} after "
            f"{len(failure['attempts'])} attempt(s)){detail}",
            file=sys.stderr,
        )
    print(
        f"degraded sweep: {degradation['n_completed']}"
        f"/{degradation['n_points']} cells completed "
        f"({degradation['completeness']:.0%})",
        file=sys.stderr,
    )


@contextlib.contextmanager
def _cli_errors(
    kinds: tuple[type[Exception], ...] = (KeyError, ValueError, TypeError),
):
    """Turn a bad request into a one-line ``error:`` exit, not a traceback.

    ``kinds`` are the exception types that mean "bad request" (unknown
    names, bad overrides); a degraded sweep also lists its failed cells
    on stderr first.
    """
    try:
        yield
    except runner.SweepDegradedError as exc:
        _report_degradation(exc.result)
        raise SystemExit(f"error: {exc}") from exc
    except kinds as exc:
        message = exc.args[0] if exc.args else str(exc)
        raise SystemExit(f"error: {message}") from exc


def _emit_record(
    record, args: argparse.Namespace, preset: str, suffix: str | None = None
) -> None:
    """Write one record's files and print its one-block summary."""
    json_path = runner.write_json(record, args.out, suffix=suffix)
    outputs = [str(json_path)]
    if args.csv:
        outputs.append(str(runner.write_csv(record, args.out, suffix=suffix)))
    source = "cache" if record.cache_hit else f"{record.elapsed_seconds:.2f}s"
    print(f"[{record.name}] {record.anchor} ({preset}, {source})")
    print(f"  {record.summary}")
    print(f"  -> {', '.join(outputs)}")
    if args.print_json:
        print(json.dumps(record.payload, indent=2, sort_keys=True))


def _cmd_via_service(
    args: argparse.Namespace, kind: str, payload: dict[str, Any]
) -> int:
    """Route one sweep-shaped command through a running service.

    Submits the job, blocks until it is terminal, and prints where the
    (server-side) result artifact landed.  Exit 0 only on ``done``.
    """
    from .service.client import HttpServiceClient, ServiceError

    client = HttpServiceClient(args.service)
    try:
        job_id = client.submit(
            kind=kind,
            payload=payload,
            namespace=args.namespace,
            priority=args.priority,
            timeout=args.attempt_timeout,
            max_attempts=max(1, args.retries),
        )
        print(f"submitted {kind} job {job_id} to {args.service} "
              f"(namespace {args.namespace}, priority {args.priority})")
        state = client.wait(job_id)
        status = client.status(job_id)
    except ServiceError as exc:
        raise SystemExit(f"error: {exc}") from exc
    except KeyboardInterrupt:
        print(
            f"\ninterrupted; job keeps running server-side — poll with "
            f"GET {args.service}/v1/jobs/{job_id}",
            file=sys.stderr,
        )
        return 130
    print(
        f"job {job_id} {state} after {status['n_attempts']} attempt(s)"
        + (
            f" -> {status['result_path']} (server-side)"
            if status["result_path"]
            else ""
        )
    )
    if state == "done" and kind == "experiment":
        try:
            summary = client.result(job_id)["result"].get("summary")
            if summary:
                print(f"  {summary}")
        except ServiceError:
            pass
    return 0 if state == "done" else 1


def _parse_ns_policies(pairs: list[str]):
    """Parse repeated ``--ns-policy NS=JSON`` options into policies."""
    from .service.scheduler import NamespacePolicy

    policies = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--ns-policy expects NS=JSON, got {pair!r}")
        name, _, raw = pair.partition("=")
        name = name.strip()
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            raise SystemExit(f"--ns-policy {name}: invalid JSON value {raw!r}")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            value = {"weight": float(value)}
        if not isinstance(value, dict):
            raise SystemExit(
                f"--ns-policy {name}: expected a JSON object or number, "
                f"got {raw!r}"
            )
        known = {"weight", "rate_limit", "burst", "max_inflight"}
        unknown = set(value) - known
        if unknown:
            raise SystemExit(
                f"--ns-policy {name}: unknown field(s) {sorted(unknown)} "
                f"(expected any of {sorted(known)})"
            )
        try:
            policies[name] = NamespacePolicy(**value)
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"--ns-policy {name}: {exc}") from exc
    return policies


def _retention_policy(args: argparse.Namespace):
    """Build the serve retention policy from the --retain-* flags."""
    from .service.retention import DEFAULT_PRUNABLE_STATES, RetentionPolicy

    if (
        args.retain_age is None
        and args.retain_count is None
        and args.retain_cache_age is None
    ):
        return None
    states = DEFAULT_PRUNABLE_STATES + (
        ("failed",) if args.retain_failed else ()
    )
    return RetentionPolicy(
        max_age_seconds=args.retain_age,
        max_per_namespace=args.retain_count,
        states=states,
        cache_max_age_seconds=args.retain_cache_age,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.http import serve_forever

    try:
        return serve_forever(
            args.root,
            host=args.host,
            port=args.port,
            workers=args.workers,
            default_timeout=args.attempt_timeout,
            default_max_attempts=max(1, args.retries),
            policies=_parse_ns_policies(args.ns_policies),
            aging_seconds=args.aging,
            retention=_retention_policy(args),
            gc_interval=args.gc_interval,
            log=not args.quiet,
        )
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from exc


def _cmd_gc(args: argparse.Namespace) -> int:
    """Offline retention pass (``python -m repro gc``)."""
    from .service.retention import (
        DEFAULT_PRUNABLE_STATES,
        RetentionPolicy,
        run_gc,
    )

    states = DEFAULT_PRUNABLE_STATES + (
        ("failed",) if args.include_failed else ()
    )
    try:
        policy = RetentionPolicy(
            max_age_seconds=args.max_age,
            max_per_namespace=args.max_count,
            states=states,
            cache_max_age_seconds=args.cache_age,
        )
        if not policy.enabled:
            raise SystemExit(
                "error: nothing to do — set at least one of --max-age, "
                "--max-count or --cache-age"
            )
        report = run_gc(args.root, policy, dry_run=args.dry_run)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    names = list(args.names)
    if names == ["all"]:
        names = registry.experiment_names()
    preset = "full" if args.full else "smoke"
    overrides = _parse_overrides(args.overrides)
    if overrides and len(names) != 1:
        raise SystemExit("--set applies to a single experiment only")
    sweep = _parse_sweeps(args.sweeps)
    if args.service:
        if len(names) != 1 or sweep:
            raise SystemExit(
                "error: --service routes a single experiment "
                "(no --sweep; submit sweep points as separate jobs)"
            )
        return _cmd_via_service(
            args,
            "experiment",
            {
                "name": names[0],
                "preset": preset,
                "overrides": overrides,
                "use_cache": not args.no_cache,
                "force": args.force,
            },
        )
    resilient = (
        args.retries > 1
        or args.attempt_timeout is not None
        or args.journal is not None
        or args.resume
        or args.min_complete < 1.0
    )
    if sweep:
        if len(names) != 1:
            raise SystemExit("--sweep applies to a single experiment only")
        with _cli_errors():
            results = runner.run_sweep(
                names[0],
                sweep,
                preset=preset,
                base_overrides=overrides,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                use_cache=not args.no_cache,
                force=args.force,
                retry=_retry_policy(args),
                journal=_journal_arg(args, f"{names[0]}-{preset}"),
                resume=args.resume,
            )
        for point, record in results:
            print(
                "sweep point: "
                + ", ".join(f"{k}={v!r}" for k, v in point.items())
            )
            _emit_record(record, args, preset, suffix=record.config_digest)
        if not results.complete:
            _report_degradation(results)
            if not len(results) or results.completeness < args.min_complete:
                raise SystemExit(
                    f"error: sweep completeness {results.completeness:.0%} "
                    f"below --min-complete {args.min_complete:.0%}"
                )
        return 0
    if resilient:
        raise SystemExit(
            "error: --retries/--attempt-timeout/--journal/--resume/"
            "--min-complete apply to --sweep runs only"
        )
    with _cli_errors():
        records = runner.run_many(
            names,
            preset=preset,
            overrides=overrides,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            force=args.force,
        )
    for record in records:
        _emit_record(record, args, preset)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """Run the validation suite, print the check table, emit the report."""
    from .validation import cli as validation_cli

    preset = "full" if args.full else "smoke"
    with _cli_errors():
        report = validation_cli.run_validation(
            preset,
            experiments=args.experiments or None,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            force=args.force,
            golden_path=args.golden,
            update_golden=args.update_golden,
        )
    rows = []
    for name, checks in report.checks_by_experiment.items():
        for c in checks:
            status = "PASS" if c.passed else ("FAIL" if c.hard else "warn")
            rows.append([name, c.check_id, status, c.observed, c.target])
    print(
        ascii_table(
            ["experiment", "check", "status", "observed", "target"],
            rows,
            title=f"paper-fidelity validation ({preset})",
        )
    )
    for finding in report.drift_findings:
        print(f"golden drift: {finding.check_id}: {finding.message}")
    if report.golden_updated:
        print(f"golden record updated -> {report.golden_path}")
    elif report.golden_path is None:
        print("no golden record for this preset (drift check skipped)")
    path = validation_cli.write_report(report, args.out)
    hard = [c for c in report.checks if c.hard]
    print(
        f"\n{sum(c.passed for c in hard)}/{len(hard)} hard checks passed "
        f"({report.elapsed_seconds:.1f}s) -> {path}"
    )
    return 0 if report.passed else 1


def _print_checks(checks: list[dict[str, Any]]) -> bool:
    """Print a report's embedded checks; True when a hard check failed."""
    for check in checks:
        status = "PASS" if check["passed"] else "FAIL"
        grade = "hard" if check["hard"] else "soft"
        print(f"[{status}] ({grade}) {check['check_id']}: {check['observed']}")
    return any(check["hard"] and not check["passed"] for check in checks)


def _or_dash(value: float | None, spec: str) -> str:
    """Format a measured value, or ``-`` when it was never measured."""
    return "-" if value is None else format(value, spec)


def _render_scenarios(payload: dict[str, Any], preset: str, served: str) -> str:
    """Print the scenario-matrix cell table; return the summary line."""
    rows = []
    for cell in payload["cells"]:
        detection = {e: (s, t) for e, s, t in cell["detection"]}
        for engine in cell["engines"]:
            s, t = detection.get(engine, (0, 0))
            rows.append(
                [
                    cell["scenario"],
                    cell["n_qubits"],
                    engine,
                    "xx+dense" if cell["xx_preserving"] else "dense-only",
                    f"{s}/{t}" if t else "-",
                    (
                        f"{cell['identification_successes']}"
                        f"/{cell['identification_trials']}"
                    ),
                ]
            )
    print(
        ascii_table(
            ["scenario", "N", "engine", "routing", "detected", "identified"],
            rows,
            title=f"fault-scenario matrix ({preset})",
        )
    )
    anchor = payload["anchor"]
    if anchor["largest_resolved_2ms"] is not None:
        print(
            "fig6 anchor (Sec. VI noise, paper thresholds): 47% fault "
            f"resolved 2-MS {anchor['largest_resolved_2ms']}, "
            f"4-MS {anchor['largest_resolved_4ms']}"
        )
    return (
        f"{len(payload['cells'])} cells across "
        f"{len(payload['kinds'])} scenario kinds "
        f"({served} kind jobs cache-served)"
    )


def _print_leaderboard(
    entries: list[dict[str, Any]], columns: tuple, title: str
) -> None:
    """Print leaderboard ``entries`` as a table of ``(header, cell)`` columns."""
    print(
        ascii_table(
            [header for header, _ in columns],
            [[cell(entry) for _, cell in columns] for entry in entries],
            title=title,
        )
    )


#: The arena leaderboard table: header and cell formatter per column.
_ARENA_COLUMNS = (
    ("rank", lambda e: e["rank"]),
    ("diagnoser", lambda e: e["diagnoser"]),
    (
        "detected",
        lambda e: (
            f"{e['detections']}/{e['fault_trials']}" if e["fault_trials"] else "-"
        ),
    ),
    ("ci-lower", lambda e: _or_dash(e["detection_ci_lower"], ".2f")),
    ("false-alarm", lambda e: _or_dash(e["false_alarm_rate"], ".2f")),
    ("precision", lambda e: _or_dash(e["mean_precision"], ".2f")),
    ("shots", lambda e: f"{e['mean_shots']:.0f}"),
    ("adapt", lambda e: f"{e['mean_adaptations']:.1f}"),
    ("timeouts", lambda e: e["timeouts"]),
)

#: The fleet policy table: header and cell formatter per column.
_FLEET_COLUMNS = (
    ("rank", lambda e: e["rank"]),
    ("policy", lambda e: e["policy"]),
    ("uptime", lambda e: f"{e['uptime']:.3f}"),
    ("jobs/h", lambda e: f"{e['good_jobs_per_hour']:.1f}"),
    ("corrupted", lambda e: f"{e['corrupted_job_rate']:.3f}"),
    ("mttr-s", lambda e: _or_dash(e["mttr_seconds"], ".0f")),
    ("repaired", lambda e: e["faults_repaired"]),
    ("quarantined", lambda e: e["faults_quarantined"]),
    ("stalls", lambda e: e["stalls"]),
)


def _render_arena(payload: dict[str, Any], preset: str, served: str) -> str:
    """Print the arena leaderboard and shot-cost crossover; return a summary."""
    _print_leaderboard(
        payload["leaderboard"], _ARENA_COLUMNS, f"diagnoser arena ({preset})"
    )
    crossover = payload["crossover"]
    for row in crossover["per_n"]:
        ratio = row["shot_ratio"]
        print(
            f"N={row['n_qubits']}: battery {row['battery_shots']:.0f} shots "
            f"vs binary-search {row['binary_search_shots']:.0f} "
            f"(ratio {ratio:.2f})" if ratio is not None else
            f"N={row['n_qubits']}: battery {row['battery_shots']:.0f} shots, "
            "binary-search unmeasured"
        )
    print(
        "shot-cost crossover: "
        + (
            f"battery cheaper from N={crossover['crossover_n']}"
            if crossover["crossover_n"] is not None
            else "not reached in the measured range"
        )
    )
    return (
        f"{len(payload['cells'])} cells across "
        f"{len(payload['kinds'])} scenario kinds, "
        f"{len(payload['diagnosers'])} diagnosers "
        f"({served} kind jobs cache-served)"
    )


def _render_fleet(payload: dict[str, Any], preset: str, served: str) -> str:
    """Print the fleet policy table and duty cycles; return the summary line."""
    _print_leaderboard(
        payload["leaderboard"],
        _FLEET_COLUMNS,
        f"fleet maintenance policies ({preset})",
    )
    for cell in payload["cells"]:
        duty = cell["duty_cycle"]
        states = cell["final_states"]
        print(
            f"{cell['policy']}: duty jobs {duty['jobs']:.2f} / tests "
            f"{duty['coupling_tests']:.2f} / other "
            f"{duty['other_calibration']:.2f}; final states "
            f"{states['healthy']}H/{states['under-repair']}R/"
            f"{states['quarantined-degraded']}Q"
        )
    return (
        f"{len(payload['cells'])} policy cells "
        f"({served} policy jobs cache-served)"
    )


#: Table renderer per matrix front door (see ``runner.MATRIX_SPECS``).
_MATRIX_RENDERERS = {
    "scenarios": _render_scenarios,
    "arena": _render_arena,
    "fleet": _render_fleet,
}


def _cmd_matrix(args: argparse.Namespace) -> int:
    """Run one matrix front door, print its tables and checks, emit the report.

    Exits 1 when any embedded hard check fails — the verdict is part of
    the artifact, not just the JSON.
    """
    matrix = runner.MATRIX_SPECS[args.command]
    preset = "full" if args.full else "smoke"
    overrides = _parse_overrides(args.overrides)
    values = getattr(args, matrix.key) or None
    if args.service:
        return _cmd_via_service(
            args,
            matrix.experiment,
            {
                "preset": preset,
                matrix.key: values,
                "overrides": overrides,
                "use_cache": not args.no_cache,
                "force": args.force,
            },
        )
    with _cli_errors():
        payload, records = runner.run_matrix(
            matrix.experiment,
            preset,
            values=values,
            overrides=overrides,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            force=args.force,
            retry=_retry_policy(args),
            journal=_journal_arg(args, f"{matrix.experiment}-{preset}"),
            resume=args.resume,
            min_complete=args.min_complete,
        )
    served = f"{sum(r.cache_hit for r in records)}/{len(records)}"
    summary = _MATRIX_RENDERERS[matrix.experiment](payload, preset, served)
    failed_hard = _print_checks(payload.get("checks", []))
    path = runner.write_labelled_json(
        payload, args.out, matrix.prefix, matrix.validate
    )
    print(f"\n{summary} -> {path}")
    return 1 if failed_hard else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the fault-injection harness, print the verdicts, emit the record.

    Exits 1 when any embedded hard check fails — surviving injected
    faults is the artifact, not just the JSON.
    """
    from .exec.report import run_chaos

    preset = "full" if args.full else "smoke"
    with _cli_errors():
        payload, path = run_chaos(
            preset=preset,
            out_dir=args.out,
            seed=args.seed,
            label=args.label,
            jobs=args.jobs,
            crash_rate=args.crash_rate,
            stall_rate=args.stall_rate,
            flaky_rate=args.flaky_rate,
            corrupt_rate=args.corrupt_rate,
            keep_workdir=args.keep_workdir,
        )
    rows = [
        [
            cell["key"].split(":", 1)[-1],
            cell["status"],
            cell["n_attempts"],
            ",".join(kind or "-" for kind in cell["injected"]) or "-",
            "yes" if cell.get("fingerprint_match") else "NO",
        ]
        for cell in payload["cells"]
    ]
    print(
        ascii_table(
            ["cell", "status", "attempts", "injected", "matches baseline"],
            rows,
            title=(
                f"chaos harness ({preset}, seed {payload['chaos']['seed']}): "
                f"{payload['experiment']} sweep under "
                f"crash={payload['chaos']['crash_rate']:.2f} "
                f"stall={payload['chaos']['stall_rate']:.2f} "
                f"flaky={payload['chaos']['flaky_rate']:.2f} "
                f"corrupt={payload['chaos']['corrupt_rate']:.2f}"
            ),
        )
    )
    resume = payload["resume"]
    print(
        f"resume drill: {resume['finished_before']} cells journaled before "
        f"kill -9, {resume['resumed']} resumed from cache, "
        f"{resume['dispatched']}/{resume['n_points']} dispatched, "
        f"complete={resume['complete']}"
    )
    failed_hard = _print_checks(payload["checks"])
    print(
        f"\ninjected {json.dumps(payload['injected'])} + "
        f"{len(payload['corruption']['predicted'])} corrupted cache "
        f"entr{'y' if len(payload['corruption']['predicted']) == 1 else 'ies'} "
        f"({payload['elapsed_seconds']:.1f}s) -> {path}"
    )
    return 1 if failed_hard else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "info":
        return _cmd_info(args.name)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command in runner.MATRIX_SPECS:
        return _cmd_matrix(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "gc":
        return _cmd_gc(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
