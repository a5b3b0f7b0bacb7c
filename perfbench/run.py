"""End-to-end benchmark of the diagnosis stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload diagnose-adaptive --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
op list untraced and then traced, and prints the per-layer metrics.
``--workload all`` runs every workload, each in a fresh process.  The
last line of output is one JSON object; the process exits non-zero when
any op's output is invalid.  See README.md in this directory.
"""

from __future__ import annotations

import os
import sys

# Single-threaded BLAS and fixed hashing, identical for every run: set
# before the interpreter (and numpy) starts, by re-executing once.
_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in _ENV.items()):
    os.environ.update(_ENV)
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])

import time  # noqa: E402

STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "ok_rate": "ratio",
    "isolation_rate": "ratio",
    "shots_per_op": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.build_ms": "ms",
    "core.build_calls": "count",
    "trap.run_match_calls": "count",
    "trap.run_match_self_ms": "ms",
    "trap.battery_calls": "count",
    "noise.realize_ms": "ms",
    "xx.kernel_ms": "ms",
    "xx.plan_builds": "count",
    "dense.kernel_ms": "ms",
    "dense.lookup_ms": "ms",
    "dense.plan_builds": "count",
    "dense.plan_hits": "count",
    "dense.plan_rebinds": "count",
    "sampling.ms": "ms",
    "arena.tests_per_op": "count",
    "arena.adaptations": "count",
    "calibrate.ms": "ms",
    "calibrate.calls": "count",
    "exec.supervised_ms": "ms",
    "exec.worker_job_ms": "ms",
    "exec.overhead_ms": "ms",
    "service.job_setup_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.journal_ms": "ms",
    "service.result_read_ms": "ms",
    "http.submit_ms": "ms",
    "http.result_ms": "ms",
    "http.health_ms": "ms",
    "trace.overhead_pct": "%",
    "host.ref_ms_before": "ms",
    "host.ref_ms_after": "ms",
}

#: Ops rerun after the timed phase to check that outputs reproduce exactly.
REPLAY_SAMPLE = 6
#: Set-ups per run (this process plus fresh ones); setup_s is their median.
SETUP_SAMPLES = 3


def host_ref_ms(repeats: int = 5) -> float:
    """Median time of a fixed numpy+Python loop (a host-speed diagnostic)."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 512)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0.0
        for i in range(4000):
            acc += float(np.dot(x, x)) + i
        times.append(1000.0 * (time.perf_counter() - start))
    return statistics.median(times)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) of ``values``."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(records, busy_s: float, setup_s: float) -> dict[str, float]:
    """The user-visible metrics of one timed op list."""
    latencies = [r.latency_s * 1000.0 for r in records]
    failed = sum(1 for r in records if r.error)
    graded = [r for r in records if r.graded]
    shots = sum((r.output or {}).get("shots", 0) for r in records)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(records) / busy_s,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p95_ms": percentile(latencies, 95),
        "ok_rate": 1.0 - failed / len(records),
        "isolation_rate": sum(r.correct for r in graded) / max(1, len(graded)),
        "shots_per_op": shots / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(records, spans, setup_spans, marks, worker_files) -> dict[str, float]:
    """Per-op means of the traced pass (``calibrate.*`` cover the whole run)."""
    n = len(records)

    def row(name, source=spans):
        return source.get(name, [0, 0.0, 0.0])

    def ms(name):
        return 1000.0 * row(name)[1] / n

    def calls(name):
        return row(name)[0] / n

    calibrate = [a + b for a, b in zip(row("calibrate", setup_spans), row("calibrate"))]
    worker_s, job_setup_s, queue_s = 0.0, 0.0, 0.0
    for record in records:
        worker = worker_files.get(record.job_id)
        if worker is not None:
            worker_s += worker["worker_job_s"]
            payload_s = (record.output or {}).get("wall_seconds", 0.0)
            job_setup_s += worker["worker_job_s"] - payload_s
        running = marks.get((record.job_id, "running"))
        if running is not None:
            queue_s += running - marks[record.job_id, "submitted"]
    outputs = [r.output or {} for r in records]
    return {
        "core.build_ms": ms("core.build"),
        "core.build_calls": calls("core.build"),
        "trap.run_match_calls": calls("trap.run_match"),
        "trap.run_match_self_ms": 1000.0 * row("trap.run_match")[2] / n,
        "trap.battery_calls": calls("trap.battery"),
        "noise.realize_ms": ms("noise.realize"),
        "xx.kernel_ms": ms("xx.kernel"),
        "xx.plan_builds": calls("xx.plan_build"),
        "dense.kernel_ms": ms("dense.kernel"),
        "dense.lookup_ms": ms("dense.lookup"),
        "dense.plan_builds": calls("dense.plan_builds"),
        "dense.plan_hits": calls("dense.plan_hits"),
        "dense.plan_rebinds": calls("dense.plan_rebinds"),
        "sampling.ms": ms("sampling"),
        "arena.tests_per_op": sum(o.get("tests_used", 0) for o in outputs) / n,
        "arena.adaptations": sum(o.get("adaptations", 0) for o in outputs) / n,
        "calibrate.ms": 1000.0 * calibrate[1] / max(1, calibrate[0]),
        "calibrate.calls": calibrate[0],
        "exec.supervised_ms": ms("exec.supervised"),
        "exec.worker_job_ms": 1000.0 * worker_s / n,
        "exec.overhead_ms": ms("exec.supervised") - 1000.0 * worker_s / n,
        "service.job_setup_ms": 1000.0 * job_setup_s / n,
        "service.queue_wait_ms": 1000.0 * queue_s / n,
        "service.journal_ms": ms("service.journal"),
        "service.result_read_ms": ms("service.result_read"),
        "http.submit_ms": ms("http.submit"),
        "http.result_ms": ms("http.result"),
        "http.health_ms": ms("http.health"),
    }


def fastest(passes):
    """Per-op records with each op's fastest time over the passes.

    Every pass ran the same ops, so their outputs must agree exactly; a
    disagreement marks the op as failed.
    """
    from workloads import replay_mismatch

    merged = []
    for runs in zip(*passes):
        first = runs[0]
        best = dataclasses.replace(first, latency_s=min(r.latency_s for r in runs))
        for other in runs[1:]:
            if best.error:
                break
            if other.error:
                best.error = other.error
            elif first.output is not None:
                why = replay_mismatch(first.output, other.output)
                best.error = f"passes disagree on {why}" if why else ""
        merged.append(best)
    return merged


def replay_failures(workload, records, seed: int) -> list[str]:
    """Rerun a seeded sample of ops; every output must reproduce exactly."""
    from workloads import replay_mismatch

    candidates = [r for r in records if r.output is not None and r.op.kind != "sleep"]
    sample = random.Random(f"replay:{seed}").sample(
        candidates, min(REPLAY_SAMPLE, len(candidates))
    )
    problems = []
    for first, second in zip(sample, workload.replay(sample)):
        why = second.error or replay_mismatch(first.output, second.output)
        if why:
            problems.append(f"replay of {first.op}: {why}")
    return problems


def fresh_setup_s(args) -> float:
    """Set-up time of a fresh process running this workload's set-up only."""
    done = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--setup-only",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed: {done.stderr.strip()[-400:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    from layers import Recorder, Tracer
    from workloads import WORKLOADS

    # The host probe is the benchmark's own work: keep it out of setup_s.
    probe_start = time.perf_counter()
    host_before = None if args.setup_only else host_ref_ms()
    probe_s = time.perf_counter() - probe_start
    workload = WORKLOADS[args.workload]()
    workload.load()
    recorder = Recorder()
    tracer = Tracer(recorder)
    workdir = ROOT / f".perfbench-work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tracer.install()
        workload.setup(workdir)
        warmup = workload.run(workload.warmup_ops(args.seed))
        setup_spans = recorder.snapshot()
        tracer.uninstall()
        recorder.reset()
        if args.workload == "service-mixed" and "repro.analysis.experiments" in sys.modules:
            raise RuntimeError("the service parent loaded repro.analysis.experiments")
        setup_s = time.perf_counter() - STARTED - probe_s
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        ops = workload.ops(args.seed, args.seconds)
        passes, walls = [], []
        for index in range(1 if args.trace else workload.passes):
            # Later passes reorder the ops, so that an op's repeats fall at
            # unrelated moments of the host's slow and fast periods.
            order = list(range(len(ops)))
            if index:
                random.Random(f"pass:{args.seed}:{index}").shuffle(order)
            start = time.perf_counter()
            ran = workload.run([ops[i] for i in order])
            walls.append(time.perf_counter() - start)
            records = [None] * len(ran)
            for i, record in zip(order, ran):
                records[i] = record
            passes.append(records)
        detail = {"workload": args.workload, "seed": args.seed, "ops": len(ops), "pass_wall_s": walls}
        if args.trace:
            tracer.install()
            if args.workload == "service-mixed":
                tracer.trace_service_workers(workdir / "trace")
            start = time.perf_counter()
            traced = workload.run(ops, recorder)
            traced_wall_s = time.perf_counter() - start
            tracer.uninstall()
            worker_files = {
                path.stem: json.loads(path.read_text())
                for path in (workdir / "trace").glob("*.json")
            }
            for worker in worker_files.values():
                recorder.merge(worker["spans"])
        # Grading loads the experiment modules, so it waits for the timed phase.
        problems = []
        for records in passes + ([traced] if args.trace else []):
            workload.finish(records)
            if len(records) != len(ops):
                problems.append(f"{len(ops) - len(records)} ops never completed")
        workload.finish(warmup)
        records = fastest(passes + ([traced] if args.trace else []))
        problems += [f"{r.op}: {r.error}" for r in warmup + records if r.error]
        if hasattr(workload, "replay"):
            problems += replay_failures(workload, records, args.seed)
        if args.trace:
            metrics = per_layer(traced, recorder.snapshot(), setup_spans, recorder.marks, worker_files)
            metrics["trace.overhead_pct"] = 100.0 * (traced_wall_s / walls[0] - 1.0)
            detail["end_to_end"] = end_to_end(passes[0], walls[0], setup_s)
        else:
            # A closed loop of one client is busy for the sum of its
            # latencies; overlapping jobs are timed on the wall clock.
            if workload.overlapping:
                busy_s = min(walls)
            else:
                busy_s = sum(r.latency_s for r in records)
            setups = [setup_s] + [fresh_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
            detail["setup_samples_s"] = setups
            metrics = end_to_end(records, busy_s, statistics.median(setups))
    finally:
        workload.close()
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics["host.ref_ms_before"] = host_before
    metrics["host.ref_ms_after"] = host_ref_ms()
    detail["host_ref_ms"] = [metrics["host.ref_ms_before"], metrics["host.ref_ms_after"]]
    units = PER_LAYER if args.trace else END_TO_END
    for problem in problems[:20]:
        print(f"perfbench-error {problem}", file=sys.stderr)
    print("perfbench-detail " + json.dumps(detail))
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload in its own fresh process; exits non-zero if any fails."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
        if result is None:
            print(f"{name}: failed (exit {done.returncode})")
            status = 1
            continue
        status = status or done.returncode
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:24s} {value['value']:14.4f} {value['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: all, {', '.join(WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
