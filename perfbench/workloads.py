"""The benchmark's three workloads: fixed, seeded op lists and their checks.

Every workload turns ``(seed, seconds)`` into a fixed list of operations
before anything is timed.  The list is cut from successive *rounds*; a
round is the workload's full cross product (strategies x scenario kinds x
sizes x trials), shuffled, with machine seeds drawn for that round.  Its
length depends only on ``seconds`` (through a nominal rate), never on how
fast the host is, so the same arguments always give the same operations
and the same counts.

An op's output is a plain dict in the shape of a ``diagnose`` job's
``repro-service-diagnosis/v1`` result, so the three workloads share one
validity check, one grader and one replay comparison.
"""

from __future__ import annotations

import importlib
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Any

#: Minimum ops per pass, so that >= 10 latency samples lie beyond p95.
MIN_OPS = 200

#: The Sec. VI error model the compiled battery runs under (dense path).
SEC6_PHASE_NOISE_RMS = 0.05
SEC6_RESIDUAL_ODD_POPULATION = 0.01

#: Scenario trials per cell; drifting-magnitude's trial 0 grades clean.
TRIALS = (0, 3)

DIAGNOSIS_KEYS = {
    "schema",
    "scenario",
    "n_qubits",
    "trial",
    "diagnoser",
    "detected",
    "claimed",
    "ambiguity_group",
    "tests_used",
    "shots",
    "adaptations",
    "timed_out",
    "wall_seconds",
    "ground_truth",
}

#: Output fields two runs of the same op must agree on exactly.
REPLAY_KEYS = ("detected", "claimed", "ambiguity_group", "tests_used", "shots", "adaptations")


@dataclass(frozen=True)
class Op:
    """One operation: a diagnosis of one seeded machine, or a no-op job.

    ``trial`` is ``None`` for a fault-free machine in the cell's noise
    environment; ``seed`` is the arena config seed the machine is built
    from; ``tenant`` and ``priority`` are used by the service only.
    """

    kind: str
    n_qubits: int
    diagnoser: str
    trial: int | None
    seed: int
    tenant: str = ""
    priority: str = "normal"


@dataclass
class Record:
    """What happened to one op: its latency and output, or its error."""

    op: Op
    latency_s: float
    output: dict[str, Any] | None = None
    error: str = ""
    job_id: str = ""
    graded: bool = False
    correct: bool = False


def op_count(seconds: float, rate: float, passes: int) -> int:
    """Ops per pass so that all passes take about ``seconds``; at least ``MIN_OPS``."""
    return max(MIN_OPS, round(seconds * rate / passes))


def take_rounds(count: int, make_round, seed: str) -> list[Op]:
    """The first ``count`` ops of rounds ``make_round(index, machine_seed)``,
    in an order drawn from ``seed``.

    Round 0 builds its machines from the arena's own seed (11), later
    rounds from seeds spaced far apart.  The workload seed only orders
    the ops, so every seed diagnoses the same machines: the counts are
    identical across seeds and the timing spread is the host's alone.
    """
    ops: list[Op] = []
    index = 0
    while len(ops) < count:
        ops.extend(make_round(index, 11 + 100_003 * index))
        index += 1
    ops = ops[:count]
    random.Random(seed).shuffle(ops)
    return ops


def arena_config():
    """The arena's smoke config (150 shots, 20 s/30 s budgets)."""
    from repro.analysis.registry import get_experiment

    return get_experiment("arena").config("smoke", None)


def diagnosis_output(diagnosis, kind: str, n_qubits: int, trial: int | None) -> dict[str, Any]:
    """A :class:`~repro.arena.Diagnosis` in the service result's shape."""
    return {
        "schema": "repro-service-diagnosis/v1",
        "scenario": kind,
        "n_qubits": n_qubits,
        "trial": trial,
        "diagnoser": diagnosis.diagnoser,
        "detected": diagnosis.detected,
        "claimed": [list(p) for p in diagnosis.claimed_sorted()],
        "ambiguity_group": sorted(sorted(p) for p in diagnosis.ambiguity_group),
        "tests_used": diagnosis.tests_used,
        "shots": diagnosis.shots,
        "adaptations": diagnosis.adaptations,
        "timed_out": diagnosis.timed_out,
    }


def check_diagnosis(output: dict[str, Any], op: Op) -> str:
    """Why a diagnosis output is invalid, or ``""`` when it is valid."""
    if output.get("schema") != "repro-service-diagnosis/v1":
        return f"schema {output.get('schema')!r}"
    if output["scenario"] != op.kind or output["n_qubits"] != op.n_qubits:
        return "output names another cell"
    if output["diagnoser"] != op.diagnoser or output["trial"] != op.trial:
        return "output names another diagnoser or trial"
    if output["timed_out"]:
        return "diagnosis timed out"
    n = op.n_qubits
    pairs = [tuple(p) for p in output["claimed"]] + [
        tuple(p) for p in output["ambiguity_group"]
    ]
    if any(len(p) != 2 or not 0 <= p[0] < p[1] < n for p in pairs):
        return "a claimed coupling is not a coupling of the machine"
    claimed = {tuple(p) for p in output["claimed"]}
    group = {tuple(p) for p in output["ambiguity_group"]}
    if not claimed <= group:
        return "a claim lies outside the ambiguity group"
    if bool(output["detected"]) != bool(group):
        return "detection disagrees with the ambiguity group"
    for key in ("tests_used", "shots", "adaptations"):
        if not isinstance(output[key], int) or output[key] < 0:
            return f"{key} is not a count"
    if output["tests_used"] < 1 or output["shots"] < output["tests_used"]:
        return "no circuits were run"
    return ""


def grade(record: Record, spec, cfg) -> None:
    """Isolation grade of one diagnosis, as in :mod:`repro.arena.scoring`.

    A fault trial is correct when the fault is detected and the worst
    true fault lies in the ambiguity group; a clean trial when nothing
    is detected.  Ambiguous-band trials stay ungraded.
    """
    from repro.arena.diagnosers import Diagnosis
    from repro.arena.scoring import CLEAN, FAULT, grade_trial, score_trial

    out = record.output
    diagnosis = Diagnosis(
        diagnoser=out["diagnoser"],
        detected=out["detected"],
        claimed=tuple(frozenset(p) for p in out["claimed"]),
        ambiguity_group=frozenset(frozenset(p) for p in out["ambiguity_group"]),
    )
    trial = record.op.trial
    if trial is None:
        truth_kind, truth = CLEAN, []
    else:
        truth_kind = grade_trial(spec.top_severity(trial), cfg.detect_floor, cfg.ambiguity)
        truth = spec.ground_truth(trial, floor=cfg.detect_floor * (1.0 + cfg.ambiguity))
    score = score_trial(diagnosis, truth, truth_kind)
    record.graded = score.correct is not None
    record.correct = bool(score.correct) and (truth_kind != FAULT or bool(score.covered))


def replay_mismatch(first: dict[str, Any], second: dict[str, Any]) -> str:
    """The first field two outputs of one op disagree on, or ``""``.

    Outputs without diagnosis fields (a ``sleep`` job's) agree trivially.
    """
    for key in REPLAY_KEYS:
        if first.get(key) != second.get(key):
            return f"{key}: {first.get(key)!r} then {second.get(key)!r}"
    return ""


class Cells:
    """Calibrated arena cells: thresholds, baselines and diagnosers.

    One cell per (scenario kind, N), calibrated by the arena's own
    ``calibrate_cell`` so every op is graded against the thresholds the
    tournament uses.  ``sec6`` moves the scenarios into the Sec. VI
    environment first.
    """

    def __init__(self, kinds, sizes, strategies, sec6: bool = False) -> None:
        from repro.analysis.experiments.arena import _cell_context
        from repro.analysis.experiments.scenarios import calibrate_cell
        from repro.arena.diagnosers import build_diagnoser
        from repro.core.multi_fault import battery_specs
        from repro.scenarios.spec import build_scenario

        self.cfg = arena_config()
        self.specs: dict[tuple[str, int], Any] = {}
        self.thresholds: dict[tuple[str, int], Any] = {}
        self.batteries: dict[tuple[str, int], dict[int, Any]] = {}
        self.diagnosers: dict[tuple[str, int, str], Any] = {}
        self.battery_specs = {
            (n, r): battery_specs(n, r)
            for n in sizes
            for r in self.cfg.repetition_counts
        }
        for n in sizes:
            for kind in kinds:
                spec = build_scenario(kind, n)
                if sec6:
                    spec = replace(
                        spec,
                        phase_noise_rms=SEC6_PHASE_NOISE_RMS,
                        residual_odd_population=SEC6_RESIDUAL_ODD_POPULATION,
                    )
                thresholds, bank, batteries = calibrate_cell(self.cfg, n, spec)
                ctx = _cell_context(self.cfg, n, thresholds, bank)
                self.specs[kind, n] = spec
                self.thresholds[kind, n] = thresholds
                self.batteries[kind, n] = batteries
                for name in strategies:
                    self.diagnosers[kind, n, name] = build_diagnoser(name, ctx)

    def machine(self, op: Op):
        """The op's fresh trial machine, seeded exactly as the arena seeds it."""
        from repro.analysis.experiments.arena import _clean_machine, _trial_machine

        cfg = replace(self.cfg, seed=op.seed)
        spec = self.specs[op.kind, op.n_qubits]
        if op.trial is None:
            return _clean_machine(cfg, op.n_qubits, spec, 0)
        return _trial_machine(cfg, op.n_qubits, spec, op.trial)

    def diagnose(self, op: Op) -> dict[str, Any]:
        """One ``run_bounded`` arena diagnosis of the op's machine."""
        from repro.arena.budget import TimeBudget
        from repro.arena.diagnosers import run_bounded

        machine = self.machine(op)
        budget = TimeBudget(self.cfg.soft_seconds, self.cfg.hard_seconds)
        diagnosis, _ = run_bounded(
            self.diagnosers[op.kind, op.n_qubits, op.diagnoser], machine, budget
        )
        return diagnosis_output(diagnosis, op.kind, op.n_qubits, op.trial)

    def grade(self, record: Record) -> None:
        grade(record, self.specs[record.op.kind, record.op.n_qubits], self.cfg)


# ------------------------------------------------------------ compute workloads


class _ComputeWorkload:
    """A closed loop of one client running ops back to back in-process.

    The op list runs ``passes`` times and each op keeps its fastest
    time: the host's speed switches within seconds, so a per-op minimum
    over passes some ten seconds apart is far steadier than one pass.
    Every pass must produce identical outputs.
    """

    name = ""
    rate = 1.0
    passes = 1
    overlapping = False
    sizes: tuple[int, ...] = ()
    strategies: tuple[str, ...] = ()

    def __init__(self) -> None:
        from repro.scenarios.spec import SCENARIO_KINDS

        self.kinds = SCENARIO_KINDS
        self.cells: Cells | None = None

    def load(self) -> None:
        """Import the arena's experiment helpers (part of set-up)."""
        importlib.import_module("repro.analysis.experiments.arena")

    def trials(self, n_qubits: int) -> tuple[int | None, ...]:
        """Machines per cell and round: scenario trials, then one clean."""
        return (*TRIALS, None)

    def base_ops(self) -> list[tuple[str, int, str, int | None]]:
        """One round's cross product: (kind, N, strategy, trial)."""
        return [
            (kind, n, name, trial)
            for n in self.sizes
            for kind in self.kinds
            for name in self.strategies
            for trial in self.trials(n)
        ]

    def ops(self, seed: int, seconds: float) -> list[Op]:
        base = self.base_ops()

        def make_round(_index: int, machine_seed: int) -> list[Op]:
            return [Op(k, n, s, t, machine_seed) for k, n, s, t in base]

        count = op_count(seconds, self.rate, self.passes)
        return take_rounds(count, make_round, f"{self.name}:{seed}")

    def warmup_ops(self, seed: int) -> list[Op]:
        """One op per (kind, N), strategies cycling, on unrelated machines."""
        return [
            Op(kind, n, self.strategies[(i + j) % len(self.strategies)], TRIALS[-1], seed + 1_000_003)
            for i, n in enumerate(self.sizes)
            for j, kind in enumerate(self.kinds)
        ]

    def run(self, ops: list[Op], recorder=None) -> list[Record]:
        """Run the ops back to back; each latency covers building the machine."""
        records = []
        for op in ops:
            start = time.perf_counter()
            try:
                output = self.run_op(op)
            except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
                records.append(Record(op, time.perf_counter() - start, error=repr(exc)))
                continue
            records.append(Record(op, time.perf_counter() - start, output))
        return records

    def finish(self, records: list[Record]) -> None:
        """Validate and grade outputs (after the timed phase)."""
        for record in records:
            if record.output is not None and not record.error:
                record.error = check_diagnosis(record.output, record.op)
                if not record.error:
                    self.cells.grade(record)

    def close(self) -> None:
        pass


class DiagnoseAdaptive(_ComputeWorkload):
    """Arena diagnoses through the per-call ``run_match`` path."""

    name = "diagnose-adaptive"
    rate = 36.0
    passes = 5
    sizes = (8, 12, 16)

    def __init__(self) -> None:
        super().__init__()
        from repro.arena.diagnosers import STRATEGY_NAMES

        self.strategies = STRATEGY_NAMES

    def trials(self, n_qubits: int) -> tuple[int | None, ...]:
        """One machine per N=16 cell: an N=16 diagnosis costs about three
        N=8 ones, and a third of the ops at N=16 would double the run."""
        return (3,) if n_qubits == 16 else super().trials(n_qubits)

    def setup(self, workdir) -> None:
        self.cells = Cells(self.kinds, self.sizes, self.strategies)

    def run_op(self, op: Op) -> dict[str, Any]:
        return self.cells.diagnose(op)


class BatteryCompiled(_ComputeWorkload):
    """The full battery per machine through pre-compiled batteries."""

    name = "battery-compiled"
    rate = 44.0
    passes = 5
    sizes = (8, 12)
    strategies = ("battery",)

    def trials(self, n_qubits: int) -> tuple[int | None, ...]:
        """Twice as many N=12 machines as N=8 ones.

        An N=12 battery takes about twice as long as an N=8 one; with an
        even mix the median would sit in the gap between the two modes
        and jump between them from run to run.
        """
        return (3, None) if n_qubits == 8 else (0, 1, 3, None)

    def setup(self, workdir) -> None:
        self.cells = Cells(self.kinds, self.sizes, self.strategies, sec6=True)

    def run_op(self, op: Op) -> dict[str, Any]:
        from repro.arena.diagnosers import Diagnosis
        from repro.core.protocol import execute_compiled_battery

        cells = self.cells
        cell = (op.kind, op.n_qubits)
        machine = cells.machine(op)
        results = []
        for r in cells.cfg.repetition_counts:
            results.extend(
                execute_compiled_battery(
                    machine,
                    cells.battery_specs[op.n_qubits, r],
                    battery=cells.batteries[cell][r],
                    thresholds=cells.thresholds[cell],
                    shots=cells.cfg.shots,
                    realizations=cells.cfg.noise_realizations,
                )
            )
        if any(not 0.0 <= r.fidelity <= 1.0 for r in results):
            raise ValueError("a measured fidelity lies outside [0, 1]")
        detected = any(r.failed for r in results)
        # The arena battery diagnoser's own decoding rule.
        decoder = cells.diagnosers[op.kind, op.n_qubits, "battery"]
        group, claimed = decoder._decode(results) if detected else (frozenset(), ())
        diagnosis = Diagnosis(
            diagnoser="battery",
            detected=detected,
            claimed=claimed,
            ambiguity_group=group,
            tests_used=len(results),
            shots=sum(r.shots for r in results),
        )
        return diagnosis_output(diagnosis, op.kind, op.n_qubits, op.trial)


# ------------------------------------------------------------ service workload


class ServiceMixed:
    """Two tenants keeping jobs outstanding against the job service.

    Submit and result go over loopback HTTP; completion is observed with
    the in-process ``DiagnosisService.wait``.  The parent imports only
    what ``python -m repro serve`` imports, so each forked worker pays
    the cold import of the experiment modules inside the measurement.
    """

    name = "service-mixed"
    rate = 13.0
    #: Four jobs in flight keep both vCPUs busy, so the service sees the
    #: host's contended speed throughout and one pass is steady enough.
    passes = 1
    #: Jobs overlap, so throughput comes from the pass's wall time, not
    #: from the sum of latencies.
    overlapping = True
    tenants = ("alpha", "beta")
    #: Jobs each tenant keeps in flight.
    outstanding = 2
    n_qubits = 8
    #: How often a tenant re-checks its younger jobs while waiting.
    poll_seconds = 0.005

    def __init__(self) -> None:
        from repro.arena.diagnosers import STRATEGY_NAMES
        from repro.scenarios.spec import SCENARIO_KINDS

        self.kinds = SCENARIO_KINDS
        self.strategies = STRATEGY_NAMES
        self.recorder = None
        self.service = self.server = self._serve_thread = None
        self.replay_cells: dict[tuple[str, int], Cells] = {}

    def load(self) -> None:
        """Import what ``python -m repro serve`` imports, and nothing more."""
        for module in ("repro.__main__", "repro.service.http", "repro.service.client"):
            importlib.import_module(module)

    def setup(self, workdir) -> None:
        from repro.service.client import HttpServiceClient
        from repro.service.http import make_server
        from repro.service.service import DiagnosisService

        self.service = DiagnosisService(workdir / "service", workers=2).start()
        self.server = make_server(self.service)
        self._serve_thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        self._serve_thread.start()
        host, port = self.server.server_address[:2]
        self.client = HttpServiceClient(f"http://{host}:{port}")

    def ops(self, seed: int, seconds: float) -> list[Op]:
        """Rounds of every (kind, diagnoser) once plus one sleep per two.

        Two thirds of the jobs are ``diagnose`` jobs at ``normal``
        priority, one third ``sleep`` no-ops at ``interactive``; jobs are
        dealt to the tenants alternately.
        """
        base = [(kind, name) for kind in self.kinds for name in self.strategies]

        def make_round(index: int, machine_seed: int) -> list[Op]:
            trial = TRIALS[index % len(TRIALS)]
            ops = []
            for i, (kind, name) in enumerate(base):
                ops.append(Op(kind, self.n_qubits, name, trial, machine_seed))
                if i % 2:
                    ops.append(Op("sleep", 0, "", None, 0, priority="interactive"))
            return ops

        count = op_count(seconds, self.rate, self.passes)
        ops = take_rounds(count, make_round, f"{self.name}:{seed}")
        return [
            replace(op, tenant=self.tenants[i % len(self.tenants)])
            for i, op in enumerate(ops)
        ]

    def warmup_ops(self, seed: int) -> list[Op]:
        ops = []
        for i, tenant in enumerate(self.tenants):
            kind = self.kinds[i]
            ops.append(Op(kind, self.n_qubits, self.strategies[i], TRIALS[-1], seed + 1_000_003, tenant))
            ops.append(Op("sleep", 0, "", None, 0, tenant, "interactive"))
        return ops

    def _submit(self, op: Op) -> str:
        if op.kind == "sleep":
            return self.client.submit(
                "sleep", {"seconds": 0}, namespace=op.tenant, priority=op.priority
            )
        payload = {
            "scenario": op.kind,
            "n_qubits": op.n_qubits,
            "trial": op.trial,
            "diagnoser": op.diagnoser,
            "preset": "smoke",
            "overrides": {"seed": op.seed},
        }
        return self.client.submit(
            "diagnose", payload, namespace=op.tenant, priority=op.priority
        )

    def _timed(self, name: str, fn, *args):
        if self.recorder is None:
            return fn(*args)
        with self.recorder.span(name):
            return fn(*args)

    def _collect(self, op: Op, job_id: str, state: str, start: float) -> Record:
        from repro.exec.integrity import verify_payload

        if state != "done":
            return Record(op, time.perf_counter() - start, error=f"job ended {state}")
        artifact = self._timed("http.result", self.client.result, job_id)
        latency = time.perf_counter() - start
        record = Record(op, latency, job_id=job_id)
        record.error = _artifact_error(artifact, job_id, op, verify_payload)
        if not record.error:
            record.output = artifact["result"]
        if self.recorder is not None:
            self._timed("http.health", self.client.health)
        return record

    def _tenant_loop(self, ops: list[Op], records: list[Record]) -> None:
        from repro.service.jobs import TERMINAL_STATES

        todo = deque(ops)
        pending: deque[tuple[Op, str, float]] = deque()
        while todo or pending:
            while todo and len(pending) < self.outstanding:
                op = todo.popleft()
                start = time.perf_counter()
                try:
                    job_id = self._timed("http.submit", self._submit, op)
                except Exception as exc:  # noqa: BLE001 — counted as a failed op
                    records.append(Record(op, time.perf_counter() - start, error=repr(exc)))
                    continue
                pending.append((op, job_id, start))
            if not pending:
                break
            finished = []
            while not finished:
                for entry in pending:
                    state = self.service.wait(entry[1], timeout=0)
                    if state in TERMINAL_STATES:
                        finished.append((entry, state))
                if not finished:
                    self.service.wait(pending[0][1], timeout=self.poll_seconds)
            for entry, state in finished:
                pending.remove(entry)
                op, job_id, start = entry
                try:
                    records.append(self._collect(op, job_id, state, start))
                except Exception as exc:  # noqa: BLE001 — counted as a failed op
                    records.append(Record(op, time.perf_counter() - start, error=repr(exc)))

    def run(self, ops: list[Op], recorder=None) -> list[Record]:
        """Both tenants' closed loops, one client thread each."""
        self.recorder = recorder
        by_tenant = {t: [op for op in ops if op.tenant == t] for t in self.tenants}
        results: dict[str, list[Record]] = {t: [] for t in self.tenants}
        threads = [
            threading.Thread(target=self._tenant_loop, args=(by_tenant[t], results[t]))
            for t in self.tenants
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.recorder = None
        position = {id(op): i for i, op in enumerate(ops)}
        return sorted(
            (r for t in self.tenants for r in results[t]),
            key=lambda r: position[id(r.op)],
        )

    def _cells(self, op: Op) -> Cells:
        key = (op.kind, op.n_qubits)
        if key not in self.replay_cells:
            self.replay_cells[key] = Cells((op.kind,), (op.n_qubits,), self.strategies)
        return self.replay_cells[key]

    def finish(self, records: list[Record]) -> None:
        for record in records:
            if record.output is None or record.op.kind == "sleep":
                continue
            record.error = check_diagnosis(record.output, record.op)
            if not record.error:
                self._cells(record.op).grade(record)

    def replay(self, records: list[Record]) -> list[Record]:
        """Rerun ``diagnose`` jobs in-process through the arena helpers."""
        out = []
        for record in records:
            start = time.perf_counter()
            output = self._cells(record.op).diagnose(record.op)
            out.append(Record(record.op, time.perf_counter() - start, output))
        return out

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self._serve_thread.join()
        if self.service is not None:
            self.service.close()


def _artifact_error(artifact, job_id: str, op: Op, verify_payload) -> str:
    """Why a result artifact fails integrity or shape checks, or ``""``."""
    if verify_payload(artifact) != "ok":
        return "result artifact failed integrity verification"
    if artifact.get("schema") != "repro-service-result/v1" or artifact.get("job_id") != job_id:
        return "result artifact has the wrong envelope"
    result = artifact.get("result")
    if not isinstance(result, dict):
        return "result artifact carries no result"
    if op.kind == "sleep":
        if result != {"schema": "repro-service-sleep/v1", "slept_seconds": 0.0}:
            return f"sleep result {result!r}"
        return ""
    if set(result) != DIAGNOSIS_KEYS:
        return f"diagnosis result keys {sorted(result)}"
    return ""


WORKLOADS = {
    cls.name: cls for cls in (DiagnoseAdaptive, BatteryCompiled, ServiceMixed)
}
