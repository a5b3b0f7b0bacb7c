"""Per-layer tracing from outside the program.

The program has no spans of its own yet, so the traced run wraps the
public entry points of each layer (module functions and class methods)
with timing shims and restores the originals afterwards.  A span records
its call count, total time and self time (total minus the time of spans
opened while it ran); spans nest per thread, so the service's dispatcher
and HTTP threads each keep their own stack.

Nothing here runs unless a workload calls :meth:`Tracer.install`; the
untraced end-to-end run never touches the program's code.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: (module, attribute, span) triples: module functions are rebound in
#: every ``repro`` module that imported them by name.
FUNCTION_SPANS = (
    ("repro.core.tests_builder", "build_test_circuit", "core.build"),
    ("repro.core.tests_builder", "expected_output", "core.build"),
    ("repro.sim.xx_engine", "batch_amplitudes_from_terms", "xx.kernel"),
    ("repro.sim.sampling", "sample_bernoulli_counts_batch", "sampling"),
    ("repro.exec.pool", "run_supervised", "exec.supervised"),
)

#: (module, class, method, span) rows wrapped on the class itself.
METHOD_SPANS = (
    ("repro.trap.machine", "VirtualIonTrap", "run_match", "trap.run_match"),
    ("repro.trap.machine", "CompiledBattery", "trial_fidelities", "trap.battery"),
    ("repro.noise.models", "GateNoiseModel", "noisy_ms_params_block", "noise.realize"),
    ("repro.noise.models", "GateNoiseModel", "residual_kick_params_block", "noise.realize"),
    ("repro.noise.models", "GateNoiseModel", "noisy_r_params", "noise.realize"),
    ("repro.sim.xx_engine", "ContractionPlan", "__init__", "xx.plan_build"),
    ("repro.sim.xx_engine", "ContractionPlan", "probabilities", "xx.kernel"),
    ("repro.sim.dense_plan", "DensePlan", "probabilities", "dense.kernel"),
    ("repro.service.store", "JobStore", "record_submitted", "service.journal"),
    ("repro.service.store", "JobStore", "record_state", "service.journal"),
    ("repro.service.store", "JobStore", "record_done", "service.journal"),
    ("repro.service.service", "DiagnosisService", "result", "service.result_read"),
)

#: Loaded only inside service workers (the parent must not import it).
CALIBRATE = ("repro.analysis.experiments.scenarios", "calibrate_cell", "calibrate")


class Recorder:
    """Thread-safe span totals: ``name -> [calls, total_s, self_s]``."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Drop every total (also the fresh start of a forked worker,
        whose copied lock may have been held by another parent thread)."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: dict[str, list[float]] = {}
        self.marks: dict[tuple[str, str], float] = {}

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, seconds: float, child_seconds: float = 0.0) -> None:
        """Fold one finished span into the totals."""
        self.merge({name: [1, seconds, seconds - child_seconds]})

    def count(self, name: str) -> None:
        """Count one event that has no duration of its own."""
        self.add(name, 0.0)

    def mark(self, key: str, event: str) -> None:
        """Timestamp one event of one job (first occurrence wins)."""
        with self._lock:
            self.marks.setdefault((key, event), time.perf_counter())

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span nested in the current one."""
        stack = self._stack()
        frame = [0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            self.add(name, elapsed, frame[0])

    def wrap(self, name: str, fn):
        """``fn`` timed as span ``name`` on every call."""
        recorder = self

        def traced(*args, **kwargs):
            with recorder.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def snapshot(self) -> dict[str, list[float]]:
        """A copy of the totals (JSON-able)."""
        with self._lock:
            return {name: list(row) for name, row in self.spans.items()}

    def merge(self, spans: dict[str, list[float]]) -> None:
        """Add totals recorded elsewhere (a forked worker's snapshot)."""
        with self._lock:
            for name, (calls, total, self_time) in spans.items():
                row = self.spans.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += self_time


class Tracer:
    """Installs and removes the layer shims around one recorder."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind_function(self, module_name: str, attr: str, wrapped) -> None:
        """Point every ``repro`` module's reference to a function at ``wrapped``."""
        original = getattr(sys.modules[module_name], attr)
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)

    def install(self) -> None:
        """Wrap every layer entry point that is loaded in this process."""
        for module_name, attr, span in FUNCTION_SPANS:
            if module_name in sys.modules:
                original = getattr(sys.modules[module_name], attr)
                self.rebind_function(
                    module_name, attr, self.recorder.wrap(span, original)
                )
        for module_name, cls_name, method, span in METHOD_SPANS:
            if module_name in sys.modules:
                cls = getattr(sys.modules[module_name], cls_name)
                self._set(cls, method, self.recorder.wrap(span, getattr(cls, method)))
        self._install_plan_cache()
        self._install_journal_marks()
        if CALIBRATE[0] in sys.modules:
            self.install_calibrate()

    def install_calibrate(self) -> None:
        """Wrap ``calibrate_cell`` (after its module has been imported)."""
        module_name, attr, span = CALIBRATE
        original = getattr(sys.modules[module_name], attr)
        self.rebind_function(module_name, attr, self.recorder.wrap(span, original))

    def _install_plan_cache(self) -> None:
        """Time dense-plan lookups and classify each as hit, rebind or build."""
        module = sys.modules.get("repro.sim.dense_plan")
        if module is None:
            return
        recorder = self.recorder
        original = module.DensePlanCache.get

        def get(cache, n_qubits, skeleton):
            rebinds = cache.rebinds
            with recorder.span("dense.lookup"):
                plan, hit = original(cache, n_qubits, skeleton)
            if hit:
                recorder.count("dense.plan_hits")
            elif cache.rebinds > rebinds:
                recorder.count("dense.plan_rebinds")
            else:
                recorder.count("dense.plan_builds")
            return plan, hit

        self._set(module.DensePlanCache, "get", get)

    def _install_journal_marks(self) -> None:
        """Timestamp each job's submission and dispatch (queue wait)."""
        module = sys.modules.get("repro.service.store")
        if module is None:
            return
        recorder = self.recorder
        store = module.JobStore
        submitted, state = store.record_submitted, store.record_state

        def record_submitted(self, job_id, spec, seq=0):
            recorder.mark(job_id, "submitted")
            return submitted(self, job_id, spec, seq=seq)

        def record_state(self, job_id, new_state, **extra):
            if new_state == "running":
                recorder.mark(job_id, "running")
            return state(self, job_id, new_state, **extra)

        self._set(store, "record_submitted", record_submitted)
        self._set(store, "record_state", record_state)

    def trace_service_workers(self, trace_dir: Path) -> None:
        """Time each service job inside its forked worker.

        The pool forks its workers from this process, so the shims
        installed here are live in the worker too.  The worker starts a
        fresh recorder, wraps ``calibrate_cell`` once its module is
        loaded, and leaves ``<job_id>.json`` with its spans and the
        wall time of ``execute_job`` in ``trace_dir``.
        """
        module = sys.modules["repro.service.service"]
        recorder, original = self.recorder, module.execute_job
        trace_dir.mkdir(parents=True, exist_ok=True)

        def execute_job(item):
            recorder.reset()
            start = time.perf_counter()
            try:
                if item["kind"] == "diagnose":
                    importlib.import_module(CALIBRATE[0])
                    self.install_calibrate()
                return original(item)
            finally:
                elapsed = time.perf_counter() - start
                (trace_dir / f"{item['job_id']}.json").write_text(
                    json.dumps({"worker_job_s": elapsed, "spans": recorder.snapshot()})
                )

        self._set(module, "execute_job", execute_job)

    def uninstall(self) -> None:
        """Restore every original, newest shim first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
