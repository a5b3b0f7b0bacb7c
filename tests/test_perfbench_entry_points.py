"""Every entry point the traced benchmark run wraps must exist.

``perfbench/layers.py`` times the program from outside by looking up
functions and methods by name (``getattr``).  A rename or deletion in
``src/`` would otherwise only surface when someone runs
``perfbench/run.py --trace 1``; this test resolves the same tables on the
current code.  It only reads ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS_MODULE = _layers()

#: Shims the tracer installs outside its tables (plan-cache lookups,
#: journal marks and forked service workers).
EXTRA_SPANS = (
    ("repro.sim.dense_plan", "DensePlanCache", "get"),
    ("repro.service.store", "JobStore", "record_submitted"),
    ("repro.service.store", "JobStore", "record_state"),
)


@pytest.mark.parametrize(
    "module_name, attr",
    [(m, a) for m, a, _ in LAYERS_MODULE.FUNCTION_SPANS]
    + [LAYERS_MODULE.CALIBRATE[:2], ("repro.service.service", "execute_job")],
)
def test_function_span_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize(
    "module_name, cls_name, method",
    [(m, c, a) for m, c, a, _ in LAYERS_MODULE.METHOD_SPANS] + list(EXTRA_SPANS),
)
def test_method_span_resolves(module_name, cls_name, method):
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert callable(getattr(cls, method))
