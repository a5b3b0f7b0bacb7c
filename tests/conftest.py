"""Test bootstrap: ``src/`` importability, the shared seeded RNG, the
golden-record check of embedded report checks and a resident-bytes
walker for memory bounds."""

import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def rng(request: pytest.FixtureRequest) -> np.random.Generator:
    """Deterministic per-test random generator.

    Seeded from the test's node id, so every test gets its own stable
    stream (reordering or adding tests never shifts another test's
    draws) without per-test ad-hoc ``default_rng(<magic constant>)``
    seeding.  Tests that need *two identical* streams (determinism
    comparisons) still construct their own generators explicitly.
    """
    seed = zlib.crc32(request.node.nodeid.encode())
    return np.random.default_rng(seed)


@pytest.fixture
def assert_golden_tracked():
    """Check a report's embedded ``checks[]`` against GOLDEN_smoke.json.

    Every drift-tracked check (non-null ``drift_tolerance``) must be the
    golden record's entry of the same id under ``prefix`` — same
    tolerance, value within it — and every golden ``prefix`` entry must
    be embedded.
    """
    from repro.validation.golden import load_golden

    golden = load_golden(SRC.parent / "GOLDEN_smoke.json")["checks"]

    def check(checks, prefix):
        tracked = {
            c["check_id"]: c for c in checks if c["drift_tolerance"] is not None
        }
        assert sorted(tracked) == sorted(
            k for k in golden if k.startswith(prefix)
        )
        for check_id, embedded in tracked.items():
            entry = golden[check_id]
            assert embedded["drift_tolerance"] == entry["tolerance"], check_id
            drift = abs(embedded["value"] - entry["value"])
            assert drift <= entry["tolerance"], check_id

    return check


@pytest.fixture
def resident_bytes():
    """Bytes of the numpy arrays an object keeps, found by walking its
    attributes, dataclass fields and containers (for plan-size bounds)."""
    import dataclasses

    def walk(obj):
        if isinstance(obj, np.ndarray):
            return obj.nbytes
        if dataclasses.is_dataclass(obj):
            return sum(walk(getattr(obj, f.name)) for f in dataclasses.fields(obj))
        if isinstance(obj, (list, tuple)):
            return sum(walk(item) for item in obj)
        if isinstance(obj, dict):
            return sum(walk(item) for item in obj.values())
        if hasattr(obj, "__dict__"):
            return walk(vars(obj))
        return 0

    return walk
