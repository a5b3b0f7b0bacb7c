"""Memory-bound satellites: LRU spin-table cache and batch chunking."""

import sys
import threading

import numpy as np
import pytest

from repro.sim import xx_engine
from repro.sim.statevector import (
    MAX_BATCH_AMPLITUDES,
    realization_chunks,
    zero_states,
)
from repro.sim.circuit import Circuit
from repro.sim.xx_engine import batch_amplitudes_from_terms
from repro.trap.machine import VirtualIonTrap


@pytest.fixture
def spin_cache():
    """Snapshot and restore the module-level spin-table cache state."""
    saved_tables = dict(xx_engine._SPIN_TABLE_CACHE)
    saved_budget = xx_engine._SPIN_TABLE_CACHE_MAX_BYTES
    xx_engine._SPIN_TABLE_CACHE.clear()
    yield xx_engine._SPIN_TABLE_CACHE
    xx_engine._SPIN_TABLE_CACHE.clear()
    xx_engine._SPIN_TABLE_CACHE.update(saved_tables)
    xx_engine.set_spin_table_cache_bytes(saved_budget)


def test_spin_cache_evicts_least_recently_used(spin_cache):
    # Budget fits m=15 (0.49 MB) + m=16 (1.05 MB) but not + m=17 (2.2 MB).
    xx_engine.set_spin_table_cache_bytes(2_000_000)
    xx_engine._spin_table(15)
    xx_engine._spin_table(16)
    assert sorted(spin_cache) == [15, 16]
    # Touch 15 so 16 becomes the least-recently-used entry.
    xx_engine._spin_table(15)
    xx_engine._spin_table(17)
    # 16 (LRU) and then 15 are evicted; 17 survives even though it alone
    # exceeds the budget (the most-recent table is never dropped).
    assert sorted(spin_cache) == [17]
    info = xx_engine.spin_table_cache_info()
    assert info["tables"] == 1
    assert info["max_bytes"] == 2_000_000


def test_spin_cache_keeps_working_set_under_budget(spin_cache):
    xx_engine.set_spin_table_cache_bytes(3_000_000)
    for m in (14, 15, 16, 14, 15, 16):
        table = xx_engine._spin_table(m)
        assert table.shape == (2**m, m)
    assert sum(t.nbytes for t in spin_cache.values()) <= 3_000_000
    # Unlike the old policy (evict the *smallest* large table), the
    # biggest resident table is the first to go once it goes stale.
    xx_engine._spin_table(14)
    xx_engine._spin_table(17)
    assert 16 not in spin_cache and 14 in spin_cache


def test_spin_cache_survives_concurrent_callers(spin_cache):
    """Four threads hitting and evicting tables never trip the LRU.

    A budget that holds only a couple of small tables makes every call
    reorder or evict; a microsecond switch interval interleaves them.
    """
    xx_engine.set_spin_table_cache_bytes(4_000)
    errors: list[Exception] = []
    barrier = threading.Barrier(4)

    def worker(k):
        try:
            barrier.wait(timeout=30)
            for step in range(5_000):
                m = 1 + (3 * k + step) % 9
                assert xx_engine._spin_table(m).shape == (2**m, m)
                xx_engine.spin_table_cache_info()
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[:1]


def test_batch_amplitudes_chunking_is_exact(rng):
    edges = {
        frozenset({q, q + 1}): rng.normal(np.pi / 2, 0.1, 32)
        for q in range(9)
    }
    linear = {3: rng.normal(0.0, 0.05, 32)}
    full = batch_amplitudes_from_terms(10, edges, linear, 5)
    chunked = batch_amplitudes_from_terms(
        10, edges, linear, 5, max_batch_bytes=1
    )
    # Chunk boundaries change the BLAS kernel, not the math.
    assert np.max(np.abs(full - chunked)) < 1e-12


def test_batched_simulator_enforces_byte_budget():
    """The dense plan's state block allocation guards its byte budget."""
    zero_states(4, 8, max_batch_bytes=8 * 16 * 16)
    with pytest.raises(ValueError, match="byte budget"):
        zero_states(4, 8, max_batch_bytes=8 * 16 * 16 - 1)
    # A single realization is always accepted, mirroring
    # realization_chunks — chunks the helper emits always construct.
    zero_states(18, 1, max_batch_bytes=1_000_000)
    states = zero_states(2, 3)
    assert states.shape == (3, 4) and (states[:, 0] == 1).all()
    assert not states[:, 1:].any()


def test_streaming_plan_matches_precomputed_and_bounds_residency(
    rng, monkeypatch
):
    from repro.sim.xx_engine import ContractionPlan

    edge_keys = [frozenset({q, q + 1}) for q in range(7)]
    thetas = rng.normal(np.pi / 2, 0.1, (8, 7))
    cached = ContractionPlan(8, edge_keys, [], 3)
    assert all(c.blocks is not None for c in cached._components)
    # Above the resident bound a plan streams its blocks: zero resident
    # block memory, the same values.
    monkeypatch.setattr(xx_engine, "_RESIDENT_PLAN_BYTES", 100)
    streaming = ContractionPlan(8, edge_keys, [], 3)
    assert all(c.blocks is None for c in streaming._components)
    assert np.array_equal(
        cached.amplitudes(thetas), streaming.amplitudes(thetas)
    )


def test_execution_only_fields_do_not_bust_the_cache_digest():
    from repro.analysis.registry import get_experiment
    from repro.analysis.runner import config_digest

    for name, knob in (
        ("fig8", "series_jobs"),
        ("fig9", "series_jobs"),
        ("fig7", "threshold_jobs"),
        ("table2", "jobs"),
    ):
        spec = get_experiment(name)
        serial = config_digest(name, spec.config("smoke"))
        parallel = config_digest(name, spec.config("smoke", {knob: 4}))
        assert serial == parallel, f"{name}.{knob} busts the digest"


def test_realization_chunks_cover_the_batch():
    chunks = realization_chunks(3, 10, max_batch_bytes=2 * 8 * 16)
    assert chunks == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]
    assert realization_chunks(3, 10) == [(0, 10)]
    assert realization_chunks(22, 2**3 + 1)[0] == (
        0,
        MAX_BATCH_AMPLITUDES // 2**22,
    )
    # A budget above the global cap must not yield over-cap chunks (every
    # chunk has to pass the zero_states guard).
    huge = realization_chunks(20, 64, max_batch_bytes=2 * 2**30)
    assert max(stop - start for start, stop in huge) <= (
        MAX_BATCH_AMPLITUDES // 2**20
    )


def test_batch_amplitudes_rejects_empty_terms():
    with pytest.raises(ValueError, match="realization count"):
        batch_amplitudes_from_terms(4, {}, {}, 0)


def test_machine_chunked_dense_paths_match_unchunked():
    """A tiny max_batch_bytes changes memory use, not sampled counts."""
    circuit = Circuit(3).ms(0, 1, np.pi / 2).r(2, 0.3, 0.1).ms(1, 2, np.pi / 2)
    kwargs = dict(seed=11, noise_realizations=6)
    reference = VirtualIonTrap(3, **kwargs)
    chunked = VirtualIonTrap(3, max_batch_bytes=2 * 2**3 * 16, **kwargs)
    assert reference.run(circuit, shots=120) == chunked.run(circuit, shots=120)
    # run() consumed identical RNG streams, so run_match stays aligned too.
    assert reference.run_match(circuit, 0, 120) == chunked.run_match(
        circuit, 0, 120
    )
