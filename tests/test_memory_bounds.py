"""Memory bounds: what a compiled XX plan keeps, and batch chunking.

A :class:`~repro.sim.xx_engine.ContractionPlan` keeps int8 half tables,
characters and index arrays, at most 64 KiB for any component up to the
20-qubit exact limit; each call forms its phases transiently, bounded
per realization row by ``_CHUNK_SPINS`` and across rows by
``max_batch_bytes``.  Dense batches are bounded the same way.
"""

import numpy as np
import pytest

from repro.sim.statevector import (
    MAX_BATCH_AMPLITUDES,
    realization_chunks,
    zero_states,
)
from repro.sim.circuit import Circuit
from repro.sim.xx_engine import ContractionPlan, batch_amplitudes_from_terms
from repro.trap.machine import VirtualIonTrap


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


#: What one compiled plan may keep: the 1024-entry compiled-test cache
#: then pins at most 64 MiB.
PLAN_BYTES = 64 * 1024


@pytest.mark.parametrize(
    "m, n_linear", [(8, 0), (8, 8), (12, 3), (16, 0), (20, 0), (20, 20)]
)
def test_complete_graph_plans_stay_under_the_plan_bound(
    rng, resident_bytes, m, n_linear
):
    """A plan keeps int8 half tables, characters and index arrays only,
    ``O(2^(m/2) m)`` bytes, up to the 20-qubit exact limit."""
    edges = [frozenset((i, j)) for i in range(m) for j in range(i + 1, m)]
    plan = ContractionPlan(m, edges, list(range(n_linear)), 0)
    assert plan.component_qubits == [list(range(m))]
    assert resident_bytes(plan) <= PLAN_BYTES
    if m <= 12:
        # A call runs without keeping anything new.
        before = resident_bytes(plan)
        thetas = rng.normal(np.pi / 2, 0.1, (2, len(edges)))
        plan.amplitudes(thetas, np.zeros((2, n_linear)) if n_linear else None)
        assert resident_bytes(plan) == before


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
