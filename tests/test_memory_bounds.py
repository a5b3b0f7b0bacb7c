"""Memory bounds: what a compiled XX plan keeps, and dense row chunking.

A :class:`~repro.sim.xx_engine.ContractionPlan` keeps int8 half tables,
characters and index arrays, at most 64 KiB for any component up to the
20-qubit exact limit; each call forms its phases transiently, bounded
per realization row by ``_CHUNK_SPINS``.  Dense evaluation splits its
realization rows into chunks whose state blocks fit
:data:`~repro.sim.statevector.MAX_BATCH_AMPLITUDES`; the tests lower
that cap to make the chunks small.
"""

import numpy as np
import pytest
from xx_oracle import realize_slots, slot_blocks, slot_skeleton

from repro.sim.circuit import Circuit
from repro.sim.dense_plan import DensePlan
from repro.sim.statevector import (
    MAX_BATCH_AMPLITUDES,
    realization_chunks,
    zero_states,
)
from repro.sim.xx_engine import ContractionPlan, batch_amplitudes_from_terms
from repro.trap.machine import VirtualIonTrap


def test_batched_simulator_enforces_byte_budget(amplitude_cap):
    """The dense plan's state block allocation guards the amplitude cap."""
    amplitude_cap(8, 4)
    zero_states(4, 8)
    with pytest.raises(ValueError, match="combined amplitude cap"):
        zero_states(4, 9)
    amplitude_cap(None)
    with pytest.raises(ValueError, match="dense limit"):
        zero_states(23, 1)
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


def test_realization_chunks_cover_the_batch(amplitude_cap):
    assert realization_chunks(3, 10) == [(0, 10)]
    assert realization_chunks(22, 2**3 + 1)[0] == (
        0,
        MAX_BATCH_AMPLITUDES // 2**22,
    )
    amplitude_cap(2, 3)
    assert realization_chunks(3, 10) == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]
    # A state above the cap still forms a chunk of one row.
    assert realization_chunks(5, 3) == [(0, 1), (1, 2), (2, 3)]


def test_batch_amplitudes_rejects_empty_terms():
    with pytest.raises(ValueError, match="realization count"):
        batch_amplitudes_from_terms(4, {}, {}, 0)


def test_machine_chunked_dense_paths_match_unchunked(amplitude_cap, monkeypatch):
    """Rows split under a lowered amplitude cap change memory use, not
    probabilities, sampled counts or the generator's state: through
    ``DensePlan.probabilities``, ``VirtualIonTrap.run`` and ``run_match``."""
    circuit = Circuit(3).ms(0, 1, np.pi / 2).r(2, 0.3, 0.1).ms(1, 2, np.pi / 2)
    evolutions = []
    original = DensePlan._evolve

    def spy(self, blocks, n_batch, rows=None):
        evolutions.append(n_batch)
        return original(self, blocks, n_batch, rows)

    monkeypatch.setattr(DensePlan, "_evolve", spy)

    def outputs():
        evolutions.clear()
        machine = VirtualIonTrap(3, seed=11, noise_realizations=6)
        slots = realize_slots(machine, circuit, 6)
        probs = DensePlan(3, slot_skeleton(slots)).probabilities(
            slot_blocks(slots), 0b011
        )
        counts = machine.run(circuit, shots=120)
        match = machine.run_match(circuit, 0, 120)
        state = machine.rng.bit_generator.state
        return probs, counts, match, state, list(evolutions)

    probs, counts, match, state, whole = outputs()
    amplitude_cap(2, 3)
    chunked = outputs()
    # One evolution of six rows per call, or three of two rows.
    assert whole == [6, 6, 6]
    assert chunked[4] == [2] * 9
    assert np.array_equal(chunked[0], probs)
    assert chunked[1:4] == (counts, match, state)
