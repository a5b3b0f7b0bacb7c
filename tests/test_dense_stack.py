"""A pass draws each dense test in row order and builds each stack once.

:meth:`~repro.trap.machine.VirtualIonTrap._pass_probabilities` draws,
test by test, only what the generator must draw in row order (MS
amplitude noise, kicks, R-slot amplitude noise), then builds every
canonical stack's parameter blocks in one step: gate times, 1/f phase
gathers, calibration gathers and parameter rows.  The stacked blocks
must equal, column block for column block, the blocks each test's own
slot realization gives (``realize_slots``, the per-test draw), with the
same generator state, clock and plan counters afterwards.  A plan
memoizes each expected bitstring's amplitude index, so a rebound plan,
which shares its donor's compiled core but reads another touched map,
must keep a memo of its own.  And one K6-class stack's kernel call
stays within 1 MiB of traced allocation.
"""

import math
import tracemalloc

import numpy as np
import pytest
from xx_oracle import plan_cache, realize_slots, slot_blocks, slot_skeleton

from repro.core.multi_fault import battery_specs
from repro.core.protocol import built_test
from repro.noise.models import NoiseParameters
from repro.sim.circuit import Circuit
from repro.sim.dense_plan import DensePlan, DensePlanCache, Segment
from repro.trap.faults import CouplingFault, CouplingPhaseFault
from repro.trap.machine import VirtualIonTrap, as_program

N = 12
HALF = math.pi / 2

#: XX-preserving, with one-qubit amplitude noise: XX runs stay on the XX
#: route between the dense tests, and R slots draw noise.
AMPLITUDE_1Q = NoiseParameters(amplitude_sigma=0.10, amplitude_sigma_1q=0.02)
#: The full Sec. VI model plus one-qubit noise: every test dense, kicks on.
SEC6_1Q = NoiseParameters(
    amplitude_sigma=0.10,
    amplitude_sigma_1q=0.02,
    phase_noise_rms=0.05,
    residual_odd_population=0.01,
)


def _bit(q: int) -> int:
    return 1 << (N - 1 - q)


def _with_rest(a: int, b: int, c: int, theta: float) -> Circuit:
    """MS on ``(a, b)``, then an R, an RX, an H and an X: R slots and
    static kinds, one canonical skeleton for every ``(a, b, c)``."""
    circuit = Circuit(N).ms(a, b, HALF).r(c, theta, 0.3).ms(a, b, HALF)
    return circuit.rx(a, 0.2).h(b).x(c)


def _mixed_round() -> list:
    """XX runs broken by dense tests: two stacks with R slots and static
    kinds (each test with its own nominal R angle) and the tests holding
    the phase-faulted coupling {2, 3}."""
    pairs = [
        built_test((frozenset(p),), 2, N) for p in ((0, 1), (2, 3), (4, 5))
    ]
    return [
        pairs[0],
        pairs[2],
        as_program(_with_rest(0, 1, 2, 0.4), 0),
        pairs[1],
        pairs[0],
        as_program(_with_rest(6, 7, 8, 0.7), _bit(8)),
        as_program(Circuit(N).ms(5, 6, HALF).r(7, 0.5, 0.1), 0),
        pairs[2],
        pairs[1],
        as_program(_with_rest(9, 10, 11, 0.9), 0),
        as_program(Circuit(N).ms(1, 2, HALF).r(3, 0.2, 0.4), _bit(3)),
        pairs[0],
    ]


ROUNDS = {
    "mixed": (AMPLITUDE_1Q, _mixed_round),
    "sec6": (
        SEC6_1Q,
        lambda: _mixed_round()
        + [built_test(tuple(s.pairs), 2, N) for s in battery_specs(N, 2)][:6],
    ),
}


def _twins(noise):
    machines = []
    for _ in range(2):
        machine = VirtualIonTrap(N, noise=noise, seed=5, noise_realizations=3)
        machine.inject_fault(CouplingFault(frozenset({0, 1}), 0.3))
        machine.inject_fault(CouplingPhaseFault(frozenset({2, 3}), 0.6))
        machines.append(machine)
    return machines


def _stacked_calls(machine, programs, trials, monkeypatch):
    """Every kernel call's blocks and segments in ``machine``'s pass."""
    calls = []
    original = DensePlan.probabilities

    def spy(self, blocks, expected):
        calls.append((blocks, list(expected)))
        return original(self, blocks, expected)

    with monkeypatch.context() as patch:
        patch.setattr(DensePlan, "probabilities", spy)
        machine._pass_probabilities(programs, 60, trials)
    return calls


def _per_test_draws(machine, programs, n_batch):
    """Every program realized on its own, in row order: dense tests' blocks
    and plans, keyed by row (XX tests draw the same and are skipped)."""
    drawn = {}
    for row, program in enumerate(programs):
        slots = realize_slots(machine, program.circuit, n_batch)
        if not machine._routes([program], "auto").xx_rows:
            plan = machine._dense_plan_for(slot_skeleton(slots))
            drawn[row] = (slot_blocks(slots), plan)
    return drawn


@pytest.mark.parametrize("trials", [1, 2])
@pytest.mark.parametrize("name", sorted(ROUNDS))
def test_stacked_blocks_equal_per_test_draws(
    name, trials, monkeypatch, fresh_plan_cache
):
    noise, make = ROUNDS[name]
    programs = make()
    stacked, oracle = _twins(noise)
    n_batch = trials * len(stacked._shot_groups(60))
    calls = _stacked_calls(stacked, programs, trials, monkeypatch)
    with plan_cache(DensePlanCache()):
        drawn = _per_test_draws(oracle, programs, n_batch)
    # Under amplitude noise the tests holding {2, 3} go dense beside the
    # dense-only ones; the other tests stay XX runs.
    assert 5 <= len(drawn) < len(programs) or name == "sec6"
    assert any(len(segments) > 1 for _, segments in calls)
    # Segments list a stack's tests in row order: match each to the
    # first per-test draw of its skeleton and bits not yet matched.
    unmatched = sorted(drawn)
    seen = 0
    for blocks, segments in calls:
        for t, segment in enumerate(segments):
            row = next(
                row
                for row in unmatched
                if drawn[row][1].skeleton == segment.plan.skeleton
                and programs[row].expected == segment.expected
            )
            unmatched.remove(row)
            want = drawn[row][0]
            assert blocks.keys() == want.keys()
            for kind, block in want.items():
                got = blocks[kind][:, t * n_batch : (t + 1) * n_batch]
                assert np.array_equal(got, block), (name, kind, row)
            seen += 1
    assert seen == len(drawn)
    assert stacked._clock == oracle._clock
    assert stacked.rng.bit_generator.state == oracle.rng.bit_generator.state
    assert stacked.stats == oracle.stats


def _pair_plan_blocks(seed: int) -> dict:
    """Sec. VI blocks of one MS slot and its kicks, four realizations."""
    machine = VirtualIonTrap(6, noise=SEC6_1Q, seed=seed)
    return slot_blocks(realize_slots(machine, Circuit(6).ms(0, 2, HALF), 4))


@pytest.mark.parametrize("donor_first", [True, False])
def test_rebound_plan_reads_its_own_expected_index(donor_first):
    """One compiled core, touched maps (0, 2) and (2, 5): qubit 2 is the
    second touched qubit of one plan and the first of the other, so the
    same expected bits sit at different amplitude indices."""
    skeleton = (("MS", (0, 2)), ("R", (0,)), ("R", (2,)))
    shifted = (("MS", (2, 5)), ("R", (2,)), ("R", (5,)))
    donor = DensePlan(6, skeleton)
    clone = donor.rebind(6, shifted)
    assert clone._order is donor._order and clone._chains is donor._chains
    assert clone._indices is not donor._indices
    blocks = _pair_plan_blocks(7)
    bits = 1 << (6 - 1 - 2)
    plans = [donor, clone] if donor_first else [clone, donor]
    got = {id(plan): plan.probabilities(blocks, bits) for plan in plans}
    fresh_donor = DensePlan(6, skeleton).probabilities(blocks, bits)
    fresh_clone = DensePlan(6, shifted).probabilities(blocks, bits)
    assert np.array_equal(got[id(donor)], fresh_donor)
    assert np.array_equal(got[id(clone)], fresh_clone)
    assert not np.array_equal(fresh_donor, fresh_clone)
    # A bit on qubit 0 is untouched for the clone: forced zero there only.
    zero = 1 << (6 - 1)
    assert donor.probabilities(blocks, zero).any()
    assert not clone.probabilities(blocks, zero).any()
    # Both in one stacked call, each segment on its own map.
    stacked = {k: np.concatenate([b, b], axis=1) for k, b in blocks.items()}
    both = donor.probabilities(
        stacked, [Segment(donor, bits, 4), Segment(clone, bits, 4)]
    )
    assert np.array_equal(both, np.concatenate([fresh_donor, fresh_clone]))


def test_k6_stack_kernel_allocates_at_most_one_mebibyte(fresh_plan_cache):
    """N = 12 under the Sec. VI model, the 4-repetition K6-class stack:
    eight tests of four realizations (B = 32), 15 couplings of 12 links.

    The chain is multiplied out in three ``(4, 4, 15, 32)`` buffers with
    the link parameters beside them; the padded tree it replaced peaked
    at 2.2 MiB.  Allocation sizes are deterministic, so this is not a
    timing bound.
    """
    machine = VirtualIonTrap(N, noise=NoiseParameters.paper_physical(), seed=3)
    programs = [
        built_test(tuple(spec.pairs), 4, N) for spec in battery_specs(N, 4)
    ]
    calls = []
    original = DensePlan.probabilities

    def spy(self, blocks, expected):
        calls.append((self, blocks, list(expected)))
        return original(self, blocks, expected)

    DensePlan.probabilities = spy
    try:
        machine._pass_probabilities(programs, 300, 1, 4)
    finally:
        DensePlan.probabilities = original
    (plan, blocks, segments), = [
        call for call in calls if call[0].n_local == 6
    ]
    assert len(segments) == 8 and blocks["MS"].shape == (60, 32, 3)
    assert [len(chain.levels) for chain in plan._chains] == [12]
    want = plan.probabilities(blocks, segments)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        got = plan.probabilities(blocks, segments)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak <= 2**20, f"peak traced allocation {peak / 2**10:.0f} KiB"
