"""Dense plans reproduce recorded match probabilities bit for bit.

``tests/data/dense_plan_bits.json`` holds the hex-float probabilities of
seeded cases as computed by the factored link-chain kernel (see
CHANGES.md for the commit and the snippet that wrote it; the record
before it came from the padded matmul-tree kernel, within 1.3e-15 of
this one).  Each case realizes a nominal circuit with the oracle's
``realize_slots`` on a seeded machine, compiles its
:class:`~repro.sim.dense_plan.DensePlan` and evaluates it:

* battery shapes on 2/4/6/8 compacted qubits at 2 and 4 MS repetitions;
* qubit-swapped MS groups, with and without residual kicks;
* R-gate and fixed-gate slots (chains of several link sequences);
* an MS block whose slots sit in chains of different lengths, with the
  bare MS first and last;
* a fused one-qubit ("generic") run;
* link chains of length 1, 3 and 8, an MS-only chain without kicks on
  a phase-faulted coupling, and one chain mixing kick, R, fixed and
  qubit-swapped MS links;
* a structurally rebound plan and a call whose rows are chunked two at
  a time under a lowered amplitude cap.

The probabilities must be ``np.array_equal`` to the record, and the
evolved states must agree with per-realization
:class:`~repro.sim.statevector.StatevectorSimulator` evolution to 1e-12.
The middle apply steps run through numpy's bundled OpenBLAS, which picks
its ``zgemm`` kernel for the CPU at run time; a host whose kernel rounds
differently needs the record regenerated from the commit it pins.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from xx_oracle import realize_slots, slot_blocks, slot_skeleton

from repro.core.multi_fault import battery_specs
from repro.core.tests_builder import build_test_circuit, expected_output
from repro.noise.models import NoiseParameters
from repro.sim.circuit import Circuit, Operation
from repro.sim.dense_plan import DensePlan, DensePlanCache
from repro.sim.statevector import StatevectorSimulator
from repro.trap.faults import CouplingPhaseFault
from repro.trap.machine import VirtualIonTrap

FIXTURE = Path(__file__).resolve().parent / "data" / "dense_plan_bits.json"

N = 12
B = 5
HALF = math.pi / 2

#: The full Sec. VI error model: phase noise and residual kicks.
SEC6 = NoiseParameters(
    amplitude_sigma=0.10, phase_noise_rms=0.05, residual_odd_population=0.01
)
#: One-qubit amplitude noise on R gates, with and without kicks.
KICKS_1Q = NoiseParameters(
    amplitude_sigma=0.10,
    amplitude_sigma_1q=0.02,
    phase_noise_rms=0.05,
    residual_odd_population=0.01,
)
NO_KICKS = NoiseParameters(
    amplitude_sigma=0.10, amplitude_sigma_1q=0.02, phase_noise_rms=0.05
)
#: Amplitude noise alone: a phase-faulted coupling still goes dense.
AMPLITUDE = NoiseParameters(amplitude_sigma=0.10)


def _bit(q: int) -> int:
    return 1 << (N - 1 - q)


def _battery_test(n_local: int, reps: int) -> tuple[Circuit, int]:
    """A battery-shaped test touching ``n_local`` qubits."""
    if n_local == 2:
        circuit = Circuit(N)
        for _ in range(reps):
            circuit.ms(3, 9, HALF)
        return circuit, (_bit(3) | _bit(9)) if reps % 4 == 2 else 0
    for spec in battery_specs(N, reps):
        circuit = build_test_circuit(spec, N)
        if len(circuit.touched_qubits()) == n_local:
            return circuit, expected_output(spec, N)
    raise AssertionError(f"no battery test on {n_local} qubits")


# The record predates the machine's use of the second MS drive phase: it
# realized both phases from the first.  The MS gates below spell out the
# phase pairs the record actually realized, so it pins the same inputs.


def _swapped(reps: int) -> Circuit:
    circuit = Circuit(N)
    for k in range(reps):
        a, b = (5, 2) if k % 2 else (2, 5)
        circuit.ms(a, b, HALF)
    return circuit.ms(5, 2, HALF, 0.3, 0.3)


def _mixed() -> Circuit:
    c = Circuit(N).r(2, 0.4, 0.3).ms(0, 1, HALF).h(3)
    c.xx(1, 2, 0.7).ms(2, 3, HALF, HALF, HALF)
    c.rx(0, 0.2).r(1, math.pi, 0.0).cnot(3, 4).ms(0, 1, HALF, math.pi, math.pi)
    return c.rz(4, 0.3).x(5)


def _generic() -> Circuit:
    c = Circuit(N).r(0, 0.4, 0.2).rx(0, 0.3).ry(0, 0.2).ms(2, 3, HALF)
    return c.rz(2, 0.5).h(2).ms(0, 2, HALF).r(7, 0.3, 0.0).rz(7, 0.1)


def _split_ms(bare_first: bool) -> Circuit:
    """One MS merged with R/RX on both its qubits and one bare MS.

    Without kicks the merged MS becomes an mskron link and the bare one
    a builder-stack slot, so the MS block's rows split between the two.
    """
    c = Circuit(N)
    if bare_first:
        c.ms(2, 3, HALF)
    c.ms(0, 1, HALF).r(0, 0.3, 0.1).rx(1, 0.2)
    return c if bare_first else c.ms(2, 3, HALF)


def _pair_chain(reps: int) -> Circuit:
    """``reps`` MS gates on one coupling: a chain of ``reps`` MS links
    without kicks, ``3 * reps`` links with them."""
    circuit = Circuit(N)
    for _ in range(reps):
        circuit.ms(3, 9, HALF)
    return circuit


def _eight_links() -> Circuit:
    """MS, two kicks, R, RX, swapped MS and its two kicks: 8 links."""
    return Circuit(N).ms(3, 9, HALF).r(3, 0.4, 0.3).rx(9, 0.2).ms(9, 3, HALF)


def _mixed_chain() -> Circuit:
    """One fused group: kick, R, fixed (two folded) and swapped MS links."""
    c = Circuit(N).ms(0, 1, HALF).r(0, 0.5, 0.2).h(1).ms(1, 0, HALF, 0.3, 0.3)
    return c.rx(1, 0.3).h(0).cz(0, 1).ry(0, 0.4)


def _machine(noise: NoiseParameters, seed: int) -> VirtualIonTrap:
    m = VirtualIonTrap(N, noise=noise, seed=seed)
    m.set_under_rotation((0, 1), 0.2)
    m.set_under_rotation((2, 5), 0.3)
    m.set_under_rotation((3, 9), 0.25)
    m.inject_fault(CouplingPhaseFault(frozenset({2, 3}), 0.4))
    return m


def _plan_case(noise, seed, circuit, expected, n_batch=B, chunk_rows=None):
    slots = realize_slots(_machine(noise, seed), circuit, n_batch)
    return DensePlan(N, slot_skeleton(slots)), slots, expected, chunk_rows


def _rebound_case():
    """The second of two shifted battery tests: a rebound plan."""
    m = _machine(SEC6, 41)
    cache = DensePlanCache()
    specs = [s for s in battery_specs(N, 2) if s.kind == "class"][:2]
    for spec in specs:
        circuit = build_test_circuit(spec, N)
        slots = realize_slots(m, circuit, B)
        plan, _ = cache.get(N, slot_skeleton(slots))
    assert cache.rebinds == 1
    return plan, slots, expected_output(spec, N), None


def _cases() -> dict:
    cases = {}
    for n_local in (2, 4, 6, 8):
        for reps in (2, 4):
            cases[f"battery-{n_local}q-{reps}ms"] = (
                lambda n=n_local, r=reps: _plan_case(
                    SEC6, 10 * n + r, *_battery_test(n, r)
                )
            )
    cases["swapped-ms-kicks"] = lambda: _plan_case(SEC6, 21, _swapped(4), 0)
    cases["swapped-ms-no-kicks"] = lambda: _plan_case(
        NO_KICKS, 22, _swapped(3), _bit(2) | _bit(5)
    )
    cases["mixed-r-fixed"] = lambda: _plan_case(
        KICKS_1Q, 23, _mixed(), _bit(0) | _bit(5)
    )
    cases["mixed-no-kicks"] = lambda: _plan_case(
        NO_KICKS, 24, _mixed(), _bit(1) | _bit(2) | _bit(5)
    )
    split = {"bare-then-merged": True, "merged-then-bare": False}
    for order, bare_first in split.items():
        cases[f"split-ms-{order}"] = lambda b=bare_first: _plan_case(
            NO_KICKS, 28 + b, _split_ms(b), _bit(0) | _bit(2) | _bit(3)
        )
    cases["generic-1q-run"] = lambda: _plan_case(
        KICKS_1Q, 25, _generic(), _bit(0) | _bit(2)
    )
    cases["chunked-8q"] = lambda: _plan_case(
        SEC6, 27, *_battery_test(8, 2), n_batch=7, chunk_rows=2
    )
    cases["rebound"] = _rebound_case
    cases["chain-1-link"] = lambda: _plan_case(AMPLITUDE, 31, _pair_chain(1), 0)
    cases["chain-3-links"] = lambda: _plan_case(SEC6, 32, _pair_chain(1), 0)
    cases["chain-8-links"] = lambda: _plan_case(
        KICKS_1Q, 33, _eight_links(), _bit(3) | _bit(9)
    )
    cases["ms-only-phase-fault"] = lambda: _plan_case(
        AMPLITUDE, 34, Circuit(N).ms(2, 3, HALF).ms(2, 3, HALF).ms(2, 3, HALF), 0
    )
    cases["mixed-chain"] = lambda: _plan_case(
        KICKS_1Q, 35, _mixed_chain(), _bit(1)
    )
    return cases


CASES = _cases()


def _case(name: str):
    """``(plan, realized slots, expected, rows per chunk)`` of a case."""
    return CASES[name]()


def _recorded() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(_recorded()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_probabilities_equal_recorded_bits(name, amplitude_cap):
    plan, slots, expected, chunk_rows = _case(name)
    amplitude_cap(chunk_rows, plan.n_local)
    got = plan.probabilities(slot_blocks(slots), expected)
    want = np.array([float.fromhex(h) for h in _recorded()[name]])
    assert got.shape == want.shape
    assert np.array_equal(got, want), name


@pytest.mark.parametrize("name", sorted(CASES))
def test_states_match_per_realization_statevector(name):
    plan, slots, _, _ = _case(name)
    states = plan.states(slot_blocks(slots))
    for g in range(states.shape[0]):
        sim = StatevectorSimulator(plan.n_local)
        for slot in slots:
            op = Operation(slot.gate, slot.qubits, tuple(slot.params[g]))
            sim.apply_gate(op.matrix(), tuple(plan.index[q] for q in op.qubits))
        assert np.max(np.abs(states[g] - sim.state)) < 1e-12, name
