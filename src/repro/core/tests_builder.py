"""Single-output test circuits (Sec. VI).

A *single-output test* applies a stack of MS gates to every coupling in a
test set and checks that the machine returns a unique, known output state:

* with gates repeated ``r = 4k`` times per coupling the circuit is the
  identity (``XX(pi/2)^4 = -I``), so the expected output is all-zeros;
* with ``r = 4k + 2`` repetitions each coupling contributes ``XX(pi) =
  -i X (x) X``, flipping both its qubits, so a qubit ends in ``|1>`` iff
  its degree in the test's coupling multigraph is odd.

A coupling miscalibrated by ``eps`` per gate accumulates ``XX(r * eps)``,
so repetition amplifies small faults — the magnitude-separation knob of
Sec. V-C.  Footnote 8's swap-insertion variant defeats accidental fault
cancellation by rerouting one qubit of a suspect coupling mid-test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..sim.circuit import Circuit, Operation

__all__ = ["TestSpec", "expected_output", "build_test_circuit"]

Pair = frozenset[int]


@dataclass(frozen=True)
class TestSpec:
    """A single-output test: which couplings, how many gate repetitions.

    Attributes
    ----------
    name:
        Human-readable identifier (e.g. ``"class(2,1)"``).
    pairs:
        Couplings exercised by the test.
    repetitions:
        MS gates stacked per coupling; must be even so the ideal circuit
        has a deterministic computational-basis output.
    kind:
        Protocol role: ``"class"``, ``"equal-bits"``, ``"canary"``,
        ``"verify"``, ``"point"`` or ``"subset"``.
    metadata:
        Free-form annotations (class indices, round number, ...).
    """

    __test__ = False  # not a pytest test class

    name: str
    pairs: tuple[Pair, ...]
    repetitions: int = 2
    kind: str = "class"
    metadata: tuple[tuple[str, object], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.repetitions < 2 or self.repetitions % 2 != 0:
            raise ValueError("repetitions must be even and >= 2")
        for p in self.pairs:
            if len(p) != 2:
                raise ValueError("couplings join exactly two qubits")

    def qubits(self) -> set[int]:
        """All qubits touched by this test's couplings."""
        out: set[int] = set()
        for p in self.pairs:
            out.update(p)
        return out

    def meta(self) -> dict[str, object]:
        """Loggable summary of the spec (name, size, depth, kind)."""
        return dict(self.metadata)


def expected_output(spec: TestSpec, n_qubits: int) -> int:
    """Ideal output bitstring of the test on a fault-free machine.

    Qubit ``q`` reads ``1`` iff ``repetitions % 4 == 2`` and ``q`` has odd
    degree in the coupling multigraph (each coupling then applies a net
    ``X (x) X``).
    """
    if spec.repetitions % 4 == 0:
        return 0
    degree: dict[int, int] = {}
    for p in spec.pairs:
        for q in p:
            degree[q] = degree.get(q, 0) + 1
    out = 0
    for q, d in degree.items():
        if q >= n_qubits:
            raise ValueError(f"test touches qubit {q} beyond machine size")
        if d % 2 == 1:
            out |= 1 << (n_qubits - 1 - q)
    return out


def build_test_circuit(
    spec: TestSpec,
    n_qubits: int,
    theta: float = math.pi / 2.0,
    swap_insertion: dict[Pair, int] | None = None,
) -> Circuit:
    """Materialize a test spec as a nominal circuit.

    Parameters
    ----------
    spec:
        The test to build.
    n_qubits:
        Machine size.
    theta:
        Nominal MS angle per gate (pi/2: fully entangling).
    swap_insertion:
        Optional footnote-8 cancellation breaker: maps a suspect coupling
        to a *spare* qubit; halfway through that coupling's gate stack one
        endpoint is swapped out to the spare, the remaining repetitions run
        on the rerouted coupling, and the swap is undone.  An eps-per-gate
        fault that cancels after ``r`` repetitions (``r * eps = 2 pi``) no
        longer cancels, because only half the repetitions hit the faulty
        coupling.
    """
    circ = Circuit(n_qubits)
    swap_insertion = swap_insertion or {}
    for pair in spec.pairs:
        q1, q2 = sorted(pair)
        if pair in swap_insertion:
            spare = swap_insertion[pair]
            if spare in pair or not 0 <= spare < n_qubits:
                raise ValueError(f"invalid spare qubit {spare} for {sorted(pair)}")
            half = spec.repetitions // 2
            circ.extend([_ms(q1, q2, theta)] * half)
            circ.swap(q2, spare)
            circ.extend([_ms(q1, spare, theta)] * (spec.repetitions - half))
            circ.swap(q2, spare)
        else:
            circ.extend([_ms(q1, q2, theta)] * spec.repetitions)
    return circ


def _ms(q1: int, q2: int, theta: float) -> Operation:
    """One nominal MS gate, shared by every repetition of a stack."""
    return Operation("MS", (q1, q2), (theta, 0.0, 0.0))
