"""Subcube-class combinatorics of Sec. V-A.

Qubits are indexed ``0 .. N-1`` and viewed as n-bit integers,
``n = ceil(log2 N)`` (non-powers of two are handled by padding: classes
simply omit indices >= N, Corollary V.12 guarantees the tests still
distinguish the remaining couplings).

Two families of classes drive the protocol:

* ``(i, b)`` — all integers whose i-th bit equals ``b`` (2n classes).
  A pair of distinct integers lies inside ``(i, b)`` iff both share bit
  value ``b`` at position ``i`` (Lemma V.1); bit-complementary pairs lie
  in no class.
* ``[j, =]`` / ``[j, !=]`` for ``0 < j < n`` — integers whose bits at
  positions ``j-1`` and ``j`` are equal / unequal.  Every
  bit-complementary pair lies wholly inside exactly one of the two
  (Lemma V.5), and the failure pattern over the ``[j, =]`` classes — the
  pair's consecutive-XOR signature — identifies it uniquely
  (Theorem V.7).  Footnote 7: ``[j,=] = (GrayCode(j), 0)`` as subsets.

Bit position 0 is the **least-significant** bit throughout, matching the
examples in the paper (e.g. for n = 3, class ``(0, 0) = {0, 2, 4, 6}``).
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

__all__ = [
    "num_bits",
    "bit",
    "subcube_class",
    "class_pairs",
    "shared_bits",
    "syndrome_of_pair",
    "all_couplings",
]

Pair = frozenset[int]


def num_bits(n_qubits: int) -> int:
    """Bits needed to index ``n_qubits`` qubits: ``ceil(log2 N)``, min 1."""
    if n_qubits < 2:
        raise ValueError("need at least two qubits")
    return max(1, math.ceil(math.log2(n_qubits)))


def bit(value: int, i: int) -> int:
    """The i-th bit of ``value`` (LSB is position 0)."""
    return (value >> i) & 1


def subcube_class(i: int, b: int, n_qubits: int) -> list[int]:
    """Class ``(i, b)``: qubit indices whose i-th bit equals ``b``.

    Indices at or beyond ``n_qubits`` are omitted (padding).
    """
    n = num_bits(n_qubits)
    if not 0 <= i < n:
        raise ValueError(f"bit index {i} out of range for n={n}")
    if b not in (0, 1):
        raise ValueError("bit value must be 0 or 1")
    return [q for q in range(n_qubits) if bit(q, i) == b]


def class_pairs(
    members: list[int], relevant: set[Pair] | None = None
) -> list[Pair]:
    """All couplings inside a class, optionally intersected with a
    relevant set (Corollary V.12: unused couplings are simply excluded)."""
    pairs = _member_pairs(tuple(sorted(members)))
    if relevant is None:
        return list(pairs)
    return [p for p in pairs if p in relevant]


@functools.lru_cache(maxsize=256)
def _member_pairs(members: tuple[int, ...]) -> tuple[Pair, ...]:
    """Every pair of sorted ``members``, built once per member tuple."""
    return tuple(frozenset(p) for p in combinations(members, 2))


def shared_bits(p: int, q: int, n: int) -> list[tuple[int, int]]:
    """Positions (and values) where two integers agree, as ``(i, b)``."""
    return [(i, bit(p, i)) for i in range(n) if bit(p, i) == bit(q, i)]


def syndrome_of_pair(pair: Pair, n_qubits: int) -> frozenset[tuple[int, int]]:
    """The set of ``(i, b)`` class tests a faulty ``pair`` would fail.

    Exactly the classes containing both endpoints — i.e. the shared bits
    (Corollary V.8: at most n-1 entries, no repeated ``i``).
    """
    p, q = sorted(pair)
    n = num_bits(n_qubits)
    return frozenset(shared_bits(p, q, n))


def all_couplings(n_qubits: int) -> list[Pair]:
    """Every coupling of an ``n_qubits`` machine."""
    return [frozenset(p) for p in combinations(range(n_qubits), 2)]
