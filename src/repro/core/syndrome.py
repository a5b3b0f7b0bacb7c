"""Syndromes: what failing class tests reveal about fault locations.

A *syndrome* is the set of failing round-1 class tests ``(i, b)``.  For a
single faulty coupling it equals the pair's shared bits (Corollary V.8);
its length ``L`` fixes ``L`` bit positions and leaves ``2^{n-L-1}``
candidate pairs, bit-complementary in the free positions (Lemma V.9).

For multiple simultaneous faults the observed syndrome is the *union* of
the individual ones, and distinct fault sets can collide on the same
union — the effect quantified by Table II.  :func:`count_explanations`
counts how many fault sets of a given size could explain an observed
union, via a pruned DFS over bitmask-encoded syndromes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import (
    all_couplings,
    bit,
    num_bits,
    syndrome_of_pair,
)

__all__ = [
    "Syndrome",
    "candidates_for_syndrome",
    "syndrome_mask",
    "union_syndrome_mask",
    "count_explanations",
]

Pair = frozenset[int]
Entry = tuple[int, int]


@dataclass(frozen=True)
class Syndrome:
    """A set of failing ``(i, b)`` class tests on an n-bit index space."""

    entries: frozenset[Entry]
    n_bits: int

    def __post_init__(self) -> None:
        for i, b in self.entries:
            if not 0 <= i < self.n_bits:
                raise ValueError(f"bit index {i} out of range")
            if b not in (0, 1):
                raise ValueError("bit value must be 0 or 1")

    @property
    def length(self) -> int:
        return len(self.entries)

    def is_single_fault_consistent(self) -> bool:
        """Corollary V.8: a single fault never fails both ``(i,0)`` and
        ``(i,1)``; repeated bit positions implicate multiple faults."""
        positions = [i for i, _ in self.entries]
        return len(positions) == len(set(positions))

    def fixed_positions(self) -> dict[int, int]:
        """Bit positions (and values) pinned by the syndrome."""
        if not self.is_single_fault_consistent():
            raise ValueError("syndrome has repeated bit positions")
        return {i: b for i, b in self.entries}

    def free_positions(self) -> list[int]:
        """Bit positions left open, ascending."""
        fixed = self.fixed_positions()
        return [i for i in range(self.n_bits) if i not in fixed]


def candidates_for_syndrome(
    syndrome: Syndrome,
    n_qubits: int,
    relevant: set[Pair] | None = None,
) -> list[Pair]:
    """All pairs that would produce exactly this syndrome (Lemma V.9).

    Construction: both endpoints carry the fixed bits; the free bits of
    one endpoint range over all assignments and the other endpoint takes
    their complement.  Padding (endpoints >= ``n_qubits``) and relevance
    filtering remove pairs that cannot exist on the machine.
    """
    n = num_bits(n_qubits)
    if syndrome.n_bits != n:
        raise ValueError("syndrome sized for a different machine")
    fixed = syndrome.fixed_positions()
    free = syndrome.free_positions()
    if not free:
        # Impossible for distinct integers: they must differ somewhere.
        return []
    base = 0
    for i, b in fixed.items():
        base |= b << i
    free_mask = 0
    for i in free:
        free_mask |= 1 << i
    out: list[Pair] = []
    # Fix the lowest free bit of the first endpoint to 0 to enumerate each
    # pair once (its partner has that bit = 1).
    lead = free[0]
    rest = free[1:]
    for assignment in range(1 << len(rest)):
        x = base
        for k, pos in enumerate(rest):
            if (assignment >> k) & 1:
                x |= 1 << pos
        y = x ^ free_mask
        if x >= n_qubits or y >= n_qubits:
            continue
        pair = frozenset((x, y))
        if relevant is not None and pair not in relevant:
            continue
        out.append(pair)
    return sorted(out, key=sorted)


# -- multi-fault explanation counting (Table II) --------------------------------


def syndrome_mask(pair: Pair, n_qubits: int) -> int:
    """Bitmask encoding of a pair's syndrome: entry ``(i, b)`` -> bit 2i+b."""
    mask = 0
    for i, b in syndrome_of_pair(pair, n_qubits):
        mask |= 1 << (2 * i + b)
    return mask


def union_syndrome_mask(pairs: list[Pair], n_qubits: int) -> int:
    """Observed round-1 syndrome of simultaneous faults: the union."""
    mask = 0
    for p in pairs:
        mask |= syndrome_mask(p, n_qubits)
    return mask


def count_explanations(
    observed_mask: int,
    k_faults: int,
    n_qubits: int,
    relevant: list[Pair] | None = None,
    limit: int = 2,
) -> int:
    """Count fault sets of size ``k_faults`` whose syndrome union matches.

    Counting stops early at ``limit`` (uniqueness checks only need to know
    whether a second explanation exists).  A candidate pair must have its
    syndrome contained in the observed union; sets must *cover* the union
    exactly.

    This implements Table II's notion of syndromes "repeating with the
    increased number of faults": identification succeeds iff exactly one
    explanation of the observed size exists.
    """
    pairs = relevant if relevant is not None else all_couplings(n_qubits)
    masks = [syndrome_mask(p, n_qubits) for p in pairs]
    candidates = [m for m in masks if m & ~observed_mask == 0]
    candidates.sort(reverse=True)
    found = 0

    def dfs(start: int, chosen: int, union: int) -> None:
        nonlocal found
        if found >= limit:
            return
        if chosen == k_faults:
            if union == observed_mask:
                found += 1
            return
        remaining = k_faults - chosen
        for idx in range(start, len(candidates) - remaining + 1):
            dfs(idx + 1, chosen + 1, union | candidates[idx])
            if found >= limit:
                return

    dfs(0, 0, 0)
    return found
