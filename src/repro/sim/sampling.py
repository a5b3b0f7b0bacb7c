"""Measurement sampling and counts post-processing.

The machine returns measurement results as ``{bitstring_int: count}`` maps
(`Counts`).  This module provides the small algebra the protocols need on
top of them: match fractions against an expected output, merged counts,
and Bernoulli shot sampling when only a scalar pass
probability is known (the fast XX engine computes the probability of the
expected bitstring directly, so full distributions are unnecessary).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Counts",
    "total_shots",
    "match_fraction",
    "sample_bernoulli_counts_batch",
    "sample_counts_from_probs",
    "merge_counts",
]

#: Measurement results: basis-state integer -> number of shots observed.
Counts = dict[int, int]


def total_shots(counts: Counts) -> int:
    """Total number of shots recorded in ``counts``."""
    return sum(counts.values())


def match_fraction(counts: Counts, expected: int) -> float:
    """Fraction of shots that returned the ``expected`` bitstring.

    This is the measured *target-state fidelity* of a single-output test
    (Sec. VI): the test passes when the fraction stays above threshold.
    """
    n = total_shots(counts)
    if n == 0:
        raise ValueError("empty counts")
    return counts.get(expected, 0) / n


def sample_bernoulli_counts_batch(
    p_matches: np.ndarray,
    expected: int,
    shots_per_group: np.ndarray,
    rng: np.random.Generator,
    mismatch_state: int | None = None,
) -> Counts:
    """Counts when only each group's expected-state probability is known.

    Draws ``Binomial(shots_per_group[g], p_matches[g])`` matches for every
    noise-realization group in one vectorized call; the groups all target
    the same ``expected`` bitstring, so their matches merge into one
    count.  All non-matching shots are lumped into ``mismatch_state``
    (default: ``expected ^ 1``, an arbitrary distinct state), which is
    enough for pass/fail statistics: they only look at the expected
    bitstring's fraction.
    """
    p = np.asarray(p_matches, dtype=float)
    shots = np.asarray(shots_per_group, dtype=np.int64)
    if p.shape != shots.shape:
        raise ValueError("p_matches and shots_per_group must align")
    # One reduction per check; an empty batch has nothing to check.
    if p.size:
        if shots.min() <= 0:
            raise ValueError("shots must be positive")
        if p.min() < -1e-9 or p.max() > 1.0 + 1e-9:
            raise ValueError("match probabilities outside [0, 1]")
    # np.clip's result, without its dispatch.
    p = np.minimum(np.maximum(p, 0.0), 1.0)
    matches = int(rng.binomial(shots, p).sum())
    total = int(shots.sum())
    counts: Counts = {}
    if matches:
        counts[expected] = matches
    if matches < total:
        other = mismatch_state if mismatch_state is not None else expected ^ 1
        counts[other] = counts.get(other, 0) + (total - matches)
    return counts


def sample_counts_from_probs(
    probs: np.ndarray, shots: int, rng: np.random.Generator
) -> Counts:
    """Multinomial counts over a full probability vector, in one draw.

    This replaces per-shot (or per-outcome ``choice``) sampling loops: one
    ``Multinomial(shots, probs)`` draw allocates all shots across the 2^n
    basis states at once.  Only nonzero-count outcomes appear in the map.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    p = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    total = p.sum()
    if total <= 0:
        raise ValueError("probability vector sums to zero")
    draws = rng.multinomial(shots, p / total)
    hits = np.nonzero(draws)[0]
    return {int(k): int(draws[k]) for k in hits}





def merge_counts(*count_maps: Counts) -> Counts:
    """Sum several counts maps (e.g. repeated runs of the same circuit)."""
    out: Counts = {}
    for counts in count_maps:
        for k, v in counts.items():
            out[k] = out.get(k, 0) + v
    return out
