"""Batched sampling primitives: multinomial counts and grouped binomials."""

import numpy as np
import pytest

from repro.sim.sampling import (
    sample_bernoulli_counts_batch,
    sample_counts_from_probs,
)


def test_multinomial_counts_conserve_shots(rng):
    probs = np.array([0.5, 0.25, 0.125, 0.125])
    counts = sample_counts_from_probs(probs, 10_000, rng)
    assert sum(counts.values()) == 10_000
    assert counts[0] == pytest.approx(5000, abs=300)


def test_multinomial_counts_deterministic_per_seed():
    probs = np.array([0.7, 0.3])
    first = sample_counts_from_probs(probs, 500, np.random.default_rng(42))
    second = sample_counts_from_probs(probs, 500, np.random.default_rng(42))
    assert first == second


def test_multinomial_counts_clip_negatives(rng):
    """Tiny negative float-error probabilities are clipped, not fatal."""
    probs = np.array([1.0, -1e-15])
    counts = sample_counts_from_probs(probs, 100, rng)
    assert counts == {0: 100}


def test_multinomial_counts_rejects_bad_input(rng):
    with pytest.raises(ValueError):
        sample_counts_from_probs(np.array([0.0, 0.0]), 10, rng)
    with pytest.raises(ValueError):
        sample_counts_from_probs(np.array([1.0]), 0, rng)


def test_bernoulli_batch_matches_per_group_distribution():
    """One vectorized draw matches merged per-group draws statistically."""
    p = np.array([0.9, 0.8, 0.7, 0.6])
    shots = np.array([250, 250, 250, 250])
    batched = sample_bernoulli_counts_batch(
        p, expected=0, shots_per_group=shots, rng=np.random.default_rng(1)
    )
    rng = np.random.default_rng(1)
    looped = sum(int(rng.binomial(int(si), pi)) for pi, si in zip(p, shots))
    assert sum(batched.values()) == 1000
    assert batched[0] == pytest.approx(looped, abs=60)


def test_bernoulli_batch_validates_input(rng):
    with pytest.raises(ValueError):
        sample_bernoulli_counts_batch(
            np.array([0.5]), 0, np.array([0]), rng
        )
    with pytest.raises(ValueError):
        sample_bernoulli_counts_batch(
            np.array([1.5]), 0, np.array([10]), rng
        )
    with pytest.raises(ValueError):
        sample_bernoulli_counts_batch(
            np.array([0.5, 0.5]), 0, np.array([10]), rng
        )
