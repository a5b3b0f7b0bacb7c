"""RetryPolicy arithmetic: validation, attempt counts and seeded backoff."""

import pytest

from repro.exec.retry import RetryPolicy


def test_policy_rejects_nonsense():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(timeout=0.0)


def test_allows_retry_counts_total_attempts():
    policy = RetryPolicy(max_attempts=3)
    assert policy.allows_retry(0)
    assert policy.allows_retry(1)
    assert not policy.allows_retry(2)
    assert not RetryPolicy(max_attempts=1).allows_retry(0)


def test_zero_delay_fast_path_never_jitters():
    """base_delay=0 retries reschedule immediately at every attempt."""
    policy = RetryPolicy(max_attempts=50, base_delay=0.0, jitter=0.9)
    assert all(
        policy.delay_before("any-key", attempt) == 0.0 for attempt in range(50)
    )


def test_delay_before_is_deterministic_and_bounded():
    policy = RetryPolicy(
        max_attempts=8, base_delay=0.5, backoff=2.0, max_delay=3.0, jitter=0.2
    )
    for attempt in range(1, 8):
        delay = policy.delay_before("cell-a", attempt)
        # Byte-identical on replay: reruns schedule the same backoff.
        assert delay == policy.delay_before("cell-a", attempt)
        raw = min(3.0, 0.5 * 2.0 ** (attempt - 1))
        assert raw <= delay <= raw * 1.2
    # Attempt 0 never waits.
    assert policy.delay_before("cell-a", 0) == 0.0
    # Distinct keys de-synchronize their jitter (thundering-herd guard).
    delays_a = [policy.delay_before("cell-a", k) for k in range(1, 6)]
    delays_b = [policy.delay_before("cell-b", k) for k in range(1, 6)]
    assert delays_a != delays_b


def test_delay_caps_at_max_delay():
    policy = RetryPolicy(
        max_attempts=20, base_delay=1.0, backoff=3.0, max_delay=2.0, jitter=0.0
    )
    assert policy.delay_before("k", 10) == 2.0
