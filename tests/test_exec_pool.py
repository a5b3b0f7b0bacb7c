"""The supervised worker pool: isolation, deadlines, retries, ordering.

Job functions live at module level so they pickle under any
multiprocessing start method (the same contract the old
``ProcessPoolExecutor`` path imposed).
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.exec import pool
from repro.exec.chaos import CHAOS_ENV_VARS, CRASH_EXIT_CODE, ChaosConfig, decide
from repro.exec.outcomes import JobFailedError, raise_outcome
from repro.exec.pool import WorkerSet, run_supervised
from repro.exec.retry import RetryPolicy


def _square(x):
    return x * x


def _slow_square(x):
    time.sleep(0.05)
    return x * x


def _stall(_x):
    time.sleep(60)


def _always_raises(x):
    raise ValueError(f"bad item {x}")


def _key_error(_x):
    raise KeyError("missing")


def _crash_once(path):
    """os._exit the worker on first sight of each marker path."""
    if not os.path.exists(path):
        with open(path, "w") as handle:
            handle.write("seen")
        os._exit(41)
    return "recovered"


def _crash_always(_x):
    os._exit(41)


def _square_or_raise(x):
    if x < 0:
        raise ValueError("negative")
    return x * x


def test_empty_items_short_circuits():
    assert run_supervised(_square, []) == []


def test_results_return_in_input_order():
    outcomes = run_supervised(_slow_square, [3, 1, 2, 5, 4], jobs=3)
    assert [o.status for o in outcomes] == ["ok"] * 5
    assert [o.value for o in outcomes] == [9, 1, 4, 25, 16]
    assert [o.index for o in outcomes] == list(range(5))
    assert [o.key for o in outcomes] == [f"job-{i}" for i in range(5)]


def test_worker_crash_is_isolated_and_retried(tmp_path):
    """An os._exit mid-job costs one attempt, not the sweep."""
    markers = [str(tmp_path / f"m{i}") for i in range(3)]
    outcomes = run_supervised(
        _crash_once, markers, jobs=2, policy=RetryPolicy(max_attempts=2)
    )
    assert [o.status for o in outcomes] == ["retried"] * 3
    assert all(o.value == "recovered" for o in outcomes)
    assert all(o.causes == ["crashed"] for o in outcomes)
    assert all(
        o.attempts[0].error_type == "WorkerCrashed" for o in outcomes
    )


def test_crash_exhaustion_lands_in_crashed_state():
    outcomes = run_supervised(
        _crash_always, [1], policy=RetryPolicy(max_attempts=2)
    )
    assert outcomes[0].status == "crashed"
    assert outcomes[0].n_attempts == 2
    assert "exit code 41" in outcomes[0].attempts[-1].message


def test_stalled_worker_is_killed_at_the_deadline():
    start = time.monotonic()
    outcomes = run_supervised(_stall, ["x"], timeout=0.3)
    assert time.monotonic() - start < 10  # not the 60s stall
    assert outcomes[0].status == "timed_out"
    assert outcomes[0].attempts[0].error_type == "AttemptTimeout"


def test_exception_exhaustion_gives_up_with_detail():
    outcomes = run_supervised(
        _always_raises, [7], policy=RetryPolicy(max_attempts=3)
    )
    outcome = outcomes[0]
    assert outcome.status == "gave_up"
    assert outcome.causes == ["error", "error", "error"]
    error_type, message = outcome.last_error
    assert error_type == "ValueError"
    assert "bad item 7" in message


def test_mixed_sweep_keeps_successes():
    """One doomed job degrades; the other jobs still complete."""
    outcomes = run_supervised(_square_or_raise, [2, -1, 3], jobs=2)
    assert [o.status for o in outcomes] == ["ok", "gave_up", "ok"]
    assert [o.value for o in outcomes] == [4, None, 9]


def test_on_event_fires_start_and_terminal():
    events = []
    run_supervised(
        _square,
        [2, 3],
        on_event=lambda event, outcome: events.append((event, outcome.key)),
    )
    assert ("started", "job-0") in events
    assert ("started", "job-1") in events
    assert ("finished", "job-0") in events
    assert ("finished", "job-1") in events


def test_keys_must_match_items():
    with pytest.raises(ValueError):
        run_supervised(_square, [1, 2], keys=["only-one"])


def test_custom_keys_flow_into_outcomes():
    outcomes = run_supervised(_square, [2], keys=["cell-a"])
    assert outcomes[0].key == "cell-a"


def test_raise_outcome_reconstructs_builtin_exceptions():
    outcomes = run_supervised(
        _key_error, [1], policy=RetryPolicy(max_attempts=1)
    )
    with pytest.raises(KeyError):
        raise_outcome(outcomes[0])


def test_raise_outcome_wraps_crashes_in_job_failed_error():
    outcomes = run_supervised(_crash_always, [1])
    with pytest.raises(JobFailedError) as excinfo:
        raise_outcome(outcomes[0])
    assert excinfo.value.outcome.status == "crashed"


# ------------------------------------------------------------ cancellation


def test_cancel_before_dispatch_cancels_everything():
    outcomes = run_supervised(_square, [1, 2, 3], cancel=lambda: True)
    assert [o.status for o in outcomes] == ["cancelled"] * 3
    assert all(o.value is None for o in outcomes)
    assert all(not o.ok for o in outcomes)


def test_cancel_mid_flight_kills_running_worker():
    """A cancel raised while a worker stalls kills it within the poll
    interval — the sweep does not wait out the stall."""
    import threading

    flag = threading.Event()
    timer = threading.Timer(0.3, flag.set)
    timer.start()
    try:
        start = time.monotonic()
        outcomes = run_supervised(_stall, ["x", "y"], jobs=1, cancel=flag.is_set)
        elapsed = time.monotonic() - start
    finally:
        timer.cancel()
    assert elapsed < 10  # not the 60s stall
    assert [o.status for o in outcomes] == ["cancelled", "cancelled"]
    # The in-flight attempt is recorded as killed; the queued job never ran.
    assert outcomes[0].attempts and outcomes[0].attempts[0].error_type == "Cancelled"
    assert outcomes[1].attempts == []


# ------------------------------------------------------------ kept workers


def _pid_unless(x):
    """The worker's pid — unless told to crash or stall first."""
    if x == "crash":
        os._exit(41)
    if x == "stall":
        time.sleep(60)
    return os.getpid()


def _pid(_x):
    return os.getpid()


@pytest.fixture()
def worker_set(monkeypatch):
    for name in CHAOS_ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    workers = WorkerSet()
    yield workers
    workers.close()


def _run_pid(workers, item="ok", **kwargs):
    return run_supervised(_pid_unless, [item], worker_set=workers, **kwargs)[0]


def _live_child_pids():
    return [process.pid for process in multiprocessing.active_children()]


def test_calls_sharing_a_worker_set_share_the_worker(worker_set):
    first = _run_pid(worker_set).value
    second = _run_pid(worker_set).value
    assert first == second
    assert _live_child_pids() == [first]


def test_without_a_worker_set_every_call_forks_afresh():
    first = run_supervised(_pid_unless, ["ok"])[0].value
    assert run_supervised(_pid_unless, ["ok"])[0].value != first


@pytest.mark.parametrize(
    "item, kwargs, status",
    [("crash", {}, "crashed"), ("stall", {"timeout": 0.3}, "timed_out")],
)
def test_a_crashed_or_timed_out_worker_is_never_kept(
    worker_set, item, kwargs, status
):
    first = _run_pid(worker_set).value
    assert _run_pid(worker_set, item, **kwargs).status == status
    assert _live_child_pids() == []
    assert _run_pid(worker_set).value != first


def test_a_cancelled_worker_is_never_kept(worker_set):
    first = _run_pid(worker_set).value
    flag = threading.Event()
    timer = threading.Timer(0.3, flag.set)
    timer.start()
    try:
        outcome = _run_pid(worker_set, "stall", cancel=flag.is_set)
    finally:
        timer.cancel()
    assert outcome.status == "cancelled"
    assert _live_child_pids() == []
    assert _run_pid(worker_set).value != first


def test_a_chaos_crash_retires_the_kept_worker(worker_set, monkeypatch):
    config = ChaosConfig(crash_rate=0.5, seed=13)
    for name, value in config.to_env().items():
        monkeypatch.setenv(name, value)
    keys = [f"job-{i}" for i in range(64)]
    survives = next(k for k in keys if decide(config, f"{k}#a0") is None)
    crashes = next(k for k in keys if decide(config, f"{k}#a0") == "crash")

    first = _run_pid(worker_set, keys=[survives]).value
    assert _run_pid(worker_set, keys=[survives]).value == first
    crashed = _run_pid(worker_set, keys=[crashes])
    assert crashed.status == "crashed"
    assert f"exit code {CRASH_EXIT_CODE}" in crashed.attempts[0].message
    assert _run_pid(worker_set, keys=[survives]).value != first


def test_a_changed_chaos_environment_retires_the_kept_worker(
    worker_set, monkeypatch
):
    """Chaos hooks are read from the worker's inherited environment, so
    a worker forked before they were armed must not serve the call."""
    first = _run_pid(worker_set).value
    monkeypatch.setenv("REPRO_CHAOS_CRASH_RATE", "1.0")
    assert _run_pid(worker_set).status == "crashed"
    assert _live_child_pids() == []


def test_a_different_fn_retires_the_kept_worker(worker_set):
    first = _run_pid(worker_set).value
    other = run_supervised(_pid, [0], worker_set=worker_set)[0].value
    assert other != first
    assert _live_child_pids() == [other]


def test_a_kept_worker_found_dead_costs_no_attempt(worker_set):
    first = _run_pid(worker_set).value
    os.kill(first, signal.SIGKILL)
    time.sleep(0.2)
    outcome = _run_pid(worker_set)
    assert outcome.status == "ok" and outcome.n_attempts == 1
    assert outcome.value != first


def test_a_send_error_on_a_kept_worker_costs_no_attempt(worker_set, monkeypatch):
    """A kept worker whose pipe breaks on dispatch is replaced; the job
    neither fails nor spends its only attempt."""
    first = _run_pid(worker_set).value
    dispatch = pool._Worker.dispatch
    broken = []

    def dispatch_once_broken(worker, *args):
        if not worker.fresh and not broken:
            broken.append(worker.process.pid)
            raise BrokenPipeError("pipe closed")
        return dispatch(worker, *args)

    monkeypatch.setattr(pool._Worker, "dispatch", dispatch_once_broken)
    outcome = _run_pid(worker_set)
    assert broken == [first]
    assert outcome.status == "ok" and outcome.n_attempts == 1
    assert outcome.value != first


def test_closing_a_worker_set_stops_its_workers(worker_set):
    _run_pid(worker_set)
    worker_set.close()
    assert _live_child_pids() == []
    # A worker handed back after close is shut down, not kept.
    _run_pid(worker_set)
    assert _live_child_pids() == []


def test_a_worker_forked_beside_others_is_seen_dying(monkeypatch):
    """Workers forked by several threads at once hold none of each
    other's child-side pipe ends, so killing one closes its sentinel and
    its pipe while its siblings live.  Each fork is delayed so that,
    were forks not serialized, every sibling would fork while the
    others' pipes are still open in the supervisor."""
    from multiprocessing.connection import wait

    real_fork = os.fork

    def slow_fork():
        time.sleep(0.1)
        return real_fork()

    monkeypatch.setattr(os, "fork", slow_fork)
    ctx = pool._pool_context("fork")
    workers = []
    start = threading.Barrier(4)

    def spawn():
        start.wait()
        workers.append(pool._Worker(ctx, _square))

    threads = [threading.Thread(target=spawn) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    monkeypatch.undo()
    try:
        assert len(workers) == 4
        # The last worker forked is the one earlier siblings could hold.
        victim = workers[-1]
        victim.process.kill()
        assert wait([victim.process.sentinel], timeout=5)
        assert victim.conn.poll(5)
        with pytest.raises(EOFError):
            victim.conn.recv()
        assert all(w.process.is_alive() for w in workers[:-1])
    finally:
        for worker in workers:
            worker.kill()
