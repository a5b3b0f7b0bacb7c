"""The runner's resilient execution wiring: fan_out guards, SweepResult
back-compat, journaled resume and graceful degradation."""

import json
import os

import pytest

from repro.analysis import runner
from repro.exec.journal import load_journal
from repro.exec.outcomes import AttemptRecord, JobOutcome
from repro.exec.retry import RetryPolicy


def _double(x):
    return 2 * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _pid(_):
    return os.getpid()


@pytest.fixture(autouse=True)
def _clean_chaos_env(monkeypatch):
    from repro.exec.chaos import CHAOS_ENV_VARS

    for name in CHAOS_ENV_VARS:
        monkeypatch.delenv(name, raising=False)


# ---------------------------------------------------------------- fan_out


def test_fan_out_empty_items_returns_empty():
    """Regression: empty input must short-circuit on every path."""
    assert runner.fan_out(_double, [], jobs=1) == []
    assert runner.fan_out(_double, [], jobs=4) == []
    assert runner.fan_out(_double, iter([]), jobs=2) == []


def test_fan_out_nonpositive_jobs_clamps_to_serial():
    assert runner.fan_out(_double, [1, 2, 3], jobs=0) == [2, 4, 6]
    assert runner.fan_out(_double, [1, 2], jobs=-5) == [2, 4]


def test_fan_out_accepts_generators():
    assert runner.fan_out(_double, (x for x in [1, 2, 3]), jobs=1) == [2, 4, 6]


def test_fan_out_supervised_pool_returns_in_input_order():
    items = [1, 2, 3, 4]
    assert runner.fan_out(_double, items, jobs=2) == [2, 4, 6, 8]


def test_fan_out_runs_inline_without_supervision():
    """One job, or one item, with no policy or timeout stays in-process."""
    here = os.getpid()
    assert runner.fan_out(_pid, [1, 2], jobs=1) == [here, here]
    assert runner.fan_out(_pid, [1], jobs=4) == [here]


def test_fan_out_parallel_jobs_run_in_worker_processes():
    pids = runner.fan_out(_pid, [1, 2, 3, 4], jobs=2)
    assert len(pids) == 4
    assert os.getpid() not in pids


@pytest.mark.parametrize(
    "force",
    [{"policy": RetryPolicy(max_attempts=1)}, {"timeout": 60.0}],
    ids=["policy", "timeout"],
)
def test_fan_out_policy_or_timeout_forces_a_worker_process(force):
    """Crash isolation is the point of a policy or timeout, even at jobs=1."""
    (pid,) = runner.fan_out(_pid, [1], jobs=1, **force)
    assert pid != os.getpid()


def test_fan_out_parallel_failure_reraises_original_exception_type():
    with pytest.raises(ValueError, match="boom"):
        runner.fan_out(_boom, [1, 2, 3], jobs=2)


def test_fan_out_reraises_original_exception_type():
    with pytest.raises(ValueError, match="boom"):
        runner.fan_out(_boom, [1], jobs=1, policy=RetryPolicy(max_attempts=1))


def test_fan_out_retries_through_policy():
    """A policy turns fan_out into a supervised call even at jobs=1."""
    outcomes_seen = runner.fan_out(
        _double, [5], jobs=1, policy=RetryPolicy(max_attempts=2)
    )
    assert outcomes_seen == [10]


# ---------------------------------------------------------- SweepResult


def _fake_sweep_result(statuses):
    points = [{"seed": i} for i in range(len(statuses))]
    outcomes = []
    for i, status in enumerate(statuses):
        failed = status in ("gave_up", "crashed", "timed_out")
        outcomes.append(
            JobOutcome(
                index=i,
                key=f"k{i}",
                status=status,
                attempts=(
                    [
                        AttemptRecord(
                            attempt=0,
                            cause="error",
                            error_type="ValueError",
                            message="x",
                        )
                    ]
                    if failed
                    else []
                ),
                value=None if failed else f"record-{i}",
            )
        )
    return runner.SweepResult(
        name="fig8",
        preset="smoke",
        points=points,
        digests=[f"d{i}" for i in range(len(statuses))],
        outcomes=outcomes,
        sweep_digest="deadbeef",
    )


def test_sweep_result_back_compat_iteration_and_indexing():
    result = _fake_sweep_result(["ok", "retried", "resumed"])
    assert len(result) == 3
    assert result[0] == ({"seed": 0}, "record-0")
    assert [record for _, record in result] == [
        "record-0",
        "record-1",
        "record-2",
    ]
    assert result.complete
    assert result.completeness == 1.0


def test_sweep_result_degradation_section():
    result = _fake_sweep_result(["ok", "gave_up", "retried", "crashed"])
    assert not result.complete
    assert result.completeness == 0.5
    degradation = result.degradation()
    assert degradation["n_points"] == 4
    assert degradation["n_completed"] == 2
    assert degradation["n_failed"] == 2
    assert degradation["statuses"] == {
        "ok": 1,
        "gave_up": 1,
        "retried": 1,
        "crashed": 1,
    }
    assert [f["point"] for f in degradation["failures"]] == [
        {"seed": 1},
        {"seed": 3},
    ]
    json.dumps(degradation)  # must be JSON-able as written


def test_gate_sweep_raises_below_floor():
    result = _fake_sweep_result(["ok", "gave_up"])
    with pytest.raises(runner.SweepDegradedError) as excinfo:
        runner._gate_sweep(result, min_complete=1.0)
    assert excinfo.value.result is result
    # A 50% floor accepts the same partial result.
    completed = runner._gate_sweep(result, min_complete=0.5)
    assert len(completed) == 1
    # Nothing completed is never acceptable, whatever the floor.
    with pytest.raises(runner.SweepDegradedError):
        runner._gate_sweep(_fake_sweep_result(["gave_up"]), min_complete=0.0)


# ------------------------------------------------------ journal + resume


def test_run_sweep_journals_and_resumes_without_recompute(tmp_path):
    journal = tmp_path / "sweep.journal.jsonl"
    sweep = {"shots": [110, 130], "repetitions": [2, 4]}
    first = runner.run_sweep(
        "fig10", sweep, preset="smoke", cache_dir=tmp_path / "cache",
        journal=journal,
    )
    assert first.complete
    state = load_journal(journal)
    assert len(state["finished"]) == 4
    assert state["begins"][0]["sweep_digest"] == first.sweep_digest

    resumed = runner.run_sweep(
        "fig10", sweep, preset="smoke", cache_dir=tmp_path / "cache",
        journal=journal, resume=True,
    )
    assert resumed.complete
    assert [o.status for o in resumed.outcomes] == ["resumed"] * 4
    assert all(o.n_attempts == 0 for o in resumed.outcomes)  # zero dispatches
    # Results are equivalent to the original run's, modulo provenance.
    from repro.provenance import payloads_equivalent

    for (_, a), (_, b) in zip(first, resumed):
        assert payloads_equivalent(a.payload, b.payload)


def test_run_sweep_resume_with_partial_journal(tmp_path):
    journal = tmp_path / "sweep.journal.jsonl"
    sweep = {"shots": [110, 130]}
    first = runner.run_sweep(
        "fig10", sweep, preset="smoke", cache_dir=tmp_path / "cache",
        journal=journal,
    )
    # Keep the begin record and the *first* finished record only —
    # exactly what a kill -9 after one cell leaves behind.
    lines = journal.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    kept = [
        line
        for line, record in zip(lines, records)
        if record["type"] == "begin"
        or record["key"] == first.digests[0]
    ]
    journal.write_text("\n".join(kept) + "\n")

    resumed = runner.run_sweep(
        "fig10", sweep, preset="smoke", cache_dir=tmp_path / "cache",
        journal=journal, resume=True,
    )
    assert [o.status for o in resumed.outcomes] == ["resumed", "ok"]
    # The journal now records every cell as finished again.
    assert len(load_journal(journal)["finished"]) == 2


def test_resume_recomputes_journal_finished_cell_with_corrupt_cache(tmp_path):
    """A journal-``finished`` cell whose cache entry was corrupted after
    the journal was written must not be honored on ``--resume``: the
    entry is quarantined and exactly that cell recomputes through the
    pool (status ``ok``), while intact cells stay ``resumed``."""
    journal = tmp_path / "sweep.journal.jsonl"
    cache = tmp_path / "cache"
    sweep = {"shots": [110, 130]}
    first = runner.run_sweep(
        "fig10", sweep, preset="smoke", cache_dir=cache, journal=journal,
    )
    assert first.complete
    assert len(load_journal(journal)["finished"]) == 2

    # Corrupt the first cell's cache entry in place, keeping its
    # integrity stamp: the journal still says "finished", the checksum
    # now disagrees.
    corrupt = runner._cache_path(cache, "fig10", first.digests[0])
    entry = json.loads(corrupt.read_text())
    assert "integrity" in entry
    entry["summary"] = "tampered"
    corrupt.write_text(json.dumps(entry))

    resumed = runner.run_sweep(
        "fig10", sweep, preset="smoke", cache_dir=cache,
        journal=journal, resume=True,
    )
    assert resumed.complete
    assert [o.status for o in resumed.outcomes] == ["ok", "resumed"]
    assert resumed.outcomes[0].n_attempts >= 1  # really recomputed
    assert resumed.outcomes[1].n_attempts == 0  # really resumed
    # The tampered entry went to quarantine and a fresh, valid entry
    # took its place; a second resume trusts the journal again.
    quarantined = list((cache / "quarantine").iterdir())
    assert len(quarantined) == 1
    again = runner.run_sweep(
        "fig10", sweep, preset="smoke", cache_dir=cache,
        journal=journal, resume=True,
    )
    assert [o.status for o in again.outcomes] == ["resumed", "resumed"]


def test_run_sweep_resume_requires_a_journal(tmp_path):
    with pytest.raises(ValueError, match="journal"):
        runner.run_sweep(
            "fig10", {"shots": [110]}, preset="smoke",
            cache_dir=tmp_path, resume=True,
        )


def test_run_sweep_refuses_foreign_journal(tmp_path):
    journal = tmp_path / "sweep.journal.jsonl"
    runner.run_sweep(
        "fig10", {"shots": [110]}, preset="smoke",
        cache_dir=tmp_path / "cache", journal=journal,
    )
    with pytest.raises(ValueError, match="different sweep"):
        runner.run_sweep(
            "fig10", {"shots": [150]}, preset="smoke",
            cache_dir=tmp_path / "cache", journal=journal, resume=True,
        )


# ------------------------------------------------------------ degradation


def test_run_sweep_degrades_instead_of_aborting(tmp_path, monkeypatch):
    """With chaos forcing every attempt to fail, the sweep still returns
    a SweepResult — structured failure, not an exception."""
    monkeypatch.setenv("REPRO_CHAOS_FLAKY_RATE", "1.0")
    result = runner.run_sweep(
        "fig8", {"seed": [1, 2]}, preset="smoke",
        cache_dir=tmp_path, use_cache=False,
    )
    assert not result.complete
    assert result.completeness == 0.0
    assert [o.status for o in result.outcomes] == ["gave_up", "gave_up"]
    assert all(
        o.last_error[0] == "ChaosTransientError" for o in result.outcomes
    )
    assert len(result) == 0  # no completed cells to iterate


def test_run_sweep_retries_absorb_transient_faults(tmp_path, monkeypatch):
    """Chaos keys on (job, attempt): retries escape a flaky first attempt."""
    monkeypatch.setenv("REPRO_CHAOS_FLAKY_RATE", "0.5")
    monkeypatch.setenv("REPRO_CHAOS_SEED", "7")
    result = runner.run_sweep(
        "fig8", {"seed": [1, 2, 3, 4]}, preset="smoke",
        cache_dir=tmp_path, use_cache=False,
        retry=RetryPolicy(max_attempts=12),
    )
    assert result.complete
    statuses = {o.status for o in result.outcomes}
    assert statuses <= {"ok", "retried"}
