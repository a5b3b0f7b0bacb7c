"""Crash-safe sweep journals: atomic appends, torn tails, ownership."""

import json

import pytest

from repro.exec.journal import JournalWriter, load_journal
from repro.exec.outcomes import AttemptRecord


def _write_journal(path, digest="abcd1234abcd1234", n=3):
    with JournalWriter(path) as writer:
        writer.begin("fig8", digest, n, {"repro_version": "x"})
        writer.record_outcome(0, "cell-0", "ok", [])
        writer.record_outcome(
            1,
            "cell-1",
            "gave_up",
            [AttemptRecord(attempt=0, cause="error").to_payload()],
        )
    return path


def test_round_trip_partitions_finished_and_failed(tmp_path):
    path = _write_journal(tmp_path / "s.journal.jsonl")
    state = load_journal(path)
    assert set(state["finished"]) == {"cell-0"}
    assert set(state["failed"]) == {"cell-1"}
    assert state["begins"][0]["n_points"] == 3
    assert state["begins"][0]["sweep_digest"] == "abcd1234abcd1234"


def test_each_record_is_one_complete_line(tmp_path):
    """One os.write per record: a reader never sees a half-record
    except possibly the final line."""
    path = _write_journal(tmp_path / "s.journal.jsonl")
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert all(json.loads(line) for line in lines)


def test_torn_final_line_is_tolerated(tmp_path):
    """A kill -9 mid-append truncates the last line; resume shrugs."""
    path = _write_journal(tmp_path / "s.journal.jsonl")
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 17])  # tear the final record
    state = load_journal(path)
    assert set(state["finished"]) == {"cell-0"}
    assert state["failed"] == {}


def test_interior_corruption_is_an_error(tmp_path):
    path = _write_journal(tmp_path / "s.journal.jsonl")
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:10]  # torn *interior* line: not a crash artifact
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="corrupt"):
        load_journal(path)


def test_foreign_journal_is_refused(tmp_path):
    """Resuming against another sweep's journal must not silently skip."""
    path = _write_journal(tmp_path / "s.journal.jsonl", digest="aaaa0000aaaa0000")
    with pytest.raises(ValueError, match="different sweep"):
        load_journal(path, sweep_digest="bbbb1111bbbb1111")
    # The owning digest loads fine.
    assert load_journal(path, sweep_digest="aaaa0000aaaa0000")["finished"]


def test_finished_supersedes_failed_across_invocations(tmp_path):
    """A cell that failed once and finished on a later run counts as
    finished (and vice-versa ordering within the log wins for failures
    recorded after a finish is impossible by construction)."""
    path = tmp_path / "s.journal.jsonl"
    with JournalWriter(path) as writer:
        writer.begin("fig8", "abcd", 1, {})
        writer.record_outcome(
            0,
            "cell-0",
            "gave_up",
            [AttemptRecord(attempt=0, cause="error").to_payload()],
        )
    with JournalWriter(path) as writer:
        writer.record_outcome(0, "cell-0", "retried", [])
    state = load_journal(path)
    assert set(state["finished"]) == {"cell-0"}
    assert "cell-0" not in state["failed"]


def test_reopening_after_torn_tail_truncates_before_appending(tmp_path):
    """Appending after a kill-left torn tail must not fuse the fragment
    with the next record into corrupt *interior* bytes: reopening the
    writer truncates back to the last complete record first."""
    path = _write_journal(tmp_path / "fig8.journal.jsonl")
    with open(path, "a") as handle:
        handle.write('{"type": "finished", "index": 2, "ke')  # torn, no \n
    with JournalWriter(path) as writer:
        writer.record_outcome(2, "cell-2", "ok", [])
    state = load_journal(path)  # raises on interior corruption
    assert set(state["finished"]) == {"cell-0", "cell-2"}
    # The torn fragment is gone entirely, not parked mid-file.
    assert '{"type": "finished", "index": 2, "ke' not in path.read_text()
