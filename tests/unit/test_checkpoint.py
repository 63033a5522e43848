"""Unit tests for the atomic publish helpers and the supervisor's shard
journal (repro.core.checkpoint)."""

import os
import pickle

import pytest

from repro.core.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CorruptShardError,
    ShardJournal,
    atomic_write_bytes,
    shard_plan_digest,
)

PLAN = [["a", "b"], ["c"], ["d", "e"]]


def _journal(root, **overrides):
    kwargs = dict(
        root=root, seed_root=2026, config_fingerprint="abc123", shard_plan=PLAN
    )
    kwargs.update(overrides)
    return ShardJournal(**kwargs)


class TestAtomicWriteBytes:
    def test_round_trip(self, tmp_path):
        target = tmp_path / "payload.bin"
        atomic_write_bytes(target, b"hello")
        assert target.read_bytes() == b"hello"

    def test_creates_parent_dirs(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "payload.bin"
        atomic_write_bytes(target, b"x")
        assert target.read_bytes() == b"x"

    def test_overwrites_previous_content_atomically(self, tmp_path):
        target = tmp_path / "payload.bin"
        atomic_write_bytes(target, b"old")
        atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"

    def test_no_temp_files_left_behind(self, tmp_path):
        target = tmp_path / "payload.bin"
        atomic_write_bytes(target, b"data")
        assert [p.name for p in tmp_path.iterdir()] == ["payload.bin"]

    def test_failed_write_leaves_target_untouched(self, tmp_path, monkeypatch):
        target = tmp_path / "payload.bin"
        atomic_write_bytes(target, b"original")

        def explode(fd):
            raise OSError("simulated disk failure")

        monkeypatch.setattr(os, "fsync", explode)
        with pytest.raises(OSError, match="simulated"):
            atomic_write_bytes(target, b"partial")
        assert target.read_bytes() == b"original"
        assert [p.name for p in tmp_path.iterdir()] == ["payload.bin"]


class TestShardPlanDigest:
    def test_stable(self):
        assert shard_plan_digest(PLAN) == shard_plan_digest(
            [list(names) for names in PLAN]
        )

    def test_sensitive_to_membership_and_order(self):
        base = shard_plan_digest(PLAN)
        assert shard_plan_digest([["b", "a"], ["c"], ["d", "e"]]) != base
        assert shard_plan_digest([["a", "b"], ["c"]]) != base


class TestShardEntries:
    def test_round_trip(self, tmp_path):
        journal = _journal(tmp_path)
        journal.write_shard(1, {"payload": list(range(10))})
        assert journal.load_shard(1) == {"payload": list(range(10))}

    def test_absent_entry_is_none(self, tmp_path):
        journal = _journal(tmp_path)
        assert journal.load_shard(0) is None
        assert not journal.shard_path(0).exists()

    def test_out_of_plan_index_rejected(self, tmp_path):
        journal = _journal(tmp_path)
        with pytest.raises(ValueError, match="outside plan"):
            journal.write_shard(7, "x")
        with pytest.raises(ValueError, match="outside plan"):
            journal.load_shard(-1)

    def test_unreadable_entry_raises_corrupt(self, tmp_path):
        journal = _journal(tmp_path)
        journal.shard_path(0).parent.mkdir(parents=True, exist_ok=True)
        journal.shard_path(0).write_bytes(b"garbage, not a pickle")
        with pytest.raises(CorruptShardError, match="unreadable"):
            journal.load_shard(0)

    def test_truncated_entry_raises_corrupt(self, tmp_path):
        journal = _journal(tmp_path)
        journal.write_shard(0, {"big": "x" * 4096})
        path = journal.shard_path(0)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CorruptShardError):
            journal.load_shard(0)

    def test_schema_stamp_invalidates(self, tmp_path):
        journal = _journal(tmp_path)
        journal.write_shard(0, "result")
        payload = pickle.loads(journal.shard_path(0).read_bytes())
        payload["schema"] = CHECKPOINT_SCHEMA_VERSION + 1
        journal.shard_path(0).write_bytes(pickle.dumps(payload))
        with pytest.raises(CorruptShardError, match="schema"):
            journal.load_shard(0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed_root": 9999},
            {"config_fingerprint": "other-config"},
            {"shard_plan": [["a", "b"], ["c"], ["d"]]},
        ],
        ids=["seed", "config", "plan"],
    )
    def test_foreign_campaign_entry_never_loads(self, tmp_path, overrides):
        _journal(tmp_path).write_shard(0, "foreign result")
        with pytest.raises(CorruptShardError, match="fails validation"):
            _journal(tmp_path, **overrides).load_shard(0)

    def test_quarantine_moves_entry_aside(self, tmp_path):
        journal = _journal(tmp_path)
        journal.write_shard(0, "result")
        target = journal.quarantine(0)
        assert target is not None and target.name.endswith(".corrupt")
        assert not journal.shard_path(0).exists()
        assert journal.load_shard(0) is None  # key free for a retry

    def test_quarantine_of_absent_entry_is_noop(self, tmp_path):
        assert _journal(tmp_path).quarantine(0) is None

    def test_error_records_round_trip(self, tmp_path):
        journal = _journal(tmp_path)
        assert journal.read_error(0) is None
        journal.write_error(0, "Traceback: worker exploded")
        assert "exploded" in journal.read_error(0)


class TestJournalConstruction:
    def test_empty_plan_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            _journal(tmp_path, shard_plan=[])

    def test_plan_normalised_to_tuples(self, tmp_path):
        journal = _journal(tmp_path)
        assert journal.shard_plan == (("a", "b"), ("c",), ("d", "e"))
