"""Atomic publish helpers and the supervisor's per-shard result journal.

:func:`atomic_write_bytes` is the storage seam every durable write in
the reproduction goes through (segment store, service job state, fsck
repairs); :func:`quarantine_path` moves a corrupt artifact aside.

:class:`ShardJournal` is how parallel shard workers hand their
:class:`~repro.core.parallel.ShardResult` back to the supervisor
(:mod:`repro.core.parallel`).  It lives in an ephemeral directory that
the supervisor deletes when the run ends, so nothing in it outlives a
run: reuse and crash-resume belong to the segment store
(:mod:`repro.core.segments`).  Within a run:

* **Atomic publish.**  Every entry goes through
  :func:`atomic_write_bytes` (write temp → flush → ``fsync`` →
  ``os.replace``), so the supervisor never reads a half-written payload.
* **Schema-stamped entries.**  Each shard payload records the journal
  schema version, the seed root, the config fingerprint, the shard-plan
  digest, and the shard's persona names.  An entry that fails to load or
  validate — a poisoned worker result — raises
  :class:`CorruptShardError`; the supervisor quarantines it (rename to
  ``*.corrupt``) and recomputes the shard.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from repro.core.iosim import (
    DEFAULT_STORAGE_RETRY,
    current_storage_faults,
    is_enospc,
    read_bytes as _seam_read_bytes,
    transient_storage_error,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CorruptShardError",
    "ShardJournal",
    "atomic_write_bytes",
    "fsync_dir",
    "quarantine_path",
    "shard_plan_digest",
]

#: Bump whenever the journal payload layout changes shape; entries with
#: another stamp fail validation.
CHECKPOINT_SCHEMA_VERSION = 1


class CorruptShardError(RuntimeError):
    """A journal entry exists but is unreadable or fails validation."""


def fsync_dir(path: Union[str, Path]) -> None:
    """Best-effort fsync of a directory.

    ``os.replace`` publishes a name by mutating the parent directory;
    until that directory's own metadata is flushed, a power loss can
    silently drop the dirent even though the file's blocks were fsynced.
    Best-effort because some filesystems refuse ``O_RDONLY`` on
    directories — durability degrades there, correctness does not.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _inject_write_fault(decision, plan, target: Path, handle=None, data=b"") -> None:
    """Raise (or sleep for) the injected fault at the right point of the
    write sequence; no-op for stages the decision does not target."""
    import errno as _errno

    kind = decision.kind
    plan.record(f"storage.faults.injected.{kind}")
    if kind == "slow":
        time.sleep(decision.seconds)
    elif kind == "enospc":
        raise OSError(
            _errno.ENOSPC, f"injected: no space left on device ({target.name})"
        )
    elif kind == "eio":
        raise OSError(_errno.EIO, f"injected: write I/O error ({target.name})")
    elif kind == "torn":
        handle.write(data[: int(len(data) * decision.fraction)])
        handle.flush()
        raise OSError(
            _errno.EIO, f"injected: torn write after partial payload ({target.name})"
        )
    elif kind == "fsync":
        raise OSError(_errno.EIO, f"injected: fsync failure ({target.name})")
    elif kind == "rename":
        raise OSError(_errno.EIO, f"injected: rename failure ({target.name})")


def _atomic_write_attempt(target: Path, data: bytes, decision, plan) -> None:
    """One temp → fsync → rename → dir-fsync publish attempt."""
    if decision is not None and decision.kind in ("slow", "enospc", "eio"):
        _inject_write_fault(decision, plan, target)
        decision = None if decision.kind == "slow" else decision
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            if decision is not None and decision.kind == "torn":
                _inject_write_fault(decision, plan, target, handle=handle, data=data)
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
            if decision is not None and decision.kind == "fsync":
                _inject_write_fault(decision, plan, target)
        if decision is not None and decision.kind == "rename":
            _inject_write_fault(decision, plan, target)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fsync_dir(target.parent)


def atomic_write_bytes(
    path: Union[str, Path],
    data: bytes,
    *,
    component: str = "storage",
    op: str = "write",
) -> None:
    """Write ``data`` to ``path`` atomically: temp → fsync → rename →
    parent-dir fsync.

    A reader can never observe a partial file at ``path`` — it sees
    either the previous content or the full new content.  The ``fsync``
    before the rename is what makes the publish crash-safe: without it a
    power loss could publish a name pointing at unwritten blocks; the
    directory fsync after it is what keeps the published *name* from
    vanishing in the same crash.

    This is the storage fault seam for writes: when a
    :class:`~repro.core.iosim.StorageFaultPlan` is installed, each
    attempt draws a decision keyed by ``(component, op)``.  Transient
    faults (EIO, fsync, rename, torn temp write) are retried under
    :data:`~repro.core.iosim.DEFAULT_STORAGE_RETRY` with capped backoff
    on the host clock; ``ENOSPC`` propagates immediately — a full disk
    does not heal on retry, the campaign layer degrades instead.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    plan = current_storage_faults()
    policy = DEFAULT_STORAGE_RETRY
    for attempt in range(1, policy.max_attempts + 1):
        decision = plan.decide(component, op) if plan is not None else None
        if decision is not None and decision.kind == "corrupt_read":
            decision = None  # read-only fault kind; draw still consumed
        try:
            _atomic_write_attempt(target, data, decision, plan)
        except OSError as exc:
            if plan is not None and is_enospc(exc):
                plan.record("storage.enospc")
            if not transient_storage_error(exc):
                raise
            if attempt >= policy.max_attempts:
                if plan is not None:
                    plan.record("storage.retry_exhausted")
                raise
            if plan is not None:
                plan.record("storage.retries")
            time.sleep(policy.backoff(attempt))
        else:
            return


def quarantine_path(path: Union[str, Path]) -> Optional[Path]:
    """Move a corrupt artifact to ``<name>.corrupt`` — never delete it,
    never leave it under a live name.

    The rename is followed by a parent-directory fsync so a crash right
    after quarantine cannot resurrect the corrupt name.  Best-effort:
    returns the quarantine path, or ``None`` when the rename failed
    (e.g. the artifact vanished concurrently).
    """
    source = Path(path)
    target = source.with_name(source.name + ".corrupt")
    try:
        os.replace(source, target)
    except OSError:
        return None
    fsync_dir(source.parent)
    plan = current_storage_faults()
    if plan is not None:
        plan.record("storage.quarantined")
    return target


def shard_plan_digest(shard_plan: Sequence[Sequence[str]]) -> str:
    """Stable digest of a shard plan (persona names per shard, in order)."""
    payload = json.dumps([list(names) for names in shard_plan])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class ShardJournal:
    """Atomic per-shard result journal for one campaign execution.

    A journal is bound to a **key**: ``(seed_root, config_fingerprint,
    shard_plan)``.  Entries written under a different key never load.
    """

    def __init__(
        self,
        root: Union[str, Path],
        seed_root: int,
        config_fingerprint: str,
        shard_plan: Sequence[Sequence[str]],
    ) -> None:
        self.root = Path(root)
        self.seed_root = seed_root
        self.config_fingerprint = config_fingerprint
        self.shard_plan: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(names) for names in shard_plan
        )
        if not self.shard_plan:
            raise ValueError("shard plan must not be empty")
        self.plan_digest = shard_plan_digest(self.shard_plan)

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #

    def shard_path(self, shard_index: int) -> Path:
        return self.root / f"shard-{shard_index:04d}.pkl"

    def error_path(self, shard_index: int) -> Path:
        return self.root / f"shard-{shard_index:04d}.error"

    # ------------------------------------------------------------------ #
    # Shard entries
    # ------------------------------------------------------------------ #

    def write_shard(self, shard_index: int, result) -> Path:
        """Atomically publish one completed shard's ``ShardResult``."""
        self._check_index(shard_index)
        payload = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "seed_root": self.seed_root,
            "config_fingerprint": self.config_fingerprint,
            "plan_digest": self.plan_digest,
            "shard_index": shard_index,
            "persona_names": list(self.shard_plan[shard_index]),
            "result": result,
        }
        path = self.shard_path(shard_index)
        atomic_write_bytes(
            path,
            pickle.dumps(payload, pickle.HIGHEST_PROTOCOL),
            component="checkpoint",
            op="shard",
        )
        return path

    def load_shard(self, shard_index: int):
        """The published ``ShardResult``, or ``None`` when absent.

        Raises :class:`CorruptShardError` when an entry exists but is
        unreadable or stamped with a different schema version, campaign
        key, or shard plan — the caller quarantines and recomputes.
        """
        self._check_index(shard_index)
        path = self.shard_path(shard_index)
        try:
            # Corruptible seam read: a flipped bit fails the pickle load
            # or envelope validation below, and the caller quarantines
            # and recomputes — never silently merges altered data.
            raw = _seam_read_bytes(
                path, component="checkpoint", op="shard", corruptible=True
            )
        except FileNotFoundError:
            return None
        try:
            payload = pickle.loads(raw)
        except Exception as exc:
            raise CorruptShardError(
                f"journal entry {path.name} is unreadable: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise CorruptShardError(
                f"journal entry {path.name} has no payload envelope"
            )
        expected = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "seed_root": self.seed_root,
            "config_fingerprint": self.config_fingerprint,
            "plan_digest": self.plan_digest,
            "shard_index": shard_index,
            "persona_names": list(self.shard_plan[shard_index]),
        }
        for field, want in expected.items():
            got = payload.get(field)
            if got != want:
                raise CorruptShardError(
                    f"journal entry {path.name} fails validation: "
                    f"{field}={got!r}, expected {want!r}"
                )
        return payload["result"]

    def quarantine(self, shard_index: int) -> Optional[Path]:
        """Move a bad entry aside (``*.corrupt``) so a retry can publish."""
        path = self.shard_path(shard_index)
        if not path.exists():
            return None
        return quarantine_path(path)

    # ------------------------------------------------------------------ #
    # Worker error records
    # ------------------------------------------------------------------ #

    def write_error(self, shard_index: int, text: str) -> None:
        atomic_write_bytes(
            self.error_path(shard_index),
            text.encode("utf-8"),
            component="checkpoint",
            op="error",
        )

    def read_error(self, shard_index: int) -> Optional[str]:
        try:
            return self.error_path(shard_index).read_text()
        except (FileNotFoundError, OSError):
            return None

    # ------------------------------------------------------------------ #

    def _check_index(self, shard_index: int) -> None:
        if not 0 <= shard_index < len(self.shard_plan):
            raise ValueError(
                f"shard index {shard_index} outside plan of "
                f"{len(self.shard_plan)} shards"
            )
