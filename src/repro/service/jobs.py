"""Durable campaign jobs for the audit service.

A **job** is one submitted :class:`~repro.core.campaign.CampaignSpec`
plus everything the service knows about executing it, laid out under its
own directory so two tenants' campaigns can never touch each other's
artifacts::

    <root>/jobs/<job-id>/
        spec.json        # the submitted spec, exact to_json() form
        state.json       # job lifecycle state (atomic writes)
        events.jsonl     # lifecycle + progress events (SSE tails this)
        out/             # export files (results endpoint serves this)
        segments/        # segment store namespace (store="segments" jobs)

Every ``state.json`` write is atomic (temp → fsync → rename, through
:func:`repro.core.checkpoint.atomic_write_bytes`), so a SIGKILL'd
service never leaves a half-written state behind, and on restart
:meth:`JobStore.recover` re-enqueues every non-terminal job.  A
recovered segment-store job *resumes*: its job-local store is
crash-safe, so completed batches are reused, not recomputed.  A
recovered memory-store job runs again from scratch.  Either way its
exports are byte-identical to an uninterrupted run.

The event log speaks the exact five-key schema of the campaign obs
trace (:func:`repro.obs.make_event_record`), one canonical JSON object
per line, so the SSE stream and a ``repro run --trace-out`` trace can
be processed by the same tooling.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.campaign import CampaignSpec, execute_spec
from repro.core.checkpoint import atomic_write_bytes
from repro.core.iosim import is_enospc
from repro.obs import event_line, make_event_record

__all__ = [
    "JOB_SCHEMA_VERSION",
    "JOB_STATES",
    "TERMINAL_STATES",
    "Job",
    "JobEventWriter",
    "JobStore",
    "SubmitError",
]

#: Bump whenever the persisted ``state.json`` layout changes shape.
JOB_SCHEMA_VERSION = 1

_log = logging.getLogger(__name__)

#: The job lifecycle.  ``queued`` → ``running`` → one of the terminal
#: states: ``complete`` (all personas), ``partial`` (a degraded parallel
#: run dropped personas), ``failed`` (the campaign raised), or
#: ``cancelled`` (dequeued before it started).
JOB_STATES = ("queued", "running", "complete", "partial", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = ("complete", "partial", "failed", "cancelled")

#: Spec fields the service owns: placement is per-job, so a submitted
#: spec must not try to point the campaign at caller-chosen paths.
_MANAGED_FIELDS = ("store_dir",)

_SPEC_NAME = "spec.json"
_STATE_NAME = "state.json"
_EVENTS_NAME = "events.jsonl"

#: Progress-watcher poll interval (seconds).  Coarse on purpose: the
#: watcher exists to feed the SSE stream, not to be a profiler.
_PROGRESS_POLL_SECONDS = 0.1


class SubmitError(ValueError):
    """The submitted spec cannot be accepted as a job."""


class JobEventWriter:
    """Append-only JSONL event log for one job.

    Same five-key record schema and canonical serialization as the
    in-memory :class:`~repro.obs.EventLog`; ``seq`` continues across
    service restarts by counting the lines already on disk.  Writes are
    line-buffered appends — an append either lands as a whole line or
    (on a crash mid-write) as a trailing fragment that tail readers
    skip, so the SSE stream never emits a torn event.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._seq = len(read_event_lines(self.path))
        self._truncate_torn_tail()

    def _truncate_torn_tail(self) -> None:
        """Drop a torn trailing fragment left by a crash mid-append.

        Readers already skip the fragment, but the next append would
        splice onto it and turn two events into one garbage line —
        truncate the log back to its last complete line instead, so seq
        continuation and replay both resume from clean state.
        """
        try:
            raw = self.path.read_bytes()
        except OSError:
            return
        if not raw or raw.endswith(b"\n"):
            return
        keep = raw.rfind(b"\n") + 1
        with self.path.open("rb+") as handle:
            handle.truncate(keep)

    def emit(self, event_type: str, **fields: object) -> Dict[str, object]:
        """Append one event; returns the record."""
        with self._lock:
            record = make_event_record(self._seq, event_type, fields)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(event_line(record) + "\n")
            self._seq += 1
        return record


def read_event_lines(path: Union[str, Path]) -> List[str]:
    """The complete event lines currently in a job log.

    A trailing fragment without a newline (crash mid-append) is ignored;
    it will be overwritten-in-place semantics-wise by never being
    counted, because :class:`JobEventWriter` numbers from the complete
    lines only.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return []
    lines = text.split("\n")
    if lines and lines[-1] != "":
        lines = lines[:-1]  # torn trailing fragment
    else:
        lines = lines[:-1] if lines else []
    return [line for line in lines if line]


class Job:
    """One submitted campaign and its on-disk namespace."""

    def __init__(self, root: Union[str, Path], job_id: str, spec: CampaignSpec) -> None:
        self.root = Path(root)
        self.id = job_id
        self.spec = spec
        self.events = JobEventWriter(self.root / _EVENTS_NAME)
        self._lock = threading.Lock()
        self._state: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # Namespaces
    # ------------------------------------------------------------------ #

    @property
    def out_dir(self) -> Path:
        return self.root / "out"

    @property
    def segments_dir(self) -> Path:
        return self.root / "segments"

    @property
    def events_path(self) -> Path:
        return self.root / _EVENTS_NAME

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #

    @property
    def state(self) -> str:
        with self._lock:
            return str(self._state.get("state", "queued"))

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def describe(self) -> Dict[str, object]:
        """The job as the HTTP API reports it."""
        with self._lock:
            payload = dict(self._state)
        payload["id"] = self.id
        payload["spec"] = self.spec.to_dict()
        return payload

    def update_state(self, state: str, **extra: object) -> None:
        """Atomically persist a state transition (plus extra fields)."""
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state: {state!r}")
        with self._lock:
            current = str(self._state.get("state", "queued"))
            if current in TERMINAL_STATES and state != current:
                # Terminal states are final: a watchdog-reaped job's
                # still-running worker thread must not resurrect it.
                return
            self._state.update(extra)
            self._state["state"] = state
            self._state["schema"] = JOB_SCHEMA_VERSION
            self._state["fingerprint"] = self.spec.fingerprint()
            payload = json.dumps(self._state, indent=2, sort_keys=True)
        atomic_write_bytes(
            self.root / _STATE_NAME,
            payload.encode("utf-8"),
            component="jobs",
            op="state",
        )

    def set_flag(self, name: str, value: object) -> None:
        """Persist one extra state field without changing the state."""
        self.update_state(self.state, **{name: value})

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def effective_spec(self) -> CampaignSpec:
        """The submitted spec re-rooted into this job's namespace.

        Placement is service-managed: a segment campaign streams into
        ``segments/`` (and, after a restart, reuses the batches already
        there).  Everything that defines *what* runs — config, seed,
        topology, failure policy — is the submitted spec verbatim, which
        is what keeps the exports byte-identical to a local ``repro
        run`` of the same spec.
        """
        if self.spec.store == "segments":
            return self.spec.replace(store_dir=str(self.segments_dir))
        return self.spec

    def execute(self) -> str:
        """Run the campaign; returns the terminal state reached.

        Called by a scheduler worker.  Emits lifecycle events
        (``job.started`` / ``job.progress`` / ``job.finished`` or
        ``job.failed``) into the job log and keeps ``state.json``
        current, so both the SSE stream and a post-mortem reader of the
        job directory see the same story.
        """
        if self.describe().get("cancel_requested"):
            # Cancelled after being handed to a worker but before any
            # work started: honour it instead of burning the worker.
            self.events.emit("job.cancelled", reason="cancel_requested")
            self.update_state("cancelled")
            return "cancelled"
        spec = self.effective_spec()
        self.update_state("running")
        self.events.emit(
            "job.started",
            fingerprint=self.spec.fingerprint(),
            store=spec.store,
            parallel=spec.parallel,
        )
        watcher = _ProgressWatcher(self)
        watcher.start()
        try:
            counts, result = execute_spec(spec, self.out_dir)
        except Exception as exc:  # noqa: BLE001 - job boundary
            watcher.stop()
            message = f"{type(exc).__name__}: {exc}"
            # Machine-readable failure class: a full disk is an operable
            # condition (free space, resubmit, the job resumes), not a
            # generic error.
            reason = "storage_exhausted" if is_enospc(exc) else "error"
            # Event first, state second: an SSE tail that sees the
            # terminal state must already find the final event on disk.
            self.events.emit("job.failed", error=message, reason=reason)
            self.update_state("failed", error=message, reason=reason)
            return "failed"
        watcher.stop()
        state = self._classify(result)
        self.events.emit(
            "job.finished",
            state=state,
            rows=sum(v for k, v in counts.items() if k.endswith(".csv")),
        )
        self.update_state(state, counts=_json_counts(counts))
        return state

    def _classify(self, result) -> str:
        """``complete`` vs ``partial`` from the campaign's own records."""
        if self.spec.store == "segments":
            status = result.status()
            return "partial" if status == "partial" else "complete"
        obs = getattr(result, "obs", None)
        manifest = getattr(obs, "manifest", None)
        missing = getattr(manifest, "missing_personas", ()) or ()
        return "partial" if missing else "complete"


def _json_counts(counts: Dict[str, int]) -> Dict[str, int]:
    return {str(k): int(v) for k, v in sorted(counts.items())}


class _ProgressWatcher:
    """Background poll of a running job's durable namespace.

    Segment jobs leave ``batch-*.json`` coverage markers; counting them
    is a cheap, read-only progress signal that feeds ``job.progress``
    events (and therefore the SSE stream) without touching the
    campaign's own code paths.  Memory-store jobs have no durable
    footprint, so they simply emit no progress events.
    """

    def __init__(self, job: Job) -> None:
        self._job = job
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name=f"progress-{self._job.id}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def _count(self) -> Optional[int]:
        job = self._job
        if job.spec.store != "segments":
            return None
        return len(list(job.segments_dir.glob("**/batch-*.json")))

    def _run(self) -> None:
        last: Optional[int] = None
        while not self._stop.wait(_PROGRESS_POLL_SECONDS):
            count = self._count()
            if count is None:
                return
            if count != last and count > 0:
                self._job.events.emit("job.progress", completed=count, unit="batches")
                last = count


# ---------------------------------------------------------------------- #
# JobStore
# ---------------------------------------------------------------------- #


class JobStore:
    """All jobs under one service root, durable across restarts.

    Submission validates (the spec's own ``__post_init__`` already ran;
    the store adds the service-placement rules), assigns the job id
    ``job-<seq>-<fingerprint-prefix>``, and persists ``spec.json`` +
    ``state.json`` before returning — a job the caller has seen is
    always recoverable.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._next_seq = 1
        self._load()

    # ------------------------------------------------------------------ #

    def _load(self) -> None:
        """Adopt every job directory already on disk (restart path)."""
        if not self.jobs_dir.is_dir():
            return
        for job_dir in sorted(self.jobs_dir.iterdir()):
            spec_path = job_dir / _SPEC_NAME
            if not spec_path.is_file():
                continue
            # A skipped directory still holds its sequence number, so a
            # new job never reuses the id of one left on disk.
            seq = _seq_of(job_dir.name)
            if seq is not None and seq >= self._next_seq:
                self._next_seq = seq + 1
            try:
                spec = CampaignSpec.from_json(spec_path.read_text(encoding="utf-8"))
            except (ValueError, TypeError) as exc:
                # Corrupt, or written by a release whose spec fields are
                # gone: the job cannot run, but one bad directory must
                # not keep the service from starting.  Its files stay in
                # place for the operator (``repro fsck`` reports it).
                _log.warning(
                    "skipping job %s: unreadable spec: %s", job_dir.name, exc
                )
                continue
            job = Job(job_dir, job_dir.name, spec)
            state_path = job_dir / _STATE_NAME
            if state_path.is_file():
                job._state = json.loads(state_path.read_text(encoding="utf-8"))
            self._jobs[job.id] = job

    def submit(self, spec: CampaignSpec, *, queued_at: Optional[float] = None) -> Job:
        """Persist a new queued job for ``spec``."""
        if not isinstance(spec, CampaignSpec):
            raise SubmitError(
                f"submit takes a CampaignSpec, got {type(spec).__name__}"
            )
        managed = [
            name
            for name in _MANAGED_FIELDS
            if getattr(spec, name) not in (None, False)
        ]
        if managed:
            raise SubmitError(
                f"{', '.join(managed)} are managed by the service — each job "
                "gets its own segment namespace, so a "
                "submitted spec must leave placement fields unset"
            )
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            job_id = f"job-{seq:06d}-{spec.fingerprint()[:8]}"
            job_dir = self.jobs_dir / job_id
            job_dir.mkdir(parents=True)
            atomic_write_bytes(
                job_dir / _SPEC_NAME,
                (spec.to_json(indent=2) + "\n").encode("utf-8"),
                component="jobs",
                op="spec",
            )
            job = Job(job_dir, job_id, spec)
            self._jobs[job_id] = job
        job.update_state(
            "queued",
            seq=seq,
            queued_at=queued_at if queued_at is not None else time.time(),
        )
        job.events.emit("job.submitted", fingerprint=spec.fingerprint(), seq=seq)
        return job

    # ------------------------------------------------------------------ #

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> List[Job]:
        """All jobs in submission order."""
        with self._lock:
            jobs = list(self._jobs.values())
        return sorted(jobs, key=lambda j: _seq_of(j.id) or 0)

    def recover(self) -> List[Job]:
        """Jobs to re-enqueue after a restart, in submission order.

        A ``queued`` job never started; a ``running`` job was cut down
        by the crash — both go back to ``queued`` with their original
        submission-ordering keys (``seq``, ``queued_at``) intact, so a
        restarted service replays the queue in the order callers
        submitted it.  A job whose ``state.json`` never landed (crash
        between the spec persist and the first state write) is
        re-stamped: ``seq`` is reconstructed from its id, and since the
        original wall-clock time is unrecoverable, ``queued_at`` gets
        the recovery time — FIFO order is carried by ``seq`` either way.
        Segment jobs keep their store namespace, so re-execution reuses
        the batches already written; memory jobs run again from scratch.
        """
        recovered: List[Job] = []
        for job in self.list():
            state = job.state
            if state in TERMINAL_STATES:
                continue
            persisted = job.describe()
            ordering: Dict[str, object] = {}
            if "seq" not in persisted:
                seq = _seq_of(job.id)
                if seq is not None:
                    ordering["seq"] = seq
            if "queued_at" not in persisted:
                ordering["queued_at"] = time.time()
            if state == "running":
                job.update_state("queued", recovered=True, **ordering)
                job.events.emit("job.recovered", previous_state="running")
            elif ordering:
                job.update_state("queued", **ordering)
            recovered.append(job)
        return recovered


def _seq_of(job_id: str) -> Optional[int]:
    parts = job_id.split("-")
    if len(parts) >= 2 and parts[0] == "job":
        try:
            return int(parts[1])
        except ValueError:
            return None
    return None
