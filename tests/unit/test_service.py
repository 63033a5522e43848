"""Unit tests for the service layer (repro.service): durable job state,
the event log, and the fair-share scheduler — exercised with stubbed
campaign execution so they run in milliseconds."""

import json
import logging
import threading
import time

import pytest

from repro.core.campaign import CampaignSpec
from repro.core.experiment import ExperimentConfig
from repro.obs import EVENT_SCHEMA_VERSION
from repro.service import (
    CampaignScheduler,
    Job,
    JobStore,
    SubmitError,
    worker_cost,
)
from repro.service.jobs import JobEventWriter, read_event_lines

TINY = ExperimentConfig(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
)

SPEC = CampaignSpec(config=TINY, seed=5)


class TestJobEventWriter:
    def test_records_speak_obs_event_schema(self, tmp_path):
        writer = JobEventWriter(tmp_path / "events.jsonl")
        writer.emit("job.submitted", seq=1)
        writer.emit("job.started", resumed=False)
        lines = read_event_lines(tmp_path / "events.jsonl")
        assert len(lines) == 2
        for index, line in enumerate(lines):
            record = json.loads(line)
            assert sorted(record) == [
                "fields", "schema", "seq", "sim_time", "type",
            ]
            assert record["schema"] == EVENT_SCHEMA_VERSION
            assert record["seq"] == index

    def test_seq_continues_across_writers(self, tmp_path):
        path = tmp_path / "events.jsonl"
        JobEventWriter(path).emit("a")
        JobEventWriter(path).emit("b")  # fresh writer = service restart
        records = [json.loads(l) for l in read_event_lines(path)]
        assert [r["seq"] for r in records] == [0, 1]

    def test_torn_trailing_fragment_is_ignored(self, tmp_path):
        path = tmp_path / "events.jsonl"
        JobEventWriter(path).emit("a")
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"half": ')  # crash mid-append
        assert len(read_event_lines(path)) == 1


class TestJobStore:
    def test_submit_persists_spec_and_state(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit(SPEC)
        assert job.id.startswith("job-000001-")
        assert job.id.endswith(SPEC.fingerprint()[:8])
        assert job.state == "queued"
        reloaded = JobStore(tmp_path)  # fresh instance = restart
        again = reloaded.get(job.id)
        assert again is not None
        assert again.spec == SPEC
        assert again.state == "queued"

    def test_submit_rejects_managed_placement_fields(self, tmp_path):
        store = JobStore(tmp_path)
        managed = CampaignSpec(
            config=TINY, store="segments", store_dir="/tmp/elsewhere"
        )
        with pytest.raises(SubmitError, match="store_dir are managed by the service"):
            store.submit(managed)
        assert store.list() == []

    def test_job_ids_are_sequential_across_restarts(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.submit(SPEC)
        second = JobStore(tmp_path).submit(SPEC.replace(seed=6))
        assert first.id.split("-")[1] == "000001"
        assert second.id.split("-")[1] == "000002"

    def test_recover_requeues_running_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        queued = store.submit(SPEC)
        running = store.submit(SPEC.replace(seed=6))
        done = store.submit(SPEC.replace(seed=7))
        running.update_state("running")
        done.update_state("complete")
        recovered = JobStore(tmp_path).recover()
        assert [j.id for j in recovered] == [queued.id, running.id]
        crashed = JobStore(tmp_path).get(running.id)
        assert crashed.state == "queued"
        assert any(
            json.loads(l)["type"] == "job.recovered"
            for l in read_event_lines(crashed.events_path)
        )

    def test_unreadable_spec_is_skipped_not_fatal(self, tmp_path, caplog):
        store = JobStore(tmp_path)
        kept = store.submit(SPEC)
        # A job written by 1.x names the spec fields the segment store
        # replaced; another job's spec is torn mid-write.
        legacy = tmp_path / "jobs" / "job-000002-deadbeef"
        legacy.mkdir()
        old_doc = dict(SPEC.to_dict(), cache=None, cache_copy=True,
                       checkpoint_dir=None, resume=False)
        (legacy / "spec.json").write_text(json.dumps(old_doc), encoding="utf-8")
        torn = tmp_path / "jobs" / "job-000003-0badf00d"
        torn.mkdir()
        (torn / "spec.json").write_text('{"schema": 1, "con', encoding="utf-8")

        # The CLI may have stopped the ``repro`` logger propagating to the
        # root, so listen on the module's logger itself.
        logger = logging.getLogger("repro.service.jobs")
        logger.addHandler(caplog.handler)
        try:
            with caplog.at_level("WARNING", logger=logger.name):
                restarted = JobStore(tmp_path)
        finally:
            logger.removeHandler(caplog.handler)
        assert [j.id for j in restarted.list()] == [kept.id]
        assert "job-000002-deadbeef" in caplog.text
        assert "job-000003-0badf00d" in caplog.text
        # The skipped directories stay on disk and keep their ids.
        assert (legacy / "spec.json").is_file() and (torn / "spec.json").is_file()
        assert restarted.submit(SPEC.replace(seed=9)).id.startswith("job-000004-")

    def test_effective_spec_isolates_namespaces(self, tmp_path):
        store = JobStore(tmp_path)
        parallel = store.submit(CampaignSpec(config=TINY, parallel=True, workers=2))
        # A memory job has nothing to place: it runs the spec verbatim.
        assert parallel.effective_spec() == parallel.spec

        segments = store.submit(CampaignSpec(config=TINY, store="segments"))
        assert segments.effective_spec().store_dir == str(segments.segments_dir)

    def test_describe_carries_spec_and_fingerprint(self, tmp_path):
        job = JobStore(tmp_path).submit(SPEC)
        payload = job.describe()
        assert payload["state"] == "queued"
        assert payload["fingerprint"] == SPEC.fingerprint()
        assert CampaignSpec.from_dict(payload["spec"]) == SPEC

    def test_recover_preserves_submission_order_keys(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.submit(SPEC.replace(seed=1), queued_at=100.0)
        second = store.submit(SPEC.replace(seed=2), queued_at=200.0)
        recovered = JobStore(tmp_path).recover()
        assert [j.id for j in recovered] == [first.id, second.id]
        states = [j.describe() for j in recovered]
        # Recovery must not re-stamp keys that survived the crash: a
        # fresh queued_at would let a later submission leapfrog an
        # earlier one on the restarted queue.
        assert [s["seq"] for s in states] == [1, 2]
        assert [s["queued_at"] for s in states] == [100.0, 200.0]

    def test_recover_restamps_job_whose_state_never_landed(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.submit(SPEC.replace(seed=1))
        second = store.submit(SPEC.replace(seed=2))
        # Crash window: spec.json persisted but the first state write
        # never landed.  The job must still recover, after first, with
        # seq reconstructed from its id.
        (second.root / "state.json").unlink()
        restarted = JobStore(tmp_path)
        recovered = restarted.recover()
        assert [j.id for j in recovered] == [first.id, second.id]
        stamped = restarted.get(second.id).describe()
        assert stamped["state"] == "queued"
        assert stamped["seq"] == 2
        assert "queued_at" in stamped


class _StubExecute:
    """Replace Job.execute: record concurrency, idle briefly, succeed."""

    def __init__(self, seconds=0.05):
        self.seconds = seconds
        self.lock = threading.Lock()
        self.active = 0
        self.peak_active = 0
        self.started = []

    def __call__(self, job):
        with self.lock:
            self.active += 1
            self.peak_active = max(self.peak_active, self.active)
            self.started.append(job.id)
        job.update_state("running")
        time.sleep(self.seconds)
        with self.lock:
            self.active -= 1
        job.events.emit("job.finished", state="complete")
        job.update_state("complete")
        return "complete"


class TestScheduler:
    def _scheduler(self, tmp_path, monkeypatch, *, total_workers, stub=None):
        stub = stub if stub is not None else _StubExecute()
        monkeypatch.setattr(Job, "execute", lambda job: stub(job))
        scheduler = CampaignScheduler(
            JobStore(tmp_path), total_workers=total_workers
        )
        return scheduler, stub

    def test_worker_cost(self):
        assert worker_cost(SPEC, 4) == 1
        assert worker_cost(CampaignSpec(config=TINY, parallel=True), 4) == 2
        parallel8 = CampaignSpec(config=TINY, parallel=True, workers=8)
        assert worker_cost(parallel8, 4) == 4  # clamped to the budget

    def test_jobs_complete_and_counters_count(self, tmp_path, monkeypatch):
        scheduler, stub = self._scheduler(tmp_path, monkeypatch, total_workers=2)
        scheduler.start()
        jobs = [scheduler.submit(SPEC.replace(seed=s)) for s in (1, 2, 3)]
        assert scheduler.wait_idle(timeout=10)
        scheduler.shutdown()
        assert all(job.state == "complete" for job in jobs)
        counters = scheduler.counters()
        assert counters["service.jobs_submitted"] == 3
        assert counters["service.jobs_completed"] == 3
        assert counters["service.workers_active"] == 0
        assert 1 <= counters["service.workers_peak"] <= 2

    def test_worker_budget_bounds_concurrency(self, tmp_path, monkeypatch):
        stub = _StubExecute(seconds=0.1)
        scheduler, stub = self._scheduler(
            tmp_path, monkeypatch, total_workers=2, stub=stub
        )
        scheduler.start()
        parallel = CampaignSpec(config=TINY, parallel=True, workers=2)
        for seed in range(1, 6):
            scheduler.submit(parallel.replace(seed=seed))
        assert scheduler.wait_idle(timeout=15)
        scheduler.shutdown()
        # each job costs 2 tokens of a 2-token budget: strictly serial
        assert stub.peak_active == 1
        assert scheduler.counters()["service.workers_peak"] == 2

    def test_admission_is_fifo(self, tmp_path, monkeypatch):
        stub = _StubExecute(seconds=0.05)
        scheduler, stub = self._scheduler(
            tmp_path, monkeypatch, total_workers=1, stub=stub
        )
        scheduler.start()
        submitted = [
            scheduler.submit(SPEC.replace(seed=s)).id for s in range(1, 6)
        ]
        assert scheduler.wait_idle(timeout=15)
        scheduler.shutdown()
        assert stub.started == submitted

    def test_cancel_queued_job(self, tmp_path, monkeypatch):
        stub = _StubExecute(seconds=0.2)
        scheduler, stub = self._scheduler(
            tmp_path, monkeypatch, total_workers=1, stub=stub
        )
        scheduler.start()
        blocker = scheduler.submit(SPEC.replace(seed=1))
        victim = scheduler.submit(SPEC.replace(seed=2))
        assert scheduler.cancel(victim.id) == "cancelled"
        assert scheduler.wait_idle(timeout=10)
        scheduler.shutdown()
        assert victim.state == "cancelled"
        assert blocker.state == "complete"
        assert scheduler.counters()["service.jobs_cancelled"] == 1
        assert scheduler.cancel("job-999999-nope") is None

    def test_start_recovers_persisted_jobs(self, tmp_path, monkeypatch):
        JobStore(tmp_path).submit(SPEC)  # persisted, never scheduled
        scheduler, stub = self._scheduler(tmp_path, monkeypatch, total_workers=1)
        scheduler.start()
        assert scheduler.wait_idle(timeout=10)
        scheduler.shutdown()
        assert scheduler.counters()["service.jobs_recovered"] == 1
        assert scheduler.counters()["service.jobs_completed"] == 1

    def test_worker_tokens_survive_base_exception(self, tmp_path, monkeypatch):
        # A BaseException escaping job.execute (KeyboardInterrupt landing
        # on a worker thread, SystemExit from deep in a backend) must
        # still release the job's worker tokens — otherwise admission is
        # wedged forever and every later job queues behind a ghost.
        calls = []

        def explode(job):
            calls.append(job.id)
            if len(calls) == 1:
                raise KeyboardInterrupt("delivered to the worker thread")
            job.update_state("complete")
            return "complete"

        monkeypatch.setattr(Job, "execute", explode)
        monkeypatch.setattr(threading, "excepthook", lambda args: None)
        scheduler = CampaignScheduler(JobStore(tmp_path), total_workers=1)
        scheduler.start()
        scheduler.submit(SPEC.replace(seed=1))
        survivor = scheduler.submit(SPEC.replace(seed=2))
        # With a 1-token budget the second job can only run if the first
        # one's token came back.
        assert scheduler.wait_idle(timeout=10)
        scheduler.shutdown()
        assert survivor.state == "complete"
        counters = scheduler.counters()
        assert counters["service.workers_active"] == 0
        assert counters["service.jobs_failed"] == 1
        assert counters["service.jobs_completed"] == 1
