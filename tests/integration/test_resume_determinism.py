"""Kill-and-resume equivalence through the segment store.

The segment store is the reproduction's one resume mechanism: a
campaign interrupted after ≥1 covered batch and then re-run against the
same store directory must export bytes **identical** to an
uninterrupted run of the same seed and config — under healthy and
mild-faulted networks, on both worker backends.  Batches are
seed-deterministic and content-addressed, so a batch reused from the
store is indistinguishable from a recomputed one; the tests here pin
that end to end, and pin that the re-run really reuses what the
interrupted run left (the batch files are not rewritten).

Two interruption styles are exercised:

* **Deterministic interruption** — injected worker crashes exhaust one
  shard's retry budget under ``on_shard_failure="degrade"``, leaving a
  partial store exactly like a preempted run's, with no race on *when*
  the kill lands.
* **Real SIGKILL** — ``repro run --parallel --store segments`` in a
  subprocess has its whole process group killed -9 as soon as its first
  batch lands, then ``repro run`` is repeated on the same
  ``--store-dir``.  (If the subprocess wins the race and finishes, the
  re-run degenerates to an all-reuse run — equality must hold either
  way.)
"""

import dataclasses
import hashlib
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.core.campaign import CampaignSpec, run_campaign, run_segment_campaign
from repro.core.experiment import ExperimentConfig, config_fingerprint
from repro.core.export import EXPORT_FILES, export_dataset, export_segment_store
from repro.core.parallel import WorkerFaultPlan
from repro.core.personas import scaled_roster
from repro.core.segments import SegmentStore
from repro.util.rng import Seed

SEED_ROOT = 2026
WORKERS = 4

TINY = ExperimentConfig(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
)

ROSTER = tuple(p.name for p in scaled_roster(1))


def _config(fault_profile):
    return dataclasses.replace(TINY, fault_profile=fault_profile)


def _digests(out_dir):
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in EXPORT_FILES
    }


def _batch_mtimes(store_dir):
    """Every batch marker and sidecar index under a store, by path."""
    return {
        str(path.relative_to(store_dir)): path.stat().st_mtime_ns
        for path in store_dir.glob("campaign-*/batches/*.json")
    }


@pytest.fixture(scope="module")
def serial_digests(tmp_path_factory):
    """Uninterrupted serial exports per fault profile — the gold bytes."""
    digests = {}
    for profile in ("none", "mild"):
        dataset = run_campaign(_config(profile), Seed(SEED_ROOT))
        out = tmp_path_factory.mktemp(f"serial-{profile}")
        export_dataset(dataset, out)
        digests[profile] = _digests(out)
    return digests


class TestKillAndResume:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("profile", ["none", "mild"])
    def test_interrupted_then_resumed_matches_serial(
        self, tmp_path, serial_digests, backend, profile
    ):
        """Crash one shard out of the run, re-run, compare every byte."""
        config = _config(profile)
        store_dir = tmp_path / "store"
        # Shard 3 crashes on every attempt: the run completes degraded,
        # leaving the store exactly as a mid-run kill would — some
        # batches covered, one shard's personas missing.
        faults = WorkerFaultPlan.targeted(
            {(3, attempt): "crash" for attempt in (1, 2, 3)}
        )
        partial = run_segment_campaign(
            config,
            Seed(SEED_ROOT),
            store_dir=store_dir,
            parallel=True,
            workers=WORKERS,
            backend=backend,
            worker_faults=faults,
            on_shard_failure="degrade",
        )
        assert partial.status() == "partial"
        covered = partial.covered_positions()
        assert 0 < len(covered) < len(ROSTER)  # the interruption lost data
        before = _batch_mtimes(store_dir)

        resumed = run_segment_campaign(
            config,
            Seed(SEED_ROOT),
            store_dir=store_dir,
            parallel=True,
            workers=WORKERS,
            backend=backend,
        )
        assert resumed.status() == "complete"
        export_segment_store(resumed, tmp_path / "resumed")
        assert _digests(tmp_path / "resumed") == serial_digests[profile]
        # The covered batches were reused, not recomputed: every file
        # the interrupted run published is untouched, and only the
        # crashed shard's personas were written.
        after = _batch_mtimes(store_dir)
        assert {name: after[name] for name in before} == before
        assert len(after) > len(before)

    def test_sigkill_mid_run_then_resume(self, tmp_path):
        """A real -9 on a parallel segments `repro run`, re-run on the
        same store directory, exports the bytes of a clean serial run."""
        seed = str(SEED_ROOT)
        clean = ["run", "--small", "--seed", seed, "--out", str(tmp_path / "clean")]
        assert main(clean + ["--quiet"]) == 0
        gold = _digests(tmp_path / "clean")

        store_dir = tmp_path / "store"
        command = [
            sys.executable, "-m", "repro", "run", "--small", "--seed", seed,
            "--parallel", "--workers", str(WORKERS), "--backend", "process",
            "--store", "segments", "--store-dir", str(store_dir),
            "--out", str(tmp_path / "killed"), "--quiet",
        ]
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        # Own session, so the kill takes the shard workers down too — an
        # orphaned worker would keep writing batches during the re-run.
        victim = subprocess.Popen(command, env=env, start_new_session=True)
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and victim.poll() is None:
                if _batch_mtimes(store_dir):
                    break
                time.sleep(0.02)
            if victim.poll() is None:
                os.killpg(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                os.killpg(victim.pid, signal.SIGKILL)
                victim.wait(timeout=30)
        before = _batch_mtimes(store_dir)
        assert before, "no batch was ever covered"

        assert main(command[3:]) == 0  # same flags, same --store-dir
        assert _digests(tmp_path / "killed") == gold
        after = _batch_mtimes(store_dir)
        assert {name: after[name] for name in before} == before


class TestWatchdogIntegration:
    def test_hung_shard_is_reaped_and_run_completes(
        self, tmp_path, serial_digests
    ):
        """An injected hang never aborts the campaign: the wall-clock
        watchdog reaps the worker and the retry completes the shard."""
        faults = WorkerFaultPlan.targeted({(1, 1): "hang"}, hang_seconds=3600)
        dataset = run_campaign(
            TINY,
            Seed(SEED_ROOT),
            parallel=True,
            workers=WORKERS,
            backend="thread",
            worker_faults=faults,
            shard_timeout=20.0,
        )
        export_dataset(dataset, tmp_path / "out")
        assert _digests(tmp_path / "out") == serial_digests["none"]
        manifest = dataset.obs.manifest
        assert manifest.shard_attempts[1] == ("hang", "ok")
        assert dataset.obs.metrics.value("supervisor.hangs_reaped") == 1


@pytest.fixture(scope="module")
def covered_store(tmp_path_factory):
    """A complete serial segment store of TINY at SEED_ROOT."""
    store_dir = tmp_path_factory.mktemp("covered")
    run_segment_campaign(TINY, Seed(SEED_ROOT), store_dir=store_dir)
    return store_dir


class TestResumeValidation:
    """A store only ever resumes the campaign it was written for: the
    campaign directory is keyed by seed root and config fingerprint."""

    def test_other_seed_adopts_no_batches(self, covered_store):
        own = SegmentStore(
            covered_store, SEED_ROOT, config_fingerprint(TINY), ROSTER
        )
        other = SegmentStore(
            covered_store, SEED_ROOT + 1, config_fingerprint(TINY), ROSTER
        )
        assert len(own.covered_positions()) == len(ROSTER)
        assert other.campaign_dir != own.campaign_dir
        assert other.covered_positions() == set()

    def test_other_config_adopts_no_batches(self, covered_store):
        mild = config_fingerprint(_config("mild"))
        assert mild != config_fingerprint(TINY)
        other = SegmentStore(covered_store, SEED_ROOT, mild, ROSTER)
        assert other.covered_positions() == set()

    def test_other_worker_count_reuses_every_batch(
        self, tmp_path, covered_store, serial_digests
    ):
        """Batches do not depend on the shard plan, so a parallel re-run
        of a serially written store computes nothing."""
        before = _batch_mtimes(covered_store)
        store = run_segment_campaign(
            TINY,
            Seed(SEED_ROOT),
            store_dir=covered_store,
            parallel=True,
            workers=3,
            backend="thread",
        )
        assert _batch_mtimes(covered_store) == before
        export_segment_store(store, tmp_path / "out")
        assert _digests(tmp_path / "out") == serial_digests["none"]

    def test_removed_resume_knobs_rejected(self):
        with pytest.raises(TypeError, match="resume"):
            run_campaign(TINY, Seed(SEED_ROOT), parallel=True, resume=True)
        payload = CampaignSpec(config=TINY, parallel=True).to_dict()
        payload["checkpoint_dir"] = "/tmp/ckpt"
        with pytest.raises(ValueError, match="checkpoint_dir"):
            CampaignSpec.from_dict(payload)

    def test_supervisor_knobs_require_parallel(self):
        with pytest.raises(ValueError, match="parallel"):
            run_campaign(TINY, Seed(SEED_ROOT), on_shard_failure="degrade")
        with pytest.raises(ValueError, match="parallel"):
            run_campaign(TINY, Seed(SEED_ROOT), shard_timeout=5.0)
