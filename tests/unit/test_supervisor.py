"""Unit tests for the shard supervisor and worker-level fault injection.

The supervisor is exercised against a stub shard function (no real
campaign) so every recovery path — crash requeue, hung-worker reaping,
poison quarantine, degrade accounting — runs in milliseconds.
"""

import pickle
import time

import pytest

from repro.core.checkpoint import ShardJournal
from repro.core.parallel import (
    ON_SHARD_FAILURE,
    WORKER_FAULT_KINDS,
    ShardFailure,
    SupervisorPolicy,
    SupervisorReport,
    WorkerFaultPlan,
    _ShardSupervisor,
)
from repro.util.rng import Seed

PLAN = [["a", "b"], ["c"], ["d", "e"]]


def _stub_shard(shard_index, seed, config, persona_names, collect_obs):
    """Module-level so the process backend can pickle it."""
    return f"result-{shard_index}"


def _slow_stub_shard(shard_index, seed, config, persona_names, collect_obs):
    time.sleep(0.2)
    return f"result-{shard_index}"


def _supervisor(tmp_path, policy, backend="thread", shard_fn=_stub_shard):
    journal = ShardJournal(tmp_path, 2026, "abc123", PLAN)
    return (
        _ShardSupervisor(
            journal,
            Seed(2026),
            None,  # config is opaque to the supervisor; the stub ignores it
            backend,
            False,
            policy,
            shard_fn=shard_fn,
        ),
        journal,
    )


class TestHealthyRuns:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_all_shards_complete(self, tmp_path, backend):
        supervisor, _ = _supervisor(
            tmp_path, SupervisorPolicy(), backend=backend
        )
        results, report = supervisor.run()
        assert results == {0: "result-0", 1: "result-1", 2: "result-2"}
        assert report.attempts == {0: ["ok"], 1: ["ok"], 2: ["ok"]}
        assert report.retries == 0
        assert report.failed_shards == ()
        assert report.missing_personas == ()  # a complete run


class TestCrashRecovery:
    def test_injected_crash_is_retried(self, tmp_path):
        policy = SupervisorPolicy(
            worker_faults=WorkerFaultPlan.targeted({(1, 1): "crash"})
        )
        supervisor, _ = _supervisor(tmp_path, policy)
        results, report = supervisor.run()
        assert results[1] == "result-1"
        assert report.attempts[1] == ["crash", "ok"]
        assert report.retries == 1
        assert report.failed_shards == ()
        assert report.missing_personas == ()  # the retry completed it

    def test_retry_budget_exhaustion_raises(self, tmp_path):
        schedule = {(1, attempt): "crash" for attempt in (1, 2)}
        policy = SupervisorPolicy(
            max_shard_retries=1,
            worker_faults=WorkerFaultPlan.targeted(schedule),
        )
        supervisor, _ = _supervisor(tmp_path, policy)
        with pytest.raises(ShardFailure) as excinfo:
            supervisor.run()
        assert excinfo.value.shard_index == 1
        assert excinfo.value.outcomes == ("crash", "crash")

    def test_raise_policy_propagates_first_failure(self, tmp_path):
        policy = SupervisorPolicy(
            on_shard_failure="raise",
            worker_faults=WorkerFaultPlan.targeted({(0, 1): "crash"}),
        )
        supervisor, _ = _supervisor(tmp_path, policy)
        with pytest.raises(ShardFailure) as excinfo:
            supervisor.run()
        assert excinfo.value.outcomes == ("crash",)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_real_worker_exception_is_a_crash(self, tmp_path, backend):
        supervisor, journal = _supervisor(
            tmp_path,
            SupervisorPolicy(max_shard_retries=0),
            backend=backend,
            shard_fn=_exploding_stub,
        )
        with pytest.raises(ShardFailure, match="exploded"):
            supervisor.run()
        # The worker's traceback landed in the journal's error record.
        assert any(
            journal.read_error(i) and "exploded" in journal.read_error(i)
            for i in range(len(PLAN))
        )


def _exploding_stub(shard_index, seed, config, persona_names, collect_obs):
    raise RuntimeError("worker exploded")


class TestDegrade:
    def test_exhausted_shard_is_dropped_and_accounted(self, tmp_path):
        schedule = {(2, attempt): "crash" for attempt in (1, 2, 3)}
        policy = SupervisorPolicy(
            on_shard_failure="degrade",
            worker_faults=WorkerFaultPlan.targeted(schedule),
        )
        supervisor, _ = _supervisor(tmp_path, policy)
        results, report = supervisor.run()
        assert sorted(results) == [0, 1]
        assert report.failed_shards == (2,)
        assert report.missing_personas == ("d", "e")
        assert report.attempts[2] == ["crash", "crash", "crash"]


class TestWatchdog:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_hung_worker_is_reaped_and_retried(self, tmp_path, backend):
        policy = SupervisorPolicy(
            shard_timeout=1.5,
            worker_faults=WorkerFaultPlan.targeted(
                {(1, 1): "hang"}, hang_seconds=3600
            ),
        )
        supervisor, _ = _supervisor(tmp_path, policy, backend=backend)
        started = time.monotonic()
        results, report = supervisor.run()
        elapsed = time.monotonic() - started
        assert results[1] == "result-1"
        assert report.attempts[1] == ["hang", "ok"]
        # Reaped by the wall-clock watchdog, not by the hang expiring.
        assert elapsed < 60

    def test_watchdog_leaves_slow_but_live_workers_alone(self, tmp_path):
        policy = SupervisorPolicy(shard_timeout=30.0)
        supervisor, _ = _supervisor(
            tmp_path, policy, shard_fn=_slow_stub_shard
        )
        results, report = supervisor.run()
        assert len(results) == len(PLAN)
        assert all(outcomes == ["ok"] for outcomes in report.attempts.values())


class TestPoison:
    def test_poisoned_result_is_quarantined_and_retried(self, tmp_path):
        policy = SupervisorPolicy(
            worker_faults=WorkerFaultPlan.targeted({(0, 1): "poison"})
        )
        supervisor, journal = _supervisor(tmp_path, policy)
        results, report = supervisor.run()
        assert results[0] == "result-0"
        assert report.attempts[0] == ["poison", "ok"]
        quarantined = journal.shard_path(0).with_name(
            journal.shard_path(0).name + ".corrupt"
        )
        assert quarantined.is_file()  # evidence preserved for post-mortem


class TestWorkerFaultPlan:
    def test_rate_draws_are_deterministic(self):
        def draws(plan):
            return [plan.decide(s, a) for s in range(8) for a in (1, 2)]

        make = lambda: WorkerFaultPlan(
            Seed(7), crash_rate=0.3, hang_rate=0.2, poison_rate=0.1
        )
        assert draws(make()) == draws(make())

    def test_draws_survive_pickling(self):
        plan = WorkerFaultPlan(Seed(7), crash_rate=0.5)
        clone = pickle.loads(pickle.dumps(plan))
        assert [plan.decide(s, 1) for s in range(8)] == [
            clone.decide(s, 1) for s in range(8)
        ]

    def test_draws_are_keyed_not_sequential(self):
        """(shard, attempt) keying: decision order must not matter."""
        forward = {
            (s, a): d.kind if (d := WorkerFaultPlan(
                Seed(7), crash_rate=0.4, hang_rate=0.3
            ).decide(s, a)) else None
            for s in range(4)
            for a in (1, 2)
        }
        plan = WorkerFaultPlan(Seed(7), crash_rate=0.4, hang_rate=0.3)
        backward = {}
        for s in reversed(range(4)):
            for a in (2, 1):
                decision = plan.decide(s, a)
                backward[(s, a)] = decision.kind if decision else None
        assert forward == backward

    def test_targeted_schedule_is_exact(self):
        plan = WorkerFaultPlan.targeted({(2, 1): "hang"})
        assert plan.decide(2, 1).kind == "hang"
        assert plan.decide(2, 2) is None
        assert plan.decide(0, 1) is None
        assert plan.enabled

    def test_validation(self):
        with pytest.raises(ValueError, match="crash_rate"):
            WorkerFaultPlan(Seed(1), crash_rate=1.5)
        with pytest.raises(ValueError, match="sum"):
            WorkerFaultPlan(Seed(1), crash_rate=0.6, hang_rate=0.6)
        with pytest.raises(ValueError, match="seed"):
            WorkerFaultPlan(crash_rate=0.5)
        with pytest.raises(ValueError, match="hang_seconds"):
            WorkerFaultPlan(Seed(1), hang_seconds=0)
        with pytest.raises(ValueError, match="kind"):
            WorkerFaultPlan.targeted({(0, 1): "meltdown"})
        assert not WorkerFaultPlan(Seed(1)).enabled

    def test_kind_order_is_sealed(self):
        """The draw partition order is part of the deterministic contract."""
        assert WORKER_FAULT_KINDS == ("crash", "hang", "poison")


class TestPolicyValidation:
    def test_policies_sealed(self):
        assert ON_SHARD_FAILURE == ("retry", "degrade", "raise")

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError, match="on_shard_failure"):
            SupervisorPolicy(on_shard_failure="panic")
        with pytest.raises(ValueError, match="shard_timeout"):
            SupervisorPolicy(shard_timeout=0)
        with pytest.raises(ValueError, match="max_shard_retries"):
            SupervisorPolicy(max_shard_retries=-1)
        with pytest.raises(ValueError, match="poll_interval"):
            SupervisorPolicy(poll_interval=0)


class TestSupervisorReport:
    def test_retries_counts_beyond_first_attempt(self):
        report = SupervisorReport(
            attempts={
                0: ["ok"],
                1: ["crash", "hang", "ok"],
                2: ["poison", "ok"],
            }
        )
        assert report.retries == 3
        assert report.outcome_count("crash") == 1
        assert report.outcome_count("hang") == 1
        assert report.outcome_count("ok") == 3
