"""Unit tests for the observability layer (repro.obs)."""

import json
import pickle

import pytest

from repro.obs import (
    EVENT_SCHEMA_VERSION,
    EventLog,
    MetricsRegistry,
    NULL_OBS,
    ObsCollector,
    RunManifest,
    SPAN_SCHEMA_VERSION,
    Tracer,
    merge_collectors,
)
from repro.util.clock import SimClock


class TestTracer:
    def test_span_nesting(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner-a"):
                pass
            with tracer.span("inner-b"):
                with tracer.span("leaf"):
                    pass
        assert tracer.open_depth == 0
        assert [r.name for r in tracer.roots] == ["outer"]
        outer = tracer.roots[0]
        assert [c.name for c in outer.children] == ["inner-a", "inner-b"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]

    def test_sim_timestamps_from_bound_clock(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("work", det=True):
            clock.advance(1.5)
        span = tracer.roots[0]
        assert span.sim_elapsed == pytest.approx(1.5)
        assert span.sim_us == 1_500_000

    def test_sim_us_only_on_det_spans(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("structural"):
            clock.advance(2.0)
        assert tracer.roots[0].sim_us is None
        assert tracer.sim_tree()[0]["sim_us"] is None

    def test_error_status_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer.roots[0].status == "error"
        assert tracer.open_depth == 0

    def test_non_scalar_attr_rejected(self):
        tracer = Tracer()
        with pytest.raises(TypeError, match="JSON scalar"):
            with tracer.span("bad", blob=[1, 2]):
                pass

    def test_records_are_preorder_with_parent_ids(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        records = tracer.records()
        assert [(r["id"], r["parent_id"], r["name"]) for r in records] == [
            (0, None, "a"),
            (1, 0, "b"),
            (2, None, "c"),
        ]
        assert all(r["schema"] == SPAN_SCHEMA_VERSION for r in records)

    def test_sim_tree_json_is_canonical(self):
        tracer = Tracer()
        with tracer.span("p", zeta=1, alpha=2):
            pass
        text = tracer.sim_tree_json()
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )
        assert '"alpha":2' in text


class TestMetrics:
    def test_counter_sum_and_value(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.inc("x", 4)
        assert reg.value("x") == 5

    def test_counter_rejects_bad_increments(self):
        reg = MetricsRegistry()
        with pytest.raises(TypeError):
            reg.inc("x", 1.5)
        with pytest.raises(ValueError):
            reg.inc("x", -1)

    def test_merge_policies_across_shards(self):
        regs = []
        for shard, n in enumerate((3, 5)):
            reg = MetricsRegistry()
            reg.inc("work", n, merge="sum")
            reg.inc("dup", 7, merge="first")
            reg.set_gauge("peak", float(10 + shard), merge="max")
            regs.append(reg)
        merged = MetricsRegistry.merge(regs)
        assert merged.value("work") == 8
        assert merged.value("dup") == 7
        assert merged.value("peak") == 11.0

    def test_merge_rejects_policy_conflict(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 1, merge="sum")
        b.inc("n", 1, merge="first")
        with pytest.raises(ValueError):
            MetricsRegistry.merge([a, b])

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.inc("n")
        with pytest.raises(TypeError, match="not a gauge"):
            reg.set_gauge("n", 1.0)

    def test_gauge_rejects_sum_policy(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.set_gauge("g", 1.0, merge="sum")

    def test_as_dict_sorted(self):
        reg = MetricsRegistry()
        reg.inc("zz")
        reg.inc("aa")
        assert list(reg.as_dict()["counters"]) == ["aa", "zz"]


class TestEventLog:
    def test_schema_is_exactly_five_keys(self):
        log = EventLog(SimClock())
        record = log.emit("phase.end", phase="setup")
        assert sorted(record) == ["fields", "schema", "seq", "sim_time", "type"]
        assert record["schema"] == EVENT_SCHEMA_VERSION
        assert record["seq"] == 0
        assert record["fields"] == {"phase": "setup"}

    def test_jsonl_round_trip_is_stable(self):
        log = EventLog()
        log.emit("a.b", x=1)
        log.emit("c.d", y="z")
        lines = log.to_jsonl().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert [p["seq"] for p in parsed] == [0, 1]
        # Canonical serialisation: re-dumping reproduces each line.
        for line, p in zip(lines, parsed):
            assert line == json.dumps(p, sort_keys=True, separators=(",", ":"))

    def test_non_scalar_field_rejected(self):
        log = EventLog()
        with pytest.raises(TypeError):
            log.emit("bad", payload={"nested": True})

    def test_merge_renumbers_seq(self):
        a, b = EventLog(), EventLog()
        a.emit("one")
        b.emit("two")
        b.emit("three")
        merged = EventLog.merge([a, b])
        assert [r["seq"] for r in merged] == [0, 1, 2]
        assert [r["type"] for r in merged] == ["one", "two", "three"]


class TestManifest:
    def test_validates_entrypoint(self):
        with pytest.raises(ValueError):
            RunManifest(seed_root=1, config_fingerprint="x", entrypoint="warp")
        # The dataset cache and its "cached" entrypoint are gone.
        with pytest.raises(ValueError, match="cached"):
            RunManifest(seed_root=1, config_fingerprint="x", entrypoint="cached")

    def test_to_dict_splits_real_fields(self):
        manifest = RunManifest(
            seed_root=42,
            config_fingerprint="abc",
            entrypoint="serial",
            shards=(("p1", "p2"),),
            phase_real_seconds={"setup": 0.25},
        )
        payload = manifest.to_dict()
        assert payload["persona_count"] == 2
        assert payload["real"]["phase_seconds"] == {"setup": 0.25}
        assert "real" not in manifest.to_dict(include_real=False)
        assert payload["schema"] == 4
        for removed in ("cache_hit", "resumed", "checkpointed"):
            assert removed not in payload


class TestCollector:
    def test_null_obs_is_inert(self):
        with NULL_OBS.span("anything", det=True, persona="x"):
            NULL_OBS.inc("n")
            NULL_OBS.event("e")
        assert NULL_OBS.enabled is False

    def test_trace_lines_shape(self):
        obs = ObsCollector(SimClock())
        obs.manifest = RunManifest(
            seed_root=1, config_fingerprint="f", entrypoint="serial"
        )
        with obs.span("campaign"):
            obs.inc("n")
            obs.event("tick")
        kinds = [json.loads(line)["kind"] for line in obs.trace_lines()]
        assert kinds == ["manifest", "span", "event"]

    def test_collector_pickles(self):
        obs = ObsCollector(SimClock())
        with obs.span("campaign", det=True):
            obs.inc("n", 3)
            obs.event("tick", k="v")
        clone = pickle.loads(pickle.dumps(obs))
        assert clone.metrics.value("n") == 3
        assert clone.tracer.sim_tree_json() == obs.tracer.sim_tree_json()

    def test_merge_orders_personas_by_roster(self):
        roster = ["alpha", "beta", "gamma"]
        shards = []
        for names in (["alpha", "beta"], ["gamma"]):
            obs = ObsCollector(SimClock())
            with obs.span("phase:work"):
                for name in names:
                    with obs.span("persona:work", det=True, persona=name):
                        pass
            shards.append(obs)
        # Reversed shard personas still come out in roster order.
        merged = merge_collectors(list(reversed(shards)), roster)
        phase = merged.tracer.roots[0]
        assert [c.attrs["persona"] for c in phase.children] == roster

    def test_merge_rejects_structural_disagreement(self):
        a, b = ObsCollector(SimClock()), ObsCollector(SimClock())
        with a.span("phase:x"):
            pass
        with b.span("phase:y"):
            pass
        with pytest.raises(RuntimeError, match="skeleton"):
            merge_collectors([a, b], roster=[])

    def test_merge_rejects_det_sim_disagreement(self):
        shards = []
        for advance in (1.0, 2.0):
            clock = SimClock()
            obs = ObsCollector(clock)
            with obs.span("phase:x", det=True):
                clock.advance(advance)
            shards.append(obs)
        with pytest.raises(RuntimeError, match="disagrees"):
            merge_collectors(shards, roster=[])
