"""Tests for the benchmark's own logic.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from measure import (  # noqa: E402
    DigestLedger,
    Tally,
    derive_seed,
    nearest_rank,
    tail_percentile,
)
from spans import LayerSummary, Patcher, Tracer, self_times  # noqa: E402


class FakeClock:
    """A clock that returns scripted instants, one per call."""

    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


# ---------------------------------------------------------------------- #
# Percentile rule
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "n, expected_q",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected_q):
    values = [float(i) for i in range(1, n + 1)]
    result = tail_percentile(values)
    if expected_q is None:
        assert result is None
        return
    q, value = result
    assert q == expected_q
    beyond = sum(1 for v in values if v > value)
    assert beyond >= 10
    assert value == nearest_rank(values, q)


def test_nearest_rank_is_order_free():
    assert nearest_rank([5.0, 1.0, 3.0, 2.0, 4.0], 50) == 3.0
    assert nearest_rank([5.0, 1.0, 3.0, 2.0, 4.0], 100) == 5.0
    assert nearest_rank([7.0], 99.9) == 7.0


# ---------------------------------------------------------------------- #
# Self time
# ---------------------------------------------------------------------- #


def test_self_time_from_nested_and_sibling_spans():
    # root [0,10]: child a [1,4] holding grandchild a1 [2,3]; sibling b [5,9].
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    with tracer.span("root", request="op-1"):
        with tracer.span("a"):
            with tracer.span("a1"):
                pass
        with tracer.span("b"):
            pass
    spans = {s.name: s for s in tracer.spans}
    selfs = self_times(tracer.spans)
    assert selfs[spans["root"].id] == 3
    assert selfs[spans["a"].id] == 2
    assert selfs[spans["a1"].id] == 1
    assert selfs[spans["b"].id] == 4
    assert {s.request for s in tracer.spans} == {"op-1"}
    assert spans["a1"].parent == spans["a"].id

    summary = LayerSummary(tracer.spans, "root")
    assert summary.unattributed == 3
    assert summary.self_sum() == summary.root_total == 10
    assert summary.calls == {"a": 1, "a1": 1, "b": 1}


def test_generator_pulls_are_charged_to_their_consumer():
    # Pulls take [1,2] and [3,4]; the consumer's own work fills the gaps.
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 6, 7))
    with tracer.span("fold"):
        items = list(tracer.iterate("stream", iter([1, 2])))
    assert items == [1, 2]
    fold, stream = tracer.spans
    assert stream.parent == fold.id
    assert stream.busy == 3  # [1,2] + [3,4] + the final, empty pull [5,6]
    assert stream.attrs == {"records": 2}
    assert self_times(tracer.spans)[fold.id] == 7 - 3
    summary = LayerSummary(tracer.spans, "fold")
    assert summary.self_sum() == summary.root_total


def test_patcher_wraps_and_restores():
    class Device:
        def work(self, x):
            return x * 2

    tracer = Tracer()
    patcher = Patcher(tracer)
    original = Device.__dict__["work"]
    seen = []
    patcher.method(Device, "work", "device.work",
                   after=lambda span, result, args, kwargs: seen.append(result))
    try:
        with tracer.span("root"):
            assert Device().work(4) == 8
        with pytest.raises(TypeError):
            Device().work(None)
    finally:
        patcher.restore()
    assert Device.__dict__["work"] is original
    names = [s.name for s in tracer.spans]
    assert names == ["root", "device.work", "device.work"]
    assert seen == [8]
    assert tracer.spans[2].attrs == {"errors": 1}


def test_patcher_rebinds_names_imported_by_callers(tmp_path, monkeypatch):
    import types

    lib = types.ModuleType("repro_benchtest_lib")
    lib.build = lambda: "world"
    caller = types.ModuleType("repro_benchtest_caller")
    caller.build = lib.build
    monkeypatch.setitem(sys.modules, lib.__name__, lib)
    monkeypatch.setitem(sys.modules, caller.__name__, caller)
    original = lib.build

    tracer = Tracer()
    patcher = Patcher(tracer)
    patcher.function(lib.__name__, "build", "world.build", callers=True)
    try:
        assert caller.build() == "world"
    finally:
        patcher.restore()
    assert lib.build is original and caller.build is original
    assert [s.name for s in tracer.spans] == ["world.build"]


# ---------------------------------------------------------------------- #
# failed_frac accounting
# ---------------------------------------------------------------------- #


@pytest.fixture()
def ctx(tmp_path):
    from workloads import Context

    work = tmp_path / "run"
    (work / "tmp").mkdir(parents=True)
    return Context(Path(__file__).resolve().parents[2], work, 1)


def _record(ctx, digests, key="spec-1", reference="ref"):
    from workloads import OpRecord

    return OpRecord("campaign", "op", key, 1.0, ctx.tally.begin("campaign", "op"),
                    digests, reference=reference)


def test_forced_digest_mismatch_counts_once(ctx):
    from workloads import charge_mismatches, export_files

    names = export_files()
    good = {name: "0" * 64 for name in names}
    bad = dict(good, **{"bids.csv": "f" * 64})
    log = []
    # Differs from the reference *and* from an earlier run of the same
    # spec: still one failed operation.
    ctx.ledger.check("spec-1", good, names)
    records = [_record(ctx, bad), _record(ctx, good, key="spec-2")]
    charge_mismatches(ctx, records, {"ref": good}, log.append)
    assert (ctx.tally.attempted, ctx.tally.failed) == (2, 1)
    assert ctx.tally.failed_frac == 0.5
    assert len(records[0].op.reasons) == 2
    assert all("bids.csv" in line for line in log)


def test_latency_counts_each_spec_once(ctx):
    from workloads import OpRecord, Pass

    def op(key, seconds, gauge=12.0):
        return OpRecord("campaign", key, key, seconds, ctx.tally.begin("campaign", key),
                        gauge=gauge)

    # Seed a ran three times, b once: a enters at the median of its
    # repeats, and the figure does not lean towards a for running more.
    ops = [op("a", 1.0), op("b", 3.0), op("a", 1.2), op("a", 5.0)]
    assert sorted(Pass(ops, [], 1.0).per_spec("campaign")) == [1.2, 3.0]
    # Times are normalised by the gauge around each operation.
    assert Pass([op("c", 2.0, gauge=24.0)], [], 1.0).per_spec("campaign") == [1.0]
    failed = op("d", 9.0)
    failed.op.fail("boom")
    assert Pass([failed], [], 1.0).per_spec("campaign") == []


def test_digest_ledger_persists_across_runs(tmp_path):
    names = ["a.csv"]
    first = DigestLedger(tmp_path / "digests.json")
    assert first.check("k", {"a.csv": "1"}, names) == []
    first.save()
    second = DigestLedger(tmp_path / "digests.json")
    assert second.check("k", {"a.csv": "1"}, names) == []
    assert second.check("k", {"a.csv": "2"}, names) == ["a.csv"]


class _FakeService(BaseHTTPRequestHandler):
    """Answers like ``repro serve`` for one job whose fate the test picks."""

    job_state = "complete"
    listing_status = 200

    def log_message(self, *args):
        pass

    def _send(self, status, payload):
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self._send(201, {"id": "job-1", "queued_at": 0.0, "state": "queued"})

    def do_GET(self):
        if self.path == "/campaigns/job-1":
            self._send(200, {"id": "job-1", "state": self.job_state, "error": "boom"})
        elif self.path == "/campaigns/job-1/results":
            self._send(self.listing_status, {"files": []})
        else:
            self._send(404, {"error": "no such resource"})


@pytest.fixture()
def fake_service(monkeypatch):
    from workloads import Server, ServiceWorkload

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _FakeService)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    endpoint = Server.__new__(Server)
    endpoint.host, endpoint.port = httpd.server_address
    workload = ServiceWorkload()
    workload.server = endpoint
    try:
        yield workload
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_non_2xx_response_counts_once(ctx, fake_service, monkeypatch):
    monkeypatch.setattr(_FakeService, "listing_status", 500)
    record = fake_service._job(ctx, None, 0, 0, 7, "t")
    # POST, one status poll, the failed listing, and the job itself.
    kinds = [(op.kind, op.failed) for op in ctx.tally.operations]
    assert kinds.count(("http", True)) == 1
    assert ctx.tally.failed == 1
    assert record.digests is None and not record.op.failed

    assert fake_service._http(ctx, None, "x", "GET", "/nowhere") is None
    assert ctx.tally.failed == 2


def test_failed_job_counts_once(ctx, fake_service, monkeypatch):
    monkeypatch.setattr(_FakeService, "job_state", "failed")
    record = fake_service._job(ctx, None, 0, 0, 7, "t")
    assert record.op.failed and "boom" in record.op.reasons[0]
    assert ctx.tally.failed == 1
    assert ctx.tally.attempted == 3  # POST, status poll, job


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed("paper-crawl", 1, 0) == derive_seed("paper-crawl", 1, 0)
    seeds = {derive_seed(w, s, i) for w in ("a", "b") for s in (1, 2) for i in range(50)}
    assert len(seeds) == 200
    assert all(0 <= s < 2**31 for s in seeds)


def test_tally_accounts_each_operation_once():
    tally = Tally()
    op = tally.begin("job", "j")
    op.fail("ended failed")
    op.fail("exports missing")
    tally.begin("http", "GET /")
    assert (tally.attempted, tally.failed, tally.failed_frac) == (2, 1, 0.5)


def test_every_emitted_metric_is_declared(ctx):
    import run
    from workloads import WORKLOADS, Pass, SetupTimes

    root = Path(__file__).resolve().parents[2]
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert set(run.GATED_END_TO_END) == {m["name"] for m in bench["end_to_end"]}

    empty = Pass([], [], 1.0)
    setup = SetupTimes()
    setup.import_s = [1.0]
    layers = run.layer_metrics(
        WORKLOADS["paper-crawl"](), LayerSummary([], "campaign"), empty, empty,
        ctx, setup,
    )
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {name: unit for name, (_, unit, _) in layers.items()} == declared
