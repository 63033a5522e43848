"""The benchmark's four workloads, their probes and their reference checks.

Every workload drives the program through its public API only
(``execute_spec``, ``run_timeline_epoch`` / ``export_segment_store`` /
``timeline_delta``, and ``repro serve`` over HTTP).  A *pass* runs
operations (campaigns, epochs or jobs) until a deadline, or replays the
operations of an earlier pass exactly; each operation's exports are
hashed outside its timed region and checked later against an
independent path (see :func:`verify`).
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import itertools
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

from measure import (
    DigestLedger,
    Tally,
    derive_seed,
    diff_digests,
    digest_bytes,
    digest_files,
    gauge_ms,
    normalised,
)
from spans import Patcher, Tracer

clock = time.perf_counter
#: The collector as the benchmark itself calls it between operations,
#: kept apart from the ``gc.collect`` binding the traced run wraps.
_collect_garbage = gc.collect

#: Fresh processes timed per run for ``setup_s`` (the median is reported).
SETUP_REPS = 5

#: The CLI's ``--small`` campaign.
SMALL = dict(
    skills_per_persona=8,
    pre_iterations=2,
    post_iterations=6,
    crawl_sites=8,
    prebid_discovery_target=50,
    audio_hours=2.0,
)
#: The CI "tiny" campaign that service jobs submit.
TINY = dict(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
)
#: The paper's crawl shape (13 personas, 20 sites out of 200 discovered)
#: with 1 + 2 crawl iterations instead of 6 + 25, so crawls still
#: dominate but a campaign takes 2 to 3 s.
CRAWL = dict(skills_per_persona=4, pre_iterations=1, post_iterations=2, audio_hours=0.5)
#: Interaction-heavy: 50 skills per persona, crawls cut to a sliver.
SKILLS = dict(
    skills_per_persona=50,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=20,
    audio_hours=6.0,
)

#: Analysis folds timed at their call sites in ``repro.core.export``.
ANALYSIS_FUNCTIONS = (
    "detect_cookie_syncing",
    "analyze_profiling",
    "significance_vs_vanilla",
    "bid_summary_table",
    "common_slots",
    "policy_availability",
    "fold_sync_events",
    "fold_policy_availability",
    "common_slots_from_sets",
    "post_cpms_from_rows",
    "representative_from_rows",
    "mann_whitney_u",
    "summarize",
)


def export_files():
    from repro.core.export import EXPORT_FILES

    return EXPORT_FILES


def program_digest(root: Path) -> str:
    """Digest of every file of the program, so the ledger is per version."""
    package = root / "src" / "repro"
    h = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Context:
    """Everything one benchmark run shares across its phases."""

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.tally = Tally()
        self.ledger = DigestLedger(work.parent / f"digests-{program_digest(root)}.json")
        self.env = dict(os.environ)
        src = str(root / "src")
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not path else src + os.pathsep + path
        self.children: List[subprocess.Popen] = []

    def spawn(self, args, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(args, env=self.env, cwd=str(self.work), **kwargs)
        self.children.append(proc)
        return proc

    def reap(self) -> None:
        """Stop and wait for every child process still running."""
        for proc in self.children:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


class OpRecord:
    """One completed operation of a pass."""

    def __init__(self, kind, label, key, seconds, op, digests=None,
                 reference=None, gauge=None, **extra) -> None:
        self.kind = kind
        self.label = label
        #: What determines the exports (the digest-ledger key).
        self.key = key
        self.seconds = seconds
        self.op = op
        self.digests: Optional[Dict[str, str]] = digests
        #: Spec JSON whose memory-store ``execute_spec`` is the reference.
        self.reference: Optional[str] = reference
        #: Machine gauge (ms) around the operation, for normalisation;
        #: ``None`` leaves the operation's time as measured.
        self.gauge = gauge
        self.extra = extra


class Pass:
    def __init__(self, ops: List[OpRecord], plan, wall_s: float) -> None:
        self.ops = ops
        #: What a traced pass needs to replay exactly these operations.
        self.plan = plan
        self.wall_s = wall_s

    def seconds(self, kind: str) -> List[float]:
        return [r.seconds for r in self.ops if r.kind == kind and not r.op.failed]

    def normalised(self, kind: str) -> List[float]:
        """Operation times at the reference machine's speed."""
        return [
            r.seconds if r.gauge is None else normalised(r.seconds, r.gauge)
            for r in self.ops
            if r.kind == kind and not r.op.failed
        ]

    def per_spec(self, kind: str) -> List[float]:
        """One normalised time per distinct spec: the median of its repeats.

        Every spec weighs the same however many times the window let it
        run, so a run that fits one more campaign does not shift the
        figure towards that campaign's seed.
        """
        repeats: Dict[str, List[float]] = {}
        for r in self.ops:
            if r.kind == kind and not r.op.failed:
                seconds = r.seconds if r.gauge is None else normalised(r.seconds, r.gauge)
                repeats.setdefault(r.key, []).append(seconds)
        return [statistics.median(values) for values in repeats.values()]


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# Set-up probes
# ---------------------------------------------------------------------- #

_SETUP_PROBE = r"""
import json, sys, time
t0 = time.perf_counter()
import repro
t1 = time.perf_counter()
from repro.core.world import build_config_world
config = repro.ExperimentConfig(**json.loads(sys.argv[1]))
build_config_world(repro.Seed(int(sys.argv[2])), config)
print(json.dumps({"import_s": t1 - t0}), flush=True)
"""


class SetupTimes:
    """Set-up samples, each normalised by the gauges on either side of it."""

    def __init__(self) -> None:
        self.wall: List[float] = []
        self.normalised: List[float] = []
        self.import_s: List[float] = []
        self._gauge = gauge_ms()

    def add(self, seconds: float) -> None:
        after = gauge_ms()
        self.wall.append(seconds)
        self.normalised.append(normalised(seconds, (self._gauge + after) / 2))
        self._gauge = after


def campaign_setup(ctx: Context, config: dict, seed: int) -> SetupTimes:
    """Time fresh processes from spawn to "repro imported, first world built"."""
    times = SetupTimes()
    for _ in range(SETUP_REPS):
        started = clock()
        proc = ctx.spawn(
            [sys.executable, "-c", _SETUP_PROBE, json.dumps(config), str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline()
        ready = clock()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or not line:
            raise RuntimeError("set-up probe failed")
        times.import_s.append(json.loads(line)["import_s"])
        times.add(ready - started)
    return times


def import_probe(ctx: Context) -> List[float]:
    code = "import time; t=time.perf_counter(); import repro; print(time.perf_counter()-t)"
    values = []
    for _ in range(SETUP_REPS):
        out = subprocess.run(
            [sys.executable, "-c", code], env=ctx.env, cwd=str(ctx.work),
            capture_output=True, text=True, timeout=60, check=True,
        )
        values.append(float(out.stdout))
    return values


# ---------------------------------------------------------------------- #
# Probes for the traced run
# ---------------------------------------------------------------------- #


def _export_bytes(span, result, args, kwargs) -> None:
    out = Path(args[1] if len(args) > 1 else kwargs["out_dir"])
    span.add("bytes", sum(
        (out / name).stat().st_size for name in export_files() if (out / name).is_file()
    ))


def _batch_bytes(span, marker_path, args, kwargs) -> None:
    store = args[0]
    marker = json.loads(Path(marker_path).read_text(encoding="utf-8"))
    span.add("bytes", Path(marker_path).stat().st_size + sum(
        (store.segments_dir / seg["file"]).stat().st_size
        for seg in marker["segments"].values()
    ))


def _adopted(span, counts, args, kwargs) -> None:
    span.add("linked", counts["linked"])
    span.add("copied", counts["copied"])


def _epoch_counts(span, result, args, kwargs) -> None:
    _, reused, recomputed = result
    span.add("reused", reused)
    span.add("recomputed", recomputed)


def install_probes(patcher: Patcher) -> None:
    """Wrap each layer's public entry points (README.md, "Per-layer")."""
    import repro.core.export  # noqa: F401 - loaded so its bindings can be wrapped
    import repro.core.timeline  # noqa: F401
    from repro.adtech.audio import AudioAdServer
    from repro.adtech.prebid import PrebidSession
    from repro.alexa.device import EchoDevice
    from repro.alexa.dsar import DataRequestPortal
    from repro.core.experiment import ExperimentRunner
    from repro.core.segments import SegmentStore
    from repro.netsim.router import Router
    from repro.web.browser import Browser
    from repro.web.openwpm import OpenWPMCrawler

    patcher.function("repro.core.world", "build_config_world", "world.build", callers=True)
    patcher.method(ExperimentRunner, "run", "experiment.run")
    patcher.method(OpenWPMCrawler, "crawl_iteration", "web.crawl_iteration")
    patcher.method(Browser, "get", "web.browser_get")
    patcher.method(PrebidSession, "request_bids", "adtech.request_bids")
    patcher.method(Router, "send", "netsim.router_send")
    patcher.method(EchoDevice, "run_skill_session", "alexa.skill_session")
    patcher.method(DataRequestPortal, "request_data", "alexa.dsar_request")
    patcher.method(AudioAdServer, "stream", "adtech.audio_stream")
    patcher.function("repro.core.export", "export_dataset", "export.dataset", after=_export_bytes)
    patcher.function(
        "repro.core.export", "export_segment_store", "export.segments", after=_export_bytes
    )
    for name in ANALYSIS_FUNCTIONS:
        patcher.function("repro.core.export", name, f"analysis.{name}")
    patcher.method(SegmentStore, "write_batch", "segments.write_batch", after=_batch_bytes)
    patcher.method(SegmentStore, "iter_stream", "segments.iter_stream", generator=True)
    patcher.method(SegmentStore, "stream_records_for", "segments.point_read")
    patcher.method(SegmentStore, "adopt_batch", "segments.adopt_batch", after=_adopted)
    patcher.function("gc", "collect", "segments.gc")
    patcher.function(
        "repro.core.timeline", "run_timeline_epoch", "timeline.epoch_run", after=_epoch_counts
    )
    patcher.function("repro.core.timeline", "timeline_delta", "timeline.delta")


# ---------------------------------------------------------------------- #
# Campaign workloads: paper-crawl, skills-segments
# ---------------------------------------------------------------------- #


def _span(tracer: Optional[Tracer], name: str, request: str):
    return nullcontext() if tracer is None else tracer.span(name, request)


class CampaignWorkload:
    """Closed loop, one client: campaigns back to back.

    A run cycles through ``seeds_per_run`` campaign seeds, so every run
    measures the same campaigns however many fit in its window, and each
    repeat must hash the same as the first.
    """

    root = "campaign"
    loop = "closed loop, 1 client (serial campaigns, 2 seeds in turn)"
    seeds_per_run = 2

    def __init__(self, name: str, config: dict, store: str) -> None:
        self.name = name
        self.config = config
        self.store = store

    def _spec(self, seed: int):
        from repro import CampaignSpec, ExperimentConfig

        return CampaignSpec(config=ExperimentConfig(**self.config), seed=seed, store=self.store)

    def setup(self, ctx: Context) -> SetupTimes:
        return campaign_setup(ctx, self.config, derive_seed(self.name, ctx.seed, 0))

    def run_pass(self, ctx: Context, tag: str, *, deadline=None, replay=None,
                 tracer: Optional[Tracer] = None) -> Pass:
        from repro import execute_spec

        ops: List[OpRecord] = []
        started = clock()
        gauge = gauge_ms()
        for index in itertools.count():
            if replay is not None:
                if index >= len(replay):
                    break
                seed = replay[index]
            elif index >= self.seeds_per_run and clock() >= deadline:
                break
            else:
                seed = derive_seed(self.name, ctx.seed, index % self.seeds_per_run)
            spec = self._spec(seed)
            label = f"{self.name}/{tag}/campaign-{index}/seed-{seed}"
            op = ctx.tally.begin("campaign", label)
            out = ctx.work / f"{tag}-campaign-{index}"
            t0 = clock()
            try:
                with _span(tracer, "campaign", label):
                    execute_spec(spec, out)
            except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
                op.fail(f"{type(exc).__name__}: {exc}")
            seconds = clock() - t0
            digests = None if op.failed else digest_files(out, export_files())
            shutil.rmtree(out, ignore_errors=True)
            _collect_garbage()
            after = gauge_ms()
            reference_store = "segments" if self.store == "memory" else "memory"
            ops.append(OpRecord(
                "campaign", label, spec.fingerprint(), seconds, op, digests,
                reference=spec.replace(store=reference_store).to_json(),
                gauge=(gauge + after) / 2,
                seed=seed,
            ))
            gauge = after
        return Pass(ops, [r.extra["seed"] for r in ops], clock() - started)

    def peak_rss_mb(self, ctx: Context) -> float:
        return peak_rss_self_mb()

    def close(self, ctx: Context) -> None:
        pass


# ---------------------------------------------------------------------- #
# timeline-drift
# ---------------------------------------------------------------------- #


class TimelineWorkload(CampaignWorkload):
    """Closed loop, one client: two timelines, their epochs in turn.

    Epoch costs differ more between timelines (each seed builds its own
    world) than between the epochs of one, so a run steps two timelines
    side by side: epoch 0 of each, epoch 1 of each, and so on.
    """

    root = "epoch"
    loop = "closed loop, 1 client (2 timelines in turn: epoch 0 cold, then incremental epochs)"
    timelines_per_run = 2
    #: Upper bound on epochs authored per timeline; the deadline ends a
    #: pass long before it on any machine this benchmark targets.
    max_epochs = 24

    def __init__(self) -> None:
        super().__init__("timeline-drift", SMALL, "segments")

    def run_pass(self, ctx: Context, tag: str, *, deadline=None, replay=None,
                 tracer: Optional[Tracer] = None) -> Pass:
        from repro import CampaignSpec
        from repro.core import export, timeline

        lanes = []
        for lane in range(self.timelines_per_run):
            seed = derive_seed(self.name, ctx.seed, lane)
            spec = timeline.TimelineSpec.generate(
                self._spec(seed), n_epochs=self.max_epochs, drift_personas=1,
                churn_categories=0, filterlist_updates=0,
            )
            lanes.append({"seed": seed, "spec": spec, "dir": ctx.work / f"{tag}-timeline-{lane}",
                          "prev": None})
        ops: List[OpRecord] = []
        started = clock()
        gauge = gauge_ms()
        rounds = 0
        for index in range(self.max_epochs):
            if replay is not None and index >= replay:
                break
            if replay is None and index > 1 and clock() >= deadline:
                break
            for lane in lanes:
                seed, spec = lane["seed"], lane["spec"]
                kind = "campaign" if index == 0 else "epoch"
                label = f"{self.name}/{tag}/seed-{seed}/epoch-{index:02d}"
                op = ctx.tally.begin(kind, label)
                out = lane["dir"] / f"epoch-{index:02d}"
                store = None
                t0 = clock()
                try:
                    with _span(tracer, kind, label):
                        store, _, _ = timeline.run_timeline_epoch(
                            spec, index, store_dir=lane["dir"] / "_segments", incremental=True
                        )
                        export.export_segment_store(store, out)
                        if lane["prev"] is not None:
                            delta = timeline.timeline_delta(
                                spec, index - 1, index, lane["prev"], store
                            )
                            (out.parent / f"delta-{index:02d}.json").write_text(
                                json.dumps(delta, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8",
                            )
                except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
                    op.fail(f"{type(exc).__name__}: {exc}")
                seconds = clock() - t0
                digests = None if op.failed else digest_files(out, export_files())
                after = gauge_ms()
                reference = CampaignSpec(config=spec.effective_config(index), seed=seed)
                ops.append(OpRecord(
                    kind, label, f"{spec.fingerprint()}#{index}", seconds, op, digests,
                    reference=reference.to_json(), gauge=(gauge + after) / 2,
                ))
                gauge = after
                if op.failed:
                    break
                lane["prev"] = store
                if index == 0 and deadline is not None:
                    # The window is for incremental epochs: push the
                    # deadline back by each epoch 0's time, which alone
                    # can fill the window on a busy machine.
                    deadline += seconds
            rounds += 1
            if ops[-1].op.failed:
                break
        _collect_garbage()
        return Pass(ops, rounds, clock() - started)


# ---------------------------------------------------------------------- #
# service-loop
# ---------------------------------------------------------------------- #

_TERMINAL = ("complete", "partial", "failed", "cancelled")
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


class Server:
    """``repro serve`` as a child process on an ephemeral port."""

    def __init__(self, ctx: Context, index: int) -> None:
        root = ctx.work / f"service-{index}"
        root.mkdir(parents=True)
        self.log = root.parent / f"service-{index}.log"
        started = clock()
        with self.log.open("wb") as log:
            self.proc = ctx.spawn(
                [sys.executable, "-m", "repro", "serve", "--root", str(root),
                 "--port", "0", "--total-workers", "1"],
                stdout=log, stderr=subprocess.STDOUT,
            )
        self.host, self.port = self._await_address(started)
        while True:
            try:
                status, _ = self.request("GET", "/healthz")
            except OSError:
                status = None
            if status == 200:
                break
            self._check_alive(started)
            time.sleep(0.005)
        self.ready_s = clock() - started

    def _check_alive(self, started: float) -> None:
        if self.proc.poll() is not None or clock() - started > 60:
            raise RuntimeError(f"service did not come up; see {self.log}")

    def _await_address(self, started: float):
        while True:
            match = _LISTENING.search(self.log.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            self._check_alive(started)
            time.sleep(0.005)

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class ServiceWorkload:
    """Closed loop, two clients, one worker token on the server.

    Job latencies are not normalised by the machine gauge: a job's time
    is mostly poll sleeps, disk syncs and queueing behind the other
    client, which do not scale with CPU speed.  Measured, normalising
    them widened their spread.
    """

    name = "service-loop"
    root = "job"
    loop = "closed loop, 2 client threads against 1 worker token"
    clients = 2
    #: Status-poll interval; job latency carries up to this much slack.
    #: Faster polling steals the server's GIL from the campaign it polls.
    poll_s = 0.1
    #: A job not terminal after this long counts as failed.
    job_timeout_s = 120.0

    def __init__(self) -> None:
        self.server: Optional[Server] = None

    def setup(self, ctx: Context) -> SetupTimes:
        times = SetupTimes()
        for index in range(SETUP_REPS):
            if self.server is not None:
                self.server.stop()
            self.server = Server(ctx, index)
            times.add(self.server.ready_s)
        return times

    def _http(self, ctx: Context, tracer, name: str, method: str, path: str,
              body: Optional[bytes] = None) -> Optional[bytes]:
        """One counted request; ``None`` when it failed (already charged)."""
        op = ctx.tally.begin("http", f"{method} {path}")
        span = None if tracer is None else tracer.open(name)
        try:
            status, data = self.server.request(method, path, body)
        except (OSError, http.client.HTTPException) as exc:
            op.fail(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            if span is not None:
                tracer.close(span)
        if not 200 <= status < 300:
            op.fail(f"HTTP {status}")
            if span is not None:
                span.add("errors", 1)
            return None
        return data

    def _job(self, ctx: Context, tracer, client: int, index: int, seed: int,
             tag: str) -> Optional[OpRecord]:
        from repro import CampaignSpec, ExperimentConfig

        spec = CampaignSpec(config=ExperimentConfig(**TINY), seed=seed)
        label = f"{self.name}/{tag}/client-{client}/job-{index}/seed-{seed}"
        t0 = clock()
        with _span(tracer, "job", label):
            data = self._http(ctx, tracer, "service.submit", "POST", "/campaigns",
                              spec.to_json().encode("utf-8"))
            if data is None:
                return None
            record = json.loads(data)
            job_id = record["id"]
            op = ctx.tally.begin("job", label)
            polls, running_at, state, error = 0, None, None, None
            while True:
                data = self._http(ctx, tracer, "service.status", "GET", f"/campaigns/{job_id}")
                polls += 1
                if data is not None:
                    status = json.loads(data)
                    state, error = status.get("state"), status.get("error")
                    if state != "queued" and running_at is None:
                        running_at = time.time()
                    if state in _TERMINAL:
                        break
                if clock() - t0 > self.job_timeout_s:
                    break
                with _span(tracer, "service.poll_sleep", label):
                    time.sleep(self.poll_s)
            terminal_at = time.time()
            digests = None
            if state != "complete":
                op.fail(f"job {job_id} ended {state}: {error}")
            else:
                listing = self._http(ctx, tracer, "service.results_list", "GET",
                                     f"/campaigns/{job_id}/results")
                if listing is not None:
                    digests = {}
                    for name in json.loads(listing)["files"]:
                        body = self._http(ctx, tracer, "service.result_file", "GET",
                                          f"/campaigns/{job_id}/results/{name}")
                        if body is None:
                            digests = None
                            break
                        digests[name] = digest_bytes(body)
        latency = clock() - t0
        running_at = running_at if running_at is not None else terminal_at
        return OpRecord(
            "job", label, spec.fingerprint(), latency, op, digests,
            reference=spec.to_json(),
            seed=seed,
            queue_wait_s=max(0.0, running_at - record["queued_at"]),
            run_s=terminal_at - running_at,
            polls=polls,
            end=clock(),
        )

    def run_pass(self, ctx: Context, tag: str, *, deadline=None, replay=None,
                 tracer: Optional[Tracer] = None) -> Pass:
        ops: List[List[OpRecord]] = [[] for _ in range(self.clients)]
        errors: List[Exception] = []
        started = clock()

        def client(c: int) -> None:
            try:
                index = 0
                while True:
                    if replay is not None:
                        if index >= len(replay[c]):
                            return
                        seed = replay[c][index]
                    else:
                        if clock() >= deadline:
                            return
                        seed = derive_seed(self.name, ctx.seed, "client", c, index)
                    record = self._job(ctx, tracer, c, index, seed, tag)
                    if record is not None:
                        ops[c].append(record)
                    index += 1
            except Exception as exc:  # noqa: BLE001 - re-raised after join
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(c,), daemon=True)
                   for c in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
            if thread.is_alive():
                raise RuntimeError("service client did not finish")
        if errors:
            raise errors[0]
        flat = [r for per_client in ops for r in per_client]
        end = max((r.extra["end"] for r in flat), default=clock())
        plan = [[r.extra["seed"] for r in per_client] for per_client in ops]
        return Pass(flat, plan, end - started)

    def peak_rss_mb(self, ctx: Context) -> float:
        return self.server.peak_rss_mb()

    def close(self, ctx: Context) -> None:
        if self.server is not None:
            self.server.stop()


WORKLOADS = {
    "paper-crawl": lambda: CampaignWorkload("paper-crawl", CRAWL, "memory"),
    "skills-segments": lambda: CampaignWorkload("skills-segments", SKILLS, "segments"),
    "timeline-drift": TimelineWorkload,
    "service-loop": ServiceWorkload,
}


# ---------------------------------------------------------------------- #
# Verification
# ---------------------------------------------------------------------- #


#: Processes that compute reference digests side by side.
REFERENCE_WORKERS = 2

_REFERENCE_CHILD = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
from workloads import reference_digests
jobs = json.loads(open(sys.argv[2], encoding="utf-8").read())
print(json.dumps([reference_digests(spec, out) for spec, out in jobs]), flush=True)
"""


def reference_digests(spec_json: str, out_dir: str) -> Dict[str, str]:
    """Export digests of ``spec_json`` run through ``execute_spec``."""
    from repro import CampaignSpec, execute_spec

    execute_spec(CampaignSpec.from_json(spec_json), out_dir)
    digests = digest_files(Path(out_dir), export_files())
    shutil.rmtree(out_dir, ignore_errors=True)
    return digests


def reference_digests_for(ctx: Context, records: List[OpRecord]) -> Dict[str, Dict[str, str]]:
    """Reference digests per distinct reference spec, two processes at a time.

    The specs are dealt round-robin to plain child processes started
    through ``ctx.spawn`` and waited for here, so nothing outlives the
    run (a ``multiprocessing`` pool would leave its resource-tracker
    process behind until the interpreter exits).
    """
    specs = sorted({r.reference for r in records if r.digests is not None})
    if not specs:
        return {}
    here = str(Path(__file__).resolve().parent)
    jobs = [(i, spec, str(ctx.work / f"reference-{i}")) for i, spec in enumerate(specs)]
    children = []
    for worker in range(min(REFERENCE_WORKERS, len(specs))):
        share = jobs[worker::REFERENCE_WORKERS]
        plan = ctx.work / f"reference-plan-{worker}.json"
        plan.write_text(json.dumps([[spec, out] for _, spec, out in share]), encoding="utf-8")
        proc = ctx.spawn(
            [sys.executable, "-c", _REFERENCE_CHILD, here, str(plan)],
            stdout=subprocess.PIPE, text=True,
        )
        children.append((share, proc))
    refs = {}
    for share, proc in children:
        out, _ = proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(f"reference run exited with code {proc.returncode}")
        for (_, spec, _), digests in zip(share, json.loads(out.splitlines()[-1])):
            refs[spec] = digests
    return refs


def charge_mismatches(ctx: Context, records: List[OpRecord],
                      refs: Dict[str, Dict[str, str]], log) -> None:
    """Fail every operation whose exports are not what they should be.

    The digests must match the independent path for the same spec, and
    every earlier run of the same spec in this checkout (the digest
    ledger; this also pins a traced pass to its untraced twin).  A
    missing export file is a mismatch.
    """
    names = export_files()
    for r in records:
        if r.digests is None:
            continue
        for source, bad in (
            ("the reference path", diff_digests(refs[r.reference], r.digests, names)),
            ("an earlier run", ctx.ledger.check(r.key, r.digests, names)),
        ):
            if bad:
                r.op.fail(f"differs from {source}: {', '.join(bad)}")
                log(f"MISMATCH {r.label}: differs from {source} in {', '.join(bad)}")
    ctx.ledger.save()


def verify(ctx: Context, records: List[OpRecord], log) -> None:
    """Check every operation's exports, outside any timed region."""
    charge_mismatches(ctx, records, reference_digests_for(ctx, records), log)
