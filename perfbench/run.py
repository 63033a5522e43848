"""End-to-end audit benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-crawl --seed 1 --seconds 10 --trace 0

Runs the workload for ``--seconds`` against the program in ``src/``,
checks every operation's exports against an independent path, prints
every metric with its unit and sample count, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` replays the same operations under
the span tracer and reports the per-layer metrics instead.  See
README.md in this directory for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from measure import tail_percentile  # noqa: E402
from spans import LayerSummary, Patcher, Tracer  # noqa: E402

#: Hard stop well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #

#: (metric, unit, span name, field).  Fields: ``total`` = inclusive
#: seconds, ``self`` = self seconds, ``calls`` = span count, anything
#: else = a counter the probe attached.  Every value is per root
#: operation (campaign, incremental epoch or job) of the traced pass.
LAYER_METRICS = [
    ("world.build_s", "s", "world.build", "total"),
    ("world.builds", "count", "world.build", "calls"),
    ("experiment.run_s", "s", "experiment.run", "total"),
    ("experiment.runs", "count", "experiment.run", "calls"),
    ("web.crawl_iteration_s", "s", "web.crawl_iteration", "total"),
    ("web.crawl_iterations", "count", "web.crawl_iteration", "calls"),
    ("web.browser_get_self_s", "s", "web.browser_get", "self"),
    ("web.browser_gets", "count", "web.browser_get", "calls"),
    ("adtech.request_bids_s", "s", "adtech.request_bids", "total"),
    ("adtech.request_bids_calls", "count", "adtech.request_bids", "calls"),
    ("netsim.router_send_self_s", "s", "netsim.router_send", "self"),
    ("netsim.router_sends", "count", "netsim.router_send", "calls"),
    ("netsim.send_errors", "count", "netsim.router_send", "errors"),
    ("alexa.skill_session_s", "s", "alexa.skill_session", "total"),
    ("alexa.skill_sessions", "count", "alexa.skill_session", "calls"),
    ("alexa.dsar_request_s", "s", "alexa.dsar_request", "total"),
    ("adtech.audio_stream_s", "s", "adtech.audio_stream", "total"),
    ("export.dataset_s", "s", "export.dataset", "total"),
    ("export.segments_s", "s", "export.segments", "total"),
    ("segments.write_batch_s", "s", "segments.write_batch", "total"),
    ("segments.write_batches", "count", "segments.write_batch", "calls"),
    ("segments.bytes_written", "B", "segments.write_batch", "bytes"),
    ("segments.gc_s", "s", "segments.gc", "total"),
    ("segments.iter_stream_s", "s", "segments.iter_stream", "total"),
    ("segments.records_read", "count", "segments.iter_stream", "records"),
    ("segments.point_read_s", "s", "segments.point_read", "total"),
    ("segments.point_reads", "count", "segments.point_read", "calls"),
    ("segments.adopt_batch_s", "s", "segments.adopt_batch", "total"),
    ("segments.adopted_batches", "count", "segments.adopt_batch", "calls"),
    ("segments.files_linked", "count", "segments.adopt_batch", "linked"),
    ("segments.files_copied", "count", "segments.adopt_batch", "copied"),
    ("timeline.epoch_run_s", "s", "timeline.epoch_run", "total"),
    ("timeline.delta_s", "s", "timeline.delta", "total"),
    ("timeline.personas_reused", "count", "timeline.epoch_run", "reused"),
    ("timeline.personas_recomputed", "count", "timeline.epoch_run", "recomputed"),
]

#: Client-side request spans reported as p50 milliseconds.
SERVICE_REQUESTS = [
    ("service.submit_ms", "service.submit"),
    ("service.status_ms", "service.status"),
    ("service.results_list_ms", "service.results_list"),
    ("service.result_file_ms", "service.result_file"),
]


def _field(summary: LayerSummary, name: str, field: str) -> float:
    if field == "total":
        return summary.total_s.get(name, 0.0)
    if field == "self":
        return summary.self_s.get(name, 0.0)
    if field == "calls":
        return summary.calls.get(name, 0)
    return summary.attrs.get(name, {}).get(field, 0)


def layer_metrics(workload, summary: LayerSummary, untraced, traced, ctx, setup):
    """Every per-layer metric: name -> (value, unit, samples)."""
    from workloads import ANALYSIS_FUNCTIONS

    n = max(1, summary.n_roots)
    out = {}
    for metric, unit, name, field in LAYER_METRICS:
        out[metric] = (_field(summary, name, field) / n, unit, summary.n_roots)
    for fn in ANALYSIS_FUNCTIONS:
        out[f"analysis.{fn}_s"] = (
            summary.total_s.get(f"analysis.{fn}", 0.0) / n, "s", summary.n_roots
        )
    export_bytes = sum(_field(summary, s, "bytes") for s in ("export.dataset", "export.segments"))
    export_s = sum(_field(summary, s, "total") for s in ("export.dataset", "export.segments"))
    out["export.bytes"] = (export_bytes / n, "B", summary.n_roots)
    out["export.mb_per_s"] = (
        export_bytes / export_s / 1e6 if export_s else 0.0, "MB/s", summary.n_roots
    )
    reused = _field(summary, "timeline.epoch_run", "reused")
    recomputed = _field(summary, "timeline.epoch_run", "recomputed")
    out["timeline.reuse_ratio"] = (
        reused / (reused + recomputed) if reused + recomputed else 0.0,
        "ratio", summary.n_roots,
    )

    for metric, name in SERVICE_REQUESTS:
        durations = summary.durations.get(name, [])
        out[metric] = (median(durations) * 1e3 if durations else 0.0, "ms", len(durations))
    jobs = [r for r in traced.ops if r.kind == "job"]
    for metric in ("queue_wait_s", "run_s"):
        values = [r.extra[metric] for r in jobs]
        out[f"service.{metric}"] = (median(values) if values else 0.0, "s", len(values))
    out["service.polls_per_job"] = (
        sum(r.extra["polls"] for r in jobs) / len(jobs) if jobs else 0.0, "count", len(jobs)
    )
    http_errors = sum(1 for op in ctx.tally.operations if op.kind == "http" and op.failed)
    out["service.http_errors"] = (http_errors, "count", 1)

    base = untraced.normalised(workload.root)
    again = traced.normalised(workload.root)
    out["trace.overhead_frac"] = (
        median(again) / median(base) - 1.0 if base and again else 0.0, "ratio", len(again)
    )
    out["trace.unattributed_s"] = (summary.unattributed / n, "s", summary.n_roots)
    out["import.repro_s"] = (median(setup.import_s), "s", len(setup.import_s))
    lines = src_lines(ctx.root / "src" / "repro")
    out["src.lines"] = (lines, "count", 1)
    return out


def src_lines(package: Path) -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in sorted(package.rglob("*.py"))
    )


# ---------------------------------------------------------------------- #
# End-to-end metrics
# ---------------------------------------------------------------------- #


def end_to_end(workload, setup, untraced, rss_mb, ctx):
    """Every end-to-end metric of the workload: name -> (value, unit, samples).

    The gated ``setup_s`` and ``latency_s`` are normalised to the
    reference machine's speed (see ``measure.gauge_ms``; service jobs
    are not); ``latency_s`` is the median of whichever unit of work the
    workload serves, a campaign, an incremental epoch or a job, taken
    over distinct specs (a campaign seed repeated in the run counts once,
    at the median of its repeats).  The other times are wall seconds as
    measured on this machine.
    """
    n = len(setup.wall)
    out = {
        "setup_s": (median(setup.normalised), "s", n),
        "setup_wall_s": (median(setup.wall), "s", n),
    }
    primary = untraced.seconds(workload.root) or [r.seconds for r in untraced.ops]
    campaigns = untraced.seconds("campaign")
    if campaigns:
        out["campaign_s"] = (median(campaigns), "s", len(campaigns))
    if workload.root == "epoch":
        out["epoch_s"] = (median(primary), "s", len(primary))
    if workload.root == "job":
        out["job_latency_p50_s"] = (median(primary), "s", len(primary))
        tail = tail_percentile(primary)
        if tail is not None:
            q, value = tail
            out[f"job_latency_p{q:g}_s"] = (value, "s", len(primary))
        out["jobs_per_s"] = (len(primary) / untraced.wall_s, "1/s", len(primary))
    out["peak_rss_mb"] = (rss_mb, "MiB", 1)
    out["failed_frac"] = (ctx.tally.failed_frac, "ratio", ctx.tally.attempted)
    latencies = untraced.per_spec(workload.root) or primary
    out["latency_s"] = (median(latencies), "s", len(primary))
    gauges = [r.gauge for r in untraced.ops if r.gauge is not None]
    if gauges:
        out["gauge_ms"] = (median(gauges), "ms", len(gauges))
    return out


GATED_END_TO_END = ("setup_s", "latency_s", "peak_rss_mb")


# ---------------------------------------------------------------------- #
# Report
# ---------------------------------------------------------------------- #


def print_metrics(title: str, metrics: dict) -> None:
    print(f"\n{title}")
    print(f"  {'metric':34} {'value':>14}  {'unit':6} {'n':>6}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:34} {value:14.6g}  {unit:6} {n:6}")


def print_layer_table(summary: LayerSummary, root: str, per: str) -> None:
    if not summary.n_roots:
        return
    n = summary.n_roots
    mean_root = summary.root_total / n
    print(f"\nlayer table: {n} '{root}' roots, mean {mean_root:.4f} s "
          f"(share = self time / {per})")
    print(f"  {'span':34} {'self_s':>10} {'calls':>10} {'share':>8}")
    rows = sorted(summary.self_s.items(), key=lambda item: -item[1])
    for name, self_s in rows:
        calls = summary.calls.get(name, n if name == "(unattributed)" else 0)
        print(f"  {name:34} {self_s / n:10.4f} {calls / n:10.1f} "
              f"{self_s / summary.root_total:8.1%}")
    total = summary.self_sum()
    print(f"  sum of self times {total / n:.6f} s = root duration {mean_root:.6f} s "
          f"(difference {abs(total - summary.root_total) / n:.2e} s)")


# ---------------------------------------------------------------------- #
# Main
# ---------------------------------------------------------------------- #


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_TIMEOUT_S} s")


def _terminated(signum, frame):
    # Unwind through the cleanup below, which stops every child process.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Context, clock, import_probe, install_probes, verify

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    bench_dir = ROOT / ".bench_work"
    bench_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=bench_dir))
    # Everything the run and its children write stays in the checkout.
    for sub in ("tmp", "cache"):
        (work / sub).mkdir()
    os.environ["TMPDIR"] = tempfile.tempdir = str(work / "tmp")
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    signal.signal(signal.SIGALRM, _timeout)
    signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(RUN_TIMEOUT_S)

    ctx = Context(ROOT, work, args.seed)
    workload = WORKLOADS[args.workload]()
    tracer = None
    try:
        print(f"workload {args.workload} ({workload.loop}); seed {args.seed}; "
              f"{args.seconds:g} s; trace {args.trace}")
        try:
            setup = workload.setup(ctx)
            untraced = workload.run_pass(ctx, "untraced", deadline=clock() + args.seconds)
            rss_mb = workload.peak_rss_mb(ctx)
            traced = None
            if args.trace:
                tracer = Tracer()
                patcher = Patcher(tracer)
                install_probes(patcher)
                try:
                    traced = workload.run_pass(
                        ctx, "traced", replay=untraced.plan, tracer=tracer
                    )
                finally:
                    patcher.restore()
                if not setup.import_s:
                    setup.import_s = import_probe(ctx)
        finally:
            workload.close(ctx)
        verify(ctx, untraced.ops + (traced.ops if traced else []), print)

        e2e = end_to_end(workload, setup, untraced, rss_mb, ctx)
        print_metrics("end-to-end metrics (untraced pass)", e2e)
        print(f"  {workload.root} samples (wall s): "
              + " ".join(f"{v:.4f}" for v in untraced.seconds(workload.root)))
        if traced is not None:
            summary = LayerSummary(tracer.spans, workload.root)
            per = {"campaign": "campaign_s", "epoch": "epoch_s", "job": "job latency"}
            print_layer_table(summary, workload.root, per[workload.root])
            if workload.root == "epoch":
                print_layer_table(LayerSummary(tracer.spans, "campaign"), "campaign",
                                  "campaign_s (epoch 0)")
            layers = layer_metrics(workload, summary, untraced, traced, ctx, setup)
            print_metrics("per-layer metrics (traced pass, per root operation)", layers)
            reported = layers
        else:
            reported = {name: e2e[name] for name in GATED_END_TO_END}
        for op in ctx.tally.failures():
            print(f"FAILED {op.kind} {op.label}: {'; '.join(op.reasons)}")
        result = {
            "correct": ctx.tally.failed == 0,
            "attempted": ctx.tally.attempted,
            "failed": ctx.tally.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _) in reported.items()
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        signal.alarm(0)
        ctx.reap()
        if tracer is not None:
            tracer.write(bench_dir / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz")
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
