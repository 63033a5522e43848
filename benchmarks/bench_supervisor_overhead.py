"""Supervisor overhead on a healthy parallel run.

The crash-safe execution layer (per-shard journal publishes, watchdog
poll loop, retry bookkeeping — ``repro.core.checkpoint`` / the
supervisor in ``repro.core.parallel``) must be close to free when
nothing goes wrong:
its budget is <5% wall-clock over the bare-futures scatter it replaced.
The baseline here *is* that pre-supervisor loop, reconstructed inline:
submit every shard to an executor, gather results, merge — no journal,
no liveness polling, no watchdog.
"""

import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.campaign import run_campaign
from repro.core.experiment import ExperimentConfig
from repro.core.parallel import _run_shard, merge_shard_results, shard_personas
from repro.core.personas import all_personas
from repro.util.rng import Seed

WORKERS = 4


def bench_supervisor_overhead(benchmark, bench_record):
    """Supervised run vs the bare futures loop it replaced.

    Both legs run the identical healthy 4-worker thread-backend campaign
    with observability off, so the measured delta is purely the
    supervisor machinery: journal pickling + fsync per shard and the
    poll loop.  The stated budget is <5%; the asserted
    bound is looser (15%) to absorb shared-runner timing noise — the
    ``supervisor_overhead`` ratio in ``extra_info`` is the number to
    watch for drift.
    """
    config = ExperimentConfig(
        skills_per_persona=8,
        pre_iterations=2,
        post_iterations=6,
        crawl_sites=8,
        prebid_discovery_target=50,
        audio_hours=2.0,
    )
    seed = Seed(107)
    rounds = 3

    def bare_futures():
        """PR 4's parallel engine: scatter, gather, merge — no safety net."""
        shards = shard_personas(all_personas(), WORKERS)
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            futures = [
                pool.submit(
                    _run_shard, i, seed, config, [p.name for p in shard], False
                )
                for i, shard in enumerate(shards)
            ]
            results = [future.result() for future in futures]
        return merge_shard_results(
            seed, results, fault_profile=config.fault_profile
        )

    def supervised():
        return run_campaign(
            config,
            seed,
            parallel=True,
            workers=WORKERS,
            backend="thread",
            obs=False,
        )

    def best_of(fn):
        times = []
        for _ in range(rounds):
            started = time.perf_counter()
            fn()
            times.append(time.perf_counter() - started)
        return min(times)

    bare_futures()  # warm imports and caches
    baseline = best_of(bare_futures)
    supervised_dataset = benchmark.pedantic(supervised, rounds=1, iterations=1)
    supervised_seconds = best_of(supervised)

    overhead = supervised_seconds / baseline
    benchmark.extra_info["bare_futures_seconds"] = round(baseline, 3)
    benchmark.extra_info["supervised_seconds"] = round(supervised_seconds, 3)
    benchmark.extra_info["supervisor_overhead"] = round(overhead, 4)
    bench_record(
        "bench_supervisor_overhead",
        bare_futures_seconds=round(baseline, 3),
        supervised_seconds=round(supervised_seconds, 3),
        supervisor_overhead=round(overhead, 4),
    )

    assert len(supervised_dataset.personas) == len(all_personas())
    assert supervised_dataset.missing_personas == ()
    assert overhead <= 1.15, (
        f"supervisor overhead {100 * (overhead - 1):.1f}% exceeds the "
        f"budget (supervised {supervised_seconds:.2f}s vs bare futures "
        f"{baseline:.2f}s)"
    )
