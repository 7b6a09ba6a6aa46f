"""End-to-end CQMS benchmark: one closed-loop workload per run.

Usage (from the repository root)::

    python3 cqmsbench/run.py --workload explore_mixed --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.  ``--trace 1``
runs half the workload untraced, then again with every layer wrapped, checks that
both produced the same results, writes the spans to ``.bench_out/`` and
prints the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from hostspeed import HostMeter  # noqa: E402
from repro import CQMSConfig  # noqa: E402
from tracer import Tracer, layer_names  # noqa: E402
from workloads import (  # noqa: E402
    ASSIST,
    MINER,
    RECOMMEND,
    REOPEN,
    SCRAPE,
    SEARCH,
    SUBMIT,
    WORKLOADS,
    Harness,
    OutputError,
    control_gc,
)

OUT_DIR = os.path.join(ROOT, ".bench_out")
SCRATCH_DIR = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
#: The durable store's page-pool cap (CQMSConfig.buffer_pool_pages default).
BUFFER_POOL_PAGES = CQMSConfig().buffer_pool_pages
#: The op spans must cover the harness's own timing of the same operations
#: to within this share.
SPAN_COVERAGE_TOLERANCE = 0.01
#: Ceiling on the share of traced time that no layer span accounts for.
MAX_UNATTRIBUTED_SHARE = 0.05


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile; a failed operation (+inf) ranks last."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def ms(seconds: float) -> float:
    """Milliseconds; a percentile landing on a failed operation prints 1e9."""
    return seconds * 1e3 if math.isfinite(seconds) else 1e9


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Pass:
    """One run of a workload: per round, set-up, timed loop and restart."""

    def __init__(self, workload, tracer: Tracer | None, setups: int):
        self.meter = HostMeter()
        self.harness = Harness(self.meter)
        #: (start, end, seconds) of every set-up, the kernel's runs left out.
        self.setups: list[tuple[float, float, float]] = []
        #: The timed loops' operations, reopens aside.
        self.loop_ops: list[tuple] = []
        #: Seconds inside the operations after set-up: the traced ones.
        self.timed_op_seconds = 0.0
        #: (hits, lookups) of the meta-DB and the user-DB plan caches.
        self.cache = [(0, 0), (0, 0)]
        self.pool_hits = self.pool_misses = 0
        # A traced pass reports self times as measured: the kernel would
        # only add time to whichever layer it interrupted.
        if tracer is not None:
            tracer.install()
        else:
            self.meter.start()
        try:
            for round_index in range(workload.rounds):
                self.round(workload, tracer, setups, round_index)
        finally:
            if tracer is not None:
                tracer.uninstall()
            else:
                self.meter.stop()
        if self.harness.failed_submits:
            raise OutputError(f"{self.harness.failed_submits} submits failed")

    def round(self, workload, tracer: Tracer | None, setups: int, round_index: int) -> None:
        harness = self.harness
        meter = self.meter
        submits_before = harness.count(SUBMIT)
        state = None
        for index in range(setups):
            if state is not None:
                discard(state)
                state = None
            gc.unfreeze()
            gc.collect()
            # Only the set-up that is kept adds its replay to the metrics.
            target = harness if index == setups - 1 else Harness(meter)
            kernel_before = meter.spent
            start = time.perf_counter()
            state = workload.setup(target, round_index)
            end = time.perf_counter()
            self.setups.append((start, end, end - start - (meter.spent - kernel_before)))
        gc.collect()
        gc.freeze()
        cqms = state.cqms
        harness.tracer = tracer
        op_seconds_before = harness.op_seconds
        workload.prepare(harness, state)
        self.log_start = len(cqms.store)
        # plan_cache_stats() hands out the live counters: copy them.
        cache_before = (
            copy.copy(cqms.store.plan_cache_stats()),
            copy.copy(state.db.plan_cache_stats()),
        )
        pool_before = cqms.store.buffer_stats()
        first = len(harness.ops)
        workload.timed_loop(harness, state)
        self.loop_ops += [op for op in harness.ops[first:] if op[0] != REOPEN]
        self.log_end = len(cqms.store)
        self.cache = [
            (hits + after.hits - before.hits, lookups + after.lookups - before.lookups)
            for (hits, lookups), before, after in zip(
                self.cache,
                cache_before,
                (cqms.store.plan_cache_stats(), state.db.plan_cache_stats()),
            )
        ]
        pool_after = cqms.store.buffer_stats()
        self.pool_hits += pool_after.hits - pool_before.hits
        self.pool_misses += pool_after.misses - pool_before.misses
        self.metadb_pages = pool_after.pages_allocated
        records = cqms.store.all_queries()
        self.distinct_texts = len({record.text for record in records})
        self.distinct_templates = len({record.template_text for record in records})
        self.users = len(cqms.access_control.principals())
        self.closed = workload.restart(harness, state)
        harness.tracer = None
        self.timed_op_seconds += harness.op_seconds - op_seconds_before
        shutil.rmtree(self.closed.data_dir)
        gc.unfreeze()
        # Every submit of this round (set-up replay included) is logged once.
        if self.log_end != harness.count(SUBMIT) - submits_before:
            raise OutputError("the Query Storage lost or duplicated logged queries")

    def properties(self) -> dict[str, tuple[float, str]]:
        """Workload properties, recorded but not gated."""
        return {
            "workload.distinct_text_share": (share(self.distinct_texts, self.log_end), "ratio"),
            "workload.distinct_template_share": (
                share(self.distinct_templates, self.log_end),
                "ratio",
            ),
            "workload.log_start": (self.log_start, "queries"),
            "workload.log_end": (self.log_end, "queries"),
            "workload.metadb_pages": (self.metadb_pages, "pages"),
            "workload.metadb_pages_per_pool": (self.metadb_pages / BUFFER_POOL_PAGES, "ratio"),
            "workload.users": (self.users, "users"),
            "metrics.series": (self.harness.scrape_series, "series"),
        }

    def sample_counts(self) -> dict[str, int]:
        return dict(Counter(kind for kind, *_ in self.harness.ops))


def discard(state) -> None:
    if state.data_dir is not None:
        state.cqms.close()
        shutil.rmtree(state.data_dir)


def end_to_end(run: Pass, scaled: bool = True) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, timings at the reference host's speed (see
    hostspeed.py) unless ``scaled`` is false."""
    harness = run.harness
    meter = run.meter

    def seconds(start: float, end: float, measured: float) -> float:
        return measured * meter.scale(start, end) if scaled else measured

    # A failed operation is +inf, so it counts as missing any latency limit.
    latencies = defaultdict(list)
    for kind, start, end, measured, failed in harness.ops:
        latencies[kind].append(math.inf if failed else seconds(start, end, measured))
    submits = latencies[SUBMIT]
    finite = [value for value in submits if math.isfinite(value)]
    setups = [seconds(*setup) for setup in run.setups]
    loop_seconds = sum(seconds(*op[1:4]) for op in run.loop_ops)
    loop_succeeded = sum(1 for *_, failed in run.loop_ops if not failed)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "submit_p50_ms": (ms(percentile(submits, 0.50)), "ms"),
        "submit_p90_ms": (ms(percentile(submits, 0.90)), "ms"),
        "submit_qps": (share(len(finite), sum(finite)), "1/s"),
        "reopen_s": (statistics.median(latencies[REOPEN]), "s"),
        "ops_per_s": (share(loop_succeeded, loop_seconds), "1/s"),
        "assist_p50_ms": (ms(percentile(latencies[ASSIST], 0.50)), "ms"),
        "assist_p90_ms": (ms(percentile(latencies[ASSIST], 0.90)), "ms"),
        "recommend_p50_ms": (ms(percentile(latencies[RECOMMEND], 0.50)), "ms"),
        "recommend_p90_ms": (ms(percentile(latencies[RECOMMEND], 0.90)), "ms"),
        "search_p50_ms": (ms(percentile(latencies[SEARCH], 0.50)), "ms"),
        "search_p90_ms": (ms(percentile(latencies[SEARCH], 0.90)), "ms"),
        "miner_ms": (ms(statistics.median(latencies[MINER])), "ms"),
        "scrape_ms": (ms(statistics.median(latencies[SCRAPE])), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(untraced: Pass, traced: Pass, tracer: Tracer) -> dict[str, tuple[float, str]]:
    layers, root_self, root_total = tracer.self_times()
    timed = traced.timed_op_seconds
    if abs(root_total - timed) > SPAN_COVERAGE_TOLERANCE * timed:
        raise OutputError(f"op spans cover {root_total:.3f} s of {timed:.3f} s of timed operations")
    unattributed = share(root_self, root_total)
    if unattributed >= MAX_UNATTRIBUTED_SHARE:
        raise OutputError(f"no layer span accounts for {unattributed:.1%} of the traced time")
    metrics: dict[str, tuple[float, str]] = {}
    # Layer self times summed over the run: recovery in seconds, every
    # other layer in milliseconds.
    for span in layer_names():
        seconds = layers.get(span, 0.0)
        if span.startswith("recovery."):
            metrics[f"{span}_s"] = (seconds, "s")
        else:
            metrics[f"{span}_ms"] = (seconds * 1e3, "ms")
    harness = traced.harness
    durable = harness.durable
    submits = sum(1 for kind in tracer.op_kinds if kind == SUBMIT)
    (meta_hits, meta_lookups), (user_hits, user_lookups) = traced.cache
    counts = tracer.counts
    metrics.update(
        {
            "metadb.rows_per_submit": (share(counts["metadb.rows"], submits), "rows"),
            "wal.records_per_submit": (share(durable["wal_records"], durable["submits"]), "records"),
            "wal.bytes_per_submit": (share(durable["wal_bytes"], durable["submits"]), "B"),
            "wal.syncs_per_submit": (share(durable["wal_syncs"], durable["submits"]), "syncs"),
            "buffer_pool.hit_rate": (
                share(traced.pool_hits, traced.pool_hits + traced.pool_misses),
                "ratio",
            ),
            "buffer_pool.evictions_per_submit": (
                share(durable["evictions"], durable["submits"]),
                "pages",
            ),
            "buffer_pool.writebacks_per_submit": (
                share(durable["writebacks"], durable["submits"]),
                "pages",
            ),
            "store.bytes_per_query": (share(traced.closed.size_bytes, len(traced.closed.qids)), "B"),
            "userdb.rows_scanned_per_row": (
                share(counts["userdb.rows_scanned"], counts["userdb.rows_returned"]),
                "rows",
            ),
            "plan_cache.metadb_hit_rate": (share(meta_hits, meta_lookups), "ratio"),
            "plan_cache.userdb_hit_rate": (share(user_hits, user_lookups), "ratio"),
            "trace.total_ms": (root_total * 1e3, "ms"),
            "trace.unattributed_share": (unattributed, "ratio"),
            "trace.overhead_share": (
                share(timed, untraced.timed_op_seconds) - 1.0,
                "ratio",
            ),
            "failed_share": (share(harness.failed, harness.attempted), "ratio"),
        }
    )
    metrics.update(traced.properties())
    return metrics


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    if trace:
        # Both passes of a traced run, the traced one up to twice as slow,
        # must end within the time a run may take: they do half the work.
        seconds = max(1, seconds // 2)
    workload = WORKLOADS[workload_name](seed, seconds, SCRATCH_DIR)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload_name}-seed{seed}"
    report: dict = {"workload": workload_name, "seed": seed, "seconds": seconds}
    untraced = Pass(workload, tracer=None, setups=1 if trace else workload.setups)
    report["samples"] = untraced.sample_counts()
    report["properties"] = {name: value for name, (value, _) in untraced.properties().items()}
    report["digest"] = untraced.harness.digest.hexdigest()
    report["host_kernel_ms"] = untraced.meter.median_ms()
    final = untraced
    if trace:
        tracer = Tracer()
        traced = Pass(workload, tracer=tracer, setups=1)
        if traced.harness.digest.hexdigest() != report["digest"]:
            raise OutputError("traced and untraced runs of one seed returned different results")
        metrics = per_layer(untraced, traced, tracer)
        tracer.write(os.path.join(OUT_DIR, f"spans-{tag}.jsonl.gz"))
        final = traced
    else:
        metrics = end_to_end(untraced)
        measured = end_to_end(untraced, scaled=False)
        report["measured"] = {name: value for name, (value, _) in measured.items()}
    report["metrics"] = {name: value for name, (value, _) in metrics.items()}
    with open(os.path.join(OUT_DIR, f"report-{tag}-trace{int(trace)}.json"), "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(
        f"{workload_name} seed={seed}: samples {report['samples']}, "
        f"digest {report['digest'][:16]}",
        file=sys.stderr,
    )
    return {
        "correct": True,
        "attempted": final.harness.attempted,
        "failed": final.harness.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    control_gc()
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    try:
        result = run(args.workload, args.seed, max(1, args.seconds), bool(args.trace))
    except OutputError as error:
        print(f"output check failed: {error}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    finally:
        shutil.rmtree(SCRATCH_DIR, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(SCRATCH_DIR))
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
