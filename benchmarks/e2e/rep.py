"""One repetition of one workload, in a process of its own.

``run.py`` starts this script once per repetition so every number pays
what a CLI user pays: interpreter start, imports, a cold heap and cold
process-wide caches. It prints one JSON object on its last stdout line.

Untraced (``--trace 0``) it measures the end-to-end quantities over the
timed region. Traced (``--trace 1``) it wraps the layer boundaries first
(see ``layers.py``) and reports the per-layer metrics; its end-to-end
numbers are then only good for the tracing-overhead ratio.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_STARTED = time.monotonic()  # fallback origin when run by hand
_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_HERE.parents[1] / "src"))

_import_started = time.perf_counter()
import workloads  # noqa: E402  (pulls in every repro module a run needs)

IMPORT_S = time.perf_counter() - _import_started

import layers  # noqa: E402
from spans import Patcher, SpanRecorder  # noqa: E402


def _cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    """This process's peak RSS plus its largest child's (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _outcome(reports: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "packets_in": workloads.packets_in(reports),
        "unaccounted": workloads.unaccounted(reports),
        "sim_digest": workloads.sim_digest(reports),
        "events": sum(r["events_processed"] for r in reports),
        "infections": sum(len(r["infections"]) for r in reports),
        "clones": sum(r["counters"].get("farm.vms_spawned", 0) for r in reports),
        "emulated": sum(r["ledger"]["emulated"] for r in reports),
        "messages": sum(r.get("intershard", {}).get("sent", 0) for r in reports),
    }


def run_untraced(run, spawned_at: float) -> Dict[str, Any]:
    """The end-to-end quantities of one prepared workload."""
    setup_s = time.monotonic() - spawned_at
    cpu = _cpu_seconds()
    started = time.perf_counter()
    run.timed()
    wall = time.perf_counter() - started
    result = {"timed_wall_s": wall, "timed_cpu_s": _cpu_seconds() - cpu}
    result.update(_outcome(run.reports()))
    result.update(setup_s=setup_s)
    return result


def _trace(rec: SpanRecorder, region: Callable[[], None]) -> Tuple[int, layers.GcWatch]:
    """Run ``region`` under the harness root span, collector watched."""
    with layers.GcWatch() as gc_watch:
        with rec.span(layers.ROOT_SPAN) as root:
            region()
    return root, gc_watch


def _layer_result(
    rec: SpanRecorder, root: int, gc_watch: layers.GcWatch, run,
    outcome: Dict[str, Any],
) -> Dict[str, Any]:
    """The layer table and every per-layer metric of one traced root. A
    metric the workload has no source for (``core.parallel.*`` on a
    single farm) stays 0; the driver adds those that need other
    repetitions (overhead ratio, speed-up)."""
    totals = rec.totals(root)
    table = layers.layer_table(totals)
    metrics = dict.fromkeys((name for name, __, __ in layers.LAYER_METRICS), 0.0)
    metrics.update(layers.layer_metrics(
        totals, table, rec.counts, layers.farm_facts(run.farms()),
        outcome["packets_in"], outcome["emulated"], outcome["messages"],
    ))
    metrics.update({
        "workloads.telescope.generate_s": run.generate_s,
        "runtime.gc_pause_s": gc_watch.pause_s,
        "runtime.gc_gen2_collections": gc_watch.gen2_collections,
        "runtime.import_s": IMPORT_S,
    })
    return {"layer_table": table, "layer_metrics": metrics, "spans": len(rec)}


def run_single_traced(args, spawned_at: float) -> Dict[str, Any]:
    rec = SpanRecorder()
    with Patcher() as patcher:
        layers.install_layers(rec, patcher)
        run = workloads.prepare(args.workload, args.seed, args.size)
        setup_s = time.monotonic() - spawned_at
        root, gc_watch = _trace(rec, run.timed)
    result = _outcome(run.reports())
    result.update(_layer_result(rec, root, gc_watch, run, result))
    result.update(setup_s=setup_s, timed_wall_s=rec.duration(root))
    if args.spans_out:
        rec.dump(args.spans_out, root)
    return result


def run_federation_traced(args, run, spawned_at: float) -> Dict[str, Any]:
    # 1. The parallel lane with only the coordinator wrapped: workers
    #    fork from this process, so in-farm wrappers must not exist yet.
    rec = SpanRecorder()
    with Patcher() as patcher:
        layers.install_parallel(rec, patcher)
        setup_s = time.monotonic() - spawned_at
        parallel_root = len(rec)  # ParallelFederation.run is the next span
        run.timed()
    parallel_reports = run.reports()
    result = _outcome(parallel_reports)
    parallel_metrics = layers.parallel_metrics(
        rec, parallel_root, run.result.epochs, result["messages"]
    )

    # 2. The in-process reference lane, untraced: the baseline of the
    #    tracing-overhead ratio, and the equality check's other side.
    run.build_reference()
    started = time.perf_counter()
    run.timed_reference()
    reference_wall = time.perf_counter() - started
    untraced_reference = run.reference_reports()

    # 3. The reference lane again, every in-farm layer wrapped.
    with Patcher() as patcher:
        layers.install_layers(rec, patcher)
        run.build_reference()
        root, gc_watch = _trace(rec, run.timed_reference)
    traced_reference = run.reference_reports()
    traced_wall = rec.duration(root)
    result.update(_layer_result(rec, root, gc_watch, run, result))
    result["layer_metrics"].update(parallel_metrics)
    result["layer_metrics"]["trace.overhead_ratio"] = traced_wall / reference_wall
    result.update(
        setup_s=setup_s, timed_wall_s=rec.duration(parallel_root),
        reference_wall_s=reference_wall, traced_reference_wall_s=traced_wall,
        lanes_equal=(
            parallel_reports == untraced_reference == traced_reference
        ),
    )
    if args.spans_out:
        rec.dump(args.spans_out, root)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="bench")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=workloads.FED_WORKERS,
                        help="fed_reflect worker processes")
    parser.add_argument("--spawned-at", type=float, default=_STARTED,
                        help="time.monotonic() of the parent when it started this process")
    parser.add_argument("--spans-out", default=None,
                        help="traced pass: write the root's spans here (JSON lines)")
    args = parser.parse_args(argv)

    federated = args.workload == "fed_reflect"
    if args.trace and not federated:
        # Wrappers go in before the farm is built, so this path prepares
        # the workload itself.
        result = run_single_traced(args, args.spawned_at)
    else:
        run = workloads.prepare(args.workload, args.seed, args.size, args.workers)
        if args.trace:
            result = run_federation_traced(args, run, args.spawned_at)
        else:
            result = run_untraced(run, args.spawned_at)
        if federated:
            result.update(start_method=run.start_method, workers=run.workers)
    result.update(
        workload=args.workload, seed=args.seed, size=args.size,
        traced=bool(args.trace), import_s=IMPORT_S,
        peak_rss_mb=_peak_rss_mib(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
