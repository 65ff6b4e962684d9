"""The repo's end-to-end benchmark: four storms, five end-to-end metrics,
a per-module layer table. README.md defines every workload and metric.

Three ways to run it, all from the repository root::

    python3 benchmarks/e2e/run.py                      # the whole set
    python3 benchmarks/e2e/run.py --selfcheck          # the set twice; must agree
    python3 benchmarks/e2e/run.py --workload vm_churn --seed 7 \\
        --seconds 12 --trace 0                         # one workload, one JSON line

Every repetition runs in a fresh child process (``rep.py``), one at a
time, with ``PYTHONHASHSEED=0``. Output checks run on every invocation
and any failure makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from layers import LAYER_METRICS  # noqa: E402
from stats import summary  # noqa: E402

DEFAULT_SEED = 424742
SUITE_REPS = 5
#: A single-workload run repeats until this many repetitions have run
#: *and* ``--seconds`` have gone by.
MIN_REPS = 3
MAX_REPS = 12
#: A single-workload run must finish inside the driver's 180 s limit.
RUN_DEADLINE_SECONDS = 165.0
#: Whole-set mode: a repetition still running after this long is hung.
REP_TIMEOUT_SECONDS = 170.0
#: ``setup_s`` may also move by this much before it counts (ISSUE: a
#: tenth of a short set-up is inside process-start noise).
SETUP_ABSOLUTE_SLACK_S = 0.2

END_TO_END_UNITS = {
    "packets_per_s": "packets/s",
    "cpu_us_per_packet": "us",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


class RepFailed(RuntimeError):
    """A repetition process exited non-zero or printed no result."""


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def spawn_rep(
    workload: str,
    seed: int,
    size: str,
    trace: int = 0,
    workers: Optional[int] = None,
    spans_out: Optional[str] = None,
    timeout: Optional[float] = None,
) -> Dict[str, Any]:
    """Run one repetition in a fresh process and return its result."""
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--trace", str(trace), "--spawned-at", repr(time.monotonic()),
    ]
    if workers is not None:
        command += ["--workers", str(workers)]
    if spans_out is not None:
        command += ["--spans-out", spans_out]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            command, env=env, cwd=str(ROOT), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{workload}: repetition timed out after {timeout:.0f}s") from exc
    if done.returncode != 0:
        raise RepFailed(
            f"{workload}: repetition exited {done.returncode}\n{done.stderr[-2000:]}"
        )
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise RepFailed(f"{workload}: repetition printed no result") from exc


def end_to_end(rep: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics of one untraced repetition."""
    packets = rep["packets_in"]
    return {
        "packets_per_s": packets / rep["timed_wall_s"],
        "cpu_us_per_packet": rep["timed_cpu_s"] / packets * 1e6,
        "peak_rss_mb": rep["peak_rss_mb"],
        "setup_s": rep["setup_s"],
    }


def check_reps(workload: str, reps: Sequence[Dict[str, Any]]) -> List[str]:
    """Output checks over the untraced repetitions of one workload."""
    failures = []
    for index, rep in enumerate(reps):
        if rep["unaccounted"]:
            failures.append(
                f"{workload}: rep {index} cannot account for"
                f" {rep['unaccounted']} of {rep['packets_in']} packets"
            )
    digests = {rep["sim_digest"] for rep in reps}
    if len(digests) > 1:
        failures.append(f"{workload}: sim_digest differs between reps: {sorted(digests)}")
    return failures


def failed_share(reps: Sequence[Dict[str, Any]]) -> float:
    """Packets the ledger cannot place, as a share of packets in; 1.0
    when the repetitions disagree on the simulated digest."""
    if len({rep["sim_digest"] for rep in reps}) > 1:
        return 1.0
    return sum(rep["unaccounted"] for rep in reps) / sum(
        rep["packets_in"] for rep in reps
    )


def summarise(reps: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    samples = [end_to_end(rep) for rep in reps]
    return {
        name: summary([sample[name] for sample in samples])
        for name in END_TO_END_UNITS
    }


def traced_pass(
    workload: str,
    seed: int,
    size: str,
    untraced: Sequence[Dict[str, Any]],
    spans_out: Optional[str] = None,
    timeout: Optional[float] = None,
) -> Tuple[Dict[str, float], Dict[str, Any], List[str]]:
    """One traced repetition (plus, for ``fed_reflect``, one untraced
    one-worker arm): per-layer metrics, the raw traced result, and any
    failed output checks."""
    failures: List[str] = []
    traced = spawn_rep(workload, seed, size, trace=1, spans_out=spans_out,
                       timeout=timeout)
    metrics: Dict[str, float] = dict(traced["layer_metrics"])
    untraced_wall = statistics.median(rep["timed_wall_s"] for rep in untraced)
    if workload == "fed_reflect":
        one_worker = spawn_rep(workload, seed, size, workers=1, timeout=timeout)
        failures += check_reps(workload, [one_worker])
        if one_worker["sim_digest"] != untraced[0]["sim_digest"]:
            failures.append(f"{workload}: one-worker arm digest differs")
        if not traced["lanes_equal"]:
            failures.append(
                f"{workload}: parallel and reference shard reports differ"
            )
        speedup = one_worker["timed_wall_s"] / untraced_wall
        metrics["core.parallel.speedup_vs_1worker"] = speedup
        metrics["core.parallel.efficiency"] = speedup / min(
            untraced[0]["workers"], os.cpu_count() or 1
        )
    else:
        metrics["trace.overhead_ratio"] = traced["timed_wall_s"] / untraced_wall
    if traced["sim_digest"] != untraced[0]["sim_digest"]:
        failures.append(f"{workload}: traced digest differs from untraced")
    if traced["unaccounted"]:
        failures.append(f"{workload}: traced rep lost {traced['unaccounted']} packets")
    table = traced["layer_table"]
    root_s = traced.get("traced_reference_wall_s", traced["timed_wall_s"])
    if abs(sum(table.values()) - root_s) > 1e-6 * max(root_s, 1.0):
        failures.append(
            f"{workload}: layer self times sum to {sum(table.values()):.6f}s,"
            f" root span is {root_s:.6f}s"
        )
    return metrics, traced, failures


# ---------------------------------------------------------------------- #
# Single-workload mode (the driver's contract)
# ---------------------------------------------------------------------- #

def run_one(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    began = time.monotonic()

    def remaining() -> float:
        return RUN_DEADLINE_SECONDS - (time.monotonic() - began)

    reps: List[Dict[str, Any]] = []
    longest = 0.0
    # Untraced: repeat — set-up and timed region both, they are both
    # measured — until MIN_REPS have run and --seconds have gone by.
    # Traced: one untraced repetition, the baseline of the overhead ratio
    # (fed_reflect: of the speed-up).
    wanted_reps = 1 if args.trace else MIN_REPS
    wanted_seconds = 0.0 if args.trace else args.seconds
    while len(reps) < wanted_reps or (
        len(reps) < MAX_REPS
        and time.monotonic() - began < wanted_seconds
        and remaining() > 1.5 * longest
    ):
        started = time.monotonic()
        reps.append(spawn_rep(args.workload, args.seed, args.size,
                              timeout=remaining()))
        longest = max(longest, time.monotonic() - started)
    failures = check_reps(args.workload, reps)

    if args.trace:
        values, traced, traced_failures = traced_pass(
            args.workload, args.seed, args.size, reps, timeout=remaining(),
        )
        failures += traced_failures
        units = {name: unit for name, unit, __ in LAYER_METRICS}
        attempted = traced["packets_in"]
        failed = traced["unaccounted"]
    else:
        values = {name: stats["median"] for name, stats in summarise(reps).items()}
        units = END_TO_END_UNITS
        attempted = sum(rep["packets_in"] for rep in reps)
        failed = sum(rep["unaccounted"] for rep in reps)
        print(f"{args.workload}: {len(reps)} reps, seed {args.seed},"
              f" sim_digest {reps[0]['sim_digest'][:16]}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    if failures and not failed:
        failed = attempted  # a failed check that lost no packet fails the run whole
    section = "per_layer" if args.trace else "end_to_end"
    names = [metric["name"] for metric in contract[section]]
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in names
        },
    }))
    return 1 if failures else 0


# ---------------------------------------------------------------------- #
# Whole-set mode
# ---------------------------------------------------------------------- #

def environment(
    args: argparse.Namespace, results: Dict[str, List[Dict[str, Any]]]
) -> Dict[str, Any]:
    """What produced the numbers — stamped on every output document."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "python_version": platform.python_version(),
        "numpy_version": numpy_version,
        "cpu_count": os.cpu_count(),
        # The method the federation's workers were actually started with.
        "multiprocessing_start_method": results["fed_reflect"][0]["start_method"],
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": args.seed,
        "reps": SUITE_REPS,
        "size": args.size,
        "pythonhashseed": "0",
    }


def run_set(
    workloads: Sequence[str], seed: int, size: str
) -> Tuple[Dict[str, List[Dict[str, Any]]], List[str]]:
    """``SUITE_REPS`` untraced repetitions of every workload, interleaved
    round-robin so machine drift spreads evenly over the workloads."""
    results: Dict[str, List[Dict[str, Any]]] = {name: [] for name in workloads}
    for rep in range(SUITE_REPS):
        for name in workloads:
            results[name].append(
                spawn_rep(name, seed, size, timeout=REP_TIMEOUT_SECONDS)
            )
            last = results[name][-1]
            print(f"  rep {rep + 1}/{SUITE_REPS} {name}: timed {last['timed_wall_s']:.2f}s"
                  f" setup {last['setup_s']:.2f}s", file=sys.stderr)
    failures: List[str] = []
    for name in workloads:
        failures += check_reps(name, results[name])
    return results, failures


def print_end_to_end(name: str, reps: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    stats = summarise(reps)
    share = failed_share(reps)
    first = reps[0]
    print(f"\n== {name}  (packets_in {first['packets_in']}, events {first['events']},"
          f" clones {first['clones']}, infections {first['infections']},"
          f" inter-shard messages {first['messages']})")
    print(f"   sim_digest {first['sim_digest']}")
    print(f"   {'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'min':>12}{'max':>12}{'n':>4}  unit")
    for metric, unit in END_TO_END_UNITS.items():
        s = stats[metric]
        print(f"   {metric:<20}{s['median']:>12.4f}{s['q1']:>12.4f}{s['q3']:>12.4f}"
              f"{s['min']:>12.4f}{s['max']:>12.4f}{s['n']:>4}  {unit}")
    print(f"   {'failed_share':<20}{share:>12.6f}{'':>48}{len(reps):>4}  ratio")
    return {
        "end_to_end": stats,
        "failed_share": share,
        "sim_digest": first["sim_digest"],
        "packets_in": first["packets_in"],
        "events": first["events"],
        "clones": first["clones"],
        "infections": first["infections"],
        "messages": first["messages"],
    }


def print_layers(name: str, metrics: Dict[str, float], traced: Dict[str, Any]) -> None:
    table = traced["layer_table"]
    root_s = sum(table.values())
    print(f"\n-- {name}: layer self time (traced pass, {traced['spans']} spans,"
          f" root {root_s:.3f}s)")
    for layer, seconds in sorted(table.items(), key=lambda row: -row[1]):
        if seconds:
            print(f"   {layer:<24}{seconds:>10.4f} s{100 * seconds / root_s:>8.1f} %")
    print(f"-- {name}: per-layer metrics")
    for metric, unit, __ in LAYER_METRICS:
        print(f"   {metric:<44}{metrics[metric]:>16.6g}  {unit}")


def span_lane(metrics: Dict[str, float], numpy_version: Optional[str]) -> str:
    """Which span lane served a workload, inferred from outside."""
    if metrics["sim.batch.fast_path_share"] <= 0:
        return "none"
    return "numpy" if numpy_version is not None else "python"


def run_suite(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    names = [w["name"] for w in contract["workloads"]]
    results, failures = run_set(names, args.seed, args.size)
    env = environment(args, results)
    document: Dict[str, Any] = {"environment": env, "workloads": {}}
    for name in names:
        document["workloads"][name] = print_end_to_end(name, results[name])
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        spans_out = str(out_dir / f"spans_{name}.jsonl") if out_dir else None
        metrics, traced, traced_failures = traced_pass(
            name, args.seed, args.size, results[name], spans_out=spans_out,
            timeout=REP_TIMEOUT_SECONDS,
        )
        failures += traced_failures
        for limit_name, limit in (("trace.overhead_ratio", 3.0),
                                  ("trace.unattributed_share", 0.05)):
            if metrics[limit_name] > limit:
                failures.append(
                    f"{name}: {limit_name} {metrics[limit_name]:.3f} > {limit}"
                )
        print_layers(name, metrics, traced)
        document["workloads"][name]["per_layer"] = metrics
        document["workloads"][name]["layer_table"] = traced["layer_table"]
    env["span_lane_radiation_span"] = span_lane(
        document["workloads"]["radiation_span"]["per_layer"], env["numpy_version"]
    )
    document["failures"] = failures
    print(f"\nenvironment: {json.dumps(env)}")
    if out_dir is not None:
        path = out_dir / "BENCH_e2e.json"
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"\nwrote {path}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print("all output checks passed" if not failures else
          f"{len(failures)} output check(s) failed")
    return 1 if failures else 0


def run_selfcheck(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    """The whole set twice, back to back; every end-to-end metric on
    every workload must agree within its own bound."""
    names = [w["name"] for w in contract["workloads"]]
    sets = []
    failures: List[str] = []
    for index in range(2):
        print(f"\n#### set {index + 1}")
        results, set_failures = run_set(names, args.seed, args.size)
        failures += set_failures
        sets.append({name: print_end_to_end(name, results[name]) for name in names})
    print("\n#### agreement (second median vs first, either direction)")
    for name in names:
        if sets[0][name]["sim_digest"] != sets[1][name]["sim_digest"]:
            failures.append(f"{name}: sim_digest differs between the two sets")
        for metric in contract["end_to_end"]:
            first = sets[0][name]["end_to_end"][metric["name"]]["median"]
            second = sets[1][name]["end_to_end"][metric["name"]]["median"]
            allowed = metric["bound"] * first
            if metric["name"] == "setup_s":
                allowed = max(allowed, SETUP_ABSOLUTE_SLACK_S)
            agree = abs(second - first) <= allowed
            print(f"   {name:<16}{metric['name']:<20}{first:>12.4f}{second:>12.4f}"
                  f"  moved {(second - first) / first:>+7.2%} (bound {metric['bound']:.0%})"
                  f"  {'ok' if agree else 'DISAGREE'}")
            if not agree:
                failures.append(
                    f"{name}: {metric['name']} {first:.4f} -> {second:.4f}"
                    f" exceeds its bound"
                )
        for index in range(2):
            if sets[index][name]["failed_share"]:
                failures.append(f"{name}: failed_share is non-zero in set {index + 1}")
    print(f"\nenvironment: {json.dumps(environment(args, results))}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print("selfcheck passed" if not failures else "selfcheck FAILED")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Potemkin honeyfarm end-to-end benchmark (see README.md)."
    )
    parser.add_argument("--workload", default=None,
                        help="run one workload and print one JSON result line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="single workload: seconds to keep repeating for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="single workload: 0 end-to-end metrics, 1 per-layer")
    parser.add_argument("--smoke", dest="size", action="store_const",
                        const="smoke", default="bench",
                        help="tiny workloads (the benchmark's own tests)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the whole set twice and require agreement")
    parser.add_argument("--out", default=None,
                        help="whole set: directory for BENCH_e2e.json and span dumps")
    args = parser.parse_args(argv)
    contract = load_contract()
    try:
        if args.workload is not None:
            known = [w["name"] for w in contract["workloads"]]
            if args.workload not in known:
                parser.error(f"unknown workload {args.workload!r}; known: {known}")
            return run_one(args, contract)
        if args.selfcheck:
            return run_selfcheck(args, contract)
        return run_suite(args, contract)
    except RepFailed as exc:
        print(f"BENCHMARK FAILED: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
