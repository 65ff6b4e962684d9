"""Paired before/after runs of the end-to-end benchmark against a git ref.

Usage, from the repository root::

    python3 benchmarks/pair.py HEAD~1                       # 10 pairs, every workload, seed 424742
    python3 benchmarks/pair.py HEAD~1 --pairs 5 --seed 190525 --workload radiation_span

Three arms run the same workloads:

* ``parent``: a ``git worktree`` of the ref;
* ``a/a``: a second worktree of the same ref, so the runs show how far
  two identical trees drift apart;
* ``change``: this working tree as it is, uncommitted edits and
  untracked files included (ignored ones not), snapshotted through a
  scratch index into a third worktree.

The three worktrees sit side by side at paths of the same length, so no
arm runs from a longer path or a tree with other files in it.

Each arm runs its own unmodified ``benchmarks/e2e/rep.py`` (which puts
its own tree's ``src`` first on ``sys.path``) in a fresh process per
repetition, as ``benchmarks/e2e/run.py`` does. A pair is one repetition
of each arm, in an order that rotates from pair to pair; the workloads
interleave inside a pair, so a slow phase of the host lands on every
arm and every workload alike.

Per workload, seed and end-to-end metric of ``BENCHMARK.json`` it prints
each arm's median and quartiles, and for ``a/a`` and ``change`` the
ratio of medians to the parent's and the pairs in which the arm beat the
parent. An arm's gap is the median of its per-pair differences from
the parent; the parent-to-A/A spread is the interquartile range of the
A/A arm's per-pair differences. A row is **resolved** only when its gap
is larger than that spread *and* the arm moved the same way in at least
``RESOLVED_SHARE`` of the pairs; otherwise it is **unresolved**. The A/A
row is held to the same rule, so on an unchanged tree every row,
the A/A rows included, should read unresolved.

Below the table, each workload and seed gets one host-phase line: the
pairs in which all three arms ran slower (``packets_per_s``) than their
own medians by more than the A/A spread. Such a pair is a slow phase of
the host, not an effect of the change; the per-pair differences cancel
it, and the line says how often it happened.

Exit status: 1 when a ``sim_digest`` differs between arms or between
repetitions of one arm, or a repetition cannot account for a packet; 2
when a change row is resolved worse than the parent by more than the
metric's bound; 0 otherwise. Every run appends one JSON line to
``benchmarks/reports/BENCH_history.jsonl``. The worktrees are removed
on exit, and nothing under ``benchmarks/e2e/`` or ``BENCHMARK.json`` is
written.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
HISTORY = ROOT / "benchmarks" / "reports" / "BENCH_history.jsonl"
DEFAULT_SEED = 424742
DEFAULT_PAIRS = 10
#: A resolved row moved the same way in at least this share of pairs.
RESOLVED_SHARE = 0.8
#: The metric whose slow pairs mark a slow phase of the host.
HOST_PHASE_METRIC = "packets_per_s"
#: A repetition still running after this long is hung.
REP_TIMEOUT_SECONDS = 600.0

ARMS = ("parent", "a/a", "change")
#: Worktree directory names: equal length, so no arm's paths are longer.
WORKTREE_NAMES = {"parent": "parent", "a/a": "aacopy", "change": "change"}


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def end_to_end(rep: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics of one repetition, as ``run.py`` derives
    them from ``rep.py``'s JSON line."""
    packets = rep["packets_in"]
    return {
        "packets_per_s": packets / rep["timed_wall_s"],
        "cpu_us_per_packet": rep["timed_cpu_s"] / packets * 1e6,
        "peak_rss_mb": rep["peak_rss_mb"],
        "setup_s": rep["setup_s"],
    }


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles(n=4)``, as the e2e
    benchmark reports them)."""
    data = [float(v) for v in values]
    if len(data) == 1:
        q1 = q3 = data[0]
    else:
        q1, __, q3 = statistics.quantiles(data, n=4)
    return {"median": statistics.median(data), "q1": q1, "q3": q3, "n": len(data)}


def _better(a: float, b: float, better: str) -> bool:
    return a > b if better == "higher" else a < b


def slow_pairs(
    arms: Sequence[Sequence[float]], better: str, spread: float,
) -> List[int]:
    """The pairs (0-based) in which every arm did worse than its own
    median by more than ``spread``: the host slowed them all together."""
    medians = [statistics.median(values) for values in arms]
    flagged = []
    for index, pair_values in enumerate(zip(*arms)):
        shortfalls = [
            (m - v) if better == "higher" else (v - m)
            for v, m in zip(pair_values, medians)
        ]
        if all(shortfall > spread for shortfall in shortfalls):
            flagged.append(index)
    return flagged


def compare(
    parent: Sequence[float], aa: Sequence[float], change: Sequence[float],
    better: str, bound: float,
) -> Dict[str, Any]:
    """One metric's row: both arms against the parent, pair by pair.

    An arm's *gap* is the median of its per-pair differences from the
    parent run of the same pair, so a slow phase of the host that lands
    on a whole pair cancels. The *spread* is the interquartile range of
    the A/A arm's per-pair differences: how far two runs of one tree
    drift apart. ``verdict`` is ``better``, ``worse`` or ``unresolved``;
    ``outside_bound`` is true when the change is resolved worse and its
    ratio of medians is beyond ``bound``. ``slow_pairs`` lists the pairs
    in which all three arms did worse than their own medians by more
    than the spread (see :func:`slow_pairs`).
    """
    if not (len(parent) == len(aa) == len(change)) or not parent:
        raise ValueError("every arm needs the same, non-zero number of pairs")
    stats = {"parent": quartiles(parent), "a/a": quartiles(aa), "change": quartiles(change)}
    aa_diffs = quartiles([v - p for v, p in zip(aa, parent)])
    spread = aa_diffs["q3"] - aa_diffs["q1"]
    row: Dict[str, Any] = {
        "better": better, "bound": bound, "arms": stats, "spread": spread,
        "slow_pairs": slow_pairs((parent, aa, change), better, spread),
    }
    for arm, values in (("a/a", aa), ("change", change)):
        gap = statistics.median(v - p for v, p in zip(values, parent))
        won = sum(_better(v, p, better) for v, p in zip(values, parent))
        lost = sum(_better(p, v, better) for v, p in zip(values, parent))
        moved_better = _better(gap, 0.0, better)
        consistent = (won if moved_better else lost) >= RESOLVED_SHARE * len(parent)
        resolved = abs(gap) > spread and consistent
        verdict = ("better" if moved_better else "worse") if resolved else "unresolved"
        base = stats["parent"]["median"]
        row[arm] = {
            "ratio": stats[arm]["median"] / base if base else float("nan"),
            "gap": gap,
            "won": won,
            "verdict": verdict,
        }
    change_row = row["change"]
    change_row["outside_bound"] = change_row["verdict"] == "worse" and (
        abs(change_row["ratio"] - 1.0) > bound
    )
    return row


# ---------------------------------------------------------------------- #
# Running the arms
# ---------------------------------------------------------------------- #

def _git(*args: str, env: Optional[Dict[str, str]] = None) -> str:
    return subprocess.run(
        ["git", *args], cwd=str(ROOT), capture_output=True, text=True, check=True,
        env=env,
    ).stdout.strip()


def snapshot_working_tree(scratch: Path) -> str:
    """A commit of the working tree as it is, made through a scratch
    index so the repository's own index and refs are untouched."""
    env = dict(os.environ, GIT_INDEX_FILE=str(scratch / "index"))
    for role in ("AUTHOR", "COMMITTER"):
        env.setdefault(f"GIT_{role}_NAME", "pair.py")
        env.setdefault(f"GIT_{role}_EMAIL", "pair.py@localhost")
    _git("add", "--all", env=env)
    tree = _git("write-tree", env=env)
    return _git("commit-tree", tree, "-p", "HEAD", "-m", "pair.py change arm", env=env)


def spawn_rep(tree: Path, workload: str, seed: int, size: str) -> Dict[str, Any]:
    """One repetition with ``tree``'s own ``rep.py``, started the way
    ``run.py`` starts one (fresh process, ``PYTHONHASHSEED=0``, the
    spawn time passed in so ``setup_s`` includes interpreter start)."""
    command = [
        sys.executable, str(tree / "benchmarks" / "e2e" / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--trace", "0", "--spawned-at", repr(time.monotonic()),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)  # each tree's rep.py finds its own src
    done = subprocess.run(
        command, env=env, cwd=str(tree), capture_output=True, text=True,
        timeout=REP_TIMEOUT_SECONDS,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} in {tree}: repetition exited {done.returncode}\n"
            f"{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pairs(
    trees: Dict[str, Path], workloads: Sequence[str], seeds: Sequence[int],
    pairs: int, size: str,
) -> Dict[tuple, Dict[str, List[Dict[str, Any]]]]:
    """``pairs`` repetitions of every arm, per workload per seed. The arm
    order rotates from pair to pair."""
    results = {
        (workload, seed): {arm: [] for arm in ARMS}
        for seed in seeds for workload in workloads
    }
    for seed in seeds:
        for index in range(pairs):
            order = ARMS[index % 3:] + ARMS[:index % 3]
            for workload in workloads:
                for arm in order:
                    rep = spawn_rep(trees[arm], workload, seed, size)
                    results[(workload, seed)][arm].append(rep)
                print(f"  seed {seed} pair {index + 1}/{pairs} {workload}"
                      f" ({' → '.join(order)})", file=sys.stderr, flush=True)
    return results


def digest_failures(results) -> List[str]:
    failures = []
    for (workload, seed), arms in results.items():
        digests = {arm: {rep["sim_digest"] for rep in reps} for arm, reps in arms.items()}
        if len(set().union(*digests.values())) > 1:
            failures.append(
                f"{workload} seed {seed}: sim_digest differs: "
                + ", ".join(f"{arm} {sorted(d)[0][:16]}" + (" (and more)" if len(d) > 1 else "")
                            for arm, d in digests.items())
            )
        for arm, reps in arms.items():
            lost = sum(rep["unaccounted"] for rep in reps)
            if lost:
                failures.append(f"{workload} seed {seed}: {arm} lost {lost} packets")
    return failures


def table(results, contract: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for (workload, seed), arms in results.items():
        samples = {arm: [end_to_end(rep) for rep in reps] for arm, reps in arms.items()}
        for metric in contract["end_to_end"]:
            name = metric["name"]
            values = {arm: [sample[name] for sample in samples[arm]] for arm in ARMS}
            row = compare(*(values[arm] for arm in ARMS),
                          better=metric["better"], bound=metric["bound"])
            row.update(workload=workload, seed=seed, metric=name, values=values)
            rows.append(row)
    return rows


def format_table(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<16}{'seed':>8}  {'metric':<18}{'arm':<8}"
        f"{'median':>12}{'q1':>12}{'q3':>12}{'ratio':>9}{'won':>8}{'gap':>12}  verdict"
    ]
    for row in rows:
        for arm in ARMS:
            stats = row["arms"][arm]
            head = (
                f"{row['workload']:<16}{row['seed']:>8}  {row['metric']:<18}"
                if arm == "parent" else " " * 44
            )
            line = (f"{head}{arm:<8}{stats['median']:>12.4g}{stats['q1']:>12.4g}"
                    f"{stats['q3']:>12.4g}")
            if arm == "parent":
                line += f"{'':17}{'':12}  (a/a spread {row['spread']:.4g})"
            else:
                cell = row[arm]
                line += (f"{cell['ratio']:>8.3f}×{cell['won']:>5}/{stats['n']:<2}"
                         f"{cell['gap']:>+12.4g}  {cell['verdict']}")
                if cell.get("outside_bound"):
                    line += f"  OUTSIDE BOUND ({row['bound']:.0%})"
            lines.append(line)
    return "\n".join(lines)


def host_phase_lines(rows: Sequence[Dict[str, Any]]) -> List[str]:
    """One line per workload and seed: how many pairs the host slowed
    on every arm at once."""
    lines = []
    for row in rows:
        if row["metric"] != HOST_PHASE_METRIC:
            continue
        flagged = row["slow_pairs"]
        which = f" (pair {', '.join(str(i + 1) for i in flagged)})" if flagged else ""
        lines.append(
            f"host phase: {row['workload']} seed {row['seed']}: {len(flagged)} of"
            f" {row['arms']['parent']['n']} pairs ran slower on every arm than"
            f" its median by more than the a/a spread{which}"
        )
    return lines


def _history_row(args, commits: Dict[str, str], rows, failures) -> Dict[str, Any]:
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    return {
        "when": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "ref": args.ref,
        "ref_commit": commits["parent"],
        "change_commit": _git("rev-parse", "HEAD"),
        "change_dirty": dirty,
        "change_snapshot": commits["change"],
        "pairs": args.pairs,
        "size": args.size,
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "failures": failures,
        "rows": [
            {
                "workload": row["workload"], "seed": row["seed"], "metric": row["metric"],
                **{arm: row["arms"][arm] for arm in ARMS},
                "values": row["values"], "spread": row["spread"],
                "aa_ratio": row["a/a"]["ratio"], "aa_won": row["a/a"]["won"],
                "aa_verdict": row["a/a"]["verdict"],
                "ratio": row["change"]["ratio"], "won": row["change"]["won"],
                "verdict": row["change"]["verdict"],
                "slow_pairs": row["slow_pairs"],
            }
            for row in rows
        ],
    }


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    known = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the parent arm: any git ref (e.g. HEAD~1)")
    parser.add_argument("--pairs", type=int, default=DEFAULT_PAIRS)
    parser.add_argument("--seed", type=int, action="append",
                        help=f"repeatable; default {DEFAULT_SEED}")
    parser.add_argument("--workload", action="append", choices=known,
                        help="repeatable; default every workload of BENCHMARK.json")
    parser.add_argument("--size", default="bench")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seeds = args.seed or [DEFAULT_SEED]
    workloads = args.workload or known

    ref_sha = _git("rev-parse", "--verify", f"{args.ref}^{{commit}}")
    scratch = Path(tempfile.mkdtemp(prefix="pair-"))
    trees: Dict[str, Path] = {}
    try:
        commits = {"parent": ref_sha, "a/a": ref_sha, "change": snapshot_working_tree(scratch)}
        for arm, name in WORKTREE_NAMES.items():
            trees[arm] = scratch / name
            _git("worktree", "add", "--detach", "--quiet", str(trees[arm]), commits[arm])
        for tree in trees.values():
            # Bytecode compiled up front: no arm's first repetition pays it.
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "benchmarks/e2e"],
                           cwd=str(tree), capture_output=True, check=True)
        print(f"parent and a/a: {args.ref} ({ref_sha[:12]}); change: {ROOT} as it is",
              file=sys.stderr)
        results = run_pairs(trees, workloads, seeds, args.pairs, args.size)
    finally:
        for arm in WORKTREE_NAMES:
            if arm in trees:
                subprocess.run(["git", "worktree", "remove", "--force", str(trees[arm])],
                               cwd=str(ROOT), capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=str(ROOT), capture_output=True)

    failures = digest_failures(results)
    rows = table(results, contract)
    print(format_table(rows))
    print("\n".join(host_phase_lines(rows)))
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    outside = [row for row in rows if row["change"]["outside_bound"]]
    for row in outside:
        print(f"OUTSIDE BOUND: {row['workload']} seed {row['seed']} {row['metric']}"
              f" {row['change']['ratio']:.3f}× (bound {row['bound']:.0%})", file=sys.stderr)
    with open(HISTORY, "a") as fh:
        fh.write(json.dumps(_history_row(args, commits, rows, failures)) + "\n")
    if failures:
        return 1
    return 2 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
