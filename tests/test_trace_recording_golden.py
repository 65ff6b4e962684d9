"""Golden digests of three recorded runs.

CI's "Flight-recorder trace (smoke)" step records the chaos drill twice
and ``cmp``s the two files, and its "Adversary (smoke)" step does the
same with the adversary report, which proves a tree agrees with itself,
not with the tree before it: a change that moves every recording at
once (an event emitted after a rewrite instead of before it, say)
passes there. These tests record the same runs and compare each file's
sha256 with its committed line:

* the chaos drill, with CI's exact arguments;
* a 20 s worm outbreak, whose recording carries the in-farm scans an
  infected guest's scan loop emits (and the containment event each
  one meets);
* the adversary report, whose botnet campaign runs a guest's beacon
  loop.

The files carry simulated time only, never wall time, so the digests
are stable across machines. They carry ``vm_id``s too, which each farm
numbers from one, so a run names the same VMs whatever ran before it
in the interpreter, and the runs are made in-process.

The digests pin what the loops emit and draw, not what a stopped guest
cancels: leaving a stopped guest's wake-up in the heap to fire as a
no-op moves none of them. ``tests/test_services_guest.py``
(``TestLoopEvents``) pins that.

Regenerate (after an intentional change to what the runs emit) with::

    PYTHONPATH=src python -m pytest tests/test_trace_recording_golden.py --update-golden
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import List

from repro.cli import main

GOLDEN_PATH = Path(__file__).parent / "golden" / "recording_digests.txt"

NEWLINE = b"\n"

#: The arguments of CI's "Flight-recorder trace (smoke)" step.
CHAOS_DRILL_SMOKE = [
    "trace", "--scenario", "chaos-drill", "--smoke",
    "--snapshot-interval", "5", "--capacity", "50000",
]

OUTBREAK_20S = [
    "trace", "--scenario", "outbreak", "--duration", "20",
    "--snapshot-interval", "5", "--capacity", "50000",
]


def _run_cli(args: List[str], capsys) -> None:
    assert main(args) == 0
    capsys.readouterr()  # the printed summary is not what is pinned


def _check_line(golden, name: str, path: Path, count_lines: bool) -> None:
    """Compare ``name``'s line of the digest file with ``path``'s digest;
    the other lines are taken as committed, so ``--update-golden``
    rewrites this line only."""
    data = path.read_bytes()
    line = name
    if count_lines:
        line += f" lines={data.count(NEWLINE)}"
    line += f" sha256={hashlib.sha256(data).hexdigest()}\n"
    committed = GOLDEN_PATH.read_text().splitlines(keepends=True)
    others = [old for old in committed if old.split(" ", 1)[0] != name]
    golden.check(GOLDEN_PATH, "".join(sorted(others + [line])))


def test_chaos_drill_recording_matches_its_golden_digest(golden, tmp_path, capsys):
    path = tmp_path / "chaos_drill.jsonl"
    _run_cli([*CHAOS_DRILL_SMOKE, "--output", str(path)], capsys)
    _check_line(golden, "chaos_drill_smoke", path, count_lines=True)


def test_outbreak_recording_matches_its_golden_digest(golden, tmp_path, capsys):
    path = tmp_path / "outbreak.jsonl"
    _run_cli([*OUTBREAK_20S, "--output", str(path)], capsys)
    _check_line(golden, "outbreak_20s", path, count_lines=True)


def test_adversary_report_matches_its_golden_digest(golden, tmp_path, capsys):
    path = tmp_path / "adversary.json"
    _run_cli(["adversary", "--smoke", "--json", str(path)], capsys)
    _check_line(golden, "adversary_smoke", path, count_lines=False)
