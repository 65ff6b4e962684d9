"""The frame ledger, pinned: seeded guest-write sequences, step by step.

``tests/test_memory_runs.py`` holds ``write_run`` equal to a
page-at-a-time reference, but both of its arms run through
``write_run``. This file holds the ledger to fixed numbers, recorded
while ``write`` still had ledger code of its own: it replays seeded op sequences through that file's ``_World`` (the real
guest code, bulk writer) in every configuration its property explores —
sharing on and off, a roomy and a tight pool, with and without an
eviction handler, one and two hosts — and hashes what each step returns
together with ``observe()`` (reads, private pages, CoW faults, the frame
ledgers, store counters, reclaimable frames, allocation failures and the
guest's cursors). One line per sequence; a changed hash means some step
of that sequence now leaves a different ledger.

The op vocabulary is the property's: boot, connection pages, a worm
body, a fresh rewrite run, a mirror of the pinned pages another guest
holds (a third of them the writer's own), a single-page copy of one, a
single-page write (fresh or pinned) and destroy, plus re-cloning a
destroyed guest.

Regenerate (after an intentional ledger change) with::

    PYTHONPATH=src python -m pytest tests/test_memory_ledger_golden.py --update-golden
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from tests.test_memory_runs import MAX_GUESTS, PAGES, ROOMY, TAG_A, TAG_B, TIGHT, _body, _World

GOLDEN_PATH = Path(__file__).parent / "golden" / "memory_ledger.txt"

SEEDS = range(8)
OPS_PER_SEQUENCE = 40

#: Contents a single-page write pins: fresh twice over, two pinned tags,
#: one worm-body tag.
WRITE_CONTENTS = (None, None, TAG_A, TAG_B, _body(0, 3)[2])

CONFIGS = [
    (sharing, pool, evict, hosts)
    for sharing in (True, False)
    for pool in ("ROOMY", "TIGHT")
    for evict in (True, False)
    for hosts in (1, 2)
]


def _ops(seed: int):
    """``OPS_PER_SEQUENCE`` ops drawn from ``seed`` after cloning every
    guest."""
    rng = random.Random(seed)
    ops = [("clone", key) for key in range(MAX_GUESTS)]
    for _ in range(OPS_PER_SEQUENCE):
        key = rng.randrange(MAX_GUESTS)
        page = rng.randrange(PAGES)
        kind = rng.choice(
            ("boot", "conn", "body", "fresh", "mirror", "mirror", "copy", "write",
             "write", "destroy", "clone")
        )
        if kind in ("clone", "destroy"):
            ops.append((kind, key))
        elif kind == "boot":
            ops.append((kind, key, rng.randint(1, PAGES + 4)))
        elif kind == "conn":
            ops.append((kind, key, rng.randint(1, 8)))
        elif kind == "body":
            ops.append((kind, key, page, rng.randint(1, PAGES + 4), rng.randrange(2)))
        elif kind == "fresh":
            ops.append((kind, key, page, rng.randint(1, PAGES + 4)))
        elif kind == "mirror":
            source = key if rng.randrange(3) == 0 else rng.randrange(MAX_GUESTS)
            ops.append((kind, key, page, rng.randint(1, 6), source, rng.randrange(PAGES)))
        elif kind == "copy":
            ops.append((kind, key, page, rng.randrange(MAX_GUESTS), rng.randrange(PAGES)))
        else:
            ops.append((kind, key, page, rng.choice(WRITE_CONTENTS)))
    return ops


def _sequence_digest(ops, sharing: bool, pool: str, evict: bool, hosts: int) -> str:
    world = _World(
        bulk=True, sharing=sharing, private_frames={"ROOMY": ROOMY, "TIGHT": TIGHT}[pool],
        evict=evict, hosts=hosts,
    )
    digest = hashlib.sha256()
    for op in ops:
        step = (world.apply(op), world.observe())
        digest.update(repr(step).encode() + b"\n")
    return digest.hexdigest()


def render() -> str:
    lines = []
    for sharing, pool, evict, hosts in CONFIGS:
        for seed in SEEDS:
            digest = _sequence_digest(_ops(seed), sharing, pool, evict, hosts)
            lines.append(
                f"sharing={'on' if sharing else 'off'} pool={pool}"
                f" evict={'on' if evict else 'off'} hosts={hosts} seed={seed} {digest}\n"
            )
    return "".join(lines)


def test_seeded_write_sequences_match_the_pinned_ledger(golden):
    golden.check(GOLDEN_PATH, render())
