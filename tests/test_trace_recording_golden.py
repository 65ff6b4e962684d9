"""Golden digest of a flight-recorder recording.

CI's "Flight-recorder trace (smoke)" step records the chaos drill twice
and ``cmp``s the two files, which proves a tree agrees with itself, not
with the tree before it: a change that moves every recording at once
(an event emitted after a rewrite instead of before it, say) passes
there. This test records the same drill with CI's exact arguments and
compares the file's sha256 with a committed line. The JSONL carries
simulated time only, never wall time, so the digest is stable across
machines. It does carry ``vm_id``s, which a process-wide counter
draws, so the recording runs in a fresh interpreter, as CI's does.

Regenerate (after an intentional change to what the recorder emits)
with::

    PYTHONPATH=src python -m pytest tests/test_trace_recording_golden.py --update-golden
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "golden" / "recording_digests.txt"

#: The arguments of CI's "Flight-recorder trace (smoke)" step.
CHAOS_DRILL_SMOKE = [
    "trace", "--scenario", "chaos-drill", "--smoke",
    "--snapshot-interval", "5", "--capacity", "50000",
]


def test_chaos_drill_recording_matches_its_golden_digest(golden, tmp_path):
    path = tmp_path / "chaos_drill.jsonl"
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *CHAOS_DRILL_SMOKE, "--output", str(path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    data = path.read_bytes()
    lines = data.count(b"\n")
    digest = hashlib.sha256(data).hexdigest()
    golden.check(
        GOLDEN_PATH, f"chaos_drill_smoke lines={lines} sha256={digest}\n"
    )
