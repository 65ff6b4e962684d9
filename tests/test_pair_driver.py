"""The pair driver's verdicts (``benchmarks/pair.py``), on made-up samples.

Running the arms takes minutes; what decides "resolved" is a pure
function of three samples, and that is what is pinned here.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import pair  # noqa: E402

PARENT = [10.0, 10.4, 9.8, 10.1, 10.3, 9.9, 10.2, 10.0, 9.7, 10.1]


def _jittered(values, size):
    """``values`` moved up and down by ``size`` in turn: an A/A arm."""
    return [v + (size if i % 2 else -size) for i, v in enumerate(values)]


def test_identical_arms_are_unresolved():
    row = pair.compare(PARENT, list(PARENT), list(PARENT), better="lower", bound=0.25)
    assert row["a/a"]["verdict"] == row["change"]["verdict"] == "unresolved"
    assert row["change"]["ratio"] == 1.0
    assert not row["change"]["outside_bound"]


def test_a_shift_won_in_every_pair_resolves_its_way():
    aa, faster = _jittered(PARENT, 0.01), [v * 0.7 for v in PARENT]
    row = pair.compare(PARENT, aa, faster, better="lower", bound=0.25)
    assert row["a/a"]["verdict"] == "unresolved"
    assert row["change"]["verdict"] == "better"
    assert row["change"]["won"] == 10
    assert row["change"]["ratio"] == pytest.approx(0.7)
    row = pair.compare(PARENT, aa, faster, better="higher", bound=0.25)
    assert row["change"]["verdict"] == "worse"
    assert row["change"]["outside_bound"]  # 30 % worse against a 25 % bound


def test_a_gap_inside_the_aa_spread_is_unresolved():
    nudged = [v - 0.05 for v in PARENT]  # wins every pair, by less than A/A drift
    row = pair.compare(PARENT, _jittered(PARENT, 0.3), nudged, better="lower", bound=0.25)
    assert row["change"]["won"] == 10
    assert row["change"]["verdict"] == "unresolved"


def test_a_slow_phase_of_the_host_cancels_within_pairs():
    # Half the pairs ran while the host was 50 % slower: the parent's
    # quartiles span the two speeds, but every pair still shows the gain.
    host = [10.0] * 5 + [15.0] * 5
    row = pair.compare(host, _jittered(host, 0.05), [v * 0.8 for v in host],
                       better="lower", bound=0.25)
    parent = row["arms"]["parent"]
    assert parent["q3"] - parent["q1"] > abs(row["change"]["gap"])
    assert row["change"]["verdict"] == "better"


def test_a_median_gap_without_a_consistent_direction_is_unresolved():
    mixed = [v * (0.5 if i % 2 else 1.02) for i, v in enumerate(PARENT)]
    row = pair.compare(PARENT, list(PARENT), mixed, better="lower", bound=0.25)
    assert row["change"]["won"] == 5
    assert row["change"]["verdict"] == "unresolved"


def test_arms_need_the_same_number_of_pairs():
    with pytest.raises(ValueError):
        pair.compare(PARENT, PARENT[:-1], PARENT, better="lower", bound=0.25)
