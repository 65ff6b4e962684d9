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


def test_an_aa_arm_that_drifts_in_four_of_five_pairs_is_unresolved():
    # At 5 pairs a row needs all 5: an unchanged tree drifted one way in
    # 4 of 5, by more than its own spread, and 4 of 5 once resolved it.
    parent = PARENT[:5]
    aa = [v + d for v, d in zip(parent, (0.5, 0.6, 0.55, 0.52, -0.1))]
    row = pair.compare(parent, aa, list(parent), better="lower", bound=0.25)
    assert abs(row["a/a"]["gap"]) > row["spread"]
    assert row["a/a"]["won"] == 1  # worse in the other four
    assert row["a/a"]["verdict"] == "unresolved"


def test_arms_need_the_same_number_of_pairs():
    with pytest.raises(ValueError):
        pair.compare(PARENT, PARENT[:-1], PARENT, better="lower", bound=0.25)


def test_a_pair_every_arm_ran_slow_is_a_host_phase():
    # Pair 4 (index 3): all three arms lost 30 % together. Pair 7: only
    # the change arm dipped, which is the change's doing, not the host's.
    parent = list(PARENT)
    aa = _jittered(PARENT, 0.05)
    change = [v * 1.1 for v in PARENT]
    for arm in (parent, aa, change):
        arm[3] *= 0.7
    change[6] *= 0.7
    assert pair.slow_pairs((parent, aa, change), "higher", 0.5) == [3]
    # The same dip is no slow phase where lower is better.
    assert pair.slow_pairs((parent, aa, change), "lower", 0.5) == []
    row = pair.compare(parent, aa, change, better="higher", bound=0.25)
    row.update(workload="fed_reflect", seed=424742, metric=pair.HOST_PHASE_METRIC)
    assert row["slow_pairs"] == pair.slow_pairs((parent, aa, change), "higher", row["spread"])
    assert 3 in row["slow_pairs"] and 6 not in row["slow_pairs"]
    assert pair.host_phase_lines([row]) == [
        f"host phase: fed_reflect seed 424742: {len(row['slow_pairs'])} of 10 pairs"
        " ran slower on every arm than its median by more than the a/a spread"
        f" (pair {', '.join(str(i + 1) for i in row['slow_pairs'])})"
    ]


def test_arms_slow_in_different_pairs_are_no_host_phase():
    # Each arm has its own slow pairs, never all three in the same one.
    parent = [10.0] * 10
    aa, change = list(parent), list(parent)
    parent[1] = aa[4] = change[7] = 5.0
    parent[4] = change[1] = 5.0
    assert pair.slow_pairs((parent, aa, change), "higher", 1.0) == []
    assert pair.slow_pairs((parent, aa, change), "lower", 1.0) == []
