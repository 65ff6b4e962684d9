"""The runner against its contract, at ``--smoke`` size.

Repetitions run the way the benchmark runs them — one fresh process
each — so these tests cover the child protocol too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads

ROOT = Path(run.__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in CONTRACT["workloads"]]


def _run_py(*args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170,
    )
    return done, json.loads(done.stdout.strip().splitlines()[-1])


def test_contract_names_exactly_what_the_runner_reports():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert [m["name"] for m in CONTRACT["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == run.END_TO_END_UNITS
    assert [
        (m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]
    ] == list(layers.LAYER_METRICS)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    for metric in CONTRACT["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_digest_is_stable_per_seed_and_differs_across_seeds(name):
    first = run.spawn_rep(name, 11, "smoke")
    again = run.spawn_rep(name, 11, "smoke")
    other = run.spawn_rep(name, 12, "smoke")
    assert first["sim_digest"] == again["sim_digest"]
    assert first["sim_digest"] != other["sim_digest"]
    for rep in (first, again, other):
        assert rep["unaccounted"] == 0
        assert rep["packets_in"] > 0
        assert rep["timed_wall_s"] > 0 and rep["setup_s"] > rep["import_s"] > 0
    assert run.check_reps(name, [first, again]) == []
    assert any("sim_digest" in f for f in run.check_reps(name, [first, other]))
    assert run.failed_share([first, again]) == 0.0
    assert run.failed_share([first, other]) == 1.0


def test_single_workload_run_prints_the_end_to_end_contract_line():
    done, line = _run_py(
        "--workload", "vm_churn", "--seed", "5", "--seconds", "0.2",
        "--trace", "0", "--smoke",
    )
    assert done.returncode == 0, done.stderr
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {
        name: entry["unit"] for name, entry in line["metrics"].items()
    } == run.END_TO_END_UNITS
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


@pytest.mark.parametrize("name", ["mixed_storm", "fed_reflect"])
def test_traced_run_prints_every_layer_metric_and_rows_sum_to_root(name):
    done, line = _run_py(
        "--workload", name, "--seed", "5", "--seconds", "0.2",
        "--trace", "1", "--smoke",
    )
    assert done.returncode == 0, done.stderr
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [m[0] for m in layers.LAYER_METRICS]
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert values["trace.overhead_ratio"] > 0
    assert 0 <= values["trace.unattributed_share"] < 1
    assert values["core.flash_clone.clones"] > 0
    assert values["vmm.memory.writes"] >= values["vmm.memory.cow_faults"] > 0
    if name == "fed_reflect":
        assert values["core.intershard.messages"] > 0
        assert values["core.intershard.wire_bytes_per_msg"] > 0
        assert values["core.parallel.epochs"] > 0
        assert values["core.parallel.speedup_vs_1worker"] > 0
    else:
        assert values["fidelity.ladder.promotions"] > 0
        assert values["core.parallel.epochs"] == 0


def test_traced_layer_table_sums_to_the_root_span():
    traced = run.spawn_rep("vm_churn", 5, "smoke", trace=1)
    table = traced["layer_table"]
    assert sum(table.values()) == pytest.approx(traced["timed_wall_s"], rel=1e-9)
    assert table["vmm.memory"] > 0 and table["core.flash_clone"] > 0
    assert table["fidelity.ladder"] == 0  # ladder off on this workload


def test_failed_output_check_makes_the_exit_code_non_zero(tmp_path, monkeypatch):
    good = run.spawn_rep("radiation_span", 5, "smoke")
    lossy = dict(good, unaccounted=3)
    failures = run.check_reps("radiation_span", [good, lossy])
    assert len(failures) == 1 and "cannot account" in failures[0]
    assert run.failed_share([good, lossy]) == pytest.approx(
        3 / (2 * good["packets_in"])
    )
    monkeypatch.setattr(run, "spawn_rep", lambda *a, **k: dict(lossy))
    args = run.argparse.Namespace(
        workload="radiation_span", seed=5, seconds=0.0, trace=0, size="smoke",
    )
    assert run.run_one(args, CONTRACT) == 1


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.prepare("no_such_storm", 1, "smoke")
    with pytest.raises(ValueError):
        workloads.prepare("vm_churn", 1, "huge")
