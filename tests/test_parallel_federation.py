"""Tests for the interlinked federation and its multiprocess lane.

The load-bearing properties: cross-shard reflection carries an epidemic
over shard boundaries with replies NAT-rewritten back (in both lanes),
results are bit-identical for every worker count (and to the in-process
reference), the pinned corpus scenario replays exactly, and packet
conservation holds globally.
"""

import json
import multiprocessing
import os
import pickle
import signal
from pathlib import Path

import pytest

from repro.core import parallel
from repro.core.config import HoneyfarmConfig
from repro.core.federation import FederatedHoneyfarm
from repro.core.intershard import InterShardConfig, ShardMessage
from repro.core.parallel import ParallelFederation
from repro.net.addr import IPAddress
from repro.net.packet import tcp_packet
from repro.testing.fedscenario import FederationScenario
from repro.workloads.telescope import PartitionedTelescope, TelescopeConfig
from repro.workloads.trace import TraceRecord

FEDERATION_CORPUS = Path(__file__).parent / "corpus" / "federation"

#: Two /26 shards; shard 0 owns 10.16.0.0-63, shard 1 owns 10.16.0.64-127.
SHARD_PREFIXES = ("10.16.0.0/26", "10.16.0.64/26")

#: One slammer exploit landing in shard 0 — the epidemic must cross into
#: shard 1 purely via reflected scans over the message layer.
SEED_RECORD = TraceRecord(
    time=0.1, src="200.1.2.3", dst="10.16.0.5", protocol=17,
    src_port=5555, dst_port=1434, payload="exploit:slammer", size=404,
)

INTERLINK = InterShardConfig(latency_seconds=0.25)


def shard_configs():
    return [
        HoneyfarmConfig(
            prefixes=(prefix,), num_hosts=2, host_memory_bytes=1 << 32,
            vm_image_bytes=8 << 20, containment="reflect",
            idle_timeout_seconds=300.0, clone_jitter=0.0, seed=11 + i,
        )
        for i, prefix in enumerate(SHARD_PREFIXES)
    ]


def build_reference():
    federation = FederatedHoneyfarm(
        shard_configs(), interlink=INTERLINK, worms=(("slammer", 2.0),),
    )
    federation.attach_shard_records(0, [SEED_RECORD])
    return federation


def run_reference(until=30.0):
    federation = build_reference()
    federation.run(until=until)
    return federation


def run_parallel(workers, until=30.0):
    lane = ParallelFederation(
        shard_configs(), INTERLINK, workers,
        shard_records=[[SEED_RECORD], None], worms=(("slammer", 2.0),),
    )
    return lane.run(until=until)


def in_shard(address: str, shard: int) -> bool:
    base = 64 * shard
    last = int(address.split(".")[-1])
    return address.startswith("10.16.0.") and base <= last < base + 64


class TestCrossShardReflection:
    """The regression the tentpole exists for: a VM in shard A scanning
    an address owned by shard B must infect it, and the victim's reply
    must come back NAT-rewritten — across a process-shaped boundary."""

    @pytest.fixture(scope="class")
    def reference(self):
        return run_reference()

    def test_epidemic_crosses_the_shard_boundary(self, reference):
        shard_b = reference.members[1]
        assert shard_b.infection_count() > 0
        cross = [
            r for r in shard_b.infections
            if in_shard(str(r.source), 0) and in_shard(str(r.victim), 1)
        ]
        assert cross, "no shard-1 infection was sourced from a shard-0 VM"

    def test_replies_cross_back(self, reference):
        """Both lanes of the reflected flow cross: the scan out, the
        victim's reply back — so both mailboxes carry traffic and both
        NATs rewrite reply sources."""
        for report in reference.shard_reports():
            assert report["intershard"]["sent"] > 0
            assert report["intershard"]["received"] > 0
            assert report["nat"]["reply_translations"] > 0

    def test_reflect_containment_stays_sealed(self, reference):
        """Cross-shard reflection must not open an external escape:
        nothing is initiated to the real Internet."""
        totals = reference.aggregate_counters()
        assert totals.get("gateway.initiated_external_out", 0) == 0

    def test_conservation_holds_globally(self, reference):
        ledger = reference.assert_packet_conservation()
        assert ledger.packets_in > 0

    def test_parallel_lane_reproduces_the_crossing(self):
        """The same regression through real worker processes."""
        result = run_parallel(workers=2)
        report_b = result.reports[1]
        cross = [
            i for i in report_b["infections"]
            if in_shard(i[2], 0) and in_shard(i[1], 1)
        ]
        assert cross
        assert report_b["intershard"]["received"] > 0
        assert report_b["nat"]["reply_translations"] > 0
        result.assert_packet_conservation()


class TestWorkerCountInvariance:
    """Bit-reproducibility: the observable outcome is a pure function of
    the scenario, never of the process layout."""

    def test_all_worker_counts_match_the_reference(self):
        reference = run_reference().shard_reports()
        for workers in (1, 2, 4, 8):
            result = run_parallel(workers)
            assert result.reports == reference, (
                f"workers={workers} diverged from the in-process reference"
            )

    def test_in_process_run_resumes_where_it_stopped(self):
        """Stopping at an arbitrary instant (mid-epoch, messages in
        flight) and running on gives the one-call outcome: the closing
        deposit of a run parks every in-flight message in a mailbox."""
        whole = run_reference(until=20.0)
        resumed = build_reference()
        resumed.run(until=7.3)
        resumed.run(until=20.0)
        assert resumed.shard_reports() == whole.shard_reports()
        assert resumed.epochs > whole.epochs  # 7.3 is not a barrier

    def test_placement_is_load_balanced(self):
        lane = ParallelFederation(
            shard_configs(), INTERLINK, 2,
            shard_records=[[SEED_RECORD], None],
        )
        assert sorted(lane.assignment) == [0, 1]


class TestPinnedCorpus:
    """tests/corpus/federation/ holds full federated scenarios pinned as
    JSON; both lanes must replay them bit-identically."""

    def test_corpus_exists(self):
        assert list(FEDERATION_CORPUS.glob("*.json"))

    @pytest.mark.parametrize(
        "path", sorted(FEDERATION_CORPUS.glob("*.json")), ids=lambda p: p.stem
    )
    def test_corpus_scenario_replays_identically(self, path):
        scenario = FederationScenario.from_json(path.read_text())
        reference = scenario.build_reference()
        reference.run(until=scenario.duration)
        reports = reference.shard_reports()

        # The pinned scenario must actually exercise the machinery it pins.
        assert sum(r["intershard"]["sent"] for r in reports) > 0
        assert sum(len(r["infections"]) for r in reports) > 0
        reference.assert_packet_conservation()

        result = scenario.build_parallel(workers=2).run(until=scenario.duration)
        assert result.reports == reports
        result.assert_packet_conservation()

    def test_corpus_roundtrips_through_json(self):
        for path in FEDERATION_CORPUS.glob("*.json"):
            scenario = FederationScenario.from_json(path.read_text())
            assert FederationScenario.from_json(scenario.to_json()) == scenario


class TestFederationScenario:
    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            FederationScenario.from_dict({"seed": 1, "bogus": 2})

    def test_unknown_worm_rejected(self):
        with pytest.raises(ValueError, match="unknown worm"):
            FederationScenario(seed=1, worms=(("stuxnet", 1.0),))

    def test_shard_prefixes_are_disjoint_and_ordered(self):
        scenario = FederationScenario(seed=1, shards=4, shard_bits=26)
        assert scenario.shard_prefixes() == (
            ("10.16.0.0/26",), ("10.16.0.64/26",),
            ("10.16.0.128/26",), ("10.16.0.192/26",),
        )

    def test_shard_configs_have_distinct_seeds(self):
        configs = FederationScenario(seed=1, shards=3).shard_configs()
        assert len({c.seed for c in configs}) == 3


class TestParallelFederationApi:
    def test_double_run_rejected(self):
        lane = ParallelFederation(
            shard_configs(), INTERLINK, 1, shard_records=[[SEED_RECORD], None],
        )
        lane.run(until=1.0)
        with pytest.raises(ValueError, match="runs once"):
            lane.run(until=1.0)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched worker reaches the child only through fork",
    )
    def test_a_dead_worker_is_named(self, monkeypatch):
        """A worker that dies without a word (no traceback shipped back)
        surfaces as an error naming it and its exit code, not as the
        pipe's bare ``EOFError``."""
        serve = parallel._shard_worker

        class DyingOnFirstEpoch:
            def __init__(self, conn):
                self.conn = conn

            def recv(self):
                message = self.conn.recv()
                if message[0] == "epoch":
                    os._exit(3)
                return message

            def __getattr__(self, name):
                return getattr(self.conn, name)

        monkeypatch.setattr(
            parallel, "_shard_worker",
            lambda conn, payload: serve(DyingOnFirstEpoch(conn), payload),
        )
        lane = ParallelFederation(
            shard_configs(), INTERLINK, 2, shard_records=[[SEED_RECORD], None],
            start_method="fork",
        )
        with pytest.raises(
            RuntimeError, match=r"federation worker 0 died \(exit code 3\)"
        ):
            lane.run(until=5.0)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched worker reaches the child only through fork",
    )
    def test_a_stopped_worker_is_named_within_the_deadline(self, monkeypatch):
        """A worker stopped mid-run (SIGSTOP: alive, silent, pipe open)
        surfaces as an error naming it and the op it never answered, once
        the reply deadline passes, and no worker outlives the run."""
        serve = parallel._shard_worker

        class StoppingOnFirstEpoch:
            def __init__(self, conn):
                self.conn = conn

            def recv(self):
                message = self.conn.recv()
                if message[0] == "epoch":
                    os.kill(os.getpid(), signal.SIGSTOP)
                return message

            def __getattr__(self, name):
                return getattr(self.conn, name)

        def worker(conn, payload):
            if payload["shards"][0][0] == 0:
                conn = StoppingOnFirstEpoch(conn)
            serve(conn, payload)

        monkeypatch.setattr(parallel, "_shard_worker", worker)
        monkeypatch.setattr(parallel, "_REPLY_DEADLINE_SECONDS", 2.0)
        lane = ParallelFederation(
            shard_configs(), INTERLINK, 2, shard_records=[[SEED_RECORD], None],
            start_method="fork",
        )

        def still_blocked(signum, frame):
            raise TimeoutError("the coordinator is still blocked after 10 s")

        previous = signal.signal(signal.SIGALRM, still_blocked)
        signal.alarm(10)
        try:
            with pytest.raises(
                RuntimeError, match=r"federation worker 0 sent no reply to 'epoch' within 2 s"
            ):
                lane.run(until=5.0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_spawned_workers_match_the_reference(self):
        """Workers started in a fresh interpreter: the payload and every
        message must unpickle there, and the outcome is the reference's."""
        reference = run_reference(until=10.0).shard_reports()
        lane = ParallelFederation(
            shard_configs(), INTERLINK, 2, shard_records=[[SEED_RECORD], None],
            worms=(("slammer", 2.0),), start_method="spawn",
        )
        result = lane.run(until=10.0)
        assert sum(report["intershard"]["sent"] for report in result.reports) > 0
        assert result.reports == reference

    def test_an_epoch_reply_is_one_batch_per_destination_worker(self, monkeypatch):
        """Each ``"done"`` reply holds ``(position, bytes)`` batches at
        distinct positions, none empty, and every message in a batch is
        bound for a shard of the worker at that position."""
        replies = []
        collect = parallel._WorkerPort.collect

        def recording(port):
            reply = collect(port)
            if port.op in ("epoch", "deposit"):
                replies.append(reply)
            return reply

        monkeypatch.setattr(parallel._WorkerPort, "collect", recording)
        lane = ParallelFederation(
            shard_configs(), INTERLINK, 2, shard_records=[[SEED_RECORD], None],
            worms=(("slammer", 2.0),),
        )
        lane.run(until=10.0)
        active = sorted(set(lane.assignment))
        owned = {
            position: {s for s, w in enumerate(lane.assignment) if w == worker}
            for position, worker in enumerate(active)
        }
        batches = [batch for reply in replies for batch in reply]
        assert batches, "no message crossed a pipe"
        for reply in replies:
            positions = [position for position, __ in reply]
            assert len(set(positions)) == len(positions)
        for position, data in batches:
            messages = [ShardMessage.decode(m) for m in pickle.loads(data)]
            assert messages
            assert {m.dst_shard for m in messages} <= owned[position]

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError):
            ParallelFederation(shard_configs(), INTERLINK, 0)

    def test_result_aggregation(self):
        result = run_parallel(workers=2, until=10.0)
        totals = result.aggregate_counters()
        assert totals["gateway.packets_in"] == sum(
            r["ledger"]["packets_in"] for r in result.reports
        )
        assert result.infection_count() == sum(
            len(r["infections"]) for r in result.reports
        )
        times = [i[0] for i in result.infections()]
        assert times == sorted(times)

    def test_conservation_cross_checks_counters_on_shipped_reports(self):
        """The parallel lane's check used to be a hand-kept mirror of
        the in-process one and had lost the counters-vs-ledger clause: a
        report whose counters disagreed with its ledger passed."""
        result = run_parallel(workers=2, until=10.0)
        result.assert_packet_conservation()
        result.reports[0]["counters"]["gateway.delivered"] += 1
        with pytest.raises(AssertionError, match="delivered"):
            result.assert_packet_conservation()

    def test_both_lanes_hand_out_the_same_result(self):
        reference = run_reference(until=10.0).result()
        parallel = run_parallel(workers=2, until=10.0)
        assert reference.reports == parallel.reports
        assert reference.epochs == parallel.epochs == 40
        assert (reference.workers, parallel.workers) == (0, 2)
        assert reference.assert_packet_conservation() \
            == parallel.assert_packet_conservation()


class TestLegacyFederationLedgers:
    """The in-process federation's books on a hand-injected workload:
    per-member ledgers, the independently-reconciled federation ledger,
    and the conservation assert. (The class keeps its name from the
    deleted shared-clock mode so the test ids stay stable.)"""

    @pytest.fixture
    def federation(self):
        configs = [
            HoneyfarmConfig(prefixes=("10.16.0.0/24",), num_hosts=1,
                            clone_jitter=0.0, seed=5),
            HoneyfarmConfig(prefixes=("10.17.0.0/24",), num_hosts=1,
                            clone_jitter=0.0, seed=5),
        ]
        federation = FederatedHoneyfarm(configs, interlink=INTERLINK)
        attacker = IPAddress.parse("203.0.113.1")
        for i in range(3):
            federation.inject(tcp_packet(
                attacker, IPAddress.parse(f"10.16.0.{i + 1}"), 100 + i, 445))
        federation.inject(tcp_packet(
            attacker, IPAddress.parse("10.17.0.1"), 200, 445))
        federation.run(until=3.0)
        return federation

    def test_member_ledgers_balance(self, federation):
        ledgers = federation.member_ledgers()
        assert len(ledgers) == 2
        assert all(ledger.leaked == 0 for ledger in ledgers)
        assert ledgers[0].packets_in == 3 and ledgers[1].packets_in == 1

    def test_conservation_cross_checks_member_sums(self, federation):
        ledger = federation.assert_packet_conservation()
        assert ledger.packets_in == 4

    def test_conservation_failure_is_loud(self, federation):
        federation.members[0].metrics.counter("gateway.packets_in").increment()
        with pytest.raises(AssertionError, match="conservation violated"):
            federation.assert_packet_conservation()

    def test_per_member_rows_carry_packet_totals(self, federation):
        rows = federation.per_member_rows()
        assert [row[4] for row in rows] == [3, 1]


class TestPartitionedTelescope:
    def test_partition_count_must_match_shards(self):
        telescope = PartitionedTelescope(
            shard_prefixes=(("10.16.0.0/26",),), duration=1.0,
        )
        federation = FederatedHoneyfarm(shard_configs(), interlink=INTERLINK)
        with pytest.raises(ValueError, match="partitions"):
            federation.attach_telescope(telescope)

    def test_partitions_stay_inside_their_shard(self):
        telescope = PartitionedTelescope(
            shard_prefixes=(("10.16.0.0/26",), ("10.16.0.64/26",)),
            duration=5.0,
            config=TelescopeConfig(seed=9,
                                   sources_per_second_per_slash16=2048.0),
            max_records_per_shard=50,
        )
        for shard in range(2):
            records = telescope.build(shard)
            assert records
            assert all(in_shard(r.dst, shard) for r in records)

    def test_partitions_use_distinct_streams(self):
        telescope = PartitionedTelescope(
            shard_prefixes=(("10.16.0.0/26",), ("10.16.0.64/26",)),
            duration=5.0,
            config=TelescopeConfig(seed=9,
                                   sources_per_second_per_slash16=2048.0),
            max_records_per_shard=50,
        )
        sources = [
            tuple(r.src for r in telescope.build(shard)) for shard in range(2)
        ]
        assert sources[0] != sources[1]
