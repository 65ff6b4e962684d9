"""Tests for the interlinked federation and its multiprocess lane.

The load-bearing properties: cross-shard reflection carries an epidemic
over shard boundaries with replies NAT-rewritten back (in both lanes),
results are bit-identical for every worker count (and to the in-process
reference), the pinned corpus scenario replays exactly, and packet
conservation holds globally.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import HoneyfarmConfig
from repro.core.federation import FederatedHoneyfarm
from repro.core.intershard import InterShardConfig
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
