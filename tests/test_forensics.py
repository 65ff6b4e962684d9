"""Unit and integration tests for the forensics pipeline."""

import pytest

from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.forensics.pagediff import PageDiff, diff_vm
from repro.forensics.signature import cluster_diffs, signature_from_cluster
from repro.forensics.triage import ForensicTriage
from repro.net.addr import IPAddress
from repro.net.packet import PROTO_UDP, icmp_packet, tcp_packet, udp_packet
from repro.services.guest import GuestHost, ScanBehavior
from repro.sim.rand import RandomStream
from repro.vmm.memory import GuestAddressSpace
from repro.vmm.vm import VirtualMachine

ATTACKER = IPAddress.parse("203.0.113.1")


def make_guest_vm(snapshot, sim, registry, index=0):
    vm = VirtualMachine(
        snapshot, GuestAddressSpace(snapshot.image),
        IPAddress.parse(f"10.16.0.{index + 1}"), 0.0, vm_id=index + 1,
    )
    vm.start(now=0.0)
    guest = GuestHost(
        vm=vm, personality=registry.get("windows-default"),
        catalog=registry.catalog, sim=sim, rng=RandomStream(100 + index),
    )
    return vm, guest


class TestPageDiff:
    def test_diff_captures_private_pages(self, snapshot, sim, registry):
        vm, guest = make_guest_vm(snapshot, sim, registry)
        guest.handle_packet(icmp_packet(ATTACKER, vm.ip), 0.0)
        diff = diff_vm(vm)
        assert diff.page_count == guest.personality.base_working_set_pages
        assert not diff.infected
        assert diff.personality == "windows-default"

    def test_diff_records_infection_ground_truth(self, snapshot, sim, registry):
        vm, guest = make_guest_vm(snapshot, sim, registry)
        guest.handle_packet(udp_packet(ATTACKER, vm.ip, 1, 1434,
                                       payload="exploit:slammer"), 0.0)
        diff = diff_vm(vm)
        assert diff.infected
        assert diff.worm_name == "slammer"
        assert diff.disk_blocks  # the worm installed itself on disk

    def test_diff_of_destroyed_vm_rejected(self, snapshot, sim, registry):
        vm, __ = make_guest_vm(snapshot, sim, registry)
        vm.destroy(now=1.0)
        with pytest.raises(ValueError):
            diff_vm(vm)

    def test_jaccard(self):
        a = PageDiff(1, "a", "p", frozenset({1, 2, 3}), frozenset(), False, None, None)
        b = PageDiff(2, "b", "p", frozenset({2, 3, 4}), frozenset(), False, None, None)
        assert a.jaccard(b) == pytest.approx(0.5)
        assert a.jaccard(a) == 1.0
        empty = PageDiff(3, "c", "p", frozenset(), frozenset(), False, None, None)
        assert empty.jaccard(empty) == 1.0


class TestClustering:
    def make_diff(self, vm_id, pages, worm=None):
        return PageDiff(vm_id, f"10.0.0.{vm_id}", "p", frozenset(pages),
                        frozenset(), worm is not None, worm, 0)

    def test_identical_diffs_cluster_together(self):
        diffs = [self.make_diff(i, range(100), worm="a") for i in range(5)]
        clusters = cluster_diffs(diffs)
        assert len(clusters) == 1
        assert clusters[0].size == 5
        assert clusters[0].mean_jaccard() == 1.0

    def test_disjoint_diffs_separate(self):
        diffs = [
            self.make_diff(1, range(0, 100), worm="a"),
            self.make_diff(2, range(200, 300), worm="b"),
        ]
        clusters = cluster_diffs(diffs)
        assert len(clusters) == 2

    def test_two_worm_families_separate_and_pure(self):
        family_a = [self.make_diff(i, list(range(0, 250)) , worm="a")
                    for i in range(4)]
        family_b = [self.make_diff(10 + i, list(range(0, 190)) + list(range(400, 460)),
                    worm="b") for i in range(3)]
        clusters = cluster_diffs(family_a + family_b, similarity_threshold=0.8)
        assert len(clusters) == 2
        assert all(c.label_purity() == 1.0 for c in clusters)
        assert {c.dominant_worm() for c in clusters} == {"a", "b"}

    def test_clusters_sorted_largest_first(self):
        diffs = [self.make_diff(i, range(100)) for i in range(5)]
        diffs.append(self.make_diff(99, range(1000, 1100)))
        clusters = cluster_diffs(diffs)
        assert clusters[0].size == 5

    def test_signature_subtracts_baseline(self):
        cluster = cluster_diffs(
            [self.make_diff(i, range(0, 300), worm="a") for i in range(3)]
        )[0]
        baseline = frozenset(range(0, 250))
        signature = signature_from_cluster(cluster, baseline)
        assert signature.signature_pages == frozenset(range(250, 300))
        assert signature.body_pages == 50
        assert signature.dominant_worm == "a"

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            cluster_diffs([], similarity_threshold=0.0)


class TestTriageOnLiveFarm:
    @pytest.fixture
    def infected_farm(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/26",), num_hosts=1,
            containment="drop-all",  # keep a clean population around
            idle_timeout_seconds=600.0, clone_jitter=0.0, seed=12,
        ))
        # Clean activity on 20 addresses.
        for i in range(20):
            farm.inject(tcp_packet(ATTACKER, IPAddress.parse(f"10.16.0.{i + 1}"),
                                   1000 + i, 445))
        # Two different worms compromise two disjoint address groups.
        for i in range(30, 36):
            farm.inject(udp_packet(ATTACKER, IPAddress.parse(f"10.16.0.{i}"),
                                   2000 + i, 1434, payload="exploit:slammer"))
        for i in range(40, 44):
            dst = IPAddress.parse(f"10.16.0.{i}")
            farm.inject(tcp_packet(ATTACKER, dst, 3000 + i, 80))
            from repro.net.packet import TcpFlags
            farm.sim.schedule(1.0, farm.inject, tcp_packet(
                ATTACKER, dst, 3000 + i, 80,
                flags=TcpFlags.PSH | TcpFlags.ACK, payload="exploit:codered",
            ))
        farm.run(until=10.0)
        return farm

    def test_triage_separates_worm_families(self, infected_farm):
        triage = ForensicTriage(infected_farm)
        assert triage.collect() == 30
        report = triage.report()
        assert report.clean_vms == 20
        assert report.infected_vms == 10
        labelled = {s.dominant_worm for s in report.signatures}
        assert labelled == {"slammer", "codered"}
        assert all(s.purity == 1.0 for s in report.signatures)

    def test_body_size_estimates_match_catalog(self, infected_farm, registry):
        """The signature body (common infected pages minus the clean
        baseline) must recover each worm's catalogued infection size."""
        report = ForensicTriage(infected_farm).report()
        by_worm = {s.dominant_worm: s for s in report.signatures}
        slammer_pages = registry.catalog.get("slammer").infection_pages
        codered_pages = registry.catalog.get("codered").infection_pages
        assert by_worm["slammer"].body_pages == pytest.approx(slammer_pages, abs=8)
        assert by_worm["codered"].body_pages == pytest.approx(codered_pages, abs=8)

    def test_render_includes_families(self, infected_farm):
        rendered = ForensicTriage(infected_farm).report().render()
        assert "Forensic triage" in rendered
        assert "slammer" in rendered
        assert "codered" in rendered

    def test_detained_vms_are_examined(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/26",), num_hosts=1,
            containment="drop-all", idle_timeout_seconds=2.0,
            detain_infected=True, max_detained=4, clone_jitter=0.0, seed=3,
        ))
        farm.inject(udp_packet(ATTACKER, IPAddress.parse("10.16.0.9"), 1, 1434,
                               payload="exploit:slammer"))
        farm.run(until=20.0)
        assert len(farm.detained) == 1
        triage = ForensicTriage(farm)
        triage.collect()
        report = triage.report()
        assert report.infected_vms == 1
        assert report.signatures[0].dominant_worm == "slammer"
