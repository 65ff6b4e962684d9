"""Fault injectors and farm self-healing: crash, repair, respawn, chaos.

Covers the chaos subsystem end to end at the unit level: host crashes
unwind every piece of per-VM state with cause accounting, displaced
addresses respawn on survivors under backoff, repaired hosts rejoin
admission, clone faults surface as failed CloneResults, link impairments
drop/delay without reordering, and the pending-queue watchdog fails
over stuck clones. The golden chaos scenario lives in
``test_faults_golden.py``; this file pins the mechanisms.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HoneyfarmConfig
from repro.core.containment import OpenPolicy
from repro.core.gateway import Gateway
from repro.core.honeyfarm import Honeyfarm
from repro.faults import (
    ChaosController,
    FaultPlan,
    clone_faults,
    host_crash,
    link_latency,
    link_loss,
    link_outage,
)
from repro.net.addr import AddressSpaceInventory, IPAddress, Prefix
from repro.net.link import Link
from repro.net.packet import tcp_packet
from repro.sim.engine import Simulator
from repro.sim.rand import SeedSequence
from repro.vmm.vm import VMState

from tests.test_core_gateway import FakeBackend, make_gateway

ATTACKER = IPAddress.parse("203.0.113.9")


@pytest.fixture
def inventory():
    return AddressSpaceInventory([Prefix.parse("10.16.0.0/24")])


def make_farm(**overrides) -> Honeyfarm:
    base = dict(
        prefixes=("10.16.0.0/24",),
        num_hosts=2,
        idle_timeout_seconds=300.0,
        clone_jitter=0.0,
        seed=9,
    )
    base.update(overrides)
    return Honeyfarm(HoneyfarmConfig(**base))


def spawn_running_vms(farm: Honeyfarm, count: int, until: float = 5.0):
    """Inject ``count`` first-contact packets and run until clones finish."""
    for i in range(count):
        dst = IPAddress.parse(f"10.16.0.{10 + i}")
        farm.inject(tcp_packet(ATTACKER, dst, 1000 + i, 445))
    farm.run(until=until)


# ---------------------------------------------------------------------- #
# Host crash and recovery
# ---------------------------------------------------------------------- #

class TestHostCrash:
    def test_crash_destroys_resident_vms(self):
        farm = make_farm()
        spawn_running_vms(farm, 6)
        victim = farm.hosts[0]
        lost = victim.live_vms
        assert lost > 0
        impact = farm.crash_host(victim)
        assert impact["vms_lost"] == lost
        assert victim.live_vms == 0
        assert victim.failed
        assert farm.metrics.counter("farm.host_crashes").value == 1

    def test_crash_unbinds_gateway_state(self):
        farm = make_farm()
        spawn_running_vms(farm, 6)
        victim = farm.hosts[0]
        crashed_ips = [vm.ip for vm in victim.vms()]
        farm.crash_host(victim)
        for ip in crashed_ips:
            assert ip not in farm.gateway.vm_map

    def test_crash_drops_pending_with_host_down_cause(self):
        farm = make_farm()
        # First contact: the clone is in flight, the packet is pending.
        farm.inject(tcp_packet(ATTACKER, IPAddress.parse("10.16.0.10"), 1, 445))
        vm = farm.gateway.vm_map[IPAddress.parse("10.16.0.10")]
        assert vm.state is VMState.CLONING
        host = farm._hosts_by_id[vm.host_id]
        impact = farm.crash_host(host)
        counters = farm.metrics.counters()
        assert counters["gateway.pending_dropped_host_down"] == 1
        assert counters["farm.clone_failures.host_down"] == 1
        assert impact["clones_aborted"] == 1
        assert impact["pending_dropped"] == 1

    def test_displaced_addresses_respawn_on_survivor(self):
        farm = make_farm()
        spawn_running_vms(farm, 6)
        victim, survivor = farm.hosts
        displaced = [vm.ip for vm in victim.vms()]
        farm.crash_host(victim)
        farm.run(until=farm.sim.now + 30.0)
        counters = farm.metrics.counters()
        assert counters["farm.respawns"] == len(displaced)
        for ip in displaced:
            vm = farm.gateway.vm_map[ip]
            assert vm.state is VMState.RUNNING
            assert vm.host_id == survivor.host_id

    def test_respawn_skips_naturally_healed_addresses(self):
        farm = make_farm()
        spawn_running_vms(farm, 2)
        victim = farm.hosts[0]
        displaced = [vm.ip for vm in victim.vms()]
        assert displaced
        farm.crash_host(victim)
        # A fresh packet arrives before the respawn timer fires.
        farm.inject(tcp_packet(ATTACKER, displaced[0], 2000, 445))
        spawned_before = farm.metrics.counter("farm.vms_spawned").value
        farm.run(until=farm.sim.now + 30.0)
        # The respawn path must not double-spawn the healed address.
        expected = spawned_before + len(displaced) - 1
        assert farm.metrics.counter("farm.vms_spawned").value == expected

    def test_repaired_host_rejoins_admission(self):
        farm = make_farm()
        victim = farm.hosts[0]
        farm.crash_host(victim)
        assert not victim.has_vm_slot()
        farm.repair_host(victim)
        assert victim.has_vm_slot()
        assert farm.metrics.counter("farm.host_repairs").value == 1
        spawn_running_vms(farm, 4, until=farm.sim.now + 5.0)
        assert victim.live_vms > 0  # placement spread back onto it

    def test_crash_refills_warm_pool_on_survivor(self):
        farm = make_farm(warm_pool_size=4)
        farm.run(until=5.0)  # fill the pool
        assert farm.pool_size == 4
        by_host = {h.host_id: sum(1 for v in h.vms() if v.parked) for h in farm.hosts}
        victim = max(farm.hosts, key=lambda h: by_host[h.host_id])
        impact = farm.crash_host(victim)
        assert impact["pool_vms_lost"] == by_host[victim.host_id] > 0
        farm.run(until=farm.sim.now + 5.0)
        assert farm.pool_size == 4
        survivor = farm.hosts[1] if victim is farm.hosts[0] else farm.hosts[0]
        assert sum(1 for v in survivor.vms() if v.parked) == 4

    def test_crash_loses_detained_evidence(self):
        farm = make_farm(detain_infected=True)
        spawn_running_vms(farm, 2)
        # Force-detain a VM by hand to exercise the crash bookkeeping.
        victim = farm.hosts[0]
        vm = next(iter(victim.vms()))
        farm._detain(victim, vm)
        assert vm in farm.detained
        farm.crash_host(victim)
        assert vm not in farm.detained
        assert farm.metrics.counter("farm.detained_lost").value == 1

    def test_double_crash_rejected(self):
        farm = make_farm()
        farm.crash_host(farm.hosts[0])
        with pytest.raises(ValueError, match="already down"):
            farm.crash_host(farm.hosts[0])
        with pytest.raises(ValueError, match="not down"):
            farm.repair_host(farm.hosts[1])


# ---------------------------------------------------------------------- #
# Clone-fault injection
# ---------------------------------------------------------------------- #

class TestCloneFaults:
    def test_fault_surfaces_as_failed_result_then_heals(self):
        farm = make_farm()
        plan = FaultPlan(events=(clone_faults(at=0.0, duration=2.0, rate=1.0),), seed=3)
        controller = ChaosController(farm, plan)
        controller.start()
        dst = IPAddress.parse("10.16.0.10")
        farm.inject(tcp_packet(ATTACKER, dst, 1, 445))
        farm.run(until=30.0)
        counters = farm.metrics.counters()
        assert counters["clone.failed"] >= 1
        assert counters["farm.clone_failures.fault"] == counters["clone.failed"]
        assert counters["gateway.pending_dropped_clone_failed"] == 1
        # After the fault window the respawn path healed the address.
        assert farm.gateway.vm_map[dst].state is VMState.RUNNING
        # Failed clones never pollute the latency sample set: one sample
        # per clone that reached RUNNING, none for those the hook killed.
        completed = farm.clone_engine.completed
        assert completed == counters["clone.completed"] >= 1
        assert farm.metrics.histogram("clone.latency_seconds").count == completed

    def test_hook_disarmed_after_window(self):
        farm = make_farm()
        plan = FaultPlan(events=(clone_faults(at=0.0, duration=1.0, rate=1.0),), seed=3)
        ChaosController(farm, plan).start()
        farm.run(until=10.0)
        assert farm.clone_engine.fault_hook is None

    def test_spawn_capacity_failures_are_counted(self):
        farm = make_farm(num_hosts=1, max_vms_per_host=2)
        spawn_running_vms(farm, 5)
        counters = farm.metrics.counters()
        assert counters["farm.clone_failures.no_host_capacity"] > 0
        assert counters["farm.clone_failures"] == sum(
            v for k, v in counters.items() if k.startswith("farm.clone_failures.")
        )


# ---------------------------------------------------------------------- #
# Link impairments
# ---------------------------------------------------------------------- #

class TestLinkImpairments:
    def _link(self, sim, received, **kwargs):
        kwargs.setdefault("propagation_delay", 0.001)
        kwargs.setdefault("bandwidth", None)
        return Link(sim, received.append, **kwargs)

    def test_outage_drops_everything_in_window(self):
        sim = Simulator()
        received = []
        link = self._link(sim, received)
        link.impair(1.0, down=True)
        assert not link.deliver("a", 100)
        sim.run(until=2.0)
        assert link.deliver("b", 100)
        sim.run(until=3.0)
        assert received == ["b"]
        assert link.lost_outage == 1
        assert not link.impaired

    def test_loss_burst_layered_on_base_rate(self):
        sim = Simulator()
        received = []
        rng = SeedSequence(5).stream("loss")
        link = self._link(sim, received, loss_rate=0.0, rng=rng)
        link.impair(10.0, loss_rate=1.0)  # rate 1.0 needs no coin flip
        assert not link.deliver("x", 10)
        assert link.lost_burst == 1
        link.clear_impairments()
        assert link.deliver("y", 10)

    def test_latency_spike_delays_delivery(self):
        sim = Simulator()
        received = []
        link = self._link(sim, received)
        link.impair(1.0, extra_delay=0.5)
        link.deliver("slow", 10)
        sim.run(until=0.4)
        assert received == []
        sim.run(until=1.0)
        assert received == ["slow"]

    def test_impair_validation(self):
        sim = Simulator()
        link = self._link(sim, [])
        with pytest.raises(ValueError, match="duration"):
            link.impair(0.0, down=True)
        with pytest.raises(ValueError, match="needs down"):
            link.impair(1.0)
        with pytest.raises(ValueError, match="rng"):
            link.impair(1.0, loss_rate=0.5)  # sub-1.0 burst needs an rng

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("send")),
                st.tuples(st.just("advance"), st.floats(0.001, 2.0)),
                st.tuples(st.just("latency"), st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
                st.tuples(st.just("outage"), st.floats(0.01, 1.0)),
                st.tuples(st.just("loss"), st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
            ),
            max_size=40,
        )
    )
    def test_fifo_holds_under_any_impairment_sequence(self, ops):
        """Deliveries that survive arrive in submission order, no matter
        how impairment windows open and close around them."""
        sim = Simulator()
        received = []
        rng = SeedSequence(11).stream("loss")
        link = Link(
            sim, received.append,
            propagation_delay=0.002, bandwidth=10_000.0, rng=rng,
        )
        sent = 0
        for op in ops:
            if op[0] == "send":
                link.deliver(sent, 50)
                sent += 1
            elif op[0] == "advance":
                sim.run(until=sim.now + op[1])
            elif op[0] == "latency":
                link.impair(op[1], extra_delay=op[2])
            elif op[0] == "outage":
                link.impair(op[1], down=True)
            else:  # loss
                link.impair(op[1], loss_rate=op[2])
        sim.run(until=sim.now + 100.0)
        assert received == sorted(received)  # monotone submission ids


# ---------------------------------------------------------------------- #
# Pending-queue watchdog (timeout + failover)
# ---------------------------------------------------------------------- #

class TestPendingTimeout:
    def test_timeout_drops_and_fails_over(self, sim, inventory, snapshot):
        backend = FakeBackend(sim, snapshot, instant=False)
        gw = Gateway(
            sim=sim, inventory=inventory, policy=OpenPolicy(),
            backend=backend, pending_timeout=5.0,
        )
        dark = IPAddress.parse("10.16.0.5")
        gw.process_inbound(tcp_packet(ATTACKER, dark, 1, 445))
        gw.process_inbound(tcp_packet(ATTACKER, dark, 2, 445))
        assert gw.pending_packet_count == 2
        sim.run(until=6.0)
        assert gw.pending_packet_count == 0
        assert gw.metrics.counter("gateway.pending_dropped_timeout").value == 2
        assert dark not in gw.vm_map  # failover: address unbound
        # The next packet re-dispatches a fresh clone.
        gw.process_inbound(tcp_packet(ATTACKER, dark, 3, 445))
        assert len(backend.spawned) == 2

    def test_timer_cancelled_when_clone_delivers(self, sim, inventory, snapshot):
        backend = FakeBackend(sim, snapshot, instant=False)
        gw = make_gateway(sim, inventory, backend)
        gw.pending_timeout = 5.0  # arm after construction; same path
        dark = IPAddress.parse("10.16.0.5")
        gw.process_inbound(tcp_packet(ATTACKER, dark, 1, 445))
        backend.finish_clone(gw, backend.spawned[0])
        sim.run(until=10.0)
        assert gw.metrics.counter("gateway.pending_dropped_timeout").value == 0
        assert len(backend.delivered) == 1

    def test_no_timer_events_when_unconfigured(self, sim, inventory, snapshot):
        backend = FakeBackend(sim, snapshot, instant=False)
        gw = make_gateway(sim, inventory, backend)
        gw.process_inbound(tcp_packet(ATTACKER, IPAddress.parse("10.16.0.5"), 1, 445))
        assert gw._pending_timers == {}
        assert sim.pending == 0  # zero cost: nothing scheduled by the gateway

    def test_vm_retired_accounts_pending(self, sim, inventory, snapshot):
        backend = FakeBackend(sim, snapshot, instant=False)
        gw = make_gateway(sim, inventory, backend)
        dark = IPAddress.parse("10.16.0.5")
        for i in range(3):
            gw.process_inbound(tcp_packet(ATTACKER, dark, 1 + i, 445))
        vm = backend.spawned[0]
        gw.vm_retired(vm)
        assert gw.metrics.counter("gateway.pending_dropped_vm_retired").value == 3
        assert gw.pending_packet_count == 0
        assert gw.pending_dropped_total() == 3

    def test_vm_dying_mid_flush_accounts_remainder(self, sim, inventory, snapshot):
        backend = FakeBackend(sim, snapshot, instant=False)
        gw = make_gateway(sim, inventory, backend)
        dark = IPAddress.parse("10.16.0.5")
        for i in range(2):
            gw.process_inbound(tcp_packet(ATTACKER, dark, 1 + i, 445))
        vm = backend.spawned[0]
        vm.destroy(sim.now)  # died before the flush
        gw.vm_ready(vm)
        assert gw.metrics.counter("gateway.pending_dropped_vm_died").value == 2
        assert backend.delivered == []

    def test_overflow_balances_packet_ledger_and_flow_accounting(self):
        # Flood one cold address past the pending cap while its clone is
        # in flight: every refused packet must land in the ledger under
        # the pending_overflow cause AND leave no residue in the flow
        # table (regression: observe() ran before the drop decision,
        # inflating the refused flows' packet/byte counts).
        from repro.analysis.recovery import packet_ledger

        farm = make_farm()
        farm.gateway.max_pending_per_ip = 2
        dst = IPAddress.parse("10.16.0.30")
        packets = [tcp_packet(ATTACKER, dst, 1000 + i, 445) for i in range(6)]
        for pkt in packets:
            farm.inject(pkt)
        farm.run(until=5.0)  # clone completes, the queued pair flushes
        gw = farm.gateway
        assert gw.metrics.counter("gateway.pending_overflow").value == 4
        assert gw.metrics.counter("gateway.delivered").value == 2
        ledger = packet_ledger(farm)
        assert ledger.dropped_by_cause.get("pending_overflow") == 4
        assert ledger.leaked == 0
        # Only the two delivered flows survive (pre-fix, the four refused
        # flows lingered in the table with phantom packet counts); their
        # exact rollback arithmetic is pinned in test_core_gateway. Guest
        # replies ride the same canonical flows, so counts here include
        # outbound traffic too.
        assert len(gw.flows) == 2
        for record in gw.flows:
            assert record.packets >= 1


# ---------------------------------------------------------------------- #
# ChaosController scheduling
# ---------------------------------------------------------------------- #

class TestChaosController:
    def test_identical_plans_produce_identical_timelines(self):
        def run_once():
            farm = make_farm()
            plan = FaultPlan(
                events=(
                    host_crash(every=5.0, count=3, jitter=0.2, repair_after=2.0),
                    clone_faults(at=1.0, duration=4.0, rate=0.5),
                ),
                seed=13,
            )
            controller = ChaosController(farm, plan)
            controller.start()
            spawn_running_vms(farm, 4, until=30.0)
            return (
                [(r.kind, r.target, r.fired_at, r.cleared_at) for r in controller.records],
                dict(farm.metrics.counters()),
            )

        assert run_once() == run_once()

    def test_recurring_respects_count(self):
        farm = make_farm()
        plan = FaultPlan(
            events=(host_crash(every=3.0, count=2, repair_after=1.0),), seed=1
        )
        controller = ChaosController(farm, plan)
        controller.start()
        farm.run(until=30.0)
        crashes = [r for r in controller.records if r.kind == "host_crash"]
        assert len(crashes) == 2
        assert farm.metrics.counter("farm.host_crashes").value == 2
        assert farm.metrics.counter("farm.host_repairs").value == 2

    def test_target_resolution_by_name_and_index(self):
        farm = make_farm()
        plan = FaultPlan(
            events=(
                host_crash(at=1.0, host="host-1", repair_after=0.5),
                host_crash(at=3.0, host="0", repair_after=0.5),
            ),
            seed=1,
        )
        controller = ChaosController(farm, plan)
        controller.start()
        farm.run(until=10.0)
        assert [r.target for r in controller.records] == ["host-1", "host-0"]

    def test_skipped_when_no_host_up(self):
        farm = make_farm(num_hosts=1)
        plan = FaultPlan(
            events=(
                host_crash(at=1.0, host="0"),  # never repaired
                host_crash(at=2.0, host="random"),
            ),
            seed=1,
        )
        controller = ChaosController(farm, plan)
        controller.start()
        farm.run(until=5.0)
        assert not controller.records[0].skipped
        assert controller.records[1].skipped
        assert controller.faults_fired == 1

    def test_unknown_link_target_skipped(self):
        farm = make_farm()
        plan = FaultPlan(
            events=(link_outage("tunnel:99", duration=1.0, at=0.5),), seed=1
        )
        controller = ChaosController(farm, plan)
        controller.start()
        farm.run(until=2.0)
        assert controller.records[0].skipped

    def test_named_links_reachable(self):
        farm = make_farm()
        sim = farm.sim
        side = Link(sim, lambda obj: None, name="side")
        plan = FaultPlan(events=(link_outage("side", duration=5.0, at=0.5),), seed=1)
        controller = ChaosController(farm, plan, links={"side": side})
        controller.start()
        farm.run(until=1.0)
        assert side.impaired

    def test_empty_plan_is_bit_identical_to_no_controller(self):
        def run(with_controller: bool):
            farm = make_farm()
            if with_controller:
                ChaosController(farm, FaultPlan()).start()
            spawn_running_vms(farm, 4, until=20.0)
            return (
                farm.sim.events_processed,
                farm.sim.now,
                dict(farm.metrics.counters()),
            )

        assert run(False) == run(True)

    def test_start_twice_rejected(self):
        farm = make_farm()
        controller = ChaosController(farm, FaultPlan())
        controller.start()
        with pytest.raises(ValueError, match="already started"):
            controller.start()
