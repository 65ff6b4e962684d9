"""Tests for the fast-path machinery: prefix index equivalence, heap
compaction, the flow table's auxiliary indexes, registry strictness, and
the run()/vm_ready() bugfixes.

The binary-search structures replaced linear scans; the hypothesis suites
here pin them to brute-force reference implementations over randomized
prefix sets, so an index bug shows up as a counterexample, not as a
silently different experiment.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.containment import make_policy
from repro.core.gateway import Gateway
from repro.net.addr import AddressSpaceInventory, IPAddress, Prefix
from repro.net.flow import FlowTable
from repro.net.gre import GreTunnel
from repro.net.packet import tcp_packet
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricRegistry
from repro.vmm.memory import GuestAddressSpace
from repro.vmm.vm import VirtualMachine

pytestmark = pytest.mark.slow  # hypothesis equivalence sweeps

_TUNNEL_A = IPAddress.parse("192.0.2.1")
_TUNNEL_B = IPAddress.parse("192.0.2.2")


def _tunnel(key):
    return GreTunnel(
        key=key, router_endpoint=_TUNNEL_A, gateway_endpoint=_TUNNEL_B
    )

# --------------------------------------------------------------------- #
# Randomized prefix sets: disjoint CIDR blocks over a bounded region
# --------------------------------------------------------------------- #


@st.composite
def disjoint_prefixes(draw):
    """A registration-ordered list of 1-12 disjoint prefixes (/20../28)."""
    count = draw(st.integers(min_value=1, max_value=12))
    picked = []
    taken = []  # (start, end) inclusive
    for _ in range(count):
        length = draw(st.integers(min_value=20, max_value=28))
        size = 1 << (32 - length)
        # Blocks chosen inside 10.0.0.0/8 on their natural alignment.
        slot = draw(st.integers(min_value=0, max_value=(1 << 24) // size - 1))
        start = (10 << 24) + slot * size
        end = start + size - 1
        if any(s <= end and start <= e for s, e in taken):
            continue  # overlapping draw; skip rather than reject the set
        taken.append((start, end))
        picked.append(Prefix(IPAddress(start), length))
    return picked


def linear_lookup(prefixes, addr):
    """Reference semantics: first registered prefix containing addr."""
    for prefix in prefixes:
        if prefix.contains(addr):
            return prefix
    return None


def linear_flat_index(prefixes, addr):
    """Reference semantics: cumulative offset in registration order."""
    base = 0
    for prefix in prefixes:
        if prefix.contains(addr):
            return base + addr - prefix.network
        base += prefix.size
    raise ValueError(f"{addr} not covered")


class TestPrefixIndexEquivalence:
    @given(disjoint_prefixes(), st.integers(min_value=0, max_value=(1 << 25) - 1))
    @settings(max_examples=200, deadline=None)
    def test_lookup_matches_linear_scan(self, prefixes, offset):
        inv = AddressSpaceInventory(prefixes)
        addr = IPAddress((10 << 24) + offset)
        assert inv.lookup(addr) == linear_lookup(prefixes, addr)
        assert inv.covers(addr) == (linear_lookup(prefixes, addr) is not None)

    @given(disjoint_prefixes(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_flat_index_matches_linear_scan(self, prefixes, data):
        inv = AddressSpaceInventory(prefixes)
        prefix = data.draw(st.sampled_from(prefixes))
        offset = data.draw(st.integers(min_value=0, max_value=prefix.size - 1))
        addr = prefix.address_at(offset)
        expected = linear_flat_index(prefixes, addr)
        assert inv.flat_index(addr) == expected
        assert inv.address_at_flat_index(expected) == addr

    @given(disjoint_prefixes())
    @settings(max_examples=100, deadline=None)
    def test_flat_index_is_a_bijection(self, prefixes):
        inv = AddressSpaceInventory(prefixes)
        total = inv.total_addresses
        # Spot-check the boundaries of every prefix rather than all addresses.
        for prefix in prefixes:
            for addr in (prefix.network, prefix.network + prefix.size - 1):
                idx = inv.flat_index(addr)
                assert 0 <= idx < total
                assert inv.address_at_flat_index(idx) == addr

    def test_overlapping_registration_rejected(self):
        inv = AddressSpaceInventory([Prefix.parse("10.0.0.0/16")])
        with pytest.raises(ValueError, match="overlaps"):
            inv.add(Prefix.parse("10.0.128.0/24"))
        with pytest.raises(ValueError, match="overlaps"):
            inv.add(Prefix.parse("10.0.0.0/8"))


# --------------------------------------------------------------------- #
# Tunnel range index on the gateway
# --------------------------------------------------------------------- #


class _NullBackend:
    def spawn_vm(self, ip):
        return None

    def deliver(self, vm, packet):
        pass


def _gateway(prefixes):
    inv = AddressSpaceInventory(prefixes)
    return Gateway(
        sim=Simulator(),
        inventory=inv,
        policy=make_policy("open", inv),
        backend=_NullBackend(),
        metrics=MetricRegistry(),
    )


class TestTunnelRangeIndex:
    @given(disjoint_prefixes(), st.integers(min_value=0, max_value=(1 << 25) - 1))
    @settings(max_examples=150, deadline=None)
    def test_tunnel_key_matches_linear_scan(self, prefixes, offset):
        gw = _gateway(prefixes)
        for i, prefix in enumerate(prefixes):
            gw.register_tunnel(_tunnel(1000 + i), [prefix])
        addr = IPAddress((10 << 24) + offset)
        expected = None
        for prefix, key in gw._tunnel_by_prefix.items():
            if prefix.contains(addr):
                expected = key
                break
        assert gw._tunnel_key_for(addr) == expected

    def test_overlapping_tunnel_prefix_rejected(self):
        outer = Prefix.parse("10.0.0.0/16")
        inner = Prefix.parse("10.0.4.0/24")
        inv = AddressSpaceInventory([outer])
        gw = Gateway(
            sim=Simulator(),
            inventory=inv,
            policy=make_policy("open", inv),
            backend=_NullBackend(),
            metrics=MetricRegistry(),
        )
        gw.register_tunnel(_tunnel(1), [outer])
        with pytest.raises(ValueError, match="overlaps"):
            gw.register_tunnel(_tunnel(2), [inner])


# --------------------------------------------------------------------- #
# Heap compaction
# --------------------------------------------------------------------- #


class TestHeapCompaction:
    def test_compaction_triggers_and_preserves_firing_order(self):
        sim = Simulator()
        fired = []
        keep = [
            sim.schedule(10.0 + i, fired.append, i) for i in range(100)
        ]
        doomed = [
            sim.schedule(5.0 + 0.01 * i, fired.append, 1000 + i)
            for i in range(150)
        ]
        for event in doomed:
            event.cancel()
        # >50% of a >=64-entry heap went dead: must have compacted (the
        # cancels after the rebuild may linger below the next threshold).
        assert sim.compactions >= 1
        assert sim.pending == len(keep) + sim.cancelled_pending
        assert sim.pending < len(keep) + len(doomed)
        sim.run()
        assert fired == list(range(100))
        assert sim.events_processed == len(keep)

    def test_no_compaction_below_minimum_queue(self):
        sim = Simulator()
        events = [sim.schedule(1.0 + i, lambda: None) for i in range(20)]
        for event in events:
            event.cancel()
        assert sim.compactions == 0
        sim.run()
        assert sim.events_processed == 0

    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=100.0,
                                        allow_nan=False),
                              st.booleans()),
                    min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_firing_order_identical_with_and_without_compaction(self, spec):
        """Compaction is invisible: the surviving events fire in the same
        order and at the same times as with pure lazy discarding."""
        def run(compaction_min):
            sim = Simulator()
            sim.COMPACTION_MIN_QUEUE = compaction_min
            fired = []
            events = [
                sim.schedule(t, lambda i=i, s=sim: fired.append((i, s.now)))
                for i, (t, __) in enumerate(spec)
            ]
            for event, (__, doomed) in zip(events, spec):
                if doomed:
                    event.cancel()
            sim.run()
            return fired

        eager = run(compaction_min=1)      # compacts at the first cancel
        lazy = run(compaction_min=10**9)   # never compacts
        assert eager == lazy

    def test_cancel_after_fire_does_not_corrupt_count(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()  # late cancel of an already-fired event
        assert sim.cancelled_pending == 0


# --------------------------------------------------------------------- #
# Simulator.run clock-advance bugfix
# --------------------------------------------------------------------- #


class TestRunClockAdvance:
    def test_empty_queue_still_advances_to_until(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0


# --------------------------------------------------------------------- #
# FlowTable vm index and incremental expiry
# --------------------------------------------------------------------- #


def _pkt(sport, dport=80, src="1.2.3.4", dst="10.0.0.1"):
    return tcp_packet(IPAddress.parse(src), IPAddress.parse(dst), sport, dport)


class TestFlowTableIndexes:
    def test_vm_index_tracks_rebinding(self):
        table = FlowTable(idle_timeout=60.0)
        rec = table.record(table.observe(_pkt(1), now=0.0)[0])
        rec.vm_id = 7
        assert [r.key for r in table.flows_for_vm(7)] == [rec.key]
        rec.vm_id = 9
        assert table.flows_for_vm(7) == []
        assert [r.key for r in table.flows_for_vm(9)] == [rec.key]

    def test_vm_index_keeps_a_vms_only_row_as_an_int(self):
        table = FlowTable(idle_timeout=60.0)
        first, second, third = (
            table.record(table.observe(_pkt(sport), now=0.0)[0]) for sport in (1, 2, 3)
        )
        first.vm_id = 7
        assert table._by_vm[7] == first.row  # no container for one row
        second.vm_id = 7
        third.vm_id = 7
        assert sorted(r.key for r in table.flows_for_vm(7)) == sorted(
            [first.key, second.key, third.key]
        )
        second.vm_id = 9
        assert sorted(r.key for r in table.flows_for_vm(7)) == sorted([first.key, third.key])
        assert table.drop_vm(7) == 2
        assert [r.key for r in table.flows_for_vm(9)] == [second.key]
        assert len(table) == 1

    def test_drop_vm_removes_only_that_vms_flows(self):
        table = FlowTable(idle_timeout=60.0)
        mine = table.record(table.observe(_pkt(1), now=0.0)[0])
        other = table.record(table.observe(_pkt(2), now=0.0)[0])
        mine.vm_id = 1
        other.vm_id = 2
        mine_key = mine.key
        assert table.drop_vm(1) == 1
        assert len(table) == 1
        assert mine_key not in table and not mine.attached
        assert other.key in table

    def test_detached_record_vm_writes_do_not_resurrect_index(self):
        table = FlowTable(idle_timeout=60.0)
        rec = table.record(table.observe(_pkt(1), now=0.0)[0])
        rec.vm_id = 5
        table.drop_vm(5)
        rec.vm_id = 6  # write on the dead record
        assert table.flows_for_vm(6) == []

    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=40),
                              st.floats(min_value=0.0, max_value=500.0,
                                        allow_nan=False)),
                    min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_incremental_expiry_matches_full_scan(self, touches):
        """Bucketed expire_idle removes exactly the flows a full scan
        over every live record would remove."""
        timeout = 30.0
        table = FlowTable(idle_timeout=timeout)
        now = 0.0
        for sport, dt in touches:
            now += dt
            table.observe(_pkt(sport), now=now)
        sweep_at = now + 1.0
        expected = {
            record.key
            for record in table
            if sweep_at - record.last_seen > timeout
        }
        expired = table.expire_idle(sweep_at)
        assert set(expired) == expected
        # Survivors are exactly the complement, still bucketed correctly:
        # a second sweep at the same instant finds nothing more.
        assert table.expire_idle(sweep_at) == []

    def test_expiry_books_flows_expired_counter(self):
        table = FlowTable(idle_timeout=10.0)
        table.observe(_pkt(1), now=0.0)
        table.observe(_pkt(2), now=0.0)
        assert len(table.expire_idle(100.0)) == 2
        assert table.expired_total == 2

    def test_a_sweep_examines_each_row_about_once(self):
        """Untouched rows opened across one timeout window, swept every
        second: the pairs the sweeps take out of the buckets stay near
        one per row. A bucket wider than the sweep interval straddles
        the horizon for several sweeps, each refiling its live rows."""
        timeout, rows = 30.0, 3000
        table = FlowTable(idle_timeout=timeout)
        for i in range(rows):
            table.create((i, 1, 0, 80, 6), 1, i * timeout / rows)
        examined = 0
        for now in range(1, 2 * int(timeout) + 2):
            horizon = int((now - timeout) / table._granularity)
            examined += sum(
                len(pairs) // 2
                for bucket, pairs in table._buckets.items()
                if bucket <= horizon
            )
            table.expire_idle(float(now))
        assert table.expired_total == rows and len(table) == 0
        assert examined <= 1.5 * rows


# --------------------------------------------------------------------- #
# Registry strictness
# --------------------------------------------------------------------- #


class TestRegistryStrictness:
    def test_gauge_conflicting_time_rejected(self):
        reg = MetricRegistry()
        reg.gauge("g", time=5.0)
        with pytest.raises(ValueError, match="conflicting time"):
            reg.gauge("g", time=6.0)

    def test_gauge_bare_reaccess_allowed(self):
        reg = MetricRegistry()
        first = reg.gauge("g", time=5.0)
        assert reg.gauge("g") is first
        assert reg.gauge("g", time=5.0) is first

    def test_handle_is_the_same_counter(self):
        reg = MetricRegistry()
        handle = reg.handle("c")
        handle.increment(3)
        assert reg.counter("c") is handle
        assert reg.counters() == {"c": 3}

    def test_zero_counters_omitted_from_snapshot(self):
        reg = MetricRegistry()
        reg.handle("never_fired")
        reg.handle("fired").increment()
        assert reg.counters() == {"fired": 1}
        assert "never_fired" not in reg.report()


# --------------------------------------------------------------------- #
# vm_ready single-observation bugfix
# --------------------------------------------------------------------- #


class _CloningBackend:
    """Backend whose clones stay CLONING until started manually."""

    def __init__(self, sim, snapshot):
        self.sim = sim
        self.snapshot = snapshot
        self.vms = {}
        self.delivered = []

    def spawn_vm(self, ip):
        vm = VirtualMachine(
            self.snapshot, GuestAddressSpace(self.snapshot.image), ip, self.sim.now,
            vm_id=len(self.vms) + 1,
        )
        self.vms[ip] = vm
        return vm  # stays in CLONING until vm.start()

    def deliver(self, vm, packet):
        self.delivered.append((vm, packet))


class TestQueuedPacketSingleObservation:
    def test_packets_queued_during_clone_counted_once(self, snapshot):
        sim = Simulator()
        inv = AddressSpaceInventory([Prefix.parse("10.0.0.0/24")])
        backend = _CloningBackend(sim, snapshot)
        gw = Gateway(
            sim=sim,
            inventory=inv,
            policy=make_policy("open", inv),
            backend=backend,
            metrics=MetricRegistry(),
        )
        src = IPAddress.parse("1.2.3.4")
        dst = IPAddress.parse("10.0.0.5")
        for i in range(3):
            gw.process_inbound(tcp_packet(src, dst, 777, 80, payload=f"p{i}"))

        record = gw.flows.lookup(tcp_packet(src, dst, 777, 80), sim.now)
        assert record is not None
        assert record.packets == 3  # observed on arrival...

        vm = backend.vms[dst]
        vm.start(sim.now)
        gw.vm_ready(vm)

        assert len(backend.delivered) == 3
        # ...and NOT observed again when the queue flushed.
        assert record.packets == 3
        assert record.vm_id == vm.vm_id
        assert gw.metrics.counters()["gateway.delivered"] == 3
