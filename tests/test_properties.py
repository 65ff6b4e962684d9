"""Property-based tests (hypothesis) on core data structures and invariants."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.concurrency import concurrency_for_timeout
from repro.net.addr import AddressSpaceInventory, IPAddress, Prefix
from repro.net.flow import FlowTable, packet_flow_key
from repro.net.packet import PROTO_TCP, Packet, TcpFlags
from repro.sim.engine import Simulator
from repro.sim.metrics import Gauge, Histogram
from repro.vmm.memory import GuestAddressSpace, MachineMemory, ReferenceImage
from repro.workloads.trace import TraceRecord
import pytest

pytestmark = pytest.mark.slow  # hypothesis-heavy

# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #

addresses = st.integers(min_value=0, max_value=(1 << 32) - 1).map(IPAddress)
ports = st.integers(min_value=0, max_value=65535)


@st.composite
def prefixes(draw):
    length = draw(st.integers(min_value=4, max_value=30))
    value = draw(st.integers(min_value=0, max_value=(1 << 32) - 1))
    mask = ((1 << 32) - 1) << (32 - length) & ((1 << 32) - 1)
    return Prefix(IPAddress(value & mask), length)


@st.composite
def tcp_packets(draw):
    return Packet(
        src=draw(addresses),
        dst=draw(addresses),
        protocol=PROTO_TCP,
        src_port=draw(ports),
        dst_port=draw(ports),
        flags=TcpFlags.SYN,
    )


# ---------------------------------------------------------------------- #
# Addresses and prefixes
# ---------------------------------------------------------------------- #


class TestAddressProperties:
    @given(addresses)
    def test_parse_str_roundtrip(self, addr):
        assert IPAddress.parse(str(addr)) == addr

    @given(prefixes())
    def test_prefix_contains_its_own_range_exactly(self, prefix):
        first, last = prefix.network, prefix.network + prefix.size - 1
        assert prefix.contains(first)
        assert prefix.contains(last)
        if first > 0:
            assert not prefix.contains(first - 1)
        if last < (1 << 32) - 1:
            assert not prefix.contains(last + 1)

    @given(prefixes(), st.integers(min_value=0, max_value=10**9))
    def test_address_at_index_roundtrip(self, prefix, raw_index):
        index = raw_index % prefix.size
        addr = prefix.address_at(index)
        assert prefix.contains(addr)
        assert addr - prefix.network == index

    @given(st.lists(prefixes(), min_size=1, max_size=5),
           st.integers(min_value=0, max_value=10**9))
    def test_inventory_flat_index_roundtrip(self, candidate_prefixes, raw_index):
        inventory = AddressSpaceInventory()
        for prefix in candidate_prefixes:
            try:
                inventory.add(prefix)
            except ValueError:
                pass  # overlapping candidates skipped
        index = raw_index % inventory.total_addresses
        addr = inventory.address_at_flat_index(index)
        assert inventory.flat_index(addr) == index
        assert inventory.covers(addr)


# ---------------------------------------------------------------------- #
# Flow keys
# ---------------------------------------------------------------------- #


class TestFlowProperties:
    @given(tcp_packets())
    def test_flow_key_direction_independent(self, packet):
        reverse = Packet(
            src=packet.dst, dst=packet.src, protocol=packet.protocol,
            src_port=packet.dst_port, dst_port=packet.src_port,
        )
        assert packet_flow_key(packet) == packet_flow_key(reverse)

    @given(st.lists(tcp_packets(), min_size=1, max_size=40))
    def test_flow_table_size_never_exceeds_distinct_keys(self, packets):
        table = FlowTable(idle_timeout=1000.0)
        for packet in packets:
            table.observe(packet, now=0.0)
        assert len(table) == len({packet_flow_key(p) for p in packets})

    @given(st.lists(tcp_packets(), min_size=1, max_size=40))
    def test_flow_packet_counts_conserved(self, packets):
        table = FlowTable(idle_timeout=1000.0)
        for packet in packets:
            table.observe(packet, now=0.0)
        assert sum(rec.packets for rec in table) == len(packets)


# ---------------------------------------------------------------------- #
# CoW memory
# ---------------------------------------------------------------------- #


class TestMemoryProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 63)),
            min_size=1, max_size=200,
        )
    )
    def test_frame_accounting_invariant(self, writes):
        """allocated == image + Σ distinct (vm, page) writes, always."""
        memory = MachineMemory(capacity_bytes=(1 << 20) * 16)
        image = ReferenceImage(memory, page_count=64)
        spaces = [GuestAddressSpace(image) for __ in range(10)]
        distinct = set()
        for vm_index, page in writes:
            spaces[vm_index].write(page)
            distinct.add((vm_index, page))
        assert memory.allocated_frames == 64 + len(distinct)
        assert sum(s.private_pages for s in spaces) == len(distinct)
        for space in spaces:
            space.destroy()
        assert memory.allocated_frames == 64

    @given(
        st.lists(st.integers(0, 63), min_size=1, max_size=100),
        st.lists(st.integers(0, 63), min_size=1, max_size=100),
    )
    def test_cow_isolation(self, writes_a, writes_b):
        """Whatever two clones write, neither sees the other's tags and
        unwritten pages always equal the image's content."""
        memory = MachineMemory(capacity_bytes=(1 << 20) * 16)
        image = ReferenceImage(memory, page_count=64)
        a = GuestAddressSpace(image)
        b = GuestAddressSpace(image)
        last_a = {}
        for page in writes_a:
            last_a[page] = a.write(page)
        last_b = {}
        for page in writes_b:
            last_b[page] = b.write(page)
        for page in range(64):
            if page in last_a:
                assert a.read(page) == last_a[page]
            else:
                assert a.read(page) == image.content_of(page)
            if page in last_b:
                assert b.read(page) == last_b[page]
            else:
                assert b.read(page) == image.content_of(page)

    @given(st.lists(st.integers(0, 127), max_size=300))
    def test_private_plus_shared_is_constant(self, writes):
        memory = MachineMemory(capacity_bytes=(1 << 20) * 16)
        image = ReferenceImage(memory, page_count=128)
        space = GuestAddressSpace(image)
        for page in writes:
            space.write(page)
            assert space.private_pages + space.shared_pages == 128


# ---------------------------------------------------------------------- #
# Simulator
# ---------------------------------------------------------------------- #


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1000.0,
                              allow_nan=False), max_size=100))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=50))
    def test_clock_equals_latest_event(self, delays):
        sim = Simulator()
        for delay in delays:
            sim.schedule(delay, lambda: None)
        sim.run()
        assert sim.now == max(delays)


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #


class TestMetricsProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=300))
    def test_histogram_percentiles_bounded_and_ordered(self, values):
        hist = Histogram("h")
        for value in values:
            hist.observe(value)
        p10, p50, p90 = (hist.percentile(p) for p in (10, 50, 90))
        assert min(values) <= p10 <= p50 <= p90 <= max(values)
        assert hist.min == min(values)
        assert hist.max == max(values)

    @given(st.lists(st.tuples(st.floats(0.0, 100.0, allow_nan=False),
                              st.floats(0.0, 1000.0, allow_nan=False)),
                    min_size=1, max_size=50))
    def test_gauge_time_average_bounded_by_extremes(self, updates):
        gauge = Gauge("g")
        time = 0.0
        levels = [0.0]
        for dt, level in updates:
            time += dt
            gauge.set(level, time=time)
            levels.append(level)
        if time > 0:
            avg = gauge.time_average()
            assert min(levels) - 1e-9 <= avg <= max(levels) + 1e-9


# ---------------------------------------------------------------------- #
# Concurrency analysis (cross-checked against a brute-force model)
# ---------------------------------------------------------------------- #


class TestConcurrencyProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 50.0, allow_nan=False), st.integers(0, 5)),
            min_size=1, max_size=60,
        ),
        st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_peak_matches_bruteforce(self, raw_arrivals, timeout):
        arrivals = sorted(
            (time, f"10.16.0.{host}") for time, host in raw_arrivals
        )
        records = [
            TraceRecord(time=t, src="203.0.113.9", dst=dst,
                        protocol=PROTO_TCP, src_port=1, dst_port=80)
            for t, dst in arrivals
        ]
        result = concurrency_for_timeout(records, timeout=timeout)

        # Brute force: an address is live at t if some arrival to it is in
        # (t - timeout, t]. Evaluate at every arrival instant.
        def live_at(t):
            live = set()
            for at, dst in arrivals:
                if at <= t and t < at + timeout:
                    live.add(dst)
                elif at <= t and t == at:
                    live.add(dst)
            return len(live)

        brute_peak = max(live_at(t) for t, __ in arrivals)
        assert result.peak_vms == brute_peak

    @given(st.lists(st.floats(0.0, 100.0, allow_nan=False),
                    min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_instantiations_bounded_by_arrivals(self, times):
        records = [
            TraceRecord(time=t, src="203.0.113.9", dst="10.16.0.1",
                        protocol=PROTO_TCP, src_port=1, dst_port=80)
            for t in sorted(times)
        ]
        result = concurrency_for_timeout(records, timeout=5.0)
        assert 1 <= result.vm_instantiations <= len(records)
        assert result.peak_vms == 1  # single address never exceeds one VM
