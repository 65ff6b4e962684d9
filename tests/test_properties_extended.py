"""Property-based tests for the later subsystems: NAT, sifting, pool,
placement, and link ordering."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.containment import ReflectionNat, ReflectionPolicy
from repro.detection.sifting import ContentSifter, SifterConfig
from repro.net.addr import AddressSpaceInventory, IPAddress, Prefix
from repro.net.packet import PROTO_TCP, Packet, TcpFlags, tcp_packet
from repro.sim.engine import Simulator
from repro.net.link import Link
from repro.vmm.memory import GuestAddressSpace
from repro.vmm.vm import VirtualMachine
from repro.vmm.snapshot import ReferenceSnapshot
from repro.vmm.host import PhysicalHost
import pytest

pytestmark = pytest.mark.slow  # hypothesis-heavy

addresses = st.integers(min_value=1, max_value=(1 << 32) - 2).map(IPAddress)
ports = st.integers(min_value=1, max_value=65535)


class TestReflectionNatProperties:
    @given(st.lists(st.tuples(addresses, addresses, addresses),
                    min_size=1, max_size=50))
    def test_translation_returns_recorded_original(self, triples):
        """For any set of recorded (vm, internal, original) bindings, a
        reply from internal to vm always translates to the *latest*
        original recorded for that pair."""
        nat = ReflectionNat()
        latest = {}
        for vm_ip, internal, original in triples:
            nat.record(vm_ip, internal, original)
            latest[(vm_ip, internal)] = original
        for (vm_ip, internal), original in latest.items():
            reply = tcp_packet(internal, vm_ip, 445, 1024,
                               flags=TcpFlags.SYN | TcpFlags.ACK)
            assert nat.translate_reply_source(reply).src == original

    @given(st.lists(st.tuples(addresses, addresses, addresses),
                    min_size=1, max_size=50))
    def test_forget_vm_removes_every_involvement(self, triples):
        nat = ReflectionNat()
        for vm_ip, internal, original in triples:
            nat.record(vm_ip, internal, original)
        victim = triples[0][0]
        nat.forget_vm(victim)
        for vm_ip, internal, __ in triples:
            if vm_ip == victim or internal == victim:
                reply = tcp_packet(internal, vm_ip, 1, 2)
                assert nat.translate_reply_source(reply) is reply


class TestReflectionPolicyProperties:
    @given(addresses, st.integers(min_value=0, max_value=(1 << 32) - 1))
    @settings(max_examples=200)
    def test_reflection_always_lands_in_farm_and_never_self(self, external, raw_vm):
        inventory = AddressSpaceInventory([Prefix.parse("10.16.0.0/24")])
        policy = ReflectionPolicy(inventory)
        vm_ip = inventory.address_at_flat_index(raw_vm % 256)
        host = PhysicalHost(0, memory_bytes=1 << 30)
        snap = ReferenceSnapshot(host.memory, image_bytes=16 << 20)
        host.install_snapshot(snap)
        vm = VirtualMachine(snap, GuestAddressSpace(snap.image), vm_ip, 0.0, vm_id=1)
        verdict = policy.decide(vm, tcp_packet(vm_ip, external, 1024, 445), 0.0)
        if verdict.new_destination is not None:
            assert inventory.covers(verdict.new_destination)
            assert verdict.new_destination != vm_ip


class TestSifterProperties:
    @given(
        st.lists(
            st.tuples(st.text(alphabet="abcde", min_size=1, max_size=3),
                      addresses, addresses, ports),
            max_size=200,
        ),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=50)
    def test_state_bounds_hold_for_any_stream(self, events, cap):
        sifter = ContentSifter(SifterConfig(max_tracked_payloads=cap))
        for payload, src, dst, port in events:
            sifter.observe(Packet(src=src, dst=dst, protocol=PROTO_TCP,
                                  src_port=1, dst_port=port, payload=payload))
        assert sifter.tracked_payloads() <= cap
        assert sifter.packets_observed == len(events)

    @given(
        st.lists(
            st.tuples(st.sampled_from(["w1", "w2", "w3"]), addresses, addresses),
            max_size=200,
        )
    )
    @settings(max_examples=50)
    def test_at_most_one_alert_per_payload(self, events):
        sifter = ContentSifter(SifterConfig(
            prevalence_threshold=3, source_threshold=1, destination_threshold=1,
        ))
        for payload, src, dst in events:
            sifter.observe(Packet(src=src, dst=dst, protocol=PROTO_TCP,
                                  src_port=1, dst_port=80, payload=payload))
        payloads = [a.payload for a in sifter.alerts]
        assert len(payloads) == len(set(payloads))
        # An alert implies the thresholds genuinely held at alert time.
        for alert in sifter.alerts:
            assert alert.prevalence >= 3


class TestLinkProperties:
    @given(st.lists(st.integers(min_value=1, max_value=10_000),
                    min_size=1, max_size=50))
    def test_fifo_order_for_any_size_sequence(self, sizes):
        sim = Simulator()
        received = []
        link = Link(sim, received.append, propagation_delay=0.001,
                    bandwidth=1e6)
        for index, size in enumerate(sizes):
            link.deliver(index, size=size)
        sim.run()
        assert received == list(range(len(sizes)))
        assert link.bytes_delivered == sum(sizes)


class TestHistogramTotalInvariant:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
                    min_size=1, max_size=200))
    def test_mean_times_count_equals_total(self, values):
        from repro.sim.metrics import Histogram

        hist = Histogram("h")
        for value in values:
            hist.observe(value)
        assert hist.mean * hist.count == sum(values) or abs(
            hist.mean * hist.count - sum(values)
        ) < 1e-6 * max(1.0, sum(values))
