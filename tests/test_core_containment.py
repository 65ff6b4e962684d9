"""Unit tests for containment policies, rate limiting, and reflection NAT."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.containment import (
    AllowDnsPolicy,
    CompositePolicy,
    ContainmentAction,
    DropAllPolicy,
    OpenPolicy,
    OutboundRateLimiter,
    ReflectionNat,
    ReflectionPolicy,
    make_policy,
)
from repro.net.addr import AddressSpaceInventory, IPAddress, Prefix
from repro.net.packet import TcpFlags, tcp_packet, udp_packet
from repro.vmm.memory import GuestAddressSpace
from repro.vmm.vm import VirtualMachine

VM_IP = IPAddress.parse("10.16.0.5")
EXTERNAL = IPAddress.parse("203.0.113.50")


@pytest.fixture
def inventory():
    return AddressSpaceInventory([Prefix.parse("10.16.0.0/24")])


@pytest.fixture
def vm(snapshot):
    vm = VirtualMachine(snapshot, GuestAddressSpace(snapshot.image), VM_IP, 0.0)
    vm.start(now=0.0)
    return vm


def scan(dst=EXTERNAL):
    return tcp_packet(VM_IP, dst, 1024, 445, payload="exploit:sasser")


def dns_query():
    return udp_packet(VM_IP, IPAddress.parse("8.8.8.8"), 1024, 53, payload="dns:q")


class TestBasicPolicies:
    def test_open_allows_everything(self, vm):
        policy = OpenPolicy()
        assert policy.decide(vm, scan(), 0.0).action is ContainmentAction.ALLOW
        assert policy.decide(vm, dns_query(), 0.0).action is ContainmentAction.ALLOW

    def test_drop_all_drops_everything(self, vm):
        policy = DropAllPolicy()
        assert policy.decide(vm, scan(), 0.0).action is ContainmentAction.DROP
        assert policy.decide(vm, dns_query(), 0.0).action is ContainmentAction.DROP

    def test_allow_dns_redirects_dns_drops_rest(self, vm):
        policy = AllowDnsPolicy()
        assert policy.decide(vm, dns_query(), 0.0).action is ContainmentAction.REDIRECT_DNS
        assert policy.decide(vm, scan(), 0.0).action is ContainmentAction.DROP


class TestReflectionPolicy:
    def test_scan_reflected_into_farm(self, vm, inventory):
        policy = ReflectionPolicy(inventory)
        verdict = policy.decide(vm, scan(), 0.0)
        assert verdict.action is ContainmentAction.REFLECT
        assert verdict.new_destination is not None
        assert inventory.covers(verdict.new_destination)

    def test_reflection_is_deterministic_per_destination(self, vm, inventory):
        policy = ReflectionPolicy(inventory)
        a = policy.decide(vm, scan(), 0.0).new_destination
        b = policy.decide(vm, scan(), 0.0).new_destination
        assert a == b

    def test_different_destinations_spread(self, vm, inventory):
        policy = ReflectionPolicy(inventory)
        targets = {
            policy.decide(vm, scan(IPAddress(EXTERNAL.value + i)), 0.0).new_destination
            for i in range(50)
        }
        assert len(targets) > 10

    def test_never_reflects_vm_onto_itself(self, vm, inventory):
        policy = ReflectionPolicy(inventory)
        for i in range(2000):
            target = policy.decide(vm, scan(IPAddress(i + 1)), 0.0).new_destination
            assert target != VM_IP

    def test_dns_still_redirected(self, vm, inventory):
        policy = ReflectionPolicy(inventory)
        assert policy.decide(vm, dns_query(), 0.0).action is ContainmentAction.REDIRECT_DNS

    def test_needs_two_addresses(self):
        tiny = AddressSpaceInventory([Prefix.parse("10.0.0.0/32")])
        with pytest.raises(ValueError):
            ReflectionPolicy(tiny)


class TestRateLimiter:
    def test_burst_then_throttle(self):
        limiter = OutboundRateLimiter(rate=1.0, burst=3.0)
        admitted = sum(1 for __ in range(10) if limiter.admit(1, now=0.0))
        assert admitted == 3
        assert limiter.rejected == 7

    def test_tokens_refill_over_time(self):
        limiter = OutboundRateLimiter(rate=2.0, burst=2.0)
        assert limiter.admit(1, now=0.0)
        assert limiter.admit(1, now=0.0)
        assert not limiter.admit(1, now=0.0)
        assert limiter.admit(1, now=1.0)  # 2 tokens/s refill

    def test_buckets_are_per_vm(self):
        limiter = OutboundRateLimiter(rate=1.0, burst=1.0)
        assert limiter.admit(1, now=0.0)
        assert limiter.admit(2, now=0.0)  # vm 2 has its own bucket

    def test_forget_resets_vm(self):
        limiter = OutboundRateLimiter(rate=0.001, burst=1.0)
        assert limiter.admit(1, now=0.0)
        assert not limiter.admit(1, now=0.1)
        limiter.forget(1)
        assert limiter.admit(1, now=0.2)  # fresh bucket after recycle

    def test_validation(self):
        with pytest.raises(ValueError):
            OutboundRateLimiter(rate=0.0)
        with pytest.raises(ValueError):
            OutboundRateLimiter(rate=1.0, burst=0.5)


class TestCompositePolicy:
    def test_rate_limit_overrides_allow(self, vm):
        policy = CompositePolicy(OpenPolicy(), OutboundRateLimiter(rate=0.001, burst=1.0))
        assert policy.decide(vm, scan(), 0.0).action is ContainmentAction.ALLOW
        assert policy.decide(vm, scan(), 0.1).action is ContainmentAction.DROP

    def test_drops_do_not_consume_tokens(self, vm):
        limiter = OutboundRateLimiter(rate=0.001, burst=1.0)
        policy = CompositePolicy(DropAllPolicy(), limiter)
        for __ in range(5):
            policy.decide(vm, scan(), 0.0)
        assert limiter.rejected == 0

    def test_name_reflects_composition(self):
        policy = CompositePolicy(AllowDnsPolicy(), OutboundRateLimiter(rate=1.0))
        assert policy.name == "allow-dns+ratelimit"


class TestReflectionNat:
    def test_reply_source_rewritten(self, inventory):
        nat = ReflectionNat()
        internal = IPAddress.parse("10.16.0.77")
        nat.record(VM_IP, internal, EXTERNAL)
        reply = tcp_packet(internal, VM_IP, 445, 1024, flags=TcpFlags.SYN | TcpFlags.ACK)
        translated = nat.translate_reply_source(reply)
        assert translated.src == EXTERNAL
        assert translated.dst == VM_IP
        assert translated.flags == reply.flags
        assert nat.translations == 1

    def test_unrelated_reply_untouched(self):
        nat = ReflectionNat()
        reply = tcp_packet(IPAddress.parse("10.16.0.88"), VM_IP, 445, 1024)
        assert nat.translate_reply_source(reply) is reply

    def test_forget_vm_drops_both_roles(self):
        nat = ReflectionNat()
        internal = IPAddress.parse("10.16.0.77")
        nat.record(VM_IP, internal, EXTERNAL)
        nat.record(internal, VM_IP, EXTERNAL)  # vm also acts as a stand-in
        assert nat.forget_vm(VM_IP) == 2
        assert len(nat) == 0

    def test_entries_are_per_pair(self):
        nat = ReflectionNat()
        x1, x2 = IPAddress(1000), IPAddress(2000)
        i1, i2 = IPAddress.parse("10.16.0.1"), IPAddress.parse("10.16.0.2")
        nat.record(VM_IP, i1, x1)
        nat.record(VM_IP, i2, x2)
        r1 = nat.translate_reply_source(tcp_packet(i1, VM_IP, 1, 2))
        r2 = nat.translate_reply_source(tcp_packet(i2, VM_IP, 1, 2))
        assert r1.src == x1 and r2.src == x2


class _ScanningNat:
    """Reference for the index: the two maps alone, ``forget_vm`` by
    scanning both (what :class:`ReflectionNat` did before it kept one)."""

    def __init__(self):
        self._map = {}
        self._reverse = {}

    def record(self, vm_ip, internal, original):
        self._map[(vm_ip, internal)] = original
        self._reverse[(vm_ip, original)] = internal

    def forget_vm(self, vm_ip):
        doomed = [key for key in self._map if vm_ip in key]
        for key in doomed:
            del self._map[key]
        for key, internal in list(self._reverse.items()):
            if key[0] == vm_ip or internal == vm_ip:
                del self._reverse[key]
        return len(doomed)


# Five addresses: the same one recurs as VM, stand-in and original, and
# bindings get overwritten in both directions.
_few_addresses = st.integers(min_value=1, max_value=5).map(IPAddress)


class TestReflectionNatIndex:
    @given(st.lists(
        st.one_of(
            st.tuples(_few_addresses, _few_addresses, _few_addresses),
            st.tuples(_few_addresses),
        ),
        max_size=40,
    ))
    def test_forget_vm_matches_a_full_scan(self, ops):
        nat, reference = ReflectionNat(), _ScanningNat()
        for op in ops:
            if len(op) == 3:
                nat.record(*op)
                reference.record(*op)
            else:
                assert nat.forget_vm(*op) == reference.forget_vm(*op)
            assert list(nat._map.items()) == list(reference._map.items())
            assert list(nat._reverse.items()) == list(reference._reverse.items())
        for address in {a for op in ops for a in op}:
            nat.forget_vm(address)
        assert not nat._map_keys and not nat._reverse_keys  # the index empties with the maps


class TestMakePolicy:
    def test_all_names_resolve(self, inventory):
        for name in ("open", "drop-all", "allow-dns", "reflect"):
            assert make_policy(name, inventory).name.startswith(name)

    def test_rate_limit_wraps(self, inventory):
        policy = make_policy("reflect", inventory, rate_limit=10.0)
        assert policy.name == "reflect+ratelimit"

    def test_unknown_name_rejected(self, inventory):
        with pytest.raises(ValueError):
            make_policy("nonsense", inventory)
