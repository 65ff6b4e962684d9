"""One covered address, one chain: what a promotion carries into its VM.

An address the emulator tier served and then promoted holds two kinds of
packets until its clone is ready: the replay window (the most recent
absorbed packets, bounded by ``MAX_HANDOFF_PACKETS``) and the packets
that arrived while the clone was in flight (bounded by
``MAX_PENDING_PER_IP``). The two bounds are independent.
"""

from __future__ import annotations

from repro.analysis.recovery import packet_ledger
from repro.core.config import HoneyfarmConfig
from repro.core.gateway import MAX_PENDING_PER_IP
from repro.core.honeyfarm import Honeyfarm
from repro.fidelity.emulator import MAX_HANDOFF_PACKETS
from repro.net.addr import IPAddress
from repro.net.packet import TcpFlags, icmp_packet, tcp_packet

ATTACKER = IPAddress.parse("203.0.113.9")
TARGET = IPAddress.parse("10.16.0.5")
PSH_ACK = TcpFlags.PSH | TcpFlags.ACK


def _farm(**overrides) -> Honeyfarm:
    config = dict(
        prefixes=("10.16.0.0/24",), num_hosts=1, containment="drop-all",
        clone_jitter=0.0, seed=7, ladder=True,
    )
    config.update(overrides)
    return Honeyfarm(HoneyfarmConfig(**config))


def _spy_deliveries(farm: Honeyfarm) -> list:
    """Log every packet the gateway hands a VM at ``TARGET``, tagged with
    the path it took: ``replay`` (replies suppressed) or ``deliver``."""
    log = []
    deliver, deliver_replay = farm.deliver, farm.deliver_replay

    def spy_deliver(vm, packet):
        if packet.dst == TARGET:
            log.append(("deliver", packet))
        deliver(vm, packet)

    def spy_replay(vm, packet):
        log.append(("replay", packet))
        deliver_replay(vm, packet)

    farm.deliver, farm.deliver_replay = spy_deliver, spy_replay
    return log


def test_the_two_bounds_of_one_chain_stay_independent():
    """A full replay window (66 absorbed, 2 evicted) and a full clone
    queue (257 arrivals, one too many) on the same address: the VM gets
    the newest 64 absorbed packets replayed, then the first 256 queued
    ones in arrival order; the 257th is an overflow, and its flow
    accounting is rolled back."""
    assert (MAX_HANDOFF_PACKETS, MAX_PENDING_PER_IP) == (64, 256)
    farm = _farm()
    log = _spy_deliveries(farm)
    absorbed = [icmp_packet(ATTACKER, TARGET) for __ in range(66)]
    for packet in absorbed:
        farm.inject(packet)
    # The exploit promotes the address; it is the first packet queued
    # for the clone, and 256 more follow on flows of their own.
    queued = [tcp_packet(ATTACKER, TARGET, 1, 445, flags=PSH_ACK,
                         payload="exploit:sasser")]
    queued += [tcp_packet(ATTACKER, TARGET, 2000 + i, 80) for i in range(256)]
    for packet in queued:
        farm.inject(packet)
    overflowed = queued[-1]
    gateway = farm.gateway
    counters = farm.metrics.counters()
    assert counters["ladder.promotions"] == 1
    assert counters["ladder.handoff_buffer_dropped"] == 2
    assert counters["gateway.queued_during_clone"] == 256
    assert counters["gateway.pending_overflow"] == 1
    assert gateway.pending_packet_count == 256
    assert gateway.flows.lookup(overflowed, farm.sim.now) is None
    assert not log  # nothing reaches the VM before it is ready

    farm.run(until=5.0)
    counters = farm.metrics.counters()
    paths = [path for path, __ in log]
    assert paths == ["replay"] * 64 + ["deliver"] * 256
    assert [packet for __, packet in log[:64]] == absorbed[2:]
    assert [packet for __, packet in log[64:]] == queued[:256]
    assert counters["ladder.handoff_packets_replayed"] == 64
    assert counters["ladder.handoffs_completed"] == 1
    assert counters["gateway.delivered"] == 256
    assert gateway.pending_packet_count == 0
    assert gateway.flows.lookup(overflowed, farm.sim.now) is None
    ledger = packet_ledger(farm)
    assert ledger.dropped_by_cause.get("pending_overflow") == 1
    assert ledger.leaked == 0


def test_a_refused_promotion_abandons_its_handoff():
    """A handoff belongs to the clone its promotion asked for. The second
    promotion here is refused (its one host's one VM slot is taken), so
    its handoff is abandoned at once: every promotion ends completed or
    abandoned, and once the sessions have expired no packet is held."""
    farm = _farm(max_vms_per_host=1, idle_timeout_seconds=1e6)
    second = IPAddress.parse("10.16.0.6")
    for dst in (TARGET, second):
        for __ in range(20):
            farm.inject(icmp_packet(ATTACKER, dst))
        farm.inject(tcp_packet(ATTACKER, dst, 1, 445, flags=PSH_ACK,
                               payload="exploit:sasser"))
    farm.run(until=400.0)
    counters = farm.metrics.counters()
    assert counters["ladder.promotions"] == 2
    assert counters["gateway.no_capacity_drop"] == 1
    assert counters["ladder.handoffs_completed"] == 1
    assert counters["ladder.handoffs_abandoned"] == 1
    addresses = farm.gateway.addresses
    assert farm.ladder.live_sessions == 0
    assert not addresses.held and not addresses.holding
    assert farm.gateway.vm_at(second) is None and second not in addresses
