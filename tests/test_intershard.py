"""Tests for the inter-shard message layer primitives.

Wire codec round-trips, protocol-constant validation, the federation
routing table (:class:`ShardMap`), shard->worker placement, the
mailbox's deterministic delivery order, and the one lockstep loop
(:func:`run_lockstep`) against fake groups.
"""

from operator import itemgetter

import pytest

from repro.core.config import HoneyfarmConfig
from repro.core.intershard import (
    WIRE_VERSION,
    InterShardConfig,
    ShardMessage,
    ShardRunner,
    assign_shards,
    decode_packet,
    encode_packet,
    run_lockstep,
)
from repro.net.addr import IPAddress
from repro.net.packet import TcpFlags, icmp_packet, tcp_packet, udp_packet
from repro.net.shardmap import ShardMap

A = IPAddress.parse("10.16.0.5")
B = IPAddress.parse("10.16.0.70")
EXTERNAL = IPAddress.parse("198.51.100.9")


def shard_config(prefix, seed=11):
    return HoneyfarmConfig(
        prefixes=(prefix,), num_hosts=1, clone_jitter=0.0,
        containment="reflect", seed=seed,
    )


def same_wire_fields(left, right):
    """Field equality on everything the wire carries (``packet_id`` is
    process-local identity and deliberately not serialized)."""
    return encode_packet(left) == encode_packet(right)


class TestWireCodec:
    def test_tcp_roundtrip(self):
        packet = tcp_packet(EXTERNAL, A, 3222, 445,
                            flags=TcpFlags.SYN | TcpFlags.ACK,
                            payload="exploit:blaster", size=777)
        decoded = decode_packet(encode_packet(packet))
        assert same_wire_fields(decoded, packet)
        assert decoded.flags == TcpFlags.SYN | TcpFlags.ACK
        assert decoded.payload == "exploit:blaster"
        assert decoded.size == 777

    def test_udp_roundtrip(self):
        packet = udp_packet(A, EXTERNAL, 1434, 1434, payload="exploit:slammer")
        decoded = decode_packet(encode_packet(packet))
        assert same_wire_fields(decoded, packet)
        assert decoded.src == A and decoded.dst == EXTERNAL

    def test_icmp_roundtrip(self):
        packet = icmp_packet(EXTERNAL, A)
        decoded = decode_packet(encode_packet(packet))
        assert same_wire_fields(decoded, packet)
        assert decoded.is_icmp and decoded.icmp_type == packet.icmp_type

    def test_ttl_survives_the_wire(self):
        packet = tcp_packet(EXTERNAL, A, 1, 80).decremented_ttl()
        decoded = decode_packet(encode_packet(packet))
        assert decoded.ttl == packet.ttl

    def test_decoded_packet_is_fresh_object(self):
        packet = tcp_packet(EXTERNAL, A, 1, 80)
        decoded = decode_packet(encode_packet(packet))
        assert decoded is not packet
        assert same_wire_fields(decoded, packet)

    def test_message_roundtrip(self):
        message = ShardMessage(
            send_time=1.5, deliver_time=2.0, src_shard=0, dst_shard=1,
            seq=7, reply=True, wire=encode_packet(udp_packet(A, B, 9, 53)),
        )
        assert ShardMessage.decode(message.encode()) == message

    def test_message_generation_roundtrip(self):
        message = ShardMessage(
            send_time=1.5, deliver_time=2.0, src_shard=0, dst_shard=1,
            seq=7, reply=False, wire=encode_packet(udp_packet(A, B, 9, 53)),
            generation=3,
        )
        decoded = ShardMessage.decode(message.encode())
        assert decoded == message
        assert decoded.generation == 3

    def test_generation_defaults_to_no_chain_sentinel(self):
        message = ShardMessage(0.0, 0.5, 0, 1, 1, False,
                               encode_packet(udp_packet(A, B, 9, 53)))
        assert message.generation == -1
        assert ShardMessage.decode(message.encode()).generation == -1

    def test_message_version_checked(self):
        message = ShardMessage(0.0, 0.5, 0, 1, 1, False,
                               encode_packet(udp_packet(A, B, 9, 53)))
        encoded = (WIRE_VERSION + 1,) + message.encode()[1:]
        with pytest.raises(ValueError, match="version"):
            ShardMessage.decode(encoded)


class TestInterShardConfig:
    def test_default_lookahead_is_latency(self):
        assert InterShardConfig(latency_seconds=0.25).lookahead == 0.25

    @pytest.mark.parametrize("latency", [0.0, -1.0])
    def test_nonpositive_latency_rejected(self, latency):
        with pytest.raises(ValueError, match="latency"):
            InterShardConfig(latency_seconds=latency)


class TestShardMap:
    def setup_method(self):
        self.shard_map = ShardMap((
            ("10.16.0.0/26",), ("10.16.0.64/26",), ("10.17.0.0/24",),
        ))

    def test_shard_for(self):
        assert self.shard_map.shard_for(A) == 0
        assert self.shard_map.shard_for(B) == 1
        assert self.shard_map.shard_for(IPAddress.parse("10.17.0.200")) == 2
        assert self.shard_map.shard_for(EXTERNAL) is None

    def test_covers(self):
        assert self.shard_map.covers(A)
        assert not self.shard_map.covers(EXTERNAL)

    def test_addresses_of(self):
        assert self.shard_map.addresses_of(0) == 64
        assert self.shard_map.addresses_of(2) == 256

    def test_global_inventory_spans_all_shards(self):
        assert self.shard_map.global_inventory.total_addresses == 64 + 64 + 256

    def test_spec_roundtrip(self):
        rebuilt = ShardMap(self.shard_map.spec())
        assert rebuilt.spec() == self.shard_map.spec()
        assert rebuilt.shard_for(B) == 1

    def test_overlapping_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardMap((("10.16.0.0/24",), ("10.16.0.128/26",)))

    def test_from_configs(self):
        shard_map = ShardMap.from_configs([
            shard_config("10.16.0.0/26"), shard_config("10.16.0.64/26"),
        ])
        assert shard_map.shard_count == 2
        assert shard_map.shard_for(B) == 1


class TestAssignShards:
    def test_balanced_spreads_heavy_shards(self):
        # LPT: 8 -> w0, 6 -> w1, 4 -> w1 (10 vs 8), 2 -> w0.
        assert assign_shards([8, 6, 4, 2], 2) == [0, 1, 1, 0]

    def test_balanced_is_deterministic_under_ties(self):
        first = assign_shards([5, 5, 5, 5], 2)
        assert first == assign_shards([5, 5, 5, 5], 2)
        assert sorted(first.count(w) for w in (0, 1)) == [2, 2]

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            assign_shards([1], 0)


class TestShardRunnerMailbox:
    def make_runner(self):
        configs = [shard_config("10.16.0.0/26", seed=11),
                   shard_config("10.16.0.64/26", seed=12)]
        shard_map = ShardMap.from_configs(configs)
        interlink = InterShardConfig(latency_seconds=0.25)
        return ShardRunner(1, configs[1], shard_map, interlink)

    def message(self, deliver, src_shard, seq, port):
        return ShardMessage(
            send_time=deliver - 0.25, deliver_time=deliver,
            src_shard=src_shard, dst_shard=1, seq=seq, reply=False,
            wire=encode_packet(udp_packet(A, B, 5000 + seq, port)),
        )

    def test_deposit_rejects_foreign_messages(self):
        runner = self.make_runner()
        with pytest.raises(ValueError, match="for shard 0"):
            runner.deposit(ShardMessage(0.0, 0.25, 1, 0, 1, False,
                                        encode_packet(udp_packet(B, A, 1, 53))))

    def test_delivery_order_is_protocol_state(self):
        """Deposit order never matters: the mailbox key (deliver_time,
        src_shard, seq) fixes delivery, so OS scheduling of the exchange
        cannot perturb the simulation."""
        deposits = [
            self.message(0.50, src_shard=0, seq=2, port=445),
            self.message(0.25, src_shard=2, seq=1, port=446),
            self.message(0.25, src_shard=0, seq=3, port=447),
            self.message(0.25, src_shard=0, seq=1, port=448),
        ]
        orders = []
        for permutation in (deposits, deposits[::-1]):
            runner = self.make_runner()
            delivered = []
            runner.farm.gateway.receive_intershard = (
                lambda packet, reply, generation=-1, log=delivered:
                log.append(packet.dst_port)
            )
            for message in permutation:
                runner.deposit(message)
            runner.run_epoch(1.0)
            orders.append(delivered)
        assert orders[0] == orders[1] == [448, 447, 446, 445]

    def test_messages_beyond_epoch_stay_queued(self):
        runner = self.make_runner()
        runner.deposit(self.message(0.9, src_shard=0, seq=1, port=445))
        runner.run_epoch(0.5)
        assert runner.undelivered_messages == 1
        runner.run_epoch(1.0)
        assert runner.undelivered_messages == 0

    def test_runner_validates_prefixes_against_map(self):
        configs = [shard_config("10.16.0.0/26"), shard_config("10.16.0.64/26")]
        shard_map = ShardMap.from_configs(configs)
        with pytest.raises(ValueError, match="disagree"):
            ShardRunner(0, configs[1], shard_map,
                        InterShardConfig(latency_seconds=0.25))


class FakeGroup:
    """Stand-in for a :class:`ShardGroup`: sends a canned outbox per
    epoch and logs ``(position, op, *args)`` for every call it gets."""

    def __init__(self, position, outboxes, log):
        self.position = position
        self.outboxes = iter(outboxes)
        self.log = log
        self.sent = []

    def epoch(self, end, inbound):
        self.log.append((self.position, "epoch", end, list(inbound)))
        self.sent = next(self.outboxes)

    def deposit(self, inbound):
        self.log.append((self.position, "deposit", list(inbound)))
        self.sent = []

    def collect(self):
        self.log.append((self.position, "collect"))
        return self.sent


class TestRunLockstep:
    """The one coordinator loop, against groups that are lists of canned
    outboxes. A message is ``(owner position, label)``."""

    def run(self, clock=0.0, until=0.6):
        log = []
        groups = [
            FakeGroup(0, [[(1, "a")], [(0, "b"), (1, "c")], [(1, "d")]], log),
            FakeGroup(1, [[], [(0, "e")], [(0, "f")]], log),
        ]
        epochs = run_lockstep(groups, itemgetter(0), clock, until, 0.25)
        return log, epochs

    def test_epoch_boundaries_stop_at_until(self):
        log, epochs = self.run()
        assert epochs == 3
        for position in (0, 1):
            ends = [c[2] for c in log if c[:2] == (position, "epoch")]
            assert ends == [0.25, 0.5, 0.6]

    def test_boundaries_count_from_the_given_clock(self):
        log, epochs = self.run(clock=7.3, until=7.8)
        assert epochs == 2
        assert [c[2] for c in log if c[:2] == (0, "epoch")] == [7.55, 7.8]

    def test_each_outbox_reaches_its_owner_next_epoch(self):
        log, __ = self.run()
        inbound = {
            position: [c[-1] for c in log if c[0] == position and c[1] != "collect"]
            for position in (0, 1)
        }
        assert inbound[0] == [[], [], [(0, "b"), (0, "e")], [(0, "f")]]
        assert inbound[1] == [[], [(1, "a")], [(1, "c")], [(1, "d")]]

    def test_every_group_starts_before_any_is_collected(self):
        """What lets groups behind pipes overlap; and the exchange past
        the last barrier is a deposit, never an epoch."""
        log, __ = self.run(until=0.25)
        assert [c[:2] for c in log] == [
            (0, "epoch"), (1, "epoch"), (0, "collect"), (1, "collect"),
            (0, "deposit"), (1, "deposit"), (0, "collect"), (1, "collect"),
        ]

    def test_nonpositive_lookahead_rejected(self):
        with pytest.raises(ValueError, match="lookahead"):
            run_lockstep([], itemgetter(0), 0.0, 1.0, 0.0)


class TestCrossShardGeneration:
    """ROADMAP item-1 follow-up: remote-sourced infections used to record
    the default generation (zero) because the source VM lives in a
    sibling shard's VM map. The wire now carries the sender's infection
    generation and the victim shard chains from it."""

    def make_runner(self):
        configs = [shard_config("10.16.0.0/26", seed=11),
                   shard_config("10.16.0.64/26", seed=12)]
        shard_map = ShardMap.from_configs(configs)
        interlink = InterShardConfig(latency_seconds=0.25)
        return ShardRunner(1, configs[1], shard_map, interlink)

    def exploit_message(self, generation):
        """A slammer exploit from shard-0 VM ``A`` into shard-1 ``B``,
        stamped with the sender's infection generation."""
        return ShardMessage(
            send_time=0.0, deliver_time=0.25, src_shard=0, dst_shard=1,
            seq=1, reply=False,
            wire=encode_packet(
                udp_packet(A, B, 5000, 1434, payload="exploit:slammer")
            ),
            generation=generation,
        )

    def test_remote_generation_recorded_and_chained(self):
        runner = self.make_runner()
        runner.deposit(self.exploit_message(generation=2))
        runner.run_epoch(5.0)
        gateway = runner.farm.gateway
        assert gateway.remote_generations[A] == 2
        assert runner.farm.infection_count() == 1
        record = runner.farm.infections[0]
        assert record.source == A and record.victim == B
        assert record.generation == 3

    def test_sentinel_generation_does_not_chain(self):
        """A non-VM source (the -1 sentinel) must leave the victim at
        generation zero — identical to a local external-scan infection."""
        runner = self.make_runner()
        runner.deposit(self.exploit_message(generation=-1))
        runner.run_epoch(5.0)
        assert A not in runner.farm.gateway.remote_generations
        assert runner.farm.infection_count() == 1
        assert runner.farm.infections[0].generation == 0

    def test_generation_rides_the_report(self):
        runner = self.make_runner()
        runner.deposit(self.exploit_message(generation=4))
        runner.run_epoch(5.0)
        rows = runner.report()["infections"]
        assert rows and rows[0][4] == 5
