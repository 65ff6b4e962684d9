"""The inter-shard message layer and the lockstep-epoch engine.

A federation splits the dark space across N shards, each owning a full
farm (gateway, hosts, ladder, batched event loop) on a *private* clock.
Cross-shard traffic — chiefly reflected scans from infected VMs and the
replies coming back — crosses shard boundaries as :class:`ShardMessage`
records over a conservative time-stepped synchronization protocol:

* Every cross-shard hop costs at least ``latency_seconds`` of simulated
  time (the federation's minimum inter-gateway latency, standing in for
  the paper's GRE-tunnel round trip between gateways).
* All shards therefore advance in **lockstep epochs** one latency wide:
  a message sent during epoch ``k`` cannot be due before the epoch-``k``
  barrier, so exchanging outboxes at each barrier delivers every message
  to its destination shard *before* the simulated instant it arrives.
  No shard ever sees an event out of order, and no rollback is needed.
* Delivery order inside a shard is fixed by the mailbox key
  ``(deliver_time, src_shard, seq)`` — pure protocol state, independent
  of OS scheduling — which is what makes runs bit-reproducible for any
  worker count (see docs/FEDERATION.md for the full argument).

Each decision is written once here. :class:`ShardRunner` is one shard's
epoch engine; :class:`ShardGroup` is what one executor does with the
shards it owns; :func:`run_lockstep` is the coordinator loop. The
in-process :class:`~repro.core.federation.FederatedHoneyfarm` hands the
loop its group directly, the multiprocess
:class:`~repro.core.parallel.ParallelFederation` hands it pipe proxies
for groups living in worker processes — the lanes differ in transport
and in nothing else.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.config import HoneyfarmConfig
from repro.core.containment import make_policy
from repro.core.honeyfarm import Honeyfarm
from repro.core.ledger import packet_ledger
from repro.net.packet import Packet, TcpFlags
from repro.net.shardmap import ShardMap
from repro.obs import recorder as _obs
from repro.sim.engine import Simulator, batched_collection

__all__ = [
    "WIRE_VERSION",
    "InterShardConfig",
    "ShardGroup",
    "ShardMessage",
    "ShardRunner",
    "assign_shards",
    "decode_packet",
    "encode_packet",
    "run_lockstep",
]

#: Wire-format version for :meth:`ShardMessage.encode`. Bump on any
#: layout change; decoders reject mismatches instead of misparsing.
#: v2 added ``generation`` (the sending VM's infection depth), so
#: remote-sourced infections chain epidemic generations across shards.
WIRE_VERSION = 2


@dataclass(frozen=True)
class InterShardConfig:
    """The protocol constant every shard must agree on.

    Attributes
    ----------
    latency_seconds:
        Minimum simulated latency of a cross-shard hop. This is the
        protocol's lookahead source: no message sent at time ``t`` can
        take effect before ``t + latency_seconds``.
    """

    latency_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.latency_seconds <= 0:
            raise ValueError(
                f"latency_seconds must be positive: {self.latency_seconds!r}"
            )

    @property
    def lookahead(self) -> float:
        """The lockstep epoch width: the full latency, the widest window
        that is still conservative. (A wider epoch could owe a shard a
        message from its past; a narrower one only adds barriers.)"""
        return self.latency_seconds


# ---------------------------------------------------------------------- #
# Wire format
# ---------------------------------------------------------------------- #

def encode_packet(packet: Packet) -> Tuple:
    """Flatten a packet to a compact tuple of primitives (picklable,
    JSON-able modulo the payload string); addresses leave as plain ints."""
    return (
        int(packet.src), int(packet.dst), packet.protocol,
        packet.src_port, packet.dst_port, int(packet.flags),
        packet.icmp_type, packet.payload, packet.size, packet.ttl,
    )


#: Every :class:`TcpFlags` value by its int: a tuple index instead of a
#: trip through the enum's constructor per decoded packet.
_TCP_FLAGS = tuple(TcpFlags(value) for value in range(32))


def decode_packet(wire: Sequence) -> Packet:
    """Rebuild a packet from :func:`encode_packet` output. The packet is
    a fresh object in either lane (the in-process reference round-trips
    through the same codec), and it belongs to the gateway it is handed
    to, which rewrites it in place."""
    src, dst, protocol, src_port, dst_port, flags, icmp_type, payload, size, ttl = wire
    return Packet(
        src, dst, protocol, src_port, dst_port, _TCP_FLAGS[flags],
        icmp_type, payload, size, ttl,
    )


class ShardMessage(NamedTuple):
    """One cross-shard packet in flight.

    ``seq`` is the sender's per-shard monotonic message counter; together
    with ``(deliver_time, src_shard)`` it totally orders every mailbox,
    which is the backbone of the determinism argument. ``reply`` marks
    packets on the *return* path of a reflected flow: the receiving
    gateway must run them through its ``ReflectionNat`` reply-source
    rewrite, exactly as it would a local reply (the PR 5 escape class,
    now across shard boundaries). ``generation`` carries the sending
    VM's infection generation for non-reply traffic, so an infection the
    packet causes on the destination shard records depth ``generation +
    1`` instead of defaulting to zero — without it, every cross-shard
    hop flattened the epidemic tree (ROADMAP item-1 follow-up). The
    sentinel ``-1`` means the source is not an infected farm VM (e.g. a
    reflected external scan crossing shards), which must chain nothing:
    such infections stay generation zero, exactly as on the local path.
    """

    send_time: float
    deliver_time: float
    src_shard: int
    dst_shard: int
    seq: int
    reply: bool
    wire: Tuple
    generation: int = -1

    def encode(self) -> Tuple:
        """The versioned on-pipe form (primitives only): the fields in
        order behind the version."""
        return (WIRE_VERSION,) + self

    @classmethod
    def decode(cls, encoded: Sequence) -> "ShardMessage":
        if encoded[0] != WIRE_VERSION:
            raise ValueError(
                f"inter-shard wire version mismatch: got {encoded[0]!r},"
                f" expected {WIRE_VERSION}"
            )
        return tuple.__new__(cls, encoded[1:])


# ---------------------------------------------------------------------- #
# Shard -> worker placement
# ---------------------------------------------------------------------- #

def assign_shards(loads: Sequence[int], workers: int) -> List[int]:
    """Place shards onto workers; returns ``worker_index`` per shard.

    ``loads`` is one load estimate per shard (by convention the shard's
    dark-address count, the best static proxy for its packet share).
    Placement is longest-processing-time greedy: heaviest shard first
    onto the currently-lightest worker (ties broken by lowest index on
    both sides, so placement is deterministic).
    """
    if workers <= 0:
        raise ValueError(f"workers must be positive: {workers!r}")
    totals = [0] * workers
    assignment = [0] * len(loads)
    for shard in sorted(range(len(loads)), key=lambda i: (-loads[i], i)):
        worker = min(range(workers), key=lambda w: (totals[w], w))
        assignment[shard] = worker
        totals[worker] += loads[shard]
    return assignment


# ---------------------------------------------------------------------- #
# The per-shard epoch engine
# ---------------------------------------------------------------------- #

#: A mailbox entry's ``deliver_time``: the epoch cut bisects on it.
_DELIVER_TIME = itemgetter(0)


class ShardRunner:
    """One shard's farm plus its mailbox, outbox, and epoch driver.

    The runner is the gateway's inter-shard port (the gateway duck-types
    against :meth:`remote_shard` and :meth:`send`) and the coordinator's
    unit of work (:meth:`run_epoch`, :meth:`deposit`, :meth:`report`).

    Parameters
    ----------
    index / config / shard_map / interlink:
        This shard's position, farm config, the federation routing
        table, and the protocol constants. When the map holds more than
        one shard, the farm's containment policy is rebuilt over the
        *federation-wide* inventory so reflection verdicts land anywhere
        in the federation's dark space — identically in every process,
        because the inventory layout derives from the shard spec alone.
    worms:
        ``(name, scan_rate)`` specs from
        :data:`~repro.workloads.worms.KNOWN_WORMS`, registered against
        this shard's farm. Spec-based (not behaviour objects) so the
        identical registration happens inside worker processes.
    """

    def __init__(
        self,
        index: int,
        config: HoneyfarmConfig,
        shard_map: ShardMap,
        interlink: InterShardConfig,
        *,
        personalities=None,
        worms: Sequence[Tuple[str, float]] = (),
    ) -> None:
        if tuple(config.prefixes) != shard_map.shard_prefixes[index]:
            raise ValueError(
                f"shard {index} config prefixes {config.prefixes!r} disagree"
                f" with the shard map {shard_map.shard_prefixes[index]!r}"
            )
        self.index = index
        self.shard_map = shard_map
        self.interlink = interlink
        self.worm_specs: Tuple[Tuple[str, float], ...] = tuple(
            (name, float(rate)) for name, rate in worms
        )
        self.farm = Honeyfarm(config, personalities=personalities)
        if shard_map.shard_count > 1:
            # Reflection over the whole federation, not just this shard:
            # verdicts must be able to bounce a scan into a sibling's
            # darknet or the seam between shards is fingerprintable.
            self.farm.gateway.policy = make_policy(
                config.containment,
                shard_map.global_inventory,
                config.outbound_rate_limit,
            )
            self.farm.gateway.intershard = self
        self.sent = 0
        self.outbox: List[ShardMessage] = []
        self._mailbox: List[Tuple[float, int, int, bool, Tuple, int]] = []
        for name, rate in self.worm_specs:
            from repro.workloads.worms import KNOWN_WORMS

            spec = KNOWN_WORMS[name].with_scan_rate(rate)
            self.farm.register_worm(spec.behavior(config.dns_address()))

    # -- gateway port ---------------------------------------------------- #

    def remote_shard(self, addr: int) -> Optional[int]:
        """The *sibling* shard that owns ``addr``, or None when this
        shard or the external Internet does."""
        shard = self.shard_map.shard_for(addr)
        return None if shard == self.index else shard

    def send(
        self, packet: Packet, dst_shard: int, reply: bool, generation: int = -1
    ) -> None:
        """Queue one packet for ``dst_shard``, the sibling that owns its
        destination (:meth:`remote_shard`), due one cross-shard latency
        from now. Called by the gateway after it has already applied
        local NAT state; the packet crosses the boundary raw.
        ``generation`` is the sending VM's infection generation, or the
        ``-1`` sentinel when the source is not an infected farm VM
        (reply traffic, reflected external scans)."""
        now = self.farm.sim.now
        self.sent += 1
        self.outbox.append(ShardMessage(
            now, now + self.interlink.latency_seconds, self.index, dst_shard,
            self.sent, reply, encode_packet(packet), generation,
        ))

    # -- coordinator interface ------------------------------------------- #

    def deposit(self, message: ShardMessage) -> None:
        """Accept one inbound message (any epoch ahead of now). The
        mailbox is put in key order once per epoch, by :meth:`run_epoch`."""
        __, deliver, src_shard, dst_shard, seq, reply, wire, generation = message
        if dst_shard != self.index:
            raise ValueError(
                f"shard {self.index} received a message for shard {dst_shard}"
            )
        self._mailbox.append((deliver, src_shard, seq, reply, wire, generation))

    def attach_records(self, records, batched: bool = True) -> int:
        """Feed this shard's slice of the workload (pre-run only)."""
        from repro.workloads.trace import replay_into_farm

        return replay_into_farm(self.farm, records, batched=batched)

    def attach_telescope(self, telescope, batched: bool = True) -> int:
        """Generate and attach this shard's partition of a
        :class:`~repro.workloads.telescope.PartitionedTelescope`."""
        return self.attach_records(
            telescope.build(self.index), batched=batched
        )

    def run_epoch(self, end: float) -> List[ShardMessage]:
        """Deliver every message due by ``end`` while the farm runs to
        ``end``, and hand back the epoch's outbound messages.

        The due messages leave the mailbox as one :class:`_DueMessages`
        arrival stream, whose sequence block is reserved here, before the
        farm runs: the keys it carries are the ones scheduling each
        message on the heap at this point would draw, so they fire in
        the same order against everything else. Due messages are always
        in the future: a message sent in epoch ``k`` is due strictly
        after the epoch-``k`` barrier (``deliver = send + latency >
        barrier`` because the epoch is no wider than the latency), and
        the barrier is exactly where this shard's clock stands when the
        message is deposited.
        """
        farm = self.farm
        mailbox = self._mailbox
        # The leading (deliver_time, src_shard, seq) is unique, so the sort
        # never compares further into an entry, and it orders messages
        # parked by an earlier call and this epoch's deposits alike.
        mailbox.sort()
        cut = bisect_right(mailbox, end, key=_DELIVER_TIME)
        due = mailbox[:cut]
        del mailbox[:cut]
        if due:
            farm.sim.attach_stream(
                _DueMessages(farm.sim, due, farm.gateway.receive_intershard)
            )
        farm.run(until=end)
        out, self.outbox = self.outbox, []
        return out

    @property
    def undelivered_messages(self) -> int:
        """Messages still in the mailbox (due beyond the last barrier)."""
        return len(self._mailbox)

    # -- reporting -------------------------------------------------------- #

    def report(self) -> Dict[str, Any]:
        """This shard's complete observable outcome as primitives.

        Everything a worker sends back rides through this dict, and the
        worker-count invariance tests compare these dicts *verbatim* —
        so every field must be deterministic protocol/farm state, never
        process-local identity (vm ids, object ids, wall time).
        """
        farm = self.farm
        nat = farm.gateway.nat
        return {
            "shard": self.index,
            "prefixes": list(farm.config.prefixes),
            "sim_now": farm.sim.now,
            "events_processed": farm.sim.events_processed,
            "total_addresses": farm.inventory.total_addresses,
            "live_vms": farm.live_vms,
            "counters": dict(farm.metrics.counters()),
            "infections": [
                (r.time, str(r.victim), str(r.source), r.worm_name, r.generation)
                for r in farm.infections
            ],
            "ledger": packet_ledger(farm).as_dict(),
            "intershard": {
                "sent": self.sent,
                "received": farm.metrics.counters().get(
                    "gateway.intershard_in", 0
                ),
                "undelivered": self.undelivered_messages,
            },
            "nat": {
                "reply_translations": nat.translations,
                "outbound_translations": nat.outbound_translations,
                "entries": len(nat),
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ShardRunner shard={self.index}"
            f" t={self.farm.sim.now:.1f}s sent={self.sent}"
            f" mailbox={len(self._mailbox)}>"
        )


class _DueMessages:
    """One epoch's due mailbox entries as an
    :class:`~repro.sim.engine.ArrivalStream`.

    ``entries`` are ``(deliver_time, src_shard, seq, reply, wire,
    generation)`` in mailbox order; item ``i`` carries the key
    ``(deliver_time, base + i)``. Each message is decoded when it is
    delivered and handed to ``receive`` (the gateway's
    ``receive_intershard``, resolved when the stream is attached).
    """

    __slots__ = ("_sim", "_entries", "_receive", "_base", "_pos")

    def __init__(
        self,
        sim: Simulator,
        entries: List[Tuple[float, int, int, bool, Tuple, int]],
        receive: Callable[[Packet, bool, int], None],
    ) -> None:
        self._sim = sim
        self._entries = entries
        self._receive = receive
        self._base = sim.reserve_seqs(len(entries))
        self._pos = 0

    def peek(self) -> Optional[Tuple[float, int]]:
        i = self._pos
        if i >= len(self._entries):
            return None
        return (self._entries[i][0], self._base + i)

    def drain(
        self, until: Optional[float], limit_key: Optional[Tuple[float, int]]
    ) -> None:
        sim = self._sim
        entries = self._entries
        receive = self._receive
        base = self._base
        i = self._pos
        n = len(entries)
        recorder = _obs.ACTIVE
        while i < n:
            deliver, __, __, reply, wire, generation = entries[i]
            if until is not None and deliver > until:
                break
            key = (deliver, base + i)
            if limit_key is not None and limit_key < key:
                break
            queue = sim._queue  # re-read: compaction rebinds the list
            # A (time, seq, event) entry: its seq is not this message's,
            # so the comparison never reaches the event.
            if queue and queue[0] < key:
                break
            sim.advance_for_stream(deliver)
            i += 1
            self._pos = i  # before delivery: a callback may peek
            if recorder is None:
                receive(decode_packet(wire), reply, generation)
            else:
                # The label Simulator.step gives a scheduled gateway call.
                started = perf_counter()
                receive(decode_packet(wire), reply, generation)
                recorder.record_timing("gateway", perf_counter() - started)


class ShardGroup:
    """What one executor does with the shards it owns.

    The in-process federation is one group holding every shard; each
    worker process of the parallel lane is one group holding its share.
    Either way an epoch is: deposit the inbound messages, run the shards
    in shard order, gather their outboxes. Messages cross this boundary
    as :class:`ShardMessage` objects; the wire form exists only at a
    pipe.

    :meth:`epoch` and :meth:`deposit` start a step and :meth:`collect`
    hands back what it sent — two calls, because :func:`run_lockstep`
    starts a step on every group before it collects from any, which is
    what lets groups behind pipes overlap.
    """

    def __init__(self, runners: Sequence[ShardRunner]) -> None:
        self.runners = sorted(runners, key=lambda runner: runner.index)
        self._by_shard = {runner.index: runner for runner in self.runners}
        # One list for the life of the group: cleared, never reallocated.
        self._outbox: List[ShardMessage] = []

    def epoch(self, end: float, inbound: Sequence[ShardMessage]) -> None:
        """Deposit ``inbound``, then run every shard to ``end``."""
        self.deposit(inbound)
        outbox = self._outbox
        for runner in self.runners:
            outbox.extend(runner.run_epoch(end))

    def deposit(self, inbound: Sequence[ShardMessage]) -> None:
        """Mailbox-only step: sends nothing."""
        self._outbox.clear()
        by_shard = self._by_shard
        for message in inbound:
            by_shard[message.dst_shard].deposit(message)

    def collect(self) -> List[ShardMessage]:
        """The messages the last step sent (valid until the next step)."""
        return self._outbox

    def reports(self) -> List[Dict[str, Any]]:
        """One :meth:`ShardRunner.report` per shard, in shard order."""
        return [runner.report() for runner in self.runners]


def run_lockstep(
    groups: Sequence[Any],
    owner_of: Callable[[Any], int],
    clock: float,
    until: float,
    lookahead: float,
) -> int:
    """Drive ``groups`` in lockstep epochs from ``clock`` to ``until``;
    returns the number of epochs run.

    Each of ``groups`` is a :class:`ShardGroup` or a stand-in with the
    same ``epoch`` / ``deposit`` / ``collect`` methods; ``owner_of(item)``
    is the position in ``groups`` of the one that owns the destination of
    an item ``collect`` returned. The loop never looks inside an item, so
    a lane may route messages in whatever form its transport carries: the
    in-process lane's items are messages, the parallel lane's pickled
    batches of them, one per destination worker.

    Final-epoch sends are all due past ``until`` (the epoch is no wider
    than the latency); the closing deposit parks them in their owners'
    mailboxes, so undelivered accounting is exact and a later call
    resumes where this one stopped.
    """
    if lookahead <= 0:
        raise ValueError(f"lookahead must be positive: {lookahead!r}")
    # Allocated once and cleared per epoch: a traced run charges a
    # collector pause to whatever span is open, and this glue has none.
    pending: List[List[Any]] = [[] for __ in groups]
    epochs = 0
    # One collector policy for the whole drive, not one per slice of
    # every simulator driven (see batched_collection).
    with batched_collection():
        while clock < until:
            end = min(clock + lookahead, until)
            for group, inbound in zip(groups, pending):
                group.epoch(end, inbound)
                inbound.clear()
            for group in groups:
                for message in group.collect():
                    pending[owner_of(message)].append(message)
            clock = end
            epochs += 1
        for group, inbound in zip(groups, pending):
            group.deposit(inbound)
        for group in groups:
            group.collect()
    return epochs
