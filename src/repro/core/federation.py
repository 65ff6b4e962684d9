"""Gateway scale-out: federating several honeyfarms.

The gateway is the architecture's central chokepoint — every packet of
every tunnel crosses it. The paper's scaling answer is horizontal:
partition the dark address space across several gateways, each running
its own farm, with nothing shared but the upstream routers' divert
rules. :class:`FederatedHoneyfarm` builds exactly that: each member is
a :class:`~repro.core.intershard.ShardRunner` on a *private* clock,
advanced in lockstep epochs with cross-shard reflected traffic carried
by the inter-shard message layer. This is the in-process *golden
reference* for the multiprocess
:class:`~repro.core.parallel.ParallelFederation`: both lanes drive the
identical runners through the identical epoch loop, so their results are
bit-equal by construction (and gated in
``benchmarks/bench_federation.py``).

(N fully independent farms on one shared clock need no class at all:
build each with ``Honeyfarm(config, sim=shared_sim)``.)

The federation carries the aggregate books: merged infection timelines,
summed counters, per-member packet ledgers, and a global
packet-conservation check (:meth:`assert_packet_conservation`) that
every packet entering any gateway is delivered, emulated, refused,
dropped-with-cause, still pending, or in flight between shards.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import HoneyfarmConfig
from repro.core.delta import MemoryBreakdown, farm_memory_breakdown
from repro.core.honeyfarm import Honeyfarm
from repro.core.intershard import InterShardConfig, ShardRunner, run_epochs
from repro.net.packet import Packet
from repro.net.shardmap import ShardMap
from repro.services.guest import InfectionRecord, ScanBehavior
from repro.services.personality import PersonalityRegistry

__all__ = ["FederatedHoneyfarm"]


class FederatedHoneyfarm:
    """N farms over disjoint address shards. See module docstring.

    Parameters
    ----------
    shard_configs:
        One :class:`HoneyfarmConfig` per member; their prefixes must be
        mutually disjoint (each member is sovereign over its shard).
    interlink:
        The protocol constants (cross-shard latency, epoch width) every
        shard agrees on.
    worms:
        ``(name, scan_rate)`` specs registered on every shard inside the
        runner (the multiprocess lane registers the identical specs in
        its workers; see :class:`~repro.core.intershard.ShardRunner`).
    shard_recorder_capacity:
        Give each shard a private flight recorder of this capacity
        (0 disables), surfaced in shard reports.
    """

    def __init__(
        self,
        shard_configs: Sequence[HoneyfarmConfig],
        interlink: InterShardConfig,
        personalities: Optional[PersonalityRegistry] = None,
        worms: Sequence[Tuple[str, float]] = (),
        shard_recorder_capacity: int = 0,
    ) -> None:
        if not shard_configs:
            raise ValueError("a federation needs at least one member farm")
        self.interlink = interlink
        self.unrouteable_packets = 0
        self.shard_map = ShardMap.from_configs(shard_configs)  # validates
        self.runners: List[ShardRunner] = [
            ShardRunner(
                index, config, self.shard_map, interlink,
                personalities=personalities, worms=worms,
                recorder_capacity=shard_recorder_capacity,
            )
            for index, config in enumerate(shard_configs)
        ]
        self.members: List[Honeyfarm] = [r.farm for r in self.runners]

    # ------------------------------------------------------------------ #
    # Routing and driving
    # ------------------------------------------------------------------ #

    def inject(self, packet: Packet) -> None:
        """Route one packet to the owning member's gateway. A pre-run
        seeding hook: mid-run injection would bypass the epoch barriers."""
        shard = self.shard_map.shard_for(packet.dst)
        if shard is None:
            self.unrouteable_packets += 1
            return
        self.members[shard].inject(packet)

    def register_worm(self, behavior: ScanBehavior) -> None:
        """Register the worm's behaviour with every member."""
        for member in self.members:
            member.register_worm(behavior)

    def attach_telescope(self, telescope, batched: bool = True) -> int:
        """Attach a :class:`~repro.workloads.telescope.PartitionedTelescope`:
        each shard generates and replays its own partition, exactly as
        the parallel lane's workers do."""
        if telescope.shard_count != len(self.runners):
            raise ValueError(
                f"telescope has {telescope.shard_count} partitions for"
                f" {len(self.runners)} shards"
            )
        return sum(
            runner.attach_telescope(telescope, batched=batched)
            for runner in self.runners
        )

    def attach_shard_records(
        self, shard: int, records, batched: bool = True
    ) -> int:
        """Feed one shard's explicit record list."""
        return self.runners[shard].attach_records(records, batched=batched)

    def run(self, until: float) -> None:
        """Run the federation to ``until`` in lockstep epochs over the
        members' private clocks."""
        run_epochs(self.runners, until, self.interlink.lookahead)

    # ------------------------------------------------------------------ #
    # Aggregate reporting
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """The federation's simulated time (all clocks agree at barriers)."""
        return max(r.farm.sim.now for r in self.runners)

    @property
    def total_addresses(self) -> int:
        return sum(m.inventory.total_addresses for m in self.members)

    @property
    def live_vms(self) -> int:
        return sum(m.live_vms for m in self.members)

    def infection_count(self) -> int:
        return sum(m.infection_count() for m in self.members)

    def infections(self) -> List[InfectionRecord]:
        records: List[InfectionRecord] = []
        for member in self.members:
            records.extend(member.infections)
        records.sort(key=lambda r: r.time)
        return records

    def memory_breakdown(self) -> MemoryBreakdown:
        merged = MemoryBreakdown(
            capacity=0, image_resident=0, private_resident=0,
            live_vms=0, full_copy_equivalent=0,
        )
        for member in self.members:
            merged = merged.merged_with(member.memory_breakdown())
        return merged

    def aggregate_counters(self) -> Dict[str, int]:
        """Sum of every member's counters, by name."""
        totals: Dict[str, int] = {}
        for member in self.members:
            for name, value in member.metrics.counters().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def member_ledgers(self) -> List:
        """One :class:`~repro.analysis.recovery.PacketLedger` per member."""
        from repro.analysis.recovery import packet_ledger

        return [packet_ledger(member) for member in self.members]

    def federation_ledger(self):
        """The federation-wide packet ledger, reconciled *independently*
        from the summed counters (so it cross-checks the per-member
        ledgers rather than restating them)."""
        from repro.analysis.recovery import PENDING_DROP_CAUSES, PacketLedger

        totals = self.aggregate_counters()
        dropped: Dict[str, int] = {}
        for cause in ("no_capacity_drop", "pending_overflow", "dropped_vm_not_running"):
            count = totals.get(f"gateway.{cause}", 0)
            if count:
                dropped[cause.replace("_drop", "").replace("dropped_", "")] = count
        for cause in PENDING_DROP_CAUSES:
            count = totals.get(f"gateway.pending_dropped_{cause}", 0)
            if count:
                dropped[f"pending_{cause}"] = count
        return PacketLedger(
            packets_in=totals.get("gateway.packets_in", 0),
            delivered=totals.get("gateway.delivered", 0),
            refused=(
                totals.get("gateway.ttl_expired", 0)
                + totals.get("gateway.stray", 0)
            ),
            dropped_by_cause=dropped,
            still_pending=sum(
                m.gateway.pending_packet_count for m in self.members
            ),
            emulated=totals.get("gateway.emulated", 0),
        )

    def assert_packet_conservation(self):
        """Global packet conservation, or raise with every violation.

        Checks, in order: each member's own ledger balances (leaked ==
        0); the sum of member ledgers equals the federation ledger,
        bucket by bucket; and the message layer
        conserves too (every message sent was received by its owner or
        is still in a mailbox past the final barrier). Returns the
        federation ledger on success.
        """
        members = self.member_ledgers()
        federation = self.federation_ledger()
        failures: List[str] = []
        for index, ledger in enumerate(members):
            if ledger.leaked != 0:
                failures.append(
                    f"member {index} leaked {ledger.leaked} packets"
                )
        for bucket in (
            "packets_in", "delivered", "emulated", "refused",
            "dropped", "still_pending",
        ):
            member_sum = sum(getattr(ledger, bucket) for ledger in members)
            fed_value = getattr(federation, bucket)
            if member_sum != fed_value:
                failures.append(
                    f"{bucket}: member ledgers sum to {member_sum}"
                    f" but the federation ledger says {fed_value}"
                )
        sent = sum(r.sent for r in self.runners)
        received = self.aggregate_counters().get("gateway.intershard_in", 0)
        undelivered = sum(r.undelivered_messages for r in self.runners)
        if sent != received + undelivered:
            failures.append(
                f"inter-shard messages: {sent} sent !="
                f" {received} received + {undelivered} undelivered"
            )
        if failures:
            raise AssertionError(
                "federation packet conservation violated: "
                + "; ".join(failures)
            )
        return federation

    def shard_reports(self) -> List[Dict]:
        """Per-shard reports in the exact shape the parallel lane's
        workers return — the bit-equality surface the worker-count
        invariance tests and the federation bench compare."""
        return [runner.report() for runner in self.runners]

    def per_member_rows(self) -> List[Tuple[str, int, int, int, int]]:
        """(shard, live VMs, spawned, infections, packets in) rows."""
        rows = []
        for member in self.members:
            counters = member.metrics.counters()
            rows.append((
                ", ".join(member.config.prefixes),
                member.live_vms,
                counters.get("farm.vms_spawned", 0),
                member.infection_count(),
                counters.get("gateway.packets_in", 0),
            ))
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FederatedHoneyfarm members={len(self.members)}"
            f" addresses={self.total_addresses} t={self.now:.1f}s>"
        )
