"""Gateway scale-out: federating several honeyfarms.

The gateway is the architecture's central chokepoint — every packet of
every tunnel crosses it. The paper's scaling answer is horizontal:
partition the dark address space across several gateways, each running
its own farm, with nothing shared but the upstream routers' divert
rules. :class:`FederatedHoneyfarm` builds exactly that in one process:
each member is a :class:`~repro.core.intershard.ShardRunner` on a
*private* clock, all of them one
:class:`~repro.core.intershard.ShardGroup` driven by
:func:`~repro.core.intershard.run_lockstep`. The multiprocess
:class:`~repro.core.parallel.ParallelFederation` drives the same loop
over the same groups behind pipes, so the lanes are bit-equal by
construction (and gated in ``tests/test_parallel_federation.py``).

(N fully independent farms on one shared clock need no class at all:
build each with ``Honeyfarm(config, sim=shared_sim)``.)

:class:`FederationResult` carries the aggregate books of either lane:
merged infection timelines, summed counters and ledgers, and the global
packet-conservation check (:meth:`~FederationResult.assert_packet_conservation`)
that every packet entering any gateway is delivered, emulated, refused,
dropped-with-cause, still pending, or in flight between shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import HoneyfarmConfig
from repro.core.delta import MemoryBreakdown
from repro.core.honeyfarm import Honeyfarm
from repro.core.intershard import (
    InterShardConfig,
    ShardGroup,
    ShardRunner,
    run_lockstep,
)
from repro.core.ledger import PacketLedger, packet_ledger
from repro.net.packet import Packet
from repro.net.shardmap import ShardMap
from repro.services.guest import InfectionRecord, ScanBehavior
from repro.services.personality import PersonalityRegistry

__all__ = ["FederatedHoneyfarm", "FederationResult"]


@dataclass
class FederationResult:
    """Everything a federated run reports, plus the aggregate views —
    the same surface whichever lane produced it.

    ``reports`` (one :meth:`ShardRunner.report` per shard, sorted by
    shard index) is the bit-equality surface: it must compare equal
    across worker counts and between the lanes. ``workers`` is 0 for the
    in-process lane.
    """

    reports: List[Dict[str, Any]]
    workers: int
    assignment: List[int]
    epochs: int

    def aggregate_counters(self) -> Dict[str, int]:
        """Sum of every shard's counters, by name."""
        totals: Dict[str, int] = {}
        for report in self.reports:
            for name, value in report["counters"].items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def infection_count(self) -> int:
        return sum(len(r["infections"]) for r in self.reports)

    def infections(self) -> List[Tuple]:
        """All shards' infection tuples merged in time order."""
        merged: List[Tuple] = []
        for report in self.reports:
            merged.extend(tuple(i) for i in report["infections"])
        merged.sort()
        return merged

    def shard_ledgers(self) -> List[PacketLedger]:
        """One :class:`PacketLedger` per shard, as the shard reported it."""
        return [PacketLedger.from_dict(r["ledger"]) for r in self.reports]

    def ledger(self) -> PacketLedger:
        """The shard ledgers summed bucket by bucket."""
        return PacketLedger.total(self.shard_ledgers())

    def intershard_totals(self) -> Dict[str, int]:
        keys = ("sent", "received", "undelivered")
        return {
            key: sum(r["intershard"][key] for r in self.reports)
            for key in keys
        }

    def assert_packet_conservation(self) -> PacketLedger:
        """Global packet conservation, or raise with every violation.

        Three clauses: each shard's own ledger balances (leaked == 0);
        the shard ledgers sum, bucket by bucket, to the ledger reconciled
        *independently* from the summed counters (so it cross-checks the
        shard ledgers rather than restating them); and the message layer
        conserves too (every message sent was received by its owner or
        is still in a mailbox past the final barrier). Returns the
        summed ledger on success.
        """
        ledgers = self.shard_ledgers()
        summed = PacketLedger.total(ledgers)
        reconciled = PacketLedger.from_counters(
            self.aggregate_counters(), summed.still_pending
        )
        failures = [
            f"shard {report['shard']} leaked {ledger.leaked} packets"
            for report, ledger in zip(self.reports, ledgers)
            if ledger.leaked != 0
        ]
        if summed != reconciled:
            failures.append(
                f"shard ledgers sum to {summed}"
                f" but the summed counters say {reconciled}"
            )
        flows = self.intershard_totals()
        if flows["sent"] != flows["received"] + flows["undelivered"]:
            failures.append(
                f"inter-shard messages: {flows['sent']} sent !="
                f" {flows['received']} received +"
                f" {flows['undelivered']} undelivered"
            )
        if failures:
            raise AssertionError(
                "federation packet conservation violated: "
                + "; ".join(failures)
            )
        return summed


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
    """

    def __init__(
        self,
        shard_configs: Sequence[HoneyfarmConfig],
        interlink: InterShardConfig,
        personalities: Optional[PersonalityRegistry] = None,
        worms: Sequence[Tuple[str, float]] = (),
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
            )
            for index, config in enumerate(shard_configs)
        ]
        self.members: List[Honeyfarm] = [r.farm for r in self.runners]
        # One executor, so one group owning every shard.
        self._group = ShardGroup(self.runners)
        self.epochs = 0

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
        """Feed one shard's explicit trace (or list of rows)."""
        return self.runners[shard].attach_records(records, batched=batched)

    def run(self, until: float) -> None:
        """Run the federation to ``until`` in lockstep epochs over the
        members' private clocks. Resumable: a later call carries on from
        where this one stopped. Builds no reports; see :meth:`result`."""
        self.epochs += run_lockstep(
            [self._group], lambda message: 0,  # the one group owns every shard
            self.now, until, self.interlink.lookahead,
        )

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

    def result(self) -> FederationResult:
        """The run so far as a :class:`FederationResult`, built now from
        fresh shard reports (nothing is cached: the farms may run on)."""
        return FederationResult(
            reports=self.shard_reports(),
            workers=0,
            assignment=[0] * len(self.runners),
            epochs=self.epochs,
        )

    def shard_reports(self) -> List[Dict]:
        """Per-shard reports in the exact shape the parallel lane's
        workers return — the bit-equality surface the worker-count
        invariance tests compare."""
        return self._group.reports()

    def aggregate_counters(self) -> Dict[str, int]:
        """Sum of every member's counters, by name."""
        return self.result().aggregate_counters()

    def member_ledgers(self) -> List[PacketLedger]:
        """One :class:`~repro.core.ledger.PacketLedger` per member."""
        return [packet_ledger(member) for member in self.members]

    def assert_packet_conservation(self) -> PacketLedger:
        """:meth:`FederationResult.assert_packet_conservation` over the
        run so far."""
        return self.result().assert_packet_conservation()

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

