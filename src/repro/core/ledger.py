"""The inbound packet ledger: every packet the gateway counted in must
sit in exactly one bucket.

The gateway counts a packet in (``gateway.packets_in``) and then counts
what became of it: delivered to a VM, served by the emulator tier,
refused (TTL expired, stray), dropped with a cause, or still queued
behind a clone. :class:`PacketLedger` is the one place that mapping from
counter names to buckets is written; ``leaked == 0`` is the conservation
invariant chaos runs, the federation and the benchmarks all assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping

__all__ = ["PENDING_DROP_CAUSES", "PacketLedger", "packet_ledger"]

#: Why a packet queued behind a clone was dropped; the gateway keeps one
#: ``gateway.pending_dropped_<cause>`` counter per entry:
#:   host_down    — the VM's host crashed mid-clone
#:   vm_retired   — the VM was reclaimed/detained with packets held
#:   timeout      — the watchdog gave up on a stuck clone
#:   clone_failed — the clone pipeline itself failed (fault injection)
#:   vm_died      — the VM stopped RUNNING mid-flush
PENDING_DROP_CAUSES = ("host_down", "vm_retired", "timeout", "clone_failed", "vm_died")

#: (gateway counter, ledger cause) of every way an inbound packet drops.
_DROP_COUNTERS = (
    ("gateway.no_capacity_drop", "no_capacity"),
    ("gateway.pending_overflow", "pending_overflow"),
    ("gateway.dropped_vm_not_running", "vm_not_running"),
) + tuple(
    (f"gateway.pending_dropped_{cause}", f"pending_{cause}")
    for cause in PENDING_DROP_CAUSES
)


@dataclass
class PacketLedger:
    """Conservation check over the gateway's inbound packet counters."""

    packets_in: int
    delivered: int
    refused: int  # ttl expired + strays (never the farm's to handle)
    dropped_by_cause: Dict[str, int] = field(default_factory=dict)
    still_pending: int = 0
    emulated: int = 0  # served by the fidelity ladder's emulator tier

    @property
    def dropped(self) -> int:
        return sum(self.dropped_by_cause.values())

    @property
    def leaked(self) -> int:
        """Packets the counters cannot account for (must be zero)."""
        return (
            self.packets_in
            - self.delivered
            - self.emulated
            - self.refused
            - self.dropped
            - self.still_pending
        )

    @classmethod
    def from_counters(
        cls, counters: Mapping[str, int], still_pending: int
    ) -> "PacketLedger":
        """Reconcile gateway counters (one farm's, or several farms'
        summed) into buckets. ``still_pending`` is the one bucket that is
        a queue length, not a counter."""
        get = counters.get
        return cls(
            packets_in=get("gateway.packets_in", 0),
            delivered=get("gateway.delivered", 0),
            refused=get("gateway.ttl_expired", 0) + get("gateway.stray", 0),
            dropped_by_cause={
                cause: counters[name]
                for name, cause in _DROP_COUNTERS if get(name, 0)
            },
            still_pending=still_pending,
            emulated=get("gateway.emulated", 0),
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PacketLedger":
        """Inverse of :meth:`as_dict`: every key but ``leaked``, which
        is derived (so a ledger read back recomputes it)."""
        fields = dict(data)
        del fields["leaked"]
        return cls(**fields)

    @classmethod
    def total(cls, ledgers: Iterable["PacketLedger"]) -> "PacketLedger":
        """Bucket-wise sum of several farms' ledgers."""
        total = cls(packets_in=0, delivered=0, refused=0)
        dropped = total.dropped_by_cause
        for ledger in ledgers:
            total.packets_in += ledger.packets_in
            total.delivered += ledger.delivered
            total.refused += ledger.refused
            total.still_pending += ledger.still_pending
            total.emulated += ledger.emulated
            for cause, count in ledger.dropped_by_cause.items():
                dropped[cause] = dropped.get(cause, 0) + count
        return total

    def as_dict(self) -> Dict[str, Any]:
        """The ledger as primitives — the ``"ledger"`` block of a shard
        report, compared verbatim across lanes and worker counts."""
        return {
            "packets_in": self.packets_in,
            "delivered": self.delivered,
            "emulated": self.emulated,
            "refused": self.refused,
            "dropped_by_cause": dict(self.dropped_by_cause),
            "still_pending": self.still_pending,
            "leaked": self.leaked,
        }


def packet_ledger(farm) -> PacketLedger:
    """The ledger of one finished (or paused) farm."""
    return PacketLedger.from_counters(
        farm.metrics.counters(), farm.gateway.pending_packet_count
    )
