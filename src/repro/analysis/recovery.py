"""Recovery analysis for chaos runs: MTTR, capture dips, and accounting.

Consumes a finished farm plus the :class:`~repro.faults.injectors.ChaosController`
that drove its fault plan, and answers the three questions a chaos drill
exists to ask:

1. **How fast did the farm heal?** Per host-crash, the live-VM level just
   before the crash, the dip floor after it, and the time until the level
   first returned to its pre-crash value (the MTTR).
2. **What did the faults cost?** Packets lost, broken down by cause
   (host down, clone failed, watchdog timeout, ...), plus clone failures
   and respawn churn.
3. **Does the ledger balance?** Every packet that entered the gateway
   must be delivered, refused, dropped-with-cause, or still pending —
   ``leaked == 0`` is the invariant the golden chaos scenario pins.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.report import format_table
from repro.core.honeyfarm import Honeyfarm
from repro.core.ledger import PacketLedger, packet_ledger
from repro.faults.injectors import ChaosController, FaultRecord

__all__ = [
    "FaultOutcome",
    "PacketLedger",
    "RecoveryReport",
    "fault_outcomes",
    "packet_ledger",
    "recovery_report",
]


@dataclass
class FaultOutcome:
    """One host crash and how the farm's live-VM level recovered from it."""

    record: FaultRecord
    pre_fault_live: float
    min_live: float
    recovered_at: Optional[float]

    @property
    def mttr(self) -> Optional[float]:
        """Seconds from the crash until the live-VM level first returned
        to its pre-crash value; None if it never did within the run."""
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.record.fired_at


@dataclass
class RecoveryReport:
    outcomes: List[FaultOutcome]
    ledger: PacketLedger
    records: List[FaultRecord]
    counters: Dict[str, int]

    def render(self) -> str:
        sections = [self._timeline_section()]
        if self.outcomes:
            sections.append(self._mttr_section())
        sections.append(self._healing_section())
        sections.append(self._ledger_section())
        return "\n\n".join(sections)

    def _timeline_section(self) -> str:
        rows = []
        for record in self.records:
            cleared = f"{record.cleared_at:.2f}" if record.cleared_at is not None else "-"
            if record.skipped:
                impact = f"skipped: {record.detail['skipped']}"
            else:
                impact = ", ".join(f"{k}={v}" for k, v in sorted(record.detail.items()))
            rows.append([record.kind, record.target, f"{record.fired_at:.2f}", cleared, impact])
        if not rows:
            rows.append(["(none)", "-", "-", "-", "-"])
        return format_table(
            ["fault", "target", "fired (s)", "cleared (s)", "impact"],
            rows, title="Fault timeline",
        )

    def _mttr_section(self) -> str:
        rows = []
        for outcome in self.outcomes:
            mttr = f"{outcome.mttr:.2f}" if outcome.mttr is not None else "not recovered"
            rows.append([
                outcome.record.target,
                f"{outcome.record.fired_at:.2f}",
                f"{outcome.pre_fault_live:.0f}",
                f"{outcome.min_live:.0f}",
                mttr,
            ])
        return format_table(
            ["host", "crashed (s)", "live before", "dip floor", "MTTR (s)"],
            rows, title="Host-crash recovery",
        )

    def _healing_section(self) -> str:
        c = self.counters
        rows = [
            ["host crashes", c.get("farm.host_crashes", 0)],
            ["host repairs", c.get("farm.host_repairs", 0)],
            ["clone failures", c.get("farm.clone_failures", 0)],
            ["respawns", c.get("farm.respawns", 0)],
            ["respawn retries", c.get("farm.respawn_retries", 0)],
            ["respawns abandoned", c.get("farm.respawns_abandoned", 0)],
            ["pool VMs lost", sum(
                r.detail.get("pool_vms_lost", 0) for r in self.records if not r.skipped
            )],
        ]
        return format_table(["metric", "value"], rows, title="Self-healing")

    def _ledger_section(self) -> str:
        ledger = self.ledger
        rows = [
            ["packets in", ledger.packets_in],
            ["delivered", ledger.delivered],
            ["refused (ttl/stray)", ledger.refused],
        ]
        if ledger.emulated:
            # Only ladder-enabled runs carry this bucket; keep clone-always
            # reports (and their goldens) free of dead rows.
            rows.append(["emulated (ladder)", ledger.emulated])
        for cause, count in sorted(ledger.dropped_by_cause.items()):
            rows.append([f"dropped: {cause}", count])
        rows.append(["still pending", ledger.still_pending])
        rows.append(["leaked", ledger.leaked])
        return format_table(["metric", "value"], rows, title="Packet ledger")


def _level_before(times: List[float], values: List[float], t: float) -> float:
    """The series value strictly before time ``t`` (0.0 if none)."""
    idx = bisect.bisect_left(times, t) - 1
    if idx < 0:
        return 0.0
    return values[idx]


def fault_outcomes(farm: Honeyfarm, controller: ChaosController) -> List[FaultOutcome]:
    """Per host-crash recovery outcomes from the live-VM time series.

    The pre-crash level is read strictly before the crash instant (the
    crash itself records the post-drop value at ``fired_at``); recovery
    is the first sample at which the level regains that value.
    """
    series = farm.metrics.series("farm.live_vms_series")
    times, values = series.times, series.values
    outcomes: List[FaultOutcome] = []
    crashes = [
        r for r in controller.records if r.kind == "host_crash" and not r.skipped
    ]
    for index, record in enumerate(crashes):
        pre = _level_before(times, values, record.fired_at)
        start = bisect.bisect_left(times, record.fired_at)
        # The dip window runs to the next crash (or the end of the run):
        # a later crash resets the baseline, so min/recovery stop there.
        end_time = (
            crashes[index + 1].fired_at if index + 1 < len(crashes) else float("inf")
        )
        end = bisect.bisect_left(times, end_time)
        window = values[start:end]
        min_live = min(window) if window else pre
        recovered_at: Optional[float] = None
        for i in range(start, end):
            if values[i] >= pre:
                recovered_at = times[i]
                break
        outcomes.append(
            FaultOutcome(
                record=record, pre_fault_live=pre,
                min_live=min_live, recovered_at=recovered_at,
            )
        )
    return outcomes


def recovery_report(farm: Honeyfarm, controller: ChaosController) -> RecoveryReport:
    """Build the full recovery report for a chaos run."""
    return RecoveryReport(
        outcomes=fault_outcomes(farm, controller),
        ledger=packet_ledger(farm),
        records=list(controller.records),
        counters=dict(farm.metrics.counters()),
    )
