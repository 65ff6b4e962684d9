"""The four storms, and how one repetition of each is set up and run.

Every workload is generated from ``(name, seed, size)`` alone; the farm
under test receives only the resulting ``TraceRecord`` lists and configs.
README.md says why each workload exists and which layers it stresses;
the sizes below are the ``bench`` sizes every reported number uses and
the ``smoke`` sizes the benchmark's own tests use.

A prepared workload exposes the same three steps to the repetition
driver (``rep.py``):

* construction — trace generation and farm / federation construction,
  all of it untimed set-up (``generate_s`` records the trace share);
* :meth:`timed` — the timed region, exactly the calls a user's replay
  makes;
* :meth:`reports` — the simulated outcome, in the per-shard report shape
  the federation already uses; :func:`unaccounted` counts the packets
  its conservation ledger cannot place and :func:`sim_digest` hashes it.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.analysis.recovery import packet_ledger
from repro.core.federation import FederatedHoneyfarm
from repro.core.honeyfarm import Honeyfarm
from repro.core.parallel import FederationResult, ParallelFederation
from repro.testing.fedscenario import FederationScenario
from repro.testing.scenario import Scenario, WormWave
from repro.workloads import trace as trace_module
from repro.workloads.worms import KNOWN_WORMS

__all__ = [
    "FED_WORKERS",
    "SIZES",
    "WORKLOADS",
    "FederationRun",
    "SingleFarmRun",
    "packets_in",
    "prepare",
    "sim_digest",
    "unaccounted",
]

SIZES = ("bench", "smoke")

#: Simulated seconds a single farm keeps running after the trace ends, so
#: in-flight clones finish and the last idle sweeps fire.
COOLDOWN_SECONDS = 5.0

#: fed_reflect's worker count is fixed (not ``nproc``) so the number is
#: comparable between boxes; load never uses more workers than this.
FED_WORKERS = 2

# Where the exploit traffic of ``vm_churn`` and ``mixed_storm`` comes
# from. The telescope's exploit sources have Pareto session sizes, so
# the number of infections (and, with the ladder on, of clones) they
# cause swings by 10-20 % from seed to seed — more than any bound this
# benchmark could then resolve. Worm waves scan as a Poisson process, so
# the same demand drawn from waves varies by about 3 %. The telescope
# therefore carries no exploit sources on these two workloads and waves,
# sized to end before ``max_packets`` cuts the trace, carry the exploits.
# See README "Workloads".

#: In-farm scan rate of captured worms on ``mixed_storm``. Under reflect
#: containment every scan lands on another dark address, so the epidemic
#: grows exponentially; at the worms' native rates (or even 0.05/s) it
#: saturates the /16 within the run and the workload measures nothing but
#: clones, and at 0.01/s it still multiplies the wave demand by 1.5 with
#: an 11 % seed-to-seed swing. 0.002/s keeps reflection and NAT on the
#: path with the clone count set by the trace, not by the epidemic.
MIXED_WORM_SCAN_RATE = 0.002


def _scenario(name: str, seed: int, size: str):
    """The scenario object for ``name`` — sizes are measured, see README.
    ``smoke`` shrinks every duration and packet cap by the same factor,
    so waves stay inside the part of the trace ``max_packets`` keeps."""
    scale = 0.05 if size == "smoke" else 1.0
    if name == "radiation_span":
        return Scenario(
            seed=seed, prefix_bits=16, vm_image_mb=4, containment="drop-all",
            duration=480.0 * scale,
            telescope_rate=1200.0, exploit_fraction=0.0,
            max_packets=int(600_000 * scale),
            name=name,
        )
    if name == "vm_churn":
        return Scenario(
            seed=seed, prefix_bits=16, vm_image_mb=4, containment="reflect",
            churn=True, num_hosts=4,
            duration=60.0 * scale,
            telescope_rate=200.0, exploit_fraction=0.0,
            max_packets=int(20_000 * scale),
            worm_waves=(
                WormWave("slammer", start=1.0 * scale, duration=15.0 * scale,
                         sources=8, rate=5.0),
            ),
            name=name,
        )
    if name == "mixed_storm":
        return Scenario(
            seed=seed, prefix_bits=16, vm_image_mb=4, containment="reflect",
            churn=True, num_hosts=4,
            duration=60.0 * scale,
            telescope_rate=600.0, exploit_fraction=0.0,
            max_packets=int(100_000 * scale),
            worm_waves=(
                WormWave("slammer", start=1.0 * scale, duration=20.0 * scale,
                         sources=12, rate=4.0),
                WormWave("codered", start=2.0 * scale, duration=20.0 * scale,
                         sources=6, rate=4.0),
            ),
            name=name,
        )
    if name == "fed_reflect":
        smoke = size == "smoke"
        return FederationScenario(
            seed=seed, shards=4, shard_bits=26 if smoke else 24,
            duration=6.0 if smoke else 20.0,
            latency=0.25, telescope_rate=2048.0, exploit_fraction=0.4,
            probes_max=100,
            max_packets_per_shard=200 if smoke else 2_000,
            containment="reflect",
            worms=tuple((worm, 2.0) for worm in sorted(KNOWN_WORMS)),
            name=name,
        )
    raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")


#: name -> (uses the fidelity ladder, registers in-farm worm behaviours).
#: fed_reflect's knobs live on its FederationScenario.
WORKLOADS: Dict[str, Optional[Dict[str, bool]]] = {
    "radiation_span": {"ladder": True, "worms": False},
    "vm_churn": {"ladder": False, "worms": False},
    "mixed_storm": {"ladder": True, "worms": True},
    "fed_reflect": None,
}


def sim_digest(reports: List[Dict[str, Any]]) -> str:
    """sha256 over every simulated statistic of a run: per shard, the
    metric counters, ledger, infection tuples, events processed and final
    clock. A change meant only to speed the simulator up must leave it
    identical."""
    blob = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _farm_report(farm: Honeyfarm) -> Dict[str, Any]:
    """One farm's outcome in the shape of ``ShardRunner.report`` (minus
    the inter-shard block), built from public state only."""
    ledger = packet_ledger(farm)
    nat = farm.gateway.nat
    return {
        "shard": 0,
        "prefixes": list(farm.config.prefixes),
        "sim_now": farm.sim.now,
        "events_processed": farm.sim.events_processed,
        "live_vms": farm.live_vms,
        "counters": dict(farm.metrics.counters()),
        "infections": [
            (r.time, str(r.victim), str(r.source), r.worm_name, r.generation)
            for r in farm.infections
        ],
        "ledger": {
            "packets_in": ledger.packets_in,
            "delivered": ledger.delivered,
            "emulated": ledger.emulated,
            "refused": ledger.refused,
            "dropped_by_cause": dict(ledger.dropped_by_cause),
            "still_pending": ledger.still_pending,
            "leaked": ledger.leaked,
        },
        "nat": {
            "reply_translations": nat.translations,
            "outbound_translations": nat.outbound_translations,
            "entries": len(nat),
        },
    }


def packets_in(reports: List[Dict[str, Any]]) -> int:
    return sum(r["ledger"]["packets_in"] for r in reports)


def unaccounted(reports: List[Dict[str, Any]]) -> int:
    """Packets no ledger bucket holds, plus inter-shard messages that
    were neither received nor left in a mailbox."""
    lost = sum(abs(r["ledger"]["leaked"]) for r in reports)
    flows = [r["intershard"] for r in reports if "intershard" in r]
    if flows:
        sent = sum(f["sent"] for f in flows)
        landed = sum(f["received"] + f["undelivered"] for f in flows)
        lost += abs(sent - landed)
    return lost


class SingleFarmRun:
    """One farm, one batched trace replay."""

    def __init__(self, scenario: Scenario, ladder: bool, worms: bool) -> None:
        self.scenario = scenario
        started = perf_counter()
        self.trace = scenario.build_trace()
        self.generate_s = perf_counter() - started
        self.farm = Honeyfarm(scenario.farm_config(ladder=ladder))
        if worms:
            dns = self.farm.config.dns_address()
            for worm in KNOWN_WORMS.values():
                throttled = worm.with_scan_rate(MIXED_WORM_SCAN_RATE)
                self.farm.register_worm(throttled.behavior(dns))

    def timed(self) -> None:
        # Through the module attribute, so the traced pass's wrapper
        # around ``replay_into_farm`` is the one called.
        trace_module.replay_into_farm(self.farm, self.trace, batched=True)
        self.farm.run(until=self.scenario.duration + COOLDOWN_SECONDS)

    def farms(self) -> List[Honeyfarm]:
        return [self.farm]

    def reports(self) -> List[Dict[str, Any]]:
        return [_farm_report(self.farm)]


class FederationRun:
    """Four shards over ``workers`` processes, pre-built shard records;
    plus the in-process reference lane over the same inputs."""

    def __init__(self, scenario: FederationScenario, workers: int) -> None:
        self.scenario = scenario
        self.workers = workers
        started = perf_counter()
        self.shard_records = scenario.telescope().build_all()
        self.generate_s = perf_counter() - started
        self.federation = ParallelFederation(
            scenario.shard_configs(),
            scenario.interlink(),
            workers,
            shard_records=self.shard_records,
            worms=scenario.worms,
        )
        self.start_method = self.federation.start_method
        self.result: Optional[FederationResult] = None
        self.reference: Optional[FederatedHoneyfarm] = None

    def timed(self) -> None:
        self.result = self.federation.run(self.scenario.duration)

    def reports(self) -> List[Dict[str, Any]]:
        assert self.result is not None, "timed() has not run"
        self.result.assert_packet_conservation()
        return self.result.reports

    def build_reference(self) -> FederatedHoneyfarm:
        """A fresh in-process reference federation (untimed set-up)."""
        self.reference = FederatedHoneyfarm(
            self.scenario.shard_configs(),
            interlink=self.scenario.interlink(),
            worms=self.scenario.worms,
        )
        return self.reference

    def timed_reference(self) -> None:
        """The reference lane's counterpart of :meth:`timed`."""
        reference = self.reference
        assert reference is not None, "build_reference() has not run"
        for shard, records in enumerate(self.shard_records):
            reference.attach_shard_records(shard, records, batched=True)
        reference.run(until=self.scenario.duration)

    def farms(self) -> List[Honeyfarm]:
        assert self.reference is not None, "build_reference() has not run"
        return list(self.reference.members)

    def reference_reports(self) -> List[Dict[str, Any]]:
        assert self.reference is not None, "build_reference() has not run"
        self.reference.assert_packet_conservation()
        return self.reference.shard_reports()


def prepare(name: str, seed: int, size: str, workers: int = FED_WORKERS):
    """Set one repetition of ``name`` up, ready for :meth:`timed`."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; known: {SIZES}")
    scenario = _scenario(name, seed, size)
    knobs = WORKLOADS[name]
    if knobs is None:
        return FederationRun(scenario, workers)
    return SingleFarmRun(scenario, **knobs)
