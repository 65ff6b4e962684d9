"""The dwell-time / capture-rate experiment: attackers vs deception.

One driver shared by the ``potemkin adversary`` CLI and the
``adversary`` section of ``benchmarks/perf_harness.py``: for each
deception arm (off / on) it runs one farm per scanner sophistication
tier plus one botnet campaign, all from the same root seed, and reports
the headline metric — attacker dwell time and capture rate vs
sophistication.

The expected shape (and what the benchmark gates on):

* deception **off**: tier-0/1 attackers exploit freely; tier-2/3
  fingerprinters read the monoculture + machine-identical timing and
  abort *before* committing malware — the farm captures nothing from
  exactly the attackers it most wants to study.
* deception **on**: personalities and reply timing decorrelate, the
  passive tells vanish, and tier-2 attackers walk in. Tier-3's active
  containment-echo test still fires unless containment is opened — but
  only after the sacrificial implant has already been captured.

Everything is seed-deterministic: running the experiment twice at one
seed must produce byte-identical reports (:func:`experiment_digest`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional, Tuple

from repro.adversary.botnet import BotnetCampaign
from repro.adversary.deception import DeceptionController
from repro.adversary.fingerprint import FingerprintScanner
from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress, Prefix
from repro.sim.rand import SeedSequence

__all__ = [
    "FINGERPRINT_TIERS",
    "experiment_digest",
    "run_adversary_experiment",
]

#: Tiers that actually fingerprint before exploiting — the population
#: the headline capture-rate comparison is about. Tier 0/1 attackers are
#: the naive control: deception costs some of their captures (a slice of
#: the randomized population is invulnerable) but they were never the
#: attackers a honeyfarm loses.
FINGERPRINT_TIERS = (2, 3)

DEFAULT_PREFIX = "10.18.0.0/24"
SCANNER_SOURCE = "198.51.100.77"
C2_SOURCE = "198.51.100.99"

#: Campaign timing inside each per-tier farm run.
AGENT_START = 0.5


def _farm_config(
    seed: int, deception: bool, prefix: str, containment: str
) -> HoneyfarmConfig:
    config = HoneyfarmConfig(
        prefixes=(prefix,),
        num_hosts=2,
        containment=containment,
        clone_jitter=0.0,
        idle_timeout_seconds=120.0,
        seed=seed,
    )
    if deception:
        config = DeceptionController.enable(config)
    return config


def _targets(prefix: str, count: int) -> Tuple[int, ...]:
    parsed = Prefix.parse(prefix)
    # Spread through the prefix so the deception pool is actually
    # sampled, skipping .0 (the network address).
    return tuple(
        parsed.address_at(3 + 7 * i) for i in range(count)
    )


def _run_scanner(
    seed: int,
    tier: int,
    deception: bool,
    duration: float,
    prefix: str,
    containment: str,
    num_targets: int,
) -> dict:
    config = _farm_config(seed, deception, prefix, containment)
    farm = Honeyfarm(config=config)
    rng = SeedSequence(seed).spawn("adversary").stream(f"scanner-{tier}")
    scanner = FingerprintScanner(
        farm=farm,
        rng=rng,
        source=IPAddress.parse(SCANNER_SOURCE),
        targets=_targets(prefix, num_targets),
        start=AGENT_START,
        deadline=duration,
        name=f"scanner-t{tier}",
        tier=tier,
    )
    scanner.attach()
    farm.run(until=duration)
    summary = scanner.report.summary()
    summary["capture_rate"] = len(scanner.report.captures) / num_targets
    summary["farm_infections"] = farm.infection_count()
    return summary


def _run_campaign(
    seed: int,
    deception: bool,
    duration: float,
    prefix: str,
    containment: str,
    num_targets: int,
) -> dict:
    config = _farm_config(seed, deception, prefix, containment)
    farm = Honeyfarm(config=config)
    rng = SeedSequence(seed).spawn("adversary").stream("campaign")
    campaign = BotnetCampaign(
        farm=farm,
        rng=rng,
        source=IPAddress.parse(C2_SOURCE),
        targets=_targets(prefix, num_targets),
        start=AGENT_START,
        deadline=duration,
        name="campaign",
    )
    campaign.attach()
    farm.run(until=duration)
    summary = campaign.report.summary()
    summary["capture_rate"] = len(campaign.report.captures) / num_targets
    summary["farm_infections"] = farm.infection_count()
    return summary


def run_adversary_experiment(
    seed: int = 1,
    tiers: Tuple[int, ...] = (0, 1, 2, 3),
    duration: float = 20.0,
    prefix: str = DEFAULT_PREFIX,
    containment: str = "reflect",
    num_targets: int = 8,
    include_botnet: bool = True,
) -> dict:
    """Run the full matrix and assemble the headline report."""
    arms: Dict[str, dict] = {}
    for deception in (False, True):
        arm_key = "on" if deception else "off"
        scanners = {
            str(tier): _run_scanner(
                seed, tier, deception, duration, prefix, containment,
                num_targets,
            )
            for tier in tiers
        }
        arm: dict = {"scanners": scanners}
        if include_botnet:
            arm["botnet"] = _run_campaign(
                seed, deception, duration, prefix, containment, num_targets
            )
        arm["fingerprint_captures"] = sum(
            len(scanners[str(t)]["captures"])
            for t in tiers if t in FINGERPRINT_TIERS
        )
        arm["total_captures"] = sum(
            len(s["captures"]) for s in scanners.values()
        )
        arm["abort_rate_by_tier"] = {
            str(t): 1.0 if scanners[str(t)]["verdict"] == "aborted" else 0.0
            for t in tiers
        }
        arms[arm_key] = arm
    headline = {
        "dwell_time_by_tier": {
            arm_key: {
                tier: arms[arm_key]["scanners"][tier]["dwell_time"]
                for tier in arms[arm_key]["scanners"]
            }
            for arm_key in arms
        },
        "capture_rate_by_tier": {
            arm_key: {
                tier: arms[arm_key]["scanners"][tier]["capture_rate"]
                for tier in arms[arm_key]["scanners"]
            }
            for arm_key in arms
        },
        "fingerprint_captures_off": arms["off"]["fingerprint_captures"],
        "fingerprint_captures_on": arms["on"]["fingerprint_captures"],
    }
    return {
        "seed": seed,
        "duration": duration,
        "prefix": prefix,
        "containment": containment,
        "num_targets": num_targets,
        "tiers": list(tiers),
        "arms": arms,
        "headline": headline,
    }


def experiment_digest(result: dict) -> str:
    """Canonical digest for the determinism gate (two runs at one seed
    must match bit-for-bit)."""
    return hashlib.sha256(
        json.dumps(result, sort_keys=True).encode()
    ).hexdigest()
