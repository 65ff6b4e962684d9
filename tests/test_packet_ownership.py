"""The aliasing oracle: one packet, one owner.

``repro.net.packet`` states the rule: a packet handed to a receiver
belongs to it, and the sender neither reads nor writes it afterwards; a
borrower keeps no reference past the call. The farm relies on that rule
to rewrite packets in place (the TTL at every hop, a reflected scan's
destination, a translated reply's source) instead of copying them.

This module checks the rule by running each world twice: once as is,
and once with every hand-off wrapped so that the receiver gets a copy
and the sender's original is scribbled (TTL 0, ports 0, destination 0)
the moment the call returns. A borrower gets a copy too, scribbled
after the call. A sender that reads a packet it gave away, a receiver
that relied on the sender's later writes, or a borrower that kept its
argument then changes a digest, a counter or a recorded event. Both
runs are made with the flight recorder off (the span lane may run) and
on (every event is compared).

The worlds are every ``tests/corpus/*.json`` scenario through
:func:`~repro.testing.worlds.world_matrix` (the stateless responder
excepted: it has no gateway), the federated
``tests/corpus/federation/cross_shard_storm.json`` on the in-process
lane, and two pinned scenarios for rewrites no corpus scenario reaches:
a worm that scans near itself under ``open`` containment (a scan that
lands in the farm takes the ALLOW path's hop), and a worm that
resolves through an *external* resolver under ``allow-dns`` (the only
way to reach the gateway's DNS redirect). The site tally asserts that
every in-place rewrite in the gateway ran.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro.core import containment, gateway as gateway_module
from repro.core.gateway import Gateway
from repro.core.honeyfarm import Honeyfarm
from repro.core.intershard import ShardRunner
from repro.fidelity.ladder import FidelityLadder
from repro.net import router as router_module
from repro.net.addr import IPAddress
from repro.net.flow import FlowTable
from repro.net.packet import Packet
from repro.obs import FlightRecorder, install, uninstall
from repro.services.dns import DnsServer
from repro.sim.engine import Simulator
from repro.testing import Scenario, ScenarioGenerator, WormWave, run_world, world_matrix
from repro.testing import worlds
from repro.testing.fedscenario import FederationScenario
from repro.workloads.worms import KNOWN_WORMS, WormSpec

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS = {path.stem: path for path in sorted(CORPUS_DIR.glob("*.json"))}
FEDERATION_STORM = CORPUS_DIR / "federation" / "cross_shard_storm.json"

#: Where the pinned world's captured worms send their DNS lookup: an
#: address outside the farm, so ``allow-dns`` redirects it.
EXTERNAL_RESOLVER = IPAddress.parse("192.0.2.53")

OPEN_LOCAL_SCAN = Scenario(
    seed=80, prefix_bits=20, duration=3.0, containment="open",
    telescope_rate=4.0, max_packets=60,
    worm_waves=(WormWave("nimda", start=0.2, duration=1.0, sources=2, rate=4.0),),
    name="open_local_scan",
)
DNS_REDIRECT = Scenario(
    seed=53, prefix_bits=26, duration=8.0, containment="allow-dns",
    telescope_rate=4.0, max_packets=200,
    worm_waves=(WormWave("blaster", start=0.5, duration=4.0, sources=4, rate=4.0),),
    name="allow_dns_redirect",
)

#: Each in-place rewrite in the gateway, and how a run shows it ran:
#: a counter, or the gateway method that handed the rewritten packet
#: to ``process_inbound``.
REWRITE_SITES = {
    "_reflect": ("counter", "gateway.outbound.reflected"),
    "ALLOW path": ("caller", "emit_from_vm"),
    "_route_reply": ("caller", "_route_reply"),
    "NAT-rewrite branch": ("counter", "gateway.outbound.nat_rewritten"),
    "_deliver_dns": ("counter", "gateway.outbound.dns_redirected"),
    "receive_intershard": ("caller", "receive_intershard"),
}


# --------------------------------------------------------------------- #
# The wrappers
# --------------------------------------------------------------------- #


def _scribble(packet: Packet) -> None:
    packet.ttl = 0
    packet.src_port = packet.dst_port = 0
    packet.dst = 0


def _copies(args: Tuple) -> List:
    return [copy.copy(a) if type(a) is Packet else a for a in args]


def _handed_over(call: Callable) -> Callable:
    """``call`` with each packet argument handed over: the receiver gets
    a copy, and the sender's original is scribbled once it returns."""

    def hand_over(*args: Any) -> Any:
        result = call(*_copies(args))
        for arg in args:
            if type(arg) is Packet:
                _scribble(arg)
        return result

    return hand_over


def _lent(call: Callable, kept: Callable[[Any], bool] = lambda result: False) -> Callable:
    """``call`` with each packet argument lent: the borrower gets a copy,
    scribbled once it returns unless ``kept(result)`` says the callee
    holds it by right."""

    def lend(*args: Any) -> Any:
        copies = _copies(args)
        result = call(*copies)
        if not kept(result):
            for arg in copies:
                if type(arg) is Packet:
                    _scribble(arg)
        return result

    return lend


def _callback_property(name: str, wrap: Callable[[Callable], Callable]) -> property:
    """A class-level stand-in for the gateway's callback attribute
    ``name``: assignments are kept aside, and reads see them wrapped."""
    key = f"_oracle_{name}"

    def get(self):
        callback = self.__dict__.get(key)
        return None if callback is None else wrap(callback)

    def set(self, callback) -> None:
        self.__dict__[key] = callback

    return property(get, set)


def _install_oracle(mp: pytest.MonkeyPatch, sites: Counter) -> None:
    """Wrap every hand-off and borrow of the ownership rule. Installed on
    the classes, before any farm is built: a farm binds methods such as
    ``emit_from_vm`` (its guests' ``transmit``) at construction."""
    process_inbound = _handed_over(Gateway.process_inbound)

    def tallied_process_inbound(self, packet: Packet) -> None:
        sites[sys._getframe(1).f_code.co_name] += 1
        process_inbound(self, packet)

    mp.setattr(Gateway, "process_inbound", tallied_process_inbound)
    for owner, name in (
        (Gateway, "receive_intershard"),
        (Gateway, "emit_from_vm"),
        (Honeyfarm, "deliver"),
        (Honeyfarm, "deliver_replay"),
        (DnsServer, "handle_query"),
        (ShardRunner, "send"),
        (Simulator, "schedule_at"),
    ):
        mp.setattr(owner, name, _handed_over(getattr(owner, name)))
    for module in (gateway_module, router_module):
        mp.setattr(module, "encapsulate", _handed_over(module.encapsulate))
    for name, wrap in (("external_sink", _handed_over), ("packet_tap", _lent)):
        mp.setattr(Gateway, name, _callback_property(name, wrap), raising=False)

    mp.setattr(FlowTable, "observe", _lent(FlowTable.observe))
    for policy in vars(containment).values():
        if isinstance(policy, type) and "decide" in vars(policy):
            mp.setattr(policy, "decide", _lent(policy.decide))
    # An absorbed packet joins its address's replay chain, a row of the
    # gateway's own address table; only a promoted one is merely lent.
    mp.setattr(
        FidelityLadder, "consider",
        _lent(FidelityLadder.consider, kept=lambda verdict: not verdict.promoted),
    )


# --------------------------------------------------------------------- #
# Running a world both ways
# --------------------------------------------------------------------- #

Outcome = Tuple[Any, Dict[str, int], List]


def _run_farm_world(scenario: Scenario, spec, trace, recorded: bool) -> Outcome:
    made: List[FlightRecorder] = []

    def recorder(capacity: int) -> FlightRecorder:
        made.append(FlightRecorder(capacity=capacity))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(worlds, "FlightRecorder", recorder)
        if not recorded:
            mp.setattr(worlds, "install", lambda __: None)
        obs = run_world(scenario, spec, trace=trace)
    return obs.digest(), obs.counters, list(made[0].events)


def _run_federation(scenario: FederationScenario, recorded: bool) -> Outcome:
    recorder = FlightRecorder(capacity=400_000)
    if recorded:
        install(recorder)
    try:
        result = scenario.run(workers=0)
    finally:
        uninstall()
    return result.reports, result.aggregate_counters(), list(recorder.events)


def _compare(world: str, plain: Outcome, wrapped: Outcome) -> List[str]:
    faults = []
    for what, left, right in zip(("digest", "counters"), plain, wrapped):
        if left != right:
            faults.append(f"{world}: the {what} moved")
    plain_events, wrapped_events = plain[2], wrapped[2]
    if plain_events != wrapped_events:
        at = next(
            (i for i, pair in enumerate(zip(plain_events, wrapped_events))
             if pair[0] != pair[1]),
            min(len(plain_events), len(wrapped_events)),
        )
        shown = lambda events: events[at] if at < len(events) else "<end>"
        faults.append(
            f"{world}: recorded event {at} moved:"
            f" {shown(plain_events)} -> {shown(wrapped_events)}"
        )
    return faults


def _both_ways(world: str, run: Callable[[bool], Outcome], sites: Counter) -> List[str]:
    faults = []
    for recorded in (False, True):
        label = f"{world} (recorder {'on' if recorded else 'off'})"
        plain = run(recorded)
        with pytest.MonkeyPatch.context() as mp:
            _install_oracle(mp, sites)
            wrapped = run(recorded)
        faults += _compare(label, plain, wrapped)
        for kind, name in REWRITE_SITES.values():
            if kind == "counter":
                sites[name] += wrapped[1].get(name, 0)
    return faults


def _scenario_oracle(scenario: Scenario, name: str, sites: Counter) -> List[str]:
    trace = scenario.build_trace()
    faults = []
    for spec in world_matrix(scenario):
        if spec.kind == "responder":
            continue
        faults += _both_ways(
            f"{name}/{spec.name}",
            lambda recorded: _run_farm_world(scenario, spec, trace, recorded),
            sites,
        )
    return faults


class _ExternalResolverWorm(WormSpec):
    """A worm whose captured guests look their rendezvous domain up at
    :data:`EXTERNAL_RESOLVER`, whatever resolver the farm offers."""

    def behavior(self, dns_server=None):
        return super().behavior(EXTERNAL_RESOLVER)


def _dns_redirect_oracle(sites: Counter) -> List[str]:
    blaster = KNOWN_WORMS["blaster"]
    worms = dict(KNOWN_WORMS, blaster=_ExternalResolverWorm(**{
        field.name: getattr(blaster, field.name) for field in dataclasses.fields(blaster)
    }))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(worlds, "KNOWN_WORMS", worms)
        return _scenario_oracle(DNS_REDIRECT, DNS_REDIRECT.name, sites)


def _oracle(case: str) -> Tuple[List[str], Counter]:
    """(faults, site tally) of one case."""
    sites: Counter = Counter()
    if case in CORPUS:
        scenario = Scenario.from_json(CORPUS[case].read_text())
        return _scenario_oracle(scenario, case, sites), sites
    if case == FEDERATION_STORM.stem:
        scenario = FederationScenario.from_json(FEDERATION_STORM.read_text())
        faults = _both_ways(
            f"{case}/in-process",
            lambda recorded: _run_federation(scenario, recorded),
            sites,
        )
        return faults, sites
    if case == OPEN_LOCAL_SCAN.name:
        return _scenario_oracle(OPEN_LOCAL_SCAN, case, sites), sites
    return _dns_redirect_oracle(sites), sites


CASES = [*CORPUS, FEDERATION_STORM.stem, OPEN_LOCAL_SCAN.name, DNS_REDIRECT.name]


@pytest.fixture(scope="module")
def oracle() -> Callable[[str], Tuple[List[str], Counter]]:
    """:func:`_oracle`, each case run once for the module's tests."""
    results: Dict[str, Tuple[List[str], Counter]] = {}

    def run(case: str) -> Tuple[List[str], Counter]:
        if case not in results:
            results[case] = _oracle(case)
        return results[case]

    return run


# --------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------- #


@pytest.mark.slow
@pytest.mark.parametrize("case", CASES)
def test_every_hand_off_can_be_a_copy(oracle, case: str) -> None:
    faults, __ = oracle(case)
    assert not faults, "\n".join(faults)


@pytest.mark.slow
def test_every_in_place_rewrite_site_ran(oracle) -> None:
    sites: Counter = Counter()
    for case in CASES:
        sites.update(oracle(case)[1])
    missing = [
        site for site, (__, name) in REWRITE_SITES.items() if sites[name] <= 0
    ]
    assert not missing, f"never ran under the oracle: {missing}"


def test_the_wrappers_scribble_what_was_given_away() -> None:
    """The wrappers themselves: a hand-off scribbles the sender's copy,
    a loan scribbles the borrower's, and a kept packet is left alone."""
    got: List[Packet] = []
    packet = Packet(1, 2, 6, 3, 4, payload="x")
    _handed_over(got.append)(packet)
    assert got[0] is not packet and (got[0].dst, got[0].ttl) == (2, 64)
    assert (packet.dst, packet.ttl, packet.src_port, packet.dst_port) == (0, 0, 0, 0)
    packet = Packet(1, 2, 6, 3, 4)
    _lent(got.append)(packet)
    assert got[1].ttl == 0 and packet.ttl == 64
    _lent(got.append, kept=lambda result: True)(packet)
    assert got[2].ttl == 64


@pytest.mark.fuzz
@pytest.mark.parametrize("index", range(30))
def test_generated_scenarios_keep_the_ownership_rule(index: int) -> None:
    scenario = ScenarioGenerator(4242).scenario(index)
    faults = _scenario_oracle(scenario, f"gen-4242-{index}", Counter())
    assert not faults, "\n".join(faults)
