"""An address inside the farm is a plain ``int``.

Packets, the flow table, the VM side's maps and the inter-shard codec
carry address values. ``IPAddress`` (an ``int`` that prints as a dotted
quad) is built only where a report prints an address as it is: the
``source`` and ``victim`` of an infection record. Text is written only
at the edges, by ``dotted``, so every address a flight-recorder event
names is a dotted quad.
"""

from __future__ import annotations

import re

from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress
from repro.net.packet import Packet, icmp_packet, tcp_packet, udp_packet
from repro.obs import recording
from repro.testing.scenario import Scenario, WormWave
from repro.workloads.trace import replay_into_farm
from repro.workloads.worms import KNOWN_WORMS

DOTTED = re.compile(r"(25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)(\.(25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)){3}")

#: Recorder fields that name an address.
ADDRESS_FIELDS = ("src", "dst", "ip", "victim")


def _storm(containment: str) -> Scenario:
    """A smoke-size storm: radiation with exploit sources, plus two worm
    waves whose infections scan on."""
    return Scenario(
        seed=20261017,
        prefix_bits=26,
        duration=10.0,
        telescope_rate=20.0,
        exploit_fraction=0.3,
        max_packets=600,
        containment=containment,
        vm_image_mb=4,
        worm_waves=(
            WormWave("slammer", start=1.0, duration=4.0, rate=3.0),
            WormWave("codered", start=2.0, duration=4.0, rate=3.0),
        ),
    )


def _farm(scenario: Scenario, ladder: bool) -> Honeyfarm:
    farm = Honeyfarm(scenario.farm_config(ladder=ladder))
    dns = farm.config.dns_address()
    for worm in KNOWN_WORMS.values():
        farm.register_worm(worm.with_scan_rate(min(worm.scan_rate, 2.0)).behavior(dns))
    return farm


def test_per_packet_lane_builds_an_address_only_per_infection(monkeypatch):
    """Ladder off, worms on: after set-up, the only ``IPAddress`` objects
    a storm builds are each infection record's ``source`` and
    ``victim``, however many packets the gateway, the guests and the
    worms move."""
    scenario = _storm("reflect")
    trace = scenario.build_trace()
    farm = _farm(scenario, ladder=False)
    built = []
    new = IPAddress.__new__

    def counting_new(cls, value):
        built.append(value)
        return new(cls, value)

    monkeypatch.setattr(IPAddress, "__new__", staticmethod(counting_new))
    replay_into_farm(farm, trace, batched=True)
    farm.run(until=scenario.duration + 2.0)

    infections = farm.infection_count()
    packets = farm.metrics.counters()["gateway.packets_in"]
    assert infections > 0 and packets > 10 * infections
    assert len(built) == 2 * infections
    assert all(type(r.victim) is IPAddress for r in farm.infections)


def test_recorder_names_every_address_as_a_dotted_quad():
    """Ladder on, worms on, with reflection: clones, promotions,
    handoffs and containment verdicts all fire, and every address field
    of every event is a dotted quad, never the bare value."""
    scenario = _storm("reflect")
    trace = scenario.build_trace()
    farm = _farm(scenario, ladder=True)
    with recording(capacity=500_000) as recorder:
        replay_into_farm(farm, trace, batched=True)
        farm.run(until=scenario.duration + 2.0)
    assert recorder.evicted == 0
    kinds = {(subsystem, event) for __, __, subsystem, event, __ in recorder.events}
    for kind in (
        ("clone", "started"), ("ladder", "promotion"), ("ladder", "handoff"),
        ("gateway", "containment"), ("gateway", "dispatch"),
    ):
        assert kind in kinds, kind
    checked = 0
    for __, __, subsystem, event, fields in recorder.events:
        for name in ADDRESS_FIELDS:
            if name in fields:
                assert DOTTED.fullmatch(fields[name]), (subsystem, event, name, fields)
                checked += 1
    assert checked > 100


def test_describe_prints_dotted_quads():
    src, dst = IPAddress.parse("203.0.113.9"), IPAddress.parse("10.16.0.25")
    for packet in (
        tcp_packet(int(src), int(dst), 4000, 445),
        udp_packet(int(src), int(dst), 4000, 1434, payload="exploit:slammer"),
        icmp_packet(int(src), int(dst)),
        Packet(int(src), int(dst), 47),
    ):
        text = packet.describe()
        assert "203.0.113.9" in text and "10.16.0.25" in text, text
        assert str(int(src)) not in text, text
