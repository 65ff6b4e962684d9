"""Tests for the fidelity ladder: emulator parity, promotion, handoff.

The load-bearing suite here is :class:`TestEmulatorParity` — it pins,
packet by packet, that the emulator tier's replies are field-identical
to a running guest's, which is the premise behind the world-matrix
ladder-equivalence oracle and the reply-suppressed handoff replay.
"""

import pytest

from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.fidelity import (
    EmulatedSession,
    FidelityLadder,
    PROMOTE_PAYLOAD_BYTES,
    PROMOTE_STATE_DEPTH,
    TRIGGER_NAMES,
    emulator_replies,
    promotion_trigger,
    vuln_probe,
)
from repro.fidelity.emulator import FlowState
from repro.net.addr import IPAddress
from repro.net.packet import (
    ICMP_ECHO_REQUEST,
    Packet,
    TcpFlags,
    icmp_packet,
    tcp_packet,
    udp_packet,
)
from repro.obs import FlightRecorder, install, uninstall
from repro.services.guest import GuestHost
from repro.sim.rand import RandomStream
from repro.vmm.memory import GuestAddressSpace
from repro.vmm.vm import VirtualMachine

ATTACKER = IPAddress.parse("203.0.113.9")
VICTIM = IPAddress.parse("10.16.0.5")

PSH_ACK = TcpFlags.PSH | TcpFlags.ACK


def ladder_config(**overrides) -> HoneyfarmConfig:
    defaults = dict(
        prefixes=("10.16.0.0/24",), num_hosts=1, containment="drop-all",
        clone_jitter=0.0, seed=7, ladder=True,
    )
    defaults.update(overrides)
    return HoneyfarmConfig(**defaults)


def packet_fields(packet: Packet):
    """Everything guest-visible about a reply (identity excluded)."""
    return (
        str(packet.src), str(packet.dst), packet.protocol,
        packet.src_port, packet.dst_port, int(packet.flags),
        packet.icmp_type, packet.payload, packet.size, packet.ttl,
    )


@pytest.fixture
def vm(snapshot):
    vm = VirtualMachine(snapshot, GuestAddressSpace(snapshot.image), VICTIM, 0.0)
    vm.start(now=0.0)
    return vm


@pytest.fixture
def guest(vm, sim, registry):
    return GuestHost(
        vm=vm,
        personality=registry.get("windows-default"),
        catalog=registry.catalog,
        sim=sim,
        rng=RandomStream(1),
    )


#: Probes that must not infect windows-default (infection changes guest
#: behaviour, and the ladder promotes would-infect packets *before* the
#: emulator ever answers them).
PARITY_PROBES = [
    pytest.param(icmp_packet(ATTACKER, VICTIM), id="icmp-echo"),
    pytest.param(icmp_packet(ATTACKER, VICTIM, icmp_type=13), id="icmp-non-echo"),
    pytest.param(tcp_packet(ATTACKER, VICTIM, 1234, 445), id="tcp-syn-open"),
    pytest.param(tcp_packet(ATTACKER, VICTIM, 1234, 8080), id="tcp-syn-closed"),
    pytest.param(
        tcp_packet(ATTACKER, VICTIM, 1234, 80, flags=PSH_ACK, payload="GET /"),
        id="tcp-data-open",
    ),
    pytest.param(
        tcp_packet(ATTACKER, VICTIM, 1234, 8080, flags=TcpFlags.ACK),
        id="tcp-midstream-closed",
    ),
    pytest.param(
        tcp_packet(ATTACKER, VICTIM, 1234, 445, flags=PSH_ACK,
                   payload="banner:SMB"),
        id="tcp-response-payload",
    ),
    pytest.param(
        udp_packet(ATTACKER, VICTIM, 1234, 1434, payload="probe"),
        id="udp-open-banner",
    ),
    pytest.param(udp_packet(ATTACKER, VICTIM, 1234, 9999), id="udp-closed"),
    pytest.param(
        udp_packet(ATTACKER, VICTIM, 1234, 1434, payload="banner:MSSQL"),
        id="udp-response-payload",
    ),
    pytest.param(
        udp_packet(ATTACKER, VICTIM, 1234, 4000, payload="exploit:witty"),
        id="exploit-not-vulnerable",
    ),
    pytest.param(
        Packet(src=ATTACKER, dst=VICTIM, protocol=47, payload="gre?"),
        id="unknown-protocol",
    ),
]


class TestEmulatorParity:
    @pytest.mark.parametrize("probe", PARITY_PROBES)
    def test_replies_field_identical_to_guest(self, probe, guest, sim, registry):
        personality = registry.get("windows-default")
        emulated = emulator_replies(personality, probe)
        real = guest.handle_packet(probe, sim.now)
        assert [packet_fields(p) for p in emulated] == [
            packet_fields(p) for p in real
        ]
        assert guest.infection is None  # parity probes must not infect

    def test_parity_across_personalities(self, vm, sim, registry):
        probe = tcp_packet(ATTACKER, VICTIM, 1, 22)  # SSH: linux-only
        for name in registry.names():
            personality = registry.get(name)
            guest = GuestHost(
                vm=vm, personality=personality, catalog=registry.catalog,
                sim=sim, rng=RandomStream(3),
            )
            assert [packet_fields(p) for p in emulator_replies(personality, probe)] \
                == [packet_fields(p) for p in guest.handle_packet(probe, sim.now)]


class TestTriggers:
    def test_vuln_probe_matches_personality_surface(self, registry):
        catalog = registry.catalog
        windows = registry.get("windows-default")
        patched = registry.get("windows-patched")
        exploit = udp_packet(ATTACKER, VICTIM, 1, 1434, payload="exploit:slammer")
        assert vuln_probe(catalog, windows, exploit)
        assert promotion_trigger(catalog, windows, FlowState(), exploit) == "vuln_probe"
        assert not vuln_probe(catalog, patched, exploit)
        assert promotion_trigger(catalog, patched, FlowState(), exploit) is None
        benign = udp_packet(ATTACKER, VICTIM, 1, 1434, payload="probe")
        assert not vuln_probe(catalog, windows, benign)

    def test_payload_and_depth_thresholds(self, registry):
        assert (PROMOTE_PAYLOAD_BYTES, PROMOTE_STATE_DEPTH) == (512, 8)
        catalog = registry.catalog
        windows = registry.get("windows-default")
        flow = FlowState()
        flow.payload_bytes = 511
        flow.exchanges = 7
        probe = tcp_packet(ATTACKER, VICTIM, 1, 80, flags=PSH_ACK, payload="x")
        assert promotion_trigger(catalog, windows, flow, probe) is None
        flow.exchanges = 8
        assert promotion_trigger(catalog, windows, flow, probe) == "state_depth"
        flow.exchanges = 7
        flow.payload_bytes = 512
        assert promotion_trigger(catalog, windows, flow, probe) == "payload_bytes"

    def test_default_stack_order_and_ablation(self, registry):
        assert TRIGGER_NAMES == ("vuln_probe", "payload_bytes", "state_depth")
        # Priority is that order: a packet every rule accepts is
        # attributed to the most meaningful one.
        catalog = registry.catalog
        windows = registry.get("windows-default")
        flow = FlowState()
        flow.payload_bytes = 512
        flow.exchanges = 8
        exploit = udp_packet(ATTACKER, VICTIM, 1, 1434, payload="exploit:slammer")
        assert promotion_trigger(catalog, windows, flow, exploit) == "vuln_probe"
        benign = udp_packet(ATTACKER, VICTIM, 1, 1434, payload="probe")
        assert promotion_trigger(catalog, windows, flow, benign) == "payload_bytes"


class TestEmulatedSession:
    def test_note_tracks_prospective_flow_state(self, registry):
        session = EmulatedSession(registry.get("windows-default"), 0.0)
        probe = tcp_packet(ATTACKER, VICTIM, 1234, 80, flags=PSH_ACK, payload="GET /")
        state, created = session.note(probe, 1.0)
        assert created and state.exchanges == 1 and state.payload_bytes == 5
        state2, created2 = session.note(probe, 2.0)
        assert state2 is state and not created2 and state.exchanges == 2
        assert session.last_seen == 2.0
        # Response payloads and SYNs don't count as exchanges.
        session.note(tcp_packet(ATTACKER, VICTIM, 1234, 80), 3.0)
        session.note(
            tcp_packet(ATTACKER, VICTIM, 1234, 80, flags=PSH_ACK,
                       payload="banner:x"), 4.0,
        )
        assert state.exchanges == 2

    def test_banner_tracked_from_replies(self, registry):
        session = EmulatedSession(registry.get("windows-default"), 0.0)
        session.emulate(tcp_packet(ATTACKER, VICTIM, 1, 445))
        assert session.banner is None  # SYN/ACK carries no banner
        session.emulate(tcp_packet(ATTACKER, VICTIM, 1, 445, flags=PSH_ACK,
                                   payload="hello"))
        assert session.banner == "SMB"


class TestFidelityLadderUnit:
    def make_ladder(self, sim, registry):
        farm = Honeyfarm(sim=sim, config=ladder_config(), personalities=registry)
        assert farm.ladder is not None
        return farm.ladder

    def test_absorbs_until_vuln_probe_promotes(self, sim, registry):
        ladder = self.make_ladder(sim, registry)
        syn = tcp_packet(ATTACKER, VICTIM, 1, 445)
        verdict = ladder.consider(syn, 0.0)
        assert not verdict.promoted and verdict.replies[0].flags.is_synack
        exploit = tcp_packet(ATTACKER, VICTIM, 1, 445, flags=PSH_ACK,
                             payload="exploit:sasser")
        verdict = ladder.consider(exploit, 0.5)
        assert verdict.promoted and verdict.trigger == "vuln_probe"
        assert verdict.replies == []  # the trigger packet is never emulated
        handoff = ladder.take_handoff(VICTIM)
        assert handoff is not None
        assert [p.packet_id for p in handoff.buffered] == [syn.packet_id]
        assert handoff.trigger == "vuln_probe"

    def test_handoff_buffer_bounded(self, sim, registry):
        ladder = self.make_ladder(sim, registry)
        assert FidelityLadder.MAX_HANDOFF_PACKETS == 64
        sent = [icmp_packet(ATTACKER, VICTIM) for __ in range(66)]
        for i, packet in enumerate(sent):
            ladder.consider(packet, float(i))
        session = ladder.sessions[VICTIM]
        # The oldest two were evicted; the most recent 64 are kept in order.
        assert session.buffered == sent[2:]
        assert session.buffer_dropped == 2
        assert ladder.metrics.counters()["ladder.handoff_buffer_dropped"] == 2

    def test_state_depth_promotes_deep_conversation(self, sim, registry):
        ladder = self.make_ladder(sim, registry)
        # 8 x 5 payload bytes stays far below the byte threshold.
        probe = tcp_packet(ATTACKER, VICTIM, 1, 80, flags=PSH_ACK, payload="GET /")
        for exchange in range(7):
            assert not ladder.consider(probe, 0.1 * exchange).promoted
        verdict = ladder.consider(probe, 0.7)
        assert verdict.promoted and verdict.trigger == "state_depth"

    def test_sessions_expire_on_sweep(self, sim, registry):
        ladder = self.make_ladder(sim, registry)
        ladder.consider(icmp_packet(ATTACKER, VICTIM), 0.0)
        assert ladder.live_sessions == 1
        assert ladder.sweep(ladder.session_idle_timeout + 1.0) == 1
        assert ladder.live_sessions == 0
        assert ladder.metrics.counters()["ladder.sessions_expired"] == 1


def run_ladder_farm(config, packets, until=5.0, registry=None):
    """Drive a ladder farm over scheduled (time, packet) pairs."""
    farm = Honeyfarm(config=config)
    for at, packet in packets:
        farm.sim.schedule(at, farm.inject, packet)
    farm.run(until=until)
    return farm


class TestLadderFarm:
    def test_benign_probes_never_clone(self):
        packets = [
            (0.1, tcp_packet(ATTACKER, VICTIM, 1, 445)),
            (0.2, icmp_packet(ATTACKER, IPAddress.parse("10.16.0.6"))),
            (0.3, udp_packet(ATTACKER, IPAddress.parse("10.16.0.7"), 1, 9999)),
            (0.4, Packet(src=ATTACKER, dst=VICTIM, protocol=47)),
        ]
        farm = run_ladder_farm(ladder_config(), packets)
        counters = farm.metrics.counters()
        assert counters["gateway.emulated"] == 4
        assert counters.get("farm.vms_spawned", 0) == 0
        assert farm.live_vms == 0
        # 3 of the 4 probes got answers; the unknown protocol got none.
        assert counters["gateway.ladder_replies_out"] == 3

    def test_promotion_fires_exactly_once_per_flow(self):
        exploit = tcp_packet(ATTACKER, VICTIM, 1, 445, flags=PSH_ACK,
                             payload="exploit:sasser")
        packets = [
            (0.1, tcp_packet(ATTACKER, VICTIM, 1, 445)),
            (0.4, exploit),
            # More traffic on the same flow after promotion: the address
            # is VM-bound now, so the ladder never sees it again.
            (2.0, tcp_packet(ATTACKER, VICTIM, 1, 445, flags=PSH_ACK,
                             payload="more data")),
            (2.1, exploit),
        ]
        farm = run_ladder_farm(ladder_config(), packets)
        counters = farm.metrics.counters()
        assert counters["ladder.promotions"] == 1
        assert counters["ladder.promotions.vuln_probe"] == 1
        assert counters["ladder.handoffs_completed"] == 1
        assert counters["ladder.handoff_packets_replayed"] == 1  # the SYN
        assert counters["farm.infections"] == 1

    def test_promotion_and_handoff_events_emitted(self):
        recorder = FlightRecorder(capacity=10_000)
        install(recorder)
        try:
            farm = run_ladder_farm(ladder_config(), [
                (0.1, tcp_packet(ATTACKER, VICTIM, 1, 445)),
                (0.4, tcp_packet(ATTACKER, VICTIM, 1, 445, flags=PSH_ACK,
                                 payload="exploit:sasser")),
            ])
        finally:
            uninstall()
        events = [
            (sub, ev, fields)
            for __, __, sub, ev, fields in recorder.events
            if sub == "ladder"
        ]
        kinds = [ev for __, ev, __ in events]
        assert "promotion" in kinds and "handoff" in kinds
        promotion = next(f for __, ev, f in events if ev == "promotion")
        assert promotion["trigger"] == "vuln_probe"
        assert promotion["ip"] == str(VICTIM)
        handoff = next(f for __, ev, f in events if ev == "handoff")
        assert handoff["packets"] == 1
        assert handoff["latency"] > 0
        # The emulated verdict rides the normal dispatch stream.
        dispatches = [
            fields.get("verdict")
            for __, __, sub, ev, fields in recorder.events
            if sub == "gateway" and ev == "dispatch"
        ]
        assert dispatches.count("emulated") == 1  # the SYN

    def test_packet_ledger_balances_with_emulated_bucket(self):
        from repro.analysis.recovery import packet_ledger

        packets = [
            (0.1, tcp_packet(ATTACKER, VICTIM, 1, 445)),
            (0.2, icmp_packet(ATTACKER, IPAddress.parse("10.16.0.8"))),
            (0.4, tcp_packet(ATTACKER, VICTIM, 1, 445, flags=PSH_ACK,
                             payload="exploit:sasser")),
        ]
        farm = run_ladder_farm(ladder_config(), packets)
        ledger = packet_ledger(farm)
        assert ledger.emulated == 2
        assert ledger.delivered >= 1
        assert ledger.leaked == 0
        assert "emulated (ladder)" in _render_ledger(ledger)

    def test_clone_always_ablation_spawns_for_everything(self):
        config = ladder_config(ladder=False)  # the ablation knob
        farm = run_ladder_farm(config, [
            (0.1, tcp_packet(ATTACKER, VICTIM, 1, 445)),
        ])
        assert farm.ladder is None
        assert farm.metrics.counters()["farm.vms_spawned"] == 1
        assert farm.metrics.counters().get("gateway.emulated", 0) == 0

    def test_sessions_swept_by_farm_daemon(self):
        config = ladder_config(
            flow_idle_timeout_seconds=2.0, idle_timeout_seconds=2.0,
        )
        farm = run_ladder_farm(
            config, [(0.1, tcp_packet(ATTACKER, VICTIM, 1, 445))], until=10.0,
        )
        assert farm.ladder.live_sessions == 0
        assert farm.metrics.counters()["ladder.sessions_expired"] == 1


def _render_ledger(ledger):
    from repro.analysis.recovery import RecoveryReport

    return RecoveryReport(
        outcomes=[], ledger=ledger, records=[], counters={}
    )._ledger_section()


class TestHandoffCloneFaultRace:
    def test_clone_fault_abandons_handoff_then_recovers(self):
        """The chaos layer fails the promoted flow's clone mid-handoff:
        the handoff is abandoned (demotion), the ledger still balances,
        and the respawned address can serve (and promote) again."""
        config = ladder_config()
        farm = Honeyfarm(config=config)

        fired = []

        def fail_once(vm):
            if not fired:
                fired.append(vm.vm_id)
                return "injected"
            return None

        farm.clone_engine.fault_hook = fail_once
        exploit = tcp_packet(ATTACKER, VICTIM, 1, 445, flags=PSH_ACK,
                             payload="exploit:sasser")
        recorder = FlightRecorder(capacity=10_000)
        install(recorder)
        try:
            farm.sim.schedule(0.1, farm.inject, tcp_packet(ATTACKER, VICTIM, 1, 445))
            farm.sim.schedule(0.4, farm.inject, exploit)
            # After the respawn heals the address, attack again.
            farm.sim.schedule(8.0, farm.inject, exploit)
            farm.run(until=20.0)
        finally:
            uninstall()

        counters = farm.metrics.counters()
        assert fired, "fault hook never fired"
        assert counters["ladder.handoffs_abandoned"] == 1
        assert counters["ladder.demotions"] >= 1
        demotions = [
            fields
            for __, __, sub, ev, fields in recorder.events
            if sub == "ladder" and ev == "demotion"
        ]
        assert any(f["cause"] == "clone_failed" and f["abandoned_handoff"]
                   for f in demotions)
        # The failed clone triggers a respawn, which leaves the address
        # VM-bound — the second exploit bypasses the ladder entirely and
        # infects via direct delivery. No double promotion.
        assert counters["ladder.promotions"] == 1
        assert counters["farm.respawns"] == 1
        assert counters["farm.infections"] == 1
        assert counters["gateway.delivered"] == 1
        from repro.analysis.recovery import packet_ledger
        assert packet_ledger(farm).leaked == 0


class TestLadderVsCloneAlwaysEquivalence:
    def test_promoted_flow_guest_visibly_identical(self):
        """Direct (non-matrix) check of the headline claim: the external
        reply stream and captured infections of a ladder farm match a
        clone-always farm, packet for packet."""
        session = [
            (0.1, tcp_packet(ATTACKER, VICTIM, 1, 445)),
            (0.3, tcp_packet(ATTACKER, VICTIM, 1, 445, flags=PSH_ACK,
                             payload="smb probe")),
            (0.6, tcp_packet(ATTACKER, VICTIM, 1, 445, flags=PSH_ACK,
                             payload="exploit:sasser")),
            (0.9, tcp_packet(ATTACKER, VICTIM, 1, 445, flags=PSH_ACK,
                             payload="post-infection data")),
            (1.0, icmp_packet(ATTACKER, IPAddress.parse("10.16.0.99"))),
        ]

        def run(ladder_on):
            config = ladder_config(ladder=ladder_on)
            farm = Honeyfarm(config=config)
            external = []
            farm.gateway.external_sink = lambda p: external.append(
                (str(p.src), str(p.dst), p.protocol, p.src_port, p.dst_port,
                 int(p.flags), p.icmp_type, p.payload, p.size)
            )
            for at, packet in session:
                farm.sim.schedule(at, farm.inject, packet)
            farm.run(until=6.0)
            infections = sorted(
                (str(r.victim), r.worm_name, r.generation)
                for r in farm.infections
            )
            return sorted(external), infections

        assert run(ladder_on=True) == run(ladder_on=False)
