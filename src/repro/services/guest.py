"""The per-VM guest model: answer probes, get infected, dirty memory.

A :class:`GuestHost` stands in for the operating system running inside a
honeypot VM. It is deliberately a *protocol-level* model — detailed enough
that the three properties the experiments measure emerge naturally:

* **Fidelity** — probes are answered the way the personality's real stack
  would (SYN/ACK or RST, banners, echo replies, port-unreachables), and a
  matching exploit genuinely *compromises* the guest, changing its
  subsequent behaviour.
* **Memory economics** — every activity dirties pages in the VM's CoW
  address space: a base working set on first activity, a few pages per
  connection, a worm body on infection. Private-footprint results come
  straight from this accounting.
* **Containment dynamics** — an infected guest emits outbound scans
  (and optionally a DNS lookup first), which is exactly the traffic the
  gateway's containment policy must handle.

The guest never talks to the network directly: inbound packets arrive via
:meth:`GuestHost.handle_packet` (returning synchronous replies) and
asynchronous traffic (worm scans) goes through the ``transmit`` callback
the honeyfarm installs — which is how all outbound traffic ends up in
front of the containment policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.addr import IPAddress
from repro.net.packet import (
    ICMP_ECHO_REQUEST,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    Packet,
    TcpFlags,
    udp_packet,
)
from repro.services.personality import Personality
from repro.services.vulnerabilities import VulnerabilityCatalog
from repro.sim.engine import Simulator
from repro.sim.process import Process, Sleep, spawn
from repro.sim.rand import RandomStream, stable_hash
from repro.vmm.memory import PINNED, OutOfMemoryError
from repro.vmm.vm import VirtualMachine, VMState

__all__ = ["ScanBehavior", "InfectionRecord", "GuestHost", "service_replies"]

ICMP_DEST_UNREACHABLE = 3

BANNER_PREFIX = "banner:"

#: Payload prefixes that mark a packet as a *response*. Responses are
#: consumed silently by whoever receives them — real application protocols
#: do not answer answers, and modelling that is what prevents two
#: honeypots from ping-ponging banners through the reflection path
#: forever (a synchronous packet storm the first prototype hit).
_RESPONSE_PREFIXES = (BANNER_PREFIX, "dns:answer")

# Flag combinations the TCP answer path stamps on every reply; IntFlag's
# ``|`` constructs a new member per call, so build each combination once.
_SYN_ACK = TcpFlags.SYN | TcpFlags.ACK
_RST_ACK = TcpFlags.RST | TcpFlags.ACK
_PSH_ACK = TcpFlags.PSH | TcpFlags.ACK


def _is_response_payload(payload: str) -> bool:
    return payload.startswith(_RESPONSE_PREFIXES)


def service_replies(personality: Personality, packet: Packet) -> List[Packet]:
    """The synchronous replies a running, uncompromised host of
    ``personality`` sends for ``packet``: the one statement of how a
    personality answers.

    Pure — no guest, no memory, no infection. :class:`GuestHost` answers
    through it after applying a request's side effects, and the emulator
    tier (where it is known as ``emulator_replies``), the span lane and
    the stateless-responder baseline answer through it with no VM at
    all, so the tiers cannot be told apart by their replies. An exploit
    the personality is not vulnerable to bounces off with a banner.
    """
    if packet.is_icmp:
        if packet.icmp_type != ICMP_ECHO_REQUEST:
            return []
        return [packet.reply_template(size=packet.size)]
    if packet.is_tcp:
        service = personality.service_at(PROTO_TCP, packet.dst_port)
        if packet.flags.is_syn:
            handshake = packet.reply_template()
            handshake.flags = _RST_ACK if service is None else _SYN_ACK
            return [handshake]
        if service is None:
            return []  # mid-stream segment to a closed port: silently drop
        if _is_response_payload(packet.payload):
            return []  # responses never elicit responses (no reply loops)
        if packet.payload and service.banner:
            banner = packet.reply_template(payload=f"{BANNER_PREFIX}{service.banner}")
            banner.flags = _PSH_ACK
            banner.size = 40 + len(service.banner)
            return [banner]
        return []
    if packet.is_udp:
        if _is_response_payload(packet.payload):
            return []  # responses never elicit responses (no reply loops)
        service = personality.service_at(PROTO_UDP, packet.dst_port)
        if service is None:
            unreachable = packet.reply_template()
            unreachable.protocol = PROTO_ICMP
            unreachable.icmp_type = ICMP_DEST_UNREACHABLE
            unreachable.size = 56
            return [unreachable]
        if service.banner:
            return [packet.reply_template(payload=f"{BANNER_PREFIX}{service.banner}")]
        return []
    return []  # unknown IP protocol: dropped silently


@lru_cache(maxsize=None)
def _worm_body_region(worm_name: str, page_count: int, body_pages: int) -> int:
    """Deterministic start page for a worm's resident body.

    Real malware lands at distinctive addresses (its allocation pattern
    is part of its fingerprint); modelling that gives each worm a stable
    per-worm region, which is what lets forensic clustering separate
    families by page *position* as well as content. In an image larger
    than ``1024 + body_pages`` pages the region is kept clear of the low
    pages where the guest's own working set lives. At or below that size
    (a 4 MiB image is 1 024 pages) the start is page 1 024 modulo the
    image size — page 0 of a 4 MiB image — so the body lands on top of
    the boot working set and the connection region. The position is part
    of every golden and digest; it stays where it is.
    """
    low_reserved = 1024  # base working set + connection region live here
    span = max(page_count - low_reserved - body_pages, 1)
    return low_reserved + stable_hash(f"body-region:{worm_name}", 4) % span


@lru_cache(maxsize=None)
def _worm_page_content(worm_name: str, index: int) -> int:
    """Deterministic content tag for page ``index`` of a worm's body.

    The same worm writes the same code into every victim, so its body
    pages carry identical content across VMs — the redundancy that
    content-based page sharing (:mod:`repro.analysis.dedup`) measures.
    Derived via SHA-256 so tags are stable across runs, with
    :data:`~repro.vmm.memory.PINNED` set: a guest write of given content
    takes pinned tags only.
    """
    return stable_hash(f"worm-body:{worm_name}:{index}") | PINNED


@lru_cache(maxsize=None)
def _worm_body_tags(worm_name: str, body_pages: int) -> Tuple[int, ...]:
    """The content tags of a worm's whole body, in page order."""
    return tuple(_worm_page_content(worm_name, i) for i in range(body_pages))


@dataclass(frozen=True)
class ScanBehavior:
    """How malware behaves after compromising a guest.

    ``scan_rate`` is scans/second per infected host. ``targeting``
    selects the victim-picking strategy: ``uniform`` over IPv4 (Slammer,
    Code Red v1) or ``local`` preference (Code Red II, Nimda): with
    probability ``local_same_slash8`` the target shares the infected
    host's /8, with ``local_same_slash16`` its /16, else uniform —
    locality makes a worm hammer the network it landed in, which is why
    honeyfarms capture topologically-near outbreaks disproportionately
    well.

    Bot-style malware additionally *phones home*: it resolves
    ``rendezvous_domain`` (the lookup the "allow DNS" policy exists for —
    captured lookups are rendezvous intelligence), then connects to
    ``cnc_server``/``cnc_port`` and re-checks in every
    ``beacon_interval`` seconds.
    """

    worm_name: str
    protocol: int
    dst_port: int
    exploit_tag: str
    scan_rate: float
    payload_size: int = 376
    dns_lookup_first: bool = False
    dns_server: Optional[IPAddress] = None
    rendezvous_domain: Optional[str] = None
    cnc_server: Optional[IPAddress] = None
    cnc_port: int = 6667
    beacon_interval: Optional[float] = None
    targeting: str = "uniform"
    local_same_slash8: float = 0.5   # Code Red II's published mix
    local_same_slash16: float = 0.375

    def __post_init__(self) -> None:
        if self.scan_rate <= 0:
            raise ValueError(f"scan_rate must be positive: {self.scan_rate!r}")
        if self.targeting not in ("uniform", "local"):
            raise ValueError(f"unknown targeting strategy: {self.targeting!r}")
        if self.targeting == "local":
            total = self.local_same_slash8 + self.local_same_slash16
            if not (0.0 <= self.local_same_slash8 and 0.0 <= self.local_same_slash16
                    and total <= 1.0):
                raise ValueError(
                    "local targeting probabilities must be non-negative and"
                    f" sum to <= 1 (got {total})"
                )
        if self.dns_lookup_first and self.dns_server is None:
            raise ValueError("dns_lookup_first requires a dns_server address")
        if self.beacon_interval is not None:
            if self.beacon_interval <= 0:
                raise ValueError("beacon_interval must be positive")
            if self.cnc_server is None:
                raise ValueError("beaconing requires a cnc_server address")
        if not (0 < self.cnc_port <= 65535):
            raise ValueError(f"cnc_port out of range: {self.cnc_port!r}")


@dataclass
class InfectionRecord:
    """Forensic record of a compromise — the honeyfarm's primary yield."""

    worm_name: str
    vulnerability: str
    source: IPAddress
    victim: IPAddress
    time: float
    vm_id: int
    generation: int = 0


class GuestHost:
    """Behavioural model bound to one VM.

    Parameters
    ----------
    vm:
        The VM whose address space this guest dirties.
    personality:
        Open services and vulnerability set.
    catalog:
        Vulnerability catalog for exploit matching.
    sim, rng:
        Event clock and this guest's private random stream.
    transmit:
        Callback ``transmit(vm, packet)`` for asynchronous outbound
        traffic (worm scans, DNS lookups); installed by the honeyfarm so
        everything passes containment.
    worm_behaviors:
        Mapping exploit-tag → :class:`ScanBehavior`, consulted when this
        guest is compromised so it knows how to propagate.
    on_oom:
        Optional callback ``on_oom(vm)`` invoked when dirtying a page of
        ``vm`` finds host memory exhausted; one handler can serve every
        guest of a farm. Returning True promises that at least one frame
        was freed, as ``Honeyfarm._relieve_pressure`` does by evicting a
        VM with reclaimable frames, and the write resumes at that page; if
        the page still finds no frame, :class:`OutOfMemoryError`
        propagates. Without a handler, or when it returns False, the
        page is dropped and counted in ``dropped_page_writes``, and the
        rest of that write is not attempted.

    A guest holds only what its VM has done: what the personality fixes
    (services, vulnerabilities) is read from the shared
    :class:`Personality`, and the follow-up table exists once a worm or
    bot first queues a follow-up.
    """

    __slots__ = (
        "vm", "personality", "catalog", "sim", "rng", "transmit",
        "worm_behaviors", "on_oom", "on_infection", "infection", "generation",
        "connections_handled", "scans_emitted", "dropped_page_writes",
        "beacons_sent", "_touched", "_page_cursor", "_conn_region_start",
        "_conn_cursor", "_disk_cursor", "_pending_followups",
        "_scan_process", "_beacon_process",
    )

    def __init__(
        self,
        vm: VirtualMachine,
        personality: Personality,
        catalog: VulnerabilityCatalog,
        sim: Simulator,
        rng: RandomStream,
        transmit: Optional[Callable[[VirtualMachine, Packet], None]] = None,
        worm_behaviors: Optional[Dict[str, ScanBehavior]] = None,
        on_oom: Optional[Callable[[VirtualMachine], bool]] = None,
        on_infection: Optional[Callable[[InfectionRecord], None]] = None,
    ) -> None:
        self.vm = vm
        self.personality = personality
        self.catalog = catalog
        self.sim = sim
        self.rng = rng
        self.transmit = transmit
        # Keep the caller's dict by reference even when it is still
        # empty: the farm registers worms mid-run (an adversary's echo
        # implant lands after recon already cloned the VM), and an
        # ``or {}`` here would silently detach early-cloned guests from
        # every later registration.
        self.worm_behaviors = worm_behaviors if worm_behaviors is not None else {}
        self.on_oom = on_oom
        self.on_infection = on_infection
        self.infection: Optional[InfectionRecord] = None
        self.generation = 0
        self.connections_handled = 0
        self.scans_emitted = 0
        self.dropped_page_writes = 0
        self._touched = False
        self._page_cursor = 0
        self._conn_region_start: Optional[int] = None
        self._conn_cursor = 0
        self._disk_cursor = 0
        # TCP connections in flight: src_port -> (dst_port, payload, size)
        # to send once the SYN/ACK arrives. A worm cannot put its exploit
        # (nor a bot its check-in) on the SYN; the payload follows the
        # established connection. Created by the first follow-up.
        self._pending_followups: Optional[Dict[int, tuple]] = None
        self._scan_process: Optional[Process] = None
        self._beacon_process: Optional[Process] = None
        self.beacons_sent = 0
        vm.guest = self

    # ------------------------------------------------------------------ #
    # Memory dirtying
    # ------------------------------------------------------------------ #

    def _write_run(
        self, page: int, count: int, contents: Optional[Sequence[int]] = None
    ) -> int:
        """Write ``count`` consecutive pages from ``page`` on, wrapping
        at the image end, page ``i`` with ``contents[i]`` (fresh content
        when ``contents`` is None); returns how many were written.

        Every guest write goes through here, one address-space call per
        stretch. A short count means the pool had no frame for the next
        page: that goes to ``on_oom`` (see the class docstring). Fewer
        than ``count`` returned means that page was dropped and the rest
        not attempted.
        """
        space = self.vm.address_space
        total = space.page_count
        done = 0
        retrying = False
        while done < count:
            at = (page + done) % total
            chunk = min(count - done, total - at)
            tags = contents[done:done + chunk] if contents is not None else None
            written = space.write_run(at, chunk, tags)
            if retrying and not written:
                raise OutOfMemoryError(f"page {at}: no frame after the pressure handler")
            done += written
            retrying = written < chunk
            if retrying and not (self.on_oom is not None and self.on_oom(self.vm)):
                self.dropped_page_writes += 1
                break
        return done

    def _dirty_pages(self, count: int) -> None:
        """Dirty ``count`` distinct fresh pages (sequential cursor).

        Used for one-time footprint growth — the base working set — where
        sequential selection makes private-page counts exact: N requested
        writes dirty exactly min(N, image size) pages.
        """
        written = self._write_run(self._page_cursor, count)
        self._page_cursor += min(written + 1, count)  # past a dropped page too

    def _write_worm_body(self, worm_name: str, body_pages: int) -> None:
        """Install the worm in memory: its own region, its own content —
        both deterministic per worm, so captures of the same family are
        position- and content-identical across VMs."""
        base = _worm_body_region(worm_name, self.vm.address_space.page_count, body_pages)
        self._write_run(base, body_pages, _worm_body_tags(worm_name, body_pages))

    def _write_disk(self, block: int, count: int, wrap: int) -> None:
        """Write ``count`` consecutive disk blocks from ``block`` on,
        wrapping at block ``wrap``: one device call per stretch."""
        disk = self.vm.disk
        while count > 0:
            at = block % wrap
            chunk = min(count, wrap - at)
            disk.write_run(at, chunk)
            block += chunk
            count -= chunk

    def _write_connection_to_disk(self) -> None:
        """Log-style disk writes for one connection, cycling within the
        personality's bounded disk working set."""
        cap = self.personality.disk_working_set_cap_blocks
        per = self.personality.disk_blocks_per_connection
        if cap == 0 or per == 0 or self.vm.disk.detached:
            return
        self._write_disk(self._disk_cursor, per, cap)
        self._disk_cursor += per

    def _write_infection_to_disk(self, worm_name: str) -> None:
        """The worm installs itself: fresh blocks in a worm-specific
        region (deterministic per worm, so disk diffs cluster too)."""
        count = self.personality.infection_disk_blocks
        if count == 0 or self.vm.disk.detached:
            return
        cap = self.personality.disk_working_set_cap_blocks
        # Stable (cross-process) per-worm region, clear of the log area.
        base = cap + stable_hash(f"disk:{worm_name}", 4) % 1000 * 256
        self._write_disk(base, count, self.vm.disk.image.block_count)

    def _dirty_connection_pages(self, count: int) -> None:
        """Dirty ``count`` pages of connection state, cycling within the
        personality's bounded connection region (buffer/heap reuse): the
        footprint plateaus instead of growing with every connection."""
        cap = self.personality.connection_working_set_cap_pages
        if cap == 0:
            return
        total = self.vm.address_space.page_count
        if self._conn_region_start is None:
            # Reserve the region right after wherever the cursor is now.
            self._conn_region_start = self._page_cursor % total
            self._page_cursor += cap
        while count > 0:
            offset = self._conn_cursor % cap
            chunk = min(count, cap - offset)  # the region cycles at its cap
            written = self._write_run(self._conn_region_start + offset, chunk)
            self._conn_cursor += min(written + 1, chunk)
            if written < chunk:
                return
            count -= chunk

    def _touch_working_set(self) -> None:
        if not self._touched:
            self._touched = True
            self._dirty_pages(self.personality.base_working_set_pages)

    # ------------------------------------------------------------------ #
    # Inbound traffic
    # ------------------------------------------------------------------ #

    @property
    def infected(self) -> bool:
        return self.infection is not None

    def handle_packet(self, packet: Packet, now: float) -> List[Packet]:
        """Process one inbound packet; returns synchronous replies."""
        if self.vm.state is not VMState.RUNNING:
            return []
        self.vm.touch(now)
        self._touch_working_set()

        # A SYN/ACK (or RST) answering a connection this guest initiated:
        # the connection is up, deliver the queued payload on it.
        followups = self._pending_followups
        if (
            followups
            and packet.is_tcp
            and packet.dst_port in followups
            and (packet.flags.is_synack or packet.flags.has_rst)
        ):
            dst_port, payload, size = followups.pop(packet.dst_port)
            if packet.flags.is_synack:
                followup = Packet(
                    src=self.vm.ip,
                    dst=packet.src,
                    protocol=PROTO_TCP,
                    src_port=packet.dst_port,
                    dst_port=dst_port,
                    flags=_PSH_ACK,
                    payload=payload,
                    size=size,
                )
                self._transmit_if_running(followup)
            return []

        if self._is_service_request(packet):
            self.connections_handled += 1
            self._dirty_connection_pages(self.personality.pages_per_connection)
            self._write_connection_to_disk()
            if self._maybe_infect(packet, now):
                return []  # compromised by this packet: the service never answers
        return service_replies(self.personality, packet)

    def _is_service_request(self, packet: Packet) -> bool:
        """Whether ``packet`` is application data for a service this
        guest runs — what costs connection state and can carry an
        exploit: a UDP datagram, or a TCP payload segment (never the
        SYN), to an open port, and not itself a response."""
        if packet.is_tcp:
            if packet.flags.is_syn or not packet.payload:
                return False
        elif not packet.is_udp:
            return False
        return (
            not _is_response_payload(packet.payload)
            and self.personality.service_at(packet.protocol, packet.dst_port) is not None
        )

    # ------------------------------------------------------------------ #
    # Infection and propagation
    # ------------------------------------------------------------------ #

    def _maybe_infect(self, packet: Packet, now: float) -> bool:
        """Compromise the guest if this packet exploits one of its flaws.

        Returns True if an infection happened *now*; re-exploitation of an
        already-infected guest is a no-op (like the real worms, which
        mutexed against double infection).
        """
        vuln = self.catalog.match(packet)
        if vuln is None or vuln.name not in self.personality.vulnerability_names:
            return False
        if self.infected:
            return False
        self.infection = InfectionRecord(
            worm_name=vuln.name,
            vulnerability=vuln.name,
            source=packet.src,
            victim=self.vm.ip,
            time=now,
            vm_id=self.vm.vm_id,
            generation=self.generation,
        )
        self._write_worm_body(vuln.name, vuln.infection_pages)
        self._write_infection_to_disk(vuln.name)
        if vuln.destructive_disk_blocks and not self.vm.disk.detached:
            # Witty-class destruction: random blocks, different on every
            # victim (so disk diffs do NOT cluster, unlike the body).
            total = self.vm.disk.image.block_count
            for __ in range(vuln.destructive_disk_blocks):
                self.vm.disk.write(self.rng.randint(0, total - 1))
        if self.on_infection is not None:
            self.on_infection(self.infection)
        behavior = self.worm_behaviors.get(packet.payload)
        if behavior is not None and self.transmit is not None:
            self._scan_process = spawn(
                self.sim,
                self._scan_loop(behavior),
                name=f"scan-vm{self.vm.vm_id}",
            )
        return True

    def _scan_loop(self, behavior: ScanBehavior):
        """Infected-guest propagation loop (a simulation process)."""
        if behavior.dns_lookup_first and behavior.dns_server is not None:
            domain = behavior.rendezvous_domain or f"{behavior.worm_name}.example"
            query = udp_packet(
                self.vm.ip,
                behavior.dns_server,
                src_port=1024 + self.rng.randint(0, 60000),
                dst_port=53,
                payload=f"dns:query:{domain}",
            )
            self._transmit_if_running(query)
            yield Sleep(self.rng.uniform(0.01, 0.05))
        if behavior.beacon_interval is not None and self._beacon_process is None:
            self._beacon_process = spawn(
                self.sim,
                self._beacon_loop(behavior),
                name=f"beacon-vm{self.vm.vm_id}",
            )
        while self.vm.state is VMState.RUNNING and self.infected:
            yield Sleep(self.rng.exponential(behavior.scan_rate))
            if self.vm.state is not VMState.RUNNING:
                return
            target = self._pick_target(behavior)
            src_port = 1024 + self.rng.randint(0, 60000)
            if behavior.protocol == PROTO_TCP:
                # Real TCP worms connect first; the exploit follows the
                # handshake (see handle_packet's SYN/ACK branch).
                self._queue_followup(
                    src_port, behavior.dst_port, behavior.exploit_tag, behavior.payload_size,
                )
                scan = Packet(
                    src=self.vm.ip,
                    dst=target,
                    protocol=PROTO_TCP,
                    src_port=src_port,
                    dst_port=behavior.dst_port,
                    flags=TcpFlags.SYN,
                    size=40,
                )
            else:
                # Single-datagram worms (Slammer) exploit in one packet.
                scan = Packet(
                    src=self.vm.ip,
                    dst=target,
                    protocol=behavior.protocol,
                    src_port=src_port,
                    dst_port=behavior.dst_port,
                    payload=behavior.exploit_tag,
                    size=behavior.payload_size,
                )
            self._transmit_if_running(scan)

    def _pick_target(self, behavior: ScanBehavior) -> IPAddress:
        """Choose one scan victim per the worm's targeting strategy."""
        if behavior.targeting == "local":
            roll = self.rng.random()
            own = self.vm.ip.value
            if roll < behavior.local_same_slash16:
                return IPAddress((own & 0xFFFF0000) | self.rng.randint(0, 0xFFFF))
            if roll < behavior.local_same_slash16 + behavior.local_same_slash8:
                return IPAddress((own & 0xFF000000) | self.rng.randint(0, 0xFFFFFF))
        return IPAddress(self.rng.randint(0, (1 << 32) - 1))

    def _beacon_loop(self, behavior: ScanBehavior):
        """Bot check-in loop: periodically connect to the C&C server.

        The SYN is subject to containment like any initiated traffic;
        whether the bot ever reaches its controller is the policy's call
        (and the point of the botnet example).
        """
        assert behavior.cnc_server is not None
        assert behavior.beacon_interval is not None
        while self.vm.state is VMState.RUNNING and self.infected:
            src_port = 1024 + self.rng.randint(0, 60000)
            self._queue_followup(
                src_port, behavior.cnc_port, f"cnc:checkin:{behavior.worm_name}", 120,
            )
            syn = Packet(
                src=self.vm.ip,
                dst=behavior.cnc_server,
                protocol=PROTO_TCP,
                src_port=src_port,
                dst_port=behavior.cnc_port,
                flags=TcpFlags.SYN,
                size=40,
            )
            self.beacons_sent += 1
            self._transmit_if_running(syn)
            yield Sleep(behavior.beacon_interval)

    def _queue_followup(self, src_port: int, dst_port: int, payload: str, size: int) -> None:
        """Send ``payload`` to ``dst_port`` once the connection opened
        from ``src_port`` is answered."""
        followups = self._pending_followups
        if followups is None:
            followups = self._pending_followups = {}
        followups[src_port] = (dst_port, payload, size)

    def _transmit_if_running(self, packet: Packet) -> None:
        if self.vm.state is VMState.RUNNING and self.transmit is not None:
            self.scans_emitted += 1
            self.transmit(self.vm, packet)

    def stop(self) -> None:
        """Halt propagation (called when the VM is reclaimed or detained)."""
        if self._scan_process is not None:
            self._scan_process.cancel()
            self._scan_process = None
        if self._beacon_process is not None:
            self._beacon_process.cancel()
            self._beacon_process = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        status = f"infected:{self.infection.worm_name}" if self.infection else "clean"
        return f"<GuestHost vm={self.vm.vm_id} {self.personality.name} {status}>"
