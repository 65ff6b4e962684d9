"""Containment: what may an infected honeypot do to the outside world?

The honeyfarm invites compromise, so every *honeypot-initiated* packet is
a potential attack on a third party and must pass a policy check at the
gateway. Replies on externally-initiated flows are exempt — answering
your scanner is the whole point — and :func:`honeypot_initiated` is the
one statement of that distinction; every emission path of the gateway
(VM, emulator tier, span lane) asks it.

The paper frames containment as a fidelity dial. This module implements
the points on that dial it discusses:

* :class:`OpenPolicy` — allow everything (the unsafe comparator; shows
  what containment prevents).
* :class:`DropAllPolicy` — allow nothing. Perfectly safe, but malware
  that needs a second connection (download stage, DNS rendezvous) stalls,
  destroying fidelity.
* :class:`AllowDnsPolicy` — drop everything except DNS, which is
  *redirected* to the farm's internal resolver: the transaction
  completes, nothing leaves.
* :class:`ReflectionPolicy` — the paper's signature policy: outbound
  scans are rewritten to target *other honeyfarm addresses*, so the worm
  propagates inside the farm — multi-stage behaviour stays observable,
  the epidemic stays bottled. DNS is redirected as in AllowDnsPolicy.

:class:`OutboundRateLimiter` composes with any policy (a token bucket per
VM) and :class:`ReflectionNat` keeps reflection transparent to the
infected guest: the reply from the internal stand-in is rewritten so it
appears to come from the address the worm actually targeted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.net.addr import AddressSpaceInventory
from repro.net.packet import PROTO_UDP, Packet
from repro.vmm.vm import VirtualMachine

__all__ = [
    "ContainmentAction",
    "Verdict",
    "ContainmentPolicy",
    "OpenPolicy",
    "DropAllPolicy",
    "AllowDnsPolicy",
    "ReflectionPolicy",
    "CompositePolicy",
    "OutboundRateLimiter",
    "ReflectionNat",
    "honeypot_initiated",
    "make_policy",
]


def honeypot_initiated(initiator: int, created: bool, source: int) -> bool:
    """Whether a packet the honeypot at address value ``source`` emits on
    a flow opened by the address value ``initiator`` (its
    ``FlowTable.initiator`` column) faces the containment policy, or is a
    reply that always goes out. ``created`` says the emission itself
    opened the flow. It is not implied by the initiator test: a guest may
    forge its source."""
    return created or initiator == source


class ContainmentAction(enum.Enum):
    """What the gateway does with one outbound packet."""

    ALLOW = "allow"          # forward to the Internet via the GRE tunnel
    DROP = "drop"            # discard silently
    REFLECT = "reflect"      # rewrite destination into the farm's dark space
    REDIRECT_DNS = "redirect-dns"  # deliver to the internal resolver


@dataclass(frozen=True)
class Verdict:
    """A policy decision; ``new_destination`` is set for REFLECT."""

    action: ContainmentAction
    new_destination: Optional[int] = None


#: The verdicts that carry nothing but their action, built once.
_ALLOW = Verdict(ContainmentAction.ALLOW)
_DROP = Verdict(ContainmentAction.DROP)
_REDIRECT_DNS = Verdict(ContainmentAction.REDIRECT_DNS)


def _is_dns_query(packet: Packet) -> bool:
    return packet.protocol == PROTO_UDP and packet.dst_port == 53


class ContainmentPolicy:
    """Interface: map an outbound packet to a :class:`Verdict`."""

    name = "abstract"

    def decide(self, vm: VirtualMachine, packet: Packet, now: float) -> Verdict:
        raise NotImplementedError


class OpenPolicy(ContainmentPolicy):
    """Allow everything — the no-containment comparator."""

    name = "open"

    def decide(self, vm: VirtualMachine, packet: Packet, now: float) -> Verdict:
        return _ALLOW


class DropAllPolicy(ContainmentPolicy):
    """Allow nothing that the honeypot initiates."""

    name = "drop-all"

    def decide(self, vm: VirtualMachine, packet: Packet, now: float) -> Verdict:
        return _DROP


class AllowDnsPolicy(ContainmentPolicy):
    """Drop everything except DNS, which goes to the internal resolver."""

    name = "allow-dns"

    def decide(self, vm: VirtualMachine, packet: Packet, now: float) -> Verdict:
        if _is_dns_query(packet):
            return _REDIRECT_DNS
        return _DROP


class ReflectionPolicy(ContainmentPolicy):
    """Reflect outbound scans back into the farm's own dark space.

    The target choice must be **deterministic per (vm, original
    destination)** so that retransmissions and follow-up connections from
    the same worm land on the same internal stand-in — otherwise TCP
    handshakes would shear across different VMs. Determinism comes from
    hashing the original destination into the farm's flat address index.
    """

    name = "reflect"

    def __init__(self, inventory: AddressSpaceInventory) -> None:
        if inventory.total_addresses < 2:
            raise ValueError("reflection needs at least two farm addresses")
        self.inventory = inventory

    def decide(self, vm: VirtualMachine, packet: Packet, now: float) -> Verdict:
        if _is_dns_query(packet):
            return _REDIRECT_DNS
        return Verdict(
            ContainmentAction.REFLECT, self._reflect_target(vm.ip, packet.dst)
        )

    def _reflect_target(self, vm_ip: int, original: int) -> int:
        total = self.inventory.total_addresses
        index = (original * 2654435761) % total  # Knuth multiplicative hash
        candidate = self.inventory.address_at_flat_index(index)
        if candidate == vm_ip:  # never reflect a VM onto itself
            candidate = self.inventory.address_at_flat_index((index + 1) % total)
        return candidate


class CompositePolicy(ContainmentPolicy):
    """A rate limiter stacked in front of a base policy.

    Packets the limiter rejects are dropped regardless of the base
    policy's opinion; this models the paper's observation that even
    permissive policies need a volumetric backstop (a honeyfarm must
    never become a useful DDoS amplifier).
    """

    def __init__(self, base: ContainmentPolicy, limiter: "OutboundRateLimiter") -> None:
        self.base = base
        self.limiter = limiter
        self.name = f"{base.name}+ratelimit"

    def decide(self, vm: VirtualMachine, packet: Packet, now: float) -> Verdict:
        verdict = self.base.decide(vm, packet, now)
        if verdict.action is ContainmentAction.DROP:
            return verdict
        if not self.limiter.admit(vm.vm_id, now):
            return _DROP
        return verdict


class OutboundRateLimiter:
    """Per-VM token bucket: ``rate`` packets/second, ``burst`` tokens."""

    def __init__(self, rate: float, burst: float = 10.0) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive: {rate!r}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1: {burst!r}")
        self.rate = rate
        self.burst = burst
        self._buckets: Dict[int, Tuple[float, float]] = {}  # vm_id -> (tokens, last)
        self.rejected = 0

    def admit(self, vm_id: int, now: float) -> bool:
        tokens, last = self._buckets.get(vm_id, (self.burst, now))
        tokens = min(self.burst, tokens + (now - last) * self.rate)
        if tokens >= 1.0:
            self._buckets[vm_id] = (tokens - 1.0, now)
            return True
        self._buckets[vm_id] = (tokens, now)
        self.rejected += 1
        return False

    def forget(self, vm_id: int) -> None:
        """Drop state for a reclaimed VM."""
        self._buckets.pop(vm_id, None)


class ReflectionNat:
    """Address translation that keeps reflection invisible to the worm.

    When VM ``v`` scanning external address ``X`` is reflected onto
    internal address ``Y``: record ``(v, Y) -> X``. A later packet from
    ``Y`` to ``v`` (the stand-in answering) has its source rewritten back
    to ``X`` before delivery, so ``v``'s TCP stack sees the peer it
    contacted. Entries are per (vm address, internal address) pair, so
    one VM may converse with many reflected peers concurrently.

    The reverse direction matters just as much for containment: once the
    translated reply is delivered, ``v``'s flow state says it is talking
    to external ``X``, so its *next* packet on that conversation is
    addressed to ``X`` — and without the ``(v, X) -> Y`` rewrite it would
    ride the reply path straight out of the farm (the differential
    harness caught exactly this: a reflected worm's exploit payload
    escaping to the real external host).
    """

    def __init__(self) -> None:
        self._map: Dict[Tuple[int, int], int] = {}
        self._reverse: Dict[Tuple[int, int], int] = {}
        # Farm address -> keys of the entries it takes part in, as the
        # scanning VM or as the internal stand-in, so a VM teardown
        # visits only that VM's entries.
        self._map_keys: Dict[int, Set[Tuple[int, int]]] = {}
        self._reverse_keys: Dict[int, Set[Tuple[int, int]]] = {}
        self.translations = 0
        self.outbound_translations = 0

    def record(self, vm_ip: int, internal: int, original: int) -> None:
        key = (vm_ip, internal)
        if key not in self._map:
            self._map_keys.setdefault(vm_ip, set()).add(key)
            self._map_keys.setdefault(internal, set()).add(key)
        self._map[key] = original
        key = (vm_ip, original)
        replaced = self._reverse.get(key)
        if replaced != internal:
            if replaced is not None and replaced != vm_ip:
                _discard_key(self._reverse_keys, replaced, key)
            self._reverse_keys.setdefault(vm_ip, set()).add(key)
            self._reverse_keys.setdefault(internal, set()).add(key)
            self._reverse[key] = internal

    def translate_outbound_destination(self, packet: Packet) -> Optional[int]:
        """If ``packet`` (infected VM → external address it was told it
        reached) matches a reflection entry, return the internal stand-in
        its destination must be rewritten to; None when no entry applies.
        The caller, who owns ``packet``, does the rewrite."""
        internal = self._reverse.get((packet.src, packet.dst))
        if internal is not None:
            self.outbound_translations += 1
        return internal

    def translate_reply_source(self, reply: Packet) -> Packet:
        """If ``reply`` (internal stand-in → infected VM) matches a
        reflection entry, rewrite its source to the original external
        address. The rewrite is in place: the caller must own ``reply``.
        Returns ``reply``."""
        original = self._map.get((reply.dst, reply.src))
        if original is not None:
            self.translations += 1
            reply.src = original
        return reply

    def forget_vm(self, vm_ip: int) -> int:
        """Drop all entries involving a reclaimed VM's address."""
        doomed = self._map_keys.pop(vm_ip, ())
        for key in doomed:
            del self._map[key]
            for other in key:
                if other != vm_ip:
                    _discard_key(self._map_keys, other, key)
        for key in self._reverse_keys.pop(vm_ip, ()):
            internal = self._reverse.pop(key)
            for other in (key[0], internal):
                if other != vm_ip:
                    _discard_key(self._reverse_keys, other, key)
        return len(doomed)

    def __len__(self) -> int:
        return len(self._map)


def _discard_key(index: Dict[int, Set], address: int, key: Tuple) -> None:
    """Remove ``key`` from ``address``'s set in ``index``, dropping the
    set once empty so the index holds live addresses only."""
    keys = index.get(address)
    if keys is not None:
        keys.discard(key)
        if not keys:
            del index[address]


def make_policy(
    name: str,
    inventory: AddressSpaceInventory,
    rate_limit: Optional[float] = None,
) -> ContainmentPolicy:
    """Build the named policy (config-string → object), optionally wrapped
    in a rate limiter."""
    if name == "open":
        policy: ContainmentPolicy = OpenPolicy()
    elif name == "drop-all":
        policy = DropAllPolicy()
    elif name == "allow-dns":
        policy = AllowDnsPolicy()
    elif name == "reflect":
        policy = ReflectionPolicy(inventory)
    else:
        raise ValueError(f"unknown containment policy: {name!r}")
    if rate_limit is not None:
        policy = CompositePolicy(policy, OutboundRateLimiter(rate_limit))
    return policy
