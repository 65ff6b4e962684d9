"""Declarative honeyfarm configuration.

One :class:`HoneyfarmConfig` fully describes a farm: address space,
cluster shape, per-prefix personalities, policy knobs, and the root seed.
Experiments construct variants with :func:`dataclasses.replace`, which
keeps parameter sweeps explicit and diff-able.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.net.addr import IPAddress, Prefix
from repro.sim.rand import stable_hash

__all__ = ["DeceptionConfig", "HoneyfarmConfig"]


@dataclass(frozen=True)
class DeceptionConfig:
    """Anti-fingerprinting deception: per-address personality
    randomization plus response-timing jitter.

    Fingerprinting attackers exploit two farm-wide regularities: every
    dark address presents the identical personality, and every reply
    leaves with machine-identical timing. Deception breaks both with
    *seed-deterministic* randomization — pure functions of ``(seed,
    address)``, so repeat visits to one address always see the same host
    and every run replays bit-identically.

    Attributes
    ----------
    enabled:
        Turn deception on. Off by default so the stock farm is
        byte-for-byte the pre-deception system; ``False`` doubles as the
        ablation arm of the capture-rate experiment (the
        ``content_sharing`` pattern).
    personality_pool:
        Personalities assigned round the farm by a stable hash of the
        address. Repeats weight the draw — the default pool is 50%
        ``windows-default`` (vulnerable), so exploits still land.
        Takes precedence over ``personality_mix`` and the per-prefix
        mapping while enabled.
    jitter_max_seconds:
        Upper bound on the per-address reply delay added at the gateway
        egress edge. Each address gets one fixed delay in
        ``[0, jitter_max_seconds)`` — constant per address, so same-flow
        packet order is preserved, but *different* across addresses,
        which destroys the cross-address timing-correlation tell.
        Zero disables the delay while keeping personality randomization.
    """

    enabled: bool = False
    personality_pool: Tuple[str, ...] = (
        "windows-default", "windows-default", "windows-patched",
        "linux-server",
    )
    jitter_max_seconds: float = 0.08

    def __post_init__(self) -> None:
        if self.jitter_max_seconds < 0:
            raise ValueError(
                f"jitter_max_seconds must be >= 0: {self.jitter_max_seconds!r}"
            )
        if self.enabled and not self.personality_pool:
            raise ValueError(
                "an enabled deception config needs a non-empty"
                " personality_pool"
            )


@dataclass(frozen=True)
class HoneyfarmConfig:
    """Every knob the honeyfarm exposes, with paper-faithful defaults.

    Attributes
    ----------
    prefixes:
        Dark prefixes (as strings, e.g. ``("10.16.0.0/16",)``) the farm
        impersonates. Defaults to one /16, the paper's reference unit.
    personality_by_prefix:
        Prefix string → personality name; prefixes not listed use
        ``default_personality``.
    personality_mix:
        Optional personality-name → weight mapping. When set, each dark
        address is assigned a personality by a stable hash of the
        address, weighted accordingly — so the farm presents a
        heterogeneous population (a /16 that is 70% Windows, 30% Linux)
        while every repeat visit to one address sees the same host.
        Overrides the per-prefix mapping.
    num_hosts / host_memory_bytes / max_vms_per_host:
        Cluster shape. Defaults mirror the paper's testbed class: 2 GiB
        servers.
    vm_image_bytes:
        Guest memory size for reference snapshots (128 MiB default).
    idle_timeout_seconds:
        The central reclamation knob: a VM idle this long is reclaimed.
    sweep_interval_seconds:
        How often the reclamation daemon scans for victims.
    memory_pressure_threshold:
        Host memory utilisation above which the pressure policy starts
        evicting the least-recently-active VMs even before their idle
        timeout (None disables).
    warm_pool_size:
        Pre-created pristine VMs kept waiting for an address (0 disables
        the pool). A packet for a cold address then pays only the
        identity-swap latency (~60 ms) instead of the full clone pipeline
        (~520 ms); a background daemon refills the pool.
    containment:
        Name of the containment policy: ``open``, ``drop-all``,
        ``allow-dns``, or ``reflect``.
    outbound_rate_limit:
        Max *allowed* outbound packets/second per VM (None = unlimited);
        applied on top of whichever policy is selected.
    detain_infected:
        Pause (retain for forensics) rather than destroy infected VMs at
        reclamation time, up to ``max_detained``.
    clone_jitter:
        Coefficient of variation on clone stage latencies.
    clone_mode:
        ``flash`` (delta virtualization, the system under test),
        ``full-copy`` (the eager-copy ablation A-ABL1), or ``boot``
        (the dedicated-honeypot baseline: cold boot + private image).
    content_sharing:
        Content-based page sharing on each host (ESX-style transparent
        sharing layered on delta virtualization): writes of identical
        content tags — worm bodies, chiefly — share one physical frame
        host-wide. On by default; ``False`` is the A-ABL ablation that
        isolates what sharing buys beyond copy-on-write.
    pending_timeout_seconds:
        Watchdog over the gateway's per-address pending queues: if a
        clone has not delivered within this window, the held packets are
        dropped (accounted under the ``timeout`` cause) and the address
        is unbound so the next packet re-dispatches. None (the default)
        disables the watchdog entirely — no timer events are scheduled.
    ladder:
        Attach the fidelity ladder (:mod:`repro.fidelity`): a
        protocol-emulator tier with dynamic promotion into flash clones.
        Off by default, which doubles as the clone-always ablation the
        fidelity benchmark compares against.
    deception:
        Anti-fingerprinting block (:class:`DeceptionConfig`): seeded
        per-address personality randomization + reply-timing jitter.
        Disabled by default, which doubles as the deception-off ablation
        of the adversary experiment.
    seed:
        Root seed for every random stream in the run.
    """

    prefixes: Tuple[str, ...] = ("10.16.0.0/16",)
    personality_by_prefix: Dict[str, str] = field(default_factory=dict)
    personality_mix: Optional[Dict[str, float]] = None
    default_personality: str = "windows-default"
    num_hosts: int = 4
    host_memory_bytes: int = 2 * (1 << 30)
    max_vms_per_host: int = 512
    vm_image_bytes: int = 128 * (1 << 20)
    idle_timeout_seconds: float = 60.0
    sweep_interval_seconds: float = 1.0
    memory_pressure_threshold: Optional[float] = 0.95
    flow_idle_timeout_seconds: float = 60.0
    containment: str = "reflect"
    outbound_rate_limit: Optional[float] = None
    detain_infected: bool = False
    max_detained: int = 32
    clone_jitter: float = 0.05
    clone_mode: str = "flash"
    content_sharing: bool = True
    warm_pool_size: int = 0
    placement_policy: str = "least-loaded"
    dns_server_ip: str = "198.18.53.53"
    pending_timeout_seconds: Optional[float] = None
    ladder: bool = False
    deception: DeceptionConfig = field(default_factory=DeceptionConfig)
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_hosts <= 0:
            raise ValueError(f"num_hosts must be positive: {self.num_hosts!r}")
        if self.idle_timeout_seconds <= 0:
            raise ValueError(
                f"idle_timeout_seconds must be positive: {self.idle_timeout_seconds!r}"
            )
        if self.sweep_interval_seconds <= 0:
            raise ValueError(
                f"sweep_interval_seconds must be positive: {self.sweep_interval_seconds!r}"
            )
        if self.containment not in ("open", "drop-all", "allow-dns", "reflect"):
            raise ValueError(f"unknown containment policy: {self.containment!r}")
        if self.clone_mode not in ("flash", "full-copy", "boot"):
            raise ValueError(f"unknown clone_mode: {self.clone_mode!r}")
        if self.warm_pool_size < 0:
            raise ValueError(f"warm_pool_size must be >= 0: {self.warm_pool_size!r}")
        if self.placement_policy not in ("least-loaded", "round-robin", "pack"):
            raise ValueError(f"unknown placement_policy: {self.placement_policy!r}")
        if self.pending_timeout_seconds is not None and self.pending_timeout_seconds <= 0:
            raise ValueError(
                "pending_timeout_seconds must be positive or None:"
                f" {self.pending_timeout_seconds!r}"
            )
        if self.memory_pressure_threshold is not None and not (
            0.0 < self.memory_pressure_threshold <= 1.0
        ):
            raise ValueError(
                "memory_pressure_threshold must be in (0, 1] or None:"
                f" {self.memory_pressure_threshold!r}"
            )
        for prefix in self.prefixes:
            Prefix.parse(prefix)  # validate eagerly; raises on malformed input
        for prefix in self.personality_by_prefix:
            if prefix not in self.prefixes:
                raise ValueError(
                    f"personality_by_prefix names unknown prefix {prefix!r}"
                )
        if self.personality_mix is not None:
            if not self.personality_mix:
                raise ValueError("personality_mix must not be empty")
            for name, weight in self.personality_mix.items():
                if weight <= 0:
                    raise ValueError(
                        f"personality_mix weight for {name!r} must be positive"
                    )

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #

    def parsed_prefixes(self) -> Tuple[Prefix, ...]:
        return tuple(Prefix.parse(p) for p in self.prefixes)

    def personality_for(self, prefix: Prefix) -> str:
        return self.personality_by_prefix.get(str(prefix), self.default_personality)

    def personality_for_address(self, prefix: Prefix, addr: int) -> str:
        """The personality backing one dark address.

        With deception enabled, the choice is a stable uniform hash of
        ``(seed, address)`` over the deception pool — a pure function,
        so repeat visits see the same host and runs replay
        bit-identically, yet neighbouring addresses differ (the
        anti-fingerprinting property). With a ``personality_mix``, a
        stable weighted hash of the address applies; otherwise the
        per-prefix mapping.
        """
        if self.deception.enabled:
            pool = self.deception.personality_pool
            return pool[stable_hash(f"deception:{self.seed}:{addr:d}") % len(pool)]
        if self.personality_mix is None:
            return self.personality_for(prefix)
        names = sorted(self.personality_mix)
        total = sum(self.personality_mix[name] for name in names)
        roll = stable_hash(f"personality:{addr:d}") / float(1 << 64) * total
        acc = 0.0
        for name in names:
            acc += self.personality_mix[name]
            if roll < acc:
                return name
        return names[-1]

    def all_personalities(self) -> Tuple[str, ...]:
        """Every personality this config can assign (snapshot planning)."""
        names = {self.default_personality}
        names.update(self.personality_by_prefix.values())
        if self.personality_mix is not None:
            names.update(self.personality_mix)
        if self.deception.enabled:
            names.update(self.deception.personality_pool)
        return tuple(sorted(names))

    def reply_jitter(self, addr: int) -> float:
        """The fixed deception delay added to every reply leaving
        ``addr``: a pure function of ``(seed, address)`` in
        ``[0, jitter_max_seconds)``, zero when deception is off."""
        deception = self.deception
        if not deception.enabled or deception.jitter_max_seconds <= 0.0:
            return 0.0
        unit = stable_hash(f"deception-jitter:{self.seed}:{addr:d}") / float(1 << 64)
        return unit * deception.jitter_max_seconds

    def dns_address(self) -> int:
        return IPAddress.parse(self.dns_server_ip)

    def with_overrides(self, **kwargs) -> "HoneyfarmConfig":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **kwargs)
