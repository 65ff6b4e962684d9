"""The clone-mode baselines: the standard farm with flash cloning or
delta virtualization taken away.

**Dedicated** (``clone_mode="boot"``): one booted VM per address.

Before flash cloning, backing an address with a high-fidelity honeypot
meant booting a whole VM for it and keeping its full memory resident.
This module configures the standard :class:`~repro.core.honeyfarm.
Honeyfarm` into exactly that deployment (``clone_mode="boot"``) and
provides the closed-form capacity math the scalability comparison
(F-SCALE) tabulates.

Two effects the experiments surface:

* **Latency** — a cold boot takes ~43 s; a scanner's follow-up exploit
  packets arrive within seconds and hit a VM that is still booting
  (queued at best, dropped at worst), so most capture opportunities are
  lost.
* **Memory** — each VM charges its full image, so a 2 GiB host holds
  ~15 concurrent 128 MiB honeypots versus hundreds under delta
  virtualization.

**Full copy** (``clone_mode="full-copy"``, the A-ABL1 ablation): a new VM
still skips the guest boot (it is forked from the reference snapshot),
but its memory is eagerly copied rather than CoW-shared. Isolates the two
halves of the paper's scalability claim — latency (flash cloning) and
memory (delta virtualization) — by keeping the first and removing the
second.
"""

from __future__ import annotations

from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm

__all__ = ["dedicated_farm", "dedicated_vms_per_host", "full_copy_farm"]


def dedicated_farm(config: HoneyfarmConfig) -> Honeyfarm:
    """A farm whose VMs are cold-booted with private memory images."""
    return Honeyfarm(config.with_overrides(clone_mode="boot"))


def full_copy_farm(config: HoneyfarmConfig) -> Honeyfarm:
    """A farm that clones by copying the entire memory image."""
    return Honeyfarm(config.with_overrides(clone_mode="full-copy"))


def dedicated_vms_per_host(
    host_memory_bytes: int,
    image_bytes: int,
    reserved_fraction: float = 0.05,
) -> int:
    """How many always-on full-memory honeypots one host can hold."""
    if image_bytes <= 0:
        raise ValueError(f"image_bytes must be positive: {image_bytes!r}")
    usable = host_memory_bytes * (1.0 - reserved_fraction)
    return int(usable // image_bytes)
