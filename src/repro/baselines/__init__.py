"""Baselines the paper compares against (or implies as the status quo).

* :mod:`repro.baselines.dedicated` — the conventional honeyfarm: one
  cold-booted, full-memory VM per address. Shows why on-demand cloning
  is necessary (boot latency loses the scanner; memory caps coverage at
  a handful of VMs per host). Also ``full_copy_farm``: cloning without
  delta virtualization, fast-ish instantiation but full per-VM memory
  (the A-ABL1 ablation).
* :mod:`repro.baselines.responder` — the opposite end of the fidelity
  spectrum: a stateless low-interaction responder (honeyd/iSink-class)
  that scales to arbitrary address space but can never be infected, so
  it yields no malware capture at all.
"""

from repro.baselines.dedicated import dedicated_farm, dedicated_vms_per_host, full_copy_farm
from repro.baselines.responder import StatelessResponder

__all__ = [
    "StatelessResponder",
    "dedicated_farm",
    "dedicated_vms_per_host",
    "full_copy_farm",
]
