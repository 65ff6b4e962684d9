"""The paper's primary contribution: the Potemkin honeyfarm itself.

The pieces map one-to-one onto the architecture in the paper:

* :mod:`repro.core.gateway` — the gateway router: tunnel termination,
  per-destination VM dispatch, containment enforcement, reflection NAT.
* :mod:`repro.core.flash_clone` — on-demand VM instantiation by forking a
  live reference snapshot (the latency side of scalability).
* :mod:`repro.core.delta` — delta-virtualization accounting: what CoW
  sharing saves, farm-wide (the memory side of scalability).
* :mod:`repro.core.containment` — outbound-traffic policies, from
  drop-everything to scan reflection.
* :mod:`repro.core.reclamation` — when to take honeypot VMs back (idle
  timeouts, memory pressure, detention of infected VMs).
* :mod:`repro.core.honeyfarm` — the orchestrator wiring gateway, servers,
  guests, and policies into a runnable farm.
* :mod:`repro.core.config` — one declarative configuration object.
"""
