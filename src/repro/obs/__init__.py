"""Observability: the flight recorder and its event vocabulary.

See :mod:`repro.obs.recorder` for the recorder itself and
``docs/OBSERVABILITY.md`` for the event schema, the snapshot format, and
the zero-overhead-when-disabled contract.
"""

from repro.obs.recorder import (
    FlightRecorder,
    active,
    install,
    recording,
    uninstall,
)

__all__ = [
    "FlightRecorder",
    "active",
    "install",
    "recording",
    "uninstall",
]
