"""Deterministic fault injection.

The paper's dynamic service exists *because* networks fail — "bandwidth
shortages or server configuration changes" — yet a simulation only
exercises those paths if failures actually happen, on demand and
reproducibly.  This package provides:

* :mod:`repro.faults.events` — typed fault events (link flap, bandwidth
  shortage, server crash, disk failure, SNMP collector blackout);
* :mod:`repro.faults.schedule` — :class:`FaultSchedule`: scripted
  timelines or seeded Poisson fault storms, replayable bit-for-bit;
* :mod:`repro.faults.injector` — :class:`FaultInjector`: applies a
  schedule against a running :class:`~repro.core.service.VoDService` on
  the sim clock, depth-counting overlapping windows, versioning every
  mutation through the production change surfaces, and keeping the
  deterministic counters the resilience report is built from.

See ``docs/RESILIENCE.md`` and ``python -m repro chaos``.
"""

from repro.faults.events import (
    DISK_FAILURE,
    FAULT_KINDS,
    LINK_DEGRADE,
    LINK_FLAP,
    SERVER_CRASH,
    SNMP_BLACKOUT,
    DiskFailure,
    FaultEvent,
    LinkDegrade,
    LinkFlap,
    ServerCrash,
    SnmpBlackout,
)
from repro.faults.injector import FaultInjector
from repro.faults.schedule import MIN_FAULT_DURATION_S, FaultSchedule

__all__ = [
    "DISK_FAILURE",
    "DiskFailure",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "LINK_DEGRADE",
    "LINK_FLAP",
    "LinkDegrade",
    "LinkFlap",
    "MIN_FAULT_DURATION_S",
    "SERVER_CRASH",
    "SNMP_BLACKOUT",
    "ServerCrash",
    "SnmpBlackout",
]
