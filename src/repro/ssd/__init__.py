"""Multi-channel SSD simulator substrate (SSDSim-style).

Public surface:

* :class:`SSDConfig` — device geometry and timing (Table I defaults);
* :class:`SSDSimulator` / :func:`simulate` — exact event-driven simulation;
* :class:`FastLatencyModel` / :func:`fast_simulate` — vectorised
  approximation for bulk strategy sweeps; :func:`fast_sweep` runs one trace
  under many channel assignments, sharing the runs of common channel groups;
* :class:`IORequest` / :class:`OpType` — the trace record consumed by both;
* :class:`SimulationResult` — latency summary both engines return;
* :class:`Probe` / :func:`probes` — the one observer interface every
  component reports to (see :mod:`repro.ssd.probe`);
* :class:`PageAllocMode` — static vs dynamic page allocation per tenant.
"""

from .buffer import AccessResult, BufferConfig, BufferStats, WriteBuffer
from .config import GiB, KiB, MiB, SSDConfig
from .controller import FTLController
from .engine import ComposedLoop, EventLoop
from .fastmodel import FastLatencyModel, fast_simulate, fast_sweep
from .faults import FaultConfig, FaultExpectation, FaultInjector
from .fleet import Fleet, FleetResult, MigrationPlan, MigrationRecord, seeded_placement
from .ftl import PageAllocMode
from .geometry import Geometry, PhysicalAddress
from .metrics import LatencyAccumulator, OpStats, SimulationResult
from .probe import Probe, probes
from .request import IORequest, OpType, SubRequest
from .simulator import SSDSimulator, simulate
from .timing import ServiceTimes

__all__ = [
    "AccessResult",
    "BufferConfig",
    "BufferStats",
    "WriteBuffer",
    "SSDConfig",
    "FaultConfig",
    "FaultExpectation",
    "FaultInjector",
    "KiB",
    "MiB",
    "GiB",
    "Geometry",
    "PhysicalAddress",
    "IORequest",
    "OpType",
    "SubRequest",
    "ServiceTimes",
    "LatencyAccumulator",
    "OpStats",
    "SimulationResult",
    "Probe",
    "probes",
    "FTLController",
    "SSDSimulator",
    "simulate",
    "ComposedLoop",
    "EventLoop",
    "Fleet",
    "FleetResult",
    "MigrationPlan",
    "MigrationRecord",
    "seeded_placement",
    "FastLatencyModel",
    "fast_simulate",
    "fast_sweep",
    "PageAllocMode",
]
