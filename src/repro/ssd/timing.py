"""Service-time decomposition for flash operations.

Each host page access decomposes into resource *phases* with fixed durations
derived from the :class:`~repro.ssd.config.SSDConfig`:

``READ``
    die busy for ``tR`` (flash array sense), then the channel bus busy for the
    page transfer out of the plane's cache register.
``WRITE``
    channel bus busy for the page transfer into the register, then the die
    busy for ``tPROG``.
``ERASE`` (garbage collection)
    die busy for ``tBERS``; no bus involvement.
``MOVE`` (GC valid-page copy, plane-internal copyback)
    die busy for ``tR + tPROG``; no bus involvement.

This mirrors how SSDSim charges channel occupancy only for data transfer
while the flash array time is charged to the die, which is exactly the
mechanism that creates the read/write conflicts the paper studies: a read
must wait for a die that is mid-program, and bus transfers from co-located
tenants serialise on the shared channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .config import SSDConfig

__all__ = ["ServiceTimes"]


@dataclass(frozen=True)
class ServiceTimes:
    """Phase durations (microseconds) for one configuration.

    The derived phase durations are cached properties: computed on first
    read, then plain floats in the instance, because the engine reads them
    for every page it serves.
    """

    read_flash_us: float
    write_flash_us: float
    erase_us: float
    transfer_us: float
    command_us: float

    @classmethod
    def from_config(cls, config: SSDConfig) -> "ServiceTimes":
        """Derive all phase durations from a device configuration."""
        return cls(
            read_flash_us=config.read_latency_us,
            write_flash_us=config.write_latency_us,
            erase_us=config.erase_latency_us,
            transfer_us=config.page_transfer_us,
            command_us=config.command_overhead_us,
        )

    # Phase durations -----------------------------------------------------
    @cached_property
    def read_die_us(self) -> float:
        """Die occupancy of a read: command + array sense."""
        return self.command_us + self.read_flash_us

    def read_die_with_retries_us(self, retries: int) -> float:
        """Die occupancy of a read that needed ``retries`` ECC read retries.

        Each retry re-issues the command and re-senses the array with tuned
        thresholds, so a read with ``n`` retries holds the die for
        ``(1 + n)`` full command+tR rounds.  ``retries=0`` is exactly
        :attr:`read_die_us`.
        """
        if retries < 0:
            raise ValueError("retries must be non-negative")
        return (1 + retries) * self.read_die_us

    @cached_property
    def read_bus_us(self) -> float:
        """Channel occupancy of a read: page transfer out."""
        return self.transfer_us

    @cached_property
    def write_bus_us(self) -> float:
        """Channel occupancy of a write: command + page transfer in."""
        return self.command_us + self.transfer_us

    @cached_property
    def write_die_us(self) -> float:
        """Die occupancy of a write: program time."""
        return self.write_flash_us

    @cached_property
    def move_die_us(self) -> float:
        """Die occupancy of a GC copyback (read + program, no bus)."""
        return self.read_flash_us + self.write_flash_us

    # Unloaded service times ----------------------------------------------
    @cached_property
    def read_service_us(self) -> float:
        """End-to-end read service time on an idle device."""
        return self.read_die_us + self.read_bus_us

    @cached_property
    def write_service_us(self) -> float:
        """End-to-end write service time on an idle device."""
        return self.write_bus_us + self.write_die_us
