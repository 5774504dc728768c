"""Static and dynamic page-allocation placers.

A *placer* answers one question for each write: **which plane** receives the
page, given the tenant's allowed channel set.

``STATIC``
    The target channel/chip/die/plane is a pure function of the logical page
    number, striping successive LPNs channel-first across the allowed set.
    Consecutive logical pages land on different channels, so a later
    sequential *read* of those pages enjoys full channel parallelism —
    exactly why the paper assigns static mode to read-dominated tenants.

``DYNAMIC``
    The write goes to the least-busy plane of the allowed set at the moment
    of dispatch (earliest-free die, shortest queue), so writes never wait for
    a busy die while an idle one exists — why the paper assigns dynamic mode
    to write-dominated tenants.

Reads are never placed: they go wherever the mapping table says the data
lives.
"""

from __future__ import annotations

import enum
from typing import Callable, Sequence

from ..geometry import Geometry

__all__ = ["PageAllocMode", "StaticPagePlacer", "DynamicPagePlacer", "make_placer"]

#: Die probe: flat die index -> sortable die-and-bus load key (lower = less
#: busy).  Every key a probe returns must have the same length.
DieLoadFn = Callable[[int], tuple]

#: Fullness probe: plane_index -> programmable pages left in that plane.
FreePagesFn = Callable[[int], int]

#: Viability probe: plane_index -> False when the plane must not receive
#: writes (e.g. all usable capacity lost to retired blocks).
ViableFn = Callable[[int], bool]


class PageAllocMode(enum.Enum):
    """Per-tenant page-allocation mode."""

    STATIC = "static"
    DYNAMIC = "dynamic"

    @classmethod
    def from_str(cls, text: str) -> "PageAllocMode":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown page allocation mode {text!r}") from None


class StaticPagePlacer:
    """LPN-striped placement over an allowed channel set."""

    def __init__(self, geometry: Geometry, allowed_channels: Sequence[int]) -> None:
        if not allowed_channels:
            raise ValueError("allowed_channels must be non-empty")
        self.geometry = geometry
        self.channels = sorted(set(allowed_channels))
        cfg = geometry.config
        self._chips = cfg.chips_per_channel
        self._dies = cfg.dies_per_chip
        self._planes = cfg.planes_per_die
        self._planes_per_channel = self._chips * self._dies * self._planes

    def place(self, lpn: int) -> int:
        """Flat plane index for ``lpn`` (channel-first striping)."""
        n = len(self.channels)
        channel = self.channels[lpn % n]
        rest = lpn // n
        chip = rest % self._chips
        rest //= self._chips
        die = rest % self._dies
        rest //= self._dies
        plane = rest % self._planes
        return (
            channel * self._planes_per_channel
            + chip * self._dies * self._planes
            + die * self._planes
            + plane
        )


class DynamicPagePlacer:
    """Least-busy placement over an allowed channel set.

    A plane's load key is ``(*die_load(die), -free_pages(plane))``: the
    die-and-bus load of the die it sits on, then fullness.  The placer
    picks the minimum key and breaks ties round-robin (earliest offset in
    a scan order rotated past the previous pick) so that an idle device
    still spreads writes across every plane.

    The die part is shared by every plane of one die, so it is probed once
    per die: the minimum key is the largest ``free_pages`` among the planes
    of the tied-minimum dies — exactly the first minimum a strict-``<``
    scan of every plane's full key would return, with a quarter of the
    probes on a 4-plane die.
    """

    def __init__(
        self,
        geometry: Geometry,
        allowed_channels: Sequence[int],
        die_load: DieLoadFn,
        free_pages: FreePagesFn,
        viable_fn: ViableFn | None = None,
    ) -> None:
        if not allowed_channels:
            raise ValueError("allowed_channels must be non-empty")
        self.geometry = geometry
        self.channels = sorted(set(allowed_channels))
        # Candidates interleaved channel-first: consecutive tie-broken picks
        # land on *different channels*, so equal-load writes spread across
        # buses instead of serialising on one channel's planes.
        per_channel = [geometry.planes_in_channels([ch]) for ch in self.channels]
        self.candidates = [
            planes[k]
            for k in range(len(per_channel[0]))
            for planes in per_channel
        ]
        # (die index, [(candidate offset, plane index), ...]) per die
        planes_per_die = geometry.config.planes_per_die
        groups: dict[int, list[tuple[int, int]]] = {}
        for i, plane in enumerate(self.candidates):
            groups.setdefault(plane // planes_per_die, []).append((i, plane))
        self._dies = list(groups.items())
        self.die_load = die_load
        self.free_pages = free_pages
        #: optional health filter; non-viable planes (capacity retired away
        #: under fault injection) are skipped unless every candidate is out
        self.viable_fn = viable_fn
        self._rr = 0

    def place(self, lpn: int) -> int:
        """Flat plane index of the least-busy viable candidate plane."""
        best = self._least_busy(self.viable_fn)
        if best < 0:
            # Every plane filtered out: fall back to raw least-busy so the
            # controller's own fallback/GC machinery gets to decide.
            best = self._least_busy(None)
        self._rr = (best + 1) % len(self.candidates)
        return self.candidates[best]

    def _least_busy(self, viable: ViableFn | None) -> int:
        """Candidate offset of the minimum load key (-1: nothing viable)."""
        die_load = self.die_load
        best_key: tuple | None = None
        tied: list[list[tuple[int, int]]] = []
        for die, members in self._dies:
            if viable is not None:
                members = [m for m in members if viable(m[1])]
                if not members:
                    continue
            key = die_load(die)
            if best_key is None or key < best_key:
                best_key = key
                tied = [members]
            elif key == best_key:
                tied.append(members)
        n = len(self.candidates)
        start = self._rr
        free_pages = self.free_pages
        best = -1
        best_free = 0
        best_offset = n
        for members in tied:
            for i, plane in members:
                free = free_pages(plane)
                offset = (i - start) % n
                if best < 0 or free > best_free or (
                    free == best_free and offset < best_offset
                ):
                    best = i
                    best_free = free
                    best_offset = offset
        return best


def make_placer(
    mode: PageAllocMode,
    geometry: Geometry,
    allowed_channels: Sequence[int],
    die_load: DieLoadFn,
    free_pages: FreePagesFn,
    viable_fn: ViableFn | None = None,
) -> StaticPagePlacer | DynamicPagePlacer:
    """Build the placer for one tenant."""
    if mode is PageAllocMode.STATIC:
        return StaticPagePlacer(geometry, allowed_channels)
    if mode is PageAllocMode.DYNAMIC:
        return DynamicPagePlacer(
            geometry, allowed_channels, die_load, free_pages, viable_fn
        )
    raise ValueError(f"unknown mode {mode!r}")
