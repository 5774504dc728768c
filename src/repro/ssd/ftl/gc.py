"""Greedy garbage collection.

When a plane's free-block pool falls below the configured threshold, the
collector repeatedly picks the sealed block with the fewest valid pages,
copies its valid pages to the plane's active block (plane-internal copyback),
erases it, and returns it to the free pool — until the restore level is
reached or no victim would reclaim space.

State mutation is immediate (so subsequent allocations see reclaimed space);
the *timing* cost is returned as :class:`GCWorkItem` records that the
simulator charges to the plane's die as internal jobs.

With a :class:`~repro.ssd.faults.FaultInjector` attached, each erase is
allowed to fail: the victim's valid pages have already been moved out, but
the block is retired into the plane's bad-block table instead of rejoining
the free pool.  The erase *attempt* still costs full ``tBERS`` (the returned
work item's timing is unchanged); only the reclaimed capacity is lost.
Retired blocks are never sealed or free, so victim selection skips them
structurally.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..probe import hook
from .mapping import FlashArrayState, PlaneState

__all__ = ["GCWorkItem", "GarbageCollector"]


@dataclass(frozen=True)
class GCWorkItem:
    """Timing record of one reclaimed block: ``moves`` copybacks + 1 erase.

    ``retired`` marks a victim whose erase failed — the time was spent, but
    the block went to the bad-block table instead of the free pool.
    """

    plane_index: int
    block: int
    moves: int
    retired: bool = False

    def die_us(self, times) -> float:
        """Die occupancy of this reclaim: copybacks plus the erase attempt."""
        return self.moves * times.move_die_us + times.erase_us


class GarbageCollector:
    """Greedy (min-valid-pages) victim selection per plane."""

    def __init__(self, state: FlashArrayState, *, faults=None) -> None:
        self.state = state
        #: optional :class:`repro.ssd.faults.FaultInjector`; when attached,
        #: erases may fail and retire their block
        self.faults = faults
        cfg = state.config
        self._planes_per_channel = (
            cfg.chips_per_channel * cfg.dies_per_chip * cfg.planes_per_die
        )
        #: total blocks reclaimed (successfully erased)
        self.collections = 0
        #: total valid pages copied (write amplification numerator)
        self.pages_moved = 0
        self._after_gc = None

    def attach(self, probe) -> None:
        """Arm the GC-pass hook from ``probe`` (``None`` disarms it)."""
        self._after_gc = hook(probe, "after_gc")

    def pick_victim(self, plane: PlaneState) -> int | None:
        """Sealed block with the fewest valid pages, or None if no candidate.

        A victim that is still fully valid reclaims nothing (the copyback
        consumes exactly as many pages as the erase frees), so it is not
        eligible.  Bad blocks are never sealed, so they are never candidates.

        Ties on valid count break toward the least-erased block, then the
        lowest index — a total order, so the minimum does not depend on
        set iteration order (which would let the victim, and thus the whole
        downstream timeline, vary with the process hash seed); it also
        keeps reclaim pressure from hammering one block.  One O(B) pass,
        no sort.
        """
        valid = plane.valid_count
        erases = plane.erase_count
        full = plane.pages_per_block
        best = min(
            (
                (valid[block], erases[block], block)
                for block in plane.sealed_blocks()
                if valid[block] < full  # a full block reclaims nothing
            ),
            default=None,
        )
        return None if best is None else best[2]

    def maybe_collect(self, plane: PlaneState) -> list[GCWorkItem]:
        """Run GC on ``plane`` if below threshold; return timing work items."""
        if not self.state.needs_gc(plane):
            return []
        return self.collect(plane)

    def collect(self, plane: PlaneState) -> list[GCWorkItem]:
        """Reclaim blocks until the restore level (or no progress)."""
        items: list[GCWorkItem] = []
        while plane.free_blocks < self.state.gc_restore_blocks:
            victim = self.pick_victim(plane)
            if victim is None:
                break
            items.append(self._reclaim(plane, victim))
        return items

    def _reclaim(self, plane: PlaneState, victim: int) -> GCWorkItem:
        mapping = self.state.mapping
        moves = 0
        for ppn in plane.pages_in_block(victim):
            lpn = mapping.reverse(ppn)
            if lpn is None:
                continue
            mapping.unbind_ppn(ppn)
            plane.invalidate(ppn)
            new_ppn = plane.allocate_page()
            mapping.bind(lpn, new_ppn)
            moves += 1
        retired = False
        if self.faults is not None and self.faults.erase_fails(
            plane.plane_index // self._planes_per_channel,
            plane.erase_count[victim],
        ):
            plane.retire_block(victim)
            self.faults.note_retirement(plane.pages_per_block)
            retired = True
        else:
            plane.erase_block(victim)
            self.collections += 1
        self.pages_moved += moves
        if self._after_gc is not None:
            self._after_gc(self.state, plane, moves, retired)
        return GCWorkItem(plane.plane_index, victim, moves, retired=retired)
