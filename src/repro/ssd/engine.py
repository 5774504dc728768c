"""Discrete-event simulation core.

A deliberately small DES kernel: an event heap plus priority-queued
:class:`Resource` objects.  Jobs acquire one resource at a time for a fixed
duration; when a resource frees it grants the highest-priority waiter.

Priorities are tuples ordered ascending; the simulator uses
``(priority_class, enqueue_time, seq)`` so that reads (class 0) overtake
garbage collection (class 1) and writes (class 2) that have not yet started —
the paper's "read operations ... have priority to respond because of the
lower flash chip accessing time".  A job already holding the resource is
never preempted (flash commands are not interruptible).
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Callable

from .probe import hook

__all__ = ["ComposedLoop", "EventLoop", "Resource", "PRIO_READ", "PRIO_GC", "PRIO_WRITE"]

PRIO_READ = 0
PRIO_GC = 1
PRIO_WRITE = 2


class EventLoop:
    """Minimal event loop: schedule callbacks at absolute times."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None], bool]] = []
        self._seq = count()
        self._weak_pending = 0
        self.now = 0.0
        self.events_processed = 0
        self._on_event = None

    def attach(self, probe) -> None:
        """Arm the loop-event hook from ``probe`` (``None`` disarms it)."""
        self._on_event = hook(probe, "on_event")

    #: scheduling times this close below ``now`` are float-rounding residue
    #: from summed phase durations, not logic errors; they clamp to ``now``.
    TIME_EPSILON = 1e-9

    def schedule(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute time ``when`` (>= now).

        ``when`` within :data:`TIME_EPSILON` below ``now`` clamps to ``now``
        (chained ``start + duration`` arithmetic can round a hair under the
        current time); anything further in the past raises.
        """
        if when < self.now:
            if self.now - when > self.TIME_EPSILON:
                raise ValueError(f"cannot schedule in the past ({when} < {self.now})")
            when = self.now
        heapq.heappush(self._heap, (when, next(self._seq), callback, False))

    def schedule_weak(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule a *weak* event: one that never keeps the loop alive.

        Weak events dispatch normally while ordinary ("strong") work is
        pending, but once the heap holds only weak events an unbounded
        :meth:`run` drops them without dispatch — so periodic samplers
        scheduled this way can never extend ``now`` past the last real
        event and never perturb a run's makespan.  Bounded runs
        (``run(until=...)``) dispatch weak events up to the horizon like
        any other event.
        """
        if when < self.now:
            if self.now - when > self.TIME_EPSILON:
                raise ValueError(f"cannot schedule in the past ({when} < {self.now})")
            when = self.now
        heapq.heappush(self._heap, (when, next(self._seq), callback, True))
        self._weak_pending += 1

    def every(self, interval_us: float, fn: Callable[[], None]) -> None:
        """Weakly invoke ``fn()`` every ``interval_us`` of simulated time.

        The metronome re-arms only while strong work remains pending, so
        two concurrent samplers cannot keep each other alive: the tick
        chain dies with the last real event and any trailing weak tick is
        dropped by :meth:`run`.
        """
        if interval_us <= 0:
            raise ValueError("interval_us must be positive")

        def tick() -> None:
            fn()
            if self.pending_strong:
                self.schedule_weak(self.now + interval_us, tick)

        self.schedule_weak(self.now + interval_us, tick)

    @property
    def pending_strong(self) -> int:
        """Number of pending events that keep the loop alive."""
        return len(self._heap) - self._weak_pending

    def step(self) -> bool:
        """Dispatch exactly one pending event (weak or strong).

        Returns ``True`` when an event was dispatched.  Unlike :meth:`run`
        this does not apply the weak-only drop rule — composition drivers
        (see :class:`ComposedLoop`) decide when a member is dormant.
        """
        if not self._heap:
            return False
        when, _, callback, weak = heapq.heappop(self._heap)
        if weak:
            self._weak_pending -= 1
        if self._on_event is not None:
            self._on_event(when, self.now)
        self.now = when
        self.events_processed += 1
        callback()
        return True

    def discard_weak(self) -> None:
        """Drop all remaining events if only weak ones remain.

        Mirrors the tail behaviour of an unbounded :meth:`run`: trailing
        samplers are discarded without dispatch so ``now`` stays at the
        last strong event.  A no-op while strong work is still pending.
        """
        if self._heap and self._weak_pending == len(self._heap):
            self._heap.clear()
            self._weak_pending = 0

    def run(self, until: float | None = None) -> None:
        """Process events until the heap drains (or ``until`` is reached).

        An unbounded run stops as soon as only weak events remain (see
        :meth:`schedule_weak`): the trailing weak events are discarded
        without dispatch, leaving ``now`` at the last strong event.  The
        dispatch is :meth:`step`, inlined.
        """
        heap = self._heap
        pop = heapq.heappop
        while heap:
            if until is None:
                if self._weak_pending == len(heap):
                    heap.clear()
                    self._weak_pending = 0
                    break
            elif heap[0][0] > until:  # repro-lint: disable=R001 (heap entries are (when, seq, fn); when is microseconds by the DES contract)
                break
            when, _, callback, weak = pop(heap)
            if weak:
                self._weak_pending -= 1
            if self._on_event is not None:
                self._on_event(when, self.now)
            self.now = when
            self.events_processed += 1
            callback()

    def __bool__(self) -> bool:
        return bool(self._heap)


class ComposedLoop:
    """Deterministically interleave several :class:`EventLoop` members.

    Each member keeps its own clock (``loop.now`` stays a per-device
    makespan), but dispatch order is global: the driver repeatedly picks
    the *active* member whose next event is earliest — ties broken by
    member index, so composition is fully deterministic — and dispatches
    exactly one event via :meth:`EventLoop.step`.

    A member whose heap holds only weak events is *dormant*: it is skipped
    rather than drained, exactly replicating the single-loop rule that
    samplers never extend a makespan.  If a later event on another member
    schedules strong work onto a dormant member (e.g. a tenant migration),
    the member wakes and its pending weak ticks dispatch first in its own
    time order, so telemetry metronomes revive naturally.  When every
    member is dormant or empty the run ends and trailing weak events are
    discarded on all members.
    """

    def __init__(self, loops: list[EventLoop] | tuple[EventLoop, ...]) -> None:
        if not loops:
            raise ValueError("ComposedLoop needs at least one member loop")
        self.loops = list(loops)
        #: furthest simulated time any member has reached.
        self.now = 0.0
        self.events_processed = 0

    def _next_active(self) -> EventLoop | None:
        best = None
        best_when = 0.0
        for loop in self.loops:
            if loop.pending_strong == 0:
                continue
            when = loop._heap[0][0]  # repro-lint: disable=R001 (heap entries are (when, seq, fn); when is microseconds by the DES contract)
            if best is None or when < best_when:
                best = loop
                best_when = when
        return best

    def step(self) -> bool:
        """Dispatch one event on the earliest active member; False when done."""
        member = self._next_active()
        if member is None:
            return False
        member.step()
        if member.now > self.now:
            self.now = member.now
        self.events_processed += 1
        return True

    def run(self) -> None:
        """Run members to global quiescence, then drop trailing weak events."""
        while self.step():
            pass
        for loop in self.loops:
            loop.discard_weak()

    def __bool__(self) -> bool:
        return any(loop.pending_strong for loop in self.loops)


class Resource:
    """A serially-reusable resource with priority-ordered waiters.

    ``acquire`` grants immediately when idle, otherwise parks the job in a
    priority heap.  The holder calls nothing explicitly: the resource
    schedules its own release after the requested duration and then grants
    the next waiter.  ``on_grant`` callbacks receive the grant time.
    """

    __slots__ = (
        "loop", "name", "busy", "free_at", "_waiters", "_seq",
        "busy_time_us", "grants", "wait_time_us", "gc_busy_time_us",
        "kind", "_on_grant", "_on_release",
    )

    def __init__(self, loop: EventLoop, name: str = "", kind: str = "resource") -> None:
        self.loop = loop
        self.name = name
        self.busy = False
        self.free_at = 0.0
        self._waiters: list[tuple[tuple, int, float, float, Callable[[float], None]]] = []
        self._seq = count()
        # --- statistics ---
        self.busy_time_us = 0.0
        self.grants = 0
        self.wait_time_us = 0.0
        #: busy time booked for *internal* (GC-priority) work — copyback,
        #: erase, fault relocation.  Booked at grant time by the caller
        #: (see ``SSDSimulator._charge_gc``); latency attribution samples
        #: the delta across a host job's wait to separate GC stall from
        #: plain queueing.
        self.gc_busy_time_us = 0.0
        self.kind = kind
        self._on_grant = None
        self._on_release = None

    def attach(self, probe) -> None:
        """Arm the grant and release hooks from ``probe`` (``None`` disarms)."""
        self._on_grant = hook(probe, "on_grant")
        self._on_release = hook(probe, "on_release")

    def acquire(self, priority: tuple, duration_us: float, on_grant: Callable[[float], None]) -> None:
        """Request the resource for ``duration_us`` at ``priority`` (lower first).

        ``on_grant(start_us)`` fires when the job begins service; the
        resource auto-releases at ``start_us + duration_us``.
        """
        if duration_us < 0:
            raise ValueError("duration must be non-negative")
        loop = self.loop
        if self.busy:
            heapq.heappush(
                self._waiters,
                (priority, next(self._seq), loop.now, duration_us, on_grant),
            )
            return
        # Idle: grant at once (zero wait).  The release is pushed after
        # ``on_grant`` runs, so events it schedules for the same instant
        # dispatch first; ``start + duration >= now`` needs no clamp.
        start_us = loop.now
        if self._on_grant is not None:
            self._on_grant(self, start_us, duration_us, 0.0)
        self.busy = True
        self.free_at = free_at = start_us + duration_us
        self.busy_time_us += duration_us
        self.grants += 1
        on_grant(start_us)
        heapq.heappush(loop._heap, (free_at, next(loop._seq), self._release, False))

    @property
    def queue_depth(self) -> int:
        """Number of jobs currently waiting (excludes the holder)."""
        return len(self._waiters)

    def _release(self) -> None:
        self.busy = False
        loop = self.loop
        start_us = loop.now
        if self._on_release is not None:
            self._on_release(self, start_us)
        if not self._waiters:
            return
        _, _, enqueued_us, duration_us, on_grant = heapq.heappop(self._waiters)
        wait_us = start_us - enqueued_us
        if self._on_grant is not None:
            self._on_grant(self, start_us, duration_us, wait_us)
        self.busy = True
        self.free_at = free_at = start_us + duration_us
        self.busy_time_us += duration_us
        self.grants += 1
        self.wait_time_us += wait_us
        on_grant(start_us)
        heapq.heappush(loop._heap, (free_at, next(loop._seq), self._release, False))

    def utilization(self, elapsed_us: float) -> float:
        """Fraction of ``elapsed_us`` this resource spent busy."""
        if elapsed_us <= 0:
            return 0.0
        return min(1.0, self.busy_time_us / elapsed_us)
