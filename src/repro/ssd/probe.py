"""One observer interface for the device stack.

Every component of a simulated device — event loop, channel and die
resources, mapping table, GC, FTL controller, simulator — reports what it
does to one *probe*: an object with the hook methods of :class:`Probe`.
Observability, the runtime sanitizer, the keeper's features collector and
the fleet's completion counter are all probes; :func:`probes` composes
several into one.

Hooks are armed per site: a component asks :func:`hook` for each of its
sites once, when the probe is attached, and keeps the answer — the one
implementing subscriber's bound method, a fan-out over several, or
``None`` when no subscriber implements the hook.  A disarmed site costs
one ``is not None`` test, whatever else the probe observes.
"""

from __future__ import annotations

__all__ = ["Probe", "hook", "probes"]


class Probe:
    """No-op observer of one simulated device.

    Subclasses override the hooks they need; every other site stays
    disarmed.  A subscriber may disarm a hook it implements by overriding
    :meth:`hook` (``Observability`` does, for its trace hooks when
    tracing is off).  Times are simulated microseconds.
    """

    __slots__ = ()

    def hook(self, name: str):
        """The callable to arm at hook site ``name``, or ``None``."""
        fn = getattr(self, name)
        if getattr(fn, "__func__", None) is getattr(Probe, name):
            return None
        return fn

    def joined(self, peers: tuple) -> None:
        """:func:`probes` composed this subscriber with ``peers`` (itself included)."""

    # -- event loop and resources (channel buses, dies) --
    def on_event(self, when_us, now_us) -> None:
        """The loop is about to dispatch an event scheduled at ``when_us``."""
    def on_grant(self, resource, start_us, duration_us, wait_us=0.0) -> None:
        """``resource`` begins a job of ``duration_us`` after ``wait_us`` queued."""
    def on_release(self, resource, now_us) -> None:
        """``resource`` finished its job."""

    # -- FTL: mapping table, garbage collection, bad blocks --
    def on_bind(self, mapping, lpn, ppn) -> None:
        """``mapping.bind(lpn, ppn)`` committed."""
    def on_unbind(self, mapping, lpn, ppn) -> None:
        """``mapping.unbind_ppn(ppn)`` removed ``lpn``."""
    def after_gc(self, state, plane, moves=0, retired=False) -> None:
        """GC reclaimed a block of ``plane`` (``retired``: its erase failed)."""
    def after_retire(self, state, plane, block) -> None:
        """A program failure retired ``block`` of ``plane``."""
    def on_gc_charge(self, workload_id, work_items) -> None:
        """A write of ``workload_id`` was charged ``work_items`` background jobs."""
    def on_gc_start(self, die, item, start_us, duration_us) -> None:
        """``die`` begins one background work ``item`` (GC or relocation)."""

    # -- host requests --
    def on_submit(self, req, now_us) -> None:
        """Request ``req`` reaches the device."""
    def on_dispatch(self, now_us, wid, lpn, ppn, op, die, bus, retry=None) -> None:
        """One page heads for ``die`` and ``bus`` (``retry``: read fault outcome)."""
    def span(self, channel, die):
        """New latency-attribution timeline for one page, or ``None``."""
    def on_complete(self, req, now_us, failed, span) -> None:
        """``req`` completed (``failed``: unrecoverable read; ``span``: the
        timeline of its last page, when attribution is on)."""

    # -- run lifecycle --
    def arm(self, sim) -> None:
        """``sim`` is about to run."""
    def collect(self, sim, result) -> None:
        """``sim`` drained and assembled ``result``, which may be completed."""
    def on_trap(self, exc, now_us) -> None:
        """The run aborted with ``exc``."""


class _FanOut:
    """Several subscribers behind one probe, called in composition order."""

    __slots__ = ("subscribers",)

    def __init__(self, subscribers: tuple) -> None:
        self.subscribers = subscribers

    def hook(self, name: str):
        fns = [fn for fn in (s.hook(name) for s in self.subscribers) if fn is not None]
        if len(fns) < 2:
            return fns[0] if fns else None

        def fan_out(*args):
            for fn in fns:
                out = fn(*args)
            return out

        return fan_out


def hook(probe, name: str):
    """The callable ``probe`` arms at site ``name`` (``None``: disarmed)."""
    return probe.hook(name) if probe is not None else None


def probes(*subscribers):
    """Compose ``subscribers`` (``None`` entries skipped, fan-outs flattened).

    Returns ``None`` for no subscriber, the subscriber itself for one, and
    a fan-out otherwise.
    """
    flat: list = []
    for sub in subscribers:
        if isinstance(sub, _FanOut):
            flat.extend(sub.subscribers)
        elif sub is not None:
            flat.append(sub)
    if len(flat) < 2:
        return flat[0] if flat else None
    peers = tuple(flat)
    for sub in peers:
        sub.joined(peers)
    return _FanOut(peers)
