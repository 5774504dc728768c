"""Static and dynamic page placers."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.core.hybrid import PagePolicy, page_modes_for
from repro.ssd import FaultConfig, Geometry, IORequest, OpType, SSDConfig, simulate
from repro.ssd.ftl.page_alloc import DynamicPagePlacer, PageAllocMode, StaticPagePlacer, make_placer


@pytest.fixture
def geo():
    return Geometry(SSDConfig.small())


class TestPageAllocMode:
    def test_from_str(self):
        assert PageAllocMode.from_str("static") is PageAllocMode.STATIC
        assert PageAllocMode.from_str(" DYNAMIC ") is PageAllocMode.DYNAMIC

    def test_from_str_rejects_unknown(self):
        with pytest.raises(ValueError):
            PageAllocMode.from_str("hybrid")  # hybrid is a policy, not a mode


class TestStaticPlacer:
    def test_consecutive_lpns_hit_different_channels(self, geo):
        placer = StaticPagePlacer(geo, [0, 1, 2, 3])
        channels = [
            geo.channel_of(geo.plane_base_ppn(placer.place(lpn)))
            for lpn in range(4)
        ]
        assert channels == [0, 1, 2, 3]

    def test_stays_within_allowed_channels(self, geo):
        allowed = [2, 5]
        placer = StaticPagePlacer(geo, allowed)
        for lpn in range(200):
            plane = placer.place(lpn)
            channel = geo.channel_of(geo.plane_base_ppn(plane))
            assert channel in allowed

    def test_deterministic(self, geo):
        placer = StaticPagePlacer(geo, [0, 1])
        assert [placer.place(i) for i in range(50)] == [
            placer.place(i) for i in range(50)
        ]

    def test_covers_all_planes_of_channel_set(self, geo):
        allowed = [0, 1]
        placer = StaticPagePlacer(geo, allowed)
        planes = {placer.place(lpn) for lpn in range(1000)}
        assert planes == set(geo.planes_in_channels(allowed))

    def test_rejects_empty_channel_set(self, geo):
        with pytest.raises(ValueError):
            StaticPagePlacer(geo, [])

    @given(lpn=st.integers(0, 10**6))
    def test_any_lpn_lands_in_allowed_set(self, lpn):
        geo = Geometry(SSDConfig.small())
        placer = StaticPagePlacer(geo, [1, 4, 6])
        plane = placer.place(lpn)
        channel = geo.channel_of(geo.plane_base_ppn(plane))
        assert channel in (1, 4, 6)


class TestDynamicPlacer:
    def test_picks_least_busy(self, geo):
        loads = {}
        ppd = geo.config.planes_per_die
        placer = DynamicPagePlacer(
            geo, [0, 1], lambda d: (loads.get(d, 0),),
            lambda p: 1 if p == idle else 0,
        )
        candidates = geo.planes_in_channels([0, 1])
        for p in candidates:
            loads[p // ppd] = 5
        idle = candidates[7]
        loads[idle // ppd] = 0
        assert placer.place(0) == idle

    def test_round_robins_on_ties(self, geo):
        placer = DynamicPagePlacer(geo, [0], lambda d: (0,), lambda p: 0)
        picks = [placer.place(i) for i in range(8)]
        assert len(set(picks)) == len(picks)  # spreads over distinct planes

    def test_rejects_empty_channel_set(self, geo):
        with pytest.raises(ValueError):
            DynamicPagePlacer(geo, [], lambda d: (0,), lambda p: 0)


class TestFactory:
    def test_make_static(self, geo):
        placer = make_placer(PageAllocMode.STATIC, geo, [0], lambda d: (0,), lambda p: 0)
        assert isinstance(placer, StaticPagePlacer)

    def test_make_dynamic(self, geo):
        placer = make_placer(PageAllocMode.DYNAMIC, geo, [0], lambda d: (0,), lambda p: 0)
        assert isinstance(placer, DynamicPagePlacer)


class _ReferenceDynamicPlacer:
    """Frozen copy of the per-plane scan the die-grouped placer replaced.

    ``load_fn(plane)`` is the full per-plane key ``(*die_load, -free_pages)``;
    every candidate is probed and the first strict minimum in the rotated
    scan order wins.
    """

    def __init__(self, geometry, allowed_channels, load_fn, viable_fn=None):
        self.channels = sorted(set(allowed_channels))
        per_channel = [geometry.planes_in_channels([ch]) for ch in self.channels]
        self.candidates = [
            planes[k] for k in range(len(per_channel[0])) for planes in per_channel
        ]
        self.load_fn = load_fn
        self.viable_fn = viable_fn
        self._rr = 0

    def place(self, lpn):
        n = len(self.candidates)
        viable = self.viable_fn
        best_index = -1
        best_key = None
        start = self._rr
        for offset in range(n):
            i = (start + offset) % n
            if viable is not None and not viable(self.candidates[i]):
                continue
            key = self.load_fn(self.candidates[i])
            if best_key is None or key < best_key:
                best_key = key
                best_index = i
        if best_index < 0:
            for offset in range(n):
                i = (start + offset) % n
                key = self.load_fn(self.candidates[i])
                if best_key is None or key < best_key:
                    best_key = key
                    best_index = i
        self._rr = (best_index + 1) % n
        return self.candidates[best_index]


#: the paper's 4-plane dies, and a device with two 2-plane dies per chip
PLACER_CONFIGS = (
    SSDConfig.small(),
    SSDConfig(channels=4, dies_per_chip=2, planes_per_die=2, blocks_per_plane=8),
)


def _probes(state, ppd):
    """(die_load, free_pages, viable_fn, reference load_fn) over ``state``."""
    def die_load(die):
        return state["die"][die]

    def free_pages(plane):
        return state["free"][plane]

    def viable(plane):
        return state["viable"][plane]

    def plane_load(plane):
        return (*state["die"][plane // ppd], -state["free"][plane])

    return die_load, free_pages, viable, plane_load


@st.composite
def _placement_runs(draw):
    """A device, a channel set, a start rotation and a few probe states.

    Small value domains make ties common: across dies (equal die keys) and
    inside a die (equal free pages).  A state may filter planes, or filter
    every plane out (the fallback).
    """
    config = draw(st.sampled_from(PLACER_CONFIGS))
    channels = draw(
        st.lists(st.integers(0, config.channels - 1), min_size=1, unique=True)
    )
    n = len(channels) * (config.planes // config.channels)
    start = draw(st.integers(0, n - 1))
    filtered = draw(st.booleans())
    die_key = st.tuples(st.integers(0, 2), st.sampled_from([0.0, 0.5, 1.0]))
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        viable = draw(
            st.one_of(
                st.lists(st.booleans(), min_size=config.planes, max_size=config.planes),
                st.just([False] * config.planes),
            )
        )
        steps.append({
            "die": draw(st.lists(die_key, min_size=config.dies, max_size=config.dies)),
            "free": draw(
                st.lists(st.integers(0, 3), min_size=config.planes, max_size=config.planes)
            ),
            "viable": viable,
        })
    return config, channels, start, filtered, steps


class TestDieGroupedPlacement:
    """The die-grouped minimum is the per-plane scan's first strict minimum."""

    @settings(max_examples=300, deadline=None)
    @given(run=_placement_runs())
    def test_matches_reference_scan(self, run):
        config, channels, start, filtered, steps = run
        geo = Geometry(config)
        state = dict(steps[0])
        die_load, free_pages, viable, plane_load = _probes(state, config.planes_per_die)
        viable = viable if filtered else None
        placer = DynamicPagePlacer(geo, channels, die_load, free_pages, viable)
        reference = _ReferenceDynamicPlacer(geo, channels, plane_load, viable)
        placer._rr = reference._rr = start
        for step in steps:
            state.update(step)
            assert placer.place(0) == reference.place(0)
            assert placer._rr == reference._rr

    def test_each_die_probed_once(self, geo):
        calls = []

        def die_load(die):
            calls.append(die)
            return (die % 3, 0.0)

        placer = DynamicPagePlacer(geo, [1, 2, 5], die_load, lambda p: 0)
        placer.place(0)
        dies = {p // geo.config.planes_per_die for p in placer.candidates}
        assert sorted(calls) == sorted(dies)

    def test_tie_across_dies_goes_to_the_emptier_plane(self, geo):
        # dies 0 and 2 tie on load; die 2's plane has more free pages
        loads = {0: (0, 1.0), 2: (0, 1.0)}
        roomy = 2 * geo.config.planes_per_die + 3
        placer = DynamicPagePlacer(
            geo, [0, 1], lambda d: loads.get(d, (1, 0.0)),
            lambda p: 5 if p == roomy else 4,
        )
        assert placer.place(0) == roomy

    def test_tie_inside_a_die_rotates(self, geo):
        # one idle die, all its planes equally full: picks rotate through it
        placer = DynamicPagePlacer(
            geo, [0, 1], lambda d: (0,) if d == 1 else (1,), lambda p: 7
        )
        picks = [placer.place(i) for i in range(8)]
        die_planes = [p for p in placer.candidates if p // geo.config.planes_per_die == 1]
        assert picks == die_planes * 2

    def test_filtered_planes_are_skipped(self, geo):
        placer = DynamicPagePlacer(
            geo, [0], lambda d: (0,) if d == 0 else (1,), lambda p: 1,
            viable_fn=lambda p: p != 0,
        )
        assert placer.place(0) == 1  # plane 0 is on the idlest die, but out

    def test_all_filtered_falls_back_to_least_busy(self, geo):
        placer = DynamicPagePlacer(
            geo, [0], lambda d: (0,) if d == 1 else (1,), lambda p: 1,
            viable_fn=lambda p: False,
        )
        assert placer.place(0) == 4  # first plane of the idle die 1


class TestPinnedDynamicRuns:
    """Event-engine runs with dynamic placement, pinned exactly.

    The golden scenarios are all static; these pin the DYNAMIC path (with
    GC running and, under faults, program failures retiring blocks).
    """

    DEVICE = SSDConfig(blocks_per_plane=6, pages_per_block=16)
    SETS = {0: [0, 1, 2], 1: [2, 3, 4, 5], 2: [5, 6, 7]}
    #: write share per tenant: write-, read-, write-dominated
    WRITE_SHARE = (0.9, 0.2, 0.7)
    #: (read total, read max, write total, write max, makespan) in us, then
    #: events, GC collections and GC pages moved
    PINNED = {
        ("HYBRID", "clean"): (
            402045.7834071101, 11286.73955131817, 823832.3381587458,
            11471.551092714333, 90217.36016538482, 26680, 16, 9,
        ),
        ("HYBRID", "faults"): (
            1027043.5768189202, 12252.436164110244, 1377241.5965168714,
            12571.2262417819, 88466.96734951767, 26707, 28, 27,
        ),
        ("ALL_DYNAMIC", "clean"): (
            250910.65554818965, 3386.720695326483, 659512.7556340885,
            3650.7170068442792, 83512.822837453, 26672, 8, 1,
        ),
        ("ALL_DYNAMIC", "faults"): (
            431026.6848981211, 6022.288423368314, 1026795.5942591056,
            8820.0, 85494.71359262241, 26699, 20, 16,
        ),
    }

    def trace(self):
        """800 requests per tenant in 80 ms over 250-page footprints."""
        rng = np.random.default_rng(20200525)
        return [
            IORequest(
                arrival_us=float(rng.uniform(0, 80_000)),
                workload_id=wid,
                op=OpType.WRITE if rng.random() < share else OpType.READ,
                lpn=int(rng.integers(0, 250)),
                length=int(rng.integers(1, 5)),
            )
            for wid, share in enumerate(self.WRITE_SHARE)
            for _ in range(800)
        ]

    @pytest.mark.parametrize("case", list(PINNED), ids="-".join)
    def test_simulate_is_pinned(self, case):
        policy, faults = case
        modes = page_modes_for(PagePolicy[policy], [0, 1, 0])
        faults = FaultConfig(program_fail_rate=0.005) if faults == "faults" else None
        r = simulate(self.trace(), self.DEVICE, self.SETS, modes, faults=faults)
        got = (
            r.read.total_us, r.read.max_us, r.write.total_us, r.write.max_us,
            r.makespan_us, r.events, r.gc_collections, r.gc_pages_moved,
        )
        assert got == self.PINNED[case]
