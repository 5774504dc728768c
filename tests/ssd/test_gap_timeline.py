"""_GapTimeline: the fast model's work-conserving resource approximation."""

from random import Random

from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.ssd import SSDConfig
from repro.ssd.fastmodel import FastLatencyModel, _GapTimeline, _stage_us


class TestBasicPlacement:
    def test_idle_resource_serves_at_request_time(self):
        tl = _GapTimeline()
        assert tl.place(10.0, 5.0) == 15.0
        assert tl.tail == 15.0

    def test_busy_resource_queues(self):
        tl = _GapTimeline()
        tl.place(0.0, 10.0)
        assert tl.place(2.0, 5.0) == 15.0

    def test_gap_recorded_when_request_after_tail(self):
        tl = _GapTimeline()
        tl.place(0.0, 5.0)       # busy [0, 5]
        tl.place(20.0, 5.0)      # busy [20, 25]; gap [5, 20]
        assert tl.gaps == [[5.0, 20.0]]

    def test_backfills_gap(self):
        tl = _GapTimeline()
        tl.place(0.0, 5.0)
        tl.place(20.0, 5.0)      # gap [5, 20]
        end = tl.place(6.0, 4.0)  # fits in the gap at 6
        assert end == 10.0
        assert tl.tail == 25.0   # tail unchanged

    def test_gap_split_on_interior_placement(self):
        tl = _GapTimeline()
        tl.place(0.0, 2.0)
        tl.place(30.0, 2.0)      # gap [2, 30]
        tl.place(10.0, 5.0)      # occupies [10, 15]
        assert [2.0, 10.0] in tl.gaps
        assert [15.0, 30.0] in tl.gaps

    def test_gap_consumed_from_start(self):
        tl = _GapTimeline()
        tl.place(0.0, 2.0)
        tl.place(10.0, 2.0)      # gap [2, 10]
        tl.place(0.0, 8.0)       # rt before gap: starts at 2, fills whole gap
        assert tl.gaps == []

    def test_too_small_gap_skipped(self):
        tl = _GapTimeline()
        tl.place(0.0, 2.0)
        tl.place(4.0, 2.0)       # gap [2, 4]
        end = tl.place(0.0, 3.0)  # does not fit; goes to tail
        assert end == 9.0

    def test_old_gaps_pruned(self):
        tl = _GapTimeline()
        tl.place(0.0, 1.0)
        tl.place(10.0, 1.0)      # gap [1, 10]
        tl.place(100_000.0, 1.0)
        tl.place(100_001.0, 1.0)
        assert [1.0, 10.0] not in tl.gaps


class TestWorkConservation:
    @given(
        jobs=st.lists(
            st.tuples(st.floats(0, 1000), st.floats(0.1, 50)),
            min_size=1,
            max_size=60,
        )
    )
    def test_no_overlap_and_no_early_start(self, jobs):
        """Bookings never start before their request time, and total busy
        time equals the sum of durations (no lost or duplicated work)."""
        tl = _GapTimeline()
        intervals = []
        # Process in arrival order like the fast model does.
        for rt, dur in sorted(jobs):
            end = tl.place(rt, dur)
            start = end - dur
            assert start >= rt - 1e-9
            intervals.append((start, end))
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1 - 1e-6, "bookings overlap"

    def test_utilisation_beats_scalar_timeline(self):
        """The scenario that motivated gaps: a late-requesting job must not
        block earlier-requesting jobs from idle windows."""
        tl = _GapTimeline()
        tl.place(0.0, 1.0)        # short job
        tl.place(100.0, 10.0)     # requested late: gap [1, 100]
        # Ten early jobs fit in the gap instead of queueing at the tail.
        ends = [tl.place(float(i), 5.0) for i in range(1, 11)]
        assert max(ends) < 100.0


class _ReferenceGapTimeline:
    """The gap timeline as first written (gaps as a list of ``[start, end]``
    pairs, scanned from the oldest), kept as the reference that the flat,
    bisected :class:`_GapTimeline` must reproduce bit for bit."""

    _PRUNE_HORIZON = 5_000.0

    def __init__(self):
        self.tail = 0.0
        self.gaps = []

    def place(self, rt, dur):
        gaps = self.gaps
        if gaps:
            prune_before = rt - self._PRUNE_HORIZON
            while gaps and gaps[0][1] <= prune_before:
                gaps.pop(0)
            for gi in range(len(gaps)):
                gap = gaps[gi]
                gap_start = gap[0]
                start = rt if rt > gap_start else gap_start
                if gap[1] - start >= dur:
                    end = start + dur
                    if start - gap_start > 1e-9:
                        old_end = gap[1]
                        gap[1] = start
                        if old_end - end > 1e-9:
                            gaps.insert(gi + 1, [end, old_end])
                    else:
                        gap[0] = end
                        if gap[1] - end <= 1e-9:
                            del gaps[gi]
                    return end
        tail = self.tail
        if rt > tail:
            if rt - tail > 1e-9:
                gaps.append([tail, rt])
                if len(gaps) > 32:
                    gaps.pop(0)
            end = rt + dur
        else:
            end = tail + dur
        self.tail = end
        return end


def _walk(steps):
    """(rt, dur) jobs from steps of a moving cursor.  A step is a jump past
    the prune horizon (kind 0), a request reaching back behind the cursor
    (kinds 1-3), or a burst of ``repeat`` requests ``forward`` apart."""
    jobs, cursor = [], 0.0
    for kind, repeat, forward, back, dur in steps:
        if kind == 0:
            cursor += 5_000.0 + 200.0 * forward
            jobs.append((cursor, dur))
        elif kind <= 3:
            jobs.append((cursor - back, dur))
        else:
            for _ in range(repeat):
                cursor += forward
                jobs.append((cursor, dur))
    return jobs


#: Request sequences that open many gaps (bursts), reach back into them
#: (backfills and interior splits), and jump past the prune horizon; zero
#: durations included.
JOBS = st.lists(
    st.tuples(
        st.integers(0, 9),
        st.integers(1, 40),
        st.floats(0, 40),
        st.floats(0, 400),
        st.one_of(st.just(0.0), st.floats(0, 30)),
    ),
    min_size=1,
    max_size=30,
).map(_walk)


@st.composite
def _edge_jobs(draw):
    """:data:`JOBS`, then jobs placed against remembered gaps: starting
    0, 5e-10 or 5e-7 after a gap's start and leaving 0, 5e-10 or 5e-7 of
    it, so the 1e-9 split rules decide what is kept."""
    jobs, ref = draw(JOBS), _ReferenceGapTimeline()
    for rt, dur in jobs:
        ref.place(rt, dur)
    for _ in range(draw(st.integers(1, 20))):
        if not ref.gaps:
            break
        gap_start, gap_end = draw(st.sampled_from(ref.gaps))
        rt = gap_start + draw(st.sampled_from([0.0, 5e-10, 5e-7]))
        dur = max(gap_end - rt - draw(st.sampled_from([0.0, 5e-10, 5e-7])), 0.0)
        ref.place(rt, dur)
        jobs.append((rt, dur))
    return jobs

#: positive service durations, as every configuration has
DURATIONS = st.floats(0, 30, exclude_min=True)


def _paths(jobs):
    """Which ``place`` branches the reference takes on ``jobs``."""
    tl, seen = _ReferenceGapTimeline(), set()
    for rt, dur in jobs:
        gaps, tail = len(tl.gaps), tl.tail
        prunes = bool(tl.gaps) and tl.gaps[0][1] <= rt - 5_000.0
        tl.place(rt, dur)
        if prunes:
            seen.add("prune")
        elif gaps == 32 and rt - tail > 1e-9:
            seen.add("cap")
        if tl.tail == tail and len(tl.gaps) > gaps:
            seen.add("split")
    return seen


class TestFlatStorageIsExact:
    @pytest.mark.parametrize("path", ["cap", "prune", "split"])
    def test_strategy_reaches(self, path):
        find(
            JOBS,
            lambda jobs: path in _paths(jobs),
            settings=settings(max_examples=5_000, database=None, phases=[Phase.generate]),
            random=Random(0),
        )

    @given(jobs=st.one_of(JOBS, _edge_jobs()))
    @settings(max_examples=300)
    def test_matches_reference_bit_for_bit(self, jobs):
        tl, ref = _GapTimeline(), _ReferenceGapTimeline()
        for rt, dur in jobs:
            got = (tl.place(rt, dur), tl.tail, tl.gaps)
            want = (ref.place(rt, dur), ref.tail, ref.gaps)
            assert repr(got) == repr(want)


class TestTailRecursion:
    @given(
        jobs=st.lists(
            st.tuples(st.one_of(st.just(0.0), st.floats(0, 100)), DURATIONS),
            min_size=1,
            max_size=150,
        )
    )
    @settings(max_examples=300)
    def test_non_decreasing_requests_never_backfill(self, jobs):
        """With request times that never decrease and positive durations,
        every job books at the tail: ``end = max(rt, tail) + dur`` bit for
        bit.  (A zero duration could still land in a gap ending at ``rt``.)"""
        tl, rt, tail = _GapTimeline(), 0.0, 0.0
        for step, dur in jobs:
            rt += step
            tail = (rt if rt > tail else tail) + dur
            assert repr(tl.place(rt, dur)) == repr(tail)
            assert repr(tl.tail) == repr(tail)

    @given(
        jobs=st.lists(
            st.tuples(st.integers(0, 3), st.floats(0, 3_000)), min_size=1, max_size=200
        ),
        dur=DURATIONS,
        sort=st.booleans(),
    )
    @settings(max_examples=300)
    def test_stage_equals_place_per_resource(self, jobs, dur, sort):
        """``_stage_us`` equals booking each resource's requests with
        ``place`` in index order, whichever route each resource takes."""
        if sort:  # every resource then sees non-decreasing times
            jobs = sorted(jobs, key=lambda job: job[1])
        resource = [r for r, _ in jobs]
        request_us = [rt for _, rt in jobs]
        timelines = [_GapTimeline() for _ in range(4)]
        want = [timelines[r].place(rt, dur) for r, rt in jobs]
        got = _stage_us(np.array(request_us), np.array(resource), dur).tolist()
        assert repr(got) == repr(want)


class TestTimelineRoutes:
    #: transfers outlast senses on the small device; slow senses take the
    #: read-bus stage off the tail recursion
    MODELS = [
        FastLatencyModel(config, {0: range(8)})
        for config in (SSDConfig.small(), SSDConfig.small().replace(read_latency_us=100.0))
    ]

    @given(
        jobs=st.lists(
            # (arrival, plane on the first two channels, is a write if
            # mixed): four dies, so even short lists queue
            st.tuples(st.floats(0, 1_000), st.integers(0, 15), st.booleans()),
            min_size=1,
            max_size=300,
        ),
        kind=st.sampled_from(["write", "read", "mixed"]),
        model=st.sampled_from(MODELS),
    )
    @settings(max_examples=200)
    def test_equals_reference_loop(self, jobs, kind, model):
        """Whichever route a run takes, its ends equal one reference
        ``place`` per phase in sub-request order."""
        config = model.config
        jobs = sorted(jobs)  # sub-requests come in arrival order
        arrival = [a for a, _, _ in jobs]
        writes = [{"write": True, "read": False, "mixed": w}[kind] for _, _, w in jobs]
        dies = [p // config.planes_per_die for _, p, _ in jobs]
        chans = [p // model._planes_per_channel for _, p, _ in jobs]
        t = model.times
        die_tl = [_ReferenceGapTimeline() for _ in range(config.dies)]
        chan_tl = [_ReferenceGapTimeline() for _ in range(config.channels)]
        want = [
            die_tl[d].place(chan_tl[c].place(a, t.write_bus_us), t.write_die_us) if w
            else chan_tl[c].place(die_tl[d].place(a, t.read_die_us), t.read_bus_us)
            for a, w, d, c in zip(arrival, writes, dies, chans)
        ]
        got = model._timeline_us(
            np.array(arrival), np.array(writes, dtype=np.int8), np.array(dies), np.array(chans)
        )
        assert repr(got.tolist()) == repr(want)
