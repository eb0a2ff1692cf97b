"""Window algebra: per-row assignment oracles (tumbling, sliding buckets,
slices, sessions) and their consistency with the library's slice maps."""

import numpy as np
import pytest

from condor_ray.windows import (
    SlidingWindow,
    TumblingWindow,
    slices_of_window,
    windows_of_slice,
)


# -- per-row window assignment over epoch-microsecond int64 arrays ----------

def assign_tumbling(ts_us: np.ndarray, window: TumblingWindow) -> np.ndarray:
    """window_id per row (int64). Bounds: [id*size, (id+1)*size)."""
    return ts_us // window.size_us


def tumbling_bounds(window_id, window: TumblingWindow):
    start = np.multiply(window_id, window.size_us)
    return start, start + window.size_us


def assign_sliding_bucketing(ts_us: np.ndarray, window: SlidingWindow):
    """Bucketing: each row joins every window containing it.  Returns
    parallel (row_indices, window_ids); window w spans [w*slide, w*slide +
    size).  Window ids are clamped at 0, as ``windows_of_slice`` floors at
    ``w >= 0`` (Flink's assigner would also emit negative-start windows)."""
    n = len(ts_us)
    k = window.windows_per_row
    w_max = ts_us // window.slide_us
    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    wids = (w_max[:, None] - np.arange(k, dtype=np.int64)[None, :]).ravel()
    starts = wids * window.slide_us
    valid = (wids >= 0) & (starts + window.size_us > ts_us[rows]) & (starts <= ts_us[rows])
    return rows[valid], wids[valid]


def sliding_bounds(window_id, window: SlidingWindow):
    start = np.multiply(window_id, window.slide_us)
    return start, start + window.size_us


def assign_slices(ts_us: np.ndarray, slice_us: int) -> np.ndarray:
    """Scotty-style stream slicing: slice_id = ts // slice_len."""
    return ts_us // slice_us


def sessionize(ts_us_sorted: np.ndarray, gap_us: int) -> np.ndarray:
    """Session ordinals for ts-sorted rows of ONE key: a new session starts
    when the gap to the previous row is >= gap (Flink session semantics)."""
    if len(ts_us_sorted) == 0:
        return np.empty(0, dtype=np.int64)
    gaps = np.diff(ts_us_sorted)
    return np.concatenate([[0], np.cumsum(gaps >= gap_us)]).astype(np.int64)


def test_tumbling_assignment_and_bounds():
    w = TumblingWindow(5_000)
    ts = np.asarray([0, 4_999_999, 5_000_000, 12_345_678], dtype=np.int64)
    wid = assign_tumbling(ts, w)
    assert wid.tolist() == [0, 0, 1, 2]
    start, end = tumbling_bounds(wid, w)
    assert ((ts >= start) & (ts < end)).all()


def test_sliding_bucketing_covers_every_containing_window():
    w = SlidingWindow(10_000, 2_500)
    ts = np.asarray([0, 9_999_999, 10_000_000, 25_000_000], dtype=np.int64)
    rows, wids = assign_sliding_bucketing(ts, w)
    for r, wid in zip(rows.tolist(), wids.tolist()):
        s, e = sliding_bounds(wid, w)
        assert s <= ts[r] < e
    # each interior row appears in exactly size/slide = 4 windows
    counts = np.bincount(rows, minlength=len(ts))
    assert counts[3] == 4
    assert counts[0] == 1  # first window only (no negative window ids)


def test_slices_windows_duality():
    w = SlidingWindow(10_000, 2_500)
    slice_us = w.slice_us
    for sid in range(3, 30):
        for wid in windows_of_slice(sid, slice_us, w):
            assert sid in list(slices_of_window(wid, w, slice_us))
    for wid in range(3, 20):
        for sid in slices_of_window(wid, w, slice_us):
            assert wid in windows_of_slice(sid, slice_us, w)


def test_assign_slices_matches_tumbling():
    ts = np.arange(0, 50_000_000, 1_234_567, dtype=np.int64)
    assert (
        assign_slices(ts, 5_000_000) == assign_tumbling(ts, TumblingWindow(5_000))
    ).all()


def test_sessionize_gaps():
    ts = np.asarray([0, 1_000, 2_000, 40_000_000, 40_500_000, 90_000_000], dtype=np.int64)
    sess = sessionize(ts, 30_000_000)
    assert sess.tolist() == [0, 0, 0, 1, 1, 2]
    assert sessionize(np.empty(0, dtype=np.int64), 1).tolist() == []


class TestCountWindowModes:
    """count_window_ids: documented global-ordinal default vs the reference's
    parallelism-dependent `compat=condor` mode
    (SynopsisBuilder.java:213-233)."""

    @staticmethod
    def _flink_sim(subtasks, size, P):
        """Independent sequential simulator of the reference path: per-subtask
        round-robin onto P builders, each builder emits a partial every
        size/P elements, countWindowAll(P) merges consecutive partials."""
        import collections

        rr = collections.defaultdict(int)       # subtask -> round-robin ctr
        rank = collections.defaultdict(int)     # builder -> elements seen
        wids = []
        for st in subtasks:
            b = rr[st] % P
            rr[st] += 1
            wids.append(rank[b] // (size // P))
            rank[b] += 1
        return np.array(wids, dtype=np.int64)

    def test_single_source_condor_equals_global(self):
        from condor_ray.pipelines.sessions import count_window_ids

        ordinals = np.arange(1000, dtype=np.int64)
        g = count_window_ids(ordinals, size=100, mode="global")
        c = count_window_ids(ordinals, size=100, parallelism=4, mode="condor")
        assert np.array_equal(g, c)

    def test_two_subtask_condor_matches_flink_sim_and_differs_from_global(self):
        from condor_ray.pipelines.sessions import count_window_ids

        rng = np.random.default_rng(7)
        n = 2000
        # bursty interleaving: subtask 0 sends runs of ~50, subtask 1 runs of ~10
        subtask = []
        while len(subtask) < n:
            subtask.extend([0] * int(rng.integers(20, 80)))
            subtask.extend([1] * int(rng.integers(5, 15)))
        subtask = np.array(subtask[:n], dtype=np.int64)
        ordinals = np.arange(n, dtype=np.int64)

        c = count_window_ids(ordinals, size=100, parallelism=2,
                             mode="condor", subtask=subtask)
        g = count_window_ids(ordinals, size=100, mode="global")
        assert np.array_equal(c, self._flink_sim(subtask, 100, 2))
        # with skewed multi-subtask arrival the boundaries genuinely diverge
        assert not np.array_equal(c, g)
        # every condor window still holds exactly `size` elements (full ones)
        counts = np.bincount(c)
        assert (counts[:-1] == 100).all()

    def test_condor_mode_rejects_indivisible_size(self):
        from condor_ray.pipelines.sessions import count_window_ids

        with pytest.raises(ValueError):
            count_window_ids(np.arange(10), size=10, parallelism=3, mode="condor")
