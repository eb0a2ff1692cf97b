"""Window algebra: tumbling / sliding (slice-based and bucketing) / session /
count window definitions, and the slice <-> window maps of stream slicing.

Reference semantics:
- Tumbling: Flink ``timeWindow(size)`` aligned to the epoch
  (conn/.../processor/SynopsisBuilder.java:218-221) — window_id = ts // size.
- Sliding: either independent "buckets" (forceBucketing,
  SynopsisBuilder.java:247-296) or Scotty stream slicing — slices of
  gcd(size, slide), window = union of overlapping slices.
- Session: Scotty session windows — per-key gap merge.
- Count: ``countWindow(size / parallelism)`` per key in the reference
  (SynopsisBuilder.java:220); we deviate (documented, SURVEY §7): count
  windows are defined on GLOBAL row ordinals in arrival order, which makes
  the result independent of the parallelism level.

Timestamps are int64 **microseconds** since epoch (Arrow ``timestamp[us]``);
window sizes are given in milliseconds to mirror the reference API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

US_PER_MS = 1000


@dataclass(frozen=True)
class TumblingWindow:
    size_ms: int

    @property
    def size_us(self) -> int:
        return self.size_ms * US_PER_MS


@dataclass(frozen=True)
class SlidingWindow:
    size_ms: int
    slide_ms: int

    @property
    def size_us(self) -> int:
        return self.size_ms * US_PER_MS

    @property
    def slide_us(self) -> int:
        return self.slide_ms * US_PER_MS

    @property
    def slice_us(self) -> int:
        return math.gcd(self.size_us, self.slide_us)

    @property
    def windows_per_row(self) -> int:
        return -(-self.size_us // self.slide_us)  # ceil


@dataclass(frozen=True)
class SessionWindow:
    gap_ms: int

    @property
    def gap_us(self) -> int:
        return self.gap_ms * US_PER_MS


@dataclass(frozen=True)
class CountWindow:
    size: int  # rows per window, on global arrival ordinals


Window = TumblingWindow | SlidingWindow | SessionWindow | CountWindow


# -- stream slicing: slice_id = ts // slice_us, one partial per slice serves
#    every window definition that overlaps it ---------------------------------

def windows_of_slice(slice_id: int, slice_us: int, window: SlidingWindow) -> list[int]:
    """All sliding-window ids whose span covers the given slice."""
    s_start = slice_id * slice_us
    s_end = s_start + slice_us
    w_max = s_start // window.slide_us
    out = []
    w = w_max
    while w >= 0:
        w_start = w * window.slide_us
        if w_start + window.size_us <= s_start:
            break
        if w_start < s_end:
            out.append(w)
        w -= 1
    return out


def slices_of_window(window_id: int, window: SlidingWindow, slice_us: int) -> range:
    """Slice ids composing one sliding window (window must align to slices)."""
    start = window_id * window.slide_us
    end = start + window.size_us
    return range(start // slice_us, -(-end // slice_us))
