"""Continuous (streaming) query evaluation: a standing query set evaluated
against the live synopsis stream, per close cycle, inside the streaming job.

Reference semantics (conn/.../evaluator/QueryLatestFunction.java:27-61): the
query stream is broadcast against the synopsis stream; each query answers
against the LATEST synopsis at its arrival, and queries arriving BEFORE the
first synopsis buffer until one exists, then flush against it (:42-60).

Ray-native shape: the micro-batch streaming job already has a natural cycle
boundary (fragment ingest -> watermark advance -> window close/emit).  An
evaluator drives the job one fragment at a time and interleaves query
arrivals at those boundaries:

  cycle k: ingest fragment k -> close windows due at the new watermark ->
           take in the windows that cycle emitted (the job's ``last_emits``)
           -> flush buffered queries -> evaluate cycle-k arrivals

``_StandingQuery`` owns that loop, the reading of each cycle's emit files,
answering a frame against a synopsis and the typed empty result; the four
evaluators keep only the reference's rules for taking in a window and for
answering an arrival.  Evaluation is driver-side vectorized (``query_fn``
over the key array) — the synopsis stream is tiny (one row per closed
window); the heavy query fan-out path stays ``evaluate.queries.query_latest``
(broadcast + map_batches).  On bounded input the FINAL cycle's
standing-query answers equal the batch ``queryLatest`` result — the
driver-gate equivalence.
"""

from __future__ import annotations

import bisect

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..synopses.base import Synopsis
from .queries import asof_route


class _BoundedArchive:
    """windowStart-ordered bounded synopsis archive (the reference's TreeSet,
    QueryTimestampedFunction.java:52-79) with O(1) amortized insert/evict.

    Eviction advances a head pointer and compacts only when half the backing
    list is dead — ``pop(0)`` shifted the whole list on EVERY insert once the
    archive hit its cap (O(windows x cap) over a long run).  In-order arrivals
    (the normal case: windows close in start order) append; out-of-order
    inserts bisect like the old searchsorted side='left'.  The numpy views
    ``asof_route`` needs are cached between mutations instead of rebuilt per
    arrival batch."""

    def __init__(self, cap: int):
        self.cap = cap
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._payloads: list[bytes | None] = []  # None = evicted slot
        self._head = 0
        self._np: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._starts) - self._head

    def insert(self, ws: int, we: int, payload: bytes) -> None:
        if len(self) >= self.cap:
            # evict the oldest window (TreeSet.pollFirst, :77-79); null the
            # dead payload slot NOW so peak payload memory stays O(cap) —
            # compaction alone would hold up to cap dead payloads (MB each
            # for big CM sketches) until half the backing list is dead
            self._payloads[self._head] = None
            self._head += 1
            if self._head * 2 > len(self._starts):
                del self._starts[: self._head]
                del self._ends[: self._head]
                del self._payloads[: self._head]
                self._head = 0
        if not len(self) or ws > self._starts[-1]:
            self._starts.append(ws)
            self._ends.append(we)
            self._payloads.append(payload)
        else:
            i = bisect.bisect_left(self._starts, ws, self._head)
            self._starts.insert(i, ws)
            self._ends.insert(i, we)
            self._payloads.insert(i, payload)
        self._np = None

    def views(self) -> tuple[np.ndarray, np.ndarray]:
        """(starts, ends) int64 arrays over the live entries."""
        if self._np is None:
            self._np = (
                np.asarray(self._starts[self._head :], dtype=np.int64),
                np.asarray(self._ends[self._head :], dtype=np.int64),
            )
        return self._np

    def payload(self, i: int) -> bytes:
        """Payload for live index ``i`` (as routed by asof_route)."""
        return self._payloads[self._head + i]


def _ts_us(col) -> np.ndarray:
    """Epoch-microseconds from a query_ts column regardless of pandas'
    datetime64 unit (astype(int64) on a datetime64[ns] series yields
    ns-scale ints that never land inside a us window)."""
    if getattr(col.dtype, "kind", "") == "M":
        return col.to_numpy(dtype="datetime64[us]").astype(np.int64)
    return col.to_numpy().astype(np.int64)


_RESULT_DTYPES = {
    "cycle": np.int64, "query_key": np.int64, "query_ts": np.int64,
    "stratum": object, "result": np.float64,
    "window_start": np.int64, "window_end": np.int64,
}


class _StandingQuery:
    """The cycle loop shared by the four evaluators.  Subclasses supply
    ``_take(cycle, ws, we, payload, stratum)`` (one emitted window, in
    window_start order), ``_arrive(cycle, queries)`` and the columns of
    their empty result.  ``results`` rows carry (cycle, query columns,
    result, window_start, window_end)."""

    stratified = False  # read the emit rows' stratum (else None)
    result_columns: tuple[str, ...]

    def __init__(self, job, query_fn):
        self.job = job
        self.query_fn = query_fn
        self.results: list[pd.DataFrame] = []

    def run(self, fragment_paths: list[str], query_arrivals) -> pd.DataFrame:
        """``query_arrivals``: dict cycle->DataFrame(query_key, ...) or a
        callable cycle->DataFrame (a STANDING query set passes the same
        frame every cycle).  Cycle k runs after fragment k's close; cycle
        ``len(fragment_paths)`` is the end-of-stream flush."""
        get = query_arrivals if callable(query_arrivals) else query_arrivals.get
        n = len(fragment_paths)
        for k in range(n + 1):
            self.job.run(fragment_paths[: k + 1], final_flush=k == n, pipelined=False)
            for ws, we, payload, stratum in self._cycle_windows():
                self._take(k, ws, we, payload, stratum)
            self._arrive(k, get(k))
        if not self.results:
            return pd.DataFrame(
                {c: pd.Series(dtype=_RESULT_DTYPES[c]) for c in self.result_columns}
            )
        return pd.concat(self.results, ignore_index=True)

    def _cycle_windows(self):
        """(ws, we, payload, stratum) of every window the job's last run
        emitted, stably ordered by window_start."""
        cols = ["window_start", "window_end", "payload"]
        cols += ["stratum"] if self.stratified else []
        paths = self.job.last_emits
        if not paths:
            return []
        t = pa.concat_tables([pq.read_table(p, columns=cols) for p in paths])
        t = t.take(np.argsort(t["window_start"].to_numpy(), kind="stable"))
        strata = t["stratum"].to_pylist() if self.stratified else [None] * t.num_rows
        return zip(t["window_start"].to_pylist(), t["window_end"].to_pylist(),
                   t["payload"].to_pylist(), strata)

    def _strata(self, queries: pd.DataFrame):
        """(stratum, frame) groups of an arrival; one group under None when
        unstratified.  Strata are normalized to str BEFORE any membership
        test: emit tables store strata as strings, so a raw non-string
        groupby key would buffer forever after the first flush."""
        if not self.stratified:
            return [(None, queries)]
        return ((str(s), g) for s, g in queries.groupby("stratum", sort=False))

    def _record(self, cycle: int, hit: pd.DataFrame, result, ws, we) -> None:
        """One frame (cycle, hit's columns, result, window bounds), built
        without copies: ``run`` concatenates the frames into a new one."""
        n = len(hit)

        def column(v):
            return np.full(n, v, dtype=np.int64) if np.ndim(v) == 0 else v

        self.results.append(pd.DataFrame(
            {"cycle": column(cycle), **{c: hit[c].array for c in hit.columns},
             "result": result, "window_start": column(ws), "window_end": column(we)},
            index=hit.index, copy=False,
        ))

    def _answer(self, cycle: int, queries: pd.DataFrame, payload: bytes,
                ws: int, we: int) -> None:
        """Answer every query against one synopsis."""
        synopsis = Synopsis.from_bytes(payload)
        result = self.query_fn(synopsis, queries["query_key"].to_numpy())
        self._record(cycle, queries, result, ws, we)

    def _answer_asof(self, cycle: int, queries: pd.DataFrame,
                     archive: _BoundedArchive) -> None:
        """Route each query to the floor window of ``archive`` and answer
        the ones that window covers; the rest are dropped (:57-62)."""
        starts, ends = archive.views()
        idx, ok = asof_route(starts, ends, _ts_us(queries["query_ts"]))
        if not ok.any():
            return
        hit, widx = queries[ok], idx[ok]
        keys = hit["query_key"].to_numpy()
        res = np.empty(len(hit), dtype=np.float64)
        for w in np.unique(widx):
            m = widx == w
            res[m] = self.query_fn(Synopsis.from_bytes(archive.payload(int(w))), keys[m])
        self._record(cycle, hit, res, starts[widx], ends[widx])


class ContinuousQueryLatest(_StandingQuery):
    """Standing queryLatest over a ``StreamingSynopsisJob``'s close cycles.

    A window replaces ``latest`` only when it is strictly newer.  A query
    answered from the buffer records the cycle it was FLUSHED in (the
    first-synopsis cycle), like the reference's buffered elements being
    processed on flush, and answers against that cycle's latest."""

    result_columns = ("cycle", "query_key", "result", "window_start", "window_end")

    def __init__(self, job, query_fn):
        super().__init__(job, query_fn)
        self.buffered: list[pd.DataFrame] = []
        self.latest: tuple[bytes, int, int] | None = None

    def _take(self, cycle, ws, we, payload, stratum) -> None:
        if self.latest is None or ws > self.latest[1]:
            self.latest = (payload, ws, we)

    def _arrive(self, cycle: int, queries: pd.DataFrame | None) -> None:
        if self.latest is not None:
            for q in self.buffered:
                self._answer(cycle, q, *self.latest)
            self.buffered = []
        if queries is None or len(queries) == 0:
            return
        if self.latest is None:
            self.buffered.append(queries)
        else:
            self._answer(cycle, queries, *self.latest)


class ContinuousQueryLatestStratified(_StandingQuery):
    """Standing stratified queryLatest over a stratified streaming job.

    Reference semantics (conn/.../evaluator/evaluation/
    QueryLatestStratifiedFunction.java:28-88): broadcast state maps each
    stratum to its latest synopsis — unconditional overwrite on arrival
    (:86), no windowStart comparison.  A query answers against its OWN
    stratum's latest; queries for strata with no synopsis yet buffer PER
    STRATUM and flush when that stratum's first synopsis arrives (:55-63,
    :74-84).  Query frames need ``query_key`` and ``stratum`` columns."""

    stratified = True
    result_columns = ("cycle", "query_key", "stratum", "result",
                      "window_start", "window_end")

    def __init__(self, job, query_fn):
        super().__init__(job, query_fn)
        self.latest: dict[str, tuple[bytes, int, int]] = {}
        self.buffered: dict[str, list[pd.DataFrame]] = {}

    def _take(self, cycle, ws, we, payload, stratum) -> None:
        first = stratum not in self.latest
        self.latest[stratum] = (payload, ws, we)
        if first:
            for q in self.buffered.pop(stratum, []):
                self._answer(cycle, q, payload, ws, we)

    def _arrive(self, cycle: int, queries: pd.DataFrame | None) -> None:
        if queries is None or len(queries) == 0:
            return
        for stratum, g in self._strata(queries):
            if stratum in self.latest:
                self._answer(cycle, g, *self.latest[stratum])
            else:
                self.buffered.setdefault(stratum, []).append(g)


class ContinuousQueryTimestampedStratified(_StandingQuery):
    """Standing stratified queryTimestamped over a stratified streaming job.

    Reference semantics (conn/.../evaluator/evaluation/
    QueryStratifiedTimestampedFunction.java:30-96): one bounded
    windowStart-ordered archive PER STRATUM (oldest evicted at
    ``max_synopsis_count``, :76-79); a query floor-routes within its own
    stratum's archive and answers only when the window covers its ts
    (:45-55, silent drop otherwise); queries for strata with no synopsis
    yet buffer per stratum, flushing against that stratum's FIRST synopsis
    only for matching timestamps (:86-93) — the rest is lost.  Query frames
    need ``query_key``, ``query_ts`` (event-time us) and ``stratum``."""

    stratified = True
    result_columns = ("cycle", "query_key", "query_ts", "stratum", "result",
                      "window_start", "window_end")

    def __init__(self, job, query_fn, max_synopsis_count: int = 1 << 30):
        super().__init__(job, query_fn)
        self.max_synopsis_count = max_synopsis_count
        # stratum -> bounded windowStart-ordered archive
        self.archive: dict[str | None, _BoundedArchive] = {}
        self.buffered: dict[str | None, list[pd.DataFrame]] = {}

    def _take(self, cycle, ws, we, payload, stratum) -> None:
        arch = self.archive.get(stratum)
        if arch is None:
            arch = self.archive[stratum] = _BoundedArchive(self.max_synopsis_count)
            # first-synopsis flush: only buffered queries inside this window
            # are answered; the rest are lost (:64-66, :91-95)
            for q in self.buffered.pop(stratum, []):
                ts = _ts_us(q["query_ts"])
                hit = q[(ts >= ws) & (ts <= we)]
                if len(hit):
                    self._answer(cycle, hit, payload, ws, we)
        arch.insert(ws, we, payload)

    def _arrive(self, cycle: int, queries: pd.DataFrame | None) -> None:
        if queries is None or len(queries) == 0:
            return
        for stratum, g in self._strata(queries):
            if stratum in self.archive:
                self._answer_asof(cycle, g, self.archive[stratum])
            else:
                self.buffered.setdefault(stratum, []).append(g)


class ContinuousQueryTimestamped(ContinuousQueryTimestampedStratified):
    """Standing queryTimestamped over a streaming job's close cycles: the
    stratified evaluator with one archive under the constant key None.

    Reference semantics (conn/.../evaluator/evaluation/
    QueryTimestampedFunction.java:31-97): synopses accumulate in a bounded
    archive ordered by windowStart — at ``max_synopsis_count`` the OLDEST
    (smallest windowStart) is evicted before insert (:77-79).  A query
    routes to the floor window (largest windowStart <= query ts) and is
    answered only when that window also covers the ts (windowEnd >= ts,
    :53-62); otherwise it is DROPPED silently.  Queries arriving before any
    synopsis buffer; the flush happens only against the FIRST synopsis and
    only for buffered queries whose ts falls inside that first window —
    the rest of the buffer is silently lost (:64-66, :91-95; reproduced).
    Query frames need ``query_key`` and ``query_ts`` (event-time us)."""

    stratified = False
    result_columns = ("cycle", "query_key", "query_ts", "result",
                      "window_start", "window_end")
