"""Query evaluation: join a query stream against the windowed synopsis stream.

Reference (conn/.../evaluator/ApproximateDataAnalytics.java):
- ``queryLatest`` (:39-51; QueryLatestFunction.java:27-61): broadcast the
  synopsis stream; evaluate each query against the LATEST windowed synopsis
  (queries arriving before the first synopsis buffer until one exists — in
  the bounded setting every query sees the final latest synopsis).
- ``queryTimestamped`` (:64-76; QueryTimestampedFunction.java:32-97): keep an
  archive of <= maxSynopsisCount synopses ordered by windowStart; route each
  query to the window containing its timestamp (floor lookup); queries before
  the first window -> no result (reference emits nothing for them).
- stratified variants (:79-117): the same, keyed by stratum.

Ray-Data-first physical plan: the synopsis stream is SMALL (one row per
window x stratum) — it is collected and broadcast via ``ray.put`` once, and
the query stream is processed with stateless ``map_batches`` whose tasks read
the broadcast handle: the as-of routing is a vectorized ``searchsorted`` into
the window-start array, not a shuffle join (SURVEY §2.7).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd

from ..synopses.base import Synopsis

QueryFn = Callable[[Synopsis, np.ndarray], np.ndarray]
"""(synopsis, query_keys) -> result array (vectorized QueryFunction.java:17-19)."""


def asof_route(starts: np.ndarray, ends: np.ndarray, ts: np.ndarray):
    """The timestamped-query routing rule, single-sourced: floor lookup by
    window start, answered only when that window also covers ts with an
    INCLUSIVE end (windowEnd >= ts, QueryTimestampedFunction.java:53-62).
    Returns (window_idx, ok_mask); callers drop the ~ok rows (the reference
    emits nothing for them)."""
    idx = np.searchsorted(starts, ts, side="right") - 1
    ok = (idx >= 0) & (ts <= ends[np.clip(idx, 0, len(ends) - 1)])
    return idx, ok


def _collect_synopses(synopsis_ds) -> pd.DataFrame:
    df = synopsis_ds.to_pandas() if hasattr(synopsis_ds, "to_pandas") else synopsis_ds
    return df.sort_values(["window_start", "window_end"]).reset_index(drop=True)


# Process-level deserialized-synopsis cache.  Evaluator map_batches tasks
# are stateless plain tasks, but Ray reuses worker processes, so caching
# from_bytes by (broadcast-ref hex, window key) turns the per-batch
# synopsis rebuild (1.3 MB of numpy allocation per batch for a
# CM{65536,5} — it dominated the 50M-query run) into a once-per-worker
# cost, the same pattern as the process-cached H3 tables.  Keyed by
# (broadcast generation, window key) so two evaluator jobs sharing a
# worker pool (e.g. latest + timestamped interleaved) coexist instead of
# evicting each other's whole generation on every task; bounded at
# _SYN_CACHE_CAP entries across ALL generations (LRU eviction) — a
# timestamped run spreading queries over up to max_synopsis_count=1e6
# windows must not pin every synopsis it ever touched in worker memory.
_SYN_CACHE: dict = {}
_SYN_CACHE_CAP = 256


def _cached_synopsis(gen_key, sub_key, fetch_payload) -> Synopsis:
    """``fetch_payload`` is a thunk so cache hits skip even the broadcast
    ray.get / bytes copy."""
    full_key = (gen_key, sub_key)
    syn = _SYN_CACHE.get(full_key)
    if syn is not None:
        _SYN_CACHE[full_key] = _SYN_CACHE.pop(full_key)  # refresh LRU slot
        return syn
    syn = Synopsis.from_bytes(fetch_payload())
    while len(_SYN_CACHE) >= _SYN_CACHE_CAP:
        _SYN_CACHE.pop(next(iter(_SYN_CACHE)))  # LRU: dict keeps use order
    _SYN_CACHE[full_key] = syn
    return syn


# Per-worker cache of the DESERIALIZED broadcast payload (an archive CHUNK /
# stratum table).  ray.get re-unpickles the whole object on every call, so
# without this an evaluator pays the O(broadcast-bytes) deserialize once per
# batch (stratified variants) or once per synopsis-cache miss (timestamped)
# instead of once per worker per generation.  The timestamped path broadcasts
# its archive in _ARCHIVE_CHUNK-window chunks precisely so this cache pins at
# most _BCAST_CACHE_CAP chunks per worker — never the full multi-GB archive a
# max_synopsis_count=1e6 run can carry (the _SYN_CACHE_CAP bound would be
# meaningless with the raw payload list pinned beneath it).
_BCAST_CACHE: dict = {}
_BCAST_CACHE_CAP = 4
_ARCHIVE_CHUNK = 256


def _cached_broadcast(gen_key, ref):
    obj = _BCAST_CACHE.get(gen_key)
    if obj is None:
        import ray

        obj = ray.get(ref)
        while len(_BCAST_CACHE) >= _BCAST_CACHE_CAP:
            _BCAST_CACHE.pop(next(iter(_BCAST_CACHE)))
        _BCAST_CACHE[gen_key] = obj
    else:
        # refresh on hit (same LRU rule as _cached_synopsis) — insert-order
        # eviction would drop the hottest chunk while cold ones stay
        _BCAST_CACHE[gen_key] = _BCAST_CACHE.pop(gen_key)
    return obj


def _empty_result_evaluator(query_ds):
    """No synopses were emitted (all-late / empty stream): the reference
    buffers such queries forever and emits nothing — return the empty typed
    result instead of crashing on the missing archive."""
    import pyarrow as pa

    def evaluate(batch: pa.Table) -> pa.Table:
        batch = batch.slice(0, 0)
        for c in ("result", "window_start", "window_end"):
            if c in batch.schema.names:
                batch = batch.drop_columns([c])
        return (
            batch.append_column("result", pa.array([], pa.float64()))
            .append_column("window_start", pa.array([], pa.int64()))
            .append_column("window_end", pa.array([], pa.int64()))
        )

    return query_ds.map_batches(evaluate, batch_format="pyarrow", batch_size=None)


def query_latest(query_ds, synopsis_ds, query_fn: QueryFn):
    """Evaluate every query against the latest (max window_start) synopsis.

    Returns Dataset/DataFrame: query columns + ``result`` + window bounds.
    """
    import ray

    syn = _collect_synopses(synopsis_ds)
    if syn.empty:
        return _empty_result_evaluator(query_ds)
    latest = syn.iloc[-1]
    payload_ref = ray.put(latest["payload"])
    gen = payload_ref.hex()
    w_start, w_end = int(latest["window_start"]), int(latest["window_end"])

    import pyarrow as pa

    def evaluate(batch: pa.Table) -> pa.Table:
        synopsis = _cached_synopsis(gen, 0, lambda: ray.get(payload_ref))
        col = batch["query_key"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        # zero_copy_only=False: string or null-bearing key columns (bloom /
        # cuckoo membership queries) need the copying path, like the old
        # pandas formatting did
        res = query_fn(synopsis, col.to_numpy(zero_copy_only=False))
        n = batch.num_rows
        # overwrite semantics (as the old pandas path had): a query stream
        # that already carries output-named columns (e.g. one evaluator's
        # output chained as another's queries) gets them replaced, not
        # duplicated — append_column alone would create duplicate names
        for c in ("result", "window_start", "window_end"):
            if c in batch.schema.names:
                batch = batch.drop_columns([c])
        return (
            batch.append_column("result", pa.array(res))
            .append_column(
                "window_start", pa.array(np.full(n, w_start, dtype=np.int64))
            )
            .append_column(
                "window_end", pa.array(np.full(n, w_end, dtype=np.int64))
            )
        )

    # whole-block Arrow batches: the evaluator kernel is ~20M q/s/core, so
    # at the default 1024-row batches the per-batch dispatch/convert cost
    # (not the kernel) set the end-to-end rate
    return query_ds.map_batches(evaluate, batch_format="pyarrow", batch_size=None)


def query_timestamped(query_ds, synopsis_ds, query_fn: QueryFn, max_synopsis_count: int = 10**6):
    """As-of join: route each query to the window containing its timestamp.

    Keeps the newest ``max_synopsis_count`` windows (TreeSet bound,
    QueryTimestampedFunction.java:52-67).  Queries outside every window get no
    output row (reference emits nothing for them)."""
    import ray

    syn = _collect_synopses(synopsis_ds).tail(max_synopsis_count).reset_index(drop=True)
    if syn.empty:
        return _empty_result_evaluator(query_ds)
    starts = syn["window_start"].to_numpy(np.int64)
    ends = syn["window_end"].to_numpy(np.int64)
    # chunked broadcast: a worker touching window w fetches only its
    # _ARCHIVE_CHUNK-window chunk, so per-worker heap is bounded by
    # _BCAST_CACHE_CAP chunks regardless of archive size
    payloads = list(syn["payload"])
    chunk_refs = [
        ray.put(payloads[i : i + _ARCHIVE_CHUNK])
        for i in range(0, len(payloads), _ARCHIVE_CHUNK)
    ]
    gen = chunk_refs[0].hex()

    import pyarrow as pa

    def evaluate(batch: pa.Table) -> pa.Table:
        q_ts = batch["query_ts"].cast(pa.int64()).to_numpy()
        idx, valid = asof_route(starts, ends, q_ts)
        batch = batch.filter(pa.array(valid))
        idx = idx[valid]
        col = batch["query_key"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        keys = col.to_numpy(zero_copy_only=False)
        results = np.empty(batch.num_rows, dtype=np.float64)
        for w in np.unique(idx):
            ci, off = int(w) // _ARCHIVE_CHUNK, int(w) % _ARCHIVE_CHUNK
            syn_w = _cached_synopsis(
                gen,
                int(w),
                lambda: _cached_broadcast((gen, ci), chunk_refs[ci])[off],
            )
            m = idx == w
            results[m] = query_fn(syn_w, keys[m])
        # overwrite semantics — see query_latest
        for c in ("result", "window_start", "window_end"):
            if c in batch.schema.names:
                batch = batch.drop_columns([c])
        return (
            batch.append_column("result", pa.array(results))
            .append_column("window_start", pa.array(starts[idx]))
            .append_column("window_end", pa.array(ends[idx]))
        )

    # whole-block Arrow batches, same rationale as query_latest above
    return query_ds.map_batches(evaluate, batch_format="pyarrow", batch_size=None)


def query_latest_stratified(query_ds, synopsis_ds, query_fn: QueryFn):
    """queryLatest keyed by stratum: each query row carries a ``stratum``;
    evaluated against that stratum's latest synopsis (no match -> dropped,
    like broadcast state misses in the reference)."""
    import ray

    syn = _collect_synopses(synopsis_ds)
    latest = syn.groupby("stratum", dropna=False).tail(1)
    table = {
        s: (p, int(ws), int(we))
        for s, p, ws, we in zip(
            latest["stratum"], latest["payload"],
            latest["window_start"], latest["window_end"],
        )
    }
    ref = ray.put(table)
    gen = ref.hex()

    def evaluate(batch: pd.DataFrame) -> pd.DataFrame:
        tbl = _cached_broadcast(gen, ref)
        out = []
        for stratum, grp in batch.groupby("stratum", dropna=True):
            entry = tbl.get(stratum)
            if entry is None:
                continue
            payload, ws, we = entry
            synopsis = _cached_synopsis(gen, stratum, lambda: payload)
            g = grp.copy()
            g["result"] = query_fn(synopsis, grp["query_key"].to_numpy())
            g["window_start"] = ws
            g["window_end"] = we
            out.append(g)
        if not out:
            return batch.iloc[0:0].assign(
                result=np.nan, window_start=0, window_end=0
            )
        return pd.concat(out, ignore_index=True)

    return query_ds.map_batches(evaluate, batch_format="pandas")


def query_timestamped_stratified(
    query_ds, synopsis_ds, query_fn: QueryFn, max_synopsis_count: int = 10**6
):
    """As-of join keyed by (stratum, window).

    Mirrors ``query_timestamped``'s two bounds: each stratum keeps only
    its newest ``max_synopsis_count`` windows (the per-stratum TreeSet
    bound, QueryStratifiedTimestampedFunction.java:30-96), and payload
    bytes are broadcast in ``_ARCHIVE_CHUNK``-window chunks so a worker
    pins at most ``_BCAST_CACHE_CAP`` chunks — never the full archive.
    Only the small per-stratum (starts, ends, base-offset) routing table
    ships as one object."""
    import ray

    syn = (
        _collect_synopses(synopsis_ds)
        .groupby("stratum", dropna=False)
        .tail(max_synopsis_count)
        .reset_index(drop=True)
    )
    if syn.empty:
        return _empty_result_evaluator(query_ds)
    # global payload order: grouped by stratum so each stratum's windows
    # are contiguous and addressable as base + local-window-index
    syn = syn.sort_values("stratum", kind="mergesort").reset_index(drop=True)
    routing = {}
    base = 0
    for s, g in syn.groupby("stratum", dropna=False, sort=False):
        routing[s] = (
            g["window_start"].to_numpy(np.int64),
            g["window_end"].to_numpy(np.int64),
            base,
        )
        base += len(g)
    payloads = list(syn["payload"])
    chunk_refs = [
        ray.put(payloads[i : i + _ARCHIVE_CHUNK])
        for i in range(0, len(payloads), _ARCHIVE_CHUNK)
    ]
    route_ref = ray.put(routing)
    gen = route_ref.hex()

    def evaluate(batch: pd.DataFrame) -> pd.DataFrame:
        tbl = _cached_broadcast(gen, route_ref)
        out = []
        for stratum, grp in batch.groupby("stratum", dropna=True):
            entry = tbl.get(stratum)
            if entry is None:
                continue
            starts, ends, base = entry
            q_col = grp["query_ts"]
            if q_col.dtype.kind == "M":
                # normalize any datetime64 unit (ns on older stacks) to
                # epoch-us — astype('int64') alone would yield ns-scale
                # ints that never land inside a us window
                q_ts = q_col.to_numpy(dtype="datetime64[us]").astype(np.int64)
            else:
                q_ts = q_col.astype("int64").to_numpy()
            idx, valid = asof_route(starts, ends, q_ts)
            g = grp[valid].copy()
            gi = idx[valid]
            results = np.empty(len(g), dtype=np.float64)
            for w in np.unique(gi):
                gw = base + int(w)
                ci, off = gw // _ARCHIVE_CHUNK, gw % _ARCHIVE_CHUNK
                syn_w = _cached_synopsis(
                    gen,
                    (stratum, int(w)),
                    lambda: _cached_broadcast((gen, ci), chunk_refs[ci])[off],
                )
                m = gi == w
                results[m] = query_fn(syn_w, g["query_key"].to_numpy()[m])
            g["result"] = results
            g["window_start"] = starts[gi]
            g["window_end"] = ends[gi]
            out.append(g)
        if not out:
            return batch.iloc[0:0].assign(
                result=np.nan, window_start=0, window_end=0
            )
        return pd.concat(out, ignore_index=True)

    return query_ds.map_batches(evaluate, batch_format="pandas")


# -- standard query functions (bench/.../sources/utils/queries/) -----------

def query_count_min(synopsis, keys: np.ndarray) -> np.ndarray:
    """QueryCountMin.java:6-12 — point frequency estimates."""
    return synopsis.query_batch(np.asarray(keys, dtype=np.int64).astype(np.int32))
