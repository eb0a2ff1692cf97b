"""Headline pipelines composing the engine stages, each with a DuckDB-oracle
counterpart in ``__ray_entry__.oracle_sql`` where SQL can express it."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import BuildConfiguration, KeySpec
from ..engine.batch import build_windowed_synopses
from ..hashing import java_string_hash_array
from ..runtime import default_n_parts
from ..stages.extract import ts_to_us
from ..synopses.base import Synopsis
from ..windows import TumblingWindow


def window_key_partials(batch: pa.Table, key_col: str, size_us: int,
                        with_counts: bool = False):
    """Distinct ``(window_id, key)`` pairs of one batch (optionally with
    per-pair counts) — the shared dictionary-encode -> flat-key np.unique
    -> decode kernel behind the windowed distinct/count/top-k pipelines
    (it used to live in five per-site copies with visible drift).  NULL
    key rows are DROPPED (SQL COUNT/DISTINCT ignore NULLs; a null
    dictionary index would otherwise astype to INT64_MIN and corrupt the
    flat keys).  Returns ``(wid ndarray, key pa.Array, counts|None)``."""
    import pyarrow.compute as pc

    col = batch[key_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        batch = batch.filter(pc.is_valid(col))
        col = batch[key_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
    ts = ts_to_us(batch["ts"])
    wid = ts // size_us
    dic = col.dictionary_encode()
    codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    m = len(dic.dictionary) + 1
    if with_counts:
        uniq, counts = np.unique(wid * m + codes, return_counts=True)
        counts = counts.astype(np.int64)
    else:
        uniq, counts = np.unique(wid * m + codes), None
    key = dic.dictionary.take(pa.array(uniq % m, type=pa.int64()))
    return uniq // m, key, counts


def windowed_distinct_convs(ds, window: TumblingWindow):
    """Exact distinct conversations per tumbling window.

    Dedups (window, conv) pairs inside each batch before the shuffle, so the
    exchange carries near-distinct pairs, not raw rows; distinct counting is
    per conv-hash partition (vectorized), finished by a tiny window Sum."""
    size_us = window.size_us

    def pairs(batch: pa.Table) -> pa.Table:
        wid, conv, _ = window_key_partials(batch, "conv_id", size_us)
        return pa.table(
            {
                "window_id": pa.array(wid, type=pa.int64()),
                "conv_id": conv,
            }
        )

    # distinct (window, conv) per conv-hash partition (vectorized polars),
    # then a tiny window_id Sum — never one Ray aggregate group per
    # (window, conv) pair (~50 us/group dispatch, fatal at windows x convs).
    # The pair stream rides the task-based hash exchange (shard-by-conv +
    # per-bucket combine), not a sort-based groupby: the range-sample +
    # per-block sort over windows x convs pairs is the exact exchange the
    # engine's other distinct/session ops already replaced.
    from ray.data.aggregate import Sum

    from ..engine.exchange import distinct_count_exchange

    p = ds.map_batches(pairs, batch_format="pyarrow")
    partials = distinct_count_exchange(
        p, "window_id", ("conv_id", pa.string()), default_n_parts()
    )
    out = partials.groupby("window_id").aggregate(Sum("c", alias_name="n_convs"))

    def bounds(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "window_start": df["window_id"] * size_us,
                "n_convs": df["n_convs"].astype(np.int64),
            }
        )

    return out.map_batches(bounds, batch_format="pandas")


def windowed_topk_tools(ds, window: TumblingWindow, k: int = 5,
                        n_parts: int | None = None):
    """Exact per-window top-k tool frequencies (windowed heavy hitters),
    ties broken (n DESC, tool ASC).  Returns window_start, rank, tool, n.

    Scale design: per batch one vectorized (window, tool) partial count
    collapses each batch to its distinct pairs before the shuffle; the
    exchange carries partial-count rows hash-partitioned BY WINDOW into
    O(cores) groups (a window's candidates live in exactly one partition,
    so per-partition top-k is exact — never one Ray group per window);
    one vectorized merge + rank per partition."""
    import pyarrow.compute as pc

    n_parts = n_parts or default_n_parts()
    size_us = window.size_us

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "wid": pa.array([], type=pa.int64()),
                    "tool": pa.array([], type=pa.string()),
                    "n": pa.array([], type=pa.int64()),
                    "part": pa.array([], type=pa.int32()),
                }
            )
        uw, tool, counts = window_key_partials(
            batch, "tool", size_us, with_counts=True
        )
        return pa.table(
            {
                "wid": pa.array(uw),
                "tool": tool,
                "n": pa.array(counts),
                "part": pa.array(
                    ((uw.astype(np.uint64) * np.uint64(0x9E3779B9)) >> np.uint64(16))
                    .astype(np.int64)
                    .__mod__(n_parts)
                    .astype(np.int32)
                ),
            }
        )

    def part_topk(g: pd.DataFrame) -> pd.DataFrame:
        merged = (
            g.groupby(["wid", "tool"], sort=False, as_index=False)["n"].sum()
        )
        merged = merged.sort_values(
            ["wid", "n", "tool"], ascending=[True, False, True],
            kind="mergesort",
        )
        rank = merged.groupby("wid", sort=False).cumcount() + 1
        out = merged[rank <= k].reset_index(drop=True)
        return pd.DataFrame(
            {
                "window_start": out["wid"].to_numpy(np.int64) * size_us,
                "rank": rank[rank <= k].to_numpy(np.int64),
                "tool": out["tool"].to_numpy(object),
                "n": out["n"].to_numpy(np.int64),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(
            lambda g: part_topk(g.drop(columns=["part"])),
            batch_format="pandas",
        )
    )


def windowed_topk_sql(transcripts_cte: str, size_us: int, k: int) -> str:
    return f"""{transcripts_cte},
counts AS (
  SELECT (epoch_us(ts) // {size_us}) * {size_us} AS window_start, tool,
         count(*) AS n
  FROM transcripts WHERE tool IS NOT NULL GROUP BY 1, 2
)
SELECT window_start,
       CAST(row_number() OVER (PARTITION BY window_start
                               ORDER BY n DESC, tool) AS BIGINT) AS rank,
       tool, n
FROM counts
QUALIFY row_number() OVER (PARTITION BY window_start
                           ORDER BY n DESC, tool) <= {k}"""


def cm_tool_frequencies(ds, window: TumblingWindow, width=65536, height=5, seed=7):
    """Count-Min sketch per window over tool names, then point-query every
    tool observed in that window.  With the reference-standard CM{65536,5,7}
    and a ~20-name tool universe the estimates are collision-free, so the
    output equals exact GROUP BY counts — a SQL-verifiable sketch pipeline.

    Returns: window_start:int64, tool:str, est:int64
    """
    cfg = BuildConfiguration(
        synopsis="CountMinSketch",
        params=(width, height, seed),
        windows=[window],
        key=KeySpec("tool", "java_hash"),
    )
    import pyarrow.compute as pc

    tool_rows = ds.map_batches(
        lambda t: t.filter(pc.is_valid(t["tool"])), batch_format="pyarrow"
    )
    syn = build_windowed_synopses(tool_rows, cfg, concurrency=2)

    # tools per window (exact, tiny) to know which keys to query
    size_us = window.size_us

    def wt_pairs(batch: pa.Table) -> pa.Table:
        wid, tool, _ = window_key_partials(batch, "tool", size_us)
        return pa.table(
            {
                "window_start": pa.array(wid * size_us, type=pa.int64()),
                "tool": tool,
            }
        )

    wt = (
        tool_rows.map_batches(wt_pairs, batch_format="pyarrow")
        .groupby(["window_start", "tool"])
        .count()
        .drop_columns(["count()"])
    )

    # query inside a map over the SYNOPSIS stream: each task holds only its
    # own windows' payloads (MBs each at CM{65536,5}); what gets broadcast
    # is the tiny (window, tool) list — never the sketch bytes
    wt_pd = wt.to_pandas()
    # pre-group once on the driver: each map task would otherwise re-group
    # the full (window, tool) frame per batch
    by_win = {
        int(w): g["tool"].to_numpy() for w, g in wt_pd.groupby("window_start")
    }

    def query(df: pd.DataFrame) -> pd.DataFrame:
        return _cm_point_queries(df, by_win, "window_start")

    return syn.map_batches(query, batch_format="pandas")


def flagship_hll_pipeline(ds, window: TumblingWindow):
    """Flagship: HLL-per-window distinct-conversation estimates with exact
    counts carried alongside (the reference's HLLSketchAccuracy job shape,
    bench/.../reliablility/HLLSketchAccuracy.java:49-72).

    Returns: window_start, window_end (int64 us), n_rows, distinct_est
    """
    cfg = BuildConfiguration(
        synopsis="HyperLogLogSketch",
        params=(16, 7),  # reference accuracy-job shape HLL{16,7}
        windows=[window],
        key=KeySpec("conv_id", "java_hash"),
    )
    syn = build_windowed_synopses(ds, cfg, concurrency=2)

    def estimate(df: pd.DataFrame) -> pd.DataFrame:
        ests = [
            Synopsis.from_bytes(b).distinct_items_estimator() for b in df["payload"]
        ]
        return pd.DataFrame(
            {
                "window_start": df["window_start"].astype(np.int64),
                "window_end": df["window_end"].astype(np.int64),
                "n_rows": df["n_rows"].astype(np.int64),
                "distinct_est": np.asarray(ests, dtype=np.int64),
            }
        )

    return syn.map_batches(estimate, batch_format="pandas")


def write_time_ordered_fragments(ds, out_dir: str, n_frag: int,
                                 sort_cols: list[str] | None = None):
    """Ray-native replacement for the round-1 driver-side
    ``to_pandas().sort_values()`` fragment-cache build: rows are tagged with a
    time-range fragment id (equal-width ts splits, disjoint + ordered so the
    replayed stream has no late rows), shuffled once by fragment, and each
    fragment is ts-sorted and written by its own task.  Nothing ever
    materializes on the driver."""
    import os

    import pyarrow.parquet as _pq

    from ..stages.extract import ts_to_us

    # Two-pass by design: the stats pass below and the hash exchange each
    # execute the input's derive chain once (classic min/max-then-shuffle).
    # Deliberately NOT ds.materialize() — that would pin the entire stream
    # in the object store on top of the exchange's wave-bounded shards,
    # the exact O(stream) footprint the wave bounding removed.  Callers
    # with an expensive derive chain and a small input may pre-materialize
    # themselves.
    stats = ds.map_batches(
        lambda t: pa.table(
            {
                "lo": pa.array([int(ts_to_us(t["ts"]).min())] if t.num_rows else [2**62]),
                "hi": pa.array([int(ts_to_us(t["ts"]).max())] if t.num_rows else [-(2**62)]),
            }
        ),
        batch_format="pyarrow",
    ).to_pandas()
    if stats.empty or int(stats["lo"].min()) > int(stats["hi"].max()):
        # zero-row input: no fragments to write (int(NaN) would raise a
        # confusing ValueError; callers detect the empty result explicitly)
        return pd.DataFrame({"fragment": pd.Series(dtype="int64")})
    lo, hi = int(stats["lo"].min()), int(stats["hi"].max())
    bounds = np.linspace(lo, hi + 1, n_frag + 1)[1:-1]

    cols = sort_cols or ["ts", "conv_id", "turn_idx"]

    # routed through the task exchange (never the sort-based groupby): one
    # shard task per input block splits by time-range fragment id, one
    # writer task per fragment sorts + writes its file atomically
    from ..engine.exchange import hash_exchange, split_by_partition

    def shard(block, n_buckets: int):
        if isinstance(block, pd.DataFrame):
            block = pa.Table.from_pandas(block, preserve_index=False)
        if block.num_rows == 0 or "ts" not in block.schema.names:
            # schemaless zero-row guard: route nothing (writer tasks treat
            # missing shards as empty via num_rows checks)
            empty = pa.table({"ts": pa.array([], pa.timestamp("us"))})
            return tuple(empty for _ in range(n_buckets))
        frag = np.searchsorted(bounds, ts_to_us(block["ts"]), side="right")
        return split_by_partition(
            block.combine_chunks(), frag.astype(np.int64), n_buckets
        )

    def write_frag(*tables):
        tables = [
            t for t in tables if t.num_rows and "ts" in t.schema.names
        ]
        manifest_schema = pa.schema([("frag", pa.int64()), ("rows", pa.int64())])
        if not tables:
            return manifest_schema.empty_table()
        combined = pa.concat_tables(tables)
        g = combined.to_pandas()
        g = g.sort_values(cols, kind="mergesort")
        frag = int(
            np.searchsorted(bounds, int(ts_to_us(tables[0]["ts"]).min()), side="right")
        )
        path = os.path.join(out_dir, f"fragment-{frag:05d}.parquet")
        tmp = path + f".tmp-{os.getpid()}"
        # pin the shards' Arrow schema through the pandas round-trip: an
        # all-null column (e.g. a fragment with no tool turns) would
        # otherwise be inferred as parquet type null, poisoning the cache
        # with mixed fragment schemas
        _pq.write_table(
            pa.Table.from_pandas(g, schema=combined.schema, preserve_index=False),
            tmp,
        )
        os.replace(tmp, path)
        return pa.table({"frag": pa.array([frag]), "rows": pa.array([len(g)])})

    # tiny: one row per fragment; consuming executes the writes
    return hash_exchange(ds, n_frag, shard, write_frag).to_pandas()


def cached_fragment_dir(tag: str, sf_dir: str, build) -> list[str]:
    """Build-once fragment cache under /tmp/condor_ray_fixtures (one shared
    implementation — the _DONE sentinel / listdir pattern used to live in
    four per-site copies).  ``build(cache_dir)`` writes fragment parquet
    files into ``cache_dir``; the _DONE sentinel is written ONLY when at
    least one fragment exists, so a transiently-empty build raises instead
    of poisoning the cache for every later call."""
    import hashlib
    import os

    cache = os.path.join(
        "/tmp/condor_ray_fixtures",
        f"{tag}_" + hashlib.sha256(sf_dir.encode()).hexdigest()[:10],
    )
    done = os.path.join(cache, "_DONE")
    if not os.path.exists(done):
        os.makedirs(cache, exist_ok=True)
        build(cache)
        if not any(f.endswith(".parquet") for f in os.listdir(cache)):
            raise RuntimeError(
                f"fragment build {tag!r} produced no files from {sf_dir}; "
                "refusing to cache an empty stream"
            )
        open(done, "w").write("ok")
    return sorted(
        os.path.join(cache, f) for f in os.listdir(cache) if f.endswith(".parquet")
    )


def cached_event_stream_fragments(sf_dir: str) -> list[str]:
    """Ts-ordered fragment replay files of the events-derived transcript
    stream (built once per sf_dir with the Ray-native fragment writer)."""
    from ..sources.events_adapter import transcripts_from_events

    return cached_fragment_dir(
        "events_stream_v3",
        sf_dir,
        lambda cache: write_time_ordered_fragments(
            transcripts_from_events(sf_dir), cache, n_frag=4
        ),
    )


def cached_tool_call_fragments(sf_dir: str) -> list[str]:
    """Ts-ordered fragment replay files of the derived tool-call stream
    (tool_calls_from_transcripts over the events-derived transcripts)."""
    from ..sources.events_adapter import transcripts_from_events

    return cached_fragment_dir(
        "call_stream_v1",
        sf_dir,
        lambda cache: write_time_ordered_fragments(
            tool_calls_from_transcripts(transcripts_from_events(sf_dir)),
            cache,
            n_frag=4,
            sort_cols=["ts", "conv_id", "call_id"],
        ),
    )


def streaming_turns_join(sf_dir: str, bound_ms: int = 5_000, parallelism: int = 4):
    """Stream-stream join through the STREAMING engine: turn and tool-call
    fragment streams replayed into the partitioned JoinStateStore actors
    (two-input min-watermark, bounded buffers, exactly-once emission).  Both
    streams are ts-ordered, so no row is late and the output row set equals
    the batch join — the query shares `turns_join_tool_calls`'s SQL oracle."""
    import tempfile

    from ..engine.streaming_join import StreamingJoinJob

    turn_frags = cached_event_stream_fragments(sf_dir)
    call_frags = cached_tool_call_fragments(sf_dir)
    out_dir = tempfile.mkdtemp(prefix="condor_sjoin_")
    job = StreamingJoinJob(
        parallelism=parallelism, bound_ms=bound_ms, out_dir=out_dir
    )
    job.run(
        turn_frags,
        call_frags,
        turn_columns=["conv_id", "turn_idx", "ts", "tool"],
    )
    out = job.result_dataset().to_pandas()
    job.shutdown()
    return (
        out[["conv_id", "turn_idx", "turn_ts", "call_id", "tool", "status", "call_ts"]]
        .astype({"turn_idx": np.int32, "turn_ts": np.int64, "call_ts": np.int64})
        .sort_values(["conv_id", "turn_idx", "call_id"])
        .reset_index(drop=True)
    )


def streaming_asof_user_context(sf_dir: str, parallelism: int = 4):
    """As-of join through the STREAMING engine (temporal-table join): tool
    turns continuously attach their conversation's latest user turn as the
    watermark advances, bounded to (watermark lag + one current version per
    conversation).  Ts-ordered replay => no late rows => the emitted row set
    equals the batch ``asof_join`` — shares `asof_user_context`'s oracle."""
    import tempfile

    from ..engine.streaming_asof import StreamingAsofJob

    frags = cached_event_stream_fragments(sf_dir)
    out_dir = tempfile.mkdtemp(prefix="condor_sasof_")
    job = StreamingAsofJob(parallelism=parallelism, out_dir=out_dir)
    job.run(frags, columns=["conv_id", "turn_idx", "role", "tool", "ts"])
    out = job.result_dataset().to_pandas()
    job.shutdown()
    return (
        out[["conv_id", "ts_us", "turn_idx", "user_ts", "user_turn"]]
        .astype({c: np.int64 for c in ["ts_us", "turn_idx", "user_ts", "user_turn"]})
        .sort_values(["conv_id", "ts_us", "turn_idx"])
        .reset_index(drop=True)
    )


def streaming_sessions(sf_dir: str, gap_ms: int, parallelism: int = 4):
    """Session windows through the STREAMING engine (per-key gap-merge in the
    state actors, watermark-driven close, exactly-once emission) — the same
    gaps-and-islands SQL oracle as the batch ``sessions_30m`` query."""
    import tempfile

    from ..engine.streaming_sessions import StreamingSessionJob
    from ..windows import SessionWindow

    frags = cached_event_stream_fragments(sf_dir)
    out_dir = tempfile.mkdtemp(prefix="condor_sessions_q_")
    cfg = BuildConfiguration(
        synopsis="CountMinSketch",
        params=(1024, 3, 7),
        windows=[SessionWindow(gap_ms)],
        key=KeySpec("text", "java_hash"),
        parallelism=parallelism,
    )
    job = StreamingSessionJob(
        cfg, out_dir, columns=["conv_id", "turn_idx", "text", "ts"]
    )
    job.run(frags)
    out = job.result_dataset().to_pandas()
    job.shutdown()
    return pd.DataFrame(
        {
            "conv_id": out["conv_id"].to_numpy(object),
            "session_idx": out["session_idx"].astype(np.int64),
            "session_start": out["session_start"].astype(np.int64),
            "session_end": out["session_end"].astype(np.int64),
            "n_turns": out["n_rows"].astype(np.int64),
        }
    )


def streaming_pattern_matches(sf_dir: str, steps, within_ms: int | None = None,
                              parallelism: int = 4, contiguity: str = "strict"):
    """CEP through the STREAMING engine: the pattern matcher runs
    incrementally in partitioned state actors under watermarks (strict: k-1
    row tail per conversation; relaxed: within()-bounded lookback buffer),
    exactly-once emission.  The fragment stream is ts-ordered, so no row is
    late and the match set equals the batch operator's — the query shares
    the batch pattern's SQL oracle."""
    import tempfile

    from ..engine.streaming_cep import StreamingPatternJob

    frags = cached_event_stream_fragments(sf_dir)
    out_dir = tempfile.mkdtemp(prefix="condor_cep_q_")
    job = StreamingPatternJob(
        steps, out_dir, within_ms=within_ms, parallelism=parallelism,
        contiguity=contiguity,
    )
    job.run(frags)
    out = job.result_dataset().to_pandas()
    job.shutdown()
    return (
        out.astype(
            {
                "start_turn_idx": np.int64,
                "end_turn_idx": np.int64,
                "start_ts": np.int64,
                "end_ts": np.int64,
            }
        )
        .sort_values(["conv_id", "start_ts", "start_turn_idx"])
        .reset_index(drop=True)
    )


def streaming_windowed_counts(sf_dir: str, window: TumblingWindow, parallelism: int = 4):
    """Run the STREAMING engine (sliced state tables, watermarks, exactly-once
    sink) over the events-derived transcript stream and return per-window
    exact counts — SQL-checkable because the events stream has no late rows.
    """
    from ..engine.streaming import StreamingSynopsisJob

    frags = cached_event_stream_fragments(sf_dir)

    import tempfile

    out_dir = tempfile.mkdtemp(prefix="condor_stream_q_")
    cfg = BuildConfiguration(
        synopsis="CountMinSketch",
        params=(1024, 3, 7),
        windows=[window],
        key=KeySpec("conv_id", "java_hash"),
        parallelism=parallelism,
    )
    job = StreamingSynopsisJob(cfg, out_dir, columns=["conv_id", "ts"])
    job.run(frags)
    out = job.result_dataset().to_pandas()
    job.shutdown()
    return pd.DataFrame(
        {
            "window_start": out["window_start"].astype(np.int64),
            "window_end": out["window_end"].astype(np.int64),
            "n_rows": out["n_rows"].astype(np.int64),
        }
    ).sort_values("window_start").reset_index(drop=True)


def streaming_multi_window_counts(sf_dir: str, size_ms: int, parallelism: int = 4):
    """MULTIPLE CONCURRENT WINDOWS in one streaming job: a tumbling(size) and
    a sliding(2*size, size) window share the same slice store (slice =
    gcd = size), so each slice is built once and fanned out to both window
    definitions at close — the Scotty shared-slice contract under the driver
    gate.  Emits (window_kind, window_start, window_end, n_rows); the oracle
    is the union of both window assignments."""
    import tempfile

    from ..engine.streaming import StreamingSynopsisJob
    from ..windows import SlidingWindow

    frags = cached_event_stream_fragments(sf_dir)
    out_dir = tempfile.mkdtemp(prefix="condor_multiw_q_")
    cfg = BuildConfiguration(
        synopsis="CountMinSketch",
        params=(1024, 3, 7),
        windows=[TumblingWindow(size_ms), SlidingWindow(2 * size_ms, size_ms)],
        key=KeySpec("conv_id", "java_hash"),
        parallelism=parallelism,
    )
    job = StreamingSynopsisJob(cfg, out_dir, columns=["conv_id", "ts"])
    job.run(frags)
    out = job.result_dataset().to_pandas()
    job.shutdown()
    return (
        pd.DataFrame(
            {
                # engine labels are 'tumbling_{size}' / 'sliding_{size}_{slide}'
                "window_kind": out["window_kind"].astype(str).str.split("_").str[0],
                "window_start": out["window_start"].astype(np.int64),
                "window_end": out["window_end"].astype(np.int64),
                "n_rows": out["n_rows"].astype(np.int64),
            }
        )
        .sort_values(["window_kind", "window_start"])
        .reset_index(drop=True)
    )


def streaming_n_window_counts(
    sf_dir: str, slice_ms: int, n_windows: int, parallelism: int = 4
):
    """N CONCURRENT SLIDING WINDOWS in one streaming job — the reference's
    window-count stress shape (bench:windowing/Bucketing.java:57-61 runs up
    to 100 windows through one shared operator).  Window i in 1..n is
    sliding(size=i*slice, slide=slice); all n share ONE slice store (gcd =
    slice), so each slice is built once and fanned out n ways at close.
    Emits (window_kind, window_start, window_end, n_rows) with the engine's
    full 'sliding_{size}_{slide}' label so every window is distinguishable
    in the oracle."""
    import tempfile

    from ..engine.streaming import StreamingSynopsisJob
    from ..windows import SlidingWindow

    frags = cached_event_stream_fragments(sf_dir)
    out_dir = tempfile.mkdtemp(prefix="condor_nwin_q_")
    cfg = BuildConfiguration(
        synopsis="CountMinSketch",
        params=(1024, 3, 7),
        windows=[
            SlidingWindow(i * slice_ms, slice_ms) for i in range(1, n_windows + 1)
        ],
        key=KeySpec("conv_id", "java_hash"),
        parallelism=parallelism,
    )
    job = StreamingSynopsisJob(cfg, out_dir, columns=["conv_id", "ts"])
    job.run(frags)
    out = job.result_dataset().to_pandas()
    job.shutdown()
    return (
        pd.DataFrame(
            {
                "window_kind": out["window_kind"].astype(str),
                "window_start": out["window_start"].astype(np.int64),
                "window_end": out["window_end"].astype(np.int64),
                "n_rows": out["n_rows"].astype(np.int64),
            }
        )
        .sort_values(["window_kind", "window_start"])
        .reset_index(drop=True)
    )


def n_window_sql(cte: str, w_us: int, n_windows: int) -> str:
    """Oracle for ``streaming_n_window_counts``: window i (size i*w, slide w)
    assigns a row at slice s to windows s-i+1..s (start >= 0)."""
    w_ms = w_us // 1000
    parts = []
    for i in range(1, n_windows + 1):
        parts.append(f"""
SELECT 'sliding_{i * w_ms}_{w_ms}' AS window_kind,
       ((epoch_us(ts) // {w_us}) - j) * {w_us} AS window_start,
       ((epoch_us(ts) // {w_us}) - j) * {w_us} + {i * w_us} AS window_end,
       count(*) AS n_rows
FROM transcripts CROSS JOIN generate_series(0, {i - 1}) AS g(j)
WHERE (epoch_us(ts) // {w_us}) - j >= 0
GROUP BY 1, 2, 3""")
    return cte + "\n" + "\nUNION ALL".join(parts)


def multi_window_sql(cte: str, w_us: int) -> str:
    """Tumbling(w) UNION sliding(2w, w) counts (sliding window k covers
    [k*w, k*w + 2w); a row at slice s belongs to sliding windows s-1 and s)."""
    return f"""{cte},
tumb AS (
  SELECT 'tumbling' AS window_kind,
         (epoch_us(ts) // {w_us}) * {w_us} AS window_start,
         (epoch_us(ts) // {w_us}) * {w_us} + {w_us} AS window_end,
         count(*) AS n_rows
  FROM transcripts GROUP BY 2, 3
),
assigned AS (
  SELECT (epoch_us(ts) // {w_us}) AS w FROM transcripts
  UNION ALL
  SELECT (epoch_us(ts) // {w_us}) - 1 AS w FROM transcripts
),
slide AS (
  SELECT 'sliding' AS window_kind,
         w * {w_us} AS window_start,
         w * {w_us} + {2 * w_us} AS window_end,
         count(*) AS n_rows
  FROM assigned WHERE w >= 0 GROUP BY 2, 3
)
SELECT * FROM tumb UNION ALL SELECT * FROM slide"""


def tool_calls_from_transcripts(ds):
    """Deterministic F2-shaped tool-call stream derived from the transcripts'
    tool turns (offset = (turn_idx % 5) s, status = error every 10th turn) —
    reproducible in SQL for the join oracle."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def derive(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["tool"]))
        turn = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = batch["ts"].cast(pa.int64()).to_numpy()
        conv_col = batch["conv_id"]
        if isinstance(conv_col, pa.ChunkedArray):
            conv_col = conv_col.combine_chunks()
        return pa.table(
            {
                "conv_id": batch["conv_id"],
                # vectorized "{conv}_{turn}" (was a per-row f-string loop)
                "call_id": pc.binary_join_element_wise(
                    conv_col.cast(pa.string()),
                    pc.cast(batch["turn_idx"], pa.string()),
                    "_",
                ),
                "tool": batch["tool"],
                "status": pa.array(
                    np.where(turn % 10 == 0, "error", "ok"), type=pa.string()
                ),
                "ts": pa.array(ts + (turn % 5) * 1_000_000, type=pa.timestamp("us")),
            }
        )

    return ds.map_batches(derive, batch_format="pyarrow")


WAVELET_SUM_REL_TOL = 0.05


def _exact_window_turn_sums(ds, size_us: int) -> pd.DataFrame:
    """Exact per-window SUM(turn_idx): partial sums per batch, tiny groupby."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        ts = ts_to_us(batch["ts"])
        wid = ts // size_us
        turn = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(wid, return_inverse=True)
        # exact int64 scatter-add: bincount's float64 weights round past
        # 2^53 and this sum is hash-compared against SQL's exact BIGINT
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, turn)
        return pa.table(
            {
                "window_start": pa.array(uniq * size_us, type=pa.int64()),
                "s": pa.array(sums, type=pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        # coalesce before the groupby: partials are O(windows) rows, but the
        # sort-shuffle would inherit the input's block count (one reduce
        # task per input block for a near-empty table)
        .repartition(8)
        .groupby("window_start")
        .aggregate(Sum("s", alias_name="turn_sum"))
        .to_pandas()
    )


def _wavelet_sum_rows(syn_pd: pd.DataFrame, exact: pd.DataFrame) -> pd.DataFrame:
    """(window_start, turn_sum [exact], within_bound) — the wavelet full-range
    sum must land within WAVELET_SUM_REL_TOL of the exact sum (budget 4096 <<
    window rows => compressed, approximate reconstruction)."""
    est = {}
    for _, r in syn_pd.iterrows():
        mgr = Synopsis.from_bytes(r["payload"])
        n = int(r["n_rows"])
        est[int(r["window_start"])] = float(mgr.range_sum_query(0, n - 1)) if n else 0.0
    rows = []
    for _, r in exact.iterrows():
        ws, ex = int(r["window_start"]), int(r["turn_sum"])
        e = est.get(ws, 0.0)
        ok = abs(e - ex) <= WAVELET_SUM_REL_TOL * max(abs(ex), 1.0)
        rows.append((ws, ex, bool(ok)))
    return (
        pd.DataFrame(rows, columns=["window_start", "turn_sum", "within_bound"])
        .astype({"window_start": np.int64, "turn_sum": np.int64, "within_bound": bool})
        .sort_values("window_start")
        .reset_index(drop=True)
    )


def wavelet_window_sums(ds, window: TumblingWindow, size: int = 4096):
    """Order-based path, oracle-backed: emits the EXACT per-window
    SUM(turn_idx) (verified by SQL) plus ``within_bound`` asserting the
    wavelet manager's full-range range-sum reconstructs it within
    WAVELET_SUM_REL_TOL (compression + non-dyadic padding make it
    approximate; a broken build/unify/query path lands far outside)."""
    from ..engine.ordered import build_windowed_wavelets

    syn = build_windowed_wavelets(
        ds, window, size=size, parallelism=4, key=KeySpec("turn_idx", "value")
    ).to_pandas()
    exact = _exact_window_turn_sums(ds, window.size_us)
    return _wavelet_sum_rows(syn, exact)


def wavelet_sum_sql(cte: str, w_us: int) -> str:
    return f"""{cte}
SELECT (epoch_us(ts) // {w_us}) * {w_us} AS window_start,
       CAST(sum(turn_idx) AS BIGINT) AS turn_sum,
       true AS within_bound
FROM transcripts GROUP BY 1"""


def streaming_wavelet_sums(sf_dir: str, window: TumblingWindow, size: int = 4096):
    """Order-based path under the STREAMING engine: per-window
    DistributedWaveletsManager built by the sequential order-and-index chain
    + P builder actors, full-range range-sum evaluated per emitted window
    (same output shape as the batch ``wavelet_window_sums``)."""
    import tempfile

    from ..engine.streaming_wavelets import StreamingWaveletJob

    frags = cached_event_stream_fragments(sf_dir)
    out_dir = tempfile.mkdtemp(prefix="condor_wave_q_")
    job = StreamingWaveletJob(
        window,
        out_dir,
        size=size,
        parallelism=4,
        key=KeySpec("turn_idx", "value"),
        columns=["conv_id", "turn_idx", "ts"],
    )
    job.run(frags)
    out = job.result_dataset().to_pandas()
    job.shutdown()
    import ray.data as rd

    ds = rd.read_parquet(frags, columns=["turn_idx", "ts"])
    exact = _exact_window_turn_sums(ds, window.size_us)
    return _wavelet_sum_rows(out, exact)


def fifo_newest_ts(ds, window: TumblingWindow, k: int = 5):
    """Timestamped-sampler path, SQL-verifiable: FiFo keeps the newest k
    DISTINCT timestamps per window (equal-ts collapse is a preserved
    reference quirk), so (window_start, ts) pairs match a SQL top-k over
    distinct timestamps."""
    from ..engine.batch import build_windowed_synopses

    cfg = BuildConfiguration(
        synopsis="FiFoSampler",
        params=(k,),
        windows=[window],
        sample_elements=True,
    )
    syn = build_windowed_synopses(ds, cfg, concurrency=2)

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        rows_w, rows_ts = [], []
        for _, r in df.iterrows():
            sampler = Synopsis.from_bytes(r["payload"])
            for el in sampler.get_sample():
                rows_w.append(int(r["window_start"]))
                rows_ts.append(int(el.timestamp))
        return pd.DataFrame(
            {
                "window_start": np.asarray(rows_w, dtype=np.int64),
                "ts_us": np.asarray(rows_ts, dtype=np.int64),
            }
        )

    return syn.map_batches(explode, batch_format="pandas")


def _shaped_count_stream(sf_dir: str):
    """events -> transcript-shaped tool stream on the ARRIVAL-ORDINAL axis
    (ts := event_id as milliseconds; ordinal == event_id, file is
    arrival-ordered), shared by the batch and streaming count-window paths."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type"]
    )

    def shape(batch: pa.Table) -> pa.Table:
        ev = batch["event_id"].to_numpy()
        et = batch["event_type"]
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        is_tool = pa.compute.invert(
            pa.compute.is_in(
                et, value_set=pa.array(["view", "signup", "click", "purchase"])
            )
        ).to_numpy(zero_copy_only=False)
        ev = ev[is_tool]
        return pa.table(
            {
                "conv_id": pa.array(np.char.add("c", ev.astype(str))),
                "turn_idx": pa.array(np.zeros(len(ev), dtype=np.int32)),
                "tool": pa.array(np.char.add("tool_", (ev % 20).astype(str))),
                "ts": pa.array(ev * 1000, type=pa.timestamp("us")),
            }
        )

    return ds.map_batches(shape, batch_format="pyarrow")


def _count_window_tools_exact(sf_dir: str, size: int) -> pd.DataFrame:
    """Exact (window_id, tool) pairs per count window — the query keys.

    Derived from the SAME shaped stream the sketches ingest
    (``_shaped_count_stream``), so the event filter and tool-name rule
    live in exactly one place: a drift between the probe keys and the
    sketch keys would flip the oracle hash with no error pointing at
    the cause."""

    def wt_pairs(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "window_id": pa.array([], type=pa.int64()),
                    "tool": pa.array([], type=pa.string()),
                }
            )
        from ..stages.extract import ts_to_us

        # ordinal == event_id (the shaped stream sets ts := event_id ms)
        ordinal = ts_to_us(batch["ts"]) // 1000
        tool = batch["tool"]
        if isinstance(tool, pa.ChunkedArray):
            tool = tool.combine_chunks()
        dic = tool.dictionary_encode()
        labels = dic.dictionary
        codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        gkey = (ordinal // size) * len(labels) + codes
        uniq = np.unique(gkey)
        return pa.table(
            {
                "window_id": pa.array(uniq // len(labels), type=pa.int64()),
                "tool": labels.take(pa.array(uniq % len(labels))),
            }
        )

    return (
        _shaped_count_stream(sf_dir)
        .map_batches(wt_pairs, batch_format="pyarrow")
        .groupby(["window_id", "tool"])
        .count()
        .drop_columns(["count()"])
        .to_pandas()
    )


def _cm_point_queries(
    syn_pd: pd.DataFrame, wt: pd.DataFrame, win_col: str
) -> pd.DataFrame:
    """Point-query each synopsis row's window tools against its CM payload.

    ``syn_pd``: (win_col, payload, …) — may be ONE map task's batch of the
    synopsis stream (payloads stay local) or the full driver-side frame;
    ``wt``: the small (win_col, tool) list of keys to probe — a DataFrame,
    or a prebuilt ``{window: tools ndarray}`` dict so map tasks called once
    per batch don't re-group the full frame every call.  The single home of
    the from_bytes + java-hash + query_batch + empty-frame logic (two sites
    drifted apart before this helper)."""
    by_win = (
        wt
        if isinstance(wt, dict)
        else {int(w): g["tool"].to_numpy() for w, g in wt.groupby(win_col)}
    )
    out = []
    for _, r in syn_pd.iterrows():
        w = int(r[win_col])
        tools = by_win.get(w)
        if tools is None or not len(tools):
            continue
        cm = Synopsis.from_bytes(r["payload"])
        keys = java_string_hash_array(tools.tolist())
        out.append(
            pd.DataFrame(
                {
                    win_col: np.full(len(tools), w, dtype=np.int64),
                    "tool": tools,
                    "est": cm.query_batch(keys).astype(np.int64),
                }
            )
        )
    if not out:
        return pd.DataFrame(
            {win_col: pd.Series(dtype=np.int64),
             "tool": pd.Series(dtype=object),
             "est": pd.Series(dtype=np.int64)}
        )
    return pd.concat(out, ignore_index=True)


def _query_cm_per_window(wt: pd.DataFrame, syn_pd: pd.DataFrame) -> pd.DataFrame:
    """Point-query each window's tools against its CM sketch (both inputs are
    small per-window tables; count-window callers, window_id axis)."""
    return _cm_point_queries(syn_pd, wt, "window_id")


def streaming_count_window_tool_freq(sf_dir: str, size: int = 500, parallelism: int = 4):
    """Count windows through the STREAMING engine: tumbling windows on the
    arrival-ordinal axis (reference countWindow,
    conn/.../processor/SynopsisBuilder.java:218-221, with the documented
    global-ordinal deviation) — watermark = max ordinal seen, exactly-once
    emission, same SQL oracle as the batch count-window query."""
    import tempfile

    from ..engine.streaming import StreamingSynopsisJob

    frags = cached_fragment_dir(
        "count_stream_v1",
        sf_dir,
        lambda cache: write_time_ordered_fragments(
            _shaped_count_stream(sf_dir), cache, n_frag=4
        ),
    )
    out_dir = tempfile.mkdtemp(prefix="condor_countwin_q_")
    cfg = BuildConfiguration(
        synopsis="CountMinSketch",
        params=(65536, 5, 7),
        windows=[TumblingWindow(size)],  # size ms == size ordinals
        key=KeySpec("tool", "java_hash"),
        parallelism=parallelism,
    )
    job = StreamingSynopsisJob(cfg, out_dir)
    job.run(frags)
    syn_pd = job.result_dataset().to_pandas()
    job.shutdown()
    syn_pd["window_id"] = syn_pd["window_start"] // (size * 1000)
    wt = _count_window_tools_exact(sf_dir, size)
    return _query_cm_per_window(wt, syn_pd)


def count_window_tool_frequencies(sf_dir: str, size: int = 500):
    """Count-window synopsis path: CM sketch per ``size``-event count window.

    Count windows are tumbling windows over the ARRIVAL ordinal axis (for the
    events stream, ordinal == event_id — the file is arrival-ordered), so the
    whole mergeable engine applies unchanged with ``ts := ordinal``.
    Collision-free CM => output equals exact GROUP BY counts (SQL oracle).

    Returns window_id:int64, tool:str, est:int64
    """
    from ..engine.batch import build_windowed_synopses
    from ..windows import TumblingWindow

    shaped = _shaped_count_stream(sf_dir)
    cfg = BuildConfiguration(
        synopsis="CountMinSketch",
        params=(65536, 5, 7),
        windows=[TumblingWindow(size)],  # size ms = size ordinals
        key=KeySpec("tool", "java_hash"),
    )
    syn_pd = build_windowed_synopses(shaped, cfg, concurrency=2).to_pandas()
    syn_pd["window_id"] = syn_pd["window_start"] // (size * 1000)
    wt = _count_window_tools_exact(sf_dir, size)
    return _query_cm_per_window(wt, syn_pd)
