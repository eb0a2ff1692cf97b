"""Session windows and count windows.

- Session windows (Scotty session support, SURVEY §2.6): per-conversation gap
  merge — a new session starts when the gap to the previous turn is >= gap.
  Implemented as ``groupby(conv_id).map_groups`` over ts-sorted groups (the
  same conv_id co-location shuffle the engine's partitioning uses); the SQL
  oracle is the classic gaps-and-islands form.
- Count windows: the reference's ``countWindow(size/parallelism)`` makes
  boundaries parallelism-dependent (SynopsisBuilder.java:220); we define them
  on GLOBAL arrival ordinals instead (documented deviation, SURVEY §7) so the
  result is partition-count invariant.  For the events-derived stream the
  arrival ordinal IS event_id (the file is arrival-ordered), which keeps the
  oracle in plain SQL.  ``count_window_ids(mode="condor")`` reproduces the
  reference's parallelism-dependent boundaries exactly for callers that need
  bit-parity with a Condor deployment.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..runtime import default_n_parts
from ..stages.extract import ts_to_us


def _session_boundaries(conv: np.ndarray, ts: np.ndarray, gap_us: int):
    """Vectorized gaps-and-islands over (conv, ts) ALREADY sorted by
    (conv, ts): returns (starts, ends_exclusive, new_conv-per-row).  Shared
    by session_stats and session_synopses — keep the boundary rule
    (new conversation OR gap >= threshold) here, never in per-site copies."""
    n = len(ts)
    new_conv = np.empty(n, dtype=bool)
    new_conv[0] = True
    new_conv[1:] = conv[1:] != conv[:-1]
    boundary = new_conv | np.concatenate(([False], np.diff(ts) >= gap_us))
    starts = np.flatnonzero(boundary)
    ends = np.concatenate((starts[1:], [n]))
    return starts, ends, new_conv


def _conv_shard(extra_cols: tuple = ()):
    """Shard-fn factory shared by session_stats / session_synopses: project
    each block to (conv_id, turn_idx, ts int64, *extra_cols) and route by
    conv-id hash; zero-row / schemaless blocks return the projected empty
    face (``extra_cols``: (name, pa_type) pairs — the empty face pins those
    types, so non-default key fields must be listed with their real type)."""
    import pyarrow as pa

    from ..engine.exchange import split_by_partition
    from ..hashing import string_bucket_of

    def shard(block, n_buckets: int):
        if isinstance(block, pd.DataFrame):
            block = pa.Table.from_pandas(block, preserve_index=False)
        empty_cols = {
            "conv_id": pa.array([], pa.string()),
            "turn_idx": pa.array([], pa.int64()),
            "ts": pa.array([], pa.int64()),
        }
        for name, typ in extra_cols:
            empty_cols[name] = pa.array([], typ)
        empty = pa.table(empty_cols)
        if block.num_rows == 0 or "conv_id" not in block.schema.names:
            return tuple(empty for _ in range(n_buckets))  # schemaless guard
        conv = block["conv_id"]
        if isinstance(conv, pa.ChunkedArray):
            conv = conv.combine_chunks()
        part = string_bucket_of(conv, n_buckets)
        cols = {
            "conv_id": conv,
            "turn_idx": block["turn_idx"].cast(pa.int64()),
            "ts": ts_to_us(block["ts"]),
        }
        for name, _typ in extra_cols:
            cols[name] = block[name]
        proj = pa.table(cols).combine_chunks()
        return split_by_partition(proj, part, n_buckets)

    return shard


def _session_combine(per_part, out_schema):
    """Combine-fn factory: concat a bucket's shards, run the vectorized
    per-partition pandas kernel, emit under the pinned output schema."""
    import pyarrow as pa

    def combine(*tables):
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return out_schema.empty_table()
        return pa.Table.from_pandas(
            per_part(pa.concat_tables(tables).to_pandas()),
            schema=out_schema,
            preserve_index=False,
        )

    return combine


def _conv_partition(n_parts: int):
    """Append a bounded hash partition over conv_id (one Ray group per
    conversation costs ~0.5 ms dispatch — fatal at millions of convs)."""
    import pyarrow as pa

    from ..hashing import string_bucket_of

    def add_part(batch: pa.Table) -> pa.Table:
        part = string_bucket_of(batch["conv_id"], n_parts)
        return batch.append_column("part", pa.array(part.astype(np.int32)))

    return add_part


def session_stats(ds, gap_ms: int, n_parts: int | None = None):
    """Per-conversation sessions: conv_id, session_idx, session_start,
    session_end (int64 us), n_turns.

    Conversations hash-partition into a bounded number of groups; inside a
    partition the whole gaps-and-islands computation is vectorized (sort by
    (conv, ts, turn), boundary = new conv or gap >= threshold, reduceat
    per-session aggregation) — no per-conversation Python."""
    n_parts = n_parts or default_n_parts()
    gap_us = gap_ms * 1000

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        conv = g["conv_id"].to_numpy()
        ts = ts_to_us(pa.array(g["ts"]))
        turn = g["turn_idx"].to_numpy()
        order = np.lexsort((turn, ts, conv))
        conv, ts = conv[order], ts[order]
        n = len(ts)
        if n == 0:
            return pd.DataFrame(
                {
                    "conv_id": pd.Series(dtype=object),
                    "session_idx": pd.Series(dtype=np.int64),
                    "session_start": pd.Series(dtype=np.int64),
                    "session_end": pd.Series(dtype=np.int64),
                    "n_turns": pd.Series(dtype=np.int64),
                }
            )
        starts, ends, new_conv = _session_boundaries(conv, ts, gap_us)
        # per-conv session ordinal: session rank minus the rank of the
        # conv's first session
        sess_of_conv_start = np.cumsum(new_conv[starts]) - 1
        conv_first_sess = np.flatnonzero(new_conv[starts])
        sidx = np.arange(len(starts)) - conv_first_sess[sess_of_conv_start]
        return pd.DataFrame(
            {
                "conv_id": conv[starts],
                "session_idx": sidx.astype(np.int64),
                "session_start": ts[starts],
                "session_end": ts[ends - 1],
                "n_turns": (ends - starts).astype(np.int64),
            }
        )

    import pyarrow as pa

    from ..engine.exchange import hash_exchange

    out_schema = pa.schema(
        [
            ("conv_id", pa.string()),
            ("session_idx", pa.int64()),
            ("session_start", pa.int64()),
            ("session_end", pa.int64()),
            ("n_turns", pa.int64()),
        ]
    )
    return hash_exchange(
        ds, n_parts, _conv_shard(), _session_combine(per_part, out_schema)
    )


def session_sql(transcripts_cte: str, gap_ms: int) -> str:
    gap_us = gap_ms * 1000
    return f"""{transcripts_cte},
marked AS (
  SELECT conv_id, turn_idx, epoch_us(ts) AS ts_us,
         CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER w >= {gap_us}
              THEN 1 ELSE 0 END AS brk
  FROM transcripts
  WINDOW w AS (PARTITION BY conv_id ORDER BY ts, turn_idx)
),
islands AS (
  SELECT conv_id, ts_us,
         CAST(sum(brk) OVER (PARTITION BY conv_id ORDER BY ts_us, turn_idx
                             ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_idx
  FROM marked
)
SELECT conv_id, session_idx,
       min(ts_us) AS session_start,
       max(ts_us) AS session_end,
       count(*) AS n_turns
FROM islands GROUP BY conv_id, session_idx"""


def count_window_ids(
    ordinals: np.ndarray,
    size: int,
    parallelism: int = 1,
    mode: str = "global",
    subtask: np.ndarray | None = None,
) -> np.ndarray:
    """Count-window id per element.

    mode="global" (the documented default): wid = arrival ordinal // size —
    partition-count invariant and VALUE-based, matching the module's count
    windows (``count_window_distinct``'s ``event_id // size``) even when
    ordinals have gaps (e.g. a filtered event stream).

    mode="condor": reference parity with
    ``conn/.../processor/SynopsisBuilder.java:213-233`` — elements
    round-robin from each source subtask onto ``parallelism`` builders
    (rescale + AddParallelismIndex), each builder closes a partial synopsis
    every ``size // parallelism`` elements, and ``countWindowAll(P)`` merges
    every P consecutive partials into one window.  Emulated
    deterministically: builder = per-subtask round-robin counter % P;
    wid = per-builder arrival rank // (size // P).  With a single source
    subtask this degenerates to the global mode (round-robin interleaves
    builders in lockstep); with several subtasks the boundaries become
    distribution-dependent, exactly like the reference.
    """
    n = len(ordinals)
    if mode == "global":
        return np.asarray(ordinals, dtype=np.int64) // size
    order = np.argsort(ordinals, kind="stable")
    if mode != "condor":
        raise ValueError(f"unknown count-window mode {mode!r}")
    if size % parallelism:
        raise ValueError("condor mode needs parallelism | size (Java int division drops the remainder per builder)")
    per = size // parallelism
    st = (
        np.zeros(n, dtype=np.int64)
        if subtask is None
        else np.asarray(subtask)[order]
    )
    # per-subtask round-robin counter -> builder id
    df = pd.DataFrame({"st": st})
    rr = df.groupby("st", sort=False).cumcount().to_numpy()
    builder = rr % parallelism
    # per-builder arrival rank -> partial index -> window id
    rank = pd.DataFrame({"b": builder}).groupby("b", sort=False).cumcount().to_numpy()
    wid = np.empty(n, dtype=np.int64)
    wid[order] = rank // per
    return wid


def count_window_distinct(sf_dir: str, size: int):
    """Distinct conversations per count window of ``size`` arrival ordinals
    over the events stream (ordinal == event_id, see module docstring)."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id"])

    def pairs(batch: pa.Table) -> pa.Table:
        wid = batch["event_id"].to_numpy() // size
        uid = batch["user_id"].to_numpy()
        m = int(uid.max()) + 1 if len(uid) else 1  # no fixed-radix overflow
        gkey = wid * m + uid
        uniq = np.unique(gkey)
        return pa.table(
            {
                "window_id": pa.array(uniq // m, type=pa.int64()),
                "user_id": pa.array(uniq % m, type=pa.int64()),
            }
        )

    from ..engine.exchange import distinct_count_exchange

    p = ds.map_batches(pairs, batch_format="pyarrow")
    partials = distinct_count_exchange(
        p, "window_id", ("user_id", pa.int64()), default_n_parts()
    )
    out = partials.groupby("window_id").aggregate(Sum("c", alias_name="n_convs"))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "window_id": df["window_id"].astype(np.int64),
                "n_convs": df["n_convs"].astype(np.int64),
            }
        )

    return out.map_batches(fin, batch_format="pandas")


def session_synopses(
    ds,
    gap_ms: int,
    synopsis: str = "CountMinSketch",
    params: tuple = (1024, 3, 7),
    key_field: str = "text",
    key_transform: str = "length",
    n_parts: int | None = None,
):
    """One synopsis per (conversation, session window): the Scotty session
    path's keyed output (SURVEY §2.6) — sessions are per-key in the
    reference, so the natural key here is the conversation.

    Returns conv_id, session_start, session_end (int64 us), n_rows,
    synopsis_type, payload."""
    import pyarrow as pa

    from ..config import KeySpec
    from ..stages.extract import KeyExtractor
    from ..synopses.registry import make_synopsis

    gap_us = gap_ms * 1000
    extractor = KeyExtractor(KeySpec(key_field, key_transform))

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized gaps-and-islands over the whole partition; the only
        # loop is over SESSIONS (one synopsis build each — inherent work),
        # never a Ray dispatch per conversation
        conv = g["conv_id"].to_numpy()
        ts = ts_to_us(pa.array(g["ts"]))
        turn = g["turn_idx"].to_numpy()
        order = np.lexsort((turn, ts, conv))
        conv, ts = conv[order], ts[order]
        values = extractor(pa.Table.from_pandas(g, preserve_index=False))[order]
        n = len(ts)
        rows = []
        if n:
            starts, ends, _ = _session_boundaries(conv, ts, gap_us)
            for lo, hi in zip(starts, ends):
                syn = make_synopsis(synopsis, params)
                syn.set_partition_value(conv[lo])
                if syn.timestamped:
                    syn.update_batch(values[lo:hi], timestamps=ts[lo:hi])
                else:
                    syn.update_batch(values[lo:hi])
                rows.append(
                    {
                        "conv_id": conv[lo],
                        "session_start": int(ts[lo]),
                        "session_end": int(ts[hi - 1]),
                        "n_rows": int(hi - lo),
                        "synopsis_type": synopsis,
                        "payload": syn.to_bytes(),
                    }
                )
        return pd.DataFrame(
            rows,
            columns=[
                "conv_id", "session_start", "session_end", "n_rows",
                "synopsis_type", "payload",
            ],
        )

    from ..engine.exchange import hash_exchange

    n_parts = n_parts or default_n_parts()
    out_schema = pa.schema(
        [
            ("conv_id", pa.string()),
            ("session_start", pa.int64()),
            ("session_end", pa.int64()),
            ("n_rows", pa.int64()),
            ("synopsis_type", pa.string()),
            ("payload", pa.binary()),
        ]
    )
    # schemaless-empty face assumes a string key_field (the default
    # "text"); non-string keys still work — only zero-row shards of
    # SCHEMALESS blocks would drift, and those carry no data
    return hash_exchange(
        ds,
        n_parts,
        _conv_shard(((key_field, pa.string()),)),
        _session_combine(per_part, out_schema),
    )


def session_synopsis_sql(transcripts_cte: str, gap_ms: int) -> str:
    """Oracle for ``session_synopses``: per-(conv, session) bounds + count.
    The Ray side emits ``n_rows`` from the session synopsis's own
    ``elements_processed``, so a hash match proves the per-session synopsis
    ingested exactly the session's turns."""
    gap_us = gap_ms * 1000
    return f"""{transcripts_cte},
marked AS (
  SELECT conv_id, turn_idx, epoch_us(ts) AS ts_us,
         CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER w >= {gap_us}
              THEN 1 ELSE 0 END AS brk
  FROM transcripts
  WINDOW w AS (PARTITION BY conv_id ORDER BY ts, turn_idx)
),
islands AS (
  SELECT conv_id, ts_us,
         CAST(sum(brk) OVER (PARTITION BY conv_id ORDER BY ts_us, turn_idx
                             ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_idx
  FROM marked
)
SELECT conv_id,
       min(ts_us) AS session_start,
       max(ts_us) AS session_end,
       count(*) AS n_rows
FROM islands GROUP BY conv_id, session_idx"""
