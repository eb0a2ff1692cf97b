"""Stream-stream join: turn stream x tool-call stream per conversation.

North-rule requirement (not in the reference, SURVEY §2.7 last row): correlate
each tool turn with its tool-call record on conv_id within a time bound.

Join semantics (matches the SQL oracle exactly): ``turns t JOIN tool_calls c
ON t.conv_id = c.conv_id AND t.tool = c.tool AND c.ts BETWEEN t.ts AND
t.ts + bound``, with NULL-tool turns dropped before the join (NULL never
equals anything).  Tool calls fire 0..bound after their turn.  Orphan calls
(conv absent) match nothing; duplicate calls produce duplicate output rows —
both asserted by tests on the F2 fixture.

Physical plan (batch): the engine's task-based two-sided hash exchange
(``engine.exchange``): each block shards by hash(conv_id) % B via
``num_returns`` fan-out, one task per bucket joins its shards with a pandas
merge + vectorized time filter.  Rows cross the wire once and never enter
Ray Data's sort-based groupby (which measured ~6x slower at millions of
rows); B and hot-key handling are the same conv partitioning the rest of
the engine uses.

Physical plan (streaming): per-partition join buffers live in
``JoinStateStore`` actors fed by the same conv-hash split; matches emit at
watermark advance and buffers purge below ``watermark - bound`` (late rows
cannot match anymore), keeping state bounded by the time bound, not the
stream length.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..hashing import java_string_hash_arrow
from ..stages.extract import ts_to_us


def _bucket_of(conv_col, n_buckets: int) -> np.ndarray:
    from ..engine.streaming import _murmur_mix_array

    return _murmur_mix_array(java_string_hash_arrow(conv_col)) % n_buckets


def join_turns_tool_calls(
    turns_ds,
    tool_calls_ds,
    bound_ms: int = 5_000,
    n_buckets: int = 32,
):
    """Batch partitioned hash join.  Output: conv_id, turn_idx, turn_ts,
    call_id, tool, status, call_ts (int64 us)."""
    import pyarrow as pa

    from ..engine.exchange import two_sided_hash_exchange

    bound_us = bound_ms * 1000

    from ..engine.exchange import split_by_partition

    def _route(tbl: pa.Table, n_parts: int):
        """Sorted-stable split of a projected table by conv bucket."""
        part = _bucket_of(tbl["conv_id"], n_parts).astype(np.int64)
        return split_by_partition(tbl, part, n_parts)

    def shard_turns(block, n_parts: int):
        import pyarrow.compute as pc

        if isinstance(block, pd.DataFrame):
            block = pa.Table.from_pandas(block, preserve_index=False)
        empty = pa.table(
            {
                "conv_id": pa.array([], pa.string()),
                "turn_idx": pa.array([], pa.int32()),
                "turn_ts": pa.array([], pa.int64()),
                "tool": pa.array([], pa.string()),
            }
        )
        if block.num_rows == 0 or "conv_id" not in block.schema.names:
            return tuple(empty for _ in range(n_parts))  # schemaless guard
        block = block.filter(pc.is_valid(block["tool"]))  # NULL never joins
        proj = pa.table(
            {
                "conv_id": block["conv_id"],
                "turn_idx": block["turn_idx"].cast(pa.int32()),
                "turn_ts": ts_to_us(block["ts"]),
                "tool": block["tool"],
            }
        ).combine_chunks()
        return _route(proj, n_parts)

    def shard_calls(block, n_parts: int):
        if isinstance(block, pd.DataFrame):
            block = pa.Table.from_pandas(block, preserve_index=False)
        empty = pa.table(
            {
                "conv_id": pa.array([], pa.string()),
                "call_id": pa.array([], pa.string()),
                "tool": pa.array([], pa.string()),
                "status": pa.array([], pa.string()),
                "call_ts": pa.array([], pa.int64()),
            }
        )
        if block.num_rows == 0 or "conv_id" not in block.schema.names:
            return tuple(empty for _ in range(n_parts))
        proj = pa.table(
            {
                "conv_id": block["conv_id"],
                "call_id": block["call_id"],
                "tool": block["tool"],
                "status": block["status"],
                "call_ts": ts_to_us(block["ts"]),
            }
        ).combine_chunks()
        return _route(proj, n_parts)

    # One canonical output schema for every block: from_pandas on an empty
    # object-dtype frame would infer null-typed string columns, and blocks
    # from empty vs non-empty buckets would then disagree on schema.
    out_schema = pa.schema(
        [
            ("conv_id", pa.string()),
            ("turn_idx", pa.int32()),
            ("turn_ts", pa.int64()),
            ("call_id", pa.string()),
            ("tool", pa.string()),
            ("status", pa.string()),
            ("call_ts", pa.int64()),
        ]
    )

    def combine(n_left, *tables):
        turns = [t for t in tables[:n_left] if t.num_rows]
        calls = [t for t in tables[n_left:] if t.num_rows]
        if not turns or not calls:
            return out_schema.empty_table()
        merged = pa.concat_tables(turns).to_pandas().merge(
            pa.concat_tables(calls).to_pandas(),
            on=["conv_id", "tool"],
            how="inner",
        )
        ok = (merged["call_ts"] >= merged["turn_ts"]) & (
            merged["call_ts"] <= merged["turn_ts"] + bound_us
        )
        out = merged[ok][
            ["conv_id", "turn_idx", "turn_ts", "call_id", "tool", "status", "call_ts"]
        ].astype({"turn_idx": np.int32, "turn_ts": np.int64, "call_ts": np.int64})
        return pa.Table.from_pandas(out, schema=out_schema, preserve_index=False)

    return two_sided_hash_exchange(
        turns_ds, tool_calls_ds, n_buckets, shard_turns, shard_calls, combine
    )


