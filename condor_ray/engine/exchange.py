"""Generic task-based two-sided hash exchange.

The engine's standard antidote to Ray Data's sort-based ``groupby`` for
co-partitioned joins (the wavelet partition path established the pattern;
``temporal_join`` and the batch stream-stream join reuse it): each input
block shards by ``hash(key) % B`` in ONE task with ``num_returns=B`` — the
fan-out rides the object store directly — and one task per bucket combines
its left + right shards.  Rows cross the wire exactly once, carry only the
caller's projection, and never touch a range-sampled sort exchange (which
measured 25 s for a 4 M-row join this plan does in ~2 s of task time).

Scale contract (honest version): an all-to-all exchange MATERIALIZES — the
projected stream's bytes live in the object store (spilling when needed)
between shard and combine; that floor is inherent to hash partitioning.
What IS bounded here:

- **driver submission / in-flight shard tasks** — blocks shard in waves of
  ``O(cluster CPUs)`` with a barrier per wave (the ``_build_wavelets_waved``
  pattern), so neither the driver's task queue nor the un-consumed shard
  fan-out grows with the stream;
- **live object refs** — each wave's ``wave × B`` small shard objects are
  folded into ``B`` compacted per-bucket tables and freed, so the driver
  holds ``O(B × waves)`` refs, not ``O(blocks × B)``;
- **combine memory** — ``O(bucket) = O(N / B)`` per task, with B scaling
  with the cluster (`default_n_parts`).

Every exchange records its measured footprint in ``LAST_EXCHANGE_STATS``
(``live_bytes_hwm`` = peak exchange bytes resident — folded waves plus
the raw tail the combines consume directly — ``waves``, ``shard_tasks``,
``tail_blocks``); jobs copy it into their manifest.
"""

from __future__ import annotations

import ray

# Footprint of the most recent exchange on this driver (see module
# docstring).  Read it right after the returned Dataset is consumed;
# jobs / benches copy it into their manifests.
LAST_EXCHANGE_STATS: dict = {}


def split_by_partition(tbl, part, n_parts: int):
    """One sorted-stable pass: Arrow table + per-row partition ids ->
    ``n_parts`` zero-copy-sliced tables (the shard tasks' inner step)."""
    import numpy as np
    import pyarrow as pa

    from ..stages.extract import stable_partition_order

    order = stable_partition_order(part, n_parts)
    bounds = np.searchsorted(part[order], np.arange(n_parts + 1))
    sel = pa.array(order)
    return tuple(
        tbl.take(sel.slice(int(bounds[q]), int(bounds[q + 1] - bounds[q])))
        for q in range(n_parts)
    )


def _wave_blocks() -> int:
    try:
        ncpu = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        ncpu = 8
    return max(16, 2 * ncpu)


def _fold_shards(*shards):
    """Compact one wave's shards for one bucket into a single table and
    report its size (the wave barrier reads the size, freeing the wave's
    ``wave × B`` small shard objects).  Zero-row shards are dropped before
    the concat: schemaless-block guards may pin a reduced empty-face schema
    (e.g. ``write_time_ordered_fragments``), and every combine filters
    ``num_rows == 0`` tables anyway."""
    import pyarrow as pa

    nonempty = [t for t in shards if t.num_rows]
    if not nonempty:
        return shards[0], 0
    out = pa.concat_tables(nonempty).combine_chunks()
    return out, out.nbytes


_fold_task = ray.remote(_fold_shards)


@ray.remote
def _tail_nbytes(*tables) -> int:
    return sum(t.nbytes for t in tables)


def _waved_shard(sides, n_buckets: int):
    """Shard every block of every side, wave-bounded.

    ``sides``: list of ``(dataset, shard_fn)``.  Returns (per-side
    per-bucket lists of table refs in row order, stats dict).  Blocks are
    submitted in waves of ``_wave_blocks()``; each full wave's shards are
    folded per bucket and the fold sizes act as the wave barrier (ordinary
    backpressure for the upstream dataset iteration).  The final partial
    wave skips the fold — a single-wave exchange (tests, small inputs)
    therefore takes the exact zero-extra-copy path the pre-wave code took.
    """
    wave = _wave_blocks()
    per: list[list[list]] = [[[] for _ in range(n_buckets)] for _ in sides]
    stats = {
        "n_buckets": n_buckets,
        "wave_blocks": wave,
        "waves": 0,
        "shard_tasks": 0,
        "tail_blocks": 0,
        "live_bytes_hwm": 0,
        "folded_bytes": 0,
    }
    live = 0

    def flush(buf):
        nonlocal live
        size_refs = []
        for s in range(len(sides)):
            for q in range(n_buckets):
                shard_refs = [refs[q] for si, refs in buf if si == s]
                if shard_refs:
                    tref, nref = _fold_task.options(num_returns=2).remote(*shard_refs)
                    per[s][q].append(tref)
                    size_refs.append(nref)
        live += sum(ray.get(size_refs)) if size_refs else 0
        stats["live_bytes_hwm"] = max(stats["live_bytes_hwm"], live)
        stats["folded_bytes"] = live
        stats["waves"] += 1

    buf: list[tuple[int, list]] = []
    for s, (ds_, shard_fn) in enumerate(sides):
        if n_buckets == 1:
            # num_returns=1 would hand back ONE ref to the whole shard
            # tuple; unwrap so refs[0] is a ref to the (only) table
            def _one(block, nb, _fn=shard_fn):
                return _fn(block, nb)[0]

            shard_task = ray.remote(_one)
        else:
            shard_task = ray.remote(num_returns=n_buckets)(shard_fn)
        for bundle in ds_.iter_internal_ref_bundles():
            for bref in bundle.block_refs:
                refs = shard_task.remote(bref, n_buckets)
                if n_buckets == 1:
                    refs = [refs]
                stats["shard_tasks"] += 1
                buf.append((s, refs))
                if len(buf) >= wave:
                    flush(buf)
                    buf = []
    # tail: pass raw shard refs straight to the combines (no fold copy).
    # The tail's bytes are still resident until the combines consume them,
    # so they belong in live_bytes_hwm — a single-wave exchange otherwise
    # reports 0 while the whole projected stream sits in the object store.
    # Size-only tasks read the shards zero-copy; the refs are resolved by
    # the caller AFTER the combines are submitted (no extra barrier).
    stats["tail_blocks"] = len(buf)
    tail_size_refs = []
    for s, refs in buf:
        for q in range(n_buckets):
            per[s][q].append(refs[q])
        tail_size_refs.append(_tail_nbytes.remote(*refs))
    stats["_tail_size_refs"] = tail_size_refs
    stats["_live_pre_tail"] = live
    return per, stats


def _finalize_stats(stats: dict) -> dict:
    """Resolve the tail-size refs (call after submitting the combines) and
    fold them into the footprint numbers."""
    refs = stats.pop("_tail_size_refs", [])
    live = stats.pop("_live_pre_tail", 0)
    tail = sum(ray.get(refs)) if refs else 0
    # tail bytes were never folded — they stay out of folded_bytes (which
    # reports fold-copy volume only) but count toward the resident peak
    stats["tail_bytes"] = tail
    stats["live_bytes_hwm"] = max(stats["live_bytes_hwm"], live + tail)
    return stats


def hash_exchange(ds, n_buckets: int, shard, combine):
    """One-sided variant: ``shard(block, n_buckets)`` routes each input
    block into schema-stable per-bucket tables; ``combine(*tables)`` fuses
    one bucket.  Replaces ``groupby("part").map_groups`` for full-row
    streams (the sort-based groupby's range-sample + per-block sort costs
    multiples of the task fan-out at millions of rows)."""
    import ray.data as rd

    per, stats = _waved_shard([(ds, shard)], n_buckets)
    combine_task = ray.remote(combine)
    out_refs = [combine_task.remote(*per[0][q]) for q in range(n_buckets) if per[0][q]]
    if not out_refs:
        out_refs = [combine_task.remote()]
    LAST_EXCHANGE_STATS.clear()
    LAST_EXCHANGE_STATS.update(_finalize_stats(stats))
    return rd.from_arrow_refs(out_refs)


def two_sided_hash_exchange(
    left_ds,
    right_ds,
    n_buckets: int,
    shard_left,
    shard_right,
    combine,
):
    """``shard_*(block, n_buckets) -> tuple[pa.Table] * n_buckets`` (must
    return schema-stable tables, including for zero-row/schemaless blocks);
    ``combine(n_left, *tables) -> pa.Table`` receives the bucket's left
    shards followed by its right shards (each side possibly pre-compacted
    by the wave fold — same rows, same order, fewer tables).  Returns a
    Dataset of the combined blocks."""
    import ray.data as rd

    per, stats = _waved_shard(
        [(left_ds, shard_left), (right_ds, shard_right)], n_buckets
    )
    combine_task = ray.remote(combine)
    out_refs = [
        combine_task.remote(len(per[0][q]), *per[0][q], *per[1][q])
        for q in range(n_buckets)
        if per[0][q] or per[1][q]
    ]
    if not out_refs:
        out_refs = [combine_task.remote(0)]
    LAST_EXCHANGE_STATS.clear()
    LAST_EXCHANGE_STATS.update(_finalize_stats(stats))
    return rd.from_arrow_refs(out_refs)


def distinct_count_exchange(pair_ds, group_col: str, key_col, n_parts: int, out_name: str = "c"):
    """Distinct-``(group, key)`` count per group over a pair stream.

    Shards by ``hash(key) % n_parts`` so every ``(group, key)`` pair lands
    in exactly ONE bucket; each bucket dedupes + counts with one vectorized
    polars pass.  Returns a small Dataset ``(group_col, out_name)`` of
    per-bucket partials — the caller finishes with a tiny groupby-sum over
    ~``n_parts`` blocks.  ``key_col`` is ``(name, pa_type)`` with
    ``pa_type`` one of ``pa.string()`` / ``pa.int64()`` (the empty-shard
    face and the hash kernel derive from it).  Shards are projected to
    exactly ``(group_col, key)`` so extra input columns neither widen the
    wire nor drift the schema vs the 2-column empty face.  Shared by
    ``windowed_distinct_convs`` and ``count_window_distinct`` — keep the
    schemaless-block guard and hash choices HERE, not in per-site copies.
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..runtime import worker_polars

    key, key_type = key_col
    is_str = pa.types.is_string(key_type)

    def shard(block, n_buckets: int):
        if isinstance(block, pd.DataFrame):
            block = pa.Table.from_pandas(block, preserve_index=False)
        empty = pa.table(
            {
                group_col: pa.array([], pa.int64()),
                key: pa.array([], key_type),
            }
        )
        if block.num_rows == 0 or key not in block.schema.names:
            return tuple(empty for _ in range(n_buckets))  # schemaless guard
        block = block.select([group_col, key])  # match the empty face
        if is_str:
            pl = worker_polars()
            col = block[key]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            part = (pl.from_arrow(col).hash(seed=9).to_numpy() % n_buckets).astype(
                np.int64
            )
        else:
            from ..hashing import int_bucket_of

            part = int_bucket_of(block[key].to_numpy(), n_buckets)
        return split_by_partition(block.combine_chunks(), part, n_buckets)

    def partial_counts(*tables):
        tables = [t for t in tables if t.num_rows]
        schema = pa.schema([(group_col, pa.int64()), (out_name, pa.int64())])
        if not tables:
            return schema.empty_table()
        pl = worker_polars()
        return (
            pl.from_arrow(pa.concat_tables(tables))
            .unique()
            .group_by(group_col)
            .agg(pl.len().cast(pl.Int64).alias(out_name))
            .to_arrow()
            .cast(schema)
        )

    return hash_exchange(pair_ds, n_parts, shard, partial_counts)
