"""Streaming synopsis job: sliced mergeable synopses over the fragment
stream that ``driver.py`` walks.

The Ray-native counterpart of Condor's Scotty path
(conn/.../processor/SynopsisBuilder.java:298-342 + KeyedScottyWindowOperator).
The job keeps no actors.  Its slice state is a list of Arrow tables that
the driver holds as object refs, in one of two layouts:

- **Cells**, for a synopsis whose partial depends only on per-key counts
  (``Synopsis.combinable``): Count-Min, whose counters are linear in the key
  counts, and HyperLogLog, whose registers are idempotent per key.  The
  state is one cell table per fragment since the last close, plus one carry
  table of the slices still open.
- **Objects**, for every other synopsis (and for ``job.combine = False``,
  set before the first ``run``): P row shards per fragment since the last
  close, plus one carry per partition, a partial table ``(slice_id,
  stratum, payload, n_rows)`` of the open slices' serialized synopses, one
  per (stratum, slice).  Per-partition partials stay because Bloom's
  AND-merge and the samplers make the emitted bytes depend on the
  partitioning.

The parts:

- **Partitioning**: a split task per fragment routes each row by
  ``murmur(hash32(conv_id)) % P``.  Hot conversations (rows in fragment >
  ``hot_key_threshold``) are salted round-robin across partitions, which is
  safe because mergeable-synopsis state is keyed by (stratum, slice), not by
  conv (SURVEY §4 skew row).  The object layout cuts P row shards (one Ray
  object each, so each shard moves only to its partition's task).  In the
  cell layout the routed partition is only a column, ``__part``, and only
  in HyperLogLog's tables, whose preserved merge quirk reads it (see Window
  close).
- **Combiner** (cell layout): after the late filter, salting and key
  extraction, one sort groups the fragment's rows by (slice, stratum,
  [partition,] key), and the split returns one cell table with a row
  ``(__slice, [__stratum], [__part], __key32, __count)`` per group, in that
  order (stratum labels sorted, keys as unsigned ints).  The encoding is
  compact: ``__slice`` is a dictionary over the table's slice ids with
  int16 indices (int32 from 2^15 slices), ``__stratum`` a dictionary over
  the stratum labels of ``stratum_codes``, and ``__part`` and ``__count``
  the narrowest unsigned ints that hold their values.
- **Late rule**: applied in the split.  A row is late iff its slice end <=
  the carry-in watermark (the max-seen assigner of
  bench/.../sources/utils/SyntheticTimestampsAndWatermarks.java:17-28, at
  fragment granularity); late rows are dropped and counted, so late-by-20s
  rows never reach closed windows.
- **Window close**: window w closes when watermark >= end(w).  Its slices
  are frozen by then (any update to them would be late).  In the object
  layout one task per partition (``_ingest_partition``) restores the
  partition's carry, ingests its waiting row shards one fragment at a time,
  in order, and returns the closing slices' partials plus the new carry;
  one task (``_merge_partials_and_emit``) merges the partials per slice,
  then per window.  In the cell layout one task (``_merge_and_emit``) reads
  the cell tables of fragments <= k: over the rows of the closing windows'
  slices, it hashes each distinct key once, reduces the cells per
  (stratum, slice) once (Count-Min into a scratch once the cells reach 1/8
  of the sketches, else by a sort), folds each window from its slices and
  builds only the synopses it emits.  Either way
  the task writes ``emit-f{k:05d}.parquet``, with the same bytes: a
  Count-Min window is sparse iff nnz*3 < width*height, and a HyperLogLog
  window caches its estimate iff it folds two or more (partition, slice)
  partials (the reference's merge caches it; an unmerged partial holds 0).
  Slices are evicted once no remaining window needs them: a close also
  returns the state of the slices that stay open (the cell rows, merged as
  sorted runs by a stable sort, or the partials), which replaces the tables
  it read, and ``_FOLD_EVERY`` fragments without a close (or all of them,
  before a checkpoint) are folded the same way, so live state stays
  bounded.

This module also holds the conv-hash routing every streaming splitter shares
(``conv_partition_ids``, ``split_by_conv``).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..config import BuildConfiguration
from ..hashing import java_string_hash_arrow
from ..runtime import cluster_cpus
from ..stages.extract import stable_partition_order, stratum_codes, ts_to_us
from ..synopses.base import Synopsis
from ..synopses.registry import get_synopsis_class, make_synopsis
from ..synopses.sketches import CountMinSketch, HyperLogLogSketch
from ..windows import SlidingWindow, TumblingWindow, slices_of_window
from .batch import (_common_slice_us, _element_keys, _window_kind,
                    partials_table, update_slices)
from .driver import NEG_INF as _NEG_INF, POS_INF, FragmentStreamJob
from .emit import write_atomic

# A job folds the live tables of fragments that closed no window into one
# carry once this many pile up, so between closes its live state is at most
# one carry plus this many fragments' tables.
_FOLD_EVERY = 32


def _murmur_mix_array(codes: np.ndarray) -> np.ndarray:
    """Vectorized Flink MathUtils.murmurHash(int) (see hashing.murmur_hash_int)
    for partition routing — avalanches the java hash so partitions balance."""
    c = codes.astype(np.uint64) & np.uint64(0xFFFFFFFF)
    M = np.uint64(0xFFFFFFFF)

    def mul(a, b):
        return (a * np.uint64(b)) & M

    def rotl(v, n):
        return ((v << np.uint64(n)) | (v >> np.uint64(32 - n))) & M

    c = mul(c, 0xCC9E2D51)
    c = rotl(c, 15)
    c = mul(c, 0x1B873593)
    c = rotl(c, 13)
    c = (mul(c, 5) + np.uint64(0xE6546B64)) & M
    c ^= np.uint64(4)
    c ^= c >> np.uint64(16)
    c = mul(c, 0x85EBCA6B)
    c ^= c >> np.uint64(13)
    c = mul(c, 0xC2B2AE35)
    c ^= c >> np.uint64(16)
    s = c.astype(np.int64)
    s = np.where(s >= 1 << 31, s - (1 << 32), s)
    out = np.where(s >= 0, s, np.where(s != -(1 << 31), -s, 0))
    return out.astype(np.int64)


def conv_partition_ids(conv_col, parallelism: int):
    """Hash-route a (possibly chunked, possibly null-bearing) conv_id string
    column: ``murmur(java_hash(conv)) % P`` with nulls on the hash-0 route
    (the hashing.py convention).  Shared by every streaming splitter — the
    NaN-dictionary-index crash was fixed here once; keep it single-sourced.
    Returns ``(part, codes, dic, hashes)``: per-row partition ids, per-row
    dictionary codes (null rows = len(dic.dictionary)), the encoded column
    for callers that inspect key frequencies, and the java hash of each code
    (0 for the null code), so ``hashes[codes]`` is the column's
    ``KeySpec(..., "java_hash")`` key."""
    if isinstance(conv_col, pa.ChunkedArray):
        conv_col = conv_col.combine_chunks()
    dic = conv_col.dictionary_encode()
    hashes = java_string_hash_arrow(dic.dictionary)
    idx_arr = dic.indices
    if idx_arr.null_count:
        hashes = np.append(hashes, np.int32(0))
        idx_arr = idx_arr.fill_null(len(dic.dictionary))
    codes = idx_arr.to_numpy(zero_copy_only=False).astype(np.int64)
    return (_murmur_mix_array(hashes) % parallelism)[codes], codes, dic, hashes


def _cut_shards(table: pa.Table, part: np.ndarray, parallelism: int) -> list:
    """One stable sort + zero-copy slices instead of P masked filters (P
    filters cost O(P*n) per fragment: anti-scaling as P grows)."""
    sorted_tbl = table.take(pa.array(stable_partition_order(part, parallelism)))
    counts = np.bincount(part, minlength=parallelism)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return [sorted_tbl.slice(offsets[p], counts[p]) for p in range(parallelism)]


def _ts_meta(ts: np.ndarray) -> dict:
    n = len(ts)
    return {"n_rows": n, "frag_max_ts": int(ts.max()) if n else _NEG_INF,
            "frag_min_ts": int(ts.min()) if n else POS_INF}


def split_by_conv(path: str, parallelism: int, columns: list[str] | None):
    """Watermark-free split: P shards by conv hash, for the engines whose
    late rule runs at actor ingest.  Returns (meta, shard_0..shard_{P-1})."""
    table = pq.read_table(path, columns=columns)
    part = conv_partition_ids(table["conv_id"], parallelism)[0]
    return (_ts_meta(ts_to_us(table["ts"])), *_cut_shards(table, part, parallelism))


_split_by_conv_task = ray.remote(split_by_conv)


def submit_split_by_conv(path: str, parallelism: int, columns: list[str] | None):
    return _split_by_conv_task.options(num_returns=1 + parallelism).remote(
        path, parallelism, columns
    )


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Indices where a run of equal values of ``a`` starts."""
    if not len(a):
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(np.concatenate([[True], a[1:] != a[:-1]]))


def _grouped(group: np.ndarray, keys: np.ndarray, counts: np.ndarray | None = None):
    """The distinct (group, key) pairs of the rows in (group, key) order,
    and each pair's rows (``counts`` None) or summed ``counts``: one int64
    sort with the group above the key's 32 bits (groups from 2^31 on are
    ranked first).  Rows with ``counts`` are the sorted runs of cell tables,
    which a stable (tim)sort merges in about linear time."""
    ranks = None
    if len(group) and int(group.max()) >= 2**31:
        ranks, group = np.unique(group, return_inverse=True)
    keys = np.ascontiguousarray(keys, dtype=np.int32)
    packed = (group.astype(np.int64) << 32) | keys.view(np.uint32)
    if counts is None:
        packed = np.sort(packed)
    else:
        order = np.argsort(packed, kind="stable")
        packed, counts = packed[order], counts[order]
    first = _run_starts(packed)
    if counts is None:
        counts = np.diff(np.append(first, len(packed)))
    elif len(first):
        counts = np.add.reduceat(counts, first)
    packed = packed[first]
    group = packed >> 32
    return (group if ranks is None else ranks[group],
            packed.astype(np.uint32).view(np.int32), counts)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of non-negative ints: by a bincount when
    they span a small range, else by a sort."""
    if len(values) and int(values.max()) <= 4 * len(values) + 1024:
        return np.flatnonzero(np.bincount(values))
    return np.unique(values)


def _narrow(values: np.ndarray) -> np.ndarray:
    """``values`` as the narrowest unsigned int that holds their maximum."""
    top = int(values.max()) if len(values) else 0
    return values.astype(
        np.uint8 if top < 2**8 else np.uint16 if top < 2**16 else np.uint32
    )


def _count_table(sid: np.ndarray, strata: dict, part, keys, counts) -> pa.Table:
    """One compact cell table.  ``__slice`` is a dictionary over the
    table's slice ids, built from the runs of ``sid`` (the rows arrive
    ordered by slice), with int16 indices (int32 from 2^15 slices);
    ``__part`` (left out when ``part`` is None) and ``__count`` are the
    narrowest unsigned ints that hold their largest value, so a group costs
    7 or 8 bytes (index, [partition,] key, count)."""
    run = np.ones(len(sid), dtype=bool)
    run[1:] = sid[1:] != sid[:-1]
    index = np.cumsum(run) - 1
    wide = len(index) > 0 and index[-1] >= 2**15 - 1  # 2^15 slices or more
    return pa.table({
        "__slice": pa.DictionaryArray.from_arrays(
            pa.array(index.astype(np.int32 if wide else np.int16)),
            pa.array(sid[run], type=pa.int64()),
        ),
        **strata,
        **({} if part is None else {"__part": _narrow(part)}),
        "__key32": keys,
        "__count": _narrow(counts),
    })


def _slice_groups(
    table: pa.Table, part: np.ndarray, sid: np.ndarray, stratum: str | None,
    parallelism: int,
) -> tuple[np.ndarray, list, int, list]:
    """Each row's (slice, stratum, partition) group, numbered from the
    table's first slice ``s0`` in that order, with the sorted stratum
    labels (``stratum_codes`` labels; ``[""]`` unstratified).  Returns
    ``(group, labels, s0, touched)``, ``touched`` listing per partition the
    (slice, stratum label) pairs its rows touch: the run summary's
    per-partition open slices."""
    labels, code = [""], 0
    if stratum is not None:
        code, raw = stratum_codes(table[stratum])
        # sorted labels: every cell table orders its rows as ``_carry`` does
        labels = sorted(set(raw))
        at = {v: i for i, v in enumerate(labels)}
        code = np.array([at[v] for v in raw], dtype=np.int64)[code]
    s0 = int(sid.min()) if len(sid) else 0
    group = ((sid - s0) * len(labels) + code) * parallelism + part
    touched: list[list] = [[] for _ in range(parallelism)]
    for g in _distinct(group).tolist():
        g, p = divmod(g, parallelism)
        touched[p].append((g // len(labels) + s0, labels[g % len(labels)]))
    return group, labels, s0, touched


def _count_cells(
    table: pa.Table, part: np.ndarray, sid: np.ndarray, keys: np.ndarray,
    stratum: str | None, parallelism: int, by_part: bool = False,
) -> tuple[pa.Table, list]:
    """The combiner: the fragment's cell table, one row per (slice, stratum,
    [partition,] key) group of the rows, ordered by slice, stratum label,
    partition and unsigned key (``_count_table``).  Keys ship as the int32
    the synopsis hashes, strata as their ``stratum_codes`` labels; the
    partition is a dimension only ``by_part``.  Also returns, per
    partition, the (slice, stratum label) pairs the rows touch."""
    group, labels, s0, touched = _slice_groups(table, part, sid, stratum, parallelism)
    if not by_part:
        group //= parallelism
    group, keys, counts = _grouped(group, keys)
    part = None
    if by_part:
        part = group % parallelism
        group //= parallelism
    code = group % len(labels)
    sid = group // len(labels) + s0
    strata = {}
    if stratum is not None:
        strata["__stratum"] = pa.DictionaryArray.from_arrays(
            pa.array(code.astype(np.int32)), pa.array(labels, type=pa.string())
        )
    return _count_table(sid, strata, part, keys, counts), touched


def _partition_fragment(
    path: str,
    parallelism: int,
    slice_us: int,
    watermark_us: int,
    hot_key_threshold: int | None,
    columns: list[str] | None,
    key_spec=None,
    shard_columns: list[str] | None = None,
    combine: bool = False,
    by_part: bool = False,
    stratify_by: str | None = None,
):
    """Split one fragment by conv hash; drop+count late rows.

    Without ``combine``: returns (meta_dict, shard_0, ..., shard_{P-1}) —
    row shards as separate return values, so each partition's close task
    fetches only its own.  ``shard_columns`` projects the shards onto the
    columns the partition task reads (None: every column read); the routing
    column is used here and need not ship.

    With ``combine`` (and a ``key_spec``): returns (meta_dict, cells), the
    fragment's cell table (``_count_cells``, with a ``__part`` column iff
    ``by_part``).

    Either way ``meta`` also holds ``part_rows`` (rows kept per partition)
    and ``groups`` (the (slice, ``stratify_by`` label) pairs of each
    partition)."""
    dict_cols = [
        c for c in (columns or ["conv_id", "role", "tool", "text"])
        if c in ("conv_id", "role", "tool", "text")
    ]
    # dictionary-preserving read: string columns stay index+dictionary,
    # slashing decode and copy bandwidth (the single-box bottleneck)
    table = pq.read_table(path, columns=columns, read_dictionary=dict_cols)
    ts = ts_to_us(table["ts"])
    meta = _ts_meta(ts)

    # late rule: slice already frozen by the carry-in watermark
    late = (ts // slice_us + 1) * slice_us <= watermark_us
    meta["n_late"] = int(late.sum())
    if meta["n_late"]:
        table = table.filter(pa.array(~late))
        ts = ts[~late]

    part, codes, dic, hashes = conv_partition_ids(table["conv_id"], parallelism)

    if hot_key_threshold is not None and len(dic.dictionary):
        counts = np.bincount(codes, minlength=len(dic.dictionary))
        hot = np.flatnonzero(counts > hot_key_threshold)
        if len(hot):
            hot_mask = np.isin(codes, hot)
            # salt: spread each hot conversation round-robin over partitions
            part = part.copy()
            part[hot_mask] = (
                part[hot_mask] + np.arange(int(hot_mask.sum())) % parallelism
            ) % parallelism
    meta["part_rows"] = np.bincount(part, minlength=parallelism).tolist()

    if key_spec is not None:
        # compute the synopsis key here (once) so the state doesn't re-hash;
        # conv_id's java hash is the routing hash, already computed
        if (key_spec.field, key_spec.transform) == ("conv_id", "java_hash"):
            key_col = hashes[codes]
        else:
            from ..stages.extract import KeyExtractor

            key_col = KeyExtractor(key_spec)(table)
        if combine:
            cells, meta["groups"] = _count_cells(
                table, part, ts // slice_us, key_col, stratify_by, parallelism, by_part
            )
            return meta, cells
        table = table.append_column(
            "__key32", pa.array(np.ascontiguousarray(key_col))
        )
    meta["groups"] = _slice_groups(
        table, part, ts // slice_us, stratify_by, parallelism
    )[3]
    if shard_columns is not None:
        table = table.select(shard_columns)
    return (meta, *_cut_shards(table, part, parallelism))


_partition_task = ray.remote(_partition_fragment)


def _decode_cells(tables) -> dict | None:
    """The rows of several cell tables as numpy arrays over one slice and
    one stratum numbering: ``slices`` (sorted distinct slice ids) and
    ``labels`` (sorted stratum labels, ``[""]`` unstratified), and per row
    ``rank`` (into slices), ``lab`` (into labels), ``part`` (0 without
    ``__part``), ``key`` and ``count``.  None when there are no rows."""
    batches = [b for t in tables for b in t.to_batches() if b.num_rows]
    if not batches:
        return None
    slices = np.unique(np.concatenate(
        [b["__slice"].dictionary.to_numpy() for b in batches]
    ))
    stratified = "__stratum" in batches[0].schema.names
    labels = sorted(
        {v for b in batches for v in b["__stratum"].dictionary.to_pylist()}
    ) if stratified else [""]
    at = {v: i for i, v in enumerate(labels)}
    by_part = "__part" in batches[0].schema.names
    cols: dict[str, list] = {"rank": [], "lab": [], "part": [], "key": [], "count": []}
    for b in batches:
        s = b["__slice"]
        lut = np.searchsorted(slices, s.dictionary.to_numpy())
        cols["rank"].append(lut[s.indices.to_numpy()])
        if stratified:
            st = b["__stratum"]
            lut = np.array([at[v] for v in st.dictionary.to_pylist()], dtype=np.int64)
            cols["lab"].append(lut[st.indices.to_numpy()])
        else:
            cols["lab"].append(np.zeros(b.num_rows, dtype=np.int64))
        cols["part"].append(b["__part"].to_numpy().astype(np.int64) if by_part
                            else np.zeros(b.num_rows, dtype=np.int64))
        cols["key"].append(b["__key32"].to_numpy())
        cols["count"].append(b["__count"].to_numpy().astype(np.int64))
    out = {k: np.concatenate(v) for k, v in cols.items()}
    return {**out, "slices": slices, "labels": labels, "stratified": stratified,
            "by_part": by_part}


def _carry(c: dict, slice_us: int, horizon: int) -> pa.Table:
    """The rows of the slices that stay open (end > ``horizon``), one per
    (slice, stratum, [partition,] key) with the counts summed."""
    keep = (c["slices"][c["rank"]] + 1) * slice_us > horizon
    n_labels, n_parts = len(c["labels"]), int(c["part"].max()) + 1
    group = (c["rank"][keep] * n_labels + c["lab"][keep]) * n_parts + c["part"][keep]
    group, keys, counts = _grouped(group, c["key"][keep], c["count"][keep])
    part = group % n_parts if c["by_part"] else None
    group //= n_parts
    strata = {}
    if c["stratified"]:
        strata["__stratum"] = pa.DictionaryArray.from_arrays(
            pa.array((group % n_labels).astype(np.int32)),
            pa.array(c["labels"], type=pa.string()),
        )
    return _count_table(c["slices"][group // n_labels], strata, part, keys, counts)


def _slice_cells(c: dict, proto: Synopsis, group: np.ndarray):
    """Every (group, cell) of the rows reduced once, in one sort: Count-Min
    counters summed, HyperLogLog registers maxed.  Returns the groups, the
    cells (sorted within each group) and the values."""
    pre = proto.precompute_batch(c["key"])  # each distinct key hashed once
    if isinstance(proto, HyperLogLogSketch):
        index, zeros, inv = pre
        if inv is not None:
            index, zeros = index[inv], zeros[inv]
        n_cells = proto.reg_num
        # the register value (<= 65) rides below the cell: the last entry of
        # each run of a sorted (group, cell) is its maximum
        s = np.sort(((group * n_cells + index) << 7) | zeros)
        packed = s >> 7
        last = np.flatnonzero(np.concatenate([packed[1:] != packed[:-1], [True]]))
        packed, value = packed[last], (s[last] & 127).astype(np.int8)
    else:
        flat, inv = pre
        cells = flat if inv is None else flat[inv]
        n_cells = proto.width * proto.height
        packed = (group[:, None] * n_cells + cells).ravel()
        weights = np.repeat(c["count"], proto.height)
        if (int(group.max()) + 1) * n_cells <= 8 * len(packed):
            # the cells reach 1/8 of the groups' sketches: sum into a scratch
            dense = np.bincount(packed, weights=weights).astype(np.int64)
            packed = np.flatnonzero(dense)
            value = dense[packed]
        else:
            order = np.argsort(packed)
            packed = packed[order]
            first = _run_starts(packed)
            value = np.add.reduceat(weights[order], first)
            packed = packed[first]
    return packed // n_cells, packed % n_cells, value


@ray.remote(num_returns=2)
def _merge_and_emit(
    emit_path: str, emit_spec: list[dict], synopsis_type: str, params: tuple,
    slice_us: int, horizon: int, *cells: pa.Table,
) -> tuple[int, pa.Table]:
    """The cell layout's close: fold each window of ``emit_spec`` from the
    cell tables, write the emission file atomically, and keep the rows of
    the slices that end after ``horizon``.  Returns (emitted (window,
    stratum) rows, carry table).  An empty ``emit_spec`` only folds."""
    c = _decode_cells(cells)
    if c is None:
        return 0, _count_table(np.empty(0, np.int64), {}, np.empty(0, np.int64),
                               np.empty(0, np.int32), np.empty(0, np.int64))
    carry = _carry(c, slice_us, horizon)
    if not emit_spec:
        return 0, carry
    # only the rows of the closing windows' slices are hashed and folded
    first = np.searchsorted(c["slices"], [s["slices"][0] for s in emit_spec])
    last = np.searchsorted(c["slices"], [s["slices"][-1] for s in emit_spec], "right")
    rows = (c["rank"] >= first.min()) & (c["rank"] < last.max())
    if not rows.any():
        return 0, carry
    c.update({k: c[k][rows] for k in ("rank", "lab", "part", "key", "count")})
    proto = make_synopsis(synopsis_type, params)
    hll = isinstance(proto, HyperLogLogSketch)
    n_slices, n_labels = len(c["slices"]), len(c["labels"])
    # stratum, then slice: the slices of a window are adjacent groups
    group = c["lab"] * n_slices + c["rank"]
    ranked = n_labels * n_slices > 4 * len(group) + 1024  # a sparse grid
    if ranked:
        gids, group = np.unique(group, return_inverse=True)
    n_groups = len(gids) if ranked else n_labels * n_slices
    rows_at = np.concatenate([[0], np.cumsum(
        np.bincount(group, weights=c["count"], minlength=n_groups).astype(np.int64)
    )])
    if hll:  # (partition, slice) partials per window: the estimate quirk
        n_parts = int(c["part"].max()) + 1
        present = np.bincount(group * n_parts + c["part"], minlength=n_groups * n_parts)
        partials_at = np.concatenate([[0], np.cumsum(
            np.count_nonzero(present.reshape(n_groups, n_parts), axis=1)
        )])
    cell_group, cell, value = _slice_cells(c, proto, group)
    bounds = np.searchsorted(cell_group, np.arange(n_groups + 1))

    kinds, starts, ends, strs, payloads, counts = [], [], [], [], [], []
    for li, label in enumerate(c["labels"]):
        lo, hi = li * n_slices + first, li * n_slices + last
        if ranked:
            lo, hi = np.searchsorted(gids, lo), np.searchsorted(gids, hi)
        for spec, g0, g1 in zip(emit_spec, lo.tolist(), hi.tolist()):
            n = int(rows_at[g1] - rows_at[g0])
            if not n:
                continue  # empty window: reference emits nothing
            idx, val = cell[bounds[g0]:bounds[g1]], value[bounds[g0]:bounds[g1]]
            if hll:
                regs = np.zeros(proto.reg_num, dtype=np.int8)
                np.maximum.at(regs, idx, val)
                syn = HyperLogLogSketch.from_registers(
                    *params, registers=regs,
                    estimate=partials_at[g1] - partials_at[g0] >= 2,
                    partition_value=label or None,
                )
            else:
                if g1 - g0 > 1:  # several slices: sum their counters
                    idx, val = _summed(idx, val, proto.width * proto.height)
                syn = CountMinSketch.from_cells(
                    *params, cells=idx, counters=val, elements_processed=n,
                    partition_value=label or None,
                )
            kinds.append(spec["kind"])
            starts.append(spec["start"])
            ends.append(spec["start"] + spec["size"])
            strs.append(label or None)
            payloads.append(syn.to_bytes())
            counts.append(n)
    _write_emit(emit_path, synopsis_type, kinds, starts, ends, strs, payloads, counts)
    return len(kinds), carry


def _summed(idx: np.ndarray, val: np.ndarray, n_cells: int):
    """Distinct cells of ``idx``, sorted, with their ``val`` summed: into a
    sketch-sized scratch once the cells reach 1/8 of the sketch, else by a
    sort."""
    if len(idx) * 8 >= n_cells:
        dense = np.bincount(idx, weights=val, minlength=n_cells).astype(np.int64)
        nz = np.flatnonzero(dense)
        return nz, dense[nz]
    order = np.argsort(idx)
    idx = idx[order]
    first = _run_starts(idx)
    return idx[first], np.add.reduceat(val[order], first)


def _write_emit(emit_path, synopsis_type, kinds, starts, ends, strs, payloads, counts):
    n = len(kinds)
    if n:
        write_atomic(emit_path, pa.table(
            {
                "window_kind": pa.array(kinds, type=pa.string()),
                "window_start": pa.array(starts, type=pa.int64()),
                "window_end": pa.array(ends, type=pa.int64()),
                "stratum": pa.array(strs, type=pa.string()),
                "synopsis_type": pa.array([synopsis_type] * n, type=pa.string()),
                "payload": pa.array(payloads, type=pa.binary()),
                "n_rows": pa.array(counts, type=pa.int64()),
            }
        ))


@ray.remote(num_returns=2)
def _ingest_partition(
    config: BuildConfiguration, slice_us: int, wanted: list[int], horizon: int,
    *tables: pa.Table,
) -> tuple[pa.Table, pa.Table]:
    """The object layout's state of one partition, one task per close: take
    the partials a partial table carries (a carry is the table with a
    ``payload`` column; the others are row shards), then ingest the row
    shards one fragment at a time, in order, into one synopsis per
    (stratum, slice).  Returns the partials of the slices in ``wanted`` (the
    close's snapshot), ordered by (slice, stratum), and the carry of every
    slice that ends after ``horizon``, as partial tables."""
    proto = make_synopsis(config.synopsis, config.params)
    slices: dict[tuple[str, int], list] = {}  # (stratum, slice) -> [partial, rows]

    def partial(sid: int, stratum: str, n: int) -> Synopsis:
        entry = slices.get((stratum, sid))
        if entry is None:
            syn = make_synopsis(config.synopsis, config.params)
            if stratum:
                syn.set_partition_value(stratum)
            entry = slices[(stratum, sid)] = [syn, 0]
        entry[1] += n
        return entry[0]

    for t in tables:
        if "payload" in t.column_names:
            for sid, stratum, payload, n in zip(
                t["slice_id"].to_pylist(), t["stratum"].to_pylist(),
                t["payload"].to_pylist(), t["n_rows"].to_pylist(),
            ):
                slices[(stratum, sid)] = [Synopsis.from_bytes(payload), n]
        elif t.num_rows:
            values = (_element_keys(t) if config.sample_elements
                      else t["__key32"].to_numpy())
            update_slices(proto, t, values, slice_us, config.stratify_by, partial)
    keys, wanted = sorted(slices, key=lambda k: (k[1], k[0])), set(wanted)
    snapshot = [k for k in keys if k[1] in wanted]
    carry = [k for k in keys if (k[1] + 1) * slice_us > horizon]
    payload = {k: slices[k][0].to_bytes() for k in {*snapshot, *carry}}
    return tuple(
        partials_table([(k[1], k[0], payload[k], slices[k][1]) for k in ks])
        for ks in (snapshot, carry)
    )


@ray.remote
def _merge_partials_and_emit(
    emit_path: str, emit_spec: list[dict], synopsis_type: str, *tables: pa.Table
) -> int:
    """The object layout's close, off the driver: merge per-partition slice
    partials, merge slices into windows per emit_spec, write the emission
    file atomically.  Returns the number of emitted (window, stratum) rows."""
    merged: dict[tuple[str, int], tuple[Synopsis, int]] = {}
    for t in tables:
        for stratum, sid, payload, cnt in zip(
            t["stratum"].to_pylist(),
            t["slice_id"].to_pylist(),
            t["payload"].to_pylist(),
            t["n_rows"].to_pylist(),
        ):
            syn = Synopsis.from_bytes(payload)
            key = (stratum, sid)
            if key in merged:
                cur, c = merged[key]
                merged[key] = (cur.merge(syn), c + cnt)
            else:
                merged[key] = (syn, cnt)

    strata = sorted({k[0] for k in merged}) or [""]
    invertible = next(iter(merged.values()))[0].invertible if merged else False
    kinds, starts, ends, strs, payloads, counts = [], [], [], [], [], []

    def fresh(stratum: str, slices) -> tuple[Synopsis | None, int, bool]:
        """Fold the window's slice partials with at most ONE accumulator copy
        (merge() leaves `other` intact; draining kernels copy that side).
        Returns (synopsis, n_rows, owned) — owned=False means the synopsis is
        a live slice partial and must not be mutated."""
        parts = [
            e for e in (merged.get((stratum, sid)) for sid in slices) if e is not None
        ]
        if not parts:
            return None, 0, True
        if len(parts) == 1:
            return parts[0][0], parts[0][1], False
        acc = parts[0][0].copy()
        n = parts[0][1]
        for syn, cnt in parts[1:]:
            piece = (
                syn if syn.merge_preserves_other else Synopsis.from_bytes(syn.to_bytes())
            )
            acc = acc.merge(piece)
            n += cnt
        return acc, n, True

    # emit_spec arrives grouped by window definition with ascending starts, so
    # overlapping sliding windows are adjacent: for INVERTIBLE synopses the
    # accumulator rolls — merge entering slices, invert leaving ones — O(1)
    # slice ops per slide instead of O(size/slide) merges
    # (InvertibleSynopsisFunction.java:63-71 semantics).
    for stratum in strata:
        rolling: Synopsis | None = None
        rolling_n = 0
        prev: set | None = None
        for spec in emit_spec:
            slices = list(spec["slices"])
            present = [s for s in slices if (stratum, s) in merged]
            cur = set(slices)
            if (
                invertible
                and rolling is not None
                and prev is not None
                and prev & cur
            ):
                for sid in sorted(prev - cur):
                    e = merged.get((stratum, sid))
                    if e is not None:
                        rolling = rolling.invert(e[0])
                        rolling_n -= e[1]
                for sid in sorted(cur - prev):
                    e = merged.get((stratum, sid))
                    if e is not None:
                        rolling = rolling.merge(e[0])
                        rolling_n += e[1]
            else:
                syn, n, owned = fresh(stratum, slices)
                if syn is not None and invertible and not owned:
                    syn = syn.copy()  # rolling accumulator must be private
                rolling = syn
                rolling_n = n
            prev = cur
            if not present or rolling is None:
                continue  # empty window: reference emits nothing
            kinds.append(spec["kind"])
            starts.append(spec["start"])
            ends.append(spec["start"] + spec["size"])
            strs.append(stratum or None)
            payloads.append(rolling.to_bytes())
            counts.append(rolling_n)
    _write_emit(emit_path, synopsis_type, kinds, starts, ends, strs, payloads, counts)
    return len(kinds)


def _evict_horizon(wm_us: int, windows, slice_us: int) -> int:
    """Largest slice-end H such that every slice with end <= H has ALL its
    covering windows closed (end <= wm) under every window definition."""
    if wm_us == _NEG_INF:
        return _NEG_INF
    h = wm_us
    for w in windows:
        if isinstance(w, TumblingWindow):
            # slice s evictable iff its tumbling window end <= wm
            h = min(h, (wm_us // w.size_us) * w.size_us)
        else:
            # last window covering slice ending at e has end e' =
            # floor((e - slice)/slide)*slide + size <= wm
            # -> e <= floor((wm - size)/slide)*slide + slide + slice... solve
            # conservatively: iterate back from wm
            max_e = wm_us - w.size_us + w.slide_us
            h = min(h, (max_e // w.slide_us) * w.slide_us)
    return h


class StreamingSynopsisJob(FragmentStreamJob):
    """Sliced mergeable synopses, with no actors: cell tables for
    ``combinable`` synopses, else per-partition partial tables (see the
    module docstring).  Each close cycle merges the frozen slices of every
    window the watermark has passed."""

    late_at_ingest = False
    cursor_fields = FragmentStreamJob.cursor_fields + ("closed_through",)
    emit_schema = pa.schema([
        ("window_kind", pa.string()), ("window_start", pa.int64()),
        ("window_end", pa.int64()), ("stratum", pa.string()),
        ("synopsis_type", pa.string()), ("payload", pa.binary()),
        ("n_rows", pa.int64()),
    ])

    def __init__(
        self,
        config: BuildConfiguration,
        out_dir: str,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 4,
        columns: list[str] | None = None,
    ):
        if not config.windows:
            raise ValueError("config.windows must not be empty")
        self.config = config
        self.windows = list(config.windows)
        self.slice_us = _common_slice_us(self.windows)
        self.parallelism = config.parallelism
        # the split partitions on conv_id and watermarks on ts, and the
        # state keys/stratifies on the configured columns: union them into
        # any caller-provided projection, so a non-default key cannot
        # KeyError inside the first split task
        need = {"conv_id", "ts"}
        if config.sample_elements:
            need.add("turn_idx")  # _element_keys joins (conv_id, turn_idx)
        else:
            need.add(config.key.field)
        if config.stratify_by:
            need.add(config.stratify_by)
        self.columns = sorted(need if columns is None else set(columns) | need)
        # what the partition tasks read once the split has computed __key32;
        # sampled elements are keyed there, so those shards keep every column
        self.shard_columns = None if config.sample_elements else sorted(
            {"ts", "__key32", config.stratify_by} - {None}
        )
        # a synopsis whose partial depends only on per-key counts keeps its
        # state as cell tables (set False before the first run for partials)
        self.combine = (not config.sample_elements
                        and get_synopsis_class(config.synopsis).combinable)
        # only HyperLogLog's estimate rule reads a cell's partition
        self.by_part = issubclass(get_synopsis_class(config.synopsis), HyperLogLogSketch)
        self.closed_through: list[int] = [_NEG_INF] * len(self.windows)
        # the live state: (fragment, table refs) pairs, one cell table or P
        # row shards a fragment, where a close's carry (one cell table or P
        # partial tables) stands at the fragment it closed; and the run
        # summary's per-partition figures, replayed from ``_events``
        self.state: list[tuple[int, list]] = []
        self._events: list[tuple[str, int]] = []
        self._groups: dict[int, list] = {}
        self._rows = [0] * self.parallelism
        self._live: list[set] = [set() for _ in range(self.parallelism)]
        self._max_live = [0] * self.parallelism
        super().__init__(out_dir, [], checkpoint_dir, checkpoint_every)

    def run(
        self,
        fragment_paths: list[str],
        resume: bool = False,
        final_flush: bool = True,
        pipelined: bool | None = None,
    ) -> dict:
        """``pipelined`` (default: True unless checkpointing) runs splits
        max(4, 2 x CPUs) fragments ahead, with carry-in watermarks from the
        footer statistics.  Its output equals the sequential run's: the late
        filter depends only on each fragment's carry-in watermark, a close
        reads only the state of fragments up to its own, and slice ingest
        commutes across fragments."""
        # a run that raised may have left state of fragments it did not take in
        self.state = [(i, r) for i, r in self.state if i < self.next_fragment]
        self._events = [e for e in self._events
                        if e[0] == "evict" or e[1] < self.next_fragment]
        pipelined = self.checkpoint_dir is None and pipelined is not False
        lookahead = 1 + max(4, 2 * cluster_cpus()) if pipelined else 1
        return self._run(fragment_paths, resume, final_flush, lookahead)

    def _split(self, k: int, path: str, wm: int) -> list:
        return _partition_task.options(
            num_returns=2 if self.combine else 1 + self.parallelism
        ).remote(
            path,
            self.parallelism,
            self.slice_us,
            wm,
            self.config.hot_key_threshold,
            self.columns,
            None if self.config.sample_elements else self.config.key,
            self.shard_columns,
            self.combine,
            self.by_part,
            self.config.stratify_by,
        )

    def _ingest(self, k: int, shards: list, wm: int) -> list:
        self.state.append((k, shards))
        self._events.append(("add", k))
        return []

    def _resolved(self, k: int, meta: dict) -> None:
        self._groups[k] = (meta["groups"], meta["part_rows"])

    def _emit_spec(self, wm: int) -> list[dict]:
        """Every window whose end <= ``wm`` and not yet emitted, grouped by
        window definition with ascending starts."""
        emit_spec: list[dict] = []
        for wi, w in enumerate(self.windows):
            stride = w.size_us if isinstance(w, TumblingWindow) else w.slide_us
            if self.closed_through[wi] != _NEG_INF:
                wid = self.closed_through[wi]
            elif self.min_ts < POS_INF:
                # first close: start at the earliest window containing data
                wid = max(0, (self.min_ts - w.size_us) // stride + 1)
            else:
                continue
            while wid * stride + w.size_us <= wm:
                emit_spec.append({
                    "kind": _window_kind(w), "start": wid * stride, "size": w.size_us,
                    "slices": list(slices_of_window(wid, _as_sliding(w), self.slice_us)),
                })
                wid += 1
            self.closed_through[wi] = wid
        return emit_spec

    def _close(self, wm: int, idx: int, fold: bool = False):
        """Emit the windows ``_emit_spec(wm)`` lists from the live tables of
        fragments <= ``idx``, and replace those tables by the close's carry:
        one close task over the cell tables, or one ``_ingest_partition``
        task per partition whose snapshots a merge task folds (the driver
        never touches synopsis payloads).  Without windows to emit, this
        only folds, once ``_FOLD_EVERY`` fragments wait (or if ``fold``)."""
        emit_spec = self._emit_spec(wm)
        horizon = _evict_horizon(wm, self.windows, self.slice_us)
        live = [r for i, r in self.state if i <= idx]
        if not (emit_spec or fold or len(live) > _FOLD_EVERY):
            return None
        path, synopsis = self.emit_path(idx), self.config.synopsis
        if self.combine:
            n, carry = _merge_and_emit.remote(
                path, emit_spec, synopsis, self.config.params, self.slice_us, horizon,
                *(r[0] for r in live),
            )
            carry = [carry]
        else:
            wanted = sorted({s for spec in emit_spec for s in spec["slices"]})
            snapshots, carry = zip(*(
                _ingest_partition.remote(self.config, self.slice_us, wanted, horizon,
                                         *(r[p] for r in live))
                for p in range(self.parallelism)
            ))
            n = None if not emit_spec else _merge_partials_and_emit.remote(
                path, emit_spec, synopsis, *snapshots)
        self.state = [(idx, list(carry))] + [(i, r) for i, r in self.state if i > idx]
        self._events.append(("evict", horizon))
        self._account()
        return n if emit_spec else None

    def _flush_wm(self) -> int:
        # just past the last window containing data (a literal +inf would
        # make the close loop enumerate windows forever)
        return self.watermark + max(w.size_us for w in self.windows) + self.slice_us

    def _account(self) -> None:
        """Replay the ingests and evictions since the last call, in the order
        the driver submitted them, into the per-partition figures: rows
        ingested, live (slice, stratum) pairs and their high-water mark.
        The replay stops at the first ingest whose meta has not resolved,
        so only in-flight fragments wait in ``_events``."""
        done = 0
        for kind, arg in self._events:
            if kind == "add":
                if arg not in self._groups:
                    break
                groups, rows = self._groups.pop(arg)
                for p, touched in enumerate(groups):
                    self._rows[p] += rows[p]
                    if touched:
                        self._live[p].update(map(tuple, touched))
                        self._max_live[p] = max(self._max_live[p], len(self._live[p]))
            else:
                for live in self._live:
                    live -= {g for g in live if (g[0] + 1) * self.slice_us <= arg}
            done += 1
        del self._events[:done]

    def _summary(self, stats: list) -> dict:
        self._account()
        # ``ingest_sec``/``collect_sec`` stay in the record's format for its
        # readers (perfbench sums them); nothing times them, so they read 0
        return {"partitions": [
            {"partition_id": p, "rows_ingested": self._rows[p],
             "open_slices": len(self._live[p]), "max_open_slices": self._max_live[p],
             "ingest_sec": 0.0, "collect_sec": 0.0}
            for p in range(self.parallelism)
        ]}

    # -- checkpoint/resume: the live tables and the summary figures -----------
    def _save_state(self, tmp: str) -> None:
        if len(self.state) > 1 and self.watermark > _NEG_INF:
            # fold the fragments that closed no window: a checkpoint holds
            # one carry, not their row shards or cell tables
            self._close(self.watermark, self.next_fragment - 1, fold=True)
        self._account()
        tables = ray.get([r for _, refs in self.state for r in refs])
        names = [f"state-{i:04d}-{p:04d}.arrow"
                 for i, (_, refs) in enumerate(self.state) for p in range(len(refs))]
        for name, table in zip(names, tables):
            with pa.OSFile(os.path.join(tmp, name), "wb") as f:
                with pa.ipc.new_file(f, table.schema) as w:
                    w.write_table(table)
        with open(os.path.join(tmp, "partitions.json"), "w") as f:
            json.dump({"rows": self._rows, "live": [sorted(s) for s in self._live],
                       "max_live": self._max_live}, f)

    def _load_state(self, path: str) -> None:
        # state-{entry}-{table}.arrow; a cell-layout checkpoint written
        # before the object layout took tables holds cells-{entry}.arrow
        entries: dict[str, list] = {}
        for name in sorted(n for n in os.listdir(path)
                           if n.startswith(("state-", "cells-"))):
            with pa.OSFile(os.path.join(path, name)) as f:
                table = pa.ipc.open_file(f).read_all()
            entries.setdefault(name.split("-")[1], []).append(ray.put(table))
        self.state = [(-1, refs) for _, refs in sorted(entries.items())]
        with open(os.path.join(path, "partitions.json")) as f:
            parts = json.load(f)
        self._rows = parts["rows"]
        self._live = [set(map(tuple, s)) for s in parts["live"]]
        self._max_live = parts.get("max_live", [0] * self.parallelism)
        self._events, self._groups = [], {}

    def shutdown(self) -> None:
        self.state = []  # release the live tables
        super().shutdown()


def _as_sliding(w) -> SlidingWindow:
    if isinstance(w, SlidingWindow):
        return w
    return SlidingWindow(w.size_ms, w.size_ms)
