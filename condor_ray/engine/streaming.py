"""Streaming synopsis job: hash-partitioned state-store actors build sliced
mergeable synopses over the fragment stream that ``driver.py`` walks.

The Ray-native counterpart of Condor's Scotty path
(conn/.../processor/SynopsisBuilder.java:298-342 + KeyedScottyWindowOperator):

- **Partitioning**: an explicit shuffle.  A split task per fragment cuts it
  into P shards by ``murmur(hash32(conv_id)) % P`` (one Ray object per
  shard, so each shard moves only to its actor).  Hot conversations (rows in
  fragment > ``hot_key_threshold``) are salted round-robin across
  partitions, which is safe because mergeable-synopsis state is keyed by
  (stratum, slice), not by conv (SURVEY §4 skew row).
- **Combiner**: a synopsis whose partial depends only on per-key counts
  (``Synopsis.combinable``) is pre-aggregated before the shuffle.  That is
  Count-Min, whose counters are linear in the key counts, and HyperLogLog,
  whose registers are idempotent per key (it ignores the counts).  After
  the late filter, salting and key extraction, one sort groups the rows by
  (partition, slice, stratum, key), and the shards carry one
  ``(__slice, [stratum], __key32, __count)`` row per group, which the store
  applies as weights.  The encoding is compact: ``__slice`` is a dictionary
  over the shard's slice ids with int16 indices (int32 from 2^15 slices)
  and ``__count`` the narrowest unsigned int that holds the shard's largest
  count, so a group costs 7 bytes.  Shards under 100 KiB travel inside the
  task reply instead of the object store.  A fragment whose groups are more
  than half its rows (mostly distinct keys, sub-second slices) ships rows.
- **Late rule**: applied in the split.  A row is late iff its slice end <=
  the carry-in watermark (the max-seen assigner of
  bench/.../sources/utils/SyntheticTimestampsAndWatermarks.java:17-28, at
  fragment granularity); late rows are dropped and counted, so late-by-20s
  rows never reach closed windows.
- **Window close**: window w closes when watermark >= end(w).  Its slices
  are frozen by then (any update to them would be late), so the close cycle
  snapshots slice partials from all P stores and one task merges them per
  slice, then per window, and writes ``emit-f{k:05d}.parquet``.  Slices are
  evicted once no remaining window needs them.

This module also holds the conv-hash routing every streaming splitter shares
(``conv_partition_ids``, ``split_by_conv``).
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..config import BuildConfiguration
from ..hashing import java_string_hash_arrow
from ..runtime import cluster_cpus
from ..stages.extract import stable_partition_order, ts_to_us
from ..state.store import PartitionStateStore
from ..synopses.base import Synopsis
from ..synopses.registry import get_synopsis_class
from ..windows import SlidingWindow, TumblingWindow, slices_of_window
from .batch import _common_slice_us, _window_kind
from .driver import NEG_INF as _NEG_INF, POS_INF, FragmentStreamJob
from .emit import write_atomic


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
    Returns ``(part, codes, dic)``: per-row partition ids, per-row
    dictionary codes (null rows = len(dic.dictionary)), and the encoded
    column for callers that inspect key frequencies."""
    if isinstance(conv_col, pa.ChunkedArray):
        conv_col = conv_col.combine_chunks()
    dic = conv_col.dictionary_encode()
    hashes = java_string_hash_arrow(dic.dictionary)
    lut = _murmur_mix_array(hashes) % parallelism
    idx_arr = dic.indices
    if idx_arr.null_count:
        lut = np.append(
            lut, _murmur_mix_array(np.zeros(1, dtype=np.int64)) % parallelism
        )
        idx_arr = idx_arr.fill_null(len(dic.dictionary))
    codes = idx_arr.to_numpy(zero_copy_only=False).astype(np.int64)
    return lut[codes], codes, dic


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
    part, _, _ = conv_partition_ids(table["conv_id"], parallelism)
    return (_ts_meta(ts_to_us(table["ts"])), *_cut_shards(table, part, parallelism))


_split_by_conv_task = ray.remote(split_by_conv)


def submit_split_by_conv(path: str, parallelism: int, columns: list[str] | None):
    return _split_by_conv_task.options(num_returns=1 + parallelism).remote(
        path, parallelism, columns
    )


def _count_shards(
    table: pa.Table, part: np.ndarray, sid: np.ndarray, keys: np.ndarray,
    stratum: str | None, parallelism: int,
) -> list | None:
    """The combiner: one row ``(__slice, [stratum], __key32, __count)`` per
    (partition, slice, stratum, key) group of the rows, ordered by slice
    within each shard (``_count_table``).  Keys ship as the int32 the
    synopsis hashes.  None when the groups are more than half the rows (the
    row shards are then smaller and cheaper to apply) or span too many
    slices to pack."""
    n = len(keys)
    s0 = int(sid.min()) if n else 0
    span = int(sid.max()) - s0 + 1 if n else 1
    n_codes = 1
    if stratum is not None:
        col = table[stratum].combine_chunks()
        if not pa.types.is_dictionary(col.type):
            col = col.dictionary_encode()
        n_codes = len(col.dictionary) + 1  # the last code is null
    if parallelism * span * n_codes >= 2**31:
        return None  # a fragment spanning ~2^31 slices: rows are no bigger
    group = part * span + (sid - s0)  # partition, then slice, then stratum
    if stratum is not None:
        codes = col.indices.fill_null(n_codes - 1).to_numpy().astype(np.int64)
        group = group * n_codes + codes
    # the group above the key's 32 bits: one int64 sort finds every group
    keys = np.ascontiguousarray(keys, dtype=np.int32)
    packed = np.sort((group << 32) | keys.view(np.uint32))
    first = np.flatnonzero(np.concatenate([[True], packed[1:] != packed[:-1]]))
    if 2 * len(first) > n:
        return None
    packed = packed[first]
    counts = np.diff(np.append(first, n))
    group = packed >> 32
    if stratum is not None:
        code = (group % n_codes).astype(np.int32)
        group //= n_codes
    keys = packed.astype(np.uint32).view(np.int32)
    sizes = np.bincount(group // span, minlength=parallelism)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    shards = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        strata = {}
        if stratum is not None:
            c = code[lo:hi]
            strata[stratum] = pa.DictionaryArray.from_arrays(
                pa.array(c, mask=c == n_codes - 1), col.dictionary
            )
        shards.append(_count_table(
            group[lo:hi] % span + s0, strata, keys[lo:hi], counts[lo:hi]
        ))
    return shards


def _count_table(sid: np.ndarray, strata: dict, keys, counts) -> pa.Table:
    """One compact count shard.  ``__slice`` is a dictionary over the
    shard's slice ids, built from the runs of ``sid`` (the rows arrive
    ordered by slice), with int16 indices (int32 from 2^15 slices);
    ``__count`` is the narrowest unsigned int that holds the largest count.
    A group costs 7 bytes (index, key, count) instead of 16."""
    run = np.ones(len(sid), dtype=bool)
    run[1:] = sid[1:] != sid[:-1]
    index = np.cumsum(run) - 1
    wide = len(index) > 0 and index[-1] >= 2**15 - 1  # 2^15 slices or more
    top = int(counts.max()) if len(counts) else 0
    return pa.table({
        "__slice": pa.DictionaryArray.from_arrays(
            pa.array(index.astype(np.int32 if wide else np.int16)),
            pa.array(sid[run]),
        ),
        **strata,
        "__key32": keys,
        "__count": counts.astype(
            np.uint8 if top < 2**8 else np.uint16 if top < 2**16 else np.uint32
        ),
    })


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
):
    """Split one fragment into P shards by conv hash; drop+count late rows.

    ``shard_columns`` projects the shards onto the columns their store reads
    (None: every column read).  The routing column is used here and need
    not ship.  With ``combine`` (and a ``key_spec``) the shards carry
    per-(slice, stratum, key) counts instead of rows (``_count_shards``);
    the stratum is the shard column other than ts and __key32, if any.

    Returns (meta_dict, shard_0, ..., shard_{P-1}) — shards are separate
    return values so Ray ships each one only to its partition's actor."""
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

    part, codes, dic = conv_partition_ids(table["conv_id"], parallelism)

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

    if key_spec is not None:
        # compute the synopsis key here (once) so the state actors don't
        # re-hash; lands in the shards as __key32
        from ..stages.extract import KeyExtractor

        key_col = KeyExtractor(key_spec)(table)
        if combine:
            stratum = next(
                (c for c in shard_columns or () if c not in ("ts", "__key32")), None
            )
            shards = _count_shards(
                table, part, ts // slice_us, key_col, stratum, parallelism
            )
            if shards is not None:
                return (meta, *shards)
        table = table.append_column(
            "__key32", pa.array(np.ascontiguousarray(key_col))
        )
    if shard_columns is not None:
        table = table.select(shard_columns)
    return (meta, *_cut_shards(table, part, parallelism))


_partition_task = ray.remote(_partition_fragment)


@ray.remote
def _merge_and_emit(
    emit_path: str, emit_spec: list[dict], synopsis_type: str, *tables: pa.Table
) -> int:
    """Conquer step off the driver: merge per-partition slice partials, merge
    slices into windows per emit_spec, write the emission file atomically.
    Returns the number of emitted (window, stratum) rows."""
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
    n = len(kinds)
    if n:
        out = pa.table(
            {
                "window_kind": pa.array(kinds, type=pa.string()),
                "window_start": pa.array(starts, type=pa.int64()),
                "window_end": pa.array(ends, type=pa.int64()),
                "stratum": pa.array(strs, type=pa.string()),
                "synopsis_type": pa.array([synopsis_type] * n, type=pa.string()),
                "payload": pa.array(payloads, type=pa.binary()),
                "n_rows": pa.array(counts, type=pa.int64()),
            }
        )
        write_atomic(emit_path, out)
    return n


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
    """Sliced mergeable synopses: P ``PartitionStateStore`` actors hold
    (stratum, slice) partials, and each close cycle merges the frozen slices
    of every window the watermark has passed."""

    late_at_ingest = False
    stats_call = "stats"
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
        # stores key/stratify on the configured columns: union them into any
        # caller-provided projection, so a non-default key cannot KeyError
        # inside the first split task
        need = {"conv_id", "ts"}
        if config.sample_elements:
            need.add("turn_idx")  # _element_keys joins (conv_id, turn_idx)
        else:
            need.add(config.key.field)
        if config.stratify_by:
            need.add(config.stratify_by)
        self.columns = sorted(need if columns is None else set(columns) | need)
        # what the stores read once the split has computed __key32; sampled
        # elements are keyed in the store, so those shards keep every column
        self.shard_columns = None if config.sample_elements else sorted(
            {"ts", "__key32", config.stratify_by} - {None}
        )
        # a synopsis whose partial depends only on per-key counts ships
        # count shards, combined in the split
        self.combine = (not config.sample_elements
                        and get_synopsis_class(config.synopsis).combinable)
        self.closed_through: list[int] = [_NEG_INF] * len(self.windows)
        super().__init__(
            out_dir,
            [PartitionStateStore.remote(p, config, self.slice_us)
             for p in range(self.parallelism)],
            checkpoint_dir, checkpoint_every,
        )

    def run(
        self,
        fragment_paths: list[str],
        resume: bool = False,
        final_flush: bool = True,
        pipelined: bool | None = None,
    ) -> dict:
        """``pipelined`` (default: True unless checkpointing) runs splits and
        ingests max(4, 2 x CPUs) fragments ahead, with carry-in watermarks from
        the footer statistics.  Its output equals the sequential run's: the
        late filter depends only on each fragment's carry-in watermark, and
        slice ingest commutes across fragments."""
        pipelined = self.checkpoint_dir is None and pipelined is not False
        lookahead = 1 + max(4, 2 * cluster_cpus()) if pipelined else 1
        return self._run(fragment_paths, resume, final_flush, lookahead)

    def _split(self, k: int, path: str, wm: int) -> list:
        return _partition_task.options(num_returns=1 + self.parallelism).remote(
            path,
            self.parallelism,
            self.slice_us,
            wm,
            self.config.hot_key_threshold,
            self.columns,
            None if self.config.sample_elements else self.config.key,
            self.shard_columns,
            self.combine,
        )

    def _close(self, wm: int, idx: int):
        """Emit every window whose end <= ``wm`` and not yet emitted: an async
        merge+emit task fed directly by the stores' slice snapshots (the
        driver never touches synopsis payloads)."""
        emit_spec: list[dict] = []  # grouped by window definition, ascending
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
        if not emit_spec:
            return None
        needed = sorted({s for spec in emit_spec for s in spec["slices"]})
        horizon = _evict_horizon(wm, self.windows, self.slice_us)
        table_refs = [
            s.collect_closed_slices_snapshot.remote(needed, horizon)
            for s in self.stores
        ]
        return _merge_and_emit.remote(
            self.emit_path(idx), emit_spec, self.config.synopsis, *table_refs
        )

    def _flush_wm(self) -> int:
        # just past the last window containing data (a literal +inf would
        # make the close loop enumerate windows forever)
        return self.watermark + max(w.size_us for w in self.windows) + self.slice_us

    def _summary(self, stats: list) -> dict:
        return {"partitions": stats}


def _as_sliding(w) -> SlidingWindow:
    if isinstance(w, SlidingWindow):
        return w
    return SlidingWindow(w.size_ms, w.size_ms)
