"""Streaming synopsis job: micro-batch replay of ts-ordered Parquet fragments
through hash-partitioned state-store actors with event-time watermarks,
exactly-once emission, and checkpoint/resume.

This is the north-rule heart (BASELINE.json): the Ray-native counterpart of
Condor's Scotty path (conn/.../processor/SynopsisBuilder.java:298-342 +
KeyedScottyWindowOperator) with the reliability features the reference
delegates to Flink (and never enables — no ``enableCheckpointing`` anywhere in
the repo) designed in explicitly:

- **Stream**: the fragment file sequence IS the stream; fragment order =
  arrival order (sources write them ts-ordered with 10% late arrivals).
- **Partitioning**: an explicit shuffle — a split task per fragment cuts it
  into P shards by ``murmur(hash32(conv_id)) % P`` (separate Ray object per
  shard, so each shard moves only to its actor).  Hot conversations (rows in
  fragment > ``hot_key_threshold``) are salted round-robin across partitions —
  safe because mergeable-synopsis state is keyed by (stratum, slice), not by
  conv (SURVEY §4 skew row).
- **Watermark**: global, advanced at fragment boundaries to
  ``max ts seen`` (the reference's max-seen assigner,
  bench/.../sources/utils/SyntheticTimestampsAndWatermarks.java:17-28, at
  Flink's periodic-watermark granularity).  A row is LATE iff its slice end
  <= the watermark of the previous fragment; late rows are dropped and
  counted (UnorderedSource semantics — late-by-20s rows never reach closed
  windows).
- **Window close**: window w closes when watermark >= end(w); its slices are
  frozen by then (any update to them would be late), so the close cycle
  snapshots slice partials from all P stores, merges per slice then per
  window, and emits.  Slices are evicted once no remaining window needs them.
- **Exactly-once**: each fragment k's close cycle writes
  ``emit-f{k:05d}.parquet`` atomically (tmp + rename).  Replaying fragment k
  after a crash rewrites byte-identical files, so task retries and
  checkpoint resume cannot duplicate or lose windows.  A manifest JSON lines
  file records per-fragment lineage {fragment, path, rows, late_dropped,
  watermark}; pipelined runs append a summary line with total
  windows_emitted (emits are async there).
- **Checkpoint/resume**: every ``checkpoint_every`` fragments the driver
  collects actor snapshots + its own cursor and writes an atomic checkpoint
  dir; ``resume=True`` restores the newest checkpoint (by fragment cursor),
  cuts the manifest back to that cursor and replays only the remaining
  fragments, so each fragment is recorded once.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..config import BuildConfiguration
from ..hashing import java_string_hash_arrow
from ..stages.extract import stable_partition_order, ts_to_us
from ..state.store import PartitionStateStore
from ..synopses.base import Synopsis
from ..windows import SlidingWindow, TumblingWindow, slices_of_window
from .batch import _common_slice_us, _window_kind
from .checkpoint import latest_checkpoint, prune_checkpoints, truncate_manifest

_NEG_INF = -(2**62)


from ..runtime import cluster_cpus as _cluster_cpus


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


def _partition_fragment(
    path: str,
    parallelism: int,
    slice_us: int,
    watermark_us: int,
    hot_key_threshold: int | None,
    columns: list[str] | None,
    key_spec=None,
    shard_columns: list[str] | None = None,
):
    """Split one fragment into P shards by conv hash; drop+count late rows.

    ``shard_columns`` projects the shards onto the columns their store reads
    (None: every column read).  The routing column is used here and need
    not ship.

    Returns (meta_dict, shard_0, ..., shard_{P-1}) — shards are separate
    return values so Ray ships each one only to its partition's actor."""
    dict_cols = [
        c for c in (columns or ["conv_id", "role", "tool", "text"])
        if c in ("conv_id", "role", "tool", "text")
    ]
    # dictionary-preserving read: string columns stay index+dictionary,
    # slashing decode and copy bandwidth (the single-box bottleneck)
    table = pq.read_table(path, columns=columns, read_dictionary=dict_cols)
    n = table.num_rows
    ts = ts_to_us(table["ts"])
    frag_max = int(ts.max()) if n else _NEG_INF
    frag_min = int(ts.min()) if n else 2**62

    # late rule: slice already frozen by the carry-in watermark
    late = (ts // slice_us + 1) * slice_us <= watermark_us
    n_late = int(late.sum())
    if n_late:
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
        table = table.append_column(
            "__key32", pa.array(np.ascontiguousarray(key_col))
        )
    if shard_columns is not None:
        table = table.select(shard_columns)
    # one stable sort + zero-copy slices instead of P masked filters
    # (P filters cost O(P*n) per fragment — anti-scaling as P grows)
    order = stable_partition_order(part, parallelism)
    sorted_tbl = table.take(pa.array(order))
    counts_per_part = np.bincount(part, minlength=parallelism)
    offsets = np.concatenate([[0], np.cumsum(counts_per_part)])
    shards = [
        sorted_tbl.slice(offsets[p], counts_per_part[p]) for p in range(parallelism)
    ]
    meta = {"n_rows": n, "n_late": n_late, "frag_max_ts": frag_max, "frag_min_ts": frag_min}
    return (meta, *shards)


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
        tmp = emit_path + f".tmp-{os.getpid()}"
        pq.write_table(out, tmp)
        os.replace(tmp, emit_path)  # atomic: exactly-once emission
    return n


@ray.remote
def _fragment_ts_stats(path: str) -> tuple[int, int]:
    """(min_ts, max_ts) of one fragment in epoch us.

    Served from the parquet footer's row-group statistics when every row
    group carries them (exact for int64-physical timestamp columns; O(footer)
    instead of decoding the whole ts column — the column-read phase A
    measured ~0.9 s of a ~5 s 60 M-row CM ingest wall).  Falls back to the
    column read when any row group lacks min/max."""
    pf = pq.ParquetFile(path)
    md = pf.metadata
    if md.num_rows == 0:
        return (2**62, _NEG_INF)

    def _column_read() -> tuple[int, int]:
        ts = ts_to_us(pf.read(columns=["ts"])["ts"])
        if len(ts) == 0:
            return (2**62, _NEG_INF)
        return (int(ts.min()), int(ts.max()))

    # parquet LEAF column index (differs from the arrow field index when
    # nested columns precede ts), like ordered._fragment_min_ts
    idx = None
    for i in range(md.num_columns):
        if md.schema.column(i).path == "ts":
            idx = i
            break
    if idx is None:
        return _column_read()
    mins: list = []
    maxs: list = []
    for rg in range(md.num_row_groups):
        g = md.row_group(rg)
        if g.num_rows == 0:
            continue
        st = g.column(idx).statistics
        if st is None or not st.has_min_max:
            return _column_read()
        mins.append(st.min)
        maxs.append(st.max)
    if not mins:
        return (2**62, _NEG_INF)
    n = len(mins)
    ts_type = md.schema.to_arrow_schema().field("ts").type
    us = ts_to_us(pa.array(mins + maxs, type=ts_type))
    return (int(us[:n].min()), int(us[n:].max()))


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


class StreamingSynopsisJob:
    def __init__(
        self,
        config: BuildConfiguration,
        out_dir: str,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 4,
        columns: list[str] | None = None,
        close_every: int = 1,
    ):
        """``close_every``: run the window-close cycle every N fragments
        (amortizes collect/merge calls for fine-window jobs; window CONTENTS
        are unchanged — slices are frozen by the watermark either way, close
        timing only affects emission latency and file granularity)."""
        if not config.windows:
            raise ValueError("config.windows must not be empty")
        self.config = config
        self.windows = list(config.windows)
        self.slice_us = _common_slice_us(self.windows)
        self.parallelism = config.parallelism
        self.out_dir = out_dir
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        # the fragment splitter partitions on conv_id and watermarks on ts,
        # and the stores key/stratify on the configured columns — union them
        # into any caller-provided projection so a non-default --key can't
        # KeyError inside the first split task (the general form
        # StreamingSessionJob already uses; callers needn't know engine
        # internals to pick a projection)
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
        self.close_every = max(1, close_every)
        os.makedirs(out_dir, exist_ok=True)
        if checkpoint_dir:
            os.makedirs(checkpoint_dir, exist_ok=True)
        self.stores = [
            PartitionStateStore.remote(p, config, self.slice_us)
            for p in range(self.parallelism)
        ]
        # driver cursor
        self.watermark = _NEG_INF
        self.min_ts = 2**62
        self.next_fragment = 0
        self.closed_through: list[int] = [_NEG_INF] * len(self.windows)
        self.total_late = 0
        self.total_rows = 0
        # a final flush emits the still-open windows partial, so it ends the
        # stream: a later run() would re-emit them (and reuse emit-f{N}).
        # Set once the flush's close is dispatched, so a run that raised
        # before it, or saw no rows, does not lock the job.
        self.flushed = False

    # -- checkpointing -----------------------------------------------------
    def _checkpoint(self) -> None:
        if not self.checkpoint_dir:
            return
        snaps = ray.get([s.snapshot.remote() for s in self.stores])
        tmp = os.path.join(self.checkpoint_dir, f".tmp-ckpt-{self.next_fragment:05d}")
        final = os.path.join(self.checkpoint_dir, f"ckpt-{self.next_fragment:05d}")
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)
        for p, blob in enumerate(snaps):
            with open(os.path.join(tmp, f"part-{p:04d}.bin"), "wb") as f:
                f.write(blob)
        meta = {
            "next_fragment": self.next_fragment,
            "watermark": self.watermark,
            "min_ts": self.min_ts,
            "closed_through": self.closed_through,
            "total_late": self.total_late,
            "total_rows": self.total_rows,
            "parallelism": self.parallelism,
        }
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump(meta, f)
        if os.path.exists(final):
            shutil.rmtree(final)
        os.rename(tmp, final)
        prune_checkpoints(self.checkpoint_dir)

    def resume(self) -> bool:
        """Restore the newest checkpoint; returns True if one was found."""
        if not self.checkpoint_dir:
            return False
        path = latest_checkpoint(self.checkpoint_dir)
        if path is None:
            return False
        with open(os.path.join(path, "meta.json")) as f:
            meta = json.load(f)
        if meta["parallelism"] != self.parallelism:
            raise ValueError("cannot resume with a different parallelism")
        futures = []
        for p, store in enumerate(self.stores):
            with open(os.path.join(path, f"part-{p:04d}.bin"), "rb") as f:
                futures.append(store.restore.remote(f.read()))
        ray.get(futures)
        self.next_fragment = meta["next_fragment"]
        self.watermark = meta["watermark"]
        self.min_ts = meta.get("min_ts", 2**62)
        self.closed_through = list(meta["closed_through"])
        self.total_late = meta["total_late"]
        self.total_rows = meta["total_rows"]
        truncate_manifest(self.out_dir, self.next_fragment)
        return True

    # -- close cycle -------------------------------------------------------
    def _close_windows(self, fragment_idx: int, wm: int | None = None):
        """Emit every window whose end <= watermark and not yet emitted.
        Fires an async merge+emit task and returns its ObjectRef (or None if
        nothing closed) — close cycles from successive fragments overlap, so
        the conquer step parallelizes instead of serializing the driver loop.
        Idempotent per fragment index.  ``wm`` overrides the close horizon
        for the end-of-input flush WITHOUT mutating ``self.watermark``, which
        stays the true max-seen timestamp."""
        if wm is None:
            wm = self.watermark
        to_emit: list[tuple[int, int]] = []  # (window_def_idx, window_id)
        for wi, w in enumerate(self.windows):
            stride = w.size_us if isinstance(w, TumblingWindow) else w.slide_us
            size = w.size_us
            if self.closed_through[wi] == _NEG_INF:
                # first close: start at the earliest window containing data
                if self.min_ts >= 2**62:
                    continue
                first = max(0, (self.min_ts - size) // stride + 1)
            else:
                first = self.closed_through[wi]
            wid = first
            while wid * stride + size <= wm:
                to_emit.append((wi, wid))
                wid += 1
            self.closed_through[wi] = wid
        emit_path = os.path.join(self.out_dir, f"emit-f{fragment_idx:05d}.parquet")
        if not to_emit:
            return None

        needed = sorted(
            {
                s
                for wi, wid in to_emit
                for s in slices_of_window(
                    wid, _as_sliding(self.windows[wi]), self.slice_us
                )
            }
        )
        horizon = _evict_horizon(wm, self.windows, self.slice_us)
        # merge + emit run in a Ray task fed directly by the actor outputs
        # (object refs — the driver never touches synopsis payloads)
        table_refs = [
            s.collect_closed_slices_snapshot.remote(needed, horizon)
            for s in self.stores
        ]
        emit_spec = [
            {
                "kind": _window_kind(self.windows[wi]),
                "start": wid
                * (
                    self.windows[wi].size_us
                    if isinstance(self.windows[wi], TumblingWindow)
                    else self.windows[wi].slide_us
                ),
                "size": self.windows[wi].size_us,
                "slices": list(
                    slices_of_window(wid, _as_sliding(self.windows[wi]), self.slice_us)
                ),
            }
            for wi, wid in to_emit
        ]
        return _merge_and_emit.remote(
            emit_path, emit_spec, self.config.synopsis, *table_refs
        )

    # -- main loop ---------------------------------------------------------
    def run(
        self,
        fragment_paths: list[str],
        resume: bool = False,
        final_flush: bool = True,
        pipelined: bool | None = None,
    ) -> dict:
        """Process fragments from the restored/initial cursor.  With
        ``final_flush=False`` the bounded-stream end-of-input flush (watermark
        -> +inf) is skipped — used to simulate a crash mid-stream, and by
        callers that continue the stream with a later run().  A final flush
        ends the stream: any later run() raises ``RuntimeError``.

        ``pipelined`` (default: True unless checkpointing): precompute every
        fragment's watermark from a parallel metadata pass, then run ALL
        split + ingest tasks concurrently — exact-output-equivalent because
        (a) the late filter depends only on each fragment's carry-in
        watermark, which is a prefix-max of per-fragment max timestamps, and
        (b) mergeable-synopsis ingest is commutative across fragments.  Close
        cycles still run in fragment order, so emission files are identical
        to the sequential mode.  Incompatible with checkpointing (an actor
        snapshot taken at fragment k could already contain later fragments),
        so checkpoint_dir forces the sequential path."""
        if self.flushed:
            raise RuntimeError(
                "StreamingSynopsisJob.run() after a final flush: the flush "
                "already emitted the open windows; start a new job instead"
            )
        if resume:
            self.resume()
        if pipelined is None:
            pipelined = self.checkpoint_dir is None
        if self.checkpoint_dir is not None:
            pipelined = False
        if pipelined:
            return self._run_pipelined(fragment_paths, final_flush)
        manifest_path = os.path.join(self.out_dir, "manifest.jsonl")
        split = ray.remote(num_returns=1 + self.parallelism)(_partition_fragment)
        for k in range(self.next_fragment, len(fragment_paths)):
            path = fragment_paths[k]
            refs = split.remote(
                path,
                self.parallelism,
                self.slice_us,
                self.watermark,
                self.config.hot_key_threshold,
                self.columns,
                None if self.config.sample_elements else self.config.key,
                self.shard_columns,
            )
            meta_ref, shard_refs = refs[0], refs[1:]
            ingest_futs = [
                store.ingest.remote(shard)
                for store, shard in zip(self.stores, shard_refs)
            ]
            meta = ray.get(meta_ref)
            ray.get(ingest_futs)
            self.total_rows += meta["n_rows"]
            self.total_late += meta["n_late"]
            if meta["frag_min_ts"] < self.min_ts:
                self.min_ts = meta["frag_min_ts"]
            self.watermark = max(self.watermark, meta["frag_max_ts"])
            # same close cadence as the pipelined path (close_every was
            # silently dead here, breaking the cross-mode file equivalence)
            if (k + 1) % self.close_every == 0 or k == len(fragment_paths) - 1:
                emit_ref = self._close_windows(k)
                if emit_ref is not None:
                    # checkpointed (sequential) mode: emission must be durable
                    # before the checkpoint that assumes it happened
                    ray.get(emit_ref)
            with open(manifest_path, "a") as f:
                f.write(
                    json.dumps(
                        {
                            "fragment": k,
                            "path": os.path.basename(path),
                            "rows": meta["n_rows"],
                            "late_dropped": meta["n_late"],
                            "watermark": self.watermark,
                        }
                    )
                    + "\n"
                )
            self.next_fragment = k + 1
            if self.checkpoint_dir and self.next_fragment % self.checkpoint_every == 0:
                self._checkpoint()
        if final_flush and self.watermark > _NEG_INF:
            # end of stream: close with a horizon just past the last window
            # containing data (a literal +inf would make the close loop
            # enumerate windows forever).  Local override only:
            # self.watermark stays the true max-seen timestamp.
            max_span = max(w.size_us for w in self.windows)
            ref = self._close_windows(
                len(fragment_paths),
                wm=self.watermark + max_span + self.slice_us,
            )
            self.flushed = True
            if ref is not None:
                ray.get(ref)
        if final_flush:
            # end-of-input only: continuous evaluators call run() once per
            # cycle with final_flush=False — a summary line (plus a full
            # actor-stats poll) per fragment would pollute the manifest
            part_stats = ray.get([s.stats.remote() for s in self.stores])
            with open(manifest_path, "a") as f:
                f.write(
                    json.dumps(
                        {"summary": True, "rows": self.total_rows,
                         "late_dropped": self.total_late,
                         "partitions": part_stats}
                    )
                    + "\n"
                )
        return {
            "rows": self.total_rows,
            "late_dropped": self.total_late,
            "fragments": self.next_fragment,
        }

    def _run_pipelined(self, fragment_paths: list[str], final_flush: bool) -> dict:
        manifest_path = os.path.join(self.out_dir, "manifest.jsonl")
        paths = fragment_paths[self.next_fragment :]
        if not paths:
            return {
                "rows": self.total_rows,
                "late_dropped": self.total_late,
                "fragments": self.next_fragment,
            }
        # phase A: per-fragment (min, max) ts from the parquet footers,
        # submitted in bounded waves (at 100 TB / >=1e5 fragments a single
        # list comprehension would put 1e5 simultaneous driver submissions
        # in flight) and RESOLVED LAZILY just ahead of the split lookahead:
        # fragment i's carry-in watermark needs only fragments < i, so the
        # first split launches after one footer read instead of after a
        # full-stream metadata prescan (which at 100 TB would idle the
        # cluster for the entire prescan before byte one of data moved)
        ncpu = _cluster_cpus()
        wave = max(64, 4 * ncpu)
        pending = [_fragment_ts_stats.remote(p) for p in paths[:wave]]
        pending += [None] * (len(paths) - len(pending))
        wms: list = [None] * len(paths)
        wm_carry = self.watermark
        resolved = 0

        def ensure_wms(upto: int) -> None:
            """Resolve carry-in watermarks for fragments < upto."""
            nonlocal resolved, wm_carry
            while resolved < min(upto, len(paths)):
                j = resolved
                nxt = j + wave
                if nxt < len(paths):
                    pending[nxt] = _fragment_ts_stats.remote(paths[nxt])
                _lo, hi = ray.get(pending[j])
                pending[j] = None
                wms[j] = wm_carry
                wm_carry = max(wm_carry, hi)
                resolved += 1

        emit_refs: list = []
        # phase B+C: splits + ingests run ahead of the close cursor by a
        # bounded lookahead, so in-flight slice state stays O(lookahead
        # fragment span) instead of the whole stream span
        split = ray.remote(num_returns=1 + self.parallelism)(_partition_fragment)
        # enough fragments in flight to saturate the CPU budget; bounded so
        # in-flight slice state stays proportional to the budget, not the
        # stream length
        lookahead = max(4, 2 * ncpu)
        metas: list = [None] * len(paths)
        ingests: list = [None] * len(paths)

        def submit(i: int) -> None:
            ensure_wms(i + 1)
            refs = split.remote(
                paths[i],
                self.parallelism,
                self.slice_us,
                wms[i],
                self.config.hot_key_threshold,
                self.columns,
                None if self.config.sample_elements else self.config.key,
                self.shard_columns,
            )
            metas[i] = refs[0]
            ingests[i] = [
                store.ingest.remote(shard)
                for store, shard in zip(self.stores, refs[1:])
            ]

        for i in range(min(lookahead, len(paths))):
            submit(i)
        base = self.next_fragment
        for i, path in enumerate(paths):
            meta = ray.get(metas[i])
            ray.get(ingests[i])
            metas[i] = ingests[i] = None
            nxt = i + lookahead
            if nxt < len(paths):
                submit(nxt)
            k = base + i
            self.total_rows += meta["n_rows"]
            self.total_late += meta["n_late"]
            if meta["frag_min_ts"] < self.min_ts:
                self.min_ts = meta["frag_min_ts"]
            self.watermark = max(self.watermark, meta["frag_max_ts"])
            if (k + 1) % self.close_every == 0 or i == len(paths) - 1:
                ref = self._close_windows(k)
                if ref is not None:
                    emit_refs.append(ref)
            with open(manifest_path, "a") as f:
                f.write(
                    json.dumps(
                        {
                            "fragment": k,
                            "path": os.path.basename(path),
                            "rows": meta["n_rows"],
                            "late_dropped": meta["n_late"],
                            "watermark": self.watermark,
                        }
                    )
                    + "\n"
                )
            self.next_fragment = k + 1
        if final_flush and self.watermark > _NEG_INF:
            # local flush horizon only (see _close_windows)
            max_span = max(w.size_us for w in self.windows)
            ref = self._close_windows(
                len(fragment_paths),
                wm=self.watermark + max_span + self.slice_us,
            )
            self.flushed = True
            if ref is not None:
                emit_refs.append(ref)
        n_windows = sum(ray.get(emit_refs)) if emit_refs else 0
        part_stats = ray.get([s.stats.remote() for s in self.stores])
        with open(manifest_path, "a") as f:
            f.write(
                json.dumps(
                    {"summary": True, "windows_emitted": n_windows,
                     "rows": self.total_rows, "late_dropped": self.total_late,
                     "partitions": part_stats}
                )
                + "\n"
            )
        return {
            "rows": self.total_rows,
            "late_dropped": self.total_late,
            "fragments": self.next_fragment,
            "windows_emitted": n_windows,
        }

    def result_dataset(self):
        import ray.data as rd

        files = sorted(
            os.path.join(self.out_dir, f)
            for f in os.listdir(self.out_dir)
            if f.startswith("emit-") and f.endswith(".parquet")
        )
        if not files:  # nothing emitted (e.g. all-late or empty stream)
            import pandas as _pd

            return rd.from_pandas(
                _pd.DataFrame(
                    {
                        "window_kind": _pd.Series(dtype=object),
                        "window_start": _pd.Series(dtype="int64"),
                        "window_end": _pd.Series(dtype="int64"),
                        "stratum": _pd.Series(dtype=object),
                        "synopsis_type": _pd.Series(dtype=object),
                        "payload": _pd.Series(dtype=object),
                        "n_rows": _pd.Series(dtype="int64"),
                    }
                )
            )
        return rd.read_parquet(files)

    def shutdown(self) -> None:
        for s in self.stores:
            ray.kill(s)
        self.stores = []


def _as_sliding(w) -> SlidingWindow:
    if isinstance(w, SlidingWindow):
        return w
    return SlidingWindow(w.size_ms, w.size_ms)
