"""Streaming CEP: strict-contiguity pattern matching under watermarks.

Runs :mod:`condor_ray.pipelines.cep`'s matcher incrementally over the
micro-batch fragment stream with the same mechanics as the other streaming
jobs (hash-partitioned state actors, watermark-driven emission, atomic
exactly-once sink files, lineage manifest, checkpoint/resume).

Incremental contract (why emissions equal the batch operator's):

- A row is STABLE once ``ts < watermark`` — no earlier row can still arrive
  (arrivals with ``ts < carry-in watermark`` are late and dropped/counted).
- Each close cycle matches over ``tail + newly-stable rows`` of each pending
  conversation, where ``tail`` is the conversation's last ``k-1`` stable rows.
  Every k-row window in that span contains at least one newly-stable row
  (the tail holds only k-1), so no match is emitted twice; and a window
  reaching further back would span more than k consecutive rows, so no match
  is missed.  State per conversation is O(k + in-flight rows), bounded by
  the watermark lag — independent of stream length.
"""

from __future__ import annotations

import json
import os

import numpy as np

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..pipelines.cep import Step, find_match_starts, find_relaxed_matches
from ..stages.extract import stable_partition_order, ts_to_us
from .checkpoint import latest_checkpoint, prune_checkpoints, truncate_manifest
from .emit import atomic_emit
from .streaming import _NEG_INF, conv_partition_ids

_FAR_FUTURE = 2**62

_EMIT_SCHEMA = {
    "conv_id": pa.string(),
    "start_turn_idx": pa.int64(),
    "end_turn_idx": pa.int64(),
    "start_ts": pa.int64(),
    "end_ts": pa.int64(),
}


def _partition_cep_fragment(
    path: str,
    parallelism: int,
    columns: list[str] | None,
):
    """Split one fragment into P shards by conv hash.  Watermark-free on
    purpose so split tasks PREFETCH ahead of the sequential watermark chain;
    the late-row rule (``ts < carry-in watermark``) is applied inside the
    state actors at ingest, where the processing-turn watermark is known."""
    table = pq.read_table(path, columns=columns)
    n = table.num_rows
    ts = ts_to_us(table["ts"])
    frag_max = int(ts.max()) if n else _NEG_INF
    part, _, _ = conv_partition_ids(table["conv_id"], parallelism)
    order = stable_partition_order(part, parallelism)
    sorted_tbl = table.take(pa.array(order))
    counts = np.bincount(part, minlength=parallelism)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    shards = [sorted_tbl.slice(offsets[p], counts[p]) for p in range(parallelism)]
    meta = {"n_rows": n, "frag_max_ts": frag_max}
    return (meta, *shards)


_EMIT_SORT = [
    ("conv_id", "ascending"),
    ("start_ts", "ascending"),
    ("start_turn_idx", "ascending"),
]


@ray.remote(num_cpus=0.5)
class PatternStateStore:
    """Per-partition CEP state, vectorized ACROSS conversations.

    No per-conversation Python anywhere (the per-group-dispatch rule):
    ingest appends one chunk per micro-batch shard; close concatenates,
    lexsorts by (conv, ts, turn) and runs the multi-conversation matcher
    ONCE over (active tails + newly-stable rows) — ``find_match_starts``
    already enforces conv equality across each k-row window.  Tails (the
    last k-1 stable rows of every conversation) live in one sorted
    struct-of-arrays table; only tails of conversations with newly-stable
    rows join the match input, so an idle conversation costs nothing per
    cycle."""

    def __init__(self, partition_id: int, steps: list[Step],
                 within_us: int | None, contiguity: str = "strict"):
        self.partition_id = partition_id
        self.steps = list(steps)
        self.k = len(steps)
        self.within_us = within_us
        self.contiguity = contiguity
        if contiguity == "relaxed" and within_us is None:
            raise ValueError(
                "relaxed contiguity requires within_ms (an unbounded "
                "followedBy would need unbounded lookback state)"
            )
        self.cols = sorted({s.col for s in steps})
        # arrival-order chunks of (conv_code, ts, turn, {col: arr})
        self.pending: list[tuple] = []
        # strict mode: one sorted-by-(conv_code, ts, turn) table of per-conv
        # k-1 row tails.  relaxed mode: the same tuple layout holds the
        # retained stable rows with ts >= prev_wm - within (time-bounded
        # lookback buffer), and prev_wm tracks the last close watermark.
        self.tails: tuple | None = None
        self.prev_wm = _NEG_INF
        # conversations are dictionary-encoded ONCE at ingest (string lexsort
        # compares cost ~1 us each in object arrays — int codes sort ~50x
        # faster); codes are stable across the actor's lifetime
        self.conv_ids: dict[str, int] = {}
        self.conv_names: list[str] = []
        self.rows_ingested = 0
        self.peak_pending_rows = 0

    def _codes(self, conv_col) -> np.ndarray:
        if isinstance(conv_col, pa.ChunkedArray):
            conv_col = conv_col.combine_chunks()
        dic = conv_col.dictionary_encode()
        names = dic.dictionary.to_pylist()
        lut = np.empty(len(names), dtype=np.int64)
        get = self.conv_ids.get
        for i, nm in enumerate(names):  # bounded by batch-distinct convs
            code = get(nm)
            if code is None:
                code = len(self.conv_names)
                self.conv_ids[nm] = code
                self.conv_names.append(nm)
            lut[i] = code
        idx_arr = dic.indices
        if idx_arr.null_count:
            # null conv_id rows intern under the None name (a NaN index
            # would astype to INT64_MIN and corrupt the lookup)
            code = get(None)
            if code is None:
                code = len(self.conv_names)
                self.conv_ids[None] = code
                self.conv_names.append(None)
            lut = np.append(lut, code)
            idx_arr = idx_arr.fill_null(len(names))
        idx = idx_arr.to_numpy(zero_copy_only=False).astype(np.int64)
        return lut[idx]

    def ingest(self, batch: pa.Table, watermark_us: int) -> int:
        """Buffer one shard; drop + count late rows (``ts < carry-in
        watermark`` — positions before the watermark are already finalized
        and matched).  Returns the number of late-dropped rows."""
        n = batch.num_rows
        if n == 0:
            return 0
        ts = ts_to_us(batch["ts"])
        late = ts < watermark_us
        n_late = int(late.sum())
        if n_late:
            keep = pa.array(~late)
            batch = batch.filter(keep)
            ts = ts[~late]
            if batch.num_rows == 0:
                self.rows_ingested += n
                return n_late
        conv = self._codes(batch["conv_id"])
        turn = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        cols = {c: batch[c].to_numpy(zero_copy_only=False) for c in self.cols}
        self.pending.append((conv, ts, turn, cols))
        self.rows_ingested += n
        return n_late

    def _concat_pending(self) -> tuple:
        if len(self.pending) == 1:
            return self.pending[0]
        return (
            np.concatenate([c[0] for c in self.pending]),
            np.concatenate([c[1] for c in self.pending]),
            np.concatenate([c[2] for c in self.pending]),
            {
                c: np.concatenate([ch[3][c] for ch in self.pending])
                for c in self.cols
            },
        )

    @staticmethod
    def _take(t: tuple, idx) -> tuple:
        return (
            t[0][idx],
            t[1][idx],
            t[2][idx],
            {c: a[idx] for c, a in t[3].items()},
        )

    @staticmethod
    def _concat2(a: tuple, b: tuple) -> tuple:
        return (
            np.concatenate([a[0], b[0]]),
            np.concatenate([a[1], b[1]]),
            np.concatenate([a[2], b[2]]),
            {c: np.concatenate([a[3][c], b[3][c]]) for c in a[3]},
        )

    def _emit_table(self, c_conv, c_ts, c_turn, starts, ends) -> pa.Table:
        names = np.asarray(self.conv_names, dtype=object)
        return pa.table(
            {
                "conv_id": pa.array(names[c_conv[starts]], type=pa.string()),
                "start_turn_idx": pa.array(c_turn[starts].astype(np.int64)),
                "end_turn_idx": pa.array(c_turn[ends].astype(np.int64)),
                "start_ts": pa.array(c_ts[starts].astype(np.int64)),
                "end_ts": pa.array(c_ts[ends].astype(np.int64)),
            }
        )

    def _close_relaxed(self, watermark_us: int) -> pa.Table:
        """Relaxed (followedBy) close cycle.

        A chain resolved entirely among stable rows is FINAL: future rows
        have ts >= watermark and sort after every stable row, so they can
        never preempt a chosen next-match.  Emit exactly the matches whose
        end stabilized THIS cycle (prev_wm <= end_ts < wm; an end older
        than prev_wm had its whole chain stable then and was emitted then).
        Retention: rows with ts >= wm - within can still pair with a future
        end (span bound) — the lookback buffer is time-bounded, the classic
        CEP within() state bound."""
        empty = pa.table(
            {k: pa.array([], type=t) for k, t in _EMIT_SCHEMA.items()}
        )
        prev_wm = self.prev_wm
        self.prev_wm = watermark_us
        if self.pending:
            conv, ts, turn, cols = self._concat_pending()
            stable_mask = ts < watermark_us
            rest_mask = ~stable_mask
            if rest_mask.any():
                self.pending = [self._take((conv, ts, turn, cols), rest_mask)]
                self.peak_pending_rows = max(
                    self.peak_pending_rows, int(rest_mask.sum())
                )
            else:
                self.pending = []
            stable = self._take((conv, ts, turn, cols), stable_mask)
            combined = (
                self._concat2(self.tails, stable)
                if self.tails is not None
                else stable
            )
        else:
            if self.tails is None:
                return empty
            combined = self.tails
        c_conv, c_ts, c_turn, c_cols = combined
        order = np.lexsort((c_turn, c_ts, c_conv))
        c_conv, c_ts, c_turn = c_conv[order], c_ts[order], c_turn[order]
        c_cols = {c: a[order] for c, a in c_cols.items()}
        keep = c_ts >= watermark_us - self.within_us
        self.tails = (
            self._take((c_conv, c_ts, c_turn, c_cols), keep)
            if keep.any()
            else None
        )
        starts, ends = find_relaxed_matches(
            c_conv, c_ts, c_cols, self.steps, self.within_us
        )
        if len(starts) == 0:
            return empty
        fresh = c_ts[ends] >= prev_wm
        starts, ends = starts[fresh], ends[fresh]
        if len(starts) == 0:
            return empty
        return self._emit_table(c_conv, c_ts, c_turn, starts, ends)

    def _compact_interning(self) -> None:
        """conv_ids/conv_names grow with every distinct conversation EVER
        seen, while tails/pending reference only live codes.  When the
        intern table is >4x the live set (and big enough to matter), remap
        the live codes densely and drop dead names, keeping actor state and
        checkpoint size O(live convs) instead of O(stream-lifetime convs)."""
        total = len(self.conv_names)
        if total < 4096:
            return
        live_arrays = [self.tails[0]] if self.tails is not None else []
        live_arrays.extend(c[0] for c in self.pending)
        live = (
            np.unique(np.concatenate(live_arrays))
            if live_arrays
            else np.empty(0, dtype=np.int64)
        )
        if len(live) * 4 > total:
            return
        names = [self.conv_names[int(c)] for c in live]
        remap = np.full(total, -1, dtype=np.int64)
        remap[live] = np.arange(len(live), dtype=np.int64)
        if self.tails is not None:
            self.tails = (remap[self.tails[0]],) + self.tails[1:]
        self.pending = [(remap[p[0]],) + p[1:] for p in self.pending]
        self.conv_names = names
        self.conv_ids = {nm: i for i, nm in enumerate(names)}

    def close(self, watermark_us: int) -> pa.Table:
        """Match + emit over rows that became stable (ts < watermark)."""
        self._compact_interning()
        if self.contiguity == "relaxed":
            return self._close_relaxed(watermark_us)
        empty = pa.table(
            {k: pa.array([], type=t) for k, t in _EMIT_SCHEMA.items()}
        )
        if not self.pending:
            return empty
        conv, ts, turn, cols = self._concat_pending()
        stable_mask = ts < watermark_us
        n_stable = int(stable_mask.sum())
        if n_stable == 0:
            self.pending = [(conv, ts, turn, cols)]
            self.peak_pending_rows = max(self.peak_pending_rows, len(ts))
            return empty
        rest_mask = ~stable_mask
        if rest_mask.any():
            self.pending = [self._take((conv, ts, turn, cols), rest_mask)]
            self.peak_pending_rows = max(
                self.peak_pending_rows, int(rest_mask.sum())
            )
        else:
            self.pending = []
        stable = self._take((conv, ts, turn, cols), stable_mask)

        # pull in the tails of the conversations touched this cycle
        touched = np.unique(stable[0])
        keep_tails = None
        if self.tails is not None:
            t_conv = self.tails[0]
            pos = np.searchsorted(touched, t_conv)
            sel = (pos < len(touched)) & (
                touched[np.clip(pos, 0, len(touched) - 1)] == t_conv
            )
            active = self._take(self.tails, sel)
            if not sel.all():
                keep_tails = self._take(self.tails, ~sel)
            combined = self._concat2(active, stable)
        else:
            combined = stable
        c_conv, c_ts, c_turn, c_cols = combined
        order = np.lexsort((c_turn, c_ts, c_conv))
        c_conv, c_ts, c_turn = c_conv[order], c_ts[order], c_turn[order]
        c_cols = {c: a[order] for c, a in c_cols.items()}

        starts = find_match_starts(
            c_conv, c_ts, c_cols, self.steps, self.within_us
        )

        # new tails: last k-1 rows of every touched conversation (vectorized
        # segment-tail gather over the conv boundaries)
        keep = self.k - 1
        new_tails = None
        if keep > 0 and len(c_conv):
            n = len(c_conv)
            new_conv = np.empty(n, dtype=bool)
            new_conv[0] = True
            new_conv[1:] = c_conv[1:] != c_conv[:-1]
            seg_start = np.flatnonzero(new_conv)
            seg_end = np.concatenate((seg_start[1:], [n]))
            cnt = np.minimum(seg_end - seg_start, keep)
            total = int(cnt.sum())
            intra = (
                np.arange(total, dtype=np.int64)
                - np.repeat(np.concatenate(([0], np.cumsum(cnt)))[:-1], cnt)
            )
            idx = np.repeat(seg_end - cnt, cnt) + intra
            new_tails = self._take((c_conv, c_ts, c_turn, c_cols), idx)
        if keep_tails is not None and new_tails is not None:
            merged = self._concat2(keep_tails, new_tails)
            o = np.lexsort((merged[2], merged[1], merged[0]))
            self.tails = self._take(merged, o)
        else:
            self.tails = new_tails if new_tails is not None else keep_tails
        if self.tails is not None and self.within_us is not None:
            # time-bound the strict tails like the relaxed path: a tail row
            # with ts < wm - within can only appear in a match whose future
            # end makes the span exceed within (future rows have ts >= wm),
            # and pruning a PREFIX of a conv's rows cannot create new
            # adjacencies — without this, tails retain k-1 rows of every
            # conversation ever seen
            alive = self.tails[1] >= watermark_us - self.within_us
            if not alive.all():
                self.tails = (
                    self._take(self.tails, alive) if alive.any() else None
                )

        if len(starts) == 0:
            return empty
        return self._emit_table(c_conv, c_ts, c_turn, starts, starts + self.k - 1)

    def stats(self) -> dict:
        return {
            "rows_ingested": self.rows_ingested,
            "peak_pending_rows": self.peak_pending_rows,
            "open_tails": 0 if self.tails is None else len(self.tails[0]),
            "interned_convs": len(self.conv_names),
        }

    # -- checkpoint ---------------------------------------------------------
    def snapshot(self) -> bytes:
        import pickle

        return pickle.dumps(
            {
                "pending": self._concat_pending() if self.pending else None,
                "tails": self.tails,
                "prev_wm": self.prev_wm,
                "conv_names": list(self.conv_names),
                "rows_ingested": self.rows_ingested,
                "peak_pending_rows": self.peak_pending_rows,
            },
            protocol=4,
        )

    def restore(self, blob: bytes) -> None:
        import pickle

        st = pickle.loads(blob)
        self.pending = [st["pending"]] if st["pending"] is not None else []
        self.tails = st["tails"]
        self.prev_wm = st["prev_wm"]
        self.conv_names = list(st["conv_names"])
        self.conv_ids = {nm: i for i, nm in enumerate(self.conv_names)}
        self.rows_ingested = st["rows_ingested"]
        self.peak_pending_rows = st["peak_pending_rows"]


class StreamingPatternJob:
    """Micro-batch CEP job over ts-ordered Parquet fragments with watermarks,
    exactly-once emission, and checkpoint/resume (same lineage mechanics as
    the other streaming jobs)."""

    def __init__(
        self,
        steps: list[Step],
        out_dir: str,
        within_ms: int | None = None,
        parallelism: int = 4,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 4,
        columns: list[str] | None = None,
        contiguity: str = "strict",
    ):
        if not steps:
            raise ValueError("pattern needs at least one step")
        if contiguity not in ("strict", "relaxed"):
            raise ValueError(f"unknown contiguity {contiguity!r}")
        if contiguity == "relaxed" and within_ms is None:
            raise ValueError(
                "relaxed contiguity requires within_ms (an unbounded "
                "followedBy would need unbounded lookback state)"
            )
        self.steps = list(steps)
        self.within_us = within_ms * 1000 if within_ms is not None else None
        self.contiguity = contiguity
        self.parallelism = parallelism
        self.out_dir = out_dir
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        need = {"conv_id", "turn_idx", "ts"} | {s.col for s in steps}
        self.columns = sorted(need) if columns is None else columns
        os.makedirs(out_dir, exist_ok=True)
        if checkpoint_dir:
            os.makedirs(checkpoint_dir, exist_ok=True)
        self.stores = [
            PatternStateStore.remote(p, self.steps, self.within_us, contiguity)
            for p in range(parallelism)
        ]
        self.watermark = _NEG_INF
        self.next_fragment = 0
        self.total_late = 0
        self.total_rows = 0

    def _checkpoint(self) -> None:
        if not self.checkpoint_dir:
            return
        import shutil

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
        if not self.checkpoint_dir:
            return False
        path = latest_checkpoint(self.checkpoint_dir)
        if path is None:
            return False
        with open(os.path.join(path, "meta.json")) as f:
            meta = json.load(f)
        if meta["parallelism"] != self.parallelism:
            raise ValueError("cannot resume with a different parallelism")
        futs = []
        for p, store in enumerate(self.stores):
            with open(os.path.join(path, f"part-{p:04d}.bin"), "rb") as f:
                futs.append(store.restore.remote(f.read()))
        ray.get(futs)
        self.next_fragment = meta["next_fragment"]
        self.watermark = meta["watermark"]
        self.total_late = meta["total_late"]
        self.total_rows = meta["total_rows"]
        truncate_manifest(self.out_dir, self.next_fragment)
        return True

    def run(self, fragment_paths: list[str], resume: bool = False,
            final_flush: bool = True, prefetch: int = 4) -> dict:
        if resume:
            self.resume()
        manifest_path = os.path.join(self.out_dir, "manifest.jsonl")
        split = ray.remote(num_returns=1 + self.parallelism)(
            _partition_cep_fragment
        )
        n_frag = len(fragment_paths)
        # split tasks prefetch `prefetch` fragments ahead of the sequential
        # watermark chain (they are watermark-free); emission runs as async
        # Ray tasks — the driver loop only sequences ingest -> close
        split_refs: dict[int, list] = {}
        emit_futs: list = []

        def _drain_emits() -> int:
            nonlocal emit_futs
            done = sum(ray.get(emit_futs))
            emit_futs = []
            return done

        emitted = 0
        for k in range(self.next_fragment, n_frag):
            for j in range(k, min(k + prefetch, n_frag)):
                if j not in split_refs:
                    split_refs[j] = split.remote(
                        fragment_paths[j], self.parallelism, self.columns
                    )
            refs = split_refs.pop(k)
            meta_ref, shard_refs = refs[0], refs[1:]
            futs = [
                store.ingest.remote(shard, self.watermark)
                for store, shard in zip(self.stores, shard_refs)
            ]
            meta = ray.get(meta_ref)
            n_late = sum(ray.get(futs))
            self.total_rows += meta["n_rows"]
            self.total_late += n_late
            self.watermark = max(self.watermark, meta["frag_max_ts"])
            emit_futs.append(
                atomic_emit.remote(
                    self.out_dir, "emit", k, _EMIT_SORT,
                    *[s.close.remote(self.watermark) for s in self.stores],
                )
            )
            with open(manifest_path, "a") as f:
                f.write(
                    json.dumps(
                        {
                            "fragment": k,
                            "path": os.path.basename(fragment_paths[k]),
                            "rows": meta["n_rows"],
                            "late_dropped": n_late,
                            "watermark": self.watermark,
                        }
                    )
                    + "\n"
                )
            self.next_fragment = k + 1
            if self.checkpoint_dir and self.next_fragment % self.checkpoint_every == 0:
                # emissions for finished fragments must be durable before a
                # checkpoint records them as done (resume skips them)
                emitted += _drain_emits()
                self._checkpoint()
            elif len(emit_futs) >= 32:
                emitted += _drain_emits()
        if final_flush and self.watermark > _NEG_INF:
            emit_futs.append(
                atomic_emit.remote(
                    self.out_dir, "emit", n_frag, _EMIT_SORT,
                    *[s.close.remote(_FAR_FUTURE) for s in self.stores],
                )
            )
        emitted += _drain_emits()
        stats = ray.get([s.stats.remote() for s in self.stores])
        with open(manifest_path, "a") as f:
            f.write(
                json.dumps(
                    {
                        "summary": True,
                        "matches_emitted": emitted,
                        "rows": self.total_rows,
                        "late_dropped": self.total_late,
                        "peak_pending_rows": max(
                            (s["peak_pending_rows"] for s in stats), default=0
                        ),
                    }
                )
                + "\n"
            )
        return {
            "rows": self.total_rows,
            "late_dropped": self.total_late,
            "fragments": self.next_fragment,
            "matches_emitted": emitted,
        }

    def result_dataset(self):
        import ray.data as rd

        files = sorted(
            os.path.join(self.out_dir, f)
            for f in os.listdir(self.out_dir)
            if f.startswith("emit-") and f.endswith(".parquet")
        )
        if not files:
            return rd.from_arrow(
                pa.table({k: pa.array([], type=t) for k, t in _EMIT_SCHEMA.items()})
            )
        return rd.read_parquet(files)

    def shutdown(self) -> None:
        for s in self.stores:
            ray.kill(s)
        self.stores = []
