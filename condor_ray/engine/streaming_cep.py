"""Streaming CEP: strict-contiguity pattern matching under watermarks.

Runs :mod:`condor_ray.pipelines.cep`'s matcher incrementally over the
fragment stream that ``driver.py`` walks, in conv-hash-partitioned state
actors.

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

import numpy as np
import pyarrow as pa
import ray

from ..pipelines.cep import Step, find_match_starts, find_relaxed_matches
from ..stages.extract import ts_to_us
from .driver import NEG_INF as _NEG_INF, FragmentStreamJob
from .streaming import submit_split_by_conv

_EMIT_SCHEMA = {
    "conv_id": pa.string(),
    "start_turn_idx": pa.int64(),
    "end_turn_idx": pa.int64(),
    "start_ts": pa.int64(),
    "end_ts": pa.int64(),
}


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


class StreamingPatternJob(FragmentStreamJob):
    """Pattern matching per conversation: P ``PatternStateStore`` actors
    buffer rows until the watermark makes them stable, then match them."""

    emit_sort = _EMIT_SORT
    emit_schema = pa.schema(list(_EMIT_SCHEMA.items()))
    emitted_key = "matches_emitted"
    stats_call = "stats"

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
        need = {"conv_id", "turn_idx", "ts"} | {s.col for s in steps}
        self.columns = sorted(need) if columns is None else columns
        super().__init__(
            out_dir,
            [PatternStateStore.remote(p, self.steps, self.within_us, contiguity)
             for p in range(parallelism)],
            checkpoint_dir, checkpoint_every,
        )

    def run(self, fragment_paths: list[str], resume: bool = False,
            final_flush: bool = True) -> dict:
        return self._run(fragment_paths, resume, final_flush)

    def _split(self, k: int, path: str, wm: int) -> list:
        return submit_split_by_conv(path, self.parallelism, self.columns)

    def _close(self, wm: int, idx: int):
        return self._emit(idx, [s.close.remote(wm) for s in self.stores])

    def _summary(self, stats: list) -> dict:
        return {"peak_pending_rows": max(
            (s["peak_pending_rows"] for s in stats), default=0)}
