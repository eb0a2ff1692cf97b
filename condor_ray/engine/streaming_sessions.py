"""Streaming SESSION windows: per-key gap-merge in the state actors.

Reference: Condor supports session windows through Scotty
(conn/.../processor/SynopsisBuilder.java:177-179, 335-337 — sessionWindow ->
SessionWindow in the Scotty wrapper); Scotty's session slices merge on the
key's gap.  Ray-native design (SURVEY §2.6): sessions are keyed by
conversation, and the streaming engine already routes each conv_id to exactly
one partition actor — so session state is conv-local, merges never cross
actors, and the window-close cycle is a per-actor sweep (the stream loop is
``driver.py``'s):

- **State**: per conv, a sorted list of open sessions
  ``[first_ts, last_ts, synopsis, n_rows]``.  A new row either extends a
  session (distance-to-neighbor < gap on either side, possibly bridging two
  sessions into one — Flink merging-window semantics) or opens one.
- **Close**: session closes when ``watermark >= last_ts + gap`` (no element
  can extend it anymore: any such element would be late).  Sessions of one
  conv close in start order, so the per-conv ``session_idx`` ordinal is a
  plain counter in the actor.
- **Late rule**: applied at actor ingest.  A row is late iff
  ``ts + gap <= carry-in watermark`` (the session it could have joined is
  already closed); late rows are dropped and counted.

Hot-key salting is structurally OFF here: sessions are keyed state, a conv
must live on one actor (the mergeable engine can salt because its state is
keyed by (stratum, slice), not by conv).
"""

from __future__ import annotations

import heapq

import numpy as np
import pyarrow as pa
import ray

from ..config import BuildConfiguration
from ..stages.extract import KeyExtractor, ts_to_us
from ..synopses.base import Synopsis
from ..synopses.registry import make_synopsis
from ..windows import SessionWindow
from .driver import NEG_INF as _NEG_INF, FragmentStreamJob
from .streaming import submit_split_by_conv

_EMPTY_SCHEMA = {
    "conv_id": pa.string(),
    "session_idx": pa.int64(),
    "session_start": pa.int64(),
    "session_end": pa.int64(),
    "n_rows": pa.int64(),
    "synopsis_type": pa.string(),
    "payload": pa.binary(),
}


_EMIT_SORT = [("conv_id", "ascending"), ("session_start", "ascending")]


@ray.remote(num_cpus=0.5)
class SessionStateStore:
    """Per-partition session state: conv -> open sessions (gap-merge)."""

    def __init__(self, partition_id: int, config: BuildConfiguration, gap_us: int):
        self.partition_id = partition_id
        self.config = config
        self.gap_us = gap_us
        self.extractor = KeyExtractor(config.key)
        self.timestamped = make_synopsis(config.synopsis, config.params).timestamped
        # conv -> list of [first_ts, last_ts, synopsis, n_rows], sorted by first_ts
        self.sessions: dict[str, list] = {}
        self.closed_counts: dict[str, int] = {}
        self.rows_ingested = 0
        # lazy-deletion min-heap of (earliest open session last_ts, conv):
        # a close cycle touches only convs whose sessions actually close,
        # never the full open-conversation map.  Invariant: after every
        # mutation of a conv's session list, its CURRENT earliest last_ts is
        # pushed; stale (smaller) entries are skipped on pop by re-checking
        # the live state.  Sessions of one conv are disjoint and >= gap
        # apart, so last_ts is increasing with first_ts and the closable
        # set is always a prefix.
        self._expiry: list[tuple[int, str]] = []

    def _new_synopsis(self, conv: str) -> Synopsis:
        syn = make_synopsis(self.config.synopsis, self.config.params)
        syn.set_partition_value(conv)
        return syn

    def ingest(self, batch: pa.Table, watermark_us: int = _NEG_INF) -> int:
        """Merge one shard into session state; drop + count late rows
        (``ts + gap <= carry-in watermark``).  Returns late-dropped count."""
        n = batch.num_rows
        if n == 0:
            return 0
        ts = ts_to_us(batch["ts"])
        late = ts + self.gap_us <= watermark_us
        n_late = int(late.sum())
        if n_late:
            batch = batch.filter(pa.array(~late))
            ts = ts[~late]
            if batch.num_rows == 0:
                self.rows_ingested += n
                return n_late
        values = self.extractor(batch)
        conv = batch["conv_id"]
        if isinstance(conv, pa.ChunkedArray):
            conv = conv.combine_chunks()
        dic = conv.dictionary_encode()
        convs = dic.dictionary.to_pylist()
        idx_arr = dic.indices
        if idx_arr.null_count:
            # null conv_id rows form their own (None-keyed) conversation
            idx_arr = idx_arr.fill_null(len(convs))
            convs = convs + [None]
        codes = idx_arr.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ts, codes))
        codes_s, ts_s, values_s = codes[order], ts[order], values[order]
        bounds = np.concatenate(
            [[0], np.nonzero(np.diff(codes_s))[0] + 1, [batch.num_rows]]
        )
        for b in range(len(bounds) - 1):
            lo, hi = int(bounds[b]), int(bounds[b + 1])
            cid = convs[int(codes_s[lo])]
            self._ingest_conv(cid, ts_s[lo:hi], values_s[lo:hi])
        self.rows_ingested += n
        return n_late

    def _ingest_conv(self, cid: str, ts: np.ndarray, values: np.ndarray) -> None:
        """Merge ts-sorted rows of one conv into its open sessions.

        Sweep over (existing sessions + new rows) in start order, merging
        neighbors closer than gap — the Flink merging-window algorithm on
        intervals."""
        gap = self.gap_us
        items: list = list(self.sessions.get(cid, ()))
        # simple merge: combine sorted streams of sessions and rows
        merged: list = []
        ri, si = 0, 0
        cur = None  # [first, last, syn, cnt, pending_vals, pending_ts]

        def flush(cur):
            if cur[4]:
                vals = np.asarray(cur[4])
                tss = np.asarray(cur[5], dtype=np.int64)
                if cur[2] is None:
                    cur[2] = self._new_synopsis(cid)
                if self.timestamped:
                    cur[2].update_batch(vals, timestamps=tss)
                else:
                    cur[2].update_batch(vals)
                cur[3] += len(vals)
            merged.append(cur[:4])

        while ri < len(ts) or si < len(items):
            if si < len(items) and (ri >= len(ts) or items[si][0] <= ts[ri]):
                nxt = [items[si][0], items[si][1], items[si][2], items[si][3], [], []]
                si += 1
            else:
                nxt = [int(ts[ri]), int(ts[ri]), None, 0, [values[ri]], [int(ts[ri])]]
                ri += 1
            if cur is None:
                cur = nxt
            elif nxt[0] - cur[1] < gap:
                # merge nxt into cur
                cur[1] = max(cur[1], nxt[1])
                if nxt[2] is not None:
                    if cur[2] is None:
                        cur[2] = nxt[2]
                    else:
                        cur[2] = cur[2].merge(nxt[2])
                    cur[3] += nxt[3]
                cur[4].extend(nxt[4])
                cur[5].extend(nxt[5])
            else:
                flush(cur)
                cur = nxt
        if cur is not None:
            flush(cur)
        self.sessions[cid] = merged
        heapq.heappush(self._expiry, (merged[0][1], cid))

    def close_sessions(self, watermark_us: int) -> pa.Table:
        """Emit + evict every session with last_ts + gap <= watermark.

        Deliberately Flink's merging-session semantics with allowed
        lateness 0 (what the reference gets from Flink 1.8): a session
        window [start, last+gap) fires and purges once the watermark
        passes its end, and a NON-late row arriving afterwards (its own
        singleton window end ts+gap > watermark) opens a NEW session.
        Under late data this legitimately diverges from the batch
        gaps-and-islands form — the sequential-replay oracle in
        tests/test_streaming_sessions.py pins exactly this rule; do not
        "fix" the close bound to last_ts + 2*gap (that would deviate
        from the reference).

        Heap-indexed: pops only convs whose earliest session is due (plus
        stale lazy entries), so a close cycle is O(closing + stale), not
        O(open conversations).  A popped conv closes its due prefix; if
        sessions remain, its new earliest last_ts is re-pushed."""
        gap = self.gap_us
        out = {k: [] for k in _EMPTY_SCHEMA}
        while self._expiry and self._expiry[0][0] + gap <= watermark_us:
            _, cid = heapq.heappop(self._expiry)
            sess = self.sessions.get(cid)
            if not sess:
                continue  # stale entry for an already-evicted conv
            i = 0
            while i < len(sess) and sess[i][1] + gap <= watermark_us:
                s = sess[i]
                i += 1
                idx = self.closed_counts.get(cid, 0)
                self.closed_counts[cid] = idx + 1
                out["conv_id"].append(cid)
                out["session_idx"].append(idx)
                out["session_start"].append(int(s[0]))
                out["session_end"].append(int(s[1]))
                out["n_rows"].append(int(s[3]))
                out["synopsis_type"].append(self.config.synopsis)
                out["payload"].append(
                    s[2].to_bytes() if s[2] is not None else b""
                )
            if i == 0:
                continue  # stale entry; a newer one covers this conv
            if i < len(sess):
                self.sessions[cid] = sess[i:]
                heapq.heappush(self._expiry, (sess[i][1], cid))
            else:
                del self.sessions[cid]
        return pa.table({k: pa.array(v, type=t) for (k, t), v in zip(_EMPTY_SCHEMA.items(), out.values())})

    # -- checkpoint ---------------------------------------------------------
    def snapshot(self) -> bytes:
        import pickle

        return pickle.dumps(
            {
                "sessions": {
                    cid: [
                        (s[0], s[1], s[2].to_bytes() if s[2] is not None else None, s[3])
                        for s in sess
                    ]
                    for cid, sess in self.sessions.items()
                },
                "closed_counts": dict(self.closed_counts),
                "rows_ingested": self.rows_ingested,
            },
            protocol=4,
        )

    def restore(self, blob: bytes) -> None:
        import pickle

        st = pickle.loads(blob)
        self.sessions = {
            cid: [
                [s0, s1, Synopsis.from_bytes(sb) if sb is not None else None, cnt]
                for (s0, s1, sb, cnt) in sess
            ]
            for cid, sess in st["sessions"].items()
        }
        self.closed_counts = dict(st["closed_counts"])
        self.rows_ingested = st["rows_ingested"]
        # rebuild the expiry heap from live state (not snapshotted)
        self._expiry = [
            (sess[0][1], cid) for cid, sess in self.sessions.items()
        ]
        heapq.heapify(self._expiry)


class StreamingSessionJob(FragmentStreamJob):
    """Session windows per conversation: P ``SessionStateStore`` actors
    gap-merge each conv's sessions, and a close cycle emits the sessions the
    watermark has passed."""

    emit_sort = _EMIT_SORT
    emit_schema = pa.schema(list(_EMPTY_SCHEMA.items()))
    emitted_key = "sessions_emitted"

    def __init__(
        self,
        config: BuildConfiguration,
        out_dir: str,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 4,
        columns: list[str] | None = None,
    ):
        if len(config.windows) != 1 or not isinstance(config.windows[0], SessionWindow):
            raise ValueError("StreamingSessionJob requires exactly one SessionWindow")
        if config.hot_key_threshold is not None:
            raise ValueError(
                "session windows are keyed by conv; hot-key salting would split a key's state"
            )
        self.config = config
        self.gap_us = config.windows[0].gap_us
        self.parallelism = config.parallelism
        # prune the fragment read to what ingest touches (the text column
        # usually dominates bytes)
        need = {"conv_id", "ts", config.key.field}
        self.columns = sorted(need) if columns is None else columns
        super().__init__(
            out_dir,
            [SessionStateStore.remote(p, config, self.gap_us)
             for p in range(self.parallelism)],
            checkpoint_dir, checkpoint_every,
        )

    def run(self, fragment_paths: list[str], resume: bool = False,
            final_flush: bool = True) -> dict:
        return self._run(fragment_paths, resume, final_flush)

    def _split(self, k: int, path: str, wm: int) -> list:
        return submit_split_by_conv(path, self.parallelism, self.columns)

    def _close(self, wm: int, idx: int):
        return self._emit(idx, [s.close_sessions.remote(wm) for s in self.stores])

    def _flush_wm(self) -> int:
        return self.watermark + self.gap_us + 1
