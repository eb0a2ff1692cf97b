"""Streaming ORDER-BASED (non-mergeable) path: windowed Haar wavelets under
the streaming engine.

Reference plan (``buildScottyNonMergeable``, conn/.../processor/
SynopsisBuilder.java:345-362): a parallelism-1 ``OrderAndIndex`` operator
assigns global round-robin indices in stream order, P keyed builders each
consume their substream, and the unifier assembles a
``DistributedWaveletsManager`` per window (index contract: synopsis = i % P,
local = i // P).

Ray-native version: the global ordering is a SEQUENTIAL DEPENDENCY CHAIN of
split tasks, not a hot operator — fragment k's split task takes the per-window
ordinal counters produced by fragment k-1's task (a tiny dict), so reads and
value extraction run in parallel while the ordinal assignment stays globally
sequential, exactly like the reference's parallelism-1 divide step.  Each
split task emits one shard per builder actor; actor mailbox order from the
sequential submission preserves per-(window, p) append order.

Close cycle: window closes when watermark >= window end; the driver collects
the P sub-wavelets, assembles the manager, and writes the emission file
atomically (exactly-once, same mechanics as the mergeable engine).

Per-row ordering invariant: within a fragment rows are taken in
(ts, conv_id, turn_idx) order, nulls last — ``ordered.turn_order``, the
helper the batch path sorts with too — so on a no-late, fragment-sorted
stream the streaming managers are bit-identical to the batch
``build_windowed_wavelets`` output.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..config import KeySpec
from ..stages.extract import KeyExtractor, ts_to_us
from ..synopses.base import Synopsis
from ..synopses.wavelets import DistributedWaveletsManager, WaveletSynopsis
from ..windows import TumblingWindow
from .ordered import turn_order
from .streaming import _NEG_INF


def _split_wavelet_fragment(
    path: str,
    counters: dict,
    parallelism: int,
    size_us: int,
    watermark_us: int,
    key_spec: KeySpec,
    columns: list[str] | None,
    mini_batch: int | None = None,
):
    """Order-and-index one fragment: establish the stream order, assign
    global per-window ordinals continuing from ``counters``, and cut into P
    round-robin shards.  Returns (meta, new_counters, shard_0..shard_{P-1});
    shard_p = Table(window_id, value) in stream order (row order is the
    ordinal // P append order for that builder).

    Ordering modes:
    - ``mini_batch=None`` (default): full (ts, conv_id, turn_idx) sort
      (``ordered.turn_order``) — the stronger-than-reference guarantee the
      repo documents.
    - ``mini_batch=N`` reproduces the reference's ``OrderAndIndex``
      re-ordering knob (conn/.../processor/divide/OrderAndIndex.java:41-67):
      N=1 dispatches in raw arrival order; N>1 buffers N consecutive
      arrivals into a PriorityQueue and drains them in timestamp order
      before round-robin assignment — a bounded partial re-order.  Chunk
      boundaries reset per fragment, and the tail (< N arrivals at fragment
      end) is flushed rather than dropped (the reference's open buffer
      would silently hold it at end-of-stream)."""
    table = pq.read_table(path, columns=columns)
    n = table.num_rows
    ts = ts_to_us(table["ts"])
    frag_max = int(ts.max()) if n else _NEG_INF

    late = (ts // size_us + 1) * size_us <= watermark_us
    n_late = int(late.sum())
    if n_late:
        table = table.filter(pa.array(~late))
        ts = ts[~late]

    if mini_batch is None:
        order = turn_order(
            pa.table(
                {"ts": ts, "conv_id": table["conv_id"],
                 "turn_idx": table["turn_idx"]}
            )
        )
    elif mini_batch <= 1:
        order = np.arange(len(ts), dtype=np.int64)  # raw arrival order
    else:
        # chunk-major, ts within chunk, stable on arrival — one lexsort
        chunk = np.arange(len(ts), dtype=np.int64) // mini_batch
        order = np.lexsort((np.arange(len(ts)), ts, chunk))
    ts = ts[order]
    values = KeyExtractor(key_spec)(table)[order].astype(np.float64)
    wid = ts // size_us

    # global ordinals per window, continuing from the carry-in counters.
    # Closed windows (end <= carry-in watermark) can never receive new
    # ordinals — the late filter above drops their rows — so their counter
    # entries are pruned here, keeping the carried dict O(open windows)
    # instead of growing one dead entry per window ever seen.
    new_counters = {
        w: c for w, c in counters.items()
        if (w + 1) * size_us > watermark_us
    }
    ordinals = np.zeros(len(wid), dtype=np.int64)
    # stable two-pass: per unique window, arange offset by the carried count
    uniq, inv, counts = np.unique(wid, return_inverse=True, return_counts=True)
    if len(wid):
        offsets = {int(u): int(new_counters.get(int(u), 0)) for u in uniq}
        # vectorized "running count by group": sort rows by (inv, position)
        order2 = np.argsort(inv, kind="stable")
        within = np.empty(len(wid), dtype=np.int64)
        within[order2] = np.arange(len(wid)) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
        )
        base = np.asarray([offsets[int(u)] for u in uniq], dtype=np.int64)
        ordinals = base[inv] + within
        for u, c in zip(uniq, counts):
            new_counters[int(u)] = offsets[int(u)] + int(c)

    # shards carry only (window_id, value): the builder appends in row
    # order, which IS ascending ordinal // P per (window, p) — shipping the
    # position explicitly would cost 8 bytes/row for nothing
    sub = ordinals % parallelism
    shards = []
    for p in range(parallelism):
        m = sub == p
        shards.append(
            pa.table(
                {
                    "window_id": pa.array(wid[m], type=pa.int64()),
                    "value": pa.array(values[m], type=pa.float64()),
                }
            )
        )
    meta = {"n_rows": n, "n_late": n_late, "frag_max_ts": frag_max}
    return (meta, new_counters, *shards)


@ray.remote(num_cpus=0.5)
class WaveletBuilderActor:
    """Keyed builder p: one WaveletSynopsis per open window, fed its
    substream in append order (pos is contiguous per (window, p))."""

    def __init__(self, p: int, size: int):
        self.p = p
        self.size = size
        self.wavelets: dict[int, WaveletSynopsis] = {}
        self.counts: dict[int, int] = {}

    def ingest(self, shard: pa.Table) -> int:
        if shard.num_rows == 0:
            return 0
        wid = shard["window_id"].to_numpy()
        val = shard["value"].to_numpy()
        order = np.argsort(wid, kind="stable")
        wid_s, val_s = wid[order], val[order]
        bounds = np.concatenate(
            [[0], np.nonzero(np.diff(wid_s))[0] + 1, [len(wid_s)]]
        )
        for b in range(len(bounds) - 1):
            lo, hi = int(bounds[b]), int(bounds[b + 1])
            w = int(wid_s[lo])
            syn = self.wavelets.get(w)
            if syn is None:
                syn = WaveletSynopsis(self.size)
                self.wavelets[w] = syn
                self.counts[w] = 0
            syn.update_batch(val_s[lo:hi])
            self.counts[w] += hi - lo
        return shard.num_rows

    def collect_below(self, threshold: int) -> dict:
        """Pop and return every held window with id < threshold — O(open
        windows), never an enumeration of the id range (epoch-scale window
        ids make ``range(0, watermark // size)`` a multi-million-entry list
        on the very first close)."""
        out = {}
        for w in [w for w in self.wavelets if w < threshold]:
            syn = self.wavelets.pop(w)
            cnt = self.counts.pop(w, 0)
            out[w] = (syn.to_bytes(), cnt)
        return out


class StreamingWaveletJob:
    """Streaming wavelet job: sequential order-and-index chain -> P builder
    actors -> watermark-closed DistributedWaveletsManager emission."""

    def __init__(
        self,
        window: TumblingWindow,
        out_dir: str,
        size: int = 1024,
        parallelism: int = 4,
        key: KeySpec | None = None,
        columns: list[str] | None = None,
        mini_batch: int | None = None,
    ):
        self.window = window
        self.size = size
        self.parallelism = parallelism
        self.key = key or KeySpec("turn_idx", "value")
        self.columns = columns
        self.mini_batch = mini_batch
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.builders = [
            WaveletBuilderActor.remote(p, size) for p in range(parallelism)
        ]
        self.watermark = _NEG_INF
        self.closed_through = _NEG_INF
        self.total_rows = 0
        self.total_late = 0

    def _close(self, fragment_idx: int, wm: int | None = None) -> int:
        size_us = self.window.size_us
        if wm is None:
            wm = self.watermark
        if wm == _NEG_INF:
            return 0
        close_until = wm // size_us  # windows with end <= wm
        # pop every held window id < close_until from each builder
        maps = ray.get(
            [b.collect_below.remote(close_until) for b in self.builders]
        )
        self.closed_through = close_until
        all_wids = sorted({w for m in maps for w in m})
        if not all_wids:
            return 0
        ws, we, nr, payloads = [], [], [], []
        for w in all_wids:
            mgr = DistributedWaveletsManager(0, None)
            n = 0
            for p in range(self.parallelism):
                entry = maps[p].get(w)
                if entry is None:
                    mgr.add_synopsis(WaveletSynopsis(self.size))
                else:
                    mgr.add_synopsis(Synopsis.from_bytes(entry[0]))
                    n += entry[1]
            ws.append(w * size_us)
            we.append(w * size_us + size_us)
            nr.append(n)
            payloads.append(mgr.to_bytes())
        out = pa.table(
            {
                "window_start": pa.array(ws, type=pa.int64()),
                "window_end": pa.array(we, type=pa.int64()),
                "n_rows": pa.array(nr, type=pa.int64()),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )
        emit_path = os.path.join(self.out_dir, f"emit-f{fragment_idx:05d}.parquet")
        tmp = emit_path + f".tmp-{os.getpid()}"
        pq.write_table(out, tmp)
        os.replace(tmp, emit_path)
        return out.num_rows

    def run(self, fragment_paths: list[str], final_flush: bool = True) -> dict:
        manifest_path = os.path.join(self.out_dir, "manifest.jsonl")
        split = ray.remote(num_returns=2 + self.parallelism)(
            _split_wavelet_fragment
        )
        counters_ref = ray.put({})
        size_us = self.window.size_us
        emitted = 0
        # submit the whole chain up front — splits pipeline behind the
        # sequential counter dependency, builders ingest as shards arrive
        pending = []
        wm = self.watermark
        metas = []
        for k, path in enumerate(fragment_paths):
            refs = split.remote(
                path, counters_ref, self.parallelism, size_us, wm, self.key,
                self.columns, self.mini_batch,
            )
            meta_ref, counters_ref, shard_refs = refs[0], refs[1], refs[2:]
            ing = [
                b.ingest.remote(s) for b, s in zip(self.builders, shard_refs)
            ]
            # NOTE: the carry-in watermark for the late rule is only known
            # after the previous meta resolves; resolve sequentially
            meta = ray.get(meta_ref)
            ray.get(ing)
            self.total_rows += meta["n_rows"]
            self.total_late += meta["n_late"]
            self.watermark = max(self.watermark, meta["frag_max_ts"])
            wm = self.watermark
            emitted += self._close(k)
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
        if final_flush and self.watermark > _NEG_INF:
            # local flush horizon only — mutating self.watermark would make
            # a continuation run() late-drop a full window span of rows
            emitted += self._close(
                len(fragment_paths), wm=self.watermark + size_us + 1
            )
        return {
            "rows": self.total_rows,
            "late_dropped": self.total_late,
            "windows_emitted": emitted,
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
                pa.table(
                    {
                        "window_start": pa.array([], type=pa.int64()),
                        "window_end": pa.array([], type=pa.int64()),
                        "n_rows": pa.array([], type=pa.int64()),
                        "payload": pa.array([], type=pa.binary()),
                    }
                )
            )
        return rd.read_parquet(files)

    def shutdown(self) -> None:
        for b in self.builders:
            ray.kill(b)
        self.builders = []
