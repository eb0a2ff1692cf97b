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

Close cycle: a window closes when watermark >= window end.  Each builder
pops its closed sub-wavelets, and one task assembles the managers and writes
the emission file, off the driver thread.  The per-window ordinal counters
live on the job, so a later ``run()`` continues the stream.

Per-row ordering invariant: within a fragment rows are taken in
(ts, conv_id, turn_idx) order, nulls last — ``ordered.turn_order``, the
helper the batch path sorts with too — so on a no-late, fragment-sorted
stream the streaming managers are bit-identical to the batch
``build_windowed_wavelets`` output.
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..config import KeySpec
from ..stages.extract import KeyExtractor, ts_to_us
from ..synopses.wavelets import DistributedWaveletsManager, WaveletSynopsis
from ..windows import TumblingWindow
from .driver import NEG_INF as _NEG_INF, FragmentStreamJob
from .emit import write_atomic
from .ordered import turn_order


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


_split_wavelet_task = ray.remote(_split_wavelet_fragment)


@ray.remote
def _close_wavelet_windows(emit_path: str, size_us: int, size: int, *maps) -> int:
    """Assemble one DistributedWaveletsManager per closed window from the
    builders' sub-wavelets (``collect_below`` maps, one per builder) and
    write them atomically.  Returns the number of windows emitted."""
    wids = sorted({w for m in maps for w in m})
    if not wids:
        return 0
    # a builder without the window contributes an empty sub-wavelet (a fresh
    # bytes object each: pickle would memoize a shared one)
    parts = [[m.get(w) or (WaveletSynopsis(size).to_bytes(), 0) for m in maps]
             for w in wids]
    nr = [sum(n for _, n in p) for p in parts]
    payloads = [DistributedWaveletsManager.payload(p) for p in parts]
    starts = np.asarray(wids, dtype=np.int64) * size_us
    return write_atomic(emit_path, pa.table({
        "window_start": pa.array(starts, type=pa.int64()),
        "window_end": pa.array(starts + size_us, type=pa.int64()),
        "n_rows": pa.array(nr, type=pa.int64()),
        "payload": pa.array(payloads, type=pa.binary()),
    }))


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


class StreamingWaveletJob(FragmentStreamJob):
    """Streaming wavelet job: sequential order-and-index chain -> P builder
    actors -> watermark-closed DistributedWaveletsManager emission."""

    late_at_ingest = False
    emit_schema = pa.schema([
        ("window_start", pa.int64()), ("window_end", pa.int64()),
        ("n_rows", pa.int64()), ("payload", pa.binary()),
    ])

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
        super().__init__(out_dir, [
            WaveletBuilderActor.remote(p, size) for p in range(parallelism)
        ])
        # per-window ordinal counters: each split takes its predecessor's
        # output, so the global ordering is a Ray dependency chain
        self.counters = ray.put({})

    def run(self, fragment_paths: list[str], final_flush: bool = True) -> dict:
        return self._run(fragment_paths, final_flush=final_flush, lookahead=1)

    def _split(self, k: int, path: str, wm: int) -> list:
        meta, self.counters, *shards = _split_wavelet_task.options(
            num_returns=2 + self.parallelism
        ).remote(
            path, self.counters, self.parallelism, self.window.size_us, wm,
            self.key, self.columns, self.mini_batch,
        )
        return [meta, *shards]

    def _close(self, wm: int, idx: int):
        maps = [b.collect_below.remote(wm // self.window.size_us) for b in self.stores]
        return _close_wavelet_windows.remote(
            self.emit_path(idx), self.window.size_us, self.size, *maps,
        )

    def _flush_wm(self) -> int:
        return self.watermark + self.window.size_us + 1
