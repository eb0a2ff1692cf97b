"""The fragment-stream driver: the one stream loop behind all six streaming
engines (synopsis, sessions, CEP, as-of join, stream-stream join, wavelets).

A stream is an ordered list of Parquet fragment files; fragment order is
arrival order.  ``FragmentStreamJob`` walks it.  Each engine subclasses it
and supplies only its own parts:

- ``_split(k, path, wm)`` submits fragment k's split task and returns
  ``[meta_ref, *shard_refs]``, one shard per state actor.  ``meta`` holds
  ``n_rows``, ``frag_max_ts``, optionally ``frag_min_ts``, and ``n_late``
  when the split applies the late rule (``late_at_ingest = False``).
- ``_ingest(k, shards, wm)`` submits the actors' ingest calls (an engine
  that keeps its state as object refs keeps the shards instead), and
  ``_resolved(k, meta)`` sees each meta once it resolves.
- ``_close(wm, idx)`` submits one close cycle at watermark ``wm`` and returns
  a ref to the number of rows it emits, or None.  Most engines pass their
  actors' close tables to ``_emit``, the shared atomic sink.
- ``parallelism`` (a checkpoint resumes only at the same value),
  ``_flush_wm()`` (the end-of-input close horizon), ``emit_prefix``,
  ``emit_sort``, ``emit_schema``, ``emitted_key``, and ``_summary(stats)``
  over the results of each actor's ``stats_call`` (submitted before the
  final drain and resolved with it).

The driver owns the rest:

- **Cursor**: ``next_fragment``, ``watermark``, ``min_ts``, the totals and
  ``flushed``.  ``run()`` continues from the cursor.  A final flush closes
  the open windows partial, so it ends the stream: a later ``run()`` raises
  RuntimeError.  Only a dispatched flush does this, not a run without rows.
- **Watermarks**: fragment k's carry-in watermark is the max ts over
  fragments < k, the prefix max of resolved metas.  With two inputs (the
  join) it is the minimum of the per-input maxima, Flink's two-input rule.
- **Lookahead**: fragments k..k+lookahead-1 are submitted while k resolves.
  Watermark-free splits (late rule at ingest) only prefetch: each ingest goes
  out in order with the resolved carry-in watermark.  A split that applies
  the late rule feeds its actors at once; running ahead, its carry-in
  watermark comes from the footer statistics (``fragment_ts_stats``, read
  in-process), which give the same maxima.  A checkpointed run must not run
  ahead: a snapshot would hold later fragments.
- **Sink**: close cycles are async tasks that write ``emit_path(k)``
  (``{prefix}-f{k:05d}.parquet``) atomically, so a replayed fragment rewrites
  byte-identical files.  Emits drain every 32 and before each checkpoint;
  ``last_emits`` lists the files the last ``run()`` wrote (its closes that
  emitted rows), in close order, and ``emitted_closes`` the indices of
  every close of the job that wrote one (part of the cursor).
- **Manifest**: ``manifest.jsonl`` gets one line per fragment
  ``{fragment, path, rows, late_dropped, watermark}`` and, at the end of
  every ``run()``, a summary line; ``run()`` returns its fields plus
  ``fragments``.
- **Checkpoint/resume** (with ``checkpoint_dir``): every
  ``checkpoint_every`` fragments the engine's state (``_save_state``: the
  actor snapshots by default) and the cursor go to
  ``ckpt-{next_fragment:05d}``; ``resume()`` restores the newest
  (``_load_state``) and cuts the manifest back to it (``checkpoint.py``).
- The final flush, ``result_dataset()`` (the files of ``emitted_closes``;
  typed and empty when nothing was emitted) and ``shutdown()``.
- **CPU guard**: each state actor reserves ``ACTOR_CPUS``.  When the actors
  leave less than one CPU of the session for the split and close tasks,
  the constructor kills them and raises ValueError instead of hanging.
"""

from __future__ import annotations

import json
import os
import shutil
from itertools import zip_longest

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..runtime import cluster_cpus
from ..stages.extract import ts_to_us
from .checkpoint import latest_checkpoint, prune_checkpoints, truncate_manifest
from .emit import atomic_emit

NEG_INF = -(2**62)
POS_INF = 2**62
_DRAIN_EVERY = 32
# the CPU each state actor reserves; the split and close tasks need one
# whole CPU beside the actors, or they never start
ACTOR_CPUS = 0.5


def fragment_ts_stats(path: str) -> tuple[int, int]:
    """(min_ts, max_ts) of one fragment, in the units of ``ts_to_us``.

    Served from the Parquet footer's row-group statistics when every row
    group carries them (exact for int64-physical timestamp columns, and
    O(footer) instead of decoding the ts column).  Falls back to the column
    read when any row group lacks min/max.  ``(POS_INF, NEG_INF)`` when empty."""
    pf = pq.ParquetFile(path)
    md = pf.metadata

    def column_read() -> tuple[int, int]:
        ts = ts_to_us(pf.read(columns=["ts"])["ts"])
        return (int(ts.min()), int(ts.max())) if len(ts) else (POS_INF, NEG_INF)

    # the Parquet LEAF column index differs from the Arrow field index when
    # nested columns precede ts
    idx = next(
        (i for i in range(md.num_columns) if md.schema.column(i).path == "ts"), None
    )
    if idx is None:
        return column_read()
    mins: list = []
    maxs: list = []
    for rg in range(md.num_row_groups):
        g = md.row_group(rg)
        if g.num_rows == 0:
            continue
        st = g.column(idx).statistics
        if st is None or not st.has_min_max:
            return column_read()
        mins.append(st.min)
        maxs.append(st.max)
    if not mins:
        return (POS_INF, NEG_INF)
    ts_type = md.schema.to_arrow_schema().field("ts").type
    us = ts_to_us(pa.array(mins + maxs, type=ts_type))
    return (int(us[: len(mins)].min()), int(us[len(mins) :].max()))


_ts_stats_task = ray.remote(fragment_ts_stats)


def _footer_watermarks(paths: list[str], base: int, wm0: int):
    """``carry_in(i)``: max(wm0, max ts of paths[base:i]) from footer statistics.
    Each footer is read in-process, the first time a carry-in needs it (a
    read costs far less than a task round trip), so the first split waits on
    one footer read, never on a whole-stream metadata prescan.  No carry-in
    reads the last fragment's footer, so it is never read."""
    wms = [wm0]

    def carry_in(i: int) -> int:
        while len(wms) <= i - base:
            wms.append(max(wms[-1], fragment_ts_stats(paths[base + len(wms) - 1])[1]))
        return wms[i - base]

    return carry_in


def interleave(*streams: list[str]) -> tuple[list[str], list[int]]:
    """One arrival schedule from several ts-ordered fragment streams,
    fragment i of each stream in turn: the paths, and each one's input."""
    pairs = [(p, s) for row in zip_longest(*streams) for s, p in enumerate(row) if p]
    return [p for p, _ in pairs], [s for _, s in pairs]


class FragmentStreamJob:
    """Base of the streaming engines; see the module docstring."""

    late_at_ingest = True  # False: the split applies the late rule
    inputs = 1  # input streams sharing the watermark (the join has two)
    emit_prefix = "emit"
    emit_sort: list[tuple[str, str]] | None = None
    emit_schema: pa.Schema
    emitted_key = "windows_emitted"
    stats_call: str | None = None  # the actor method ``_summary`` reads
    cursor_fields = ("next_fragment", "watermark", "min_ts", "total_late", "total_rows",
                     "emitted_closes")

    def __init__(self, out_dir: str, stores: list, checkpoint_dir: str | None = None,
                 checkpoint_every: int = 4):
        if stores and cluster_cpus() - ACTOR_CPUS * len(stores) < 1:
            for s in stores:
                ray.kill(s)
            raise ValueError(
                f"{len(stores)} state actors of {ACTOR_CPUS} CPU each leave less "
                f"than one of the session's {cluster_cpus()} CPUs for the split "
                "and close tasks, which would never start: lower the parallelism"
            )
        self.out_dir = out_dir
        self.stores = stores
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        os.makedirs(out_dir, exist_ok=True)
        if checkpoint_dir:
            os.makedirs(checkpoint_dir, exist_ok=True)
        self.next_fragment = 0
        self.watermark = NEG_INF
        self._input_wm = [NEG_INF] * self.inputs
        self.min_ts = POS_INF
        self.total_rows = 0
        self.total_late = 0
        self.flushed = False
        self.last_emits: list[str] = []
        self.emitted_closes: list[int] = []

    def emit_path(self, idx: int) -> str:
        """The file close cycle ``idx`` writes."""
        return os.path.join(self.out_dir, f"{self.emit_prefix}-f{idx:05d}.parquet")

    # -- engine hooks (see the module docstring) ----------------------------
    def _ingest(self, k: int, shards: list, wm: int) -> list:
        args = (wm,) if self.late_at_ingest else ()
        return [s.ingest.remote(sh, *args) for s, sh in zip(self.stores, shards)]

    def _resolved(self, k: int, meta: dict) -> None:
        """Fragment k's split meta has resolved."""

    def _flush_wm(self) -> int:
        return POS_INF

    def _summary(self, stats: list) -> dict:
        return {}

    def _input_of(self, k: int) -> int:
        return 0

    def _emit(self, idx: int, tables: list):
        return atomic_emit.remote(self.emit_path(idx), self.emit_sort, *tables)

    # -- the loop ------------------------------------------------------------
    def _run(self, paths: list[str], resume: bool = False, final_flush: bool = True,
             lookahead: int = 4) -> dict:
        if self.flushed:
            raise RuntimeError(
                f"{type(self).__name__}.run() after a final flush: the flush "
                "already emitted the open windows; start a new job instead"
            )
        if resume:
            self.resume()
        base, n = self.next_fragment, len(paths)
        carry_in = None
        if lookahead > 1 and not self.late_at_ingest:
            carry_in = _footer_watermarks(paths, base, self.watermark)
        manifest = os.path.join(self.out_dir, "manifest.jsonl")
        inflight: dict[int, list] = {}
        emits: list = []  # (close idx, count ref or None)
        emitted = 0
        self.last_emits = []
        for k in range(base, n):
            for i in range(k, min(k + lookahead, n)):
                if i not in inflight:
                    wm = carry_in(i) if carry_in else self.watermark
                    refs = self._split(i, paths[i], wm)
                    if not self.late_at_ingest:
                        refs = [refs[0], *self._ingest(i, refs[1:], wm)]
                    inflight[i] = refs
            refs = inflight.pop(k)
            if self.late_at_ingest:
                refs = [refs[0], *self._ingest(k, refs[1:], self.watermark)]
            meta, *done = ray.get(refs)
            self._resolved(k, meta)
            late = sum(done) if self.late_at_ingest else meta["n_late"]
            self.total_rows += meta["n_rows"]
            self.total_late += late
            self.min_ts = min(self.min_ts, meta.get("frag_min_ts", POS_INF))
            s = self._input_of(k)
            self._input_wm[s] = max(self._input_wm[s], meta["frag_max_ts"])
            self.watermark = min(self._input_wm)
            if self.watermark > NEG_INF:
                emits.append((k, self._close(self.watermark, k)))
            self._log(manifest, {
                "fragment": k, "path": os.path.basename(paths[k]),
                "rows": meta["n_rows"], "late_dropped": late,
                "watermark": self.watermark,
            })
            self.next_fragment = k + 1
            if self.checkpoint_dir and self.next_fragment % self.checkpoint_every == 0:
                emitted += self._drain(emits)[0]
                self._checkpoint()
            elif len(emits) >= _DRAIN_EVERY:
                emitted += self._drain(emits)[0]
        if final_flush and max(self._input_wm) > NEG_INF:
            # a local horizon: self.watermark stays the true max-seen ts
            emits.append((n, self._close(self._flush_wm(), n)))
            self.flushed = True
        call = self.stats_call
        stats = [getattr(s, call).remote() for s in self.stores] if call else []
        tail, stats = self._drain(emits, stats)
        summary = {"summary": True, self.emitted_key: emitted + tail,
                   "rows": self.total_rows, "late_dropped": self.total_late,
                   **self._summary(stats)}
        self._log(manifest, summary)
        del summary["summary"]
        return {**summary, "fragments": self.next_fragment}

    def _drain(self, emits: list, also: list = ()) -> tuple[int, list]:
        """Wait, in one ``ray.get``, for the outstanding ``(idx, ref)`` emits
        (ref None: a close with nothing to emit) and the refs ``also``;
        record the files the emits wrote.  Returns the rows emitted and
        ``also`` resolved."""
        live = [(i, r) for i, r in emits if r is not None]
        got = ray.get([r for _, r in live] + list(also))
        counts = got[: len(live)]
        wrote = [i for (i, _), c in zip(live, counts) if c]
        self.emitted_closes += wrote
        self.last_emits += [self.emit_path(i) for i in wrote]
        emits.clear()
        return sum(counts), got[len(live) :]

    @staticmethod
    def _log(path: str, record: dict) -> None:
        with open(path, "a") as f:
            f.write(json.dumps(record) + "\n")

    # -- checkpoint/resume ---------------------------------------------------
    def _checkpoint(self) -> None:
        name = f"ckpt-{self.next_fragment:05d}"
        tmp = os.path.join(self.checkpoint_dir, ".tmp-" + name)
        final = os.path.join(self.checkpoint_dir, name)
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        self._save_state(tmp)
        meta = {f: getattr(self, f) for f in self.cursor_fields}
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump({**meta, "parallelism": self.parallelism}, f)
        shutil.rmtree(final, ignore_errors=True)
        os.rename(tmp, final)
        prune_checkpoints(self.checkpoint_dir)

    def _save_state(self, tmp: str) -> None:
        """Write the engine's state into the checkpoint directory ``tmp``:
        each actor's snapshot as ``part-{p:04d}.bin``."""
        snaps = ray.get([s.snapshot.remote() for s in self.stores])
        for p, blob in enumerate(snaps):
            with open(os.path.join(tmp, f"part-{p:04d}.bin"), "wb") as f:
                f.write(blob)

    def _load_state(self, path: str) -> None:
        """Restore what ``_save_state`` wrote into ``path``."""
        futs = []
        for p, store in enumerate(self.stores):
            with open(os.path.join(path, f"part-{p:04d}.bin"), "rb") as f:
                futs.append(store.restore.remote(f.read()))
        ray.get(futs)

    def resume(self) -> bool:
        """Restore the newest checkpoint; returns True if one was found."""
        path = latest_checkpoint(self.checkpoint_dir) if self.checkpoint_dir else None
        if path is None:
            return False
        with open(os.path.join(path, "meta.json")) as f:
            meta = json.load(f)
        if meta["parallelism"] != self.parallelism:
            raise ValueError("cannot resume with a different parallelism")
        self._load_state(path)
        for f in self.cursor_fields:
            if f in meta:
                setattr(self, f, meta[f])
        self._input_wm = [self.watermark] * self.inputs
        truncate_manifest(self.out_dir, self.next_fragment)
        return True

    # -- output and teardown -------------------------------------------------
    def result_dataset(self):
        import ray.data as rd

        files = [self.emit_path(i) for i in self.emitted_closes]
        if not files:  # read_parquet([]) raises
            return rd.from_arrow(self.emit_schema.empty_table())
        return rd.read_parquet(files)

    def shutdown(self) -> None:
        for s in self.stores:
            ray.kill(s)
        self.stores = []
