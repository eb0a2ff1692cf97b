"""Order-based (non-mergeable) synopsis path: windowed Haar wavelets.

Reference plan (``buildScottyNonMergeable``, conn/.../processor/
SynopsisBuilder.java:345-362): a parallelism-1 ``OrderAndIndex`` operator
assigns round-robin keys in timestamp order (conn/.../processor/divide/
OrderAndIndex.java:13-68), P keyed wavelet builders consume their substream,
and a unifier collects the P partials into a ``DistributedWaveletsManager``
whose index arithmetic (synopsis = i % P, local = i // P) reconstructs global
stream positions.

Ray-Data-first version: the ordering invariant is made EXPLICIT instead of
relying on arrival order — within each window, rows are sorted by
``(ts, conv_id, turn_idx)`` (the stable per-turn order of the BASELINE
per-row invariant), then round-robin split into P wavelets.  Windows build in
parallel, one fused task per ``window_id % n_parts`` partition; the
round-robin split follows the reference's index contract so point/range
queries agree with a sequential build.  FiFo / biased samplers (timestamped
path) reuse the mergeable engine since their merge handles ordering by
timestamp.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..config import KeySpec
from ..runtime import cluster_cpus
from ..stages.extract import KeyExtractor, stable_partition_order, ts_to_us
from ..synopses.wavelets import DistributedWaveletsManager, WaveletSynopsis
from ..windows import TumblingWindow
from .driver import _ts_stats_task


def _shard_wavelet_block(
    tbl: pa.Table, n_parts: int, size_us: int, key_spec: KeySpec
):
    """One input block -> n_parts shards routed by window_id % n_parts.
    Carries only (window_id, ts, conv_id, turn_idx, value) onto the wire."""
    if isinstance(tbl, pd.DataFrame):  # Ray Data blocks may be pandas
        tbl = pa.Table.from_pandas(tbl, preserve_index=False)
    if tbl.num_rows == 0 or "ts" not in tbl.schema.names:
        # zero-row blocks can arrive schemaless (no columns at all)
        empty = pa.table(
            {
                "window_id": pa.array([], type=pa.int64()),
                "ts": pa.array([], type=pa.int64()),
                "conv_id": pa.array([], type=pa.string()),
                "turn_idx": pa.array([], type=pa.int64()),
                "value": pa.array([], type=pa.float64()),
            }
        )
        return tuple(empty for _ in range(n_parts))
    ts = ts_to_us(tbl["ts"])
    values = KeyExtractor(key_spec)(tbl).astype(np.float64)
    wid = ts // size_us
    turn = tbl["turn_idx"].to_numpy()
    conv = tbl["conv_id"]
    if isinstance(conv, pa.ChunkedArray):
        conv = conv.combine_chunks()
    part = wid % n_parts
    order = stable_partition_order(part, n_parts)
    bounds = np.searchsorted(part[order], np.arange(n_parts + 1))
    out = []
    for q in range(n_parts):
        sel = order[bounds[q] : bounds[q + 1]]
        out.append(
            pa.table(
                {
                    "window_id": pa.array(wid[sel], type=pa.int64()),
                    "ts": pa.array(ts[sel], type=pa.int64()),
                    "conv_id": conv.take(pa.array(sel)),
                    "turn_idx": pa.array(turn[sel]),
                    "value": pa.array(values[sel], type=pa.float64()),
                }
            )
        )
    return tuple(out)


def _shard_wavelet_fragment(
    path: str,
    columns: list[str] | None,
    n_parts: int,
    size_us: int,
    key_spec: KeySpec,
):
    """Path-based shard task: reads the fragment itself (one pruned
    pq.read_table) instead of receiving a block from a Ray Data read stage
    — skips the ReadParquet operator's block-build + object-store round
    trip, which dominated the job once the build kernel got cheap."""
    import pyarrow.parquet as pq

    return _shard_wavelet_block(
        pq.read_table(path, columns=columns), n_parts, size_us, key_spec
    )


_shard_block_task = ray.remote(_shard_wavelet_block)
_shard_fragment_task = ray.remote(_shard_wavelet_fragment)


def build_windowed_wavelets_from_fragments(
    fragment_paths: list[str],
    window: TumblingWindow,
    size: int = 1000,
    parallelism: int = 4,
    key: KeySpec | None = None,
    columns: list[str] | None = None,
    wave_fragments: int | str | None = "auto",
):
    """Fragment-path binding of ``build_windowed_wavelets`` (bit-identical
    managers): one shard task per fragment reads + routes in a single hop,
    one fused build task per window partition.  Use when the input is
    already a list of Parquet fragments (the streaming engines' source
    shape); arbitrary Datasets go through ``build_windowed_wavelets``.

    ``wave_fragments``: process fragments in bounded waves (default auto =
    4×CPU fragments/wave, engaged only when the stream is longer than one
    wave).  A cheap footer-stats pass yields each fragment's min ts; after
    wave *i*, every window older than the min ts of the REMAINING fragments
    is complete and is built + released immediately, with only open-window
    rows carried into the next wave's per-partition task.  In-flight shard
    bytes drop from O(stream) to O(wave + open windows) — at 600 M rows the
    single-shot path held ~26 GB of shards and spilled.  ``None`` forces the
    single-shot path.  Wave order is time order; out-of-order fragment lists
    degrade gracefully (threshold stops advancing) but stay correct."""
    key = key or KeySpec("text", "length")
    size_us = window.size_us
    n_parts = max(2, 2 * cluster_cpus())
    if wave_fragments == "auto":
        wave_fragments = 4 * cluster_cpus()
    if wave_fragments is not None and len(fragment_paths) > wave_fragments:
        return _build_wavelets_waved(
            fragment_paths, columns, n_parts, size_us, size,
            parallelism, key, int(wave_fragments),
        )
    shard = _shard_fragment_task.options(num_returns=n_parts)
    return _build_partitions(
        [shard.remote(path, columns, n_parts, size_us, key) for path in fragment_paths],
        size_us, size, parallelism,
    )


def _build_partitions(shard_refs: list, size_us: int, size: int, parallelism: int):
    """One fused build task per window partition over every shard task's
    output for it (``shard_refs``: one ``n_parts``-tuple of refs per task)."""
    import ray.data as rd

    out_refs = [
        _build_partition_task.remote(size_us, size, parallelism, *part)
        for part in zip(*shard_refs)
    ]
    if not out_refs:
        out_refs = [_build_partition_task.remote(size_us, size, parallelism)]
    return rd.from_arrow_refs(out_refs)


def _build_wavelets_waved(
    paths: list[str],
    columns,
    n_parts: int,
    size_us: int,
    size: int,
    parallelism: int,
    key: KeySpec,
    wave: int,
):
    """Wave-bounded fragment build (see ``build_windowed_wavelets_from_
    fragments``).  Per wave: shard tasks for the wave's fragments, then one
    chained task per partition that builds complete windows and carries open
    ones forward.  At most ~2 waves of shard outputs are in flight (the
    driver waits on wave i-1's builds before submitting wave i+1)."""
    import ray.data as rd

    stats = _ts_stats_task.options(num_cpus=0.25)
    # footer probes in bounded chunks (not 10^5 simultaneous submissions)
    frag_min: list[int] = []
    for lo in range(0, len(paths), 4 * wave):
        frag_min.extend(
            mn for mn, _ in ray.get([stats.remote(p) for p in paths[lo : lo + 4 * wave]])
        )
    # threshold after wave ending at fragment e = min ts of fragments [e:)
    suffix_min = [2**62] * (len(paths) + 1)
    for i in range(len(paths) - 1, -1, -1):
        suffix_min[i] = min(frag_min[i], suffix_min[i + 1])
    shard = _shard_fragment_task.options(num_returns=n_parts)
    wave_build = _build_wave_task.options(num_returns=2)
    carry: list = [None] * n_parts
    emit_refs: list = []
    prev_waves: list[list] = []
    for lo in range(0, len(paths), wave):
        hi = min(lo + wave, len(paths))
        threshold_wid = (
            2**62 if hi >= len(paths) else suffix_min[hi] // size_us
        )
        refs = [shard.remote(path, columns, n_parts, size_us, key) for path in paths[lo:hi]]
        this_wave = []
        for q, part in enumerate(zip(*refs)):
            out, carry[q] = wave_build.remote(
                threshold_wid, size_us, size, parallelism, carry[q], *part,
            )
            emit_refs.append(out)
            this_wave.append(out)
        prev_waves.append(this_wave)
        if len(prev_waves) > 1:  # bound in-flight shards to ~2 waves
            done_wave = prev_waves.pop(0)
            ray.wait(done_wave, num_returns=len(done_wave), fetch_local=False)
    return rd.from_arrow_refs(emit_refs)


_EMPTY_MANAGER_TABLE = pa.table(
    {
        "window_start": pa.array([], type=pa.int64()),
        "window_end": pa.array([], type=pa.int64()),
        "n_rows": pa.array([], type=pa.int64()),
        "payload": pa.array([], type=pa.binary()),
    }
)


def turn_order(tbl: pa.Table, leading: tuple[str, ...] = ()) -> np.ndarray:
    """Row order of the ordered wavelet path: ascending ``leading`` columns,
    then (ts, conv_id, turn_idx), nulls last.  Shared by the batch build and
    the streaming split so both feed the kernels the same sequence.

    Arrow's native multi-key sort: C++ string compares for the conv_id
    tie-break (6x faster than ``np.lexsort`` on an object array, and
    order-identical: the sort is stable and UTF-8 byte order is code-point
    order).  A null conv_id sorts last instead of failing the comparison."""
    import pyarrow.compute as pc

    keys = (*leading, "ts", "conv_id", "turn_idx")
    return pc.sort_indices(
        tbl, sort_keys=[(k, "ascending") for k in keys]
    ).to_numpy()


def _emit_windows(tbl: pa.Table, size_us: int, size: int, parallelism: int) -> pa.Table:
    """Rows (window_id, ts, conv_id, turn_idx, value) -> one manager row per
    window.  ONE sort establishes every window's (ts, conv_id, turn_idx)
    order, then each window segment round-robin splits into P sub-wavelets
    (C kernel) and assembles its manager — bit-identical to the groupby
    formulation (a sort of any superset of whole windows yields the same
    per-window segment order)."""
    if tbl.num_rows == 0:
        return _EMPTY_MANAGER_TABLE
    order = turn_order(tbl, leading=("window_id",))
    wid_s = tbl["window_id"].to_numpy()[order]
    val_s = tbl["value"].to_numpy()[order]
    bounds = np.concatenate(
        ([0], np.flatnonzero(np.diff(wid_s)) + 1, [len(wid_s)])
    )
    ws, we, nr, payloads = [], [], [], []
    for b in range(len(bounds) - 1):
        lo, hi = int(bounds[b]), int(bounds[b + 1])
        vals = val_s[lo:hi]
        mgr = DistributedWaveletsManager(0, None)
        for p in range(parallelism):
            w = WaveletSynopsis(size)
            w.update_batch(np.ascontiguousarray(vals[p::parallelism]))
            mgr.add_synopsis(w)
        w0 = int(wid_s[lo])
        ws.append(w0 * size_us)
        we.append(w0 * size_us + size_us)
        nr.append(hi - lo)
        payloads.append(mgr.to_bytes())
    return pa.table(
        {
            "window_start": pa.array(ws, type=pa.int64()),
            "window_end": pa.array(we, type=pa.int64()),
            "n_rows": pa.array(nr, type=pa.int64()),
            "payload": pa.array(payloads, type=pa.binary()),
        }
    )


def _build_wavelet_partition(
    size_us: int, size: int, parallelism: int, *tables: pa.Table
) -> pa.Table:
    """Fused per-partition conquer over the partition's FULL row set."""
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return _EMPTY_MANAGER_TABLE
    return _emit_windows(pa.concat_tables(tables), size_us, size, parallelism)


_build_partition_task = ray.remote(_build_wavelet_partition)


def _build_wavelet_wave(
    threshold_wid: int,
    size_us: int,
    size: int,
    parallelism: int,
    carry: pa.Table | None,
    *tables: pa.Table,
):
    """One wave of a partition's conquer: build every COMPLETE window
    (window_id < threshold_wid — no remaining fragment can contribute to
    it), return (manager rows, carryover of still-open-window rows).  The
    carryover chains into the next wave's task, so in-flight shard bytes
    stay O(wave), not O(stream) — the 600 M-row spill fix."""
    import pyarrow.compute as pc

    parts = [t for t in ((carry,) + tables) if t is not None and t.num_rows]
    if not parts:
        return _EMPTY_MANAGER_TABLE, None
    tbl = pa.concat_tables(parts)
    done_mask = pc.less(tbl["window_id"], threshold_wid)
    done = tbl.filter(done_mask)
    keep = tbl.filter(pc.invert(done_mask))
    out = _emit_windows(done, size_us, size, parallelism)
    return out, (keep.combine_chunks() if keep.num_rows else None)


_build_wave_task = ray.remote(_build_wavelet_wave)


def build_windowed_wavelets(
    ds,
    window: TumblingWindow,
    size: int = 1000,
    parallelism: int = 4,
    key: KeySpec | None = None,
):
    """Dataset -> one DistributedWaveletsManager per tumbling window.

    Output: window_start, window_end (int64 us), n_rows, payload (manager).

    An explicit task-based hash exchange: every input block shards by
    ``window_id % n_parts`` (``num_returns`` fan-out straight through the
    object store), and one fused task per partition sorts/builds/assembles
    ALL of its windows with a single sort.  Rows cross the wire exactly once
    and never enter Ray Data's sort-based groupby (whose range-sample +
    per-block sort + merge machinery dominated the job once the C kernel
    made the tree build cheap: 8->32 CPU efficiency fell to 0.43 through the
    global exchange)."""
    key = key or KeySpec("text", "length")
    n_parts = max(2, 2 * cluster_cpus())
    shard = _shard_block_task.options(num_returns=n_parts)
    return _build_partitions(
        [shard.remote(bref, n_parts, window.size_us, key)
         for bundle in ds.iter_internal_ref_bundles() for bref in bundle.block_refs],
        window.size_us, size, parallelism,
    )
