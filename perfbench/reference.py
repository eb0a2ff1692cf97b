"""Reference results for the benchmark's output checks.

Everything here runs in the benchmark process, without Ray, from the same
fragment files the engines read.  Keys are hashed by an independent
pure-Python ``String.hashCode`` and windows are assigned directly from the
row timestamps, so a fault in the engines' partitioning, slicing, late rule
or merging shows up as a mismatch.  The per-window synopses are recomputed
with ``condor_ray.synopses`` in one pass over each window's rows.

The late rule is the engines' documented one: a fragment's carry-in
watermark is the maximum ``ts`` of all earlier fragments, and a row is late
(dropped) when the slice holding it ends at or before that watermark.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

NEG_INF = -(2**62)


def java_hash(s: str) -> int:
    """``java.lang.String.hashCode`` of an ASCII/BMP string, as int32."""
    h = 0
    for ch in s:
        h = (31 * h + ord(ch)) & 0xFFFFFFFF
    return h - (1 << 32) if h >= 1 << 31 else h


@dataclass
class Fragment:
    ts: np.ndarray  # int64 epoch microseconds, arrival order
    key: np.ndarray  # int32 java hash of conv_id
    value: np.ndarray | None  # float64 turn_idx (wavelet input), if read


def load_fragments(paths: list[str], with_value: bool = False) -> list[Fragment]:
    cols = ["conv_id", "ts"] + (["turn_idx"] if with_value else [])
    out = []
    for p in paths:
        t = pq.read_table(p, columns=cols)
        conv = t["conv_id"].combine_chunks().dictionary_encode()
        lut = np.array(
            [java_hash(s) for s in conv.dictionary.to_pylist()], dtype=np.int32
        )
        key = lut[conv.indices.to_numpy(zero_copy_only=False).astype(np.int64)]
        ts = t["ts"].combine_chunks().cast(pa.int64()).to_numpy()
        val = (
            t["turn_idx"].to_numpy().astype(np.float64) if with_value else None
        )
        out.append(Fragment(ts, key, val))
    return out


def drop_late(frags: list[Fragment], slice_us: int) -> tuple[Fragment, int]:
    """Concatenate the on-time rows of every fragment; return them with the
    number of late rows."""
    wm = NEG_INF
    keep_ts, keep_key, keep_val, n_late = [], [], [], 0
    for f in frags:
        on_time = (f.ts // slice_us + 1) * slice_us > wm
        n_late += int(len(f.ts) - on_time.sum())
        keep_ts.append(f.ts[on_time])
        keep_key.append(f.key[on_time])
        if f.value is not None:
            keep_val.append(f.value[on_time])
        if len(f.ts):
            wm = max(wm, int(f.ts.max()))
    cat = lambda xs, dt: np.concatenate(xs) if xs else np.empty(0, dt)  # noqa: E731
    merged = Fragment(
        cat(keep_ts, np.int64),
        cat(keep_key, np.int32),
        cat(keep_val, np.float64) if keep_val else None,
    )
    return merged, n_late


def window_groups(rows: Fragment, size_us: int, slide_us: int):
    """Yield ``(window_start, keys, values)`` for every window holding at
    least one row, in ascending start order.  Windows start at multiples of
    ``slide_us`` and span ``size_us`` (tumbling: slide == size)."""
    if size_us % slide_us:
        raise ValueError("window size must be a multiple of the slide")
    per_row = size_us // slide_us
    base = rows.ts // slide_us
    wid = np.concatenate([base - r for r in range(per_row)])
    keys = np.tile(rows.key, per_row)
    vals = np.tile(rows.value, per_row) if rows.value is not None else None
    order = np.argsort(wid, kind="stable")
    wid = wid[order]
    keys = keys[order]
    vals = vals[order] if vals is not None else None
    cuts = np.flatnonzero(np.r_[True, wid[1:] != wid[:-1]]) if len(wid) else []
    bounds = list(cuts) + [len(wid)]
    for i in range(len(cuts)):
        lo, hi = bounds[i], bounds[i + 1]
        yield int(wid[lo]) * slide_us, keys[lo:hi], (
            vals[lo:hi] if vals is not None else None
        )


def read_emits(out_dir: str, columns: list[str]) -> pa.Table:
    """All emission files of a job, concatenated in file order."""
    files = sorted(
        os.path.join(out_dir, f)
        for f in os.listdir(out_dir)
        if f.startswith("emit-") and f.endswith(".parquet")
    )
    if not files:
        return pa.table({c: pa.array([], type=pa.int64()) for c in columns})
    return pa.concat_tables([pq.read_table(f, columns=columns) for f in files])


def _synopsis_state(syn) -> np.ndarray:
    """The counters a merge must reproduce exactly."""
    from condor_ray.synopses import CountMinSketch, HyperLogLogSketch

    if isinstance(syn, CountMinSketch):
        return syn.array
    if isinstance(syn, HyperLogLogSketch):
        return syn.registers
    raise TypeError(f"no exact state for {type(syn).__name__}")


def check_mergeable(
    emitted: pa.Table,
    frags: list[Fragment],
    size_us: int,
    slide_us: int,
    make_synopsis,
    late_reported: int,
    lower_bound_windows: int = 16,
) -> tuple[list[str], Fragment, int | None]:
    """Compare a mergeable job's emitted windows with a direct recomputation.

    Checks the window set, each window's row count, the late-drop total and
    the synopsis counters (Count-Min arrays, HLL registers); for up to
    ``lower_bound_windows`` evenly spaced Count-Min windows also checks that
    no point estimate is below the exact count.  Returns the mismatches, the
    on-time rows and the start of the latest window (``None`` if none)."""
    from condor_ray.synopses import CountMinSketch, Synopsis

    slice_us = int(np.gcd(size_us, slide_us))
    rows, n_late = drop_late(frags, slice_us)
    bad: list[str] = []
    if n_late != late_reported:
        bad.append(f"late rows: engine {late_reported}, reference {n_late}")

    starts = emitted["window_start"].to_numpy()
    if len(np.unique(starts)) != len(starts):
        bad.append("a window was emitted more than once")
    by_start = {int(s): i for i, s in enumerate(starts)}
    ends = emitted["window_end"].to_numpy()
    n_rows = emitted["n_rows"].to_numpy()
    payloads = emitted["payload"]

    ref_windows = list(window_groups(rows, size_us, slide_us))
    ref_starts = {ws for ws, _, _ in ref_windows}
    extra = sorted(set(by_start) - ref_starts)
    if extra:
        bad.append(f"{len(extra)} emitted windows hold no on-time rows, e.g. {extra[0]}")
    step = max(1, len(ref_windows) // max(1, lower_bound_windows))
    for j, (ws, keys, _) in enumerate(ref_windows):
        i = by_start.get(ws)
        if i is None:
            bad.append(f"window {ws} missing")
            continue
        if int(ends[i]) != ws + size_us:
            bad.append(f"window {ws}: end {int(ends[i])} != {ws + size_us}")
        if int(n_rows[i]) != len(keys):
            bad.append(f"window {ws}: n_rows {int(n_rows[i])} != {len(keys)}")
        got = Synopsis.from_bytes(payloads[i].as_py())
        want = make_synopsis()
        want.update_batch(keys)
        if not np.array_equal(_synopsis_state(got), _synopsis_state(want)):
            bad.append(f"window {ws}: synopsis counters differ from recomputation")
        if isinstance(got, CountMinSketch) and j % step == 0:
            uniq, exact = np.unique(keys, return_counts=True)
            if (got.query_batch(uniq) < exact).any():
                bad.append(f"window {ws}: Count-Min estimate below exact count")
    return bad, rows, (ref_windows[-1][0] if ref_windows else None)


def latest_window_keys(rows: Fragment, size_us: int, latest_start: int) -> np.ndarray:
    """Keys of the on-time rows of the tumbling window at ``latest_start``."""
    m = (rows.ts >= latest_start) & (rows.ts < latest_start + size_us)
    return rows.key[m]


def check_wavelet(
    emitted: pa.Table, frags: list[Fragment], size_us: int, late_reported: int
) -> list[str]:
    """Per-window row counts of a tumbling wavelet job must be exact, every
    payload must decode, and its builders' element counts must add up to
    the window's rows."""
    from condor_ray.synopses import Synopsis

    rows, n_late = drop_late(frags, size_us)
    bad: list[str] = []
    if n_late != late_reported:
        bad.append(f"late rows: engine {late_reported}, reference {n_late}")
    wid = rows.ts // size_us
    ref_w, ref_n = np.unique(wid, return_counts=True)
    ref = {int(w) * size_us: int(n) for w, n in zip(ref_w, ref_n)}
    starts = emitted["window_start"].to_numpy()
    n_rows = emitted["n_rows"].to_numpy()
    if len(np.unique(starts)) != len(starts):
        bad.append("a window was emitted more than once")
    got = {int(s): int(n) for s, n in zip(starts, n_rows)}
    if set(got) != set(ref):
        bad.append(
            f"window sets differ: {len(set(got) - set(ref))} extra, "
            f"{len(set(ref) - set(got))} missing"
        )
    for ws, n in ref.items():
        if ws in got and got[ws] != n:
            bad.append(f"window {ws}: n_rows {got[ws]} != {n}")
    for i, payload in enumerate(emitted["payload"].to_pylist()):
        mgr = Synopsis.from_bytes(payload)
        counted = int(mgr.elements_processed)
        if counted != int(n_rows[i]):
            bad.append(
                f"window {int(starts[i])}: builders hold {counted} elements, "
                f"n_rows says {int(n_rows[i])}"
            )
    return bad
