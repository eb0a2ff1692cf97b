"""Batch (bounded-stream) synopsis construction — the Ray-Data-native
equivalent of Condor's ``SynopsisBuilder.build`` mergeable paths.

Physical plan vs the reference (conn/.../processor/SynopsisBuilder.java):
- ``buildFlink`` (:193-245) keys rows by SUBTASK INDEX so each worker holds
  one partial synopsis per window, then merges all partials per window behind
  a parallelism-1 ``windowAll``.  Here, Ray **blocks** are the parallel units:
  ``map_batches`` builds one partial synopsis per (window, stratum) per batch
  (the divide step, no AddParallelismIndex needed), and the conquer step is a
  ``groupby(window_id[, stratum]).map_groups`` merge — an all-to-all shuffle
  whose payload is only #windows x #blocks small sketch rows, NOT the data.
- Scotty stream slicing (conn/.../compute/scotty/SynopsisFunction.java:15-138)
  maps to the slice path: partials are built per gcd-slice once, merged per
  slice, then each slice's merged synopsis is fanned out to every window
  definition that covers it (multiple concurrent windows share one slice
  store, BuildConfiguration.java:23).

Output schema:
    window_kind:str  window_start:int64(us)  window_end:int64(us)
    stratum:str(null)  synopsis_type:str  payload:binary  n_rows:int64
``n_rows`` is the exact per-window row count, carried through the merge — the
free exact metric (SURVEY §2.8) and the SQL-verifiable correctness anchor.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import BuildConfiguration, KeySpec
from ..stages.extract import KeyExtractor, stratum_codes, ts_to_us
from ..synopses.base import Synopsis
from ..synopses.registry import make_synopsis
from ..windows import (
    SlidingWindow,
    TumblingWindow,
    Window,
    windows_of_slice,
)


def _window_kind(w: Window) -> str:
    if isinstance(w, TumblingWindow):
        return f"tumbling_{w.size_ms}"
    if isinstance(w, SlidingWindow):
        return f"sliding_{w.size_ms}_{w.slide_ms}"
    return type(w).__name__


def _common_slice_us(windows: Sequence[Window]) -> int:
    g = 0
    for w in windows:
        if isinstance(w, TumblingWindow):
            g = math.gcd(g, w.size_us)
        elif isinstance(w, SlidingWindow):
            g = math.gcd(g, w.slice_us)
        else:
            raise ValueError(f"slice path supports tumbling/sliding, got {w}")
    return g


class PartialSynopsisBuilder:
    """Actor-pool stage: one partial synopsis per (slice/window, stratum) per
    batch.  State (key extractor hash cache) lives once per actor."""

    def __init__(self, config: BuildConfiguration, slice_us: int):
        self.config = config
        self.slice_us = slice_us
        self.extractor = KeyExtractor(config.key)
        self._proto = make_synopsis(config.synopsis, config.params)

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.config
        out: list[tuple] = []

        def fresh(sid: int, stratum: str, n: int) -> Synopsis:
            syn = make_synopsis(cfg.synopsis, cfg.params)
            if stratum:
                syn.set_partition_value(stratum)
            out.append((sid, stratum, syn, n))
            return syn

        if batch.num_rows:
            values = _element_keys(batch) if cfg.sample_elements else self.extractor(batch)
            update_slices(self._proto, batch, values, self.slice_us, cfg.stratify_by, fresh)
        return partials_table([(s, st, syn.to_bytes(), n) for s, st, syn, n in out])


def update_slices(proto: Synopsis, batch: pa.Table, values: np.ndarray, slice_us: int,
                  stratify_by: str | None, synopsis_for) -> None:
    """Apply the rows of ``batch`` (keyed by ``values``) to one synopsis per
    (slice, stratum) group, groups in (slice, stratum code) order and rows
    in batch order: ``synopsis_for(slice, stratum, n_rows)`` returns each
    group's synopsis.  Hash-then-scatter synopses hash the whole batch once
    through ``proto`` (see ``Synopsis.precompute_batch``)."""
    n = batch.num_rows
    ts = ts_to_us(batch["ts"])
    sid = ts // slice_us
    if stratify_by is not None:
        # stratum key rules (null bucket, "<empty>" escape) live in one
        # shared kernel -- see stages/extract.py:stratum_codes
        codes, labels = stratum_codes(batch[stratify_by])
        gkey = sid * (len(labels) + 1) + codes
    else:
        gkey = sid
    order = np.argsort(gkey, kind="stable")
    bounds = np.concatenate([[0], np.nonzero(np.diff(gkey[order]))[0] + 1, [n]])
    pre = None if proto.timestamped else proto.precompute_batch(values)
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        idx = order[lo:hi]
        stratum = labels[codes[idx[0]]] if stratify_by is not None else ""
        syn = synopsis_for(int(sid[idx[0]]), stratum, hi - lo)
        if pre is not None:
            syn.apply_precomputed(pre, idx)
        elif proto.timestamped:
            syn.update_batch(values[idx], timestamps=ts[idx])
        else:
            syn.update_batch(values[idx])


def _element_keys(batch: pa.Table) -> np.ndarray:
    """Vectorized '{conv_id}:{turn_idx}' element keys (Arrow string join;
    a dictionary-encoded conv_id, as the streaming split reads it, is
    decoded first: the join has no dictionary kernel)."""
    import pyarrow.compute as pc

    conv = batch["conv_id"]
    if isinstance(conv, pa.ChunkedArray):
        conv = conv.combine_chunks()
    if pa.types.is_dictionary(conv.type):
        conv = conv.dictionary_decode()
    joined = pc.binary_join_element_wise(conv, pc.cast(batch["turn_idx"], pa.string()), ":")
    return joined.to_numpy(zero_copy_only=False)


def partials_table(partials: list[tuple]) -> pa.Table:
    """Rows ``(slice_id, stratum, payload, n_rows)`` of serialized partial
    synopses as a partial table with those columns."""
    return pa.table(
        {
            "slice_id": pa.array([p[0] for p in partials], type=pa.int64()),
            "stratum": pa.array([p[1] for p in partials], type=pa.string()),
            "payload": pa.array([p[2] for p in partials], type=pa.binary()),
            "n_rows": pa.array([p[3] for p in partials], type=pa.int64()),
        }
    )


def _merge_payload_group(df: pd.DataFrame) -> pd.DataFrame:
    """Merge all partial synopses of one group (the conquer step).

    Partials merge in a DETERMINISTIC order (sorted by serialized payload):
    algebraically order-invariant synopses (CM/HLL/AGMS/...) don't care, but
    order-sensitive ones (BASH bar layout, Bloom's AND-merge quirk) would
    otherwise vary run-to-run with shuffle arrival order."""
    payloads = sorted(df["payload"].tolist())
    merged = Synopsis.from_bytes(payloads[0])
    for b in payloads[1:]:
        merged = merged.merge(Synopsis.from_bytes(b))
    first = df.iloc[0]
    out = {c: [first[c]] for c in df.columns if c not in ("payload", "n_rows")}
    out["payload"] = [merged.to_bytes()]
    out["n_rows"] = [int(df["n_rows"].sum())]
    return pd.DataFrame(out)


def build_windowed_synopses(
    ds,
    config: BuildConfiguration,
    concurrency: int = 4,
    batch_size: int = 65536,
):
    """ds (transcripts schema) -> Dataset of windowed synopses (see module
    docstring for the physical plan and output schema).

    The partial stage runs as plain tasks (see the comment at the call);
    ``concurrency`` now only sets the width the partials coalesce to
    before the slice-merge groupby."""
    windows = list(config.windows)
    if not windows:
        raise ValueError("config.windows must contain at least one window")
    slice_us = _common_slice_us(windows)

    # plain tasks, not an actor pool: the builder's only real state (H3 hash
    # tables) is PROCESS-cached by (n, seed), so reused task workers keep it
    # warm, while a dedicated actor pool pays `concurrency` cold heaps
    # (import + first-touch page faults) per job — measured 5-8x the actual
    # UDF compute on short jobs
    builder = PartialSynopsisBuilder(config, slice_us)
    partials = ds.map_batches(
        lambda b: builder(b),
        batch_format="pyarrow",
        batch_size=batch_size,
    )

    # conquer step 1: one merged synopsis per (slice, stratum).  Coalesce
    # the partials first: they are O(slices x strata) payload rows, but the
    # sort-based groupby otherwise inherits the INPUT's block count and
    # pays a near-empty sort + reduce task per input block (measured ~2x
    # on a 60M-row/256-block build).  Partial volume is independent of row
    # count; the coalesce width only matters when slices x strata x
    # payload_bytes itself is huge — then raise concurrency, which also
    # widens the merge fan-in here.
    slices = (
        partials.repartition(max(8, concurrency))
        .groupby(["slice_id", "stratum"])
        .map_groups(_merge_payload_group, batch_format="pandas")
    )

    # fan each slice out to every window definition covering it (vectorized
    # repeat/concat per window definition, no per-row iteration)
    def expand(df: pd.DataFrame) -> pd.DataFrame:
        sid = df["slice_id"].to_numpy(np.int64)
        parts = []
        for wi, w in enumerate(windows):
            if isinstance(w, TumblingWindow):
                idx = np.arange(len(df))
                wids = sid // (w.size_us // slice_us)
            else:
                lists = [windows_of_slice(int(s), slice_us, w) for s in sid]
                counts = np.fromiter((len(l) for l in lists), dtype=np.int64, count=len(lists))
                idx = np.repeat(np.arange(len(df)), counts)
                wids = np.fromiter(
                    (x for l in lists for x in l), dtype=np.int64, count=int(counts.sum())
                )
            parts.append(
                pd.DataFrame(
                    {
                        "window_idx": np.full(len(idx), wi, dtype=np.int64),
                        "window_id": wids,
                        "stratum": df["stratum"].to_numpy()[idx],
                        "payload": df["payload"].to_numpy()[idx],
                        "n_rows": df["n_rows"].to_numpy()[idx],
                    }
                )
            )
        return pd.concat(parts, ignore_index=True)

    expanded = slices.map_batches(expand, batch_format="pandas")

    # conquer step 2: merge slice synopses into each window
    merged = expanded.groupby(["window_idx", "window_id", "stratum"]).map_groups(
        _merge_payload_group, batch_format="pandas"
    )

    syn_name = config.synopsis
    kinds = [_window_kind(w) for w in windows]

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        wi = df["window_idx"].to_numpy()
        wid = df["window_id"].to_numpy()
        starts = np.empty(len(df), dtype=np.int64)
        ends = np.empty(len(df), dtype=np.int64)
        for i, w in enumerate(windows):
            m = wi == i
            if isinstance(w, TumblingWindow):
                starts[m] = wid[m] * w.size_us
                ends[m] = starts[m] + w.size_us
            else:
                starts[m] = wid[m] * w.slide_us
                ends[m] = starts[m] + w.size_us
        return pd.DataFrame(
            {
                "window_kind": np.asarray(kinds, dtype=object)[wi],
                "window_start": starts,
                "window_end": ends,
                "stratum": np.where(
                    df["stratum"].to_numpy() == "", None, df["stratum"].to_numpy()
                ),
                "synopsis_type": syn_name,
                "payload": df["payload"].to_numpy(),
                "n_rows": df["n_rows"].to_numpy(),
            }
        )

    return merged.map_batches(finalize, batch_format="pandas")


# -- exact windowed counts (SQL-verifiable anchor) -------------------------

class _PartialCounts:
    def __init__(self, window: TumblingWindow, stratify_by: str | None):
        self.window = window
        self.stratify_by = stratify_by

    def __call__(self, batch: pa.Table) -> pa.Table:
        ts = ts_to_us(batch["ts"])
        wid = ts // self.window.size_us
        if self.stratify_by is None:
            uniq, counts = np.unique(wid, return_counts=True)
            return pa.table(
                {
                    "window_id": pa.array(uniq, type=pa.int64()),
                    "partial": pa.array(counts, type=pa.int64()),
                }
            )
        codes, svals = stratum_codes(batch[self.stratify_by])
        gkey = wid * (len(svals) + 1) + codes
        uniq, counts = np.unique(gkey, return_counts=True)
        return pa.table(
            {
                "window_id": pa.array(uniq // (len(svals) + 1), type=pa.int64()),
                "stratum": pa.array(
                    [svals[c] for c in (uniq % (len(svals) + 1)).tolist()],
                    type=pa.string(),
                ),
                "partial": pa.array(counts, type=pa.int64()),
            }
        )


def windowed_counts(
    ds,
    window: TumblingWindow,
    stratify_by: str | None = None,
    concurrency: int = 4,
    combine_parts: int = 8,
):
    """Exact row counts per tumbling window (optionally per stratum).

    Pre-aggregates per batch (one row per window per batch) before the
    groupby, so the shuffle moves partial counts, not rows.  The partials
    are coalesced to ``combine_parts`` blocks before the groupby: the
    sort-shuffle otherwise inherits the INPUT's block count and pays one
    reduce task per input block for a near-empty table (measured 2x on a
    60M-row/256-block stream).  Partial volume is O(windows x strata),
    independent of row count; raise ``combine_parts`` only when that
    product itself is huge (years of 60s windows x high-card strata)."""
    from ray.data.aggregate import Sum

    # stateless stage: plain tasks, NOT an actor pool — a pool sized to the
    # CPU budget would starve the read stage and deadlock a small cluster
    counter = _PartialCounts(window, stratify_by)
    partials = ds.map_batches(
        lambda b: counter(b), batch_format="pyarrow"
    ).repartition(combine_parts)
    keys = ["window_id"] if stratify_by is None else ["window_id", "stratum"]
    out = partials.groupby(keys).aggregate(Sum("partial", alias_name="n_rows"))

    size_us = window.size_us

    def bounds(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["window_start"] = df["window_id"] * size_us
        df["window_end"] = df["window_start"] + size_us
        cols = ["window_start", "window_end"]
        if stratify_by is not None:
            cols.append("stratum")
        cols.append("n_rows")
        return df[cols]

    return out.map_batches(bounds, batch_format="pandas")
