"""Streaming as-of join (temporal-table join): probe rows attach the latest
build row of their key at-or-before their ts, continuously under watermarks.

The Flink analogue is the temporal table join (probe stream against a
versioned table).  Here both logical streams ride ONE transcript stream —
probe = tool turns, build = user turns — so the single-stream watermark
(max ts seen, fragments ts-ordered) governs both sides, exactly like two
filtered streams off one source.

Semantics match the batch ``pipelines.temporal_join.asof_join`` bit-for-bit
on a no-late stream (parity-tested): a probe at ts T emits once the
watermark passes T — no future build arrival can have ts' <= T — with the
tie-break "greatest (ts, turn_idx)" and -1 for no-match.  Late rows (ts
behind the watermark at ingest) are dropped and counted.

Bounded state, the part that matters at 100 TB: per partition the actor
buffers (a) probes not yet behind the watermark and (b) build rows newer
than the watermark PLUS one row per key — the latest build row at-or-below
the watermark (the "current version" of the temporal table; anything older
can never win an as-of match again).  Both are O(watermark lag + #keys in
partition), never O(stream).

The stream loop is ``driver.py``'s: watermark-free conv-hash splits, the
late rule at actor ingest, one emit file ``asof-f{k:05d}.parquet`` per close.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..stages.extract import ts_to_us
from .driver import NEG_INF as _NEG_INF, FragmentStreamJob
from .streaming import submit_split_by_conv

_OUT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("ts_us", pa.int64()),
        ("turn_idx", pa.int64()),
        ("user_ts", pa.int64()),
        ("user_turn", pa.int64()),
    ]
)


@ray.remote(num_cpus=0.5)
class AsofStateStore:
    def __init__(
        self,
        partition_id: int,
        direction: str = "backward",
        tolerance_us: int | None = None,
    ):
        self.partition_id = partition_id
        self.direction = direction
        self.tolerance_us = tolerance_us
        self._probes: list[pd.DataFrame] = []
        self._builds: list[pd.DataFrame] = []
        self.late_dropped = 0
        self.max_buffered = 0  # bounded-state high-water mark

    def _hwm(self) -> None:
        n = sum(len(f) for f in self._probes) + sum(len(f) for f in self._builds)
        self.max_buffered = max(self.max_buffered, n)

    def ingest(self, batch: pa.Table, watermark_us: int = _NEG_INF) -> int:
        """Split one shard into probe (tool turns) and build (user turns)
        rows; rows behind the watermark are late (dropped + counted)."""
        if batch.num_rows == 0 or "conv_id" not in batch.schema.names:
            return 0  # schemaless zero-row guard
        df = pd.DataFrame(
            {
                "conv_id": batch["conv_id"].to_pandas(),
                "turn_idx": batch["turn_idx"].to_numpy().astype(np.int64),
                "role": batch["role"].to_pandas(),
                "tool": batch["tool"].to_pandas(),
                "ts": ts_to_us(batch["ts"]),
            }
        )
        late = df["ts"] < watermark_us
        n_late = int(late.sum())
        self.late_dropped += n_late
        df = df[~late]
        probes = df[df["tool"].notna()]
        if len(probes):
            self._probes.append(
                probes[["conv_id", "turn_idx", "ts"]].reset_index(drop=True)
            )
        builds = df[df["role"] == "user"]
        if len(builds):
            self._builds.append(
                builds[["conv_id", "turn_idx", "ts"]].reset_index(drop=True)
            )
        self._hwm()
        return n_late

    def emit(self, watermark_us: int) -> pa.Table:
        """Join + emit every probe whose match is DETERMINED by the
        watermark, then purge emitted probes and superseded build versions.

        backward: a probe at T is ready once ts-strictly-below-wm covers T
        (a build tied at ts == wm may still arrive — fragment ranges are
        disjoint, so once wm passes T nothing at or below T can appear).
        forward: the earliest build in [T, T + tolerance] decides the
        match, so the probe is ready once wm passes T + tolerance."""
        self._hwm()
        probes = (
            pd.concat(self._probes, ignore_index=True)
            if self._probes
            else pd.DataFrame(columns=["conv_id", "turn_idx", "ts"])
        )
        builds = (
            pd.concat(self._builds, ignore_index=True)
            if self._builds
            else pd.DataFrame(columns=["conv_id", "turn_idx", "ts"])
        )
        if len(probes):
            if self.direction == "forward":
                ready = (probes["ts"] + self.tolerance_us < watermark_us).to_numpy()
            else:
                ready = (probes["ts"] < watermark_us).to_numpy()
            out = probes[ready]
            self._probes = [probes[~ready].reset_index(drop=True)]
        else:
            out = probes
            self._probes = []
        if len(out) == 0:
            self._purge_builds(builds, watermark_us)
            return _OUT_SCHEMA.empty_table()
        left = out.sort_values("ts", kind="mergesort")
        if len(builds):
            right = builds.sort_values(["ts", "turn_idx"], kind="mergesort")
            merged = pd.merge_asof(
                left,
                right.rename(
                    columns={"ts": "user_ts", "turn_idx": "user_turn"}
                ),
                left_on="ts",
                right_on="user_ts",
                by="conv_id",
                direction=self.direction,
                tolerance=self.tolerance_us,
            )
        else:
            merged = left.copy()
            merged["user_ts"] = np.nan
            merged["user_turn"] = np.nan
        self._purge_builds(builds, watermark_us)
        return pa.table(
            {
                "conv_id": pa.array(merged["conv_id"], type=pa.string()),
                "ts_us": pa.array(merged["ts"].astype(np.int64)),
                "turn_idx": pa.array(merged["turn_idx"].astype(np.int64)),
                "user_ts": pa.array(
                    merged["user_ts"].fillna(-1).astype(np.int64)
                ),
                "user_turn": pa.array(
                    merged["user_turn"].fillna(-1).astype(np.int64)
                ),
            }
        )

    def _purge_builds(self, builds: pd.DataFrame, watermark_us: int) -> None:
        """backward: keep rows newer than the watermark + each key's latest
        row at-or-below it (the temporal table's current version; with a
        tolerance the current version is also droppable once it falls out
        of every remaining probe's lookback window).  forward: every
        remaining probe has ts >= wm - tolerance, so only builds at
        ts >= wm - tolerance can still match — state is O(tolerance
        window), no per-key version needed."""
        if not len(builds):
            self._builds = []
            return
        if self.direction == "forward":
            keep_df = builds[builds["ts"] >= watermark_us - self.tolerance_us]
            self._builds = [keep_df.reset_index(drop=True)]
            self._hwm()
            return
        b = builds.sort_values(["conv_id", "ts", "turn_idx"], kind="mergesort")
        conv = b["conv_id"].to_numpy()
        ts = b["ts"].to_numpy()
        at_or_below = ts <= watermark_us
        # last at-or-below row per key: the next row is a different key or
        # above the watermark
        nxt_diff = np.empty(len(b), dtype=bool)
        nxt_diff[:-1] = (conv[1:] != conv[:-1]) | ~at_or_below[1:]
        nxt_diff[-1] = True
        keep = ~at_or_below | (at_or_below & nxt_diff)
        if self.tolerance_us is not None:
            # remaining (unemitted) probes have ts >= wm, so a current
            # version older than wm - tolerance can never win again
            keep &= ts >= watermark_us - self.tolerance_us
        self._builds = [b[keep].reset_index(drop=True)]
        self._hwm()

    def stats(self) -> dict:
        return {
            "late_dropped": self.late_dropped,
            "max_buffered": self.max_buffered,
        }


class StreamingAsofJob(FragmentStreamJob):
    """Continuous as-of join over a ts-ordered fragment stream.

    ``direction="backward"`` (default) matches the latest build row at or
    before each probe, optionally within ``tolerance_us``.
    ``direction="forward"`` matches the earliest build row at or after each
    probe and REQUIRES ``tolerance_us``: a forward probe's match is only
    determined once the watermark passes ``ts + tolerance``, so an
    unbounded forward join would buffer probes until end-of-stream (the
    batch ``asof_join`` handles that case; a stream needs the bound).
    Both directions are parity-tested against the batch operator."""

    emit_prefix = "asof"
    emit_schema = _OUT_SCHEMA
    emitted_key = "rows_emitted"
    stats_call = "stats"

    def __init__(
        self,
        parallelism: int = 4,
        out_dir: str = "/tmp/asof_out",
        direction: str = "backward",
        tolerance_us: int | None = None,
    ):
        if direction not in ("backward", "forward"):
            raise ValueError(f"direction must be backward|forward, got {direction!r}")
        if direction == "forward" and tolerance_us is None:
            raise ValueError(
                "streaming forward as-of requires tolerance_us (bounded "
                "wait window); use the batch asof_join for an unbounded "
                "forward join"
            )
        self.parallelism = parallelism
        super().__init__(out_dir, [
            AsofStateStore.remote(p, direction, tolerance_us) for p in range(parallelism)
        ])

    def run(self, fragments: list[str], columns: list[str] | None = None) -> dict:
        self.columns = columns or ["conv_id", "turn_idx", "role", "tool", "ts"]
        res = self._run(fragments)
        return {"rows": res["rows_emitted"], "late_dropped": res["late_dropped"],
                "max_buffered_rows": res["max_buffered_rows"]}

    def _split(self, k: int, path: str, wm: int) -> list:
        return submit_split_by_conv(path, self.parallelism, self.columns)

    def _close(self, wm: int, idx: int):
        return self._emit(idx, [s.emit.remote(wm) for s in self.stores])

    def _summary(self, stats: list) -> dict:
        return {"max_buffered_rows": max(s["max_buffered"] for s in stats)}
