"""Per-partition stream-stream join state (Ray actor).

North-rule stateful join (SURVEY §2.7 last row): turn stream x tool-call
stream per conv_id, both hash-partitioned by conv onto the same partition
space; each partition actor buffers both sides and emits matches once the
watermark passes the join horizon.

Semantics (same as the batch join, pipelines/join.py): a (turn, call) pair
matches iff same conv_id AND same tool AND turn.ts <= call.ts <= turn.ts +
bound.  A match is SAFE TO EMIT once the watermark passes
``max(turn.ts + bound, call.ts)`` — no later arrival can change it (late rows
are dropped upstream by the same watermark).  Buffers purge below
``watermark - bound``, so state is bounded by the time bound x arrival rate,
not the stream length.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..engine.driver import ACTOR_CPUS
from ..stages.extract import ts_to_us


@ray.remote(num_cpus=ACTOR_CPUS)
class JoinStateStore:
    def __init__(self, partition_id: int, bound_us: int):
        self.partition_id = partition_id
        self.bound_us = bound_us
        self._turns: list[pd.DataFrame] = []
        self._calls: list[pd.DataFrame] = []
        self._emitted_through = -(2**62)
        self.max_buffered = 0  # buffer high-water mark (bounded-state proof)
        self.late_dropped = 0

    def ingest_turns(self, batch: pa.Table, watermark_us: int = -(2**62)) -> int:
        """Buffer turn rows; a turn whose emission horizon (ts + bound) is
        already behind the combined watermark can never emit — dropped as
        late (counted)."""
        n_late = 0
        if batch.num_rows:
            df = batch.to_pandas()
            df["ts"] = ts_to_us(batch["ts"])
            df = df[df["tool"].notna()]
            late = df["ts"] + self.bound_us < watermark_us
            n_late = int(late.sum())
            df = df[~late]
            if len(df):
                self._turns.append(
                    pd.DataFrame(
                        {
                            "conv_id": df["conv_id"],
                            "turn_idx": df["turn_idx"].astype(np.int32),
                            "turn_ts": df["ts"],
                            "tool": df["tool"],
                        }
                    )
                )
        self.late_dropped += n_late
        self._track_hwm()
        return n_late

    def ingest_calls(self, batch: pa.Table, watermark_us: int = -(2**62)) -> int:
        n_late = 0
        if batch.num_rows:
            df = batch.to_pandas()
            df["ts"] = ts_to_us(batch["ts"])
            # any call behind the combined watermark is late: turns that
            # could match it may already have been emitted/purged (their
            # horizon passed), so keeping it would silently lose pairs
            late = df["ts"] < watermark_us
            n_late = int(late.sum())
            df = df[~late]
        if batch.num_rows and len(df):
            self._calls.append(
                pd.DataFrame(
                    {
                        "conv_id": df["conv_id"],
                        "call_id": df["call_id"],
                        "tool": df["tool"],
                        "status": df["status"],
                        "call_ts": df["ts"],
                    }
                )
            )
        self.late_dropped += n_late
        self._track_hwm()
        return n_late

    def _track_hwm(self) -> None:
        cur = sum(len(t) for t in self._turns) + sum(len(c) for c in self._calls)
        if cur > self.max_buffered:
            self.max_buffered = cur

    def emit_matches(self, watermark_us: int) -> pa.Table:
        """Emit pairs whose join horizon passed; purge buffers below
        watermark - bound."""
        horizon = watermark_us
        turns = (
            pd.concat(self._turns, ignore_index=True)
            if self._turns
            else pd.DataFrame(columns=["conv_id", "turn_idx", "turn_ts", "tool"])
        )
        calls = (
            pd.concat(self._calls, ignore_index=True)
            if self._calls
            else pd.DataFrame(
                columns=["conv_id", "call_id", "tool", "status", "call_ts"]
            )
        )
        if len(turns) and len(calls):
            merged = turns.merge(calls, on=["conv_id", "tool"], how="inner")
            ok = (
                (merged["call_ts"] >= merged["turn_ts"])
                & (merged["call_ts"] <= merged["turn_ts"] + self.bound_us)
                # emit once no later arrival can extend this pair...
                & (merged["turn_ts"] + self.bound_us < horizon)
                # ...and exactly once across emit cycles
                & (merged["turn_ts"] + self.bound_us >= self._emitted_through)
            )
            out = merged[ok]
        else:
            out = pd.DataFrame(
                columns=[
                    "conv_id", "turn_idx", "turn_ts", "call_id", "tool",
                    "status", "call_ts",
                ]
            )
        self._emitted_through = horizon
        # purge: rows that can no longer participate in any emittable pair
        purge_before = horizon - self.bound_us
        self._turns = (
            [turns[turns["turn_ts"] + self.bound_us >= horizon]] if len(turns) else []
        )
        self._calls = [calls[calls["call_ts"] >= purge_before]] if len(calls) else []
        return pa.Table.from_pandas(
            out[
                ["conv_id", "turn_idx", "turn_ts", "call_id", "tool", "status", "call_ts"]
            ].astype({"turn_idx": np.int32, "turn_ts": np.int64, "call_ts": np.int64}),
            preserve_index=False,
        )

    def buffered(self) -> dict:
        return {
            "turns": sum(len(t) for t in self._turns),
            "calls": sum(len(c) for c in self._calls),
            "max_buffered": self.max_buffered,
            "late_dropped": self.late_dropped,
        }
