"""Streaming stateful stream-stream join.

Replays TWO fragment streams (turns, tool calls) through the same
hash(conv_id) % P partition space into ``JoinStateStore`` actors.  They
are interleaved by fragment index into one schedule, and their combined
watermark is ``min(max-ts-seen per stream)`` (Flink two-input
operator semantics).  Emit cycles run after every scheduled fragment and
write ``join-f{k:05d}.parquet``; buffer state purges to the join bound
behind the watermark.
"""

from __future__ import annotations

import pyarrow as pa

from ..state.join_store import JoinStateStore
from .driver import FragmentStreamJob, interleave
from .streaming import submit_split_by_conv


class StreamingJoinJob(FragmentStreamJob):
    inputs = 2  # 0: turns, 1: tool calls
    emit_prefix = "join"
    emit_schema = pa.schema([
        ("conv_id", pa.string()), ("turn_idx", pa.int32()), ("turn_ts", pa.int64()),
        ("call_id", pa.string()), ("tool", pa.string()), ("status", pa.string()),
        ("call_ts", pa.int64()),
    ])
    emitted_key = "matches_emitted"
    stats_call = "buffered"

    def __init__(self, parallelism: int = 4, bound_ms: int = 5_000, out_dir: str = "/tmp/join_out"):
        self.parallelism = parallelism
        self.bound_us = bound_ms * 1000
        super().__init__(out_dir, [
            JoinStateStore.remote(p, self.bound_us) for p in range(parallelism)
        ])

    def run(
        self,
        turn_fragments: list[str],
        call_fragments: list[str],
        turn_columns: list[str] | None = None,
        call_columns: list[str] | None = None,
    ) -> dict:
        """``turn_columns``/``call_columns`` prune the fragment reads to the
        join's needs (the state stores only keep conv_id/turn_idx/ts/tool
        resp. conv_id/call_id/tool/status/ts — never read text at scale)."""
        paths, self._sides = interleave(turn_fragments, call_fragments)
        self._columns = (turn_columns, call_columns)
        res = self._run(paths)
        return {"matches": res["matches_emitted"], "late_dropped": res["late_dropped"],
                "max_buffered_rows": res["max_buffered_rows"]}

    def _input_of(self, k: int) -> int:
        return self._sides[k]

    def _split(self, k: int, path: str, wm: int) -> list:
        return submit_split_by_conv(path, self.parallelism, self._columns[self._sides[k]])

    def _ingest(self, k: int, shards: list, wm: int) -> list:
        return [
            (s.ingest_calls if self._sides[k] else s.ingest_turns).remote(sh, wm)
            for s, sh in zip(self.stores, shards)
        ]

    def _close(self, wm: int, idx: int):
        return self._emit(idx, [s.emit_matches.remote(wm) for s in self.stores])

    def _summary(self, stats: list) -> dict:
        return {"max_buffered_rows": max((b["max_buffered"] for b in stats), default=0)}
