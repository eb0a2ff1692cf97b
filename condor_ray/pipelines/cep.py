"""Sequence-pattern (CEP) matching over per-conversation turn streams.

The north-star rule frames this engine as a "structured-streaming / CEP
engine".  Condor itself delegates event-pattern work to its host stream
processor (Flink CEP); this module is the Ray-native equivalent operator: a
declarative k-step pattern matched against STRICTLY CONSECUTIVE turns of one
conversation (Flink CEP ``next()`` contiguity) in event-time order (ties
broken by turn_idx), optionally bounded by a time span between the first and
last matched turn (Flink CEP ``within()``).

Batch path (this module): conversations hash-partition into a bounded number
of Ray groups (the per-group-dispatch rule — never one Ray group per
conversation); inside a partition the matcher is pure numpy — one boolean
mask per step, shifted AND across the k step offsets, then the span filter.
The SQL twin is the classic lead()-window form, so the operator is
oracle-checkable end to end.

Streaming path: engine/streaming_cep.py runs the same matcher incrementally
under watermarks with a k-1 row tail per conversation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa

from ..runtime import default_n_parts
from ..stages.extract import ts_to_us

_OPS = ("eq", "ne", "notnull", "isnull", "in")


@dataclass(frozen=True)
class Step:
    """One pattern step: a predicate over a single column of the turn row.

    Null semantics follow SQL three-valued logic: ``eq``/``ne``/``in`` never
    match a NULL value (so the numpy masks and the SQL twin agree row for
    row)."""

    col: str
    op: str = "eq"
    value: Any = None

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unknown step op {self.op!r} (one of {_OPS})")
        if self.op in ("eq", "ne") and self.value is None:
            raise ValueError(f"op {self.op!r} requires a value")
        if self.op == "in" and not self.value:
            raise ValueError("op 'in' requires a non-empty list")

    def mask(self, values: np.ndarray) -> np.ndarray:
        notna = pd.notna(values)
        if self.op == "eq":
            return (values == self.value) & notna
        if self.op == "ne":
            return (values != self.value) & notna
        if self.op == "notnull":
            return notna
        if self.op == "isnull":
            return ~notna
        return np.isin(values, list(self.value)) & notna

    def sql(self, expr: str) -> str:
        def lit(v) -> str:
            return "'" + str(v).replace("'", "''") + "'"

        if self.op == "eq":
            return f"{expr} = {lit(self.value)}"
        if self.op == "ne":
            return f"{expr} <> {lit(self.value)}"
        if self.op == "notnull":
            return f"{expr} IS NOT NULL"
        if self.op == "isnull":
            return f"{expr} IS NULL"
        vals = ", ".join(lit(v) for v in self.value)
        return f"{expr} IN ({vals})"


def find_match_starts(
    conv: np.ndarray,
    ts: np.ndarray,
    cols: dict[str, np.ndarray],
    steps: list[Step],
    within_us: int | None,
) -> np.ndarray:
    """Indices where a strict-contiguity match starts.

    All arrays must already be sorted by (conv, ts, turn_idx).  ``conv`` may
    be any dtype with elementwise ``==`` (string objects or factorized
    codes); pass a constant array (or length-0 ``steps``-safe slice) when the
    caller guarantees a single conversation."""
    n = len(ts)
    k = len(steps)
    if n < k or k == 0:
        return np.empty(0, dtype=np.int64)
    m = n - k + 1
    valid = steps[0].mask(cols[steps[0].col])[:m].copy()
    for j in range(1, k):
        valid &= steps[j].mask(cols[steps[j].col])[j : m + j]
    if k > 1:
        valid &= conv[:m] == conv[k - 1 :]
        if within_us is not None:
            valid &= (ts[k - 1 :] - ts[:m]) <= within_us
    return np.flatnonzero(valid)


_OUT_DTYPES = {
    "conv_id": object,
    "start_turn_idx": np.int64,
    "end_turn_idx": np.int64,
    "start_ts": np.int64,
    "end_ts": np.int64,
}


def _empty_matches() -> pd.DataFrame:
    return pd.DataFrame(
        {c: pd.Series(dtype=t) for c, t in _OUT_DTYPES.items()}
    )


def matches_frame(
    conv: np.ndarray,
    ts: np.ndarray,
    turn: np.ndarray,
    starts: np.ndarray,
    k: int,
) -> pd.DataFrame:
    if len(starts) == 0:
        return _empty_matches()
    ends = starts + k - 1
    return pd.DataFrame(
        {
            "conv_id": conv[starts],
            "start_turn_idx": turn[starts].astype(np.int64),
            "end_turn_idx": turn[ends].astype(np.int64),
            "start_ts": ts[starts].astype(np.int64),
            "end_ts": ts[ends].astype(np.int64),
        }
    )


def match_pattern(ds, steps: list[Step], within_ms: int | None = None,
                  n_parts: int | None = None):
    """All strict-contiguity matches of ``steps`` per conversation.

    Returns conv_id, start_turn_idx, end_turn_idx, start_ts, end_ts (int64
    microseconds).  Overlapping matches are all reported (Flink CEP
    ``AfterMatchSkipStrategy.noSkip()`` semantics — also what the lead()-window
    SQL twin computes)."""
    from .sessions import _conv_partition

    steps = list(steps)
    if not steps:
        raise ValueError("pattern needs at least one step")
    n_parts = n_parts or default_n_parts()
    within_us = within_ms * 1000 if within_ms is not None else None
    k = len(steps)
    need_cols = sorted({s.col for s in steps})

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        conv = g["conv_id"].to_numpy()
        ts = ts_to_us(pa.array(g["ts"]))
        turn = g["turn_idx"].to_numpy()
        order = np.lexsort((turn, ts, conv))
        conv, ts, turn = conv[order], ts[order], turn[order]
        cols = {c: g[c].to_numpy()[order] for c in need_cols}
        starts = find_match_starts(conv, ts, cols, steps, within_us)
        return matches_frame(conv, ts, turn, starts, k)

    return (
        ds.map_batches(_conv_partition(n_parts), batch_format="pyarrow")
        .groupby("part")
        .map_groups(
            lambda g: per_part(g.drop(columns=["part"])), batch_format="pandas"
        )
    )


def find_relaxed_matches(
    conv: np.ndarray,
    ts: np.ndarray,
    cols: dict[str, np.ndarray],
    steps: list[Step],
    within_us: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """(start, end) indices under RELAXED contiguity (Flink CEP
    ``followedBy`` with skip-till-next-match): from each row satisfying
    step 0, greedily take the NEAREST strictly-later row satisfying step 1,
    then the nearest after that for step 2, ... — one deterministic chain
    per start row, reported iff it resolves inside the conversation and the
    span bound.

    Arrays must be sorted by (conv, ts, turn_idx).  Vectorized across all
    starts at once: per step, one flatnonzero over the predicate mask and
    one searchsorted hop.  Rows of a conversation are contiguous, so the
    single ``conv[end] == conv[start]`` check covers every intermediate
    hop (indices only move forward)."""
    n = len(ts)
    k = len(steps)
    empty = np.empty(0, dtype=np.int64)
    if n == 0 or k == 0:
        return empty, empty
    start = np.flatnonzero(steps[0].mask(cols[steps[0].col]))
    if len(start) == 0:
        return empty, empty
    cur = start
    ok = np.ones(len(start), dtype=bool)
    for j in range(1, k):
        pos = np.flatnonzero(steps[j].mask(cols[steps[j].col]))
        if len(pos) == 0:
            return empty, empty
        idx = np.searchsorted(pos, cur, side="right")
        valid = idx < len(pos)
        cand = pos[np.minimum(idx, len(pos) - 1)]
        ok &= valid
        cur = np.where(valid, cand, cur)
    ok &= conv[cur] == conv[start]
    if within_us is not None and k > 1:
        ok &= (ts[cur] - ts[start]) <= within_us
    return start[ok], cur[ok]


def match_pattern_relaxed(ds, steps: list[Step], within_ms: int | None = None,
                          n_parts: int | None = None):
    """Relaxed-contiguity matches (``followedBy`` semantics); same output
    schema as :func:`match_pattern`."""
    from .sessions import _conv_partition

    steps = list(steps)
    if not steps:
        raise ValueError("pattern needs at least one step")
    n_parts = n_parts or default_n_parts()
    within_us = within_ms * 1000 if within_ms is not None else None
    need_cols = sorted({s.col for s in steps})

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        conv = g["conv_id"].to_numpy()
        ts = ts_to_us(pa.array(g["ts"]))
        turn = g["turn_idx"].to_numpy()
        order = np.lexsort((turn, ts, conv))
        conv, ts, turn = conv[order], ts[order], turn[order]
        cols = {c: g[c].to_numpy()[order] for c in need_cols}
        start, end = find_relaxed_matches(conv, ts, cols, steps, within_us)
        if len(start) == 0:
            return _empty_matches()
        return pd.DataFrame(
            {
                "conv_id": conv[start],
                "start_turn_idx": turn[start].astype(np.int64),
                "end_turn_idx": turn[end].astype(np.int64),
                "start_ts": ts[start].astype(np.int64),
                "end_ts": ts[end].astype(np.int64),
            }
        )

    return (
        ds.map_batches(_conv_partition(n_parts), batch_format="pyarrow")
        .groupby("part")
        .map_groups(
            lambda g: per_part(g.drop(columns=["part"])), batch_format="pandas"
        )
    )


def pattern_relaxed_sql(transcripts_cte: str, steps: list[Step],
                        within_ms: int | None = None) -> str:
    """DuckDB twin of :func:`match_pattern_relaxed`: per-row next-match
    indices (windowed MIN over following rows) chained by k-1 self-joins."""
    k = len(steps)
    base_cols = sorted({s.col for s in steps})
    nxt_exprs = []
    for j in range(1, k):
        pred = steps[j].sql(steps[j].col)
        nxt_exprs.append(
            f"min(CASE WHEN {pred} THEN rn END)\n"
            f"             OVER (PARTITION BY conv_id ORDER BY rn\n"
            f"                   ROWS BETWEEN 1 FOLLOWING AND UNBOUNDED"
            f" FOLLOWING) AS nxt{j}"
        )
    nxts = (",\n         " + ",\n         ".join(nxt_exprs)) if nxt_exprs else ""
    joins = "".join(
        f"\nJOIN o o{j} ON o{j}.conv_id = o{j-1}.conv_id"
        f" AND o{j}.rn = o{j-1}.nxt{j}"
        for j in range(1, k)
    )
    last = f"o{k - 1}"
    preds = [steps[0].sql(f"o0.{steps[0].col}")]
    if within_ms is not None and k > 1:
        preds.append(f"{last}.ts_us - o0.ts_us <= {within_ms * 1000}")
    return f"""{transcripts_cte},
base AS (
  SELECT conv_id, turn_idx, epoch_us(ts) AS ts_us, {", ".join(base_cols)},
         row_number() OVER (PARTITION BY conv_id ORDER BY ts, turn_idx) AS rn
  FROM transcripts
), o AS (
  SELECT *{nxts}
  FROM base
)
SELECT o0.conv_id,
       CAST(o0.turn_idx AS BIGINT) AS start_turn_idx,
       CAST({last}.turn_idx AS BIGINT) AS end_turn_idx,
       o0.ts_us AS start_ts,
       {last}.ts_us AS end_ts
FROM o o0{joins}
WHERE {" AND ".join(preds)}"""


def pattern_sql(transcripts_cte: str, steps: list[Step],
                within_ms: int | None = None) -> str:
    """DuckDB twin of :func:`match_pattern` over the ``transcripts`` CTE."""
    k = len(steps)
    lead_exprs = []
    preds = [steps[0].sql(steps[0].col)]
    for j in range(1, k):
        col = steps[j].col
        alias = f"{col}_{j}"
        lead_exprs.append(f"lead({col}, {j}) OVER w AS {alias}")
        preds.append(steps[j].sql(alias))
    if k > 1:
        lead_exprs.append(f"lead(turn_idx, {k - 1}) OVER w AS end_turn")
        lead_exprs.append(f"lead(epoch_us(ts), {k - 1}) OVER w AS end_ts_us")
        preds.append("end_turn IS NOT NULL")
        if within_ms is not None:
            preds.append(f"end_ts_us - ts_us <= {within_ms * 1000}")
        end_turn, end_ts = "end_turn", "end_ts_us"
    else:
        end_turn, end_ts = "turn_idx", "ts_us"
    base_cols = sorted({s.col for s in steps})
    leads = (",\n         " + ",\n         ".join(lead_exprs)) if lead_exprs else ""
    where = "\n  AND ".join(preds)
    return f"""{transcripts_cte},
ordered AS (
  SELECT conv_id, turn_idx, epoch_us(ts) AS ts_us,
         {", ".join(base_cols)}{leads}
  FROM transcripts
  WINDOW w AS (PARTITION BY conv_id ORDER BY ts, turn_idx)
)
SELECT conv_id,
       CAST(turn_idx AS BIGINT) AS start_turn_idx,
       CAST({end_turn} AS BIGINT) AS end_turn_idx,
       ts_us AS start_ts,
       {end_ts} AS end_ts
FROM ordered
WHERE {where}"""
