"""Exactly-once sink shared by the streaming engines.

Each close cycle writes one file atomically (temp file + rename), so a
replayed fragment rewrites a byte-identical file and a crash never leaves a
torn one.  ``atomic_emit`` is the common close task: concat the state
actors' emission tables, sort canonically, write.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray


def write_atomic(path: str, table: pa.Table) -> int:
    tmp = path + f".tmp-{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)
    return table.num_rows


@ray.remote
def atomic_emit(path: str, sort_keys: list[tuple[str, str]] | None, *tables) -> int:
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return 0
    out = pa.concat_tables(tables)
    if sort_keys:
        out = out.sort_by(sort_keys)
    return write_atomic(path, out)
