"""Vectorized key extraction from Arrow transcript batches.

Mirrors the reference's one-field key extractors
(bench/.../sources/utils/SyntheticExtractKeyField.java:7-21,
NYCExtractKeyField) — but as Arrow column projections inside ``map_batches``
instead of per-row map functions.  String keys hash with
``java.lang.String.hashCode`` semantics via the vectorized
``java_string_hash_arrow`` kernel, which dictionary-encodes long columns so
only distinct values hash (conv_ids and tool names repeat heavily).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import KeySpec
from ..hashing import java_string_hash_arrow


def stable_partition_order(part: np.ndarray, n_parts: int) -> np.ndarray:
    """Stable argsort of per-row partition ids, radix-fast.

    numpy's stable argsort is a radix sort for integer dtypes, and its cost
    scales with the WIDTH of the dtype: sorting the same ids as uint8 is
    ~7x faster than as int64 (one radix pass vs eight).  Every splitter /
    exchange shards by ``part = hash % n_parts`` with small n_parts, so the
    narrow cast is free.  Shared by all shard-by-partition sites."""
    if n_parts <= 256 and part.dtype != np.uint8:
        part = part.astype(np.uint8)
    elif n_parts <= 65536 and part.itemsize > 2:
        part = part.astype(np.uint16)
    return np.argsort(part, kind="stable")


_US_PER_UNIT = {"s": 1_000_000, "ms": 1_000}


def ts_to_us(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """timestamp[s|ms|us|ns] column -> int64 epoch-microsecond ndarray
    (zero-copy for timestamp[us]; ns floors to the microsecond).  An int64
    column is taken as microseconds already and passes through."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    unit = col.type.unit if pa.types.is_timestamp(col.type) else "us"
    ts = col.cast(pa.int64()).to_numpy()
    if unit == "ns":
        return ts // 1_000
    if unit in _US_PER_UNIT:
        return ts * _US_PER_UNIT[unit]
    return ts


class KeyExtractor:
    """Callable: Arrow batch -> int32/float64 key ndarray per KeySpec."""

    def __init__(self, spec: KeySpec):
        self.spec = spec

    def __call__(self, batch: pa.Table) -> np.ndarray:
        col = batch[self.spec.field]
        t = self.spec.transform
        if t == "java_hash":
            return self._hash_strings(col)
        if t == "length":
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if pa.types.is_dictionary(col.type):  # a dictionary-preserving read
                col = col.dictionary_decode()
            return pc.utf8_length(col).cast(pa.int64()).to_numpy().astype(np.int32)
        if t == "value":
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            return col.to_numpy(zero_copy_only=False)
        raise ValueError(f"unknown key transform {t!r}")

    def _hash_strings(self, col) -> np.ndarray:
        # vectorized over the Arrow buffer (nulls hash to 0, documented)
        return java_string_hash_arrow(col)


def stratum_codes(col: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, list[str]]:
    """Dictionary-encode a stratum column into (codes, labels).

    The single source of truth for the stratum key rules shared by the
    batch aggregator, the windowed-count kernel and the streaming store
    (they must agree byte-for-byte or batch vs streaming stratified
    results silently diverge):

    - nulls land in a trailing ``"<null>"`` bucket (Ray Data's groupby
      drops null keys, so they must become a real label);
    - a GENUINE empty-string stratum escapes to ``"<empty>"`` — ``""``
      is reserved as the internal no-stratum sentinel.

    Returns ``codes`` (int64, one label index per row) and ``labels``
    (the dictionary with the escapes applied, ``"<null>"`` last).  Key
    packing at the call sites uses multiplier ``len(labels) + 1``.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    dic = col.dictionary_encode()
    labels = dic.dictionary.to_pylist()
    raw = dic.indices.to_numpy(zero_copy_only=False)
    null_mask = np.isnan(raw) if raw.dtype.kind == "f" else (raw < 0)
    codes = np.where(null_mask, len(labels), raw).astype(np.int64)
    labels = [v if v != "" else "<empty>" for v in labels]
    return codes, labels + ["<null>"]
