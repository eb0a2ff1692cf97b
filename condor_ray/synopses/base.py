"""Synopsis trait lattice, mirroring Condor's interfaces as Python base classes.

Reference interfaces (semantics, not code):
- ``Synopsis.update``            core/.../synopsis/Synopsis.java:13-20
- ``MergeableSynopsis.merge``    core/.../synopsis/MergeableSynopsis.java:13-24
- ``CommutativeSynopsis``        core/.../synopsis/CommutativeSynopsis.java:5-8
- ``InvertibleSynopsis``         core/.../synopsis/InvertibleSynopsis.java:5-13
- ``StratifiedSynopsis``         core/.../synopsis/StratifiedSynopsis.java:4-16

Differences by design (Ray-Data-first):
- The hot-path API is **vectorized**: ``update_batch(np.ndarray)`` processes a
  whole Arrow-column slice at once instead of row-at-a-time ``update``.
- Serialization is explicit ``to_bytes``/``from_bytes`` (pickled state dict of
  NumPy arrays + scalars) carried in Arrow ``binary`` columns, replacing Java
  serialization.
"""

from __future__ import annotations

import pickle
from typing import Any, Optional

import numpy as np

_SERDE_VERSION = 1


class Synopsis:
    """Base synopsis. Subclasses set trait flags and implement the kernel."""

    mergeable: bool = False
    commutative: bool = False
    invertible: bool = False
    timestamped: bool = False  # SamplerWithTimestamps marker
    order_based: bool = False  # non-mergeable, order-sensitive (wavelets)
    # the partial depends only on each key's row count, so the streaming job
    # keeps its slice state as (key, count) groups instead of synopses
    # (Count-Min and HyperLogLog; ``engine/streaming.py`` folds their cells)
    combinable: bool = False

    def __init__(self):
        self.partition_value: Optional[Any] = None  # StratifiedSynopsis

    # -- hot path ---------------------------------------------------------
    def update_batch(self, values: np.ndarray, timestamps: np.ndarray | None = None) -> None:
        raise NotImplementedError

    def update(self, value) -> None:
        """Row-at-a-time convenience (tests / tiny inputs only)."""
        self.update_batch(np.asarray([value]))

    # -- grouped-ingest fast path -----------------------------------------
    # A streaming micro-batch spans MANY (stratum, slice) groups; hashing
    # per group forfeits the vectorization (a 5k-row batch over 2k slices
    # pays ~2k fixed numpy-call overheads).  Hash-then-scatter synopses
    # expose ``precompute_batch`` (derive per-row update data ONCE for the
    # whole batch) + ``apply_precomputed`` (cheap scatter of one group's row
    # subset).  The derived data depends only on ctor args, so one prototype
    # instance precomputes for every slice of a config.
    def precompute_batch(self, values: np.ndarray):
        """Batch-level update data shared by all slices, or None (no fast
        path — caller falls back to per-group ``update_batch``).

        The data may be per row or per distinct key (with a row -> key
        index), whatever makes ``apply_precomputed`` cheapest."""
        return None

    def apply_precomputed(self, pre, idx: np.ndarray) -> None:
        """Apply rows ``idx`` of the batch to this synopsis.  Contract: the
        resulting ``to_bytes()`` equals, byte for byte, that of the same
        synopsis after ``update_batch(values[idx])``, for any ``idx``
        (empty, repeated applies) and in either physical representation."""
        raise NotImplementedError

    # -- merge ------------------------------------------------------------
    def merge(self, other: "Synopsis") -> "Synopsis":
        raise NotImplementedError(f"{type(self).__name__} is not mergeable")

    def invert(self, other: "Synopsis") -> "Synopsis":
        raise NotImplementedError(f"{type(self).__name__} is not invertible")

    def decrement_batch(self, values: np.ndarray) -> None:
        raise NotImplementedError(f"{type(self).__name__} is not invertible")

    # -- stratification ---------------------------------------------------
    def set_partition_value(self, value) -> None:
        # write-once, like StratifiedSynopsis.java:8-13
        if self.partition_value is None:
            self.partition_value = value

    # -- serde ------------------------------------------------------------
    def state_dict(self) -> dict:
        raise NotImplementedError

    def load_state(self, state: dict) -> None:
        raise NotImplementedError

    def to_bytes(self) -> bytes:
        return self._dumps(self.state_dict())

    def _dumps(self, state: dict) -> bytes:
        return pickle.dumps(
            (_SERDE_VERSION, type(self).__name__, self._ctor_args(), state,
             self.partition_value),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def _ctor_args(self) -> tuple:
        """Constructor args needed to rebuild an empty instance."""
        raise NotImplementedError

    @staticmethod
    def from_bytes(data: bytes) -> "Synopsis":
        from .registry import get_synopsis_class

        version, name, ctor_args, state, pv = pickle.loads(data)
        if version != _SERDE_VERSION:
            raise ValueError(f"unsupported synopsis serde version {version}")
        cls = get_synopsis_class(name)
        obj = cls(*ctor_args)
        obj.load_state(state)
        obj.partition_value = pv
        return obj

    #: True when ``a.merge(b)`` leaves ``b`` usable afterwards.  FiFo/biased
    #: samplers poll elements out of ``b`` and BASH drains its bars — those
    #: set this False so fold-style mergers know to copy the right-hand side.
    merge_preserves_other: bool = True

    def copy(self) -> "Synopsis":
        """Fast structural copy: rebuild from ctor args + a deep-copied
        state_dict (no pickle roundtrip — the close cycle copies one
        accumulator per window, so this is on the emit hot path)."""
        obj = type(self)(*self._ctor_args())
        obj.load_state(_copy_state(self.state_dict()))
        obj.partition_value = self.partition_value
        return obj


def _copy_state(v):
    if isinstance(v, np.ndarray):
        return v.copy()
    if isinstance(v, dict):
        return {k: _copy_state(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_copy_state(x) for x in v]
    return v
