"""Per-partition streaming state store (Ray actor).

The Ray-native equivalent of Condor's keyed Scotty window operator state
(conn/.../processor/compute/scotty/SynopsisFunction.java:15-138): one synopsis
per (stratum, slice) per partition, updated incrementally per micro-batch and
merged across slices/partitions at window close.  The actor boundary replaces
Flink's keyed state backend: a key's state lives on exactly one actor
(partition = hash(conv_id) % P, salted for hot keys upstream).

The store serves the synopses that are not ``combinable`` (and a job whose
``combine`` is set False): Count-Min and HyperLogLog slice state is kept as
cell tables, with no actors (``engine/streaming.py``).

Raw ``@ray.remote`` is justified here (SURVEY §7): state must outlive any
single batch and survive across micro-batches — the Dataset API cannot express
a shared mutable slice store.
"""

from __future__ import annotations

import pickle
import time

import numpy as np
import pyarrow as pa
import ray

from ..config import BuildConfiguration
from ..stages.extract import KeyExtractor, ts_to_us
from ..synopses.base import Synopsis
from ..synopses.registry import make_synopsis


@ray.remote(num_cpus=0.5)
class PartitionStateStore:
    """Holds dict[(stratum, slice_id)] -> synopsis for one partition."""

    def __init__(self, partition_id: int, config: BuildConfiguration, slice_us: int):
        self.partition_id = partition_id
        self.config = config
        self.slice_us = slice_us
        self.extractor = KeyExtractor(config.key)
        self.stratify_by = config.stratify_by
        self.sample_elements = config.sample_elements
        # prototype instance: trait flags + grouped-ingest precompute (hash
        # functions depend only on ctor args, so one precompute serves every
        # slice of this config)
        self._proto = make_synopsis(config.synopsis, config.params)
        self.timestamped = self._proto.timestamped
        # mutable state
        self.slices: dict[tuple[str, int], Synopsis] = {}
        self.slice_counts: dict[tuple[str, int], int] = {}
        self.rows_ingested = 0
        # per-partition metrics (surfaced via stats() into the run manifest)
        self.ingest_sec = 0.0
        self.collect_sec = 0.0
        self.max_open_slices = 0  # state high-water mark (bounded-state proof)

    # -- ingest one micro-batch shard (already partition-filtered, already
    #    late-dropped upstream where arrival order is known) ---------------
    def ingest(self, batch: pa.Table) -> int:
        """Apply a row shard; returns the rows applied."""
        _t0 = time.perf_counter()
        n = batch.num_rows
        if n == 0:
            return 0
        ts = ts_to_us(batch["ts"])
        sid = ts // self.slice_us
        if self.sample_elements:
            from ..engine.batch import _element_keys

            values = _element_keys(batch)
        elif "__key32" in batch.column_names:
            # key precomputed by the split task — no re-hash in the actor
            col = batch["__key32"]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            values = col.to_numpy(zero_copy_only=False)
        else:
            values = self.extractor(batch)
        if self.stratify_by is not None:
            from ..stages.extract import stratum_codes

            codes, svals = stratum_codes(batch[self.stratify_by])
            gkey = sid * (len(svals) + 1) + codes
        else:
            svals = None
            gkey = sid

        order = np.argsort(gkey, kind="stable")
        gsorted = gkey[order]
        bounds = np.concatenate([[0], np.nonzero(np.diff(gsorted))[0] + 1, [n]])
        cfg = self.config
        # hash/derive once for the whole batch; per-slice work is then a
        # cheap scatter of that group's row subset (None => fallback)
        pre = None if self.timestamped else self._proto.precompute_batch(values)
        for b in range(len(bounds) - 1):
            lo, hi = bounds[b], bounds[b + 1]
            idx = order[lo:hi]
            s = int(sid[idx[0]])
            stratum = svals[int(gkey[idx[0]] % (len(svals) + 1))] if svals else ""
            key = (stratum, s)
            syn = self.slices.get(key)
            if syn is None:
                syn = make_synopsis(cfg.synopsis, cfg.params)
                if stratum:
                    syn.set_partition_value(stratum)
                self.slices[key] = syn
                self.slice_counts[key] = 0
            if pre is not None:
                syn.apply_precomputed(pre, idx)
            elif self.timestamped:
                syn.update_batch(values[idx], timestamps=ts[idx])
            else:
                syn.update_batch(values[idx])
            self.slice_counts[key] += hi - lo
        self.rows_ingested += n
        if len(self.slices) > self.max_open_slices:
            self.max_open_slices = len(self.slices)
        self.ingest_sec += time.perf_counter() - _t0
        return n

    # -- window close ------------------------------------------------------
    def collect_closed_slices_snapshot(
        self, slice_ids: list[int], evict_before_us: int
    ) -> pa.Table:
        """Snapshot partials for the requested (frozen) slices, then evict
        every slice whose end <= ``evict_before_us`` (no remaining window
        needs it).  Snapshot-then-evict keeps slices shared by still-open
        sliding windows available for later close cycles."""
        _t0 = time.perf_counter()
        wanted = set(slice_ids)
        out_stratum, out_slice, out_payload, out_n = [], [], [], []
        for (stratum, sid) in sorted(self.slices.keys(), key=lambda k: (k[1], k[0])):
            if sid in wanted:
                out_stratum.append(stratum)
                out_slice.append(sid)
                out_payload.append(self.slices[(stratum, sid)].to_bytes())
                out_n.append(self.slice_counts[(stratum, sid)])
        for key in [k for k in self.slices if (k[1] + 1) * self.slice_us <= evict_before_us]:
            del self.slices[key]
            del self.slice_counts[key]
        self.collect_sec += time.perf_counter() - _t0
        return pa.table(
            {
                "slice_id": pa.array(out_slice, type=pa.int64()),
                "stratum": pa.array(out_stratum, type=pa.string()),
                "payload": pa.array(out_payload, type=pa.binary()),
                "n_rows": pa.array(out_n, type=pa.int64()),
            }
        )

    # -- checkpoint / restore ---------------------------------------------
    def snapshot(self) -> bytes:
        return pickle.dumps(
            {
                "partition_id": self.partition_id,
                "slices": {k: s.to_bytes() for k, s in self.slices.items()},
                "slice_counts": dict(self.slice_counts),
                "rows_ingested": self.rows_ingested,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def restore(self, blob: bytes) -> None:
        state = pickle.loads(blob)
        self.slices = {
            k: Synopsis.from_bytes(b) for k, b in state["slices"].items()
        }
        self.slice_counts = dict(state["slice_counts"])
        self.rows_ingested = state["rows_ingested"]

    def stats(self) -> dict:
        return {
            "partition_id": self.partition_id,
            "rows_ingested": self.rows_ingested,
            "open_slices": len(self.slices),
            "max_open_slices": self.max_open_slices,
            "ingest_sec": self.ingest_sec,
            "collect_sec": self.collect_sec,
        }
