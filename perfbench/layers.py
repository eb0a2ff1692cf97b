"""Per-layer measurements taken from outside the engines.

- ``TaskSpans``: Ray's task timeline (``ray.timeline()``) cut to one job
  window and summed by task or method name and by phase (``execute``,
  ``deserialize_arguments``, ``store_outputs``), plus the driver time not
  covered by any task span.
- ``kernel_ladder``: in-process rates of the single layers a job is built
  from (decode, routing, key hashing, synopsis kernels), no Ray.
- ``peak_rss_mb``: the summed ``VmHWM`` of the driver and its Ray workers.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

PHASES = ("execute", "deserialize_arguments", "store_outputs")


class TaskSpans:
    """Timeline spans of the tasks that ran inside ``[t0, t1]`` (epoch s)."""

    def __init__(self, events: list[dict], t0: float, t1: float):
        lo, hi = t0 * 1e6, t1 * 1e6
        named: dict[str, list[tuple[float, float, str]]] = defaultdict(list)
        phases: list[tuple[str, float, float, str]] = []
        for e in events:
            ts, dur = float(e.get("ts", 0.0)), float(e.get("dur", 0.0))
            if ts < lo or ts + dur > hi:
                continue
            cat = str(e.get("cat", ""))
            if cat.startswith("task::"):
                named[e["tid"]].append((ts, ts + dur, cat[len("task::"):]))
            elif cat.startswith("task:") and cat[len("task:"):] in PHASES:
                phases.append((e["tid"], ts, ts + dur, cat[len("task:"):]))
        self.calls: dict[str, int] = defaultdict(int)
        self.phase_s: dict[tuple[str, str], float] = defaultdict(float)
        spans = []
        for tid, evs in named.items():
            evs.sort()
            for s, e, name in evs:
                self.calls[name] += 1
                spans.append((s, e))
        for tid, s, e, phase in phases:
            owner = _enclosing(named.get(tid, []), s, e)
            if owner is not None:
                self.phase_s[(owner, phase)] += (e - s) / 1e6
        self.busy_union_s = _union_length(spans) / 1e6

    def busy(self, name: str, phase: str = "execute") -> float:
        """Summed ``phase`` seconds of every task whose name ends ``name``."""
        return sum(
            v for (n, p), v in self.phase_s.items()
            if p == phase and n.endswith(name)
        )

    def count(self, name: str) -> int:
        return sum(v for n, v in self.calls.items() if n.endswith(name))

    @property
    def total_calls(self) -> int:
        """Ray task and actor-method calls that ran in the window."""
        return sum(self.calls.values())

    def phase_total(self, phase: str) -> float:
        return sum(v for (_, p), v in self.phase_s.items() if p == phase)


def _enclosing(evs: list[tuple[float, float, str]], s: float, e: float):
    for a, b, name in evs:  # evs sorted by start; tasks on one worker don't nest
        if a <= s and e <= b:
            return name
        if a > s:
            break
    return None


def _union_length(spans: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(spans):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = defaultdict(list)
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name (field 2) may hold spaces; ppid follows its ')'
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children[ppid].append(int(d))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        for c in children.get(pid, []):
            out.append(c)
            todo.append(c)
    return out


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _is_ray_worker(pid: int) -> bool:
    """Ray titles its worker processes ``ray::<task or actor>``."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().startswith(b"ray::")
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Sum of ``VmHWM`` over this process and the Ray workers it started."""
    me = os.getpid()
    pids = [me] + [p for p in _descendants(me) if _is_ray_worker(p)]
    return sum(_vm_hwm_kb(p) for p in pids) / 1024.0


def _rate(fn, units: float, min_s: float = 0.15) -> float:
    """``units`` per second of ``fn()``: median of 3 timed repeats, each
    repeat calling ``fn`` until ``min_s`` has passed."""
    rates = []
    for _ in range(3):
        n, t0 = 0, time.perf_counter()
        while True:
            fn()
            n += 1
            dt = time.perf_counter() - t0
            if dt >= min_s:
                break
        rates.append(n * units / dt)
    return float(np.median(rates))


def kernel_ladder(paths: list[str], columns: list[str], parallelism: int) -> dict:
    """Rates of each layer on the same fragments, in this process."""
    import pyarrow.parquet as pq

    from condor_ray.config import KeySpec
    from condor_ray.engine.streaming import conv_partition_ids
    from condor_ray.evaluate.queries import query_count_min
    from condor_ray.stages.extract import KeyExtractor
    from condor_ray.synopses import (
        CountMinSketch,
        HyperLogLogSketch,
        Synopsis,
        WaveletSynopsis,
    )

    dict_cols = [c for c in columns if c == "conv_id"]

    def decode():
        return [
            pq.read_table(p, columns=columns, read_dictionary=dict_cols)
            for p in paths
        ]

    tables = decode()
    n = sum(t.num_rows for t in tables)
    extract = KeyExtractor(KeySpec("conv_id", "java_hash"))
    keys = [extract(t) for t in tables]
    all_keys = np.concatenate(keys)
    turns = [
        pq.read_table(p, columns=["turn_idx"])["turn_idx"].to_numpy().astype(np.float64)
        for p in paths
    ]

    def cm_update():
        cm = CountMinSketch(65536, 5, 7)
        for k in keys:
            cm.update_batch(k)

    def hll_update():
        h = HyperLogLogSketch(16, 7)
        for k in keys:
            h.update_batch(k)

    hlls = []
    for k in keys[:8]:
        h = HyperLogLogSketch(16, 7)
        h.update_batch(k)
        hlls.append(h)

    def hll_merge():
        acc = HyperLogLogSketch(16, 7)
        for h in hlls:
            acc.merge(h)

    cm_full = CountMinSketch(65536, 5, 7)
    cm_full.update_batch(all_keys)
    blobs = [cm_full.to_bytes()] + [h.to_bytes() for h in hlls]
    blob_mb = sum(len(b) for b in blobs) / 1e6

    def serde():
        for s in [cm_full] + hlls:
            Synopsis.from_bytes(s.to_bytes())

    def wavelet_update():
        for v in turns:
            WaveletSynopsis(1024).update_batch(v)

    rng = np.random.default_rng(0)
    qkeys = all_keys[rng.integers(0, len(all_keys), 10_000)]

    return {
        "sources.decode_rows_per_s": _rate(decode, n),
        "engine.streaming.route_rows_per_s": _rate(
            lambda: [conv_partition_ids(t["conv_id"], parallelism) for t in tables],
            n,
        ),
        "stages.extract.key_rows_per_s": _rate(
            lambda: [extract(t) for t in tables], n
        ),
        "synopses.cm.update_rows_per_s": _rate(cm_update, n),
        "synopses.hll.update_rows_per_s": _rate(hll_update, n),
        "synopses.hll.merge_per_s": _rate(hll_merge, len(hlls)),
        "synopses.serde_mb_per_s": _rate(serde, blob_mb),
        "synopses.wavelet.update_rows_per_s": _rate(wavelet_update, n),
        "synopses.cm.query_keys_per_s": _rate(
            lambda: query_count_min(cm_full, qkeys), len(qkeys)
        ),
    }
