"""The four benchmark workloads, driven only through the engines' public
calls (job constructors, ``run``, ``shutdown``, the continuous evaluator)
and the files those calls write (emission Parquet files, ``manifest.jsonl``).

Every workload runs with ``parallelism=2`` on a fixture built from the seed
by ``condor_ray.sources.transcripts``: a Zipf-skewed ``(conv_id, turn_idx,
ts)`` stream in which every tenth row arrives 20 s late.

- ``cm_tumbling_ingest``: one long-lived ``StreamingSynopsisJob`` with
  Count-Min{65536,5,7} over 60 s tumbling windows, fed the stream as
  consecutive pipelined runs of a few fragments each; one operation is one
  run.  Few windows, so split/route, shard transport and kernel ingest carry
  the cost.
- ``hll_sliding_close``: the same stream and driving, with
  HyperLogLog{16,7} over 5 s / 2.5 s sliding windows.  Thousands of
  windows, so slice collection, merge and emission carry the cost: it reads
  the state store where the Count-Min workload writes it.
- ``cm_continuous_openloop``: ``ContinuousQueryLatest`` over Count-Min with
  5 s tumbling windows; one small fragment per cycle, offered open-loop at a
  fixed rate, and a standing set of 10k query keys answered every cycle.
  Per-cycle fixed costs carry the cost.
- ``wavelet_ordered``: ``StreamingWaveletJob`` (size 1024, 60 s tumbling), a
  fresh job per bounded replay: the only non-mergeable, ordinal-chained
  path, closed on the driver thread.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np
import ray

import layers
import reference

PARALLELISM = 2
OP_TIMEOUT_S = 45.0
TRACE_OPS = 4  # operations in a traced run
TIMELINE_FLUSH_S = 2.5
CENTRAL_SHARE = 0.7  # of each fixture's fragments, see ``central``

# mergeable stream workloads
STREAM_ROWS = 6_000_000  # the jobs read the central 4.2M rows
FRAGMENT_ROWS = 50_000
ROWS_PER_CONV = 1_875  # 3200 conversations: the Zipf tail averages out per seed
CM_OP_FRAGMENTS = 4  # fragments per Count-Min run
HLL_OP_FRAGMENTS = 1  # fragments per HLL run

# open loop
CYCLE_FRAGMENT_ROWS = 2_000
CYCLE_CONVS = 640  # a fragment spans ~12.5 s of event time: every cycle closes windows
CYCLE_PERIOD_S = 0.100  # offered rate: 20k rows/s, one cycle per 100 ms
QUERY_KEYS = 10_000
WARMUP_CYCLES = 5

# wavelets
WAVELET_FIXTURE_ROWS = 600_000  # a replay reads the central 420k rows
WAVELET_FRAGMENTS = 10
WAVELET_ROWS_PER_CONV = 1_000

LAYER_UNITS = {
    "engine.streaming.split_busy_s": "s",
    "engine.streaming.split_calls": "count",
    "engine.streaming.arg_deserialize_s": "s",
    "engine.streaming.store_outputs_s": "s",
    "engine.streaming.merge_emit_busy_s": "s",
    "engine.streaming.merge_emit_calls": "count",
    "engine.streaming.driver_idle_s": "s",
    "engine.streaming.ray_calls": "count",
    "engine.streaming.windows_emitted": "count",
    "engine.streaming.late_dropped": "count",
    "state.store.ingest_busy_s": "s",
    "state.store.ingest_calls": "count",
    "state.store.ingest_sec": "s",
    "state.store.collect_busy_s": "s",
    "state.store.collect_calls": "count",
    "state.store.max_open_slices": "count",
    "engine.streaming_wavelets.split_busy_s": "s",
    "engine.streaming_wavelets.builder_ingest_busy_s": "s",
    "engine.streaming_wavelets.driver_close_s": "s",
    "evaluate.continuous.cycle_s": "s",
    "evaluate.continuous.queries_answered": "count",
    "sources.decode_rows_per_s": "1/s",
    "engine.streaming.route_rows_per_s": "1/s",
    "stages.extract.key_rows_per_s": "1/s",
    "synopses.cm.update_rows_per_s": "1/s",
    "synopses.hll.update_rows_per_s": "1/s",
    "synopses.hll.merge_per_s": "1/s",
    "synopses.serde_mb_per_s": "MB/s",
    "synopses.wavelet.update_rows_per_s": "1/s",
    "synopses.cm.query_keys_per_s": "1/s",
    "trace.traced_rows_per_s": "1/s",
    "trace.untraced_rows_per_s": "1/s",
    "failed_frac": "ratio",
    "generator_lag_p90_ms": "ms",
    "host.steal_frac": "ratio",
}


class OpFailed(Exception):
    """An operation raised or timed out."""


def timeline_spans(t0: float, t1: float) -> layers.TaskSpans:
    """Task spans in ``[t0, t1]``; waits for Ray to flush its task events
    (buffered for up to a second in each worker and the driver)."""
    time.sleep(TIMELINE_FLUSH_S)
    return layers.TaskSpans(ray.timeline(), t0, t1)


@dataclass
class Measurement:
    """What one workload's timed phase observed.  ``latencies_ms`` holds one
    sample per operation; ``busy_s`` sums the operations' own durations."""

    latencies_ms: list = field(default_factory=list)
    lags_ms: list = field(default_factory=list)  # open loop only
    rows: int = 0
    wall_s: float = 0.0  # first fragment offered -> last result durable
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    @property
    def rows_per_s(self) -> float:
        return self.rows / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def busy_rows_per_s(self) -> float:
        return self.rows / self.busy_s if self.busy_s > 0 else 0.0


def timed_call(fn, timeout_s: float = OP_TIMEOUT_S):
    """Run ``fn()`` on a daemon thread; return ``(seconds, result)``.

    Raises ``OpFailed`` when ``fn`` raises or outlives ``timeout_s``; the
    thread is then abandoned, so a stuck Ray call cannot stall the run."""
    box: dict = {}

    def target():
        t0 = time.perf_counter()
        try:
            box["result"] = fn()
        except Exception as e:  # handed to the caller below
            box["error"] = e
        box["dt"] = time.perf_counter() - t0

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout_s)
    if th.is_alive():
        raise OpFailed(f"timed out after {timeout_s:.0f} s")
    if "error" in box:
        raise OpFailed(repr(box["error"])) from box["error"]
    return box["dt"], box.get("result")


def manifest_lines(out_dir: str) -> list[dict]:
    path = os.path.join(out_dir, "manifest.jsonl")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def late_in(lines: list[dict]) -> int:
    return sum(int(r["late_dropped"]) for r in lines if "fragment" in r)


def build_fixture(work_dir: str, seed: int, n_rows: int, n_convs: int,
                  n_fragments: int) -> list[str]:
    """Generate the fixture in a child process (so its memory peak stays out
    of ``peak_rss_mb``), then read every file once into the page cache."""
    out_dir = os.path.join(work_dir, "fixture")
    args = dict(n_rows=n_rows, n_convs=n_convs, seed=seed,
                n_fragments=n_fragments, out_dir=out_dir,
                columns=["conv_id", "turn_idx", "ts"])
    code = (
        "import json, sys\n"
        "from condor_ray.sources.transcripts import generate_stream_fixture\n"
        "a = json.loads(sys.argv[1]); a['columns'] = tuple(a['columns'])\n"
        "generate_stream_fixture(**a)\n"
    )
    subprocess.run([sys.executable, "-c", code, json.dumps(args)], check=True,
                   timeout=120)
    from condor_ray.sources.transcripts import transcript_fragments

    paths = transcript_fragments(out_dir)
    for p in paths:
        # write back now and read into the page cache: the timed phase
        # should neither wait on the fixture's writeback nor its first read
        with open(p, "rb") as f:
            os.fsync(f.fileno())
            while f.read(1 << 20):
                pass
    return paths


def central(paths: list[str], n: int) -> list[str]:
    """The middle ``n`` fragments.  The fixture's event-time density ramps up
    over its first fragments and thins out over a long tail of long
    conversations; the middle part is the steady stream every seed shares."""
    lo = (len(paths) - n) // 2
    return paths[lo : lo + n]


def fragment_rows(paths: list[str]) -> list[int]:
    import pyarrow.parquet as pq

    return [pq.read_metadata(p).num_rows for p in paths]


def ping(job) -> None:
    """Wait until a job's actors are up and warm, and a task worker has
    imported the engines: start-up belongs to set-up, not to the first
    operation.  Each actor ingests an empty shard, because an actor's first
    Arrow argument costs about 0.5 s of one-time imports."""
    import pyarrow as pa

    empty = pa.table({"ts": pa.array([], type=pa.timestamp("us"))})
    actors = list(getattr(job, "stores", [])) + list(getattr(job, "builders", []))
    try:
        ray.get([a.ingest.remote(empty) for a in actors], timeout=OP_TIMEOUT_S)
        ray.get(_import_engines.remote(), timeout=OP_TIMEOUT_S)
    except ray.exceptions.RayError as e:
        raise OpFailed(f"actor start-up: {e!r}") from e


@ray.remote
def _import_engines() -> None:
    import condor_ray.engine.streaming  # noqa: F401
    import condor_ray.engine.streaming_wavelets  # noqa: F401


def job_spans_layers(spans: layers.TaskSpans, wall_s: float) -> dict:
    """Layer metrics every job's timeline gives."""
    return {
        "engine.streaming.split_busy_s": spans.busy("_partition_fragment"),
        "engine.streaming.split_calls": spans.count("_partition_fragment"),
        "engine.streaming.arg_deserialize_s": spans.phase_total("deserialize_arguments"),
        "engine.streaming.store_outputs_s": spans.phase_total("store_outputs"),
        "engine.streaming.merge_emit_busy_s": spans.busy("_merge_and_emit"),
        "engine.streaming.merge_emit_calls": spans.count("_merge_and_emit"),
        "engine.streaming.driver_idle_s": max(0.0, wall_s - spans.busy_union_s),
        "engine.streaming.ray_calls": spans.total_calls,
        "state.store.ingest_busy_s": spans.busy("PartitionStateStore.ingest"),
        "state.store.ingest_calls": spans.count("PartitionStateStore.ingest"),
        "state.store.collect_busy_s": spans.busy(
            "PartitionStateStore.collect_closed_slices_snapshot"),
        "state.store.collect_calls": spans.count(
            "PartitionStateStore.collect_closed_slices_snapshot"),
        "engine.streaming_wavelets.split_busy_s": spans.busy("_split_wavelet_fragment"),
        "engine.streaming_wavelets.builder_ingest_busy_s": spans.busy(
            "WaveletBuilderActor.ingest"),
    }


def store_layers(lines: list[dict], base: list[dict]) -> dict:
    """State-store figures from the manifest's last summary line; the
    stores' ``ingest_sec`` is cumulative, so ``base`` (the summary before the
    traced runs) is subtracted."""
    summaries = [r for r in lines if r.get("summary")]
    parts = summaries[-1]["partitions"] if summaries else base
    return {
        "state.store.ingest_sec": sum(p["ingest_sec"] for p in parts)
        - sum(p["ingest_sec"] for p in base),
        "state.store.max_open_slices": max(
            (p["max_open_slices"] for p in parts), default=0),
        "engine.streaming.late_dropped": late_in(lines),
    }


def last_summary_partitions(out_dir: str) -> list[dict]:
    summaries = [r for r in manifest_lines(out_dir) if r.get("summary")]
    return summaries[-1]["partitions"] if summaries else []


def dense_count_min():
    """A reference Count-Min{65536,5,7} in the dense layout, which updates
    through the native kernel (the counters do not depend on the layout)."""
    from condor_ray.synopses import CountMinSketch

    cm = CountMinSketch(65536, 5, 7)
    cm.array = np.zeros((cm.height, cm.width), dtype=np.int32)
    return cm


class Workload:
    """Set-up, timed phase, traced phase and output check of one workload.
    ``scale`` shrinks every input (the self-tests run at a tiny scale)."""

    name = ""
    columns = ["conv_id", "ts"]

    def __init__(self, work_dir: str, seed: int, seconds: float, scale: float = 1.0):
        self.work_dir = work_dir
        self.seed = seed
        self.seconds = seconds
        self.scale = scale

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, leave_for_trace: bool) -> Measurement:
        raise NotImplementedError

    def traced(self) -> tuple[dict, float]:
        """Per-layer metrics of one traced run, and its rows per busy second."""
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def ladder_inputs(self) -> list[str]:
        return self.paths[:8]


# -- mergeable stream workloads -------------------------------------------


class _MergeableStream(Workload):
    """Long-lived jobs fed the stream as consecutive pipelined ``run`` calls
    of ``op_fragments`` fragments each; one operation is one such run.  When
    the fixture is used up, a final-flush run closes the job's remaining
    windows and a fresh job (an *epoch*) replays the stream from the start.
    Every epoch's emitted windows are checked against the reference for the
    fragments it processed."""

    op_fragments = 1

    def config(self):
        raise NotImplementedError

    def make_synopsis(self):
        raise NotImplementedError

    def setup(self) -> None:
        # both mergeable workloads read this same stream
        frag_rows = max(1_000, int(FRAGMENT_ROWS * self.scale))
        rows = int(STREAM_ROWS * self.scale)
        paths = build_fixture(self.work_dir, self.seed, rows,
                              max(20, rows // ROWS_PER_CONV), rows // frag_rows)
        self.paths = central(paths, int(len(paths) * CENTRAL_SHARE))
        self.rows_of = fragment_rows(self.paths)
        self.epochs: list[dict] = []
        self._new_epoch()
        self._op()  # warm-up run: the split/merge workers' first tasks

    def _new_epoch(self) -> None:
        from condor_ray.engine.streaming import StreamingSynopsisJob

        out_dir = os.path.join(self.work_dir, f"out{len(self.epochs)}")
        self.job = StreamingSynopsisJob(self.config(), out_dir, columns=self.columns)
        ping(self.job)
        self.epochs.append({"out_dir": out_dir, "end": 0, "flushed": False})

    @property
    def epoch(self) -> dict:
        return self.epochs[-1]

    def _left(self) -> int:
        return (len(self.paths) - self.epoch["end"]) // self.op_fragments

    def _op(self) -> tuple[float, int]:
        lo = self.epoch["end"]
        hi = lo + self.op_fragments
        dt, _ = timed_call(lambda: self.job.run(self.paths[:hi], final_flush=False))
        self.epoch["end"] = hi
        return dt, sum(self.rows_of[lo:hi])

    def _flush(self) -> float:
        """Final-flush run of the current epoch; returns its seconds."""
        if self.epoch["flushed"]:
            return 0.0
        self.epoch["flushed"] = True
        end = self.epoch["end"]
        dt, _ = timed_call(lambda: self.job.run(self.paths[:end], final_flush=True,
                                                pipelined=False))
        return dt

    def _next_epoch(self) -> float:
        dt = self._flush()
        self.job.shutdown()
        self._new_epoch()  # actor start-up: not timed
        return dt

    def measure(self, leave_for_trace: bool) -> Measurement:
        m = Measurement()
        t_first = time.perf_counter()
        try:
            while time.perf_counter() - t_first < self.seconds:
                if self._left() < 1:
                    m.attempted += 1
                    m.busy_s += self._next_epoch()
                m.attempted += 1
                dt, rows = self._op()
                m.latencies_ms.append(dt * 1e3)
                m.busy_s += dt
                m.rows += rows
            if not leave_for_trace:
                # the flush makes the last windows durable: a timed step
                m.attempted += 1
                m.busy_s += self._flush()
        except OpFailed as e:
            m.failed += 1
            m.notes.append(f"operation {m.attempted}: {e}")
        # rows per second of the jobs' own time: fresh epochs' actor
        # start-up is not part of any run
        m.wall_s = m.busy_s
        return m

    def traced(self) -> tuple[dict, float]:
        if self._left() < TRACE_OPS:
            self._next_epoch()
        out_dir = self.epoch["out_dir"]
        base = last_summary_partitions(out_dir)
        n_before = len(manifest_lines(out_dir))
        t0 = time.time()
        busy, rows = 0.0, 0
        for _ in range(TRACE_OPS):
            dt, r = self._op()
            busy += dt
            rows += r
        t1 = time.time()
        spans = timeline_spans(t0, t1)
        lines = manifest_lines(out_dir)[n_before:]
        out = job_spans_layers(spans, t1 - t0)
        out.update(store_layers(lines, base))
        out["engine.streaming.windows_emitted"] = sum(
            int(r.get("windows_emitted", 0)) for r in lines if r.get("summary"))
        return out, rows / busy

    def check(self) -> list[str]:
        """Check each epoch against the reference; an epoch whose output is
        identical to an already-checked epoch over the same fragments needs
        no second recomputation."""
        self._flush()
        w = self.config().windows[0]
        cols = ["window_start", "window_end", "n_rows", "payload"]
        bad: list[str] = []
        passed: dict[int, tuple] = {}  # fragments processed -> checked output
        loaded = reference.load_fragments(
            self.paths[: max(ep["end"] for ep in self.epochs)])
        for i, ep in enumerate(self.epochs):
            emitted = reference.read_emits(ep["out_dir"], cols).sort_by("window_start")
            late = late_in(manifest_lines(ep["out_dir"]))
            if passed.get(ep["end"]) == (late, emitted):
                continue
            found, _, _ = reference.check_mergeable(
                emitted, loaded[: ep["end"]], w.size_us, getattr(w, "slide_us", w.size_us),
                self.make_synopsis, late)
            bad += [f"epoch {i}: {b}" for b in found]
            if not found:
                passed[ep["end"]] = (late, emitted)
        return bad

    def close(self) -> None:
        self.job.shutdown()


class CmTumblingIngest(_MergeableStream):
    name = "cm_tumbling_ingest"
    op_fragments = CM_OP_FRAGMENTS

    def config(self):
        from condor_ray.config import BuildConfiguration, KeySpec
        from condor_ray.windows import TumblingWindow

        return BuildConfiguration(
            synopsis="CountMinSketch", params=(65536, 5, 7),
            windows=[TumblingWindow(60_000)], key=KeySpec("conv_id", "java_hash"),
            parallelism=PARALLELISM)

    def make_synopsis(self):
        return dense_count_min()


class HllSlidingClose(_MergeableStream):
    name = "hll_sliding_close"
    op_fragments = HLL_OP_FRAGMENTS

    def config(self):
        from condor_ray.config import BuildConfiguration, KeySpec
        from condor_ray.windows import SlidingWindow

        return BuildConfiguration(
            synopsis="HyperLogLogSketch", params=(16, 7),
            windows=[SlidingWindow(5_000, 2_500)],
            key=KeySpec("conv_id", "java_hash"), parallelism=PARALLELISM)

    def make_synopsis(self):
        from condor_ray.synopses import HyperLogLogSketch

        return HyperLogLogSketch(16, 7)


# -- open-loop continuous queries ------------------------------------------


class CmContinuousOpenLoop(Workload):
    """Cycle k is due ``k * CYCLE_PERIOD_S`` after the first; the benchmark
    wraps the job's ``run`` to hold each cycle until it is due and to stamp
    when it started and when the previous cycle's queries were answered."""

    name = "cm_continuous_openloop"
    window_ms = 5_000

    def config(self):
        from condor_ray.config import BuildConfiguration, KeySpec
        from condor_ray.windows import TumblingWindow

        return BuildConfiguration(
            synopsis="CountMinSketch", params=(65536, 5, 7),
            windows=[TumblingWindow(self.window_ms)],
            key=KeySpec("conv_id", "java_hash"), parallelism=PARALLELISM)

    def setup(self) -> None:
        from condor_ray.engine.streaming import StreamingSynopsisJob

        self.cycles = max(4, int(self.seconds / CYCLE_PERIOD_S))
        n_use = max(self.cycles, WARMUP_CYCLES, 3 * TRACE_OPS)
        n_frag = int(n_use / CENTRAL_SHARE) + 1
        paths = build_fixture(self.work_dir, self.seed, n_frag * CYCLE_FRAGMENT_ROWS,
                              CYCLE_CONVS, n_frag)
        self.paths = central(paths, n_use)
        self.rows_of = fragment_rows(self.paths)
        rng = np.random.default_rng(self.seed)
        ids = rng.integers(0, 2 * CYCLE_CONVS, QUERY_KEYS)
        self.keys = np.array([reference.java_hash(f"c{i:08d}") for i in ids],
                             dtype=np.int64)
        # warm-up: a throwaway job runs a few cycles (worker imports, first
        # task leases), then the measured job's actors are started
        warm = StreamingSynopsisJob(self.config(), os.path.join(self.work_dir, "warm"),
                                    columns=self.columns)
        self._open_loop(warm, self.paths[:WARMUP_CYCLES])
        warm.shutdown()
        self.out_dir = os.path.join(self.work_dir, "out")
        self.job = StreamingSynopsisJob(self.config(), self.out_dir,
                                        columns=self.columns)
        ping(self.job)

    def _open_loop(self, job, paths: list[str]):
        """Run ``ContinuousQueryLatest`` over ``paths`` open-loop.  Returns
        the evaluator result, per-cycle ``(due, start, run_end, end)`` stamps
        and the loop's wall span."""
        import pandas as pd

        from condor_ray.evaluate.continuous import ContinuousQueryLatest
        from condor_ray.evaluate.queries import query_count_min

        inner = job.run
        stamps: list[list[float]] = []
        t_due0 = time.perf_counter() + 0.01

        def paced_run(fragment_paths, *args, **kwargs):
            now = time.perf_counter()
            if stamps:
                stamps[-1][3] = now  # previous cycle's queries are answered
            due = t_due0 + len(stamps) * CYCLE_PERIOD_S
            if now < due:
                time.sleep(due - now)
            start = time.perf_counter()
            out = inner(fragment_paths, *args, **kwargs)
            stamps.append([due, start, time.perf_counter(), None])
            return out

        job.run = paced_run
        queries = pd.DataFrame({"query_key": self.keys})
        ev = ContinuousQueryLatest(job, query_count_min)
        try:
            _, res = timed_call(
                lambda: ev.run(paths, lambda k: queries),
                timeout_s=OP_TIMEOUT_S + 3 * len(paths) * CYCLE_PERIOD_S)
        finally:
            job.run = inner
        stamps[-1][3] = time.perf_counter()
        return res, stamps, stamps[-1][3] - t_due0

    def measure(self, leave_for_trace: bool) -> Measurement:
        m = Measurement()
        m.attempted = self.cycles + 1  # + the end-of-stream flush cycle
        try:
            self.result, stamps, m.wall_s = self._open_loop(
                self.job, self.paths[: self.cycles])
        except OpFailed as e:
            m.failed = m.attempted
            m.notes.append(f"open loop: {e}")
            self.result = None
            return m
        for due, start, run_end, end in stamps:
            m.latencies_ms.append((end - due) * 1e3)
            m.lags_ms.append(max(0.0, start - due) * 1e3)
            m.busy_s += end - start
        m.rows = sum(self.rows_of[: self.cycles])
        m.notes.append(
            f"open loop: {self.cycles} cycles of {CYCLE_FRAGMENT_ROWS} rows every "
            f"{CYCLE_PERIOD_S * 1e3:.0f} ms = "
            f"{CYCLE_FRAGMENT_ROWS / CYCLE_PERIOD_S:.0f} rows/s offered")
        return m

    def traced(self) -> tuple[dict, float]:
        from condor_ray.engine.streaming import StreamingSynopsisJob

        # the timed job's actors hold half the CPU budget: release them, or
        # the traced job's actors leave no CPU for the split tasks
        self.job.shutdown()
        out_dir = os.path.join(self.work_dir, "traced")
        job = StreamingSynopsisJob(self.config(), out_dir, columns=self.columns)
        ping(job)
        n = 3 * TRACE_OPS
        t0 = time.time()
        res, stamps, _ = self._open_loop(job, self.paths[:n])
        t1 = time.time()
        spans = timeline_spans(t0, t1)  # before the actors (and their events) go
        job.shutdown()
        busy = sum(e - s for _, s, _, e in stamps)  # the wall minus pacing sleeps
        lines = manifest_lines(out_dir)
        out = job_spans_layers(spans, busy)
        out.update(store_layers(lines, []))
        out["engine.streaming.windows_emitted"] = len(
            reference.read_emits(out_dir, ["window_start"]))
        out["evaluate.continuous.cycle_s"] = sum(e - r for _, _, r, e in stamps)
        out["evaluate.continuous.queries_answered"] = len(res)
        return out, sum(self.rows_of[:n]) / busy

    def check(self) -> list[str]:
        from condor_ray.evaluate.queries import query_count_min
        from condor_ray.synopses import CountMinSketch

        if self.result is None:
            return ["open loop did not finish"]
        emitted = reference.read_emits(
            self.out_dir, ["window_start", "window_end", "n_rows", "payload"])
        frags = reference.load_fragments(self.paths[: self.cycles])
        size = self.window_ms * 1000
        bad, rows, latest = reference.check_mergeable(
            emitted, frags, size, size, dense_count_min,
            late_in(manifest_lines(self.out_dir)))
        if latest is None:
            return bad + ["no window closed"]
        last = self.result[self.result["cycle"] == self.result["cycle"].max()]
        want = CountMinSketch(65536, 5, 7)
        want.update_batch(reference.latest_window_keys(rows, size, latest))
        if len(last) != len(self.keys) or not (
            (last["window_start"] == latest).all()
            and np.array_equal(last["result"].to_numpy(),
                               query_count_min(want, self.keys))
        ):
            bad.append("last cycle's standing-query answers differ from "
                       "query_count_min on the latest window")
        return bad

    def close(self) -> None:
        self.job.shutdown()


# -- ordered (non-mergeable) wavelets ---------------------------------------


class WaveletOrdered(Workload):
    """A fresh ``StreamingWaveletJob`` per operation (the job has no
    continuation: each ``run`` replays its fragment list from the start).
    Every operation's output must equal the first one's, which is checked
    against the reference."""

    name = "wavelet_ordered"
    columns = ["conv_id", "turn_idx", "ts"]
    size_us = 60_000_000

    def _job(self, out_dir: str):
        from condor_ray.config import KeySpec
        from condor_ray.engine.streaming_wavelets import StreamingWaveletJob
        from condor_ray.windows import TumblingWindow

        job = StreamingWaveletJob(
            TumblingWindow(self.size_us // 1000), out_dir, size=1024,
            parallelism=PARALLELISM, key=KeySpec("turn_idx", "value"),
            columns=self.columns)
        ping(job)  # actor start-up is not replay time
        return job

    def setup(self) -> None:
        rows = max(2_000, int(WAVELET_FIXTURE_ROWS * self.scale))
        paths = build_fixture(self.work_dir, self.seed, rows,
                              max(10, rows // WAVELET_ROWS_PER_CONV), WAVELET_FRAGMENTS)
        self.paths = central(paths, int(WAVELET_FRAGMENTS * CENTRAL_SHARE))
        self.rows_total = sum(fragment_rows(self.paths))
        self.ops = 0
        self.first: dict | None = None
        self.mismatch: list[str] = []
        self._op()  # warm-up replay, checked like the others

    def _op(self, traced: bool = False) -> tuple[float, dict]:
        """One replay on a fresh job; returns its seconds and, if ``traced``,
        its layer metrics.  They are read before the job's actors go away,
        because a killed actor loses the task events it has not reported."""
        out_dir = os.path.join(self.work_dir, f"op{self.ops:04d}")
        self.ops += 1
        job = self._job(out_dir)
        closes: list[float] = []
        if traced and hasattr(job, "_close"):  # the close runs on the driver
            inner = job._close

            def timed_close(*a, **kw):
                t = time.perf_counter()
                try:
                    return inner(*a, **kw)
                finally:
                    closes.append(time.perf_counter() - t)

            job._close = timed_close
        layer: dict = {}
        try:
            t0 = time.time()
            dt, _ = timed_call(lambda: job.run(self.paths))
            t1 = time.time()
            if traced:
                layer = job_spans_layers(timeline_spans(t0, t1), t1 - t0)
                layer["engine.streaming_wavelets.driver_close_s"] = sum(closes)
        finally:
            job.shutdown()
        self._compare(out_dir)
        return dt, layer

    def _compare(self, out_dir: str) -> None:
        t = reference.read_emits(out_dir, ["window_start", "n_rows", "payload"])
        got = {
            "late": late_in(manifest_lines(out_dir)),
            "starts": t["window_start"].to_pylist(),
            "n_rows": t["n_rows"].to_pylist(),
            "payload": t["payload"].to_pylist(),
        }
        if self.first is None:
            self.first = got
            frags = reference.load_fragments(self.paths)
            self.mismatch += reference.check_wavelet(t, frags, self.size_us, got["late"])
        elif got != self.first:
            self.mismatch.append(f"{out_dir}: output differs from the first replay")
        shutil.rmtree(out_dir, ignore_errors=True)

    def measure(self, leave_for_trace: bool) -> Measurement:
        m = Measurement()
        t_first = time.perf_counter()
        while time.perf_counter() - t_first < self.seconds:
            m.attempted += 1
            try:
                dt, _ = self._op()
            except OpFailed as e:
                m.failed += 1
                m.notes.append(f"replay {m.attempted}: {e}")
                break
            m.latencies_ms.append(dt * 1e3)
            m.busy_s += dt
            m.rows += self.rows_total
        # each replay starts a fresh job, whose actor start-up is not timed:
        # rows per second of replay time
        m.wall_s = m.busy_s
        return m

    def traced(self) -> tuple[dict, float]:
        dt, out = self._op(traced=True)
        out["engine.streaming.windows_emitted"] = len(self.first["starts"])
        out["engine.streaming.late_dropped"] = self.first["late"]
        return out, self.rows_total / dt

    def check(self) -> list[str]:
        return list(self.mismatch)


WORKLOADS = {
    w.name: w
    for w in (CmTumblingIngest, HllSlidingClose, CmContinuousOpenLoop, WaveletOrdered)
}
