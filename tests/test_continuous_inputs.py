"""The continuous evaluators read exactly the emit files their job's last
run() wrote.  Unrelated ``emit-f*.parquet`` files in the job's out_dir
(zero-byte or readable, at stream indices inside and beyond the stream)
change neither the answers nor the set of files opened."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from condor_ray.config import BuildConfiguration, KeySpec
from condor_ray.engine.streaming import StreamingSynopsisJob
from condor_ray.evaluate.queries import query_count_min
from condor_ray.hashing import java_string_hash_array
from condor_ray.sources.transcripts import transcript_fragments
from condor_ray.stages.extract import ts_to_us
from condor_ray.windows import TumblingWindow

N_DECOYS = 10_000


def _decoy_bytes(tmp_path) -> bytes:
    """A readable emit table whose window no job here writes."""
    path = str(tmp_path / "decoy.parquet")
    pq.write_table(pa.table({
        "window_kind": ["tumbling"], "window_start": pa.array([0], pa.int64()),
        "window_end": pa.array([1 << 40], pa.int64()), "stratum": ["user"],
        "synopsis_type": ["CountMinSketch"], "payload": pa.array([b"junk"], pa.binary()),
        "n_rows": pa.array([1], pa.int64()),
    }), path)
    with open(path, "rb") as f:
        return f.read()


def _pollute(out_dir: str, decoy: bytes) -> None:
    os.makedirs(out_dir)
    for i in range(N_DECOYS):
        with open(os.path.join(out_dir, f"emit-f{i:05d}.parquet"), "wb") as f:
            f.write(b"" if i % 3 == 0 else decoy)


def _latest(frags, out_dir):
    from condor_ray.evaluate.continuous import ContinuousQueryLatest

    cfg = BuildConfiguration(
        synopsis="CountMinSketch", params=(4096, 3, 7), windows=[TumblingWindow(10_000)],
        key=KeySpec("conv_id", "java_hash"), parallelism=2,
    )
    job = StreamingSynopsisJob(cfg, out_dir, columns=["conv_id", "ts"])
    convs = [f"c{i:08d}" for i in range(0, 200, 7)]  # the fixture's conv ids
    standing = pd.DataFrame({
        "query_key": java_string_hash_array(convs).astype(np.int64), "conv": convs,
    })
    try:
        return ContinuousQueryLatest(job, query_count_min).run(frags, lambda k: standing)
    finally:
        job.shutdown()


def _timestamped_stratified(frags, out_dir):
    from condor_ray.evaluate.continuous import ContinuousQueryTimestampedStratified

    cfg = BuildConfiguration(
        synopsis="CountMinSketch", params=(4096, 3, 7), windows=[TumblingWindow(10_000)],
        key=KeySpec("turn_idx", "value"), stratify_by="role", parallelism=2,
    )
    job = StreamingSynopsisJob(cfg, out_dir, columns=["conv_id", "role", "turn_idx", "ts"])
    t = pa.concat_tables(pq.read_table(f, columns=["role", "turn_idx", "ts"]) for f in frags)
    q = pd.DataFrame({
        "query_key": t["turn_idx"].to_numpy().astype(np.int64),
        "query_ts": ts_to_us(t["ts"]),
        "stratum": t["role"].to_pandas().to_numpy(object),
    }).iloc[::5]
    # some arrive before the first synopsis (the buffer), the rest at every cycle
    arrivals = {k: q.iloc[k::len(frags) + 1] for k in range(len(frags) + 1)}
    ev = ContinuousQueryTimestampedStratified(job, query_count_min, max_synopsis_count=8)
    try:
        return ev.run(frags, arrivals)
    finally:
        job.shutdown()


@pytest.mark.parametrize("evaluate", [_latest, _timestamped_stratified],
                         ids=["latest", "timestamped_stratified"])
def test_evaluator_reads_only_its_jobs_emits(
    ray_session, tiny_fixture, tmp_path, monkeypatch, evaluate
):
    frags = transcript_fragments(tiny_fixture)
    clean_dir = str(tmp_path / "clean")
    clean = evaluate(frags, clean_dir)
    written = sorted(f for f in os.listdir(clean_dir) if f.startswith("emit-"))
    assert len(clean) and written

    dirty_dir = str(tmp_path / "dirty")
    _pollute(dirty_dir, _decoy_bytes(tmp_path))
    opened = []
    read_table = pq.read_table

    def recording_read_table(source, *args, **kwargs):
        if isinstance(source, str) and os.path.dirname(source) == dirty_dir:
            opened.append(os.path.basename(source))
        return read_table(source, *args, **kwargs)

    monkeypatch.setattr(pq, "read_table", recording_read_table)
    dirty = evaluate(frags, dirty_dir)
    monkeypatch.undo()

    pd.testing.assert_frame_equal(dirty, clean)
    assert sorted(opened) == written
