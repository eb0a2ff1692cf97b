"""Checkpoint hygiene of the three resumable streaming jobs: the newest
checkpoint is picked by its fragment cursor, only the two newest are kept,
and a crash/resume records each fragment once in the manifest and rewrites
identical emit files."""

import json
import os

import pytest

from condor_ray.config import BuildConfiguration, KeySpec
from condor_ray.engine.checkpoint import (
    latest_checkpoint,
    prune_checkpoints,
    truncate_manifest,
)
from condor_ray.pipelines.cep import Step
from condor_ray.sources.transcripts import generate_stream_fixture, transcript_fragments
from condor_ray.windows import SessionWindow, SlidingWindow


def test_latest_checkpoint_by_parsed_cursor(tmp_path):
    assert latest_checkpoint(str(tmp_path)) is None
    for name in ("ckpt-00004", "ckpt-99999", "ckpt-100000", ".tmp-ckpt-200000"):
        os.makedirs(tmp_path / name)
    assert latest_checkpoint(str(tmp_path)) == str(tmp_path / "ckpt-100000")


def test_prune_keeps_two_newest_by_parsed_cursor(tmp_path):
    for name in ("ckpt-00004", "ckpt-99998", "ckpt-99999", "ckpt-100000",
                 ".tmp-ckpt-200000", "other"):
        os.makedirs(tmp_path / name)
    prune_checkpoints(str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == [
        ".tmp-ckpt-200000", "ckpt-100000", "ckpt-99999", "other"
    ]
    prune_checkpoints(str(tmp_path))  # nothing more to prune
    assert len(os.listdir(tmp_path)) == 4


def test_truncate_manifest_keeps_fragments_below_cursor(tmp_path):
    lines = [{"fragment": k} for k in (0, 1, 2, 3, 4, 5)] + [{"summary": True}]
    with open(tmp_path / "manifest.jsonl", "w") as f:
        f.writelines(json.dumps(l) + "\n" for l in lines)
        f.write('{"fragment": 6, "ro')  # torn by the crash
    truncate_manifest(str(tmp_path), 4)
    got = [json.loads(l) for l in open(tmp_path / "manifest.jsonl")]
    assert got == [{"fragment": k} for k in range(4)]
    truncate_manifest(str(tmp_path / "missing"), 4)  # no manifest: no-op


def _synopsis_job(out, ckpt, every=4):
    from condor_ray.engine.streaming import StreamingSynopsisJob

    cfg = BuildConfiguration(
        synopsis="HyperLogLogSketch",
        params=(10, 7),
        windows=[SlidingWindow(5_000, 2_500)],
        key=KeySpec("conv_id", "java_hash"),
        parallelism=2,
    )
    return StreamingSynopsisJob(cfg, out, checkpoint_dir=ckpt, checkpoint_every=every)


def _session_job(out, ckpt, every=4):
    from condor_ray.engine.streaming_sessions import StreamingSessionJob

    cfg = BuildConfiguration(
        synopsis="CountMinSketch",
        params=(256, 3, 7),
        windows=[SessionWindow(15_000)],
        key=KeySpec("text", "java_hash"),
        parallelism=2,
    )
    return StreamingSessionJob(cfg, out, checkpoint_dir=ckpt, checkpoint_every=every)


def _pattern_job(out, ckpt, every=4):
    from condor_ray.engine.streaming_cep import StreamingPatternJob

    steps = [Step("role", "eq", "user"), Step("role", "eq", "assistant")]
    return StreamingPatternJob(
        steps, out, within_ms=30_000, parallelism=2,
        checkpoint_dir=ckpt, checkpoint_every=every,
    )


def _emit_files(out):
    return {
        f: open(os.path.join(out, f), "rb").read()
        for f in sorted(os.listdir(out))
        if f.startswith("emit-") and f.endswith(".parquet")
    }


@pytest.mark.parametrize("make_job", [_synopsis_job, _session_job, _pattern_job])
def test_crash_resume_manifest_exactly_once(ray_session, tmp_path, make_job):
    frags = transcript_fragments(
        generate_stream_fixture(n_rows=4000, n_convs=100, seed=7, n_fragments=8)
    )
    assert len(frags) == 8

    ref_out = str(tmp_path / "ref")
    job = make_job(ref_out, str(tmp_path / "ref-ckpt"))
    job.run(frags)
    job.shutdown()

    out, ckpt = str(tmp_path / "out"), str(tmp_path / "ckpt")
    job = make_job(out, ckpt)
    job.run(frags[:7], final_flush=False)  # "crash" after fragment 6
    job.shutdown()
    job = make_job(out, ckpt)
    assert job.resume() and job.next_fragment == 4
    job.run(frags)
    job.shutdown()

    lines = [json.loads(l) for l in open(os.path.join(out, "manifest.jsonl"))]
    assert [l["fragment"] for l in lines if "fragment" in l] == list(range(8))
    ref_files = _emit_files(ref_out)
    assert ref_files and _emit_files(out) == ref_files


@pytest.mark.parametrize("make_job", [_synopsis_job, _session_job, _pattern_job])
def test_checkpoints_pruned_to_two_newest(ray_session, tmp_path, make_job):
    frags = transcript_fragments(
        generate_stream_fixture(n_rows=4000, n_convs=100, seed=7, n_fragments=12)
    )
    assert len(frags) == 12
    out, ckpt = str(tmp_path / "out"), str(tmp_path / "ckpt")
    job = make_job(out, ckpt, every=2)
    job.run(frags, final_flush=False)
    job.shutdown()
    assert sorted(os.listdir(ckpt)) == ["ckpt-00010", "ckpt-00012"]
    job = make_job(out, ckpt, every=2)
    try:
        assert job.resume() and job.next_fragment == 12
    finally:
        job.shutdown()
