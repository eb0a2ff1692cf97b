"""The fragment-stream driver shared by the six streaming engines: a final
flush ends each engine's stream, a wavelet stream continues across run()
calls, asof and join write the standard manifest, and the footer reader
agrees with a column read."""

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from condor_ray.config import BuildConfiguration, KeySpec
from condor_ray.engine.driver import NEG_INF, POS_INF, fragment_ts_stats
from condor_ray.pipelines.cep import Step
from condor_ray.sources.transcripts import transcript_fragments
from condor_ray.stages.extract import ts_to_us
from condor_ray.windows import SessionWindow, TumblingWindow

W_MS = 10_000


def _sessions(out):
    from condor_ray.engine.streaming_sessions import StreamingSessionJob

    cfg = BuildConfiguration(
        synopsis="CountMinSketch", params=(128, 3, 7), windows=[SessionWindow(15_000)],
        key=KeySpec("conv_id", "java_hash"), parallelism=2,
    )
    job = StreamingSessionJob(cfg, out)
    return job, job.run


def _cep(out):
    from condor_ray.engine.streaming_cep import StreamingPatternJob

    steps = [Step("role", "eq", "user"), Step("role", "eq", "assistant")]
    job = StreamingPatternJob(steps, out, within_ms=30_000, parallelism=2)
    return job, job.run


def _asof(out):
    from condor_ray.engine.streaming_asof import StreamingAsofJob

    job = StreamingAsofJob(parallelism=2, out_dir=out)
    return job, job.run


def _join(out):
    from condor_ray.engine.streaming_join import StreamingJoinJob

    job = StreamingJoinJob(parallelism=2, out_dir=out)
    return job, lambda frags: job.run(frags, [])


def _wavelets(out):
    from condor_ray.engine.streaming_wavelets import StreamingWaveletJob

    job = StreamingWaveletJob(
        TumblingWindow(W_MS), out, size=64, parallelism=2,
        key=KeySpec("turn_idx", "value"),
    )
    return job, job.run


@pytest.mark.parametrize(
    "make_job", [_sessions, _cep, _asof, _join, _wavelets],
    ids=["sessions", "cep", "asof", "join", "wavelets"],
)
def test_run_after_final_flush_raises(ray_session, tiny_fixture, tmp_path, make_job):
    """A final flush emits the still-open windows, so it ends the stream: a
    continuation would re-emit them and reuse the flush's file name.  (The
    synopsis engine's case is in test_streaming.TestFlushKeepsWatermark.)"""
    frags = transcript_fragments(tiny_fixture)
    out = tmp_path / "out"
    job, run = make_job(str(out))
    try:
        run(frags[:3])
        before = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
        with pytest.raises(RuntimeError, match="final flush"):
            run(frags)
        assert {f: (out / f).read_bytes() for f in sorted(os.listdir(out))} == before
    finally:
        job.shutdown()


def _outputs(out):
    emits = {
        f: open(os.path.join(out, f), "rb").read()
        for f in sorted(os.listdir(out)) if f.endswith(".parquet")
    }
    with open(os.path.join(out, "manifest.jsonl")) as f:
        lines = [json.loads(line) for line in f]
    return emits, [r for r in lines if "fragment" in r]


def test_wavelet_stream_continues_across_runs(ray_session, tiny_fixture, tmp_path):
    """The ordinal counters and the cursor live on the job: a stream fed in
    two run() calls writes the same bytes as one run()."""
    frags = transcript_fragments(tiny_fixture)
    outs = []
    for name, pieces in (("once", [frags]), ("twice", [frags[:3], frags])):
        out = str(tmp_path / name)
        job, _ = _wavelets(out)
        try:
            for i, piece in enumerate(pieces):
                job.run(piece, final_flush=i == len(pieces) - 1)
        finally:
            job.shutdown()
        outs.append(_outputs(out))
    (emits, lines), (emits2, lines2) = outs
    assert len(emits) > 2 and emits2 == emits
    assert lines2 == lines and [r["fragment"] for r in lines] == list(range(len(frags)))


def _call_fragments(fixture, d, descending):
    """The fixture's tool calls cut into three fragments, in ts order or
    (for late arrivals) reversed."""
    calls = pq.read_table(f"{fixture}/tool_calls.parquet")
    calls = calls.take(pc.sort_indices(calls, sort_keys=[
        ("ts", "descending" if descending else "ascending"), ("call_id", "ascending")]))
    os.makedirs(d)
    bounds = np.linspace(0, calls.num_rows, 4).astype(int)
    paths = []
    for i in range(3):
        p = os.path.join(d, f"calls-{i:05d}.parquet")
        pq.write_table(calls.slice(bounds[i], bounds[i + 1] - bounds[i]), p)
        paths.append(p)
    return paths


@pytest.mark.parametrize("engine", ["asof", "join"])
def test_asof_and_join_write_the_standard_manifest(
    ray_session, tiny_fixture, tmp_path, engine
):
    from condor_ray.engine.streaming_asof import StreamingAsofJob
    from condor_ray.engine.streaming_join import StreamingJoinJob

    frags = transcript_fragments(tiny_fixture)
    out = str(tmp_path / "out")
    if engine == "asof":
        job = StreamingAsofJob(parallelism=2, out_dir=out)
        res = job.run(frags)
    else:
        calls = _call_fragments(tiny_fixture, str(tmp_path / "calls"), descending=True)
        frags = frags + calls  # every scheduled fragment, in any order
        job = StreamingJoinJob(parallelism=2, out_dir=out)
        res = job.run(frags[: -len(calls)], calls)
    job.shutdown()
    with open(os.path.join(out, "manifest.jsonl")) as f:
        lines = [json.loads(line) for line in f]
    per_frag = [r for r in lines if "fragment" in r]
    assert [r["fragment"] for r in per_frag] == list(range(len(frags)))
    assert sorted(r["path"] for r in per_frag) == sorted(os.path.basename(p) for p in frags)
    assert sum(r["rows"] for r in per_frag) == sum(
        pq.read_metadata(p).num_rows for p in frags)
    assert sum(r["late_dropped"] for r in per_frag) == res["late_dropped"]
    if engine == "join":
        assert res["late_dropped"] > 0  # the reversed calls arrive late
    assert lines[-1]["summary"] and lines[-1]["late_dropped"] == res["late_dropped"]


def _write(path, ts, ts_type, **kw):
    t = pa.table({"conv_id": pa.array([f"c{i % 3}" for i in range(len(ts))]),
                  "ts": pa.array(ts, type=pa.int64()).cast(ts_type)})
    pq.write_table(t, path, row_group_size=max(1, len(ts) // 3), **kw)
    return path


def test_fragment_ts_stats_matches_column_read(tmp_path):
    rng = np.random.default_rng(5)
    ts = rng.integers(1_600_000_000_000, 1_700_000_000_000, 1000)
    files = {
        "us": _write(str(tmp_path / "us.parquet"), ts * 1000, pa.timestamp("us")),
        "ms": _write(str(tmp_path / "ms.parquet"), ts, pa.timestamp("ms")),
        "no_stats": _write(str(tmp_path / "nostats.parquet"), ts * 1000,
                           pa.timestamp("us"), write_statistics=False),
    }
    for name, path in files.items():
        md = pq.ParquetFile(path).metadata
        assert md.num_row_groups > 1
        st = md.row_group(0).column(1).statistics
        assert (st is not None and st.has_min_max) == (name != "no_stats")
        col = ts_to_us(pq.read_table(path, columns=["ts"])["ts"])
        assert fragment_ts_stats(path) == (int(col.min()), int(col.max())), name
    empty = _write(str(tmp_path / "empty.parquet"), [], pa.timestamp("us"))
    assert fragment_ts_stats(empty) == (POS_INF, NEG_INF)


def test_timestamp_units_emit_identical_bytes(ray_session, tiny_fixture, tmp_path):
    """A stream stored as timestamp[ms] or timestamp[ns] is the same stream
    as its timestamp[us] copy: same footer watermarks, same emit bytes."""
    from condor_ray.engine.streaming import StreamingSynopsisJob

    cfg = BuildConfiguration(
        synopsis="CountMinSketch", params=(1024, 3, 7), windows=[TumblingWindow(W_MS)],
        key=KeySpec("conv_id", "java_hash"), parallelism=2,
    )
    emits = {}
    for unit in ("us", "ms", "ns"):
        d = tmp_path / unit
        d.mkdir()
        frags = []
        for i, src in enumerate(transcript_fragments(tiny_fixture)):
            t = pq.read_table(src, columns=["conv_id", "ts"])
            ms = pc.divide(t["ts"].cast(pa.int64()), 1000)  # whole ms in every unit
            ts = pc.multiply(ms, 1000).cast(pa.timestamp("us")).cast(pa.timestamp(unit))
            frags.append(str(d / f"fragment-{i:05d}.parquet"))
            pq.write_table(t.set_column(1, "ts", ts), frags[-1])
            col = ts_to_us(pq.read_table(frags[-1], columns=["ts"])["ts"])
            assert col[0] % 1000 == 0
            assert fragment_ts_stats(frags[-1]) == (int(col.min()), int(col.max())), unit
        out = d / "out"
        job = StreamingSynopsisJob(cfg, str(out), columns=["conv_id", "ts"])
        try:
            job.run(frags, pipelined=True)
        finally:
            job.shutdown()
        emits[unit] = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))
                       if f.startswith("emit-")}
    assert len(emits["us"]) > 3
    assert emits["ms"] == emits["us"] and emits["ns"] == emits["us"]


def _whole_ms_copy(src, dst, unit):
    """``src`` with its ts truncated to whole ms and stored as timestamp[unit]."""
    t = pq.read_table(src)
    ms = pc.divide(t["ts"].cast(pa.int64()), 1000)
    ts = pc.multiply(ms, 1000).cast(pa.timestamp("us")).cast(pa.timestamp(unit))
    pq.write_table(t.set_column(t.schema.get_field_index("ts"), "ts", ts), dst)
    return dst


def _unit_streams(fixture, tmp_path, unit):
    """Whole-ms copies of the fixture's fragments and of its tool calls cut
    into three ts-ordered fragments, in timestamp[unit]."""
    calls_src = tmp_path / "calls-src"
    if not calls_src.exists():
        _call_fragments(fixture, str(calls_src), descending=False)
    d = tmp_path / unit
    d.mkdir()
    turns = [_whole_ms_copy(p, str(d / os.path.basename(p)), unit)
             for p in transcript_fragments(fixture)]
    calls = [_whole_ms_copy(str(calls_src / f), str(d / f), unit)
             for f in sorted(os.listdir(calls_src))]
    return turns, calls


@pytest.mark.parametrize("engine", ["asof", "join", "sessions", "cep"])
def test_timestamp_units_other_engines(ray_session, tiny_fixture, tmp_path, engine):
    """The as-of, join, session and pattern engines read ts in its unit: a
    timestamp[ms] stream writes the bytes of its timestamp[us] copy."""
    outs = {}
    for unit in ("us", "ms"):
        turns, calls = _unit_streams(tiny_fixture, tmp_path, unit)
        out = str(tmp_path / unit / "out")
        if engine == "join":
            from condor_ray.engine.streaming_join import StreamingJoinJob

            job = StreamingJoinJob(parallelism=2, out_dir=out)
            run = lambda frags: job.run(frags, calls)  # noqa: E731
        else:
            job, run = {"asof": _asof, "sessions": _sessions, "cep": _cep}[engine](out)
        try:
            res = run(turns)
        finally:
            job.shutdown()
        outs[unit] = (res, _outputs(out))
    (res, (emits, lines)), ms = outs["us"], outs["ms"]
    assert len(emits) > 0 and len(lines) == len(turns) + 3 * (engine == "join")
    if engine == "join":
        assert res["matches"] > 1000
    assert ms == outs["us"]


def test_timestamp_units_batch_pipelines(ray_session, tiny_fixture, tmp_path):
    """The batch join, sessions and pattern pipelines read ts in its unit."""
    import ray.data as rd

    from condor_ray.pipelines.cep import match_pattern, match_pattern_relaxed
    from condor_ray.pipelines.join import join_turns_tool_calls
    from condor_ray.pipelines.sessions import session_stats

    steps = [Step("role", "eq", "user"), Step("role", "eq", "assistant")]
    frames = {}
    for unit in ("us", "ms"):
        turns, calls = _unit_streams(tiny_fixture, tmp_path, unit)
        ds = rd.read_parquet(turns)
        out = {
            "join": join_turns_tool_calls(ds, rd.read_parquet(calls), n_buckets=4),
            "sessions": session_stats(ds, 15_000, n_parts=4),
            "strict": match_pattern(ds, steps, within_ms=30_000, n_parts=4),
            "relaxed": match_pattern_relaxed(ds, steps, within_ms=30_000, n_parts=4),
        }
        for name, res in out.items():
            df = res.to_pandas()
            frames[unit, name] = df.sort_values(list(df.columns)).reset_index(drop=True)
    for name in ("join", "sessions", "strict", "relaxed"):
        assert len(frames["us", name]) > 10, name
        pd.testing.assert_frame_equal(frames["ms", name], frames["us", name])


def test_result_dataset_reads_only_its_emits(ray_session, tiny_fixture, tmp_path):
    """``result_dataset`` reads the emit files of the job's own closes, also
    those before a checkpoint it resumed from, and no other file in
    ``out_dir``."""
    from condor_ray.engine.streaming import StreamingSynopsisJob

    cfg = BuildConfiguration(
        synopsis="CountMinSketch", params=(128, 3, 7), windows=[TumblingWindow(W_MS)],
        key=KeySpec("conv_id", "java_hash"), parallelism=2,
    )
    frags = transcript_fragments(tiny_fixture)
    once = StreamingSynopsisJob(cfg, str(tmp_path / "once"))
    try:
        once.run(frags)
        expected = once.result_dataset().to_pandas()
    finally:
        once.shutdown()
    out, ckpt = str(tmp_path / "out"), str(tmp_path / "ckpt")
    crashed = StreamingSynopsisJob(cfg, out, checkpoint_dir=ckpt, checkpoint_every=2)
    try:
        crashed.run(frags[:5], final_flush=False)
    finally:
        crashed.shutdown()
    open(os.path.join(out, "emit-f09999.parquet"), "wb").close()  # not this job's
    job = StreamingSynopsisJob(cfg, out, checkpoint_dir=ckpt, checkpoint_every=2)
    try:
        job.run(frags, resume=True)
        got = job.result_dataset().to_pandas()
    finally:
        job.shutdown()
    assert len(expected) > 3
    keys = ["window_start", "stratum"]
    pd.testing.assert_frame_equal(
        got.sort_values(keys).reset_index(drop=True),
        expected.sort_values(keys).reset_index(drop=True),
    )


@pytest.mark.parametrize("n_frags", [1, 4])
def test_each_footer_read_at_most_once(
    ray_session, tiny_fixture, tmp_path, monkeypatch, n_frags
):
    """A run reads each fragment's footer at most once: a pipelined run for
    the carry-in watermarks of its lookahead splits (never the last
    fragment's), and for the fragment it splits and closes in one task (its
    first), which shares its read with the carry-ins; a sequential run only
    for the fused fragments, i.e. every fragment.  Both write the same
    manifest fragment lines."""
    from condor_ray.engine import driver
    from condor_ray.engine.streaming import StreamingSynopsisJob

    read = []

    def counting(path):
        read.append(path)
        return stats(path)

    stats = driver.fragment_ts_stats
    monkeypatch.setattr(driver, "fragment_ts_stats", counting)
    frags = transcript_fragments(tiny_fixture)[:n_frags]
    cfg = BuildConfiguration(
        synopsis="CountMinSketch", params=(128, 3, 7), windows=[TumblingWindow(W_MS)],
        parallelism=2,
    )
    lines, reads = {}, {}
    for pipelined in (False, True):
        out = str(tmp_path / str(pipelined))
        job = StreamingSynopsisJob(cfg, out)
        read.clear()
        try:
            job.run(frags, pipelined=pipelined)
        finally:
            job.shutdown()
        reads[pipelined] = list(read)
        with open(os.path.join(out, "manifest.jsonl")) as f:
            lines[pipelined] = [line for line in f if '"fragment"' in line]
    for r in reads.values():
        assert len(r) == len(set(r))  # at most once
    assert set(reads[True]) == set(frags[:-1]) | {frags[0]}  # carry-ins, fused
    assert set(reads[False]) == set(frags)  # all fused
    assert len(lines[True]) == n_frags and lines[True] == lines[False]
