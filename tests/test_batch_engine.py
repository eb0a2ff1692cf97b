"""End-to-end batch pipeline: read -> map_batches partials -> groupby merge,
checked against single-process sequential oracles (FIXTURES.md 'Oracles')."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from condor_ray.config import BuildConfiguration, KeySpec
from condor_ray.engine.batch import build_windowed_synopses, windowed_counts
from condor_ray.hashing import java_string_hash_array
from condor_ray.sources.transcripts import read_transcripts, transcript_fragments
from condor_ray.synopses import CountMinSketch, HyperLogLogSketch, Synopsis
from condor_ray.windows import SlidingWindow, TumblingWindow


def _load_all(fixture_dir):
    frags = transcript_fragments(fixture_dir)
    return pd.concat([pq.read_table(f).to_pandas() for f in frags], ignore_index=True)


@pytest.fixture(scope="module")
def tiny_df(tiny_fixture):
    return _load_all(tiny_fixture)


class TestWindowedCounts:
    def test_matches_exact_pandas(self, ray_session, tiny_fixture, tiny_df):
        ds = read_transcripts(tiny_fixture)
        w = TumblingWindow(10_000)
        out = windowed_counts(ds, w).to_pandas().sort_values("window_start")
        ts_us = tiny_df["ts"].astype("int64")
        expected = (
            ts_us // w.size_us
        ).value_counts().sort_index()
        assert len(out) == len(expected)
        assert (out["n_rows"].to_numpy() == expected.to_numpy()).all()
        assert (
            out["window_start"].to_numpy() == expected.index.to_numpy() * w.size_us
        ).all()

    def test_stratified(self, ray_session, tiny_fixture, tiny_df):
        ds = read_transcripts(tiny_fixture)
        w = TumblingWindow(60_000)
        out = windowed_counts(ds, w, stratify_by="role").to_pandas()
        ts_us = tiny_df["ts"].astype("int64")
        g = (
            tiny_df.assign(window_start=(ts_us // w.size_us) * w.size_us)
            .groupby(["window_start", "role"])
            .size()
        )
        merged = out.set_index(["window_start", "stratum"])["n_rows"].sort_index()
        assert (merged == g.sort_index()).all()


class TestTumblingSynopses:
    def test_cm_parity_with_sequential_oracle(self, ray_session, tiny_fixture, tiny_df):
        cfg = BuildConfiguration(
            synopsis="CountMinSketch",
            params=(1024, 5, 7),
            windows=[TumblingWindow(60_000)],
            key=KeySpec("conv_id", "java_hash"),
        )
        ds = read_transcripts(tiny_fixture)
        result = build_windowed_synopses(ds, cfg, concurrency=2).to_pandas()

        # sequential oracle: one CM per window, updated in any order
        # (CM update is commutative) — byte-identical arrays expected
        ts_us = tiny_df["ts"].astype("int64").to_numpy()
        keys = java_string_hash_array(tiny_df["conv_id"].tolist())
        wids = ts_us // (60_000 * 1000)
        for wid in np.unique(wids):
            oracle = CountMinSketch(1024, 5, 7)
            oracle.update_batch(keys[wids == wid])
            row = result[result["window_start"] == wid * 60_000_000]
            assert len(row) == 1
            got = Synopsis.from_bytes(row["payload"].iloc[0])
            assert (got.array == oracle.array).all()
            assert got.elements_processed == oracle.elements_processed
            assert row["n_rows"].iloc[0] == (wids == wid).sum()

    def test_hll_parity(self, ray_session, tiny_fixture, tiny_df):
        cfg = BuildConfiguration(
            synopsis="HyperLogLogSketch",
            params=(10, 7),
            windows=[TumblingWindow(120_000)],
            key=KeySpec("conv_id", "java_hash"),
        )
        ds = read_transcripts(tiny_fixture)
        result = build_windowed_synopses(ds, cfg, concurrency=2).to_pandas()
        ts_us = tiny_df["ts"].astype("int64").to_numpy()
        keys = java_string_hash_array(tiny_df["conv_id"].tolist())
        wids = ts_us // (120_000 * 1000)
        for wid in np.unique(wids)[:5]:
            oracle = HyperLogLogSketch(10, 7)
            oracle.update_batch(keys[wids == wid])
            row = result[result["window_start"] == wid * 120_000_000]
            got = Synopsis.from_bytes(row["payload"].iloc[0])
            assert (got.registers == oracle.registers).all()

    def test_stratified_synopses(self, ray_session, tiny_fixture, tiny_df):
        cfg = BuildConfiguration(
            synopsis="CountMinSketch",
            params=(256, 3, 7),
            windows=[TumblingWindow(300_000)],
            key=KeySpec("text", "length"),
            stratify_by="role",
        )
        ds = read_transcripts(tiny_fixture)
        result = build_windowed_synopses(ds, cfg, concurrency=2).to_pandas()
        assert set(result["stratum"].unique()) == {"user", "assistant", "tool"}
        # partition value propagated
        got = Synopsis.from_bytes(result["payload"].iloc[0])
        assert got.partition_value == result["stratum"].iloc[0]
        # per-stratum counts match
        ts_us = tiny_df["ts"].astype("int64")
        g = (
            tiny_df.assign(ws=(ts_us // 300_000_000) * 300_000_000)
            .groupby(["ws", "role"])
            .size()
        )
        m = result.set_index(["window_start", "stratum"])["n_rows"].sort_index()
        assert (m == g.sort_index()).all()


class TestSlidingSynopses:
    def test_sliding_equals_bucketing_oracle(self, ray_session, tiny_fixture, tiny_df):
        # sliding 60s / slide 30s via slices == per-window oracle build
        cfg = BuildConfiguration(
            synopsis="CountMinSketch",
            params=(512, 3, 7),
            windows=[SlidingWindow(60_000, 30_000)],
            key=KeySpec("conv_id", "java_hash"),
        )
        ds = read_transcripts(tiny_fixture)
        result = build_windowed_synopses(ds, cfg, concurrency=2).to_pandas()
        ts_us = tiny_df["ts"].astype("int64").to_numpy()
        keys = java_string_hash_array(tiny_df["conv_id"].tolist())
        size_us, slide_us = 60_000_000, 30_000_000
        checked = 0
        for _, row in result.sort_values("window_start").head(8).iterrows():
            mask = (ts_us >= row["window_start"]) & (ts_us < row["window_end"])
            oracle = CountMinSketch(512, 3, 7)
            oracle.update_batch(keys[mask])
            got = Synopsis.from_bytes(row["payload"])
            assert (got.array == oracle.array).all()
            assert row["n_rows"] == mask.sum()
            checked += 1
        assert checked == 8

    def test_multiple_concurrent_windows(self, ray_session, tiny_fixture, tiny_df):
        # one slice store serving several window definitions (SURVEY §2.6)
        cfg = BuildConfiguration(
            synopsis="CountMinSketch",
            params=(128, 3, 7),
            windows=[
                TumblingWindow(60_000),
                SlidingWindow(60_000, 30_000),
                SlidingWindow(120_000, 60_000),
            ],
            key=KeySpec("conv_id", "java_hash"),
        )
        ds = read_transcripts(tiny_fixture)
        result = build_windowed_synopses(ds, cfg, concurrency=2).to_pandas()
        kinds = set(result["window_kind"].unique())
        assert kinds == {"tumbling_60000", "sliding_60000_30000", "sliding_120000_60000"}
        # total rows per kind must equal: tumbling = N, sliding = N * windows/row
        total = len(tiny_df)
        per_kind = result.groupby("window_kind")["n_rows"].sum()
        assert per_kind["tumbling_60000"] == total
        assert per_kind["sliding_60000_30000"] == 2 * total
        assert per_kind["sliding_120000_60000"] == 2 * total


class TestSessionSynopses:
    def test_session_synopsis_parity(self, ray_session, tiny_fixture, tiny_df):
        from condor_ray.pipelines.sessions import session_synopses
        from condor_ray.synopses import CountMinSketch, Synopsis
        from test_windows import sessionize

        ds = read_transcripts(tiny_fixture)
        out = session_synopses(ds, gap_ms=30_000).to_pandas()
        # oracle: per-conv sequential sessionization + CM over text lengths
        df = tiny_df.sort_values(["ts", "turn_idx"], kind="mergesort")
        checked = 0
        for conv, g in list(df.groupby("conv_id"))[:10]:
            ts = g["ts"].astype("int64").to_numpy()
            sess = sessionize(ts, 30_000_000)
            lens = g["text"].str.len().to_numpy().astype(np.int32)
            for s in np.unique(sess):
                m = sess == s
                oracle = CountMinSketch(1024, 3, 7)
                oracle.update_batch(lens[m])
                row = out[
                    (out["conv_id"] == conv)
                    & (out["session_start"] == int(ts[m].min()))
                ]
                assert len(row) == 1
                got = Synopsis.from_bytes(row["payload"].iloc[0])
                assert (got.array == oracle.array).all()
                assert got.partition_value == conv
                checked += 1
        assert checked >= 10
