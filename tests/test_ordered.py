"""Order-based wavelet path: distributed build == sequential reconstruction
under the DistributedWaveletsManager index contract."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from condor_ray.config import KeySpec
from condor_ray.engine.ordered import build_windowed_wavelets
from condor_ray.sources.transcripts import read_transcripts, transcript_fragments
from condor_ray.synopses import Synopsis
from condor_ray.windows import TumblingWindow

W = TumblingWindow(120_000)


def wavelet_range_sums(ds, window, ranges, **kwargs) -> pd.DataFrame:
    """Range-sum queries against each window's wavelet manager.

    ``ranges``: list of (left_frac, right_frac) in [0, 1] of the window's
    element count.  Returns window_start, left, right, range_sum."""
    syn = build_windowed_wavelets(ds, window, **kwargs).to_pandas()
    rows = []
    for start, n, payload in zip(syn["window_start"], syn["n_rows"], syn["payload"]):
        n = int(n)
        if n == 0:
            continue
        mgr = Synopsis.from_bytes(payload)
        for lf, rf in ranges:
            li = min(int(lf * n), n - 1)
            ri = min(int(rf * n), n - 1)
            rows.append((int(start), li, ri, mgr.range_sum_query(li, ri)))
    return pd.DataFrame(rows, columns=["window_start", "left", "right", "range_sum"])


@pytest.fixture(scope="module")
def wavelet_out(ray_session, tiny_fixture):
    ds = read_transcripts(tiny_fixture)
    out = build_windowed_wavelets(ds, W, size=4096, parallelism=4).to_pandas()
    frames = [pq.read_table(f).to_pandas() for f in transcript_fragments(tiny_fixture)]
    df = pd.concat(frames, ignore_index=True)
    return out, df


class TestWaveletWindows:
    def test_point_reconstruction(self, wavelet_out):
        out, df = wavelet_out
        ts = df["ts"].astype("int64")
        df = df.assign(ts_us=ts, wid=ts // W.size_us)
        for _, row in out.head(3).iterrows():
            wid = row["window_start"] // W.size_us
            g = df[df["wid"] == wid].sort_values(
                ["ts_us", "conv_id", "turn_idx"], kind="mergesort"
            )
            values = g["text"].str.len().to_numpy(dtype=np.float64)
            mgr = Synopsis.from_bytes(row["payload"])
            n = len(values)
            assert row["n_rows"] == n
            # budget 4096 >> values per window: lossless reconstruction on
            # the dyadic prefix of each round-robin substream
            P = mgr.parallelism
            for i in range(0, n, max(1, n // 17)):
                local_n = mgr.unified_synopses[i % P].stream_element_counter
                prefix = 2 ** int(np.log2(max(local_n, 1)))
                if i // P < prefix:
                    assert mgr.point_query(i) == pytest.approx(values[i], abs=1e-6)

    def test_range_sum_accuracy(self, ray_session, tiny_fixture, wavelet_out):
        out, df = wavelet_out
        ds = read_transcripts(tiny_fixture)
        sums = wavelet_range_sums(ds, W, [(0.0, 1.0)], size=4096, parallelism=4)
        assert len(sums) > 0
        ts = df["ts"].astype("int64")
        df = df.assign(ts_us=ts, wid=ts // W.size_us)
        for _, r in sums.iterrows():
            wid = r["window_start"] // W.size_us
            g = df[df["wid"] == wid].sort_values(
                ["ts_us", "conv_id", "turn_idx"], kind="mergesort"
            )
            exact = g["text"].str.len().to_numpy()[int(r["left"]) : int(r["right"]) + 1].sum()
            # non-dyadic tails are approximate (reference padding semantics)
            assert r["range_sum"] == pytest.approx(exact, rel=0.25)

    def test_manager_serde_roundtrip(self, wavelet_out):
        out, _ = wavelet_out
        mgr = Synopsis.from_bytes(out["payload"].iloc[0])
        rt = Synopsis.from_bytes(mgr.to_bytes())
        assert rt.parallelism == mgr.parallelism
        assert rt.elements_processed == mgr.elements_processed
        n = rt.elements_processed
        for i in (0, n // 2, n - 1):
            assert rt.point_query(i) == pytest.approx(mgr.point_query(i))


class TestWaveBoundedFragmentBuild:
    """Wave-bounded fragment build == single-shot build, bit-identical."""

    @pytest.fixture(scope="class")
    def wave_fragments_fixture(self, tmp_path_factory):
        import pyarrow.parquet as pq

        rng = np.random.default_rng(11)
        n = 9_000
        ts = np.sort(rng.integers(0, 90_000_000, n))  # 90 s span, us
        df = pd.DataFrame(
            {
                "conv_id": np.array([f"c{int(x)}" for x in rng.integers(0, 40, n)]),
                "turn_idx": rng.integers(0, 500, n).astype(np.int32),
                "ts": ts,
            }
        ).sort_values(["ts", "conv_id", "turn_idx"], kind="mergesort")
        d = tmp_path_factory.mktemp("wave_bound_frags")
        paths = []
        bounds = np.linspace(0, n, 10).astype(int)
        for i in range(9):
            part = pa.Table.from_pandas(
                df.iloc[bounds[i] : bounds[i + 1]], preserve_index=False
            )
            part = part.set_column(
                part.schema.get_field_index("ts"), "ts",
                part["ts"].cast(pa.timestamp("us")),
            )
            p = str(d / f"fragment-{i:05d}.parquet")
            pq.write_table(part, p)
            paths.append(p)
        # one empty fragment mid-stream (schemaless-empty guard territory)
        empty = pa.Table.from_pandas(df.iloc[:0], preserve_index=False)
        empty = empty.set_column(
            empty.schema.get_field_index("ts"), "ts",
            empty["ts"].cast(pa.timestamp("us")),
        )
        ep = str(d / "fragment-empty.parquet")
        pq.write_table(empty, ep)
        paths.insert(4, ep)
        return paths

    @staticmethod
    def _build(paths, wave):
        from condor_ray.engine.ordered import build_windowed_wavelets_from_fragments

        return (
            build_windowed_wavelets_from_fragments(
                paths, TumblingWindow(10_000), size=512, parallelism=4,
                key=KeySpec("turn_idx", "value"),
                columns=["conv_id", "turn_idx", "ts"],
                wave_fragments=wave,
            )
            .to_pandas()
            .sort_values("window_start")
            .reset_index(drop=True)
        )

    def test_waved_matches_single_shot(self, ray_session, wave_fragments_fixture):
        single = self._build(wave_fragments_fixture, None)
        waved = self._build(wave_fragments_fixture, 2)
        assert len(single) == len(waved) > 3
        assert (single["window_start"].to_numpy() == waved["window_start"].to_numpy()).all()
        assert (single["n_rows"].to_numpy() == waved["n_rows"].to_numpy()).all()
        for a, b in zip(single["payload"], waved["payload"]):
            assert a == b  # bit-identical managers

    def test_auto_wave_default_matches_single_shot(
        self, ray_session, wave_fragments_fixture
    ):
        # the "auto" default is what bench.py and the job CLI hit — it must
        # resolve its wave size from the cluster, not crash (r5 regression)
        single = self._build(wave_fragments_fixture, None)
        auto = self._build(wave_fragments_fixture, "auto")
        assert (single["n_rows"].to_numpy() == auto["n_rows"].to_numpy()).all()
        for a, b in zip(single["payload"], auto["payload"]):
            assert a == b

    def test_out_of_order_fragment_list_still_correct(
        self, ray_session, wave_fragments_fixture
    ):
        single = self._build(wave_fragments_fixture, None)
        shuffled = list(wave_fragments_fixture)
        rng = np.random.default_rng(3)
        rng.shuffle(shuffled)
        waved = self._build(shuffled, 3)
        assert (single["n_rows"].to_numpy() == waved["n_rows"].to_numpy()).all()
        for a, b in zip(single["payload"], waved["payload"]):
            assert a == b

    def test_fragment_min_ts_footer_stats(self, wave_fragments_fixture):
        import pyarrow.parquet as pq

        from condor_ray.engine.driver import fragment_ts_stats
        from condor_ray.stages.extract import ts_to_us

        # the wave build reads each fragment's min ts through the shared
        # footer reader
        for p in wave_fragments_fixture:
            ts = ts_to_us(pq.read_table(p, columns=["ts"])["ts"])
            expect = int(ts.min()) if len(ts) else 2**62
            assert fragment_ts_stats(p)[0] == expect
