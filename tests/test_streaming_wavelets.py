"""Streaming order-based wavelet path: parity vs the batch manager on a
sorted no-late stream; ordinal continuity across fragments."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from condor_ray.config import KeySpec
from condor_ray.engine.ordered import build_windowed_wavelets
from condor_ray.engine.streaming_wavelets import StreamingWaveletJob
from condor_ray.windows import TumblingWindow

W_MS = 10_000


@pytest.fixture(scope="module")
def sorted_fragments(tmp_path_factory):
    """A ts-sorted fragment stream (no late rows) — deterministic."""
    rng = np.random.default_rng(7)
    n = 12_000
    ts = np.sort(rng.integers(0, 120_000_000, n))  # 120 s span, us
    conv = np.array([f"c{int(x)}" for x in rng.integers(0, 50, n)])
    turn = rng.integers(0, 1000, n).astype(np.int32)
    df = pd.DataFrame({"conv_id": conv, "turn_idx": turn, "ts": ts})
    df = df.sort_values(["ts", "conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    d = tmp_path_factory.mktemp("wave_frags")
    paths = []
    bounds = np.linspace(0, n, 7).astype(int)
    for i in range(6):
        part = df.iloc[bounds[i] : bounds[i + 1]]
        t = pa.Table.from_pandas(part, preserve_index=False)
        t = t.set_column(
            t.schema.get_field_index("ts"),
            "ts",
            t["ts"].cast(pa.timestamp("us")),
        )
        p = str(d / f"fragment-{i:05d}.parquet")
        pq.write_table(t, p)
        paths.append(p)
    return paths, df


def test_streaming_matches_batch_managers(ray_session, sorted_fragments, tmp_path):
    paths, df = sorted_fragments
    import ray.data as rd

    ds = rd.read_parquet(paths)
    batch = (
        build_windowed_wavelets(
            ds, TumblingWindow(W_MS), size=512, parallelism=4,
            key=KeySpec("turn_idx", "value"),
        )
        .to_pandas()
        .sort_values("window_start")
        .reset_index(drop=True)
    )
    job = StreamingWaveletJob(
        TumblingWindow(W_MS), str(tmp_path / "out"), size=512, parallelism=4,
        key=KeySpec("turn_idx", "value"),
    )
    summary = job.run(paths)
    stream = (
        job.result_dataset().to_pandas().sort_values("window_start").reset_index(drop=True)
    )
    job.shutdown()
    assert summary["late_dropped"] == 0
    assert list(stream["window_start"]) == list(batch["window_start"])
    assert list(stream["n_rows"]) == list(batch["n_rows"])
    # same row order into the same kernels -> byte-identical managers
    assert len(stream) == 12
    assert list(stream["payload"]) == list(batch["payload"])


def _null_conv_fragments(d, n_frags=3):
    """A stream with a null conv_id and ts ties across conversations.  At a
    tied ts the rows arrive as c9, None, c10, while the sort order is c10,
    c9, None (lexicographic, nulls last).  Each fragment holds whole ts
    groups, so concatenating the fragments' own sorts gives the global
    sort the batch path applies."""
    frags = []
    turn = 0
    for i in range(n_frags):
        rows = []
        for t in range(20 * i, 20 * i + 20):
            ts = t * 1_000_000  # 1 s apart: 60 s over six 10 s windows
            for conv in ("c9", None, "c10")[: 1 + t % 3]:
                for _ in range(1 + t % 2):
                    rows.append((ts, conv, turn))
                    turn += 1
        ts, conv, turns = zip(*rows)
        p = str(d / f"fragment-{i:05d}.parquet")
        pq.write_table(
            pa.table(
                {
                    "conv_id": pa.array(conv, type=pa.string()),
                    "turn_idx": pa.array(turns, type=pa.int32()),
                    "ts": pa.array(np.asarray(ts, dtype="datetime64[us]")),
                }
            ),
            p,
        )
        frags.append((p, rows))
    return frags


def test_null_conv_id_split_order_and_batch_parity(ray_session, tmp_path):
    from condor_ray.engine.streaming_wavelets import _split_wavelet_fragment

    frags = _null_conv_fragments(tmp_path)
    paths = [p for p, _ in frags]
    key = KeySpec("turn_idx", "value")
    for path, rows in frags:
        assert any(r[1] is None for r in rows)
        oracle = sorted(rows, key=lambda r: (r[0], r[1] is None, r[1] or "", r[2]))
        assert oracle != rows  # the split has to reorder
        res = _split_wavelet_fragment(path, {}, 1, 10**15, -(2**62), key, None)
        assert res[0]["n_late"] == 0
        assert res[2]["value"].to_pylist() == [float(r[2]) for r in oracle]

    import ray.data as rd

    window = TumblingWindow(W_MS)
    batch = (
        build_windowed_wavelets(
            rd.read_parquet(paths), window, size=8, parallelism=2, key=key
        )
        .to_pandas()
        .sort_values("window_start")
        .reset_index(drop=True)
    )
    job = StreamingWaveletJob(
        window, str(tmp_path / "out"), size=8, parallelism=2, key=key
    )
    summary = job.run(paths)
    stream = (
        job.result_dataset().to_pandas().sort_values("window_start").reset_index(drop=True)
    )
    job.shutdown()
    assert summary["late_dropped"] == 0
    assert len(stream) == len(batch) == 6
    assert list(stream["n_rows"]) == list(batch["n_rows"])
    assert list(stream["payload"]) == list(batch["payload"])


def test_windows_emitted_incrementally(ray_session, sorted_fragments, tmp_path):
    paths, _ = sorted_fragments
    job = StreamingWaveletJob(
        TumblingWindow(W_MS), str(tmp_path / "out2"), size=512, parallelism=2,
        key=KeySpec("turn_idx", "value"),
    )
    summary = job.run(paths)
    job.shutdown()
    import os

    emits = [f for f in os.listdir(str(tmp_path / "out2")) if f.startswith("emit-")]
    # closes happen during the stream, not only at the final flush
    assert len(emits) > 1
    assert summary["windows_emitted"] == 12


class TestMiniBatchReorder:
    """`mini_batch` knob: reproduce OrderAndIndex.java:41-67's bounded
    PriorityQueue re-order (chunks of N arrivals drained in ts order) on a
    shuffled fixture, vs the default full-sort mode."""

    @staticmethod
    def _make_fragment(path, n=200, seed=3):
        rng = np.random.default_rng(seed)
        ts = rng.permutation(n).astype(np.int64) * 1000  # shuffled arrivals
        pq.write_table(
            pa.table(
                {
                    "conv_id": pa.array([f"c{i}" for i in range(n)]),
                    "turn_idx": pa.array(np.arange(n, dtype=np.int32)),
                    "ts": pa.array(ts.astype("datetime64[us]")),
                }
            ),
            path,
        )
        return ts

    @staticmethod
    def _reconstruct(shards, P):
        """Global value sequence from round-robin shards.  Shards carry no
        explicit position — row order IS the append order, so builder p's
        i-th row sits at global ordinal i*P + p (single-window fixture)."""
        seq = {}
        for p, s in enumerate(shards):
            for i, v in enumerate(s["value"].to_numpy()):
                seq[i * P + p] = v
        return [seq[i] for i in range(len(seq))]

    @staticmethod
    def _pq_sim(arrival_vals, arrival_ts, N):
        """Reference OrderAndIndex semantics: buffer N arrivals, drain the
        PriorityQueue (min-ts first) before dispatching; flush the tail."""
        import heapq

        out, buf = [], []
        for i, (v, t) in enumerate(zip(arrival_vals, arrival_ts)):
            heapq.heappush(buf, (t, i, v))
            if len(buf) == N:
                while buf:
                    out.append(heapq.heappop(buf)[2])
        while buf:
            out.append(heapq.heappop(buf)[2])
        return out

    def test_minibatch_matches_pq_simulator(self, tmp_path):
        from condor_ray.config import KeySpec
        from condor_ray.engine.streaming_wavelets import _split_wavelet_fragment

        frag = str(tmp_path / "frag.parquet")
        ts = self._make_fragment(frag)
        P, N = 3, 16
        big = 10**15  # one window holds everything
        res = _split_wavelet_fragment(
            frag, {}, P, big, -(2**62), KeySpec("turn_idx", "value"),
            None, N,
        )
        got = self._reconstruct(res[2:], P)
        # arrival value = turn_idx (KeySpec turn_idx/value), arrival ts = ts
        want = self._pq_sim(np.arange(len(ts), dtype=float), ts, N)
        assert got == want
        # the partial order differs from the full-sort default on a
        # shuffled stream, but each N-chunk is internally ts-sorted
        full = _split_wavelet_fragment(
            frag, {}, P, big, -(2**62), KeySpec("turn_idx", "value"), None,
        )
        assert got != self._reconstruct(full[2:], P)

    def test_minibatch_one_is_arrival_order(self, tmp_path):
        from condor_ray.config import KeySpec
        from condor_ray.engine.streaming_wavelets import _split_wavelet_fragment

        frag = str(tmp_path / "frag1.parquet")
        self._make_fragment(frag)
        res = _split_wavelet_fragment(
            frag, {}, 2, 10**15, -(2**62), KeySpec("turn_idx", "value"),
            None, 1,
        )
        assert self._reconstruct(res[2:], 2) == list(
            np.arange(200, dtype=float)
        )


def test_manager_payload_relays_sub_wavelet_bytes():
    """The streaming close assembles each manager from the builders' bytes:
    the payload equals to_bytes() of the manager built from the synopses,
    an empty sub-wavelet (a builder without the window) included."""
    from condor_ray.synopses.base import Synopsis
    from condor_ray.synopses.wavelets import DistributedWaveletsManager, WaveletSynopsis

    rng = np.random.default_rng(3)
    syns = []
    for n in (500, 0, 37):
        s = WaveletSynopsis(64)
        if n:
            s.update_batch(rng.normal(size=n))
        syns.append(s)
    mgr = DistributedWaveletsManager(0, None)
    for s in syns:
        mgr.add_synopsis(Synopsis.from_bytes(s.to_bytes()))
    parts = [(s.to_bytes(), s.stream_element_counter) for s in syns]
    assert DistributedWaveletsManager.payload(parts) == mgr.to_bytes()
