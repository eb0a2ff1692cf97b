"""Streaming session windows: parity vs the batch gaps-and-islands path,
late-drop accounting, exactly-once crash/resume."""

import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from condor_ray.config import BuildConfiguration, KeySpec
from condor_ray.engine.streaming_sessions import StreamingSessionJob
from condor_ray.sources.transcripts import transcript_fragments
from condor_ray.windows import SessionWindow

GAP_MS = 15_000
GAP_US = GAP_MS * 1000


def _cfg(parallelism=3):
    return BuildConfiguration(
        synopsis="CountMinSketch",
        params=(512, 3, 7),
        windows=[SessionWindow(GAP_MS)],
        key=KeySpec("text", "java_hash"),
        parallelism=parallelism,
    )


def _oracle_sessions(fragments):
    """Sequential replay oracle (Flink merging-window semantics, allowed
    lateness 0): per fragment, drop rows with ts + gap <= carry-in watermark,
    merge survivors into per-conv open sessions, then close every session
    with last + gap <= the advanced watermark.  A non-late row arriving after
    its would-have-joined session already closed opens a NEW session — the
    point where streaming results legitimately diverge from the batch
    gaps-and-islands form under late data."""
    wm = -(2**62)
    n_late = 0
    open_sessions: dict[str, list] = {}  # conv -> [[first, last, count], ...]
    counters: dict[str, int] = {}
    emitted = []

    def close(wm):
        for cid in sorted(open_sessions):
            keep = []
            for s in open_sessions[cid]:
                if s[1] + GAP_US <= wm:
                    idx = counters.get(cid, 0)
                    counters[cid] = idx + 1
                    emitted.append((cid, idx, s[0], s[1], s[2]))
                else:
                    keep.append(s)
            if keep:
                open_sessions[cid] = keep
            else:
                del open_sessions[cid]

    for f in fragments:
        df = pq.read_table(f).to_pandas()
        ts = df["ts"].astype("int64").to_numpy()
        late = ts + GAP_US <= wm
        n_late += int(late.sum())
        kept = df[~late]
        for cid, g in kept.groupby("conv_id"):
            items = open_sessions.get(cid, []) + [
                [int(t), int(t), 1] for t in g["ts"].astype("int64")
            ]
            items.sort(key=lambda s: s[0])
            merged = [items[0]]
            for s in items[1:]:
                if s[0] - merged[-1][1] < GAP_US:
                    merged[-1][1] = max(merged[-1][1], s[1])
                    merged[-1][2] += s[2]
                else:
                    merged.append(s)
            open_sessions[cid] = merged
        wm = max(wm, int(ts.max()))
        close(wm)
    close(2**62)
    out = pd.DataFrame(
        emitted,
        columns=["conv_id", "session_idx", "session_start", "session_end", "n_rows"],
    )
    return out.sort_values(["conv_id", "session_idx"]).reset_index(drop=True), n_late


@pytest.fixture(scope="module")
def session_result(ray_session, tiny_fixture, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("sess_out"))
    job = StreamingSessionJob(_cfg(), out)
    frags = transcript_fragments(tiny_fixture)
    summary = job.run(frags)
    result = job.result_dataset().to_pandas()
    job.shutdown()
    return summary, result, frags


class TestStreamingSessions:
    def test_matches_gaps_and_islands_oracle(self, session_result):
        summary, result, frags = session_result
        oracle, n_late = _oracle_sessions(frags)
        assert summary["late_dropped"] == n_late
        got = (
            result[["conv_id", "session_idx", "session_start", "session_end", "n_rows"]]
            .sort_values(["conv_id", "session_idx"])
            .reset_index(drop=True)
        )
        got = got.astype(
            {"session_idx": np.int64, "session_start": np.int64,
             "session_end": np.int64, "n_rows": np.int64}
        )
        pd.testing.assert_frame_equal(got, oracle)

    def test_each_session_emitted_once(self, session_result):
        _, result, _ = session_result
        keys = result[["conv_id", "session_idx"]]
        assert not keys.duplicated().any()

    def test_synopsis_payload_nonempty(self, session_result):
        _, result, _ = session_result
        assert (result["payload"].map(len) > 0).all()

    def test_parallelism_invariance(self, ray_session, tiny_fixture, tmp_path):
        frags = transcript_fragments(tiny_fixture)
        outs = []
        for p in (2, 5):
            out = str(tmp_path / f"p{p}")
            job = StreamingSessionJob(_cfg(parallelism=p), out)
            job.run(frags)
            df = (
                job.result_dataset()
                .to_pandas()[["conv_id", "session_idx", "session_start", "session_end", "n_rows"]]
                .sort_values(["conv_id", "session_idx"])
                .reset_index(drop=True)
            )
            job.shutdown()
            outs.append(df)
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_crash_resume_identical(self, ray_session, tiny_fixture, tmp_path):
        frags = transcript_fragments(tiny_fixture)
        # full run
        out_full = str(tmp_path / "full")
        job = StreamingSessionJob(_cfg(), out_full)
        job.run(frags)
        full = job.result_dataset().to_pandas()
        job.shutdown()
        # crashed run: checkpoint every 2 fragments, stop after 4
        out_cr = str(tmp_path / "crash")
        ck = str(tmp_path / "ckpt")
        job = StreamingSessionJob(_cfg(), out_cr, checkpoint_dir=ck, checkpoint_every=2)
        job.run(frags[:4], final_flush=False)
        job.shutdown()
        job = StreamingSessionJob(_cfg(), out_cr, checkpoint_dir=ck, checkpoint_every=2)
        job.run(frags, resume=True)
        resumed = job.result_dataset().to_pandas()
        job.shutdown()
        cols = ["conv_id", "session_idx", "session_start", "session_end", "n_rows"]
        pd.testing.assert_frame_equal(
            full[cols].sort_values(["conv_id", "session_idx"]).reset_index(drop=True),
            resumed[cols].sort_values(["conv_id", "session_idx"]).reset_index(drop=True),
        )

    def test_salting_rejected(self, tmp_path):
        cfg = _cfg()
        cfg.hot_key_threshold = 100
        with pytest.raises(ValueError):
            StreamingSessionJob(cfg, str(tmp_path / "x"))


class TestCloseCycleScaling:
    def test_close_cycle_independent_of_open_count(self, ray_session):
        """With ~50k open (idle) conversations, a no-op close cycle must not
        sweep the whole open-conv map — the expiry heap makes it O(closing),
        so 200 cycles stay well under the O(open) sweep cost."""
        import time

        import pyarrow as pa
        import ray

        from condor_ray.engine.streaming_sessions import SessionStateStore

        n = 50_000
        store = SessionStateStore.remote(0, _cfg(parallelism=1), GAP_US)
        batch = pa.table(
            {
                "conv_id": pa.array([f"c{i:06d}" for i in range(n)]),
                "ts": pa.array(np.arange(n, dtype=np.int64) + 1_000_000),
                "text": pa.array(["hello world"] * n),
            }
        )
        # ingest returns the late-dropped count (none here)
        assert ray.get(store.ingest.remote(batch)) == 0

        # 200 close cycles at a watermark that closes nothing.  Assert on
        # the per-cycle MEDIAN: the total is flaky under full-suite host
        # load (RPC spikes), but the median cleanly separates the heap path
        # (~1 ms RPC overhead) from the old full sweep (~25 ms/cycle for
        # 50k open convs).
        cycles = []
        for _ in range(200):
            t0 = time.perf_counter()
            t = ray.get(store.close_sessions.remote(0))
            cycles.append(time.perf_counter() - t0)
            assert t.num_rows == 0
        med = sorted(cycles)[len(cycles) // 2]
        assert med < 0.010, f"median no-op close cycle {med * 1e3:.2f} ms"

        # closing watermark emits every session exactly once
        t = ray.get(store.close_sessions.remote(2**62))
        assert t.num_rows == n
        assert ray.get(store.close_sessions.remote(2**62)).num_rows == 0
        ray.kill(store)


def test_null_conv_id_rows_survive(ray_session, tmp_path):
    """Null conv_id rows route to the hash-0 partition and form their own
    (None-keyed) conversation instead of crashing the split or the store."""
    import pyarrow as pa

    tbl = pa.table(
        {
            "conv_id": pa.array(["a", None, "a", None]),
            "text": pa.array(["w", "x", "y", "z"]),
            "ts": pa.array(
                np.array([0, 1, 2, 3], dtype=np.int64) * 1_000_000
            ).cast(pa.timestamp("us")),
        }
    )
    frag = str(tmp_path / "f0.parquet")
    pq.write_table(tbl, frag)
    job = StreamingSessionJob(_cfg(parallelism=2), str(tmp_path / "out"))
    summary = job.run([frag])
    result = job.result_dataset().to_pandas()
    job.shutdown()
    assert summary["rows"] == 4 and summary["late_dropped"] == 0
    # one session for conv "a", one for the null conversation
    assert len(result) == 2
    assert result["n_rows"].sum() == 4
    assert result["conv_id"].isna().sum() == 1


def test_actors_that_starve_the_tasks_raise(ray_session, tiny_fixture, tmp_path):
    """Eight 0.5-CPU state actors would hold all 4 CPUs of the session, so
    no split task could start: the job raises at once and kills them, and a
    job that fits runs after it."""
    with pytest.raises(ValueError, match="lower the parallelism"):
        StreamingSessionJob(_cfg(parallelism=8), str(tmp_path / "p8"))
    job = StreamingSessionJob(_cfg(parallelism=2), str(tmp_path / "p2"))
    try:
        assert job.run(transcript_fragments(tiny_fixture))["rows"] > 0
    finally:
        job.shutdown()
