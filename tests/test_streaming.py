"""Streaming driver: watermark/late-drop semantics, partition-count
invariance, exactly-once resume, hot-key salting."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from condor_ray.config import BuildConfiguration, KeySpec
from condor_ray.engine.streaming import StreamingSynopsisJob
from condor_ray.hashing import java_string_hash_array
from condor_ray.sources.transcripts import transcript_fragments
from condor_ray.stages.extract import ts_to_us
from condor_ray.synopses import CountMinSketch, Synopsis
from condor_ray.windows import SlidingWindow, TumblingWindow

W_MS = 10_000  # 10 s tumbling (20 s late arrivals cross slice boundaries)
W_US = W_MS * 1000


def oracle_stream(fragments, slice_us):
    """Sequential replay oracle: per-fragment watermark, late-slice drops."""
    wm = -(2**62)
    kept = []
    n_late = 0
    for f in fragments:
        df = pq.read_table(f).to_pandas()
        ts = df["ts"].astype("int64").to_numpy()
        late = (ts // slice_us + 1) * slice_us <= wm
        n_late += int(late.sum())
        kept.append(df[~late])
        wm = max(wm, int(ts.max()))
    return pd.concat(kept, ignore_index=True), n_late


@pytest.fixture(scope="module")
def stream_result(ray_session, tiny_fixture, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("stream_out"))
    cfg = BuildConfiguration(
        synopsis="CountMinSketch",
        params=(512, 3, 7),
        windows=[TumblingWindow(W_MS)],
        key=KeySpec("conv_id", "java_hash"),
        parallelism=3,
    )
    job = StreamingSynopsisJob(cfg, out)
    frags = transcript_fragments(tiny_fixture)
    summary = job.run(frags)
    result = job.result_dataset().to_pandas()
    job.shutdown()
    return summary, result, frags


class TestStreamingSemantics:
    def test_late_rows_dropped_and_counted(self, stream_result):
        summary, result, frags = stream_result
        kept, n_late = oracle_stream(frags, W_US)
        assert summary["late_dropped"] == n_late
        assert n_late > 0  # the fixture has 10% late arrivals
        assert summary["rows"] == sum(pq.read_metadata(f).num_rows for f in frags)

    def test_window_counts_match_oracle(self, stream_result):
        _, result, frags = stream_result
        kept, _ = oracle_stream(frags, W_US)
        ts = kept["ts"].astype("int64")
        expected = (ts // W_US).value_counts().sort_index()
        got = result.set_index(result["window_start"] // W_US)["n_rows"].sort_index()
        assert (got == expected).all()

    def test_synopsis_state_parity(self, stream_result):
        _, result, frags = stream_result
        kept, _ = oracle_stream(frags, W_US)
        ts = kept["ts"].astype("int64").to_numpy()
        keys = java_string_hash_array(kept["conv_id"].tolist())
        wids = ts // W_US
        for wid in np.unique(wids)[:10]:
            oracle = CountMinSketch(512, 3, 7)
            oracle.update_batch(keys[wids == wid])
            row = result[result["window_start"] == wid * W_US]
            assert len(row) == 1
            got = Synopsis.from_bytes(row["payload"].iloc[0])
            assert (got.array == oracle.array).all()

    def test_each_window_emitted_once(self, stream_result):
        _, result, _ = stream_result
        assert result.duplicated(["window_kind", "window_start", "stratum"]).sum() == 0


class TestStratifiedStream:
    def test_matches_batch_builder(self, ray_session, tiny_fixture, tmp_path):
        """Stratified shards carry only ts/__key32/role; the streamed
        windows still equal the batch builder's over the rows the stream
        keeps (late rows dropped by the same rule)."""
        import pyarrow as pa
        import ray.data as rd

        from condor_ray.engine.batch import build_windowed_synopses

        frags = transcript_fragments(tiny_fixture)
        cfg = BuildConfiguration(
            synopsis="CountMinSketch",
            params=(512, 3, 7),
            windows=[TumblingWindow(W_MS)],
            key=KeySpec("conv_id", "java_hash"),
            stratify_by="role",
            parallelism=2,
        )
        job = StreamingSynopsisJob(cfg, str(tmp_path / "stream"))
        job.run(frags)
        got = job.result_dataset().to_pandas()
        job.shutdown()

        kept, wm = [], -(2**62)
        for f in frags:
            t = pq.read_table(f)
            ts = t["ts"].cast("int64").to_numpy()
            kept.append(t.filter(pa.array((ts // W_US + 1) * W_US > wm)))
            wm = max(wm, int(ts.max()))
        want = build_windowed_synopses(
            rd.from_arrow(pa.concat_tables(kept)), cfg, concurrency=2
        ).to_pandas()

        key = ["window_start", "stratum"]
        got = got.sort_values(key).reset_index(drop=True)
        want = want.sort_values(key).reset_index(drop=True)
        assert len(got) > 0 and set(got["stratum"]) == {"user", "assistant", "tool"}
        assert got[key].values.tolist() == want[key].values.tolist()
        assert got["n_rows"].tolist() == want["n_rows"].tolist()
        for a, b in zip(got["payload"], want["payload"]):
            sa, sb = Synopsis.from_bytes(a), Synopsis.from_bytes(b)
            assert sa.partition_value == sb.partition_value
            assert (sa.array == sb.array).all()


class TestPartitionInvariance:
    def test_parallelism_does_not_change_output(self, ray_session, tiny_fixture, tmp_path):
        frags = transcript_fragments(tiny_fixture)
        outs = []
        for p in (1, 5):
            out = str(tmp_path / f"out_p{p}")
            cfg = BuildConfiguration(
                synopsis="CountMinSketch",
                params=(256, 3, 7),
                windows=[TumblingWindow(W_MS)],
                key=KeySpec("conv_id", "java_hash"),
                parallelism=p,
            )
            job = StreamingSynopsisJob(cfg, out)
            job.run(frags)
            df = job.result_dataset().to_pandas().sort_values("window_start")
            job.shutdown()
            outs.append(df.reset_index(drop=True))
        a, b = outs
        assert (a["n_rows"] == b["n_rows"]).all()
        for pa_, pb_ in zip(a["payload"], b["payload"]):
            sa, sb = Synopsis.from_bytes(pa_), Synopsis.from_bytes(pb_)
            assert (sa.array == sb.array).all()

    def test_hot_key_salting_preserves_output(self, ray_session, tiny_fixture, tmp_path):
        frags = transcript_fragments(tiny_fixture)
        outs = []
        for thresh in (None, 5):
            out = str(tmp_path / f"out_salt_{thresh}")
            cfg = BuildConfiguration(
                synopsis="CountMinSketch",
                params=(256, 3, 7),
                windows=[TumblingWindow(W_MS)],
                key=KeySpec("conv_id", "java_hash"),
                parallelism=4,
                hot_key_threshold=thresh,
            )
            job = StreamingSynopsisJob(cfg, out)
            job.run(frags)
            df = job.result_dataset().to_pandas().sort_values("window_start")
            job.shutdown()
            outs.append(df.reset_index(drop=True))
        a, b = outs
        assert (a["n_rows"] == b["n_rows"]).all()
        for pa_, pb_ in zip(a["payload"], b["payload"]):
            assert (
                Synopsis.from_bytes(pa_).array == Synopsis.from_bytes(pb_).array
            ).all()


class TestExactlyOnceResume:
    def test_crash_resume_identical_output(self, ray_session, tiny_fixture, tmp_path):
        frags = transcript_fragments(tiny_fixture)

        def make_cfg():
            return BuildConfiguration(
                synopsis="CountMinSketch",
                params=(256, 3, 7),
                windows=[TumblingWindow(W_MS)],
                key=KeySpec("conv_id", "java_hash"),
                parallelism=2,
            )

        # reference run (no interruption)
        ref_out = str(tmp_path / "ref")
        job = StreamingSynopsisJob(make_cfg(), ref_out)
        job.run(frags)
        ref = job.result_dataset().to_pandas().sort_values("window_start").reset_index(drop=True)
        job.shutdown()

        # crashed run: process only the first 3 fragments with checkpointing
        out = str(tmp_path / "crashy")
        ckpt = str(tmp_path / "ckpt")
        job1 = StreamingSynopsisJob(make_cfg(), out, checkpoint_dir=ckpt, checkpoint_every=1)
        job1.run(frags[:3], final_flush=False)  # "crash" after 3 fragments
        job1.shutdown()
        job2 = StreamingSynopsisJob(make_cfg(), out, checkpoint_dir=ckpt, checkpoint_every=1)
        assert job2.resume()
        # resume points at the checkpoint written after fragment 3
        assert job2.next_fragment == 3
        job2.run(frags, resume=False)  # continues from restored cursor
        got = job2.result_dataset().to_pandas().sort_values("window_start").reset_index(drop=True)
        job2.shutdown()

        assert (got["n_rows"].to_numpy() == ref["n_rows"].to_numpy()).all()
        assert (got["window_start"].to_numpy() == ref["window_start"].to_numpy()).all()
        for pa_, pb_ in zip(got["payload"], ref["payload"]):
            assert (
                Synopsis.from_bytes(pa_).array == Synopsis.from_bytes(pb_).array
            ).all()

    def test_manifest_lineage(self, ray_session, tiny_fixture, tmp_path):
        import json

        frags = transcript_fragments(tiny_fixture)
        out = str(tmp_path / "mani")
        cfg = BuildConfiguration(
            synopsis="CountMinSketch",
            params=(128, 3, 7),
            windows=[TumblingWindow(W_MS)],
            parallelism=2,
        )
        job = StreamingSynopsisJob(cfg, out)
        job.run(frags)
        job.shutdown()
        lines = [json.loads(l) for l in open(os.path.join(out, "manifest.jsonl"))]
        frag_lines = [l for l in lines if "fragment" in l]
        assert [l["fragment"] for l in frag_lines] == list(range(len(frags)))
        assert all(l["watermark"] > 0 for l in frag_lines)
        wm = [l["watermark"] for l in frag_lines]
        assert wm == sorted(wm)  # watermark monotone
        summary = [l for l in lines if l.get("summary")]
        assert summary and summary[-1]["windows_emitted"] > 0


class TestFragmentationInvariance:
    """With ts-ordered input (no late data), the emitted synopsis stream
    must not depend on micro-batch boundaries: watermarks advance at
    different points but every window still closes over the same rows.
    (With late data the reference's max-ts watermark makes drops depend on
    batching granularity — covered by the late-drop oracle test above.)"""

    def _emitted_state(self, frag_paths, tmp_path, tag):
        cfg = BuildConfiguration(
            synopsis="CountMinSketch",
            params=(512, 3, 7),
            windows=[TumblingWindow(W_MS)],
            key=KeySpec("conv_id", "java_hash"),
            parallelism=2,
        )
        job = StreamingSynopsisJob(cfg, str(tmp_path / tag))
        job.run(frag_paths)
        out = job.result_dataset().to_pandas()
        job.shutdown()
        return {
            int(r["window_start"]): Synopsis.from_bytes(r["payload"]).array.tobytes()
            for _, r in out.iterrows()
        }

    def test_emissions_identical_across_fragmentations(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        rng = np.random.default_rng(9)
        n = 4000
        convs = [f"c{i}" for i in rng.integers(0, 150, n)]
        ts = np.sort(rng.integers(0, 90_000, n)).astype("datetime64[ms]").astype("datetime64[us]")
        table = pa.table({"conv_id": pa.array(convs), "ts": pa.array(ts)})

        states = []
        for tag, n_frag in (("one", 1), ("seven", 7), ("thirteen", 13)):
            cuts = np.sort(rng.choice(np.arange(1, n), n_frag - 1, replace=False)) if n_frag > 1 else np.array([], dtype=int)
            bounds = np.concatenate([[0], cuts, [n]])
            d = tmp_path / f"frags_{tag}"
            d.mkdir()
            paths = []
            for i in range(len(bounds) - 1):
                p = str(d / f"frag-{i:05d}.parquet")
                pq.write_table(table.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i])), p)
                paths.append(p)
            states.append(self._emitted_state(paths, tmp_path, f"out_{tag}"))

        assert states[0].keys() == states[1].keys() == states[2].keys()
        for w in states[0]:
            assert states[0][w] == states[1][w] == states[2][w], w


class TestPartitionFragmentEdgeCases:
    def test_null_conv_id_rows_do_not_crash(self, ray_session, tmp_path):
        """Null conv_id rows hash to 0 (the hashing.py convention) instead
        of turning into NaN dictionary indices that explode the partition
        lookup."""
        import pyarrow as pa

        from condor_ray.engine.streaming import _partition_fragment

        tbl = pa.table(
            {
                "conv_id": pa.array(["c1", None, "c2", None, "c1"]),
                "role": pa.array(["user"] * 5),
                "tool": pa.array([None] * 5, pa.string()),
                "text": pa.array(["x"] * 5),
                "ts": pa.array(
                    np.arange(5, dtype=np.int64) * 1_000_000
                ).cast(pa.timestamp("us")),
            }
        )
        path = str(tmp_path / "nulls.parquet")
        pq.write_table(tbl, path)
        meta, *shards = _partition_fragment(
            path, 3, 1_000_000, -(2**62), None, None, None
        )
        assert meta["n_rows"] == 5 and meta["n_late"] == 0
        assert sum(s.num_rows for s in shards) == 5
        # both null rows land in ONE partition (they share the hash-0 route)
        null_counts = [
            sum(1 for v in s["conv_id"].to_pylist() if v is None) for s in shards
        ]
        assert sorted(null_counts)[-1] == 2 and sum(null_counts) == 2
        # hot-key path tolerates the null sentinel too
        meta2, *shards2 = _partition_fragment(
            path, 3, 1_000_000, -(2**62), 1, None, None
        )
        assert sum(s.num_rows for s in shards2) == 5

    @pytest.mark.parametrize("chunked", [False, True])
    def test_routing_hashes_are_the_conv_id_key(self, chunked):
        """``conv_partition_ids`` returns each code's java hash, so the split
        keys on conv_id without hashing it again: ``hashes[codes]`` is
        ``KeyExtractor``'s key (0 on null rows), also for non-ASCII values,
        over 1,024 distinct values and dictionary chunks."""
        from condor_ray.engine.streaming import conv_partition_ids
        from condor_ray.stages.extract import KeyExtractor

        rng = np.random.default_rng(4)
        values = [f"c{i}" for i in range(1500)] + ["ü-conv", "日本", "😀x", ""]
        col = pa.array([
            None if i % 17 == 0 else values[j]
            for i, j in enumerate(rng.integers(0, len(values), 5000))
        ])
        if chunked:  # a dictionary-preserving read: one dictionary a chunk
            col = pa.chunked_array([col.slice(0, 2000).dictionary_encode(),
                                    col.slice(2000).dictionary_encode()])
        part, codes, dic, hashes = conv_partition_ids(col, 3)
        key = KeyExtractor(KeySpec("conv_id", "java_hash"))(pa.table({"conv_id": col}))
        assert len(dic.dictionary) > 1024
        np.testing.assert_array_equal(hashes[codes], key)
        nulls = np.asarray(col.is_null())
        assert nulls.any() and (hashes[codes][nulls] == 0).all()

    @pytest.mark.parametrize(
        "stratify_by, sample_elements, expected",
        [
            (None, False, {"ts", "__key32"}),
            ("role", False, {"ts", "__key32", "role"}),
            # samplers key their elements in the store: shards keep the read
            (None, True, {"conv_id", "ts", "turn_idx"}),
        ],
    )
    def test_shards_carry_only_store_columns(
        self, ray_session, tiny_fixture, tmp_path, stratify_by, sample_elements,
        expected,
    ):
        """The routing column is used by the split; shards ship only what
        the store reads once the split has computed __key32."""
        from condor_ray.engine.streaming import _partition_fragment

        cfg = BuildConfiguration(
            synopsis="ReservoirSampler" if sample_elements else "CountMinSketch",
            params=(50, 7) if sample_elements else (128, 3, 7),
            windows=[TumblingWindow(W_MS)],
            key=KeySpec("conv_id", "java_hash"),
            stratify_by=stratify_by,
            sample_elements=sample_elements,
            parallelism=2,
        )
        job = StreamingSynopsisJob(cfg, str(tmp_path))
        job.shutdown()
        path = transcript_fragments(tiny_fixture)[0]
        meta, *shards = _partition_fragment(
            path, 2, W_US, -(2**62), None, job.columns,
            None if sample_elements else cfg.key, job.shard_columns,
        )
        assert sum(s.num_rows for s in shards) == meta["n_rows"]
        for shard in shards:
            assert set(shard.column_names) == expected

    def test_sequential_pipelined_checkpointed_runs_agree(
        self, ray_session, tiny_fixture, tmp_path
    ):
        """Sequential, pipelined and checkpointed runs are one loop at
        different lookaheads: they write byte-identical emit files and the
        same manifest fragment lines."""
        frags = transcript_fragments(tiny_fixture)
        cfg = BuildConfiguration(
            synopsis="CountMinSketch",
            params=(128, 3, 7),
            windows=[SlidingWindow(W_MS, W_MS // 2)],
            parallelism=2,
        )
        outs = {}
        for mode, ckpt, pipelined in (
            ("seq", None, False),
            ("pipe", None, True),
            ("ckpt", str(tmp_path / "ckpt-state"), None),
        ):
            out = str(tmp_path / mode)
            job = StreamingSynopsisJob(cfg, out, checkpoint_dir=ckpt, checkpoint_every=2)
            job.run(frags, pipelined=pipelined)
            job.shutdown()
            with open(os.path.join(out, "manifest.jsonl")) as f:
                lines = [line for line in f if '"fragment"' in line]
            emits = {
                f: open(os.path.join(out, f), "rb").read()
                for f in sorted(os.listdir(out)) if f.startswith("emit-")
            }
            outs[mode] = (emits, lines)
        assert len(outs["seq"][0]) > 2 and len(outs["seq"][1]) == len(frags)
        assert outs["pipe"] == outs["seq"]
        assert outs["ckpt"] == outs["seq"]
        assert sorted(os.listdir(tmp_path / "ckpt-state")) == ["ckpt-00004", "ckpt-00006"]


def _label(v):
    """A stratum value as its ``stratum_codes`` label."""
    return "<null>" if v is None else "<empty>" if v == "" else v


def _group_counts(table: pa.Table, slice_us: int, stratum, part=None) -> dict:
    """{(slice, stratum label, key): rows} of a row shard, or of a cell
    table's rows of partition ``part`` (None: of every partition)."""
    if "__count" in table.column_names:
        if part is not None:
            table = table.filter(pa.compute.equal(table["__part"], part))
        slices, weights = table["__slice"].to_pylist(), table["__count"].to_pylist()
        strata = table["__stratum"].to_pylist() if stratum else [None] * table.num_rows
    else:
        slices = (ts_to_us(table["ts"]) // slice_us).tolist()
        weights = [1] * table.num_rows
        strata = ([_label(v) for v in table[stratum].to_pylist()] if stratum
                  else [None] * table.num_rows)
    out: dict = {}
    for g, w in zip(zip(slices, strata, table["__key32"].to_pylist()), weights):
        out[g] = out.get(g, 0) + w
    return out


def _job_output(out: str) -> tuple[dict, list]:
    """A job's emit files (name -> bytes) and manifest fragment lines."""
    with open(os.path.join(out, "manifest.jsonl")) as f:
        lines = [line for line in f if '"fragment"' in line]
    emits = {
        f: open(os.path.join(out, f), "rb").read()
        for f in sorted(os.listdir(out)) if f.startswith("emit-")
    }
    return emits, lines


class TestCombiner:
    """Count-Min and HyperLogLog keep slice state as cell tables: the split
    combines each fragment into per-(slice, stratum, partition, key) counts
    in a compact encoding, and the close folds them into the partials the
    object layout builds from rows."""

    @pytest.mark.parametrize("stratum", [None, "role"])
    def test_count_shards_sum_to_kept_rows(self, ray_session, tiny_fixture, stratum):
        """Per partition, the split's cell table ``by_part`` holds the
        (slice, stratum, key) counts of that partition's row shard, and
        ``meta`` its rows and (slice, stratum) pairs; without ``by_part`` the
        table holds the counts of all shards, with no ``__part`` column."""
        from condor_ray.engine.streaming import _partition_fragment

        key = KeySpec("conv_id", "java_hash")
        shard_columns = sorted({"ts", "__key32", stratum} - {None})
        slice_us = 60_000_000
        n_late = salted = 0
        for path in transcript_fragments(tiny_fixture)[1:]:
            ts = ts_to_us(pq.read_table(path, columns=["ts"])["ts"])
            wm = int(np.median(ts))  # a carry-in watermark that makes rows late
            args = (path, 2, slice_us, wm, 3, ["conv_id", "role", "ts"], key,
                    shard_columns)
            meta, *rows = _partition_fragment(*args, stratify_by=stratum)
            meta_c, cells = _partition_fragment(*args, True, True, stratify_by=stratum)
            meta_n, flat = _partition_fragment(*args, True, stratify_by=stratum)
            assert {k: meta_c[k] for k in meta} == meta
            assert meta_n == meta_c
            assert meta_c["part_rows"] == [r.num_rows for r in rows]
            n_late += meta["n_late"]
            assert cells.column_names == [
                "__slice", *["__stratum"] * bool(stratum), "__part", "__key32", "__count"
            ]
            assert flat.column_names == [c for c in cells.column_names if c != "__part"]
            assert _group_counts(flat, slice_us, stratum) == _group_counts(
                pa.concat_tables(rows), slice_us, stratum)
            assert flat.num_rows <= cells.num_rows
            assert cells.num_rows * 2 <= sum(r.num_rows for r in rows)
            assert sum(cells["__count"].to_pylist()) == sum(r.num_rows for r in rows)
            assert (np.diff(cells["__slice"].to_pylist()) >= 0).all()  # by slice
            for p, r in enumerate(rows):
                got = _group_counts(cells, slice_us, stratum, p)
                assert got == _group_counts(r, slice_us, stratum)
                assert meta_c["groups"][p] == sorted({(s, st or "") for s, st, _ in got})
            # hot keys (over 3 rows) are salted: one key in both partitions
            salted += len(set(_group_counts(cells, slice_us, None, 0))
                          & set(_group_counts(cells, slice_us, None, 1)))
        assert n_late > 0 and salted > 0

    @staticmethod
    def _close_agrees(cfg, rows: pa.Table, cells: pa.Table, n_slices: int, tmp_path):
        """The close, fed ``cells``, emits for each one-slice window the bytes
        and n_rows of the partial the object layout's partition task builds
        from ``rows``, and carries every row while no slice is closed.
        Returns the emitted payloads."""
        from condor_ray.engine.streaming import _ingest_partition, _merge_and_emit

        sids = sorted(set((ts_to_us(rows["ts"]) // W_US).tolist()))
        partials, kept = _ingest_partition._function(cfg, W_US, sids, -(2**62), rows)
        assert partials.num_rows == n_slices and kept.equals(partials)
        assert sum(partials["n_rows"].to_pylist()) == rows.num_rows
        spec = [{"kind": "k", "start": s * W_US, "size": W_US, "slices": [s]}
                for s in sids]
        path = str(tmp_path / "emit.parquet")
        meta, n, carry = _merge_and_emit._function(
            path, spec, cfg.synopsis, cfg.params, W_US, -(2**62), cells
        )
        assert meta is None
        got = pq.read_table(path).to_pylist()
        assert n == n_slices == len(got)
        assert {
            (r["stratum"] or "", r["window_start"] // W_US): (r["payload"], r["n_rows"])
            for r in got
        } == {(r["stratum"], r["slice_id"]): (r["payload"], r["n_rows"])
              for r in partials.to_pylist()}
        stratum = cfg.stratify_by
        assert _group_counts(carry, W_US, stratum) == _group_counts(cells, W_US, stratum)
        return [r["payload"] for r in got]

    @staticmethod
    def _combined(rows: pa.Table, stratum=None) -> pa.Table:
        """The cell table the split's combiner makes of ``rows``."""
        from condor_ray.engine.streaming import _count_cells

        n = rows.num_rows
        sid = ts_to_us(rows["ts"]) // W_US
        return _count_cells(rows, np.zeros(n, dtype=np.int64), sid,
                            rows["__key32"].to_numpy(), stratum, 1)[0]

    @staticmethod
    def _rows(sid: np.ndarray, keys: np.ndarray, rng, role=False) -> pa.Table:
        cols = {
            "ts": pa.array(sid * W_US + rng.integers(0, W_US, len(sid))).cast(
                pa.timestamp("us")),
            "__key32": pa.array(keys.astype(np.int32)),
        }
        if role:
            cols["role"] = pa.array(rng.choice(["user", "assistant", None], len(sid)))
        return pa.table(cols)

    @pytest.mark.parametrize("params", [(65536, 5, 7), (8, 2, 7)], ids=["sparse", "dense"])
    @pytest.mark.parametrize("stratum", [None, "role"])
    def test_count_shard_ingests_like_rows(self, params, stratum, tmp_path):
        rng = np.random.default_rng(3)
        n = 90
        keys = np.array([-(2**31), -1, 0], dtype=np.int32)[rng.integers(0, 3, n)]
        rows = self._rows(1_000 + rng.integers(0, 2, n), keys, rng, role=True)
        cells = self._combined(rows, stratum)
        assert cells.num_rows < n
        cfg = BuildConfiguration(
            synopsis="CountMinSketch", params=params, windows=[TumblingWindow(W_MS)],
            stratify_by=stratum, parallelism=1,
        )
        payloads = self._close_agrees(cfg, rows, cells, 2 if stratum is None else 6,
                                      tmp_path)
        for p in payloads:
            assert (Synopsis.from_bytes(p)._dense is not None) == (params[0] == 8)

    @pytest.mark.parametrize("stratum", [None, "role"])
    def test_hll_count_shard_ingests_like_rows(self, stratum, tmp_path):
        """HyperLogLog cells: the counts reach n_rows, and the registers are
        those of the rows."""
        rng = np.random.default_rng(5)
        n = 600
        keys = rng.integers(-(2**31), 2**31, 40)[rng.integers(0, 40, n)]
        rows = self._rows(1_000 + rng.integers(0, 3, n), keys, rng, role=True)
        cells = self._combined(rows, stratum)
        assert cells.num_rows * 2 <= n
        assert pa.types.is_dictionary(cells["__slice"].type)
        assert cells["__count"].type == pa.uint8()
        cfg = BuildConfiguration(
            synopsis="HyperLogLogSketch", params=(10, 7), windows=[TumblingWindow(W_MS)],
            stratify_by=stratum, parallelism=1,
        )
        self._close_agrees(cfg, rows, cells, 3 if stratum is None else 9, tmp_path)

    @pytest.mark.parametrize(
        "top, width",
        [(255, pa.uint8()), (256, pa.uint16()), (65_535, pa.uint16()),
         (65_536, pa.uint32())],
    )
    def test_count_width_edges(self, top, width, tmp_path):
        """``__count`` is the narrowest unsigned int that holds the largest
        count of the table, and the close reads every width."""
        rng = np.random.default_rng(top)
        keys = np.concatenate([np.full(top, 7), rng.integers(100, 120, 300)])
        sid = np.concatenate([np.full(top, 40), 40 + rng.integers(0, 2, 300)])
        rows = self._rows(sid, keys, rng)
        cells = self._combined(rows)
        assert cells["__count"].type == width
        assert max(cells["__count"].to_pylist()) == top
        cfg = BuildConfiguration(
            synopsis="CountMinSketch", params=(64, 3, 7), windows=[TumblingWindow(W_MS)],
            parallelism=1,
        )
        self._close_agrees(cfg, rows, cells, 2, tmp_path)

    @pytest.mark.parametrize(
        "n_slices, index", [(2**15 - 1, pa.int16()), (2**15 + 1, pa.int32())]
    )
    def test_slice_index_width_edges(self, n_slices, index, tmp_path):
        """``__slice`` indexes the table's slice ids with int16, or int32 from
        2^15 slices on."""
        rng = np.random.default_rng(1)
        sid = np.repeat(3 + 7 * np.arange(n_slices), 2)  # two rows a slice
        rows = self._rows(sid, np.zeros(len(sid)), rng)
        cells = self._combined(rows)
        assert cells["__slice"].type.index_type == index
        assert cells["__slice"].to_pylist() == sid[::2].tolist()
        cfg = BuildConfiguration(
            synopsis="HyperLogLogSketch", params=(4, 7), windows=[TumblingWindow(W_MS)],
            parallelism=1,
        )
        self._close_agrees(cfg, rows, cells, n_slices, tmp_path)

    def test_multi_chunk_count_shard(self, tmp_path):
        """A cell table whose ``__slice`` has several chunks, each with its
        own dictionary, closes like its rows."""
        rng = np.random.default_rng(2)
        parts = [
            self._rows(lo + rng.integers(0, 3, 200), rng.integers(0, 30, 200), rng)
            for lo in (10, 12)
        ]
        cells = pa.concat_tables([self._combined(r) for r in parts])
        assert cells["__slice"].num_chunks == 2
        cfg = BuildConfiguration(
            synopsis="CountMinSketch", params=(4096, 3, 7), windows=[TumblingWindow(W_MS)],
            parallelism=1,
        )
        self._close_agrees(cfg, pa.concat_tables(parts), cells, 5, tmp_path)

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(windows=[TumblingWindow(W_MS)], stratify_by="role"),
            dict(windows=[SlidingWindow(60_000, 30_000)], key=KeySpec("turn_idx", "value")),
            dict(windows=[TumblingWindow(60_000)], key=KeySpec("text", "length")),
            dict(windows=[TumblingWindow(200)], key=KeySpec("text", "java_hash")),
            dict(synopsis="HyperLogLogSketch", params=(16, 7),
                 windows=[SlidingWindow(5_000, 2_500)]),
            dict(synopsis="HyperLogLogSketch", params=(10, 7),
                 windows=[SlidingWindow(20_000, 10_000)], stratify_by="role"),
        ],
        ids=["stratified", "value_key", "length_key", "distinct_200ms",
             "hll_sliding", "hll_stratified"],
    )
    def test_runs_agree_with_row_shards(self, ray_session, tiny_fixture, tmp_path, cfg):
        """Sequential, pipelined and checkpointed runs over cell tables write
        the emit files and manifest fragment lines of a run over row shards."""
        frags = transcript_fragments(tiny_fixture)
        cfg = BuildConfiguration(**{
            "synopsis": "CountMinSketch", "params": (128, 3, 7), "parallelism": 2, **cfg
        })
        outs = {}
        for mode, ckpt, pipelined in (
            ("rows", None, False),
            ("seq", None, False),
            ("pipe", None, True),
            ("ckpt", str(tmp_path / "ckpt-state"), None),
        ):
            out = str(tmp_path / mode)
            job = StreamingSynopsisJob(cfg, out, checkpoint_dir=ckpt, checkpoint_every=2)
            assert job.combine
            job.combine = mode != "rows"
            try:
                job.run(frags, pipelined=pipelined)
            finally:
                job.shutdown()
            outs[mode] = _job_output(out)
        assert len(outs["rows"][0]) > 2 and len(outs["rows"][1]) == len(frags)
        for mode in ("seq", "pipe", "ckpt"):
            assert outs[mode] == outs["rows"], mode


@pytest.fixture(scope="module")
def strata_fixture(tiny_fixture, tmp_path_factory):
    """The tiny stream with every third null ``tool`` written as "": null
    and empty strata side by side."""
    out = tmp_path_factory.mktemp("strata")
    paths = []
    for path in transcript_fragments(tiny_fixture):
        t = pq.read_table(path)
        tool = t["tool"].to_pylist()
        nulls = [i for i, v in enumerate(tool) if v is None]
        for i in nulls[::3]:
            tool[i] = ""
        t = t.set_column(t.schema.get_field_index("tool"), "tool", pa.array(tool))
        paths.append(str(out / os.path.basename(path)))
        pq.write_table(t, paths[-1])
    return paths


_HLL = dict(synopsis="HyperLogLogSketch", params=(10, 7))


class TestCellLayout:
    """The cell layout writes what the object layout (``combine = False``,
    per-partition partial tables) writes: the same emit files and manifest
    fragment lines, sequential, pipelined, and crashed after a fragment
    then resumed."""

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(windows=[TumblingWindow(W_MS)], parallelism=1),
            dict(windows=[SlidingWindow(20_000, 10_000)], stratify_by="tool",
                 hot_key_threshold=3, parallelism=3),
            dict(params=(1024, 3, 7), parallelism=2,
                 windows=[SlidingWindow(i * 5_000, 5_000) for i in range(1, 11)]),
            dict(**_HLL, windows=[TumblingWindow(1_000)], hot_key_threshold=2,
                 parallelism=2),
            dict(**_HLL, windows=[SlidingWindow(5_000, 2_500)], stratify_by="tool",
                 parallelism=3),
            dict(**_HLL, windows=[SlidingWindow(W_MS, W_MS // 2)], parallelism=1),
        ],
        ids=["cm_tumbling_p1", "cm_sliding_strata_hot_p3", "cm_ten_sliding_p2",
             "hll_1s_hot_p2", "hll_sliding_strata_p3", "hll_sliding_p1"],
    )
    def test_cells_write_what_stores_write(self, ray_session, strata_fixture, tmp_path,
                                           cfg):
        frags = strata_fixture
        cfg = BuildConfiguration(**{"synopsis": "CountMinSketch", "params": (128, 3, 7),
                                    **cfg})
        outs = {}
        for mode in ("objects", "seq", "pipe", "resume"):
            out = str(tmp_path / mode)
            ckpt = str(tmp_path / "ckpt") if mode == "resume" else None
            job = StreamingSynopsisJob(cfg, out, checkpoint_dir=ckpt, checkpoint_every=2)
            job.combine = mode != "objects"
            try:
                if mode == "resume":  # a crash after fragment 3; ckpt-00002 survives
                    job.run(frags[:3], final_flush=False)
                    job.shutdown()
                    job = StreamingSynopsisJob(cfg, out, checkpoint_dir=ckpt,
                                               checkpoint_every=2)
                    assert job.resume() and job.next_fragment == 2
                job.run(frags, pipelined=mode == "pipe")
            finally:
                job.shutdown()
            outs[mode] = _job_output(out)
        emits, lines = outs["objects"]
        assert len(emits) > 2 and len(lines) == len(frags)
        for mode in ("seq", "pipe", "resume"):
            assert outs[mode] == outs["objects"], mode
        rows = pq.read_table([str(tmp_path / "objects" / f) for f in emits]).to_pylist()
        if cfg.stratify_by:  # null and empty strata both emitted
            assert {"<null>", "<empty>"} <= {r["stratum"] for r in rows}
        if cfg.synopsis == "HyperLogLogSketch":
            # windows of one (partition, slice) partial keep its count of 0
            counts = [Synopsis.from_bytes(r["payload"]).distinct_item_count for r in rows]
            assert min(counts) == 0 < max(counts)

    def test_state_stays_bounded(self, ray_session, tiny_fixture, tmp_path, monkeypatch):
        """A close replaces the tables it reads with one carry, and
        ``_FOLD_EVERY`` fragments without a close are folded: live state
        is one carry plus the fragments since the last close, in either
        layout."""
        import condor_ray.engine.streaming as streaming

        frags = transcript_fragments(tiny_fixture)
        cfg = BuildConfiguration(synopsis="CountMinSketch", params=(128, 3, 7),
                                 windows=[TumblingWindow(3_600_000)], parallelism=2)
        outs = {}
        for combine, drain in ((True, 32), (True, 2), (False, 32), (False, 2)):
            monkeypatch.setattr(streaming, "_FOLD_EVERY", drain)
            out = str(tmp_path / f"{combine}-{drain}")
            job = StreamingSynopsisJob(cfg, out)
            job.combine = combine
            try:
                for k in range(1, len(frags) + 1):  # no window closes
                    job.run(frags[:k], final_flush=False, pipelined=False)
                    assert len(job.state) == (k if drain > k else 1 + (k - 1) % drain)
                job.run(frags)
                assert len(job.state) == 1
            finally:
                job.shutdown()
            assert job.state == []
            outs[combine, drain] = _job_output(out)
        assert outs[True, 2][0]
        assert outs[True, 2] == outs[True, 32] == outs[False, 2] == outs[False, 32]


    def test_checkpoint_folds_waiting_fragments(self, ray_session, tiny_fixture, tmp_path):
        """A checkpoint taken while no window has closed folds the waiting
        fragments into one carry (one cell table, or one partial table a
        partition); a resumed job reports the summary figures of the
        checkpointed one and writes the uninterrupted run's output."""
        frags = transcript_fragments(tiny_fixture)
        cfg = BuildConfiguration(synopsis="CountMinSketch", params=(128, 3, 7),
                                 windows=[TumblingWindow(3_600_000)], parallelism=2)

        def job_for(out, ckpt=None, combine=True):
            job = StreamingSynopsisJob(cfg, str(tmp_path / out), checkpoint_dir=ckpt,
                                       checkpoint_every=2)
            job.combine = combine
            return job

        for combine in (True, False):
            ckpt = str(tmp_path / f"ckpt-{combine}")
            for name, ckpt_dir, n in (("whole", None, len(frags)), ("crashed", ckpt, 2)):
                job = job_for(f"{name}-{combine}", ckpt_dir, combine)
                try:
                    figures = job.run(frags[:n], final_flush=n == len(frags))["partitions"]
                finally:
                    job.shutdown()
            files = os.listdir(os.path.join(ckpt, "ckpt-00002"))
            tables = sorted(f for f in files if f.startswith("state-"))
            assert tables == [f"state-0000-{p:04d}.arrow" for p in range(1 if combine else 2)]
            job = job_for(f"crashed-{combine}", ckpt, combine)
            try:
                assert job.resume() and job.next_fragment == 2
                assert job._summary([])["partitions"] == figures
                job.run(frags)
            finally:
                job.shutdown()
            whole = _job_output(str(tmp_path / f"whole-{combine}"))
            assert whole[0] and _job_output(str(tmp_path / f"crashed-{combine}")) == whole

    SUMMARY_CFG = BuildConfiguration(
        synopsis="CountMinSketch", params=(128, 3, 7),
        windows=[SlidingWindow(W_MS, W_MS // 2)], parallelism=2, stratify_by="role",
    )
    FIGURES = ("partition_id", "rows_ingested", "open_slices", "max_open_slices")

    def test_summary_figures_stay_bounded(self, ray_session, tiny_fixture, tmp_path):
        """Each close replays the resolved ingests into the per-partition
        figures: after the close of fragment k, only the ingests of
        fragments > k (still in flight) wait, and no resolved meta is kept.
        Both layouts give the same figures."""
        frags = transcript_fragments(tiny_fixture)
        summaries = {}
        for mode in ("objects", "cells"):
            job = StreamingSynopsisJob(self.SUMMARY_CFG, str(tmp_path / mode))
            job.combine = mode == "cells"
            close, seen = job._close, []

            def checked(wm, idx, close=close, job=job, seen=seen):
                out = close(wm, idx)
                seen.append((dict(job._groups), [
                    arg for kind, arg in job._events if kind == "add" and arg <= idx
                ]))
                return out

            job._close = checked
            try:
                summaries[mode] = job.run(frags, pipelined=True)["partitions"]
            finally:
                job.shutdown()
            assert len(seen) == len(frags) + 1
            assert all(groups == {} and not waiting for groups, waiting in seen)
        for p, q in zip(summaries["cells"], summaries["objects"]):
            assert [p[k] for k in self.FIGURES] == [q[k] for k in self.FIGURES]

    def test_summary_figures_count_state(self, ray_session, tiny_fixture, tmp_path,
                                         monkeypatch):
        """The per-partition figures count the state the object layout holds.
        With every close folding (``_FOLD_EVERY`` 0), after fragment k a
        partition's open slices are the (slice, stratum) rows of its carry,
        its high-water mark is the largest union of the previous carry and
        one fragment's shard (what its task holds at once), and its rows are
        its shards' rows.  The cell layout reports the same figures."""
        import ray
        import condor_ray.engine.streaming as streaming
        from condor_ray.stages.extract import stratum_codes

        monkeypatch.setattr(streaming, "_FOLD_EVERY", 0)
        frags = transcript_fragments(tiny_fixture)
        cfg = self.SUMMARY_CFG
        jobs = {}
        for mode in ("objects", "cells"):
            jobs[mode] = StreamingSynopsisJob(cfg, str(tmp_path / mode))
            jobs[mode].combine = mode == "cells"
        job, shards = jobs["objects"], []
        ingest = job._ingest
        job._ingest = lambda k, refs, wm: (shards.append(refs), ingest(k, refs, wm))[1]

        def pairs(table: pa.Table) -> set:
            if "payload" in table.column_names:  # a carry
                return set(zip(table["slice_id"].to_pylist(), table["stratum"].to_pylist()))
            codes, labels = stratum_codes(table[cfg.stratify_by])
            sids = (ts_to_us(table["ts"]) // job.slice_us).tolist()
            return {(s, labels[c]) for s, c in zip(sids, codes.tolist())}

        rows, high = [0, 0], [0, 0]
        carry: list[set] = [set(), set()]
        try:
            for k in range(1, len(frags) + 1):
                summary = {mode: j.run(frags[:k], final_flush=False, pipelined=False)
                           ["partitions"] for mode, j in jobs.items()}
                (idx, tables), = job.state
                assert idx == k - 1 and len(shards) == k
                for p, (shard, table) in enumerate(zip(ray.get(shards[-1]),
                                                       ray.get(tables))):
                    rows[p] += shard.num_rows
                    high[p] = max(high[p], len(carry[p] | pairs(shard)))
                    carry[p] = pairs(table)
                    assert table.num_rows == len(carry[p])
                    want = [p, rows[p], len(carry[p]), high[p]]
                    for mode in jobs:
                        assert [summary[mode][p][f] for f in self.FIGURES] == want, mode
            assert min(rows) > 0 and max(high) > max(map(len, carry)) > 0
        finally:
            for j in jobs.values():
                j.shutdown()

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(synopsis="BloomFilter", params=(64, 1024, 7),
                 windows=[SlidingWindow(W_MS, W_MS // 2)]),
            dict(synopsis="CountMinSketch", params=(128, 3, 7),
                 windows=[SlidingWindow(W_MS, W_MS // 2)], stratify_by="tool"),
            dict(synopsis="CuckooFilter", params=(4, 256, 7),
                 windows=[SlidingWindow(W_MS, W_MS // 2)]),
            dict(synopsis="FastAGMS", params=(64, 5, 7), windows=[TumblingWindow(W_MS)],
                 stratify_by="role"),
            dict(synopsis="DDSketch", params=(0.01, 256), key=KeySpec("text", "length"),
                 windows=[SlidingWindow(W_MS, W_MS // 2)]),
            dict(synopsis="EquiWidthHistogram", params=(0.0, 2000.0, 16),
                 key=KeySpec("text", "length"), windows=[TumblingWindow(W_MS)]),
            dict(synopsis="BarSplittingHistogram", params=(7, 8),
                 key=KeySpec("text", "length"), windows=[SlidingWindow(W_MS, W_MS // 2)]),
            dict(synopsis="SplitAndMergeWithDDSketch", params=(16, 0.01),
                 key=KeySpec("text", "length"), windows=[TumblingWindow(W_MS)],
                 stratify_by="tool"),
            dict(synopsis="ReservoirSampler", params=(20, 7), sample_elements=True,
                 windows=[SlidingWindow(W_MS, W_MS // 2)], stratify_by="role"),
            dict(synopsis="FiFoSampler", params=(20,),
                 windows=[SlidingWindow(W_MS, W_MS // 2)]),
            dict(synopsis="BiasedReservoirSampler", params=(20, 7), sample_elements=True,
                 windows=[SlidingWindow(W_MS, W_MS // 2)], hot_key_threshold=3),
        ],
        ids=["bloom", "cm_stores", "cuckoo", "fast_agms_strata", "ddsketch",
             "equi_width", "bash", "split_merge_dd_strata", "reservoir_strata", "fifo",
             "biased_reservoir_hot"],
    )
    def test_store_path_resumes(self, ray_session, strata_fixture, tmp_path, cfg):
        """An object-layout job (a synopsis that is not ``combinable``, or
        ``combine = False``) writes the same emit files and manifest
        fragment lines sequential, pipelined, and crashed after fragment 3
        then resumed by ``job.resume()`` before its first run, which
        restores its partial tables; the resumed run's summary figures are
        the sequential run's."""
        frags = strata_fixture
        cfg = BuildConfiguration(parallelism=2, **cfg)

        def job_for(out, ckpt=None):
            job = StreamingSynopsisJob(cfg, out, checkpoint_dir=ckpt, checkpoint_every=2)
            job.combine = False
            return job

        outs, figures = {}, {}
        for mode in ("seq", "pipe"):
            job = job_for(str(tmp_path / mode))
            try:
                figures[mode] = job.run(frags, pipelined=mode == "pipe")["partitions"]
            finally:
                job.shutdown()
            outs[mode] = _job_output(str(tmp_path / mode))
        out, ckpt = str(tmp_path / "resumed"), str(tmp_path / "ckpt")
        job = job_for(out, ckpt)
        try:
            job.run(frags[:3], final_flush=False)
        finally:
            job.shutdown()
        job = job_for(out, ckpt)
        try:
            assert job.resume() and job.next_fragment == 2
            assert job.run(frags)["partitions"] == figures["seq"]
        finally:
            job.shutdown()
        emits, lines = outs["seq"]
        assert len(emits) > 2 and len(lines) == len(frags)
        assert outs["pipe"] == outs["seq"]
        assert _job_output(out) == outs["seq"]

    def test_object_layout_starts_no_actors(self, ray_session, tiny_fixture, tmp_path):
        """Nine partitions in a 4-CPU session: the object layout runs as
        tasks, with no actor to hold the CPUs, and writes the cell layout's
        files."""
        frags = transcript_fragments(tiny_fixture)
        cfg = BuildConfiguration(params=(128, 3, 7), windows=[SlidingWindow(W_MS, W_MS // 2)],
                                 parallelism=9)
        outs = {}
        for combine in (False, True):
            out = str(tmp_path / str(combine))
            job = StreamingSynopsisJob(cfg, out)
            job.combine = combine
            try:
                job.run(frags)
                assert job.stores == []
            finally:
                job.shutdown()
            outs[combine] = _job_output(out)
        assert len(outs[False][0]) > 2 and outs[False] == outs[True]


class _Counted:
    """A remote function handle that logs each submission: its name, plus
    ``+split`` for a close that splits its fragment itself."""

    def __init__(self, fn, name: str, log: list):
        self.fn, self.name, self.log = fn, name, log

    def options(self, **kw):
        return _Counted(self.fn.options(**kw), self.name, self.log)

    def remote(self, *args, **kw):
        self.log.append(self.name + ("+split" if kw.get("split") else ""))
        return self.fn.remote(*args, **kw)


class TestFusedClose:
    """When every earlier fragment has been taken in, the cell layout splits
    fragment k and runs its close in one task, at the watermark k's footer
    gives; lookahead splits of a pipelined run stay separate tasks.  Either
    way the job writes the object layout's files."""

    CONFIGS = [
        dict(windows=[TumblingWindow(5_000)]),
        dict(synopsis="HyperLogLogSketch", params=(16, 7),
             windows=[SlidingWindow(5_000, 2_500)]),
        dict(windows=[TumblingWindow(5_000)], stratify_by="role"),
    ]

    @staticmethod
    def _outputs(cfg, frags, tmp_path) -> dict:
        outs = {}
        for mode in ("objects", "seq", "pipe", "per_fragment"):
            out = str(tmp_path / mode)
            job = StreamingSynopsisJob(cfg, out)
            job.combine = mode != "objects"
            try:
                if mode == "per_fragment":  # the evaluator's shape, then the flush
                    for k in range(1, len(frags) + 1):
                        job.run(frags[:k], final_flush=False)
                    job.run(frags)
                else:
                    job.run(frags, pipelined=mode == "pipe")
            finally:
                job.shutdown()
            outs[mode] = _job_output(out)
        return outs

    def test_task_shape(self, ray_session, tiny_fixture, tmp_path, monkeypatch):
        """A one-fragment run that closes windows submits one task; a
        pipelined run submits a separate split for every fragment after its
        first; the object layout fuses nothing."""
        import condor_ray.engine.streaming as streaming

        log: list[str] = []
        for name in ("_partition_task", "_merge_and_emit", "_ingest_partition",
                     "_merge_partials_and_emit"):
            monkeypatch.setattr(streaming, name,
                                _Counted(getattr(streaming, name), name, log))
        frags = transcript_fragments(tiny_fixture)
        cfg = BuildConfiguration(synopsis="CountMinSketch", params=(128, 3, 7),
                                 windows=[TumblingWindow(5_000)], parallelism=2)
        job = StreamingSynopsisJob(cfg, str(tmp_path / "runs"))
        try:
            for k in range(1, len(frags) + 1):
                log.clear()
                assert job.run(frags[:k], final_flush=False)["windows_emitted"] > 0
                assert log == ["_merge_and_emit+split"], k
        finally:
            job.shutdown()
        # no window closes, and every third fragment folds: still one task
        monkeypatch.setattr(streaming, "_FOLD_EVERY", 2)
        job = StreamingSynopsisJob(
            BuildConfiguration(synopsis="CountMinSketch", params=(128, 3, 7),
                               windows=[TumblingWindow(3_600_000)], parallelism=2),
            str(tmp_path / "folds"))
        try:
            for k in range(1, len(frags) + 1):
                log.clear()
                job.run(frags[:k], final_flush=False)
                assert log == ["_merge_and_emit+split"], k
                assert len(job.state) == 1 + (k - 1) % 2
        finally:
            job.shutdown()
        for combine in (True, False):
            log.clear()
            job = StreamingSynopsisJob(cfg, str(tmp_path / f"pipe-{combine}"))
            job.combine = combine
            try:
                job.run(frags, final_flush=False, pipelined=True)
            finally:
                job.shutdown()
            splits = log.count("_partition_task")
            if combine:
                assert log[0] == "_merge_and_emit+split"
                assert splits == len(frags) - 1 and log.count("_merge_and_emit+split") == 1
                assert log.count("_merge_and_emit") == len(frags) - 1
            else:
                assert splits == len(frags) and not any("+split" in c for c in log)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["cm_5s", "hll_sliding", "cm_strata"])
    def test_per_fragment_runs_write_one_run(self, ray_session, tiny_fixture, tmp_path,
                                             cfg):
        """One run per fragment (every fragment fused), one sequential run
        (every fragment fused) and one pipelined run (only the first fused)
        write the object layout's emit files and manifest fragment lines."""
        frags = transcript_fragments(tiny_fixture)
        cfg = BuildConfiguration(**{"synopsis": "CountMinSketch", "params": (128, 3, 7),
                                    "parallelism": 2, **cfg})
        outs = self._outputs(cfg, frags, tmp_path)
        emits, lines = outs["objects"]
        assert len(emits) == len(frags) + 1 and len(lines) == len(frags)
        for mode in ("seq", "pipe", "per_fragment"):
            assert outs[mode] == outs["objects"], mode

    @pytest.mark.parametrize("case", ["no_statistics", "timestamp_ms"])
    def test_footer_watermarks_are_exact(self, ray_session, tiny_fixture, tmp_path,
                                         case):
        """Fragments without footer statistics (the column-read fallback) and
        with a timestamp[ms] ts column close at their rows' watermark."""
        frags = []
        for i, src in enumerate(transcript_fragments(tiny_fixture)):
            t = pq.read_table(src)
            if case == "timestamp_ms":
                ts = t.schema.get_field_index("ts")
                t = t.set_column(ts, "ts", t["ts"].cast(pa.timestamp("ms"),
                                                        safe=False))
            frags.append(str(tmp_path / f"fragment-{i:05d}.parquet"))
            pq.write_table(t, frags[-1], write_statistics=case != "no_statistics")
            md = pq.ParquetFile(frags[-1]).metadata
            ts_col = md.schema.names.index("ts")
            assert md.row_group(0).column(ts_col).is_stats_set == (case != "no_statistics")
        cfg = BuildConfiguration(synopsis="HyperLogLogSketch", params=(10, 7),
                                 windows=[SlidingWindow(5_000, 2_500)], parallelism=2)
        outs = self._outputs(cfg, frags, tmp_path)
        assert len(outs["objects"][0]) == len(frags) + 1
        for mode in ("seq", "pipe", "per_fragment"):
            assert outs[mode] == outs["objects"], mode

    def test_footer_that_disagrees_with_rows_raises(self, ray_session, tiny_fixture,
                                                   tmp_path, monkeypatch):
        """A fused close whose footer watermark is not its rows' raises once
        the fragment's meta resolves."""
        from condor_ray.engine import driver

        stats = driver.fragment_ts_stats
        monkeypatch.setattr(driver, "fragment_ts_stats",
                            lambda path: (stats(path)[0], stats(path)[1] - 1))
        cfg = BuildConfiguration(synopsis="CountMinSketch", params=(128, 3, 7),
                                 windows=[TumblingWindow(5_000)], parallelism=2)
        job = StreamingSynopsisJob(cfg, str(tmp_path / "out"))
        try:
            with pytest.raises(RuntimeError, match="footer"):
                job.run(transcript_fragments(tiny_fixture)[:2], final_flush=False)
        finally:
            job.shutdown()


class TestFlushKeepsWatermark:
    """The end-of-input flush closes with a LOCAL horizon, not by mutating
    job.watermark, which keeps the true max-seen timestamp.  For the
    synopsis job the flush is terminal: it has emitted the open windows
    partial, so a continuation run() raises instead of re-emitting them."""

    @staticmethod
    def _true_max_ts_us(frags):
        return max(
            int(pq.read_table(f, columns=["ts"])["ts"].cast("int64").to_numpy().max())
            for f in frags
        )

    def test_synopsis_job(self, ray_session, tiny_fixture, tmp_path):
        frags = transcript_fragments(tiny_fixture)[:3]
        cfg = BuildConfiguration(
            synopsis="CountMinSketch",
            params=(128, 3, 7),
            windows=[TumblingWindow(W_MS)],
            key=KeySpec("conv_id", "java_hash"),
            parallelism=2,
        )
        job = StreamingSynopsisJob(cfg, str(tmp_path / "wm"))
        job.run(frags, final_flush=True)
        try:
            assert job.watermark == self._true_max_ts_us(frags)
            with pytest.raises(RuntimeError, match="final flush"):
                job.run(frags + transcript_fragments(tiny_fixture)[3:4])
        finally:
            job.shutdown()

    def test_continuation_after_flush_raises(self, ray_session, tmp_path):
        """Regression: flushing after 4 of 8 fragments (5 s tumbling CM) and
        continuing used to emit window partials and reuse the flush's
        emit-f00004 name for fragment 4's close.  The continuation now
        raises and leaves the flushed output as it was."""
        from condor_ray.sources.transcripts import generate_stream_fixture

        frags = transcript_fragments(
            generate_stream_fixture(n_rows=20000, n_convs=500, seed=42, n_fragments=8)
        )
        assert len(frags) == 8
        cfg = BuildConfiguration(
            synopsis="CountMinSketch",
            params=(256, 3, 7),
            windows=[TumblingWindow(5_000)],
            key=KeySpec("conv_id", "java_hash"),
            parallelism=2,
        )
        out = tmp_path / "flushed"
        job = StreamingSynopsisJob(cfg, str(out))

        def snapshot():
            return {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}

        try:
            job.run(frags[:4], final_flush=True, pipelined=False)
            before = snapshot()
            assert "emit-f00004.parquet" in before  # the flush's file
            for pipelined in (False, True):
                with pytest.raises(RuntimeError, match="final flush"):
                    job.run(frags, pipelined=pipelined)
            assert snapshot() == before
            assert job.next_fragment == 4
        finally:
            job.shutdown()

    def test_unflushed_run_does_not_lock(self, ray_session, tiny_fixture, tmp_path):
        """Only a dispatched flush ends the job: a final_flush run over no
        rows, or one that raised before its flush, leaves it open."""
        frags = transcript_fragments(tiny_fixture)[:2]
        cfg = BuildConfiguration(
            synopsis="CountMinSketch",
            params=(128, 3, 7),
            windows=[TumblingWindow(W_MS)],
            key=KeySpec("conv_id", "java_hash"),
            parallelism=2,
        )
        job = StreamingSynopsisJob(cfg, str(tmp_path / "open"))
        try:
            job.run([], final_flush=True)
            assert not job.flushed
            with pytest.raises(Exception):
                job.run(
                    [str(tmp_path / "missing.parquet")],
                    final_flush=True,
                    pipelined=False,
                )
            assert not job.flushed
            job.run(frags, final_flush=True)
            assert job.flushed
        finally:
            job.shutdown()

    def test_wavelet_job(self, ray_session, tiny_fixture, tmp_path):
        from condor_ray.engine.streaming_wavelets import StreamingWaveletJob

        frags = transcript_fragments(tiny_fixture)[:3]
        job = StreamingWaveletJob(
            TumblingWindow(W_MS), str(tmp_path / "wm_wave"), size=64,
            parallelism=2, key=KeySpec("turn_idx", "value"),
        )
        job.run(frags, final_flush=True)
        try:
            assert job.watermark == self._true_max_ts_us(frags)
        finally:
            job.shutdown()
