"""Training-data pipelines: dedup recall, ANN correctness/recall, text
analysis accuracy, multimodal stub plumbing."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data as rd

SF = "/root/testdata/sf0.01"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    return rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])


@pytest.fixture(scope="module")
def docs_pd():
    return pq.read_table(f"{SF}/documents.parquet").to_pandas()


class TestExactDedup:
    def test_planted_duplicates_collapse(self, ray_session, docs_ds):
        from condor_ray.pipelines.dedup import exact_dedup, with_planted_duplicates

        out = exact_dedup(with_planted_duplicates(docs_ds)).to_pandas()
        assert len(out) == 500  # all 500 distinct texts survive once
        dup_rows = out[out["n_copies"] == 2]
        assert (dup_rows["doc_id"] % 7 == 0).all()
        assert len(dup_rows) == len([i for i in range(500) if i % 7 == 0])


class TestMinHashLSH:
    def test_planted_neardups_found(self, ray_session, docs_pd):
        from condor_ray.pipelines.dedup import minhash_lsh_pairs, ngram_jaccard

        # plant near-duplicates: copy 20 docs with a few appended words
        base = docs_pd.head(100)[["doc_id", "text"]]
        planted = base.head(20).copy()
        planted["doc_id"] = planted["doc_id"] + 5000
        planted["text"] = planted["text"] + " extra tail words here"
        ds = rd.from_pandas(pd.concat([base, planted], ignore_index=True))
        pairs = minhash_lsh_pairs(ds, jaccard_threshold=0.5).to_pandas()
        found = set(zip(pairs["doc_a"], pairs["doc_b"]))
        expected = {(i, i + 5000) for i in planted["doc_id"] - 5000}
        recall = len(found & expected) / len(expected)
        assert recall >= 0.9
        # verification oracle: every reported pair has real n-gram overlap
        text_by_id = dict(
            zip(
                pd.concat([base, planted])["doc_id"],
                pd.concat([base, planted])["text"],
            )
        )
        for a, b in list(found)[:10]:
            assert ngram_jaccard(text_by_id[a], text_by_id[b]) > 0.3

    def test_signature_jaccard_estimates(self):
        from condor_ray.pipelines.dedup import MinHasher, ngram_jaccard

        mh = MinHasher(num_perm=128)
        a = "the quick brown fox jumps over the lazy dog again and again today"
        b = "the quick brown fox jumps over the lazy dog again and again tomorrow"
        est = float((mh.signature(a) == mh.signature(b)).mean())
        true = ngram_jaccard(a, b)
        assert abs(est - true) < 0.25


class TestSimHash:
    def test_identical_docs_zero_distance(self, ray_session, docs_pd):
        from condor_ray.pipelines.dedup import SimHasher

        fp = SimHasher.fingerprint
        t = docs_pd["text"].iloc[0]
        assert fp(t) == fp(t)
        # a small edit flips few bits
        ham = bin(fp(t) ^ fp(t + " tail")).count("1")
        assert ham <= 12


class TestANN:
    def test_brute_force_matches_numpy(self, ray_session):
        from condor_ray.pipelines.similarity import brute_force_topk

        emb = pq.read_table(f"{SF}/embeddings.parquet")
        mat = np.stack(emb["embedding"].to_pylist()).astype(np.float64)
        ids = emb["vec_id"].to_numpy()
        qv, qid = mat[:5], ids[:5]
        ds = rd.read_parquet(f"{SF}/embeddings.parquet")
        out = brute_force_topk(ds, qv, qid, k=10).to_pandas()

        norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        sims = (qv / np.linalg.norm(qv, axis=1, keepdims=True)) @ norm.T
        for qi in range(5):
            order = np.lexsort((ids, -sims[qi]))[:10]
            expected = ids[order].tolist()
            got = (
                out[out["query_id"] == qid[qi]].sort_values("rank")["vec_id"].tolist()
            )
            assert got == expected

    def test_brute_force_tie_break_with_duplicate_embeddings(self, ray_session):
        # k+1 identical vectors in ONE batch: argpartition alone keeps an
        # arbitrary k-subset of the tied candidates; the tie repair must
        # keep the smallest vec_ids (cosine DESC, vec_id ASC contract)
        import pyarrow as pa

        from condor_ray.pipelines.similarity import brute_force_topk

        rng = np.random.default_rng(11)
        base = rng.normal(size=8)
        dup = np.tile(base, (7, 1))  # vec_ids 0..6, all identical
        rest = rng.normal(size=(20, 8))
        mat = np.vstack([dup, rest])
        ids = np.arange(len(mat), dtype=np.int64)
        ds = rd.from_arrow(
            pa.table({"vec_id": ids, "embedding": list(mat)})
        )
        out = brute_force_topk(ds, base[None, :], np.array([99]), k=5).to_pandas()
        got = out.sort_values("rank")["vec_id"].tolist()
        assert got == [0, 1, 2, 3, 4]

    def test_lsh_recall(self, ray_session):
        from condor_ray.pipelines.similarity import brute_force_topk, lsh_topk

        emb = pq.read_table(f"{SF}/embeddings.parquet")
        mat = np.stack(emb["embedding"].to_pylist()).astype(np.float64)
        ids = emb["vec_id"].to_numpy()
        qv, qid = mat[:5], ids[:5]
        ds = rd.read_parquet(f"{SF}/embeddings.parquet")
        exact = brute_force_topk(ds, qv, qid, k=5).to_pandas()
        approx = lsh_topk(ds, qv, qid, k=5, n_planes=6, probes=2).to_pandas()
        recalls = []
        for q in qid:
            e = set(exact[exact["query_id"] == q]["vec_id"])
            a = set(approx[approx["query_id"] == q]["vec_id"])
            recalls.append(len(e & a) / len(e))
        assert np.mean(recalls) >= 0.5  # multiprobe 2-bit, 6 planes

    def test_embedding_neardup_self_pairs(self, ray_session):
        from condor_ray.pipelines.similarity import embedding_neardup_pairs

        # plant one duplicate embedding
        emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
        dup = emb.head(1).copy()
        dup["vec_id"] = 99999
        ds = rd.from_pandas(pd.concat([emb, dup], ignore_index=True))
        pairs = embedding_neardup_pairs(ds, threshold=0.999).to_pandas()
        assert (0, 99999) in set(zip(pairs["vec_a"], pairs["vec_b"]))


class TestTextStats:
    def test_language_id_accuracy(self, ray_session, docs_pd):
        from condor_ray.pipelines.textstats import language_id

        ds = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        out = language_id(ds).to_pandas().merge(docs_pd[["doc_id", "lang"]], on="doc_id")
        acc = (out["lang_pred"] == out["lang"]).mean()
        # the synthetic text is English-ish token soup for all langs except zh
        # (CJK detection); only assert zh detection + determinism
        zh = out[out["lang"] == "zh"]
        if (docs_pd[docs_pd["lang"] == "zh"]["text"].str.contains("[一-鿿]").any()):
            assert (zh["lang_pred"] == "zh").mean() > 0.9
        out2 = language_id(ds).to_pandas()
        assert out.sort_values("doc_id")["lang_pred"].tolist() == out2.sort_values("doc_id")["lang_pred"].tolist()

    def test_quality_scores_bounds(self, ray_session, docs_ds):
        from condor_ray.pipelines.textstats import quality_scores

        out = quality_scores(docs_ds).to_pandas()
        assert len(out) == 500
        assert ((out["quality"] >= 0) & (out["quality"] <= 1)).all()
        assert (out["n_words"] > 0).all()

    def test_fingerprints_deterministic_and_shift_robust(self, ray_session):
        from condor_ray.pipelines.textstats import Fingerprinter

        fp = Fingerprinter()
        t = "the quick brown fox jumps over the lazy dog " * 5
        a = fp.fingerprints(t)
        b = fp.fingerprints("PREFIX " + t)
        # winnowing: most fingerprints survive a prefix shift
        overlap = len(np.intersect1d(a, b)) / len(a)
        assert overlap > 0.8


class TestMultimodal:
    def test_decode_pipeline_schema_and_values(self, ray_session, docs_ds):
        from condor_ray.pipelines.multimodal import (
            decode_images,
            sample_frames,
            synthesize_image_table,
        )

        images = synthesize_image_table(docs_ds)
        feats = decode_images(images).to_pandas()
        assert list(feats.columns) == [
            "doc_id", "width", "height", "mean_intensity", "aspect",
        ]
        assert len(feats) == 500
        assert (feats["width"] >= 16).all()
        assert ((feats["mean_intensity"] >= 0) & (feats["mean_intensity"] <= 255)).all()

        frames = sample_frames(synthesize_image_table(docs_ds)).to_pandas()
        assert {"doc_id", "frame", "checksum"} == set(frames.columns)
        assert len(frames) > 500  # multiple frames per doc

    def test_decoder_rejects_non_stub_payload(self):
        from condor_ray.pipelines.multimodal import ImageDecoder

        dec = ImageDecoder()
        if dec._backend == "stdlib":
            with pytest.raises(NotImplementedError):
                # truncated signature: neither PNG nor FIMG
                dec._decode(b"\x89PNG\r\n" + b"\x00" * 32)

    def test_png_roundtrip_all_filters_and_color_types(self):
        """The stdlib codec: every scanline filter (None/Sub/Up/Average/
        Paeth) and color type (gray, gray+alpha, RGB, RGBA) round-trips
        bit-exactly through encode -> zlib -> decode."""
        import numpy as np

        from condor_ray.pipelines.png import decode_png, encode_png, is_png

        rng = np.random.default_rng(7)
        for ch in (1, 2, 3, 4):
            arr = rng.integers(0, 256, (13, 9, ch), dtype=np.uint8)
            for f in range(5):
                filters = np.full(13, f)
                payload = encode_png(arr, row_filters=filters)
                assert is_png(payload)
                out = decode_png(payload)
                assert out.shape == (13, 9, ch)
                assert (out == arr).all(), (ch, f)
            # mixed filters per row (what real encoders emit)
            payload = encode_png(arr, row_filters=rng.integers(0, 5, 13))
            assert (decode_png(payload) == arr).all()

    def test_png_single_row_image_is_writable(self):
        """A 1-row image's scanline slice is already contiguous, so the
        decoder must force a writable copy before the in-place C unfilter
        (a read-only view would alias the decompressed bytes object)."""
        import numpy as np

        from condor_ray.pipelines.png import decode_png, encode_png

        rng = np.random.default_rng(3)
        for f in range(5):  # every filter, incl. the C-kernel Sub/Avg/Paeth
            arr = rng.integers(0, 256, (1, 31, 3), dtype=np.uint8)
            out = decode_png(encode_png(arr, row_filters=np.array([f])))
            assert (out == arr).all(), f
            assert out.flags.writeable
            out[0, 0, 0] ^= 0xFF  # callers may mutate the decoded image

    def test_png_native_kernel_matches_pure_python(self, monkeypatch):
        """The C unfilter kernel and the numpy fallback must reconstruct
        identical bytes for every filter / color-type combination."""
        import numpy as np

        from condor_ray._native import load_png_native
        from condor_ray.pipelines.png import decode_png, encode_png

        if load_png_native() is None:
            pytest.skip("no C compiler available to build the PNG kernel")
        rng = np.random.default_rng(11)
        payloads = []
        for ch in (1, 2, 3, 4):
            arr = rng.integers(0, 256, (17, 23, ch), dtype=np.uint8)
            payloads.append((arr, encode_png(arr, rng.integers(0, 5, 17))))
        native = [decode_png(p) for _, p in payloads]
        monkeypatch.setenv("CONDOR_RAY_NO_NATIVE", "1")
        fallback = [decode_png(p) for _, p in payloads]
        for (arr, _), n, f in zip(payloads, native, fallback):
            assert (n == arr).all()
            assert (n == f).all()

    def test_png_decoder_runs_in_ray_pipeline(self, ray_session):
        """End-to-end: a binary PNG column through the actor-pool decode
        stage produces exact (width, height, mean) features."""
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from condor_ray.pipelines.multimodal import decode_images
        from condor_ray.pipelines.png import encode_png

        rng = np.random.default_rng(11)
        imgs = [
            rng.integers(0, 256, (8 + i, 5 + 2 * i, 3), dtype=np.uint8)
            for i in range(20)
        ]
        tbl = pa.table(
            {
                "doc_id": pa.array(range(20), type=pa.int64()),
                "image": pa.array(
                    [encode_png(a, row_filters=rng.integers(0, 5, a.shape[0]))
                     for a in imgs],
                    type=pa.binary(),
                ),
            }
        )
        feats = (
            decode_images(rd.from_arrow(tbl))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        for i, a in enumerate(imgs):
            assert feats.loc[i, "width"] == a.shape[1]
            assert feats.loc[i, "height"] == a.shape[0]
            assert feats.loc[i, "mean_intensity"] == pytest.approx(a.mean())

    def test_png_unsupported_variants_raise(self):
        import struct
        import zlib

        import numpy as np
        import pytest as _pytest

        from condor_ray.pipelines.png import _SIG, _chunk, decode_png

        # 16-bit depth should refuse, not decode wrong
        ihdr = struct.pack(">IIBBBBB", 4, 4, 16, 2, 0, 0, 0)
        payload = (
            _SIG + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(b"\x00" * 100))
            + _chunk(b"IEND", b"")
        )
        with _pytest.raises(NotImplementedError):
            decode_png(payload)

    def test_pillow_branch_via_fake_codec(self, monkeypatch):
        """Exercise the real-codec probe/decode branch: a stand-in PIL
        module (same Image.open + width/height/__array__ surface) verifies
        the __init__ probe selects it and _decode routes payload bytes
        through the codec, not the FIMG header parser."""
        import sys
        import types

        import pyarrow as pa

        class _Img:
            def __init__(self, data: bytes):
                self.width = 8
                self.height = 4
                self._data = data

            def __array__(self, dtype=None):
                arr = np.frombuffer(self._data[:32], dtype=np.uint8)
                return arr.astype(dtype or np.uint8).reshape(4, 8)

        fake_pil = types.ModuleType("PIL")
        fake_pil.Image = types.SimpleNamespace(
            open=lambda fp: _Img(fp.read())
        )
        monkeypatch.setitem(sys.modules, "PIL", fake_pil)

        from condor_ray.pipelines.multimodal import ImageDecoder

        dec = ImageDecoder()
        assert dec._backend == "pillow"
        payload = bytes(range(32))
        w, h, mean = dec._decode(payload)
        assert (w, h) == (8, 4)
        assert mean == pytest.approx(np.arange(32).mean())
        # the batch path runs end-to-end through the codec branch too
        out = dec(
            pa.table({"doc_id": pa.array([1]), "image": pa.array([payload])})
        )
        assert out["aspect"][0].as_py() == 2.0


class TestIvfTopk:
    def _queries(self):
        emb = pq.read_table(f"{SF}/embeddings.parquet")
        head = emb.slice(0, 20)
        qv = np.stack(head["embedding"].to_pylist()).astype(np.float64)
        qid = head["vec_id"].to_numpy()
        return qv, qid

    def test_exhaustive_probe_equals_brute_force(self, ray_session):
        from condor_ray.pipelines.similarity import brute_force_topk, ivf_topk

        qv, qid = self._queries()
        exact = (
            brute_force_topk(rd.read_parquet(f"{SF}/embeddings.parquet"), qv, qid, k=10)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )
        ivf = (
            ivf_topk(rd.read_parquet(f"{SF}/embeddings.parquet"), qv, qid, k=10,
                     n_centroids=16, n_probe=16)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )
        assert (exact.values == ivf.values).all()

    def test_approximate_recall_tracks_probed_fraction(self, ray_session):
        """The synthetic embeddings are isotropic (no cluster structure), so
        IVF recall is lower-bounded by roughly the probed cell fraction;
        assert comfortably above chance for a half-probe config."""
        from condor_ray.pipelines.similarity import brute_force_topk, ivf_topk

        qv, qid = self._queries()
        exact = brute_force_topk(
            rd.read_parquet(f"{SF}/embeddings.parquet"), qv, qid, k=10
        ).to_pandas()
        approx = ivf_topk(
            rd.read_parquet(f"{SF}/embeddings.parquet"), qv, qid, k=10,
            n_centroids=16, n_probe=8,
        ).to_pandas()
        recalls = []
        for q in qid:
            a = set(exact[exact["query_id"] == q]["vec_id"])
            b = set(approx[approx["query_id"] == q]["vec_id"])
            recalls.append(len(a & b) / len(a))
        assert float(np.mean(recalls)) >= 0.6  # >= probed fraction (0.5)

    def test_trained_pruning_recall_on_clustered_corpus(self, ray_session):
        """The REAL IVF claim: on a clustered corpus (what actual embedding
        models emit), a trained coarse quantizer probing nprobe << nlist
        cells keeps high recall while scanning a small corpus fraction.
        nprobe=2 of 64 cells (~3% of vectors) must reach recall@10 >= 0.9,
        and recall must grow with nprobe."""
        from condor_ray.pipelines.similarity import (
            brute_force_topk,
            ivf_topk,
            synthesize_clustered_embeddings,
        )

        vecs, _lab, qv, _qlab = synthesize_clustered_embeddings(
            20_000, dim=64, n_clusters=64, noise=0.15, seed=5, n_queries=50
        )
        tbl = pa.table(
            {
                "vec_id": pa.array(range(len(vecs)), type=pa.int64()),
                "embedding": pa.array(list(vecs.astype(np.float32))),
            }
        )
        corpus = rd.from_arrow(tbl).repartition(16).materialize()
        qid = np.arange(len(qv), dtype=np.int64)
        exact = brute_force_topk(corpus, qv, qid, k=10).to_pandas()

        def mean_recall(approx):
            recalls = []
            for q in qid:
                a = set(exact[exact["query_id"] == q]["vec_id"])
                b = set(approx[approx["query_id"] == q]["vec_id"])
                recalls.append(len(a & b) / len(a))
            return float(np.mean(recalls))

        r = {}
        for nprobe in (1, 2, 8):
            approx = ivf_topk(
                corpus, qv, qid, k=10, n_centroids=64, n_probe=nprobe,
                train_sample=2048,
            ).to_pandas()
            r[nprobe] = mean_recall(approx)
        assert r[2] >= 0.9, r
        assert r[1] <= r[2] + 1e-9 <= r[8] + 2e-9, r

    def test_standing_index_search_matches_inline_ivf(self, ray_session, tmp_path):
        """build_ivf_index + ivf_search (the amortized, prune-at-the-read
        path): one cell=<c> partition dir per cell, storage-level pruning,
        and recall equal to the inline ivf_topk at the same (nlist, nprobe)
        — both share the trained quantizer."""
        import os

        from condor_ray.pipelines.similarity import (
            brute_force_topk,
            build_ivf_index,
            ivf_search,
            synthesize_clustered_embeddings,
        )

        vecs, _lab, qv, _qlab = synthesize_clustered_embeddings(
            20_000, dim=64, n_clusters=64, noise=0.15, seed=5, n_queries=50
        )
        tbl = pa.table(
            {
                "vec_id": pa.array(range(len(vecs)), type=pa.int64()),
                "embedding": pa.array(list(vecs.astype(np.float32))),
            }
        )
        corpus = rd.from_arrow(tbl).repartition(16).materialize()
        idx = build_ivf_index(
            corpus, str(tmp_path / "idx"), n_centroids=64, train_sample=2048
        )
        cells = [d for d in os.listdir(tmp_path / "idx") if d.startswith("cell=")]
        assert 32 <= len(cells) <= 64  # trained cells actually used
        qid = np.arange(len(qv), dtype=np.int64)
        exact = brute_force_topk(corpus, qv, qid, k=10).to_pandas()
        got = ivf_search(idx, qv, qid, k=10, n_probe=2).to_pandas()
        ex = exact.groupby("query_id")["vec_id"].apply(set)
        ap = got.groupby("query_id")["vec_id"].apply(set)
        rec = float(
            np.mean([len(ex[q] & ap.get(q, set())) / len(ex[q]) for q in qid])
        )
        assert rec >= 0.9, rec
        # pruning is structural: only probed cells' files are listed
        probed = idx.cell_paths(range(64))
        assert len(probed) == len(cells)


class TestTopKWords:
    def test_matches_counter_oracle_with_ties_and_truncation(self, ray_session):
        import collections

        import ray.data as rd

        from condor_ray.pipelines.textstats import top_k_words

        rng = np.random.default_rng(11)
        vocab = [f"w{i:03d}" for i in range(200)]
        texts = [
            " ".join(rng.choice(vocab, size=rng.integers(3, 40)))
            for _ in range(500)
        ]
        ds = rd.from_pandas(pd.DataFrame({"text": texts})).repartition(8)
        got = top_k_words(ds, k=50).to_pandas()

        counts = collections.Counter(w for t in texts for w in t.split())
        expected = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:50]
        assert list(zip(got["word"], got["n"])) == [
            (w, n) for w, n in expected
        ]

    def test_whitespace_and_empty_docs(self, ray_session):
        import ray.data as rd

        from condor_ray.pipelines.textstats import top_k_words

        ds = rd.from_pandas(
            pd.DataFrame({"text": ["a  b\ta\na", "", "   ", "b"]})
        )
        got = top_k_words(ds, k=10).to_pandas()
        assert list(zip(got["word"], got["n"])) == [("a", 3), ("b", 2)]


class TestHeavyHittersCM:
    def test_collision_free_regime_equals_exact(self, ray_session):
        import ray.data as rd

        from condor_ray.pipelines.textstats import heavy_hitters_cm, top_k_words

        rng = np.random.default_rng(23)
        # zipf-ish frequencies: a few heavy words + a long tail
        vocab = [f"v{i:03d}" for i in range(300)]
        weights = 1.0 / np.arange(1, len(vocab) + 1)
        weights /= weights.sum()
        texts = [
            " ".join(rng.choice(vocab, size=rng.integers(5, 60), p=weights))
            for _ in range(400)
        ]
        ds = rd.from_pandas(pd.DataFrame({"text": texts})).repartition(8)
        exact = top_k_words(ds, k=40).to_pandas()
        approx = heavy_hitters_cm(ds, k=40).to_pandas()
        assert list(zip(exact["word"], exact["n"])) == list(
            zip(approx["word"], approx["n"])
        )

    def test_cm_estimates_never_underestimate(self, ray_session):
        import collections

        import ray.data as rd

        from condor_ray.pipelines.textstats import heavy_hitters_cm

        rng = np.random.default_rng(5)
        vocab = [f"u{i:04d}" for i in range(2000)]
        texts = [
            " ".join(rng.choice(vocab, size=30)) for _ in range(300)
        ]
        ds = rd.from_pandas(pd.DataFrame({"text": texts})).repartition(4)
        # tiny sketch: collisions guaranteed; CM only ever OVER-estimates
        got = heavy_hitters_cm(ds, k=50, width=64, depth=3).to_pandas()
        counts = collections.Counter(w for t in texts for w in t.split())
        for w, n in zip(got["word"], got["n"]):
            assert n >= counts[w]


class TestJaccardVerify:
    def test_pairs_match_python_reference(self, ray_session, docs_pd):
        """Distributed hashed-shingle Jaccard == per-pair string-trigram
        Jaccard (ngram_jaccard) on planted near-dups and unrelated pairs."""
        from condor_ray.pipelines.dedup import jaccard_verify_pairs, ngram_jaccard

        base = docs_pd[["doc_id", "text"]]
        step = int(base["doc_id"].max()) + 1
        dups = base[base["doc_id"] % 9 == 0].copy()
        dups["doc_id"] = dups["doc_id"] + step
        dups["text"] = dups["text"] + " tail words appended here"
        aug = pd.concat([base, dups], ignore_index=True)
        pairs = pd.DataFrame(
            {
                "doc_a": np.concatenate(
                    [dups["doc_id"].to_numpy() - step, base["doc_id"].to_numpy()[:40]]
                ),
                "doc_b": np.concatenate(
                    [dups["doc_id"].to_numpy(), base["doc_id"].to_numpy()[40:80]]
                ),
            }
        )
        out = (
            jaccard_verify_pairs(rd.from_pandas(aug), pairs)
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        assert len(out) == len(pairs)
        text_by_id = dict(zip(aug["doc_id"], aug["text"]))
        for _, r in out.iterrows():
            want = ngram_jaccard(text_by_id[r.doc_a], text_by_id[r.doc_b])
            assert r.jaccard == pytest.approx(want, abs=1e-12), (r.doc_a, r.doc_b)
        # planted near-dups score high, unrelated pairs low
        planted = out[out["doc_b"] >= step]
        assert (planted["jaccard"] > 0.7).all()
        unrelated = out[out["doc_b"] < step]
        assert (unrelated["jaccard"] < 0.3).all()

    def test_absent_docs_dropped(self, ray_session, docs_pd):
        from condor_ray.pipelines.dedup import jaccard_verify_pairs

        pairs = pd.DataFrame({"doc_a": [0, 10_000_000], "doc_b": [1, 2]})
        out = jaccard_verify_pairs(
            rd.from_pandas(docs_pd[["doc_id", "text"]]), pairs
        ).to_pandas()
        assert out["doc_a"].tolist() == [0]

    def test_empty_pairs(self, ray_session, docs_pd):
        from condor_ray.pipelines.dedup import jaccard_verify_pairs

        out = jaccard_verify_pairs(
            rd.from_pandas(docs_pd[["doc_id", "text"]]), pd.DataFrame({"doc_a": [], "doc_b": []})
        ).to_pandas()
        assert len(out) == 0


class TestQualitySql:
    def test_quality_matches_duckdb_bit_exact(self, ray_session, docs_ds):
        """The vectorized quality features hash-match the SQL twin: identical
        integer counts and identical IEEE double arithmetic."""
        import duckdb

        from condor_ray.pipelines.textstats import quality_scores, quality_sql

        got = quality_scores(docs_ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
        )
        want = con.execute(quality_sql()).fetchdf().sort_values("doc_id").reset_index(drop=True)
        assert list(got.columns) == list(want.columns)
        for c in got.columns:
            assert (got[c].to_numpy() == want[c].to_numpy()).all(), c

    def test_lang_id_matches_duckdb_and_scalar(self, ray_session, docs_ds, docs_pd):
        import duckdb

        from condor_ray.pipelines.textstats import LangId, language_id, lang_id_sql

        got = language_id(docs_ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
        )
        want = con.execute(lang_id_sql()).fetchdf().sort_values("doc_id").reset_index(drop=True)
        assert (got["lang_pred"].to_numpy() == want["lang_pred"].to_numpy()).all()
        scalar = docs_pd.sort_values("doc_id")["text"].map(LangId().classify).to_numpy()
        assert (got["lang_pred"].to_numpy() == scalar).all()

    def test_fingerprints_match_duckdb_horner(self, ray_session, docs_pd):
        """The winnowing oracle (HUGEINT Horner over codepoints, window-4
        least, list_distinct) equals the byte-wise Rabin-Karp reference on
        the ASCII corpus."""
        import duckdb

        import __ray_entry__ as e

        sql = e.oracle_sql()["doc_fingerprints"]
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
        )
        want = con.execute(sql).fetchdf().sort_values("doc_id").reset_index(drop=True)

        from condor_ray.pipelines.textstats import Fingerprinter

        fp = Fingerprinter()
        ref = docs_pd.sort_values("doc_id")
        n_ref = ref["text"].map(lambda t: len(fp.fingerprints(t))).to_numpy()
        m_ref = ref["text"].map(lambda t: int(fp.fingerprints(t).min())).to_numpy()
        assert (want["n_fingerprints"].to_numpy() == n_ref).all()
        assert (want["fingerprint_min"].to_numpy() == m_ref).all()


class TestAudio:
    def test_wav_roundtrip_and_stdlib_cross_check(self):
        """encode_wav output parses identically through the stdlib `wave`
        module (header correctness) and decode_wav recovers the PCM words
        exactly."""
        import io
        import wave as stdlib_wave

        from condor_ray.pipelines.wav import decode_wav, encode_wav, is_wav

        rng = np.random.default_rng(3)
        # odd-length 8-bit data chunk carries the RIFF word-alignment pad
        odd = encode_wav(rng.uniform(-1, 1, 11), 8000, bits=8)
        assert len(odd) % 2 == 0
        with stdlib_wave.open(io.BytesIO(odd)) as w:
            assert w.getnframes() == 11
        s_odd, _ = decode_wav(odd)
        assert s_odd.shape == (11, 1)
        for n_ch in (1, 2):
            v = rng.integers(-32767, 32768, (500, n_ch)).astype(np.int64)
            payload = encode_wav(v / 32767.0, 8000)
            assert is_wav(payload)
            with stdlib_wave.open(io.BytesIO(payload)) as w:
                assert w.getnchannels() == n_ch
                assert w.getframerate() == 8000
                assert w.getsampwidth() == 2
                assert w.getnframes() == 500
                ref = np.frombuffer(w.readframes(500), dtype="<i2")
            samples, rate = decode_wav(payload)
            assert rate == 8000 and samples.shape == (500, n_ch)
            words = np.rint(samples * 32768.0).astype(np.int64)
            assert (words.ravel() == ref.astype(np.int64)).all()
            assert (words == v).all()

    def test_wav_bit_depths_and_float(self):
        import struct

        from condor_ray.pipelines.wav import decode_wav, encode_wav

        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, 64)
        # tolerance = quantization step + the encode(x*(2^(b-1)-1)) vs
        # decode(/2^(b-1)) scale mismatch, both O(2^-(b-1))
        for bits, tol in ((8, 1 / 64), (16, 1 / 16384), (32, 1e-9)):
            samples, rate = decode_wav(encode_wav(x, 44100, bits=bits))
            assert rate == 44100
            assert np.abs(samples.ravel() - x).max() <= tol + 1e-9
        # float32 WAV (format tag 3) built by hand
        f32 = x.astype("<f4").tobytes()
        fmt = struct.pack("<HHIIHH", 3, 1, 22050, 22050 * 4, 4, 32)
        payload = (
            b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(f32))
            + b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(f32)) + f32
        )
        samples, rate = decode_wav(payload)
        assert rate == 22050
        assert np.abs(samples.ravel() - x.astype(np.float32).astype(np.float64)).max() == 0.0
        # compressed tags refuse
        import pytest as _pytest

        bad_fmt = struct.pack("<HHIIHH", 7, 1, 8000, 8000, 1, 8)  # mu-law
        bad = (
            b"RIFF" + struct.pack("<I", 4 + 8 + len(bad_fmt) + 8)
            + b"WAVE" + b"fmt " + struct.pack("<I", len(bad_fmt)) + bad_fmt
            + b"data" + struct.pack("<I", 0)
        )
        with _pytest.raises(NotImplementedError):
            decode_wav(bad)

    def test_audio_pipeline_matches_duckdb_twin(self, ray_session, docs_ds):
        """audio_features end to end vs the integer-domain SQL twin."""
        import duckdb

        import __ray_entry__ as e

        got = (
            e.queries()["audio_features"](SF)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
        )
        want = (
            con.execute(e.oracle_sql()["audio_features"])
            .fetchdf()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert list(got.columns) == [
            "doc_id", "sample_rate", "n_channels", "n_frames", "sum_sq", "peak_abs",
        ]
        for c in got.columns:
            assert (got[c].to_numpy() == want[c].to_numpy()).all(), c


class TestChainKeepThreshold:
    def test_bucket_pair_stage_tags_chain_provenance(self):
        from condor_ray.pipelines.dedup import _bucket_pair_stage

        # one capped bucket (4 members, cap 2 -> chain) + one normal (2)
        g = pd.DataFrame(
            {
                "band": [0] * 4 + [1] * 2,
                "bucket": [7] * 4 + [9] * 2,
                "doc_id": [10, 11, 12, 13, 20, 21],
                "part": [0] * 6,
            }
        )
        emit = _bucket_pair_stage(("band", "bucket"), bucket_cap=2,
                                  tag_chained=True)
        out = emit(g).sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
        # capped bucket emits the 3 chain links, normal bucket its 1 pair
        got = {(r.doc_a, r.doc_b): r.chained for r in out.itertuples()}
        assert got == {
            (10, 11): True, (11, 12): True, (12, 13): True, (20, 21): False,
        }

    def test_chain_provenance_ors_across_bands(self, ray_session):
        """A pair surfaced by BOTH a capped-bucket chain and a normal bucket
        must stay chain-provenanced (OR) — with AND it would lose the flag
        and a below-threshold chain link could still sever connectivity."""
        from condor_ray.pipelines.dedup import _dedup_pairs

        pairs = rd.from_pandas(
            pd.DataFrame(
                {
                    "doc_a": np.array([1, 1, 3], dtype=np.int64),
                    "doc_b": np.array([2, 2, 4], dtype=np.int64),
                    "chained": [True, False, False],
                }
            )
        )
        out = _dedup_pairs(pairs, or_col="chained").to_pandas()
        got = {(r.doc_a, r.doc_b): r.chained for r in out.itertuples()}
        assert got == {(1, 2): True, (3, 4): False}

    def test_chain_keep_is_superset_of_default(self, ray_session, docs_pd):
        from condor_ray.pipelines.dedup import minhash_lsh_pairs

        base = docs_pd.head(100)[["doc_id", "text"]]
        planted = base.head(20).copy()
        planted["doc_id"] = planted["doc_id"] + 5000
        planted["text"] = planted["text"] + " extra tail words here"
        ds = rd.from_pandas(pd.concat([base, planted], ignore_index=True))
        default = minhash_lsh_pairs(ds, jaccard_threshold=0.5).to_pandas()
        kept = minhash_lsh_pairs(
            ds, jaccard_threshold=0.5, chain_keep_threshold=0.0
        ).to_pandas()
        assert list(kept.columns) == ["doc_a", "doc_b", "est_jaccard"]
        d = set(zip(default["doc_a"], default["doc_b"]))
        k = set(zip(kept["doc_a"], kept["doc_b"]))
        assert d <= k  # connectivity edges only ever ADD pairs


class TestWave4Regressions:
    def test_langid_scalar_matches_vectorized_on_exotic_whitespace(
        self, ray_session
    ):
        """classify and language_id must share one tokenizer: str.split()
        also split on \\x0b / Unicode spaces, making the two disagree."""
        import pandas as pd
        import ray.data as rd

        from condor_ray.pipelines.textstats import LangId, language_id

        texts = [
            "le\x0bla\x0bles\x0bet\x0best\x0bun\x0bune\x0bdes\x0bdu\x0bpour",
            "the of and to in the of and to in a is",
            "el la de que y en un ser se no",
        ]
        df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
        got = (
            language_id(rd.from_pandas(df))
            .to_pandas()
            .sort_values("doc_id")["lang_pred"]
            .to_numpy()
        )
        scalar = df["text"].map(LangId().classify).to_numpy()
        assert (got == scalar).all()

    def test_streaming_asof_empty_stream_returns_typed_empty(
        self, ray_session, tmp_path
    ):
        """Zero probes -> zero emit files -> result_dataset must return the
        empty typed result, not crash on read_parquet([])."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from condor_ray.engine.streaming_asof import StreamingAsofJob

        tbl = pa.table(
            {
                "conv_id": pa.array(["a", "b"]),
                "turn_idx": pa.array([0, 0], pa.int64()),
                "role": pa.array(["user", "user"]),  # no tool probes
                "tool": pa.array([None, None], pa.string()),
                "ts": pa.array([0, 1_000_000], pa.int64()).cast(
                    pa.timestamp("us")
                ),
            }
        )
        frag = str(tmp_path / "f0.parquet")
        pq.write_table(tbl, frag)
        job = StreamingAsofJob(parallelism=2, out_dir=str(tmp_path / "out"))
        job.run([frag])
        out = job.result_dataset()
        assert len(out.to_pandas()) == 0
        assert "conv_id" in out.schema().names
        job.shutdown()

    def test_fragment_cache_empty_build_raises_without_poisoning(self, tmp_path):
        """An empty fragment build must raise instead of writing _DONE (which
        permanently served [] to every later caller)."""
        import os

        import pytest as _pytest

        from condor_ray.pipelines.core import cached_fragment_dir

        calls = []

        def empty_build(cache):
            calls.append(cache)

        tag = f"testcache_{os.getpid()}"
        with _pytest.raises(RuntimeError, match="no files"):
            cached_fragment_dir(tag, str(tmp_path), empty_build)

        def real_build(cache):
            open(os.path.join(cache, "fragment-00000.parquet"), "wb").write(b"x")

        # the failed build did NOT poison the cache: a later good build wins
        frags = cached_fragment_dir(tag, str(tmp_path), real_build)
        assert len(frags) == 1

    def test_windowed_distinct_convs_ignores_null_conv(self, ray_session):
        """COUNT(DISTINCT conv_id) ignores NULLs in SQL; the pair extractor
        must drop null conv rows instead of corrupting the flat keys."""
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from condor_ray.pipelines.core import windowed_distinct_convs
        from condor_ray.windows import TumblingWindow

        tbl = pa.table(
            {
                "conv_id": pa.array(["a", None, "b", "a", None]),
                "ts": pa.array(
                    [0, 1, 2, 61, 62], pa.int64()
                ).cast(pa.timestamp("s")).cast(pa.timestamp("us")),
            }
        )
        out = (
            windowed_distinct_convs(rd.from_arrow(tbl), TumblingWindow(60_000))
            .to_pandas()
            .sort_values("window_start")
            .reset_index(drop=True)
        )
        assert out["n_convs"].tolist() == [2, 1]  # nulls not counted


class TestDecontaminate:
    """13-gram eval-set decontamination vs a brute-force string oracle."""

    WORD_RE = r"[^\t\n\f\r ]+"

    @classmethod
    def _grams(cls, text, n=13):
        import re

        w = re.findall(cls.WORD_RE, text or "")
        if not w:
            return set()  # empty docs never flag (empty gram excluded)
        if len(w) < n:
            return {" ".join(w)}  # the shingler's short-doc collapse rule
        return {" ".join(w[i : i + n]) for i in range(len(w) - n + 1)}

    @classmethod
    def _gram_list(cls, text, n=13):
        import re

        w = re.findall(cls.WORD_RE, text or "")
        if not w:
            return []
        if len(w) < n:
            return [" ".join(w)]
        return [" ".join(w[i : i + n]) for i in range(len(w) - n + 1)]

    def test_flags_match_string_oracle(self, ray_session, docs_pd):
        from condor_ray.pipelines.dedup import decontaminate

        docs = docs_pd[["doc_id", "text"]].head(200)
        # benchmark: 13-word substrings lifted from docs 0-4 plus one
        # never-seen item
        import re

        bench = []
        for t in docs["text"].head(5):
            w = re.findall(self.WORD_RE, t)
            bench.append(" ".join(w[2 : 2 + 13]))
        bench.append("totally novel benchmark sentence that matches nothing at all")
        out = (
            decontaminate(rd.from_pandas(docs), bench)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert len(out) == len(docs)
        bench_grams = set().union(*[self._grams(b) for b in bench])
        for _, r in out.iterrows():
            text = docs.loc[docs["doc_id"] == r.doc_id, "text"].iloc[0]
            gl = self._gram_list(text)
            want_matched = sum(g in bench_grams for g in gl)
            assert r.matched_ngrams == want_matched, r.doc_id
            assert r.total_ngrams == max(len(gl), 1), r.doc_id
            assert bool(r.contaminated) == (want_matched > 0), r.doc_id
        # the planted sources really do flag
        assert out.set_index("doc_id").loc[docs["doc_id"].head(5), "contaminated"].all()

    def test_short_doc_collapse_rule(self, ray_session):
        from condor_ray.pipelines.dedup import decontaminate

        docs = pd.DataFrame(
            {
                "doc_id": [0, 1, 2],
                "text": [
                    "three word doc",  # == bench item -> flags
                    "prefix three word doc suffix",  # contains it -> no flag
                    "",  # empty -> never flags
                ],
            }
        )
        out = (
            decontaminate(rd.from_pandas(docs), ["three word doc", ""])
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert out["contaminated"].tolist() == [True, False, False]
        assert out["matched_ngrams"].tolist() == [1, 0, 0]

    def test_empty_benchmark_and_dataset_input(self, ray_session, docs_pd):
        from condor_ray.pipelines.dedup import decontaminate

        docs = docs_pd[["doc_id", "text"]].head(50)
        out = decontaminate(rd.from_pandas(docs), []).to_pandas()
        assert len(out) == 50 and not out["contaminated"].any()
        # Dataset benchmark side: every doc vs the corpus itself -> all flag
        out2 = decontaminate(
            rd.from_pandas(docs),
            rd.from_pandas(docs.rename(columns={"text": "text"})),
        ).to_pandas()
        assert out2["contaminated"].all()


class TestRepetitionScores:
    def test_matches_python_oracle(self, ray_session, docs_pd):
        import re

        from condor_ray.pipelines.textstats import repetition_scores

        # synthetic docs exercising every branch + real corpus text
        extra = pd.DataFrame(
            {
                "doc_id": [9001, 9002, 9003, 9004, 9005],
                "text": [
                    "a b c\na b c\nunique line",  # dup lines
                    "spam spam spam spam spam",  # one dominant bigram
                    "",  # empty
                    "word",  # < 2 words
                    "x\nx\nx\ny y y y\nz",  # mixed
                ],
            }
        )
        docs = pd.concat(
            [docs_pd[["doc_id", "text"]].head(50), extra], ignore_index=True
        )
        out = (
            repetition_scores(rd.from_pandas(docs))
            .to_pandas()
            .set_index("doc_id")
        )
        assert len(out) == len(docs)
        WORD = r"[^\t\n\f\r ]+"
        for _, row in docs.iterrows():
            t = row["text"] or ""
            lines = t.split("\n")
            from collections import Counter

            lc = Counter(lines)
            dup_lines = sum(c for c in lc.values() if c > 1)
            dup_chars = sum(c * len(l) for l, c in lc.items() if c > 1)
            total_chars = sum(len(l) for l in lines)
            want_dlf = dup_lines / len(lines)
            want_dcf = dup_chars / total_chars if total_chars else 0.0
            w = re.findall(WORD, t)
            if len(w) >= 2:
                bc = Counter(zip(w, w[1:]))
                want_top = max(bc.values()) / (len(w) - 1)
            else:
                want_top = 0.0
            got = out.loc[row["doc_id"]]
            assert got["dup_line_frac"] == pytest.approx(want_dlf), row["doc_id"]
            assert got["dup_line_char_frac"] == pytest.approx(want_dcf), row["doc_id"]
            assert got["top_bigram_frac"] == pytest.approx(want_top), row["doc_id"]

    def test_filter_shape(self, ray_session):
        from condor_ray.pipelines.textstats import repetition_scores

        docs = pd.DataFrame(
            {
                "doc_id": [0, 1],
                "text": [
                    "go go go go go go",
                    "a perfectly ordinary sentence with eleven distinct words in it here",
                ],
            }
        )
        out = repetition_scores(rd.from_pandas(docs)).to_pandas()
        rep = out[out["top_bigram_frac"] > 0.2]["doc_id"].tolist()
        assert rep == [0]


class TestRedactPii:
    def test_bit_equal_vs_duckdb_twin(self, ray_session, docs_pd, tmp_path):
        import duckdb

        from condor_ray.pipelines.textstats import redact_pii, redact_pii_sql

        planted = pd.DataFrame(
            {
                "doc_id": [8001, 8002, 8003, 8004, 8005],
                "text": [
                    "reach john.doe+spam@example.co.uk or admin@host.io today",
                    "server at 10.0.0.255 and 192.168.1.1; semver 1.2.3 stays",
                    "call +4915112345678 or 555-123-4567 now",
                    "a@b.io next to 8.8.8.8 next to 555-000-1234",
                    "",
                ],
            }
        )
        docs = pd.concat(
            [docs_pd[["doc_id", "text"]].head(100), planted], ignore_index=True
        )
        p = tmp_path / "docs.parquet"
        docs.to_parquet(p)
        got = (
            redact_pii(rd.from_pandas(docs))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{p}')"
        )
        want = (
            con.execute(redact_pii_sql())
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], want[sorted(want.columns)]
        )
        # the planted rows actually redact
        row = got.set_index("doc_id")
        assert row.loc[8001, "n_email"] == 2 and "<EMAIL>" in row.loc[8001, "text"]
        assert row.loc[8002, "n_ip"] == 2 and "1.2.3 stays" in row.loc[8002, "text"]
        assert row.loc[8003, "n_phone"] == 2
        assert row.loc[8004, ["n_email", "n_ip", "n_phone"]].tolist() == [1, 1, 1]


class TestC4LineFilter:
    def test_bit_equal_vs_duckdb_twin(self, ray_session, docs_pd, tmp_path):
        import duckdb

        from condor_ray.pipelines.textstats import (
            c4_line_filter,
            c4_line_filter_sql,
        )

        planted = pd.DataFrame(
            {
                "doc_id": [7001, 7002, 7003, 7004],
                "text": [
                    "A good first sentence here.\nok\nEnable JavaScript to view this site.\n"
                    "This cookie banner must go away now.\nAnother keeper ends properly!",
                    "no terminal punctuation on this line\nBut this one does end right.",
                    "",
                    "every\nline\ntoo short.",
                ],
            }
        )
        docs = pd.concat(
            [docs_pd[["doc_id", "text"]].head(100), planted], ignore_index=True
        )
        p = tmp_path / "docs.parquet"
        docs.to_parquet(p)
        got = (
            c4_line_filter(rd.from_pandas(docs))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{p}')")
        want = (
            con.execute(c4_line_filter_sql())
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], want[sorted(want.columns)]
        )
        row = got.set_index("doc_id")
        assert row.loc[7001, "text"] == (
            "A good first sentence here.\nAnother keeper ends properly!"
        )
        assert row.loc[7001, "n_lines_dropped"] == 3
        assert row.loc[7002, "text"] == "But this one does end right."
        assert row.loc[7003, "n_lines_kept"] == 0  # "" splits to one empty line
        assert row.loc[7004, "text"] == ""  # every line under min_words


class TestCleanCorpus:
    def test_matches_composed_standalone_ops(self, ray_session, docs_pd):
        """clean_corpus == the standalone operators applied in sequence
        (each of which has its own independent oracle)."""
        from condor_ray.pipelines.clean import clean_corpus
        from condor_ray.pipelines.dedup import decontaminate
        from condor_ray.pipelines.textstats import (
            c4_line_filter,
            quality_scores,
            redact_pii,
            repetition_scores,
        )

        base = docs_pd[["doc_id", "text"]].head(80).copy()
        # give half the docs terminal punctuation so the C4 gate passes them
        base.loc[base.index[::2], "text"] = base["text"].iloc[::2] + "."
        extra = pd.DataFrame(
            {
                "doc_id": [9101, 9102, 9103, 9104],
                "text": [
                    "spam spam spam spam spam spam spam spam spam spam.",  # repetition
                    "contact me at a@b.io for the full dataset details now.",  # PII, survives
                    base["text"].iloc[0],  # exact dup of doc 0 (already "."-suffixed)
                    "tiny.",  # < min_words
                ],
            }
        )
        docs = pd.concat([base, extra], ignore_index=True)
        bench = [" ".join((base["text"].iloc[2] or "").split()[:13])]

        got = (
            clean_corpus(rd.from_pandas(docs), bench)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )

        # oracle: the standalone ops, composed in pandas
        step = c4_line_filter(rd.from_pandas(docs)).to_pandas()[["doc_id", "text"]]
        step = redact_pii(rd.from_pandas(step)).to_pandas()[["doc_id", "text"]]
        q = quality_scores(rd.from_pandas(step)).to_pandas().set_index("doc_id")
        r = repetition_scores(rd.from_pandas(step)).to_pandas().set_index("doc_id")
        c = decontaminate(rd.from_pandas(step), bench).to_pandas().set_index("doc_id")
        keep = step[
            step["doc_id"].map(
                lambda d: q.loc[d, "quality"] >= 0.25
                and q.loc[d, "n_words"] >= 5
                and r.loc[d, "dup_line_frac"] <= 0.3
                and r.loc[d, "top_bigram_frac"] <= 0.5
                and not c.loc[d, "contaminated"]
            )
        ]
        keep = (
            keep.sort_values("doc_id")
            .drop_duplicates("text", keep="first")
            .reset_index(drop=True)
        )
        want = keep.sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got[["doc_id", "text"]], want)
        ids = set(got["doc_id"])
        assert 9101 not in ids  # repetition gate
        assert 9104 not in ids  # min_words gate
        assert 9103 not in ids  # exact dup of the cleaned doc 0
        base2 = docs_pd["doc_id"].iloc[2]
        assert base2 not in ids  # decontaminated
        if 9102 in ids:  # survives iff quality passes; PII must be redacted
            t = got.set_index("doc_id").loc[9102, "text"]
            assert "<EMAIL>" in t and "a@b.io" not in t

    def test_no_benchmark_no_dedup(self, ray_session, docs_pd):
        from condor_ray.pipelines.clean import clean_corpus

        docs = docs_pd[["doc_id", "text"]].head(30).copy()
        docs["text"] = docs["text"] + "."
        out = clean_corpus(rd.from_pandas(docs), None, dedup=False).to_pandas()
        assert set(out.columns) == {"doc_id", "text"}
        assert len(out) <= 30

    def test_dataframe_benchmark_input(self, ray_session, docs_pd):
        from condor_ray.pipelines.clean import clean_corpus

        docs = docs_pd[["doc_id", "text"]].head(20).copy()
        docs["text"] = docs["text"] + "."
        bench_df = pd.DataFrame({"text": [docs["text"].iloc[0]]})
        out = clean_corpus(rd.from_pandas(docs), bench_df).to_pandas()
        assert docs["doc_id"].iloc[0] not in set(out["doc_id"])


class TestRepetitionSqlTwin:
    def test_bit_equal_vs_duckdb_twin(self, ray_session, docs_pd, tmp_path):
        import duckdb

        from condor_ray.pipelines.textstats import (
            repetition_scores,
            repetition_sql,
        )

        planted = pd.DataFrame(
            {
                "doc_id": [9201, 9202, 9203, 9204, 9205, 9206],
                "text": [
                    "",
                    "one",
                    "x\nx\nx",
                    "a b a b a b a b",
                    "line one\nline two\nline one\n",
                    "w " * 60,
                ],
            }
        )
        docs = pd.concat(
            [docs_pd[["doc_id", "text"]].head(100), planted], ignore_index=True
        )
        p = tmp_path / "docs.parquet"
        docs.to_parquet(p)
        got = (
            repetition_scores(rd.from_pandas(docs))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{p}')")
        want = (
            con.execute(repetition_sql())
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], want[sorted(want.columns)],
            check_exact=True,
        )
        row = got.set_index("doc_id")
        assert row.loc[9203, "dup_line_frac"] == 1.0
        assert row.loc[9204, "top_bigram_frac"] == 4.0 / 7.0  # 'a b' x4 of 7
        assert row.loc[9205, "dup_line_frac"] == 0.5  # 2 of 4 lines repeat


class TestCorpusFilters:
    def test_bit_equal_vs_duckdb_twin(self, ray_session, docs_pd, tmp_path):
        """The fused one-pass operator == the three standalone twins
        joined on doc_id (bit-exact doubles)."""
        import duckdb

        from condor_ray.pipelines.textstats import (
            corpus_filters,
            corpus_filters_sql,
        )

        planted = pd.DataFrame(
            {
                "doc_id": [9301, 9302],
                "text": [
                    "Mail a@b.co or dial 555-123-4567 soon.\nshort\n"
                    "This longer line ends the right way.",
                    "x\nx\nVisit 10.0.0.1 and enable javascript now.",
                ],
            }
        )
        docs = pd.concat(
            [docs_pd[["doc_id", "text"]].head(100), planted], ignore_index=True
        )
        p = tmp_path / "docs.parquet"
        docs.to_parquet(p)
        got = (
            corpus_filters(rd.from_pandas(docs))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{p}')")
        want = (
            con.execute(corpus_filters_sql())
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], want[sorted(want.columns)],
            check_exact=True,
        )
        row = got.set_index("doc_id")
        assert row.loc[9301, "n_email"] == 1 and row.loc[9301, "n_phone"] == 1
        assert row.loc[9301, "n_lines_kept"] == 2  # 'short' drops
        assert row.loc[9302, "n_ip"] == 1
        assert row.loc[9302, "dup_line_frac"] == 2.0 / 3.0


class TestDecontaminateSqlTwin:
    def test_bit_equal_vs_duckdb_twin(self, ray_session, docs_pd, tmp_path):
        """Hash-membership decontamination == the string-gram join twin
        (same collapse rules for short/empty docs)."""
        import duckdb

        from condor_ray.pipelines.dedup import decontaminate, decontaminate_sql

        planted = pd.DataFrame(
            {
                # 9401..9403 % 101 = 8..10 — planted ids stay OFF the bench slice
                "doc_id": [9401, 9402, 9403],
                "text": ["", "one two", "a b c d e f g h i j k l m tail"],
            }
        )
        docs = pd.concat(
            [docs_pd[["doc_id", "text"]].head(300), planted], ignore_index=True
        )
        p = tmp_path / "docs.parquet"
        docs.to_parquet(p)
        bench = docs[docs["doc_id"] % 101 == 7]
        got = (
            decontaminate(rd.from_pandas(docs), bench)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{p}')")
        want = (
            con.execute(decontaminate_sql())
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], want[sorted(want.columns)],
            check_exact=True,
        )
        # the bench docs themselves flag; empty/short non-bench docs don't
        row = got.set_index("doc_id")
        assert bool(row.loc[7, "contaminated"])
        assert not bool(row.loc[9401, "contaminated"])
        assert row.loc[9401, "total_ngrams"] == 1  # CSR pseudo-entry


class TestCleanCorpusSqlTwin:
    def test_bit_equal_vs_duckdb_twin(self, ray_session, docs_pd, tmp_path):
        """The composed flagship == its chained DuckDB twin on the derived
        corpus (terminal '.', planted duplicate docs) — the gate-row
        shape."""
        import duckdb

        from condor_ray.pipelines.clean import clean_corpus, clean_corpus_sql

        base = docs_pd[["doc_id", "text"]].head(200).copy()
        p = tmp_path / "docs.parquet"
        base.to_parquet(p)

        derived = base.copy()
        derived["text"] = derived["text"] + "."
        dups = derived[derived["doc_id"] % 7 == 0].copy()
        dups["doc_id"] += 100000
        corpus = pd.concat([derived, dups], ignore_index=True)
        bench = corpus[corpus["doc_id"] % 101 == 7]

        got = (
            clean_corpus(rd.from_pandas(corpus), bench)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{p}')")
        table = (
            "(SELECT doc_id, text || '.' AS text FROM documents "
            "UNION ALL SELECT doc_id + 100000, text || '.' FROM documents "
            "WHERE doc_id % 7 = 0)"
        )
        want = (
            con.execute(clean_corpus_sql(table, "doc_id % 101 = 7"))
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], want[sorted(want.columns)]
        )
        # duplicates collapsed: no shifted id survives (its base text won)
        assert not (got["doc_id"] >= 100000).any()
        assert len(got) > 0


class TestWordRarity:
    def _docs(self, n=400, seed=0):
        rng = np.random.default_rng(seed)
        vocab = [f"w{i}" for i in range(50)] + ["the", "and", "zzz-rare"]
        texts = [
            " ".join(rng.choice(vocab, rng.integers(0, 30)))
            for _ in range(n)
        ]
        texts[5] = ""  # zero-word doc
        texts[6] = "   \t  "  # whitespace-only doc
        texts[7] = None  # null text
        texts[8] = "a\x0bb c"  # \x0b is NOT a separator under _WORD_RE
        return pd.DataFrame(
            {
                "doc_id": np.arange(n, dtype=np.int64) - 10,  # negatives too
                "text": pd.array(texts, dtype="string"),
            }
        )

    def test_bit_equal_vs_duckdb_twin(self, ray_session):
        """Self-scored corpus == the string-equality SQL twin exactly
        (integer sums are order-free), across input partitionings and the
        zero-word / null-text faces."""
        import duckdb

        from condor_ray.pipelines.textstats import (
            word_rarity_scores,
            word_rarity_sql,
        )

        docs = self._docs()
        con = duckdb.connect()
        con.register("documents", docs)
        want = (
            con.execute(word_rarity_sql("documents"))
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        for parts in (1, 7):
            got = (
                word_rarity_scores(
                    rd.from_pandas(docs).repartition(parts), n_parts=4
                )
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(got, want)
        assert (want.loc[want.doc_id.isin([-5, -4, -3]), "n_words"] == 0).all()
        assert want["rarity_sum"].max() > 0

    def test_segment_min_trailing_zero_word_doc(self):
        """A zero-word doc ending the batch must not cut short the segment
        of the doc before it."""
        from condor_ray.pipelines.textstats import _segment_min

        got = _segment_min(np.array([5, 1]), np.array([2, 0]))
        assert got.tolist() == [1, 0]
        got = _segment_min(np.array([3, 9, 2, 7]), np.array([0, 2, 0, 2, 0, 0]))
        assert got.tolist() == [0, 3, 0, 2, 0, 0]
        assert _segment_min(np.array([], dtype=np.int64), np.array([0, 0])).tolist() == [0, 0]

    @pytest.mark.parametrize("last_text", ["", None])
    def test_trailing_empty_doc_single_partition_vs_duckdb_twin(
        self, ray_session, last_text
    ):
        """One partition, one batch, whose last row has no words: the doc
        before it keeps its true min_count (the twin's MIN)."""
        import duckdb

        from condor_ray.pipelines.textstats import (
            word_rarity_scores,
            word_rarity_sql,
        )

        docs = pd.DataFrame(
            {
                "doc_id": np.arange(4, dtype=np.int64),
                "text": pd.array(
                    ["a a a b", "a b c", "c c a rare", last_text], dtype="string"
                ),
            }
        )
        con = duckdb.connect()
        con.register("documents", docs)
        want = (
            con.execute(word_rarity_sql("documents"))
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        got = (
            word_rarity_scores(rd.from_pandas(docs).repartition(1), n_parts=2)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)
        assert want["min_count"].tolist() == [2, 2, 1, 0]

    def test_cross_corpus_scoring_unseen_words_count_zero(self, ray_session):
        """Scoring dataset B against corpus A's statistics: B-only words
        count 0 on both sides (hash miss == LEFT JOIN NULL -> 0)."""
        import duckdb

        from condor_ray.pipelines.textstats import (
            corpus_word_counts,
            word_rarity_scores,
            word_rarity_sql,
        )

        corpus = self._docs(300, seed=1)
        other = pd.DataFrame(
            {
                "doc_id": np.arange(50, dtype=np.int64),
                "text": pd.array(
                    ["w1 w2 UNSEEN-TOKEN"] * 25 + ["only unseen words here"] * 25,
                    dtype="string",
                ),
            }
        )
        counts = corpus_word_counts(rd.from_pandas(corpus), n_parts=4)
        got = (
            word_rarity_scores(rd.from_pandas(other), counts=counts, n_parts=4)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("documents", other)
        con.register("corpus", corpus)
        want = (
            con.execute(word_rarity_sql("documents", corpus_table="corpus"))
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)
        assert (got.loc[got.doc_id >= 25, "rarity_sum"] == 0).all()
        assert (got.loc[got.doc_id < 25, "min_count"] == 0).all()


class TestSampleStratified:
    def test_bit_equal_vs_duckdb_twin_and_fractions(self, ray_session):
        """Deterministic data-mixing sampler == its splitmix64 HUGEINT SQL
        twin (same integer keep thresholds), across seeds, negative keys
        and the default-fraction branch; per-stratum keep rates land near
        the requested fractions."""
        import duckdb

        from condor_ray.pipelines.mixing import (
            sample_stratified,
            sample_stratified_sql,
        )

        n = 20000
        rng = np.random.default_rng(1)
        docs = pd.DataFrame(
            {
                "doc_id": np.arange(n, dtype=np.int64) - n // 2,  # negatives too
                "lang": rng.choice(["en", "de", "fr", "xx"], n).astype(object),
                "text": [f"doc {i}" for i in range(n)],
            }
        )
        fracs = {"en": 0.5, "de": 0.25, "fr": 1.0}
        for seed in (0, 7, -3):
            got = (
                sample_stratified(
                    rd.from_pandas(docs), fracs, "lang", seed=seed,
                    default_fraction=0.1,
                )
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )
            con = duckdb.connect()
            con.register("documents", docs)
            want = (
                con.execute(
                    sample_stratified_sql(
                        "documents", fracs, "lang", seed=seed,
                        default_fraction=0.1,
                    )
                )
                .df()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(got, want)
            rates = got.groupby("lang").size() / docs.groupby("lang").size()
            assert abs(rates["en"] - 0.5) < 0.03
            assert abs(rates["de"] - 0.25) < 0.03
            assert rates["fr"] == 1.0
            assert abs(rates["xx"] - 0.1) < 0.03

    def test_null_strata_take_default_fraction(self, ray_session):
        """NULL stratum values must take the default fraction (the SQL
        twin's CASE falls to ELSE on NULL) instead of crashing the
        object-dtype searchsorted."""
        import duckdb

        from condor_ray.pipelines.mixing import (
            sample_stratified,
            sample_stratified_sql,
        )

        n = 4000
        rng = np.random.default_rng(3)
        lang = rng.choice(["en", "de"], n).astype(object)
        lang[rng.random(n) < 0.3] = None
        docs = pd.DataFrame(
            {"doc_id": np.arange(n, dtype=np.int64), "lang": lang}
        )
        fracs = {"en": 0.6, "de": 0.2}
        got = (
            sample_stratified(
                rd.from_pandas(docs), fracs, "lang", seed=5,
                default_fraction=0.5,
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("documents", docs)
        want = (
            con.execute(
                sample_stratified_sql(
                    "documents", fracs, "lang", seed=5, default_fraction=0.5
                )
            )
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)
        null_rate = got["lang"].isna().sum() / docs["lang"].isna().sum()
        assert abs(null_rate - 0.5) < 0.05

    def test_deterministic_and_partition_invariant(self, ray_session):
        """The keep decision is a pure function of (key, seed): re-runs and
        different partitionings keep exactly the same rows."""
        from condor_ray.pipelines.mixing import sample_stratified

        docs = pd.DataFrame(
            {
                "doc_id": np.arange(5000, dtype=np.int64),
                "lang": ["en"] * 5000,
            }
        )
        kept = [
            set(
                sample_stratified(
                    rd.from_pandas(docs).repartition(p), {"en": 0.3}, "lang",
                    seed=42,
                )
                .to_pandas()["doc_id"]
            )
            for p in (1, 7)
        ]
        assert kept[0] == kept[1] and 1200 < len(kept[0]) < 1800


class TestPackSequences:
    def test_invariants_and_partition_invariance(self, ray_session):
        """Coverage (every doc exactly once), budget (bins over budget are
        oversized singletons), determinism across input partitionings."""
        from condor_ray.pipelines.mixing import pack_sequences

        rng = np.random.default_rng(2)
        n = 3000
        docs = pd.DataFrame(
            {
                "doc_id": np.arange(n, dtype=np.int64),
                "text": [" ".join(["w"] * int(k)) for k in rng.integers(1, 200, n)],
            }
        )
        docs.loc[100, "text"] = " ".join(["w"] * 5000)  # oversized doc
        outs = []
        for parts in (1, 7):
            out = (
                pack_sequences(
                    rd.from_pandas(docs).repartition(parts), 1024, n_parts=8
                )
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )
            assert set(out["doc_id"]) == set(range(n)) and len(out) == n
            g = out.groupby("bin_id")
            over = g["n_tokens"].sum()
            over = over[over > 1024]
            assert all(g.size()[b] == 1 for b in over.index)
            outs.append(out)
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_matches_brute_force_greedy_per_bucket(self, ray_session):
        """Bucket-local packing == a scalar greedy first-fit in doc_id
        order over the same bucket's docs."""
        from condor_ray.pipelines.mixing import pack_sequences

        rng = np.random.default_rng(5)
        n, P, budget = 500, 4, 64
        toks = rng.integers(1, 40, n)
        docs = pd.DataFrame(
            {
                "doc_id": np.arange(n, dtype=np.int64),
                "text": [" ".join(["w"] * int(k)) for k in toks],
            }
        )
        out = (
            pack_sequences(rd.from_pandas(docs), budget, n_parts=P)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        for bucket in range(P):
            mine = out[out["doc_id"] % P == bucket]
            ids = mine["doc_id"].to_numpy()
            want_bin, want_pos, cur, used, b = [], [], 0, 0, 0
            for t in toks[ids]:
                if used and used + t > budget:
                    b, used, cur = b + 1, 0, 0
                want_bin.append((bucket << 40) | b)
                want_pos.append(cur)
                used += t
                cur += 1
            assert mine["bin_id"].tolist() == want_bin
            assert mine["bin_pos"].tolist() == want_pos
            assert mine["n_tokens"].tolist() == list(toks[ids])


class TestBpeTokenStats:
    def test_bit_equal_vs_duckdb_twin(self, ray_session, docs_pd, tmp_path):
        import duckdb

        from condor_ray.pipelines.textstats import bpe_token_sql, bpe_token_stats

        planted = pd.DataFrame(
            {
                "doc_id": [9501, 9502, 9503, 9504],
                "text": [
                    "it's 2024: don't stop!",
                    "",
                    "hello  world",
                    "héllo wörld 123",
                ],
            }
        )
        docs = pd.concat(
            [docs_pd[["doc_id", "text"]].head(100), planted], ignore_index=True
        )
        p = tmp_path / "docs.parquet"
        docs.to_parquet(p)
        got = (
            bpe_token_stats(rd.from_pandas(docs))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{p}')")
        want = (
            con.execute(bpe_token_sql())
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)
        row = got.set_index("doc_id")
        # it|'s|2024|:|don|'t|stop|!
        assert row.loc[9501, "n_bpe_tokens"] == 8
        assert row.loc[9502, "n_bpe_tokens"] == 0
        assert row.loc[9503, "n_bpe_tokens"] == 2


class TestResizeImages:
    def test_kernels_match_brute_force(self):
        """Area resample == per-band double loops; nearest == floor-index
        gather; identity-nearest is bit-exact."""
        from condor_ray.pipelines.multimodal import _area_resize, _nearest_resize

        rng = np.random.default_rng(3)
        arr = rng.integers(0, 256, (13, 17, 3)).astype(np.uint8)
        # identity nearest: exact
        assert np.array_equal(_nearest_resize(arr, 17, 13), arr)
        # 2x nearest upscale: every pixel duplicated
        up = _nearest_resize(arr, 34, 26)
        assert np.array_equal(up, np.repeat(np.repeat(arr, 2, 0), 2, 1))
        # constant image survives any area resample exactly
        const = np.full((9, 7, 3), 211, dtype=np.uint8)
        assert (_area_resize(const, 5, 4) == 211).all()
        # area vs brute force bands
        tw, th = 5, 4
        got = _area_resize(arr, tw, th)
        h, w = arr.shape[:2]
        for r in range(th):
            r0, r1 = (r * h) // th, ((r + 1) * h) // th if r + 1 < th else h
            r1 = max(r1, r0 + 1)
            for c in range(tw):
                c0, c1 = (c * w) // tw, ((c + 1) * w) // tw if c + 1 < tw else w
                c1 = max(c1, c0 + 1)
                want = np.rint(
                    arr[r0:r1, c0:c1].astype(np.float64).mean(axis=(0, 1))
                ).astype(np.uint8)
                assert np.array_equal(got[r, c], want), (r, c)

    def test_actor_stage_end_to_end(self, ray_session):
        """PNG in -> resized PNG out through the actor pool; outputs decode
        to the kernel's exact pixels."""
        from condor_ray.pipelines.multimodal import _area_resize, resize_images
        from condor_ray.pipelines.png import decode_png, encode_png

        rng = np.random.default_rng(9)
        arrs = [
            rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
            for h, w in ((8, 12), (20, 5), (16, 16))
        ]
        tbl = pd.DataFrame(
            {
                "doc_id": np.arange(len(arrs), dtype=np.int64),
                "image": [encode_png(a) for a in arrs],
            }
        )
        out = (
            resize_images(rd.from_pandas(tbl), 6, 6, mode="area")
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert list(out["width"]) == [6] * 3 and list(out["height"]) == [6] * 3
        for i, a in enumerate(arrs):
            got = decode_png(out["image"].iloc[i])
            assert np.array_equal(got, _area_resize(a, 6, 6))

    def test_non_png_payload_raises(self):
        from condor_ray.pipelines.multimodal import ImageResizer

        r = ImageResizer(4, 4)
        with pytest.raises(NotImplementedError):
            r._resize_payload(b"FIMG" + b"\0" * 32)
        with pytest.raises(ValueError):
            ImageResizer(4, 4, mode="bilinear")
