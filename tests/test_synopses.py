"""Per-synopsis unit invariants, ported from the reference's JUnit classes
(core/src/main/java/de/tub/dima/condor/core/tests/, SURVEY.md §5):
structural invariants, error bounds against exact counts, merge algebra,
mismatched-parameter failures, batch-vs-sequential equivalence, serde
round-trips."""

import math

import numpy as np
import pytest

from condor_ray.synopses import (
    BarSplittingHistogram,
    BiasedReservoirSampler,
    BloomFilter,
    CountMinSketch,
    CuckooFilter,
    DDSketch,
    DistributedWaveletsManager,
    EquiWidthHistogram,
    FastAGMS,
    FiFoSampler,
    HyperLogLogSketch,
    ReservoirSampler,
    SliceWaveletsManager,
    Synopsis,
    WaveletSynopsis,
)

RNG = np.random.default_rng(42)


# ---------------------------------------------------------------- Count-Min
class TestCountMin:
    def test_row_sums_equal_elements(self):
        # CountMinSketchTest.java:23-56
        cm = CountMinSketch(633, 5, 7)
        data = RNG.integers(0, 1000, 3173).astype(np.int32)
        cm.update_batch(data)
        assert cm.elements_processed == 3173
        assert (cm.array.sum(axis=1) == 3173).all()

    def test_point_query_error_bound(self):
        # CountMinSketchTest.java:97-122: |est - true| <= total/width, est >= true
        cm = CountMinSketch(633, 5, 7)
        data = RNG.integers(0, 200, 3173).astype(np.int32)
        cm.update_batch(data)
        uniq, counts = np.unique(data, return_counts=True)
        est = cm.query_batch(uniq)
        assert (est >= counts).all()  # CM never underestimates
        assert (est - counts <= 3173 / 633 * 5).all()

    def test_merge_is_array_sum_and_param_check(self):
        # CountMinSketchTest.java:124-156
        a, b = CountMinSketch(64, 3, 7), CountMinSketch(64, 3, 7)
        d1 = RNG.integers(0, 50, 500).astype(np.int32)
        d2 = RNG.integers(0, 50, 700).astype(np.int32)
        a.update_batch(d1)
        b.update_batch(d2)
        expected = a.array + b.array
        a.merge(b)
        assert (a.array == expected).all()
        assert a.elements_processed == 1200
        with pytest.raises(ValueError):
            a.merge(CountMinSketch(32, 3, 7))
        with pytest.raises(ValueError):
            a.merge(CountMinSketch(64, 3, 8))  # different seed

    def test_merge_equals_single_build(self):
        data = RNG.integers(0, 100, 2000).astype(np.int32)
        whole = CountMinSketch(128, 5, 7)
        whole.update_batch(data)
        parts = [CountMinSketch(128, 5, 7) for _ in range(4)]
        for i, p in enumerate(parts):
            p.update_batch(data[i * 500 : (i + 1) * 500])
        merged = parts[0]
        for p in parts[1:]:
            merged = merged.merge(p)
        assert (merged.array == whole.array).all()

    def test_invert_and_decrement(self):
        data = RNG.integers(0, 100, 1000).astype(np.int32)
        cm = CountMinSketch(128, 5, 7)
        cm.update_batch(data)
        other = CountMinSketch(128, 5, 7)
        other.update_batch(data[:400])
        cm.invert(other)
        ref = CountMinSketch(128, 5, 7)
        ref.update_batch(data[400:])
        assert (cm.array == ref.array).all()
        cm.decrement_batch(data[400:])
        assert (cm.array == 0).all()
        assert cm.elements_processed == 0

    def test_sparse_decrement(self):
        data = np.random.default_rng(5).integers(-50, 50, 600).astype(np.int32)
        cm = CountMinSketch(65536, 5, 7)
        cm.update_batch(data)
        cm.decrement_batch(data[:400])
        ref = CountMinSketch(65536, 5, 7)
        ref.update_batch(data[400:])
        assert cm._dense is None
        assert cm.to_bytes() == ref.to_bytes()

    def test_serde(self):
        cm = CountMinSketch(64, 3, 7)
        cm.update_batch(RNG.integers(0, 100, 100).astype(np.int32))
        rt = Synopsis.from_bytes(cm.to_bytes())
        assert (rt.array == cm.array).all()
        assert rt.elements_processed == cm.elements_processed


# ---------------------------------------------------------------- HyperLogLog
class TestHLL:
    def test_relative_error_small_cardinality(self):
        # linear-counting regime: accurate for n << m
        # NOTE: keys must be spread over int32 (as our key-derivation hashes
        # are); H3 is XOR-linear + abs-folded, so DENSE sequential keys
        # collide pairwise — same in the reference.
        hll = HyperLogLogSketch(12, 7)
        n = 500
        data = RNG.choice(2**31 - 1, size=n, replace=False).astype(np.int32)
        hll.update_batch(data)
        est = hll.distinct_items_estimator()
        assert abs(est - n) / n < 0.10

    def test_half_register_saturation_quirk(self):
        # reference quirk: abs-valued H3 => bit 63 always 0 => only half the
        # registers addressable; estimate saturates at m*ln2 (see sketches.py)
        hll = HyperLogLogSketch(12, 7)
        hll.update_batch(np.arange(1, 20001, dtype=np.int32))
        m = 4096
        assert (hll.registers[m // 2 :] == 0).all()
        est = hll.distinct_items_estimator()
        assert est == round(m * np.log(2))  # saturated linear-counting value

    def test_duplicates_do_not_change_state(self):
        a, b = HyperLogLogSketch(10, 7), HyperLogLogSketch(10, 7)
        data = RNG.integers(0, 500, 1000).astype(np.int32)
        a.update_batch(data)
        b.update_batch(np.concatenate([data, data]))
        assert (a.registers == b.registers).all()

    def test_merge_register_max_and_estimate_cached(self):
        a, b = HyperLogLogSketch(8, 7), HyperLogLogSketch(8, 7)
        a.update_batch(np.arange(0, 1000, dtype=np.int32))
        b.update_batch(np.arange(500, 1500, dtype=np.int32))
        expected = np.maximum(a.registers, b.registers)
        a.merge(b)
        assert (a.registers == expected).all()
        assert a.distinct_item_count == a.distinct_items_estimator()

    def test_merge_equals_single_build(self):
        data = RNG.integers(0, 100000, 5000).astype(np.int32)
        whole = HyperLogLogSketch(10, 7)
        whole.update_batch(data)
        parts = [HyperLogLogSketch(10, 7) for _ in range(5)]
        for i, p in enumerate(parts):
            p.update_batch(data[i * 1000 : (i + 1) * 1000])
        m = parts[0]
        for p in parts[1:]:
            m = m.merge(p)
        assert (m.registers == whole.registers).all()

    def test_copy_is_independent(self):
        a, b = HyperLogLogSketch(8, 7), HyperLogLogSketch(8, 7)
        a.update_batch(np.arange(0, 300, dtype=np.int32))
        b.update_batch(np.arange(1000, 1300, dtype=np.int32))
        a.merge(b)  # estimate cached lazily
        before = a.registers.copy()
        c = a.copy()
        c.update_batch(np.arange(5000, 10000, dtype=np.int32))
        c.merge(b)
        c.registers[:] = 0
        assert (a.registers == before).all()
        assert c.registers is not a.registers
        assert a.distinct_item_count == HyperLogLogSketch.from_bytes(
            a.to_bytes()
        ).distinct_items_estimator()

    def test_window_close_estimates_once_per_emitted_row(self, tmp_path, monkeypatch):
        """A 5 s / 2.5 s sliding close over two partitions' slice partials
        merges every slice and window, but resolves the merge-cached
        estimate at most once per emitted payload."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from condor_ray.engine.streaming import _merge_partials_and_emit

        rng = np.random.default_rng(3)  # leaves the module RNG's stream alone
        slice_us, n_slices = 2_500_000, 10
        tables = []
        for _ in range(2):  # two partitions' partials of slices 0-9
            payloads = []
            for sid in range(n_slices):
                h = HyperLogLogSketch(10, 7)
                h.update_batch(rng.integers(0, 2**31 - 1, 200).astype(np.int32))
                payloads.append(h.to_bytes())
            tables.append(pa.table({
                "slice_id": pa.array(range(n_slices), type=pa.int64()),
                "stratum": pa.array([""] * n_slices, type=pa.string()),
                "payload": pa.array(payloads, type=pa.binary()),
                "n_rows": pa.array([200] * n_slices, type=pa.int64()),
            }))
        emit_spec = [
            {"kind": "sliding", "start": w * slice_us, "size": 2 * slice_us,
             "slices": [w, w + 1]}
            for w in range(n_slices - 1)
        ]
        calls = []
        estimate = HyperLogLogSketch.distinct_items_estimator

        def counting(self):
            calls.append(1)
            return estimate(self)

        monkeypatch.setattr(HyperLogLogSketch, "distinct_items_estimator", counting)
        path = str(tmp_path / "emit.parquet")
        n = _merge_partials_and_emit._function(
            path, emit_spec, "HyperLogLogSketch", *tables
        )
        assert n == n_slices - 1 == pq.read_metadata(path).num_rows
        assert len(calls) <= n

    def test_param_validation(self):
        with pytest.raises(ValueError):
            HyperLogLogSketch(3, 7)
        with pytest.raises(ValueError):
            HyperLogLogSketch(17, 7)


# ---------------------------------------------------------------- Bloom
class TestBloom:
    def test_no_false_negatives(self):
        bf = BloomFilter(1000, 8192, 7)
        data = RNG.integers(0, 100000, 1000).astype(np.int32)
        bf.update_batch(data)
        assert bf.query_batch(data).all()

    def test_false_positive_rate(self):
        bf = BloomFilter(1000, 16384, 7)
        present = np.arange(0, 1000, dtype=np.int32)
        bf.update_batch(present)
        absent = np.arange(100000, 110000, dtype=np.int32)
        fp = bf.query_batch(absent).mean()
        assert fp < 0.05

    def test_merge_is_AND_quirk(self):
        # BloomFilter.java:121 — intersection, not union
        a, b = BloomFilter(100, 1024, 7), BloomFilter(100, 1024, 7)
        a.update_batch(np.arange(0, 50, dtype=np.int32))
        b.update_batch(np.arange(25, 75, dtype=np.int32))
        expected = a.bits & b.bits
        a.merge(b)
        assert (a.bits == expected).all()

    def test_k_derivation(self):
        bf = BloomFilter(1000, 8192, 7)
        assert bf.n_hash_functions == round(np.log(2) * 8192 / 1000)
        assert BloomFilter(10**9, 8, 7).n_hash_functions == 1  # floor to 1


# ---------------------------------------------------------------- Cuckoo
class TestCuckoo:
    def test_no_false_negatives_and_delete(self):
        # spread keys at low load factor: the no-false-negative guarantee
        # only holds while the filter never went "full" (see quirk test below)
        # NOTE: the position hash (a*x+b)%%p%%L inherits gcd(a, L) residue
        # clustering from the seeded a (reference behavior), so the usable
        # capacity is far below bucketSize*numBuckets; stay well under it.
        # seed 1 gives an odd multiplier `a` (seed 7's even `a` collapses
        # the position hash into gcd(a, L) residue classes -> early full)
        cf = CuckooFilter(4, 1024, 1)
        data = RNG.choice(2**31 - 1, size=800, replace=False).astype(np.int32)
        cf.update_batch(data)
        assert not cf.full
        assert cf.lookup_batch(data).all()
        assert cf.delete(int(data[5]))
        assert cf.elements_processed == 800

    def test_full_fallback_quirk(self):
        # reference bug preserved (CuckooFilter.java:105-108): after
        # maxNumKicks the KICKED fingerprint is appended at the NEW element's
        # pos1, orphaning it — false negatives become possible once full.
        # Sequential keys cluster under (a*x+b)%p%L, forcing this path.
        cf = CuckooFilter(4, 1024, 7)
        data = np.arange(0, 800, dtype=np.int32)
        cf.update_batch(data)
        assert cf.full
        assert cf.elements_processed == 800

    def test_merge_roundtrip_and_full_noop(self):
        a, b = CuckooFilter(4, 512, 1), CuckooFilter(4, 512, 1)
        a.update_batch(np.arange(0, 200, dtype=np.int32))
        b.update_batch(np.arange(200, 400, dtype=np.int32))
        a.merge(b)
        assert a.lookup_batch(np.arange(0, 400, dtype=np.int32)).all()
        assert a.elements_processed == 400
        # full filter: merge silently returns self (CuckooFilter.java:220-225)
        small = CuckooFilter(1, 2, 7)
        small.update_batch(np.arange(0, 50, dtype=np.int32))
        assert small.full
        state_before = [list(x) for x in a.buckets]
        a.merge(small)
        assert [list(x) for x in a.buckets] == state_before

    def test_deterministic(self):
        a, b = CuckooFilter(4, 256, 7), CuckooFilter(4, 256, 7)
        data = RNG.integers(0, 10**6, 500).astype(np.int32)
        a.update_batch(data)
        b.update_batch(data)
        assert a.buckets == b.buckets


# ---------------------------------------------------------------- AGMS
class TestFastAGMS:
    def test_f2_estimate(self):
        # F2 = sum of squared frequencies; median-of-rows within error bound
        agms = FastAGMS(1024, 7, 7)
        data = np.repeat(np.arange(0, 100, dtype=np.int32), 50)  # f=50 each
        agms.update_batch(data)
        true_f2 = 100 * 50 * 50
        est = agms.estimate_f2()
        assert abs(est - true_f2) <= 4 * true_f2 / np.sqrt(1024)

    def test_update_then_decrement_zeroes(self):
        agms = FastAGMS(64, 5, 7)
        data = RNG.integers(0, 1000, 500).astype(np.int32)
        agms.update_batch(data)
        agms.decrement_batch(data)
        assert (agms.array == 0).all()

    def test_merge_and_invert(self):
        d1 = RNG.integers(0, 100, 400).astype(np.int32)
        d2 = RNG.integers(0, 100, 600).astype(np.int32)
        a, b = FastAGMS(64, 5, 7), FastAGMS(64, 5, 7)
        a.update_batch(d1)
        b.update_batch(d2)
        whole = FastAGMS(64, 5, 7)
        whole.update_batch(np.concatenate([d1, d2]))
        a.merge(b)
        assert (a.array == whole.array).all()
        a.invert(b)
        ref = FastAGMS(64, 5, 7)
        ref.update_batch(d1)
        assert (a.array == ref.array).all()
        with pytest.raises(ValueError):
            a.merge(FastAGMS(64, 5, 8))


# ---------------------------------------------------------------- DDSketch
class TestDDSketch:
    def test_quantile_relative_error(self):
        alpha = 0.01
        dd = DDSketch(alpha, 2048)
        data = RNG.uniform(1.0, 1000.0, 10000)
        dd.update_batch(data)
        for q in (0.01, 0.25, 0.5, 0.75, 0.99):
            est = dd.get_value_at_quantile(q)
            true = np.quantile(data, q, method="lower")
            assert abs(est - true) <= alpha * true * 1.5 + 1e-9

    def test_merge_equals_single_build(self):
        data = RNG.uniform(0.5, 100.0, 4000)
        whole = DDSketch(0.02, 4096)
        whole.update_batch(data)
        parts = [DDSketch(0.02, 4096) for _ in range(4)]
        for i, p in enumerate(parts):
            p.update_batch(data[i * 1000 : (i + 1) * 1000])
        m = parts[0]
        for p in parts[1:]:
            m = m.merge(p)
        assert m.counts == whole.counts
        assert m.global_count == whole.global_count

    def test_invert_quirk_global_count_zero(self):
        # DDSketch.java:256-282 — invert leaves globalCount at 0
        a, b = DDSketch(0.01, 1024), DDSketch(0.01, 1024)
        a.update_batch(RNG.uniform(1, 100, 1000))
        b.update_batch(RNG.uniform(1, 100, 300))
        a.invert(b)
        assert a.global_count == 0
        assert all(v > 0 for v in a.counts.values())

    def test_zero_and_range_checks(self):
        dd = DDSketch(0.01, 128)
        dd.update_batch(np.asarray([0.0, 0.0, 5.0]))
        assert dd.zero_count == 2
        assert dd.global_count == 1
        with pytest.raises(ValueError):
            dd.update_batch(np.asarray([-1.0]))

    def test_collapse(self):
        dd = DDSketch(0.01, 8)
        dd.update_batch(RNG.uniform(1, 10000, 1000))
        assert len(dd.counts) <= 8
        assert dd.is_collapsed


# ---------------------------------------------------------------- EquiWidth
class TestEquiWidth:
    def test_exact_bucket_counts(self):
        h = EquiWidthHistogram(0.0, 100.0, 10)
        data = RNG.uniform(-10, 110, 5000)
        h.update_batch(data)
        in_range = data[(data >= 0) & (data < 100)]
        expected = np.histogram(in_range, bins=10, range=(0, 100))[0]
        assert (h.frequency == expected).all()

    def test_merge_and_param_check(self):
        a, b = EquiWidthHistogram(0, 10, 5), EquiWidthHistogram(0, 10, 5)
        a.update_batch(np.asarray([1.0, 2.0]))
        b.update_batch(np.asarray([3.0, 9.0]))
        a.merge(b)
        assert a.frequency.sum() == 4
        with pytest.raises(ValueError):
            a.merge(EquiWidthHistogram(0, 10, 6))

    def test_range_query_continuous_assumption(self):
        h = EquiWidthHistogram(0.0, 10.0, 10)
        h.update_batch(np.arange(0.5, 10.0, 1.0))  # one per bucket
        assert h.range_query(0.0, 10.0) == pytest.approx(10.0)
        assert h.range_query(2.0, 4.0) == pytest.approx(2.0)
        assert h.range_query(2.5, 3.0) == pytest.approx(0.5)


# ---------------------------------------------------------------- BASH
class TestBASH:
    def test_equi_depth_quantiles(self):
        bash = BarSplittingHistogram(7, 20)
        data = RNG.integers(0, 10000, 20000)
        bash.update_batch(data)
        assert abs(bash.total_frequencies - 20000) < 1e-6
        edh = bash.build_equi_depth_histogram()
        assert edh.num_buckets == 20
        # boundaries approximate the true quantiles of uniform data
        bounds = edh.left_boundaries
        assert (np.diff(bounds) >= 0).all()
        mid = bounds[10]
        assert abs(mid - 5000) < 1500

    def test_range_query_mass(self):
        bash = BarSplittingHistogram(7, 10)
        data = RNG.integers(0, 1000, 5000)
        bash.update_batch(data)
        edh = bash.build_equi_depth_histogram()
        total = edh.range_query(edh.left_boundaries[0], edh.right_most_boundary)
        assert total == pytest.approx(5000, rel=0.15)

    def test_merge_preserves_total(self):
        a, b = BarSplittingHistogram(7, 10), BarSplittingHistogram(7, 10)
        a.update_batch(RNG.integers(0, 1000, 2000))
        b.update_batch(RNG.integers(0, 1000, 3000))
        m = a.merge(b)
        assert m.total_frequencies == pytest.approx(5000, rel=0.01)

    def test_bar_budget(self):
        bash = BarSplittingHistogram(3, 5)
        bash.update_batch(RNG.integers(0, 100000, 5000))
        assert len(bash.bars) <= 15


# ---------------------------------------------------------------- samplers
class TestReservoir:
    def test_fill_then_uniform(self):
        rs = ReservoirSampler(100, seed=7)
        rs.update_batch(np.arange(0, 50))
        assert rs.get_sample() == list(range(50))
        rs.update_batch(np.arange(50, 10000))
        assert rs.processed_elements == 10000
        sample = rs.get_sample()
        assert len(sample) == 100
        # distributional: mean of a uniform sample of [0,10000)
        assert abs(np.mean(sample) - 5000) < 1500

    def test_deterministic_given_seed(self):
        a, b = ReservoirSampler(50, seed=9), ReservoirSampler(50, seed=9)
        data = np.arange(0, 5000)
        a.update_batch(data)
        b.update_batch(data)
        assert a.get_sample() == b.get_sample()

    def test_merge_weighted(self):
        a, b = ReservoirSampler(100, seed=7), ReservoirSampler(100, seed=8)
        a.update_batch(np.zeros(9000, dtype=np.int64))
        b.update_batch(np.ones(1000, dtype=np.int64))
        a.merge(b)
        assert a.processed_elements == 10000
        ones = sum(a.get_sample())
        assert ones < 40  # ~10% expected
        with pytest.raises(ValueError):
            a.merge(ReservoirSampler(50, seed=7))


class TestFiFo:
    def test_newest_k(self):
        f = FiFoSampler(10)
        ts = np.arange(100)
        f.update_batch(ts, timestamps=ts)
        assert [e.timestamp for e in f.get_sample()] == list(range(90, 100))

    def test_equal_ts_collapse_quirk(self):
        f = FiFoSampler(10)
        f.update_batch(["a", "b"], timestamps=[5, 5])
        assert len(f.get_sample()) == 1
        assert f.get_sample()[0].value == "a"

    def test_merge_keeps_newest_overall(self):
        a, b = FiFoSampler(5), FiFoSampler(5)
        a.update_batch(list(range(10)), timestamps=list(range(0, 20, 2)))
        b.update_batch(list(range(10)), timestamps=list(range(1, 21, 2)))
        a.merge(b)
        assert [e.timestamp for e in a.get_sample()] == [15, 16, 17, 18, 19]


class TestBiasedReservoir:
    def test_recency_bias(self):
        s = BiasedReservoirSampler(100, seed=7)
        ts = np.arange(10000)
        s.update_batch(ts, timestamps=ts)
        sample_ts = [e.timestamp for e in s.get_sample()]
        assert len(sample_ts) == 100
        # strong recency bias: with replace-prob 1 the sample skews recent
        assert np.mean(sample_ts) > 6000

    def test_merge_returns_new_sampler(self):
        a, b = BiasedReservoirSampler(50, seed=7), BiasedReservoirSampler(50, seed=8)
        a.update_batch(np.arange(100), timestamps=np.arange(100))
        b.update_batch(np.arange(100, 200), timestamps=np.arange(100, 200))
        m = a.merge(b)
        assert m is not a and m is not b
        assert m.merged == 2
        assert m.actual_size == 50


# ---------------------------------------------------------------- wavelets
class TestWavelet:
    def test_exact_reconstruction_when_budget_sufficient(self):
        data = RNG.uniform(-10, 10, 64)
        w = WaveletSynopsis(128)  # budget >= #coefficients: lossless
        w.update_batch(data)
        w.padding()
        for i in range(64):
            assert w.point_query(i) == pytest.approx(data[i], abs=1e-9)

    def test_range_sum_exact_when_lossless(self):
        data = RNG.uniform(0, 10, 32)
        w = WaveletSynopsis(64)
        w.update_batch(data)
        assert w.range_sum_query(0, 31) == pytest.approx(data.sum(), abs=1e-8)
        assert w.range_sum_query(5, 12) == pytest.approx(data[5:13].sum(), abs=1e-8)

    def test_lossy_budget_approximates(self):
        # piecewise-constant data compresses well
        data = np.repeat([5.0, -3.0, 8.0, 1.0], 64)
        w = WaveletSynopsis(16)
        w.update_batch(data)
        w.padding()
        err = np.asarray([w.point_query(i) - data[i] for i in range(256)])
        assert np.abs(err).mean() < 1.0

    def test_non_power_of_two_padding(self):
        # reference padding() averages frontline nodes pairwise regardless of
        # subtree size, so only the largest dyadic prefix reconstructs
        # exactly; the tail is approximate (algorithmic property, preserved).
        data = RNG.uniform(0, 10, 37)
        w = WaveletSynopsis(256)
        w.update_batch(data)
        w.padding()
        for i in range(32):
            assert w.point_query(i) == pytest.approx(data[i], abs=1e-9)
        tail_err = np.abs([w.point_query(i) - data[i] for i in range(32, 37)])
        assert tail_err.max() < 5.0  # bounded by the data range

    def test_serde_roundtrip(self):
        data = RNG.uniform(0, 10, 100)
        w = WaveletSynopsis(32)
        w.update_batch(data)
        rt = Synopsis.from_bytes(w.to_bytes())
        rt.padding()
        w2 = WaveletSynopsis(32)
        w2.update_batch(data)
        w2.padding()
        for i in (0, 10, 50, 99):
            assert rt.point_query(i) == pytest.approx(w2.point_query(i))


class TestWaveletNative:
    """C build kernel (condor_ray/_native/wavelet.c) vs the pure-Python
    reference path: bit-exact trees, compact-array serde, lazy
    materialization."""

    @staticmethod
    def _pure(data, size):
        import os

        os.environ["CONDOR_RAY_NO_NATIVE"] = "1"
        try:
            w = WaveletSynopsis(size)
            w.update_batch(data)
        finally:
            del os.environ["CONDOR_RAY_NO_NATIVE"]
        return w

    @staticmethod
    def _native_available():
        from condor_ray._native import load_wavelet_native

        return load_wavelet_native() is not None

    @staticmethod
    def _build(batches, size, native):
        """One synopsis fed ``batches`` by successive update_batch calls, on
        the C kernel or on the pure-Python path."""
        import os

        if not native:
            os.environ["CONDOR_RAY_NO_NATIVE"] = "1"
        try:
            w = WaveletSynopsis(size)
            for b in batches:
                w.update_batch(np.asarray(b, dtype=np.float64))
        finally:
            os.environ.pop("CONDOR_RAY_NO_NATIVE", None)
        assert (w._native is not None) == native
        return w

    @staticmethod
    def _tree_state(w):
        """The whole tree as exported arrays: every live node and front with
        its raw float bytes (so -0.0 and NaN count), pointers named by the
        node's unique (level, orderinlevel).  Fronts are numbered along the
        frontline chain, then orphans in node order."""
        import struct

        w._ensure_python()
        nodes = sorted(
            (e[0] for e in w.error_heap._live.values()),
            key=lambda n: (n.level, n.orderinlevel),
        )
        fronts = []
        f = w.frontline_bottom
        while f is not None:
            fronts.append(f)
            f = f.next
        fid = {id(f): i for i, f in enumerate(fronts)}
        for n in nodes:
            if n.front is not None and id(n.front) not in fid:
                fid[id(n.front)] = len(fronts)
                fronts.append(n.front)

        def key(n):
            return None if n is None else (n.level, n.orderinlevel)

        def raw(*xs):
            return struct.pack(f"{len(xs)}d", *xs)

        node_rows = [
            (
                key(n),
                raw(n.data, n.maxerrorleft, n.minerrorleft, n.maxerrorright,
                    n.minerrorright, n.maxabserror),
                key(n.parent), key(n.left_most_child), key(n.next_sibling),
                key(n.previous_sibling), n.reltoparent,
                None if n.front is None else fid[id(n.front)],
            )
            for n in nodes
        ]
        front_rows = [
            (raw(f.value, f.positiveerror, f.negativeerror), f.level,
             key(f.hung_child))
            for f in fronts
        ]
        return node_rows, front_rows, w.stream_element_counter, raw(w._data1)

    def _assert_same_tree(self, batches, size):
        native = self._tree_state(self._build(batches, size, True))
        pure = self._tree_state(self._build(batches, size, False))
        assert native == pure

    def test_native_tree_equals_python_on_ties(self):
        # integer values with <= 4 distinct values: the shape of a turn_idx
        # stream, where many coefficients tie on maxabserror
        if not self._native_available():
            pytest.skip("no C compiler available")
        rng = np.random.default_rng(5)
        for trial in range(24):
            n = int(rng.integers(1, 700))
            distinct = int(rng.integers(1, 5))
            data = rng.integers(0, distinct, n).astype(np.float64)
            self._assert_same_tree([data], int(rng.choice([2, 3, 8, 64])))

    def test_native_tree_equals_python_small_budgets_odd_lengths(self):
        if not self._native_available():
            pytest.skip("no C compiler available")
        rng = np.random.default_rng(6)
        for size in (2, 3):
            for n in (1, 3, 5, 17, 63, 129, 255):
                self._assert_same_tree([rng.normal(size=n)], size)
                self._assert_same_tree(
                    [rng.integers(0, 3, n).astype(np.float64)], size
                )

    def test_native_tree_equals_python_across_update_batches(self):
        if not self._native_available():
            pytest.skip("no C compiler available")
        rng = np.random.default_rng(7)
        for trial in range(12):
            n = int(rng.integers(10, 500))
            data = (
                rng.integers(0, 4, n).astype(np.float64)
                if trial % 2
                else rng.uniform(-10, 10, n)
            )
            cuts = np.sort(rng.integers(0, n, int(rng.integers(1, 5))))
            batches = np.split(data, cuts)  # empty and odd-length pieces too
            self._assert_same_tree(batches, int(rng.choice([2, 3, 16, 128])))

    def test_native_tree_equals_python_with_nan_and_inf(self):
        # a NaN maxabserror polls after every number in both heaps, ties
        # broken by (level, orderinlevel); without that total order the
        # two builds diverged on nearly every such input
        if not self._native_available():
            pytest.skip("no C compiler available")
        rng = np.random.default_rng(8)
        for trial in range(40):
            n = int(rng.integers(2, 65))
            data = rng.normal(size=n)
            hit = rng.integers(0, n, int(rng.integers(1, 4)))
            data[hit] = rng.choice([np.nan, np.inf, -np.inf], len(hit))
            self._assert_same_tree([data], int(rng.choice([2, 3, 4, 8])))

    def test_native_build_bit_exact(self):
        if not self._native_available():
            pytest.skip("no C compiler available")
        for size in (8, 32, 128):
            for n in (7, 64, 500, 1024):
                data = np.random.default_rng(size * 10000 + n).uniform(-10, 10, n)
                wn = WaveletSynopsis(size)
                wn.update_batch(data)
                assert wn._native is not None  # actually took the C path
                wp = self._pure(data, size)
                for i in (0, n // 3, n - 1):
                    assert wn.point_query(i) == wp.point_query(i)
                assert wn.range_sum_query(0, n - 1) == wp.range_sum_query(0, n - 1)
                assert wn.range_sum_query(n // 4, n // 2) == wp.range_sum_query(
                    n // 4, n // 2
                )

    def test_compact_serde_relay_stays_lazy(self):
        if not self._native_available():
            pytest.skip("no C compiler available")
        data = RNG.uniform(0, 10, 300)
        wn = WaveletSynopsis(32)
        wn.update_batch(data)
        # two relay hops without a query: state must stay in array form
        hop1 = Synopsis.from_bytes(wn.to_bytes())
        assert hop1._arrays is not None and hop1.frontline_bottom is None
        hop2 = Synopsis.from_bytes(hop1.to_bytes())
        assert hop2._arrays is not None
        assert hop2.stream_element_counter == 300
        wp = self._pure(data, 32)
        for i in (0, 150, 299):
            assert hop2.point_query(i) == wp.point_query(i)
        assert hop2.range_sum_query(10, 250) == wp.range_sum_query(10, 250)

    def test_resume_updates_after_serde_in_python(self):
        # checkpoint-resume path: a native build shipped as compact arrays
        # keeps streaming on the pure-Python kernel after load, bit-exact
        # with a build that never left Python
        if not self._native_available():
            pytest.skip("no C compiler available")
        head = RNG.uniform(0, 10, 100)
        tail = RNG.uniform(0, 10, 60)
        wn = WaveletSynopsis(64)
        wn.update_batch(head)
        resumed = Synopsis.from_bytes(wn.to_bytes())
        assert resumed._arrays is not None
        resumed.update_batch(tail)  # materializes, then continues in Python
        assert resumed._arrays is None and resumed._native is None
        wp = self._pure(np.concatenate([head, tail]), 64)
        assert resumed.stream_element_counter == wp.stream_element_counter
        for i in (0, 99, 159):
            assert resumed.point_query(i) == wp.point_query(i)
        assert resumed.range_sum_query(20, 140) == wp.range_sum_query(20, 140)

    def test_pickle_of_live_native_build(self):
        if not self._native_available():
            pytest.skip("no C compiler available")
        import pickle

        data = RNG.uniform(0, 10, 200)
        wn = WaveletSynopsis(32)
        wn.update_batch(data)
        rt = pickle.loads(pickle.dumps(wn))
        wp = self._pure(data, 32)
        assert rt.range_sum_query(0, 199) == wp.range_sum_query(0, 199)
        # the original must remain queryable after __reduce__ drained its ctx
        assert wn.range_sum_query(0, 199) == wp.range_sum_query(0, 199)

    def test_graph_pickle_fallback_after_query(self):
        # a queried (materialized) synopsis serializes via the graph pickle
        # and still roundtrips
        data = RNG.uniform(0, 10, 120)
        w = WaveletSynopsis(32)
        w.update_batch(data)
        w.padding()
        q = w.range_sum_query(5, 100)
        rt = Synopsis.from_bytes(w.to_bytes())
        assert rt.range_sum_query(5, 100) == q


class TestWaveletManagers:
    def test_distributed_round_robin(self):
        # DistributedWaveletsManager.java:38-80 index arithmetic
        parallelism = 4
        n = 64
        data = RNG.uniform(0, 10, n)
        wavelets = [WaveletSynopsis(64) for _ in range(parallelism)]
        for i in range(n):
            wavelets[i % parallelism]._update_one(data[i])
        mgr = DistributedWaveletsManager(parallelism, wavelets)
        for w in wavelets:
            w.padding()
        for i in range(n):
            assert mgr.point_query(i) == pytest.approx(data[i], abs=1e-9)
        assert mgr.range_sum_query(0, n - 1) == pytest.approx(data.sum(), abs=1e-7)
        assert mgr.range_sum_query(7, 41) == pytest.approx(data[7:42].sum(), abs=1e-7)

    def test_slice_manager(self):
        data = RNG.uniform(0, 10, 60)
        slices = []
        for s in range(3):
            w = WaveletSynopsis(64)
            w.update_batch(data[s * 20 : (s + 1) * 20])
            w.padding()
            slices.append(w)
        mgr = SliceWaveletsManager(slices)
        for i in range(60):
            assert mgr.point_query(i) == pytest.approx(data[i], abs=1e-9)
        assert mgr.range_sum_query(10, 49) == pytest.approx(data[10:50].sum(), abs=1e-7)

    def test_distributed_padded_empty_wavelet_point_query(self):
        # sparse window: 2 rows at parallelism 4 — the streaming engine pads
        # builders 2/3 with EMPTY wavelets; querying their indices must return
        # the -1.0 no-element sentinel, not crash in padding()
        mgr = DistributedWaveletsManager(0, None)
        for p in range(4):
            w = WaveletSynopsis(64)
            if p < 2:
                w._update_one(float(p + 1))
            mgr.add_synopsis(w)
        assert mgr.point_query(0) == pytest.approx(1.0)
        assert mgr.point_query(1) == pytest.approx(2.0)
        assert mgr.point_query(2) == -1.0
        assert mgr.point_query(3) == -1.0
        assert mgr.range_sum_query(0, 3) == pytest.approx(3.0, abs=1e-9)

    def test_distributed_unify_keeps_index_contract(self):
        # base-class unify extends the list without touching parallelism
        # (the reference's latent contract break); the override must route
        # through add_synopsis so i % parallelism stays correct
        data = RNG.uniform(0, 10, 32)
        a, b = DistributedWaveletsManager(0, None), DistributedWaveletsManager(0, None)
        wavelets = [WaveletSynopsis(64) for _ in range(4)]
        for i in range(32):
            wavelets[i % 4]._update_one(data[i])
        for w in wavelets[:2]:
            a.add_synopsis(w)
        for w in wavelets[2:]:
            b.add_synopsis(w)
        a.unify(b)
        assert a.parallelism == 4
        for i in range(32):
            assert a.point_query(i) == pytest.approx(data[i], abs=1e-9)

    def test_slice_manager_skips_empty_slice_in_range(self):
        # an empty slice (duplicate start indices) inside the queried range
        # is skipped, not a ValueError from the inner wavelet
        data = RNG.uniform(0, 10, 40)
        mgr = SliceWaveletsManager(None)
        w1 = WaveletSynopsis(64)
        w1.update_batch(data[:20])
        mgr.add_synopsis(w1)
        mgr.add_synopsis(WaveletSynopsis(64))  # empty mid-window slice
        w3 = WaveletSynopsis(64)
        w3.update_batch(data[20:])
        mgr.add_synopsis(w3)
        assert mgr.range_sum_query(0, 39) == pytest.approx(data.sum(), abs=1e-7)
        assert mgr.range_sum_query(5, 30) == pytest.approx(
            data[5:31].sum(), abs=1e-7
        )


# ------------------------------------------------- secondary histogram kernels
class TestHistogramsExtra:
    def test_equi_depth_builder_sorted_input(self):
        from condor_ray.synopses import EquiDepthHistBuilder

        data = RNG.integers(0, 1000, 5000)
        uniq, counts = np.unique(data, return_counts=True)
        sorted_input = dict(zip(uniq.tolist(), counts.tolist()))
        edh = EquiDepthHistBuilder().build(sorted_input, 10, len(data))
        assert edh.num_buckets == 10
        assert (np.diff(edh.left_boundaries) > 0).all()
        total = edh.range_query(edh.left_boundaries[0], edh.right_most_boundary)
        assert total == pytest.approx(5000, rel=0.05)

    def test_4lt_bucket_roundtrip(self):
        # RealValuedBucket4LTTest analogue: full-range query returns root,
        # sub-range approximates the underlying frequencies
        from condor_ray.synopses import RealValuedBucket4LT

        freqs = [10, 20, 30, 40, 50, 60, 70, 80]
        b = RealValuedBucket4LT(0.0, 80.0)
        b.build(freqs)
        assert b.get_frequency(0.0, 80.0) == sum(freqs)
        # half-range: exact count 10+20+30+40 = 100; 4LT approximates
        est = b.get_frequency(0.0, 40.0)
        assert abs(est - 100) <= 15
        assert b.lower_levels >> 26 <= 63

    def test_4lt_zero_counts_no_crash(self):
        from condor_ray.synopses import RealValuedBucket4LT

        b = RealValuedBucket4LT(0.0, 8.0)
        b.build([0] * 8)  # Java NaN -> round 0 path
        assert b.root == 0
        assert b.get_frequency(0.0, 8.0) == 0

    def test_equi_width_4lt(self):
        from condor_ray.synopses import EquiWidthHistogram, EquiWidthHistogram4LT

        h = EquiWidthHistogram(0.0, 160.0, 16)
        h.update_batch(RNG.uniform(0, 160, 4000))
        h4 = EquiWidthHistogram4LT(h)
        assert h4.num_buckets == 2
        # reference quirk (EquiWidthHistogram4LT.java:37-44): rangeQuery's
        # loop bound `i < min(numBuckets-1, ...)` EXCLUDES the last bucket,
        # so a full-range query returns only the first bucket's count
        est = h4.range_query(0.0, 160.0)
        first_bucket_exact = int(h.frequency[:8].sum())
        assert est == pytest.approx(first_bucket_exact, rel=0.05)
        # per-bucket queries are accurate
        assert h4.buckets[1].get_frequency(80.0, 160.0) == pytest.approx(
            int(h.frequency[8:].sum()), rel=0.05
        )
        with pytest.raises(ValueError):
            h4.merge(EquiWidthHistogram4LT(EquiWidthHistogram(0.0, 80.0, 16)))
        # quirk: merge of compatible histograms returns None
        assert h4.merge(h4) is None

    def test_split_and_merge_with_ddsketch(self):
        from condor_ray.synopses import SplitAndMergeWithDDSketch, Synopsis

        sm = SplitAndMergeWithDDSketch(16, 0.01)
        data = RNG.uniform(1, 1000, 3000)
        sm.update_batch(data)
        assert len(sm.buckets) <= 16 + 1
        total = sm.range_query(sm.buckets.first_key(), sm.right_most_boundary)
        assert total == pytest.approx(3000, rel=0.25)
        # serde round-trip
        rt = Synopsis.from_bytes(sm.to_bytes())
        assert rt.range_query(
            rt.buckets.first_key(), rt.right_most_boundary
        ) == pytest.approx(total)
        # merge recomputes from the combined sketch
        sm2 = SplitAndMergeWithDDSketch(16, 0.01)
        sm2.update_batch(RNG.uniform(500, 2000, 1000))
        merged = sm.merge(sm2)
        assert merged.right_most_boundary >= 1000


class TestGroupedIngestFastPath:
    """apply_precomputed(precompute_batch(v), idx) == update_batch(v[idx])
    for the hash-then-scatter sketches (the streaming grouped-ingest path)."""

    def _mk_cases(self):
        from condor_ray.synopses import (
            BloomFilter,
            CountMinSketch,
            FastAGMS,
            HyperLogLogSketch,
        )

        return [
            lambda: CountMinSketch(1024, 5, 7),
            lambda: HyperLogLogSketch(10, 7),
            lambda: BloomFilter(500, 4096, 7),
            lambda: FastAGMS(256, 5, 7),
        ]

    def test_parity_with_update_batch(self):
        values = RNG.integers(0, 2**31 - 1, 5000).astype(np.int32)
        # 200 groups of uneven size, like slices in a micro-batch
        gids = RNG.integers(0, 200, 5000)
        for mk in self._mk_cases():
            proto = mk()
            pre = proto.precompute_batch(values)
            assert pre is not None
            for g in (0, 7, 199):
                idx = np.flatnonzero(gids == g)
                a, b = mk(), mk()
                a.apply_precomputed(pre, idx)
                b.update_batch(values[idx])
                assert a.to_bytes() == b.to_bytes(), type(a).__name__

    def test_repeated_apply_accumulates(self):
        from condor_ray.synopses import CountMinSketch

        values = RNG.integers(0, 2**31 - 1, 3000).astype(np.int32)
        proto = CountMinSketch(1024, 5, 7)
        pre = proto.precompute_batch(values)
        a = CountMinSketch(1024, 5, 7)
        a.apply_precomputed(pre, np.arange(1500))
        a.apply_precomputed(pre, np.arange(1500, 3000))
        b = CountMinSketch(1024, 5, 7)
        b.update_batch(values)
        assert a.to_bytes() == b.to_bytes()

    def test_no_fast_path_returns_none(self):
        from condor_ray.synopses import ReservoirSampler

        assert ReservoirSampler(10, 7).precompute_batch(
            np.arange(5, dtype=np.int32)
        ) is None


class TestCountMinGroupedIngest:
    """Count-Min grouped ingest counts distinct keys before it hashes; every
    apply must leave the same bytes as ``update_batch`` of the same rows."""

    rng = np.random.default_rng(11)  # leaves the module RNG's stream alone

    @staticmethod
    def _check(width, height, values, idx_list, dense=False):
        from condor_ray.synopses import CountMinSketch

        pre = CountMinSketch(width, height, 7).precompute_batch(values)
        a, b = CountMinSketch(width, height, 7), CountMinSketch(width, height, 7)
        if dense:
            _ = a.array, b.array  # start dense
        exact = np.zeros(width * height, dtype=np.int64)
        for idx in idx_list:
            a.apply_precomputed(pre, idx)
            b.update_batch(values[idx])
            assert a.to_bytes() == b.to_bytes()
            # both paths against a plain per-cell count
            np.add.at(exact, a._flat_indices(values[idx]), 1)
            counters = Synopsis.from_bytes(a.to_bytes()).array.ravel()
            assert np.array_equal(counters, exact.astype(np.int32))
        return a, pre

    def test_batch_of_distinct_keys_stays_per_row(self):
        values = self.rng.permutation(10_000).astype(np.int32)[:3000]
        idx_list = [np.arange(k, k + 300) for k in range(0, 3000, 300)]
        _, pre = self._check(65536, 5, values, idx_list)
        assert pre[1] is None and pre[0].shape == (3000, 5)

    def test_small_and_large_slices_of_a_repeating_batch(self):
        values = self.rng.integers(0, 400, 4000).astype(np.int32)
        # slices under a quarter of the distinct keys add their rows' cells;
        # larger ones count their keys first
        idx_list = [np.arange(0, 20), np.arange(20, 4000, 3), np.arange(5)]
        _, pre = self._check(65536, 5, values, idx_list)
        assert pre[1] is not None and len(pre[0]) == len(np.unique(values))

    def test_heavy_duplicates(self):
        values = self.rng.choice(
            np.array([3, -7, 12345, 2**31 - 1], dtype=np.int32), 5000
        )
        a, _ = self._check(65536, 5, values, [np.arange(5000)])
        assert a._dense is None and len(a._sp_idx) <= 4 * 5

    def test_negative_int32_keys(self):
        edge = np.array([-(2**31), -1, 0, 1, 2**31 - 1], dtype=np.int32)
        values = np.concatenate(
            [edge, self.rng.integers(-(2**31), 0, 2000).astype(np.int32)]
        )
        self.rng.shuffle(values)
        self._check(1024, 5, values, [np.arange(len(values))])

    def test_empty_idx_and_repeated_applies(self):
        values = self.rng.integers(-500, 500, 3000).astype(np.int32)
        groups = self.rng.integers(0, 4, 3000)
        idx_list = [np.empty(0, dtype=np.int64)] + [
            np.flatnonzero(groups == g) for g in range(4)
        ] + [np.empty(0, dtype=np.int64), np.arange(0, 3000, 7)]
        a, _ = self._check(65536, 3, values, idx_list)
        assert a.elements_processed == 3000 + len(np.arange(0, 3000, 7))

    def test_empty_batch(self):
        self._check(1024, 3, np.empty(0, dtype=np.int32),
                    [np.empty(0, dtype=np.int64)])

    def test_sparse_to_dense_crossing(self):
        values = self.rng.integers(-(2**31), 2**31 - 1, 4000).astype(np.int32)
        idx_list = [np.arange(k, k + 100) for k in range(0, 4000, 100)]
        a, _ = self._check(64, 3, values, idx_list)
        assert a._dense is not None  # crossed the ~1/3 fill threshold

    def test_dense_small_and_large_updates(self):
        values = self.rng.integers(0, 2000, 20_000).astype(np.int32)
        values[:40] = np.repeat(values[:10], 4)  # repeated keys in each head
        # per-row slices (under a quarter of the keys) and counted slices,
        # each through the np.add.at branch (few cells against a wide
        # sketch) and the bincount branch
        self._check(65536, 5, values, [np.arange(40), np.arange(20_000)],
                    dense=True)
        self._check(256, 5, values,
                    [np.arange(8), np.arange(300), np.arange(5000)], dense=True)


class TestCountMinWeighted:
    def test_update_weighted_equals_repeated_updates(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(-(2**31), 2**31 - 1, 200).astype(np.int32)
        counts = rng.integers(1, 50, 200).astype(np.int64)
        from condor_ray.synopses import CountMinSketch

        # sparse regime
        a = CountMinSketch(65536, 5, 7)
        a.update_weighted(keys, counts)
        b = CountMinSketch(65536, 5, 7)
        b.update_batch(np.repeat(keys, counts))
        assert a.elements_processed == b.elements_processed
        assert np.array_equal(a.array, b.array)
        # dense regime (tiny width forces densify + collisions)
        c = CountMinSketch(64, 3, 7)
        c.update_batch(np.repeat(keys, counts))  # densifies
        c2 = CountMinSketch(64, 3, 7)
        _ = c2.array  # force dense representation up front
        c2.update_weighted(keys, counts)
        assert np.array_equal(c.array, c2.array)


class TestCountMinNativeKernel:
    def test_native_matches_numpy_bit_exact(self, monkeypatch):
        """The fused C query/update kernel and the numpy path must produce
        identical dense arrays and identical query results, including the
        adversarial keys (0, -1, INT32_MIN where Java -MIN == MIN)."""
        import numpy as np

        from condor_ray._native import load_cm_native
        from condor_ray.synopses import CountMinSketch

        if load_cm_native() is None:
            pytest.skip("no C compiler available to build the CM kernel")
        rng = np.random.default_rng(5)
        keys = np.concatenate(
            [
                rng.integers(-(2**31), 2**31, 50_000).astype(np.int32),
                np.array([0, -1, 1, 2**31 - 1, -(2**31)], dtype=np.int32),
            ]
        )
        q = rng.integers(-(2**31), 2**31, 20_000).astype(np.int32)

        def build(w, h, seed):
            cm = CountMinSketch(w, h, seed)
            cm._densify()  # force the dense representation
            cm.update_batch(keys)
            cm._apply(keys[:500], -1)  # exercise the invert sign
            return cm

        for w, h, seed in [(65536, 5, 7), (1024, 3, 11), (7, 4, 42)]:
            cm_native = build(w, h, seed)
            res_native = cm_native.query_batch(q)
            monkeypatch.setenv("CONDOR_RAY_NO_NATIVE", "1")
            cm_numpy = build(w, h, seed)
            res_numpy = cm_numpy.query_batch(q)
            monkeypatch.delenv("CONDOR_RAY_NO_NATIVE")
            assert (cm_native.array == cm_numpy.array).all(), (w, h)
            assert (np.asarray(res_native) == np.asarray(res_numpy)).all(), (w, h)
            assert res_native.dtype == res_numpy.dtype


def test_fast_agms_default_seed_mergeable_and_deterministic():
    """Unseeded FastAGMS instances (BuildConfiguration params without a
    seed) must share ONE deterministic default — a per-instance random
    seed would make the distributed build's partials unmergeable (merge
    raises on seed mismatch)."""
    import numpy as np

    from condor_ray.synopses.sketches import FastAGMS

    a, b = FastAGMS(1024, 5), FastAGMS(1024, 5)
    a.update_batch(np.arange(100, dtype=np.int64))
    b.update_batch(np.arange(100, 200, dtype=np.int64))
    a.merge(b)  # must not raise
    c = FastAGMS(1024, 5)
    c.update_batch(np.arange(200, dtype=np.int64))
    assert a.estimate_f2() == c.estimate_f2()
    assert (a.array == c.array).all()


def test_split_and_merge_empty_side_is_noop():
    """Merging an empty per-partition partial must not crash (documented
    deviation: the parallelism-1 reference raises on firstKey of an empty
    TreeMap); an empty self adopts other's buckets."""
    import numpy as np

    from condor_ray.synopses.histograms_extra import SplitAndMergeWithDDSketch

    rng = np.random.default_rng(5)
    data = rng.uniform(1, 100, 500)
    a = SplitAndMergeWithDDSketch(8, 0.02)
    a.update_batch(data)
    before = a.range_query(10.0, 60.0)
    a.merge(SplitAndMergeWithDDSketch(8, 0.02))  # empty other: no-op
    assert a.range_query(10.0, 60.0) == before
    b = SplitAndMergeWithDDSketch(8, 0.02)  # empty self adopts other
    c = SplitAndMergeWithDDSketch(8, 0.02)
    c.update_batch(data)
    b.merge(c)
    assert abs(b.range_query(10.0, 60.0) - before) / max(before, 1) < 0.25


def test_ddsketch_decrement_batch_matches_rowwise_reference():
    """The vectorized decrement must reproduce the reference's per-row
    semantics exactly: zero_count absorbs leading sub-min rows, the rest
    decrement global_count (floored) and their bins (deleted at zero)."""
    import numpy as np

    from condor_ray.synopses.ddsketch import DDSketch

    def brute(d, values):
        for x in np.asarray(values, dtype=np.float64):
            if x < d.min_indexed_value and d.zero_count > 0:
                d.zero_count -= 1
            else:
                if d.global_count > 0:
                    d.global_count -= 1
                i = int(d._index_batch(np.maximum(np.asarray([x]), 5e-324))[0])
                b = d.counts.get(i)
                if b is not None:
                    if b <= 1:
                        del d.counts[i]
                    else:
                        d.counts[i] = b - 1

    rng = np.random.default_rng(2)
    for _ in range(30):
        data = np.concatenate(
            [rng.uniform(0, 50, rng.integers(1, 200)), np.zeros(rng.integers(0, 4))]
        )
        rng.shuffle(data)
        a, b = DDSketch(0.02, 48), DDSketch(0.02, 48)
        a.update_batch(data)
        b.update_batch(data)
        dec = np.concatenate(
            [
                rng.choice(data, rng.integers(0, len(data) + 1), replace=False),
                np.zeros(rng.integers(0, 6)),
            ]
        )
        rng.shuffle(dec)
        a.decrement_batch(dec)
        brute(b, dec)
        assert a.counts == b.counts
        assert (a.zero_count, a.global_count) == (b.zero_count, b.global_count)


# --------------------------------------------- wave-11 review pins
class TestHistogramsExtraQuirks:
    """Pins for the wave-11 review findings: two behavior repairs
    (BASH merge hang guard, SplitAndMerge NaN division) and three
    preserved reference quirks (4LT exclusive last bucket is pinned in
    test_equi_width_4lt; fractional-grid ValueError and equi-width
    boundary IndexError here)."""

    def test_bash_merge_terminates_on_pinned_tail(self):
        # reviewer repro: base relocated leftmost, right_boundary stale,
        # other bar extends past it -> the reference spins forever; the
        # progress guard must terminate with the full weight credited
        import signal

        base = BarSplittingHistogram(1, 2)
        base.update_batch(np.full(100, 5))
        other = BarSplittingHistogram(1, 2)
        other.update_batch(np.asarray([3, 10]))

        def _alarm(signum, frame):  # pragma: no cover - only on regression
            raise TimeoutError("BASH merge failed to terminate")

        old = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(20)
        try:
            merged = base.merge(other)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert merged.total_frequencies == pytest.approx(102.0)
        assert merged.right_boundary >= 6

    def test_bash_split_truncates_toward_zero_like_java(self):
        # (nextRight + leftKey) / 2 in Java truncates toward zero: for the
        # odd negative sum -15 + 8 = -7 the split point is -3, not -4
        bash = BarSplittingHistogram(1, 1)  # max_num_bars=1 never merges here
        bash.bars.put(-15, 10.0)
        bash.right_boundary = 8
        bash._split_bin(-15, 4.0)
        assert -3 in bash.bars.map
        assert -4 not in bash.bars.map

    def test_split_and_merge_single_value_range_query_nan(self):
        from condor_ray.synopses import SplitAndMergeWithDDSketch

        sm = SplitAndMergeWithDDSketch(4, 0.01)
        sm.update_batch(np.asarray([5.0, 5.0]))
        # Java double division yields NaN (0.0/0.0); must not raise
        assert math.isnan(sm.range_query(5.0, 5.0))
        assert math.isnan(sm.range_query(4.0, 6.0))

    def test_4lt_fractional_grid_value_error_quirk(self):
        # reference quirk: int-cast sub-bucket boundaries on a fractional
        # grid push new_lo past q_hi and the recursive guard throws
        # (RealValuedBucket4LT.java:84-85) — preserved bit-exact
        from condor_ray.synopses import EquiWidthHistogram, EquiWidthHistogram4LT

        h = EquiWidthHistogram(0.0, 4.0, 16)
        h.update_batch(RNG.uniform(0, 4, 256))
        h4 = EquiWidthHistogram4LT(h)
        with pytest.raises(ValueError):
            h4.range_query(0.0, 0.9)

    def test_equi_width_boundary_query_crashes_like_java(self):
        # quirk: query starting exactly AT upper_bound indexes one past the
        # array end — Java AIOOBE, Python IndexError (same input, same fate)
        h = EquiWidthHistogram(0.0, 10.0, 10)
        h.update_batch(np.arange(0.5, 10.0, 1.0))
        with pytest.raises(IndexError):
            h.range_query(10.0, 10.5)
        # out-of-domain on the left still returns 0.0
        assert h.range_query(-2.0, -1.0) == 0.0
