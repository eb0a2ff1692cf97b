"""Merge-algebra property tests (SURVEY §5 plan item b): split the input
K ways, build partial synopses, merge them in a RANDOM binary tree order —
the result must equal the sequential single-synopsis build (commutative /
mergeable contract, core:synopsis/CommutativeSynopsis.java:5-8), except
for Bloom where the preserved AND-merge quirk makes the invariant
"intersection of partials, independent of tree shape" instead.

No Ray involved: these are pure kernel-algebra properties — the driver
gate and engine tests cover the distributed plumbing that relies on them.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from condor_ray.synopses import (
    BloomFilter,
    CountMinSketch,
    EquiWidthHistogram,
    FastAGMS,
    HyperLogLogSketch,
)

_KEYS = st.lists(
    st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=300
)
_SPLITS = st.integers(2, 5)
_SEED = st.integers(0, 2**32 - 1)


def _split(values: np.ndarray, k: int, rng: np.random.Generator):
    """Random contiguous-free partition of values into k (possibly empty)
    slices — mirrors arbitrary block boundaries."""
    assign = rng.integers(0, k, len(values))
    return [values[assign == i] for i in range(k)]


def _tree_merge(partials: list, rng: np.random.Generator):
    """Merge the partials in a random binary tree order (mutating merges,
    like the engine's groupby reduce)."""
    parts = list(partials)
    while len(parts) > 1:
        i, j = sorted(rng.choice(len(parts), 2, replace=False))
        b = parts.pop(j)
        a = parts.pop(i)
        parts.append(a.merge(b))
    return parts[0]


def _check_tree_equals_sequential(make, values: np.ndarray, k: int, seed: int,
                                  state):
    rng = np.random.default_rng(seed)
    partials = []
    for chunk in _split(values, k, rng):
        s = make()
        s.update_batch(chunk)
        partials.append(s)
    merged = _tree_merge(partials, rng)
    sequential = make()
    sequential.update_batch(values)
    assert np.array_equal(state(merged), state(sequential))


@settings(max_examples=15, deadline=None)
@given(_KEYS, _SPLITS, _SEED)
def test_count_min_merge_tree_order_free(keys, k, seed):
    values = np.asarray(keys, dtype=np.int32)
    _check_tree_equals_sequential(
        lambda: CountMinSketch(256, 3, 7), values, k, seed, lambda s: s.array
    )


@settings(max_examples=15, deadline=None)
@given(_KEYS, _SPLITS, _SEED)
def test_hll_merge_tree_order_free(keys, k, seed):
    values = np.asarray(keys, dtype=np.int32)
    _check_tree_equals_sequential(
        lambda: HyperLogLogSketch(10, 7), values, k, seed,
        lambda s: s.registers,
    )


@settings(max_examples=15, deadline=None)
@given(_KEYS, _SPLITS, _SEED)
def test_agms_merge_tree_order_free(keys, k, seed):
    values = np.asarray(keys, dtype=np.int32)
    _check_tree_equals_sequential(
        lambda: FastAGMS(64, 5, 7), values, k, seed, lambda s: s.array
    )


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.floats(0.0, 127.9, allow_nan=False), min_size=1, max_size=300),
    _SPLITS,
    _SEED,
)
def test_equiwidth_merge_tree_order_free(vals, k, seed):
    values = np.asarray(vals, dtype=np.float64)
    _check_tree_equals_sequential(
        lambda: EquiWidthHistogram(0.0, 128.0, 16), values, k, seed,
        lambda s: s.frequency,
    )


@settings(max_examples=15, deadline=None)
@given(_KEYS, _SPLITS, st.tuples(_SEED, _SEED))
def test_bloom_and_merge_is_intersection_any_tree(keys, k, seeds):
    """The preserved AND-merge quirk (BloomFilter.java:121): a merge tree
    over partials yields the bitwise intersection of ALL partial bit sets,
    whatever the tree shape."""
    values = np.asarray(keys, dtype=np.int32)
    seed_a, seed_b = seeds

    def partials(seed):
        rng = np.random.default_rng(seed)
        out = []
        chunks = _split(values, k, rng)
        for chunk in chunks:
            s = BloomFilter(64, 1024, 7)
            s.update_batch(chunk)
            out.append(s)
        return out, rng

    parts_a, rng_a = partials(seed_a)
    expected = parts_a[0].bits.copy()
    for p in parts_a[1:]:
        expected &= p.bits
    merged_a = _tree_merge(parts_a, rng_a)
    assert np.array_equal(merged_a.bits, expected)

    # a DIFFERENT tree shape over the same split gives the same bits
    rng_b = np.random.default_rng(seed_a)
    parts_b = []
    for chunk in _split(values, k, rng_b):
        s = BloomFilter(64, 1024, 7)
        s.update_batch(chunk)
        parts_b.append(s)
    merged_b = _tree_merge(parts_b, np.random.default_rng(seed_b))
    assert np.array_equal(merged_b.bits, expected)


@settings(max_examples=15, deadline=None)
@given(_KEYS, _KEYS, _SEED)
def test_invertible_merge_then_invert_recovers(keys_a, keys_b, seed):
    """Invertible contract the sliding-window slide-out eviction relies on
    (InvertibleSynopsisFunction.java:63-71): merge(A, B).invert(B) == A."""
    from condor_ray.synopses import CountMinSketch, FastAGMS

    a_vals = np.asarray(keys_a, dtype=np.int32)
    b_vals = np.asarray(keys_b, dtype=np.int32)
    for make in (lambda: CountMinSketch(256, 3, 7), lambda: FastAGMS(64, 5, 7)):
        a = make()
        a.update_batch(a_vals)
        expected = a.array.copy()
        b = make()
        b.update_batch(b_vals)
        a.merge(b)
        b2 = make()
        b2.update_batch(b_vals)
        a.invert(b2)
        assert np.array_equal(a.array, expected)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.floats(0.5, 1000.0, allow_nan=False), min_size=1, max_size=200
    ),
    _SPLITS,
    _SEED,
)
def test_ddsketch_merge_tree_order_free_without_collapse(vals, k, seed):
    """Below the bin cap, DDSketch bin counts add — a random merge tree
    equals the sequential build (DDSketch.java:324-346)."""
    from condor_ray.synopses import DDSketch

    values = np.asarray(vals, dtype=np.float64)

    def state(s):
        return (s.global_count, sorted(s.counts.items()))

    rng = np.random.default_rng(seed)
    partials = []
    for chunk in _split(values, k, rng):
        s = DDSketch(0.01, 4096)
        s.update_batch(chunk)
        partials.append(s)
    merged = _tree_merge(partials, rng)
    sequential = DDSketch(0.01, 4096)
    sequential.update_batch(values)
    assert state(merged) == state(sequential)


class _EagerHLL:
    """Inline oracle for the reference HLL semantics: every merge recomputes
    the estimate eagerly with ``np.power`` and caches it; serialization
    follows the reference state layout (sparse below 1/5 fill)."""

    def __init__(self, log_reg_num: int):
        self.proto = HyperLogLogSketch(log_reg_num, 7)  # hashing only
        self.log_reg_num = log_reg_num
        self.registers = np.zeros(1 << log_reg_num, dtype=np.int8)
        self.count = 0

    def update(self, values: np.ndarray) -> None:
        index, zeros = self.proto._index_zeros(values)
        np.maximum.at(self.registers, index, zeros)

    def merge(self, other: "_EagerHLL") -> None:
        np.maximum(self.registers, other.registers, out=self.registers)
        m = len(self.registers)
        alpha = {4: 0.673, 5: 0.697, 6: 0.709}.get(
            self.log_reg_num, 0.7213 / (1 + (1.079 / m))
        )
        raw = 1.0 / np.power(2.0, -self.registers.astype(np.float64)).sum()
        raw = raw * alpha * m * m
        self.count = math.floor(raw + 0.5)
        zero_regs = int((self.registers == 0).sum())
        if zero_regs > 0 and raw < 2.5 * m:
            self.count = math.floor(m * math.log(m / float(zero_regs)) + 0.5)

    def copy(self) -> "_EagerHLL":
        out = _EagerHLL(self.log_reg_num)
        out.registers = self.registers.copy()
        out.count = self.count
        return out

    def to_bytes(self) -> bytes:
        nz = np.flatnonzero(self.registers)
        if len(nz) * 5 < len(self.registers):
            state = {"sparse_idx": nz.astype(np.int32),
                     "sparse_val": self.registers[nz],
                     "distinct_item_count": self.count}
        else:
            state = {"registers": self.registers,
                     "distinct_item_count": self.count}
        return pickle.dumps(
            (1, "HyperLogLogSketch", (self.log_reg_num, 7), state, None),
            protocol=pickle.HIGHEST_PROTOCOL,
        )


_HLL_OPS = st.lists(
    st.tuples(
        st.sampled_from(["update", "apply", "merge", "copy", "serde", "to_bytes"]),
        st.integers(0, 2),
        st.integers(0, 2),
        st.lists(st.integers(-(2**31), 2**31 - 1), max_size=120),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 6, 9]), _HLL_OPS)
def test_hll_lazy_estimate_matches_eager_oracle(log_reg_num, ops):
    """Random interleavings of update_batch / apply_precomputed / merge /
    copy / to_bytes / from_bytes: the lazily resolved estimate and the
    serialized bytes equal the eager reference after every step.  Each step
    is checked on a copy (which carries the stale flag), so a stale estimate
    stays unresolved on the live sketch into the next step."""
    from condor_ray.synopses import Synopsis

    new = [HyperLogLogSketch(log_reg_num, 7) for _ in range(3)]
    ref = [_EagerHLL(log_reg_num) for _ in range(3)]
    for op, i, j, keys in ops:
        values = np.asarray(keys, dtype=np.int32)
        if op == "update":
            new[i].update_batch(values)
            ref[i].update(values)
        elif op == "apply":
            pre = new[j].precompute_batch(values)
            idx = np.arange(0, len(values), 2)
            new[i].apply_precomputed(pre, idx)
            ref[i].update(values[idx])
        elif op == "merge":
            new[i].merge(new[j])
            ref[i].merge(ref[j])
        elif op == "copy":
            new[j] = new[i].copy()
            ref[j] = ref[i].copy()
        elif op == "serde":
            new[i] = Synopsis.from_bytes(new[i].to_bytes())
        else:
            assert new[i].to_bytes() == ref[i].to_bytes()
        for a, b in zip(new, ref):
            probe = a.copy()
            assert probe.distinct_item_count == b.count
            assert probe.to_bytes() == b.to_bytes()
    for a, b in zip(new, ref):
        assert a.distinct_item_count == b.count
        assert a.to_bytes() == b.to_bytes()


_CM_OPS = st.lists(
    st.tuples(
        st.sampled_from(["apply", "merge", "serde", "densify"]),
        st.integers(0, 2),
        st.integers(0, 2),
        st.lists(st.integers(-(2**31), 2**31 - 1), max_size=40),
        st.integers(1, 30),  # key multiplicity: grouped ingest pays per key
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(16, 2), (64, 3), (4096, 5)]), _CM_OPS)
def test_count_min_grouped_apply_matches_eager(shape, ops):
    """Random interleavings of grouped apply_precomputed / merge / serde /
    densify leave the same bytes as the eager update_batch path."""
    from condor_ray.synopses import Synopsis

    width, height = shape
    new = [CountMinSketch(width, height, 7) for _ in range(3)]
    ref = [CountMinSketch(width, height, 7) for _ in range(3)]
    for op, i, j, keys, mult in ops:
        if op == "apply":
            values = np.repeat(np.asarray(keys, dtype=np.int32), mult)
            pre = new[j].precompute_batch(values)
            idx = np.arange(0, len(values), 2)
            new[i].apply_precomputed(pre, idx)
            ref[i].update_batch(values[idx])
        elif op == "merge":
            new[i].merge(new[j])
            ref[i].merge(ref[j])
        elif op == "serde":
            new[i] = Synopsis.from_bytes(new[i].to_bytes())
        else:
            _ = new[i].array, ref[i].array
        for a, b in zip(new, ref):
            assert a.to_bytes() == b.to_bytes()


def _estimate_with_sum(registers: np.ndarray, log_reg_num: int) -> int:
    """The estimator as it reads without the zero-register shortcut: the
    register sum first, linear counting below 2.5m."""
    m = len(registers)
    alpha = {4: 0.673, 5: 0.697, 6: 0.709}.get(log_reg_num, 0.7213 / (1 + (1.079 / m)))
    raw = 1.0 / np.ldexp(1.0, -registers.astype(np.int32)).sum()
    raw = raw * alpha * m * m
    result = math.floor(raw + 0.5)
    zero_regs = m - int(np.count_nonzero(registers))
    if zero_regs > 0 and raw < 2.5 * m:
        result = math.floor(m * math.log(m / float(zero_regs)) + 0.5)
    return result


@settings(max_examples=60, deadline=None)
@given(
    st.integers(4, 16),
    st.sampled_from(["half", "half_minus_one", "all", "none", "one", "random"]),
    _SEED,
)
def test_hll_estimator_shortcut_is_exact(log_reg_num, zeros, seed):
    """Counting the zero registers first and skipping the sum when half are
    zero gives the estimate of the full computation, bit for bit, on both
    sides of m/2 zeros; a stale merged sketch serializes the same bytes."""
    rng = np.random.default_rng(seed)
    m = 1 << log_reg_num
    n_zero = {"half": m // 2, "half_minus_one": m // 2 - 1, "all": m, "none": 0,
              "one": 1, "random": int(rng.integers(0, m + 1))}[zeros]
    registers = rng.integers(1, 66, m).astype(np.int8)
    registers[rng.permutation(m)[:n_zero]] = 0
    h = HyperLogLogSketch(log_reg_num, 7)
    h.registers = registers.copy()
    assert h.distinct_items_estimator() == _estimate_with_sum(registers, log_reg_num)

    # a merge leaves the estimate stale: to_bytes settles it to the same value
    split = rng.integers(0, 2, m).astype(bool)
    a, b = HyperLogLogSketch(log_reg_num, 7), HyperLogLogSketch(log_reg_num, 7)
    a.registers = np.where(split, registers, 0).astype(np.int8)
    b.registers = np.where(split, 0, registers).astype(np.int8)
    a.merge(b)
    eager = a.copy()
    eager.distinct_item_count = _estimate_with_sum(registers, log_reg_num)
    assert a.to_bytes() == eager.to_bytes()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 10, 16]), _KEYS, st.integers(1, 30), _SEED)
def test_hll_grouped_apply_matches_update(log_reg_num, keys, mult, seed):
    """apply_precomputed over distinct-key hashing (repeated keys) or row
    hashing (mostly distinct keys) leaves the bytes of update_batch over the
    same rows."""
    rng = np.random.default_rng(seed)
    values = rng.permutation(np.repeat(np.asarray(keys, dtype=np.int32), mult))
    idx = np.flatnonzero(rng.integers(0, 2, len(values)))
    pre = HyperLogLogSketch(log_reg_num, 7).precompute_batch(values)
    # Count-Min's rule: rows when the distinct-key boundaries are half the rows
    assert (pre[2] is None) == ((len(np.unique(values)) - 1) * 2 >= len(values))
    ref = HyperLogLogSketch(log_reg_num, 7)
    ref.update_batch(values[idx])
    h = HyperLogLogSketch(log_reg_num, 7)
    h.apply_precomputed(pre, idx)
    assert h.to_bytes() == ref.to_bytes()
