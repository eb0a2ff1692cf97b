"""Hash-based sketches: Count-Min, HyperLogLog, Bloom filter, Fast-AGMS.

Semantics follow the reference exactly (file:line cites per class), with the
row-loop replaced by vectorized NumPy kernels (bincount scatter-adds).

Preserved quirks:
- keys are int32 (reference hashes ``Number.intValue()`` — CountMinSketch.java:58-64);
- Bloom ``merge`` is bitwise **AND** (BloomFilter.java:121);
- HLL ``merge`` recomputes + caches the estimate (HyperLogLogSketch.java:88),
  resolved lazily here to the same value;
- H3 hash values are abs-valued before the modulo.
"""

from __future__ import annotations

import math

import numpy as np

from ..hashing import EH3HashFunction, H3HashFunctions, XORShiftRandom, java_mod
from .base import Synopsis

# a sparse Count-Min answers batches of at least this many keys through the
# fused kernel (over a scratch dense copy); smaller ones stay on numpy
_FUSED_SPARSE_QUERY = 64


def _key_index(values: np.ndarray):
    """``(keys, inv)`` for a precompute that hashes each distinct key once:
    the sorted distinct keys and each row's key index, or ``(values, None)``
    when at least half the rows are distinct (hashing rows is then cheaper
    than indexing them)."""
    s = np.sort(values)
    if np.count_nonzero(s[1:] != s[:-1]) * 2 >= len(values):
        return values, None
    return np.unique(values, return_inverse=True)


class CountMinSketch(Synopsis):
    """Count-Min sketch (core/.../Sketches/CountMinSketch.java:23-270).

    update (:57-71): per row i, ``array[i][h_i(e) % width]++``;
    query (:100-122): min over rows; merge (:156-173): elementwise add;
    invert (:199-215) / decrement (:184-197): elementwise subtract.

    Physical representation is ADAPTIVE: a sketch whose counter matrix is
    mostly zeros (low-density window partials) is held as sorted sparse
    (flat_index, value) arrays and automatically densifies past ~1/3 fill.
    All operations (update, merge, query, invert) have sparse fast paths, so
    a CM{65536,5} partial over a few hundred rows costs KBs to build, ship
    and merge instead of 1.3 MB — this is what keeps per-window overhead
    proportional to DATA, not sketch capacity, at fine window granularity.
    Logical semantics (and the ``array`` view) are unchanged.

    Grouped ingest counts before it hashes: the counters are a linear
    function of the key-frequency vector, so ``precompute_batch`` hashes each
    distinct key of a batch once and ``apply_precomputed`` adds one weighted
    count per distinct key of a slice (``update_weighted`` shares the
    scatter).  Batches whose keys are mostly distinct, and slices too small
    to repeat a key often, add their rows' cells instead.  The result is
    byte-identical to ``update_batch`` of the rows.  Because of that
    linearity the streaming job keeps Count-Min slice state as per-(slice,
    stratum, key) counts (``engine/streaming.py``), and builds the sketches
    it emits with ``from_cells``.

    A batch query on a sparse sketch runs the fused kernel too, over a
    scratch dense copy; batches under ``_FUSED_SPARSE_QUERY`` keys stay on
    numpy.
    """

    mergeable = True
    invertible = True
    commutative = True  # counter adds commute; classified Invertible in the ref
    combinable = True  # the counters are linear in the key counts

    def __init__(self, width: int, height: int, seed: int = 7):
        super().__init__()
        self.width = int(width)
        self.height = int(height)
        self.seed = int(seed)
        self.hash_functions = H3HashFunctions(self.height, self.seed)
        # int32 cells like the reference Java int[][] (wraps at 2^31 as Java)
        self._dense: np.ndarray | None = None
        self._sp_idx = np.empty(0, dtype=np.int64)  # sorted unique flat idx
        self._sp_val = np.empty(0, dtype=np.int32)
        self.elements_processed = 0

    # -- representation management ----------------------------------------
    @property
    def array(self) -> np.ndarray:
        """Dense view (materializes and switches representation)."""
        if self._dense is None:
            self._densify()
        return self._dense

    @array.setter
    def array(self, value: np.ndarray) -> None:
        self._dense = np.ascontiguousarray(value, dtype=np.int32).reshape(
            self.height, self.width
        )
        self._sp_idx = self._sp_val = None

    @classmethod
    def from_cells(cls, width: int, height: int, seed: int = 7, *, cells: np.ndarray,
                   counters: np.ndarray, elements_processed: int,
                   partition_value=None) -> "CountMinSketch":
        """The sketch whose counters are ``counters`` at the sorted distinct
        flat ``cells`` (zero elsewhere), in the layout updates and merges
        leave: int32 counters (wrapping as Java's), sparse below 1/3 fill."""
        obj = cls(width, height, seed)
        counters = np.asarray(counters).astype(np.int64).astype(np.int32)
        nz = counters != 0
        cells, counters = np.asarray(cells, dtype=np.int64)[nz], counters[nz]
        if len(cells) * 3 < width * height:
            obj._sp_idx, obj._sp_val = cells, counters
        else:
            dense = np.zeros(height * width, dtype=np.int32)
            dense[cells] = counters
            obj.array = dense
        obj.elements_processed = int(elements_processed)
        obj.partition_value = partition_value
        return obj

    def _densify(self) -> None:
        d = np.zeros(self.height * self.width, dtype=np.int32)
        d[self._sp_idx] = self._sp_val
        self._dense = d.reshape(self.height, self.width)
        self._sp_idx = self._sp_val = None

    def _sparse_accumulate(self, idx: np.ndarray, val: np.ndarray) -> None:
        """Merge (idx, val) pairs, ``idx`` sorted, into the sparse store;
        densify when full."""
        cat_idx = np.concatenate([self._sp_idx, idx])
        cat_val = np.concatenate([self._sp_val, val.astype(np.int32)])
        if len(cat_idx) == 0:  # both sides empty (e.g. zero-row partials)
            return
        # ``idx`` arrives sorted, so a stable sort (timsort) is a linear
        # merge of two runs instead of a full sort of the whole store
        order = np.argsort(cat_idx, kind="stable")
        ci, cv = cat_idx[order], cat_val[order]
        bounds = np.concatenate([[True], ci[1:] != ci[:-1]])
        uniq = ci[bounds]
        with np.errstate(over="ignore"):
            sums = np.add.reduceat(cv, np.flatnonzero(bounds)).astype(np.int32)
        keep = sums != 0
        self._sp_idx, self._sp_val = uniq[keep], sums[keep]
        if len(self._sp_idx) * 3 >= self.height * self.width:
            self._densify()

    def _flat_indices(self, values: np.ndarray) -> np.ndarray:
        idx = java_mod(self.hash_functions.hash_batch(values), self.width)
        offs = (np.arange(self.height, dtype=np.int64) * self.width)[None, :]
        return (idx.astype(np.int64) + offs).ravel()

    def _native_cm(self):
        """Fused C kernel for the DENSE representation (sparse stays numpy);
        ``None`` when no compiler / CONDOR_RAY_NO_NATIVE."""
        from .._native import load_cm_native

        return load_cm_native()

    # -- updates -----------------------------------------------------------
    def _apply(self, values: np.ndarray, sign: int) -> None:
        if self._dense is not None and len(values):
            lib = self._native_cm()
            if lib is not None:
                # writeable matters here: ascontiguousarray returns the SAME
                # array when already contiguous, so a read-only dense buffer
                # (e.g. zero-copy out of plasma) would be silently corrupted
                # through the raw pointer — the numpy path raises instead
                if not (
                    self._dense.flags.c_contiguous
                    and self._dense.flags.writeable
                ):
                    self._dense = np.array(self._dense, order="C", copy=True)
                v = np.ascontiguousarray(values, dtype=np.int32)
                lib.cm_update_dense(
                    v.ctypes.data, len(v),
                    self.hash_functions._lut.ctypes.data,
                    self.height, self.width,
                    self._dense.ctypes.data, sign,
                )
                return
        self._add_cells(self._flat_indices(values), sign)

    def _add_cells(self, flat: np.ndarray, sign: int) -> None:
        """Add ``sign`` once per entry of ``flat`` (``height`` cells a row)."""
        with np.errstate(over="ignore"):
            if self._dense is not None:
                d = self._dense.ravel()
                if len(flat) * 8 < self.width * self.height:
                    if sign > 0:
                        np.add.at(d, flat, 1)
                    else:
                        np.subtract.at(d, flat, 1)
                else:
                    d += (sign * np.bincount(
                        flat, minlength=self.height * self.width
                    )).astype(np.int32)
            else:
                # the merge sums repeated cells; a plain sort is all it needs
                self._sparse_accumulate(
                    np.sort(flat), np.full(len(flat), sign, dtype=np.int32)
                )

    def update_batch(self, values: np.ndarray, timestamps=None) -> None:
        self._apply(values, 1)
        self.elements_processed += len(values)

    def _scatter_weighted(self, flat: np.ndarray, counts: np.ndarray) -> None:
        """Add ``counts[k]`` to key k's cells ``flat[k*height:(k+1)*height]``;
        cells named more than once receive every addition."""
        w = np.repeat(counts.astype(np.int64), self.height)
        if self._dense is None:
            order = np.argsort(flat)
            self._sparse_accumulate(flat[order], w[order])
            return
        d = self._dense.ravel()
        with np.errstate(over="ignore"):
            if len(counts) * 8 < self.width:
                np.add.at(d, flat, w.astype(np.int32))
            else:
                d += np.bincount(
                    flat, weights=w, minlength=self.height * self.width
                ).astype(np.int64).astype(np.int32)

    def update_weighted(self, values: np.ndarray, counts: np.ndarray) -> None:
        """Grouped ingest: ``update_batch(np.repeat(values, counts))`` at
        O(distinct keys) hashing cost — one H3 hash per distinct key, then
        a weighted scatter (same per-element semantics as
        CountMinSketch.java:57-71)."""
        if len(values) == 0:
            return
        self._scatter_weighted(self._flat_indices(values), counts)
        self.elements_processed += int(counts.sum())

    def decrement_batch(self, values: np.ndarray) -> None:
        self._apply(values, -1)
        self.elements_processed -= len(values)

    # -- grouped-ingest fast path (hash once per distinct key, count per slice)
    # ``pre`` is (U x height flat indices of the U distinct keys, per-row key
    # index).  A slice with at least U/4 rows counts its keys first, in
    # O(its rows + U).  A smaller slice rarely repeats a key, so it adds its
    # rows' cells as they are, and so does every slice of a batch whose keys
    # are mostly distinct (``pre`` is then per row, with no key index).
    # Either way a slice's cost follows its own rows.
    def precompute_batch(self, values: np.ndarray):
        keys, inv = _key_index(values)
        return self._flat_indices(keys).reshape(-1, self.height), inv

    def apply_precomputed(self, pre, idx: np.ndarray) -> None:
        flat, inv = pre
        if inv is None:
            self._add_cells(flat[idx].ravel(), 1)
        elif len(idx) * 4 < len(flat):
            self._add_cells(flat[inv[idx]].ravel(), 1)
        else:
            counts = np.bincount(inv[idx], minlength=len(flat))
            keys = np.flatnonzero(counts)
            self._scatter_weighted(flat[keys].ravel(), counts[keys])
        self.elements_processed += len(idx)

    # -- queries -----------------------------------------------------------
    def query_batch(self, values: np.ndarray) -> np.ndarray:
        # the fused kernel reads a dense layout: a sparse sketch answers a
        # batch from a scratch dense copy, and a tiny batch on numpy
        fused = len(values) >= _FUSED_SPARSE_QUERY or (
            self._dense is not None and len(values)
        )
        lib = self._native_cm() if fused else None
        if lib is not None:
            if self._dense is None:
                dense = np.zeros(self.height * self.width, dtype=np.int32)
                dense[self._sp_idx] = self._sp_val
            else:
                if not self._dense.flags.c_contiguous:
                    self._dense = np.ascontiguousarray(self._dense)
                dense = self._dense
            v = np.ascontiguousarray(values, dtype=np.int32)
            out = np.empty(len(v), dtype=np.int32)
            lib.cm_query_dense(
                v.ctypes.data, len(v),
                self.hash_functions._lut.ctypes.data,
                self.height, self.width,
                dense.ctypes.data, out.ctypes.data,
            )
            return out
        flat = self._flat_indices(values).reshape(len(values), self.height)
        if self._dense is not None:
            ests = self._dense.ravel()[flat]
        else:
            pos = np.searchsorted(self._sp_idx, flat)
            pos_c = np.clip(pos, 0, len(self._sp_idx) - 1)
            if len(self._sp_idx):
                hit = self._sp_idx[pos_c] == flat
                ests = np.where(hit, self._sp_val[pos_c], 0)
            else:
                ests = np.zeros_like(flat, dtype=np.int32)
        return ests.min(axis=1)

    def query(self, value) -> int:
        return int(self.query_batch(np.asarray([value]))[0])

    # -- merge / invert ----------------------------------------------------
    def _check(self, other: "CountMinSketch") -> None:
        if not (
            isinstance(other, CountMinSketch)
            and other.width == self.width
            and other.height == self.height
            and other.hash_functions == self.hash_functions
        ):
            raise ValueError(
                "Sketches to merge have to be the same size and hash functions"
            )

    def _combine(self, other: "CountMinSketch", sign: int) -> "CountMinSketch":
        self._check(other)
        with np.errstate(over="ignore"):
            if self._dense is None and other._dense is None:
                self._sparse_accumulate(other._sp_idx, sign * other._sp_val)
            else:
                if self._dense is None:
                    self._densify()
                d = self._dense.ravel()
                if other._dense is not None:
                    if sign > 0:
                        self._dense += other._dense
                    else:
                        self._dense -= other._dense
                else:
                    if sign > 0:
                        np.add.at(d, other._sp_idx, other._sp_val)
                    else:
                        np.subtract.at(d, other._sp_idx, other._sp_val)
        self.elements_processed += sign * other.elements_processed
        return self

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        return self._combine(other, 1)

    def invert(self, other: "CountMinSketch") -> "CountMinSketch":
        return self._combine(other, -1)

    def _ctor_args(self):
        return (self.width, self.height, self.seed)

    def state_dict(self):
        if self._dense is None:
            return {
                "sparse_idx": self._sp_idx,
                "sparse_val": self._sp_val,
                "elements_processed": self.elements_processed,
            }
        # dense, but still serialize sparse when mostly zeros
        nz = np.flatnonzero(self._dense.ravel())
        if len(nz) * 3 < self._dense.size:
            return {
                "sparse_idx": nz.astype(np.int64),
                "sparse_val": self._dense.ravel()[nz],
                "elements_processed": self.elements_processed,
            }
        return {"array": self._dense, "elements_processed": self.elements_processed}

    def load_state(self, state):
        if "sparse_idx" in state:
            self._dense = None
            self._sp_idx = np.asarray(state["sparse_idx"], dtype=np.int64)
            self._sp_val = np.asarray(state["sparse_val"], dtype=np.int32)
        else:
            self.array = state["array"]
        self.elements_processed = state["elements_processed"]


class HyperLogLogSketch(Synopsis):
    """HyperLogLog (core/.../Sketches/HyperLogLogSketch.java:22-196).

    64-bit hash from two abs-valued H3 32-bit hashes ``h0 + (h1 << 32)``
    (:58-63); register index = top ``logRegNum`` bits, register value =
    trailing-zeros + 1 (:65-68); merge = register max + estimate recompute
    (:74-90); estimator with linear counting below 2.5m (:115-146).

    ``distinct_item_count`` is the estimate cached at the last merge, as in
    the reference.  Here ``merge`` only takes the register max and marks the
    cache stale; the estimate is computed when the count is read (directly,
    or through ``state_dict``/``to_bytes``) and before ``update_batch`` /
    ``apply_precomputed`` change the registers.  The value is therefore the
    reference's, but a window close that folds k partials pays for one
    estimate per emitted payload instead of one per merge.

    Preserved reference quirk: because both H3 hashes are abs-valued, bit 63
    of the combined hash is always 0, so only the lower HALF of the register
    space is ever addressable.  Estimates are accurate for cardinalities well
    below m but saturate at ``m*ln(2)`` (the linear-counting value when half
    the registers stay zero).  We reproduce this for output parity.  It also
    means the estimator's linear-counting branch always answers for such
    sketches, so ``distinct_items_estimator`` counts the zero registers
    first and skips the register sum when half of them are zero.

    The registers depend only on the SET of keys a partial saw (a register
    max is the same however often a key repeats), so the streaming job may
    keep slice state as per-(slice, stratum, key) groups instead of rows
    (``combinable``) and build the sketches it emits with
    ``from_registers``; ``precompute_batch`` hashes each distinct key of a
    batch once, unless the keys are mostly distinct.
    """

    mergeable = True
    commutative = True
    combinable = True  # the registers are idempotent per key

    def __init__(self, log_reg_num: int, seed: int = 7):
        super().__init__()
        if log_reg_num > 16 or log_reg_num < 4:
            raise ValueError("HLogLog initialized with logSpaceSize out of range")
        self.log_reg_num = int(log_reg_num)
        self.reg_num = 1 << self.log_reg_num
        self.seed = int(seed)
        self.hash_functions = H3HashFunctions(2, self.seed)
        self.registers = np.zeros(self.reg_num, dtype=np.int8)
        self._count = 0
        self._count_stale = False  # a merge happened since _count was set

    @classmethod
    def from_registers(cls, log_reg_num: int, seed: int = 7, *, registers: np.ndarray,
                       estimate: bool, partition_value=None) -> "HyperLogLogSketch":
        """The sketch with ``registers``.  Its cached ``distinct_item_count``
        is their estimate when ``estimate`` (what a merge of two or more
        partials caches), else 0 (an unmerged partial's, as updates leave
        it)."""
        obj = cls(log_reg_num, seed)
        obj.registers = registers
        obj._count_stale = bool(estimate)
        obj.partition_value = partition_value
        return obj

    def _settle(self) -> None:
        """Resolve a merge-stale estimate (before the registers change)."""
        if self._count_stale:
            self.distinct_items_estimator()

    @property
    def distinct_item_count(self) -> int:
        self._settle()
        return self._count

    @distinct_item_count.setter
    def distinct_item_count(self, value: int) -> None:
        self._count = value
        self._count_stale = False

    def _index_zeros(self, values: np.ndarray):
        h = self.hash_functions.hash_batch(values)  # (n, 2) non-negative int32
        h64 = (h[:, 1].astype(np.uint64) << np.uint64(32)) + h[:, 0].astype(np.uint64)
        index = (h64 >> np.uint64(64 - self.log_reg_num)).astype(np.int64)
        # trailing zeros: isolate lowest set bit; exact log2 of a power of two
        low = h64 & (~h64 + np.uint64(1))
        low_safe = np.where(h64 == 0, np.uint64(1), low).astype(np.float64)
        tz = np.where(h64 == 0, 64, np.log2(low_safe).astype(np.int64))
        zeros = (tz + 1).astype(np.int8)  # Java byte cast (65 fits)
        return index, zeros

    def update_batch(self, values: np.ndarray, timestamps=None) -> None:
        index, zeros = self._index_zeros(values)
        self._settle()
        np.maximum.at(self.registers, index, zeros)

    # -- grouped-ingest fast path ------------------------------------------
    # ``pre`` is (register index, register value, row -> key index or None),
    # per distinct key or per row by Count-Min's rule (``_key_index``)
    def precompute_batch(self, values: np.ndarray):
        keys, inv = _key_index(values)
        return (*self._index_zeros(keys), inv)

    def apply_precomputed(self, pre, idx: np.ndarray) -> None:
        index, zeros, inv = pre
        if inv is not None:
            idx = inv[idx]
        self._settle()
        np.maximum.at(self.registers, index[idx], zeros[idx])

    def merge(self, other: "HyperLogLogSketch") -> "HyperLogLogSketch":
        if not (
            isinstance(other, HyperLogLogSketch)
            and other.reg_num == self.reg_num
            and other.hash_functions == self.hash_functions
        ):
            raise ValueError("attempted union of non matching HLogLog classes")
        np.maximum(self.registers, other.registers, out=self.registers)
        # quirk: merge caches the estimate.  It is resolved lazily, on the
        # next read or register update, to the value an eager recompute here
        # would have cached.
        self._count_stale = True
        return self

    def distinct_items_estimator(self) -> int:
        m = self.reg_num
        zero_regs = m - int(np.count_nonzero(self.registers))
        # with half the registers zero the sum below is at least m/2, so raw
        # is at most 2*alpha*m < 2.5*m and linear counting answers: skip the
        # sum (every sketch built by updates is here, by the abs-hash quirk)
        linear = 2 * zero_regs >= m
        if not linear:
            alpha = {4: 0.673, 5: 0.697, 6: 0.709}.get(
                self.log_reg_num, 0.7213 / (1 + (1.079 / m))
            )
            # ldexp yields the same exact powers of two as np.power(2.0, -r),
            # so the (pairwise) sum is bit-identical, at a fraction of the cost
            raw = 1.0 / np.ldexp(1.0, -self.registers.astype(np.int32)).sum()
            raw = raw * alpha * m * m
            result = math.floor(raw + 0.5)  # Math.round
            linear = zero_regs > 0 and raw < 2.5 * m
        if linear:
            result = math.floor(m * math.log(m / float(zero_regs)) + 0.5)
        self.distinct_item_count = result
        return result

    def _ctor_args(self):
        return (self.log_reg_num, self.seed)

    def state_dict(self):
        nz = np.flatnonzero(self.registers != 0)  # bool mask: ~7x faster on int8
        if len(nz) * 5 < self.reg_num:
            return {
                "sparse_idx": nz.astype(np.int32),
                "sparse_val": self.registers[nz],
                "distinct_item_count": self.distinct_item_count,
            }
        return {
            "registers": self.registers,
            "distinct_item_count": self.distinct_item_count,
        }

    def load_state(self, state):
        if "sparse_idx" in state:
            self.registers = np.zeros(self.reg_num, dtype=np.int8)
            self.registers[state["sparse_idx"]] = state["sparse_val"]
        else:
            self.registers = state["registers"]
        self.distinct_item_count = state["distinct_item_count"]

    def copy(self) -> "HyperLogLogSketch":
        """Registers copied directly, stale estimate carried over: no
        ``state_dict`` round trip and no estimate forced."""
        obj = type(self)(*self._ctor_args())
        obj.registers = self.registers.copy()
        obj._count = self._count
        obj._count_stale = self._count_stale
        obj.partition_value = self.partition_value
        return obj


class BloomFilter(Synopsis):
    """Bloom filter (core/.../Sketches/BloomFilter.java:24-169).

    k = round(ln2 * numberBits / maxNumElements), min 1 (:40-42);
    update sets bits ``h_i(e) % numberBits`` (:54-70); query = all bits set
    (:72-86); merge = bitwise **AND** — quirk preserved (:116-134).
    """

    mergeable = True
    commutative = True

    def __init__(self, max_num_elements: int, number_bits: int, seed: int = 7):
        super().__init__()
        self.max_num_elements = int(max_num_elements)
        self.number_bits = int(number_bits)
        n_hash = int(round(math.log(2) * number_bits / max_num_elements))
        self.n_hash_functions = max(n_hash, 1)
        self.seed = int(seed)
        self.hash_functions = H3HashFunctions(self.n_hash_functions, self.seed)
        self.bits = np.zeros(self.number_bits, dtype=bool)
        self.elements_processed = 0

    def _indices(self, values: np.ndarray) -> np.ndarray:
        return java_mod(self.hash_functions.hash_batch(values), self.number_bits)

    def update_batch(self, values: np.ndarray, timestamps=None) -> None:
        idx = self._indices(values)
        self.bits[idx.ravel()] = True
        self.elements_processed += len(values)

    # -- grouped-ingest fast path ------------------------------------------
    def precompute_batch(self, values: np.ndarray):
        return self._indices(values)

    def apply_precomputed(self, pre: np.ndarray, idx: np.ndarray) -> None:
        self.bits[pre[idx].ravel()] = True
        self.elements_processed += len(idx)

    def query_batch(self, values: np.ndarray) -> np.ndarray:
        idx = self._indices(values)
        return self.bits[idx].all(axis=1)

    def query(self, value) -> bool:
        return bool(self.query_batch(np.asarray([value]))[0])

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if not (
            isinstance(other, BloomFilter)
            and other.n_hash_functions == self.n_hash_functions
            and other.number_bits == self.number_bits
            and other.hash_functions == self.hash_functions
        ):
            raise ValueError("Sketches to merge have to be the same size and hash functions")
        self.bits &= other.bits  # reference quirk: AND, not OR (BloomFilter.java:121)
        self.elements_processed += other.elements_processed
        return self

    def _ctor_args(self):
        return (self.max_num_elements, self.number_bits, self.seed)

    def state_dict(self):
        return {"bits": np.packbits(self.bits), "elements_processed": self.elements_processed}

    def load_state(self, state):
        self.bits = np.unpackbits(state["bits"], count=self.number_bits).astype(bool)
        self.elements_processed = state["elements_processed"]


class FastAGMS(Synopsis):
    """Fast-AGMS / AMS sketch (core/.../Sketches/FastAGMS.java:28-258).

    update (:93-117): position = abs(h_i(e) % width), array += ±1 by the EH3
    bit; merge (:176-193): elementwise add; invert (:134-148): subtract;
    estimateF2 (:219-232): median over rows of sum of squares.
    """

    mergeable = True
    invertible = True
    commutative = True

    def __init__(self, width: int, height: int, seed: int = 7):
        # Deterministic default seed like every other sketch here (the
        # reference draws from an unseeded XORShiftRandom, FastAGMS.java:75-77,
        # and never compares seeds at merge).  A per-instance random seed
        # would make the distributed build's per-partition partials
        # UNMERGEABLE — _check raises at the first window close — so an
        # unseeded BuildConfiguration must still produce one shared seed.
        super().__init__()
        self.width = int(width)
        self.height = int(height)
        self.seed = int(seed)
        self.hash_functions = H3HashFunctions(self.height, self.seed)
        self.eh3 = EH3HashFunction(self.seed, self.height)
        # int32 like the reference's Java int[][]
        self.array = np.zeros((self.height, self.width), dtype=np.int32)

    def _pos_sign(self, values: np.ndarray):
        h = self.hash_functions.hash_batch(values)
        pos = np.abs(java_mod(h, self.width))
        b = self.eh3.rand_batch(values)  # (n, height) bool
        sign = np.where(b, 1, -1).astype(np.int64)
        return pos, sign

    def _scatter(self, pos: np.ndarray, sign: np.ndarray, direction: int = 1) -> None:
        """Apply ±1 updates; ``direction=-1`` inverts (decrement_batch)."""
        with np.errstate(over="ignore"):
            if direction != 1:
                sign = -sign
            if len(pos) * 8 < self.width:
                for i in range(self.height):
                    np.add.at(self.array[i], pos[:, i], sign[:, i].astype(np.int32))
            else:
                for i in range(self.height):
                    self.array[i] += np.bincount(
                        pos[:, i], weights=sign[:, i], minlength=self.width
                    ).astype(np.int32)

    def update_batch(self, values: np.ndarray, timestamps=None) -> None:
        self._scatter(*self._pos_sign(values))

    # -- grouped-ingest fast path ------------------------------------------
    def precompute_batch(self, values: np.ndarray):
        return self._pos_sign(values)

    def apply_precomputed(self, pre, idx: np.ndarray) -> None:
        pos, sign = pre
        self._scatter(pos[idx], sign[idx])

    def decrement_batch(self, values: np.ndarray) -> None:
        pos, sign = self._pos_sign(values)
        self._scatter(pos, sign, direction=-1)

    def _check(self, other: "FastAGMS"):
        if not (
            isinstance(other, FastAGMS)
            and other.width == self.width
            and other.height == self.height
            and other.seed == self.seed
        ):
            raise ValueError("AGMS sketches must share width/height/seed")

    def merge(self, other: "FastAGMS") -> "FastAGMS":
        self._check(other)
        self.array += other.array
        return self

    def invert(self, other: "FastAGMS") -> "FastAGMS":
        self._check(other)
        self.array -= other.array
        return self

    def estimate_f2(self) -> int:
        f2 = (self.array.astype(np.float64) ** 2).sum(axis=1).astype(np.int64)
        f2.sort()
        return int(f2[self.height // 2])

    def error_bound(self) -> float:
        return self.estimate_f2() / math.sqrt(self.width)

    def error_probability(self) -> float:
        return 1.0 / (2**self.height)

    def _ctor_args(self):
        return (self.width, self.height, self.seed)

    def state_dict(self):
        nz = np.flatnonzero(self.array.ravel())
        if len(nz) * 3 < self.array.size:
            return {
                "sparse_idx": nz.astype(np.int64),
                "sparse_val": self.array.ravel()[nz],
            }
        return {"array": self.array}

    def load_state(self, state):
        if "sparse_idx" in state:
            self.array = np.zeros((self.height, self.width), dtype=np.int32)
            self.array.ravel()[state["sparse_idx"]] = state["sparse_val"]
        else:
            self.array = state["array"]
