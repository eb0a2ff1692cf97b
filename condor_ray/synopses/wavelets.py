"""Haar wavelet synopsis (order-based, non-mergeable) + distributed managers.

Reference:
- WaveletSynopsis:  core/.../Wavelets/WaveletSynopsis.java:10-550
  (update 47-68: pairwise climbup + discard-2 past budget; climbup 266-347;
  discard 352-411; error propagation 416-500; padding 200-256; pointQuery
  76-119; rangeSumQuery 128-194)
- DataNode:         core/.../Wavelets/DataNode.java (error values, MA,
  index arithmetic, compareTo by (maxabserror, level, orderinlevel))
- FrontlineNode:    core/.../Wavelets/FrontlineNode.java
- DistributedWaveletsManager: core/.../Wavelets/DistributedWaveletsManager.java:7-81
  (round-robin: synopsis = i % parallelism, local = i // parallelism)
- SliceWaveletsManager: core/.../Wavelets/SliceWaveletsManager.java:8-99
  (prefix-sum slice offsets)
- NonMergeableSynopsisManager: core/.../synopsis/NonMergeableSynopsisManager.java:5-36

Java's ``PriorityQueue`` with ``remove(Object)`` is replaced by a
lazy-deletion heap keyed by the reference's exact compareTo tuple
``(maxabserror, level, orderinlevel)``, so poll order (including ties) matches
(the C build kernel uses an indexed heap with the same order).
"""

from __future__ import annotations

import ctypes
import heapq
import math

import numpy as np

from .base import Synopsis
from .._native import load_wavelet_native

LEFT, RIGHT, NONE = 0, 1, 2  # Utils.relationship


class DataNode:
    __slots__ = (
        "data", "maxerrorleft", "minerrorleft", "maxerrorright", "minerrorright",
        "maxabserror", "level", "orderinlevel", "front", "left_most_child",
        "parent", "reltoparent", "next_sibling", "previous_sibling",
    )

    def __init__(self, data, level, orderinlevel, left_child, previous_sibling):
        self.data = data
        self.maxerrorleft = 0.0
        self.minerrorleft = 0.0
        self.maxerrorright = 0.0
        self.minerrorright = 0.0
        self.maxabserror = 0.0
        self.level = level
        self.orderinlevel = orderinlevel
        self.front = None
        self.left_most_child = None
        self.parent = None
        self.reltoparent = NONE
        self.next_sibling = None
        self.previous_sibling = None
        if left_child is not None:
            self.left_most_child = left_child
            left_child.set_parent(self)
        if previous_sibling is not None:
            self.previous_sibling = previous_sibling
            previous_sibling.next_sibling = self

    def compute_error_values(self, prev_frontline) -> bool:
        oldmaxl, oldminl = self.maxerrorleft, self.minerrorleft
        oldmaxr, oldminr = self.maxerrorright, self.minerrorright
        # local names + explicit compares: this and compute_ma are the
        # hottest scalar paths of the build (millions of 2-arg max/min calls)
        maxl, minl = self.maxerrorleft, self.minerrorleft
        maxr, minr = self.maxerrorright, self.minerrorright
        child = self.left_most_child
        while child is not None:
            maxerr = child.maxerrorleft
            if child.maxerrorright > maxerr:
                maxerr = child.maxerrorright
            minerr = child.minerrorleft
            if child.minerrorright < minerr:
                minerr = child.minerrorright
            if child.reltoparent == LEFT:
                if maxerr > maxl:
                    maxl = maxerr
                if minerr < minl:
                    minl = minerr
            elif child.reltoparent == RIGHT:
                if maxerr > maxr:
                    maxr = maxerr
                if minerr < minr:
                    minr = minerr
            child = child.next_sibling
        if prev_frontline is not None and prev_frontline.errorhanging:
            if prev_frontline.positiveerror > maxl:
                maxl = prev_frontline.positiveerror
            if prev_frontline.negativeerror < minl:
                minl = prev_frontline.negativeerror
        self.maxerrorleft, self.minerrorleft = maxl, minl
        self.maxerrorright, self.minerrorright = maxr, minr
        return not (
            oldmaxl == maxl
            and oldminl == minl
            and oldmaxr == maxr
            and oldminr == minr
        )

    def compute_ma(self) -> float:
        d = self.data
        a = self.maxerrorleft - d
        if a < 0.0:
            a = -a
        b = self.minerrorleft - d
        if b < 0.0:
            b = -b
        left = a if a > b else b
        a = self.maxerrorright + d
        if a < 0.0:
            a = -a
        b = self.minerrorright + d
        if b < 0.0:
            b = -b
        right = a if a > b else b
        self.maxabserror = left if left > right else right
        return self.maxabserror

    def index_in_subtree(self, query_index: int, max_level: int) -> int:
        coeffs_in_level = 2 ** (max_level - self.level)
        tree_size = 2 ** max_level
        lower = tree_size // coeffs_in_level * (self.orderinlevel - 1)
        upper = tree_size // coeffs_in_level * self.orderinlevel
        if lower <= query_index < (lower + upper) // 2:
            return 1
        if (lower + upper) // 2 <= query_index < upper:
            return -1
        return 0

    def count_left_leaves(self, li: int, ri: int, max_level: int) -> int:
        coeffs = 2 ** (max_level - self.level)
        tree = 2 ** max_level
        start_left = tree // coeffs * (self.orderinlevel - 1)
        start_right = ((tree // coeffs * self.orderinlevel) + start_left) // 2
        return max(min(ri + 1, start_right) - max(start_left, li), 0)

    def count_right_leaves(self, li: int, ri: int, max_level: int) -> int:
        coeffs = 2 ** (max_level - self.level)
        tree = 2 ** max_level
        start_left = tree // coeffs * (self.orderinlevel - 1)
        end_right = tree // coeffs * self.orderinlevel
        start_right = (end_right + start_left) // 2
        return max(min(ri + 1, end_right) - max(start_right, li), 0)

    def set_parent(self, parent) -> None:
        node = self
        while node is not None:  # iterative over the sibling chain
            node.parent = parent
            if parent is not None:
                if parent.level > node.level:
                    node.reltoparent = node.ancestor_relationship(parent)
            else:
                node.reltoparent = NONE
            node = node.next_sibling

    def ancestor_relationship(self, ancestor) -> int:
        if (2 * self.orderinlevel - 1) < (
            (2 * ancestor.orderinlevel - 1) * 2 ** (ancestor.level - self.level)
        ):
            return LEFT
        return RIGHT

    def sort_key(self):
        return (self.maxabserror, self.level, self.orderinlevel)


class FrontlineNode:
    __slots__ = ("hung_child", "value", "next", "prev", "positiveerror",
                 "negativeerror", "errorhanging", "level")

    def __init__(self, value, level):
        self.hung_child = None
        self.value = value
        self.next = None
        self.prev = None
        self.positiveerror = 0.0
        self.negativeerror = 0.0
        self.errorhanging = False
        self.level = level

    def merge_error(self, min_error, max_error):
        # explicit compares, as in the C kernel: max()/min() pick a
        # different operand on NaN and on -0.0 == 0.0
        if max_error > self.positiveerror:
            self.positiveerror = max_error
        if min_error < self.negativeerror:
            self.negativeerror = min_error


# level offset that ranks a NaN key after +inf (see _ErrorHeap.add)
_NAN_LEVEL = 1 << 40


class _ErrorHeap:
    """Indexed min-heap over DataNodes with Java-PriorityQueue-compatible
    poll ordering (compareTo tuple) and O(log n) remove via lazy deletion.

    Heap items are plain tuples ``(maxabserror, level, orderinlevel, seq,
    entry)`` so heapq compares at C speed.  The compareTo key is unique among
    live nodes ((level, orderinlevel) identifies a tree position), so the
    ``seq`` tiebreaker never reorders a reference-visible poll; it only stops
    tuple comparison from ever reaching ``entry``.

    A NaN maxabserror would make ``<`` non-total and the poll order depend on
    the heap's shape.  It is keyed ``(inf, level + _NAN_LEVEL, ...)``
    instead: after every number, ties broken by (level, orderinlevel) — the
    same total order as ``ent_lt`` in _native/wavelet.c."""

    def __init__(self):
        self._heap: list = []
        self._live: dict[int, list] = {}  # id(node) -> entry
        self._seq = 0

    def add(self, node: DataNode):
        entry = [node, True]
        self._live[id(node)] = entry
        self._seq += 1
        key, level = node.maxabserror, node.level
        if key != key:
            key, level = math.inf, level + _NAN_LEVEL
        heapq.heappush(
            self._heap, (key, level, node.orderinlevel, self._seq, entry)
        )

    def remove(self, node: DataNode):
        entry = self._live.pop(id(node), None)
        if entry is not None:
            entry[1] = False

    def poll(self) -> DataNode | None:
        while self._heap:
            entry = heapq.heappop(self._heap)[4]
            if entry[1]:
                node = entry[0]
                del self._live[id(node)]
                return node
        return None

    def __len__(self):
        return len(self._live)


def _rebuild_wavelet(cls, ctor_args, state, partition_value):
    obj = cls(*ctor_args)
    obj.load_state(state)
    obj.partition_value = partition_value
    return obj


class WaveletSynopsis(Synopsis):
    order_based = True

    def __init__(self, size: int):
        super().__init__()
        if size < 2:
            raise ValueError("Wavelet size must be bigger than 1.")
        self.size = int(size)
        self.stream_element_counter = 0
        self.frontline_bottom: FrontlineNode | None = None
        self.frontline_top: FrontlineNode | None = None
        self.rootnode: FrontlineNode | None = None
        self.error_heap = _ErrorHeap()
        self._data1 = 0.0
        self._native = None  # (ctypes lib, ctx ptr) while the C build is live
        self._arrays = None  # compact array state awaiting lazy materialization

    # -- update (WaveletSynopsis.java:47-68) -------------------------------
    def update_batch(self, values: np.ndarray, timestamps=None) -> None:
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if (
            self._native is None
            and self._arrays is None
            and self.stream_element_counter == 0
            and self.frontline_bottom is None
        ):
            # fresh synopsis: route the whole build through the C kernel
            # (bit-identical tree, see _native/wavelet.c); export back to the
            # Python node graph lazily on first query/serialize
            lib = load_wavelet_native()
            if lib is not None:
                self._native = (lib, lib.wv_new(self.size))
        if self._native is not None:
            if len(arr):
                lib, ctx = self._native
                lib.wv_update(ctx, arr.ctypes.data_as(ctypes.c_void_p), len(arr))
                self.stream_element_counter += len(arr)
            return
        if self._arrays is not None:
            self._ensure_python()
        for v in arr.tolist():
            self._update_one(v)

    def _update_one(self, element: float) -> None:
        self.stream_element_counter += 1
        if self.stream_element_counter % 2 == 0:
            self._climbup(self._data1, element)
            if self.stream_element_counter > self.size:
                self._discard()
        else:
            self._data1 = element

    # -- climbup (:266-347) ------------------------------------------------
    def _climbup(self, data1: float, data2: float) -> None:
        frontline = self.frontline_bottom
        prev_frontline = None
        order = self.stream_element_counter
        current_average = 0.0
        average = 0.0
        level = 0
        first_loop = True
        while order > 0 and order % 2 == 0:
            child = None
            sibling = None
            order //= 2
            level += 1
            if first_loop:
                average = (data1 + data2) / 2
                value = data1 - average
                first_loop = False
            else:
                average = (average + current_average) / 2
                value = current_average - average
                child = prev_frontline.hung_child
                prev_frontline.hung_child = None
            if frontline is not None and frontline.level == level:
                sibling = frontline.hung_child
                if sibling is not None:
                    while sibling.next_sibling is not None:
                        sibling = sibling.next_sibling
            current = DataNode(value, level, order, child, sibling)
            current.compute_error_values(prev_frontline)
            current.compute_ma()
            self.error_heap.add(current)
            if prev_frontline is not None:
                if child is not None:
                    child.front = None
                if frontline is not None:
                    frontline.prev = None
            new_frontline = frontline
            if frontline is None:
                new_frontline = FrontlineNode(average, level)
                self.frontline_top = new_frontline
                self.frontline_bottom = new_frontline
            elif frontline.level != level:
                new_frontline = FrontlineNode(average, level)
                self.frontline_bottom = new_frontline
                new_frontline.next = frontline
                frontline.prev = new_frontline
            else:
                current_average = frontline.value
            if new_frontline.hung_child is None:
                new_frontline.hung_child = current
                current.front = new_frontline
            prev_frontline = frontline
            frontline = new_frontline.next

    # -- discard (:352-411) ------------------------------------------------
    def _discard(self) -> None:
        for _ in range(2):
            discarded = self.error_heap.poll()
            if discarded is None:
                continue
            self._propagate_error(discarded)
            if discarded.left_most_child is not None:
                child = discarded.left_most_child
                while child is not None:
                    child.set_parent(discarded.parent)
                    child = child.next_sibling
                child = discarded.left_most_child
                if discarded.front is not None:
                    child.front = discarded.front
                    discarded.front.hung_child = child
                if discarded.previous_sibling is not None:
                    discarded.previous_sibling.next_sibling = child
                    child.previous_sibling = discarded.previous_sibling
                if discarded.next_sibling is not None:
                    while child.next_sibling is not None:
                        child = child.next_sibling
                    child.next_sibling = discarded.next_sibling
                    discarded.next_sibling.previous_sibling = child
            else:
                if discarded.front is not None:
                    if discarded.next_sibling is not None:
                        discarded.next_sibling.front = discarded.front
                    discarded.front.hung_child = discarded.next_sibling
                if discarded.previous_sibling is not None:
                    discarded.previous_sibling.next_sibling = discarded.next_sibling
                if discarded.next_sibling is not None:
                    discarded.next_sibling.previous_sibling = discarded.previous_sibling
            if discarded.parent is not None and discarded.parent.left_most_child is discarded:
                if discarded.left_most_child is not None:
                    discarded.left_most_child.parent = discarded.parent
                    discarded.parent.left_most_child = discarded.left_most_child
                else:
                    if discarded.next_sibling is not None:
                        discarded.next_sibling.parent = discarded.parent
                    discarded.parent.left_most_child = discarded.next_sibling

    def _propagate_error(self, discarded: DataNode) -> None:
        discarded.minerrorleft -= discarded.data
        discarded.maxerrorleft -= discarded.data
        discarded.minerrorright += discarded.data
        discarded.maxerrorright += discarded.data
        if discarded.left_most_child is not None:
            self._propagate_error_down(discarded.left_most_child, discarded)
        if discarded.parent is None:
            # C-kernel compares, not min()/max() (see merge_error)
            min_error = (
                discarded.minerrorleft
                if discarded.minerrorleft < discarded.minerrorright
                else discarded.minerrorright
            )
            max_error = (
                discarded.maxerrorleft
                if discarded.maxerrorleft > discarded.maxerrorright
                else discarded.maxerrorright
            )
            if discarded.front is None:
                sibling = discarded.previous_sibling
                while sibling.previous_sibling is not None:
                    sibling = sibling.previous_sibling
                sibling.front.merge_error(min_error, max_error)
                # NOTE: the reference never sets errorhanging=true (latent bug:
                # FrontlineNode.errorhanging is only ever false), so merged
                # errors are never re-read in computeErrorValues; preserved.
            else:
                discarded.front.merge_error(min_error, max_error)
        else:
            self._propagate_error_up(discarded.parent)

    def _propagate_error_up(self, parent: DataNode | None) -> None:
        necessary = True
        while necessary and parent is not None:
            necessary = parent.compute_error_values(None)
            if necessary:
                self.error_heap.remove(parent)
                parent.compute_ma()
                self.error_heap.add(parent)
            parent = parent.parent

    def _propagate_error_down(self, descendant: DataNode, ancestor: DataNode) -> None:
        self.error_heap.remove(descendant)
        if descendant.ancestor_relationship(ancestor) == LEFT:
            descendant.minerrorleft -= ancestor.data
            descendant.maxerrorleft -= ancestor.data
            descendant.minerrorright -= ancestor.data
            descendant.maxerrorright -= ancestor.data
        else:
            descendant.minerrorleft += ancestor.data
            descendant.maxerrorleft += ancestor.data
            descendant.minerrorright += ancestor.data
            descendant.maxerrorright += ancestor.data
        descendant.compute_ma()
        self.error_heap.add(descendant)
        if descendant.left_most_child is not None:
            self._propagate_error_down(descendant.left_most_child, ancestor)
        if descendant.next_sibling is not None:
            self._propagate_error_down(descendant.next_sibling, ancestor)

    # -- native build export ----------------------------------------------
    def _export_arrays(self) -> dict | None:
        """Compact array state in the C exporter's layout (the wire format
        of the fast serde path).  Drains a live C context into ``_arrays``;
        returns ``None`` when only the materialized Python graph exists (the
        caller then falls back to the pickled-graph serde)."""
        if self._arrays is not None:
            return self._arrays
        if self._native is None:
            return None
        lib, ctx = self._native
        self._native = None
        try:
            nn_c = ctypes.c_int64()
            nf_c = ctypes.c_int64()
            counter_c = ctypes.c_int64()
            data1_c = ctypes.c_double()
            lib.wv_export_counts(
                ctx,
                ctypes.byref(nn_c),
                ctypes.byref(nf_c),
                ctypes.byref(counter_c),
                ctypes.byref(data1_c),
            )
            nn, nf = nn_c.value, nf_c.value
            nodes_f64 = np.empty(max(nn, 1) * 6, dtype=np.float64)
            nodes_i64 = np.empty(max(nn, 1), dtype=np.int64)
            nodes_i32 = np.empty(max(nn, 1) * 7, dtype=np.int32)
            fronts_f64 = np.empty(max(nf, 1) * 3, dtype=np.float64)
            fronts_i32 = np.empty(max(nf, 1) * 3, dtype=np.int32)

            def _p(a):
                return a.ctypes.data_as(ctypes.c_void_p)

            chain_end = int(
                lib.wv_export(
                    ctx, _p(nodes_f64), _p(nodes_i64), _p(nodes_i32),
                    _p(fronts_f64), _p(fronts_i32),
                )
            )
        finally:
            lib.wv_free(ctx)
        self._arrays = {
            "nn": nn,
            "nf": nf,
            "chain_end": chain_end,
            "counter": int(counter_c.value),
            "data1": float(data1_c.value),
            "nodes_f64": nodes_f64[: nn * 6],
            "nodes_i64": nodes_i64[:nn],
            "nodes_i32": nodes_i32[: nn * 7],
            "fronts_f64": fronts_f64[: nf * 3],
            "fronts_i32": fronts_i32[: nf * 3],
        }
        self.stream_element_counter = int(counter_c.value)
        self._data1 = float(data1_c.value)
        return self._arrays

    def _ensure_python(self) -> None:
        """Materialize the Python DataNode/FrontlineNode graph from the C
        build context or a loaded compact-array state (no-op when the graph
        already exists).  Called before padding, queries and graph-walking
        serde; further updates after an export continue on the pure-Python
        path."""
        arrs = self._export_arrays()
        if arrs is None:
            return
        self._arrays = None
        nn, nf, chain_end = arrs["nn"], arrs["nf"], arrs["chain_end"]
        nodes_f64, nodes_i64 = arrs["nodes_f64"], arrs["nodes_i64"]
        nodes_i32 = arrs["nodes_i32"]
        fronts_f64, fronts_i32 = arrs["fronts_f64"], arrs["fronts_i32"]
        counter_c = ctypes.c_int64(arrs["counter"])
        data1_c = ctypes.c_double(arrs["data1"])

        nodes = [DataNode.__new__(DataNode) for _ in range(nn)]
        fronts = [
            FrontlineNode(float(fronts_f64[i * 3]), int(fronts_i32[i * 3]))
            for i in range(nf)
        ]
        for i, nd in enumerate(nodes):
            f = i * 6
            nd.data = float(nodes_f64[f])
            nd.maxerrorleft = float(nodes_f64[f + 1])
            nd.minerrorleft = float(nodes_f64[f + 2])
            nd.maxerrorright = float(nodes_f64[f + 3])
            nd.minerrorright = float(nodes_f64[f + 4])
            nd.maxabserror = float(nodes_f64[f + 5])
            nd.orderinlevel = int(nodes_i64[i])
            v = i * 7
            nd.level = int(nodes_i32[v])
            nd.parent = nodes[nodes_i32[v + 1]] if nodes_i32[v + 1] >= 0 else None
            nd.left_most_child = (
                nodes[nodes_i32[v + 2]] if nodes_i32[v + 2] >= 0 else None
            )
            nd.next_sibling = (
                nodes[nodes_i32[v + 3]] if nodes_i32[v + 3] >= 0 else None
            )
            nd.previous_sibling = (
                nodes[nodes_i32[v + 4]] if nodes_i32[v + 4] >= 0 else None
            )
            nd.reltoparent = int(nodes_i32[v + 5])
            nd.front = fronts[nodes_i32[v + 6]] if nodes_i32[v + 6] >= 0 else None
        for i, fr in enumerate(fronts):
            fr.positiveerror = float(fronts_f64[i * 3 + 1])
            fr.negativeerror = float(fronts_f64[i * 3 + 2])
            hc = int(fronts_i32[i * 3 + 1])
            fr.hung_child = nodes[hc] if hc >= 0 else None
        chain = fronts[:chain_end]
        for a, b in zip(chain, chain[1:]):
            a.next = b
            b.prev = a
        self.frontline_bottom = chain[0] if chain else None
        self.frontline_top = chain[-1] if chain else None
        self.stream_element_counter = int(counter_c.value)
        self._data1 = float(data1_c.value)
        heap = _ErrorHeap()
        for nd in nodes:
            heap.add(nd)
        self.error_heap = heap

    def __del__(self):
        native = getattr(self, "_native", None)
        if native is not None:
            lib, ctx = native
            try:
                lib.wv_free(ctx)
            except Exception:
                pass

    def __reduce__(self):
        # raw pickling (vs the normal to_bytes path) must not capture the
        # ctypes context or the id()-keyed heap index; state_dict drains a
        # live native context into the compact-array form
        return (
            _rebuild_wavelet,
            (type(self), self._ctor_args(), self.state_dict(), self.partition_value),
        )

    # -- padding (:200-256) ------------------------------------------------
    def padding(self) -> None:
        self._ensure_python()
        if self.stream_element_counter % 2 == 1:
            self._update_one(self._data1)
            self.stream_element_counter -= 1
        if self.frontline_bottom is self.frontline_top:
            self.rootnode = self.frontline_top
        else:
            max_level = self.frontline_top.level + 1
            average = 0.0
            previous_coefficient = None
            first_iteration = True
            fb = self.frontline_bottom
            while fb.next is not None:
                lower_hanging = fb.hung_child
                upper_hanging = fb.next.hung_child
                average = (
                    (fb.value + fb.next.value) / 2
                    if first_iteration
                    else (average + fb.next.value) / 2
                )
                coefficient_value = fb.next.value - average
                level = fb.next.level + 1
                order_in_level = 2 ** (max_level - level)
                new_coefficient = DataNode(
                    coefficient_value, level, order_in_level, upper_hanging, None
                )
                if upper_hanging is not None:
                    upper_hanging.front = None
                    if previous_coefficient is not None:
                        upper_hanging.next_sibling = previous_coefficient
                        previous_coefficient.previous_sibling = upper_hanging
                        previous_coefficient.set_parent(new_coefficient)
                    elif lower_hanging is not None:
                        upper_hanging.next_sibling = lower_hanging
                        lower_hanging.previous_sibling = upper_hanging
                else:
                    if previous_coefficient is not None:
                        previous_coefficient.set_parent(new_coefficient)
                        new_coefficient.left_most_child = previous_coefficient
                    elif lower_hanging is not None:
                        lower_hanging.set_parent(new_coefficient)
                        new_coefficient.left_most_child = lower_hanging
                if lower_hanging is not None:
                    lower_hanging.front = None
                previous_coefficient = new_coefficient
                fb = fb.next
                self.frontline_bottom = fb
                fb.prev = None
                first_iteration = False
            root = FrontlineNode(average, max_level)
            root.hung_child = previous_coefficient
            previous_coefficient.front = root
            if previous_coefficient.left_most_child is not None:
                previous_coefficient.left_most_child.front = None
            self.rootnode = root

    # -- queries (:76-194) -------------------------------------------------
    def point_query(self, index: int) -> float:
        self._ensure_python()
        if index > self.stream_element_counter or index < 0:
            raise ValueError(f"index out of range: {index}")
        if self.rootnode is None:
            self.padding()
        return self._point_query(index, self.rootnode.hung_child, self.rootnode.value)

    def _point_query(self, index: int, current: DataNode, parent_average: float) -> float:
        current_average = parent_average
        while current.index_in_subtree(index, self.rootnode.level) == 0:
            current = current.next_sibling
            if current is None:
                return current_average
        if current.index_in_subtree(index, self.rootnode.level) == 1:
            current_average += current.data
        else:
            current_average -= current.data
        if current.left_most_child is None:
            return current_average
        return self._point_query(index, current.left_most_child, current_average)

    def range_sum_query(self, left_index: int, right_index: int) -> float:
        self._ensure_python()
        if right_index < left_index:
            raise ValueError("rightIndex has to be greater than leftIndex.")
        if (
            left_index > self.stream_element_counter
            or left_index < 0
            or right_index > self.stream_element_counter
            or right_index < 0
        ):
            raise ValueError(f"index out of range: [{left_index}, {right_index}]")
        if self.rootnode is None:
            self.padding()
        range_sum = (right_index - left_index + 1) * self.rootnode.value
        return self._range_traversal(left_index, right_index, self.rootnode.hung_child, range_sum)

    def _range_traversal(self, li: int, ri: int, current: DataNode, ancestor_contribution: float) -> float:
        max_level = self.rootnode.level
        on_left = current
        on_right = current
        while on_left is not None and on_left.index_in_subtree(li, max_level) == 0:
            on_left = on_left.next_sibling
        while on_right is not None and on_right.index_in_subtree(ri, max_level) == 0:
            on_right = on_right.next_sibling
        left_contrib = right_contrib = 0.0
        if on_left is not None:
            left_contrib = (
                on_left.count_left_leaves(li, ri, max_level)
                - on_left.count_right_leaves(li, ri, max_level)
            ) * on_left.data
        if on_right is not None and on_right is not on_left:
            right_contrib = (
                on_right.count_left_leaves(li, ri, max_level)
                - on_right.count_right_leaves(li, ri, max_level)
            ) * on_right.data
        current_value = ancestor_contribution + left_contrib + right_contrib
        if on_left is not None and on_right is not None and on_left is not on_right:
            if on_left.left_most_child is not None:
                current_value = self._range_traversal(li, ri, on_left.left_most_child, current_value)
            if on_right.left_most_child is not None:
                current_value += self._range_traversal(li, ri, on_right.left_most_child, 0.0)
        else:
            if on_left is not None and on_left.left_most_child is not None:
                current_value = self._range_traversal(li, ri, on_left.left_most_child, current_value)
            if on_right is not None and on_right is not on_left and on_right.left_most_child is not None:
                current_value = self._range_traversal(li, ri, on_right.left_most_child, current_value)
        return current_value

    # -- serde: pickle the whole linked structure --------------------------
    def _ctor_args(self):
        return (self.size,)

    def state_dict(self):
        import pickle
        import sys

        # fast path: a native build (or a relayed compact state) serializes
        # as five flat numpy arrays — no recursive graph pickle.  The graph
        # is materialized lazily on the receiving side at first query; pure
        # relay hops (build -> unify -> assemble) never pay materialization.
        arrs = self._export_arrays()
        if arrs is not None:
            return {"arrays": arrs}
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old, 100000))
        try:
            payload = pickle.dumps(
                (
                    self.stream_element_counter,
                    self.frontline_bottom,
                    self.frontline_top,
                    self.rootnode,
                    self._data1,
                    [(e[0], e[1]) for e in self.error_heap._live.values()],
                ),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        finally:
            sys.setrecursionlimit(old)
        return {"payload": payload}

    def load_state(self, state):
        import pickle

        if self._native is not None:
            lib, ctx = self._native
            self._native = None
            lib.wv_free(ctx)
        self._arrays = None
        if "arrays" in state:
            a = state["arrays"]
            self._arrays = a
            self.stream_element_counter = int(a["counter"])
            self._data1 = float(a["data1"])
            self.frontline_bottom = None
            self.frontline_top = None
            self.rootnode = None
            self.error_heap = _ErrorHeap()
            return
        (
            self.stream_element_counter,
            self.frontline_bottom,
            self.frontline_top,
            self.rootnode,
            self._data1,
            live_nodes,
        ) = pickle.loads(state["payload"])
        self.error_heap = _ErrorHeap()
        for node, alive in live_nodes:
            if alive:
                self.error_heap.add(node)


class NonMergeableSynopsisManager(Synopsis):
    """core/.../synopsis/NonMergeableSynopsisManager.java:5-36."""

    order_based = True

    def __init__(self):
        super().__init__()
        self.unified_synopses: list = []
        self.elements_processed = 0

    def get_synopsis_index(self, stream_index: int) -> int:
        raise NotImplementedError

    def add_synopsis(self, synopsis) -> None:
        self.unified_synopses.append(synopsis)

    def unify(self, other: "NonMergeableSynopsisManager") -> None:
        self.elements_processed += other.elements_processed
        self.unified_synopses.extend(other.unified_synopses)


class DistributedWaveletsManager(NonMergeableSynopsisManager):
    """Round-robin wavelet manager (DistributedWaveletsManager.java:7-81)."""

    def __init__(self, parallelism: int = 0, unified_synopses: list | None = None):
        super().__init__()
        self.parallelism = parallelism
        if unified_synopses is not None:
            self.unified_synopses = list(unified_synopses)

    def _ctor_args(self):
        return (0, None)

    def state_dict(self):
        return self._state([w.to_bytes() for w in self.unified_synopses])

    def _state(self, wavelets: list[bytes]) -> dict:
        return {
            "parallelism": self.parallelism,
            "elements_processed": self.elements_processed,
            "wavelets": wavelets,
        }

    @classmethod
    def payload(cls, parts: list[tuple[bytes, int]]) -> bytes:
        """``to_bytes()`` of a manager over already serialized sub-wavelets,
        given as (bytes, element count) pairs; the bytes are relayed as
        they are, never deserialized."""
        mgr = cls(len(parts))
        mgr.elements_processed = sum(n for _, n in parts)
        return mgr._dumps(mgr._state([b for b, _ in parts]))

    def load_state(self, state):
        self.parallelism = state["parallelism"]
        self.elements_processed = state["elements_processed"]
        self.unified_synopses = [
            Synopsis.from_bytes(b) for b in state["wavelets"]
        ]

    def get_synopsis_index(self, stream_index: int) -> int:
        return stream_index % self.parallelism

    def get_local_index(self, index: int) -> int:
        return index // self.parallelism

    def add_synopsis(self, synopsis: WaveletSynopsis) -> None:
        self.parallelism += 1
        self.elements_processed += synopsis.stream_element_counter
        super().add_synopsis(synopsis)

    def unify(self, other: "NonMergeableSynopsisManager") -> None:
        # deviation from the reference base unify (which extends the list
        # WITHOUT updating parallelism, silently breaking the i % parallelism
        # index contract): route through add_synopsis so parallelism and
        # elements_processed track the actual wavelet count
        for s in other.unified_synopses:
            self.add_synopsis(s)

    def point_query(self, index: int) -> float:
        wavelet = self.unified_synopses[self.get_synopsis_index(index)]
        local = self.get_local_index(index)
        # the == boundary is the reference's quirk (local == counter is
        # admitted); an EMPTY sub-wavelet (a builder that saw no rows of a
        # sparse window — the streaming engine pads those) has nothing to
        # query and returns the same -1.0 no-element sentinel instead of
        # crashing in padding()
        if local > wavelet.stream_element_counter or wavelet.stream_element_counter == 0:
            return -1.0
        return wavelet.point_query(local)

    def range_sum_query(self, left_index: int, right_index: int) -> float:
        range_sum = 0.0
        left_local = self.get_local_index(left_index)
        right_local = self.get_local_index(right_index)
        for i in range(self.parallelism):
            pl = left_local
            if i + left_local * self.parallelism < left_index:
                pl += 1
            pr = right_local
            if i + right_local * self.parallelism > right_index:
                pr -= 1
            if pl > pr or self.unified_synopses[i].stream_element_counter == 0:
                # this wavelet holds no element of the range (sparse window /
                # narrow range / padded-empty builder); the reference would
                # throw here — skip instead, contributing 0
                continue
            range_sum += self.unified_synopses[i].range_sum_query(pl, pr)
        return range_sum


class SliceWaveletsManager(NonMergeableSynopsisManager):
    """Slice-offset wavelet manager (SliceWaveletsManager.java:8-99)."""

    def _ctor_args(self):
        return (None,)

    def state_dict(self):
        return {
            "slice_start_indices": list(self.slice_start_indices),
            "slices_per_window": self.slices_per_window,
            "elements_processed": self.elements_processed,
            "wavelets": [w.to_bytes() for w in self.unified_synopses],
        }

    def load_state(self, state):
        self.slice_start_indices = list(state["slice_start_indices"])
        self.slices_per_window = state["slices_per_window"]
        self.elements_processed = state["elements_processed"]
        self.unified_synopses = [
            Synopsis.from_bytes(b) for b in state["wavelets"]
        ]

    def __init__(self, unified_synopses: list | None = None):
        super().__init__()
        self.slice_start_indices: list[int] = []
        self.slices_per_window = 0
        if unified_synopses:
            self.unified_synopses = list(unified_synopses)
            self.slices_per_window = len(self.unified_synopses)
            self.elements_processed = 0
            for s in self.unified_synopses:
                self.slice_start_indices.append(self.elements_processed)
                self.elements_processed += s.stream_element_counter

    def get_synopsis_index(self, stream_index: int) -> int:
        index = -1
        for start in self.slice_start_indices:
            if start > stream_index:
                return index
            index += 1
        return index

    def add_synopsis(self, synopsis: WaveletSynopsis) -> None:
        self.slices_per_window += 1
        self.elements_processed += synopsis.stream_element_counter
        if not self.unified_synopses:
            self.slice_start_indices.append(0)
        else:
            self.slice_start_indices.append(
                self.slice_start_indices[-1]
                + self.unified_synopses[-1].stream_element_counter
            )
        super().add_synopsis(synopsis)

    def unify(self, other: "SliceWaveletsManager") -> None:
        for s in other.unified_synopses:
            self.add_synopsis(s)

    def point_query(self, index: int) -> float:
        mi = self.get_synopsis_index(index)
        return self.unified_synopses[mi].point_query(index - self.slice_start_indices[mi])

    def range_sum_query(self, left_index: int, right_index: int) -> float:
        lm = self.get_synopsis_index(left_index)
        rm = self.get_synopsis_index(right_index)
        total = 0.0
        for i in range(lm, rm + 1):
            prev = self.slice_start_indices[i]
            ll = left_index - prev if i == lm else 0
            rl = (
                right_index - prev
                if i == rm
                else self.slice_start_indices[i + 1] - prev - 1
            )
            if rl < ll:
                # an EMPTY slice (duplicate start indices: a slice with no
                # rows) holds no element of the range; the reference would
                # throw inside the inner rangeSumQuery — skip instead (the
                # same deviation DistributedWaveletsManager documents)
                continue
            total += self.unified_synopses[i].range_sum_query(ll, rl)
        return total
