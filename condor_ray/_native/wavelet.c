/* Incremental Haar-wavelet maintenance kernel — a literal C transcription of
 * the pure-Python build loop in condor_ray/synopses/wavelets.py (itself a
 * re-expression of the reference WaveletSynopsis.java:47-500 semantics).
 *
 * Contract: given the same element stream, this kernel produces a tree state
 * BIT-IDENTICAL to the Python implementation (same double-precision operation
 * order, same heap poll order).  The Python side exports the final state via
 * wv_export_* and rebuilds its DataNode/FrontlineNode graph for padding,
 * queries and serialization, so everything outside the O(n) build loop stays
 * in Python.
 *
 * Error heap: an indexed binary min-heap holding exactly the live nodes.
 * Each node stores its heap slot (`hpos`), so an error update re-keys the
 * node in place (one sift up or down) and a poll never meets a stale
 * entry.  Poll order
 * (mirrors _ErrorHeap): the compareTo key is (maxabserror, level,
 * orderinlevel), with a NaN maxabserror ordered after every number.
 * (level, orderinlevel) identifies a live tree position, so the key is
 * unique among live nodes and the poll order does not depend on the heap's
 * shape.  Compiled with plain -O2 (SSE2 doubles, no -ffast-math) so float
 * arithmetic matches CPython exactly.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REL_LEFT 0
#define REL_RIGHT 1
#define REL_NONE 2
#define NIL (-1)

typedef struct {
    double data;
    double maxerrorleft, minerrorleft, maxerrorright, minerrorright;
    double maxabserror;
    int64_t orderinlevel;
    int32_t level;
    int32_t front;             /* front index or NIL */
    int32_t left_most_child, parent, next_sibling, previous_sibling;
    int32_t reltoparent;
    int32_t hpos;              /* slot in the error heap or NIL */
    uint8_t alive;
} Node;

typedef struct {
    double value;
    double positiveerror, negativeerror;
    int32_t level;
    int32_t hung_child;        /* node idx or NIL */
    int32_t next, prev;        /* front idx or NIL */
    uint8_t errorhanging;      /* reference latent bug: never set true */
} Front;

typedef struct {
    double key;                /* maxabserror */
    int64_t order;             /* orderinlevel */
    int32_t level;
    int32_t node;
} HeapEnt;

typedef struct {
    int64_t size;              /* coefficient budget */
    int64_t counter;           /* stream_element_counter */
    double data1;              /* pending odd element */
    Node *nodes;
    int32_t ncap, nalloc;
    int32_t *freelist;
    int32_t nfree, fcap_free;
    Front *fronts;             /* never recycled: freed only at wv_free */
    int32_t fcap, fn;
    int32_t frontline_bottom, frontline_top;
    HeapEnt *heap;
    int64_t hlen, hcap;
} Ctx;

/* ---------------- error heap (indexed) ---------------- */

static inline int ent_lt(const HeapEnt *a, const HeapEnt *b) {
    if (a->key < b->key) return 1;
    if (a->key > b->key) return 0;
    /* equal keys, or a NaN on either side: a NaN polls after every number */
    int a_nan = a->key != a->key, b_nan = b->key != b->key;
    if (a_nan != b_nan) return b_nan;
    if (a->level != b->level) return a->level < b->level;
    return a->order < b->order;
}

static inline void heap_set(Ctx *c, int64_t i, HeapEnt e) {
    c->heap[i] = e;
    c->nodes[e.node].hpos = (int32_t)i;
}

static void sift_up(Ctx *c, int64_t i) {
    HeapEnt e = c->heap[i];
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (!ent_lt(&e, &c->heap[p])) break;
        heap_set(c, i, c->heap[p]);
        i = p;
    }
    heap_set(c, i, e);
}

static void sift_down(Ctx *c, int64_t i) {
    HeapEnt e = c->heap[i];
    int64_t n = c->hlen;
    for (;;) {
        int64_t l = 2 * i + 1, r = l + 1, m = i;
        if (l < n && ent_lt(&c->heap[l], &e)) m = l;
        if (r < n && ent_lt(&c->heap[r], (m == i) ? &e : &c->heap[m])) m = r;
        if (m == i) break;
        heap_set(c, i, c->heap[m]);
        i = m;
    }
    heap_set(c, i, e);
}

static void eh_add(Ctx *c, int32_t ni) {
    if (c->hlen == c->hcap) {
        c->hcap = c->hcap ? c->hcap * 2 : 1024;
        c->heap = (HeapEnt *)realloc(c->heap, (size_t)c->hcap * sizeof(HeapEnt));
    }
    Node *nd = &c->nodes[ni];
    HeapEnt e = {nd->maxabserror, nd->orderinlevel, nd->level, ni};
    c->heap[c->hlen] = e;
    sift_up(c, c->hlen++);
}

/* The node's maxabserror changed: move its entry to its new place, the
 * effect of the reference's remove(node) + add(node).  Only the descendants
 * and ancestors of the node being discarded are re-keyed; they are live, and
 * every live node except the one just polled is in the heap. */
static void eh_rekey(Ctx *c, int32_t ni) {
    int64_t i = c->nodes[ni].hpos;
    c->heap[i].key = c->nodes[ni].maxabserror;
    if (i > 0 && ent_lt(&c->heap[i], &c->heap[(i - 1) >> 1]))
        sift_up(c, i);
    else
        sift_down(c, i);
}

static int32_t eh_poll(Ctx *c) {
    if (c->hlen == 0) return NIL;
    int32_t top = c->heap[0].node;
    c->nodes[top].hpos = NIL;
    if (--c->hlen > 0) {
        heap_set(c, 0, c->heap[c->hlen]);
        sift_down(c, 0);
    }
    return top;
}

/* ---------------- arenas ---------------- */

static int32_t front_new(Ctx *c, double value, int32_t level) {
    if (c->fn == c->fcap) {
        c->fcap = c->fcap ? c->fcap * 2 : 256;
        c->fronts = (Front *)realloc(c->fronts, (size_t)c->fcap * sizeof(Front));
    }
    int32_t fi = c->fn++;
    Front *f = &c->fronts[fi];
    f->value = value;
    f->positiveerror = 0.0;
    f->negativeerror = 0.0;
    f->level = level;
    f->hung_child = NIL;
    f->next = NIL;
    f->prev = NIL;
    f->errorhanging = 0;
    return fi;
}

static inline int ancestor_relationship(const Node *nd, const Node *anc) {
    if ((2 * nd->orderinlevel - 1) <
        ((2 * anc->orderinlevel - 1) << (anc->level - nd->level)))
        return REL_LEFT;
    return REL_RIGHT;
}

/* set_parent over the sibling chain starting at ni (DataNode.set_parent) */
static void set_parent_chain(Ctx *c, int32_t ni, int32_t pi) {
    while (ni != NIL) {
        Node *nd = &c->nodes[ni];
        nd->parent = pi;
        if (pi != NIL) {
            Node *p = &c->nodes[pi];
            if (p->level > nd->level)
                nd->reltoparent = ancestor_relationship(nd, p);
        } else {
            nd->reltoparent = REL_NONE;
        }
        ni = nd->next_sibling;
    }
}

static int32_t node_new(Ctx *c, double data, int32_t level, int64_t order,
                        int32_t left_child, int32_t prev_sib) {
    int32_t ni;
    if (c->nfree > 0) {
        ni = c->freelist[--c->nfree];
    } else {
        if (c->nalloc == c->ncap) {
            c->ncap = c->ncap ? c->ncap * 2 : 2048;
            c->nodes = (Node *)realloc(c->nodes, (size_t)c->ncap * sizeof(Node));
        }
        ni = c->nalloc++;
    }
    Node *nd = &c->nodes[ni];
    nd->data = data;
    nd->maxerrorleft = nd->minerrorleft = 0.0;
    nd->maxerrorright = nd->minerrorright = 0.0;
    nd->maxabserror = 0.0;
    nd->level = level;
    nd->orderinlevel = order;
    nd->front = NIL;
    nd->left_most_child = NIL;
    nd->parent = NIL;
    nd->reltoparent = REL_NONE;
    nd->next_sibling = NIL;
    nd->previous_sibling = NIL;
    nd->alive = 1;
    nd->hpos = NIL;
    if (left_child != NIL) {
        nd->left_most_child = left_child;
        set_parent_chain(c, left_child, ni);
    }
    if (prev_sib != NIL) {
        nd->previous_sibling = prev_sib;
        c->nodes[prev_sib].next_sibling = ni;
    }
    return ni;
}

static void node_free(Ctx *c, int32_t ni) {
    c->nodes[ni].alive = 0;
    if (c->nfree == c->fcap_free) {
        c->fcap_free = c->fcap_free ? c->fcap_free * 2 : 1024;
        c->freelist = (int32_t *)realloc(c->freelist,
                                         (size_t)c->fcap_free * sizeof(int32_t));
    }
    c->freelist[c->nfree++] = ni;
}

/* ---------------- error maintenance ---------------- */

/* DataNode.compute_error_values; pf = prev_frontline idx or NIL */
static int compute_error_values(Ctx *c, int32_t ni, int32_t pf) {
    Node *nd = &c->nodes[ni];
    double oldmaxl = nd->maxerrorleft, oldminl = nd->minerrorleft;
    double oldmaxr = nd->maxerrorright, oldminr = nd->minerrorright;
    double maxl = oldmaxl, minl = oldminl, maxr = oldmaxr, minr = oldminr;
    int32_t ch = nd->left_most_child;
    while (ch != NIL) {
        Node *cn = &c->nodes[ch];
        double maxerr = cn->maxerrorleft;
        if (cn->maxerrorright > maxerr) maxerr = cn->maxerrorright;
        double minerr = cn->minerrorleft;
        if (cn->minerrorright < minerr) minerr = cn->minerrorright;
        if (cn->reltoparent == REL_LEFT) {
            if (maxerr > maxl) maxl = maxerr;
            if (minerr < minl) minl = minerr;
        } else if (cn->reltoparent == REL_RIGHT) {
            if (maxerr > maxr) maxr = maxerr;
            if (minerr < minr) minr = minerr;
        }
        ch = cn->next_sibling;
    }
    if (pf != NIL && c->fronts[pf].errorhanging) {
        if (c->fronts[pf].positiveerror > maxl) maxl = c->fronts[pf].positiveerror;
        if (c->fronts[pf].negativeerror < minl) minl = c->fronts[pf].negativeerror;
    }
    nd->maxerrorleft = maxl;
    nd->minerrorleft = minl;
    nd->maxerrorright = maxr;
    nd->minerrorright = minr;
    return !(oldmaxl == maxl && oldminl == minl && oldmaxr == maxr && oldminr == minr);
}

static void compute_ma(Ctx *c, int32_t ni) {
    Node *nd = &c->nodes[ni];
    double d = nd->data;
    double a = nd->maxerrorleft - d;
    if (a < 0.0) a = -a;
    double b = nd->minerrorleft - d;
    if (b < 0.0) b = -b;
    double left = a > b ? a : b;
    a = nd->maxerrorright + d;
    if (a < 0.0) a = -a;
    b = nd->minerrorright + d;
    if (b < 0.0) b = -b;
    double right = a > b ? a : b;
    nd->maxabserror = left > right ? left : right;
}

/* ---------------- climbup (WaveletSynopsis._climbup) ---------------- */

static void climbup(Ctx *c, double data1, double data2) {
    int32_t frontline = c->frontline_bottom;
    int32_t prev_frontline = NIL;
    int64_t order = c->counter;
    double current_average = 0.0;
    double average = 0.0;
    int32_t level = 0;
    int first_loop = 1;
    while (order > 0 && order % 2 == 0) {
        int32_t child = NIL;
        int32_t sibling = NIL;
        double value;
        order /= 2;
        level += 1;
        if (first_loop) {
            average = (data1 + data2) / 2;
            value = data1 - average;
            first_loop = 0;
        } else {
            average = (average + current_average) / 2;
            value = current_average - average;
            child = c->fronts[prev_frontline].hung_child;
            c->fronts[prev_frontline].hung_child = NIL;
        }
        if (frontline != NIL && c->fronts[frontline].level == level) {
            sibling = c->fronts[frontline].hung_child;
            if (sibling != NIL) {
                while (c->nodes[sibling].next_sibling != NIL)
                    sibling = c->nodes[sibling].next_sibling;
            }
        }
        int32_t current = node_new(c, value, level, order, child, sibling);
        compute_error_values(c, current, prev_frontline);
        compute_ma(c, current);
        eh_add(c, current);
        if (prev_frontline != NIL) {
            if (child != NIL) c->nodes[child].front = NIL;
            if (frontline != NIL) c->fronts[frontline].prev = NIL;
        }
        int32_t new_frontline = frontline;
        if (frontline == NIL) {
            new_frontline = front_new(c, average, level);
            c->frontline_top = new_frontline;
            c->frontline_bottom = new_frontline;
        } else if (c->fronts[frontline].level != level) {
            new_frontline = front_new(c, average, level);
            c->frontline_bottom = new_frontline;
            c->fronts[new_frontline].next = frontline;
            c->fronts[frontline].prev = new_frontline;
        } else {
            current_average = c->fronts[frontline].value;
        }
        if (c->fronts[new_frontline].hung_child == NIL) {
            c->fronts[new_frontline].hung_child = current;
            c->nodes[current].front = new_frontline;
        }
        prev_frontline = frontline;
        frontline = c->fronts[new_frontline].next;
    }
}

/* ---------------- error propagation (discard path) ---------------- */

static void propagate_error_down(Ctx *c, int32_t di, int32_t ai) {
    /* sibling recursion unrolled into a loop; child recursion bounded by
     * tree height */
    while (di != NIL) {
        Node *d = &c->nodes[di];
        double ad = c->nodes[ai].data;
        if (ancestor_relationship(d, &c->nodes[ai]) == REL_LEFT) {
            d->minerrorleft -= ad;
            d->maxerrorleft -= ad;
            d->minerrorright -= ad;
            d->maxerrorright -= ad;
        } else {
            d->minerrorleft += ad;
            d->maxerrorleft += ad;
            d->minerrorright += ad;
            d->maxerrorright += ad;
        }
        compute_ma(c, di);
        eh_rekey(c, di);
        if (d->left_most_child != NIL)
            propagate_error_down(c, d->left_most_child, ai);
        di = d->next_sibling;
    }
}

static void propagate_error_up(Ctx *c, int32_t pi) {
    int necessary = 1;
    while (necessary && pi != NIL) {
        necessary = compute_error_values(c, pi, NIL);
        if (necessary) {
            compute_ma(c, pi);
            eh_rekey(c, pi);
        }
        pi = c->nodes[pi].parent;
    }
}

static void propagate_error(Ctx *c, int32_t di) {
    Node *d = &c->nodes[di];
    d->minerrorleft -= d->data;
    d->maxerrorleft -= d->data;
    d->minerrorright += d->data;
    d->maxerrorright += d->data;
    if (d->left_most_child != NIL)
        propagate_error_down(c, d->left_most_child, di);
    if (d->parent == NIL) {
        double min_error = d->minerrorleft < d->minerrorright ? d->minerrorleft
                                                             : d->minerrorright;
        double max_error = d->maxerrorleft > d->maxerrorright ? d->maxerrorleft
                                                              : d->maxerrorright;
        int32_t fi;
        if (d->front == NIL) {
            int32_t sib = d->previous_sibling;
            while (sib != NIL && c->nodes[sib].previous_sibling != NIL)
                sib = c->nodes[sib].previous_sibling;
            fi = (sib != NIL) ? c->nodes[sib].front : NIL;
        } else {
            fi = d->front;
        }
        if (fi != NIL) {
            Front *f = &c->fronts[fi];
            if (max_error > f->positiveerror) f->positiveerror = max_error;
            if (min_error < f->negativeerror) f->negativeerror = min_error;
        }
    } else {
        propagate_error_up(c, d->parent);
    }
}

/* ---------------- discard (WaveletSynopsis._discard) ---------------- */

static void discard_two(Ctx *c) {
    for (int k = 0; k < 2; k++) {
        int32_t di = eh_poll(c);
        if (di == NIL) continue;
        propagate_error(c, di);
        Node *d = &c->nodes[di];
        if (d->left_most_child != NIL) {
            set_parent_chain(c, d->left_most_child, d->parent);
            int32_t child = d->left_most_child;
            if (d->front != NIL) {
                c->nodes[child].front = d->front;
                c->fronts[d->front].hung_child = child;
            }
            if (d->previous_sibling != NIL) {
                c->nodes[d->previous_sibling].next_sibling = child;
                c->nodes[child].previous_sibling = d->previous_sibling;
            }
            if (d->next_sibling != NIL) {
                while (c->nodes[child].next_sibling != NIL)
                    child = c->nodes[child].next_sibling;
                c->nodes[child].next_sibling = d->next_sibling;
                c->nodes[d->next_sibling].previous_sibling = child;
            }
        } else {
            if (d->front != NIL) {
                if (d->next_sibling != NIL)
                    c->nodes[d->next_sibling].front = d->front;
                c->fronts[d->front].hung_child = d->next_sibling;
            }
            if (d->previous_sibling != NIL)
                c->nodes[d->previous_sibling].next_sibling = d->next_sibling;
            if (d->next_sibling != NIL)
                c->nodes[d->next_sibling].previous_sibling = d->previous_sibling;
        }
        if (d->parent != NIL && c->nodes[d->parent].left_most_child == di) {
            if (d->left_most_child != NIL) {
                c->nodes[d->left_most_child].parent = d->parent;
                c->nodes[d->parent].left_most_child = d->left_most_child;
            } else {
                if (d->next_sibling != NIL)
                    c->nodes[d->next_sibling].parent = d->parent;
                c->nodes[d->parent].left_most_child = d->next_sibling;
            }
        }
        node_free(c, di);
    }
}

/* ---------------- public API ---------------- */

void *wv_new(int64_t size) {
    Ctx *c = (Ctx *)calloc(1, sizeof(Ctx));
    c->size = size;
    c->frontline_bottom = NIL;
    c->frontline_top = NIL;
    return c;
}

void wv_free(void *ctx) {
    Ctx *c = (Ctx *)ctx;
    if (!c) return;
    free(c->nodes);
    free(c->freelist);
    free(c->fronts);
    free(c->heap);
    free(c);
}

void wv_update(void *ctx, const double *vals, int64_t n) {
    Ctx *c = (Ctx *)ctx;
    for (int64_t i = 0; i < n; i++) {
        c->counter++;
        if (c->counter % 2 == 0) {
            climbup(c, c->data1, vals[i]);
            if (c->counter > c->size) discard_two(c);
        } else {
            c->data1 = vals[i];
        }
    }
}

/* Export: counts first, then compact arrays.  Node indices are remapped to
 * 0..n_nodes-1 in arena order; front indices to 0..n_fronts-1 in
 * bottom-to-top frontline order (orphaned fronts referenced only via a
 * node's `front` field keep their own slots after the chain). */

int64_t wv_export_counts(void *ctx, int64_t *n_nodes, int64_t *n_fronts,
                         int64_t *counter, double *data1) {
    Ctx *c = (Ctx *)ctx;
    int64_t nn = 0;
    for (int32_t i = 0; i < c->nalloc; i++)
        if (c->nodes[i].alive) nn++;
    /* fronts: chain from bottom, then any extra fronts referenced by nodes */
    int64_t nf = 0;
    for (int32_t fi = c->frontline_bottom; fi != NIL; fi = c->fronts[fi].next)
        nf++;
    /* count orphaned-but-referenced fronts (not on the chain) */
    char *onchain = (char *)calloc((size_t)(c->fn ? c->fn : 1), 1);
    for (int32_t fi = c->frontline_bottom; fi != NIL; fi = c->fronts[fi].next)
        onchain[fi] = 1;
    for (int32_t i = 0; i < c->nalloc; i++) {
        if (c->nodes[i].alive && c->nodes[i].front != NIL &&
            !onchain[c->nodes[i].front]) {
            onchain[c->nodes[i].front] = 2;
        }
    }
    for (int32_t i = 0; i < c->fn; i++)
        if (onchain[i] == 2) nf++;
    free(onchain);
    *n_nodes = nn;
    *n_fronts = nf;
    *counter = c->counter;
    *data1 = c->data1;
    return 0;
}

/* nodes_f64: [data, maxel, minel, maxer, miner, maxabs] * n_nodes
 * nodes_i64: [orderinlevel] * n_nodes
 * nodes_i32: [level, parent, lmc, next_sib, prev_sib, reltoparent, front] * n
 * fronts_f64: [value, poserr, negerr] * n_fronts
 * fronts_i32: [level, hung_child, on_chain] * n_fronts
 * chain fronts come first (bottom..top, linked in order); orphans follow. */
int64_t wv_export(void *ctx, double *nodes_f64, int64_t *nodes_i64,
                  int32_t *nodes_i32, double *fronts_f64, int32_t *fronts_i32) {
    Ctx *c = (Ctx *)ctx;
    int32_t maxn = c->nalloc ? c->nalloc : 1;
    int32_t maxf = c->fn ? c->fn : 1;
    int32_t *nremap = (int32_t *)malloc((size_t)maxn * sizeof(int32_t));
    int32_t *fremap = (int32_t *)malloc((size_t)maxf * sizeof(int32_t));
    for (int32_t i = 0; i < c->nalloc; i++) nremap[i] = NIL;
    for (int32_t i = 0; i < c->fn; i++) fremap[i] = NIL;
    int32_t nn = 0;
    for (int32_t i = 0; i < c->nalloc; i++)
        if (c->nodes[i].alive) nremap[i] = nn++;
    int32_t nf = 0;
    for (int32_t fi = c->frontline_bottom; fi != NIL; fi = c->fronts[fi].next)
        fremap[fi] = nf++;
    int32_t chain_end = nf;
    for (int32_t i = 0; i < c->nalloc; i++) {
        if (!c->nodes[i].alive) continue;
        int32_t fi = c->nodes[i].front;
        if (fi != NIL && fremap[fi] == NIL) fremap[fi] = nf++;
    }
    for (int32_t i = 0; i < c->nalloc; i++) {
        Node *nd = &c->nodes[i];
        if (!nd->alive) continue;
        int32_t o = nremap[i];
        double *f = &nodes_f64[(int64_t)o * 6];
        f[0] = nd->data;
        f[1] = nd->maxerrorleft;
        f[2] = nd->minerrorleft;
        f[3] = nd->maxerrorright;
        f[4] = nd->minerrorright;
        f[5] = nd->maxabserror;
        nodes_i64[o] = nd->orderinlevel;
        int32_t *v = &nodes_i32[(int64_t)o * 7];
        v[0] = nd->level;
        v[1] = nd->parent == NIL ? NIL : nremap[nd->parent];
        v[2] = nd->left_most_child == NIL ? NIL : nremap[nd->left_most_child];
        v[3] = nd->next_sibling == NIL ? NIL : nremap[nd->next_sibling];
        v[4] = nd->previous_sibling == NIL ? NIL : nremap[nd->previous_sibling];
        v[5] = nd->reltoparent;
        v[6] = nd->front == NIL ? NIL : fremap[nd->front];
    }
    for (int32_t i = 0; i < c->fn; i++) {
        if (fremap[i] == NIL) continue;
        Front *fr = &c->fronts[i];
        int32_t o = fremap[i];
        fronts_f64[(int64_t)o * 3 + 0] = fr->value;
        fronts_f64[(int64_t)o * 3 + 1] = fr->positiveerror;
        fronts_f64[(int64_t)o * 3 + 2] = fr->negativeerror;
        fronts_i32[(int64_t)o * 3 + 0] = fr->level;
        fronts_i32[(int64_t)o * 3 + 1] =
            (fr->hung_child == NIL || !c->nodes[fr->hung_child].alive)
                ? NIL
                : nremap[fr->hung_child];
        fronts_i32[(int64_t)o * 3 + 2] = (o < chain_end) ? 1 : 0;
    }
    free(nremap);
    free(fremap);
    return (int64_t)chain_end;
}
