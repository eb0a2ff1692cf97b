"""Text analysis over ``documents``: token counting, quality scoring,
language ID, document fingerprinting (SURVEY training-data mandate).

Token/char stats, quality features and language-ID are SQL-replicable
(their DuckDB twins live beside them: ``quality_sql``, ``lang_id_sql``);
fingerprints are deterministic but not SQL-expressible (rows-only driver
check + accuracy/pytest oracles).
"""

from __future__ import annotations


import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# tiny per-language stopword lists for the n-gram/stopword heuristic
_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "for", "on"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "mit", "ein", "zu", "den"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "des", "du", "pour"},
    "es": {"el", "la", "los", "las", "es", "un", "una", "de", "que", "por"},
}


def token_stats(ds):
    """doc_id, n_tokens (single-space split), n_chars — SQL-replicable."""

    def stats(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        n_tokens = pc.list_value_length(pc.split_pattern(text, " "))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": n_tokens.cast(pa.int64()),
                "n_chars": pc.utf8_length(text).cast(pa.int64()),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


# ASCII-whitespace word boundary, matching the SQL oracle exactly: DuckDB's
# RE2 \s is [\t\n\f\r ] while Rust-regex \S excludes ALL Unicode whitespace
# (U+00A0 etc.), which would silently diverge on non-ASCII corpora
_WORD_RE = r"[^\t\n\f\r ]+"

# GPT-2-style pretokenizer, restricted to the RE2/Rust-regex COMMON SUBSET:
# the original's trailing-whitespace lookahead `\s+(?!\S)` is unsupported in
# both engines, and `\s` itself diverges (RE2: ASCII; Rust: Unicode), so the
# whitespace class is explicit and whitespace runs are simply not counted as
# tokens.  Contractions first (leftmost-first alternation in both engines),
# then optional-leading-space letter runs, digit runs, punctuation runs.
_BPE_TOKEN_RE = (
    r"'(?:s|t|re|ve|m|ll|d)"
    r"| ?\p{L}+"
    r"| ?\p{N}+"
    r"| ?[^\t\n\f\r \p{L}\p{N}]+"
)


def bpe_token_stats(ds, text_col: str = "text", id_col: str = "doc_id"):
    """BPE-ish token counting: one vectorized pass with the GPT-2-style
    pretokenizer regex (``_BPE_TOKEN_RE``) — the standard budget proxy when
    the real tokenizer is too slow for a first corpus pass.  Exactly
    SQL-replicable (``bpe_token_sql``); a real BPE tokenizer slots into the
    same stage shape."""

    def stage(batch: pa.Table) -> pa.Table:
        from ..runtime import worker_polars

        pl = worker_polars()

        out_schema = pa.schema(
            [(id_col, pa.int64()), ("n_bpe_tokens", pa.int64())]
        )
        if batch.num_rows == 0 or text_col not in batch.schema.names:
            return out_schema.empty_table()
        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        s = pl.from_arrow(text).fill_null("")
        return pa.table(
            {
                id_col: batch[id_col],
                "n_bpe_tokens": pa.array(
                    s.str.count_matches(_BPE_TOKEN_RE)
                    .to_numpy()
                    .astype(np.int64)
                ),
            }
        ).cast(out_schema)

    return ds.map_batches(stage, batch_format="pyarrow")


def bpe_token_sql(docs_table: str = "documents") -> str:
    """DuckDB twin of :func:`bpe_token_stats` (same RE2-compatible
    pretokenizer; single quotes doubled for the SQL literal)."""
    pat = _BPE_TOKEN_RE.replace("'", "''")
    return f"""
SELECT doc_id,
       len(regexp_extract_all(coalesce(text, ''), '{pat}'))::BIGINT
         AS n_bpe_tokens
FROM {docs_table}"""


def top_k_words(ds, k: int = 100, n_parts: int | None = None):
    """Exact corpus-wide top-k word frequencies (vocabulary / boilerplate
    analysis).  Returns (word, n) — ties broken (n DESC, word ASC).

    Scale design: per-batch partial counts (one polars tokenize + explode
    + group_by per batch) collapse each batch to its distinct words before
    the shuffle; the exchange then carries (word, partial_count) rows
    hash-partitioned into O(cores) groups where one vectorized group_by
    sums and takes a per-part top-k; the driver merges n_parts * k
    candidate rows (tiny).  Per-part top-k is safe because a word lives in
    exactly one hash partition — no cross-part count splitting."""

    from ..runtime import default_n_parts, worker_polars

    n_parts = n_parts or default_n_parts()

    def partial_counts(batch: pa.Table) -> pa.Table:
        pl = worker_polars()

        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = (
            pl.from_arrow(text)
            .str.extract_all(_WORD_RE)
            .explode()
            .drop_nulls()
        )
        counts = words.value_counts(name="n")
        word = counts.to_series(0)
        part = (word.hash(seed=3) % n_parts).cast(pl.Int32)
        return pa.table(
            {
                "word": word.to_arrow(),
                "n": counts["n"].cast(pl.Int64).to_arrow(),
                "part": part.to_arrow(),
            }
        )

    def part_topk(g: pd.DataFrame) -> pd.DataFrame:
        pl = worker_polars()

        out = (
            pl.from_pandas(g[["word", "n"]])
            .group_by("word")
            .agg(pl.col("n").sum())
            .sort(["n", "word"], descending=[True, False])
            .head(k)
        )
        return out.to_pandas()

    cand = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_topk, batch_format="pandas")
        .to_pandas()  # bounded: n_parts * k rows
    )
    cand = cand.sort_values(
        ["n", "word"], ascending=[False, True], kind="mergesort"
    ).head(k)
    import ray.data as rd

    return rd.from_pandas(cand.reset_index(drop=True))


def heavy_hitters_cm(
    ds,
    k: int = 100,
    local_m: int = 1024,
    width: int = 65536,
    depth: int = 5,
    seed: int = 7,
    merge_groups: int = 8,
):
    """Approximate top-k word frequencies via a Count-Min sketch — the
    synopsis-powered sibling of ``top_k_words`` for when the vocabulary is
    too large for an exact (word, count) shuffle.

    Per batch: one vectorized tokenize + local count, a PARTIAL CM over
    every occurrence (grouped ingest: hash once per distinct word, scatter
    with counts), and the batch's local top-``local_m`` words as candidate
    heavy hitters.  Partials merge in a two-level tree (``merge_groups``
    Ray groups, then one driver merge of ``merge_groups`` sparse sketches);
    the candidate union (bounded by batches x local_m) is scored against
    the merged sketch and the top-k by (estimate DESC, word ASC) returned.

    Guarantee: a true heavy hitter is in some batch's local top-m with
    overwhelming probability (its mass concentrates), and CM overestimates
    only — so recall loss comes from candidate pruning, not the sketch.
    With width >> vocabulary the estimates are exact and the result equals
    ``top_k_words`` (the driver-gate oracle uses that regime)."""
    import ray.data as rd

    from ..hashing import java_string_hash_array
    from ..runtime import worker_polars
    from ..synopses import CountMinSketch
    from ..synopses.base import Synopsis

    def partial(batch: pa.Table) -> pa.Table:
        pl = worker_polars()

        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = (
            pl.from_arrow(text).str.extract_all(_WORD_RE).explode().drop_nulls()
        )
        counts = words.value_counts(name="n")
        word = counts.to_series(0)
        n = counts["n"].to_numpy().astype(np.int64)
        wl = word.to_list()
        cm = CountMinSketch(width, depth, seed)
        keys = java_string_hash_array(wl)
        cm.update_weighted(keys, n)
        # deterministic candidate cut: break count ties by word — polars'
        # parallel value_counts emits tied rows in nondeterministic order,
        # so a bare argsort(-n) made the survivors at the local_m boundary
        # vary run to run
        top = np.lexsort((np.asarray(wl, dtype=object), -n))[:local_m]
        # merge-group assignment only spreads the reduce; CM merge is
        # commutative so any deterministic spread works
        g = int(word.hash(seed=5).sum() % merge_groups) if len(wl) else 0
        return pa.table(
            {
                "g": pa.array([g], type=pa.int32()),
                "payload": pa.array([cm.to_bytes()]),
                "candidates": pa.array(
                    [[wl[i] for i in top]], type=pa.list_(pa.string())
                ),
            }
        )

    def merge_group(df: pd.DataFrame) -> pd.DataFrame:
        merged = None
        cands: set[str] = set()
        for payload, cand in zip(df["payload"], df["candidates"]):
            cm = Synopsis.from_bytes(payload)
            merged = cm if merged is None else merged.merge(cm)
            cands.update(cand)
        return pd.DataFrame(
            {
                "payload": [merged.to_bytes()],
                "candidates": [sorted(cands)],
            }
        )

    parts = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=4096)
        .groupby("g")
        .map_groups(merge_group, batch_format="pandas")
        .to_pandas()  # bounded: merge_groups rows
    )
    merged = None
    cands: set[str] = set()
    for payload, cand in zip(parts["payload"], parts["candidates"]):
        cm = Synopsis.from_bytes(payload)
        merged = cm if merged is None else merged.merge(cm)
        cands.update(cand)
    if merged is None or not cands:
        return rd.from_pandas(
            pd.DataFrame(
                {"word": pd.Series(dtype=object), "n": pd.Series(dtype=np.int64)}
            )
        )
    cand_list = sorted(cands)
    keys = java_string_hash_array(cand_list)
    est = np.array([merged.query(int(h)) for h in keys], dtype=np.int64)
    order = np.lexsort((np.array(cand_list, dtype=object), -est))[:k]
    return rd.from_pandas(
        pd.DataFrame(
            {
                "word": np.array(cand_list, dtype=object)[order],
                "n": est[order],
            }
        )
    )


# ASCII punctuation class, spelled out so polars (Rust regex) and DuckDB
# (RE2) agree: \w is unicode-aware in Rust but ASCII in RE2
_PUNCT_RE = r"[^0-9A-Za-z_\t\n\f\r ]"


def _quality_kernel(pl, s) -> dict:
    """Per-batch quality features over a null-filled polars Series[str].
    SHARED between ``quality_scores`` (whose DuckDB twin is bit-identical
    — keep the arithmetic exactly as written) and ``clean_corpus``'s fused
    gate; returns numpy arrays keyed by output column name."""
    stop_en = sorted(_STOPWORDS["en"])
    words = s.str.extract_all(_WORD_RE)
    nw = words.list.len().fill_null(0).to_numpy().astype(np.int64)
    wc = (
        words.list.eval(pl.element().str.len_chars())
        .list.sum()
        .fill_null(0)
        .to_numpy()
        .astype(np.int64)
    )
    stop = (
        words.list.eval(
            pl.element().str.to_lowercase().is_in(stop_en)
        )
        .list.sum()
        .fill_null(0)
        .to_numpy()
        .astype(np.int64)
    )
    n_chars = s.str.len_chars().to_numpy().astype(np.int64)
    n_punct = s.str.count_matches(_PUNCT_RE).to_numpy().astype(np.int64)

    mean_len = np.where(nw > 0, wc / np.maximum(nw, 1), 0.0)
    punct_ratio = n_punct / np.maximum(n_chars, 1)
    stop_ratio = stop / np.maximum(nw, 1)
    quality = (
        np.minimum(nw / 50.0, 1.0) * 0.4
        + np.maximum(np.minimum(1.0 - punct_ratio * 5.0, 1.0), 0.0) * 0.3
        + np.minimum(mean_len / 8.0, 1.0) * 0.3
    )
    return {
        "n_words": nw,
        "mean_word_len": mean_len,
        "punct_ratio": punct_ratio,
        "stopword_ratio": stop_ratio,
        "quality": quality,
    }


def quality_scores(ds):
    """Per-doc quality features, fully vectorized and SQL-twinnable.

    n_words / mean_word_len / punct_ratio / stopword_ratio come from one
    polars regex pass per batch; ``quality`` combines them with exact
    IEEE-reproducible arithmetic (integer counts, single divisions,
    min/max clips — the SQL twin computes bit-identical doubles)."""

    def stage(batch: pa.Table) -> pa.Table:
        from ..runtime import worker_polars

        pl = worker_polars()

        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        # null text ≡ '' (both sides: quality_sql coalesces identically) —
        # without it, a single null row turns len_chars' null into
        # INT64_MIN via .astype(int64) and the quality row is garbage
        q = _quality_kernel(pl, pl.from_arrow(text).fill_null(""))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_words": pa.array(q["n_words"]),
                "mean_word_len": pa.array(q["mean_word_len"].astype(np.float64)),
                "punct_ratio": pa.array(q["punct_ratio"].astype(np.float64)),
                "stopword_ratio": pa.array(q["stopword_ratio"].astype(np.float64)),
                "quality": pa.array(q["quality"].astype(np.float64)),
            }
        )

    return ds.map_batches(stage, batch_format="pyarrow")


def quality_sql(docs_table: str = "documents") -> str:
    """DuckDB twin of :func:`quality_scores` (bit-identical doubles: same
    integer counts, same single divisions, same min/max clips, same
    left-associated combination)."""
    stop = ", ".join(f"'{w}'" for w in sorted(_STOPWORDS["en"]))
    return rf"""
WITH src AS (
  SELECT doc_id, COALESCE(text, '') AS text FROM {docs_table}
), toks AS (
  SELECT doc_id,
         regexp_extract_all(text, '[^\t\n\f\r ]+') AS w,
         length(text) AS n_chars,
         length(regexp_extract_all(text, '[^0-9A-Za-z_\t\n\f\r ]')) AS n_punct
  FROM src
), counts AS (
  SELECT doc_id,
         CAST(len(w) AS BIGINT) AS n_words,
         COALESCE(list_sum(list_transform(w, x -> length(x))), 0) AS word_chars,
         COALESCE(list_sum(list_transform(w,
             x -> CASE WHEN lower(x) IN ({stop}) THEN 1 ELSE 0 END)), 0) AS stop_hits,
         n_chars, n_punct
  FROM toks
), ratios AS (
  SELECT doc_id, n_words,
         CASE WHEN n_words > 0
              THEN CAST(word_chars AS DOUBLE) / n_words ELSE 0.0 END AS mean_word_len,
         CAST(n_punct AS DOUBLE) / greatest(n_chars, 1) AS punct_ratio,
         CAST(stop_hits AS DOUBLE) / greatest(n_words, 1) AS stopword_ratio
  FROM counts
)
SELECT doc_id, n_words, mean_word_len, punct_ratio, stopword_ratio,
       least(CAST(n_words AS DOUBLE) / 50.0, 1.0) * 0.4
       + greatest(least(1.0 - punct_ratio * 5.0, 1.0), 0.0) * 0.3
       + least(mean_word_len / 8.0, 1.0) * 0.3 AS quality
FROM ratios"""


_LANGS = ("en", "de", "fr", "es")  # argmax tie-break order (first max wins)


def language_id(ds):
    """Vectorized language ID: one polars pass per batch (CJK regex probe on
    the first 200 chars, stopword hits per language over the first 80
    lowercased words, first-max argmax) — equal to a
    per-text loop over the same rules (the tests' scalar oracle) and
    SQL-twinnable (``lang_id_sql``)."""
    stops = {lang: sorted(_STOPWORDS[lang]) for lang in _LANGS}

    def stage(batch: pa.Table) -> pa.Table:
        from ..runtime import worker_polars

        pl = worker_polars()

        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        s = pl.from_arrow(text).fill_null("")  # null text ≡ '' (SQL twin too)
        ws = (
            s.str.extract_all(_WORD_RE)
            .list.slice(0, 80)
            .list.eval(pl.element().str.to_lowercase())
        )
        hits = np.stack(
            [
                ws.list.eval(pl.element().is_in(stops[lang]))
                .list.sum()
                .fill_null(0)
                .to_numpy()
                .astype(np.int64)
                for lang in _LANGS
            ]
        )
        pred = np.array(_LANGS, dtype=object)[np.argmax(hits, axis=0)]
        is_zh = (
            s.str.slice(0, 200).str.contains(r"[一-鿿]").to_numpy()
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang_pred": pa.array(np.where(is_zh, "zh", pred)),
            }
        )

    return ds.map_batches(stage, batch_format="pyarrow")


def lang_id_sql(docs_table: str = "documents") -> str:
    """DuckDB twin of :func:`language_id` (same tokenizer, same stopword
    hits, same sequential first-max argmax)."""
    stop = {
        lang: ", ".join(f"'{w}'" for w in sorted(_STOPWORDS[lang]))
        for lang in _LANGS
    }
    return rf"""
WITH src AS (
  SELECT doc_id, COALESCE(text, '') AS text FROM {docs_table}
), t AS (
  SELECT doc_id,
         regexp_matches(substring(text, 1, 200), '[一-鿿]') AS is_zh,
         list_transform(list_slice(regexp_extract_all(text, '[^\t\n\f\r ]+'), 1, 80),
                        w -> lower(w)) AS ws
  FROM src
), hits AS (
  SELECT doc_id, is_zh,
         COALESCE(list_sum(list_transform(ws, w -> CASE WHEN w IN ({stop['en']}) THEN 1 ELSE 0 END)), 0) AS h_en,
         COALESCE(list_sum(list_transform(ws, w -> CASE WHEN w IN ({stop['de']}) THEN 1 ELSE 0 END)), 0) AS h_de,
         COALESCE(list_sum(list_transform(ws, w -> CASE WHEN w IN ({stop['fr']}) THEN 1 ELSE 0 END)), 0) AS h_fr,
         COALESCE(list_sum(list_transform(ws, w -> CASE WHEN w IN ({stop['es']}) THEN 1 ELSE 0 END)), 0) AS h_es
  FROM t
)
SELECT doc_id,
       CASE WHEN is_zh THEN 'zh'
            WHEN h_de > h_en THEN (
              CASE WHEN h_fr > h_de THEN (CASE WHEN h_es > h_fr THEN 'es' ELSE 'fr' END)
                   WHEN h_es > h_de THEN 'es' ELSE 'de' END)
            WHEN h_fr > h_en THEN (CASE WHEN h_es > h_fr THEN 'es' ELSE 'fr' END)
            WHEN h_es > h_en THEN 'es'
            ELSE 'en' END AS lang_pred
FROM hits"""


class Fingerprinter:
    """Winnowing document fingerprints: rolling (Rabin-Karp) hashes over
    character k-grams, window-minimum selection (robust local fingerprints
    for plagiarism/near-dup detection)."""

    def __init__(self, k: int = 8, window: int = 4):
        self.k = k
        self.window = window
        self.base = 257
        self.mod = (1 << 31) - 1

    def fingerprints(self, text: str) -> np.ndarray:
        k, base, mod = self.k, self.base, self.mod
        data = text.encode("utf-8", "ignore")
        if len(data) < k:
            import hashlib

            h = int.from_bytes(
                hashlib.blake2b(data, digest_size=4).digest(), "big"
            )
            return np.asarray([h & 0x7FFFFFFF], dtype=np.int64)
        b = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
        n = len(b) - k + 1
        # vectorized Horner evaluation of all k-gram hashes at once: k (=8)
        # passes of (H*base + byte) % mod over shifted byte views replaces the
        # per-character rolling recurrence (same residues mod p)
        hashes = np.zeros(n, dtype=np.int64)
        for j in range(k):
            hashes = (hashes * base + b[j : j + n]) % mod
        w = self.window
        if n <= w:
            return np.asarray([hashes.min()], dtype=np.int64)
        mins = np.lib.stride_tricks.sliding_window_view(hashes, w).min(axis=1)
        return np.unique(mins).astype(np.int64)

    def stats_csr(
        self, data: np.ndarray, off: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batch kernel: utf-8 bytes of ALL docs concatenated (``data``,
        uint8) + CSR ``off`` (len n_docs+1) -> (n_fingerprints, fingerprint_min)
        per doc.  Semantics bit-identical to :meth:`fingerprints` (the scalar
        path survives as the test oracle): the k Horner passes run ONCE over
        the whole flat byte array (grams crossing doc boundaries are computed
        then discarded, ~k bytes of waste per doc), window minima are w-1
        shifted ``np.minimum`` passes, and per-doc unique counts come from one
        composite-key sort (seg_id<<31 | hash keeps segments contiguous)."""
        k, w, base, mod = self.k, self.window, self.base, self.mod
        n_docs = len(off) - 1
        lens = off[1:] - off[:-1]
        n_fp = np.ones(n_docs, dtype=np.int64)
        fp_min = np.zeros(n_docs, dtype=np.int64)
        if n_docs == 0:
            return n_fp, fp_min

        # sub-k docs: blake2b has no batch form; this loop runs only over the
        # (rare) < k-byte subset, never the whole batch
        import hashlib

        for i in np.flatnonzero(lens < k):
            h = int.from_bytes(
                hashlib.blake2b(
                    data[off[i] : off[i + 1]].tobytes(), digest_size=4
                ).digest(),
                "big",
            )
            fp_min[i] = h & 0x7FFFFFFF

        ldocs = np.flatnonzero(lens >= k)
        if len(ldocs) == 0:
            return n_fp, fp_min
        n_roll = len(data) - k + 1
        b64 = data.astype(np.int64)
        g = np.zeros(n_roll, dtype=np.int64)
        for j in range(k):
            g *= base
            g += b64[j : j + n_roll]
            g %= mod

        counts = (lens[ldocs] - k + 1).astype(np.int64)  # grams per long doc
        hoff = np.concatenate(([0], np.cumsum(counts)))
        intra = np.arange(hoff[-1], dtype=np.int64) - np.repeat(hoff[:-1], counts)
        h = g[np.repeat(off[:-1][ldocs], counts) + intra]
        # min over window-mins == min over the doc's gram hashes (every gram
        # index lies in some window), and for n <= w the single fingerprint
        # IS the segment min — one reduceat covers both cases
        fp_min[ldocs] = np.minimum.reduceat(h, hoff[:-1])

        big = counts > w  # docs emitting > 1 window
        if big.any():
            P = len(h) - w + 1
            mins_glob = h[:P].copy()
            for j in range(1, w):
                np.minimum(mins_glob, h[j : j + P], out=mins_glob)
            wcounts = np.where(big, counts - w + 1, 0)
            woff = np.concatenate(([0], np.cumsum(wcounts)))
            wintra = np.arange(woff[-1], dtype=np.int64) - np.repeat(
                woff[:-1], wcounts
            )
            mins = mins_glob[np.repeat(hoff[:-1], wcounts) + wintra]
            seg = np.repeat(np.arange(len(ldocs), dtype=np.int64), wcounts)
            key = (seg << 31) | mins  # hash < 2^31-1, so the key sort keeps
            key.sort()  # segments contiguous and in order
            d = np.empty(len(key), dtype=bool)
            d[0] = True
            np.not_equal(key[1:], key[:-1], out=d[1:])
            n_fp[ldocs[big]] = np.add.reduceat(d, woff[:-1][big])
        return n_fp, fp_min

    def __call__(self, batch: pa.Table) -> pa.Table:
        data, off = _utf8_csr(batch["text"])
        n_fp, fp_min = self.stats_csr(data, off)
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "n_fingerprints": pa.array(n_fp),
                "fingerprint_min": pa.array(fp_min),
            }
        )


def _utf8_csr(col) -> tuple[np.ndarray, np.ndarray]:
    """Arrow string column -> (flat utf-8 bytes, int64 CSR offsets), zero-copy
    from the Arrow value buffer (Arrow strings ARE utf-8; the scalar path's
    ``encode("utf-8", "ignore")`` is an identity on them)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if arr.null_count:
        arr = arr.fill_null("")
    odt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    off = np.frombuffer(arr.buffers()[1], dtype=odt)[
        arr.offset : arr.offset + len(arr) + 1
    ].astype(np.int64)
    buf = arr.buffers()[2]
    data = (
        np.frombuffer(buf, dtype=np.uint8)
        if buf is not None
        else np.empty(0, dtype=np.uint8)
    )
    return data, off


def document_fingerprints(ds, concurrency: int = 2):
    return ds.map_batches(
        Fingerprinter, batch_format="pyarrow", concurrency=concurrency
    )


def repetition_scores(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Gopher-style within-document repetition signals, one streaming
    ``map_batches`` pass (no shuffle, no per-row Python):

    - ``dup_line_frac``: fraction of lines ('\\n'-split) that are repeats
      of an earlier-or-later identical line (0 when every line is unique).
    - ``dup_line_char_frac``: fraction of line characters living in lines
      that occur more than once (all occurrences count, the Gopher rule).
    - ``top_bigram_frac``: occurrences of the most frequent word 2-gram
      divided by the total 2-gram count (COUNT-based; Gopher's variant
      weighs by characters — the count form is hash-computable without
      materializing gram strings and ranks documents near-identically).
      Docs with fewer than two words score 0.

    Vectorized shape: lines explode once per batch into a (doc, line)
    polars group_by (bounded by the batch's line count); 2-gram counts
    reuse the dedup ``shingle_hash_csr`` kernel + one lexsort run-length
    pass.  Typical use: filter ``dup_line_frac > 0.3`` or
    ``top_bigram_frac > 0.2`` before training."""

    def stage(batch: pa.Table) -> pa.Table:
        from ..runtime import worker_polars

        pl = worker_polars()

        out_schema = pa.schema(
            [
                (id_col, pa.int64()),
                ("dup_line_frac", pa.float64()),
                ("dup_line_char_frac", pa.float64()),
                ("top_bigram_frac", pa.float64()),
            ]
        )
        if batch.num_rows == 0 or text_col not in batch.schema.names:
            return out_schema.empty_table()
        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        r = _repetition_kernel(pl, pl.from_arrow(text).fill_null(""))
        return pa.table(
            {
                id_col: batch[id_col],
                "dup_line_frac": pa.array(
                    r["dup_line_frac"].astype(np.float64)
                ),
                "dup_line_char_frac": pa.array(
                    r["dup_line_char_frac"].astype(np.float64)
                ),
                "top_bigram_frac": pa.array(
                    r["top_bigram_frac"].astype(np.float64)
                ),
            }
        ).cast(out_schema)

    return ds.map_batches(stage, batch_format="pyarrow")


def _repetition_kernel(pl, s) -> dict:
    """Per-batch repetition fractions over a null-filled polars
    Series[str] — SHARED by ``repetition_scores`` and ``clean_corpus``'s
    fused gate."""
    from .dedup import shingle_hash_csr

    n = len(s)

    # --- duplicate-line fractions: explode to (doc, line), count per
    # (doc, line) group, fold back per doc -------------------------------
    lines = s.str.split("\n")
    per_doc = lines.list.len().fill_null(0).to_numpy().astype(np.int64)
    df = pl.DataFrame(
        {
            "doc": pl.Series(
                np.repeat(np.arange(n, dtype=np.int64), per_doc)
            ),
            "line": lines.explode(),
        }
    )
    g = (
        df.group_by(["doc", "line"])
        .agg(pl.len().alias("c"))
        .with_columns(
            pl.col("line").str.len_chars().cast(pl.Int64).alias("L")
        )
    )
    doc = g["doc"].to_numpy()
    c = g["c"].to_numpy().astype(np.int64)
    L = g["L"].to_numpy().astype(np.int64)
    dup_lines = np.bincount(doc, weights=np.where(c > 1, c, 0), minlength=n)
    total_lines = np.bincount(doc, weights=c, minlength=n)
    dup_chars = np.bincount(
        doc, weights=np.where(c > 1, c * L, 0), minlength=n
    )
    total_chars = np.bincount(doc, weights=c * L, minlength=n)
    dup_line_frac = np.where(
        total_lines > 0, dup_lines / np.maximum(total_lines, 1), 0.0
    )
    dup_char_frac = np.where(
        total_chars > 0, dup_chars / np.maximum(total_chars, 1), 0.0
    )

    # --- top word-bigram count fraction ----------------------------------
    sh, off = shingle_hash_csr(s, 2)
    counts = np.diff(off)
    drep = np.repeat(np.arange(n, dtype=np.int64), counts)
    o = np.lexsort((sh, drep))
    dr, hs = drep[o], sh[o]
    new_run = np.concatenate(
        ([True], (dr[1:] != dr[:-1]) | (hs[1:] != hs[:-1]))
    ) if len(dr) else np.zeros(0, bool)
    rid = np.cumsum(new_run) - 1 if len(dr) else np.zeros(0, np.int64)
    run_len = np.bincount(rid) if len(dr) else np.zeros(0, np.int64)
    run_doc = dr[new_run] if len(dr) else np.zeros(0, np.int64)
    top = np.zeros(n, dtype=np.int64)
    np.maximum.at(top, run_doc, run_len)
    # short docs (< 2 words) collapse to ONE pseudo-gram in the CSR
    # kernel — their "top bigram" is meaningless, score 0 by contract
    words = s.str.count_matches(r"[^\t\n\f\r ]+").to_numpy().astype(np.int64)
    n_bigrams = np.maximum(words - 1, 0)
    top_frac = np.where(n_bigrams > 0, top / np.maximum(n_bigrams, 1), 0.0)
    return {
        "dup_line_frac": dup_line_frac,
        "dup_line_char_frac": dup_char_frac,
        "top_bigram_frac": top_frac,
    }


def repetition_sql(docs_table: str = "documents") -> str:
    """DuckDB twin of :func:`repetition_scores` — bit-identical doubles.

    Line fractions: per-(doc, line) counts via group-by (polars does the
    same explode + group), integer sums, one double division each.  Top
    bigram: the string-gram max count equals the kernel's hash-gram max
    count up to the documented ~1/2^64 per-pair collision odds (words
    contain no spaces, so joining with ' ' is injective)."""
    return rf"""
WITH rep_src AS (
  SELECT doc_id, COALESCE(text, '') AS text FROM {docs_table}
), rep_lines AS (
  SELECT doc_id, unnest(string_split(text, chr(10))) AS line FROM rep_src
), rep_lg AS (
  SELECT doc_id, count(*) AS c, length(line) AS L
  FROM rep_lines GROUP BY doc_id, line
), rep_linefrac AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN c > 1 THEN c ELSE 0 END) AS DOUBLE)
           / greatest(sum(c), 1) AS dup_line_frac,
         CASE WHEN sum(c * L) > 0
              THEN CAST(sum(CASE WHEN c > 1 THEN c * L ELSE 0 END) AS DOUBLE)
                   / greatest(sum(c * L), 1)
              ELSE 0.0 END AS dup_line_char_frac
  FROM rep_lg GROUP BY doc_id
), rep_w AS (
  SELECT doc_id, regexp_extract_all(text, '[^\t\n\f\r ]+') AS w FROM rep_src
), rep_bg AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(w)), i -> w[i] || ' ' || w[i+1]))
           AS gram
  FROM rep_w
), rep_top AS (
  SELECT doc_id, max(cnt) AS top
  FROM (SELECT doc_id, gram, count(*) AS cnt FROM rep_bg GROUP BY doc_id, gram)
  GROUP BY doc_id
)
SELECT s.doc_id, lf.dup_line_frac, lf.dup_line_char_frac,
       CASE WHEN len(w.w) >= 2
            THEN CAST(COALESCE(t.top, 0) AS DOUBLE) / greatest(len(w.w) - 1, 1)
            ELSE 0.0 END AS top_bigram_frac
FROM rep_src s
JOIN rep_linefrac lf USING (doc_id)
JOIN rep_w w ON w.doc_id = s.doc_id
LEFT JOIN rep_top t ON t.doc_id = s.doc_id"""


# PII patterns shared by redact_pii and its SQL twin.  RE2/Rust-regex
# COMMON SUBSET ONLY (no lookaround, no backrefs) so the polars pass and
# the DuckDB oracle are bit-identical; applied in list order (emails
# first — an address must not be half-eaten by the phone rule).
_PII_PATTERNS = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ip", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("phone", r"\+\d{7,15}|\b\d{3}[-.]\d{3,4}[-.]\d{4}\b", "<PHONE>"),
]


def _pii_kernel(pl, s) -> dict:
    """Per-batch PII redaction over a null-filled polars Series[str] —
    SHARED by ``redact_pii``, ``corpus_filters`` and ``clean_corpus``'s
    chain.  Returns count arrays (taken BEFORE each replacement, patterns
    in ``_PII_PATTERNS`` order) plus the redacted text as Arrow."""
    out: dict = {}
    for name, pat, token in _PII_PATTERNS:
        out[f"n_{name}"] = s.str.count_matches(pat).to_numpy().astype(np.int64)
        s = s.str.replace_all(pat, token)
    out["text"] = s.to_arrow()
    return out


def redact_pii(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Replace emails / IPv4 addresses / phone numbers with placeholder
    tokens — the standard scrub pass before training on scraped text.

    Returns ``(id_col, text, n_email, n_ip, n_phone)`` where ``text`` is
    the redacted body.  One vectorized polars pass per pattern (compiled
    once per worker by polars' regex cache); counts are taken BEFORE each
    replacement, and patterns apply in a fixed order so later rules never
    re-match inside an earlier rule's token.  Exactly SQL-replicable —
    ``redact_pii_sql`` is the DuckDB twin (same RE2-compatible patterns,
    same order).  Streaming map_batches: no shuffle, no per-row Python."""

    def stage(batch: pa.Table) -> pa.Table:
        from ..runtime import worker_polars

        pl = worker_polars()

        out_schema = pa.schema(
            [
                (id_col, pa.int64()),
                ("text", pa.string()),
                ("n_email", pa.int64()),
                ("n_ip", pa.int64()),
                ("n_phone", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or text_col not in batch.schema.names:
            return out_schema.empty_table()
        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        r = _pii_kernel(pl, pl.from_arrow(text).fill_null(""))
        return pa.table(
            {
                id_col: batch[id_col],
                "text": r["text"],
                "n_email": pa.array(r["n_email"]),
                "n_ip": pa.array(r["n_ip"]),
                "n_phone": pa.array(r["n_phone"]),
            }
        ).cast(out_schema)

    return ds.map_batches(stage, batch_format="pyarrow")


def redact_pii_sql(docs_table: str = "documents") -> str:
    """DuckDB twin of :func:`redact_pii` (same patterns, same order,
    counts before each replacement)."""
    (e_name, e_pat, e_tok), (i_name, i_pat, i_tok), (p_name, p_pat, p_tok) = (
        _PII_PATTERNS
    )

    def q(s: str) -> str:
        # DuckDB string literals are standard SQL: backslashes pass through
        # UNESCAPED (doubling them corrupts \b / \d), only quotes double
        return s.replace("'", "''")

    return f"""
    SELECT doc_id,
           regexp_replace(
             regexp_replace(
               regexp_replace(coalesce(text, ''), '{q(e_pat)}', '{e_tok}', 'g'),
               '{q(i_pat)}', '{i_tok}', 'g'),
             '{q(p_pat)}', '{p_tok}', 'g') AS text,
           len(regexp_extract_all(coalesce(text, ''), '{q(e_pat)}'))::BIGINT
             AS n_email,
           len(regexp_extract_all(
             regexp_replace(coalesce(text, ''), '{q(e_pat)}', '{e_tok}', 'g'),
             '{q(i_pat)}'))::BIGINT AS n_ip,
           len(regexp_extract_all(
             regexp_replace(
               regexp_replace(coalesce(text, ''), '{q(e_pat)}', '{e_tok}', 'g'),
               '{q(i_pat)}', '{i_tok}', 'g'),
             '{q(p_pat)}'))::BIGINT AS n_phone
    FROM {docs_table}
    """


# C4-style line rules shared by c4_line_filter and its SQL twin (RE2 /
# Rust-regex common subset, applied per '\n'-line):
_C4_WORD_RE = r"[^\t\n\f\r ]+"
_C4_TERMINAL_RE = r"[.!?]\s*$"
_C4_BOILER_RE = r"javascript|cookie|lorem ipsum"


def _c4_kernel(pl, s, min_words: int) -> dict:
    """Per-batch C4 line filtering over a null-filled polars Series[str] —
    SHARED by ``c4_line_filter``, ``corpus_filters`` and ``clean_corpus``'s
    chain.  Returns the re-joined surviving text (Arrow) + kept/dropped
    line counts."""
    lines = s.str.split("\n")
    kept = lines.list.eval(
        pl.element().filter(
            (pl.element().str.count_matches(_C4_WORD_RE) >= min_words)
            & pl.element().str.contains(_C4_TERMINAL_RE)
            & ~pl.element().str.to_lowercase().str.contains(_C4_BOILER_RE)
        )
    )
    n_all = lines.list.len().to_numpy().astype(np.int64)
    n_kept = kept.list.len().to_numpy().astype(np.int64)
    return {
        "text": kept.list.join("\n").to_arrow(),
        "n_lines_kept": n_kept,
        "n_lines_dropped": n_all - n_kept,
    }


def c4_line_filter(ds, text_col: str = "text", id_col: str = "doc_id",
                   min_words: int = 3):
    """C4-style boilerplate line removal: keep only lines with at least
    ``min_words`` words, ending in terminal punctuation (. ! ?), and not
    containing a boilerplate marker (javascript / cookie / lorem ipsum,
    case-insensitive) — the standard scrape-cleanup pass before training.

    Returns ``(id_col, text, n_lines_kept, n_lines_dropped)`` with the
    surviving lines re-joined by '\\n' (docs where every line drops keep
    an empty text).  One vectorized polars pass per batch
    (``list.eval``-filtered line lists — no per-row Python); exactly
    SQL-replicable, ``c4_line_filter_sql`` is the DuckDB twin."""

    def stage(batch: pa.Table) -> pa.Table:
        from ..runtime import worker_polars

        pl = worker_polars()

        out_schema = pa.schema(
            [
                (id_col, pa.int64()),
                ("text", pa.string()),
                ("n_lines_kept", pa.int64()),
                ("n_lines_dropped", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or text_col not in batch.schema.names:
            return out_schema.empty_table()
        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        r = _c4_kernel(pl, pl.from_arrow(text).fill_null(""), min_words)
        return pa.table(
            {
                id_col: batch[id_col],
                "text": r["text"],
                "n_lines_kept": pa.array(r["n_lines_kept"]),
                "n_lines_dropped": pa.array(r["n_lines_dropped"]),
            }
        ).cast(out_schema)

    return ds.map_batches(stage, batch_format="pyarrow")


def corpus_filters(ds, text_col: str = "text", id_col: str = "doc_id",
                   min_words: int = 3):
    """All per-doc scrub/filter SIGNALS in ONE streaming pass — the
    inspect-before-you-clean operator (``clean_corpus`` is the chained
    transform sibling).  Each signal is computed on the ORIGINAL text,
    independently, by the exact kernels the standalone operators use
    (``_c4_kernel``, ``_pii_kernel``, ``_repetition_kernel`` — no drift):

    - C4 line filter: ``c4_text`` (surviving lines re-joined),
      ``n_lines_kept`` / ``n_lines_dropped``;
    - PII redaction: ``pii_text`` (redacted body), ``n_email`` / ``n_ip``
      / ``n_phone``;
    - Gopher repetition: ``dup_line_frac`` / ``dup_line_char_frac`` /
      ``top_bigram_frac``.

    One tokenization per kernel instead of three corpus passes + two
    doc_id joins; no shuffle, no per-row Python.  The DuckDB twin is
    ``corpus_filters_sql``."""

    out_schema = pa.schema(
        [
            (id_col, pa.int64()),
            ("c4_text", pa.string()),
            ("n_lines_kept", pa.int64()),
            ("n_lines_dropped", pa.int64()),
            ("pii_text", pa.string()),
            ("n_email", pa.int64()),
            ("n_ip", pa.int64()),
            ("n_phone", pa.int64()),
            ("dup_line_frac", pa.float64()),
            ("dup_line_char_frac", pa.float64()),
            ("top_bigram_frac", pa.float64()),
        ]
    )

    def stage(batch: pa.Table) -> pa.Table:
        from ..runtime import worker_polars

        pl = worker_polars()

        if batch.num_rows == 0 or text_col not in batch.schema.names:
            return out_schema.empty_table()
        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        s = pl.from_arrow(text).fill_null("")
        c4 = _c4_kernel(pl, s, min_words)
        pii = _pii_kernel(pl, s)
        rep = _repetition_kernel(pl, s)
        return pa.table(
            {
                id_col: batch[id_col],
                "c4_text": c4["text"],
                "n_lines_kept": pa.array(c4["n_lines_kept"]),
                "n_lines_dropped": pa.array(c4["n_lines_dropped"]),
                "pii_text": pii["text"],
                "n_email": pa.array(pii["n_email"]),
                "n_ip": pa.array(pii["n_ip"]),
                "n_phone": pa.array(pii["n_phone"]),
                "dup_line_frac": pa.array(
                    rep["dup_line_frac"].astype(np.float64)
                ),
                "dup_line_char_frac": pa.array(
                    rep["dup_line_char_frac"].astype(np.float64)
                ),
                "top_bigram_frac": pa.array(
                    rep["top_bigram_frac"].astype(np.float64)
                ),
            }
        ).cast(out_schema)

    return ds.map_batches(stage, batch_format="pyarrow")


def corpus_filters_sql(docs_table: str = "documents", min_words: int = 3) -> str:
    """DuckDB twin of :func:`corpus_filters` — joins the three standalone
    twins (each bit-identical to its kernel) on doc_id and renames the two
    text outputs the same way."""
    return f"""
SELECT c4.doc_id,
       c4.text AS c4_text, c4.n_lines_kept, c4.n_lines_dropped,
       pii.text AS pii_text, pii.n_email, pii.n_ip, pii.n_phone,
       rep.dup_line_frac, rep.dup_line_char_frac, rep.top_bigram_frac
FROM ({c4_line_filter_sql(docs_table, min_words)}) c4
JOIN ({redact_pii_sql(docs_table)}) pii USING (doc_id)
JOIN ({repetition_sql(docs_table)}) rep USING (doc_id)"""


def c4_line_filter_sql(docs_table: str = "documents", min_words: int = 3) -> str:
    """DuckDB twin of :func:`c4_line_filter` (same regexes — backslashes
    pass through DuckDB string literals unescaped — same join)."""
    return f"""
    WITH kept AS (
      SELECT doc_id,
             list_filter(
               string_split(coalesce(text, ''), chr(10)),
               x -> len(regexp_extract_all(x, '{_C4_WORD_RE}')) >= {min_words}
                AND regexp_matches(x, '{_C4_TERMINAL_RE}')
                AND NOT regexp_matches(lower(x), '{_C4_BOILER_RE}')
             ) AS keep_lines,
             len(string_split(coalesce(text, ''), chr(10))) AS n_all
      FROM {docs_table}
    )
    SELECT doc_id,
           coalesce(array_to_string(keep_lines, chr(10)), '') AS text,
           len(keep_lines)::BIGINT AS n_lines_kept,
           (n_all - len(keep_lines))::BIGINT AS n_lines_dropped
    FROM kept
    """


def corpus_word_counts(ds, text_col: str = "text", n_parts: int | None = None):
    """Corpus-wide word counts folded to u64 hashes: ``(sorted uint64
    hashes, int64 counts)`` — the broadcast side of
    :func:`word_rarity_scores` (the ``decontaminate`` benchmark-fold
    pattern, applied to corpus-derived statistics).

    Per batch ONE polars tokenize + value_counts collapses the batch to
    its distinct words and hashes them immediately — only ``(u64, count)``
    pairs cross the wire, never strings; the task hash exchange groups by
    ``hash % n_parts`` and each bucket sums with one vectorized pass.  The
    driver-side result is O(vocabulary), NOT O(corpus); for vocabularies
    too large to hold (URL-soup corpora), ``heavy_hitters_cm`` is the
    sketch-bounded alternative."""
    import pyarrow as pa

    from ..engine.exchange import hash_exchange, split_by_partition
    from ..runtime import default_n_parts, worker_polars

    n_parts = n_parts or default_n_parts()
    pair_schema = pa.schema([("h", pa.uint64()), ("n", pa.int64())])

    def shard(block, n_buckets: int):
        pl = worker_polars()

        if not isinstance(block, pa.Table):
            block = pa.table(block)
        if block.num_rows == 0 or text_col not in block.schema.names:
            return tuple(pair_schema.empty_table() for _ in range(n_buckets))
        text = block[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = (
            pl.from_arrow(text)
            .cast(pl.String)
            .fill_null("")
            .str.extract_all(_WORD_RE)
            .explode()
            .drop_nulls()
        )
        counts = words.value_counts(name="n")
        h = counts.to_series(0).hash(seed=11).to_numpy()
        t = pa.table(
            {
                "h": pa.array(h, type=pa.uint64()),
                "n": counts["n"].cast(pl.Int64).to_arrow(),
            }
        )
        return split_by_partition(t, (h % np.uint64(n_buckets)).astype(np.int64), n_buckets)

    def combine(*tables):
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return pair_schema.empty_table()
        cat = pa.concat_tables(tables)
        h = cat["h"].to_numpy()
        n = cat["n"].to_numpy()
        order = np.argsort(h, kind="stable")
        h, n = h[order], n[order]
        starts = np.flatnonzero(np.concatenate([[True], h[1:] != h[:-1]]))
        cs = np.concatenate([[0], np.cumsum(n)])
        bounds = np.append(starts, len(n))
        sums = cs[bounds[1:]] - cs[bounds[:-1]]
        return pa.table(
            {
                "h": pa.array(h[starts], type=pa.uint64()),
                "n": pa.array(sums.astype(np.int64)),
            }
        )

    parts = hash_exchange(ds, n_parts, shard, combine).to_arrow_refs()
    import ray

    tables = [t for t in ray.get(parts) if t.num_rows]
    if not tables:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    cat = pa.concat_tables(tables)
    h = cat["h"].to_numpy()
    n = cat["n"].to_numpy().astype(np.int64)
    order = np.argsort(h, kind="stable")  # buckets are disjoint: one sort, no re-sum
    return h[order], n[order]


def word_rarity_scores(
    ds,
    counts=None,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_parts: int | None = None,
):
    """CCNet-style unigram-frequency document scoring: per doc, the sum
    and min of each word's CORPUS-WIDE occurrence count — the standard
    cheap perplexity proxy (gibberish / OCR noise scores low-frequency;
    boilerplate scores high).  Integer outputs only, so the DuckDB twin
    (:func:`word_rarity_sql`) is bit-identical with no float summation
    order to match.

    Two passes: ``counts`` (default: built from ``ds`` itself via
    :func:`corpus_word_counts`) folds the corpus ONCE into a sorted-u64
    ``(hashes, counts)`` pair shipped via ``ray.put`` and read zero-copy
    per task; the scoring pass is one streaming ``map_batches`` of
    tokenize + ``searchsorted`` + segment sums.  Pass a prebuilt
    ``counts`` to score one dataset against another corpus's statistics
    (unseen words count 0).  Hash-vs-string equivalence is the
    ``decontaminate`` argument: u64 collisions (~1/2^64) are the only
    divergence from the SQL twin.

    Returns ``(id_col, n_words, rarity_sum, min_count)``; zero-word docs
    get ``(0, 0, 0)`` (the twin's LEFT JOIN + coalesce face)."""
    import ray

    from ..runtime import worker_polars

    if counts is None:
        counts = corpus_word_counts(ds, text_col, n_parts)
    counts_ref = ray.put(counts)

    out_schema = pa.schema(
        [
            (id_col, pa.int64()),
            ("n_words", pa.int64()),
            ("rarity_sum", pa.int64()),
            ("min_count", pa.int64()),
        ]
    )

    def stage(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or text_col not in batch.schema.names:
            return out_schema.empty_table()
        pl = worker_polars()

        sorted_h, cnt = ray.get(counts_ref)
        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = (
            pl.from_arrow(text).cast(pl.String).fill_null("").str.extract_all(_WORD_RE)
        )
        lens = words.list.len().fill_null(0).to_numpy().astype(np.int64)
        flat = words.explode().drop_nulls()  # empty lists explode to one null row
        n_words_total = int(lens.sum())
        if n_words_total == 0:
            z = np.zeros(batch.num_rows, dtype=np.int64)
            return pa.table(
                {
                    id_col: pc.cast(batch[id_col], pa.int64()),
                    "n_words": pa.array(z),
                    "rarity_sum": pa.array(z),
                    "min_count": pa.array(z),
                }
            )
        h = flat.hash(seed=11).to_numpy()
        if len(sorted_h):
            idx = np.searchsorted(sorted_h, h)
            idx_c = np.minimum(idx, len(sorted_h) - 1)
            c = np.where(sorted_h[idx_c] == h, cnt[idx_c], 0).astype(np.int64)
        else:
            c = np.zeros(len(h), dtype=np.int64)
        bounds = np.concatenate([[0], np.cumsum(lens)])
        cs = np.concatenate([[0], np.cumsum(c)])
        rarity = (cs[bounds[1:]] - cs[bounds[:-1]]).astype(np.int64)
        return pa.table(
            {
                id_col: pc.cast(batch[id_col], pa.int64()),
                "n_words": pa.array(lens),
                "rarity_sum": pa.array(rarity),
                "min_count": pa.array(_segment_min(c, lens)),
            }
        )

    return ds.map_batches(stage, batch_format="pyarrow")


def _segment_min(c: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Per-doc min of ``c`` over consecutive segments of ``lens`` words;
    0 for zero-word docs.  ``reduceat`` runs over the nonempty segments
    only: a repeated or clamped start would end the previous segment early
    (zero-word docs at the end of a batch cut short the last real doc)."""
    minc = np.zeros(len(lens), dtype=np.int64)
    nz = lens > 0
    if nz.any():
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        minc[nz] = np.minimum.reduceat(c, starts[nz])
    return minc


def word_rarity_sql(docs_table: str = "documents",
                    corpus_table: str | None = None) -> str:
    """DuckDB twin of :func:`word_rarity_scores` — the same ``_WORD_RE``
    tokenize on both sides, counts joined by STRING equality (equal to the
    kernel's u64-hash membership up to ~1/2^64 collisions), integer sums
    only (SUM/MIN over BIGINT are exact and order-free)."""
    corpus_table = corpus_table or docs_table
    return f"""
WITH wr_corpus AS (
  SELECT unnest(regexp_extract_all(coalesce(text, ''), '{_WORD_RE}')) AS w
  FROM {corpus_table}
), wr_counts AS (
  SELECT w, CAST(count(*) AS BIGINT) AS c FROM wr_corpus GROUP BY w
), wr_words AS (
  SELECT doc_id, unnest(regexp_extract_all(coalesce(text, ''), '{_WORD_RE}')) AS w
  FROM {docs_table}
), wr_doc AS (
  SELECT doc_id,
         CAST(count(*) AS BIGINT) AS n_words,
         CAST(sum(coalesce(c.c, 0)) AS BIGINT) AS rarity_sum,
         CAST(min(coalesce(c.c, 0)) AS BIGINT) AS min_count
  FROM wr_words w LEFT JOIN wr_counts c USING (w)
  GROUP BY doc_id
)
SELECT d.doc_id,
       coalesce(p.n_words, 0) AS n_words,
       coalesce(p.rarity_sum, 0) AS rarity_sum,
       coalesce(p.min_count, 0) AS min_count
FROM {docs_table} d LEFT JOIN wr_doc p USING (doc_id)"""
