"""Text-analysis operators over a document Dataset.

Beyond-the-reference operators a large-scale training-data pipeline needs
(tasked in SURVEY/BASELINE): token counting, quality scoring, language id,
document fingerprinting, plus the reference's normalizers (utils/preprocess)
wired as batch stages. All are stateless vectorized ``map_batches`` stages;
language id compiles its stopword tables once per actor.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..functions.preprocess import news_copy_preprocessing, normalize
from ..functions.textstats import (
    content_md5,
    detect_language,
    winnowing_fingerprint,
)


def _put_column(batch: pa.Table, name: str, values) -> pa.Table:
    """Replace column ``name`` at its position, or append it when absent."""
    i = batch.schema.get_field_index(name)
    if i < 0:
        return batch.append_column(name, values)
    return batch.set_column(i, name, values)


def with_token_counts(ds: ray.data.Dataset, text_column: str = "text") -> ray.data.Dataset:
    """Native-kernel token count: non-overlapping ``[A-Za-z0-9_]+`` match
    count per row (== ``len(WORD_RE.findall(text))`` == the DuckDB oracle
    ``len(regexp_extract_all(...))``) — no per-doc Python regex loop."""
    import pyarrow.compute as pc

    def add(batch: pa.Table) -> pa.Table:
        counts = pc.count_substring_regex(
            batch[text_column], "[A-Za-z0-9_]+"
        ).cast(pa.int64())
        return batch.append_column("n_tokens", counts)

    return ds.map_batches(add, batch_format="pyarrow")


def with_quality(ds: ray.data.Dataset, text_column: str = "text") -> ray.data.Dataset:
    """Adds n_chars_q, n_tokens, alpha_ratio, digit_ratio — all four
    signals from native Arrow regex-count kernels (same ASCII character
    classes as the SQL oracle), zero per-doc Python."""
    import pyarrow.compute as pc

    def add(batch: pa.Table) -> pa.Table:
        text = batch[text_column]
        n_chars = pc.utf8_length(text).cast(pa.int64())
        n_tokens = pc.count_substring_regex(text, "[A-Za-z0-9_]+").cast(pa.int64())
        nc = n_chars.to_numpy(zero_copy_only=False).astype(np.float64)
        alpha = (
            pc.count_substring_regex(text, "[A-Za-z]")
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        digit = (
            pc.count_substring_regex(text, "[0-9]")
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        safe = np.maximum(nc, 1.0)
        return (
            batch.append_column("n_chars_q", n_chars)
            .append_column("n_tokens", n_tokens)
            .append_column("alpha_ratio", pa.array(np.where(nc == 0, 0.0, alpha / safe)))
            .append_column("digit_ratio", pa.array(np.where(nc == 0, 0.0, digit / safe)))
        )

    return ds.map_batches(add, batch_format="pyarrow")


def with_repetition(
    ds: ray.data.Dataset, text_column: str = "text", ngram: int = 2
) -> ray.data.Dataset:
    """Gopher-style repetition signals (Rae et al. 2021, public quality
    heuristics): per doc, the token count, distinct-token count, total
    sliding ``ngram``-gram count (len(tokens) - ngram + 1 when len >=
    ngram, else 0 — plain windows, no reference edge cases), and the count
    of the single most frequent such n-gram. Exposed as exact integers
    (SQL-hashable) plus the two derived ratios:
    ``dup_token_ratio = 1 - n_distinct/n_tokens`` and
    ``top_ngram_frac = top_ngram_count / n_ngrams`` (0 when empty).
    Stateless vectorized-batch pass; the per-doc counting is Counter-bound
    like the other text kernels."""
    from collections import Counter

    from ..functions.tokenization import tokenize

    def add(batch: pa.Table) -> pa.Table:
        texts = batch[text_column].to_pylist()
        n = len(texts)
        n_tok = np.zeros(n, np.int64)
        n_dis = np.zeros(n, np.int64)
        top_c = np.zeros(n, np.int64)
        n_ng = np.zeros(n, np.int64)
        for i, t in enumerate(texts):
            toks = tokenize(t or "")
            n_tok[i] = len(toks)
            n_dis[i] = len(set(toks))
            if len(toks) >= ngram:
                c = Counter(
                    " ".join(toks[j : j + ngram])
                    for j in range(len(toks) - ngram + 1)
                )
                n_ng[i] = len(toks) - ngram + 1
                top_c[i] = max(c.values())
        with np.errstate(divide="ignore", invalid="ignore"):
            dup_ratio = np.where(n_tok > 0, 1.0 - n_dis / np.maximum(n_tok, 1), 0.0)
            top_frac = np.where(n_ng > 0, top_c / np.maximum(n_ng, 1), 0.0)
        return (
            batch.append_column("n_tokens_rep", pa.array(n_tok))
            .append_column("n_distinct_tokens", pa.array(n_dis))
            .append_column("n_ngrams", pa.array(n_ng))
            .append_column("top_ngram_count", pa.array(top_c))
            .append_column("dup_token_ratio", pa.array(dup_ratio))
            .append_column("top_ngram_frac", pa.array(top_frac))
        )

    return ds.map_batches(add, batch_format="pyarrow")


def top_frequent_tokens(
    ds: ray.data.Dataset,
    text_column: str = "text",
    n: int = 100,
    num_partitions: int = 32,
) -> pa.Table:
    """EXACT corpus-wide top-n most frequent tokens (vocabulary heavy
    hitters), (token, cnt) sorted by cnt desc then token asc.

    Scale shape: each block emits its LOCAL (token, count) partials
    (Counter over the block — one row per distinct token per block, never
    per occurrence); the exchange co-locates every copy of a token in one
    partition, so per-partition sums are the token's EXACT global count;
    each partition then keeps only its local top-n — the global top-n is
    necessarily a subset of the union of per-partition top-ns — and the
    driver folds just P x n candidate rows."""
    from collections import Counter

    from ..functions.tokenization import tokenize
    from ..stages.exchange import hash_partition_exchange
    from .jaccard_dedup import _shingle_hash64

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch[text_column].to_pylist():
            c.update(tokenize(t or ""))
        toks = list(c.keys())
        return pa.table(
            {
                "token": pa.array(toks, pa.string()),
                "cnt": pa.array([c[t] for t in toks], pa.int64()),
                "part": pa.array(
                    np.fromiter(
                        (
                            (_shingle_hash64(t.encode()) & 0x7FFFFFFF)
                            % num_partitions
                            for t in toks
                        ),
                        np.int64,
                        count=len(toks),
                    )
                ),
            }
        )

    pre = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)

    def reduce(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {"token": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
        )
        if group.num_rows == 0 or "token" not in group.column_names:
            return empty
        summed = (
            group.select(["token", "cnt"])
            .group_by(["token"])
            .aggregate([("cnt", "sum")])
        )
        s = summed.sort_by([("cnt_sum", "descending"), ("token", "ascending")])
        return pa.table(
            {"token": s["token"], "cnt": s["cnt_sum"].cast(pa.int64())}
        ).slice(0, n)

    cand = hash_partition_exchange(pre, "part", num_partitions, reduce).to_pandas()
    if cand.empty:
        return pa.table(
            {"token": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
        )
    cand = cand.sort_values(
        ["cnt", "token"], ascending=[False, True], kind="stable"
    ).head(n)
    return pa.table(
        {
            "token": pa.array(cand["token"].tolist(), pa.string()),
            "cnt": pa.array(cand["cnt"].to_numpy(), pa.int64()),
        }
    )


class LangIdStage:
    """Actor: stopword tables resolved once per actor (SURVEY ST-pattern)."""

    def __init__(self, text_column: str = "text") -> None:
        from ..functions import textstats

        self.detect = textstats.detect_language
        self.text_column = text_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_column].to_pylist()
        langs, scores = [], []
        for t in texts:
            lang, score = self.detect(t)
            langs.append(lang)
            scores.append(score)
        return batch.append_column("lang_pred", pa.array(langs, pa.string())).append_column(
            "lang_score", pa.array(scores, pa.float64())
        )


def with_language(
    ds: ray.data.Dataset, text_column: str = "text", concurrency=(1, 8)
) -> ray.data.Dataset:
    return ds.map_batches(
        LangIdStage,
        fn_constructor_args=(text_column,),
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def with_fingerprints(ds: ray.data.Dataset, text_column: str = "text") -> ray.data.Dataset:
    """Adds content_md5 (exact, SQL-mirrorable) and fp64 (winnowing sketch)."""

    def add(batch: pa.Table) -> pa.Table:
        texts = batch[text_column].to_pylist()
        md5s = [content_md5(t) for t in texts]
        fps = np.fromiter(
            (np.int64(np.uint64(winnowing_fingerprint(t)).astype(np.int64)) for t in texts),
            dtype=np.int64,
            count=len(texts),
        )
        return batch.append_column("content_md5", pa.array(md5s, pa.string())).append_column(
            "fp64", pa.array(fps)
        )

    return ds.map_batches(add, batch_format="pyarrow")


def concat_text_columns(
    ds: ray.data.Dataset,
    columns: list[str],
    out_column: str = "text",
    sep: str = " ",
    lowercase: bool = True,
) -> ray.data.Dataset:
    """Reference M13: benchmark text join ``title + " " + abstract``
    lowercased (benchmarks/run_benchmark.py:43), generalized."""
    import pyarrow.compute as pc

    def add(batch: pa.Table) -> pa.Table:
        joined = batch[columns[0]]
        for c in columns[1:]:
            joined = pc.binary_join_element_wise(joined, batch[c], sep)
        if lowercase:
            joined = pc.utf8_lower(joined)
        if out_column in batch.column_names:
            batch = batch.drop_columns([out_column])
        return batch.append_column(out_column, joined)

    return ds.map_batches(add, batch_format="pyarrow")


def _ccnet_normalize_vector(col: pa.Array) -> pa.Array:
    """Arrow-kernel ccnet normalize — identical to functions.preprocess.
    normalize on ASCII input (hypothesis-pinned in tests/test_textfix.py):
    ASCII lower == str.lower, RE2 \\d == Python \\d on ASCII digits, and the
    trim/strip divergence candidates (\\t \\n \\x1c-\\x1f) are all \\p{C} so
    the final strip removes them on both paths."""
    import pyarrow.compute as pc

    s = pc.utf8_trim_whitespace(col)
    s = pc.utf8_lower(s)
    s = pc.replace_substring_regex(s, r"\d", "0")
    return pc.replace_substring_regex(s, r"[\p{P}\p{C}\p{S}]+", "")


def with_normalized(
    ds: ray.data.Dataset, text_column: str = "text", mode: str = "ccnet"
) -> ray.data.Dataset:
    """Reference normalizers as a pre-stage (SURVEY M12). The ccnet mode
    runs fully vectorized for ASCII rows (the overwhelming majority of a
    web-text corpus) and falls back to the reference Python kernel only for
    the non-ASCII minority, where Python-regex vs RE2 Unicode-category
    tables could drift."""
    fn = normalize if mode == "ccnet" else news_copy_preprocessing

    def add(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "text_norm", pa.array([fn(t) for t in batch[text_column].to_pylist()], pa.string())
        )

    if mode != "ccnet":
        return ds.map_batches(add, batch_format="pyarrow")

    def add_ccnet(batch: pa.Table) -> pa.Table:
        from ..functions.textfix import masked_transform

        out = masked_transform(
            batch[text_column],
            r"^[\x00-\x7f]*$",
            normalize,
            vector_fn=_ccnet_normalize_vector,
        )
        return batch.append_column("text_norm", out)

    return ds.map_batches(add_ccnet, batch_format="pyarrow")


def with_fixed_text(
    ds: ray.data.Dataset,
    text_column: str = "text",
    out_column: str = "text_fixed",
    fixer: str = "native",
) -> ray.data.Dataset:
    """Encoding-repair stage (reference ftfy seam, utils/ftfy_utils.py:5-8):
    HTML-entity unescape, cp1252/latin-1 mojibake repair, line-break
    normalization, control-char strip, NFC — see functions/textfix.py.

    ``fixer="native"`` pins the deterministic built-in (what gate queries
    use); ``"auto"`` picks up an installed ftfy wheel per worker process.
    Clean printable-ASCII rows are proven fixed points and pass through
    zero-copy, so on a mostly-clean corpus the stage is a cheap masked scan.
    An existing ``out_column`` is replaced in place (``out_column=
    text_column`` repairs the text column itself).
    """
    from ..functions.textfix import fix_text_array

    def add(batch: pa.Table) -> pa.Table:
        return _put_column(
            batch, out_column, fix_text_array(batch[text_column], fixer=fixer)
        )

    return ds.map_batches(add, batch_format="pyarrow")


# word-soup-safe subset of the Gopher stopwords (Rae et al. 2021 use
# the/be/to/of/and/that/have/with); RE2 \b word boundaries, shared
# verbatim with the DuckDB oracle (both engines are RE2)
GOPHER_STOPWORD_RE = r"\b(the|be|to|of|and|that|have|with|a|in)\b"


def with_gopher_rules(
    ds: ray.data.Dataset,
    text_column: str = "text",
    min_words: int = 50,
    max_words: int = 100_000,
    min_mean_word_len: float = 3.0,
    max_mean_word_len: float = 10.0,
    max_symbol_word_ratio: float = 0.1,
    min_stopword_hits: int = 2,
) -> ray.data.Dataset:
    """Gopher quality gates (Rae et al. 2021 §A1.1, public heuristics):
    word-count bounds, mean-word-length bounds, symbol-to-word ratio
    (``#``/ellipsis), and a minimum stopword-hit count. Emits the exact
    integer signals, the two derived ratios, per-rule booleans, and the
    overall ``gopher_pass`` — all from native Arrow RE2 kernels (zero
    per-doc Python), so the DuckDB oracle reproduces every double
    bit-for-bit from the same integer counts."""
    import pyarrow.compute as pc

    def add(batch: pa.Table) -> pa.Table:
        text = batch[text_column]
        n_words = (
            pc.count_substring_regex(text, r"[A-Za-z0-9_]+")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        n_word_chars = (
            pc.count_substring_regex(text, r"[A-Za-z0-9_]")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        n_symbols = (
            pc.count_substring_regex(text, r"(#|\.\.\.|…)")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        n_stop = (
            pc.count_substring_regex(text, GOPHER_STOPWORD_RE)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        safe = np.maximum(n_words, 1).astype(np.float64)
        mean_wl = np.where(n_words == 0, 0.0, n_word_chars / safe)
        sym_ratio = np.where(n_words == 0, 0.0, n_symbols / safe)
        ok_words = (n_words >= min_words) & (n_words <= max_words)
        ok_wl = (mean_wl >= min_mean_word_len) & (mean_wl <= max_mean_word_len)
        ok_sym = sym_ratio <= max_symbol_word_ratio
        ok_stop = n_stop >= min_stopword_hits
        return (
            batch.append_column("n_words", pa.array(n_words))
            .append_column("n_word_chars", pa.array(n_word_chars))
            .append_column("n_symbols", pa.array(n_symbols))
            .append_column("n_stopword_hits", pa.array(n_stop))
            .append_column("mean_word_len", pa.array(mean_wl))
            .append_column("symbol_word_ratio", pa.array(sym_ratio))
            .append_column("ok_word_count", pa.array(ok_words))
            .append_column("ok_mean_word_len", pa.array(ok_wl))
            .append_column("ok_symbol_ratio", pa.array(ok_sym))
            .append_column("ok_stopwords", pa.array(ok_stop))
            .append_column(
                "gopher_pass", pa.array(ok_words & ok_wl & ok_sym & ok_stop)
            )
        )

    return ds.map_batches(add, batch_format="pyarrow")


def with_scrubbed(
    ds: ray.data.Dataset,
    text_column: str,
    pattern: str,
    replacement: str,
    out_column: str = "scrubbed",
    hits_column: str = "n_scrubbed",
) -> ray.data.Dataset:
    """PII-style pattern scrubbing: replace every non-overlapping RE2
    ``pattern`` match with ``replacement`` and count the replacements —
    the redaction pass (emails / phone numbers / free digits) that runs
    before a corpus ships to training. Native Arrow kernels; DuckDB's
    ``regexp_replace(..., 'g')`` / ``regexp_extract_all`` are the same
    RE2 semantics, so the oracle is exact. Existing output columns are
    replaced in place (``out_column=text_column`` redacts the text column
    itself)."""
    import pyarrow.compute as pc

    def add(batch: pa.Table) -> pa.Table:
        text = batch[text_column]
        hits = pc.count_substring_regex(text, pattern).cast(pa.int64())
        batch = _put_column(
            batch, out_column, pc.replace_substring_regex(text, pattern, replacement)
        )
        return _put_column(batch, hits_column, hits)

    return ds.map_batches(add, batch_format="pyarrow")


def chunk_text(
    ds: ray.data.Dataset,
    text_column: str = "text",
    id_column: str = "doc_id",
    size: int = 512,
    overlap: int = 64,
    chunk_alias: str = "chunk_no",
    start_alias: str = "chunk_start",
    out_column: str = "chunk",
) -> ray.data.Dataset:
    """Explode each document into fixed-size character windows with
    ``overlap``-char stride overlap — the RAG / long-context
    preprocessing split. Stateless flat-map (zero shuffle); chunk count
    is exact integer arithmetic shared verbatim with the SQL oracle::

        step     = size - overlap
        n_chunks = 0                                  if len == 0
                 = (max(len - overlap, 1) + step - 1) // step   otherwise
        chunk_i  = text[i*step : i*step + size]       (character slices)

    The stride guarantees full coverage (every char is in >=1 chunk) and
    the tail chunk may be shorter than ``size``. Character (not byte)
    slicing so unicode matches DuckDB ``substr`` semantics — the
    per-chunk Python slice is O(output chunks), which is the output
    size, not a hidden per-row scan.

    Output: (id_column, chunk_no, chunk_start, chunk), 0-based.
    """
    if overlap >= size:
        raise ValueError("chunk_text needs overlap < size")
    step = size - overlap

    def explode(batch: pa.Table) -> pa.Table:
        id_type = batch.schema.field(id_column).type if id_column in batch.column_names else pa.int64()
        empty = pa.table(
            {
                id_column: pa.array([], id_type),
                chunk_alias: pa.array([], pa.int64()),
                start_alias: pa.array([], pa.int64()),
                out_column: pa.array([], pa.string()),
            }
        )
        if batch.num_rows == 0:
            return empty
        texts = batch[text_column].to_pylist()
        lens = np.fromiter((len(t or "") for t in texts), np.int64, count=len(texts))
        n_chunks = np.where(
            lens == 0, 0, (np.maximum(lens - overlap, 1) + step - 1) // step
        )
        if int(n_chunks.sum()) == 0:
            return empty
        doc_idx = np.repeat(np.arange(len(texts)), n_chunks)
        chunk_no = np.concatenate([np.arange(n) for n in n_chunks if n > 0])
        starts = chunk_no * step
        chunks = [
            texts[d][s : s + size] for d, s in zip(doc_idx, starts)
        ]
        return pa.table(
            {
                id_column: batch[id_column].take(pa.array(doc_idx)),
                chunk_alias: pa.array(chunk_no.astype(np.int64)),
                start_alias: pa.array(starts.astype(np.int64)),
                out_column: pa.array(chunks, pa.string()),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow", batch_size=None)


def with_extracted_int(
    ds: ray.data.Dataset,
    column: str,
    pattern: str,
    out_column: str,
    keep_columns: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """Semi-structured field extraction: pull one named integer group out
    of a string column (e.g. a JSON props blob) with Arrow's RE2
    ``extract_regex`` — the vectorized equivalent of SQL
    ``json_extract``/``regexp_extract`` for flat fields. Rows without a
    match get NULL (SQL LEFT-extract semantics). ``pattern`` must contain
    exactly one named group called ``v``."""
    import pyarrow.compute as pc

    def add(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    **{c: batch[c] for c in keep_columns},
                    out_column: pa.array([], pa.int64()),
                }
            )
        st = pc.extract_regex(batch[column].combine_chunks(), pattern)
        vals = pc.cast(pc.struct_field(st, "v"), pa.int64())
        return pa.table(
            {**{c: batch[c].combine_chunks() for c in keep_columns},
             out_column: vals}
        )

    return ds.map_batches(add, batch_format="pyarrow")
