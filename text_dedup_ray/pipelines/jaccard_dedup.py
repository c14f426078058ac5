"""Exact n-gram Jaccard near-duplicate detection.

Unlike MinHash (which estimates Jaccard via signatures), this computes EXACT
shingle-set Jaccard for every candidate pair via a distributed inverted
index — the "n-gram Jaccard" member of the dedup family:

1. explode each doc into (shingle_hash, row_id, set_size) rows (vectorized
   batch kernel; shingle identity by 64-bit sha1 — collisions negligible);
2. exchange by shingle hash; within each partition, every shingle's posting
   list emits its co-occurring pairs (``df_cap`` bounds hot shingles — a
   stopword-like shingle shared by everything would be quadratic; drops are
   counted, not silent);
3. exchange pair rows by pair hash; per partition, sum co-occurrence counts
   -> jaccard = co / (|A| + |B| - co); keep pairs >= threshold;
4. verified pairs feed the shared union-find for clusters.

Set sizes ride along with each posting (needed on the reduce side without a
second lookup): |A| and |B| arrive with the pair emission.

Cost is O(sum df^2) over shingles — inherently heavier than LSH; use for
exact semantics at moderate scale or as a re-rank behind MinHash candidates
(which is what check_false_positive already does).
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pyarrow as pa
import ray.data

from ..functions.tokenization import shingle_set
from ..sources.io import ROW_ID, stamp_row_ids_from_key
from ..stages.exchange import hash_partition_exchange

logger = logging.getLogger(__name__)


def _shingle_hash64(s: bytes) -> int:
    return int.from_bytes(hashlib.sha1(s).digest()[:8], "little", signed=True)


def pairs_from_postings(
    postings: ray.data.Dataset,
    threshold: float = 0.8,
    num_partitions: int = 32,
    df_cap: int = 200,
    score: str = "jaccard",
) -> ray.data.Dataset:
    """Exact set-Jaccard pairs from an inverted-index postings dataset.

    ``postings`` rows are ``(sh:int64, row_id:int64, size:int64,
    part:int64)`` — one row per (set element, owning row), with the owner's
    DISTINCT set size riding along and ``part = |sh| % num_partitions``.
    Steps 2-3 of the module docstring: exchange by element hash, emit
    co-occurring pairs per posting list (``df_cap`` bounds hot elements),
    exchange by pair hash, fold co-counts into exact Jaccard. Shared by the
    text shingle path (:func:`jaccard_pair_table`) and the video
    frame-phash path (pipelines/video.py) — the element can be any 64-bit
    set member.

    ``score`` picks the pair statistic: ``"jaccard"`` (co / |A ∪ B|) or
    ``"containment"`` (co / min(|A|, |B|) — the fraction of the SMALLER
    set covered, which catches snippet/quote containment that Jaccard
    misses when the host document is much larger). The output column is
    named after the score."""
    if score not in ("jaccard", "containment"):
        raise ValueError(f"unknown score {score!r}")

    def emit_pairs(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table(
                {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                 "sa": pa.array([], pa.int64()), "sb": pa.array([], pa.int64()),
                 "co": pa.array([], pa.int64()), "part": pa.array([], pa.int64())}
            )
        sh = group["sh"].to_numpy(zero_copy_only=False)
        rid = group["row_id"].to_numpy(zero_copy_only=False)
        size = group["size"].to_numpy(zero_copy_only=False)
        order = np.lexsort((rid, sh))
        sh_s, rid_s, size_s = sh[order], rid[order], size[order]
        starts = np.flatnonzero(np.r_[True, np.diff(sh_s) != 0])
        ends = np.r_[starts[1:], len(sh_s)]
        a_out, b_out, sa_out, sb_out = [], [], [], []
        dropped = 0
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2:
                continue
            if m > df_cap:
                dropped += 1
                continue
            r = rid_s[s:e]
            z = size_s[s:e]
            ii, jj = np.triu_indices(m, k=1)
            a_out.append(np.maximum(r[ii], r[jj]))
            b_out.append(np.minimum(r[ii], r[jj]))
            sa_out.append(np.where(r[ii] > r[jj], z[ii], z[jj]))
            sb_out.append(np.where(r[ii] > r[jj], z[jj], z[ii]))
        if dropped:
            logger.warning("jaccard_dedup: %d shingles above df_cap=%d dropped", dropped, df_cap)
        if not a_out:
            return pa.table(
                {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                 "sa": pa.array([], pa.int64()), "sb": pa.array([], pa.int64()),
                 "co": pa.array([], pa.int64()), "part": pa.array([], pa.int64())}
            )
        a = np.concatenate(a_out).astype(np.int64)
        b = np.concatenate(b_out).astype(np.int64)
        sa = np.concatenate(sa_out).astype(np.int64)
        sb = np.concatenate(sb_out).astype(np.int64)
        # local combine: same pair may appear for many shingles in this partition
        order2 = np.lexsort((b, a))
        a, b, sa, sb = a[order2], b[order2], sa[order2], sb[order2]
        bounds = np.flatnonzero(np.r_[True, (np.diff(a) != 0) | (np.diff(b) != 0)])
        co = np.diff(np.r_[bounds, len(a)]).astype(np.int64)
        a, b, sa, sb = a[bounds], b[bounds], sa[bounds], sb[bounds]
        with np.errstate(over="ignore"):
            part = (np.abs(a * np.int64(31) + b) % np.int64(num_partitions)).astype(np.int64)
        return pa.table({"a": a, "b": b, "sa": sa, "sb": sb, "co": co, "part": part})

    pair_partials = hash_partition_exchange(postings, "part", num_partitions, emit_pairs)

    def reduce_pairs(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table(
                {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64()),
                 score: pa.array([], pa.float64())}
            )
        a = group["a"].to_numpy(zero_copy_only=False)
        b = group["b"].to_numpy(zero_copy_only=False)
        sa = group["sa"].to_numpy(zero_copy_only=False)
        sb = group["sb"].to_numpy(zero_copy_only=False)
        co = group["co"].to_numpy(zero_copy_only=False)
        order = np.lexsort((b, a))
        a, b, sa, sb, co = a[order], b[order], sa[order], sb[order], co[order]
        bounds = np.flatnonzero(np.r_[True, (np.diff(a) != 0) | (np.diff(b) != 0)])
        co_sum = np.add.reduceat(co, bounds)
        a, b, sa, sb = a[bounds], b[bounds], sa[bounds], sb[bounds]
        if score == "containment":
            denom = np.minimum(sa, sb)
        else:
            denom = sa + sb - co_sum
        jac = np.where(denom > 0, co_sum / np.maximum(denom, 1), 1.0)
        keep = jac >= threshold
        return pa.table(
            {
                "src": a[keep].astype(np.int64),
                "dst": b[keep].astype(np.int64),
                score: jac[keep].astype(np.float64),
            }
        )

    return hash_partition_exchange(pair_partials, "part", num_partitions, reduce_pairs)


def jaccard_pair_table(
    ds: ray.data.Dataset,
    text_column: str = "text",
    id_column: str | None = None,
    ngram_size: int = 1,
    min_length: int = 0,
    threshold: float = 0.8,
    num_partitions: int = 32,
    df_cap: int = 200,
    score: str = "jaccard",
) -> ray.data.Dataset:
    """All pairs with exact shingle ``score`` >= threshold:
    (src, dst, <score>) with src > dst."""
    if id_column is not None:
        ds = stamp_row_ids_from_key(ds, id_column)

    def explode(batch: pa.Table) -> pa.Table:
        texts = batch[text_column].to_pylist()
        ids = batch[ROW_ID].to_numpy(zero_copy_only=False).astype(np.int64)
        out_h: list[int] = []
        out_id: list[int] = []
        out_sz: list[int] = []
        for i, t in enumerate(texts):
            sh = shingle_set(t, ngram_size, min_length)
            for s in sh:
                out_h.append(_shingle_hash64(s))
                out_id.append(int(ids[i]))
                out_sz.append(len(sh))
        t_out = pa.table(
            {
                "sh": pa.array(out_h, pa.int64()),
                "row_id": pa.array(out_id, pa.int64()),
                "size": pa.array(out_sz, pa.int64()),
            }
        )
        part = (np.abs(np.array(out_h, dtype=np.int64)) % num_partitions).astype(np.int64)
        return t_out.append_column("part", pa.array(part))

    postings = ds.map_batches(explode, batch_format="pyarrow")
    return pairs_from_postings(postings, threshold, num_partitions, df_cap, score)


def ngram_containment_pairs(
    ds: ray.data.Dataset,
    text_column: str = "text",
    id_column: str | None = None,
    ngram_size: int = 1,
    min_length: int = 0,
    threshold: float = 0.8,
    num_partitions: int = 32,
    df_cap: int = 200,
) -> ray.data.Dataset:
    """Asymmetric near-dup: pairs where the SMALLER doc's shingle set is
    >= ``threshold`` contained in the larger's (co / min(|A|, |B|)) —
    snippet / quotation / boilerplate-inclusion detection that plain
    Jaccard misses when the host document dwarfs the snippet. Same
    postings machinery and cost model as :func:`jaccard_pair_table`."""
    return jaccard_pair_table(
        ds,
        text_column=text_column,
        id_column=id_column,
        ngram_size=ngram_size,
        min_length=min_length,
        threshold=threshold,
        num_partitions=num_partitions,
        df_cap=df_cap,
        score="containment",
    )


def ngram_jaccard_dedup(
    ds: ray.data.Dataset,
    text_column: str = "text",
    id_column: str | None = None,
    ngram_size: int = 1,
    min_length: int = 0,
    threshold: float = 0.8,
    driver_threshold: int = 2_000_000,
    **kwargs,
):
    """Cluster map from exact-Jaccard verified pairs (min-id roots). A dict
    below ``driver_threshold`` reduced edges, else a Dataset (row_id,
    cluster_id) from the automatic distributed-CC fallback."""
    from ..stages.cc import connected_components_auto

    pairs = jaccard_pair_table(
        ds, text_column, id_column, ngram_size, min_length, threshold, **kwargs
    )
    edges = pairs.map_batches(
        lambda t: t.select(["src", "dst"]), batch_format="pyarrow"
    )
    return connected_components_auto(edges, driver_threshold=driver_threshold)


def jaccard_cross_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    text_column: str = "text",
    left_id: str | None = None,
    right_id: str | None = None,
    right_text_column: str | None = None,
    ngram_size: int = 1,
    min_length: int = 0,
    threshold: float = 0.5,
    num_partitions: int = 32,
    df_cap: int = 200,
) -> ray.data.Dataset:
    """Similarity JOIN between two tables: every (left row, right row) pair
    with exact shingle-set Jaccard >= threshold, as (left_id, right_id,
    jaccard). The fuzzy-join building block for corpus-vs-benchmark audits,
    cross-snapshot diffing, and candidate generation between corpora.

    Same distributed-inverted-index shape as ``jaccard_pair_table`` — both
    sides explode to (shingle_hash, row_id, set_size, side) postings, every
    shingle's posting list co-locates by hash, BUT pair emission is
    restricted to cross-side (left x right) combinations, so within-side
    duplicates cost nothing. ``df_cap`` bounds a hot shingle's combined
    posting list (drops logged). Cost O(sum df_left x df_right) per shingle
    — inherently the exact path; scale candidates with MinHash first if a
    probabilistic join suffices."""
    right_text_column = right_text_column or text_column

    def make_explode(side: int, col: str):
        def explode(batch: pa.Table) -> pa.Table:
            texts = batch[col].to_pylist()
            ids = batch[ROW_ID].to_numpy(zero_copy_only=False).astype(np.int64)
            out_h: list[int] = []
            out_id: list[int] = []
            out_sz: list[int] = []
            for i, t in enumerate(texts):
                sh = shingle_set(t or "", ngram_size, min_length)
                for s in sh:
                    out_h.append(_shingle_hash64(s))
                    out_id.append(int(ids[i]))
                    out_sz.append(len(sh))
            h = np.array(out_h, dtype=np.int64)
            return pa.table(
                {
                    "sh": pa.array(h, pa.int64()),
                    "row_id": pa.array(out_id, pa.int64()),
                    "size": pa.array(out_sz, pa.int64()),
                    "side": pa.array(
                        np.full(len(h), side, dtype=np.int64)
                    ),
                    "part": pa.array(
                        (np.abs(h) % num_partitions).astype(np.int64)
                    ),
                }
            )

        return explode

    if left_id is not None:
        left = stamp_row_ids_from_key(left, left_id)
    if right_id is not None:
        right = stamp_row_ids_from_key(right, right_id)
    postings = left.map_batches(
        make_explode(0, text_column), batch_format="pyarrow"
    ).union(right.map_batches(make_explode(1, right_text_column), batch_format="pyarrow"))

    def _empty_partial() -> pa.Table:
        return pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
             "sa": pa.array([], pa.int64()), "sb": pa.array([], pa.int64()),
             "co": pa.array([], pa.int64()), "part": pa.array([], pa.int64())}
        )

    def emit_pairs(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "sh" not in group.column_names:
            return _empty_partial()
        sh = group["sh"].to_numpy(zero_copy_only=False)
        rid = group["row_id"].to_numpy(zero_copy_only=False)
        size = group["size"].to_numpy(zero_copy_only=False)
        side = group["side"].to_numpy(zero_copy_only=False)
        order = np.lexsort((rid, side, sh))
        sh_s, rid_s, size_s, side_s = sh[order], rid[order], size[order], side[order]
        starts = np.flatnonzero(np.r_[True, np.diff(sh_s) != 0])
        ends = np.r_[starts[1:], len(sh_s)]
        a_out, b_out, sa_out, sb_out = [], [], [], []
        dropped = 0
        for s, e in zip(starts, ends):
            if e - s > df_cap:
                dropped += 1
                continue
            # side-sorted within the shingle: left block then right block
            cut = s + int(np.searchsorted(side_s[s:e], 1))
            nl, nr = cut - s, e - cut
            if nl == 0 or nr == 0:
                continue
            ii, jj = np.meshgrid(
                np.arange(s, cut), np.arange(cut, e), indexing="ij"
            )
            ii, jj = ii.ravel(), jj.ravel()
            a_out.append(rid_s[ii])
            b_out.append(rid_s[jj])
            sa_out.append(size_s[ii])
            sb_out.append(size_s[jj])
        if dropped:
            logger.warning(
                "jaccard_cross_join: %d shingles above df_cap=%d dropped",
                dropped, df_cap,
            )
        if not a_out:
            return _empty_partial()
        a = np.concatenate(a_out).astype(np.int64)
        b = np.concatenate(b_out).astype(np.int64)
        sa = np.concatenate(sa_out).astype(np.int64)
        sb = np.concatenate(sb_out).astype(np.int64)
        order2 = np.lexsort((b, a))
        a, b, sa, sb = a[order2], b[order2], sa[order2], sb[order2]
        bounds = np.flatnonzero(np.r_[True, (np.diff(a) != 0) | (np.diff(b) != 0)])
        co = np.diff(np.r_[bounds, len(a)]).astype(np.int64)
        a, b, sa, sb = a[bounds], b[bounds], sa[bounds], sb[bounds]
        with np.errstate(over="ignore"):
            part = (np.abs(a * np.int64(31) + b) % np.int64(num_partitions)).astype(np.int64)
        return pa.table({"a": a, "b": b, "sa": sa, "sb": sb, "co": co, "part": part})

    pair_partials = hash_partition_exchange(postings, "part", num_partitions, emit_pairs)

    def reduce_pairs(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "a" not in group.column_names:
            return pa.table(
                {"left_id": pa.array([], pa.int64()),
                 "right_id": pa.array([], pa.int64()),
                 "jaccard": pa.array([], pa.float64())}
            )
        a = group["a"].to_numpy(zero_copy_only=False)
        b = group["b"].to_numpy(zero_copy_only=False)
        sa = group["sa"].to_numpy(zero_copy_only=False)
        sb = group["sb"].to_numpy(zero_copy_only=False)
        co = group["co"].to_numpy(zero_copy_only=False)
        order = np.lexsort((b, a))
        a, b, sa, sb, co = a[order], b[order], sa[order], sb[order], co[order]
        bounds = np.flatnonzero(np.r_[True, (np.diff(a) != 0) | (np.diff(b) != 0)])
        co_sum = np.add.reduceat(co, bounds)
        a, b, sa, sb = a[bounds], b[bounds], sa[bounds], sb[bounds]
        union = sa + sb - co_sum
        jac = np.where(union > 0, co_sum / np.maximum(union, 1), 1.0)
        keep = jac >= threshold
        return pa.table(
            {
                "left_id": a[keep].astype(np.int64),
                "right_id": b[keep].astype(np.int64),
                "jaccard": jac[keep].astype(np.float64),
            }
        )

    return hash_partition_exchange(pair_partials, "part", num_partitions, reduce_pairs)
