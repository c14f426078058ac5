"""Incremental (tiered) exact n-gram Jaccard dedup against a saved
posting-list index — the last dedup family to gain the tiered contract
(exact/minhash/simhash/phash/embedding/suffix are in their own modules).

- :func:`jaccard_bootstrap`: full exact-Jaccard dedup
  (pipelines/jaccard_dedup semantics) over the initial corpus that persists
  the inverted index — (shingle_hash, row_id, set_size) posting rows
  pre-partitioned by ``hash % P``, one parquet file per partition — plus the
  non-trivial cluster rows and meta.
- :func:`jaccard_increment`: explodes ONLY the new batch into postings,
  exchanges them to the same partitions, and each reduce task merges against
  its prior posting file read LOCALLY from storage (the old index is never
  re-shuffled): pair partials are emitted for (new x old) and (new x new)
  co-occurrences only — old-old connectivity is already folded into the
  prior cluster map — then exact Jaccard >= threshold edges compose with the
  prior map through the shared :func:`incremental._compose_with_prior`.

Equivalence: a full re-run's verified-pair set is (old-old) ∪ (new-old) ∪
(new-new); the prior map IS the CC of the old-old pairs, so composing
reproduces ``ngram_jaccard_dedup(old ∪ new)`` exactly — asserted by
tests/test_incremental_jaccard.py. ``df_cap`` in an increment applies to
the COMBINED (old+new) posting list, matching what a full re-run would see;
old-old edges recorded at bootstrap under a then-lower df are kept (strictly
better recall than a full rerun with the same finite cap — documented, and
equivalence tests run uncapped).

Per-increment cost: explode(new) + shuffle(new postings) + local
read+rewrite of the posting partitions + pair reduce over new-involving
co-occurrences. Driver state follows the shared ``driver_threshold``
contract.
"""

from __future__ import annotations

import logging
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..functions.timer import Timer
from ..sources.io import ROW_ID, stamp_row_ids_from_key
from ..stages.assign import assign_clusters, assign_clusters_sharded, filter_cluster_roots
from ..stages.cc import connected_components_auto
from ..state.checkpoint import config_hash
from .incremental import (
    IncrementResult,
    _clean_version_dir,
    _clusters_dir,
    _compose_with_prior,
    _version_dir,
    _write_clusters,
    _write_meta,
    load_meta,
)

logger = logging.getLogger(__name__)

_EMPTY_PAIRS = pa.table(
    {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
     "sa": pa.array([], pa.int64()), "sb": pa.array([], pa.int64()),
     "co": pa.array([], pa.int64()), "part": pa.array([], pa.int64())}
)
_EMPTY_EDGES = pa.table({"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())})
_EMPTY_NOVELTY_PARTIAL = pa.table(
    {"row_id": pa.array([], pa.int64()), "dis": pa.array([], pa.int64()),
     "seen": pa.array([], pa.int64()), "part": pa.array([], pa.int64())}
)


def _index_file(state_dir: str, version: int, p: int) -> str:
    return os.path.join(_version_dir(state_dir, version), "index", f"part-{p:05d}.parquet")


def _jac_cfg_hash(text_column: str, ngram_size: int, min_length: int,
                  threshold: float, num_partitions: int) -> str:
    return config_hash(
        {
            "algo": "jaccard_posting_state",
            "text": text_column,
            "ngram_size": ngram_size,
            "min_length": min_length,
            "threshold": threshold,
            "num_partitions": num_partitions,
        }
    )


def _make_explode(text_column: str, ngram_size: int, min_length: int,
                  num_partitions: int):
    from .jaccard_dedup import _shingle_hash64

    from ..functions.tokenization import shingle_set

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

    return explode


def _sorted_postings(*tables: pa.Table) -> pa.Table:
    parts = [t.select(["sh", "row_id", "size"]) for t in tables if t.num_rows > 0]
    if not parts:
        return pa.table(
            {"sh": pa.array([], pa.int64()), "row_id": pa.array([], pa.int64()),
             "size": pa.array([], pa.int64())}
        )
    t = pa.concat_tables(parts, promote_options="default")
    sh = t["sh"].to_numpy(zero_copy_only=False).astype(np.int64)
    rid = t["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    sz = t["size"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((rid, sh))
    return pa.table({"sh": sh[order], "row_id": rid[order], "size": sz[order]})


@ray.remote
def _bootstrap_index_write(out_path: str, *tables: pa.Table) -> pa.Table:
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    pq.write_table(_sorted_postings(*tables), out_path)
    return _EMPTY_PAIRS


@ray.remote
def _increment_reduce_write(
    out_path: str, prior_path: str | None, df_cap: int, num_partitions: int,
    *tables: pa.Table,
) -> pa.Table:
    """Reduce one shingle partition: merge the new batch's postings with the
    prior file (read locally), write the merged next-version file, and emit
    pair partials for shingles present in the new batch — (new x old) and
    (new x new) only."""
    new = _sorted_postings(*tables)
    if prior_path is not None and os.path.exists(prior_path):
        prior = pq.read_table(prior_path)
    else:
        prior = _sorted_postings()
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    pq.write_table(_sorted_postings(prior, new), out_path)
    if new.num_rows == 0:
        return _EMPTY_PAIRS
    nh = new["sh"].to_numpy(zero_copy_only=False).astype(np.int64)
    nid = new["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    nsz = new["size"].to_numpy(zero_copy_only=False).astype(np.int64)
    ph = prior["sh"].to_numpy(zero_copy_only=False).astype(np.int64)
    pid = prior["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    psz = prior["size"].to_numpy(zero_copy_only=False).astype(np.int64)
    a_out, b_out, sa_out, sb_out = [], [], [], []
    dropped = 0
    n_starts = np.flatnonzero(np.r_[True, np.diff(nh) != 0])
    n_ends = np.r_[n_starts[1:], len(nh)]
    for s, e in zip(n_starts, n_ends):
        h = nh[s]
        lo = np.searchsorted(ph, h, side="left")
        hi = np.searchsorted(ph, h, side="right")
        n_old = hi - lo
        m = n_old + (e - s)
        if m < 2:
            continue
        if m > df_cap:  # combined df — same cap a full re-run would apply
            dropped += 1
            continue
        r = np.concatenate([pid[lo:hi], nid[s:e]])
        z = np.concatenate([psz[lo:hi], nsz[s:e]])
        # (new x all) pairs: old columns always allowed; new-new upper-tri
        rows = np.arange(n_old, m)[:, None]
        cols = np.arange(m)[None, :]
        allow = (cols < n_old) | (cols > rows)
        ii, jj = np.nonzero(allow)
        ii = ii + n_old
        a_out.append(np.maximum(r[ii], r[jj]))
        b_out.append(np.minimum(r[ii], r[jj]))
        sa_out.append(np.where(r[ii] > r[jj], z[ii], z[jj]))
        sb_out.append(np.where(r[ii] > r[jj], z[jj], z[ii]))
    if dropped:
        logger.warning(
            "jaccard_increment: %d shingles above df_cap=%d dropped", dropped, df_cap
        )
    if not a_out:
        return _EMPTY_PAIRS
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


def _make_pair_reduce(threshold: float):
    def reduce_pairs(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "a" not in group.column_names:
            return _EMPTY_EDGES
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
            {"src": a[keep].astype(np.int64), "dst": b[keep].astype(np.int64)}
        )

    return reduce_pairs


def _exchange_postings(
    postings: ray.data.Dataset,
    reduce_remote,
    reduce_args_for_partition,
    num_partitions: int,
) -> ray.data.Dataset:
    from ..stages.exchange import split_map

    columns = split_map(postings, "part", num_partitions)
    reduced = [
        reduce_remote.remote(*reduce_args_for_partition(p), *columns[p])
        for p in range(num_partitions)
    ]
    return ray.data.from_arrow_refs(reduced)


def posting_state_bootstrap(
    ds: ray.data.Dataset,
    state_dir: str,
    postings_of,
    parents_of,
    meta_fields: dict,
    num_partitions: int = 32,
    driver_threshold: int = 2_000_000,
    max_row_id: int | None = None,
) -> IncrementResult:
    """Family-agnostic tiered bootstrap over the posting-index contract.

    Any dedup family whose signature is a SET of 64-bit elements per row
    plugs in here: ``postings_of(ds)`` yields the ``(sh, row_id, size,
    part)`` postings, ``parents_of(ds)`` runs the family's full batch dedup.
    ``ds`` must already carry ``row_id``; ``meta_fields`` must include the
    family's ``algo`` tag, ``threshold``, ``df_cap`` and whatever config the
    family's increment needs to rebuild its postings stage. Used by the text
    n-gram family (:func:`jaccard_bootstrap`) and the video frame-phash
    family (pipelines/incremental_video.py)."""
    timer = Timer()
    if max_row_id is None:
        ds_max = ds.select_columns([ROW_ID]).max(ROW_ID)
        max_row_id = -1 if ds_max is None else int(ds_max)

    version = 1
    _clean_version_dir(state_dir, version)
    with timer("posting_index"):
        _exchange_postings(
            postings_of(ds),
            _bootstrap_index_write,
            lambda p: (_index_file(state_dir, version, p),),
            num_partitions,
        ).materialize()  # index files on disk before meta flips
    with timer("dedup"):
        parents = parents_of(ds)
    with timer("assign+state"):
        _write_clusters(parents, _clusters_dir(state_dir, version))
        if isinstance(parents, dict):
            assigned = assign_clusters(ds, parents)
        else:
            assigned = assign_clusters_sharded(
                ds, parents.materialize(), num_shards=num_partitions
            )
    _write_meta(
        state_dir,
        {
            **meta_fields,
            "version": version,
            "max_row_id": max_row_id,
            "num_partitions": num_partitions,
        },
    )
    return IncrementResult(
        assigned=assigned,
        deduped=filter_cluster_roots(assigned),
        parents=parents,
        state_version=version,
        metrics={"stage_seconds": timer.report()},
    )


def jaccard_bootstrap(
    ds: ray.data.Dataset,
    state_dir: str,
    text_column: str = "text",
    id_column: str | None = None,
    ngram_size: int = 1,
    min_length: int = 0,
    threshold: float = 0.8,
    num_partitions: int = 32,
    df_cap: int = 200,
    driver_threshold: int = 2_000_000,
) -> IncrementResult:
    """Full exact-Jaccard dedup over the initial corpus, persisting the
    posting index + cluster rows + meta to ``state_dir``."""
    from .jaccard_dedup import ngram_jaccard_dedup

    if id_column is not None:
        ds = stamp_row_ids_from_key(ds, id_column)
    elif ROW_ID not in ds.schema().names:
        raise ValueError("dataset must have a row_id column or pass id_column")

    explode = _make_explode(text_column, ngram_size, min_length, num_partitions)
    return posting_state_bootstrap(
        ds,
        state_dir,
        postings_of=lambda d: d.map_batches(explode, batch_format="pyarrow"),
        parents_of=lambda d: ngram_jaccard_dedup(
            d, text_column=text_column, ngram_size=ngram_size,
            min_length=min_length, threshold=threshold,
            driver_threshold=driver_threshold,
            num_partitions=num_partitions, df_cap=df_cap,
        ),
        meta_fields={
            "algo": "jaccard_posting",
            "cfg_hash": _jac_cfg_hash(
                text_column, ngram_size, min_length, threshold, num_partitions
            ),
            "text_column": text_column,
            "ngram_size": ngram_size,
            "min_length": min_length,
            "threshold": threshold,
            "df_cap": df_cap,
            "id_column": id_column,
        },
        num_partitions=num_partitions,
        driver_threshold=driver_threshold,
    )


@ray.remote
def _novelty_probe_partition(prior_path: str, num_partitions: int, *tables: pa.Table) -> pa.Table:
    """Probe one shingle partition READ-ONLY: for each new posting, test
    membership of its shingle hash in the prior posting file (read locally,
    ``sh`` column only — the file is sorted by ``sh`` so one searchsorted
    answers every probe), then fold to per-row (n_distinct, n_seen)
    partials routed by row-id hash."""
    new = _sorted_postings(*tables)
    if new.num_rows == 0:
        return _EMPTY_NOVELTY_PARTIAL
    nh = new["sh"].to_numpy(zero_copy_only=False).astype(np.int64)
    nid = new["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    seen = np.zeros(len(nh), dtype=bool)
    if prior_path is not None and os.path.exists(prior_path):
        ph = pq.read_table(prior_path, columns=["sh"])["sh"].to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        if len(ph):
            idx = np.searchsorted(ph, nh)
            in_range = idx < len(ph)
            seen[in_range] = ph[idx[in_range]] == nh[in_range]
    uniq, inv = np.unique(nid, return_inverse=True)
    dis = np.bincount(inv).astype(np.int64)
    sn = np.bincount(inv, weights=seen).astype(np.int64)
    part = (np.abs(uniq) % np.int64(num_partitions)).astype(np.int64)
    return pa.table(
        {"row_id": pa.array(uniq), "dis": pa.array(dis),
         "seen": pa.array(sn), "part": pa.array(part)}
    )


def _novelty_fold(group: pa.Table) -> pa.Table:
    empty = pa.table(
        {"row_id": pa.array([], pa.int64()), "n_distinct": pa.array([], pa.int64()),
         "n_seen": pa.array([], pa.int64()), "novelty": pa.array([], pa.float64())}
    )
    if group.num_rows == 0 or "dis" not in group.column_names:
        return empty
    rid = group["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    uniq, inv = np.unique(rid, return_inverse=True)
    dis = np.bincount(
        inv, weights=group["dis"].to_numpy(zero_copy_only=False)
    ).astype(np.int64)
    sn = np.bincount(
        inv, weights=group["seen"].to_numpy(zero_copy_only=False)
    ).astype(np.int64)
    novelty = 1.0 - sn / dis  # dis >= 1: rows only exist with >=1 posting
    return pa.table(
        {"row_id": pa.array(uniq), "n_distinct": pa.array(dis),
         "n_seen": pa.array(sn), "novelty": pa.array(novelty)}
    )


def jaccard_novelty_vs_state(
    new_ds: ray.data.Dataset,
    state_dir: str,
    id_column: str | None = None,
) -> ray.data.Dataset:
    """READ-ONLY novelty probe of a new batch against a saved jaccard
    posting index: per new row, over its DISTINCT shingles (the state's own
    ngram/min_length config), how many already appear anywhere in the index
    — ``novelty = 1 - n_seen / n_distinct`` (1.0 = nothing seen before,
    0.0 = fully covered). The curation twin of :func:`jaccard_increment`
    for score-then-decide flows (admit only sufficiently novel docs): no
    version is written, no meta bumped — the probe can run concurrently
    with reads and is safe to repeat.

    Zero-shingle rows (shorter than the ngram config) emit nothing and are
    absent from the result, mirroring the exploded-window SQL GROUP BY.
    ``id_column`` defaults to the column the state was bootstrapped with
    (recorded in meta) when the batch lacks ``row_id``.

    Scale shape: explode(new) + one postings exchange; each probe task
    reads ONLY its partition's ``sh`` column (never old row ids/sizes) and
    answers membership with one searchsorted over the file's existing
    sort order; only (row_id, 2 int64 counters) partials — O(new rows x
    partitions) worst case — move through the second exchange. The old
    index is never re-shuffled or rewritten.

    Returns a Dataset of ``(row_id, n_distinct, n_seen, novelty)``; counts
    are exact int64, so novelty is bit-identical to the DuckDB oracle
    (tests/test_novelty_vs_state.py).
    """
    from ..stages.exchange import hash_partition_exchange

    meta = load_meta(state_dir)
    if meta.get("algo") != "jaccard_posting":
        raise ValueError(f"state at {state_dir} is not a jaccard_posting index")
    if id_column is None and ROW_ID not in new_ds.schema().names:
        id_column = meta.get("id_column")
    if id_column is not None:
        new_ds = stamp_row_ids_from_key(new_ds, id_column)
    elif ROW_ID not in new_ds.schema().names:
        raise ValueError("dataset must have a row_id column or pass id_column")
    version = int(meta["version"])
    num_partitions = int(meta["num_partitions"])
    explode = _make_explode(
        meta["text_column"], int(meta["ngram_size"]),
        int(meta["min_length"]), num_partitions,
    )
    # zero-token docs shingle to the lone b'' gram (reference ngrams()
    # semantics, kept for dedup parity) — the novelty contract drops them
    # instead, matching the SQL exploded-window GROUP BY; b'' only ever
    # occurs as a singleton set, so (sh == H(b''), size == 1) is exact.
    from .jaccard_dedup import _shingle_hash64

    h_empty = _shingle_hash64(b"")

    def explode_nonempty(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = explode(batch)
        if t.num_rows == 0:
            return t
        drop = pc.and_(
            pc.equal(t["sh"], pa.scalar(h_empty, pa.int64())),
            pc.equal(t["size"], pa.scalar(1, pa.int64())),
        )
        return t.filter(pc.invert(drop))

    partials = _exchange_postings(
        new_ds.map_batches(explode_nonempty, batch_format="pyarrow"),
        _novelty_probe_partition,
        lambda p: (_index_file(state_dir, version, p), num_partitions),
        num_partitions,
    )
    return hash_partition_exchange(partials, "part", num_partitions, _novelty_fold)


def jaccard_increment(
    new_ds: ray.data.Dataset,
    state_dir: str,
    id_column: str | None = None,
    driver_threshold: int = 2_000_000,
    validate_ids: bool = True,
) -> IncrementResult:
    """Dedup ``new_ds`` against the saved posting index AND itself; persist
    the next version. Cluster assignments equal a full exact-Jaccard re-run
    over old ∪ new. Shingle/threshold parameters come from the saved meta."""
    meta = load_meta(state_dir)
    if meta.get("algo") != "jaccard_posting":
        raise ValueError(f"state at {state_dir} is not a jaccard_posting index")
    if id_column is not None:
        new_ds = stamp_row_ids_from_key(new_ds, id_column)
    elif ROW_ID not in new_ds.schema().names:
        raise ValueError("dataset must have a row_id column or pass id_column")
    explode = _make_explode(
        meta["text_column"], int(meta["ngram_size"]),
        int(meta["min_length"]), int(meta["num_partitions"]),
    )
    return posting_state_increment(
        new_ds,
        state_dir,
        meta,
        postings_of=lambda d: d.map_batches(explode, batch_format="pyarrow"),
        driver_threshold=driver_threshold,
        validate_ids=validate_ids,
    )


@ray.remote
def _posting_union_write(
    out_path: str, path_a: str, path_b: str, df_cap: int, num_partitions: int
) -> pa.Table:
    """Merge one posting partition of two states: write the re-sorted
    concatenation (postings are per-row facts — the merged file IS the
    union corpus's posting file), and emit pair partials for CROSS
    (A-row x B-row) co-occurrences only — within-state connectivity is
    already folded into each state's cluster map. File-local: both states
    partition by the same ``hash % P``."""
    a = pq.read_table(path_a) if os.path.exists(path_a) else _sorted_postings()
    b = pq.read_table(path_b) if os.path.exists(path_b) else _sorted_postings()
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    pq.write_table(_sorted_postings(a, b), out_path)
    if a.num_rows == 0 or b.num_rows == 0:
        return _EMPTY_PAIRS
    ah = a["sh"].to_numpy(zero_copy_only=False).astype(np.int64)
    aid = a["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    asz = a["size"].to_numpy(zero_copy_only=False).astype(np.int64)
    bh = b["sh"].to_numpy(zero_copy_only=False).astype(np.int64)
    bid = b["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    bsz = b["size"].to_numpy(zero_copy_only=False).astype(np.int64)
    a_out, b_out, sa_out, sb_out = [], [], [], []
    dropped = 0
    b_starts = np.flatnonzero(np.r_[True, np.diff(bh) != 0])
    b_ends = np.r_[b_starts[1:], len(bh)]
    for s, e in zip(b_starts, b_ends):
        h = bh[s]
        lo = np.searchsorted(ah, h, side="left")
        hi = np.searchsorted(ah, h, side="right")
        n_a = hi - lo
        if n_a == 0:
            continue
        m = n_a + (e - s)
        if m > df_cap:  # combined df — same cap a full re-run would apply
            dropped += 1
            continue
        # cross pairs only: every (A row, B row) of this shingle
        ra, rb = aid[lo:hi], bid[s:e]
        za, zb = asz[lo:hi], bsz[s:e]
        ii, jj = np.meshgrid(np.arange(n_a), np.arange(e - s), indexing="ij")
        ii, jj = ii.ravel(), jj.ravel()
        x, y = ra[ii], rb[jj]
        zx, zy = za[ii], zb[jj]
        a_out.append(np.maximum(x, y))
        b_out.append(np.minimum(x, y))
        sa_out.append(np.where(x > y, zx, zy))
        sb_out.append(np.where(x > y, zy, zx))
    if dropped:
        logger.warning(
            "posting_state_union: %d shingles above df_cap=%d dropped",
            dropped, df_cap,
        )
    if not a_out:
        return _EMPTY_PAIRS
    aa = np.concatenate(a_out).astype(np.int64)
    bb = np.concatenate(b_out).astype(np.int64)
    sa = np.concatenate(sa_out).astype(np.int64)
    sb = np.concatenate(sb_out).astype(np.int64)
    order2 = np.lexsort((bb, aa))
    aa, bb, sa, sb = aa[order2], bb[order2], sa[order2], sb[order2]
    bounds = np.flatnonzero(np.r_[True, (np.diff(aa) != 0) | (np.diff(bb) != 0)])
    co = np.diff(np.r_[bounds, len(aa)]).astype(np.int64)
    aa, bb, sa, sb = aa[bounds], bb[bounds], sa[bounds], sb[bounds]
    with np.errstate(over="ignore"):
        part = (np.abs(aa * np.int64(31) + bb) % np.int64(num_partitions)).astype(np.int64)
    return pa.table({"a": aa, "b": bb, "sa": sa, "sb": sb, "co": co, "part": part})


def posting_state_union(
    state_a: str,
    state_b: str,
    out_dir: str,
    driver_threshold: int = 2_000_000,
    validate_ids: bool = True,
) -> tuple[int, dict[int, int]]:
    """Merge two INDEPENDENTLY-built posting-index states into one state
    equivalent to a bootstrap over the union corpus — FAMILY-AGNOSTIC
    (n-gram Jaccard, video frame-phash, audio fingerprint: any state whose
    index is (element, row_id, set_size) postings), because the union
    operates purely on the stored postings and never re-explodes a corpus.

    Correctness: a full rerun's verified pairs are (A x A) ∪ (B x B) ∪
    (A x B); each state's cluster map IS the CC of its within-state pairs,
    so emitting only CROSS pairs — with co-occurrence counts summed across
    partitions before the exact-Jaccard threshold, identical to the batch
    path — and composing through both prior maps (shared
    :func:`incremental._compose_two_priors` union-find) reproduces the full
    rerun exactly (tests/test_posting_state_union.py, jaccard + video).
    ``df_cap`` applies to the COMBINED posting list, matching a full rerun.

    Scale shape: P file-local merge tasks (both states partition by the
    same element hash — ZERO index shuffle); only cross-pair partials
    (six int64 columns) move through the pair exchange; cluster rows
    stream once through the remap.

    Requirements: identical family config (cfg hashes, threshold, df_cap,
    partition count) and DISJOINT row-id ranges. Returns ``(version,
    merges)``.
    """
    from ..stages.exchange import hash_partition_exchange
    from .incremental import _compose_two_priors, _write_union_clusters

    ma, mb = load_meta(state_a), load_meta(state_b)
    for m, d in ((ma, state_a), (mb, state_b)):
        if not str(m.get("algo", "")).endswith("_posting"):
            raise ValueError(f"state at {d} is not a posting-index state")
    drop = {"version", "max_row_id"}
    if {k: v for k, v in ma.items() if k not in drop} != {
        k: v for k, v in mb.items() if k not in drop
    }:
        raise ValueError(
            "states were built with different configs (algo/cfg_hash/"
            "threshold/df_cap/num_partitions must all match for union)"
        )
    num_partitions = int(ma["num_partitions"])
    va, vb = int(ma["version"]), int(mb["version"])
    threshold = float(ma["threshold"])
    df_cap = int(ma["df_cap"])

    if validate_ids:
        ints = []
        for sd, v, m in ((state_a, va, ma), (state_b, vb, mb)):
            lo = None
            for p in range(num_partitions):
                f = _index_file(sd, v, p)
                if not os.path.exists(f):
                    continue
                t = pq.read_table(f, columns=["row_id"])
                if t.num_rows:
                    mn = int(t["row_id"].to_numpy(zero_copy_only=False).min())
                    lo = mn if lo is None else min(lo, mn)
            ints.append(None if lo is None else (lo, int(m["max_row_id"])))
        ia, ib = ints
        if ia is not None and ib is not None and ia[0] <= ib[1] and ib[0] <= ia[1]:
            raise ValueError(
                f"row-id intervals overlap: {state_a}={ia} vs {state_b}={ib}; "
                "union requires disjoint id ranges"
            )

    version = 1
    _clean_version_dir(out_dir, version)
    pair_refs = [
        _posting_union_write.remote(
            _index_file(out_dir, version, p),
            _index_file(state_a, va, p),
            _index_file(state_b, vb, p),
            df_cap,
            num_partitions,
        )
        for p in range(num_partitions)
    ]
    edges = hash_partition_exchange(
        ray.data.from_arrow_refs(pair_refs), "part", num_partitions,
        _make_pair_reduce(threshold),
    )
    cc = connected_components_auto(
        edges, driver_threshold=driver_threshold, num_partitions=num_partitions
    )
    merges = _compose_two_priors(
        cc, _clusters_dir(state_a, va), _clusters_dir(state_b, vb)
    )
    _write_union_clusters(
        _clusters_dir(out_dir, version),
        [_clusters_dir(state_a, va), _clusters_dir(state_b, vb)],
        merges,
    )
    out_meta = {k: v for k, v in ma.items() if k not in drop}
    out_meta.update(
        {
            "version": version,
            "max_row_id": max(int(ma["max_row_id"]), int(mb["max_row_id"])),
        }
    )
    _write_meta(out_dir, out_meta)
    return version, merges


def posting_state_increment(
    new_ds: ray.data.Dataset,
    state_dir: str,
    meta: dict,
    postings_of,
    driver_threshold: int = 2_000_000,
    validate_ids: bool = True,
    batch_id_range: tuple[int, int] | None = None,
) -> IncrementResult:
    """Family-agnostic tiered increment over the posting-index contract
    (counterpart of :func:`posting_state_bootstrap`): explode ONLY the new
    batch via ``postings_of``, merge against the prior posting files read
    locally per partition (the old index never re-shuffles), emit
    new-involving pairs, compose with the prior cluster map. ``new_ds`` must
    already carry ``row_id``; ``meta`` is the loaded state meta (the caller
    has validated its ``algo`` tag and rebuilt the family's postings
    stage from it)."""
    timer = Timer()
    prior_version = int(meta["version"])
    num_partitions = int(meta["num_partitions"])
    prior_max = int(meta["max_row_id"])
    threshold = float(meta["threshold"])
    df_cap = int(meta["df_cap"])

    from .incremental import _resolve_batch_bounds

    new_max = _resolve_batch_bounds(
        new_ds, prior_max, validate_ids, batch_id_range
    )

    version = prior_version + 1
    _clean_version_dir(state_dir, version)
    postings = postings_of(new_ds)
    from ..stages.exchange import hash_partition_exchange

    with timer("postings+index"):
        pair_partials = _exchange_postings(
            postings,
            _increment_reduce_write,
            lambda p: (
                _index_file(state_dir, version, p),
                _index_file(state_dir, prior_version, p),
                df_cap,
                num_partitions,
            ),
            num_partitions,
        )
    with timer("pair_reduce"):
        edges = hash_partition_exchange(
            pair_partials, "part", num_partitions, _make_pair_reduce(threshold)
        )
    with timer("cc"):
        cc = connected_components_auto(
            edges, driver_threshold=driver_threshold, num_partitions=num_partitions
        )
    with timer("compose"):
        parents, merges = _compose_with_prior(
            cc, prior_max, _clusters_dir(state_dir, prior_version)
        )
    with timer("assign+state"):
        _write_clusters(
            parents,
            _clusters_dir(state_dir, version),
            prior_dir=_clusters_dir(state_dir, prior_version),
            merges=merges,
            min_new_id=prior_max + 1,
        )
        if isinstance(parents, dict):
            assigned = assign_clusters(new_ds, parents)
        else:
            assigned = assign_clusters_sharded(
                new_ds, parents.materialize(), num_shards=num_partitions
            )
    meta.update({"version": version, "max_row_id": max(prior_max, new_max)})
    _write_meta(state_dir, meta)
    return IncrementResult(
        assigned=assigned,
        deduped=filter_cluster_roots(assigned),
        parents=parents,
        merged_old_roots=merges,
        state_version=version,
        metrics={"stage_seconds": timer.report()},
    )
