"""MinHashLSH near-duplicate pipeline (Ray-Data-native).

Reference lifecycle (minhash.py:187-228): load+index -> min-length filter ->
per-doc fingerprint -> driver-local polars bucket/pair/CC -> dict assign ->
optional Jaccard verify -> keep cluster roots -> save.

This pipeline keeps the same semantics but streams end-to-end:

  stamp row_id -> filter(min_length) -> [narrow: row_id+text]
    -> MinHashFingerprinter actor pool: signatures, then local bucket
       star-edges + per-bucket reps, fused                # vectorized batches
    -> tagged split exchange: edges pass through, reps
       hash-partitioned and merged                        # the only shuffle
    -> CC on the exchange's ObjectRefs: one vectorized union-find on the
       driver when the edges fit driver_threshold, else tree reduce /
       distributed CC
    -> broadcast (or sharded) cluster map -> assign -> [verify] -> filter roots

Payload columns (image bytes etc.) never enter the shuffle: signatures ride
in a narrow side dataset and clusters re-join the full-schema rows by row_id
(SURVEY §7.4).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

import pyarrow as pa
import ray
import ray.data

from ..functions.minhash import MinHashConfig
from ..functions.timer import Timer
from ..functions.tokenization import token_count
from ..sources.io import ROW_ID, stamp_row_ids_from_key
from ..stages.assign import (
    CLUSTER_COLUMN,
    assign_clusters,
    assign_clusters_sharded,
    filter_cluster_roots,
)
from ..stages.cc import connected_components_auto
from ..stages.edges import (
    minhash_local_buckets,
    minhash_rep_part,
    minhash_rep_reduce,
)
from ..stages.exchange import (
    hash_partition_exchange,
    require_streaming_cpus,
    tagged_split_exchange_refs,
)
from ..stages.fingerprint import MinHashFingerprinter
from .verify import verify_clusters_auto

logger = logging.getLogger(__name__)


@dataclass
class MinHashDedupResult:
    assigned: ray.data.Dataset  # full schema + __CLUSTER__/__duplicate__
    deduped: ray.data.Dataset   # cluster roots only (or == assigned when skipped)
    # pre-verification cluster map (incl. root->root). A dict when it fits
    # driver_threshold, else a Dataset (row_id, cluster_id) — the automatic
    # distributed-CC fallback.
    parents: dict[int, int] | ray.data.Dataset
    verified_parents: dict[int, int] | None = None
    metrics: dict = field(default_factory=dict)  # per-stage counts (A6 parity)


def min_length_filter(
    ds: ray.data.Dataset, text_column: str, min_length: int
) -> ray.data.Dataset:
    """Drop docs with fewer than ``min_length`` tokens (minhash.py:23-28).

    Vectorized: for ASCII text the reference tokenizer's count (split on
    ``\\W`` dropping empties) equals the number of ``[A-Za-z0-9_]+`` matches,
    which Arrow's re2 kernel counts in C. Non-ASCII rows (where Python's
    unicode ``\\w`` and re2's ASCII classes can disagree) fall back to the
    exact Python tokenizer — parity preserved, hot path vectorized."""
    if min_length <= 0:
        return ds

    import pyarrow.compute as pc

    def keep(batch: pa.Table) -> pa.Table:
        col = batch[text_column]
        counts = pc.count_substring_regex(col, "[A-Za-z0-9_]+").to_numpy(
            zero_copy_only=False
        )
        non_ascii = pc.invert(pc.string_is_ascii(col)).to_numpy(zero_copy_only=False)
        if non_ascii.any():
            import numpy as np

            counts = counts.copy()
            idx = np.flatnonzero(non_ascii)
            texts = col.take(pa.array(idx)).to_pylist()
            counts[idx] = [token_count(t) for t in texts]
        return batch.filter(pa.array(counts >= min_length))

    return ds.map_batches(keep, batch_format="pyarrow")


def minhash_dedup(
    ds: ray.data.Dataset,
    text_column: str = "text",
    cfg: MinHashConfig | None = None,
    id_column: str | None = None,
    skip_filtering: bool = False,
    fingerprint_concurrency: int | tuple[int, int] = (1, 8),
    fingerprint_batch_size: int = 2048,
    merge_partitions: int = 64,
    signature_source: ray.data.Dataset | None = None,
    driver_threshold: int = 2_000_000,
    collect_metrics: bool = True,
    prefetch_payload: bool = False,
    b_bits: int | None = None,
) -> MinHashDedupResult:
    """Run the full MinHashLSH dedup over a Dataset.

    ``b_bits``: b-bit minwise hashing (Li & König, WWW'10) — band over only
    the lowest 8 or 16 bits of each permutation value instead of the full
    32. A strict coarsening of the full-width clustering (every full-width
    duplicate pair stays clustered) that cuts the exploded band table — the
    dominant shuffle volume at 10^12 rows — by 4x (b=8) or 2x (b=16) at the
    cost of a slightly higher LSH false-positive rate, which the optional
    Jaccard verify pass (``cfg.check_false_positive``) absorbs. None = full
    width.

    ``id_column``: an existing unique int column to use as row_id (e.g.
    ``doc_id``); if None the Dataset must already carry ``row_id``.

    ``signature_source``: optional narrow Dataset (same rows, at least
    [row_id | id_column, text_column]) to fingerprint from — lets wide
    tables prune payload columns AT THE READ for the signature branch
    instead of dragging image bytes through the fingerprint stage.

    ``driver_threshold``: max reduced-edge count the driver union-find will
    hold. Above it the pipeline automatically switches to the fully
    distributed CC + sharded object-store assignment (the 10^12-row path) —
    pass 0 to force that path (the parity test does).

    ``prefetch_payload``: materialize the filtered payload branch in a
    background thread WHILE the signature/CC stages run, overlapping the wide
    read with the narrow compute (cuts several seconds of serial floor).
    Costs one payload copy in the object store (spillable) — a latency
    optimization for latency-bound corpora; leave False to stream the final
    pass instead.
    """
    cfg = cfg or MinHashConfig()
    if b_bits is not None and b_bits not in (8, 16):
        # validate on the driver: inside the actor pool the same check would
        # surface as an opaque RayActorError at first execution
        raise ValueError("b_bits must be 8 or 16 (byte-aligned)")
    cpus = require_streaming_cpus("minhash_dedup")
    timer = Timer()
    if id_column is not None:
        ds = stamp_row_ids_from_key(ds, id_column)
    elif ROW_ID not in ds.schema().names:
        raise ValueError("dataset must have a row_id column or pass id_column")

    filtered = min_length_filter(ds, text_column, cfg.min_length)

    prefetch: dict = {}
    prefetch_thread = None
    # the background materialize needs CPU slots alongside the fingerprint
    # actor pool; on tiny clusters (<4 CPUs) the two can starve each other
    # into a deadlock — stream the final pass instead there.
    if prefetch_payload and (cpus is None or cpus >= 4):
        import threading

        def _materialize_payload(pf=filtered):
            try:
                prefetch["ds"] = pf.materialize()
            except Exception as exc:  # pragma: no cover - falls back to lazy
                prefetch["err"] = exc

        prefetch_thread = threading.Thread(target=_materialize_payload, daemon=True)
        prefetch_thread.start()

    if signature_source is not None:
        src = signature_source
        if id_column is not None and ROW_ID not in src.schema().names:
            src = stamp_row_ids_from_key(src, id_column)
        narrow = min_length_filter(src, text_column, cfg.min_length)
        narrow = narrow.select_columns([ROW_ID, text_column])
    else:
        narrow = filtered.select_columns([ROW_ID, text_column])
    # the bucket kernel runs fused inside the fingerprint actor (emit=
    # "buckets"): an actor-pool stage can't fuse with a downstream task
    # stage, and the un-fused plan pays a full object-store round trip over
    # the exploded band table (bands x the input row count)
    local = narrow.map_batches(
        MinHashFingerprinter,
        fn_constructor_args=(cfg, text_column, "buckets", b_bits),
        batch_format="pyarrow",
        batch_size=fingerprint_batch_size,
        concurrency=fingerprint_concurrency,
    )
    # one streaming pass over the tagged bucket blocks: edges pass through,
    # reps are hash-partitioned and merged — the split tasks launch while the
    # fingerprint stage is still producing (no materialize barrier, and no
    # re-reading the bucket table once per branch). The timer below covers
    # the full fingerprint execution because the iterator drains it.
    with timer("fingerprint+local_buckets"):
        edge_refs, reduced_refs, signature_rows = tagged_split_exchange_refs(
            local,
            "is_edge",
            minhash_rep_part,
            merge_partitions,
            minhash_rep_reduce,
        )
    with timer("rep_merge"):
        if reduced_refs:
            ray.wait(reduced_refs, num_returns=len(reduced_refs))
    with timer("cc"):
        parents = connected_components_auto(
            edge_refs + reduced_refs,
            driver_threshold=driver_threshold,
            num_partitions=merge_partitions,
        )

    metrics: dict = {"bands": cfg.bands, "rows_per_band": cfg.rows}
    parents_is_dict = isinstance(parents, dict)
    metrics["cc_path"] = "driver" if parents_is_dict else "distributed"
    if collect_metrics:
        # tallied from the streamed bundles — no extra pass
        metrics["signature_rows"] = signature_rows
        if parents_is_dict:
            n_dup_members = sum(1 for m, r in parents.items() if m != r)
            metrics["cluster_members"] = len(parents)
            metrics["duplicate_rows"] = n_dup_members
            metrics["clusters"] = len(parents) - n_dup_members

    if prefetch_thread is not None:
        with timer("payload_prefetch_join"):
            prefetch_thread.join()
        if "ds" in prefetch:
            filtered = prefetch["ds"]

    with timer("assign"):
        if parents_is_dict:
            assigned = assign_clusters(filtered, parents)
        else:
            parents = parents.materialize()
            assigned = assign_clusters_sharded(
                filtered, parents, num_shards=merge_partitions
            )

    verified_parents = None
    if cfg.check_false_positive:
        with timer("verify"):
            verified_parents = verify_clusters_auto(
                assigned,
                text_column,
                cfg.ngram_size,
                cfg.min_length,
                cfg.threshold,
                mode="minhash",
                driver_threshold=driver_threshold,
            )
            # re-derives __CLUSTER__; __duplicate__ becomes "in verified map"
            if isinstance(verified_parents, dict):
                assigned = assign_clusters(assigned, verified_parents)
            else:
                assigned = assign_clusters_sharded(
                    assigned, verified_parents, num_shards=merge_partitions
                )
    metrics["stage_seconds"] = timer.report()

    deduped = assigned if skip_filtering else filter_cluster_roots(assigned)
    return MinHashDedupResult(
        assigned=assigned,
        deduped=deduped,
        parents=parents,
        verified_parents=verified_parents,
        metrics=metrics,
    )


def minhash_threshold_sweep(
    ds: ray.data.Dataset,
    text_column: str = "text",
    cfg: MinHashConfig | None = None,
    band_configs: "list[tuple[int, int]] | None" = None,
    id_column: str | None = None,
    fingerprint_concurrency: int | tuple[int, int] = (1, 8),
    fingerprint_batch_size: int = 2048,
    merge_partitions: int = 16,
    driver_threshold: int = 2_000_000,
) -> pa.Table:
    """Threshold CALIBRATION sweep: how many duplicates would MinHashLSH
    find at several (bands, rows) operating points — the question a
    curation team answers before committing a threshold to a 100 TB run.

    The expensive stage (tokenize + shingle + permute: ~70% of dedup wall)
    runs ONCE: a ``SigMatrixFingerprinter`` actor pool emits one compact
    byteswapped signature row per doc, the narrow (row_id, num_perm x item
    bytes) table materializes in the object store, and each config re-bands
    by SLICING those bytes (band b = bytes [b*rows*item, (b+1)*rows*item) —
    bit-identical to a fresh ``MinHashFingerprinter`` run at that config,
    proven by tests/test_threshold_sweep.py counting against full
    ``minhash_dedup`` runs). Each config then pays only its own bucket/
    exchange/CC pass over 8+width-byte rows.

    Returns one row per config: ``(bands, rows_per_band, threshold_est,
    n_docs, duplicate_rows, survivors)`` where ``threshold_est =
    (1/bands)**(1/rows)`` is the LSH S-curve midpoint. Every config must
    satisfy ``bands * rows <= cfg.num_perm``; all configs share
    ``cfg.min_length`` (the filter runs once, upstream of the sigs).
    """
    from ..stages.edges import _binary_to_u8
    from ..stages.fingerprint import SigMatrixFingerprinter

    cfg = cfg or MinHashConfig()
    band_configs = band_configs or [(cfg.bands, cfg.rows)]
    for b, r in band_configs:
        if b * r > cfg.num_perm:
            raise ValueError(
                f"config (bands={b}, rows={r}) needs {b * r} permutations "
                f"but cfg.num_perm={cfg.num_perm}"
            )
    if id_column is not None:
        ds = stamp_row_ids_from_key(ds, id_column)
    elif ROW_ID not in ds.schema().names:
        raise ValueError("dataset must have a row_id column or pass id_column")

    filtered = min_length_filter(ds, text_column, cfg.min_length)
    narrow = filtered.select_columns([ROW_ID, text_column])
    sig_ds = narrow.map_batches(
        SigMatrixFingerprinter,
        fn_constructor_args=(cfg, text_column),
        batch_format="pyarrow",
        batch_size=fingerprint_batch_size,
        concurrency=fingerprint_concurrency,
    ).materialize()
    n_docs = sig_ds.count()
    from ..functions.minhash import HASH_CONFIG

    max_hash = HASH_CONFIG[cfg.hash_bits][1]
    item = 4 if max_hash <= 0xFFFFFFFF else np.dtype(HASH_CONFIG[cfg.hash_bits][0]).itemsize
    sig_width = cfg.num_perm * item

    def make_reband(bands: int, rows: int):
        width = rows * item

        def f(t: pa.Table) -> pa.Table:
            n = t.num_rows
            empty = pa.table(
                {
                    "row_id": pa.array([], pa.int64()),
                    "band_idx": pa.array([], pa.int32()),
                    "band_val": pa.array([], pa.binary(width)),
                }
            )
            if n == 0:
                return minhash_local_buckets(empty)
            u8 = _binary_to_u8(t["sig"], sig_width, n).view(np.uint8).reshape(
                n, sig_width
            )
            mat = np.ascontiguousarray(u8[:, : bands * width])
            band_vals = pa.FixedSizeBinaryArray.from_buffers(
                pa.binary(width), n * bands, [None, pa.py_buffer(mat.tobytes())]
            )
            row_ids = t["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            out = pa.table(
                {
                    "row_id": np.repeat(row_ids, bands),
                    "band_idx": np.tile(np.arange(bands, dtype=np.int32), n),
                    "band_val": band_vals,
                }
            )
            return minhash_local_buckets(out)

        return f

    out_rows = []
    for bands, rows in band_configs:
        local = sig_ds.map_batches(make_reband(bands, rows), batch_format="pyarrow")
        edge_refs, reduced_refs, _sig_rows = tagged_split_exchange_refs(
            local, "is_edge", minhash_rep_part, merge_partitions, minhash_rep_reduce
        )
        parents = connected_components_auto(
            edge_refs + reduced_refs,
            driver_threshold=driver_threshold,
            num_partitions=merge_partitions,
        )
        if isinstance(parents, dict):
            duplicates = sum(1 for m, r_ in parents.items() if m != r_)
        else:
            import pyarrow.compute as pc

            duplicates = parents.map_batches(
                lambda t: t.filter(
                    pc.invert(pc.equal(t["row_id"], t["cluster_id"]))
                ),
                batch_format="pyarrow",
            ).count()
        out_rows.append(
            {
                "bands": bands,
                "rows_per_band": rows,
                "threshold_est": (1.0 / bands) ** (1.0 / rows),
                "n_docs": n_docs,
                "duplicate_rows": int(duplicates),
                "survivors": int(n_docs - duplicates),
            }
        )
    return pa.table(
        {
            "bands": pa.array([r["bands"] for r in out_rows], pa.int64()),
            "rows_per_band": pa.array(
                [r["rows_per_band"] for r in out_rows], pa.int64()
            ),
            "threshold_est": pa.array(
                [r["threshold_est"] for r in out_rows], pa.float64()
            ),
            "n_docs": pa.array([r["n_docs"] for r in out_rows], pa.int64()),
            "duplicate_rows": pa.array(
                [r["duplicate_rows"] for r in out_rows], pa.int64()
            ),
            "survivors": pa.array([r["survivors"] for r in out_rows], pa.int64()),
        }
    )


def minhash_dedup_checkpointed(
    ds: ray.data.Dataset,
    checkpoint_root: str,
    source_fingerprint: str,
    text_column: str = "text",
    cfg: MinHashConfig | None = None,
    id_column: str | None = None,
    skip_filtering: bool = False,
    fingerprint_concurrency: int | tuple[int, int] = (1, 8),
    fingerprint_batch_size: int = 2048,
    merge_partitions: int = 64,
    driver_threshold: int = 2_000_000,
) -> tuple[MinHashDedupResult, dict[str, bool]]:
    """Resumable variant of the SAME streaming pipeline as
    :func:`minhash_dedup`: the signature stage and the cluster map are
    materialized through a :class:`CheckpointManager` keyed by
    (stage, config hash, lineage). A rerun after a kill skips completed
    stages; ``source_fingerprint`` identifies the immutable input (e.g. its
    path + mtime or content hash) so stale checkpoints never resurrect.

    From the checkpointed signature table onward this runs the hot path —
    tagged split-exchange, ``connected_components_auto`` (with the same
    ``driver_threshold`` contract) and broadcast/sharded assignment — so a
    user opting into resume keeps the streaming overlap and the
    distributed-CC fallback (VERDICT r2 #4). Emits the same
    ``metrics["stage_seconds"]`` / ``metrics["cc_path"]`` shape.

    Returns (result, {stage: was_cached}).
    """
    from dataclasses import asdict

    import numpy as np

    from ..state.checkpoint import CheckpointManager, checkpointed_minhash_signatures, config_hash

    cfg = cfg or MinHashConfig()
    timer = Timer()
    if id_column is not None:
        ds = stamp_row_ids_from_key(ds, id_column)
    elif ROW_ID not in ds.schema().names:
        raise ValueError("dataset must have a row_id column or pass id_column")

    manager = CheckpointManager(checkpoint_root)
    filtered = min_length_filter(ds, text_column, cfg.min_length)

    with timer("fingerprint+local_buckets"):
        sig, sig_cached = checkpointed_minhash_signatures(
            filtered,
            cfg,
            text_column,
            manager,
            source_fingerprint,
            fingerprint_concurrency=fingerprint_concurrency,
            fingerprint_batch_size=fingerprint_batch_size,
        )

    sig_conf = config_hash(
        {"algo": "minhash_signatures", "cfg": asdict(cfg), "text_column": text_column},
        parents=[source_fingerprint],
    )
    cluster_conf = config_hash({"algo": "minhash_clusters"}, parents=[sig_conf])

    metrics: dict = {"bands": cfg.bands, "rows_per_band": cfg.rows}
    hit = manager.lookup("minhash_clusters", cluster_conf)
    if hit is not None:
        cluster_ds = manager.load(hit)
        n_members = hit.manifest.get("n_members", cluster_ds.count())
        if n_members <= driver_threshold:
            tbl = cluster_ds.to_pandas()
            parents: dict | ray.data.Dataset = dict(
                zip(tbl["row_id"].astype(np.int64), tbl["cluster_id"].astype(np.int64))
            )
        else:
            parents = cluster_ds
        cluster_cached = True
    else:
        # hot path from the signature checkpoint: bucket kernel as a task
        # stage (signatures are already materialized parquet — nothing to
        # fuse into), then the streaming tagged split-exchange + auto CC
        local = sig.map_batches(
            minhash_local_buckets, batch_format="pyarrow", batch_size=None
        )
        with timer("rep_merge"):
            edge_refs, reduced_refs, _sig_rows = tagged_split_exchange_refs(
                local, "is_edge", minhash_rep_part, merge_partitions, minhash_rep_reduce
            )
            if reduced_refs:
                ray.wait(reduced_refs, num_returns=len(reduced_refs))
        with timer("cc"):
            parents = connected_components_auto(
                edge_refs + reduced_refs,
                driver_threshold=driver_threshold,
                num_partitions=merge_partitions,
            )
        from ..stages.cc import cluster_map_to_table

        if isinstance(parents, dict):
            cluster_ds = ray.data.from_arrow(cluster_map_to_table(parents))
            n_members = len(parents)
        else:
            cluster_ds = parents
            n_members = cluster_ds.count()
        ckpt = manager.save(
            cluster_ds,
            "minhash_clusters",
            cluster_conf,
            parents=[sig_conf],
            extra_meta={"n_members": n_members},
        )
        if not isinstance(parents, dict):
            parents = manager.load(ckpt)  # read back: downstream reuse streams
        cluster_cached = False

    metrics["cc_path"] = "driver" if isinstance(parents, dict) else "distributed"
    with timer("assign"):
        if isinstance(parents, dict):
            assigned = assign_clusters(filtered, parents)
        else:
            assigned = assign_clusters_sharded(
                filtered, parents.materialize(), num_shards=merge_partitions
            )
    metrics["stage_seconds"] = timer.report()
    deduped = assigned if skip_filtering else filter_cluster_roots(assigned)
    result = MinHashDedupResult(
        assigned=assigned, deduped=deduped, parents=parents, metrics=metrics
    )
    return result, {"signatures": sig_cached, "clusters": cluster_cached}


def minhash_cross_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    cfg: MinHashConfig,
    text_column: str = "text",
    left_id: str | None = None,
    right_id: str | None = None,
    right_text_column: str | None = None,
    num_partitions: int = 32,
    fingerprint_concurrency: int | tuple[int, int] = (1, 8),
    fingerprint_batch_size: int = 2048,
    max_bucket: int = 4096,
) -> ray.data.Dataset:
    """Probabilistic fuzzy JOIN between two tables via MinHashLSH: distinct
    (left_id, right_id) candidate pairs whose signatures collide in >= 1
    band — the SCALE path for cross-corpus matching (``jaccard_cross_join``
    is the exact counterpart; compose the two to re-rank candidates).

    Both sides fingerprint with the SAME config (identical permutations per
    seed, so band values are comparable); (band_idx, band_val) rows tagged
    with their side co-locate through the bucket-key hash exchange; each
    bucket emits only CROSS-side combinations (within-side duplicates are
    free); a second tiny exchange dedups pairs that collided in several
    bands. Buckets above ``max_bucket`` combined members are skipped with a
    logged count, same contract as the dedup path's caps."""
    from ..stages.edges import _hash_part, _void_view, minhash_bucket_key_u8

    right_text_column = right_text_column or text_column

    def fingerprint_side(ds: ray.data.Dataset, col: str, side: int, idc):
        if idc is not None and ROW_ID not in (ds.schema().names or []):
            ds = stamp_row_ids_from_key(ds, idc)
        narrow = min_length_filter(ds, col, cfg.min_length)
        narrow = narrow.select_columns([ROW_ID, col])
        sig = narrow.map_batches(
            MinHashFingerprinter,
            fn_constructor_args=(cfg, col, "sig"),
            batch_format="pyarrow",
            batch_size=fingerprint_batch_size,
            concurrency=fingerprint_concurrency,
        )

        def tag(batch: pa.Table) -> pa.Table:
            part = _hash_part(minhash_bucket_key_u8(batch), num_partitions)
            return batch.append_column(
                "side", pa.array(np.full(batch.num_rows, side, np.int8))
            ).append_column("part", pa.array(part.astype(np.int64)))

        return sig.map_batches(tag, batch_format="pyarrow")

    postings = fingerprint_side(left, text_column, 0, left_id).union(
        fingerprint_side(right, right_text_column, 1, right_id)
    )

    def _empty_pairs() -> pa.Table:
        return pa.table(
            {"left_id": pa.array([], pa.int64()),
             "right_id": pa.array([], pa.int64()),
             "part": pa.array([], pa.int64())}
        )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "band_idx" not in group.column_names:
            return _empty_pairs()
        keys = _void_view(minhash_bucket_key_u8(group))
        rid = group["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        side = group["side"].to_numpy(zero_copy_only=False)
        _, inverse = np.unique(keys, return_inverse=True)
        order = np.lexsort((rid, side, inverse))
        inv_s, side_s, rid_s = inverse[order], side[order], rid[order]
        starts = np.flatnonzero(np.r_[True, np.diff(inv_s) != 0])
        ends = np.r_[starts[1:], len(inv_s)]
        l_out, r_out = [], []
        skipped = 0
        for s, e in zip(starts, ends):
            if e - s > max_bucket:
                skipped += 1
                continue
            cut = s + int(np.searchsorted(side_s[s:e], 1))
            if cut == s or cut == e:
                continue
            ii, jj = np.meshgrid(
                np.arange(s, cut), np.arange(cut, e), indexing="ij"
            )
            l_out.append(rid_s[ii.ravel()])
            r_out.append(rid_s[jj.ravel()])
        if skipped:
            logger.warning(
                "minhash_cross_join: %d buckets above max_bucket=%d skipped",
                skipped, max_bucket,
            )
        if not l_out:
            return _empty_pairs()
        l = np.concatenate(l_out)
        r = np.concatenate(r_out)
        # local distinct (same pair can collide in several bands/partitions)
        order2 = np.lexsort((r, l))
        l, r = l[order2], r[order2]
        keep = np.r_[True, (np.diff(l) != 0) | (np.diff(r) != 0)]
        l, r = l[keep], r[keep]
        with np.errstate(over="ignore"):
            part = (np.abs(l * np.int64(31) + r) % np.int64(num_partitions)).astype(np.int64)
        return pa.table(
            {"left_id": pa.array(l), "right_id": pa.array(r), "part": pa.array(part)}
        )

    partials = hash_partition_exchange(postings, "part", num_partitions, bucket_pairs)

    def global_distinct(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "left_id" not in group.column_names:
            return pa.table(
                {"left_id": pa.array([], pa.int64()),
                 "right_id": pa.array([], pa.int64())}
            )
        l = group["left_id"].to_numpy(zero_copy_only=False)
        r = group["right_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((r, l))
        l, r = l[order], r[order]
        keep = np.r_[True, (np.diff(l) != 0) | (np.diff(r) != 0)]
        return pa.table({"left_id": pa.array(l[keep]), "right_id": pa.array(r[keep])})

    return hash_partition_exchange(partials, "part", num_partitions, global_distinct)


def fuzzy_cross_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    cfg: MinHashConfig,
    threshold: float,
    text_column: str = "text",
    left_id: str | None = None,
    right_id: str | None = None,
    right_text_column: str | None = None,
    num_partitions: int = 32,
    max_bucket: int = 4096,
    df_cap: int = 200,
    verify_broadcast_limit: int = 50_000_000,
) -> ray.data.Dataset:
    """Verified fuzzy JOIN: MinHashLSH candidate generation followed by an
    EXACT shingle-Jaccard re-rank restricted to the candidates — LSH recall,
    exact precision, as (left_id, right_id, jaccard >= threshold).

    The verify pass never touches non-candidate docs: the candidate pair
    table's distinct ids broadcast once (sorted arrays, bounded by
    ``verify_broadcast_limit``), each side slims to its involved rows with a
    stateless searchsorted filter, the exact ``jaccard_cross_join`` runs on
    those slices only (true Jaccard is per-doc, so subsetting is exact), and
    a final membership filter against the broadcast pair keys drops the
    incidental non-candidate pairs the slimmed join also surfaces."""
    from .jaccard_dedup import jaccard_cross_join

    right_text_column = right_text_column or text_column
    if left_id is not None:
        left = stamp_row_ids_from_key(left, left_id)
    if right_id is not None:
        right = stamp_row_ids_from_key(right, right_id)

    cand = minhash_cross_join(
        left, right, cfg,
        text_column=text_column,
        left_id=None, right_id=None,
        right_text_column=right_text_column,
        num_partitions=num_partitions,
        max_bucket=max_bucket,
    )

    blocks = [t for t in ray.get(cand.to_arrow_refs()) if t.num_rows]
    if not blocks:
        return ray.data.from_arrow(
            pa.table(
                {"left_id": pa.array([], pa.int64()),
                 "right_id": pa.array([], pa.int64()),
                 "jaccard": pa.array([], pa.float64())}
            )
        )
    cand_tbl = pa.concat_tables(blocks)
    if cand_tbl.num_rows > verify_broadcast_limit:
        raise ValueError(
            f"{cand_tbl.num_rows} candidate pairs exceed "
            f"verify_broadcast_limit={verify_broadcast_limit}; raise the "
            "limit or tighten the LSH config"
        )
    l_arr = cand_tbl["left_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    r_arr = cand_tbl["right_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    l_ids = np.unique(l_arr)
    r_ids = np.unique(r_arr)
    pair_keys = np.sort(_pair_void(l_arr, r_arr))
    ids_ref = ray.put((l_ids, r_ids, pair_keys))

    def slim(side: int):
        def f(batch: pa.Table) -> pa.Table:
            li, ri, _ = _resolve_fuzzy(ids_ref)
            want = li if side == 0 else ri
            ids = batch[ROW_ID].to_numpy(zero_copy_only=False).astype(np.int64)
            if len(want) == 0:
                return batch.slice(0, 0)
            pos = np.clip(np.searchsorted(want, ids), 0, len(want) - 1)
            return batch.filter(pa.array(want[pos] == ids))

        return f

    left_slim = left.map_batches(slim(0), batch_format="pyarrow")
    right_slim = right.map_batches(slim(1), batch_format="pyarrow")

    pairs = jaccard_cross_join(
        left_slim, right_slim,
        text_column=text_column,
        right_text_column=right_text_column,
        ngram_size=cfg.ngram_size,
        min_length=cfg.min_length,
        threshold=threshold,
        num_partitions=num_partitions,
        df_cap=df_cap,
    )

    def keep_candidates(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        _, _, keys = _resolve_fuzzy(ids_ref)
        k = _pair_void(
            batch["left_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            batch["right_id"].to_numpy(zero_copy_only=False).astype(np.int64),
        )
        pos = np.clip(np.searchsorted(keys, k), 0, len(keys) - 1)
        return batch.filter(pa.array(keys[pos] == k))

    return pairs.map_batches(keep_candidates, batch_format="pyarrow")


def _pair_void(l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(l, r) int64 pairs as opaque 16-byte keys (exact equality; bytewise
    order is consistent between sort and searchsorted, which is all
    membership needs)."""
    m = np.ascontiguousarray(np.stack([l, r], axis=1))
    return m.view([("v", "V16")])["v"].reshape(-1)


_FUZZY_CACHE: dict[str, tuple] = {}


def _resolve_fuzzy(ref):
    key = str(ref)
    hit = _FUZZY_CACHE.get(key)
    if hit is None:
        hit = ray.get(ref)
        _FUZZY_CACHE.clear()
        _FUZZY_CACHE[key] = hit
    return hit
