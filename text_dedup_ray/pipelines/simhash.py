"""SimHash near-duplicate pipeline (Ray-Data-native).

Reference lifecycle (simhash.py:189-229): load+index -> per-doc fingerprint
(one row per permutation) -> SEQUENTIAL driver loop bucketing by
(search_mask, masked sig) and Hamming-checking each new member against every
earlier bucket member (simhash.py:43-71; the reason SimHash is 50-200x slower
than MinHash in the published benchmarks) -> assign (non-root members only)
-> optional Jaccard verify -> filter ``not __duplicate__``.

Ray version: the bucket scan becomes the same two-level exchange as MinHash,
with in-bucket Hamming verification vectorized over *distinct signature
values* (stages/edges.py simhash kernels) — exact w.r.t. the reference's
union condition, and parallel.

Quirk preserved (SURVEY M9): the final filter uses the PRE-verification
``__duplicate__`` flag even when check_false_positive rewrote clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

import ray.data

from ..functions.simhash import SimHashConfig
from ..sources.io import ROW_ID, require_row_id, stamp_row_ids_from_key
from ..stages.assign import assign_clusters, assign_clusters_sharded, filter_non_duplicates
from ..stages.cc import connected_components_auto
from ..stages.edges import simhash_rep_part, simhash_rep_reduce
from ..stages.exchange import tagged_split_exchange_refs
from ..stages.fingerprint import SimHashFingerprinter, fingerprint_map
from .verify import verify_clusters_auto


@dataclass
class SimHashDedupResult:
    assigned: ray.data.Dataset
    deduped: ray.data.Dataset
    # non-trivial members only (simhash.py:70-71); a Dataset (row_id,
    # cluster_id) above driver_threshold (automatic distributed-CC fallback)
    parents: dict[int, int] | ray.data.Dataset
    verified_parents: dict[int, int] | None = None


def simhash_dedup(
    ds: ray.data.Dataset,
    text_column: str = "text",
    cfg: SimHashConfig | None = None,
    id_column: str | None = None,
    skip_filtering: bool = False,
    fingerprint_batch_size: int = 2048,
    merge_partitions: int = 64,
    signature_source: ray.data.Dataset | None = None,
    driver_threshold: int = 2_000_000,
    prefetch_payload: bool = False,
) -> SimHashDedupResult:
    """``prefetch_payload``: materialize the (wide) payload dataset in a
    background thread while the narrow signature/CC stages run — same
    latency optimization as minhash_dedup."""
    cfg = cfg or SimHashConfig()
    if id_column is not None:
        ds = stamp_row_ids_from_key(ds, id_column)
    else:
        ds = require_row_id(ds)

    prefetch: dict = {}
    prefetch_thread = None
    if prefetch_payload:
        import threading

        def _materialize_payload(pf=ds):
            try:
                prefetch["ds"] = pf.materialize()
            except Exception as exc:  # pragma: no cover - falls back to lazy
                prefetch["err"] = exc

        prefetch_thread = threading.Thread(target=_materialize_payload, daemon=True)
        prefetch_thread.start()

    if signature_source is not None:
        src = signature_source
        if id_column is not None:
            src = stamp_row_ids_from_key(src, id_column, keep_existing=True)
        narrow = src.select_columns([ROW_ID, text_column])
    else:
        narrow = ds.select_columns([ROW_ID, text_column])
    # the bucket kernel runs in the fingerprint call (emit="buckets") — see
    # MinHashFingerprinter: the exploded signature table never reaches the
    # object store
    local = fingerprint_map(
        narrow, SimHashFingerprinter, (cfg, text_column, "buckets"),
        fingerprint_batch_size,
    )
    # one streaming split pass over the tagged bucket blocks (see
    # minhash.py / stages.exchange.tagged_split_exchange)
    from functools import partial

    sig_bytes = cfg.sig_bytes if cfg.f > 64 else 8
    edge_refs, reduced_refs, _sig_rows = tagged_split_exchange_refs(
        local,
        "is_edge",
        partial(simhash_rep_part, sig_bytes=sig_bytes),
        merge_partitions,
        partial(simhash_rep_reduce, bit_diff=cfg.bit_diff, sig_bytes=sig_bytes),
    )
    # simhash keeps only non-root members in the map (simhash.py:70-71), so
    # __duplicate__ is False for cluster roots — unlike MinHash
    # (include_roots=False on the distributed fallback).
    all_parents = connected_components_auto(
        edge_refs + reduced_refs,
        driver_threshold=driver_threshold,
        num_partitions=merge_partitions,
        include_roots=False,
    )
    if prefetch_thread is not None:
        prefetch_thread.join()
        if "ds" in prefetch:
            ds = prefetch["ds"]

    if isinstance(all_parents, dict):
        parents = {k: v for k, v in all_parents.items() if k != v}
        assigned = assign_clusters(ds, parents)
    else:
        parents = all_parents
        assigned = assign_clusters_sharded(ds, parents, num_shards=merge_partitions)
    deduped_source = assigned  # final filter reads the PRE-verification flag

    verified_parents = None
    if cfg.check_false_positive:
        verified_parents = verify_clusters_auto(
            assigned,
            text_column,
            cfg.ngram_size,
            cfg.min_length,
            cfg.jaccard_threshold,
            mode="simhash",
            driver_threshold=driver_threshold,
        )
        # update __CLUSTER__ only; keep the stale PRE-verification
        # __duplicate__ flag (quirk parity) — it is already a column on
        # `assigned`, so stash it across the reassignment instead of
        # recomputing membership against the (possibly Dataset-sized) map.
        import pyarrow as pa

        stash = assigned.map_batches(
            lambda t: t.append_column("__stale_dup__", t["__duplicate__"]),
            batch_format="pyarrow",
        )
        if isinstance(verified_parents, dict):
            reassigned = assign_clusters(stash, verified_parents)
        else:
            reassigned = assign_clusters_sharded(
                stash, verified_parents, num_shards=merge_partitions
            )

        def restore_flag(batch: pa.Table) -> pa.Table:
            return (
                batch.drop_columns(["__duplicate__"])
                .append_column("__duplicate__", batch["__stale_dup__"])
                .drop_columns(["__stale_dup__"])
            )

        assigned = reassigned.map_batches(restore_flag, batch_format="pyarrow")
        deduped_source = assigned

    deduped = deduped_source if skip_filtering else filter_non_duplicates(deduped_source)
    return SimHashDedupResult(
        assigned=assigned,
        deduped=deduped,
        parents=parents,
        verified_parents=verified_parents,
    )


def simhash_threshold_sweep(
    ds: ray.data.Dataset,
    text_column: str = "text",
    cfg: SimHashConfig | None = None,
    bit_diffs: "list[int] | None" = None,
    id_column: str | None = None,
    fingerprint_batch_size: int = 2048,
    merge_partitions: int = 16,
    driver_threshold: int = 2_000_000,
):
    """Hamming-radius CALIBRATION sweep: how many duplicates would SimHash
    flag at several ``bit_diff`` operating points — the companion of
    ``minhash_threshold_sweep`` for the bitwise family, answered before
    committing a radius to a 100 TB run.

    The expensive stage (tokenize + md5 + bit-majority, >80% of dedup wall)
    runs ONCE: ``SimHashSignaturer`` tasks emit one raw 64-bit
    signature per doc and the narrow (row_id, sig) table materializes in
    the object store. Each radius then pays only its own key/permutation
    pass (``SigPassthroughFingerprinter`` — identical keys to a fresh
    ``SimHashFingerprinter`` run at that radius, since the signature is
    radius-independent) plus bucket/exchange/CC over 16-byte rows. Note the
    per-radius key volume differs: ``create_permutations(f, k, b)`` yields
    P(b, b-k) permutations, so SMALLER radii mean more keys.

    Returns one row per radius: ``(bit_diff, n_perms, n_docs,
    duplicate_rows, survivors)`` with ``duplicate_rows`` = non-root members
    (the pre-verification ``__duplicate__`` filter semantics — survivors
    match ``simhash_dedup`` at the same radius, proven by
    tests/test_simhash_sweep.py). Radii must satisfy ``0 <= k <
    cfg.num_bucket`` (the config's own constraint)."""
    from dataclasses import replace
    from functools import partial

    import numpy as np
    import pyarrow as pa

    from ..functions.simhash import create_permutations
    from ..stages.fingerprint import SigPassthroughFingerprinter, SimHashSignaturer

    cfg = cfg or SimHashConfig()
    bit_diffs = bit_diffs or [cfg.bit_diff]
    for k in bit_diffs:
        if not (0 <= k < cfg.num_bucket):
            raise ValueError(
                f"bit_diff={k} must satisfy 0 <= bit_diff < num_bucket={cfg.num_bucket}"
            )
    if id_column is not None:
        ds = stamp_row_ids_from_key(ds, id_column)
    else:
        ds = require_row_id(ds)

    narrow = ds.select_columns([ROW_ID, text_column])
    sig_ds = fingerprint_map(
        narrow, SimHashSignaturer, (cfg, text_column), fingerprint_batch_size
    ).materialize()
    n_docs = sig_ds.count()

    out_rows = []
    for k in bit_diffs:
        cfg_k = replace(cfg, bit_diff=k)
        local = fingerprint_map(sig_ds, SigPassthroughFingerprinter, (cfg_k, "sig"), None)
        edge_refs, reduced_refs, _rows = tagged_split_exchange_refs(
            local,
            "is_edge",
            simhash_rep_part,
            merge_partitions,
            partial(simhash_rep_reduce, bit_diff=k),
        )
        parents = connected_components_auto(
            edge_refs + reduced_refs,
            driver_threshold=driver_threshold,
            num_partitions=merge_partitions,
            include_roots=False,
        )
        if isinstance(parents, dict):
            duplicates = sum(1 for m, r in parents.items() if m != r)
        else:
            import pyarrow.compute as pc

            duplicates = parents.map_batches(
                lambda t: t.filter(pc.invert(pc.equal(t["row_id"], t["cluster_id"]))),
                batch_format="pyarrow",
            ).count()
        out_rows.append(
            {
                "bit_diff": k,
                "n_perms": len(create_permutations(cfg.f, k, cfg.num_bucket)),
                "n_docs": n_docs,
                "duplicate_rows": int(duplicates),
                "survivors": int(n_docs - duplicates),
            }
        )
    return pa.table(
        {
            c: pa.array([r[c] for r in out_rows], pa.int64())
            for c in ["bit_diff", "n_perms", "n_docs", "duplicate_rows", "survivors"]
        }
    )
