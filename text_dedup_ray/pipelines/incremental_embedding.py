"""Incremental (tiered) embedding-cosine dedup against a saved LSH index.

Generalizes the tiered pattern of :mod:`incremental` (minhash/simhash) and
:mod:`incremental_exact` to embedding near-dup:

- :func:`embedding_bootstrap`: full hyperplane-LSH dedup
  (pipelines/ann.embedding_cosine_dedup semantics) over the initial corpus
  that persists the LSH index — the (row_id, table_idx, bucket, vec) sig
  rows pre-partitioned by hash(table, bucket), one parquet file per
  partition, with each row's vector stored once per partition (the same
  first-occurrence nulling as the batch exchange) — plus the non-trivial
  cluster rows and meta.
- :func:`embedding_increment`: signs ONLY the new batch (identical planes —
  same seed — so bucket assignment is reproducible), exchanges its sig rows
  to the same partitions, and each reduce task merges against its prior
  index file read LOCALLY from storage (the old index is never re-shuffled):
  cosine-verified edges are emitted for (new x old) and (new x new)
  same-bucket pairs only — old-old connectivity is already folded into the
  prior cluster map — then components compose with the prior map through
  the shared :func:`incremental._compose_with_prior`.

Equivalence: a full re-run's edge set is (old-old) ∪ (new-old) ∪ (new-new);
the prior cluster map IS the CC of the old-old edges (deterministic planes),
so composing new components with prior co-membership reproduces the
full-batch ``embedding_cosine_dedup`` cluster map exactly — asserted by
tests/test_incremental_embedding.py (single, chained, forced-distributed).

Scale posture: per-increment network cost is one exchange of the NEW batch's
sig rows (vector attached once per distinct (row, partition)); the index
rewrite is local storage IO; driver state follows the shared
``driver_threshold`` contract.
"""

from __future__ import annotations

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
from .ann import embedding_partition_edges, make_embedding_sig_stage
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

_EMPTY_EDGES = pa.table({"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())})


def _index_file(state_dir: str, version: int, p: int) -> str:
    return os.path.join(_version_dir(state_dir, version), "index", f"part-{p:05d}.parquet")


def _emb_cfg_hash(
    embedding_column: str, threshold: float, num_tables: int, num_bits: int,
    seed: int, num_partitions: int,
) -> str:
    return config_hash(
        {
            "algo": "embedding_lsh_state",
            "embedding_column": embedding_column,
            "threshold": threshold,
            "num_tables": num_tables,
            "num_bits": num_bits,
            "seed": seed,
            "num_partitions": num_partitions,
        }
    )


@ray.remote
def _emb_reduce_write(
    out_path: str, prior_path: str | None, threshold: float, *tables: pa.Table
) -> pa.Table:
    """Reduce one LSH partition: prior index rows (read locally) + the new
    batch's sig sub-tables -> (new x all) cosine-verified edges; the merged
    sig rows become the partition's next-version index file."""
    cols = ["row_id", "table_idx", "bucket", "vec"]
    parts = [t.select(cols) for t in tables if t.num_rows > 0]
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    if prior_path is not None and os.path.exists(prior_path):
        prior = pq.read_table(prior_path)
    else:
        prior = None
    if not parts:
        out = prior if prior is not None else pa.table(
            {
                "row_id": pa.array([], pa.int64()),
                "table_idx": pa.array([], pa.int32()),
                "bucket": pa.array([], pa.uint64()),
                "vec": pa.array([], pa.list_(pa.float32())),
            }
        )
        pq.write_table(out, out_path)
        return _EMPTY_EDGES
    new = pa.concat_tables(parts, promote_options="default")
    if prior is not None and prior.num_rows:
        group = pa.concat_tables([prior, new], promote_options="default")
        n_old = prior.num_rows
    else:
        group = new
        n_old = 0
    pq.write_table(group, out_path)
    return embedding_partition_edges(group, threshold, n_old=n_old)


def _exchange_and_reduce(
    sig: ray.data.Dataset,
    state_dir: str,
    new_version: int,
    prior_version: int | None,
    num_partitions: int,
    threshold: float,
) -> ray.data.Dataset:
    """Split the new batch's sig rows by their precomputed ``part`` column
    and reduce each partition against its prior index file. Streams
    block-by-block as the sig stage produces."""
    from ..stages.exchange import split_map

    columns = split_map(sig, "part", num_partitions)
    reduced = []
    for p in range(num_partitions):
        prior = (
            _index_file(state_dir, prior_version, p) if prior_version is not None else None
        )
        reduced.append(
            _emb_reduce_write.remote(
                _index_file(state_dir, new_version, p), prior, threshold, *columns[p]
            )
        )
    return ray.data.from_arrow_refs(reduced)


def embedding_bootstrap(
    ds: ray.data.Dataset,
    state_dir: str,
    embedding_column: str = "embedding",
    id_column: str | None = "vec_id",
    threshold: float = 0.95,
    num_tables: int = 8,
    num_bits: int = 10,
    seed: int = 42,
    num_partitions: int = 32,
    driver_threshold: int = 2_000_000,
    max_row_id: int | None = None,
) -> IncrementResult:
    """Full embedding-LSH dedup over the initial corpus, persisting the
    partitioned sig index + cluster rows + meta to ``state_dir``."""
    timer = Timer()
    if id_column is not None:
        ds = stamp_row_ids_from_key(ds, id_column)
    elif ROW_ID not in ds.schema().names:
        raise ValueError("dataset must have a row_id column or pass id_column")
    if max_row_id is None:
        ds_max = ds.select_columns([ROW_ID]).max(ROW_ID)
        max_row_id = -1 if ds_max is None else int(ds_max)

    version = 1
    _clean_version_dir(state_dir, version)
    sig_stage = make_embedding_sig_stage(
        embedding_column, ROW_ID, num_tables, num_bits, seed, num_partitions
    )
    narrow = ds.select_columns([ROW_ID, embedding_column])
    sig = narrow.map_batches(sig_stage, batch_format="pyarrow")
    with timer("sig+index"):
        edges = _exchange_and_reduce(
            sig, state_dir, version, None, num_partitions, threshold
        )
    with timer("cc"):
        parents = connected_components_auto(
            edges, driver_threshold=driver_threshold, num_partitions=num_partitions
        )
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
            "algo": "embedding_lsh",
            "version": version,
            "cfg_hash": _emb_cfg_hash(
                embedding_column, threshold, num_tables, num_bits, seed, num_partitions
            ),
            "max_row_id": max_row_id,
            "num_partitions": num_partitions,
            "threshold": threshold,
            "num_tables": num_tables,
            "num_bits": num_bits,
            "seed": seed,
            "embedding_column": embedding_column,
        },
    )
    return IncrementResult(
        assigned=assigned,
        deduped=filter_cluster_roots(assigned),
        parents=parents,
        state_version=version,
        metrics={"stage_seconds": timer.report()},
    )


def embedding_increment(
    new_ds: ray.data.Dataset,
    state_dir: str,
    id_column: str | None = "vec_id",
    driver_threshold: int = 2_000_000,
    validate_ids: bool = True,
    batch_id_range: tuple[int, int] | None = None,
) -> IncrementResult:
    """Dedup ``new_ds`` against the saved index AND itself; persist the next
    version. Cluster assignments equal a full LSH re-run over old ∪ new.
    LSH parameters come from the saved meta (they must match the index)."""
    timer = Timer()
    meta = load_meta(state_dir)
    if meta.get("algo") != "embedding_lsh":
        raise ValueError(f"state at {state_dir} is not an embedding_lsh index")
    prior_version = int(meta["version"])
    num_partitions = int(meta["num_partitions"])
    prior_max = int(meta["max_row_id"])
    threshold = float(meta["threshold"])
    embedding_column = meta["embedding_column"]

    if id_column is not None:
        new_ds = stamp_row_ids_from_key(new_ds, id_column)
    elif ROW_ID not in new_ds.schema().names:
        raise ValueError("dataset must have a row_id column or pass id_column")
    from .incremental import _resolve_batch_bounds

    new_max = _resolve_batch_bounds(
        new_ds, prior_max, validate_ids, batch_id_range
    )

    version = prior_version + 1
    _clean_version_dir(state_dir, version)
    sig_stage = make_embedding_sig_stage(
        embedding_column, ROW_ID, int(meta["num_tables"]), int(meta["num_bits"]),
        int(meta["seed"]), num_partitions,
    )
    narrow = new_ds.select_columns([ROW_ID, embedding_column])
    sig = narrow.map_batches(sig_stage, batch_format="pyarrow")
    with timer("sig+index"):
        edges = _exchange_and_reduce(
            sig, state_dir, version, prior_version, num_partitions, threshold
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


@ray.remote
def _emb_union_write(
    out_path: str, path_a: str, path_b: str, threshold: float
) -> pa.Table:
    """Merge one LSH partition of two embedding states: concat the sig rows
    (disjoint row ids — each row's single non-null vector is preserved) and
    emit (B x all) cosine-verified edges; B x B pairs are CC no-ops (already
    in B's map) and A x A pairs never recompute. File-local: both states
    partition by the same hash(table, bucket)."""
    a = pq.read_table(path_a) if os.path.exists(path_a) else None
    b = pq.read_table(path_b) if os.path.exists(path_b) else None
    parts = [t for t in (a, b) if t is not None and t.num_rows]
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    if not parts:
        empty = pa.table(
            {
                "row_id": pa.array([], pa.int64()),
                "table_idx": pa.array([], pa.int32()),
                "bucket": pa.array([], pa.uint64()),
                "vec": pa.array([], pa.list_(pa.float32())),
            }
        )
        pq.write_table(a if a is not None else empty, out_path)
        return _EMPTY_EDGES
    group = pa.concat_tables(parts, promote_options="default")
    pq.write_table(group, out_path)
    n_a = a.num_rows if a is not None else 0
    if n_a == 0 or group.num_rows == n_a:
        return _EMPTY_EDGES  # one side empty here: no cross pairs
    return embedding_partition_edges(group, threshold, n_old=n_a)


def embedding_state_union(
    state_a: str,
    state_b: str,
    out_dir: str,
    driver_threshold: int = 2_000_000,
    validate_ids: bool = True,
) -> tuple[int, dict[int, int]]:
    """Merge two INDEPENDENTLY-built embedding-LSH states into one state
    equivalent to a bootstrap over the union corpus — the embedding twin of
    :func:`incremental.minhash_state_union`. Both states were signed with
    the same hyperplanes (cfg hash covers seed/tables/bits), so their index
    partitions align: the merge is P file-local tasks (ZERO shuffle) whose
    only compute is the cross-state same-bucket cosine verification; the
    composition chains collision components through both prior cluster maps
    (shared union-find). All LSH parameters come from the saved metas.

    Requirements: identical config (cfg_hash) + partition count, DISJOINT
    row-id ranges ([min indexed row, meta max] interval check — the
    globally smallest indexed row is always present in some partition).
    Returns ``(version, merges)``; equivalence + chainability proven in
    tests/test_embedding_state_union.py.
    """
    from .incremental import _compose_two_priors, _write_union_clusters

    ma, mb = load_meta(state_a), load_meta(state_b)
    for m, d in ((ma, state_a), (mb, state_b)):
        if m.get("algo") != "embedding_lsh":
            raise ValueError(f"state at {d} is not an embedding_lsh state")
    if ma["cfg_hash"] != mb["cfg_hash"]:
        raise ValueError(
            "states were built with different LSH configs (planes/threshold/"
            "column); union requires identical settings"
        )
    if int(ma["num_partitions"]) != int(mb["num_partitions"]):
        raise ValueError(
            "states use different partition counts "
            f"({ma['num_partitions']} vs {mb['num_partitions']})"
        )
    num_partitions = int(ma["num_partitions"])
    va, vb = int(ma["version"]), int(mb["version"])
    threshold = float(ma["threshold"])

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
    edge_refs = [
        _emb_union_write.remote(
            _index_file(out_dir, version, p),
            _index_file(state_a, va, p),
            _index_file(state_b, vb, p),
            threshold,
        )
        for p in range(num_partitions)
    ]
    cc = connected_components_auto(
        edge_refs, driver_threshold=driver_threshold, num_partitions=num_partitions
    )
    merges = _compose_two_priors(
        cc, _clusters_dir(state_a, va), _clusters_dir(state_b, vb)
    )
    _write_union_clusters(
        _clusters_dir(out_dir, version),
        [_clusters_dir(state_a, va), _clusters_dir(state_b, vb)],
        merges,
    )
    out_meta = {k: v for k, v in ma.items() if k not in ("version", "max_row_id")}
    out_meta.update(
        {
            "version": version,
            "max_row_id": max(int(ma["max_row_id"]), int(mb["max_row_id"])),
        }
    )
    _write_meta(out_dir, out_meta)
    return version, merges
