"""SemDeDup-style semantic dedup: coarse-quantize embeddings into cells,
then exact cosine dedup WITHIN each cell (Abbas et al. 2023, "SemDeDup:
Data-efficient learning at web-scale through semantic deduplication" —
public method: k-means cluster the embedding space, then prune items whose
within-cluster pairwise cosine exceeds a threshold).

Versus the all-pairs exact path (``ann.embedding_cosine_pairs``, O(n^2))
and the hyperplane-LSH path (``ann.embedding_cosine_dedup``, probabilistic
recall), this is the curation-oriented middle ground: compare only within
quantizer cells, so compute is O(sum cell_size^2) and the shuffle moves each
vector exactly once, keyed by its cell.

Scale shape:
1. quantizer: spherical k-means on a FIXED-SIZE sample (corpus-size
   independent), or caller-provided ``centroids`` (a deterministic quantizer
   — e.g. ``np.eye(dim)`` = argmax coordinate — makes the whole pipeline
   SQL-recomputable, which is how the driver oracle checks it);
2. assign: one streaming ``map_batches`` against the broadcast centroid
   matrix (``ray.put`` once) emitting narrow (row_id, cell, part, vector);
3. exchange by cell hash; per partition, each cell's members get exact
   pairwise cosine (float64, vectorized matmul) — cells over ``max_cluster``
   process in chunks with the cell's min-id member replicated into every
   chunk (bounded memory; exact copies still always merge; logged);
4. edges feed the shared auto union-find (driver dict below
   ``driver_threshold`` reduced edges, a Dataset-form map above).

Returns the usual parents map contract (dict | Dataset) — compose with
``stages.assign`` to tag/drop duplicates, exactly like the other families.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..sources.io import ROW_ID, stamp_row_ids_from_key
from ..stages.exchange import hash_partition_exchange
from .ann import _batch_matrix, _normalize, spherical_kmeans

logger = logging.getLogger(__name__)

_CENT_CACHE: dict[str, np.ndarray] = {}


def _resolve_cents(ref) -> np.ndarray:
    key = str(ref)
    hit = _CENT_CACHE.get(key)
    if hit is None:
        hit = ray.get(ref)
        _CENT_CACHE.clear()
        _CENT_CACHE[key] = hit
    return hit


def semdedup(
    ds: ray.data.Dataset,
    threshold: float = 0.95,
    embedding_column: str = "embedding",
    id_column: str | None = "vec_id",
    n_clusters: int = 1024,
    centroids: np.ndarray | None = None,
    sample_size: int = 65_536,
    kmeans_iters: int = 10,
    seed: int = 42,
    num_partitions: int = 32,
    max_cluster: int = 20_000,
    driver_threshold: int = 2_000_000,
):
    """Cell-quantized exact-cosine dedup (see module docstring). Returns the
    parents map: dict below ``driver_threshold`` reduced edges, else a
    Dataset-backed map — the same auto contract as the other families."""
    from ..stages.cc import connected_components_auto

    if id_column is not None:
        ds = stamp_row_ids_from_key(ds, id_column)

    if centroids is None:
        sample = np.vstack(
            [
                _batch_matrix(b, embedding_column, np.float32)
                for b in ds.select_columns([embedding_column])
                .limit(sample_size)
                .iter_batches(batch_format="pyarrow", batch_size=8192)
                if b.num_rows
            ]
        )
        centroids = spherical_kmeans(
            sample, n_clusters, iters=kmeans_iters, seed=seed
        )
    cents = _normalize(np.asarray(centroids, dtype=np.float64))
    cents_ref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        c = _resolve_cents(cents_ref)
        ids = batch[ROW_ID].to_numpy(zero_copy_only=False).astype(np.int64)
        m = _batch_matrix(batch, embedding_column, np.float64)
        cell = (
            np.argmax(_normalize(m) @ c.T, axis=1).astype(np.int64)
            if len(ids)
            else np.array([], np.int64)
        )
        return pa.table(
            {
                "row_id": pa.array(ids),
                "cell": pa.array(cell),
                "part": pa.array(cell % num_partitions),
                "vec": batch[embedding_column],
            }
        )

    assigned = ds.map_batches(assign, batch_format="pyarrow")

    def cell_edges(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
        )
        if group.num_rows == 0 or "cell" not in group.column_names:
            return empty
        cell = group["cell"].to_numpy(zero_copy_only=False)
        order = np.argsort(cell, kind="stable")
        g = group.take(pa.array(order))
        cell_s = cell[order]
        ids = g["row_id"].to_numpy(zero_copy_only=False)
        m = _normalize(_batch_matrix(g, "vec", np.float64))
        brk = np.r_[True, cell_s[1:] != cell_s[:-1]]
        starts = np.flatnonzero(np.r_[brk, True])
        src_out: list[np.ndarray] = []
        dst_out: list[np.ndarray] = []

        def pairwise(ii: np.ndarray, jj: np.ndarray, off_i: int, off_j: int):
            src = ids[off_i + ii]
            dst = ids[off_j + jj]
            src_out.append(np.maximum(src, dst).astype(np.int64))
            dst_out.append(np.minimum(src, dst).astype(np.int64))

        for s, e in zip(starts[:-1], starts[1:]):
            n = e - s
            if n < 2:
                continue
            if n <= max_cluster:
                sims = m[s:e] @ m[s:e].T
                ii, jj = np.nonzero(np.triu(sims >= threshold, k=1))
                pairwise(ii, jj, s, s)
                continue
            # giant cell: chunked pairwise with the min-id member replicated
            # into every chunk — bounded memory, exact copies always merge
            logger.warning(
                "semdedup cell of %d members exceeds max_cluster=%d;"
                " processing in chunks with the min-id representative",
                n, max_cluster,
            )
            rep = s + int(np.argmin(ids[s:e]))
            for cs in range(s, e, max_cluster):
                ce = min(cs + max_cluster, e)
                sims = m[cs:ce] @ m[cs:ce].T
                ii, jj = np.nonzero(np.triu(sims >= threshold, k=1))
                pairwise(ii, jj, cs, cs)
                rsims = (m[cs:ce] @ m[rep]) >= threshold
                kk = np.flatnonzero(rsims)
                kk = kk[ids[cs + kk] != ids[rep]]
                pairwise(kk, np.full(len(kk), rep - s), cs, s)
        if not src_out:
            return empty
        return pa.table(
            {
                "src": pa.array(np.concatenate(src_out)),
                "dst": pa.array(np.concatenate(dst_out)),
            }
        )

    edges = hash_partition_exchange(assigned, "part", num_partitions, cell_edges)
    return connected_components_auto(edges, driver_threshold=driver_threshold)
