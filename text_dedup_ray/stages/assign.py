"""Cluster assignment: map each row's id through the cluster map.

The reference pickles a Python dict to every worker process
(minhash.py:82-98, with a "parents is pickled" warning comment). Here the map
is two sorted int64 arrays placed in the object store ONCE with ``ray.put``;
every ``map_batches`` task reads them zero-copy and does a vectorized
``np.searchsorted`` per batch — broadcast once, not re-shipped per batch.

For maps too large to broadcast (10^12-row posture), assignment becomes an
equi-join of the cluster table on ``row_id`` — same output, all-shuffle cost;
``assign_clusters`` picks the broadcast path below ``broadcast_limit`` rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

CLUSTER_COLUMN = "__CLUSTER__"
DUPLICATE_COLUMN = "__duplicate__"


# worker-process-global cache of resolved broadcast arrays: assignment runs
# as plain TASKS (reusing Ray's prestarted workers — no actor-pool process
# spawn), and ray.get of the same ref is served zero-copy from local plasma;
# the cache just skips repeated deserialization bookkeeping per batch.
_BROADCAST_CACHE: dict[str, tuple[np.ndarray, np.ndarray]] = {}


def _resolve_refs(members_ref, roots_ref) -> tuple[np.ndarray, np.ndarray]:
    key = str(members_ref)
    hit = _BROADCAST_CACHE.get(key)
    if hit is None:
        hit = (ray.get(members_ref), ray.get(roots_ref))
        _BROADCAST_CACHE.clear()
        _BROADCAST_CACHE[key] = hit
    return hit


def _make_assigner(members_ref, roots_ref, cluster_column: str, id_column: str):
    def assign(batch: pa.Table) -> pa.Table:
        members, roots = _resolve_refs(members_ref, roots_ref)
        ids = batch[id_column].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(members, ids)
        pos_c = np.clip(pos, 0, max(len(members) - 1, 0))
        if len(members):
            hit = members[pos_c] == ids
        else:
            hit = np.zeros(len(ids), dtype=bool)
        clusters = np.where(hit, roots[pos_c] if len(roots) else -1, ids)
        out = batch
        for col in (cluster_column, DUPLICATE_COLUMN):
            if col in out.column_names:
                out = out.drop_columns([col])
        return out.append_column(cluster_column, pa.array(clusters)).append_column(
            DUPLICATE_COLUMN, pa.array(hit)
        )

    return assign


def assign_clusters(
    ds: ray.data.Dataset,
    parents: dict[int, int],
    id_column: str = "row_id",
    cluster_column: str = CLUSTER_COLUMN,
    concurrency: int | None = None,
) -> ray.data.Dataset:
    """Add ``__CLUSTER__`` (component min, or own id) and ``__duplicate__``
    (appeared in any multi-member bucket — True for roots too, matching
    minhash.py:91 semantics)."""
    if parents:
        members = np.fromiter(parents.keys(), dtype=np.int64, count=len(parents))
        roots = np.fromiter(parents.values(), dtype=np.int64, count=len(parents))
        order = np.argsort(members, kind="stable")
        members, roots = members[order], roots[order]
    else:
        members = np.empty(0, dtype=np.int64)
        roots = np.empty(0, dtype=np.int64)
    members_ref = ray.put(members)
    roots_ref = ray.put(roots)
    return ds.map_batches(
        _make_assigner(members_ref, roots_ref, cluster_column, id_column),
        batch_format="pyarrow",
    )


def assign_clusters_join(
    ds: ray.data.Dataset,
    cluster_table: ray.data.Dataset,
    id_column: str = "row_id",
    cluster_column: str = CLUSTER_COLUMN,
    num_partitions: int = 64,
) -> ray.data.Dataset:
    """Scale path for cluster maps too large to broadcast: co-partition the
    data's (row_id, position-key) with the cluster table by hash(row_id) via
    the explicit exchange and emit the joined assignment columns; the caller
    re-joins them to payload rows by row_id order-independently.

    NOTE: unlike the broadcast path this returns ONLY the narrow assignment
    table (row_id, __CLUSTER__, __duplicate__) — at 10^12-row scale the wide
    payload stays in place and downstream stages filter by row_id membership
    (e.g. write survivors by re-reading payload with this table broadcast
    per shard, or emitting row-id partition files next to the payload).
    """
    import pyarrow.compute as pc

    from .exchange import hash_partition_exchange

    ids_only = ds.select_columns([id_column])

    def tag_data(t: pa.Table) -> pa.Table:
        ids = t[id_column].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "row_id": ids,
                "cluster_id": ids,  # placeholder; real value joined below
                "role": pa.array(np.zeros(len(ids), dtype=np.int8)),
                "part": pa.array((np.abs(ids) % num_partitions).astype(np.int64)),
            }
        )

    def tag_map(t: pa.Table) -> pa.Table:
        ids = t["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cl = t["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "row_id": ids,
                "cluster_id": cl,
                "role": pa.array(np.ones(len(ids), dtype=np.int8)),
                "part": pa.array((np.abs(ids) % num_partitions).astype(np.int64)),
            }
        )

    tagged = ids_only.map_batches(tag_data, batch_format="pyarrow").union(
        cluster_table.map_batches(tag_map, batch_format="pyarrow")
    )

    def join_partition(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table(
                {"row_id": pa.array([], pa.int64()),
                 CLUSTER_COLUMN: pa.array([], pa.int64()),
                 DUPLICATE_COLUMN: pa.array([], pa.bool_())}
            )
        role = group["role"].to_numpy(zero_copy_only=False)
        ids = group["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cl = group["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_map = role == 1
        m_ids, m_cl = ids[is_map], cl[is_map]
        order = np.argsort(m_ids, kind="stable")
        m_ids, m_cl = m_ids[order], m_cl[order]
        d_ids = ids[~is_map]
        if len(m_ids):
            pos = np.clip(np.searchsorted(m_ids, d_ids), 0, len(m_ids) - 1)
            hit = m_ids[pos] == d_ids
            out_cl = np.where(hit, m_cl[pos], d_ids)
        else:
            hit = np.zeros(len(d_ids), dtype=bool)
            out_cl = d_ids
        return pa.table(
            {"row_id": d_ids, CLUSTER_COLUMN: out_cl, DUPLICATE_COLUMN: pa.array(hit)}
        )

    return hash_partition_exchange(tagged, "part", num_partitions, join_partition)


def assign_clusters_sharded(
    ds: ray.data.Dataset,
    cluster_table: ray.data.Dataset,
    id_column: str = "row_id",
    cluster_column: str = CLUSTER_COLUMN,
    num_shards: int = 64,
) -> ray.data.Dataset:
    """Scale path for cluster maps too large for one broadcast, WITHOUT
    shuffling the payload: the (row_id, cluster_id) map is hash-sharded into
    ``num_shards`` sorted Arrow tables living in the object store; each
    payload batch fetches only the shards its ids hash to (cached per worker
    process) and does the same vectorized ``searchsorted`` as the broadcast
    path. Payload rows never move; per-node transfer is bounded by the map
    size, not map x batches. Output schema matches :func:`assign_clusters`.
    """
    from .exchange import block_refs, split_refs

    sort_shard = ray.remote(_sort_map_shard)
    columns = split_refs(block_refs(cluster_table), "row_id", num_shards)
    shard_refs = [sort_shard.remote(*column) for column in columns]

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch[id_column].to_numpy(zero_copy_only=False).astype(np.int64)
        clusters = ids.copy()
        hit = np.zeros(len(ids), dtype=bool)
        parts = (np.abs(ids) % num_shards).astype(np.int64)
        for p in np.unique(parts):
            key = f"shard:{shard_refs[p]}"
            cached = _BROADCAST_CACHE.get(key)
            if cached is None:
                tbl: pa.Table = ray.get(shard_refs[p])  # zero-copy local plasma
                cached = (
                    tbl["row_id"].to_numpy(zero_copy_only=False).astype(np.int64),
                    tbl["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64),
                )
                if len(_BROADCAST_CACHE) > 4 * num_shards:
                    _BROADCAST_CACHE.clear()
                _BROADCAST_CACHE[key] = cached
            members, roots = cached
            sel = parts == p
            if not len(members):
                continue
            sub = ids[sel]
            pos = np.clip(np.searchsorted(members, sub), 0, len(members) - 1)
            sub_hit = members[pos] == sub
            clusters[np.flatnonzero(sel)[sub_hit]] = roots[pos[sub_hit]]
            hit[np.flatnonzero(sel)[sub_hit]] = True
        out = batch
        for col in (cluster_column, DUPLICATE_COLUMN):
            if col in out.column_names:
                out = out.drop_columns([col])
        return out.append_column(cluster_column, pa.array(clusters)).append_column(
            DUPLICATE_COLUMN, pa.array(hit)
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def _sort_map_shard(*tables: pa.Table) -> pa.Table:
    parts = [t.select(["row_id", "cluster_id"]) for t in tables if t.num_rows > 0]
    if not parts:
        return pa.table(
            {"row_id": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64())}
        )
    t = pa.concat_tables(parts)
    ids = t["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    cl = t["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ids, kind="stable")
    ids, cl = ids[order], cl[order]
    # a member may appear in several map fragments; keep the min cluster_id
    if len(ids) > 1:
        diff = np.r_[True, np.diff(ids) != 0]
        starts = np.flatnonzero(diff)
        mins = np.minimum.reduceat(cl, starts)
        ids, cl = ids[starts], mins
    return pa.table({"row_id": ids, "cluster_id": cl})


def filter_cluster_roots(
    ds: ray.data.Dataset, id_column: str = "row_id", cluster_column: str = CLUSTER_COLUMN
) -> ray.data.Dataset:
    """Keep one survivor per cluster: ``__CLUSTER__ == row_id``
    (reference minhash.py:173-184)."""
    import pyarrow.compute as pc

    return ds.map_batches(
        lambda t: t.filter(pc.equal(t[cluster_column], t[id_column])),
        batch_format="pyarrow",
    )


def filter_non_duplicates(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Keep rows never flagged duplicate — the SimHash final filter, which
    deliberately uses the PRE-verification flag (reference simhash.py:176-186;
    quirk noted in SURVEY M9)."""
    import pyarrow.compute as pc

    return ds.map_batches(
        lambda t: t.filter(pc.invert(t[DUPLICATE_COLUMN])), batch_format="pyarrow"
    )
