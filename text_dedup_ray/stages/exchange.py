"""Explicit two-phase hash-partitioned exchange (map-side split + reduce).

Ray Data's ``groupby(part).map_groups`` implements the rep-merge exchange as
a full sort-based shuffle — measured 184 s for 12.5M representative rows at
400k docs (the sort dominates everything else in the flagship); the 2.49
HASH_SHUFFLE strategy is faster but delivers groups to ``map_groups`` in
per-batch pieces, which silently breaks whole-group kernels.

This module drops to raw Ray tasks for exactly this step (SURVEY §7: raw
tasks only where the Dataset API can't express the need — here: a hash
exchange without a sort):

- split tasks: one per input block, ``num_returns=P`` — each returns its
  block's rows bucketed by ``hash(part) % P`` (vectorized ``np.argsort`` +
  slice; no Python per-row work);
- reduce tasks: one per partition, receiving that partition's sub-tables
  from every block (Ray moves only the needed objects) and applying the
  caller's vectorized kernel to the concatenated partition.

The result is wrapped back into a Dataset with ``from_arrow_refs`` — the
surrounding pipeline stays a Dataset pipeline. Objects never touch the
driver. On a multi-node cluster this is the same data movement a shuffle
performs (every sub-table crosses the store once), minus the sort.

``from_arrow_refs`` is not free: in Ray 2.49 it runs one blocking metadata
task per ref. So the tagged split (``tagged_split_exchange_refs``) hands its
per-block edge tables and per-partition reduced tables to the CC stage as
plain ObjectRefs; wrapping them would cost 64 partitions + the input blocks
(~66 on the flagship) metadata round trips per call on the critical path.

Driver-memory note: the split loop keeps O(blocks x partitions) ObjectRefs
in Python lists until the reduce tasks are launched (~100 bytes/ref). At
10^4 blocks x 64 partitions that is ~60 MB of bookkeeping — fine; at 10^6+
blocks raise the target block size or reduce ``num_partitions`` rather than
letting ref bookkeeping dominate driver memory.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import ray
import ray.data


def distinct_key_partition(vals, num_partitions: int) -> np.ndarray:
    """Per-value partition id ``sha1(str(v))[:8] % P`` — the deterministic
    key->partition map shared by the window/aggregate tag stages — hashing
    each DISTINCT value exactly once (hash-based ``pd.factorize``, never a
    sort, never one sha1 per row: a block of 100k events over 3k users
    pays 3k digests, not 100k)."""
    import hashlib

    import pandas as pd

    codes, uniq = pd.factorize(np.asarray(vals))
    hp = np.fromiter(
        (
            int.from_bytes(hashlib.sha1(str(v).encode()).digest()[:8], "little")
            % num_partitions
            for v in uniq
        ),
        np.int64,
        count=len(uniq),
    )
    return hp[codes]


def _split_block(block: pa.Table, part_col: str, num_partitions: int) -> list[pa.Table]:
    if block.num_rows == 0:  # Ray emits schema-less empty blocks sometimes
        return [block] * num_partitions
    part = block[part_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(part, kind="stable")
    sorted_part = part[order]
    bounds = np.searchsorted(sorted_part, np.arange(num_partitions + 1))
    sorted_tbl = block.take(pa.array(order))
    return [
        sorted_tbl.slice(int(bounds[p]), int(bounds[p + 1] - bounds[p]))
        for p in range(num_partitions)
    ]


def split_map(
    ds: ray.data.Dataset, part_col: str, num_partitions: int
) -> list[list[ray.ObjectRef]]:
    """Streaming map side of the hash exchange: one split task per block of
    ``ds`` as it executes (no materialize barrier); returns, per partition,
    the refs of that partition's sub-table of every block — the input of a
    caller-launched reduce task per partition."""
    split = ray.remote(num_returns=num_partitions)(_split_block)
    columns: list[list[ray.ObjectRef]] = [[] for _ in range(num_partitions)]
    for bundle in ds.iter_internal_ref_bundles():
        for block_ref in bundle.block_refs:
            outs = split.remote(block_ref, part_col, num_partitions)
            if num_partitions == 1:
                outs = [outs]
            for p in range(num_partitions):
                columns[p].append(outs[p])
    return columns


def hash_partition_exchange(
    ds: ray.data.Dataset,
    part_col: str,
    num_partitions: int,
    reduce_fn: Callable[[pa.Table], pa.Table],
    reduce_num_cpus: float = 1.0,
) -> ray.data.Dataset:
    """Apply ``reduce_fn`` once per hash partition of ``ds`` (the partition
    arrives as ONE concatenated Arrow table — whole-group semantics)."""

    split = ray.remote(num_returns=num_partitions)(_split_block)
    reduce_remote = ray.remote(num_cpus=reduce_num_cpus)(_reduce_partition)

    block_refs = ds.to_arrow_refs()
    if not block_refs:
        empty = reduce_fn(pa.table({part_col: pa.array([], pa.int64())}))
        return ray.data.from_arrow(empty)

    columns: list[list[ray.ObjectRef]] = [[] for _ in range(num_partitions)]
    for ref in block_refs:
        outs = split.remote(ref, part_col, num_partitions)
        if num_partitions == 1:
            outs = [outs]
        for p, o in enumerate(outs):
            columns[p].append(o)

    reduced = [reduce_remote.remote(reduce_fn, *columns[p]) for p in range(num_partitions)]
    return ray.data.from_arrow_refs(reduced)


def _reduce_partition(reduce_fn, *tables: pa.Table) -> pa.Table:
    # num_partitions == 1 ships the split's 1-element list as ONE object
    tables = tuple(t[0] if isinstance(t, list) else t for t in tables)
    parts = [t for t in tables if t.num_rows > 0]
    if not parts:
        return reduce_fn(tables[0]) if tables else pa.table({})
    return reduce_fn(pa.concat_tables(parts))


def tree_fold(
    ds: ray.data.Dataset,
    combine_fn: Callable[[pa.Table], pa.Table],
    fold_fn: Callable[[pa.Table], pa.Table],
    fan_in: int = 32,
    reduce_num_cpus: float = 1.0,
) -> ray.data.Dataset:
    """Multi-level reduce of per-block partial tables down to ONE table.

    The single-partition exchange fold (``hash_partition_exchange(pre, col,
    1, fold)``) funnels EVERY block's partial into one reduce task — fine
    when a partial is a few scalars, but at 10^5–10^6 blocks a partial of
    tens of KB (DSIR's sparse 64k-bucket count vectors, PCA's d x d moment
    rows) turns that lone reducer into a tens-of-GB concat. Here level k
    concatenates at most ``fan_in`` partials per task and applies
    ``combine_fn`` (must be associative: partials -> ONE partial row of the
    SAME schema), repeating until <= ``fan_in`` remain; one final task
    applies ``fold_fn`` (partials -> final table). Peak per-task input is
    O(fan_in x |partial|) at every level, and the tree has
    O(log_fan_in(blocks)) levels.
    """
    reduce_remote = ray.remote(num_cpus=reduce_num_cpus)(_reduce_partition)
    refs = ds.to_arrow_refs()
    if not refs:
        return ray.data.from_arrow(fold_fn(pa.table({})))
    while len(refs) > fan_in:
        refs = [
            reduce_remote.remote(combine_fn, *refs[i : i + fan_in])
            for i in range(0, len(refs), fan_in)
        ]
    return ray.data.from_arrow_refs([reduce_remote.remote(fold_fn, *refs)])


def _reduce_two_sided(reduce_fn, n_left: int, *tables: pa.Table) -> pa.Table:
    """Reduce one partition of a two-sided exchange: the first ``n_left``
    tables are the left side's sub-tables, the rest the right side's.
    ``reduce_fn(left_tbl | None, right_tbl | None)`` receives each side as
    ONE concatenated Arrow table (None when that side contributed no rows —
    Ray emits schema-less empty blocks, so the kernel owns its empty
    schema)."""
    # num_partitions == 1 ships the split's 1-element list as ONE object
    tables = tuple(t[0] if isinstance(t, list) else t for t in tables)
    left = [t for t in tables[:n_left] if t.num_rows > 0]
    right = [t for t in tables[n_left:] if t.num_rows > 0]
    lt = pa.concat_tables(left) if left else None
    rt = pa.concat_tables(right) if right else None
    return reduce_fn(lt, rt)


def two_sided_hash_exchange(
    left_ds: ray.data.Dataset,
    right_ds: ray.data.Dataset,
    part_col: str,
    num_partitions: int,
    reduce_fn: Callable[[pa.Table | None, pa.Table | None], pa.Table],
    reduce_num_cpus: float = 1.0,
) -> ray.data.Dataset:
    """Co-partition TWO datasets by an already-computed ``part_col`` and
    apply ``reduce_fn(left_partition, right_partition)`` once per partition
    — the join-shaped exchange (both sides of partition p land in the same
    reduce task; each sub-table crosses the object store exactly once, no
    sort). The partitioning assumption is the usual one: one key's rows on
    each side fit a partition."""
    split = ray.remote(num_returns=num_partitions)(_split_block)
    reduce_remote = ray.remote(num_cpus=reduce_num_cpus)(_reduce_two_sided)

    lcols: list[list[ray.ObjectRef]] = [[] for _ in range(num_partitions)]
    rcols: list[list[ray.ObjectRef]] = [[] for _ in range(num_partitions)]
    for cols, ds in ((lcols, left_ds), (rcols, right_ds)):
        for ref in ds.to_arrow_refs():
            outs = split.remote(ref, part_col, num_partitions)
            if num_partitions == 1:
                outs = [outs]
            for p, o in enumerate(outs):
                cols[p].append(o)

    reduced = [
        reduce_remote.remote(
            reduce_fn, len(lcols[p]), *(lcols[p] + rcols[p])
        )
        for p in range(num_partitions)
    ]
    return ray.data.from_arrow_refs(reduced)


def _split_tagged_block(
    block: pa.Table, tag_col: str, part_fn, num_partitions: int
) -> list[pa.Table]:
    """One pass over a tagged stage-1 block: rows with ``tag_col`` True pass
    through as (src, dst) edges; the rest are (src, key) reps hash-partitioned
    by ``part_fn``. Returns [edges, rep_part_0, ..., rep_part_P-1]."""
    import pyarrow.compute as pc

    if block.num_rows == 0:
        empty_edges = pa.table(
            {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
        )
        return [empty_edges] + [block] * num_partitions
    tag = block[tag_col]
    edges = block.filter(tag).select(["src", "dst"])
    reps = block.filter(pc.invert(tag)).select(["src", "key"])
    part = part_fn(reps, num_partitions)
    order = np.argsort(part, kind="stable")
    sorted_part = part[order]
    bounds = np.searchsorted(sorted_part, np.arange(num_partitions + 1))
    sorted_reps = reps.take(pa.array(order))
    return [edges] + [
        sorted_reps.slice(int(bounds[p]), int(bounds[p + 1] - bounds[p]))
        for p in range(num_partitions)
    ]


def require_streaming_cpus(caller: str) -> float | None:
    """The cluster's logical CPU count (None before ``ray.init``). Raises
    ValueError below 2: the tagged split's tasks run while the upstream
    fingerprint actor pool still holds its CPU, so on a one-CPU cluster a
    pipeline over parquet input never returns (no error, no progress)."""
    if not ray.is_initialized():
        return None
    cpus = ray.cluster_resources().get("CPU", 0)
    if cpus < 2:
        raise ValueError(
            f"{caller} needs a Ray cluster with at least 2 logical CPUs "
            f"(found {cpus:g}): start Ray with ray.init(num_cpus=2) or more"
        )
    return cpus


def tagged_split_map(
    ds: ray.data.Dataset,
    tag_col: str,
    part_fn: Callable[[pa.Table, int], np.ndarray],
    num_partitions: int,
) -> tuple[list[ray.ObjectRef], list[list[ray.ObjectRef]], int]:
    """Map side of the tagged (edges | reps) exchange: returns (edge_refs,
    rep_columns, input_rows) — one (src, dst) edge table per input block and,
    per rep partition, that partition's sub-table of every block.

    Consumes ``ds`` block-by-block AS IT EXECUTES (``iter_internal_ref_bundles``)
    and launches one split task per block immediately, so the exchange's
    map side overlaps the upstream fingerprint stage instead of waiting on a
    ``materialize()`` barrier — and each block is read exactly once (the
    materialize-then-filter-twice shape costs two extra passes over the
    exploded bucket table).
    """
    split = ray.remote(num_returns=num_partitions + 1)(_split_tagged_block)
    edge_refs: list[ray.ObjectRef] = []
    columns: list[list[ray.ObjectRef]] = [[] for _ in range(num_partitions)]
    total_rows = 0
    for bundle in ds.iter_internal_ref_bundles():
        total_rows += bundle.num_rows() or 0
        for block_ref in bundle.block_refs:
            outs = split.remote(block_ref, tag_col, part_fn, num_partitions)
            edge_refs.append(outs[0])
            for p in range(num_partitions):
                columns[p].append(outs[p + 1])
    return edge_refs, columns, total_rows


def tagged_split_exchange_refs(
    ds: ray.data.Dataset,
    tag_col: str,
    part_fn: Callable[[pa.Table, int], np.ndarray],
    num_partitions: int,
    reduce_fn: Callable[[pa.Table], pa.Table],
) -> tuple[list[ray.ObjectRef], list[ray.ObjectRef], int]:
    """Streaming one-pass tagged exchange (:func:`tagged_split_map`, then
    ``reduce_fn`` once per rep partition) returning (edge_refs,
    reduced_refs, input_rows); both ref lists are empty for an empty input.
    """
    edge_refs, columns, total_rows = tagged_split_map(ds, tag_col, part_fn, num_partitions)
    if not edge_refs:
        return [], [], 0
    reduce_remote = ray.remote(_reduce_partition)
    reduced = [reduce_remote.remote(reduce_fn, *column) for column in columns]
    return edge_refs, reduced, total_rows


def tagged_split_exchange(
    ds: ray.data.Dataset,
    tag_col: str,
    part_fn: Callable[[pa.Table, int], np.ndarray],
    num_partitions: int,
    reduce_fn: Callable[[pa.Table], pa.Table],
) -> tuple[ray.data.Dataset, ray.data.Dataset, int, list[ray.ObjectRef]]:
    """:func:`tagged_split_exchange_refs` with both ref lists wrapped as
    Datasets: returns (edges_dataset, reduced_dataset, input_rows,
    reduced_refs) — ``reduced_refs`` lets the caller ``ray.wait`` for
    stage-timing purposes. The wrapping costs one blocking metadata task per
    ref (``from_arrow_refs``); callers that only feed the edges to
    ``connected_components_auto`` pass the refs instead.
    """
    edge_refs, reduced, total_rows = tagged_split_exchange_refs(
        ds, tag_col, part_fn, num_partitions, reduce_fn
    )
    if not edge_refs:
        empty = pa.table(
            {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
        )
        return ray.data.from_arrow(empty), ray.data.from_arrow(empty), 0, []
    return (
        ray.data.from_arrow_refs(edge_refs),
        ray.data.from_arrow_refs(reduced),
        total_rows,
        reduced,
    )
