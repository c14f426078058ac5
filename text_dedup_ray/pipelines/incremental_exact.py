"""Incremental (tiered) EXACT dedup: first-occurrence-wins against a saved
content-hash index.

The reference's exact path (bloom_filter.py:23-60) is a sequential
single-process Bloom stream with no persistence; the batch Ray version
(pipelines/exact.py) rebuilds the winner set from scratch each run. This module
generalizes the tiered pattern of :mod:`incremental` (minhash/simhash) to
exact dedup:

- :func:`exact_bootstrap`: full exact dedup over the initial corpus that
  persists a ``(content hash, winner row_id)`` index pre-partitioned by the
  leading 8 digest bytes — one parquet file per partition, rows sorted by
  hash — plus meta (version, max row id).
- :func:`exact_increment`: hashes ONLY the new batch, exchanges its narrow
  (hash, row_id) rows by the same partitioning, and each reduce task merges
  against its prior index file read LOCALLY from storage (the old index is
  never re-shuffled), emits the new rows' cluster assignments, and rewrites
  its partition into the next version.

Because row ids are strictly increasing across increments (validated like
:func:`incremental.minhash_increment`), an old winner can never be displaced:
survivors of earlier versions stay survivors, so

    full-batch exact_dedup(old ∪ new) == bootstrap.deduped ∪ increment.deduped

exactly — asserted by tests/test_incremental_exact.py and the
``exact_incremental_docs`` driver query (oracle: the same min-per-text SQL as
the batch path). Unlike minhash/simhash there is no cluster-merge case (a
hash either existed or it didn't), so increments never touch prior cluster
rows: per-version cluster files hold ONLY the new batch's non-trivial rows
and the cumulative map is the union of all versions — increment cost is
O(new batch + index IO), zero rewrite amplification on the cluster side.

Scale posture: per-increment network cost is one exchange of the NEW batch's
24-byte (hash-prefix, row) rows; the index rewrite is local storage IO
proportional to index size; driver state is O(1) (the assignment map goes
through the same dict/Dataset auto threshold as everything else).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..sources.io import ROW_ID, stamp_row_ids_from_key
from ..stages.assign import assign_clusters, assign_clusters_sharded, filter_cluster_roots
from ..state.checkpoint import config_hash
from .exact import HASH_WIDTH, _add_hash_part, _hash_view, _void_to_fixed, add_content_hash
from .incremental import (
    IncrementResult,
    _clean_version_dir,
    _clusters_dir,
    _version_dir,
    _write_meta,
    load_meta,
)
from ..functions.timer import Timer

_HASH_COL = "__content_hash__"


def _index_file(state_dir: str, version: int, p: int) -> str:
    return os.path.join(_version_dir(state_dir, version), "index", f"part-{p:05d}.parquet")


def _exact_cfg_hash(text_column: str) -> str:
    return config_hash({"algo": "exact_state", "text": text_column, "width": HASH_WIDTH})


_EMPTY_MAP = pa.table(
    {"row_id": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64())}
)
_EMPTY_PROBE = pa.table(
    {"row_id": pa.array([], pa.int64()), "seen": pa.array([], pa.bool_()),
     "winner": pa.array([], pa.int64())}
)


@ray.remote
def _exact_reduce_write(
    out_path: str, prior_path: str | None, *tables: pa.Table
) -> pa.Table:
    """Merge one hash partition: new (hash, row_id) rows vs the prior index
    file (read locally, never shuffled). Writes the merged sorted
    ``(hash, winner)`` file for the next version and returns the new rows'
    (row_id, cluster_id) assignments."""
    parts = [t.select([_HASH_COL, ROW_ID]) for t in tables if t.num_rows > 0]
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    if prior_path is not None and os.path.exists(prior_path):
        prior = pq.read_table(prior_path)
        ph = _hash_view(prior["hash"], prior.num_rows)
        pw = prior["winner"].to_numpy(zero_copy_only=False).astype(np.int64)
    else:
        ph = np.empty(0, dtype=f"V{HASH_WIDTH}")
        pw = np.empty(0, dtype=np.int64)

    if not parts:
        pq.write_table(
            pa.table({"hash": _void_to_fixed(ph), "winner": pw}), out_path
        )
        return _EMPTY_MAP

    new = pa.concat_tables(parts)
    h = _hash_view(new[_HASH_COL], new.num_rows).copy()
    r = new[ROW_ID].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(h, kind="stable")
    hs, rs = h[order], r[order]
    diff = np.r_[True, hs[1:] != hs[:-1]]
    starts = np.flatnonzero(diff)
    uniq_h = hs[starts]
    new_min = np.minimum.reduceat(rs, starts)
    # winner per distinct new hash: the prior winner when the hash exists
    # (old ids always < new ids), else the batch min
    if len(ph):
        pos = np.clip(np.searchsorted(ph, uniq_h), 0, len(ph) - 1)
        hit = ph[pos] == uniq_h
        winner = np.where(hit, pw[pos], new_min)
    else:
        hit = np.zeros(len(uniq_h), dtype=bool)
        winner = new_min
    # merged index = prior rows + genuinely-new hashes, re-sorted
    add_h, add_w = uniq_h[~hit], winner[~hit]
    if len(add_h):
        mh = np.concatenate([ph, add_h])
        mw = np.concatenate([pw, add_w])
        morder = np.argsort(mh, kind="stable")
        mh, mw = mh[morder], mw[morder]
    else:
        mh, mw = ph, pw
    pq.write_table(pa.table({"hash": _void_to_fixed(mh), "winner": mw}), out_path)
    # per-row assignment for the new batch
    group_idx = np.cumsum(diff) - 1
    cluster_sorted = winner[group_idx]
    out_cluster = np.empty(len(r), dtype=np.int64)
    out_cluster[order] = cluster_sorted
    return pa.table({"row_id": r, "cluster_id": out_cluster})


@ray.remote
def _exact_probe_partition(index_path: str, *tables: pa.Table) -> pa.Table:
    """Probe one hash partition READ-ONLY: membership of each new row's
    content digest in the prior index file (read locally; the file is
    sorted by hash, so one searchsorted answers every probe). Returns
    (row_id, seen, winner) — winner is the index's first-occurrence row id
    when seen, else -1."""
    parts = [t.select([_HASH_COL, ROW_ID]) for t in tables if t.num_rows > 0]
    if not parts:
        return _EMPTY_PROBE
    new = pa.concat_tables(parts)
    h = _hash_view(new[_HASH_COL], new.num_rows)
    r = new[ROW_ID].to_numpy(zero_copy_only=False).astype(np.int64)
    if os.path.exists(index_path):
        prior = pq.read_table(index_path)
        ph = _hash_view(prior["hash"], prior.num_rows)
        pw = prior["winner"].to_numpy(zero_copy_only=False).astype(np.int64)
    else:
        ph = np.empty(0, dtype=f"V{HASH_WIDTH}")
        pw = np.empty(0, dtype=np.int64)
    if len(ph):
        pos = np.clip(np.searchsorted(ph, h), 0, len(ph) - 1)
        hit = ph[pos] == h
        winner = np.where(hit, pw[pos], np.int64(-1))
    else:
        hit = np.zeros(len(h), dtype=bool)
        winner = np.full(len(h), -1, dtype=np.int64)
    return pa.table(
        {"row_id": pa.array(r), "seen": pa.array(hit), "winner": pa.array(winner)}
    )


def exact_probe_vs_state(
    new_ds: ray.data.Dataset,
    state_dir: str,
    id_column: str | None = None,
) -> ray.data.Dataset:
    """READ-ONLY content-membership probe against a saved exact index: per
    new row, whether its content digest already exists in the state and the
    index's first-occurrence winner row id (-1 when unseen). The admission
    twin of :func:`exact_increment` — no version is written, no meta bumped,
    safe to repeat and to run concurrently with reads.

    ``id_column`` defaults to the column the state was bootstrapped with
    (recorded in meta) when the batch lacks ``row_id``. Text/hash config
    comes from the saved meta, so probe digests always match the index.

    Scale shape: one exchange of the new batch's 24-byte (digest-prefix,
    row) rows to the state's partitioning; each probe task reads only its
    partition's index file and answers membership with one searchsorted.
    The old index never re-shuffles or rewrites. Returns a Dataset of
    ``(row_id, seen, winner)``."""
    from ..stages.exchange import split_map

    meta = load_meta(state_dir)
    if meta.get("algo") != "exact":
        raise ValueError(f"state at {state_dir} is not an exact content-hash index")
    text_column = meta.get("text_column", "text")
    if id_column is None and ROW_ID not in new_ds.schema().names:
        id_column = meta.get("id_column")
    if id_column is not None:
        new_ds = stamp_row_ids_from_key(new_ds, id_column)
    elif ROW_ID not in new_ds.schema().names:
        raise ValueError("dataset must have a row_id column or pass id_column")
    version = int(meta["version"])
    num_partitions = int(meta["num_partitions"])

    hashed = add_content_hash(new_ds, text_column, _HASH_COL)
    narrow = hashed.select_columns([_HASH_COL, ROW_ID]).map_batches(
        _add_hash_part(_HASH_COL, num_partitions), batch_format="pyarrow"
    )
    columns = split_map(narrow, "part", num_partitions)
    probed = [
        _exact_probe_partition.remote(_index_file(state_dir, version, p), *columns[p])
        for p in range(num_partitions)
    ]
    return ray.data.from_arrow_refs(probed)


def _exchange_and_reduce(
    hashed: ray.data.Dataset,
    state_dir: str,
    new_version: int,
    prior_version: int | None,
    num_partitions: int,
) -> ray.data.Dataset:
    """Hash-partition the new batch's narrow (hash, row_id) rows and run the
    per-partition merge against the prior index files. Streams block-by-block
    as the hash stage produces (no materialize barrier)."""
    from ..stages.exchange import split_map

    narrow = hashed.select_columns([_HASH_COL, ROW_ID]).map_batches(
        _add_hash_part(_HASH_COL, num_partitions), batch_format="pyarrow"
    )
    columns = split_map(narrow, "part", num_partitions)
    reduced = []
    for p in range(num_partitions):
        prior = (
            _index_file(state_dir, prior_version, p) if prior_version is not None else None
        )
        reduced.append(
            _exact_reduce_write.remote(
                _index_file(state_dir, new_version, p), prior, *columns[p]
            )
        )
    return ray.data.from_arrow_refs(reduced)


def _persist_new_clusters(cluster_map: ray.data.Dataset, out_dir: str) -> None:
    """Non-trivial (row_id != cluster_id) rows of THIS batch only — exact
    dedup never remaps old rows, so versions are purely additive."""
    import pyarrow.compute as pc

    os.makedirs(out_dir, exist_ok=True)
    cluster_map.map_batches(
        lambda t: t.filter(pc.invert(pc.equal(t["row_id"], t["cluster_id"]))),
        batch_format="pyarrow",
    ).write_parquet(out_dir)


def _finish(
    ds: ray.data.Dataset,
    cluster_map: ray.data.Dataset,
    state_dir: str,
    version: int,
    num_partitions: int,
    driver_threshold: int,
    timer: Timer,
) -> IncrementResult:
    cluster_map = cluster_map.materialize()
    with timer("assign+state"):
        _persist_new_clusters(cluster_map, _clusters_dir(state_dir, version))
        if cluster_map.count() <= driver_threshold:
            parents: dict | ray.data.Dataset = {
                int(m): int(c)
                for b in cluster_map.iter_batches(batch_size=None, batch_format="pyarrow")
                for m, c in zip(b["row_id"].to_pylist(), b["cluster_id"].to_pylist())
            }
            assigned = assign_clusters(ds, parents)
        else:
            parents = cluster_map
            assigned = assign_clusters_sharded(ds, cluster_map, num_shards=num_partitions)
    return IncrementResult(
        assigned=assigned,
        deduped=filter_cluster_roots(assigned),
        parents=parents,
        state_version=version,
        metrics={"stage_seconds": timer.report()},
    )


def exact_bootstrap(
    ds: ray.data.Dataset,
    state_dir: str,
    text_column: str = "text",
    id_column: str | None = None,
    num_partitions: int = 64,
    driver_threshold: int = 2_000_000,
    max_row_id: int | None = None,
) -> IncrementResult:
    """Full exact dedup over the initial corpus, persisting the partitioned
    ``(hash, winner)`` index + meta to ``state_dir``."""
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
    hashed = add_content_hash(ds, text_column, _HASH_COL)
    with timer("hash+index"):
        cluster_map = _exchange_and_reduce(hashed, state_dir, version, None, num_partitions)
    result = _finish(
        ds, cluster_map, state_dir, version, num_partitions, driver_threshold, timer
    )
    _write_meta(
        state_dir,
        {
            "algo": "exact",
            "version": version,
            "cfg_hash": _exact_cfg_hash(text_column),
            "max_row_id": max_row_id,
            "num_partitions": num_partitions,
            "text_column": text_column,
            "id_column": id_column,
        },
    )
    result.state_version = version
    return result


@ray.remote
def _exact_union_write(out_path: str, path_a: str, path_b: str) -> pa.Table:
    """Merge one hash partition of two exact indexes: keep the min winner
    per hash, write the merged sorted file, and return (losing winner ->
    min winner) rows for hashes present in BOTH states. File-local — both
    indexes partition by the same leading digest bytes."""
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    hs, ws = [], []
    for p in (path_a, path_b):
        t = pq.read_table(p)
        hs.append(_hash_view(t["hash"], t.num_rows))
        ws.append(t["winner"].to_numpy(zero_copy_only=False).astype(np.int64))
    h = np.concatenate(hs)
    w = np.concatenate(ws)
    if not len(h):
        pq.write_table(pa.table({"hash": _void_to_fixed(h), "winner": w}), out_path)
        return _EMPTY_MAP
    order = np.argsort(h, kind="stable")
    hs_s, ws_s = h[order], w[order]
    diff = np.r_[True, hs_s[1:] != hs_s[:-1]]
    starts = np.flatnonzero(diff)
    winner = np.minimum.reduceat(ws_s, starts)
    pq.write_table(
        pa.table({"hash": _void_to_fixed(hs_s[starts]), "winner": winner}),
        out_path,
    )
    # duplicate hashes: exactly two rows (one winner per state); the loser
    # becomes a non-trivial member of the min winner
    group_idx = np.cumsum(diff) - 1
    lose_mask = ws_s != winner[group_idx]
    return pa.table(
        {
            "row_id": pa.array(ws_s[lose_mask]),
            "cluster_id": pa.array(winner[group_idx][lose_mask]),
        }
    )


def exact_state_union(
    state_a: str,
    state_b: str,
    out_dir: str,
    validate_ids: bool = True,
) -> tuple[int, dict[int, int]]:
    """Merge two INDEPENDENTLY-built exact-dedup states into one state
    equivalent to a bootstrap over the union corpus — the exact-family twin
    of :func:`incremental.minhash_state_union`.

    Exact clusters are one-per-content-hash, so cross-state merges are
    1:1 (A's winner vs B's winner for a shared hash — no transitive
    chaining, no union-find): the larger winner becomes a member of the
    smaller, and the losing state's member rows for that hash remap through
    one broadcast searchsorted pass. The index merge is P file-local
    sorted-merge tasks (both states partition by the same leading digest
    bytes — ZERO shuffle); cluster rows stream once through the remap.

    Requirements: same text column (cfg_hash), same partition count,
    DISJOINT row-id ranges (``validate_ids`` checks [min winner, meta max]
    intervals — the global min row id is always a winner). NOTE: exact
    cluster history is additive across versions, so union reads EVERY
    version dir of each input state — union states whose history you need
    before pruning them.

    Returns ``(version, merges)`` — the new state's version (1) and the
    losing-winner map for observability.
    """
    import glob as _glob

    ma, mb = load_meta(state_a), load_meta(state_b)
    for m, d in ((ma, state_a), (mb, state_b)):
        if m.get("algo") != "exact":
            raise ValueError(f"state at {d} is not an exact-dedup state")
    if ma["cfg_hash"] != mb["cfg_hash"]:
        raise ValueError(
            "states were built over different text columns/configs; "
            "union requires identical content hashing"
        )
    if int(ma["num_partitions"]) != int(mb["num_partitions"]):
        raise ValueError(
            "states use different partition counts "
            f"({ma['num_partitions']} vs {mb['num_partitions']})"
        )
    num_partitions = int(ma["num_partitions"])
    va, vb = int(ma["version"]), int(mb["version"])

    if validate_ids:
        ints = []
        for sd, v, m in ((state_a, va, ma), (state_b, vb, mb)):
            lo = None
            for p in range(num_partitions):
                t = pq.read_table(_index_file(sd, v, p), columns=["winner"])
                if t.num_rows:
                    mn = int(
                        t["winner"].to_numpy(zero_copy_only=False).min()
                    )
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
    merge_refs = [
        _exact_union_write.remote(
            _index_file(out_dir, version, p),
            _index_file(state_a, va, p),
            _index_file(state_b, vb, p),
        )
        for p in range(num_partitions)
    ]
    merges: dict[int, int] = {}
    for t in ray.get(merge_refs):
        for r, c in zip(
            t["row_id"].to_numpy(zero_copy_only=False).tolist(),
            t["cluster_id"].to_numpy(zero_copy_only=False).tolist(),
        ):
            merges[int(r)] = int(c)

    from .incremental import _remap_sorted, _sorted_remap_arrays

    out_clusters = _clusters_dir(out_dir, version)
    os.makedirs(out_clusters, exist_ok=True)
    rk, rv = _sorted_remap_arrays(merges)

    def remap_batch(t: pa.Table) -> pa.Table:
        if not len(rk) or t.num_rows == 0:
            return t
        c = t["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"row_id": t["row_id"], "cluster_id": pa.array(_remap_sorted(c, rk, rv))}
        )

    # exact cluster rows are ADDITIVE across versions: read every version's
    # cluster dir of each input state
    dirs = [
        d
        for sd in (state_a, state_b)
        for d in sorted(_glob.glob(os.path.join(sd, "v*", "clusters")))
        if _glob.glob(os.path.join(d, "*.parquet"))
    ]
    for d in dirs:
        ray.data.read_parquet(d).map_batches(
            remap_batch, batch_format="pyarrow"
        ).write_parquet(out_clusters)
    if merges:
        pq.write_table(
            pa.table(
                {
                    "row_id": pa.array(list(merges.keys()), pa.int64()),
                    "cluster_id": pa.array(list(merges.values()), pa.int64()),
                }
            ),
            os.path.join(out_clusters, "merged-roots.parquet"),
        )

    _write_meta(
        out_dir,
        {
            "algo": "exact",
            "version": version,
            "cfg_hash": ma["cfg_hash"],
            "max_row_id": max(int(ma["max_row_id"]), int(mb["max_row_id"])),
            "num_partitions": num_partitions,
            "text_column": ma.get("text_column", "text"),
            "id_column": ma.get("id_column"),
        },
    )
    return version, merges


def exact_increment(
    new_ds: ray.data.Dataset,
    state_dir: str,
    text_column: str = "text",
    id_column: str | None = None,
    driver_threshold: int = 2_000_000,
    validate_ids: bool = True,
    batch_id_range: tuple[int, int] | None = None,
) -> IncrementResult:
    """Dedup ``new_ds`` against the saved index AND itself; persist the next
    version. ``deduped`` holds exactly the new rows a full batch re-run over
    old ∪ new would keep."""
    timer = Timer()
    meta = load_meta(state_dir)
    if meta["cfg_hash"] != _exact_cfg_hash(text_column):
        raise ValueError("state was built over a different text column/config")
    prior_version = int(meta["version"])
    num_partitions = int(meta["num_partitions"])
    prior_max = int(meta["max_row_id"])

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
    hashed = add_content_hash(new_ds, text_column, _HASH_COL)
    with timer("hash+index"):
        cluster_map = _exchange_and_reduce(
            hashed, state_dir, version, prior_version, num_partitions
        )
    result = _finish(
        new_ds, cluster_map, state_dir, version, num_partitions, driver_threshold, timer
    )
    meta.update({"version": version, "max_row_id": max(prior_max, new_max)})
    _write_meta(state_dir, meta)
    result.state_version = version
    return result
