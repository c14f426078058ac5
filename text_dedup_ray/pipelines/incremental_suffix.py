"""Incremental (tiered) exact-substring dedup against a saved anchor index.

The batch paths (:mod:`suffix_array`) re-scan the whole corpus per run. The
tiered contract here is the daily-crawl one: OLD documents are already
emitted and immutable; an increment cleans ONLY the new batch, cutting every
byte run >= ``length_threshold`` that also appears anywhere in the old
corpus or elsewhere in the new batch (reference substring semantics,
suffix_array.py:22-109, restricted to new rows).

- :func:`suffix_bootstrap`: full global-semantics dedup
  (:func:`suffix_array.suffix_array_dedup_global`) over the initial corpus
  that ALSO persists the winnowing anchor index — (anchor hash, row_id)
  pairs pre-partitioned by ``hash % P``, one parquet file per partition.
  Any two docs sharing a run >= L share an anchor
  (functions/suffixarray.minimizer_hashes guarantee), so the index is a
  complete candidate recall structure for future increments.
- :func:`suffix_increment`: anchors ONLY the new batch, exchanges its
  anchor rows to the index partitions, and each reduce task merges against
  its prior index file read LOCALLY from storage (the old index is never
  re-shuffled), emitting co-anchor star edges for anchors present in the
  new batch. Connected components group each new doc with every candidate
  partner; candidate OLD docs' original text is fetched from the
  caller-provided ``old_ds`` by a narrow membership semi-join (the state
  stores no text — at corpus scale duplicating text into state would double
  storage), each group runs the exact suffix-array kernel, and ONLY the new
  rows are emitted.

Equivalence (asserted by tests/test_incremental_suffix.py): the increment's
output for the new rows equals ``suffix_array_dedup_global(old ∪ new)``
restricted to new row ids — a new doc's cuts depend only on whether each
run appears >= 2 times in the combined corpus, and shared anchors place
every partner in the doc's group. Approximations are the same LOGGED caps
as the batch global path (``max_bucket`` old members per anchor for edge
emission, ``max_group`` hub-replicated chunking).

Chaining: the anchor index accumulates each increment's anchors, so later
increments see earlier batches as "old"; ``old_ds`` for increment k must be
the ORIGINAL text of bootstrap ∪ increments 1..k-1 (the caller's corpus
lake — the state validates ids, not content).

Cost note: each increment performs ONE column-pruned scan of ``old_ds``
(row_id + text only) to tag/fetch candidates — cheaper than re-anchoring
the old corpus but still a read proportional to old-corpus text size. A
caller that tracks candidate row-id ranges can pre-filter ``old_ds`` at the
read (parquet row-group pruning) to make the fetch proportional to
candidates instead.
"""

from __future__ import annotations

import logging
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..functions.suffixarray import minimizer_hashes
from ..functions.timer import Timer
from ..sources.io import ROW_ID, stamp_row_ids_from_key
from ..stages.assign import (
    CLUSTER_COLUMN,
    DUPLICATE_COLUMN,
    assign_clusters,
    assign_clusters_sharded,
)
from ..stages.cc import connected_components_auto
from ..state.checkpoint import config_hash
from .incremental import (
    _clean_version_dir,
    _version_dir,
    _write_meta,
    load_meta,
)
from .suffix_array import _dedup_table_chunk, suffix_array_dedup_global

logger = logging.getLogger(__name__)

_EMPTY_EDGES = pa.table({"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())})
_IS_NEW = "__is_new__"


def _index_file(state_dir: str, version: int, p: int) -> str:
    return os.path.join(_version_dir(state_dir, version), "index", f"part-{p:05d}.parquet")


def _suffix_cfg_hash(text_column: str, length_threshold: int, anchor_k: int,
                     num_partitions: int) -> str:
    return config_hash(
        {
            "algo": "suffix_anchor_state",
            "text": text_column,
            "length_threshold": length_threshold,
            "anchor_k": anchor_k,
            "num_partitions": num_partitions,
        }
    )


def _make_anchor_stage(text_column: str, anchor_k: int, length_threshold: int,
                       num_partitions: int):
    def emit_anchors(batch: pa.Table) -> pa.Table:
        texts = batch[text_column].to_pylist()
        ids = batch[ROW_ID].to_numpy(zero_copy_only=False).astype(np.int64)
        out_h: list[np.ndarray] = []
        out_id: list[np.ndarray] = []
        for i, t in enumerate(texts):
            data = np.frombuffer(t.encode("utf-8"), dtype=np.uint8)
            h = minimizer_hashes(data, k=anchor_k, length_threshold=length_threshold)
            if len(h):
                out_h.append(h)
                out_id.append(np.full(len(h), ids[i], dtype=np.int64))
        if not out_h:
            return pa.table(
                {"h": pa.array([], pa.uint64()), "row_id": pa.array([], pa.int64()),
                 "part": pa.array([], pa.int64())}
            )
        h = np.concatenate(out_h)
        rid = np.concatenate(out_id)
        part = (h % np.uint64(num_partitions)).astype(np.int64)
        return pa.table({"h": h, "row_id": rid, "part": part})

    return emit_anchors


def _sorted_anchor_table(*tables: pa.Table) -> pa.Table:
    parts = [t.select(["h", "row_id"]) for t in tables if t.num_rows > 0]
    if not parts:
        return pa.table({"h": pa.array([], pa.uint64()), "row_id": pa.array([], pa.int64())})
    t = pa.concat_tables(parts, promote_options="default")
    h = t["h"].to_numpy(zero_copy_only=False).astype(np.uint64)
    rid = t["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((rid, h.view(np.int64)))
    h, rid = h[order], rid[order]
    # drop exact (h, row_id) repeats (a doc emits each distinct anchor once,
    # but chained merges should stay idempotent)
    if len(h) > 1:
        keep = np.r_[True, (np.diff(h.view(np.int64)) != 0) | (np.diff(rid) != 0)]
        h, rid = h[keep], rid[keep]
    return pa.table({"h": h, "row_id": rid})


@ray.remote
def _bootstrap_index_write(out_path: str, *tables: pa.Table) -> pa.Table:
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    pq.write_table(_sorted_anchor_table(*tables), out_path)
    return _EMPTY_EDGES


@ray.remote
def _increment_reduce_write(
    out_path: str, prior_path: str | None, max_bucket: int, *tables: pa.Table
) -> pa.Table:
    """Reduce one anchor partition: merge the new batch's anchor rows with the
    prior index file (read locally), write the merged next-version file, and
    emit star edges for every anchor PRESENT IN THE NEW BATCH — old-only
    anchors emit nothing, so edge volume tracks the new batch."""
    new = _sorted_anchor_table(*tables)
    if prior_path is not None and os.path.exists(prior_path):
        prior = pq.read_table(prior_path)
    else:
        prior = pa.table({"h": pa.array([], pa.uint64()), "row_id": pa.array([], pa.int64())})
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    pq.write_table(_sorted_anchor_table(prior, new), out_path)
    if new.num_rows == 0:
        return _EMPTY_EDGES
    nh = new["h"].to_numpy(zero_copy_only=False).astype(np.uint64)
    nid = new["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    ph = prior["h"].to_numpy(zero_copy_only=False).astype(np.uint64)
    pid = prior["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    src_out, dst_out = [], []
    capped = 0
    # new is sorted by (h, row_id); prior likewise — walk new anchors
    n_starts = np.flatnonzero(np.r_[True, np.diff(nh.view(np.int64)) != 0])
    n_ends = np.r_[n_starts[1:], len(nh)]
    for s, e in zip(n_starts, n_ends):
        h = nh[s]
        members_new = nid[s:e]
        lo = np.searchsorted(ph, h, side="left")
        hi = np.searchsorted(ph, h, side="right")
        members_old = pid[lo:hi]
        if len(members_old) > max_bucket:
            capped += 1
            members_old = members_old[:max_bucket]  # sorted: min ids kept
        members = np.unique(np.concatenate([members_old, members_new]))
        if len(members) < 2:
            continue
        src_out.append(members[1:])
        dst_out.append(np.full(len(members) - 1, members[0], dtype=np.int64))
    if capped:
        logger.info(
            "suffix_increment: %d hot anchors capped at %d old members for "
            "edge emission (min ids kept; a run shared only with a dropped "
            "member can be missed)", capped, max_bucket,
        )
    if not src_out:
        return _EMPTY_EDGES
    return pa.table(
        {"src": np.concatenate(src_out), "dst": np.concatenate(dst_out)}
    )


def _exchange_anchor_partitions(
    sig: ray.data.Dataset,
    reduce_remote,
    reduce_args_for_partition,
    num_partitions: int,
) -> ray.data.Dataset:
    """Split anchor rows by their precomputed ``part`` column and apply the
    given reduce task per partition (streaming block-by-block)."""
    from ..stages.exchange import split_map

    columns = split_map(sig, "part", num_partitions)
    reduced = [
        reduce_remote.remote(*reduce_args_for_partition(p), *columns[p])
        for p in range(num_partitions)
    ]
    return ray.data.from_arrow_refs(reduced)


def suffix_bootstrap(
    ds: ray.data.Dataset,
    state_dir: str,
    text_column: str = "text",
    id_column: str | None = None,
    length_threshold: int = 100,
    merge_strategy: str = "longest",
    drop_empty: bool = True,
    num_partitions: int = 32,
    anchor_k: int = 16,
    max_bucket: int = 512,
    max_group: int = 4096,
    driver_threshold: int = 2_000_000,
    max_row_id: int | None = None,
):
    """Global-semantics substring dedup over the initial corpus, persisting
    the anchor index + meta. Returns ``(deduped, state_version)``."""
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
    anchors = ds.map_batches(
        _make_anchor_stage(text_column, anchor_k, length_threshold, num_partitions),
        batch_format="pyarrow",
    )
    with timer("anchor_index"):
        done = _exchange_anchor_partitions(
            anchors,
            _bootstrap_index_write,
            lambda p: (_index_file(state_dir, version, p),),
            num_partitions,
        )
        done.materialize()  # barrier: index files on disk before meta flips
    with timer("dedup"):
        deduped = suffix_array_dedup_global(
            ds,
            text_column=text_column,
            length_threshold=length_threshold,
            merge_strategy=merge_strategy,
            drop_empty=drop_empty,
            num_partitions=num_partitions,
            anchor_k=anchor_k,
            max_bucket=max_bucket,
            max_group=max_group,
            driver_threshold=driver_threshold,
        )
    _write_meta(
        state_dir,
        {
            "algo": "suffix_anchor",
            "version": version,
            "cfg_hash": _suffix_cfg_hash(
                text_column, length_threshold, anchor_k, num_partitions
            ),
            "max_row_id": max_row_id,
            "num_partitions": num_partitions,
            "length_threshold": length_threshold,
            "anchor_k": anchor_k,
            "text_column": text_column,
        },
    )
    return deduped, version, {"stage_seconds": timer.report()}


def suffix_increment(
    new_ds: ray.data.Dataset,
    state_dir: str,
    old_ds: ray.data.Dataset,
    id_column: str | None = None,
    merge_strategy: str = "longest",
    drop_empty: bool = True,
    max_bucket: int = 512,
    max_group: int = 4096,
    driver_threshold: int = 2_000_000,
    validate_ids: bool = True,
    batch_id_range: tuple[int, int] | None = None,
):
    """Cut from each NEW doc every byte run >= length_threshold that also
    appears in the old corpus or elsewhere in the new batch; old docs are
    immutable. ``old_ds`` must be the ORIGINAL text of all prior batches
    (bootstrap input ∪ earlier increments). Returns
    ``(deduped_new, state_version, metrics)``."""
    timer = Timer()
    meta = load_meta(state_dir)
    if meta.get("algo") != "suffix_anchor":
        raise ValueError(f"state at {state_dir} is not a suffix_anchor index")
    prior_version = int(meta["version"])
    num_partitions = int(meta["num_partitions"])
    prior_max = int(meta["max_row_id"])
    length_threshold = int(meta["length_threshold"])
    anchor_k = int(meta["anchor_k"])
    text_column = meta["text_column"]

    if id_column is not None:
        new_ds = stamp_row_ids_from_key(new_ds, id_column)
        old_ds = stamp_row_ids_from_key(old_ds, id_column)
    else:
        for d, name in ((new_ds, "new_ds"), (old_ds, "old_ds")):
            sch = d.schema()
            if sch is not None and ROW_ID not in sch.names:
                raise ValueError(f"{name} must have a row_id column or pass id_column")
    from .incremental import _resolve_batch_bounds

    new_max = _resolve_batch_bounds(
        new_ds, prior_max, validate_ids, batch_id_range, msg_tail=''
    )

    # prune to the two columns the kernel needs BEFORE the tag/fetch pass —
    # the membership semi-join must never carry payload columns
    new_ds = new_ds.select_columns([ROW_ID, text_column])
    old_ds = old_ds.select_columns([ROW_ID, text_column])

    version = prior_version + 1
    _clean_version_dir(state_dir, version)
    anchors = new_ds.map_batches(
        _make_anchor_stage(text_column, anchor_k, length_threshold, num_partitions),
        batch_format="pyarrow",
    )
    with timer("anchor+index"):
        edges = _exchange_anchor_partitions(
            anchors,
            _increment_reduce_write,
            lambda p: (
                _index_file(state_dir, version, p),
                _index_file(state_dir, prior_version, p),
                max_bucket,
            ),
            num_partitions,
        )
    with timer("cc"):
        groups = connected_components_auto(
            edges, driver_threshold=driver_threshold, num_partitions=num_partitions
        )

    def narrow_cols(is_new: bool, members_only: bool):
        def f(t: pa.Table) -> pa.Table:
            if members_only:
                t = t.filter(t[DUPLICATE_COLUMN])
            grp = t[CLUSTER_COLUMN].to_numpy(zero_copy_only=False).astype(np.int64)
            part = (np.abs(grp) % num_partitions).astype(np.int64)
            return pa.table(
                {
                    ROW_ID: t[ROW_ID],
                    text_column: t[text_column],
                    "__group__": pa.array(grp),
                    "part": pa.array(part),
                    _IS_NEW: pa.array(
                        np.full(t.num_rows, is_new, dtype=bool)
                    ),
                }
            )

        return f

    with timer("tag+fetch"):
        if isinstance(groups, dict):
            new_tagged = assign_clusters(new_ds, groups)
            old_tagged = assign_clusters(old_ds, groups)
        else:
            gmat = groups.materialize()
            new_tagged = assign_clusters_sharded(
                new_ds, gmat, num_shards=num_partitions
            )
            old_tagged = assign_clusters_sharded(
                old_ds, gmat, num_shards=num_partitions
            )
        # every new doc processes (self-repeats); old docs only if co-anchored
        new_rows = new_tagged.map_batches(
            narrow_cols(True, members_only=False), batch_format="pyarrow"
        )
        old_rows = old_tagged.map_batches(
            narrow_cols(False, members_only=True), batch_format="pyarrow"
        )
        tagged = new_rows.union(old_rows)

    def dedup_new_groups(part_tbl: pa.Table) -> pa.Table:
        empty = pa.table(
            {ROW_ID: pa.array([], pa.int64()), text_column: pa.array([], pa.string())}
        )
        if part_tbl.num_rows == 0 or "__group__" not in part_tbl.column_names:
            return empty
        grp = part_tbl["__group__"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(grp, kind="stable")
        tbl = part_tbl.take(pa.array(order))
        grp_s = grp[order]
        starts = np.flatnonzero(np.r_[True, np.diff(grp_s) != 0])
        ends = np.r_[starts[1:], len(grp_s)]
        pieces = []
        chunked = 0
        for s, e in zip(starts, ends):
            m = e - s
            group_tbl = tbl.slice(s, m)
            if not group_tbl[_IS_NEW].to_numpy(zero_copy_only=False).any():
                continue  # defensive: old-only group contributes no output
            if m <= max_group:
                out = _dedup_table_chunk(
                    group_tbl, text_column, length_threshold, merge_strategy, drop_empty
                )
                if out.num_rows:
                    out = out.filter(out[_IS_NEW])
                pieces.append(out)
                continue
            # giant group: hub-replicated chunking (hub = min id == group
            # root, an OLD doc whenever any old member exists)
            chunked += 1
            ids_g = group_tbl[ROW_ID].to_numpy(zero_copy_only=False).astype(np.int64)
            hub_pos = int(np.argmin(ids_g))
            hub_tbl = group_tbl.slice(hub_pos, 1)
            rest = pa.concat_tables(
                [group_tbl.slice(0, hub_pos), group_tbl.slice(hub_pos + 1)]
            )
            hub_is_new = bool(hub_tbl[_IS_NEW][0].as_py())
            chunk_rows = max(1, max_group - 1)
            for ci, cs in enumerate(range(0, rest.num_rows, chunk_rows)):
                aug = pa.concat_tables([hub_tbl, rest.slice(cs, chunk_rows)])
                out = _dedup_table_chunk(
                    aug, text_column, length_threshold, merge_strategy, drop_empty
                )
                if out.num_rows:
                    out = out.filter(out[_IS_NEW])
                if ci > 0 and hub_is_new and out.num_rows:
                    out_ids = out[ROW_ID].to_numpy(zero_copy_only=False).astype(np.int64)
                    out = out.filter(pa.array(out_ids != int(ids_g[hub_pos])))
                pieces.append(out)
        if chunked:
            logger.info(
                "suffix_increment: %d groups larger than %d processed via "
                "hub-replicated chunks", chunked, max_group,
            )
        if not pieces:
            return empty
        return pa.concat_tables(
            [p.select([ROW_ID, text_column]) for p in pieces]
        )

    from ..stages.exchange import hash_partition_exchange

    with timer("group_dedup"):
        deduped = hash_partition_exchange(
            tagged, "part", num_partitions, dedup_new_groups
        )
    meta.update({"version": version, "max_row_id": max(prior_max, new_max)})
    _write_meta(state_dir, meta)
    return deduped, version, {"stage_seconds": timer.report()}
