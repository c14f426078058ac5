"""Incremental (tiered) token-edit-distance-1 dedup against a saved
deletion-neighborhood index — the editdist family joins the tiered
contract every other dedup family already carries.

State per version (both index families PRE-PARTITIONED, one parquet
file per partition — an increment never re-shuffles old state):

- ``texts/p{j}.parquet``: (h1, h2, gid) content-hash -> group-rep index,
  sorted by (h1, h2), partitioned by ``|h1| % P`` — the identical-text
  collapse an increment must consult (a new row whose text matches an
  OLD text joins that old group, never founds a new one);
- ``postings/p{j}.parquet``: (k1, k2, pos, gid) deletion/full key rows
  of every DISTINCT text, sorted by (k1, k2), partitioned by
  ``|k1| % P`` — the matching side for new reps.

Increment: hash only the NEW batch; each texts partition merges against
its prior file read LOCALLY and returns (member edge rows + genuinely
new reps with their text); the new reps' L+1 keys exchange to the
postings partitions, which merge locally and emit CROSS-ONLY ed=1 pairs
(old-old connectivity is already folded into the prior cluster map, the
shared suppression rule of the tiered families — editdist.
pairs_from_key_rows(side=...)); new member stars + cross pairs CC and
compose through the prior map. Equivalence with a full
``token_ed1_dedup(old ∪ new)`` re-run is asserted by
tests/test_incremental_editdist.py.
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
from ..stages.exchange import split_map
from ..state.checkpoint import config_hash
from .editdist import _md5_u64_pair, default_tokenizer, key_rows_for_text, pairs_from_key_rows
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


def _texts_file(state_dir: str, version: int, p: int) -> str:
    return os.path.join(_version_dir(state_dir, version), "texts", f"p{p:05d}.parquet")


def _postings_file(state_dir: str, version: int, p: int) -> str:
    return os.path.join(
        _version_dir(state_dir, version), "postings", f"p{p:05d}.parquet"
    )


_EMPTY_UNION = pa.table(
    {
        "kind": pa.array([], pa.string()),
        "a": pa.array([], pa.int64()),
        "b": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    }
)

_EMPTY_PAIRS = pa.table(
    {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
)


@ray.remote
def _texts_reduce_write(
    out_path: str, prior_path: str | None, *tables: pa.Table
) -> pa.Table:
    """Merge one content-hash partition of the new batch against the
    prior texts file (read locally): every new row gets its group rep
    (an OLD gid when the text already exists, else the min new id of its
    new identical group). Writes the merged sorted texts file; returns
    the union stream (member edges + genuinely-new reps with text)."""
    parts = [t for t in tables if t.num_rows > 0]
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    if prior_path is not None and os.path.exists(prior_path):
        prior = pq.read_table(prior_path)
        ph1 = prior["h1"].to_numpy(zero_copy_only=False)
        ph2 = prior["h2"].to_numpy(zero_copy_only=False)
        pg = prior["gid"].to_numpy(zero_copy_only=False)
    else:
        ph1 = np.empty(0, np.int64)
        ph2 = np.empty(0, np.int64)
        pg = np.empty(0, np.int64)
    if not parts:
        pq.write_table(
            pa.table({"h1": ph1, "h2": ph2, "gid": pg}), out_path
        )
        return _EMPTY_UNION
    new = pa.concat_tables(parts)
    h1 = new["h1"].to_numpy(zero_copy_only=False)
    h2 = new["h2"].to_numpy(zero_copy_only=False)
    ids = new["id"].to_numpy(zero_copy_only=False).astype(np.int64)
    texts = np.asarray(new["text"].to_pylist(), object)
    order = np.lexsort((ids, h2, h1))
    h1s, h2s, ids_s = h1[order], h2[order], ids[order]
    first = np.r_[True, (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])]
    gstart = np.flatnonzero(first)
    gsize = np.diff(np.r_[gstart, len(ids_s)])
    # prior lookup per distinct new hash (prior file sorted by (h1, h2))
    uh1, uh2 = h1s[gstart], h2s[gstart]
    if len(ph1):
        pos = np.searchsorted(ph1, uh1)
        gid_of = np.full(len(uh1), -1, np.int64)
        for i in range(len(uh1)):  # bounded by block-DISTINCT new texts
            j = pos[i]
            while j < len(ph1) and ph1[j] == uh1[i]:
                if ph2[j] == uh2[i]:
                    gid_of[i] = pg[j]
                    break
                j += 1
    else:
        gid_of = np.full(len(uh1), -1, np.int64)
    new_group = gid_of < 0
    gid_final = np.where(new_group, ids_s[gstart], gid_of)
    # members: every new row -> its group rep
    member_gid = np.repeat(gid_final, gsize)
    kinds = ["member"] * len(ids_s)
    a = ids_s.tolist()
    b = member_gid.tolist()
    txt: list = [None] * len(ids_s)
    # reps: ONLY genuinely-new distinct texts need keying
    rep_rows = gstart[new_group]
    kinds += ["rep"] * len(rep_rows)
    a += ids_s[rep_rows].tolist()
    b += [-1] * len(rep_rows)
    txt += texts[order[rep_rows]].tolist()
    # merged texts index = prior + new distinct hashes, re-sorted
    mh1 = np.concatenate([ph1, uh1[new_group]])
    mh2 = np.concatenate([ph2, uh2[new_group]])
    mg = np.concatenate([pg, gid_final[new_group]])
    morder = np.lexsort((mh2, mh1))
    pq.write_table(
        pa.table({"h1": mh1[morder], "h2": mh2[morder], "gid": mg[morder]}),
        out_path,
    )
    return pa.table(
        {
            "kind": pa.array(kinds, pa.string()),
            "a": pa.array(a, pa.int64()),
            "b": pa.array(b, pa.int64()),
            "text": pa.array(txt, pa.string()),
        }
    )


@ray.remote
def _postings_reduce_write(
    out_path: str, prior_path: str | None, *tables: pa.Table
) -> pa.Table:
    """Merge one key partition of the new reps' deletion keys against the
    prior postings file (read locally); emit CROSS-ONLY ed=1 pairs via
    the shared matching kernel; write the merged sorted postings file."""
    parts = [t for t in tables if t.num_rows > 0]
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    if prior_path is not None and os.path.exists(prior_path):
        prior = pq.read_table(prior_path)
        pk1 = prior["k1"].to_numpy(zero_copy_only=False)
        pk2 = prior["k2"].to_numpy(zero_copy_only=False)
        pp = prior["pos"].to_numpy(zero_copy_only=False)
        pg = prior["gid"].to_numpy(zero_copy_only=False)
    else:
        pk1 = pk2 = pp = pg = np.empty(0, np.int64)
    if not parts:
        pq.write_table(
            pa.table({"k1": pk1, "k2": pk2, "pos": pp, "gid": pg}), out_path
        )
        return _EMPTY_PAIRS
    new = pa.concat_tables(parts)
    nk1 = new["k1"].to_numpy(zero_copy_only=False)
    nk2 = new["k2"].to_numpy(zero_copy_only=False)
    npos = new["pos"].to_numpy(zero_copy_only=False)
    ngid = new["gid"].to_numpy(zero_copy_only=False)
    k1 = np.concatenate([pk1, nk1])
    k2 = np.concatenate([pk2, nk2])
    pos = np.concatenate([pp, npos])
    gid = np.concatenate([pg, ngid])
    side = np.concatenate(
        [np.zeros(len(pk1), np.int64), np.ones(len(nk1), np.int64)]
    )
    pairs = pairs_from_key_rows(k1, k2, pos, gid, side=side)
    morder = np.lexsort((k2, k1))
    pq.write_table(
        pa.table(
            {
                "k1": k1[morder],
                "k2": k2[morder],
                "pos": pos[morder],
                "gid": gid[morder],
            }
        ),
        out_path,
    )
    if not len(pairs):
        return _EMPTY_PAIRS
    return pa.table({"src": pa.array(pairs[:, 0]), "dst": pa.array(pairs[:, 1])})


def _hash_partial(text_column: str, num_partitions: int):
    def f(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "h1": pa.array([], pa.int64()),
                "h2": pa.array([], pa.int64()),
                "id": pa.array([], pa.int64()),
                "text": pa.array([], pa.string()),
                "part": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0:
            return empty
        if batch[text_column].null_count:
            batch = batch.filter(batch[text_column].combine_chunks().is_valid())
            if batch.num_rows == 0:
                return empty
        ids = batch[ROW_ID].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = batch[text_column].to_pylist()
        h = np.array(
            [_md5_u64_pair(t.encode()) for t in texts], np.int64
        ).reshape(-1, 2)
        return pa.table(
            {
                "h1": pa.array(h[:, 0]),
                "h2": pa.array(h[:, 1]),
                "id": pa.array(ids),
                "text": pa.array(texts, pa.string()),
                "part": pa.array(np.abs(h[:, 0]) % num_partitions),
            }
        )

    return f


def _key_partial(num_partitions: int):
    def f(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        empty = pa.table(
            {
                "k1": pa.array([], pa.int64()),
                "k2": pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
                "gid": pa.array([], pa.int64()),
                "part": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0 or "kind" not in batch.column_names:
            return empty
        reps = batch.filter(pc.equal(batch["kind"], "rep"))
        if reps.num_rows == 0:
            return empty
        k1, k2, pos, gid = [], [], [], []
        for g, t in zip(reps["a"].to_pylist(), reps["text"].to_pylist()):
            for a, b, i, gg in key_rows_for_text(t, int(g), default_tokenizer):
                k1.append(a)
                k2.append(b)
                pos.append(i)
                gid.append(gg)
        k1a = np.asarray(k1, np.int64)
        return pa.table(
            {
                "k1": pa.array(k1a),
                "k2": pa.array(np.asarray(k2, np.int64)),
                "pos": pa.array(np.asarray(pos, np.int64)),
                "gid": pa.array(np.asarray(gid, np.int64)),
                "part": pa.array(np.abs(k1a) % num_partitions),
            }
        )

    return f


def _member_edges(batch: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    if batch.num_rows == 0 or "kind" not in batch.column_names:
        return _EMPTY_PAIRS
    mem = batch.filter(pc.equal(batch["kind"], "member"))
    m = mem["a"].to_numpy(zero_copy_only=False).astype(np.int64)
    g = mem["b"].to_numpy(zero_copy_only=False).astype(np.int64)
    keep = m != g
    return pa.table({"src": pa.array(g[keep]), "dst": pa.array(m[keep])})


def _run_step(
    ds: ray.data.Dataset,
    state_dir: str,
    version: int,
    prior_version: int | None,
    text_column: str,
    num_partitions: int,
    driver_threshold: int,
    timer: Timer,
) -> "dict | ray.data.Dataset":
    """One bootstrap/increment pass: texts merge -> key new reps ->
    postings merge + cross pairs -> CC over member stars + pairs."""
    hashed = ds.select_columns([ROW_ID, text_column]).map_batches(
        _hash_partial(text_column, num_partitions),
        batch_format="pyarrow",
        batch_size=None,
    )
    with timer("texts_index"):
        cols = split_map(hashed, "part", num_partitions)
        union_refs = [
            _texts_reduce_write.remote(
                _texts_file(state_dir, version, p),
                _texts_file(state_dir, prior_version, p)
                if prior_version is not None
                else None,
                *cols[p],
            )
            for p in range(num_partitions)
        ]
        union = ray.data.from_arrow_refs(union_refs).materialize()
    with timer("postings+pairs"):
        keyed = union.map_batches(
            _key_partial(num_partitions), batch_format="pyarrow", batch_size=None
        )
        kcols = split_map(keyed, "part", num_partitions)
        pair_refs = [
            _postings_reduce_write.remote(
                _postings_file(state_dir, version, p),
                _postings_file(state_dir, prior_version, p)
                if prior_version is not None
                else None,
                *kcols[p],
            )
            for p in range(num_partitions)
        ]
        pairs = ray.data.from_arrow_refs(pair_refs)
    with timer("cc"):
        stars = union.map_batches(
            _member_edges, batch_format="pyarrow", batch_size=None
        )
        return connected_components_auto(
            stars.union(pairs),
            driver_threshold=driver_threshold,
            num_partitions=num_partitions,
        )


def _finish(
    ds, parents, state_dir, version, num_partitions, driver_threshold, timer
) -> IncrementResult:
    with timer("assign"):
        if isinstance(parents, dict):
            assigned = assign_clusters(ds, parents)
        else:
            assigned = assign_clusters_sharded(
                ds, parents.materialize(), num_shards=num_partitions
            )
    return IncrementResult(
        assigned=assigned,
        deduped=filter_cluster_roots(assigned),
        parents=parents,
        state_version=version,
        metrics={"stage_seconds": timer.report()},
    )


def _ed_cfg_hash(text_column: str) -> str:
    return config_hash({"algo": "editdist1_state", "text": text_column})


def editdist_bootstrap(
    ds: ray.data.Dataset,
    state_dir: str,
    text_column: str = "text",
    id_column: str | None = None,
    num_partitions: int = 16,
    driver_threshold: int = 2_000_000,
    max_row_id: int | None = None,
) -> IncrementResult:
    """Full token-ed<=1 dedup over the initial corpus, persisting the
    partitioned texts + deletion-key postings indexes and the cluster
    map to ``state_dir``."""
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
    parents = _run_step(
        ds, state_dir, version, None, text_column, num_partitions,
        driver_threshold, timer,
    )
    with timer("state"):
        _write_clusters(parents, _clusters_dir(state_dir, version))
    result = _finish(
        ds, parents, state_dir, version, num_partitions, driver_threshold, timer
    )
    _write_meta(
        state_dir,
        {
            "algo": "editdist1",
            "version": version,
            "cfg_hash": _ed_cfg_hash(text_column),
            "max_row_id": max_row_id,
            "num_partitions": num_partitions,
            "text_column": text_column,
            "id_column": id_column,
        },
    )
    result.state_version = version
    return result


def editdist_increment(
    new_ds: ray.data.Dataset,
    state_dir: str,
    id_column: str | None = None,
    driver_threshold: int = 2_000_000,
    validate_ids: bool = True,
    batch_id_range: tuple[int, int] | None = None,
) -> IncrementResult:
    """Dedup ``new_ds`` against the saved deletion-neighborhood index AND
    itself; persist the next version. Cluster assignments equal a full
    ``token_ed1_dedup(old ∪ new)`` re-run (old-old pairs live in the
    prior map; texts/postings merges surface every new-old and new-new
    ed<=1 relation)."""
    meta = load_meta(state_dir)
    if meta.get("algo") != "editdist1":
        raise ValueError(f"state at {state_dir} is not an editdist1 index")
    text_column = meta["text_column"]
    num_partitions = int(meta["num_partitions"])
    prior_version = int(meta["version"])
    prior_max = int(meta["max_row_id"])
    if id_column is None and ROW_ID not in new_ds.schema().names:
        id_column = meta.get("id_column")
    if id_column is not None:
        new_ds = stamp_row_ids_from_key(new_ds, id_column)
    elif ROW_ID not in new_ds.schema().names:
        raise ValueError("dataset must have a row_id column or pass id_column")

    from .incremental import _resolve_batch_bounds

    new_max = _resolve_batch_bounds(
        new_ds, prior_max, validate_ids, batch_id_range
    )

    timer = Timer()
    version = prior_version + 1
    _clean_version_dir(state_dir, version)
    cc = _run_step(
        new_ds, state_dir, version, prior_version, text_column,
        num_partitions, driver_threshold, timer,
    )
    with timer("compose"):
        parents, merges = _compose_with_prior(
            cc, prior_max, _clusters_dir(state_dir, prior_version)
        )
    with timer("state"):
        _write_clusters(
            parents,
            _clusters_dir(state_dir, version),
            prior_dir=_clusters_dir(state_dir, prior_version),
            merges=merges,
            min_new_id=prior_max + 1,
        )
    result = _finish(
        new_ds, parents, state_dir, version, num_partitions, driver_threshold, timer
    )
    result.merged_old_roots = merges
    meta.update({"version": version, "max_row_id": max(prior_max, new_max)})
    _write_meta(state_dir, meta)
    result.state_version = version
    return result
