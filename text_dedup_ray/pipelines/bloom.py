"""Sharded Bloom-filter dedup — true probabilistic first-occurrence semantics.

The reference's bloom_filter.py:23-47 streams every doc through ONE
``rbloom.Bloom`` sequentially (``num_proc=1`` forced): a doc is flagged
duplicate iff its text is *maybe-seen* (all k bit positions already set); on a
miss the text is added. First occurrence wins, and a false positive silently
drops a unique doc — the documented trade-off of the algorithm.

``pipelines/exact.py`` replaces this with exact dedup (strictly better
results).  This module keeps the *probabilistic* semantics as a first-class
distributed operator for users who want the reference's memory profile at
scale — a Bloom register set is O(m) bits regardless of corpus size, while
exact dedup's winner state is O(distinct texts).

Ray-native design (no sequential driver pass):

- content digests (16-byte sha1 prefix, shared with exact dedup) are
  hash-partitioned into ``num_shards`` disjoint key spaces; each shard owns an
  independent ``m_total/num_shards``-bit register array. Identical texts always
  land in the same shard, so first-occurrence semantics are preserved exactly;
  false positives can only occur between texts of the SAME shard, and the
  per-shard fill factor matches the single-filter fill factor, so the
  configured ``error_rate`` still bounds the end-to-end FP probability.
- within a shard, docs are processed in ``row_id`` order (the reference's
  dataset order).  The walk is NOT a per-doc Python loop: an optimistic
  vectorized pass assumes zero false positives and computes, for every distinct
  digest, whether all k of its register positions were already set by an
  EARLIER distinct digest (per-bit min/second-min setter times, own
  contribution excluded).  Digests that fail that test are provably non-dup;
  the (rare, ~error_rate fraction) *suspects* are resolved by an exact
  sequential replay restricted to suspects only — bit-for-bit identical to the
  full sequential walk, at O(n_distinct * k) vectorized cost plus
  O(|suspects| * k) Python cost.
- everything is deterministic given (num_shards, m, k): same corpus, same
  flags, every run, any parallelism.

k register positions per digest use double hashing ``h1 + i*h2 (mod m)`` with
h1/h2 derived from the two digest halves through splitmix64 finalizers, so the
position stream is decorrelated from the shard-assignment bytes.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..sources.io import ROW_ID, stamp_row_ids_from_key
from ..stages.exchange import hash_partition_exchange
from .exact import HASH_WIDTH, _add_hash_part, _hash_view, add_content_hash


def bloom_params(max_elements: int, error_rate: float) -> tuple[int, int]:
    """(m_bits, k_hashes) for a Bloom filter sized like the reference's
    ``rbloom.Bloom(max_elements, error_rate)`` (standard optimal formulas:
    m = -n ln p / (ln 2)^2, k = (m/n) ln 2)."""
    if not (0.0 < error_rate < 1.0):
        raise ValueError("error_rate must be in (0, 1)")
    n = max(int(max_elements), 1)
    m = int(math.ceil(-n * math.log(error_rate) / (math.log(2) ** 2)))
    k = max(1, round((m / n) * math.log(2)))
    return max(m, 64), k


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain mixing constants)."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        z = x
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


def _positions(h: np.ndarray, m: int, k: int) -> np.ndarray:
    """(n_digests, k) register positions from void16 digests (double hashing)."""
    n = len(h)
    raw = h.view(np.uint8).reshape(n, HASH_WIDTH)
    lead = np.ascontiguousarray(raw[:, :8]).view(np.uint64).reshape(-1)
    tail = np.ascontiguousarray(raw[:, 8:16]).view(np.uint64).reshape(-1)
    h1 = _splitmix64(lead)
    h2 = _splitmix64(tail) | np.uint64(1)
    i = np.arange(k, dtype=np.uint64)
    with np.errstate(over="ignore"):
        pos = (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(m)
    return pos.astype(np.int64)


def _bloom_flags(
    h: np.ndarray,
    r: np.ndarray,
    m: int,
    k: int,
    prior_bits: np.ndarray | None = None,
    return_bits: bool = False,
):
    """Duplicate flags (aligned to the input order) for one shard.

    Bit-for-bit equal to the sequential reference walk restricted to this
    shard: iterate rows in row_id order; flag duplicate iff all k register
    positions are set; set the positions only on a miss
    (reference bloom_filter.py:33-37). ``prior_bits`` (bool, len m) seeds the
    walk with an earlier segment's register state — appending segments in
    increasing row_id order reproduces the single continuous walk EXACTLY,
    false positives included, which is what makes the tiered variant
    (:func:`bloom_bootstrap` / :func:`bloom_increment`) ≡ the batch run.
    ``return_bits`` additionally returns the post-walk register state.
    """
    n = len(r)
    if n == 0:
        flags = np.zeros(0, dtype=bool)
        if return_bits:
            bits = (
                prior_bits.copy() if prior_bits is not None else np.zeros(m, dtype=bool)
            )
            return flags, bits
        return flags
    time_order = np.argsort(r, kind="stable")  # row_ids are unique
    hs = h[time_order]

    # group identical digests; first occurrence (in time) per digest
    sort_by_digest = np.argsort(hs, kind="stable")  # stable => time order within
    hd = hs[sort_by_digest]
    starts = np.flatnonzero(np.r_[True, hd[1:] != hd[:-1]])
    group_of_sorted = np.cumsum(np.r_[False, hd[1:] != hd[:-1]])
    group_idx = np.empty(n, dtype=np.int64)
    group_idx[sort_by_digest] = group_of_sorted  # per time-ordered row
    first_time = sort_by_digest[starts]  # time index of each digest's first row
    n_d = len(starts)

    # order distinct digests by their first-occurrence time
    d_order = np.argsort(first_time, kind="stable")
    d_time = first_time[d_order]  # strictly increasing
    pos = _positions(hd[starts][d_order], m, k)  # (n_d, k)

    # ---- optimistic pass: per-bit min / second-min setter over the PRESENT
    # (digest, bit) entries only — never an O(m) dense array, so the pass
    # costs O(n_d * k log(n_d * k)) regardless of the register size.
    flat_bit = pos.ravel()
    flat_t = np.repeat(np.arange(n_d, dtype=np.int64), k)  # digest rank = time rank
    order_bt = np.lexsort((flat_t, flat_bit))
    b_s, t_s = flat_bit[order_bt], flat_t[order_bt]
    bit_start = np.r_[True, b_s[1:] != b_s[:-1]]
    grp = np.cumsum(bit_start) - 1  # bit-group id per entry
    g_first_t = t_s[np.flatnonzero(bit_start)]  # first setter time per bit
    first_t_of_entry = g_first_t[grp]
    # second setter from a DIFFERENT digest (equal time == same digest, since
    # rank is unique per digest; same-digest repeated bits share a time)
    cand = np.flatnonzero((~bit_start) & (t_s != first_t_of_entry))
    second_t = np.full(len(g_first_t), n_d, dtype=np.int64)
    if len(cand):  # first such candidate per bit group is the second-min
        cgrp = grp[cand]
        keep = np.r_[True, cgrp[1:] != cgrp[:-1]]
        second_t[cgrp[keep]] = t_s[cand[keep]]

    # digest (rank t) is a SUSPECT iff every one of its k entries has an
    # earlier setter from another digest or is already set in the prior state
    earliest_other = np.where(first_t_of_entry == t_s, second_t[grp], first_t_of_entry)
    entry_covered = earliest_other < t_s
    if prior_bits is not None:
        entry_covered |= prior_bits[b_s]
    covered_per_digest = np.bincount(t_s[entry_covered], minlength=n_d)
    suspect = covered_per_digest >= k

    # ---- exact replay over suspects only (rare): bits from non-suspect
    # digests stream in by time; non-dup suspects contribute as resolved.
    dup_digest = np.zeros(n_d, dtype=bool)
    sus_ranks = np.flatnonzero(suspect)
    if len(sus_ranks):
        bits = (
            prior_bits.copy() if prior_bits is not None else np.zeros(m, dtype=bool)
        )
        nonsus = np.flatnonzero(~suspect)
        ptr = 0
        for t in sus_ranks:
            nxt = np.searchsorted(nonsus, t)
            if nxt > ptr:
                bits[pos[nonsus[ptr:nxt]].ravel()] = True
                ptr = nxt
            p = pos[t]
            if bits[p].all():
                dup_digest[t] = True  # false positive: flagged, never added
            else:
                bits[p] = True

    # ---- per-row flags: non-first occurrences always duplicate; first
    # occurrences inherit the digest's FP status.
    rank_of_group = np.empty(n_d, dtype=np.int64)
    rank_of_group[d_order] = np.arange(n_d)
    row_rank = rank_of_group[group_idx]  # per time-ordered row
    is_first = d_time[row_rank] == np.arange(n)
    dup_time = ~is_first | dup_digest[row_rank]
    out = np.empty(n, dtype=bool)
    out[time_order] = dup_time
    if return_bits:
        bits_out = (
            prior_bits.copy() if prior_bits is not None else np.zeros(m, dtype=bool)
        )
        bits_out[pos[~dup_digest].ravel()] = True  # misses add; FPs never do
        return out, bits_out
    return out


def _flag_kernel(hash_col: str, m: int, k: int, drop: bool):
    """Whole-shard kernel: flag (and optionally filter) one partition."""

    def flag(group: pa.Table) -> pa.Table:
        if "part" in group.column_names:
            group = group.drop_columns(["part"])
        n = group.num_rows
        if n == 0:
            return group.append_column("duplicate", pa.array([], pa.bool_()))
        h = _hash_view(group[hash_col], n)
        r = group[ROW_ID].to_numpy(zero_copy_only=False).astype(np.int64)
        dup = _bloom_flags(h, r, m, k)
        if drop:
            return group.filter(pa.array(~dup))
        return group.append_column("duplicate", pa.array(dup))

    return flag


def bloom_dedup(
    ds: ray.data.Dataset,
    text_column: str = "text",
    id_column: str | None = None,
    max_elements: int = 1_000_000,
    error_rate: float = 1e-9,
    num_shards: int = 32,
    keep_flag: bool = False,
    keep_hash: bool = False,
) -> ray.data.Dataset:
    """Distributed Bloom-filter dedup (reference bloom_filter.py:23-60).

    ``keep_flag=True`` mirrors the reference's ``skip_filtering``: every row
    survives, stamped with a boolean ``duplicate`` column. Otherwise rows
    flagged duplicate (true repeats AND false positives) are dropped and the
    first occurrence in ``row_id`` order survives — modulo false positives at
    the configured ``error_rate``.

    One payload shuffle keyed by content digest; each shard walks its rows in
    row_id order against its own register array (see module docstring). No
    driver-resident state at any size; per-shard memory is
    ``m_total/num_shards`` bits + the shard's rows.
    """
    m_total, k = bloom_params(max_elements, error_rate)
    m_shard = max(64, -(-m_total // num_shards))  # ceil div
    hash_col = "__content_hash__"
    if id_column is not None:
        ds = stamp_row_ids_from_key(ds, id_column)
    elif ROW_ID not in ds.schema().names:
        raise ValueError("dataset must have a row_id column or pass id_column")
    hashed = add_content_hash(ds, text_column, hash_col)
    out = hash_partition_exchange(
        hashed.map_batches(_add_hash_part(hash_col, num_shards), batch_format="pyarrow"),
        "part",
        num_shards,
        _flag_kernel(hash_col, m_shard, k, drop=not keep_flag),
    )
    if not keep_hash:
        out = out.drop_columns([hash_col])
    return out


# -------------------------------------------------------- tiered (incremental)
#
# Register state is the WHOLE Bloom story: persist each shard's packed bit
# array and the continuous walk resumes exactly where it stopped. Appending
# batches in increasing row_id order therefore reproduces the single batch
# walk bit-for-bit — false positives included — which no other incremental
# family can claim (they prove set-equivalence; bloom gets literal state
# equality). Per-increment cost: one exchange of the NEW batch + O(m/shards)
# local state IO per shard; old payloads are never touched.

from dataclasses import dataclass, field


@dataclass
class BloomIncrementResult:
    flagged: ray.data.Dataset   # new batch + `duplicate` column
    deduped: ray.data.Dataset   # new batch rows that survive vs old ∪ batch
    state_version: int = 0
    metrics: dict = field(default_factory=dict)


def _bloom_state_file(state_dir: str, version: int, p: int) -> str:
    import os

    from .incremental import _version_dir

    return os.path.join(_version_dir(state_dir, version), "bloom", f"part-{p:05d}.parquet")


@ray.remote
def _bloom_reduce_write(
    out_path: str,
    prior_path: str | None,
    hash_col: str,
    m: int,
    k: int,
    *tables: pa.Table,
) -> pa.Table:
    """Walk one shard's new rows against its persisted register state (read
    locally, never shuffled), write the post-walk state for the next version,
    and return the shard's flagged payload rows."""
    import os

    import pyarrow.parquet as pq

    parts = []
    for t in tables:
        t = t[0] if isinstance(t, list) else t
        if t.num_rows > 0:
            parts.append(t)
    if prior_path is not None and os.path.exists(prior_path):
        packed = pq.read_table(prior_path)["bits"][0].as_py()
        prior = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))[:m].astype(bool)
    else:
        prior = np.zeros(m, dtype=bool)

    if not tables:  # zero-block input dataset: persist state, emit nothing
        os.makedirs(os.path.dirname(out_path), exist_ok=True)
        pq.write_table(
            pa.table({"bits": pa.array([np.packbits(prior).tobytes()], pa.binary())}),
            out_path,
        )
        return pa.table(
            {ROW_ID: pa.array([], pa.int64()), "duplicate": pa.array([], pa.bool_())}
        )
    schema_src = tables[0] if not isinstance(tables[0], list) else tables[0][0]
    if not parts:
        group = schema_src.slice(0, 0)
        dup = np.zeros(0, dtype=bool)
        bits = prior
    else:
        group = pa.concat_tables(parts)
        h = _hash_view(group[hash_col], group.num_rows).copy()
        r = group[ROW_ID].to_numpy(zero_copy_only=False).astype(np.int64)
        dup, bits = _bloom_flags(h, r, m, k, prior_bits=prior, return_bits=True)

    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    pq.write_table(
        pa.table({"bits": pa.array([np.packbits(bits).tobytes()], pa.binary())}),
        out_path,
    )
    if "part" in group.column_names:
        group = group.drop_columns(["part"])
    return group.append_column("duplicate", pa.array(dup))


def _bloom_exchange(
    hashed: ray.data.Dataset,
    state_dir: str,
    new_version: int,
    prior_version: int | None,
    num_shards: int,
    m: int,
    k: int,
    hash_col: str,
) -> ray.data.Dataset:
    from ..stages.exchange import split_map

    withpart = hashed.map_batches(
        _add_hash_part(hash_col, num_shards), batch_format="pyarrow"
    )
    columns = split_map(withpart, "part", num_shards)
    reduced = []
    for p in range(num_shards):
        prior = (
            _bloom_state_file(state_dir, prior_version, p)
            if prior_version is not None
            else None
        )
        reduced.append(
            _bloom_reduce_write.remote(
                _bloom_state_file(state_dir, new_version, p), prior, hash_col, m, k,
                *columns[p],
            )
        )
    return ray.data.from_arrow_refs(reduced)


def _bloom_cfg_hash(text_column: str, m: int, k: int, num_shards: int) -> str:
    from ..state.checkpoint import config_hash

    return config_hash(
        {"algo": "bloom_state", "text": text_column, "m": m, "k": k, "shards": num_shards}
    )


def _bloom_run(
    ds: ray.data.Dataset,
    state_dir: str,
    version: int,
    prior_version: int | None,
    text_column: str,
    m_shard: int,
    k: int,
    num_shards: int,
) -> BloomIncrementResult:
    import pyarrow.compute as pc

    from ..functions.timer import Timer
    from .incremental import _clean_version_dir

    timer = Timer()
    _clean_version_dir(state_dir, version)
    hash_col = "__content_hash__"
    hashed = add_content_hash(ds, text_column, hash_col)
    with timer("walk+state"):
        flagged = _bloom_exchange(
            hashed, state_dir, version, prior_version, num_shards, m_shard, k, hash_col
        ).drop_columns([hash_col]).materialize()
    deduped = flagged.map_batches(
        lambda t: t.filter(pc.equal(t["duplicate"], False)).drop_columns(["duplicate"]),
        batch_format="pyarrow",
    )
    return BloomIncrementResult(
        flagged=flagged,
        deduped=deduped,
        state_version=version,
        metrics={"stage_seconds": timer.report()},
    )


def bloom_bootstrap(
    ds: ray.data.Dataset,
    state_dir: str,
    text_column: str = "text",
    id_column: str | None = None,
    max_elements: int = 1_000_000,
    error_rate: float = 1e-9,
    num_shards: int = 32,
    max_row_id: int | None = None,
) -> BloomIncrementResult:
    """Walk the initial corpus and persist the per-shard register state.
    ``max_elements`` must be sized for the EVENTUAL corpus (bootstrap + all
    planned increments) — register arrays are fixed at bootstrap."""
    from .incremental import _write_meta

    m_total, k = bloom_params(max_elements, error_rate)
    m_shard = max(64, -(-m_total // num_shards))
    if id_column is not None:
        ds = stamp_row_ids_from_key(ds, id_column)
    elif ROW_ID not in ds.schema().names:
        raise ValueError("dataset must have a row_id column or pass id_column")
    if max_row_id is None:
        ds_max = ds.select_columns([ROW_ID]).max(ROW_ID)
        max_row_id = -1 if ds_max is None else int(ds_max)
    version = 1
    result = _bloom_run(
        ds, state_dir, version, None, text_column, m_shard, k, num_shards
    )
    _write_meta(
        state_dir,
        {
            "algo": "bloom",
            "version": version,
            "cfg_hash": _bloom_cfg_hash(text_column, m_shard, k, num_shards),
            "m_shard": m_shard,
            "k": k,
            "num_shards": num_shards,
            "max_row_id": max_row_id,
        },
    )
    return result


def bloom_increment(
    new_ds: ray.data.Dataset,
    state_dir: str,
    text_column: str = "text",
    id_column: str | None = None,
    validate_ids: bool = True,
    batch_id_range: tuple[int, int] | None = None,
) -> BloomIncrementResult:
    """Resume the walk over ``new_ds`` from the saved register state; persist
    the next version. Flags equal the batch run over old ∪ new restricted to
    the new rows — false positives included (literal state equality)."""
    from .incremental import _write_meta, load_meta

    meta = load_meta(state_dir)
    m_shard, k, num_shards = int(meta["m_shard"]), int(meta["k"]), int(meta["num_shards"])
    if meta["cfg_hash"] != _bloom_cfg_hash(text_column, m_shard, k, num_shards):
        raise ValueError("state was built over a different text column/config")
    prior_version = int(meta["version"])
    prior_max = int(meta["max_row_id"])
    if id_column is not None:
        new_ds = stamp_row_ids_from_key(new_ds, id_column)
    elif ROW_ID not in new_ds.schema().names:
        raise ValueError("dataset must have a row_id column or pass id_column")
    from .incremental import _resolve_batch_bounds

    new_max = _resolve_batch_bounds(
        new_ds, prior_max, validate_ids, batch_id_range, msg_tail='; the walk is ordered by row_id'
    )
    version = prior_version + 1
    result = _bloom_run(
        new_ds, state_dir, version, prior_version, text_column, m_shard, k, num_shards
    )
    meta.update({"version": version, "max_row_id": max(prior_max, new_max)})
    _write_meta(state_dir, meta)
    return result


def bloom_state_union(
    state_a: str,
    state_b: str | list[str],
    out_dir: str,
) -> int:
    """Merge independently-built Bloom register states into one state whose
    bits are BIT-identical to a :func:`bloom_bootstrap` over the union
    corpus: with identical hash functions and geometry, OR-ing two filters
    IS the filter of the set union (bit-setting is idempotent, so content
    shared by both sides folds exactly). ``state_b`` may be a list for a
    one-pass k-way union.

    Each shard merges file-locally — shard ``p`` of every input ORs into
    shard ``p`` of the output, O(m_shard) bytes per shard, ZERO shuffle —
    the same aligned-partition property the LSH unions exploit. Unlike the
    exact/LSH families there is no retroactive cross-state flagging: rows
    already admitted by each side stay admitted (Bloom state holds bits,
    not row ids); the union state serves FUTURE increments, which see
    old-A ∪ old-B exactly. Requires identical configs (cfg_hash) so the
    bit positions line up. Returns the new state's version (1).
    """
    import os

    import pyarrow.parquet as pq

    from .incremental import _clean_version_dir, _write_meta, load_meta

    states = [state_a] + (state_b if isinstance(state_b, list) else [state_b])
    metas = [load_meta(s) for s in states]
    for m, d in zip(metas, states):
        if m.get("algo") != "bloom":
            raise ValueError(f"state at {d} is not a bloom state")
        if m["cfg_hash"] != metas[0]["cfg_hash"]:
            raise ValueError(
                f"state at {d} was built with a different bloom config; "
                "union requires identical geometry (cfg_hash mismatch)"
            )
    m_shard = int(metas[0]["m_shard"])
    num_shards = int(metas[0]["num_shards"])
    n_bytes = len(np.packbits(np.zeros(m_shard, dtype=bool)).tobytes())
    version = 1
    _clean_version_dir(out_dir, version)
    for p in range(num_shards):
        acc = np.zeros(n_bytes, dtype=np.uint8)
        for s, m in zip(states, metas):
            f = _bloom_state_file(s, int(m["version"]), p)
            if os.path.exists(f):
                packed = pq.read_table(f)["bits"][0].as_py()
                acc |= np.frombuffer(packed, dtype=np.uint8)
        out_f = _bloom_state_file(out_dir, version, p)
        os.makedirs(os.path.dirname(out_f), exist_ok=True)
        pq.write_table(
            pa.table({"bits": pa.array([acc.tobytes()], pa.binary())}), out_f
        )
    out_meta = dict(metas[0])
    out_meta.update(
        {
            "version": version,
            "max_row_id": max(int(m["max_row_id"]) for m in metas),
        }
    )
    _write_meta(out_dir, out_meta)
    return version
