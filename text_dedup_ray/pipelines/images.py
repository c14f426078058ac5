"""Image (binary payload) operators + the flagship image+caption pipeline.

The BASELINE input table is ``(image_id, bytes, w, h, fmt, caption, phash)``.
Images are opaque binary with typed metadata; all pixel work happens in
actor-pool ``map_batches`` stages whose codecs live in functions/codecs.py
(real pure-python PNG; the lossy codec is a documented deterministic stub —
no image libs in this environment — with real Ray-side plumbing).

Key scale stance (SURVEY §7.4): image bytes NEVER enter a shuffle. Dedup
runs over narrow (row_id, caption/phash) projections; survivors re-select
full rows by row_id, so pixel fidelity is preserved trivially and verified
explicitly by ``check_row_invariants``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..functions.codecs import average_phash, decode_image, psnr
from ..functions.minhash import MinHashConfig
from ..sources.io import ROW_ID
from .minhash import MinHashDedupResult, minhash_dedup


def image_ids_to_row_ids(ds: ray.data.Dataset, id_column: str = "image_id") -> ray.data.Dataset:
    """'img-%012d' string keys -> deterministic int64 row_id."""

    import pyarrow.compute as pc

    def add(batch: pa.Table) -> pa.Table:
        # ids look like 'img-000000000042': strip the fixed 'img-' prefix and
        # cast in-kernel (no per-row Python)
        digits = pc.utf8_slice_codeunits(batch[id_column], 4)
        return batch.append_column(ROW_ID, pc.cast(digits, pa.int64()))

    return ds.map_batches(add, batch_format="pyarrow")


class ImageDecodeStage:
    """Actor pool: decode payloads, verify metadata, emit pixel stats.

    Output columns: decode_ok, mean_lum, phash_check (recomputed phash).
    Small batches — binary payloads are wide (guide: memory-aware batching).
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        ws = batch["w"].to_pylist()
        hs = batch["h"].to_pylist()
        ok = np.zeros(len(blobs), dtype=bool)
        lum = np.zeros(len(blobs), dtype=np.float64)
        ph = np.zeros(len(blobs), dtype=np.int64)
        for i, (blob, fmt) in enumerate(zip(blobs, fmts)):
            try:
                pix = decode_image(blob, fmt)
                ok[i] = pix.shape[0] == hs[i] and pix.shape[1] == ws[i]
                lum[i] = float(pix.mean())
                ph[i] = average_phash(pix)
            except Exception:
                if self.strict:
                    raise
                ok[i] = False
        return (
            batch.append_column("decode_ok", pa.array(ok))
            .append_column("mean_lum", pa.array(lum))
            .append_column("phash_check", pa.array(ph))
        )


class ImageResizeStage:
    """Actor pool: nearest-neighbor resize to (out_w, out_h), re-encoded with
    the row's own codec. Real plumbing; swap the kernel for a real resampler
    in production."""

    def __init__(self, out_w: int = 16, out_h: int = 16) -> None:
        self.out_w = out_w
        self.out_h = out_h

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.codecs import encode_image

        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        out_bytes = []
        for blob, fmt in zip(blobs, fmts):
            pix = decode_image(blob, fmt)
            ys = (np.arange(self.out_h) * pix.shape[0] // self.out_h).astype(int)
            xs = (np.arange(self.out_w) * pix.shape[1] // self.out_w).astype(int)
            small = pix[ys][:, xs]
            out_bytes.append(encode_image(small, fmt))
        batch = batch.drop_columns(["bytes"]).append_column("bytes", pa.array(out_bytes, pa.binary()))
        batch = batch.drop_columns(["w"]).append_column(
            "w", pa.array(np.full(len(out_bytes), self.out_w, dtype=np.int32))
        )
        return batch.drop_columns(["h"]).append_column(
            "h", pa.array(np.full(len(out_bytes), self.out_h, dtype=np.int32))
        )


class FrameSampleStage:
    """Video frame sampling: actor-pool stage exploding each video row into
    one output row per sampled frame.

    No real video codec exists in this environment, so the only supported
    container is ``rawv`` — concatenated ``w*h``-byte grayscale frames, a
    deterministic format tests can construct and decode exactly. Any other
    ``fmt`` raises NotImplementedError (documented stub). The Ray-side
    plumbing — input schema (video_id, bytes, fmt, n_frames, w, h), actor
    signature, small-batch exploded output (video_id, frame_idx, bytes,
    w, h) — is real and tested (tests/test_video.py).
    """

    def __init__(self, every_n: int = 30) -> None:
        if every_n < 1:
            raise ValueError("every_n must be >= 1")
        self.every_n = every_n

    def __call__(self, batch: pa.Table) -> pa.Table:
        vids = batch["video_id"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        nfs = batch["n_frames"].to_pylist()
        ws = batch["w"].to_pylist()
        hs = batch["h"].to_pylist()
        out_vid, out_idx, out_bytes, out_w, out_h = [], [], [], [], []
        for vid, blob, fmt, nf, w, h in zip(vids, blobs, fmts, nfs, ws, hs):
            if fmt != "rawv":
                raise NotImplementedError(
                    f"video format {fmt!r} unavailable in this environment "
                    "(only the deterministic 'rawv' container decodes here)"
                )
            frame_size = w * h
            if len(blob) != nf * frame_size:
                raise ValueError(
                    f"video {vid}: payload {len(blob)}B != n_frames*w*h "
                    f"({nf}*{w}*{h})"
                )
            for i in range(0, nf, self.every_n):
                out_vid.append(vid)
                out_idx.append(i)
                out_bytes.append(blob[i * frame_size : (i + 1) * frame_size])
                out_w.append(w)
                out_h.append(h)
        return pa.table(
            {
                "video_id": pa.array(out_vid, pa.string()),
                "frame_idx": pa.array(out_idx, pa.int32()),
                "bytes": pa.array(out_bytes, pa.binary()),
                "w": pa.array(out_w, pa.int32()),
                "h": pa.array(out_h, pa.int32()),
            }
        )


def sample_video_frames(
    ds: ray.data.Dataset,
    every_n: int = 30,
    concurrency: int | tuple[int, int] = (1, 4),
    batch_size: int = 16,
) -> ray.data.Dataset:
    """Explode videos into sampled frames (actor pool, small batches —
    video payloads are wide, so batch_size stays low; guide: memory-aware
    batching). Output rows are (video_id, frame_idx, bytes, w, h), ready for
    the image stages (phash / decode-stats) downstream."""
    return ds.map_batches(
        FrameSampleStage,
        fn_constructor_args=(every_n,),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def phash_near_dedup_parents(
    ds: ray.data.Dataset,
    bit_diff: int = 2,
    num_bucket: int = 4,
    phash_column: str = "phash",
    merge_partitions: int = 32,
    driver_threshold: int = 2_000_000,
):
    """Near-duplicate IMAGES by perceptual hash: cluster rows whose 64-bit
    phash differs by <= bit_diff. Reuses the SimHash block-permutation
    machinery (the phash IS a 64-bit fingerprint) and the shared edges/CC
    stages. Returns a dict below ``driver_threshold`` reduced edges, else a
    Dataset map (automatic distributed-CC fallback)."""
    from functools import partial

    from ..functions.simhash import create_permutations, permutation_keys_batch
    from ..stages.cc import connected_components_auto
    from ..stages.edges import simhash_local_buckets, simhash_rep_part, simhash_rep_reduce
    from ..stages.exchange import tagged_split_exchange_refs

    perms = create_permutations(64, bit_diff, num_bucket)

    def sig_stage(batch: pa.Table) -> pa.Table:
        ph = batch[phash_column].to_numpy(zero_copy_only=False).astype(np.int64)
        sigs = ph.view(np.uint64)
        ids = batch[ROW_ID].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(ids)
        nperm = len(perms)
        keys = permutation_keys_batch(perms, 64, sigs)  # (n, nperm), no row loop
        return pa.table(
            {
                "row_id": np.repeat(ids, nperm),
                "perm_idx": np.tile(np.arange(nperm, dtype=np.int32), n),
                "key": keys.reshape(-1),
                "sig": np.repeat(sigs, nperm),
            }
        )

    sig = ds.select_columns([ROW_ID, phash_column]).map_batches(sig_stage, batch_format="pyarrow")
    local = sig.map_batches(simhash_local_buckets, batch_format="pyarrow", batch_size=None)
    # one streaming split pass (see stages.exchange.tagged_split_exchange)
    edge_refs, reduced_refs, _rows = tagged_split_exchange_refs(
        local,
        "is_edge",
        simhash_rep_part,
        merge_partitions,
        partial(simhash_rep_reduce, bit_diff=bit_diff),
    )
    return connected_components_auto(
        edge_refs + reduced_refs, driver_threshold=driver_threshold
    )


class TileHashStage:
    """Actor pool: decode each image and hash a ``tiles x tiles`` grid of
    sub-images — one 64-bit ``average_phash`` per tile. Region-level
    signatures catch duplicates a single GLOBAL phash misses: watermark /
    overlay / caption-strip variants, letterboxing, a small patched region —
    most tiles still collide exactly while the whole-image hash drifts.

    Emits narrow (row_id, tile_idx:int32, tile_hash:int64) rows — 16 bytes
    x tiles^2 per image; pixels never leave the decode task. Decode failures
    contribute no rows (strict=True raises instead)."""

    def __init__(self, tiles: int = 4, strict: bool = False) -> None:
        if tiles < 1:
            raise ValueError("tiles must be >= 1")
        self.tiles = tiles
        self.strict = strict

    def _hash_tiles_scalar(self, pix: np.ndarray) -> np.ndarray:
        k = self.tiles
        h, w = pix.shape[0], pix.shape[1]
        ys = (np.arange(k + 1) * h // k).astype(int)
        xs = (np.arange(k + 1) * w // k).astype(int)
        hashes = np.empty(k * k, np.int64)
        for ti in range(k):
            for tj in range(k):
                tile = pix[
                    ys[ti] : max(ys[ti + 1], ys[ti] + 1),
                    xs[tj] : max(xs[tj + 1], xs[tj] + 1),
                ]
                hashes[ti * k + tj] = average_phash(tile)
        return hashes

    def _hash_tiles_stack(self, stack: np.ndarray) -> np.ndarray:
        """Vectorized tile hashing for a SAME-SHAPE image stack
        ``(n, h, w, 3) uint8`` -> ``(n, tiles^2) int64`` — bit-identical
        to the scalar path (the uint8->float64 channel mean and the exact
        block means reduce over the same element sets; the threshold hash
        itself is the shared ``average_phash_gray_stack`` kernel)."""
        from ..functions.codecs import average_phash_gray_stack

        k = self.tiles
        n, h, w = stack.shape[0], stack.shape[1], stack.shape[2]
        th, tw = h // k, w // k
        gray = stack.astype(np.float64).mean(axis=3)  # (n, h, w)
        tiles = (
            gray.reshape(n, k, th, k, tw)
            .transpose(0, 1, 3, 2, 4)
            .reshape(n * k * k, th, tw)
        )
        return average_phash_gray_stack(tiles).reshape(n, k * k)

    def __call__(self, batch: pa.Table) -> pa.Table:
        k = self.tiles
        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        ids = batch[ROW_ID].to_numpy(zero_copy_only=False).astype(np.int64)
        out_id: list[np.ndarray] = []
        out_tile: list[np.ndarray] = []
        out_hash: list[np.ndarray] = []
        # decode, then group same-shape grid-aligned images for ONE
        # vectorized hashing pass per shape (48k tiny-array means per
        # 1000 images otherwise — overhead-bound, measured 0.3 s/1000)
        stack_pix: dict[tuple[int, int], list[np.ndarray]] = {}
        stack_ids: dict[tuple[int, int], list[int]] = {}
        for i, (blob, fmt) in enumerate(zip(blobs, fmts)):
            try:
                pix = decode_image(blob, fmt)
            except Exception:
                if self.strict:
                    raise
                continue
            h, w = pix.shape[0], pix.shape[1]
            if h % k == 0 and w % k == 0 and (h // k) % 8 == 0 and (w // k) % 8 == 0:
                key = (h, w)
                stack_pix.setdefault(key, []).append(pix)
                stack_ids.setdefault(key, []).append(int(ids[i]))
            else:  # irregular geometry: exactness over speed
                out_id.append(np.full(k * k, ids[i], np.int64))
                out_tile.append(np.arange(k * k, dtype=np.int32))
                out_hash.append(self._hash_tiles_scalar(pix))
        for key, pix_list in stack_pix.items():
            hs = self._hash_tiles_stack(np.stack(pix_list))
            gids = np.asarray(stack_ids[key], np.int64)
            out_id.append(np.repeat(gids, k * k))
            out_tile.append(np.tile(np.arange(k * k, dtype=np.int32), len(gids)))
            out_hash.append(hs.reshape(-1))
        if not out_id:
            return pa.table(
                {
                    "row_id": pa.array([], pa.int64()),
                    "tile_idx": pa.array([], pa.int32()),
                    "tile_hash": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "row_id": pa.array(np.concatenate(out_id)),
                "tile_idx": pa.array(np.concatenate(out_tile)),
                "tile_hash": pa.array(np.concatenate(out_hash)),
            }
        )


def tile_phash_near_dedup_parents(
    ds: ray.data.Dataset,
    tiles: int = 4,
    min_agree: int | None = None,
    df_cap: int = 1024,
    num_partitions: int = 32,
    decode_concurrency: int | tuple[int, int] = (1, 8),
    decode_batch_size: int = 256,
    driver_threshold: int = 2_000_000,
):
    """Tile-level perceptual near-dup: cluster images sharing at least
    ``min_agree`` (default: 3/4 of tiles^2) EXACT tile hashes out of a
    ``tiles x tiles`` grid. The region-level complement of
    :func:`phash_near_dedup_parents` — a watermark or patched corner flips
    the global phash beyond any small Hamming radius but leaves most tiles
    byte-identical.

    Scale shape (no all-pairs anywhere):
    1. actor-pool decode -> narrow (row_id, tile_idx, tile_hash) rows;
    2. exchange by hash(tile_idx, tile_hash): per bucket of co-hashing
       images emit (a<b) candidate pairs — buckets larger than ``df_cap``
       are skipped as boilerplate (uniform backgrounds), the posting-list
       df-cap precedent (jaccard_dedup); singleton buckets emit nothing;
    3. exchange pairs by pair hash: sum per-partition partial agreement
       counts, keep pairs with count >= min_agree as edges;
    4. shared connected-components (auto distributed fallback).

    NOT crop-resistant in general (a crop realigns the tile grid); it
    targets same-geometry region edits. Returns parents like the sibling
    dedup entry points."""
    import hashlib

    from ..stages.cc import connected_components_auto
    from ..stages.exchange import hash_partition_exchange

    k2 = tiles * tiles
    if min_agree is None:
        min_agree = max(1, (3 * k2) // 4)
    if not (1 <= min_agree <= k2):
        raise ValueError(f"min_agree must be in [1, {k2}]")

    tile_rows = ds.select_columns([ROW_ID, "bytes", "fmt"]).map_batches(
        TileHashStage,
        fn_constructor_kwargs={"tiles": tiles},
        batch_format="pyarrow",
        batch_size=decode_batch_size,
        concurrency=decode_concurrency,
    )

    def add_bucket_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("part", pa.array([], pa.int64()))
        ti = t["tile_idx"].to_numpy(zero_copy_only=False).astype(np.uint64)
        th = t["tile_hash"].to_numpy(zero_copy_only=False).view(np.uint64)
        # splitmix-style bucket key mix (cheap, vectorized)
        key = (ti * np.uint64(0x9E3779B97F4A7C15)) ^ th
        key ^= key >> np.uint64(33)
        key *= np.uint64(0xFF51AFD7ED558CCD)
        key ^= key >> np.uint64(33)
        return t.append_column(
            "part", pa.array((key % np.uint64(num_partitions)).astype(np.int64))
        )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "src": pa.array([], pa.int64()),
                "dst": pa.array([], pa.int64()),
                "cnt": pa.array([], pa.int64()),
            }
        )
        if group.num_rows == 0 or "tile_idx" not in group.column_names:
            return empty
        ti = group["tile_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        th = group["tile_hash"].to_numpy(zero_copy_only=False)
        ids = group["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, th, ti))
        ti, th, ids = ti[order], th[order], ids[order]
        new = np.empty(len(ti), bool)
        new[0] = True
        new[1:] = (ti[1:] != ti[:-1]) | (th[1:] != th[:-1])
        starts = np.flatnonzero(new)
        sizes = np.diff(np.r_[starts, len(ti)])
        keep = (sizes > 1) & (sizes <= df_cap)
        srcs: list[np.ndarray] = []
        dsts: list[np.ndarray] = []
        # size-grouped batch pair emission (no per-bucket Python loop):
        # same-size buckets are contiguous runs, so gather them into an
        # (n_buckets, b) id matrix and take triu columns ONCE per distinct
        # size — the tile-hash stack-kernel precedent
        for b in np.unique(sizes[keep]):
            s_b = starts[keep & (sizes == b)]
            members = ids[s_b[:, None] + np.arange(int(b))]
            iu, ju = np.triu_indices(int(b), k=1)
            srcs.append(members[:, iu].ravel())
            dsts.append(members[:, ju].ravel())
        if not srcs:
            return empty
        a = np.concatenate(srcs)
        c = np.concatenate(dsts)
        lo, hi = np.minimum(a, c), np.maximum(a, c)
        # partial agreement count within this partition: lexsort +
        # run-length (measurably faster than np.unique(axis=0)'s row sort)
        po = np.lexsort((hi, lo))
        lo, hi = lo[po], hi[po]
        first = np.empty(len(lo), bool)
        first[0] = True
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        pstarts = np.flatnonzero(first)
        cnt = np.diff(np.r_[pstarts, len(lo)])
        return pa.table(
            {
                "src": pa.array(lo[pstarts]),
                "dst": pa.array(hi[pstarts]),
                "cnt": pa.array(cnt.astype(np.int64)),
            }
        )

    partial_pairs = hash_partition_exchange(
        tile_rows.map_batches(add_bucket_part, batch_format="pyarrow"),
        "part",
        num_partitions,
        bucket_pairs,
    )

    def add_pair_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("part", pa.array([], pa.int64()))
        s = t["src"].to_numpy(zero_copy_only=False).astype(np.uint64)
        d = t["dst"].to_numpy(zero_copy_only=False).astype(np.uint64)
        key = s * np.uint64(0x9E3779B97F4A7C15) + d
        key ^= key >> np.uint64(31)
        return t.append_column(
            "part", pa.array((key % np.uint64(num_partitions)).astype(np.int64))
        )

    def fold_pairs(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
        )
        if group.num_rows == 0 or "src" not in group.column_names:
            return empty
        s = group["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = group["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = group["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((d, s))
        s, d, c = s[order], d[order], c[order]
        new = np.empty(len(s), bool)
        new[0] = True
        new[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
        idx = np.cumsum(new) - 1
        tot = np.zeros(int(idx[-1]) + 1, np.int64)
        np.add.at(tot, idx, c)
        keep = tot >= min_agree
        starts = np.flatnonzero(new)
        return pa.table(
            {
                "src": pa.array(s[starts][keep]),
                "dst": pa.array(d[starts][keep]),
            }
        )

    edges = hash_partition_exchange(
        partial_pairs.map_batches(add_pair_part, batch_format="pyarrow"),
        "part",
        num_partitions,
        fold_pairs,
    )
    return connected_components_auto(edges, driver_threshold=driver_threshold)


def phash_bootstrap(
    ds: ray.data.Dataset,
    state_dir: str,
    bit_diff: int = 2,
    num_bucket: int = 4,
    phash_column: str = "phash",
    **kwargs,
):
    """Tiered IMAGE near-dup: full phash clustering over the initial corpus,
    persisting the bucket-prefix-partitioned signature index. Thin wrapper
    over the SimHash incremental machinery with the stored 64-bit perceptual
    hash as the signature (``signature_column`` passthrough) — an increment
    later fingerprints only the new batch and never re-shuffles the index."""
    from ..functions.simhash import SimHashConfig
    from .incremental import simhash_bootstrap

    cfg = SimHashConfig(f=64, bit_diff=bit_diff, num_bucket=num_bucket)
    return simhash_bootstrap(
        ds, state_dir, cfg=cfg, signature_column=phash_column, **kwargs
    )


def phash_increment(
    new_ds: ray.data.Dataset,
    state_dir: str,
    bit_diff: int = 2,
    num_bucket: int = 4,
    phash_column: str = "phash",
    **kwargs,
):
    """Dedup a new image batch against the saved phash index AND itself;
    cluster assignments equal a full ``phash_near_dedup_parents`` re-run over
    old ∪ new (tests/test_incremental_phash.py)."""
    from ..functions.simhash import SimHashConfig
    from .incremental import simhash_increment

    cfg = SimHashConfig(f=64, bit_diff=bit_diff, num_bucket=num_bucket)
    return simhash_increment(
        new_ds, state_dir, cfg=cfg, signature_column=phash_column, **kwargs
    )


def image_caption_dedup(
    ds: ray.data.Dataset | None = None,
    cfg: MinHashConfig | None = None,
    path: str | None = None,
    **kwargs,
) -> MinHashDedupResult:
    """Flagship: MinHashLSH dedup of the image+caption table on captions.

    Pass ``path`` (preferred) to let the signature branch read ONLY
    (image_id, caption) — payload bytes are pruned at the read and only the
    final assignment/filter pass touches them. The narrow projection feeds
    the standard MinHash pipeline; surviving rows carry their original bytes
    untouched.
    """
    if path is not None:
        ds = image_ids_to_row_ids(ray.data.read_parquet(path))
        narrow = image_ids_to_row_ids(
            ray.data.read_parquet(path, columns=["image_id", "caption"])
        )
        return minhash_dedup(
            ds, text_column="caption", cfg=cfg, signature_source=narrow, **kwargs
        )
    ds = image_ids_to_row_ids(ds)
    return minhash_dedup(ds, text_column="caption", cfg=cfg, **kwargs)


def check_row_invariants(
    source: pa.Table, survivors: pa.Table, min_psnr: float = 40.0
) -> dict[str, float]:
    """Per-surviving-row invariants vs the source table (BASELINE):
    exact caption equality; decoded-pixel PSNR >= min_psnr (inf for
    lossless). Driver-side checker for tests/small samples."""
    src_by_id = {
        i: (b, f, c)
        for i, b, f, c in zip(
            source["image_id"].to_pylist(),
            source["bytes"].to_pylist(),
            source["fmt"].to_pylist(),
            source["caption"].to_pylist(),
        )
    }
    worst = float("inf")
    checked = 0
    for i, b, f, c in zip(
        survivors["image_id"].to_pylist(),
        survivors["bytes"].to_pylist(),
        survivors["fmt"].to_pylist(),
        survivors["caption"].to_pylist(),
    ):
        sb, sf, sc = src_by_id[i]
        if c != sc:
            raise AssertionError(f"caption changed for {i}")
        if b == sb:
            p = float("inf")
        else:
            p = psnr(decode_image(sb, sf), decode_image(b, f))
        if p < min_psnr:
            raise AssertionError(f"PSNR {p:.1f} < {min_psnr} for {i}")
        worst = min(worst, p)
        checked += 1
    return {"checked": checked, "worst_psnr": worst}


def _parents_to_edges(parents) -> ray.data.Dataset:
    """Cluster map (dict or Dataset(row_id, cluster_id)) -> (src, dst) edge
    Dataset; connectivity-equivalent input for a union CC."""
    if isinstance(parents, dict):
        items = [(int(k), int(v)) for k, v in parents.items() if k != v]
        return ray.data.from_arrow(
            pa.table(
                {
                    "src": pa.array([a for a, _ in items], pa.int64()),
                    "dst": pa.array([b for _, b in items], pa.int64()),
                }
            )
        )

    def conv(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": t["row_id"].cast(pa.int64()),
                "dst": t["cluster_id"].cast(pa.int64()),
            }
        )

    return parents.map_batches(conv, batch_format="pyarrow")


def multimodal_dedup(
    ds: ray.data.Dataset | None = None,
    path: str | None = None,
    cfg: "MinHashConfig | None" = None,
    bit_diff: int = 2,
    num_bucket: int = 4,
    caption_column: str = "caption",
    phash_column: str = "phash",
    driver_threshold: int = 2_000_000,
):
    """OR-fusion near-dup over image+caption rows: two rows are duplicates
    when their captions collide under MinHashLSH **or** their perceptual
    hashes are within ``bit_diff`` — the practical multimodal dedup policy
    (caption paraphrases catch re-encodes the pixel hash misses, and vice
    versa). Both signals reuse their existing edge machinery; the union of
    the two cluster graphs feeds ONE connected-components pass (transitive
    across modalities by construction: a caption-dup of a pixel-dup lands
    in the same cluster). Survivors keep the min row id per merged cluster;
    short-caption docs still dedup via phash (the MinHash min-length filter
    only silences the caption signal, it does not drop rows here)."""
    from concurrent.futures import ThreadPoolExecutor

    from .minhash import minhash_dedup

    if path is not None:
        # Prune at the read: each signal branch reads ONLY its own column —
        # the 3 KB image payload never flows through the stamping map for
        # the narrow branches (it is read once, for the final assign pass).
        narrow = image_ids_to_row_ids(
            ray.data.read_parquet(path, columns=["image_id", caption_column])
        )
        ph_in = image_ids_to_row_ids(
            ray.data.read_parquet(path, columns=["image_id", phash_column])
        )
        ds = image_ids_to_row_ids(ray.data.read_parquet(path))
    else:
        if ROW_ID not in ds.schema().names:
            ds = image_ids_to_row_ids(ds)
        narrow = ds.select_columns([ROW_ID, caption_column])
        ph_in = ds.select_columns([ROW_ID, phash_column])

    # The two signal branches are independent dataflows; materialize their
    # cluster maps concurrently (same daemon-thread overlap the flagship
    # uses for payload prefetch) instead of serializing 9s + 2s of work.
    with ThreadPoolExecutor(max_workers=2) as pool:
        f_mh = pool.submit(
            lambda: minhash_dedup(
                narrow,
                text_column=caption_column,
                cfg=cfg,
                skip_filtering=True,
                driver_threshold=driver_threshold,
            ).parents
        )
        f_ph = pool.submit(
            lambda: phash_near_dedup_parents(
                ph_in,
                bit_diff=bit_diff,
                num_bucket=num_bucket,
                phash_column=phash_column,
                driver_threshold=driver_threshold,
            )
        )
        mh = f_mh.result()
        ph = f_ph.result()
    return multimodal_merge_cluster_maps(ds, [mh, ph], driver_threshold)


def multimodal_merge_cluster_maps(
    ds: ray.data.Dataset,
    cluster_maps: list,
    driver_threshold: int = 2_000_000,
) -> ray.data.Dataset:
    """Union-CC over any number of cluster maps (dicts or Datasets of
    (row_id, cluster_id)) and keep the min-id root per merged cluster —
    the fusion step shared by batch ``multimodal_dedup`` and the tiered
    variant (each signal's tiered map equals its batch map, so merging the
    tiered maps equals merging the batch maps)."""
    from ..stages.assign import assign_clusters, assign_clusters_sharded, filter_cluster_roots
    from ..stages.cc import connected_components_auto

    edges = _parents_to_edges(cluster_maps[0])
    for m in cluster_maps[1:]:
        edges = edges.union(_parents_to_edges(m))
    merged = connected_components_auto(
        edges, driver_threshold=driver_threshold, include_roots=False
    )
    if isinstance(merged, dict):
        assigned = assign_clusters(ds, {k: v for k, v in merged.items() if k != v})
    else:
        assigned = assign_clusters_sharded(ds, merged.materialize())
    return filter_cluster_roots(assigned)
