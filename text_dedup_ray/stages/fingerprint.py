"""Fingerprint stages — ``map_batches`` callables run as fused stateless tasks.

The reference fingerprints one document per call (``batched=True,
batch_size=1``, minhash.py:33-45). Here :func:`fingerprint_map` runs a
fingerprint class over thousands of rows per batch in plain Ray Data tasks,
which fuse with the surrounding task stages and hold no CPU between
batches. Each worker process builds one instance per (class, arguments) and
reuses it, so the permutation state is built once per process, not per
batch (SURVEY ST1/ST2). The classes stay valid actor-pool callables too.
Every class emits a *narrow* table — ``row_id`` plus signature columns
only, never the payload columns, so the wide LSH shuffle moves no
document/image bytes (SURVEY §7.4).

Output schemas:
- MinHash: ``(row_id:int64, band_idx:int32, band_val:fixed_size_binary)``
  mirroring the reference's ``(__band_idx__, __band_val__, __INDEX__)``
  (config/algorithms/minhash.py:229-236); fixed-size binary keeps blocks
  compact and zero-copy to numpy.
- SimHash: ``(row_id:int64, perm_idx:int32, key:uint64, sig:uint64)`` — the
  (perm_idx, masked-prefix) bucket key replaces the reference's
  (mask_bytes, key_bytes) tuple (equivalent clustering, see
  functions/simhash.py), and the raw signature rides along for the in-bucket
  Hamming verify.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..functions.minhash import MinHashConfig, MinHasher
from ..functions.simhash import SimHashConfig, SimHasher

# one fingerprinter per (class name, repr(args)) per worker process; the
# permutation tables and buffers are built on a process's first batch. The
# bound keeps a long-lived worker that sees many configs from holding every
# instance (a MinHasher keeps an 8 MB permutation buffer).
_FINGERPRINTERS: dict[tuple[str, str], object] = {}
_MAX_FINGERPRINTERS = 8


def _fingerprint_batch(batch: pa.Table, cls: type, args: tuple) -> pa.Table:
    key = (cls.__name__, repr(args))
    fp = _FINGERPRINTERS.get(key)
    if fp is None:
        if len(_FINGERPRINTERS) >= _MAX_FINGERPRINTERS:
            _FINGERPRINTERS.pop(next(iter(_FINGERPRINTERS)))
        fp = _FINGERPRINTERS[key] = cls(*args)
    return fp(batch)


def fingerprint_map(
    ds: ray.data.Dataset, cls: type, args: tuple, batch_size: int | None
) -> ray.data.Dataset:
    """``ds`` fingerprinted by ``cls(*args)`` in stateless tasks that fuse
    with the neighbouring task stages (no actor pool holds a CPU for the
    whole execution). Output is bit-identical to
    ``map_batches(cls, fn_constructor_args=args)``: the instances keep no
    state that depends on the batches they saw."""
    return ds.map_batches(
        _fingerprint_batch,
        fn_kwargs={"cls": cls, "args": args},
        batch_format="pyarrow",
        batch_size=batch_size,
    )


class MinHashFingerprinter:
    """Batch of (row_id, text) -> exploded band rows.

    ``emit="buckets"`` applies the stage-1 bucket kernel
    (``stages.edges.minhash_local_buckets``) to each signature batch in the
    same call, so the exploded band table — ~32x the row count of the
    input — never reaches the object store. Bucket-scope granularity (per
    batch vs per block) is semantics-free: the rep-merge exchange unifies
    buckets across scopes."""

    def __init__(
        self,
        cfg: MinHashConfig,
        text_column: str = "text",
        emit: str = "sig",
        b_bits: int | None = None,
    ) -> None:
        from ..functions.minhash import HASH_CONFIG

        self.mh = MinHasher(cfg)
        self.text_column = text_column
        self.emit = emit
        # bucket identity only needs value equality, so serialize at the
        # tightest width that holds max_hash: hash_bits=64 mode stores uint64
        # values that are always <= 2^32-1 (minhash.py:101-108) — casting to
        # uint32 is an equality-preserving bijection that HALVES the signature
        # table and the rep-exchange volume. (The reference's byteswapped-
        # uint64 band bytes are a serialization detail, not semantics.)
        max_hash = HASH_CONFIG[cfg.hash_bits][1]
        self.compact_dtype = np.uint32 if max_hash <= 0xFFFFFFFF else self.mh.dtype
        # b-bit minwise hashing (Li & König, WWW'10): keep only the lowest
        # ``b_bits`` of every permutation value. LSH banding over the
        # truncated values is a strict COARSENING of the full-width banding
        # (equal full values => equal truncated values), so recall can only
        # go up while the signature table shrinks 4x (b=8) or 2x (b=16) —
        # the storage/shuffle lever for 10^12-row corpora where the exploded
        # band table dominates object-store traffic.
        self.b_mask = None
        if b_bits is not None:
            if b_bits not in (8, 16):
                raise ValueError("b_bits must be 8 or 16 (byte-aligned)")
            self.b_mask = self.mh.dtype((1 << b_bits) - 1)
            self.compact_dtype = np.uint8 if b_bits == 8 else np.uint16
        self.band_width = cfg.rows * np.dtype(self.compact_dtype).itemsize
        self.schema_band_type = pa.binary(self.band_width)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_column].to_pylist()
        row_ids = batch["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(texts)
        cfg = self.mh.cfg
        bands = cfg.bands
        sigs = self.mh.signatures(texts)  # (n, num_perm)
        if self.b_mask is not None:
            sigs = sigs & self.b_mask
        # band matrix: (n, bands, rows) byteswapped -> contiguous bytes
        swapped = sigs.astype(self.compact_dtype, copy=False).byteswap()
        rows = cfg.rows
        band_mat = np.ascontiguousarray(swapped[:, : bands * rows].reshape(n, bands, rows))
        band_vals = pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(self.band_width), n * bands, [None, pa.py_buffer(band_mat.tobytes())]
        )
        out = pa.table(
            {
                "row_id": np.repeat(row_ids, bands),
                "band_idx": np.tile(np.arange(bands, dtype=np.int32), n),
                "band_val": band_vals,
            }
        )
        if self.emit == "buckets":
            from .edges import minhash_local_buckets

            return minhash_local_buckets(out)
        return out


class SigMatrixFingerprinter:
    """Batch of (row_id, text) -> ONE row per doc carrying the whole
    compact byteswapped signature matrix as ``sig: binary(num_perm * item)``.

    The threshold-sweep pipeline fingerprints once and re-bands per
    (bands, rows) config by SLICING these bytes — band ``b`` of a config
    with ``rows`` values per band is ``sig[b*rows*item : (b+1)*rows*item]``
    verbatim, bit-identical to what ``MinHashFingerprinter`` would emit for
    that config (same compact dtype, same byteswap)."""

    def __init__(self, cfg: MinHashConfig, text_column: str = "text") -> None:
        from ..functions.minhash import HASH_CONFIG

        self.mh = MinHasher(cfg)
        self.text_column = text_column
        max_hash = HASH_CONFIG[cfg.hash_bits][1]
        self.compact_dtype = np.uint32 if max_hash <= 0xFFFFFFFF else self.mh.dtype
        self.item = np.dtype(self.compact_dtype).itemsize
        self.sig_width = cfg.num_perm * self.item

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_column].to_pylist()
        row_ids = batch["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(texts)
        if n == 0:
            return pa.table(
                {
                    "row_id": pa.array([], pa.int64()),
                    "sig": pa.array([], pa.binary(self.sig_width)),
                }
            )
        sigs = self.mh.signatures(texts)
        swapped = np.ascontiguousarray(
            sigs.astype(self.compact_dtype, copy=False).byteswap()
        )
        sig_bytes = pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(self.sig_width), n, [None, pa.py_buffer(swapped.tobytes())]
        )
        return pa.table({"row_id": row_ids, "sig": sig_bytes})


class SimHashFingerprinter:
    """Batch of (row_id, text) -> one row per (doc, permutation).

    ``emit="buckets"`` applies the stage-1 bucket kernel in the same call —
    same rationale as :class:`MinHashFingerprinter`."""

    def __init__(
        self, cfg: SimHashConfig, text_column: str = "text", emit: str = "sig"
    ) -> None:
        self.sh = SimHasher(cfg)
        self.text_column = text_column
        self.emit = emit

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_column].to_pylist()
        row_ids = batch["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(texts)
        nperm = len(self.sh.perms)
        f = self.sh.cfg.f
        if f <= 64:
            sigs = self.sh.signatures_batch(texts)
            keys = self.sh.keys_batch(sigs)
            sig_col = np.repeat(sigs, nperm)
        else:
            # wide fingerprints (f=128): raw big-endian signature bytes as a
            # fixed_size_binary column; keys stay uint64 (prefix <= 64 bits,
            # enforced by SimHashConfig)
            sb = self.sh.cfg.sig_bytes
            sig_bytes = self.sh.signatures_batch_bytes(texts)
            keys = self.sh.keys_batch_bytes(sig_bytes)
            rep = np.repeat(sig_bytes, nperm, axis=0)
            sig_col = pa.FixedSizeBinaryArray.from_buffers(
                pa.binary(sb), n * nperm,
                [None, pa.py_buffer(np.ascontiguousarray(rep).tobytes())],
            )
        out = pa.table(
            {
                "row_id": np.repeat(row_ids, nperm),
                "perm_idx": np.tile(np.arange(nperm, dtype=np.int32), n),
                "key": keys.reshape(-1),
                "sig": sig_col,
            }
        )
        if self.emit == "buckets":
            from .edges import simhash_local_buckets

            return simhash_local_buckets(out, sig_bytes=f // 8 if f > 64 else 8)
        return out


class SimHashSignaturer:
    """Batch of (row_id, text) -> ONE row per doc carrying the raw
    64-bit SimHash signature (as its int64 bit view — Arrow-friendly).

    The Hamming-radius sweep fingerprints ONCE (tokenize + md5 + bit
    majority: the dominant cost) and re-keys the stored signatures per
    ``bit_diff`` via :class:`SigPassthroughFingerprinter` — the signature
    depends only on (f, ngram, hash_func), never on the radius."""

    def __init__(self, cfg: SimHashConfig, text_column: str = "text") -> None:
        self.sh = SimHasher(cfg)
        self.text_column = text_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(ids):
            return pa.table(
                {"row_id": pa.array([], pa.int64()), "sig": pa.array([], pa.int64())}
            )
        texts = batch[self.text_column].to_pylist()
        sigs = self.sh.signatures_batch(texts)
        return pa.table({"row_id": ids, "sig": sigs.view(np.int64)})


class SigPassthroughFingerprinter:
    """Stage-1 rows from a PRECOMPUTED 64-bit fingerprint column (e.g. an
    image perceptual hash) instead of text shingles — the SimHash
    block-permutation machinery applied to the stored signature, emitting
    the same ``(row_id, perm_idx, key, sig)`` schema (bucketed like
    ``SimHashFingerprinter(emit="buckets")``) so every downstream stage
    (rep exchange, Hamming verify, CC, incremental index) is shared."""

    def __init__(self, cfg: SimHashConfig, sig_column: str) -> None:
        from ..functions.simhash import create_permutations

        self.perms = create_permutations(cfg.f, cfg.bit_diff, cfg.num_bucket)
        self.f = cfg.f
        self.sig_column = sig_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.simhash import permutation_keys_batch
        from .edges import simhash_local_buckets

        ids = batch["row_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sigs = (
            batch[self.sig_column]
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
            .view(np.uint64)
        )
        n = len(ids)
        nperm = len(self.perms)
        keys = permutation_keys_batch(self.perms, self.f, sigs)  # (n, nperm)
        out = pa.table(
            {
                "row_id": np.repeat(ids, nperm),
                "perm_idx": np.tile(np.arange(nperm, dtype=np.int32), n),
                "key": keys.reshape(-1),
                "sig": np.repeat(sigs, nperm),
            }
        )
        return simhash_local_buckets(out)
