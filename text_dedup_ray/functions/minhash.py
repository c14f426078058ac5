"""MinHash signature kernel — reference-parity math, vectorized across a batch.

Replicates the math of the reference kernel
(``config/algorithms/minhash.py:80-238``):

- hash-width config table (hash_bits -> dtype, max_hash, modulo_prime):
  64 -> (uint64, 2^32-1, 2^61-1); 32 -> (uint32, 2^32-1, 2^32-5);
  16 -> (uint16, 2^16-1, 2^16-15)           (minhash.py:101-108)
- permutation pairs a (!=0), b drawn from ``np.random.RandomState(seed)`` as
  ``randint(1, prime, size=num_perm, dtype)`` / ``randint(0, prime, ...)``
  (minhash.py:154-171, base.py:24-28)
- base hash per unique shingle at width ``min(hash_bits, 32)``
- per-permutation value ``(h * a + b) % prime & max_hash``; column-min over
  shingles; empty shingle set -> all ``max_hash``  (minhash.py:212-227)
- band serialization ``bytes(sig[start:end].byteswap().data)``
  (minhash.py:229-236)

The reference computes this one document per call (``batch_size=1``); here the
whole batch's shingles are flattened, base-hashed once, permuted as one
``(total_shingles x num_perm)`` matrix (chunked over permutations to bound
memory), and reduced per document with ``np.minimum.reduceat``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .hashing import DEFAULT_HASH, make_hash_func
from .tokenization import shingle_set

# (dtype, max_hash, modulo_prime) per hash_bits — parity with minhash.py:101-108
HASH_CONFIG: dict[int, tuple[type, int, int]] = {
    64: (np.uint64, (1 << 32) - 1, (1 << 61) - 1),
    32: (np.uint32, (1 << 32) - 1, (1 << 32) - 5),
    16: (np.uint16, (1 << 16) - 1, (1 << 16) - 15),
}


def optimal_param(
    threshold: float,
    num_perm: int,
    false_positive_weight: float = 0.5,
    false_negative_weight: float = 0.5,
) -> tuple[int, int]:
    """Optimal (bands, rows) minimizing weighted FP/FN areas.

    Same formulation as the reference (config/algorithms/minhash.py:18-76,
    itself from datasketch): integrate the S-curve ``1-(1-s^r)^b`` below /
    above the threshold. scipy is unavailable here, so the integrals use a
    dense trapezoid rule — the argmin over the (b, r) grid is identical.
    """
    def fp_area(b: int, r: int) -> float:
        s = np.linspace(0.0, threshold, 512)
        return float(np.trapz(1.0 - (1.0 - s**r) ** b, s))

    def fn_area(b: int, r: int) -> float:
        s = np.linspace(threshold, 1.0, 512)
        return float(np.trapz(1.0 - (1.0 - (1.0 - s**r) ** b), s))

    min_error = float("inf")
    opt = (0, 0)
    for b in range(1, num_perm + 1):
        max_r = num_perm // b
        for r in range(1, max_r + 1):
            error = false_positive_weight * fp_area(b, r) + false_negative_weight * fn_area(b, r)
            if error < min_error:
                min_error = error
                opt = (b, r)
    return opt


@dataclass
class MinHashConfig:
    """MinHashLSH parameters (defaults mirror the reference config.toml /
    configs/benchmark_core_minhash.toml)."""

    num_perm: int = 200
    ngram_size: int = 2
    min_length: int = 5
    threshold: float = 0.5
    bands: int | None = 50
    rows: int | None = 4
    hash_bits: int = 64
    hash_func: str = DEFAULT_HASH
    seed: int = 42
    false_positive_weight: float = 0.5
    false_negative_weight: float = 0.5
    check_false_positive: bool = False

    def __post_init__(self) -> None:
        if self.bands is None or self.rows is None:
            self.bands, self.rows = optimal_param(
                self.threshold,
                self.num_perm,
                self.false_positive_weight,
                self.false_negative_weight,
            )

    @property
    def hash_ranges(self) -> list[tuple[int, int]]:
        return [(i * self.rows, (i + 1) * self.rows) for i in range(self.bands)]

    def permutations(self) -> tuple[np.ndarray, np.ndarray]:
        """(a, b) vectors, bit-identical to the reference's
        (minhash.py:154-171 with base.py RandomState(seed))."""
        dtype, _max_hash, prime = HASH_CONFIG[self.hash_bits]
        rng = np.random.RandomState(self.seed)
        a = rng.randint(1, prime, size=(self.num_perm,), dtype=dtype)
        b = rng.randint(0, prime, size=(self.num_perm,), dtype=dtype)
        return a, b

    def base_hash(self) -> Callable[[bytes], int]:
        return make_hash_func(self.hash_func, self.seed, min(self.hash_bits, 32))


class MinHasher:
    """Vectorized signature kernel: permutations and buffers are built once
    per instance (SURVEY ST1); signatures never depend on earlier calls."""

    # shingle slab size: bounds the (slab x perm_chunk) working buffers so
    # per-batch allocations are reused, never freshly mmap'd (first-touch
    # page faults cost ~0.5 ms/page on virtualized hosts — see _tune_allocator)
    SLAB = 65536

    def __init__(self, cfg: MinHashConfig, perm_chunk: int = 16) -> None:
        self.cfg = cfg
        self.dtype, max_hash, prime = HASH_CONFIG[cfg.hash_bits]
        self.max_hash = self.dtype(max_hash)
        self.prime = self.dtype(prime)
        self.a, self.b = cfg.permutations()
        self.hash_func = cfg.base_hash()
        self.perm_chunk = perm_chunk
        # permutation buffer is TRANSPOSED — (perm_chunk, slab) — so
        # minimum.reduceat runs along the contiguous axis (axis=1): the
        # per-doc reduction walks sequential memory instead of striding
        # perm_chunk*8 bytes per element (measured ~30% off the whole
        # mult+add+mod+reduceat chain at slab=64k). np.mod by a scalar
        # stays: numpy's constant-divisor path beats a Mersenne
        # shift/add/min fold here (measured), so keep the simple form.
        self._pbuf = np.empty((perm_chunk, self.SLAB), dtype=self.dtype)

    def signatures(self, texts: list[str]) -> np.ndarray:
        """Return a (len(texts), num_perm) signature matrix.

        Shingles are processed in doc-aligned slabs through preallocated
        buffers (in-place numpy ops) — zero large allocations per call."""
        cfg = self.cfg
        flat_hashes: list[int] = []
        counts = np.empty(len(texts), dtype=np.int64)
        hfun = self.hash_func
        # shingle -> base-hash memo for this call only: shingles follow a
        # Zipf distribution, so most sha1 calls within a batch are repeats
        memo: dict[bytes, int] = {}
        mget = memo.get
        for i, text in enumerate(texts):
            sh = shingle_set(text, cfg.ngram_size, cfg.min_length)
            counts[i] = len(sh)
            # C-level bulk lookup; the per-shingle Python loop runs only on
            # memo misses, not the Zipf-warm common case
            vals = list(map(mget, sh))
            if None in vals:
                for j, s in enumerate(sh):  # set iteration order is stable
                    if vals[j] is None:
                        v = hfun(s)
                        memo[s] = v
                        vals[j] = v
            flat_hashes.extend(vals)

        n_docs = len(texts)
        out = np.full((n_docs, cfg.num_perm), self.max_hash, dtype=self.dtype)
        if not flat_hashes:
            return out

        h_all = np.asarray(flat_hashes, dtype=self.dtype)
        doc_idx = np.flatnonzero(counts > 0)
        offsets = np.concatenate(([0], np.cumsum(counts[doc_idx]))).astype(np.int64)

        lo_doc = 0
        n_nonempty = len(doc_idx)
        with np.errstate(over="ignore"):  # uint multiply wraps, same as reference
            while lo_doc < n_nonempty:
                # grow the doc slab until the shingle slab budget is hit
                hi_doc = int(
                    np.searchsorted(offsets, offsets[lo_doc] + self.SLAB, side="right") - 1
                )
                hi_doc = max(hi_doc, lo_doc + 1)  # always take >=1 doc
                s0, s1 = int(offsets[lo_doc]), int(offsets[hi_doc])
                m = s1 - s0
                if m > self.SLAB:  # single doc larger than the slab: grow once
                    self._pbuf = np.empty((self.perm_chunk, m), dtype=self.dtype)
                hrow = h_all[s0:s1][None, :]  # (1, m) broadcast row
                starts = (offsets[lo_doc:hi_doc] - s0).astype(np.int64)
                rows = doc_idx[lo_doc:hi_doc]
                for lo in range(0, cfg.num_perm, self.perm_chunk):
                    hi = min(lo + self.perm_chunk, cfg.num_perm)
                    pb = self._pbuf[: hi - lo, :m]
                    np.multiply(self.a[lo:hi, None], hrow, out=pb)
                    np.add(pb, self.b[lo:hi, None], out=pb)
                    np.mod(pb, self.prime, out=pb)
                    np.bitwise_and(pb, self.max_hash, out=pb)
                    out[rows, lo:hi] = np.minimum.reduceat(pb, starts, axis=1).T
                lo_doc = hi_doc
        return out

    def band_bytes(self, signatures: np.ndarray) -> list[list[bytes]]:
        """Per-doc list of band byte-strings (byteswapped, minhash.py:234)."""
        swapped = signatures.byteswap()
        result: list[list[bytes]] = []
        for row in swapped:
            result.append([row[s:e].tobytes() for s, e in self.cfg.hash_ranges])
        return result


def jaccard_from_signatures(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    """Estimated Jaccard from two signatures (fraction of equal mins)."""
    return float(np.mean(sig_a == sig_b))
