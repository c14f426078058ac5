"""SimHash fingerprint kernel — reference-parity math on uint64.

Replicates ``config/algorithms/simhash.py`` (reference):

- f-bit fingerprint via bit-majority over per-shingle hashes: strict ``> 0``
  so ties -> 0 (simhash.py:222-253); empty shingle set -> all-zero signature
  (simhash.py:363-365 — a deliberate quirk: all short/empty docs collide).
- block decomposition: blocks of ``ceil(f/num_bucket)`` bits until f is
  exhausted (last block truncated) (simhash.py:408-441 — the x/y solving
  there never decrements x, so every block is max_block_size capped at f).
- permutations: one per ordered (b-k)-tuple of blocks, P(b, b-k) total
  (``itertools.permutations(indices, b - k)``, simhash.py:443-457); fixed
  blocks move to the bit-prefix; the bucket key is the permuted signature
  masked to the prefix of width ``sum(widths[:b-k])`` (simhash.py:116-120).
- Hamming distance = popcount(xor) (simhash.py:163-186).

Representation: the reference uses ``bitarray`` (index 0 = MSB). We store the
signature as a Python/NumPy uint64 where bitarray index ``i`` is integer bit
``f-1-i``; bitarray ``<< n`` (toward index 0) is integer ``<< n`` truncated to
f bits. All mask/permute arithmetic below is in that integer domain and is
bit-identical to the reference's bitarray version (unit-tested).

f <= 64 rides the single-uint64 fast path (the reference default and all its
published benchmark configs use f=64). f = 128 (the reference's other
supported width, config/algorithms/simhash.py:302-303) is carried as raw
big-endian signature BYTES — ``signatures_batch_bytes`` computes the (n,
f//8) bit-majority matrix and ``permutation_keys_batch_bytes`` derives the
uint64 bucket keys through the SAME Permutation tables via a precomputed
bit-order gather (each permutation is a pure reordering of bitarray
positions, so the permuted prefix is a column-gather + packbits away). The
only constraint is that the search prefix ``sum(widths[:b-k])`` fits 64
bits, true for every reference config (e.g. f=128, num_bucket=4 -> 32-bit
prefix); wider prefixes raise at config time rather than mis-bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as iter_permutations
from typing import Callable

import numpy as np

from .hashing import DEFAULT_HASH, make_hash_func
from .tokenization import shingle_set


def _mask_val(f: int, start: int, end: int) -> int:
    """Integer mask with bitarray positions [start, end) set."""
    return ((1 << (end - start)) - 1) << (f - end)


@dataclass(frozen=True)
class Permutation:
    """One block permutation: apply = OR of (sig & mask) shifted by offset."""

    f: int
    masks: tuple[int, ...]      # block masks in permuted order
    offsets: tuple[int, ...]    # signed shift per block (bitarray convention)
    search_mask: int            # prefix mask of width sum(widths[:b-k])

    def permute(self, x: int) -> int:
        full = (1 << self.f) - 1
        result = 0
        for mask, off in zip(self.masks, self.offsets):
            v = x & mask
            result |= (v << off) & full if off > 0 else v >> -off
        return result

    def reverse(self, x: int) -> int:
        full = (1 << self.f) - 1
        result = 0
        for mask, off in zip(self.masks, self.offsets):
            rmask = (mask << off) & full if off > 0 else mask >> -off
            v = x & rmask
            result |= v >> off if off > 0 else (v << -off) & full
        return result

    def key(self, sig: int) -> int:
        return self.permute(sig) & self.search_mask


def block_masks(f: int, num_bucket: int) -> list[tuple[int, int]]:
    """(start, end) block spans — ceil(f/b)-wide blocks, last truncated."""
    size = -(-f // num_bucket)
    spans = []
    end = 0
    for _ in range(num_bucket):
        start, end = end, min(end + size, f)
        if start >= end:
            break
        spans.append((start, end))
    return spans


def create_permutations(f: int, bit_diff: int, num_bucket: int) -> list[Permutation]:
    """All P(b, b-k) ordered block-prefix permutations (simhash.py:408-457)."""
    spans = block_masks(f, num_bucket)
    n = len(spans)
    results: list[Permutation] = []
    for fixed in iter_permutations(range(n), num_bucket - bit_diff):
        changing = sorted(set(range(n)) - set(fixed))
        order = list(fixed) + changing
        masks: list[int] = []
        offsets: list[int] = []
        width = 0
        widths: list[int] = []
        for i in order:
            start, end = spans[i]
            masks.append(_mask_val(f, start, end))
            offsets.append(start - width)
            widths.append(end - start)
            width += end - start
        prefix = sum(widths[: num_bucket - bit_diff])
        results.append(
            Permutation(
                f=f,
                masks=tuple(masks),
                offsets=tuple(offsets),
                search_mask=_mask_val(f, 0, prefix),
            )
        )
    return results


def permutation_keys_batch(
    perms: list[Permutation], f: int, sigs: np.ndarray
) -> np.ndarray:
    """(n,) uint64 sigs -> (n, len(perms)) uint64 bucket keys — the
    vectorized form of ``Permutation.key`` (no per-row Python)."""
    n = len(sigs)
    out = np.empty((n, len(perms)), dtype=np.uint64)
    full = np.uint64((1 << f) - 1) if f < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        for j, p in enumerate(perms):
            acc = np.zeros(n, dtype=np.uint64)
            for mask, off in zip(p.masks, p.offsets):
                v = sigs & np.uint64(mask)
                if off > 0:
                    acc |= (v << np.uint64(off)) & full
                elif off < 0:
                    acc |= v >> np.uint64(-off)
                else:
                    acc |= v
            out[:, j] = acc & np.uint64(p.search_mask)
    return out


_BIT_ORDER_CACHE: dict = {}


def permutation_bit_order(perm: Permutation) -> tuple[np.ndarray, int]:
    """(idx, prefix_width): the permuted bitarray is ``orig_bits[idx]`` and
    the bucket key is its first ``prefix_width`` bits. Derived by pushing
    basis vectors through ``perm.permute`` — permutations only MOVE whole
    blocks, so each source bit lands at exactly one target position."""
    cached = _BIT_ORDER_CACHE.get(perm)
    if cached is not None:
        return cached
    f = perm.f
    idx = np.empty(f, dtype=np.int64)
    for i in range(f):
        y = perm.permute(1 << (f - 1 - i))  # bitarray index i as an int bit
        j = f - y.bit_length()
        idx[j] = i
    prefix_width = int(perm.search_mask).bit_count()
    _BIT_ORDER_CACHE[perm] = (idx, prefix_width)
    return idx, prefix_width


def permutation_keys_batch_bytes(
    perms: list[Permutation], f: int, sig_bytes: np.ndarray
) -> np.ndarray:
    """(n, f//8) big-endian signature bytes -> (n, len(perms)) uint64 bucket
    keys — the any-width analogue of :func:`permutation_keys_batch` (used for
    f > 64). Requires every permutation's search prefix to fit 64 bits. The
    prefix bits are LEFT-aligned in the uint64, matching the fast path's
    ``permute(sig) & search_mask`` convention bit-for-bit at f = 64 (the
    parity tests compare the two paths directly)."""
    n = sig_bytes.shape[0]
    out = np.empty((n, len(perms)), dtype=np.uint64)
    if n == 0:
        return out
    bits = np.unpackbits(sig_bytes, axis=1)  # (n, f) — column j = bitarray idx j
    for j, p in enumerate(perms):
        idx, pw = permutation_bit_order(p)
        if pw > 64:
            raise NotImplementedError(
                f"simhash search prefix {pw} bits > 64 unsupported "
                "(reduce num_bucket - bit_diff or f)"
            )
        sel = bits[:, idx[:pw]]
        padded = np.zeros((n, 64), dtype=np.uint8)
        padded[:, :pw] = sel  # left-align (fast-path & search_mask parity)
        out[:, j] = np.packbits(padded, axis=1).copy().view(">u8").reshape(-1)
    return out


def hamming_distance(a: int, b: int) -> int:
    return (a ^ b).bit_count()


def compute_majority(hashes: list[int], f: int) -> int:
    """Bit-majority signature; strict >0 so ties -> 0 (simhash.py:222-253)."""
    if not hashes:
        raise ValueError("cannot compute simhash from empty hash list")
    arr = np.frombuffer(
        b"".join(h.to_bytes(f // 8, "big") for h in hashes), dtype=np.uint8
    ).reshape(len(hashes), f // 8)
    bits = np.unpackbits(arr, axis=1)  # column j = bitarray index j
    votes = 2 * bits.astype(np.int64).sum(axis=0) - len(hashes)
    sig_bits = (votes > 0).astype(np.uint8)
    return int.from_bytes(np.packbits(sig_bits).tobytes(), "big")


@dataclass
class SimHashConfig:
    """Defaults mirror the reference config (f=64, bit_diff=3, num_bucket=4,
    ngram=3)."""

    f: int = 64
    bit_diff: int = 3
    num_bucket: int = 4
    ngram_size: int = 3
    min_length: int = 5
    hash_func: str = DEFAULT_HASH
    seed: int = 42
    check_false_positive: bool = False
    jaccard_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.num_bucket <= self.bit_diff:
            raise ValueError("num_bucket must be greater than bit_diff")
        if self.f % 8 != 0:
            raise ValueError("f must be a multiple of 8")
        if self.f > 64:
            # the bucket key must fit a uint64 column: prefix width is the
            # first (num_bucket - bit_diff) blocks of ceil(f/num_bucket) bits
            size = -(-self.f // self.num_bucket)
            prefix = min(size * (self.num_bucket - self.bit_diff), self.f)
            if prefix > 64:
                raise NotImplementedError(
                    f"f={self.f} with num_bucket={self.num_bucket}, "
                    f"bit_diff={self.bit_diff} yields a {prefix}-bit bucket "
                    "prefix (> 64 unsupported)"
                )

    @property
    def sig_bytes(self) -> int:
        return self.f // 8

    def base_hash(self) -> Callable[[bytes], int]:
        # reference uses the full-f-bit hash here (simhash.py:299-307)
        return make_hash_func(self.hash_func, self.seed, self.f)


class SimHasher:
    """Stateful fingerprint kernel (SURVEY ST2): permutation tables built once."""

    def __init__(self, cfg: SimHashConfig) -> None:
        self.cfg = cfg
        self.perms = create_permutations(cfg.f, cfg.bit_diff, cfg.num_bucket)
        self.hash_func = cfg.base_hash()

    def signature(self, text: str) -> int:
        shingles = shingle_set(text, self.cfg.ngram_size, self.cfg.min_length)
        if not shingles:
            return 0  # simhash.py:363-365
        return compute_majority([self.hash_func(s) for s in shingles], self.cfg.f)

    def keys(self, sig: int) -> list[int]:
        """Bucket key per permutation. We key buckets by (perm_idx, key) —
        equivalent to the reference's (search_mask_bytes, masked_value) for
        final clusters: any pair within bit_diff shares a same-permutation
        bucket (LSH guarantee), and all candidates are Hamming-verified before
        union, so only spurious cross-permutation candidates differ."""
        return [p.key(sig) for p in self.perms]

    def signatures_batch_bytes(self, texts: list[str]) -> np.ndarray:
        """Vectorized across the batch (the reference computes one doc per
        call): flatten all shingles, hash once each, per-doc bit-majority via
        ``np.add.reduceat`` over the unpacked bit matrix. Returns the raw
        big-endian signature byte matrix ``(n, f//8) uint8`` — any f."""
        f = self.cfg.f
        nbytes = f // 8
        hfun = self.hash_func
        counts = np.empty(len(texts), dtype=np.int64)
        chunks: list[bytes] = []
        memo: dict[bytes, bytes] = {}  # shingle -> hash bytes, this call only
        for i, text in enumerate(texts):
            sh = shingle_set(text, self.cfg.ngram_size, self.cfg.min_length)
            counts[i] = len(sh)
            for s in sh:
                h = memo.get(s)
                if h is None:
                    h = hfun(s).to_bytes(nbytes, "big")
                    memo[s] = h
                chunks.append(h)
        out = np.zeros((len(texts), nbytes), dtype=np.uint8)
        if not chunks:
            return out
        raw = np.frombuffer(b"".join(chunks), dtype=np.uint8).reshape(len(chunks), nbytes)
        doc_idx = np.flatnonzero(counts > 0)
        offsets = np.concatenate(([0], np.cumsum(counts[doc_idx]))).astype(np.int64)
        SLAB = 16384  # shingle slab: keeps the unpacked bit matrix small/reused
        lo_doc = 0
        n_nonempty = len(doc_idx)
        while lo_doc < n_nonempty:
            hi_doc = int(np.searchsorted(offsets, offsets[lo_doc] + SLAB, side="right") - 1)
            hi_doc = max(hi_doc, lo_doc + 1)
            s0, s1 = int(offsets[lo_doc]), int(offsets[hi_doc])
            bits = np.unpackbits(raw[s0:s1], axis=1).astype(np.int32)
            starts = (offsets[lo_doc:hi_doc] - s0).astype(np.int64)
            sums = np.add.reduceat(bits, starts, axis=0)
            slab_counts = counts[doc_idx[lo_doc:hi_doc]][:, None]
            maj = (2 * sums > slab_counts).astype(np.uint8)
            out[doc_idx[lo_doc:hi_doc]] = np.packbits(maj, axis=1)
            lo_doc = hi_doc
        return out

    def signatures_batch(self, texts: list[str]) -> np.ndarray:
        """f <= 64 fast-path view: ``(n,) uint64`` signatures."""
        if self.cfg.f != 64:
            raise ValueError("signatures_batch is the f=64 path; use _bytes")
        return (
            self.signatures_batch_bytes(texts).copy().view(">u8")
            .reshape(-1).astype(np.uint64)
        )

    def keys_batch_bytes(self, sig_bytes: np.ndarray) -> np.ndarray:
        """(n, f//8) signature bytes -> (n, num_perms) uint64 bucket keys."""
        return permutation_keys_batch_bytes(self.perms, self.cfg.f, sig_bytes)

    def keys_batch(self, sigs: np.ndarray) -> np.ndarray:
        """(n,) uint64 sigs -> (n, num_perms) uint64 bucket keys, vectorized
        per permutation with numpy shifts."""
        return permutation_keys_batch(self.perms, self.cfg.f, sigs)
