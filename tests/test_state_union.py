"""minhash_state_union: merging two independently-bootstrapped LSH states
must be EQUIVALENT to one bootstrap over the union corpus — identical merged
rep tables, identical cluster membership, identical survivors — and the
merged state must keep accepting increments. Guards: config mismatch,
partition-count mismatch, overlapping row-id ranges."""

from __future__ import annotations

import glob
import os
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from text_dedup_ray.functions.minhash import MinHashConfig
from text_dedup_ray.pipelines.incremental import (
    load_meta,
    minhash_bootstrap,
    minhash_increment,
    minhash_state_union,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

CFG = MinHashConfig(num_perm=32, bands=8, rows=4, hash_func="sha1")
P = 4


def _ds(rows):
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": [r[1] for r in rows],
            }
        )
    )


def _corpus():
    """Duplicate clusters within A, within B, and SPANNING the A/B split,
    plus uniques and a too-short doc on each side."""
    dup_x = "the quick brown fox jumps over the lazy dog tonight"
    dup_y = "colorless green ideas sleep furiously every single night again"
    dup_a = "within a duplicate pair of documents living here quietly"
    dup_b = "within b duplicate pair of documents living here quietly"
    a = [
        (0, dup_x), (1, dup_a), (2, "unique first text about ray datasets ok"),
        (3, dup_a), (4, dup_y), (5, "short doc"),
        (6, "another unique document mentioning arrow tables and parquet"),
    ]
    b = [
        (10, dup_x), (11, dup_b), (12, dup_y), (13, dup_b),
        (14, "unique second text about shingles and minhash bands here"),
        (15, "tiny"), (16, dup_x),
    ]
    return a, b


def _clusters_map(state_dir, version):
    out = {}
    for f in glob.glob(f"{state_dir}/v{version:05d}/clusters/*.parquet"):
        t = pq.read_table(f)
        for r, c in zip(
            t["row_id"].to_numpy(zero_copy_only=False).tolist(),
            t["cluster_id"].to_numpy(zero_copy_only=False).tolist(),
        ):
            assert out.get(r, c) == c, f"row {r} has two cluster ids"
            out[r] = c
    return out


def _reps_map(state_dir, version):
    out = {}
    for f in sorted(glob.glob(f"{state_dir}/v{version:05d}/reps/*.parquet")):
        t = pq.read_table(f)
        for k, r in zip(t["key"].to_pylist(), t["rep"].to_pylist()):
            out[(os.path.basename(f), k)] = r
    return out


def test_union_equals_full_bootstrap(tmp_path):
    a, b = _corpus()
    sa, sb, su, sf = (str(tmp_path / n) for n in ("a", "b", "u", "f"))
    minhash_bootstrap(_ds(a), sa, cfg=CFG, id_column="doc_id", num_partitions=P)
    minhash_bootstrap(_ds(b), sb, cfg=CFG, id_column="doc_id", num_partitions=P)
    version, merges = minhash_state_union(sa, sb, su)
    assert version == 1
    minhash_bootstrap(_ds(a + b), sf, cfg=CFG, id_column="doc_id", num_partitions=P)

    # identical rep index, partition file by partition file
    assert _reps_map(su, 1) == _reps_map(sf, 1)
    # identical cluster membership
    got, want = _clusters_map(su, 1), _clusters_map(sf, 1)
    assert got == want
    # the cross-split duplicates actually merged (test isn't vacuous)
    assert want[10] == 0 and want[16] == 0 and want[12] == 4
    assert any(w in merges.values() or w in merges for w in (0, 4)) or merges
    # meta carries the union id ceiling + the shared config
    mu, mf = load_meta(su), load_meta(sf)
    assert mu["max_row_id"] == mf["max_row_id"] == 16
    assert mu["cfg_hash"] == mf["cfg_hash"]


def test_union_state_accepts_increments(tmp_path):
    a, b = _corpus()
    sa, sb, su, sf = (str(tmp_path / n) for n in ("a", "b", "u", "f"))
    minhash_bootstrap(_ds(a), sa, cfg=CFG, id_column="doc_id", num_partitions=P)
    minhash_bootstrap(_ds(b), sb, cfg=CFG, id_column="doc_id", num_partitions=P)
    minhash_state_union(sa, sb, su)
    minhash_bootstrap(_ds(a + b), sf, cfg=CFG, id_column="doc_id", num_partitions=P)

    c = [
        (20, "the quick brown fox jumps over the lazy dog tonight"),  # joins X
        (21, "a wholly new document that matches nothing else at all"),
        (22, "within b duplicate pair of documents living here quietly"),
    ]
    minhash_increment(_ds(c), su, cfg=CFG, id_column="doc_id")
    minhash_increment(_ds(c), sf, cfg=CFG, id_column="doc_id")
    assert _clusters_map(su, 2) == _clusters_map(sf, 2)
    got = _clusters_map(su, 2)
    assert got[20] == 0 and got[22] == 11


def test_union_no_cross_collisions(tmp_path):
    a = [(0, "completely disjoint text one about apples bananas cherries")]
    b = [(10, "utterly different second text regarding trains planes boats")]
    sa, sb, su = (str(tmp_path / n) for n in ("a", "b", "u"))
    minhash_bootstrap(_ds(a), sa, cfg=CFG, id_column="doc_id", num_partitions=P)
    minhash_bootstrap(_ds(b), sb, cfg=CFG, id_column="doc_id", num_partitions=P)
    _, merges = minhash_state_union(sa, sb, su)
    assert merges == {}
    assert _clusters_map(su, 1) == {}
    assert load_meta(su)["max_row_id"] == 10


def test_cli_union_state(tmp_path):
    import json
    import subprocess
    import sys

    a, b = _corpus()
    sa, sb, su = (str(tmp_path / n) for n in ("a", "b", "u"))
    minhash_bootstrap(_ds(a), sa, cfg=CFG, id_column="doc_id", num_partitions=P)
    minhash_bootstrap(_ds(b), sb, cfg=CFG, id_column="doc_id", num_partitions=P)

    cfgf = tmp_path / "union.toml"
    cfgf.write_text(
        f"""
[algorithm]
name = "union_state"
state_a = "{sa}"
state_b = "{sb}"
out_state = "{su}"
"""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "text_dedup_ray", "--config", str(cfgf)],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["state_version"] == 1
    assert stats["max_row_id"] == 16
    assert stats["merged_roots"] >= 2  # X and Y span the split
    assert _clusters_map(su, 1)[16] == 0


def test_three_way_union_equals_full_bootstrap(tmp_path):
    """k-way one-pass merge: a third crawl whose dup chains THROUGH the
    second (20x dups dup_b from B; B's dup_x dups A's) — the composition
    union-find must chain across all three prior maps."""
    a, b = _corpus()
    c = [
        (20, "within b duplicate pair of documents living here quietly"),
        (21, "an entirely new third crawl document with fresh words"),
        (22, "the quick brown fox jumps over the lazy dog tonight"),
    ]
    sa, sb, sc, su, sf = (str(tmp_path / n) for n in ("a", "b", "c", "u", "f"))
    for rows, s in ((a, sa), (b, sb), (c, sc)):
        minhash_bootstrap(
            _ds(rows), s, cfg=CFG, id_column="doc_id", num_partitions=P
        )
    version, merges = minhash_state_union(sa, [sb, sc], su)
    assert version == 1
    minhash_bootstrap(
        _ds(a + b + c), sf, cfg=CFG, id_column="doc_id", num_partitions=P
    )
    assert _reps_map(su, 1) == _reps_map(sf, 1)
    got, want = _clusters_map(su, 1), _clusters_map(sf, 1)
    assert got == want
    # chains: 20 (crawl C) -> B's dup_b cluster root 11; 22 -> A's root 0
    assert want[20] == 11 and want[22] == 0
    from text_dedup_ray.pipelines.incremental import load_meta as _lm

    assert _lm(su)["max_row_id"] == 22


def _simhash_cfg():
    from text_dedup_ray.functions.simhash import SimHashConfig

    return SimHashConfig(
        f=64, bit_diff=3, num_bucket=4, ngram_size=3, hash_func="sha1", seed=42
    )


def _simhash_corpus():
    """Cross-split EXACT dup (0 ~ 10) plus a cross-split HAMMING near-dup
    (1 ~ 11: one word of 120 changed — signature distance 1 at seed 58,
    found offline; exercises the cross-signature compare, not just the
    exact-key collision path)."""
    import random

    rng = random.Random(58)
    vocab = [f"w{c}" for c in range(500)]
    words = [rng.choice(vocab) for _ in range(120)]
    base = " ".join(words)
    pw = list(words)
    pw[60] = "zzzz"
    pert = " ".join(pw)
    exact = " ".join(rng.choice(vocab) for _ in range(40))
    a = [
        (0, exact),
        (1, base),
        (2, " ".join(rng.choice(vocab) for _ in range(40))),
    ]
    b = [
        (10, exact),
        (11, pert),
        (12, " ".join(rng.choice(vocab) for _ in range(40))),
    ]
    return a, b


def test_simhash_union_equals_full_bootstrap(tmp_path):
    from text_dedup_ray.pipelines.incremental import (
        simhash_bootstrap,
        simhash_state_union,
    )

    a, b = _simhash_corpus()
    cfg = _simhash_cfg()
    sa, sb, su, sf = (str(tmp_path / n) for n in ("a", "b", "u", "f"))
    simhash_bootstrap(_ds(a), sa, cfg=cfg, id_column="doc_id", num_partitions=P)
    simhash_bootstrap(_ds(b), sb, cfg=cfg, id_column="doc_id", num_partitions=P)
    version, merges = simhash_state_union(sa, sb, su, cfg=cfg)
    assert version == 1
    simhash_bootstrap(_ds(a + b), sf, cfg=cfg, id_column="doc_id",
                      num_partitions=P)

    assert _reps_map(su, 1) == _reps_map(sf, 1)
    got, want = _clusters_map(su, 1), _clusters_map(sf, 1)
    assert got == want
    # the exact cross dup AND the Hamming cross near-dup both merged
    assert want[10] == 0 and want[11] == 1
    assert merges == {10: 0, 11: 1}


def test_simhash_union_chains_increments(tmp_path):
    from text_dedup_ray.pipelines.incremental import (
        simhash_bootstrap,
        simhash_increment,
        simhash_state_union,
    )

    a, b = _simhash_corpus()
    cfg = _simhash_cfg()
    sa, sb, su, sf = (str(tmp_path / n) for n in ("a", "b", "u", "f"))
    simhash_bootstrap(_ds(a), sa, cfg=cfg, id_column="doc_id", num_partitions=P)
    simhash_bootstrap(_ds(b), sb, cfg=cfg, id_column="doc_id", num_partitions=P)
    simhash_state_union(sa, sb, su, cfg=cfg)
    simhash_bootstrap(_ds(a + b), sf, cfg=cfg, id_column="doc_id",
                      num_partitions=P)

    c = [(20, a[0][1]), (21, "wholly new words that match nothing else here")]
    simhash_increment(_ds(c), su, cfg=cfg, id_column="doc_id")
    simhash_increment(_ds(c), sf, cfg=cfg, id_column="doc_id")
    assert _clusters_map(su, 2) == _clusters_map(sf, 2)
    assert _clusters_map(su, 2)[20] == 0


def test_simhash_union_guards(tmp_path):
    from text_dedup_ray.functions.simhash import SimHashConfig
    from text_dedup_ray.pipelines.incremental import (
        simhash_bootstrap,
        simhash_state_union,
    )

    a, b = _simhash_corpus()
    cfg = _simhash_cfg()
    sa, sb = str(tmp_path / "a"), str(tmp_path / "b")
    simhash_bootstrap(_ds(a), sa, cfg=cfg, id_column="doc_id", num_partitions=P)
    simhash_bootstrap(_ds(b), sb, cfg=cfg, id_column="doc_id", num_partitions=P)
    other = SimHashConfig(f=64, bit_diff=2, num_bucket=3, ngram_size=3,
                          hash_func="sha1", seed=42)
    with pytest.raises(ValueError, match="different SimHash config"):
        simhash_state_union(sa, sb, str(tmp_path / "u"), cfg=other)
    # minhash state refused by the simhash union (algo tag guard)
    sm = str(tmp_path / "m")
    minhash_bootstrap(_ds(a), sm, cfg=CFG, id_column="doc_id", num_partitions=P)
    with pytest.raises(ValueError, match="not a simhash state"):
        simhash_state_union(sm, sb, str(tmp_path / "u2"), cfg=cfg)


def test_cli_union_state_simhash(tmp_path):
    import json
    import subprocess
    import sys

    from text_dedup_ray.pipelines.incremental import simhash_bootstrap

    a, b = _simhash_corpus()
    cfg = _simhash_cfg()
    sa, sb, su = (str(tmp_path / n) for n in ("a", "b", "u"))
    simhash_bootstrap(_ds(a), sa, cfg=cfg, id_column="doc_id", num_partitions=P)
    simhash_bootstrap(_ds(b), sb, cfg=cfg, id_column="doc_id", num_partitions=P)

    cfgf = tmp_path / "union.toml"
    cfgf.write_text(
        f"""
[algorithm]
name = "union_state"
state_a = "{sa}"
state_b = "{sb}"
out_state = "{su}"
f = 64
bit_diff = 3
num_bucket = 4
ngram_size = 3
hash_func = "sha1"
seed = 42
"""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "text_dedup_ray", "--config", str(cfgf)],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["family"] == "simhash"
    assert stats["merged_roots"] == 2  # exact + hamming cross pairs
    assert _clusters_map(su, 1)[11] == 1


def test_union_guards(tmp_path):
    a, b = _corpus()
    sa, sb = str(tmp_path / "a"), str(tmp_path / "b")
    minhash_bootstrap(_ds(a), sa, cfg=CFG, id_column="doc_id", num_partitions=P)

    other = MinHashConfig(num_perm=16, bands=4, rows=4, hash_func="sha1")
    minhash_bootstrap(_ds(b), sb, cfg=other, id_column="doc_id", num_partitions=P)
    with pytest.raises(ValueError, match="different MinHash config"):
        minhash_state_union(sa, sb, str(tmp_path / "u1"))

    sp = str(tmp_path / "p")
    minhash_bootstrap(_ds(b), sp, cfg=CFG, id_column="doc_id", num_partitions=P * 2)
    with pytest.raises(ValueError, match="different partition counts"):
        minhash_state_union(sa, sp, str(tmp_path / "u2"))

    # overlapping id ranges refused (disjointness is the tie-break contract)
    so = str(tmp_path / "o")
    minhash_bootstrap(
        _ds([(4, "overlapping ids corpus with enough tokens to fingerprint")]),
        so, cfg=CFG, id_column="doc_id", num_partitions=P,
    )
    with pytest.raises(ValueError, match="row-id intervals overlap"):
        minhash_state_union(sa, so, str(tmp_path / "u3"))
