"""check_state (state fsck): healthy states of every family pass; seeded
corruption (missing index partition, conflicting cluster rows, ids beyond
max_row_id, min-root violations, missing sidecars) is detected; the CLI
mode exits non-zero on errors."""

from __future__ import annotations

import glob
import json
import os
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from text_dedup_ray.functions.minhash import MinHashConfig
from text_dedup_ray.pipelines.incremental import minhash_bootstrap, minhash_increment
from text_dedup_ray.pipelines.incremental_exact import exact_bootstrap, exact_increment
from text_dedup_ray.pipelines.incremental_sketch import hll_state_bootstrap
from text_dedup_ray.state.fsck import check_state

REPO_ROOT = Path(__file__).resolve().parents[1]

CFG = MinHashConfig(num_perm=32, bands=8, rows=4, hash_func="sha1")


def _docs(rows):
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": [r[1] for r in rows],
            }
        )
    )


def _minhash_state(tmp_path):
    state = str(tmp_path / "mh")
    rows = [
        (0, "the quick brown fox jumps over the lazy dog"),
        (1, "the quick brown fox jumps over the lazy dog"),
        (2, "a wholly different document with other words"),
    ]
    minhash_bootstrap(_docs(rows), state, cfg=CFG, id_column="doc_id",
                      num_partitions=3)
    minhash_increment(
        _docs([(10, "the quick brown fox jumps over the lazy dog")]),
        state, cfg=CFG, id_column="doc_id",
    )
    return state


def test_healthy_states_pass(tmp_path):
    mh = _minhash_state(tmp_path)
    r = check_state(mh)
    assert r["ok"], r["errors"]
    assert r["algo"] == "minhash" and r["version"] == 2
    assert r["cluster_rows"] >= 2 and r["index_rows"] > 0

    ex = str(tmp_path / "ex")
    exact_bootstrap(_docs([(0, "a"), (1, "a"), (2, "b")]), ex,
                    id_column="doc_id", num_partitions=2)
    exact_increment(_docs([(10, "b")]), ex, id_column="doc_id")
    r = check_state(ex)
    assert r["ok"], r["errors"]
    assert r["cluster_rows"] == 2  # additive: v1 row (1->0) + v2 row (10->2)

    hl = str(tmp_path / "hl")
    hll_state_bootstrap(
        ray.data.from_arrow(pa.table({"u": pa.array(range(50), pa.int64())})),
        hl, "u", precision=6,
    )
    r = check_state(hl)
    assert r["ok"], r["errors"]
    assert r["algo"] == "hll_sketch"


def test_detects_corruption(tmp_path):
    state = _minhash_state(tmp_path)

    # missing rollback sidecar -> warning only
    os.remove(os.path.join(state, "v00001", "meta.json"))
    r = check_state(state)
    assert r["ok"] and any("sidecar" in w for w in r["warnings"])

    # delete an index partition -> error
    victim = sorted(glob.glob(f"{state}/v00002/reps/part-*.parquet"))[0]
    os.rename(victim, victim + ".bak")
    r = check_state(state)
    assert not r["ok"] and any("partition files" in e for e in r["errors"])
    os.rename(victim + ".bak", victim)

    # conflicting cluster rows -> error
    bad = os.path.join(state, "v00002", "clusters", "zzz-conflict.parquet")
    pq.write_table(
        pa.table({"row_id": pa.array([1], pa.int64()),
                  "cluster_id": pa.array([2], pa.int64())}),
        bad,
    )
    r = check_state(state)
    assert not r["ok"] and any("two different cluster ids" in e for e in r["errors"])
    os.remove(bad)

    # row beyond max_row_id + min-root violation -> errors
    bad2 = os.path.join(state, "v00002", "clusters", "zzz-range.parquet")
    pq.write_table(
        pa.table({"row_id": pa.array([99999], pa.int64()),
                  "cluster_id": pa.array([99999 + 5], pa.int64())}),
        bad2,
    )
    r = check_state(state)
    assert not r["ok"]
    assert any("min-root" in e for e in r["errors"])
    assert any("max_row_id" in e for e in r["errors"])
    os.remove(bad2)
    assert check_state(state)["ok"]


def test_cli_check_state(tmp_path):
    import subprocess
    import sys

    state = _minhash_state(tmp_path)
    cfgf = tmp_path / "check.toml"
    cfgf.write_text(
        f"""
[algorithm]
name = "check_state"
state_dir = "{state}"
"""
    )
    cmd = [sys.executable, "-m", "text_dedup_ray", "--config", str(cfgf)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=REPO_ROOT, timeout=240)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["ok"] and out["algo"] == "minhash"

    # corrupt -> non-zero exit
    victim = sorted(glob.glob(f"{state}/v00002/reps/part-*.parquet"))[0]
    os.remove(victim)
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=REPO_ROOT, timeout=240)
    assert proc.returncode == 1
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not out["ok"]
