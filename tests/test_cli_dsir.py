"""Fresh-process CLI smoke for the dsir selection mode."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import duckdb
import pyarrow.parquet as pq

REPO_ROOT = Path(__file__).resolve().parents[1]

DOCS = "/root/testdata/sf0.001/documents.parquet"


def test_cli_dsir_selects_target_lookalikes(tmp_path):
    target = tmp_path / "target.parquet"
    duckdb.sql(
        f"COPY (SELECT doc_id, text FROM '{DOCS}' WHERE source = 'src13') "
        f"TO '{target}' (FORMAT PARQUET)"
    )
    config = tmp_path / "run.toml"
    out = tmp_path / "out"
    config.write_text(
        f"""
[input]
path = "{DOCS}"
id_column = "doc_id"

[output]
path = "{out}"

[algorithm]
name = "dsir"
target_path = "{target}"
k = 30
num_buckets = 1024
"""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "text_dedup_ray", "--config", str(config)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["algorithm"] == "dsir" and stats["k"] == 30
    t = pq.read_table(str(out))
    assert t.num_rows == 30
    assert "dsir_score" in t.column_names
    s = t["dsir_score"].to_pylist()
    assert sorted(s, reverse=True) == s or len(set(s)) == 1


def test_cli_shuffle_writes_shard_partitions(tmp_path):
    config = tmp_path / "run.toml"
    out = tmp_path / "out"
    config.write_text(
        f"""
[input]
path = "{DOCS}"
id_column = "doc_id"

[output]
path = "{out}"

[algorithm]
name = "shuffle"
seed = 7
rows_per_shard = 100
"""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "text_dedup_ray", "--config", str(config)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["rows_per_shard"] == 100 and stats["seed"] == 7
    import pyarrow.dataset as pads

    t = pads.dataset(str(out), partitioning="hive").to_table()
    assert t.num_rows == 500
    assert sorted(set(t["shard"].to_pylist())) == [0, 1, 2, 3, 4]
    pos = sorted(t["shuffle_pos"].to_pylist())
    assert pos == list(range(500))
