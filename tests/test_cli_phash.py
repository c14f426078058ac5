"""Fresh-process CLI smoke for the phash_incremental mode: bootstrap on an
old image batch, increment a new batch against the saved index."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

REPO_ROOT = Path(__file__).resolve().parents[1]


def _corpus_table():
    import sys as _s

    _s.path.insert(0, str(REPO_ROOT))
    from text_dedup_ray.data.gen import corpus_parquet

    path, _ = corpus_parquet(1000, seed=42)
    t = pq.read_table(path, columns=["image_id", "phash"])
    ids = [int(i.rsplit("-", 1)[-1]) for i in t["image_id"].to_pylist()]
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "phash": t["phash"]})


def _run(config_path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "text_dedup_ray", "--config", str(config_path)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_phash_incremental(tmp_path):
    t = _corpus_table()
    cut = int(len(t) * 0.7)
    pq.write_table(t.slice(0, cut), tmp_path / "old.parquet")
    pq.write_table(t.slice(cut), tmp_path / "new.parquet")
    state = tmp_path / "phash_state"

    def cfg(inp, out):
        return f"""
[input]
path = "{tmp_path / inp}"
id_column = "doc_id"

[output]
path = "{tmp_path / out}"

[algorithm]
name = "phash_incremental"
state_dir = "{state}"
bit_diff = 2
num_bucket = 4
"""

    c1, c2 = tmp_path / "boot.toml", tmp_path / "inc.toml"
    c1.write_text(cfg("old.parquet", "out1"))
    c2.write_text(cfg("new.parquet", "out2"))
    s1 = _run(c1)
    assert s1["mode"] == "bootstrap" and s1["state_version"] == 1
    s2 = _run(c2)
    assert s2["mode"] == "increment" and s2["state_version"] == 2

    n1 = pq.read_table(str(tmp_path / "out1")).num_rows
    n2 = pq.read_table(str(tmp_path / "out2")).num_rows
    assert 0 < n1 <= cut
    assert 0 < n2 <= len(t) - cut  # new batch deduped vs old index AND itself
