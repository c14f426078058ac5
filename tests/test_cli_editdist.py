"""CLI mode editdist: token-ed<=1 dedup in a fresh config-driven process."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import duckdb

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_cli_editdist(tmp_path):
    config = tmp_path / "run.toml"
    out_dir = tmp_path / "out"
    config.write_text(
        f"""
[input]
path = "/root/testdata/sf0.001/documents.parquet"
text_column = "text"
id_column = "doc_id"

[output]
path = "{out_dir}"

[algorithm]
name = "editdist"
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
    assert stats["algorithm"] == "editdist"

    # survivors must at least collapse every exact-duplicate text group
    n_distinct = duckdb.sql(
        "SELECT count(DISTINCT text) FROM "
        "read_parquet('/root/testdata/sf0.001/documents.parquet')"
    ).fetchone()[0]
    import pyarrow.parquet as pq

    t = pq.read_table(str(out_dir))
    assert 0 < t.num_rows <= n_distinct
