"""Fresh-process CLI smoke for the ari mode: two cluster-map parquets in,
pair-counting ARI out (identical maps -> 1.0; a split cluster -> < 1.0)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

REPO_ROOT = Path(__file__).resolve().parents[1]


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


def _cluster_map(path, labels):
    pq.write_table(
        pa.table(
            {
                "row_id": pa.array(list(range(len(labels))), pa.int64()),
                "cluster_id": pa.array(labels, pa.int64()),
            }
        ),
        str(path),
    )


def test_cli_ari(tmp_path):
    left = tmp_path / "left.parquet"
    right = tmp_path / "right.parquet"
    _cluster_map(left, [0, 0, 0, 3, 3, 5])
    # right splits left's first cluster -> agreement below 1.0
    _cluster_map(right, [0, 0, 2, 3, 3, 5])
    config = tmp_path / "run.toml"
    out = tmp_path / "out"
    config.write_text(
        f"""
[input]
path = "{left}"

[output]
path = "{out}"

[algorithm]
name = "ari"
right_path = "{right}"
"""
    )
    stats = _run(config)
    assert stats["n_items"] == 6
    assert 0.0 < stats["ari"] < 1.0
    t = pq.read_table(str(out))
    assert t.num_rows == 1 and t["ari"][0].as_py() == stats["ari"]

    # identical maps -> exactly 1.0
    config2 = tmp_path / "run2.toml"
    out2 = tmp_path / "out2"
    config2.write_text(
        f"""
[input]
path = "{left}"

[output]
path = "{out2}"

[algorithm]
name = "ari"
right_path = "{left}"
"""
    )
    assert _run(config2)["ari"] == 1.0
