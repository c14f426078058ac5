"""Fresh-process CLI smoke for the prune_state mode: a fake versioned state
dir (the shared meta.json + v%05d convention) is GC'd down to keep_last
snapshots; no Ray session is started (pure filesystem mode)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _run(config_path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "text_dedup_ray", "--config", str(config_path)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_prune_state(tmp_path):
    state = tmp_path / "state"
    for v in (1, 2, 3):
        os.makedirs(state / f"v{v:05d}" / "clusters")
    (state / "meta.json").write_text(json.dumps({"version": 3}))
    config = tmp_path / "run.toml"
    config.write_text(
        f"""
[algorithm]
name = "prune_state"
state_dir = "{state}"
keep_last = 1
"""
    )
    stats = _run(config)
    assert stats["removed_versions"] == [1, 2]
    assert sorted(os.listdir(state)) == ["meta.json", "v00003"]


def test_cli_rollback_state(tmp_path):
    state = tmp_path / "state"
    for v in (1, 2, 3):
        os.makedirs(state / f"v{v:05d}" / "clusters")
        (state / f"v{v:05d}" / "meta.json").write_text(
            json.dumps({"version": v, "max_row_id": 10 * v})
        )
    (state / "meta.json").write_text(json.dumps({"version": 3, "max_row_id": 30}))
    config = tmp_path / "run.toml"
    config.write_text(
        f"""
[algorithm]
name = "rollback_state"
state_dir = "{state}"
to_version = 1
"""
    )
    stats = _run(config)
    assert stats["removed_versions"] == [2, 3]
    assert stats["version"] == 1
    assert json.loads((state / "meta.json").read_text())["max_row_id"] == 10


def test_cli_state_info(tmp_path):
    state = tmp_path / "state"
    for v in (1, 2):
        os.makedirs(state / f"v{v:05d}" / "clusters")
        (state / f"v{v:05d}" / "clusters" / "part.parquet").write_bytes(b"x" * (100 * v))
    (state / "meta.json").write_text(json.dumps({"version": 2, "algo": "minhash"}))
    config = tmp_path / "run.toml"
    config.write_text(
        f"""
[algorithm]
name = "state_info"
state_dir = "{state}"
"""
    )
    stats = _run(config)
    assert stats["meta"]["version"] == 2
    assert [v["version"] for v in stats["versions"]] == [1, 2]
    assert stats["versions"][0]["bytes"] == 100
    assert stats["reclaimable_bytes"] == 100


def test_cli_compact_state(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    state = tmp_path / "state"
    for v in (1, 2):
        d = state / f"v{v:05d}" / "clusters"
        os.makedirs(d)
        pq.write_table(
            pa.table(
                {
                    "row_id": pa.array([10 * v], pa.int64()),
                    "cluster_id": pa.array([0], pa.int64()),
                }
            ),
            str(d / "new-00000.parquet"),
        )
    (state / "meta.json").write_text(json.dumps({"version": 2, "algo": "exact"}))
    config = tmp_path / "run.toml"
    config.write_text(
        f"""
[algorithm]
name = "compact_state"
state_dir = "{state}"
"""
    )
    stats = _run(config)
    assert stats["folded"] == [1]
    assert sorted(os.listdir(state)) == ["meta.json", "v00002"]
    merged = pq.read_table(str(state / "v00002" / "clusters")).to_pydict()
    assert sorted(merged["row_id"]) == [10, 20]
