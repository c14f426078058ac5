"""Fresh-process CLI smoke for the probe_state mode: a saved exact state is
probed READ-ONLY by a new batch; the CLI dispatches on the state's algo tag,
writes the (row_id, seen, winner) probe table, and bumps no state version."""

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
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_probe_exact_state(ray_session, tmp_path):
    import ray.data

    from text_dedup_ray.pipelines.incremental import load_meta
    from text_dedup_ray.pipelines.incremental_exact import exact_bootstrap

    state = str(tmp_path / "state")
    old = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(["aaa", "bbb", "aaa"]),
            }
        )
    )
    exact_bootstrap(old, state, id_column="doc_id", num_partitions=2)
    meta_before = load_meta(state)

    probe_in = tmp_path / "probe.parquet"
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([10, 11], pa.int64()),
                "text": pa.array(["aaa", "zzz"]),
            }
        ),
        probe_in,
    )
    out_dir = tmp_path / "probe_out"
    config = tmp_path / "run.toml"
    config.write_text(
        f"""
[input]
path = "{probe_in}"
id_column = "doc_id"

[algorithm]
name = "probe_state"
state_dir = "{state}"

[output]
path = "{out_dir}"
"""
    )
    stats = _run(config)
    assert stats["family"] == "exact"
    assert stats["rows"] == 2
    got = pq.read_table(out_dir).to_pandas().sort_values("row_id")
    assert got["seen"].tolist() == [True, False]
    assert got["winner"].tolist() == [1, -1]
    assert load_meta(state) == meta_before  # probe never versions the state
