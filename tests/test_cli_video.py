"""Fresh-process CLI smoke for the video modes: batch ``video_dedup`` and
tiered ``video_incremental`` (bootstrap old batch, increment new against
the saved frame-phash posting index)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pyarrow.parquet as pq

REPO_ROOT = Path(__file__).resolve().parents[1]


def _videos_path() -> str:
    import sys as _s

    _s.path.insert(0, str(REPO_ROOT))
    from text_dedup_ray.data.gen import videos_parquet

    path, _ = videos_parquet(150, seed=7, cache_dir="/tmp/tdr_vtest")
    return path


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


def test_cli_video_dedup(tmp_path):
    vp = _videos_path()
    n = pq.read_metadata(vp).num_rows
    cfg = tmp_path / "run.toml"
    cfg.write_text(
        f"""
[input]
path = "{vp}"

[output]
path = "{tmp_path / "out"}"

[algorithm]
name = "video_dedup"
every_n = 2
threshold = 0.5
"""
    )
    stats = _run(cfg)
    assert stats["algorithm"] == "video_dedup"
    out = pq.read_table(str(tmp_path / "out"))
    assert 0 < out.num_rows < n  # planted duplicates were dropped
    assert "video_id" in out.schema.names


def test_cli_video_incremental(tmp_path):
    vp = _videos_path()
    t = pq.read_table(vp)
    cut = int(t.num_rows * 0.7)
    pq.write_table(t.slice(0, cut), tmp_path / "old.parquet")
    pq.write_table(t.slice(cut), tmp_path / "new.parquet")
    state = tmp_path / "vid_state"

    def cfg(inp, out):
        return f"""
[input]
path = "{tmp_path / inp}"

[output]
path = "{tmp_path / out}"

[algorithm]
name = "video_incremental"
state_dir = "{state}"
every_n = 2
threshold = 0.5
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
    assert 0 < n2 <= t.num_rows - cut
