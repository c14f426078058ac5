"""Tiered HLL sketch state: bootstrap(old) + increment(new) registers must be
BIT-IDENTICAL to a full hll_registers run over old ∪ new (max-merge is the
exact HLL union); estimates come from the saved state; prune/rollback work on
sketch state via the shared convention."""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa
import ray.data

from text_dedup_ray.pipelines.incremental import (
    prune_state_versions,
    rollback_state,
)
from text_dedup_ray.pipelines.incremental_sketch import (
    hll_state_bootstrap,
    hll_state_estimate,
    hll_state_increment,
    hll_state_registers,
)
from text_dedup_ray.pipelines.sketch import hll_registers

REPO_ROOT = Path(__file__).resolve().parents[1]


def _events(ids, types):
    return ray.data.from_arrow(
        pa.table(
            {
                "user_id": pa.array(ids, pa.int64()),
                "event_type": pa.array(types, pa.string()),
            }
        )
    )


def _full_registers(ds, precision):
    tbl = (
        hll_registers(ds, "user_id", key="event_type", precision=precision)
        .to_pandas()
        .sort_values(["event_type", "idx"])
        .reset_index(drop=True)
    )
    return tbl.values.tolist()


def test_increment_equals_full_rerun(tmp_path):
    state = str(tmp_path / "st")
    old_ids = list(range(300))
    old_types = [f"t{i % 3}" for i in range(300)]
    new_ids = list(range(250, 400))  # overlaps old: union semantics
    new_types = [f"t{i % 3}" for i in new_ids]

    v = hll_state_bootstrap(
        _events(old_ids, old_types), state, "user_id", key="event_type",
        precision=7, num_partitions=3,
    )
    assert v == 1
    v = hll_state_increment(_events(new_ids, new_types), state)
    assert v == 2

    got = (
        hll_state_registers(state)
        .to_pandas()
        .sort_values(["event_type", "idx"])
        .reset_index(drop=True)
        .values.tolist()
    )
    want = _full_registers(
        _events(old_ids + new_ids, old_types + new_types), precision=7
    )
    assert got == want

    est = hll_state_estimate(state).to_pandas()
    assert set(est["event_type"]) == {"t0", "t1", "t2"}
    # ~133 true distinct per type at p=7 (~9% SE): sanity band
    assert all(60 <= n <= 220 for n in est["approx_n"])


def test_sketch_state_prune_and_rollback(tmp_path):
    state = str(tmp_path / "st")
    hll_state_bootstrap(
        _events(list(range(50)), ["a"] * 50), state, "user_id",
        key="event_type", precision=6,
    )
    r1 = hll_state_registers(state).to_pandas().values.tolist()
    hll_state_increment(_events(list(range(50, 90)), ["a"] * 40), state)

    rollback_state(state, 1)
    assert hll_state_registers(state).to_pandas().values.tolist() == r1

    hll_state_increment(_events(list(range(50, 90)), ["a"] * 40), state)
    assert prune_state_versions(state, keep_last=1) == [1]
    # latest snapshot intact and readable after GC
    assert hll_state_registers(state).num_rows > 0


def test_empty_increment_is_identity(tmp_path):
    state = str(tmp_path / "st")
    hll_state_bootstrap(
        _events(list(range(40)), ["x"] * 40), state, "user_id",
        key="event_type", precision=6,
    )
    before = hll_state_registers(state).to_pandas().values.tolist()
    hll_state_increment(_events([], []), state)
    assert hll_state_registers(state).to_pandas().values.tolist() == before


def test_cli_hll_incremental(tmp_path):
    import json as _json
    import subprocess
    import sys

    import pyarrow.parquet as pq

    def run(config):
        proc = subprocess.run(
            [sys.executable, "-m", "text_dedup_ray", "--config", str(config)],
            capture_output=True, text=True, cwd=REPO_ROOT, timeout=240,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        return _json.loads(proc.stdout.strip().splitlines()[-1])

    state = tmp_path / "st"
    for i, ids in enumerate([list(range(100)), list(range(80, 160))]):
        inp = tmp_path / f"in{i}.parquet"
        pq.write_table(
            pa.table(
                {
                    "user_id": pa.array(ids, pa.int64()),
                    "event_type": ["a"] * len(ids),
                }
            ),
            str(inp),
        )
        cfg = tmp_path / f"run{i}.toml"
        cfg.write_text(
            f"""
[input]
path = "{inp}"
text_column = "user_id"

[output]
path = "{tmp_path / f'out{i}'}"

[algorithm]
name = "hll_incremental"
state_dir = "{state}"
column = "user_id"
key = "event_type"
precision = 10
"""
        )
        stats = run(cfg)
        assert stats["mode"] == ("bootstrap" if i == 0 else "increment")
        assert stats["state_version"] == i + 1
    # 160 true distinct at p=10 (~3% SE): generous band
    assert 130 <= stats["estimates"]["a"] <= 190
