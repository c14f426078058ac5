"""Tiered count-min sketch state: bootstrap(old) + increment(new) cells must
be BIT-IDENTICAL to a full cms_registers run over old ∪ new (cell merge is
integer SUM — the exact CMS union); point estimates come from the saved
state; prune/rollback and the algo-tag guard work via the shared tiered
convention."""

from __future__ import annotations

from pathlib import Path

import pytest
import pyarrow as pa
import ray.data

from text_dedup_ray.pipelines.incremental import (
    prune_state_versions,
    rollback_state,
)
from text_dedup_ray.pipelines.incremental_sketch import (
    cms_state_bootstrap,
    cms_state_estimate,
    cms_state_increment,
    cms_state_registers,
    hll_state_increment,
)
from text_dedup_ray.pipelines.sketch import cms_registers

REPO_ROOT = Path(__file__).resolve().parents[1]


def _events(ids):
    return ray.data.from_arrow(
        pa.table({"user_id": pa.array(ids, pa.int64())})
    )


def _full_cells(ds, depth, width):
    return (
        cms_registers(ds, "user_id", depth=depth, width=width)
        .to_pandas()
        .sort_values(["d", "idx"])
        .reset_index(drop=True)
        .values.tolist()
    )


def test_cms_increment_equals_full_rerun(tmp_path):
    state = str(tmp_path / "st")
    old_ids = [i % 37 for i in range(400)]
    new_ids = [i % 53 for i in range(250)]

    v = cms_state_bootstrap(
        _events(old_ids), state, "user_id", depth=4, width=64,
        num_partitions=3,
    )
    assert v == 1
    v = cms_state_increment(_events(new_ids), state)
    assert v == 2

    got = (
        cms_state_registers(state)
        .to_pandas()
        .sort_values(["d", "idx"])
        .reset_index(drop=True)
        .values.tolist()
    )
    assert got == _full_cells(_events(old_ids + new_ids), depth=4, width=64)

    # CMS never undercounts; exact for these hot items unless collisions
    true_freq_0 = (len([i for i in old_ids if i == 0])
                   + len([i for i in new_ids if i == 0]))
    est = cms_state_estimate(state, [0])
    assert est[0] >= true_freq_0


def test_cms_state_prune_rollback_and_guard(tmp_path):
    state = str(tmp_path / "st")
    cms_state_bootstrap(_events(list(range(60))), state, "user_id", width=32)
    r1 = cms_state_registers(state).to_pandas().values.tolist()
    cms_state_increment(_events(list(range(30))), state)
    assert cms_state_registers(state).to_pandas().values.tolist() != r1

    rollback_state(state, 1)
    assert cms_state_registers(state).to_pandas().values.tolist() == r1

    cms_state_increment(_events(list(range(30))), state)
    assert prune_state_versions(state, keep_last=1) == [1]
    assert cms_state_registers(state).num_rows > 0

    # an HLL increment must refuse a CMS state dir (algo-tag guard)
    with pytest.raises(ValueError, match="not a hll_sketch state"):
        hll_state_increment(_events([1, 2]), state)


def test_cli_cms_incremental(tmp_path):
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
    for i, ids in enumerate([[7] * 40 + [1, 2, 3], [7] * 25 + [4, 5]]):
        inp = tmp_path / f"in{i}.parquet"
        pq.write_table(
            pa.table({"user_id": pa.array(ids, pa.int64())}), str(inp)
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
name = "cms_incremental"
state_dir = "{state}"
column = "user_id"
width = 64
items = [7]
"""
        )
        stats = run(cfg)
        assert stats["mode"] == ("bootstrap" if i == 0 else "increment")
        assert stats["state_version"] == i + 1
    # 65 true occurrences of item 7; CMS never undercounts
    assert stats["estimates"]["7"] >= 65


def test_cms_empty_increment_is_identity(tmp_path):
    state = str(tmp_path / "st")
    cms_state_bootstrap(_events(list(range(40))), state, "user_id", width=32)
    before = cms_state_registers(state).to_pandas().values.tolist()
    cms_state_increment(_events([]), state)
    assert cms_state_registers(state).to_pandas().values.tolist() == before
