"""Register-state unions: HLL (per-register MAX), CMS (per-cell SUM) and
Bloom (bitwise OR) states built INDEPENDENTLY must merge into a state
BIT-identical to a bootstrap over the union corpus — the federation axis for
the sketch/register families. Unlike the dedup-index unions there is no
id-disjointness requirement: overlapping content folds idempotently (HLL,
Bloom) or additively (CMS), exactly as a concatenated re-run would.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from text_dedup_ray.pipelines.incremental_sketch import (
    cms_state_bootstrap,
    cms_state_registers,
    cms_state_union,
    hll_state_bootstrap,
    hll_state_increment,
    hll_state_registers,
    hll_state_union,
)

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


def _regs_sorted(t: pa.Table, cols) -> list:
    return (
        t.to_pandas().sort_values(cols).reset_index(drop=True).values.tolist()
    )


def test_hll_union_equals_full_bootstrap(ray_session, tmp_path):
    # overlapping ids across the two sites: union semantics, not disjointness
    a_ids, a_types = list(range(300)), [f"t{i % 3}" for i in range(300)]
    b_ids = list(range(200, 500))
    b_types = [f"t{i % 3}" for i in b_ids]
    sa, sb, su, sfull = (str(tmp_path / n) for n in ("a", "b", "u", "full"))
    hll_state_bootstrap(_events(a_ids, a_types), sa, "user_id",
                        key="event_type", precision=7, num_partitions=3)
    hll_state_bootstrap(_events(b_ids, b_types), sb, "user_id",
                        key="event_type", precision=7, num_partitions=3)
    v = hll_state_union(sa, sb, su)
    assert v == 1
    hll_state_bootstrap(_events(a_ids + b_ids, a_types + b_types), sfull,
                        "user_id", key="event_type", precision=7,
                        num_partitions=3)
    cols = ["event_type", "idx"]
    assert _regs_sorted(hll_state_registers(su), cols) == _regs_sorted(
        hll_state_registers(sfull), cols
    )
    # the union is a normal tiered state: an increment chains on it and
    # still equals the full bootstrap over all three corpora
    c_ids = list(range(450, 600))
    c_types = [f"t{i % 3}" for i in c_ids]
    assert hll_state_increment(_events(c_ids, c_types), su) == 2
    sfull2 = str(tmp_path / "full2")
    hll_state_bootstrap(
        _events(a_ids + b_ids + c_ids, a_types + b_types + c_types), sfull2,
        "user_id", key="event_type", precision=7, num_partitions=3,
    )
    assert _regs_sorted(hll_state_registers(su), cols) == _regs_sorted(
        hll_state_registers(sfull2), cols
    )


def test_hll_kway_union(ray_session, tmp_path):
    parts = [list(range(i * 100, (i + 1) * 100 + 20)) for i in range(3)]
    states = []
    for i, ids in enumerate(parts):
        s = str(tmp_path / f"s{i}")
        hll_state_bootstrap(_events(ids, ["x"] * len(ids)), s, "user_id",
                            key="event_type", precision=6, num_partitions=2)
        states.append(s)
    su, sfull = str(tmp_path / "u"), str(tmp_path / "full")
    hll_state_union(states[0], states[1:], su)
    all_ids = [i for p in parts for i in p]
    hll_state_bootstrap(_events(all_ids, ["x"] * len(all_ids)), sfull,
                        "user_id", key="event_type", precision=6,
                        num_partitions=2)
    cols = ["event_type", "idx"]
    assert _regs_sorted(hll_state_registers(su), cols) == _regs_sorted(
        hll_state_registers(sfull), cols
    )


def test_hll_union_rejects_config_mismatch(ray_session, tmp_path):
    sa, sb = str(tmp_path / "a"), str(tmp_path / "b")
    hll_state_bootstrap(_events([1], ["x"]), sa, "user_id",
                        key="event_type", precision=6)
    hll_state_bootstrap(_events([1], ["x"]), sb, "user_id",
                        key="event_type", precision=7)
    with pytest.raises(ValueError, match="cfg_hash mismatch"):
        hll_state_union(sa, sb, str(tmp_path / "u"))


def test_cms_union_counts_add(ray_session, tmp_path):
    # shared ids between sites: the union must count them TWICE (sum merge),
    # exactly like a bootstrap over the concatenated corpora
    a_ids = [1, 1, 2, 3] * 25
    b_ids = [2, 3, 3, 4] * 25
    sa, sb, su, sfull = (str(tmp_path / n) for n in ("a", "b", "u", "full"))
    cms_state_bootstrap(_events(a_ids, ["x"] * len(a_ids)), sa, "user_id",
                        depth=3, width=64, num_partitions=2)
    cms_state_bootstrap(_events(b_ids, ["x"] * len(b_ids)), sb, "user_id",
                        depth=3, width=64, num_partitions=2)
    assert cms_state_union(sa, sb, su) == 1
    cms_state_bootstrap(_events(a_ids + b_ids, ["x"] * 200), sfull,
                        "user_id", depth=3, width=64, num_partitions=2)
    cols = ["d", "idx"]
    assert _regs_sorted(cms_state_registers(su), cols) == _regs_sorted(
        cms_state_registers(sfull), cols
    )


def _texts(n, seed, prefix):
    rng = np.random.RandomState(seed)
    return [
        f"{prefix} doc " + " ".join(f"w{j}" for j in rng.randint(0, 50, 6))
        for _ in range(n)
    ]


def test_bloom_union_bits_equal_full_bootstrap(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from text_dedup_ray.pipelines.bloom import (
        _bloom_state_file,
        bloom_bootstrap,
        bloom_increment,
        bloom_state_union,
    )

    # 30 shared texts between the sites: OR folds them idempotently
    shared = _texts(30, 7, "shared")
    ta = pa.table(
        {
            "row_id": pa.array(range(100), pa.int64()),
            "text": pa.array(_texts(70, 1, "a") + shared),
        }
    )
    tb = pa.table(
        {
            "row_id": pa.array(range(100, 200), pa.int64()),
            "text": pa.array(shared + _texts(70, 2, "b")),
        }
    )
    sa, sb, su, sfull = (str(tmp_path / n) for n in ("a", "b", "u", "full"))
    kw = dict(max_elements=1000, error_rate=1e-9, num_shards=4)
    bloom_bootstrap(ray.data.from_arrow(ta), sa, **kw)
    bloom_bootstrap(ray.data.from_arrow(tb), sb, **kw)
    assert bloom_state_union(sa, sb, su) == 1
    bloom_bootstrap(
        ray.data.from_arrow(pa.concat_tables([ta, tb])), sfull, **kw
    )
    for p in range(4):
        got = pq.read_table(_bloom_state_file(su, 1, p))["bits"][0].as_py()
        want = pq.read_table(_bloom_state_file(sfull, 1, p))["bits"][0].as_py()
        assert got == want, f"shard {p} bits differ"

    # a post-union increment sees old-A ∪ old-B: every re-sent text from
    # either side is flagged, fresh texts survive
    fresh = _texts(10, 3, "fresh")
    inc = pa.table(
        {
            "row_id": pa.array(range(200, 230), pa.int64()),
            "text": pa.array(shared[:10] + _texts(10, 1, "a")[:10] + fresh),
        }
    )
    res = bloom_increment(ray.data.from_arrow(inc), su)
    flags = {
        r["row_id"]: r["duplicate"]
        for r in res.flagged.select_columns(["row_id", "duplicate"]).take_all()
    }
    assert all(flags[r] for r in range(200, 220))  # seen on either side
    assert not any(flags[r] for r in range(220, 230))  # fresh


def test_bloom_union_rejects_geometry_mismatch(ray_session, tmp_path):
    from text_dedup_ray.pipelines.bloom import bloom_bootstrap, bloom_state_union

    t = pa.table(
        {"row_id": pa.array([0], pa.int64()), "text": pa.array(["x"])}
    )
    sa, sb = str(tmp_path / "a"), str(tmp_path / "b")
    bloom_bootstrap(ray.data.from_arrow(t), sa, max_elements=100, num_shards=2)
    bloom_bootstrap(ray.data.from_arrow(t), sb, max_elements=500, num_shards=2)
    with pytest.raises(ValueError, match="cfg_hash mismatch"):
        bloom_state_union(sa, sb, str(tmp_path / "u"))


def test_cli_union_state_hll(ray_session, tmp_path):
    import json
    import subprocess
    import sys

    sa, sb, su = (str(tmp_path / n) for n in ("a", "b", "u"))
    hll_state_bootstrap(_events(list(range(50)), ["x"] * 50), sa, "user_id",
                        key="event_type", precision=6, num_partitions=2)
    hll_state_bootstrap(_events(list(range(40, 90)), ["x"] * 50), sb,
                        "user_id", key="event_type", precision=6,
                        num_partitions=2)
    cfgf = tmp_path / "union.toml"
    cfgf.write_text(
        f"""
[algorithm]
name = "union_state"
state_a = "{sa}"
state_b = "{sb}"
out_state = "{su}"
"""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "text_dedup_ray", "--config", str(cfgf)],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats == {
        "algorithm": "union_state",
        "family": "hll_sketch",
        "out_state": su,
        "state_version": 1,
    }
    sfull = str(tmp_path / "full")
    hll_state_bootstrap(_events(list(range(50)) + list(range(40, 90)),
                                ["x"] * 100), sfull, "user_id",
                        key="event_type", precision=6, num_partitions=2)
    cols = ["event_type", "idx"]
    assert _regs_sorted(hll_state_registers(su), cols) == _regs_sorted(
        hll_state_registers(sfull), cols
    )
