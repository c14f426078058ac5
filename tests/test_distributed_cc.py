"""Connected components forced onto the Dataset-valued cluster map
(``driver_threshold=0``) vs the driver union-find, the threshold contract of
the ref-level fold, plus join-based assignment vs broadcast assignment."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from text_dedup_ray.functions.unionfind import UnionFind
from text_dedup_ray.stages.assign import assign_clusters, assign_clusters_join
from text_dedup_ray.stages.cc import FANIN, connected_components_auto


def _driver_cc(src, dst):
    uf = UnionFind()
    for s, d in zip(src, dst):
        uf.union(int(s), int(d))
    return {k: v for k, v in uf.get_clusters().items() if k != v}


def _edges(src, dst, blocks):
    t = pa.table({"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())})
    return ray.data.from_arrow(t).repartition(blocks)


def _map_rows(ds: ray.data.Dataset) -> list[tuple[int, int]]:
    t = pa.concat_tables([b for b in ray.get(ds.to_arrow_refs()) if b.num_rows])
    return list(zip(t["row_id"].to_pylist(), t["cluster_id"].to_pylist()))


def _dist_cc(src, dst, blocks=4, parts=8, include_roots=False):
    out = connected_components_auto(
        _edges(src, dst, blocks),
        driver_threshold=0,
        num_partitions=parts,
        include_roots=include_roots,
    )
    assert isinstance(out, ray.data.Dataset)
    refs = out.to_arrow_refs()
    assert len(refs) == parts
    for p, shard in enumerate(ray.get(refs)):  # shard p holds |row_id| mod P == p
        if shard.num_rows:
            assert (np.abs(shard["row_id"].to_numpy()) % parts == p).all()
    rows = _map_rows(out)
    got = dict(rows)
    assert len(got) == len(rows), "a row_id appears twice in the cluster map"
    return got


def _random_edges(seed, n_nodes, n_edges):
    rng = np.random.RandomState(seed)
    a = rng.randint(0, n_nodes, n_edges)
    b = rng.randint(0, n_nodes, n_edges)
    keep = a != b
    return np.maximum(a, b)[keep], np.minimum(a, b)[keep]


class TestDistributedCC:
    def test_cross_partition_chain(self):
        # 9-7-5-3-1 chain: every hop lands in a different hash partition
        src = [9, 7, 5, 3]
        dst = [7, 5, 3, 1]
        got = _dist_cc(src, dst, blocks=4, parts=8)
        assert got == {9: 1, 7: 1, 5: 1, 3: 1}

    def test_sibling_merge(self):
        # node 5 claims two parents from different blocks -> parents must merge
        got = _dist_cc([5, 5], [1, 3], blocks=2, parts=8)
        assert got == {5: 1, 3: 1}

    def test_random_graph_matches_driver(self):
        src, dst = _random_edges(3, 3000, 4000)
        expected = _driver_cc(src, dst)
        got = _dist_cc(src.tolist(), dst.tolist(), blocks=6, parts=16)
        assert got == expected

    def test_long_path(self):
        # worst case for label propagation: a single long path
        nodes = list(range(0, 600))
        src = nodes[1:]
        dst = nodes[:-1]
        got = _dist_cc(src, dst, blocks=8, parts=8)
        assert all(v == 0 for v in got.values()) and len(got) == 599

    def test_matches_tree_reduce_cc(self):
        src, dst = _random_edges(11, 500, 800)
        t = pa.table({"src": pa.array(src), "dst": pa.array(dst)})
        via_driver = {
            k: v
            for k, v in connected_components_auto(ray.data.from_arrow(t)).items()
            if k != v
        }
        assert _dist_cc(src.tolist(), dst.tolist()) == via_driver

    def test_include_roots_once(self):
        # more input blocks than FANIN, so components span fold tasks
        src, dst = _random_edges(5, 2000, 1500)
        via_driver = connected_components_auto(
            ray.data.from_arrow(pa.table({"src": src, "dst": dst}))
        )
        got = _dist_cc(src.tolist(), dst.tolist(), blocks=3 * FANIN, parts=4,
                       include_roots=True)
        assert got == via_driver
        roots = set(via_driver.values())
        assert {k for k, v in got.items() if k == v} == roots

    def test_single_partition_map(self):
        got = _dist_cc([9, 7, 5, 3], [7, 5, 3, 1], blocks=2, parts=1, include_roots=True)
        assert got == {9: 1, 7: 1, 5: 1, 3: 1, 1: 1}

    def test_fold_level_fits_threshold_returns_dict(self):
        # 2*FANIN refs of the same 3-edge star: 6*FANIN raw rows overflow the
        # threshold, the first fold level (2 tasks x 3 rows) fits it
        star = pa.table({"src": pa.array([1, 2, 3], pa.int64()),
                         "dst": pa.array([0, 0, 0], pa.int64())})
        refs = [ray.put(star) for _ in range(2 * FANIN)]
        got = connected_components_auto(refs, driver_threshold=10)
        assert got == {0: 0, 1: 0, 2: 0, 3: 0}
        # the same graph over the threshold of its final map stays a Dataset
        out = connected_components_auto(refs, driver_threshold=2, num_partitions=2,
                                        include_roots=False)
        assert isinstance(out, ray.data.Dataset)
        assert sorted(_map_rows(out)) == [(1, 0), (2, 0), (3, 0)]

    def test_no_edges_is_empty_dict(self):
        loops = pa.table({"src": pa.array([4, 5], pa.int64()),
                          "dst": pa.array([4, 5], pa.int64())})
        assert connected_components_auto([ray.put(loops)], driver_threshold=0) == {}
        assert connected_components_auto([], driver_threshold=0) == {}


def test_sharded_simhash_runs_two_executions(tmp_path, monkeypatch):
    """simhash_dedup(driver_threshold=0) + write_output: the fingerprint ->
    exchange stream and the assign -> write stream. CC, the map shards and
    the sharded assign's split run as tasks on ObjectRefs, with no Ray Data
    execution of their own."""
    from ray.data._internal.plan import ExecutionPlan

    from text_dedup_ray.data.gen import corpus_parquet
    from text_dedup_ray.functions.simhash import SimHashConfig
    from text_dedup_ray.pipelines.images import image_ids_to_row_ids
    from text_dedup_ray.pipelines.simhash import simhash_dedup
    from text_dedup_ray.sources.io import write_output

    path, _ = corpus_parquet(300, seed=3, cache_dir=str(tmp_path))
    cfg = SimHashConfig(hash_func="sha1")

    def run(out, driver_threshold):
        res = simhash_dedup(
            image_ids_to_row_ids(ray.data.read_parquet(path)),
            text_column="caption",
            cfg=cfg,
            signature_source=image_ids_to_row_ids(
                ray.data.read_parquet(path, columns=["image_id", "caption"])
            ),
            driver_threshold=driver_threshold,
            merge_partitions=8,
        )
        write_output(res.deduped, str(out))
        return res

    driver = run(tmp_path / "driver", 2_000_000)
    executions = []
    real_create = ExecutionPlan.create_executor

    def counting(self):
        executions.append(self)
        return real_create(self)

    monkeypatch.setattr(ExecutionPlan, "create_executor", counting)
    res = run(tmp_path / "sharded", 0)
    monkeypatch.undo()
    assert isinstance(res.parents, ray.data.Dataset) and isinstance(driver.parents, dict)
    assert len(executions) == 2
    assert sorted(dict(_map_rows(res.parents)).items()) == sorted(driver.parents.items())
    def survivors(name):
        return sorted(pq.read_table(tmp_path / name, columns=["image_id"])["image_id"].to_pylist())

    assert 0 < len(survivors("sharded")) < 300
    assert survivors("sharded") == survivors("driver")


class TestJoinAssignment:
    def test_matches_broadcast(self):
        rng = np.random.RandomState(5)
        ids = np.arange(2000, dtype=np.int64)
        data = pa.table({"row_id": pa.array(ids), "x": pa.array(rng.rand(2000))})
        parents = {int(i): int(i % 7) for i in ids[:300]}
        ds = ray.data.from_arrow(data).repartition(4)

        bcast = (
            assign_clusters(ds, parents)
            .to_pandas()
            .sort_values("row_id")
            .reset_index(drop=True)
        )
        from text_dedup_ray.stages.cc import cluster_map_to_table

        joined = (
            assign_clusters_join(
                ds, ray.data.from_arrow(cluster_map_to_table(parents)), num_partitions=8
            )
            .to_pandas()
            .sort_values("row_id")
            .reset_index(drop=True)
        )
        assert (joined["row_id"] == bcast["row_id"]).all()
        assert (joined["__CLUSTER__"] == bcast["__CLUSTER__"]).all()
        assert (joined["__duplicate__"] == bcast["__duplicate__"]).all()
