"""Distributed connected components (dataset-valued cluster map) vs the
driver union-find, plus join-based assignment vs broadcast assignment."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from text_dedup_ray.functions.unionfind import UnionFind
from text_dedup_ray.stages.assign import assign_clusters, assign_clusters_join
from text_dedup_ray.stages.cc import (
    connected_components_auto,
    connected_components_distributed,
)


def _driver_cc(src, dst):
    uf = UnionFind()
    for s, d in zip(src, dst):
        uf.union(int(s), int(d))
    return {k: v for k, v in uf.get_clusters().items() if k != v}


def _dist_cc(src, dst, blocks=4, parts=8):
    t = pa.table({"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())})
    ds = ray.data.from_arrow(t).repartition(blocks)
    out = connected_components_distributed(ds, num_partitions=parts).to_pandas()
    return {int(r.row_id): int(r.cluster_id) for r in out.itertuples()}


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
        rng = np.random.RandomState(3)
        n_nodes, n_edges = 3000, 4000
        a = rng.randint(0, n_nodes, n_edges)
        b = rng.randint(0, n_nodes, n_edges)
        keep = a != b
        src, dst = np.maximum(a, b)[keep], np.minimum(a, b)[keep]
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
        rng = np.random.RandomState(11)
        a = rng.randint(0, 500, 800)
        b = rng.randint(0, 500, 800)
        keep = a != b
        src, dst = np.maximum(a, b)[keep], np.minimum(a, b)[keep]
        t = pa.table({"src": pa.array(src), "dst": pa.array(dst)})
        via_driver = {
            k: v
            for k, v in connected_components_auto(ray.data.from_arrow(t)).items()
            if k != v
        }
        assert _dist_cc(src.tolist(), dst.tolist()) == via_driver


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
