"""The vectorized union-find kernel against the per-edge ``UnionFind``, and
``connected_components_auto`` fed by a Dataset or by ObjectRefs on both
sides of ``driver_threshold``."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data

from text_dedup_ray.functions.unionfind import UnionFind
from text_dedup_ray.stages.cc import component_min_labels, connected_components_auto


def _loop_clusters(src, dst) -> dict[int, int]:
    uf = UnionFind()
    for s, d in zip(np.asarray(src).tolist(), np.asarray(dst).tolist()):
        uf.union(s, d)
    return uf.get_clusters()


def _kernel_clusters(src, dst) -> dict[int, int]:
    nodes, roots = component_min_labels(src, dst)
    return dict(zip(nodes.tolist(), roots.tolist()))


class TestComponentMinLabels:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_match_union_find(self, seed):
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(2, 3000))
        n_edges = int(rng.integers(1, 4000))
        # sparse ids spanning negatives and large values
        ids = rng.choice(np.arange(-(10**12), 10**12, 7919), n_nodes, replace=False)
        src = ids[rng.integers(0, n_nodes, n_edges)]
        dst = ids[rng.integers(0, n_nodes, n_edges)]
        assert _kernel_clusters(src, dst) == _loop_clusters(src, dst)

    def test_duplicate_and_self_loop_edges(self):
        src = np.array([5, 5, 3, 9, 9, 9, 4, 7], dtype=np.int64)
        dst = np.array([3, 3, 5, 9, 9, 2, 4, 7], dtype=np.int64)
        got = _kernel_clusters(src, dst)
        assert got == _loop_clusters(src, dst)
        assert got == {2: 2, 3: 3, 4: 4, 5: 3, 7: 7, 9: 2}

    def test_empty(self):
        nodes, roots = component_min_labels(np.empty(0, np.int64), np.empty(0, np.int64))
        assert nodes.dtype == roots.dtype == np.int64
        assert len(nodes) == len(roots) == 0

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_long_path(self, order):
        # one 100k-node path: the diameter worst case for label propagation
        n = 100_000
        path = np.arange(n, dtype=np.int64)
        if order == "descending":
            path = path[::-1]
        elif order == "shuffled":
            path = np.random.default_rng(1).permutation(n)
        nodes, roots = component_min_labels(path[:-1], path[1:])
        assert np.array_equal(nodes, np.arange(n))
        assert not roots.any()


def _edge_tables(seed=7, n_tables=5):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 900, 1200)
    b = rng.integers(0, 900, 1200)
    keep = a != b
    src, dst = np.maximum(a, b)[keep], np.minimum(a, b)[keep]
    bounds = np.linspace(0, len(src), n_tables + 1).astype(int)
    tables = [
        pa.table({"src": src[lo:hi], "dst": dst[lo:hi]})
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    return tables, _loop_clusters(src, dst)


def _as_dict(parents) -> dict[int, int]:
    if isinstance(parents, dict):
        return parents
    t = parents.to_pandas()
    return dict(zip(t["row_id"].tolist(), t["cluster_id"].tolist()))


class TestConnectedComponentsAuto:
    def test_dataset_and_refs_agree_across_thresholds(self):
        tables, expected = _edge_tables()
        n_edges = sum(t.num_rows for t in tables)
        for threshold in (0, n_edges - 1, n_edges, 2_000_000):
            from_refs = connected_components_auto(
                [ray.put(t) for t in tables], driver_threshold=threshold, num_partitions=8
            )
            from_ds = connected_components_auto(
                ray.data.from_arrow(tables), driver_threshold=threshold, num_partitions=8
            )
            assert _as_dict(from_refs) == expected, threshold
            assert _as_dict(from_ds) == expected, threshold
            if threshold >= n_edges:
                assert isinstance(from_refs, dict) and isinstance(from_ds, dict)

    def test_empty_input(self):
        assert connected_components_auto([]) == {}
        empty = pa.table({"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())})
        assert connected_components_auto([ray.put(empty)]) == {}

    @pytest.mark.parametrize("threshold", [0, 500])
    def test_overflow_stops_fetching(self, monkeypatch, threshold):
        tables, expected = _edge_tables()
        largest = max(t.num_rows for t in tables)
        assert threshold + largest < sum(t.num_rows for t in tables)
        refs = [ray.put(t) for t in tables]
        ours = set(refs)
        fetched: list[int] = []
        real_get = ray.get

        def counting_get(obj, *args, **kwargs):
            out = real_get(obj, *args, **kwargs)
            if isinstance(obj, ray.ObjectRef) and obj in ours:
                fetched.append(out.num_rows)
            return out

        monkeypatch.setattr(ray, "get", counting_get)
        parents = connected_components_auto(
            refs, driver_threshold=threshold, num_partitions=8
        )
        monkeypatch.undo()
        assert sum(fetched) <= threshold + largest
        if threshold == 0:
            assert fetched == []
        assert _as_dict(parents) == expected


class TestOneCpuGuard:
    @pytest.mark.parametrize("pipeline", ["minhash", "simhash"])
    def test_fails_fast_below_two_cpus(self, monkeypatch, pipeline):
        from text_dedup_ray.pipelines.minhash import minhash_dedup
        from text_dedup_ray.pipelines.simhash import simhash_dedup

        fn = minhash_dedup if pipeline == "minhash" else simhash_dedup
        ds = ray.data.from_arrow(
            pa.table({"row_id": pa.array([0, 1], pa.int64()), "text": ["a b c", "a b c"]})
        )
        monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
        with pytest.raises(ValueError, match="at least 2 logical CPUs"):
            fn(ds, text_column="text")
