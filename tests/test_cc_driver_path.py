"""The vectorized union-find kernel against the per-edge ``UnionFind``,
``connected_components_auto`` fed by a Dataset or by ObjectRefs on both
sides of ``driver_threshold``, and the pipelines in a child Ray with one
CPU or with workers that cannot import the package."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data

from text_dedup_ray.functions.unionfind import UnionFind
from text_dedup_ray.sources.io import ROW_ID
from text_dedup_ray.stages.cc import component_min_labels, connected_components_auto

REPO_ROOT = Path(__file__).resolve().parents[1]


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


def _pipeline_survivors(path: str) -> dict[str, list[int]]:
    """Survivor row ids of the MinHash flagship (with the payload prefetch)
    and of SimHash on the distributed CC path, over one parquet file."""
    from text_dedup_ray.functions.minhash import MinHashConfig
    from text_dedup_ray.functions.simhash import SimHashConfig
    from text_dedup_ray.pipelines.images import image_caption_dedup, image_ids_to_row_ids
    from text_dedup_ray.pipelines.simhash import simhash_dedup

    def ids(ds: ray.data.Dataset) -> list[int]:
        return sorted(r[ROW_ID] for r in ds.select_columns([ROW_ID]).take_all())

    mh = image_caption_dedup(
        path=path,
        cfg=MinHashConfig(num_perm=64, bands=16, rows=4, ngram_size=2, hash_func="sha1"),
        prefetch_payload=True,
    )
    sh = simhash_dedup(
        image_ids_to_row_ids(ray.data.read_parquet(path)),
        text_column="caption",
        cfg=SimHashConfig(hash_func="sha1"),
        driver_threshold=0,
        merge_partitions=4,
    )
    return {"minhash": ids(mh.deduped), "simhash": ids(sh.deduped)}


_ONE_CPU_SCRIPT = """
import json, sys
import ray, ray.data
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR",
         log_to_driver=False, object_store_memory=100 * 1024**2)
ray.data.DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, sys.argv[2])
from test_cc_driver_path import _pipeline_survivors
print(json.dumps(_pipeline_survivors(sys.argv[1])))
"""

_NO_PACKAGE_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])  # the driver only: workers cannot import it
import pyarrow as pa
import ray, ray.data
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR",
         log_to_driver=False, object_store_memory=100 * 1024**2)
ray.data.DataContext.get_current().enable_progress_bars = False
from text_dedup_ray.pipelines.minhash import minhash_dedup
ds = ray.data.from_arrow(pa.table({"row_id": list(range(4)), "text": ["a b c d e f"] * 4}))
minhash_dedup(ds, text_column="text")
"""


def _run_isolated(args: list[str], cwd, env: dict, timeout: float):
    """(returncode, output) of a child Python in its own session; on timeout
    the whole session (the child's Ray processes too) is killed and the test
    fails."""
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=cwd, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{args[:2]} still running after {timeout:.0f} s")
    return proc.returncode, out


class TestIsolatedRay:
    def test_one_cpu_matches_four(self, tmp_path):
        # the fingerprint runs in tasks, so no actor pool holds the only CPU
        from text_dedup_ray.data.gen import corpus_parquet

        path, _ = corpus_parquet(400, seed=5, cache_dir=str(tmp_path))
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT), RAY_USAGE_STATS_ENABLED="0")
        code, out = _run_isolated(
            ["-c", _ONE_CPU_SCRIPT, path, str(REPO_ROOT / "tests")], REPO_ROOT, env, 240
        )
        assert code == 0, out[-3000:]
        got = json.loads(out.strip().splitlines()[-1])
        assert got == _pipeline_survivors(path)  # this session's Ray has 4 CPUs
        assert 0 < len(got["minhash"]) < 400 and 0 < len(got["simhash"]) < 400

    def test_workers_without_the_package_fail_fast(self, tmp_path):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["RAY_USAGE_STATS_ENABLED"] = "0"
        probe = subprocess.run(
            [sys.executable, "-c", "import text_dedup_ray"], cwd=tmp_path, env=env,
            capture_output=True, timeout=60,
        )
        if probe.returncode == 0:
            pytest.skip("text_dedup_ray is importable without the checkout on sys.path")
        code, out = _run_isolated(["-c", _NO_PACKAGE_SCRIPT, str(REPO_ROOT)], tmp_path, env, 120)
        assert code != 0
        assert "No module named 'text_dedup_ray'" in out, out[-3000:]
