"""Fingerprinting in fused stateless tasks (``stages.fingerprint.fingerprint_map``)
against the same classes run as an actor pool, hashers that keep no state
between calls, and the pipeline paths that must not read a schema with an
extra Ray Data execution."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from text_dedup_ray.functions.minhash import MinHashConfig, MinHasher
from text_dedup_ray.functions.simhash import SimHashConfig, SimHasher
from text_dedup_ray.sources.io import require_row_id, write_output
from text_dedup_ray.stages import fingerprint as fp_mod
from text_dedup_ray.stages.fingerprint import (
    MinHashFingerprinter,
    SigMatrixFingerprinter,
    SigPassthroughFingerprinter,
    SimHashFingerprinter,
    SimHashSignaturer,
    fingerprint_map,
)

MH = MinHashConfig(num_perm=32, bands=8, rows=4, ngram_size=2, hash_func="sha1")
SH = SimHashConfig(hash_func="sha1")
SH128 = SimHashConfig(f=128, hash_func="md5")
WORDS = "the cat sat on a mat while dogs ran past old red barns near quiet rivers".split()


def _texts(n: int, seed: int = 0) -> list[str]:
    rng = np.random.default_rng(seed)
    base = [" ".join(rng.choice(WORDS, 12)) for _ in range(n // 2)]
    # every other doc repeats an earlier one, so each batch has buckets
    return [base[i // 2] if i % 2 else base[i // 2] + " extra" for i in range(n)] + [""]


def _input(n: int = 12) -> ray.data.Dataset:
    texts = _texts(n)
    return ray.data.from_arrow(
        pa.table({"row_id": pa.array(np.arange(len(texts)) * 3 + 7, pa.int64()), "text": texts})
    )


def _sig_input(n: int = 12) -> ray.data.Dataset:
    rng = np.random.default_rng(1)
    sigs = rng.integers(-(2**62), 2**62, n, dtype=np.int64)
    sigs[1::2] = sigs[::2] ^ 1  # near-duplicate pairs, one bit apart
    return ray.data.from_arrow(
        pa.table({"row_id": pa.array(np.arange(n), pa.int64()), "sig": pa.array(sigs)})
    )


def _rows(ds: ray.data.Dataset) -> list[tuple]:
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tables:
        return []
    t = pa.concat_tables(tables)
    return sorted(zip(*(t[c].to_pylist() for c in t.column_names)), key=repr)


CASES = {
    "minhash_sig": (MinHashFingerprinter, (MH, "text", "sig")),
    "minhash_buckets": (MinHashFingerprinter, (MH, "text", "buckets")),
    "minhash_b8": (MinHashFingerprinter, (MH, "text", "buckets", 8)),
    "sigmatrix": (SigMatrixFingerprinter, (MH, "text")),
    "simhash64": (SimHashFingerprinter, (SH, "text", "buckets")),
    "simhash64_sig": (SimHashFingerprinter, (SH, "text", "sig")),
    "simhash128": (SimHashFingerprinter, (SH128, "text", "buckets")),
    "signaturer": (SimHashSignaturer, (SH, "text")),
    "passthrough": (SigPassthroughFingerprinter, (SH, "sig")),
}


class TestFingerprintMap:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_actor_pool_across_batches(self, case):
        cls, args = CASES[case]
        ds = _sig_input() if cls is SigPassthroughFingerprinter else _input()
        batch = 5  # 13 rows in one block: three batches
        pool = ds.map_batches(
            cls, fn_constructor_args=args, batch_format="pyarrow",
            batch_size=batch, concurrency=1,
        )
        tasks = fingerprint_map(ds, cls, args, batch)
        expected = _rows(pool)
        assert expected
        assert _rows(tasks) == expected

    def test_instances_are_reused_and_bounded(self):
        fp_mod._FINGERPRINTERS.clear()
        batch = pa.table({"row_id": pa.array([1, 2], pa.int64()), "text": ["a b c", "a b c"]})
        out = [fp_mod._fingerprint_batch(batch, SimHashSignaturer, (SH, "text")) for _ in range(2)]
        assert out[0].equals(out[1])
        assert len(fp_mod._FINGERPRINTERS) == 1
        for seed in range(fp_mod._MAX_FINGERPRINTERS + 3):
            fp_mod._fingerprint_batch(batch, SimHashSignaturer, (replace(SH, seed=seed), "text"))
        assert len(fp_mod._FINGERPRINTERS) == fp_mod._MAX_FINGERPRINTERS


class TestHashersKeepNoState:
    def test_minhash_signatures_independent_of_history(self):
        a, b = _texts(40, seed=2), _texts(40, seed=3)
        fresh = MinHasher(MH).signatures(b)
        used = MinHasher(MH)
        used.signatures(a)
        assert np.array_equal(used.signatures(b), fresh)
        assert not hasattr(used, "_memo")

    @pytest.mark.parametrize("cfg", [SH, SH128], ids=["f64", "f128"])
    def test_simhash_signatures_independent_of_history(self, cfg):
        a, b = _texts(40, seed=2), _texts(40, seed=3)
        fresh = SimHasher(cfg).signatures_batch_bytes(b)
        used = SimHasher(cfg)
        used.signatures_batch_bytes(a)
        assert np.array_equal(used.signatures_batch_bytes(b), fresh)
        assert not hasattr(used, "_memo")


class TestRowIdCheck:
    def _no_row_id(self) -> ray.data.Dataset:
        return ray.data.from_arrow(pa.table({"doc": [1, 2], "text": ["a b c d e", "a b c d e"]}))

    @pytest.mark.parametrize("pipeline", ["minhash", "simhash"])
    def test_known_schema_raises_at_once(self, pipeline):
        from text_dedup_ray.pipelines.minhash import minhash_dedup
        from text_dedup_ray.pipelines.simhash import simhash_dedup

        fn = minhash_dedup if pipeline == "minhash" else simhash_dedup
        with pytest.raises(ValueError, match="row_id"):
            fn(self._no_row_id(), text_column="text")

    def test_unknown_schema_raises_in_the_fused_map(self):
        lazy = self._no_row_id().map_batches(lambda t: t, batch_format="pyarrow")
        assert lazy.schema(fetch_if_missing=False) is None
        checked = require_row_id(lazy)  # nothing runs here
        # Ray wraps the worker's ValueError in its user-code error type
        with pytest.raises(Exception, match="must have a row_id column"):
            checked.materialize()

    def test_passes_rows_through(self):
        ds = ray.data.from_arrow(pa.table({"row_id": [3, 4], "x": [1, 2]}))
        lazy = ds.map_batches(lambda t: t, batch_format="pyarrow")
        assert require_row_id(ds) is ds
        assert sorted(r["row_id"] for r in require_row_id(lazy).take_all()) == [3, 4]


class TestWriteOutput:
    INTERNAL = {"row_id", "__CLUSTER__", "__duplicate__"}

    def test_empty_input(self, tmp_path):
        t = pa.table({"row_id": pa.array([], pa.int64()), "__duplicate__": pa.array([], pa.bool_()),
                      "text": pa.array([], pa.string())})
        out = tmp_path / "out"
        write_output(ray.data.from_arrow(t), str(out))
        assert out.is_dir()
        for f in out.glob("*.parquet"):
            assert not self.INTERNAL & set(pq.read_schema(f).names)

    def test_input_without_internal_columns(self, tmp_path):
        t = pa.table({"a": [1, 2, 3], "b": ["x", "y", "z"]})
        out = tmp_path / "out"
        write_output(ray.data.from_arrow(t).map_batches(lambda b: b, batch_format="pyarrow"), str(out))
        assert pq.read_table(out).sort_by("a").equals(t)

    def test_keep_internal(self, tmp_path):
        t = pa.table({"row_id": [1], "__CLUSTER__": [1], "text": ["a"]})
        write_output(ray.data.from_arrow(t), str(tmp_path / "o"), drop_internal=False)
        assert set(pq.read_table(tmp_path / "o").column_names) == {"row_id", "__CLUSTER__", "text"}


def test_flagship_runs_two_executions_and_reads_no_schema(tmp_path, monkeypatch):
    """image_caption_dedup + write_output: the fingerprint -> exchange stream
    and the assign -> write stream, and no execution only to read a schema."""
    from ray.data._internal.plan import ExecutionPlan

    from text_dedup_ray.data.gen import corpus_parquet
    from text_dedup_ray.pipelines.images import image_caption_dedup

    path, _ = corpus_parquet(300, seed=3, cache_dir=str(tmp_path))
    real_schema = ray.data.Dataset.schema

    def no_fetch(self, fetch_if_missing: bool = True):
        if fetch_if_missing:
            raise AssertionError("Dataset.schema() would run an execution")
        return real_schema(self, fetch_if_missing=False)

    executions = []
    real_create = ExecutionPlan.create_executor

    def counting(self):
        executions.append(self)
        return real_create(self)

    monkeypatch.setattr(ray.data.Dataset, "schema", no_fetch)
    monkeypatch.setattr(ExecutionPlan, "create_executor", counting)
    res = image_caption_dedup(path=path, cfg=MH)
    write_output(res.deduped, str(tmp_path / "out"))
    monkeypatch.undo()
    assert len(executions) == 2
    assert res.metrics["cc_path"] == "driver"
    out = pq.read_table(tmp_path / "out")
    assert 0 < out.num_rows < 300
    assert "row_id" not in out.column_names and "caption" in out.column_names
