"""The workloads: each one's timed public call, its set-up, its output checks
and its traced rebuild.

The timed call is the package's public pipeline function, run until
``sources.io.write_output`` has written the surviving rows. The traced
rebuild calls the public stage functions one by one and materializes each
stage's output inside that stage's span, so every span closes only when its
stage has finished (a span around a lazy Ray Data call would time nothing).
"""

from __future__ import annotations

import statistics
import time
from functools import partial
from pathlib import Path

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from text_dedup_ray.functions.minhash import MinHashConfig, MinHasher
from text_dedup_ray.functions.simhash import SimHashConfig, SimHasher, create_permutations
from text_dedup_ray.functions.tokenization import shingle_set
from text_dedup_ray.functions.unionfind import reduce_edges
from text_dedup_ray.pipelines.images import image_caption_dedup, image_ids_to_row_ids
from text_dedup_ray.pipelines.incremental import (
    load_meta,
    minhash_bootstrap,
    minhash_increment,
    simhash_bootstrap,
    simhash_increment,
)
from text_dedup_ray.pipelines.minhash import min_length_filter
from text_dedup_ray.pipelines.simhash import simhash_dedup
from text_dedup_ray.sources.io import write_output
from text_dedup_ray.stages.assign import (
    assign_clusters,
    assign_clusters_sharded,
    filter_cluster_roots,
    filter_non_duplicates,
)
from text_dedup_ray.stages.cc import connected_components_auto
from text_dedup_ray.stages.edges import (
    minhash_rep_part,
    minhash_rep_reduce,
    simhash_rep_part,
    simhash_rep_reduce,
)
from text_dedup_ray.stages.exchange import tagged_split_exchange
from text_dedup_ray.stages.fingerprint import MinHashFingerprinter, SimHashFingerprinter

from . import checks
from .corpus import Inputs
from .spans import Tracer

TEXT = "caption"
MINHASH = MinHashConfig(num_perm=128, bands=32, rows=4, ngram_size=2, hash_func="sha1")
SIMHASH = SimHashConfig(f=64, bit_diff=3, num_bucket=4, ngram_size=3, hash_func="sha1")
# the pipelines' defaults, repeated so the traced rebuild matches the timed call
PARTITIONS = 64
# simhash_sharded passes merge_partitions=8: at 4,000 rows, 64 partitions
# leave about 60 rows per task, and the distributed CC and sharded assign took
# 11 s a call against 4.3 s with 8, nearly all of the difference in per-task
# overhead on two logical CPUs.
SIMHASH_PARTITIONS = 8
DRIVER_THRESHOLD = 2_000_000
FINGERPRINT_BATCH = 2048
FINGERPRINT_CONCURRENCY = (1, 8)
KERNEL_REPEATS = 3
# the spans of a traced pass whose sum is comparable with one untraced call
PASS_SPANS = ("io.read", "fingerprint", "exchange", "cc", "assign", "io.write")


def read_full(path: str) -> ray.data.Dataset:
    return image_ids_to_row_ids(ray.data.read_parquet(path))


def read_narrow(path: str) -> ray.data.Dataset:
    return image_ids_to_row_ids(ray.data.read_parquet(path, columns=["image_id", TEXT]))


def dir_files(path: Path) -> list[Path]:
    return [p for p in path.rglob("*") if p.is_file()]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in dir_files(path))


def batches(ds: ray.data.Dataset):
    for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        if b.num_rows:
            yield b


# ------------------------------------------------------- traced stage chain


def trace_read(tr: Tracer, path: str):
    with tr.span("io.read"):
        full = read_full(path).materialize()
        narrow = read_narrow(path).materialize()
    return full, narrow


def trace_fingerprint(tr: Tracer, narrow: ray.data.Dataset, algo: str) -> ray.data.Dataset:
    """Fingerprint stage with its fused local-bucket kernel (stages.fingerprint
    + stages.edges), consumed fully."""
    with tr.span("fingerprint"):
        if algo == "minhash":
            sig_in = min_length_filter(narrow, TEXT, MINHASH.min_length)
            fp, args = MinHashFingerprinter, (MINHASH, TEXT, "buckets", None)
        else:
            sig_in = narrow
            fp, args = SimHashFingerprinter, (SIMHASH, TEXT, "buckets")
        sig_in = sig_in.select_columns(["row_id", TEXT]).materialize()
        local = sig_in.map_batches(
            fp, fn_constructor_args=args, batch_format="pyarrow",
            batch_size=FINGERPRINT_BATCH, concurrency=FINGERPRINT_CONCURRENCY,
        ).materialize()
    rows_in = sig_in.count()
    per_row = MINHASH.bands if algo == "minhash" else len(create_permutations(
        SIMHASH.f, SIMHASH.bit_diff, SIMHASH.num_bucket))
    n_edges = sum(pc.sum(b["is_edge"]).as_py() or 0 for b in batches(local))
    tr.count("fingerprint.rows_in", rows_in)
    tr.count("fingerprint.band_rows", rows_in * per_row)
    tr.count("edges.local_edges", n_edges)
    tr.count("edges.reps", local.count() - n_edges)
    return local


def _exchange_fns(algo: str):
    if algo == "minhash":
        return minhash_rep_part, minhash_rep_reduce
    return (partial(simhash_rep_part, sig_bytes=8),
            partial(simhash_rep_reduce, bit_diff=SIMHASH.bit_diff, sig_bytes=8))


def trace_exchange(tr: Tracer, local: ray.data.Dataset, algo: str,
                   partitions: int) -> ray.data.Dataset:
    part_fn, reduce_fn = _exchange_fns(algo)
    with tr.span("exchange"):
        local_edges, cross_edges, rows, _refs = tagged_split_exchange(
            local, "is_edge", part_fn, partitions, reduce_fn)
        edges = local_edges.union(cross_edges).materialize()
    per_part = np.zeros(partitions, dtype=np.int64)
    for b in batches(local):
        reps = b.filter(pc.invert(b["is_edge"])).select(["src", "key"])
        if reps.num_rows:
            per_part += np.bincount(part_fn(reps, partitions), minlength=partitions)
    tr.count("exchange.rows", rows)
    tr.count("exchange.partitions", partitions)
    tr.count("exchange.skew", float(per_part.max() / max(np.median(per_part), 1.0)))
    return edges


def trace_cc(tr: Tracer, edges: ray.data.Dataset, algo: str, driver_threshold: int,
             partitions: int):
    with tr.span("cc"):
        parents = connected_components_auto(
            edges, driver_threshold=driver_threshold, num_partitions=partitions,
            include_roots=algo == "minhash")
        if not isinstance(parents, dict):
            parents = parents.materialize()
    parts = [b.select(["src", "dst"]) for b in batches(edges)]
    src = np.concatenate([b["src"].to_numpy() for b in parts]) if parts else np.empty(0, np.int64)
    dst = np.concatenate([b["dst"].to_numpy() for b in parts]) if parts else np.empty(0, np.int64)
    with tr.span("cc.reduce_edges"):
        reduce_edges(src, dst)
    if isinstance(parents, dict):
        roots = np.fromiter(parents.values(), np.int64, len(parents))
    else:
        roots = np.concatenate([b["cluster_id"].to_numpy() for b in batches(parents)] or [np.empty(0, np.int64)])
    tr.count("cc.edges_in", len(src))
    tr.count("cc.nodes", int(np.unique(np.concatenate([src, dst])).size))
    tr.count("cc.clusters", int(np.unique(roots).size))
    return parents


def trace_assign(tr: Tracer, full: ray.data.Dataset, parents, algo: str,
                 partitions: int) -> ray.data.Dataset:
    with tr.span("assign"):
        if algo == "minhash":
            rows = min_length_filter(full, TEXT, MINHASH.min_length)
            keep = filter_cluster_roots
        else:
            rows = full
            keep = filter_non_duplicates
            if isinstance(parents, dict):
                parents = {k: v for k, v in parents.items() if k != v}
        if isinstance(parents, dict):
            assigned = assign_clusters(rows, parents)
        else:
            assigned = assign_clusters_sharded(rows, parents, num_shards=partitions)
        deduped = keep(assigned).materialize()
    tr.count("assign.rows_out", deduped.count())
    return deduped


def trace_write(tr: Tracer, deduped: ray.data.Dataset, out: Path) -> None:
    with tr.span("io.write"):
        write_output(deduped, str(out))
    tr.count("io.output_bytes", dir_bytes(out))


def trace_kernels(tr: Tracer, wl: "Workload") -> None:
    """The ``functions`` kernels in this process, over the workload's captions,
    shingled with the workload's n-gram size."""
    captions, ngram = wl.inputs.docs.column(TEXT).to_pylist(), wl.ngram
    for _ in range(KERNEL_REPEATS):
        with tr.span("kernel.shingle"):
            sets = [shingle_set(c, ngram, MINHASH.min_length) for c in captions]
        with tr.span("kernel.minhash"):
            MinHasher(MINHASH).signatures(captions)
        with tr.span("kernel.simhash"):
            SimHasher(SIMHASH).signatures_batch_bytes(captions)
    tr.count("kernel.shingles", sum(len(s) for s in sets))
    tr.count("kernel.distinct_shingles", len(set().union(*sets)))


def state_counts(tr: Tracer, state: Path, prior_version: int, merged: dict) -> None:
    new_dir = state / f"v{load_meta(str(state))['version']:05d}"
    tr.count("state.bytes_written", dir_bytes(new_dir))
    tr.count("state.files_written", len(dir_files(new_dir)))
    tr.count("state.prior_bytes", dir_bytes(state / f"v{prior_version:05d}"))
    tr.count("state.merged_old_roots", len(merged))


# ------------------------------------------------------------- workloads


class Workload:
    """One workload; ``call`` is the timed operation."""

    name = ""
    algo = "minhash"
    ngram = MINHASH.ngram_size

    def __init__(self, inputs: Inputs, run_dir: Path) -> None:
        self.inputs = inputs
        self.run_dir = run_dir
        self.out = run_dir / "out"
        self.traced_out = run_dir / "traced_out"
        self.rows = inputs.n
        self.warmup_walls: list[float] = []

    def setup(self) -> None:
        """Untimed warm-up pass (part of the set-up time)."""
        self.warmup(self.call)

    def prime(self) -> None:
        """One untimed call after the set-up, before the timed rounds: the
        first calls in a fresh Ray start the worker processes the later ones
        reuse (the flagship's first two rounds took 4.7-5.2 s, the next ones
        3.6-4.3 s)."""
        self.warmup(self.call)

    def warmup(self, call) -> None:
        t0 = time.perf_counter()
        call()
        self.warmup_walls.append(time.perf_counter() - t0)

    def call(self) -> None:
        raise NotImplementedError

    def traced_pass(self, tr: Tracer) -> None:
        raise NotImplementedError

    def check(self, stats: dict) -> list[str]:
        raise NotImplementedError

    def expected_rows_in(self) -> int:
        caps = self.inputs.docs.column(TEXT).to_pylist()
        if self.algo == "simhash":  # simhash_dedup has no min-length filter
            return len(caps)
        return sum(len(checks.tokens(c)) >= checks.MIN_TOKENS for c in caps)

    def check_trace(self, tr: Tracer, stats: dict) -> list[str]:
        fails = []
        traced = checks.output_ids(self.traced_out)
        untraced = checks.output_ids(self.out)
        if traced != untraced:
            fails.append(f"traced pass kept {len(traced)} rows, untraced call {len(untraced)}")
        expected = self.expected_rows_in()
        got = tr.last_count("fingerprint.rows_in")
        if got != expected:
            fails.append(f"fingerprint.rows_in {got} != {expected} rows the benchmark counts")
        stats.update(traced_survivors=len(traced), fingerprint_rows_in=got)
        return fails + self.check_state(stats)

    def state_leg(self, tr: Tracer) -> None:
        """``pipelines.incremental`` over the same corpus: bootstrap on the
        first ids, then one increment with the rest, each span around the
        public call. Both outputs are written for the composition check."""
        boot_fn, inc_fn, cfg = (
            (minhash_bootstrap, minhash_increment, MINHASH) if self.algo == "minhash"
            else (simhash_bootstrap, simhash_increment, SIMHASH))
        state = self.run_dir / "state"
        with tr.span("state.bootstrap"):
            boot = boot_fn(read_full(self.inputs.boot_path), str(state), text_column=TEXT, cfg=cfg)
        write_output(boot.deduped, str(self.run_dir / "state_boot_out"))
        prior = load_meta(str(state))["version"]
        with tr.span("state.increment"):
            inc = inc_fn(read_full(self.inputs.new_path), str(state), text_column=TEXT, cfg=cfg)
        write_output(inc.deduped, str(self.run_dir / "state_inc_out"))
        state_counts(tr, state, prior, inc.merged_old_roots)
        self.merged_old_roots = inc.merged_old_roots

    def check_state(self, stats: dict) -> list[str]:
        """Bootstrap survivors minus the old roots the increment merged away,
        plus the increment's survivors, equal the untraced call's survivors
        over the whole corpus."""
        merged = {checks.row_id_to_image_id(r) for r in self.merged_old_roots}
        return checks.check_increment(
            checks.output_ids(self.run_dir / "state_boot_out"), merged,
            checks.output_ids(self.run_dir / "state_inc_out"), checks.output_ids(self.out), stats)


class MinHashFlagship(Workload):
    name = "minhash_flagship"

    def call(self) -> None:
        self.res = image_caption_dedup(path=self.inputs.all_path, cfg=MINHASH)
        write_output(self.res.deduped, str(self.out))

    def traced_pass(self, tr: Tracer) -> None:
        full, narrow = trace_read(tr, self.inputs.all_path)
        local = trace_fingerprint(tr, narrow, "minhash")
        edges = trace_exchange(tr, local, "minhash", PARTITIONS)
        parents = trace_cc(tr, edges, "minhash", DRIVER_THRESHOLD, PARTITIONS)
        trace_write(tr, trace_assign(tr, full, parents, "minhash", PARTITIONS), self.traced_out)

    def check(self, stats: dict) -> list[str]:
        fails = []
        if self.res.metrics.get("cc_path") != "driver":
            fails.append(f"cc_path {self.res.metrics.get('cc_path')!r}, expected 'driver'")
        fails += checks.check_rows(self.inputs.docs, pq.read_table(self.out), stats)
        fails += checks.check_minhash(self.inputs.docs, self.inputs.truth, checks.output_ids(self.out), stats)
        return fails


class SimHashSharded(Workload):
    name = "simhash_sharded"
    algo = "simhash"
    ngram = SIMHASH.ngram_size

    def run(self, out: Path, driver_threshold: int):
        path = self.inputs.all_path
        res = simhash_dedup(
            read_full(path), text_column=TEXT, cfg=SIMHASH,
            signature_source=read_narrow(path), driver_threshold=driver_threshold,
            merge_partitions=SIMHASH_PARTITIONS)
        write_output(res.deduped, str(out))
        return res

    def setup(self) -> None:
        """The warm-up pass takes the single-process CC path; its survivors
        are the reference the distributed path must match."""
        def driver_path():
            self.driver = self.run(self.run_dir / "driver_path_out", DRIVER_THRESHOLD)

        self.warmup(driver_path)

    # prime() is one distributed-path call: the first in a fresh Ray stalled
    # for 11-21 s in about half of the runs, which would make a set-up time
    # that includes it bimodal.

    def call(self) -> None:
        # driver_threshold=0 forces the distributed CC and the sharded assign
        self.res = self.run(self.out, 0)

    def traced_pass(self, tr: Tracer) -> None:
        full, narrow = trace_read(tr, self.inputs.all_path)
        local = trace_fingerprint(tr, narrow, "simhash")
        edges = trace_exchange(tr, local, "simhash", SIMHASH_PARTITIONS)
        parents = trace_cc(tr, edges, "simhash", 0, SIMHASH_PARTITIONS)
        trace_write(tr, trace_assign(tr, full, parents, "simhash", SIMHASH_PARTITIONS),
                    self.traced_out)

    def check(self, stats: dict) -> list[str]:
        fails = []
        if isinstance(self.res.parents, dict):
            fails.append("driver_threshold=0 did not take the distributed CC path")
        if not isinstance(self.driver.parents, dict):
            fails.append("the default threshold did not take the single-process CC path")
        fails += checks.check_rows(self.inputs.docs, pq.read_table(self.out), stats)
        fails += checks.check_simhash(
            self.inputs.docs, self.inputs.truth, checks.output_ids(self.out),
            checks.output_ids(self.run_dir / "driver_path_out"), stats)
        return fails


WORKLOADS = {w.name: w for w in (MinHashFlagship, SimHashSharded)}


def per_layer(tr: Tracer, walls: list[float]) -> dict[str, float]:
    """Per-layer metric values from the spans and counts of a traced run."""
    span_metrics = {
        "io.read_s": "io.read", "io.write_s": "io.write",
        "kernel.shingle_s": "kernel.shingle", "kernel.minhash_s": "kernel.minhash",
        "kernel.simhash_s": "kernel.simhash", "fingerprint.s": "fingerprint",
        "exchange.s": "exchange", "cc.s": "cc", "cc.reduce_edges_s": "cc.reduce_edges",
        "assign.s": "assign", "state.bootstrap_s": "state.bootstrap",
        "state.increment_s": "state.increment",
    }
    out = {m: tr.median_seconds(s) for m, s in span_metrics.items()}
    for name in ("io.output_bytes", "kernel.shingles", "kernel.distinct_shingles",
                 "fingerprint.rows_in", "fingerprint.band_rows", "edges.local_edges",
                 "edges.reps", "exchange.rows", "exchange.partitions", "exchange.skew",
                 "cc.edges_in", "cc.nodes", "cc.clusters", "assign.rows_out",
                 "state.bytes_written", "state.files_written", "state.prior_bytes",
                 "state.merged_old_roots"):
        out[name] = tr.last_count(name)
    totals = [sum(sum(tr.seconds(s, trace=t)) for s in PASS_SPANS)
              for t in sorted({s["trace"] for s in tr.spans if s["name"] == "io.write"})]
    out["trace.overhead_s"] = statistics.median(totals) - statistics.median(walls)
    return out
