"""Benchmark inputs: the package's synthetic image+caption corpus, permuted.

``text_dedup_ray.data.gen.generate_corpus(n, GEN_SEED)`` plants every
duplicate cluster in the first half of the id range, so the corpus is
permuted with the run's seed and ``image_id`` is relabelled to the new
position; the truth table follows the permutation. Generation encodes every
image in Python, so the base corpus is cached under ``perfbench/.cache``
(keyed by size and generator seed, written atomically) and generated in a
child process, which keeps the generator's memory out of the driver's peak
RSS. The permutation is recomputed from the seed in every run.

Run as ``python3 -m perfbench.corpus N GEN_SEED DOCS_PATH TRUTH_PATH`` to
generate one base corpus (that is what :func:`base_corpus` does).
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# Caption content seed. The run's --seed picks the permutation; the content
# stays fixed so the planted make-up (and thus the work) is the same in
# every run, and generation is paid once per checkout.
GEN_SEED = 42
# share of ids, counted from the top, that the tiered-state leg adds as an increment
INCREMENT_SHARE = 0.10
ROW_GROUP_SIZE = 1024


@dataclass
class Inputs:
    n: int
    docs: pa.Table        # permuted, image_id relabelled to position
    truth: pa.Table       # (image_id, cluster_id, kind), same order as docs
    all_path: str         # every row
    boot_path: str        # all but the last INCREMENT_SHARE of ids
    new_path: str         # the last INCREMENT_SHARE of ids


def _write_atomic(table: pa.Table, path: Path) -> None:
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    pq.write_table(table, tmp, row_group_size=ROW_GROUP_SIZE)
    os.replace(tmp, path)


def base_corpus(cache_dir: Path, n: int, root: Path) -> tuple[Path, Path]:
    """(docs, truth) parquet paths of the unpermuted corpus, generating it
    in a child process on the first call for this size."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    docs = cache_dir / f"docs_n{n}_g{GEN_SEED}.parquet"
    truth = cache_dir / f"truth_n{n}_g{GEN_SEED}.parquet"
    if not (docs.exists() and truth.exists()):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root), os.environ.get("PYTHONPATH", "")]))
        subprocess.run(
            [sys.executable, "-m", "perfbench.corpus", str(n), str(GEN_SEED), str(docs), str(truth)],
            cwd=root, env=env, check=True, timeout=600,
        )
    return docs, truth


def make_inputs(cache_dir: Path, run_dir: Path, n: int, seed: int, root: Path) -> Inputs:
    """Permute the cached base corpus with ``seed`` and write the run's
    input files (all rows, bootstrap part, increment part) into ``run_dir``."""
    docs_path, truth_path = base_corpus(cache_dir, n, root)
    docs = pq.read_table(docs_path)
    truth = pq.read_table(truth_path)
    if docs.num_rows != n or not truth.column("image_id").equals(docs.column("image_id")):
        raise RuntimeError(f"cached corpus {docs_path} does not match n={n}")
    perm = pa.array(np.random.default_rng(seed).permutation(n))
    ids = pa.array([f"img-{j:012d}" for j in range(n)], pa.string())
    docs = docs.take(perm).set_column(0, "image_id", ids)
    truth = truth.take(perm).set_column(0, "image_id", ids)
    cut = n - int(n * INCREMENT_SHARE)
    run_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, table in (
        ("all", docs), ("boot", docs.slice(0, cut)), ("new", docs.slice(cut))
    ):
        paths[name] = run_dir / f"input_{name}.parquet"
        pq.write_table(table, paths[name], row_group_size=ROW_GROUP_SIZE)
    return Inputs(n, docs, truth, str(paths["all"]), str(paths["boot"]), str(paths["new"]))


if __name__ == "__main__":
    from text_dedup_ray.data.gen import generate_corpus

    n_rows, gen_seed, out_docs, out_truth = sys.argv[1:5]
    d, t = generate_corpus(int(n_rows), int(gen_seed))
    if d.column_names[0] != "image_id" or t.column_names[0] != "image_id":
        raise SystemExit("generate_corpus schema changed: image_id is not column 0")
    _write_atomic(t, Path(out_truth))
    _write_atomic(d, Path(out_docs))
