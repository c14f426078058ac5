"""CLI smoke test — config-driven entry point in a fresh process."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_cli_minhash(tmp_path):
    config = tmp_path / "run.toml"
    out_dir = tmp_path / "out"
    config.write_text(
        f"""
[input]
path = "/root/testdata/sf0.001/documents.parquet"
text_column = "text"
id_column = "doc_id"

[output]
path = "{out_dir}"

[algorithm]
name = "minhash"
num_perm = 64
bands = 16
rows = 4
ngram_size = 2
hash_func = "sha1"
"""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "text_dedup_ray", "--config", str(config)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["algorithm"] == "minhash" and stats["clusters"] > 0

    import pyarrow.parquet as pq

    t = pq.read_table(str(out_dir))
    assert t.num_rows > 0 and "__CLUSTER__" not in t.column_names
    clusters = pq.read_table(str(out_dir) + ".clusters.parquet")
    assert clusters.num_rows == stats["cluster_members"]


def test_cli_minhash_incremental(tmp_path):
    """Two runs of the same config: first bootstraps the state, second
    (pointed at a later id range) increments against it."""
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    state = tmp_path / "lsh_state"

    def cfg(out_dir: str) -> str:
        return f"""
[input]
path = "/root/testdata/sf0.001/documents.parquet"
text_column = "text"
id_column = "doc_id"

[output]
path = "{out_dir}"
save_clusters = false

[algorithm]
name = "minhash_incremental"
state_dir = "{state}"
num_perm = 64
bands = 16
rows = 4
ngram_size = 2
hash_func = "sha1"
"""

    config = tmp_path / "run.toml"
    config.write_text(cfg(str(out1)))
    proc = subprocess.run(
        [sys.executable, "-m", "text_dedup_ray", "--config", str(config)],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["mode"] == "bootstrap" and stats["state_version"] == 1

    # second run over disjoint higher ids: shift doc_id by remapping is not
    # available via CLI, so feed a copy with shifted ids
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    src = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    shifted = src.set_column(
        src.column_names.index("doc_id"),
        "doc_id",
        pc.add(src["doc_id"], pa.scalar(10_000_000, pa.int64())),
    )
    shifted_path = tmp_path / "shifted.parquet"
    pq.write_table(shifted, str(shifted_path))
    config2 = tmp_path / "run2.toml"
    config2.write_text(cfg(str(out2)).replace(
        "/root/testdata/sf0.001/documents.parquet", str(shifted_path)
    ))
    proc2 = subprocess.run(
        [sys.executable, "-m", "text_dedup_ray", "--config", str(config2)],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=240,
    )
    assert proc2.returncode == 0, proc2.stderr[-2000:]
    stats2 = json.loads(proc2.stdout.strip().splitlines()[-1])
    assert stats2["mode"] == "increment" and stats2["state_version"] == 2
    # the shifted copy duplicates every old text -> nothing new survives
    import glob as _glob

    parts = _glob.glob(str(out2) + "/*.parquet")
    assert sum(pq.read_table(p).num_rows for p in parts) == 0


def test_cli_suffix_incremental(tmp_path):
    """Bootstrap then increment the tiered substring path via the CLI; the
    shifted-id copy duplicates every old doc verbatim, so every new doc is
    fully cut and nothing survives."""
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    state = tmp_path / "suffix_state"

    def cfg(out_dir: str, extra: str = "") -> str:
        return f"""
[input]
path = "/root/testdata/sf0.001/documents.parquet"
text_column = "text"
id_column = "doc_id"

[output]
path = "{out_dir}"
save_clusters = false

[algorithm]
name = "suffix_incremental"
state_dir = "{state}"
length_threshold = 100
{extra}
"""

    config = tmp_path / "run.toml"
    config.write_text(cfg(str(out1)))
    proc = subprocess.run(
        [sys.executable, "-m", "text_dedup_ray", "--config", str(config)],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["mode"] == "bootstrap" and stats["state_version"] == 1

    import glob as _glob

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    parts1 = _glob.glob(str(out1) + "/*.parquet")
    assert sum(pq.read_table(p).num_rows for p in parts1) > 0

    src = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    shifted = src.set_column(
        src.column_names.index("doc_id"),
        "doc_id",
        pc.add(src["doc_id"], pa.scalar(10_000_000, pa.int64())),
    )
    shifted_path = tmp_path / "shifted.parquet"
    pq.write_table(shifted, str(shifted_path))
    config2 = tmp_path / "run2.toml"
    config2.write_text(
        cfg(str(out2), extra='old_path = "/root/testdata/sf0.001/documents.parquet"')
        .replace("/root/testdata/sf0.001/documents.parquet\"\ntext_column",
                 str(shifted_path) + "\"\ntext_column")
    )
    proc2 = subprocess.run(
        [sys.executable, "-m", "text_dedup_ray", "--config", str(config2)],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=240,
    )
    assert proc2.returncode == 0, proc2.stderr[-2000:]
    stats2 = json.loads(proc2.stdout.strip().splitlines()[-1])
    assert stats2["mode"] == "increment" and stats2["state_version"] == 2
    # every new doc long enough to contain a >=100-byte run is a verbatim
    # copy of an old doc -> fully cut and dropped; docs shorter than the
    # threshold can never be cut and must survive byte-identical
    parts2 = _glob.glob(str(out2) + "/*.parquet")
    out_tbl = pa.concat_tables([pq.read_table(p) for p in parts2])
    texts = src["text"].to_pylist()
    short = {t for t in texts if len(t.encode()) < 100}
    assert out_tbl.num_rows == sum(1 for t in texts if len(t.encode()) < 100)
    assert set(out_tbl["text"].to_pylist()) <= short


def test_cli_decontaminate(tmp_path):
    config = tmp_path / "run.toml"
    out_dir = tmp_path / "out_decon"
    config.write_text(
        f"""
[input]
path = "/root/testdata/sf0.001/documents.parquet"
text_column = "text"
id_column = "doc_id"

[output]
path = "{out_dir}"

[algorithm]
name = "decontaminate"
benchmark_path = "/root/testdata/sf0.001/documents.parquet"
ngram_size = 2
threshold = 0.99
"""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "text_dedup_ray", "--config", str(config)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["decontaminate"]["path"] == "broadcast"
    # benchmark == corpus, so every doc matches itself -> clean set is empty
    import glob

    import pyarrow.parquet as pq

    n = sum(
        pq.read_metadata(f).num_rows
        for f in glob.glob(f"{out_dir}/**/*.parquet", recursive=True)
    )
    assert n == 0


def test_cli_line_dedup(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = tmp_path / "docs.parquet"
    pq.write_table(
        pa.table(
            {
                "doc_id": [1, 2, 3],
                "text": [
                    "shared boilerplate line\nunique alpha",
                    "unique beta\nshared boilerplate line",
                    "shared boilerplate line",
                ],
            }
        ),
        str(src),
    )
    config = tmp_path / "run.toml"
    out_dir = tmp_path / "out"
    config.write_text(
        f"""
[input]
path = "{src}"
text_column = "text"
id_column = "doc_id"

[output]
path = "{out_dir}"

[algorithm]
name = "line_dedup"
min_line_length = 5
"""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "text_dedup_ray", "--config", str(config)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["algorithm"] == "line_dedup"

    t = pq.read_table(str(out_dir)).to_pandas().sort_values("doc_id")
    # doc 3 became empty (its only line lost to doc 1) and was filtered out
    assert t.doc_id.tolist() == [1, 2]
    assert t.text.tolist() == [
        "shared boilerplate line\nunique alpha",
        "unique beta",
    ]
    assert "row_id" not in t.columns


def test_cli_mix(tmp_path):
    config = tmp_path / "run.toml"
    out_dir = tmp_path / "out"
    config.write_text(
        f"""
[input]
path = "/root/testdata/sf0.001/documents.parquet"
text_column = "text"
id_column = "doc_id"

[output]
path = "{out_dir}"

[algorithm]
name = "mix"
group_key = "lang"
id_key = "doc_id"

[algorithm.weights]
en = 1.0
de = 0.25
"""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "text_dedup_ray", "--config", str(config)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["algorithm"] == "mix" and stats["weights"]["en"] == 1.0

    import pyarrow.parquet as pq

    t = pq.read_table(str(out_dir)).to_pandas()
    assert set(t.lang) <= {"en", "de"}
    n_en_src = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["lang"]
    ).to_pandas().lang.value_counts().get("en", 0)
    assert (t.lang == "en").sum() == n_en_src  # weight 1.0 keeps all
