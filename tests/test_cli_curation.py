"""Fresh-process CLI smoke for the round-4 curation modes: gopher_filter,
scrub, token_budget, and the keep_best_by survivor policy."""

from __future__ import annotations

import json
import subprocess
import sys

import pyarrow.parquet as pq

DOCS = "/root/testdata/sf0.001/documents.parquet"


def _run(config_path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "text_dedup_ray", "--config", str(config_path)],
        capture_output=True,
        text=True,
        cwd="/root/repo",
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_gopher_filter(tmp_path):
    config = tmp_path / "run.toml"
    out = tmp_path / "out"
    config.write_text(
        f"""
[input]
path = "{DOCS}"
id_column = "doc_id"

[output]
path = "{out}"

[algorithm]
name = "gopher_filter"
min_words = 50
"""
    )
    stats = _run(config)
    t = pq.read_table(str(out))
    assert 0 < t.num_rows < 500  # the 50-word gate genuinely filters
    assert all(t["gopher_pass"].to_pylist())
    assert stats["algorithm"] == "gopher_filter"


def test_cli_scrub_rewrites_text_in_place(tmp_path):
    # an input column named like a staging column must survive, and the
    # rewritten text column keeps its position
    import pyarrow as pa

    from pathlib import Path

    src = pq.read_table(str(Path(DOCS).with_name("events.parquet")))
    src = src.append_column("__scrubbed", pa.array(["keep"] * src.num_rows))
    inp = tmp_path / "events.parquet"
    pq.write_table(src, str(inp))
    config = tmp_path / "run.toml"
    out = tmp_path / "out"
    config.write_text(
        f"""
[input]
path = "{inp}"
text_column = "props"
id_column = "event_id"

[output]
path = "{out}"

[algorithm]
name = "scrub"
pattern = '\\d+'
replacement = "<NUM>"
"""
    )
    _run(config)
    t = pq.read_table(str(out))
    assert t.num_rows == 1000
    import re

    assert not any(re.search(r"\d", p) for p in t["props"].to_pylist())
    assert sum(t["n_scrubbed"].to_pylist()) > 0
    assert t.column_names == src.column_names + ["n_scrubbed"]
    assert set(t["__scrubbed"].to_pylist()) == {"keep"}


def test_cli_token_budget_plan(tmp_path):
    config = tmp_path / "run.toml"
    out = tmp_path / "out"
    config.write_text(
        f"""
[input]
path = "{DOCS}"
id_column = "doc_id"

[output]
path = "{out}"

[algorithm]
name = "token_budget"
budget = 5000
"""
    )
    stats = _run(config)
    t = pq.read_table(str(out))
    assert stats["budget"] == 5000
    assert 0 < t.num_rows < 500
    toks = t["n_tokens"].to_pylist()
    offs = t["sel_offset"].to_pylist()
    assert max(o + n for o, n in zip(offs, toks)) <= 5000


def test_cli_minhash_keep_best(tmp_path):
    config = tmp_path / "run.toml"
    out = tmp_path / "out"
    config.write_text(
        f"""
[input]
path = "{DOCS}"
id_column = "doc_id"

[output]
path = "{out}"

[algorithm]
name = "minhash"
num_perm = 64
bands = 16
rows = 4
hash_func = "sha1"
keep_best_by = "n_tokens"
"""
    )
    stats = _run(config)
    assert stats["survivor_policy"] == "best:n_tokens"
    t = pq.read_table(str(out))
    # same cluster count as min-id policy, one survivor per cluster
    assert t.num_rows > 0 and "__CLUSTER__" not in t.column_names
    assert len(set(t["doc_id"].to_pylist())) == t.num_rows


def test_cli_substring_decontaminate(tmp_path):
    import pyarrow as pa

    secret = "the quick brown fox jumps over the lazy dog again and again!!"
    pq.write_table(
        pa.table({"doc_id": [0], "text": [f"bench doc holds {secret} inside"]}),
        tmp_path / "bench.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "doc_id": [0, 1],
                "text": ["A" * 30 + secret + "B" * 30, "clean document " * 10],
            }
        ),
        tmp_path / "corpus.parquet",
    )
    config = tmp_path / "run.toml"
    out = tmp_path / "out"
    config.write_text(
        f"""
[input]
path = "{tmp_path / 'corpus.parquet'}"
id_column = "doc_id"

[output]
path = "{out}"

[algorithm]
name = "substring_decontaminate"
benchmark_path = "{tmp_path / 'bench.parquet'}"
length_threshold = 32
"""
    )
    _run(config)
    t = pq.read_table(str(out)).to_pandas().sort_values("doc_id")
    assert t["doc_id"].tolist() == [0, 1]
    assert secret not in t["text"].iloc[0]
    assert t["text"].iloc[0].endswith("B" * 30)
    assert t["text"].iloc[1] == "clean document " * 10


def test_cli_multimodal(tmp_path):
    import sys as _s

    _s.path.insert(0, "/root/repo")
    from text_dedup_ray.data.gen import corpus_parquet

    path, _ = corpus_parquet(1000, seed=42)
    config = tmp_path / "run.toml"
    out = tmp_path / "out"
    config.write_text(
        f"""
[input]
path = "{path}"

[output]
path = "{out}"
save_clusters = false

[algorithm]
name = "multimodal"
caption_column = "caption"
num_perm = 32
bands = 8
rows = 4
hash_func = "sha1"
bit_diff = 2
num_bucket = 4
"""
    )
    _run(config)
    t = pq.read_table(str(out))
    assert 0 < t.num_rows < 1000
    assert "__CLUSTER__" not in t.column_names


def test_cli_fix_text(tmp_path):
    # corrupt a copy of the gate docs, run the fix_text mode, and check the
    # text column is repaired in place
    import pyarrow as pa

    src = pq.read_table(DOCS)
    mojibake = "Café".encode("utf-8").decode("latin-1")  # 'CafÃ©'
    texts = src["text"].to_pylist()
    texts[0] = mojibake + " &amp; x\r\n" + texts[0]
    corrupted = src.set_column(
        src.schema.get_field_index("text"), "text", pa.array(texts)
    )
    # an input column named like a staging column must survive, and the
    # repaired text column keeps its position
    corrupted = corrupted.append_column("__fixed", pa.array(["keep"] * src.num_rows))
    inp = tmp_path / "docs.parquet"
    pq.write_table(corrupted, str(inp))

    config = tmp_path / "run.toml"
    out = tmp_path / "out"
    config.write_text(
        f"""
[input]
path = "{inp}"
id_column = "doc_id"

[output]
path = "{out}"

[algorithm]
name = "fix_text"
"""
    )
    stats = _run(config)
    assert stats["algorithm"] == "fix_text"
    t = pq.read_table(str(out)).sort_by("doc_id")
    fixed = t["text"].to_pylist()
    assert fixed[0].startswith("Café & x\n")
    # clean rows untouched
    assert fixed[1:] == src["text"].to_pylist()[1:]
    assert t.column_names == corrupted.column_names
    assert set(t["__fixed"].to_pylist()) == {"keep"}


def test_cli_dup_rate(tmp_path):
    config = tmp_path / "run.toml"
    out = tmp_path / "out"
    config.write_text(
        f"""
[input]
path = "{DOCS}"
id_column = "doc_id"
text_column = "text"

[output]
path = "{out}"

[algorithm]
name = "dup_rate"
key = "source"
"""
    )
    stats = _run(config)
    assert stats["algorithm"] == "dup_rate"
    t = pq.read_table(str(out / "dup_rate.parquet"))
    assert t.column_names == ["source", "n_rows", "n_distinct_approx", "dup_rate_est"]
    assert t.num_rows == 20
    assert sum(t["n_rows"].to_pylist()) == 500
