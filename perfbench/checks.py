"""Output checks computed apart from the program.

Every check reads the written parquet output and compares it with the
benchmark's own copy of the input, using a tokenizer and a Jaccard join
written here, never the package's. Each check returns a list of failure
messages (empty when it holds) and records what it counted in ``stats``.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict

import pyarrow as pa
import pyarrow.parquet as pq

COLUMNS = ["image_id", "bytes", "w", "h", "fmt", "caption", "phash"]
MIN_TOKENS = 5
# Jaccard 0.8 as an exact fraction: J >= 4/5  <=>  5 |a & b| >= 4 |a | b|
JACCARD_NUM, JACCARD_DEN = 4, 5

_WORD = re.compile(r"\w+", re.UNICODE)


def tokens(text: str) -> list[str]:
    """Lower-cased runs of word characters (the reference's split on ``\\W``
    with empty pieces dropped yields the same list)."""
    return _WORD.findall(text.lower())


def bigram_set(text: str) -> frozenset[str]:
    toks = tokens(text)
    return frozenset(" ".join(toks[i : i + 2]) for i in range(len(toks) - 1))


def output_ids(path) -> set[str]:
    """Survivor image_ids of a written parquet output directory."""
    return set(pq.read_table(path, columns=["image_id"]).column("image_id").to_pylist())


def row_id_to_image_id(row_id: int) -> str:
    return f"img-{row_id:012d}"


def check_rows(source: pa.Table, out: pa.Table, stats: dict) -> list[str]:
    """Survivor ids are unique, every survivor equals its source row in every
    column, and input rows = survivors + removed rows."""
    fails = []
    if sorted(out.column_names) != sorted(COLUMNS):
        return [f"output columns {out.column_names} != {COLUMNS}"]
    out_ids = out.column("image_id").to_pylist()
    src_pos = {i: k for k, i in enumerate(source.column("image_id").to_pylist())}
    if len(set(out_ids)) != len(out_ids):
        fails.append(f"{len(out_ids) - len(set(out_ids))} duplicate survivor image_ids")
    unknown = [i for i in out_ids if i not in src_pos]
    if unknown:
        return fails + [f"{len(unknown)} survivors not in the input, e.g. {unknown[0]}"]
    src_rows = source.take(pa.array([src_pos[i] for i in out_ids]))
    for col in COLUMNS:
        if not src_rows.column(col).equals(out.column(col).cast(src_rows.schema.field(col).type)):
            fails.append(f"column {col} differs from the source row")
    removed = len(set(src_pos) - set(out_ids))
    if source.num_rows != len(set(out_ids)) + removed:
        fails.append(f"input {source.num_rows} != survivors {len(out_ids)} + removed {removed}")
    stats.update(input_rows=source.num_rows, survivors=len(out_ids), removed=removed)
    return fails


def similar_pairs(sets: dict[str, frozenset[str]]) -> list[tuple[str, str]]:
    """All pairs with Jaccard >= 4/5, exactly: prefix filtering over a global
    rare-first shingle order finds every candidate, then each candidate is
    verified with integer arithmetic."""
    df = Counter(s for sh in sets.values() for s in sh)
    index: dict[str, list[str]] = defaultdict(list)
    pairs = []
    for doc in sorted(sets, key=lambda d: (len(sets[d]), d)):
        sh = sets[doc]
        if not sh:
            continue
        ordered = sorted(sh, key=lambda s: (df[s], s))
        need = -(-JACCARD_NUM * len(sh) // JACCARD_DEN)  # ceil(0.8 |sh|)
        seen = set()
        for s in ordered[: len(sh) - need + 1]:
            for other in index[s]:
                if other in seen:
                    continue
                seen.add(other)
                o = sets[other]
                inter = len(sh & o)
                if JACCARD_DEN * inter >= JACCARD_NUM * (len(sh) + len(o) - inter):
                    pairs.append((other, doc))
            index[s].append(doc)
    return pairs


def _planted_singletons(source: pa.Table, truth: pa.Table) -> list[str]:
    kinds = truth.column("kind").to_pylist()
    caps = source.column("caption").to_pylist()
    ids = source.column("image_id").to_pylist()
    return [i for i, k, c in zip(ids, kinds, caps) if k == "singleton" and len(tokens(c)) >= MIN_TOKENS]


def check_minhash(source: pa.Table, truth: pa.Table, survivors: set[str], stats: dict) -> list[str]:
    """No survivor below MIN_TOKENS, no planted singleton removed, and no two
    survivors with bigram Jaccard >= 0.8 (LSH at 32 bands x 4 rows misses
    such a pair with probability below 1e-7)."""
    fails = []
    caps = dict(zip(source.column("image_id").to_pylist(), source.column("caption").to_pylist()))
    short = [i for i in survivors if len(tokens(caps[i])) < MIN_TOKENS]
    if short:
        fails.append(f"{len(short)} survivors have fewer than {MIN_TOKENS} tokens, e.g. {short[0]}")
    singles = _planted_singletons(source, truth)
    lost = [i for i in singles if i not in survivors]
    if lost:
        fails.append(f"{len(lost)} of {len(singles)} planted singletons were removed, e.g. {lost[0]}")
    kept = similar_pairs({i: bigram_set(caps[i]) for i in survivors})
    if kept:
        fails.append(f"{len(kept)} survivor pairs have Jaccard >= 0.8, e.g. {kept[0]}")
    # planted duplicate pairs at Jaccard >= 0.8, none of which may both survive
    clusters = defaultdict(list)
    for i, cid in zip(source.column("image_id").to_pylist(), truth.column("cluster_id").to_pylist()):
        clusters[cid].append(i)
    planted = 0
    for members in clusters.values():
        if len(members) > 1:
            planted += len(similar_pairs({i: bigram_set(caps[i]) for i in members
                                          if len(tokens(caps[i])) >= MIN_TOKENS}))
    stats.update(singletons=len(singles), singletons_removed=len(lost),
                 planted_pairs_ge_08=planted, survivor_pairs_ge_08=len(kept))
    return fails


def check_simhash(source: pa.Table, truth: pa.Table, survivors: set[str],
                  driver_path: set[str], stats: dict) -> list[str]:
    """No two survivors share a caption of MIN_TOKENS+ tokens, no planted
    singleton is removed, and the distributed path keeps exactly the rows
    the single-process CC path keeps."""
    fails = []
    caps = dict(zip(source.column("image_id").to_pylist(), source.column("caption").to_pylist()))
    by_caption = Counter(caps[i] for i in survivors if len(tokens(caps[i])) >= MIN_TOKENS)
    dup = [c for c, k in by_caption.items() if k > 1]
    if dup:
        fails.append(f"{len(dup)} captions survive more than once")
    singles = _planted_singletons(source, truth)
    lost = [i for i in singles if i not in survivors]
    if lost:
        fails.append(f"{len(lost)} of {len(singles)} planted singletons were removed, e.g. {lost[0]}")
    if survivors != driver_path:
        fails.append(
            f"distributed path kept {len(survivors)} rows, single-process path "
            f"{len(driver_path)}; {len(survivors ^ driver_path)} differ"
        )
    stats.update(singletons=len(singles), singletons_removed=len(lost),
                 driver_path_survivors=len(driver_path))
    return fails


def check_increment(boot: set[str], merged_old_roots: set[str], inc: set[str],
                    full: set[str], stats: dict) -> list[str]:
    """Bootstrap survivors minus the old roots the increment merged away,
    plus the increment's survivors, equal a full run over the whole corpus."""
    composed = (boot - merged_old_roots) | inc
    stats.update(bootstrap_survivors=len(boot), merged_old_roots=len(merged_old_roots),
                 increment_survivors=len(inc), composed=len(composed), full=len(full))
    missing = merged_old_roots - boot
    fails = [f"{len(missing)} merged old roots were not bootstrap survivors"] if missing else []
    if composed != full:
        fails.append(f"composed survivors {len(composed)} != full run {len(full)}; "
                     f"{len(composed ^ full)} differ")
    return fails
