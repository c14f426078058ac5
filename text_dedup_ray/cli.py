"""Config-driven CLI — the engine's equivalent of the reference's
``python -m text_dedup.<algo>`` entry points (reference: TOML +
pydantic-settings, config/base.py:16-43; here: stdlib tomllib, same shape).

Usage:
    python -m text_dedup_ray --config run.toml
    python -m text_dedup_ray --config run.toml --algorithm minhash

Config shape (all algorithm fields optional — defaults mirror the
reference's config.toml):

    [input]
    path = "/data/docs"          # file/dir/glob
    format = "parquet"           # parquet | csv | json | lance | hf_disk
    text_column = "text"
    id_column = "doc_id"         # optional; else deterministic fragment ids

    [output]
    path = "/out/deduped"
    skip_filtering = false       # keep all rows (annotated) instead of filtering
    save_clusters = true         # write clusters.parquet next to the output

    [algorithm]
    name = "minhash"             # minhash | simhash | exact | bloom | suffix_array | jaccard
                                 # | *_incremental | decontaminate | line_dedup | mix
                                 # | gopher_filter | scrub | fix_text | dup_rate | token_budget | ari | dsir | shuffle
    num_perm = 200
    ngram_size = 2
    keep_best_by = "n_tokens"    # minhash/simhash: per-cluster argmax survivor
    ...
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tomllib


def _load_input(cfg: dict):
    import ray.data

    from .sources.io import ROW_ID, read_parquet_with_row_ids, read_table, stamp_row_ids_from_key

    inp = cfg.get("input", {})
    path = inp["path"]
    fmt = inp.get("format", "parquet")
    id_column = inp.get("id_column")
    if id_column is None and fmt == "parquet":
        ds = read_parquet_with_row_ids(path)
    else:
        ds = read_table(path, fmt=fmt)
        if id_column is not None:
            ds = stamp_row_ids_from_key(ds, id_column)
        elif ROW_ID not in ds.schema().names:
            raise SystemExit("non-parquet inputs need input.id_column")
    return ds, inp.get("text_column", "text")


def _algo_kwargs(algo: dict, fields: set[str]) -> dict:
    return {k: v for k, v in algo.items() if k in fields}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="text_dedup_ray")
    parser.add_argument("--config", required=True)
    parser.add_argument("--algorithm", help="override [algorithm].name")
    args = parser.parse_args(argv)

    with open(args.config, "rb") as f:
        cfg = tomllib.load(f)
    algo = dict(cfg.get("algorithm", {}))
    name = args.algorithm or algo.pop("name", "minhash")
    out = cfg.get("output", {})
    out_path = out.get("path", "./deduped")
    skip_filtering = bool(out.get("skip_filtering", False))
    save_clusters = bool(out.get("save_clusters", True))

    if name == "prune_state":
        # tiered-state GC: delete superseded self-contained snapshots (all
        # incremental families share the meta.json + v%05d convention);
        # pure filesystem work — no dataset, no Ray session
        from .pipelines.incremental import prune_state_versions

        state_dir = algo.get("state_dir")
        if not state_dir:
            raise SystemExit("prune_state needs algorithm.state_dir")
        keep_last = int(algo.get("keep_last", 1))
        removed = prune_state_versions(state_dir, keep_last=keep_last)
        print(
            json.dumps(
                {
                    "algorithm": name,
                    "state_dir": state_dir,
                    "keep_last": keep_last,
                    "removed_versions": removed,
                }
            )
        )
        return

    if name == "compact_state":
        # consolidate a tiered state into ONE self-contained snapshot:
        # fold additive-family (exact/*_posting) cluster history into the
        # current version, then prune everything older; pure filesystem
        # work — no dataset, no Ray session
        from .pipelines.incremental import compact_state

        state_dir = algo.get("state_dir")
        if not state_dir:
            raise SystemExit("compact_state needs algorithm.state_dir")
        report = compact_state(state_dir)
        print(json.dumps({"algorithm": name, "state_dir": state_dir, **report}))
        return

    if name == "state_info":
        # describe a tiered-index state dir: current meta + per-snapshot
        # file/byte footprint (what prune_state would reclaim)
        import os as _os
        import re as _re

        from .pipelines.incremental import load_meta

        state_dir = algo.get("state_dir")
        if not state_dir:
            raise SystemExit("state_info needs algorithm.state_dir")
        meta = load_meta(state_dir)
        versions = []
        for d in sorted(_os.listdir(state_dir)):
            if not _re.fullmatch(r"v\d{5}", d):
                continue
            n_files = n_bytes = 0
            for root, _dirs, files in _os.walk(_os.path.join(state_dir, d)):
                for f in files:
                    n_files += 1
                    n_bytes += _os.path.getsize(_os.path.join(root, f))
            versions.append(
                {"version": int(d[1:]), "files": n_files, "bytes": n_bytes}
            )
        current = int(meta.get("version", 0))
        print(
            json.dumps(
                {
                    "algorithm": name,
                    "state_dir": state_dir,
                    "meta": meta,
                    "versions": versions,
                    "reclaimable_bytes": sum(
                        v["bytes"] for v in versions if v["version"] < current
                    ),
                }
            )
        )
        return

    if name == "check_state":
        # state fsck: structural + invariant checks for any tiered state
        # dir (index files present/readable, min-root cluster invariant,
        # no conflicting cluster rows, rollback sidecars); exit code 1 on
        # errors so cron/CI can gate on it
        from .state.fsck import check_state

        state_dir = algo.get("state_dir")
        if not state_dir:
            raise SystemExit("check_state needs algorithm.state_dir")
        report = check_state(state_dir)
        print(json.dumps({"algorithm": name, "state_dir": state_dir, **report}))
        if not report["ok"]:
            raise SystemExit(1)
        return

    if name == "rollback_state":
        # undo a bad batch: restore an earlier snapshot's meta (max_row_id
        # rewinds with it) and drop every newer version dir
        from .pipelines.incremental import load_meta, rollback_state

        state_dir = algo.get("state_dir")
        to_version = algo.get("to_version")
        if not state_dir or to_version is None:
            raise SystemExit("rollback_state needs algorithm.state_dir and .to_version")
        removed = rollback_state(state_dir, int(to_version))
        print(
            json.dumps(
                {
                    "algorithm": name,
                    "state_dir": state_dir,
                    "version": int(load_meta(state_dir)["version"]),
                    "removed_versions": removed,
                }
            )
        )
        return

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    if name == "union_state":
        # federated tiered dedup: merge two independently-built minhash
        # states (disjoint id ranges, same config) into one state that is
        # equivalent to a bootstrap over the union corpus — needs Ray (the
        # per-partition rep merges are tasks) but no [input] dataset
        from .pipelines.incremental import load_meta, minhash_state_union
        from .pipelines.incremental_exact import exact_state_union

        sa = algo.get("state_a")
        sb = algo.get("state_b")
        out_state = algo.get("out_state")
        if not (sa and sb and out_state):
            raise SystemExit(
                "union_state needs algorithm.state_a, .state_b and .out_state"
            )
        family = load_meta(sa).get("algo")
        union_fn = {"minhash": minhash_state_union, "exact": exact_state_union}.get(
            family
        )
        if union_fn is None and family == "embedding_lsh":
            from .pipelines.incremental_embedding import embedding_state_union

            union_fn = embedding_state_union
        kwargs = {"validate_ids": bool(algo.get("validate_ids", True))}
        if union_fn is None and family == "simhash":
            # SimHash union needs the build config (bit_diff lives there,
            # not in the index) — same [algorithm] fields as simhash modes
            from .functions.simhash import SimHashConfig
            from .pipelines.incremental import simhash_state_union

            fields = {f for f in SimHashConfig.__dataclass_fields__}
            kwargs["cfg"] = SimHashConfig(**_algo_kwargs(dict(algo), fields))
            kwargs["text_column"] = algo.get("text_column", "text")
            if algo.get("signature_column"):
                kwargs["signature_column"] = algo["signature_column"]
            union_fn = simhash_state_union
        if union_fn is None and str(family).endswith("_posting"):
            # family-agnostic posting-index union: jaccard / video / audio
            from .pipelines.incremental_jaccard import posting_state_union

            union_fn = posting_state_union
        if union_fn is None and family in (
            "hll_sketch", "cms_sketch", "bottomk_sketch", "bloom"
        ):
            # register-state families: the merge IS the exact set union
            # (HLL max / CMS sum / bottom-k refold / Bloom bitwise-OR),
            # natively k-way
            from .pipelines.bloom import bloom_state_union
            from .pipelines.incremental_sketch import (
                bottomk_state_union,
                cms_state_union,
                hll_state_union,
            )

            reg_fn = {
                "hll_sketch": hll_state_union,
                "cms_sketch": cms_state_union,
                "bottomk_sketch": bottomk_state_union,
                "bloom": bloom_state_union,
            }[family]
            version = reg_fn(sa, sb, out_state)
            out = {
                "algorithm": name,
                "family": family,
                "out_state": out_state,
                "state_version": version,
            }
            if "max_row_id" in load_meta(out_state):
                out["max_row_id"] = int(load_meta(out_state)["max_row_id"])
            print(json.dumps(out))
            return
        if union_fn is None:
            raise SystemExit(f"union_state does not support '{family}' states")
        if isinstance(sb, list) and union_fn is not minhash_state_union:
            raise SystemExit(
                "k-way union (state_b as a list) is minhash-only; chain "
                "pairwise unions for other families"
            )
        version, merges = union_fn(sa, sb, out_state, **kwargs)
        print(
            json.dumps(
                {
                    "algorithm": name,
                    "family": family,
                    "out_state": out_state,
                    "state_version": version,
                    "merged_roots": len(merges),
                    "max_row_id": int(load_meta(out_state)["max_row_id"]),
                }
            )
        )
        return

    # Read-block granularity: Ray's default (>=200 blocks/read op) is kept —
    # the measured optimum is ~one actor batch (2048 rows) per block, and
    # CLI inputs can be arbitrarily large, where lowering the target causes
    # multi-batch bundles that stall actor pools (bench.py sizes its floor
    # from the known corpus row count instead).
    ds, text_column = _load_input(cfg)

    if name == "probe_state":
        # READ-ONLY admission probe: score the input batch against a saved
        # tiered state WITHOUT writing a new version — dispatches on the
        # state's algo tag (exact membership / minhash LSH candidacy /
        # jaccard shingle novelty)
        import ray.data

        from .pipelines.incremental import load_meta
        from .sources.io import write_output

        state_dir = algo.get("state_dir")
        if not state_dir:
            raise SystemExit("probe_state needs algorithm.state_dir")
        family = load_meta(state_dir).get("algo")
        id_column = algo.get("id_column")
        if family == "exact":
            from .pipelines.incremental_exact import exact_probe_vs_state

            probe = exact_probe_vs_state(ds, state_dir, id_column=id_column)
        elif family == "minhash":
            from .functions.minhash import MinHashConfig
            from .pipelines.incremental import minhash_probe_vs_state

            fields = {f for f in MinHashConfig.__dataclass_fields__}
            probe = minhash_probe_vs_state(
                ds, state_dir,
                text_column=algo.get("text_column", text_column),
                cfg=MinHashConfig(**_algo_kwargs(dict(algo), fields)),
                id_column=id_column,
            )
        elif family == "jaccard_posting":
            from .pipelines.incremental_jaccard import jaccard_novelty_vs_state

            probe = jaccard_novelty_vs_state(ds, state_dir, id_column=id_column)
        else:
            raise SystemExit(f"probe_state does not support '{family}' states")
        # row_id IS the probe payload — keep it in the output
        write_output(probe, out_path, drop_internal=False)
        n = ray.data.read_parquet(out_path).count()
        print(
            json.dumps(
                {
                    "algorithm": name,
                    "family": family,
                    "state_dir": state_dir,
                    "output": out_path,
                    "rows": n,
                }
            )
        )
        return
    t0 = time.perf_counter()
    stats: dict = {"algorithm": name}
    parents = None

    # [algorithm].keep_best_by = "<score column>": quality-aware survivor
    # policy — per cluster keep the HIGHEST-scoring member instead of the
    # min-id one ("n_tokens" is computed on the fly when absent)
    def _apply_keep_best(assigned, score_col: str):
        from .pipelines.select import keep_best_in_cluster
        from .sources.io import ROW_ID

        if score_col == "n_tokens" and "n_tokens" not in assigned.schema().names:
            from .pipelines.textops import with_token_counts

            assigned = with_token_counts(assigned, text_column=text_column)
        best = keep_best_in_cluster(assigned, "__CLUSTER__", score_col, ROW_ID)
        drop = [c for c in ("__CLUSTER__", "__duplicate__") if c in best.schema().names]
        return best.drop_columns(drop) if drop else best

    if name == "minhash":
        from .functions.minhash import MinHashConfig
        from .pipelines.minhash import minhash_dedup

        keep_best_by = algo.pop("keep_best_by", None)
        fields = {f for f in MinHashConfig.__dataclass_fields__}
        mh_cfg = MinHashConfig(**_algo_kwargs(algo, fields))
        res = minhash_dedup(ds, text_column=text_column, cfg=mh_cfg, skip_filtering=skip_filtering)
        result_ds, parents = res.deduped, res.parents
        if keep_best_by and not skip_filtering:
            result_ds = _apply_keep_best(res.assigned, keep_best_by)
            stats["survivor_policy"] = f"best:{keep_best_by}"
        stats.update(res.metrics)
    elif name == "simhash":
        from .functions.simhash import SimHashConfig
        from .pipelines.simhash import simhash_dedup

        keep_best_by = algo.pop("keep_best_by", None)
        fields = {f for f in SimHashConfig.__dataclass_fields__}
        sh_cfg = SimHashConfig(**_algo_kwargs(algo, fields))
        res = simhash_dedup(ds, text_column=text_column, cfg=sh_cfg, skip_filtering=skip_filtering)
        result_ds, parents = res.deduped, res.parents
        if keep_best_by and not skip_filtering:
            result_ds = _apply_keep_best(res.assigned, keep_best_by)
            stats["survivor_policy"] = f"best:{keep_best_by}"
    elif name == "exact":
        from .pipelines.exact import exact_dedup

        result_ds = exact_dedup(ds, text_column=text_column)
    elif name in ("bloom", "bloom_filter"):
        # true probabilistic Bloom semantics (reference bloom_filter.py:63-94;
        # max_elements/error_rate as in rbloom.Bloom); skip_filtering keeps
        # every row stamped with a `duplicate` column, like the reference
        from .pipelines.bloom import bloom_dedup

        result_ds = bloom_dedup(
            ds,
            text_column=text_column,
            max_elements=int(algo.get("max_elements", 1_000_000)),
            error_rate=float(algo.get("error_rate", 1e-9)),
            num_shards=int(algo.get("num_shards", 32)),
            keep_flag=skip_filtering,
        )
        stats["bloom"] = {
            "max_elements": int(algo.get("max_elements", 1_000_000)),
            "error_rate": float(algo.get("error_rate", 1e-9)),
        }
    elif name == "suffix_array":
        from .pipelines.suffix_array import suffix_array_dedup, suffix_array_dedup_global

        if algo.get("global", True):
            result_ds = suffix_array_dedup_global(
                ds,
                text_column=text_column,
                length_threshold=int(algo.get("length_threshold", 100)),
                merge_strategy=algo.get("merge_strategy", "longest"),
            )
        else:
            result_ds = suffix_array_dedup(
                ds,
                text_column=text_column,
                length_threshold=int(algo.get("length_threshold", 100)),
                merge_strategy=algo.get("merge_strategy", "longest"),
            )
    elif name == "minhash_incremental":
        # tiered dedup: [algorithm].state_dir carries the LSH index across
        # runs; the first run bootstraps it, later runs increment against it
        from .functions.minhash import MinHashConfig
        from .pipelines.incremental import load_meta, minhash_bootstrap, minhash_increment

        state_dir = algo.pop("state_dir", None)
        if not state_dir:
            raise SystemExit("minhash_incremental needs [algorithm].state_dir")
        fields = {f for f in MinHashConfig.__dataclass_fields__}
        mh_cfg = MinHashConfig(**_algo_kwargs(algo, fields))
        import os as _os

        if _os.path.exists(_os.path.join(state_dir, "meta.json")):
            res = minhash_increment(ds, state_dir, text_column=text_column, cfg=mh_cfg)
            stats["mode"] = "increment"
            stats["merged_old_roots"] = len(res.merged_old_roots)
        else:
            res = minhash_bootstrap(ds, state_dir, text_column=text_column, cfg=mh_cfg)
            stats["mode"] = "bootstrap"
        result_ds = res.assigned if skip_filtering else res.deduped
        stats["state_version"] = res.state_version
        stats.update(res.metrics)
    elif name == "hll_incremental":
        # tiered SKETCH state: persist per-key HLL registers across runs —
        # the first run bootstraps, later runs max-merge the new batch in
        # (bit-identical to a full re-run); output = the register table,
        # per-key cardinality estimates land in the stats line
        import os as _os

        import ray.data as _rd

        from .pipelines.incremental_sketch import (
            hll_state_bootstrap,
            hll_state_estimate,
            hll_state_increment,
            hll_state_registers,
        )

        state_dir = algo.get("state_dir")
        if not state_dir:
            raise SystemExit("hll_incremental needs [algorithm].state_dir")
        key = algo.get("key")
        if _os.path.exists(_os.path.join(state_dir, "meta.json")):
            v = hll_state_increment(ds, state_dir)
            stats["mode"] = "increment"
        else:
            v = hll_state_bootstrap(
                ds,
                state_dir,
                algo.get("column", text_column),
                key=key,
                precision=int(algo.get("precision", 12)),
                num_partitions=int(algo.get("num_partitions", 8)),
            )
            stats["mode"] = "bootstrap"
        stats["state_version"] = v
        est = hll_state_estimate(state_dir).to_pylist()
        stats["estimates"] = {
            (str(r[key]) if key else "__all__"): int(r["approx_n"]) for r in est
        }
        result_ds = _rd.from_arrow(hll_state_registers(state_dir))
    elif name == "cms_incremental":
        # tiered SKETCH state #2: persist count-min frequency cells across
        # runs — cell merge is integer SUM (bit-identical to a full
        # re-run); output = the cell table; optional [algorithm].items get
        # point-frequency estimates in the stats line
        import os as _os

        import ray.data as _rd

        from .pipelines.incremental_sketch import (
            cms_state_bootstrap,
            cms_state_estimate,
            cms_state_increment,
            cms_state_registers,
        )

        state_dir = algo.get("state_dir")
        if not state_dir:
            raise SystemExit("cms_incremental needs [algorithm].state_dir")
        if _os.path.exists(_os.path.join(state_dir, "meta.json")):
            v = cms_state_increment(ds, state_dir)
            stats["mode"] = "increment"
        else:
            v = cms_state_bootstrap(
                ds,
                state_dir,
                algo.get("column", text_column),
                depth=int(algo.get("depth", 4)),
                width=int(algo.get("width", 1024)),
                num_partitions=int(algo.get("num_partitions", 8)),
            )
            stats["mode"] = "bootstrap"
        stats["state_version"] = v
        items = algo.get("items")
        if items:
            stats["estimates"] = {
                str(k): int(n)
                for k, n in cms_state_estimate(state_dir, list(items)).items()
            }
        result_ds = _rd.from_arrow(cms_state_registers(state_dir))
    elif name == "simhash_incremental":
        from .functions.simhash import SimHashConfig
        from .pipelines.incremental import simhash_bootstrap, simhash_increment

        state_dir = algo.pop("state_dir", None)
        if not state_dir:
            raise SystemExit("simhash_incremental needs [algorithm].state_dir")
        fields = {f for f in SimHashConfig.__dataclass_fields__}
        sh_cfg = SimHashConfig(**_algo_kwargs(algo, fields))
        import os as _os

        if _os.path.exists(_os.path.join(state_dir, "meta.json")):
            res = simhash_increment(ds, state_dir, text_column=text_column, cfg=sh_cfg)
            stats["mode"] = "increment"
            stats["merged_old_roots"] = len(res.merged_old_roots)
        else:
            res = simhash_bootstrap(ds, state_dir, text_column=text_column, cfg=sh_cfg)
            stats["mode"] = "bootstrap"
        result_ds = res.assigned if skip_filtering else res.deduped
        stats["state_version"] = res.state_version
        stats.update(res.metrics)
    elif name == "bloom_incremental":
        # tiered Bloom: persisted per-shard register bits resume the walk
        # exactly (FPs included); register size is fixed at bootstrap, so
        # max_elements must cover the EVENTUAL corpus
        from .pipelines.bloom import bloom_bootstrap, bloom_increment

        state_dir = algo.pop("state_dir", None)
        if not state_dir:
            raise SystemExit("bloom_incremental needs [algorithm].state_dir")
        import os as _os

        if _os.path.exists(_os.path.join(state_dir, "meta.json")):
            res = bloom_increment(ds, state_dir, text_column=text_column)
            stats["mode"] = "increment"
        else:
            res = bloom_bootstrap(
                ds, state_dir, text_column=text_column,
                max_elements=int(algo.get("max_elements", 1_000_000)),
                error_rate=float(algo.get("error_rate", 1e-9)),
                num_shards=int(algo.get("num_shards", 32)),
            )
            stats["mode"] = "bootstrap"
        result_ds = res.flagged if skip_filtering else res.deduped
        stats["state_version"] = res.state_version
        stats.update(res.metrics)
    elif name == "exact_incremental":
        from .pipelines.incremental_exact import exact_bootstrap, exact_increment

        state_dir = algo.pop("state_dir", None)
        if not state_dir:
            raise SystemExit("exact_incremental needs [algorithm].state_dir")
        import os as _os

        if _os.path.exists(_os.path.join(state_dir, "meta.json")):
            res = exact_increment(ds, state_dir, text_column=text_column)
            stats["mode"] = "increment"
        else:
            res = exact_bootstrap(ds, state_dir, text_column=text_column)
            stats["mode"] = "bootstrap"
        result_ds = res.assigned if skip_filtering else res.deduped
        stats["state_version"] = res.state_version
        stats.update(res.metrics)
    elif name == "suffix_incremental":
        # tiered substring dedup: first run bootstraps the anchor index; later
        # runs clean ONLY the new input against [algorithm].old_path (the
        # ORIGINAL text of all prior batches) + the new input itself
        from .pipelines.incremental_suffix import suffix_bootstrap, suffix_increment

        state_dir = algo.pop("state_dir", None)
        if not state_dir:
            raise SystemExit("suffix_incremental needs [algorithm].state_dir")
        import os as _os

        if _os.path.exists(_os.path.join(state_dir, "meta.json")):
            old_path = algo.get("old_path")
            if not old_path:
                raise SystemExit(
                    "suffix_incremental increments need [algorithm].old_path "
                    "(original text of bootstrap + prior increments)"
                )
            import ray.data as _rd

            old_ds = _rd.read_parquet(old_path)
            id_col = cfg.get("input", {}).get("id_column")
            result_ds, version, metrics = suffix_increment(
                ds, state_dir, old_ds, id_column=id_col,
                merge_strategy=algo.get("merge_strategy", "longest"),
            )
            stats["mode"] = "increment"
        else:
            result_ds, version, metrics = suffix_bootstrap(
                ds, state_dir, text_column=text_column,
                length_threshold=int(algo.get("length_threshold", 100)),
                merge_strategy=algo.get("merge_strategy", "longest"),
            )
            stats["mode"] = "bootstrap"
        stats["state_version"] = version
        stats.update(metrics)
    elif name == "embedding_incremental":
        # tiered embedding-cosine dedup over a vector table: input.path must
        # carry [input].id_column + [algorithm].embedding_column (list<float>)
        from .pipelines.incremental_embedding import (
            embedding_bootstrap,
            embedding_increment,
        )

        state_dir = algo.pop("state_dir", None)
        if not state_dir:
            raise SystemExit("embedding_incremental needs [algorithm].state_dir")
        emb_col = algo.get("embedding_column", "embedding")
        import os as _os

        if _os.path.exists(_os.path.join(state_dir, "meta.json")):
            res = embedding_increment(ds, state_dir, id_column=None)
            stats["mode"] = "increment"
            stats["merged_old_roots"] = len(res.merged_old_roots)
        else:
            res = embedding_bootstrap(
                ds, state_dir, embedding_column=emb_col, id_column=None,
                threshold=float(algo.get("threshold", 0.95)),
                num_tables=int(algo.get("num_tables", 8)),
                num_bits=int(algo.get("num_bits", 10)),
                seed=int(algo.get("seed", 42)),
            )
            stats["mode"] = "bootstrap"
        result_ds = res.assigned if skip_filtering else res.deduped
        stats["state_version"] = res.state_version
        stats.update(res.metrics)
    elif name == "phash_incremental":
        # tiered IMAGE near-dup over a stored 64-bit perceptual-hash column
        # ([algorithm].phash_column, default "phash") — no text involved
        from .pipelines.images import phash_bootstrap, phash_increment

        state_dir = algo.pop("state_dir", None)
        if not state_dir:
            raise SystemExit("phash_incremental needs [algorithm].state_dir")
        import os as _os

        kw = dict(
            bit_diff=int(algo.get("bit_diff", 2)),
            num_bucket=int(algo.get("num_bucket", 4)),
            phash_column=algo.get("phash_column", "phash"),
        )
        if _os.path.exists(_os.path.join(state_dir, "meta.json")):
            res = phash_increment(ds, state_dir, **kw)
            stats["mode"] = "increment"
            stats["merged_old_roots"] = len(res.merged_old_roots)
        else:
            res = phash_bootstrap(ds, state_dir, **kw)
            stats["mode"] = "bootstrap"
        result_ds = res.assigned if skip_filtering else res.deduped
        stats["state_version"] = res.state_version
        stats.update(res.metrics)
    elif name == "jaccard_incremental":
        from .pipelines.incremental_jaccard import jaccard_bootstrap, jaccard_increment

        state_dir = algo.pop("state_dir", None)
        if not state_dir:
            raise SystemExit("jaccard_incremental needs [algorithm].state_dir")
        import os as _os

        if _os.path.exists(_os.path.join(state_dir, "meta.json")):
            res = jaccard_increment(ds, state_dir)
            stats["mode"] = "increment"
            stats["merged_old_roots"] = len(res.merged_old_roots)
        else:
            res = jaccard_bootstrap(
                ds, state_dir, text_column=text_column,
                ngram_size=int(algo.get("ngram_size", 3)),
                min_length=int(algo.get("min_length", 5)),
                threshold=float(algo.get("threshold", 0.8)),
                df_cap=int(algo.get("df_cap", 200)),
            )
            stats["mode"] = "bootstrap"
        result_ds = res.assigned if skip_filtering else res.deduped
        stats["state_version"] = res.state_version
        stats.update(res.metrics)
    elif name == "jaccard":
        from .pipelines.jaccard_dedup import ngram_jaccard_dedup
        from .stages.assign import assign_clusters, filter_cluster_roots

        parents = ngram_jaccard_dedup(
            ds,
            text_column=text_column,
            ngram_size=int(algo.get("ngram_size", 3)),
            min_length=int(algo.get("min_length", 5)),
            threshold=float(algo.get("threshold", 0.8)),
        )
        assigned = assign_clusters(ds, parents)
        result_ds = assigned if skip_filtering else filter_cluster_roots(assigned)
    elif name == "editdist":
        # token-edit-distance-1 dedup (deletion-neighborhood key join)
        from .pipelines.editdist import token_ed1_dedup
        from .sources.io import ROW_ID
        from .stages.assign import assign_clusters, filter_cluster_roots

        parents = token_ed1_dedup(
            ds,
            id_column=ROW_ID,
            text_column=text_column,
            num_partitions=int(algo.get("num_partitions", 16)),
        )
        assigned = assign_clusters(ds, parents)
        result_ds = assigned if skip_filtering else filter_cluster_roots(assigned)
    elif name == "decontaminate":
        from .pipelines.decontaminate import decontaminate
        from .sources.io import read_table

        bench_path = algo.get("benchmark_path") or cfg.get("benchmark", {}).get("path")
        if not bench_path:
            raise SystemExit("decontaminate needs algorithm.benchmark_path")
        bench = read_table(
            bench_path, fmt=algo.get("benchmark_format", "parquet")
        )
        res = decontaminate(
            ds,
            bench,
            text_column=text_column,
            bench_text_column=algo.get("benchmark_text_column", text_column),
            ngram_size=int(algo.get("ngram_size", 8)),
            min_length=int(algo.get("min_length", 0)),
            threshold=float(algo.get("threshold", 0.8)),
            mode=algo.get("mode", "fraction"),
        )
        stats["decontaminate"] = res.metrics
        result_ds = res.annotated if skip_filtering else res.clean
    elif name == "multimodal":
        # OR-fusion image dedup: caption LSH UNION phash Hamming -> one CC
        from .functions.minhash import MinHashConfig
        from .pipelines.images import multimodal_dedup

        fields = {f for f in MinHashConfig.__dataclass_fields__}
        mm_cfg = MinHashConfig(**_algo_kwargs(algo, fields))
        result_ds = multimodal_dedup(
            ds=ds,
            cfg=mm_cfg,
            bit_diff=int(algo.get("bit_diff", 2)),
            num_bucket=int(algo.get("num_bucket", 4)),
            caption_column=algo.get("caption_column", text_column),
            phash_column=algo.get("phash_column", "phash"),
        )
        drop = [c for c in ("__CLUSTER__", "__duplicate__") if c in result_ds.schema().names]
        if drop:
            result_ds = result_ds.drop_columns(drop)
    elif name == "video_dedup":
        # video near-dup: frame-phash-set Jaccard (rawv container only —
        # real codecs raise NotImplementedError; pipelines/video.py)
        from .pipelines.video import video_ids_to_row_ids, video_near_dedup
        from .sources.io import ROW_ID
        from .stages.assign import assign_clusters, filter_cluster_roots

        vid_col = algo.get("id_column", "video_id")
        # prefer the natural 'vid-%09d' key over _load_input's positional
        # stamp: the same video must map to the same row_id across runs
        if vid_col in ds.schema().names:
            if ROW_ID in ds.schema().names:
                ds = ds.drop_columns([ROW_ID])
            ds = video_ids_to_row_ids(ds, vid_col)
        parents = video_near_dedup(
            ds,
            every_n=int(algo.get("every_n", 1)),
            threshold=float(algo.get("threshold", 0.5)),
            id_column=vid_col,
        )
        assigned = assign_clusters(ds, parents)
        result_ds = assigned if skip_filtering else filter_cluster_roots(assigned)
    elif name == "video_incremental":
        # tiered video near-dup against a saved frame-phash posting index
        from .pipelines.incremental_video import video_bootstrap, video_increment

        state_dir = algo.pop("state_dir", None)
        if not state_dir:
            raise SystemExit("video_incremental needs [algorithm].state_dir")
        import os as _os

        vid_col = algo.get("id_column", "video_id")
        from .pipelines.video import video_ids_to_row_ids
        from .sources.io import ROW_ID

        if vid_col in ds.schema().names:
            if ROW_ID in ds.schema().names:
                ds = ds.drop_columns([ROW_ID])
            ds = video_ids_to_row_ids(ds, vid_col)
        if _os.path.exists(_os.path.join(state_dir, "meta.json")):
            res = video_increment(ds, state_dir, id_column=vid_col)
            stats["mode"] = "increment"
            stats["merged_old_roots"] = len(res.merged_old_roots)
        else:
            res = video_bootstrap(
                ds,
                state_dir,
                every_n=int(algo.get("every_n", 1)),
                threshold=float(algo.get("threshold", 0.5)),
                id_column=vid_col,
            )
            stats["mode"] = "bootstrap"
        result_ds = res.assigned if skip_filtering else res.deduped
        stats["state_version"] = res.state_version
        stats.update(res.metrics)
    elif name == "audio_dedup":
        # audio near-dup: window-fingerprint-set Jaccard (rawa container
        # only — real codecs raise NotImplementedError; pipelines/audio.py)
        from .pipelines.audio import audio_ids_to_row_ids, audio_near_dedup
        from .sources.io import ROW_ID
        from .stages.assign import assign_clusters, filter_cluster_roots

        aud_col = algo.get("id_column", "audio_id")
        if aud_col in ds.schema().names:
            if ROW_ID in ds.schema().names:
                ds = ds.drop_columns([ROW_ID])
            ds = audio_ids_to_row_ids(ds, aud_col)
        parents = audio_near_dedup(
            ds,
            threshold=float(algo.get("threshold", 0.5)),
            id_column=aud_col,
        )
        assigned = assign_clusters(ds, parents)
        result_ds = assigned if skip_filtering else filter_cluster_roots(assigned)
    elif name == "audio_incremental":
        # tiered audio near-dup against a saved fingerprint posting index
        from .pipelines.audio import audio_ids_to_row_ids
        from .pipelines.incremental_audio import audio_bootstrap, audio_increment
        from .sources.io import ROW_ID

        state_dir = algo.pop("state_dir", None)
        if not state_dir:
            raise SystemExit("audio_incremental needs [algorithm].state_dir")
        import os as _os

        aud_col = algo.get("id_column", "audio_id")
        if aud_col in ds.schema().names:
            if ROW_ID in ds.schema().names:
                ds = ds.drop_columns([ROW_ID])
            ds = audio_ids_to_row_ids(ds, aud_col)
        if _os.path.exists(_os.path.join(state_dir, "meta.json")):
            res = audio_increment(ds, state_dir, id_column=aud_col)
            stats["mode"] = "increment"
            stats["merged_old_roots"] = len(res.merged_old_roots)
        else:
            res = audio_bootstrap(
                ds,
                state_dir,
                threshold=float(algo.get("threshold", 0.5)),
                id_column=aud_col,
            )
            stats["mode"] = "bootstrap"
        result_ds = res.assigned if skip_filtering else res.deduped
        stats["state_version"] = res.state_version
        stats.update(res.metrics)
    elif name == "substring_decontaminate":
        # cut every >= length_threshold-byte run shared with the benchmark
        from .pipelines.decontaminate import substring_decontaminate
        from .sources.io import read_table

        bench_path = algo.get("benchmark_path") or cfg.get("benchmark", {}).get("path")
        if not bench_path:
            raise SystemExit("substring_decontaminate needs algorithm.benchmark_path")
        bench = read_table(bench_path, fmt=algo.get("benchmark_format", "parquet"))
        result_ds = substring_decontaminate(
            ds,
            bench,
            text_column=text_column,
            bench_text_column=algo.get("benchmark_text_column", text_column),
            length_threshold=int(algo.get("length_threshold", 64)),
            drop_empty=not skip_filtering,
        )
    elif name == "line_dedup":
        from .pipelines.lines import line_dedup
        from .sources.io import ROW_ID

        result_ds = line_dedup(
            ds,
            text_column=text_column,
            id_column=ROW_ID,  # _load_input guarantees the stamp
            min_line_length=int(algo.get("min_line_length", 1)),
            num_partitions=int(algo.get("num_partitions", 16)),
            delimiter=algo.get("delimiter", "\n"),
        )
        if not skip_filtering:  # drop docs whose every line was cut
            import pyarrow.compute as _pc

            result_ds = result_ds.map_batches(
                lambda b: b.filter(_pc.not_equal(b[text_column], "")),
                batch_format="pyarrow",
            )
    elif name == "gopher_filter":
        from .pipelines.textops import with_gopher_rules

        kw = {
            k: algo[k]
            for k in (
                "min_words", "max_words", "min_mean_word_len",
                "max_mean_word_len", "max_symbol_word_ratio", "min_stopword_hits",
            )
            if k in algo
        }
        result_ds = with_gopher_rules(ds, text_column=text_column, **kw)
        if not skip_filtering:
            import pyarrow.compute as _pc

            result_ds = result_ds.map_batches(
                lambda b: b.filter(_pc.equal(b["gopher_pass"], True)),
                batch_format="pyarrow",
            )
    elif name == "dup_rate":
        # dedup pre-flight: per-key (or global) row count + HLL approximate
        # distinct + implied exact-dup rate — prints the report as JSON and
        # writes it as parquet; no dedup state is built
        from .pipelines.sketch import dup_rate_estimate

        t = dup_rate_estimate(
            ds,
            text_column,
            key=algo.get("key"),
            precision=int(algo.get("precision", 12)),
        )
        import os as _os

        import pyarrow.parquet as _pq

        _os.makedirs(out_path, exist_ok=True)
        _pq.write_table(t, f"{out_path}/dup_rate.parquet")
        # stdout carries a bounded preview only — the full per-key report
        # (unbounded in key cardinality) lives in the parquet file
        print(
            json.dumps(
                {
                    "algorithm": name,
                    "rows": t.num_rows,
                    "report_preview": t.slice(0, 50).to_pydict(),
                    "output": f"{out_path}/dup_rate.parquet",
                }
            )
        )
        return
    elif name == "fix_text":
        # in-place encoding repair (the reference's ftfy seam): entity
        # unescape, cp1252 mojibake repair, CRLF normalize, control strip,
        # NFC — text_column is rewritten in place
        from .pipelines.textops import with_fixed_text

        result_ds = with_fixed_text(
            ds,
            text_column,
            out_column=text_column,
            fixer=algo.get("fixer", "native"),
        )
    elif name == "scrub":
        # in-place redaction: text_column is rewritten, n_scrubbed counts hits
        from .pipelines.textops import with_scrubbed

        pattern = algo.get("pattern")
        if not pattern:
            raise SystemExit("scrub needs [algorithm].pattern (RE2)")
        result_ds = with_scrubbed(
            ds,
            text_column,
            pattern,
            algo.get("replacement", "<REDACTED>"),
            out_column=text_column,
        )
    elif name == "token_budget":
        # greedy selection plan under a global token budget; output is the
        # (id, tokens, score, sel_offset) PLAN table — semi-join it back
        # against the corpus to materialize the selected rows
        from .pipelines.select import select_token_budget
        from .pipelines.textops import with_token_counts
        from .sources.io import ROW_ID

        budget = algo.get("budget")
        if budget is None:
            raise SystemExit("token_budget needs [algorithm].budget")
        work = ds
        if "n_tokens" not in work.schema().names:
            work = with_token_counts(work, text_column=text_column)
        score_col = algo.get("score_column", "n_tokens")
        result_ds = select_token_budget(
            work,
            id_column=cfg.get("input", {}).get("id_column") or ROW_ID,
            token_column="n_tokens",
            score_column=score_col,
            budget=int(budget),
        )
        stats["budget"] = int(budget)
    elif name == "dsir":
        # DSIR importance-resampling selection: keep the k raw docs whose
        # hashed-ngram distribution looks most like the target cohort.
        # [algorithm].target_path points at the seed-set parquet (same
        # text column); k / num_buckets / ngram_max / smoothing optional.
        from .pipelines.dsir import dsir_select

        target_path = algo.get("target_path")
        k = algo.get("k")
        if target_path is None or k is None:
            raise SystemExit("dsir needs [algorithm].target_path and .k")
        from .sources.io import ROW_ID

        target = ray.data.read_parquet(target_path)
        result_ds = dsir_select(
            ds,
            target,
            k=int(k),
            id_column=cfg.get("input", {}).get("id_column") or ROW_ID,
            text_column=text_column,
            num_buckets=int(algo.get("num_buckets", 4096)),
            ngram_max=int(algo.get("ngram_max", 2)),
            smoothing=float(algo.get("smoothing", 1.0)),
        )
        stats["k"] = int(k)
    elif name == "ari":
        # clustering-agreement eval between two cluster-map parquets (the
        # files `save_clusters = true` writes): input.path is the left map,
        # algorithm.right_path the right. Prints the pair-counting Adjusted
        # Rand Index (reference benchmarks/benchmark_news.py statistic) and
        # writes the 1-row component table.
        import ray.data as _rd

        from .pipelines.eval_cluster import clustering_ari

        right_path = algo.get("right_path")
        if not right_path:
            raise SystemExit("ari needs algorithm.right_path (second cluster map)")
        id_col = algo.get("id_key", "row_id")
        label_col = algo.get("label_key", "cluster_id")
        left = _rd.read_parquet(cfg["input"]["path"])
        right = _rd.read_parquet(right_path)
        tbl = clustering_ari(
            left.select_columns([id_col, label_col]).rename_columns(
                {label_col: "label_a"}
            ),
            right.select_columns([id_col, label_col]).rename_columns(
                {label_col: "label_b"}
            ),
            id_col,
            "label_a",
            "label_b",
        )
        result_ds = _rd.from_arrow(tbl)
        stats["n_items"] = tbl["n_items"][0].as_py()
        stats["ari"] = tbl["ari"][0].as_py()
    elif name == "mix":
        from .pipelines.sample import weighted_sample_by_group
        from .sources.io import ROW_ID

        weights = algo.get("weights")
        if not isinstance(weights, dict) or not weights:
            raise SystemExit("mix needs [algorithm.weights] (group -> rate)")
        result_ds = weighted_sample_by_group(
            ds,
            group_key=algo.get("group_key", "lang"),
            id_key=algo.get("id_key", ROW_ID),
            weights={str(k): float(v) for k, v in weights.items()},
            salt=str(algo.get("salt", "")),
            default=float(algo.get("default", 0.0)),
        )
        stats["weights"] = weights
    elif name == "shuffle":
        # deterministic training-export shuffle: stamp positions (+ shard
        # ids when rows_per_shard is set) under the seeded-hash order;
        # with rows_per_shard the output is written hive-partitioned by
        # shard (resumable re-runs give byte-identical shard membership)
        from .pipelines.sample import seeded_shuffle
        from .sources.io import ROW_ID, write_partitioned

        rows_per_shard = algo.get("rows_per_shard")
        result_ds = seeded_shuffle(
            ds,
            id_column=cfg.get("input", {}).get("id_column") or ROW_ID,
            seed=int(algo.get("seed", 42)),
            rows_per_shard=int(rows_per_shard) if rows_per_shard else None,
            num_partitions=int(algo.get("num_partitions", 16)),
        )
        stats["seed"] = int(algo.get("seed", 42))
        if rows_per_shard:
            write_partitioned(result_ds, out_path, by="shard")
            stats["rows_per_shard"] = int(rows_per_shard)
            stats["seconds"] = round(time.perf_counter() - t0, 3)
            stats["output"] = out_path
            print(json.dumps(stats))
            return
    else:
        raise SystemExit(f"unknown algorithm {name!r}")

    from .sources.io import write_cluster_table, write_output

    write_output(result_ds, out_path)
    if save_clusters and parents is not None:
        write_cluster_table(parents, out_path.rstrip("/") + ".clusters.parquet")

    stats["seconds"] = round(time.perf_counter() - t0, 3)
    stats["output"] = out_path
    print(json.dumps(stats))


if __name__ == "__main__":  # pragma: no cover
    main()
