"""Local stand-in for the driver's correctness gate: run every queries()
entry at a given sf_dir and compare against oracle_sql() via DuckDB
(row count + column names + order-insensitive value hash).

Usage:
    python scripts/check_correctness.py [SF_DIR] [ONLY_CSV]
    python scripts/check_correctness.py SF_DIR --budget-seconds N

With ``--budget-seconds N`` the gate walks the registry in its
coverage-first insertion order (one query per operator family leads) and
stops starting new queries once N seconds have elapsed, then prints exactly
which queries were verified and which were skipped — so both builder and
driver always know what was and wasn't formally checked under a budget."""

from __future__ import annotations

import json
import os
import time
import sys
from pathlib import Path

import duckdb
import pandas as pd
import ray

# check the checkout this script sits in, in the driver and (through
# PYTHONPATH, read when ray.init starts them) in the Ray workers
ROOT = str(Path(__file__).resolve().parents[1])
sys.path.insert(0, ROOT)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
)

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def exact_hash(df: pd.DataFrame) -> str:
    """Driver-style order-insensitive value hash: stringified cells (so
    int64 100 vs float64 100.0 differ — the round-4 failure mode), float
    columns rounded to 6 decimals first (the round-4 driver hashed
    527868276.59000003 vs 527868276.59 as EQUAL on lineitem_pricing, so
    its canonicalization absorbs last-ulp summation-order noise), rows
    sorted. Predicts the driver's hash_match verdict."""
    import hashlib

    df = df.copy()
    for c in df.columns:
        if df[c].dtype.kind == "f":
            # + 0.0 collapses -0.0 to 0.0 — a sign-of-zero flip is exactly
            # the summation-order noise the rounding absorbs, but round()
            # preserves it and "-0.0" != "0.0" once stringified
            df[c] = df[c].round(6) + 0.0
    s = df.astype(str)
    rows = sorted("\x1f".join(r) for r in s.itertuples(index=False, name=None))
    return hashlib.md5("\x1e".join(rows).encode()).hexdigest()


def main(sf_dir: str, only: set | None = None, budget_seconds: float | None = None) -> None:
    import __ray_entry__ as entrymod

    ray.data.DataContext.get_current().enable_progress_bars = False
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    report = {}
    skipped: list[str] = []
    gate_t0 = time.monotonic()
    for name, fn in qs.items():
        if only and name not in only:
            continue
        if budget_seconds is not None and time.monotonic() - gate_t0 > budget_seconds:
            skipped.append(name)
            continue
        print(f"[gate] {name} ...", file=sys.stderr, flush=True)
        t0 = time.monotonic()
        try:
            ours = canon(to_pandas(fn(sf_dir)))
            t_q = time.monotonic() - t0
            if name in oracles:
                t1 = time.monotonic()
                theirs = canon(con.execute(oracles[name]).fetchdf())
                t_o = time.monotonic() - t1
                ok_rows = len(ours) == len(theirs)
                ok_cols = list(ours.columns) == list(theirs.columns)
                ok_vals = False
                if ok_rows and ok_cols:
                    try:
                        pd.testing.assert_frame_equal(
                            ours, theirs, check_dtype=False, check_exact=False, rtol=1e-9
                        )
                        ok_vals = True
                    except AssertionError as e:
                        report[name] = {"status": "VALUE_MISMATCH", "detail": str(e)[:300]}
                if ok_rows and ok_cols and ok_vals:
                    report[name] = {"status": "OK", "rows": len(ours)}
                    if exact_hash(ours) != exact_hash(theirs):
                        # values equal at rtol but stringified cells differ
                        # (dtype or float-formatting drift) — the driver's
                        # exact hash would flag this as a mismatch
                        report[name]["status"] = "OK_HASH_DRIFT"
                elif not ok_rows:
                    report[name] = {"status": "ROWS", "ours": len(ours), "theirs": len(theirs)}
                elif not ok_cols:
                    report[name] = {
                        "status": "COLS",
                        "ours": list(ours.columns),
                        "theirs": list(theirs.columns),
                    }
                report[name]["sec_query"] = round(t_q, 2)
                report[name]["sec_oracle"] = round(t_o, 2)
            else:
                report[name] = {
                    "status": "ROWS_ONLY",
                    "rows": len(ours),
                    "sec_query": round(t_q, 2),
                }
        except Exception as e:  # noqa: BLE001
            report[name] = {"status": "ERROR", "detail": f"{type(e).__name__}: {e}"[:300]}
        print(
            f"[gate] {name} -> {report[name].get('status')} "
            f"q={report[name].get('sec_query', '?')}s",
            file=sys.stderr, flush=True,
        )
    print(json.dumps(report, indent=1, default=str))
    bad = [
        k for k, v in report.items()
        if v["status"] not in ("OK", "OK_HASH_DRIFT", "ROWS_ONLY")
    ]
    drift = [k for k, v in report.items() if v["status"] == "OK_HASH_DRIFT"]
    print("FAILURES:", bad if bad else "none")
    print("HASH_DRIFT (values equal, exact driver hash would differ):",
          drift if drift else "none")
    if budget_seconds is not None:
        print(
            f"BUDGET: {budget_seconds:.0f}s, verified {len(report)} queries in "
            f"{time.monotonic() - gate_t0:.0f}s, skipped {len(skipped)}"
        )
        print("SKIPPED:", ",".join(skipped) if skipped else "none")
    ray.shutdown()


if __name__ == "__main__":
    argv = sys.argv[1:]
    budget = None
    if "--budget-seconds" in argv:
        i = argv.index("--budget-seconds")
        budget = float(argv[i + 1])
        del argv[i : i + 2]
    sf = argv[0] if argv else "/root/testdata/sf0.01"
    only_set = set(argv[1].split(",")) if len(argv) > 1 else None
    main(sf, only_set, budget)
