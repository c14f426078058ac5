"""Stage-boundary checkpointing with lineage metadata.

The reference has no resume story (a failure reruns the whole script; HF's
map-cache is incidental). The north rule requires: per-partition signature /
bucket state checkpointed with lineage metadata so a killed job resumes
without recomputing completed partitions.

Design: a ``CheckpointManager`` rooted at a run directory. Each stage
materializes to ``<root>/<stage>/conf=<config_hash>/`` as partitioned parquet
written via a temp dir + atomic rename, with a ``manifest.json`` recording
the config hash, parent-stage hashes (lineage), row count and file list. On
re-execution, a stage whose manifest matches is read back instead of
recomputed — partition files are parquet parts, so a resumed run streams
them exactly like the original stage output.

The config hash covers the stage's parameters AND its parents' hashes, so
any upstream change invalidates downstream checkpoints automatically
(content-addressed lineage, SURVEY §4 "Checkpoint/resume").
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable

import ray.data


def config_hash(payload: Any, parents: list[str] | None = None) -> str:
    """Deterministic hash of stage config + parent lineage hashes."""
    blob = json.dumps(
        {"config": payload, "parents": sorted(parents or [])},
        sort_keys=True,
        default=repr,
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class StageCheckpoint:
    stage: str
    conf: str
    path: str
    manifest: dict


class CheckpointManager:
    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _stage_dir(self, stage: str, conf: str) -> str:
        return os.path.join(self.root, stage, f"conf={conf}")

    def lookup(self, stage: str, conf: str) -> StageCheckpoint | None:
        d = self._stage_dir(stage, conf)
        mpath = os.path.join(d, "manifest.json")
        if not os.path.exists(mpath):
            return None
        with open(mpath) as f:
            manifest = json.load(f)
        if manifest.get("conf") != conf:
            return None
        return StageCheckpoint(stage=stage, conf=conf, path=d, manifest=manifest)

    def save(
        self,
        ds: ray.data.Dataset,
        stage: str,
        conf: str,
        parents: list[str] | None = None,
        extra_meta: dict | None = None,
    ) -> StageCheckpoint:
        """Materialize a Dataset to the checkpoint (atomic via tmp+rename)."""
        d = self._stage_dir(stage, conf)
        tmp = d + ".tmp"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        os.makedirs(os.path.join(tmp, "data"), exist_ok=True)
        ds.write_parquet(os.path.join(tmp, "data"))
        files = sorted(os.listdir(os.path.join(tmp, "data")))
        manifest = {
            "stage": stage,
            "conf": conf,
            "parents": sorted(parents or []),
            "num_files": len(files),
            "files": files,
            **(extra_meta or {}),
        }
        with open(os.path.join(tmp, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=1)
        if os.path.exists(d):
            shutil.rmtree(d)
        os.replace(tmp, d)
        return StageCheckpoint(stage=stage, conf=conf, path=d, manifest=manifest)

    def load(self, ckpt: StageCheckpoint) -> ray.data.Dataset:
        return ray.data.read_parquet(os.path.join(ckpt.path, "data"))

    def stage(
        self,
        name: str,
        conf: str,
        compute: Callable[[], ray.data.Dataset],
        parents: list[str] | None = None,
    ) -> tuple[ray.data.Dataset, bool]:
        """Return (dataset, was_cached). Runs ``compute`` only on miss."""
        hit = self.lookup(name, conf)
        if hit is not None:
            return self.load(hit), True
        ds = compute()
        ckpt = self.save(ds, name, conf, parents=parents)
        return self.load(ckpt), False


def checkpointed_minhash_signatures(
    ds: ray.data.Dataset,
    cfg,
    text_column: str,
    manager: CheckpointManager,
    source_fingerprint: str,
    fingerprint_batch_size: int = 2048,
) -> tuple[ray.data.Dataset, bool]:
    """The expensive MinHash signature stage behind a checkpoint: resuming a
    killed run skips fingerprinting entirely when (source, config) match."""
    from dataclasses import asdict

    from ..stages.fingerprint import MinHashFingerprinter, fingerprint_map

    conf = config_hash(
        {"algo": "minhash_signatures", "cfg": asdict(cfg), "text_column": text_column},
        parents=[source_fingerprint],
    )

    def compute() -> ray.data.Dataset:
        narrow = ds.select_columns(["row_id", text_column])
        return fingerprint_map(
            narrow, MinHashFingerprinter, (cfg, text_column), fingerprint_batch_size
        )

    return manager.stage("minhash_signatures", conf, compute, parents=[source_fingerprint])
