"""Resumable partitioned output (SURVEY.md §4; north-rule checkpoint design).

Layout::

    out_dir/
      part=00000/ *.parquet      # one directory per deterministic hash bucket
      part=00000.manifest.json   # lineage: key, P, bucket, row count, fingerprint
      ...
      _MANIFEST.json             # run-level summary (written last = _SUCCESS)

Bucket ids come from ``core.stable_bucket`` (fixed-key siphash of the
partition key), so a re-run maps identical input rows to identical
partitions.  ``write_partitioned`` skips any bucket whose per-partition
manifest already exists (and refuses a directory whose manifests record
another key or partition count), and ``_MANIFEST.json`` lists the table's
non-empty partition ids (``parts``).  A table is complete when every
listed part has its manifest (``complete_manifest``); a resume decides
per table from that before building any lineage, and
``missing_partitions`` names the buckets a resume has to recompute, so
``KGPipeline.run_all`` can filter its input to the conversations that
hash there (the reference has only training checkpoints,
``template.libsonnet:114-116``; this is the batch-pipeline equivalent).

Every file lands through a tmp path and ``os.replace``: a partition's
data directory (``part=N.tmp`` -> ``part=N``), then its manifest, then
``_MANIFEST.json``.  A kill leaves at most an orphan ``part=N.tmp`` or
a ``part=N`` without a manifest; readers skip the first, and a resume
rewrites both.

Each partition is written by ``write_part`` inside the bucket function
of one ``hash_exchange`` on ``key`` at ``num_partitions`` buckets, so a
partition is one task's output: ``write_partitioned``'s own exchange,
or ``KGPipeline.run_all``'s conv_id exchange, which writes the triples
and clusters partitions from the task that assembles and extracts their
conversations.  Both end in ``finish_table``.
``Dataset.write_parquet(partition_cols=...)`` lacks the tmp-dir +
rename atomicity this relies on.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from ..core import hash_exchange, stable_bucket


def _part_dir(out_dir: str, bucket: int) -> str:
    return os.path.join(out_dir, f"part={bucket:05d}")


def _part_manifest(out_dir: str, bucket: int) -> str:
    return os.path.join(out_dir, f"part={bucket:05d}.manifest.json")


def _write_json(path: str, obj: dict) -> None:
    with open(path + ".tmp", "w") as f:
        json.dump(obj, f)
    os.replace(path + ".tmp", path)


def completed_partitions(out_dir: str) -> set[int]:
    if not os.path.isdir(out_dir):
        return set()
    out = set()
    for name in os.listdir(out_dir):
        if name.startswith("part=") and name.endswith(".manifest.json"):
            out.add(int(name[len("part=") : -len(".manifest.json")]))
    return out


def _check_layout(out_dir: str, done: set[int], key: str, num_partitions: int) -> None:
    """Raise ValueError when ``_MANIFEST.json`` or a part manifest in
    ``out_dir`` was written with another ``key`` or partition count: its
    rows sit in other buckets, so skipping it would mix two layouts.  A
    part manifest that predates the recorded ``num_partitions`` is
    checked on ``key`` only."""
    manifests = [os.path.join(out_dir, "_MANIFEST.json")]
    manifests += [_part_manifest(out_dir, b) for b in sorted(done)]
    for path in manifests:
        try:
            with open(path) as f:
                m = json.load(f)
        except FileNotFoundError:
            continue
        if (m.get("key"), m.get("num_partitions", num_partitions)) != (key, num_partitions):
            raise ValueError(
                f"{out_dir} holds partitions written with key={m.get('key')!r}, "
                f"num_partitions={m.get('num_partitions')!r} "
                f"({os.path.basename(path)}); refusing to write key={key!r}, "
                f"num_partitions={num_partitions!r} into it"
            )


def partition_of(keys, num_partitions: int) -> int:
    """The partition of a bucket whose keys all hash alike (the bucket of
    an exchange at ``num_partitions`` buckets): its first key's."""
    return int(stable_bucket(keys[:1], num_partitions)[0])


def write_part(
    tbl: pa.Table,
    out_dir: str,
    key: str,
    num_partitions: int,
    done: set[int],
) -> None:
    """Write the rows of one bucket as partition
    ``stable_bucket(key, num_partitions)``: data through ``part=N.tmp``
    and ``os.replace``, then the part manifest.  Every row must hash to
    the same partition (the caller's exchange guarantees it).  An empty
    bucket or one in ``done`` writes nothing."""
    if tbl.num_rows == 0:
        return
    bucket = partition_of(tbl[key].slice(0, 1).to_numpy(), num_partitions)
    if bucket in done:
        return
    # a DataFrame's non-range index rides along as a column; not data
    index = (tbl.schema.pandas_metadata or {}).get("index_columns", [])
    tbl = tbl.drop_columns([c for c in index if isinstance(c, str)])
    pdir = _part_dir(out_dir, bucket)
    tmp = pdir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    pq.write_table(tbl, os.path.join(tmp, "data.parquet"))
    shutil.rmtree(pdir, ignore_errors=True)
    os.replace(tmp, pdir)
    # order-insensitive content fingerprint (SUM of per-row hashes
    # mod 2^64 — unlike XOR, duplicate rows accumulate instead of
    # cancelling, so equal-row-count multisets can't trivially
    # collide; review r4): resume/audit can verify a partition's
    # integrity without re-reading upstream lineage; hashed over the
    # pandas view, as every store's manifests were
    df = tbl.to_pandas()
    row_hashes = pd.util.hash_pandas_object(
        df.astype(str), index=False
    ).to_numpy(np.uint64)
    with np.errstate(over="ignore"):
        fingerprint = format(int(np.add.reduce(row_hashes)), "016x")
    manifest = {
        "bucket": bucket,
        "key": key,
        "num_partitions": num_partitions,
        "rows": len(df),
        "n_keys": int(df[key].nunique()),
        "fingerprint": fingerprint,
        "ts": time.time(),
    }
    _write_json(_part_manifest(out_dir, bucket), manifest)


def prepare_table(out_dir: str, key: str, num_partitions: int) -> set[int]:
    """Create ``out_dir`` and return its already-manifested partitions,
    the ``done`` set of :func:`write_part`.  Raises ValueError (before
    anything is written) when the directory holds another layout."""
    os.makedirs(out_dir, exist_ok=True)
    done = completed_partitions(out_dir)
    _check_layout(out_dir, done, key, num_partitions)
    return done


def finish_table(out_dir: str, key: str, num_partitions: int, done: set[int]) -> dict:
    """Write ``_MANIFEST.json`` once every bucket of a write has run and
    return it.  ``done`` is :func:`prepare_table`'s set; the partitions
    written since then are the part manifests that are not in it."""
    added = completed_partitions(out_dir) - done
    rows = 0
    for b in added:
        with open(_part_manifest(out_dir, b)) as f:
            rows += json.load(f)["rows"]
    parts = sorted(done | added)
    run = {
        "partitions": len(parts),
        "rows_written": rows,
        # every listed part this call did not write, whether or not its
        # rows reached the call (a filtered resume sends only lost ones)
        "skipped": len(parts) - len(added),
        "num_partitions": num_partitions,
        "key": key,
        "parts": parts,
    }
    _write_json(os.path.join(out_dir, "_MANIFEST.json"), run)
    return run


def write_partitioned(
    ds: ray.data.Dataset,
    out_dir: str,
    key: str,
    num_partitions: int = 32,
    fn: Callable[[pa.Table], pa.Table] | None = None,
) -> dict:
    """Write ``ds`` hash-partitioned on ``key``; idempotent per partition.

    ONE exchange on ``key`` at ``num_partitions`` buckets: bucket N
    holds exactly the rows of partition N, and its task writes them
    (``write_part``).  ``fn``, when given, runs on each bucket's rows
    first (a per-key aggregate whose groups the bucket holds whole): it
    takes and returns a ``pa.Table``, and its output must keep ``key``.
    Returns the run manifest.  Partitions listed in
    ``completed_partitions`` are skipped entirely (resume path), ``fn``
    included.  A directory written with another ``key`` or
    ``num_partitions`` raises ValueError.
    """
    done = prepare_table(out_dir, key, num_partitions)

    def write_bucket(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows and partition_of(tbl[key], num_partitions) not in done:
            write_part(fn(tbl) if fn else tbl, out_dir, key, num_partitions, done)
        return pa.table({})

    # the exchange is eager: every bucket is written when it returns
    hash_exchange(ds, key, write_bucket, num_buckets=num_partitions, fn_format="pyarrow")
    return finish_table(out_dir, key, num_partitions, done)


def _listed_parts(out_dir: str, key: str, num_partitions: int) -> list[int] | None:
    """The ``parts`` of the table's ``_MANIFEST.json`` when it was written
    with this key and partition count, else None."""
    try:
        with open(os.path.join(out_dir, "_MANIFEST.json")) as f:
            run = json.load(f)
    except FileNotFoundError:
        return None
    if run.get("key") != key or run.get("num_partitions") != num_partitions:
        return None
    return run.get("parts")


def missing_partitions(out_dir: str, key: str, num_partitions: int) -> set[int]:
    """Buckets a resume must recompute: the listed parts without a
    manifest, or every bucket without one when nothing is listed."""
    parts = _listed_parts(out_dir, key, num_partitions)
    expected = range(num_partitions) if parts is None else parts
    return set(expected) - completed_partitions(out_dir)


def complete_manifest(out_dir: str, key: str, num_partitions: int) -> dict | None:
    """The run manifest of a resume that skips the whole table, when
    ``_MANIFEST.json`` matches ``key``/``num_partitions`` and every part
    it lists has its manifest; None when the table is incomplete."""
    parts = _listed_parts(out_dir, key, num_partitions)
    if parts is None or not set(parts) <= completed_partitions(out_dir):
        return None
    return {
        "partitions": len(parts),
        "rows_written": 0,
        "skipped": len(parts),
        "num_partitions": num_partitions,
        "key": key,
        "parts": parts,
    }


def read_partitioned(out_dir: str) -> ray.data.Dataset:
    """Every finished ``part=N`` directory; an orphan ``part=N.tmp``
    left by a killed write is not read."""
    files = sorted(
        os.path.join(out_dir, d, f)
        for d in os.listdir(out_dir)
        if re.fullmatch(r"part=\d+", d) and os.path.isdir(os.path.join(out_dir, d))
        for f in os.listdir(os.path.join(out_dir, d))
        if f.endswith(".parquet")
    )
    return ray.data.read_parquet(files)
