"""Persisted KG triple store — the "graph materialize" artifact: the
flagship pipeline's triples written as a subject-partitioned parquet
store through the manifested checkpoint writer, so entity point-lookups
read exactly ONE partition directory and a killed save resumes by
skipping manifested partitions.

Reference parity note: the reference emits per-document relation lists
(`dygie/models/relation.py` decode output written by
`predict_dygie.py`); the STORE is the scale-side completion of that —
the same triples, re-keyed for retrieval.  Layout and resume semantics
come from :mod:`dygiepp_ray.state.checkpoint` (`part=N/` directories,
per-partition manifests with row counts + content fingerprints, atomic
tmp-dir renames, `_MANIFEST.json` as the success marker) — the same
machinery the kill-resume pipeline test exercises.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from ..core import hash_exchange, stable_bucket
from .checkpoint import _part_dir, write_partitioned

STORE_SCHEMA = pa.schema([("subj", pa.string()), ("pred", pa.string()),
                          ("obj", pa.string()), ("n_convs", pa.int64())])
_TRIPLE = ["subj", "pred", "obj"]


def _support(tbl: pa.Table, col: str, how: str) -> pa.Table:
    """Store rows: ``how`` of ``col`` per (subj, pred, obj)."""
    if tbl.num_rows == 0:
        return STORE_SCHEMA.empty_table()
    g = tbl.group_by(_TRIPLE, use_threads=False).aggregate([(col, how)])
    return pa.table([g[c] for c in _TRIPLE] + [g[f"{col}_{how}"]],
                    schema=STORE_SCHEMA)


def _rollup(tbl: pa.Table) -> pa.Table:
    """(conv_id, subj, pred, obj) bucket -> per-triple conv support.
    Global dedup by construction: every copy of a subject co-locates."""
    return _support(tbl, "conv_id", "count_distinct")


def save_kg_store(
    triples: "ray.data.Dataset", path: str, num_buckets: int = 16
) -> dict:
    """Materialize (conv_id, subj, pred, obj) triples into the store in
    ONE subject-keyed exchange: each bucket is one ``part=N`` directory,
    and its task rolls up the cross-conversation support of its subjects
    and writes them through the manifested writer — idempotent per
    partition (a re-run after a crash skips every manifested bucket).
    Returns the run manifest."""
    return write_partitioned(triples, path, key="subj",
                             num_partitions=num_buckets, fn=_rollup)


def _merge(tbl: pa.Table) -> pa.Table:
    """Store rows of disjoint conversation sets -> summed supports."""
    return _support(tbl, "n_convs", "sum")


def upsert_kg_store(
    base_path: str,
    delta_triples: "ray.data.Dataset",
    out_path: str,
    num_buckets: int = 16,
) -> dict:
    """Append-only ingest cycle: merge a DELTA batch of triples into a
    persisted store WITHOUT rebuilding from the corpus.  Contract: the
    delta's conversations are disjoint from everything already
    ingested (the at-most-once ingest invariant a streaming KG upsert
    relies on), so per-triple supports ADD.

    The delta rolls up to the store schema on its own subject-keyed
    exchange, unions with the base store rows (a cheap metadata union —
    no shuffle), and the manifested writer's subject exchange folds
    supports per bucket as it writes it.  Cost per cycle is O(base +
    delta) STORE rows (distinct triples — never O(corpus)); a hash
    delta of any size touches ~every subject bucket, so unchanged-
    partition copy-through is deliberately not attempted."""
    from .checkpoint import completed_partitions, read_partitioned

    if not completed_partitions(base_path):
        # empty base (e.g. first-ever ingest over an empty corpus):
        # the merged store is just the delta
        return save_kg_store(delta_triples, out_path, num_buckets)
    delta = hash_exchange(delta_triples, "subj", _rollup,
                          num_buckets=num_buckets, fn_format="pyarrow")
    # drop the hive-parsed part column so base and delta union cleanly
    base = read_partitioned(base_path).select_columns(STORE_SCHEMA.names)
    return write_partitioned(base.union(delta), out_path, key="subj",
                             num_partitions=num_buckets, fn=_merge)


def kg_lookup(path: str, subject: str) -> pd.DataFrame:
    """Point lookup against a persisted store: the subject's bucket is
    recomputed from `_MANIFEST.json`'s partition count, so the read
    touches exactly ONE ``part=N`` directory (partition pruning, not
    just row-group stats), then filters to the subject.  The files are
    read with pyarrow in the calling process: one small partition does
    not pay for a Ray Data plan."""
    out = STORE_SCHEMA.empty_table()
    manifest_path = os.path.join(path, "_MANIFEST.json")
    if os.path.isfile(manifest_path):
        with open(manifest_path) as f:
            num_partitions = int(json.load(f)["num_partitions"])
        bucket = int(stable_bucket(
            np.asarray([subject], dtype=object), num_partitions)[0])
        pdir = _part_dir(path, bucket)
        if os.path.isdir(pdir):
            hit = pq.read_table(pdir, filters=pc.field("subj") == subject,
                                partitioning=None)
            out = hit if hit.num_rows else out
    return out.to_pandas()
