"""Annotation explodes: wide predicted-document rows -> relational tables.

Pure Arrow list-flatten + parent-index takes (``core.flatten_with_parent``)
— zero-copy, no Python per row.  These are the engine's analogues of the
reference's per-sentence annotation lists pivoted into flat tables
(``fields_to_batches``, ``dygie/models/shared.py:28-68``).
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from ..core import flatten_with_parent

_PARENTS = ["doc_key", "conv_id"]
# optional doc-level columns repeated onto annotations when present
# (``weight``: reference document.py:95-104 passthrough for weighted
# evaluation — empty blocks never invoke the UDF, so per-batch presence
# is consistent across all non-empty blocks of a run)
_OPT_PARENTS = ["weight"]


def explode_block(docs: pa.Table, col: str) -> pa.Table:
    """One row per element of the list column ``col`` of ``docs``,
    carrying the document's key columns."""
    parents = _PARENTS + [p for p in _OPT_PARENTS if p in docs.schema.names]
    return flatten_with_parent(docs, col, parents)


def _explode(docs: ray.data.Dataset, col: str) -> ray.data.Dataset:
    # batch_size=None: one batch per block, preserving conv-completeness
    # per block for downstream local dedup (stages/triples.py invariant)
    return docs.map_batches(
        explode_block, fn_args=(col,), batch_format="pyarrow", batch_size=None
    )


def mentions_table(docs: ray.data.Dataset) -> ray.data.Dataset:
    """(doc_key, conv_id, sent_ix, start, end, label, raw, softmax, surface)"""
    return _explode(docs, "ner")


def relations_table(docs: ray.data.Dataset) -> ray.data.Dataset:
    """(doc_key, conv_id, sent_ix, s1, e1, s2, e2, label, raw, softmax, subj, obj)"""
    return _explode(docs, "relations")


def triggers_table(docs: ray.data.Dataset) -> ray.data.Dataset:
    return _explode(docs, "triggers")


def event_args_table(docs: ray.data.Dataset) -> ray.data.Dataset:
    return _explode(docs, "event_args")


def clusters_table(docs: ray.data.Dataset) -> ray.data.Dataset:
    """(doc_key, conv_id, cluster_ix, start, end, surface)"""
    return _explode(docs, "cluster_members")
