"""Triple emission + exact dedup + graph materialization (SURVEY.md §7.2-7, D5).

``relations -> triples``: each decoded relation mention becomes a
``(conv_id, subj, pred, obj)`` triple with content-addressed entity ids
(``semantics.entity_id`` — no join against the entities table needed).
Arrow in, Arrow out: surfaces are lowered with ``pc.utf8_lower``, the
dedup keeps the first row of each key packed from dictionary codes
(reference analogue: the dict-keyed ``relation_dict``,
``document.py:316-320``), and ``entity_id`` runs once per unique
surface.  A conv-complete batch dedups in place
(``conv_local_triples``); the general path dedups batch-locally
(combiner) and then once more per bucket of one hash shuffle on
``conv_id``, the triple key's prefix.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .. import semantics as S
from ..core import hash_exchange

TRIPLE_KEY = ["conv_id", "subj", "pred", "obj"]

TRIPLE_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("subj_id", pa.string()),
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj_id", pa.string()),
        ("obj", pa.string()),
        ("score", pa.float32()),
    ]
)
_KEYED_SCHEMA = pa.schema([TRIPLE_SCHEMA.field(c) for c in TRIPLE_KEY + ["score"]])


def _dedup(tbl: pa.Table) -> pa.Table:
    """The first row of each distinct triple key, in input order."""
    key, card = np.zeros(tbl.num_rows, np.int64), 1
    for c in TRIPLE_KEY:
        enc = pc.dictionary_encode(tbl[c].combine_chunks(), null_encoding="encode")
        n = len(enc.dictionary)
        if card * n >= 2**62:   # re-densify before the packed key overflows
            key = np.unique(key, return_inverse=True)[1].astype(np.int64)
            card = int(key.max()) + 1
        key, card = key * n + np.asarray(enc.indices, np.int64), card * n
    return tbl.take(np.sort(np.unique(key, return_index=True)[1]))


def _project(rel: pa.Table) -> pa.Table:
    """Relation mention rows -> the triple key columns (entity surfaces
    lowered) + float32 score, one row per mention."""
    if rel.num_rows == 0:
        return _KEYED_SCHEMA.empty_table()
    return pa.table({
        "conv_id": rel["conv_id"],
        "subj": pc.utf8_lower(rel["subj"]),
        "pred": rel["label"],
        "obj": pc.utf8_lower(rel["obj"]),
        "score": rel["softmax"].cast(pa.float32()),
    })


def _finalize_ids(tbl: pa.Table) -> pa.Table:
    """Triple key rows holding each of their keys whole -> deduped
    ``TRIPLE_SCHEMA`` rows, ``entity_id`` computed once per surface."""
    if tbl.num_rows == 0:
        return TRIPLE_SCHEMA.empty_table()
    tbl = _dedup(tbl)
    subj, obj = tbl["subj"].combine_chunks(), tbl["obj"].combine_chunks()
    surfaces = pc.unique(pa.concat_arrays([subj, obj]))
    ids = pa.array([S.entity_id(s) for s in surfaces.to_pylist()], pa.string())
    return pa.table(
        [tbl["conv_id"], ids.take(pc.index_in(subj, surfaces)), subj, tbl["pred"],
         ids.take(pc.index_in(obj, surfaces)), obj, tbl["score"]],
        schema=TRIPLE_SCHEMA,
    )


def triples_from_relations(
    relations: ray.data.Dataset, num_buckets: int = 32
) -> ray.data.Dataset:
    """relations table -> globally deduped triples table with
    content-addressed entity ids (general path: no assumption about
    input partitioning — one keyed exchange).

    Each batch projects and dedups its rows first (combiner).  The
    exchange is on ``conv_id``, the triple key's prefix, so a bucket
    holds every copy of its triples and its dedup is global.  Entity
    ids (md5 strings) are derived after it, so the shuffle carries only
    the key columns and the score."""
    local = relations.map_batches(lambda b: _dedup(_project(b)), batch_format="pyarrow")
    return hash_exchange(local, "conv_id", _finalize_ids, num_buckets, fn_format="pyarrow")


def triples_local_dedup(relations: ray.data.Dataset) -> ray.data.Dataset:
    """Shuffle-free dedup for conv-partitioned relation streams: the
    lineage form of the dedup, over a relations Dataset such as
    ``KGPipeline.relations``.  ``KGPipeline.triples()`` does not use it;
    its exchange tasks call ``conv_local_triples`` on whole buckets.

    Partitioning assumption (MUST hold, documented per SURVEY.md §2
    custom-operator rule): every relation row of a given ``conv_id``
    lives in the same block, which is true for any dataset derived from
    ``assemble_documents`` output without an intervening repartition —
    the assembly exchange hash-partitions conversations, and downstream
    map stages preserve block locality.  The triple key is
    (conv_id, subj, pred, obj), so dedup within a conv-complete block is
    globally exact and the second all-to-all of the general path is
    unnecessary (reuse-the-partitioning-key optimization).

    Callers must keep batches block-sized (``batch_size=None``) so a
    conversation is never split across two batch calls.
    """
    return relations.map_batches(
        conv_local_triples, batch_format="pyarrow", batch_size=None
    )


def conv_local_triples(rel: pa.Table) -> pa.Table:
    """Deduped triples of a batch of relation rows that holds each of its
    conversations whole (the ``triples_local_dedup`` invariant)."""
    return _finalize_ids(_project(rel))
