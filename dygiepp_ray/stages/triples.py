"""Triple emission + exact dedup + graph materialization (SURVEY.md §7.2-7, D5).

``relations -> triples``: each decoded relation mention becomes a
``(conv_id, subj, pred, obj)`` triple with content-addressed entity ids
(``semantics.entity_id`` — no join against the entities table needed).
Exact dedup is two-phase: a vectorized batch-local ``drop_duplicates``
(combiner) shrinks the stream before the one hash shuffle on the triple
key (``groupby(subj,pred,obj).first`` semantics, reference analogue: the
dict-keyed ``relation_dict``, ``document.py:316-320``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

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


def _to_triples(batch: pd.DataFrame) -> pd.DataFrame:
    """Relation mentions -> local triples + combiner dedup.

    Deliberately narrow: entity ids (md5 strings, 64 chars/row) are
    derived AFTER the global dedup so the shuffle carries only the key
    columns + score; the shuffle key is a numeric hash of the triple key
    (bucket placement only — the dedup itself compares real columns, so
    hash collisions cannot merge distinct triples)."""
    out = pd.DataFrame(
        {
            "conv_id": batch["conv_id"],
            "subj": batch["subj"].str.lower(),
            "pred": batch["label"],
            "obj": batch["obj"].str.lower(),
            "score": batch["softmax"].astype(np.float32),
        }
    )
    out = out.drop_duplicates(TRIPLE_KEY, ignore_index=True)
    h = np.uint64(0)
    for c in TRIPLE_KEY:
        h = h * np.uint64(1099511628211) ^ pd.util.hash_array(
            out[c].to_numpy(dtype=object), categorize=False
        )
    out["__tkey"] = h.astype(np.int64)
    return out


def _finalize_ids(df: pd.DataFrame) -> pd.DataFrame:
    df = df.drop_duplicates(TRIPLE_KEY, ignore_index=True)
    ids = {s: S.entity_id(s) for s in pd.unique(df[["subj", "obj"]].to_numpy().ravel())}
    df.insert(1, "subj_id", df["subj"].map(ids))
    df.insert(4, "obj_id", df["obj"].map(ids))
    return df


def triples_from_relations(
    relations: ray.data.Dataset, num_buckets: int = 32
) -> ray.data.Dataset:
    """relations table -> globally deduped triples table with
    content-addressed entity ids (general path: no assumption about
    input partitioning — one keyed exchange)."""
    local = relations.map_batches(_to_triples, batch_format="pandas")

    def dedup(df: pd.DataFrame) -> pd.DataFrame:
        return _finalize_ids(df.drop(columns="__tkey"))

    return hash_exchange(local, "__tkey", dedup, num_buckets)


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
        conv_local_triples, batch_format="pandas", batch_size=None
    )


def conv_local_triples(df: pd.DataFrame) -> pd.DataFrame:
    """Deduped triples of a batch of relation rows that holds each of its
    conversations whole (the ``triples_local_dedup`` invariant)."""
    out = pd.DataFrame(
        {
            "conv_id": df["conv_id"],
            "subj": df["subj"].str.lower(),
            "pred": df["label"],
            "obj": df["obj"].str.lower(),
            "score": df["softmax"].astype(np.float32),
        }
    )
    return _finalize_ids(out)
