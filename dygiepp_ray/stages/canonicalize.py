"""Entity canonicalization (SURVEY.md J8/D5, §7.2-6).

``mentions -> entities``: link every mention to a canonical entity and
aggregate global per-entity statistics.  Linking is **content-addressed**:
``entity_id = md5(normalized surface)`` (``semantics.entity_id``), so no
join or broadcast is needed anywhere downstream — any stage can derive
the id locally.  What remains distributed is the statistics aggregate,
done in two phases to neutralize hot surface forms (the salted-shuffle
requirement of the north rule):

  phase 1 (salted partial): groupby (surface, salt) where
      salt = hash(doc_key) % S — doc-disjoint, so distinct-doc counts
      add up exactly across salts;
  phase 2 (merge): tiny groupby(surface) over <= S rows per surface.

Phase 1 partials are pre-aggregated inside ``map_batches`` before the
shuffle, so bytes-through-shuffle is O(distinct surfaces x S), not
O(mentions).  Both exchanges are data-sized (``hash_exchange``'s auto
bucket count): a few hundred partial rows get a few buckets, not a
fixed fan-out of mostly empty merges.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .. import semantics as S
from ..core import hash_exchange, stable_bucket

ENTITY_SCHEMA = pa.schema(
    [
        ("entity_id", pa.string()),
        ("surface", pa.string()),
        ("label", pa.string()),
        ("n_mentions", pa.int64()),
        ("n_docs", pa.int64()),
    ]
)

# phase-1 (salted partial) output; fixed so empty buckets keep the types
SALTED_SCHEMA = pa.schema(
    [
        ("surface", pa.string()),
        ("label", pa.string()),
        ("__skey", pa.string()),
        ("n_mentions", pa.int64()),
        ("n_docs", pa.int64()),
    ]
)


NUM_SALTS = 16


def salted_partials(batch: pa.Table, num_salts: int = NUM_SALTS) -> pa.Table:
    """Phase-1 partials of one batch of mentions, keyed on ``__skey`` =
    (surface, salt) with salt = hash(doc_key) % ``num_salts``.

    Requires every document's mentions in this batch: each doc_key then
    occurs in exactly one batch, so its rows here ARE its distinct-doc
    contribution and the partials collapse to ``SALTED_SCHEMA`` rows."""
    if batch.num_rows == 0:
        return SALTED_SCHEMA.empty_table()
    per_doc = (
        pa.table({"surface": pc.utf8_lower(batch["surface"]),
                  "label": batch["label"], "doc_key": batch["doc_key"]})
        .group_by(["surface", "label", "doc_key"], use_threads=False)
        .aggregate([([], "count_all")])
    )
    salt = stable_bucket(per_doc["doc_key"].to_numpy(zero_copy_only=False), num_salts)
    skey = pc.binary_join_element_wise(
        per_doc["surface"], pa.array(salt).cast(pa.string()), "\x1f"
    )
    g = (
        per_doc.append_column("__skey", skey)
        .group_by(["surface", "label", "__skey"], use_threads=False)
        .aggregate([("count_all", "sum"), ("doc_key", "count")])
    )
    return pa.table(
        [g["surface"], g["label"], g["__skey"], g["count_all_sum"], g["doc_key_count"]],
        schema=SALTED_SCHEMA,
    )


def merge_salted(tbl: pa.Table) -> pa.Table:
    """Phase-1 merge of one ``__skey`` bucket: hot surfaces spread over
    ``num_salts`` buckets."""
    if tbl.num_rows == 0:
        return SALTED_SCHEMA.empty_table()
    g = tbl.group_by(["surface", "label", "__skey"], use_threads=False).aggregate(
        [("n_mentions", "sum"), ("n_docs", "sum")]
    )
    return pa.table(
        [g["surface"], g["label"], g["__skey"], g["n_mentions_sum"], g["n_docs_sum"]],
        schema=SALTED_SCHEMA,
    )


def merge_final(tbl: pa.Table) -> pa.Table:
    """Phase 2 over a bucket that holds every phase-1 row of its
    surfaces: one ``ENTITY_SCHEMA`` row per (surface, label)."""
    if tbl.num_rows == 0:
        return ENTITY_SCHEMA.empty_table()
    g = tbl.group_by(["surface", "label"], use_threads=False).aggregate(
        [("n_mentions", "sum"), ("n_docs", "sum")]
    )
    surface = g["surface"].combine_chunks()
    uniq = pc.unique(surface)
    ids = pa.array([S.entity_id(s) for s in uniq.to_pylist()], pa.string())
    return pa.table(
        [ids.take(pc.index_in(surface, uniq)), surface, g["label"],
         g["n_mentions_sum"], g["n_docs_sum"]],
        schema=ENTITY_SCHEMA,
    )


def canonicalize(
    mentions: ray.data.Dataset, num_salts: int = NUM_SALTS
) -> ray.data.Dataset:
    """mentions (doc_key, surface, label, ...) -> entities table.

    Assumes every document's mentions arrive within ONE block — true
    for any mentions table derived from the assembly exchange without
    repartitioning (same block-locality invariant as
    ``triples_local_dedup``); batches are whole blocks.  Then batch
    partials collapse all the way to (surface, label, salt) —
    O(vocab x salts) rows per batch — and the two aggregation exchanges
    carry a few hundred rows regardless of corpus size."""
    partials = mentions.map_batches(
        salted_partials, fn_args=(num_salts,), batch_format="pyarrow", batch_size=None
    )
    phase1 = hash_exchange(partials, "__skey", merge_salted, fn_format="pyarrow")
    return hash_exchange(phase1, "surface", merge_final, fn_format="pyarrow")
