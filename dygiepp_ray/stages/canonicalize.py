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

import functools

import pandas as pd
import pyarrow as pa

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


def salted_partials(
    batch: pd.DataFrame, num_salts: int = NUM_SALTS, doc_local: bool = True
) -> pd.DataFrame:
    """Phase-1 partials of one batch of mentions, keyed on ``__skey`` =
    (surface, salt) with salt = hash(doc_key) % ``num_salts``.

    ``doc_local=True`` requires every document's mentions in this batch:
    each doc_key then occurs in exactly one batch, so its row count here
    IS its distinct-doc contribution and the partials collapse to
    ``SALTED_SCHEMA`` rows.  ``doc_local=False`` keeps doc_key (still
    exact, just a bigger shuffle)."""
    df = pd.DataFrame(
        {
            "surface": batch["surface"].str.lower(),
            "label": batch["label"],
            "doc_key": batch["doc_key"],
        }
    )
    g = (
        df.groupby(["surface", "label", "doc_key"], sort=False)
        .size()
        .rename("n_mentions")
        .reset_index()
    )
    salt = pd.Series(stable_bucket(g["doc_key"].to_numpy(), num_salts), index=g.index)
    g["__skey"] = g["surface"].str.cat(salt.astype(str), sep="\x1f")
    if doc_local:
        g = (
            g.groupby(["surface", "label", "__skey"], sort=False)
            .agg(n_mentions=("n_mentions", "sum"), n_docs=("doc_key", "size"))
            .reset_index()
        )
    return g


def merge_salted(df: pd.DataFrame, doc_local: bool = True) -> pa.Table:
    """Phase-1 merge of one ``__skey`` bucket: hot surfaces spread over
    ``num_salts`` buckets."""
    n_docs = ("n_docs", "sum") if doc_local else ("doc_key", "nunique")
    g = (
        df.groupby(["surface", "label", "__skey"], sort=False)
        .agg(n_mentions=("n_mentions", "sum"), n_docs=n_docs)
        .reset_index()
    )
    return pa.Table.from_pandas(g, schema=SALTED_SCHEMA, preserve_index=False)


def merge_final(df: pd.DataFrame) -> pa.Table:
    """Phase 2 over a bucket that holds every phase-1 row of its
    surfaces: one ``ENTITY_SCHEMA`` row per (surface, label)."""
    g = (
        df.groupby(["surface", "label"], sort=False)
        .agg(n_mentions=("n_mentions", "sum"), n_docs=("n_docs", "sum"))
        .reset_index()
    )
    uniq = {s: S.entity_id(s) for s in g["surface"].unique()}
    g.insert(0, "entity_id", g["surface"].map(uniq))
    return pa.Table.from_pandas(g, schema=ENTITY_SCHEMA, preserve_index=False)


def canonicalize(
    mentions: ray.data.Dataset,
    num_salts: int = NUM_SALTS,
    doc_local_batches: bool = True,
) -> ray.data.Dataset:
    """mentions (doc_key, surface, label, ...) -> entities table.

    ``doc_local_batches=True`` (the pipeline default) assumes every
    document's mentions arrive within ONE batch — true for any mentions
    table derived from the assembly exchange without repartitioning
    (same block-locality invariant as ``triples_local_dedup``).  Then
    batch partials collapse all the way to (surface, label, salt) —
    O(vocab x salts) rows per batch — and the two aggregation exchanges
    carry a few hundred rows regardless of corpus size.  Set False for
    mention streams of unknown partitioning (partials stay at doc
    granularity; still exact, just a bigger shuffle)."""
    kw = {"batch_format": "pandas"}
    if doc_local_batches:
        kw["batch_size"] = None  # one batch per block preserves doc locality
    partials = mentions.map_batches(
        salted_partials, fn_args=(num_salts, doc_local_batches), **kw
    )
    phase1 = hash_exchange(
        partials, "__skey", functools.partial(merge_salted, doc_local=doc_local_batches)
    )
    return hash_exchange(phase1, "surface", merge_final)
