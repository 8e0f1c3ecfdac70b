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
_SALTED_SCHEMA = pa.schema(
    [
        ("surface", pa.string()),
        ("label", pa.string()),
        ("__skey", pa.string()),
        ("n_mentions", pa.int64()),
        ("n_docs", pa.int64()),
    ]
)


def canonicalize(
    mentions: ray.data.Dataset,
    num_salts: int = 16,
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

    def partial_exact(batch: pd.DataFrame) -> pd.DataFrame:
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
        g["salt"] = stable_bucket(g["doc_key"].to_numpy(), num_salts)
        if doc_local_batches:
            # each doc_key occurs in exactly one batch -> its row count
            # here IS its distinct-doc contribution
            g = (
                g.groupby(["surface", "label", "salt"], sort=False)
                .agg(n_mentions=("n_mentions", "sum"), n_docs=("doc_key", "size"))
                .reset_index()
            )
        return g

    kw = {"batch_format": "pandas"}
    if doc_local_batches:
        kw["batch_size"] = None  # one batch per block preserves doc locality
    partials = mentions.map_batches(partial_exact, **kw)

    def merge_salted(df: pd.DataFrame) -> pa.Table:
        # bucket key is (surface, salt) — hot surfaces spread over S buckets
        n_docs = ("n_docs", "sum") if doc_local_batches else ("doc_key", "nunique")
        g = (
            df.groupby(["surface", "label", "__skey"], sort=False)
            .agg(n_mentions=("n_mentions", "sum"), n_docs=n_docs)
            .reset_index()
        )
        return pa.Table.from_pandas(g, schema=_SALTED_SCHEMA, preserve_index=False)

    def add_skey(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__skey"] = df["surface"].str.cat(df["salt"].astype(str), sep="\x1f")
        return df

    salted = partials.map_batches(add_skey, batch_format="pandas")
    phase1 = hash_exchange(salted, "__skey", merge_salted)

    def merge_final(df: pd.DataFrame) -> pa.Table:
        g = (
            df.groupby(["surface", "label"], sort=False)
            .agg(n_mentions=("n_mentions", "sum"), n_docs=("n_docs", "sum"))
            .reset_index()
        )
        uniq = {s: S.entity_id(s) for s in g["surface"].unique()}
        g.insert(0, "entity_id", g["surface"].map(uniq))
        return pa.Table.from_pandas(g, schema=ENTITY_SCHEMA, preserve_index=False)

    return hash_exchange(phase1, "surface", merge_final)
