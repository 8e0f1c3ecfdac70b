"""Coref clusters from an already-projected mentions table (T6 for the
collated/GPU-shaped path).

The reference strips clusters during collation and coref is document-
scoped (``reference/scripts/data/shared/collate.py:89-96``); its coref
decode builds per-document antecedent chains and unions them into
clusters (``reference/dygie/models/coref.py:388-459``).  Under the
flagship config (``max_antecedents`` >= the per-window mention bound +
exact-surface antecedent scorer) those chains reduce to same-surface-
within-document groups over the mention sequence in span-enumeration
order — exactly what ``ExtractStage._clusters`` computes from its
in-batch mention frame.

This stage computes the SAME reduction from the uncollated mentions
table with ONE doc_key exchange, replacing the second full extraction
pass the collated pipeline used to pay for clusters (VERDICT r3 #1b):
mentions are already projected back per original document, so
re-encoding every document again only to re-derive the same mention set
doubles the encoder cost at scale.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from ..core import hash_exchange

_OUT_COLS = ["doc_key", "conv_id", "cluster_ix", "start", "end", "surface"]


def same_surface_reduction(m: pd.DataFrame, doc_col: str) -> pd.DataFrame:
    """The single home of the cluster decode convention shared by the
    in-extraction path (``ExtractStage._clusters``, ``doc_col='doc_ix'``)
    and the mention-derived path (``clusters_from_mentions``,
    ``doc_col='doc_key'``): groups of >= 2 same-surface mentions per
    document become clusters, ``cluster_ix`` ordered by first-mention
    appearance.  ``m`` must already be in span-enumeration order
    (``dygie.py:121-126``); callers own that sort."""
    m = m.reset_index(drop=True)
    m["__ord"] = np.arange(len(m))
    sizes = m.groupby([doc_col, "surface"], sort=False)["__ord"].transform("size")
    cl = m.loc[sizes >= 2].copy()
    if len(cl) == 0:
        return pd.DataFrame(
            columns=[doc_col, "cluster_ix", "start", "end", "surface"]
        )
    cl["__first"] = cl.groupby([doc_col, "surface"], sort=False)[
        "__ord"
    ].transform("min")
    cl = cl.sort_values([doc_col, "__first", "__ord"], kind="stable")
    uniq = cl[[doc_col, "__first"]].drop_duplicates()
    uniq["cluster_ix"] = uniq.groupby(doc_col).cumcount()
    cl = cl.merge(uniq, on=[doc_col, "__first"], how="left")
    return cl[[doc_col, "cluster_ix", "start", "end", "surface"]]


def _empty_clusters() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "doc_key": pd.Series(dtype=object),
            "conv_id": pd.Series(dtype=object),
            "cluster_ix": pd.Series(dtype=np.int32),
            "start": pd.Series(dtype=np.int32),
            "end": pd.Series(dtype=np.int32),
            "surface": pd.Series(dtype=object),
        }
    )


def clusters_from_mentions(
    mentions: ray.data.Dataset, num_buckets: int = 32
) -> ray.data.Dataset:
    """Mentions table ``(doc_key, conv_id, sent_ix, start, end, ...,
    surface)`` -> cluster members ``(doc_key, conv_id, cluster_ix,
    start, end, surface)`` matching ``stages.explode.clusters_table``.

    Partitioning assumption: one keyed exchange on ``doc_key`` puts
    every mention of a document in one bucket; inside the bucket the
    mention sequence is restored by the span-enumeration sort
    ``(sent_ix, start, end)`` (``dygie.py:121-126`` order — unique per
    doc, so the sort is deterministic), then same-surface groups with
    >= 2 members become clusters ordered by first-mention appearance
    (``coref.py:388-459`` chain-union semantics under the exact-surface
    scorer)."""

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "doc_key" not in df.columns:
            return _empty_clusters()
        m = df.sort_values(
            ["doc_key", "sent_ix", "start", "end"], kind="stable",
            ignore_index=True,
        )
        cl = same_surface_reduction(m, "doc_key")
        if len(cl) == 0:
            return _empty_clusters()
        # conv_id rides along: doc_key -> conv_id is functional
        conv = m.drop_duplicates("doc_key")[["doc_key", "conv_id"]]
        out = cl.merge(conv, on="doc_key", how="left")[_OUT_COLS]
        return out.reset_index(drop=True).astype(
            {"cluster_ix": np.int32, "start": np.int32, "end": np.int32}
        )

    return hash_exchange(mentions, "doc_key", per_bucket, num_buckets)
