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
in-batch mention columns.

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


def same_surface_clusters(doc: np.ndarray, surf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The single home of the cluster decode convention shared by the
    in-extraction path (``ExtractStage._clusters``) and the
    mention-derived path (``clusters_from_mentions``): groups of >= 2
    same-surface mentions per document become clusters, ``cluster_ix``
    ordered by first-mention appearance.  ``doc`` and ``surf`` are int
    codes per mention, in span-enumeration order (``dygie.py:121-126``)
    with each document's mentions contiguous and documents ascending;
    callers own that sort.  Returns the member rows cluster by cluster
    (members in mention order) and each member's ``cluster_ix``."""
    if len(doc) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    key = doc.astype(np.int64) * (int(surf.max()) + 1) + surf
    _, first, inv, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    rows = np.flatnonzero(counts[inv] >= 2)
    f = first[inv[rows]]
    order = np.lexsort((rows, f))
    rows, f = rows[order], f[order]
    new = np.diff(f, prepend=-1) != 0
    cdoc = doc[f[new]]                      # ascending: clusters follow first mentions
    cix = np.arange(len(cdoc)) - np.searchsorted(cdoc, cdoc)
    return rows, cix[np.cumsum(new) - 1]


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
        rows, cix = same_surface_clusters(
            pd.factorize(m["doc_key"])[0], pd.factorize(m["surface"])[0]
        )
        if len(rows) == 0:
            return _empty_clusters()
        out = m.iloc[rows].assign(cluster_ix=cix)[_OUT_COLS]
        return out.reset_index(drop=True).astype(
            {"cluster_ix": np.int32, "start": np.int32, "end": np.int32}
        )

    return hash_exchange(mentions, "doc_key", per_bucket, num_buckets)
