"""Misra-Gries frequent-items sketch (Misra & Gries 1982; merge rule
from Agarwal et al. 2013 "Mergeable Summaries") as a distributed
two-pass EXACT heavy-hitters operator.

Pass 1 (candidates): each batch folds to its exact value counts, then
MG-compresses to at most ``capacity`` counters (subtract the
(capacity+1)-th largest count from all, keep positives).  Partials are
at most ``capacity`` rows each regardless of batch size — the combiner
shape — and merge by the same rule (counter sum, then one decrement),
which preserves the MG guarantee: every item with true count
> n/(capacity+1) survives with a positive counter.  Partials merge on
a key-hashed exchange (per-bucket sum + compress — valid under any
merge tree per the mergeable-summaries theorem), so the driver holds
only O(capacity x buckets) candidate rows regardless of batch count.

Pass 2 (verify): the candidate set (<= capacity keys) is broadcast via
``ray.put`` and exact-counted in one map_batches combiner; items whose
TRUE count exceeds n/phi_inv are emitted.  Because capacity >= phi_inv,
the MG superset guarantee makes the final output exactly the true
heavy hitters — a plain GROUP BY ... HAVING in the SQL twin, which is
what makes the operator driver-hash-checkable.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data


def mg_compress(keys: np.ndarray, counts: np.ndarray, capacity: int):
    """MG decrement step: if more than ``capacity`` counters remain,
    subtract the (capacity+1)-th largest count from all and keep the
    strictly positive ones.  Returns (keys, counts) arrays."""
    if len(keys) <= capacity:
        return keys, counts
    # (capacity+1)-th largest = the pivot every smaller counter dies by
    pivot = np.partition(counts, len(counts) - (capacity + 1))[
        len(counts) - (capacity + 1)
    ]
    dec = counts - pivot
    keep = dec > 0
    return keys[keep], dec[keep]


def mg_candidates(
    ds: ray.data.Dataset, col: str, capacity: int
) -> np.ndarray:
    """Pass 1: MG candidate keys (at most ``capacity``), a guaranteed
    superset of every item with true count > n/(capacity+1)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df[col].value_counts()
        k, c = mg_compress(
            vc.index.to_numpy(np.int64), vc.to_numpy(np.int64), capacity
        )
        return pd.DataFrame({"key": k, "count": c})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        # per-bucket sum + compress: the mergeable-summaries theorem
        # (Agarwal et al. 2013) keeps error <= n/(capacity+1) under ANY
        # merge tree, so candidates stay a superset of the true heavy
        # hitters; the verify pass makes the final output exact either
        # way.  Driver holds <= capacity x buckets rows, not
        # O(batches x capacity).
        if len(df) == 0 or "key" not in df.columns:
            return pd.DataFrame({"key": pd.Series(dtype=np.int64),
                                 "count": pd.Series(dtype=np.int64)})
        g = df.groupby("key", sort=False)["count"].sum()
        k, c = mg_compress(
            g.index.to_numpy(np.int64), g.to_numpy(np.int64), capacity
        )
        return pd.DataFrame({"key": k, "count": c})

    from ..core import hash_exchange

    parts = hash_exchange(
        ds.map_batches(partial, batch_format="pandas"), "key", merge,
        num_buckets=8,
    ).to_pandas()
    if parts.empty or "key" not in parts.columns:
        return np.empty(0, dtype=np.int64)
    # bucket keys are disjoint: one final compress over the survivors
    keys, counts = mg_compress(
        parts["key"].to_numpy(np.int64), parts["count"].to_numpy(np.int64),
        capacity,
    )
    return np.sort(keys)


def heavy_hitters_exact(
    ds: ray.data.Dataset, col: str, phi_inv: int, capacity: int | None = None
) -> pd.DataFrame:
    """Exact items with count * phi_inv > n via MG candidates + one
    broadcast verify pass.  -> (key, count) sorted by key."""
    capacity = capacity or phi_inv
    if capacity < phi_inv:
        raise ValueError(
            f"capacity {capacity} < phi_inv {phi_inv} voids the MG "
            "superset guarantee (needs capacity+1 > phi_inv)"
        )
    cand = mg_candidates(ds, col, capacity)
    n = ds.count()  # parquet-metadata count on a bare read
    if len(cand) == 0 or not n:
        return pd.DataFrame(
            {"key": pd.Series(dtype=np.int64),
             "count": pd.Series(dtype=np.int64)}
        )
    cand_ref = ray.put(cand)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        cset = ray.get(cand_ref)
        v = df[col].to_numpy(np.int64)
        v = v[np.isin(v, cset)]
        if len(v) == 0:
            return pd.DataFrame(
                {"key": pd.Series(dtype=np.int64),
                 "count": pd.Series(dtype=np.int64)}
            )
        k, c = np.unique(v, return_counts=True)
        return pd.DataFrame({"key": k, "count": c.astype(np.int64)})

    def merge_exact(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "key" not in df.columns:
            return pd.DataFrame({"key": pd.Series(dtype=np.int64),
                                 "count": pd.Series(dtype=np.int64)})
        g = df.groupby("key", sort=False, as_index=False)["count"].sum()
        return g.astype(np.int64)

    from ..core import hash_exchange

    # exact per-key sums merge on a keyed exchange; the driver reads
    # back <= |candidates| rows total
    parts = hash_exchange(
        ds.map_batches(verify, batch_format="pandas"), "key", merge_exact,
        num_buckets=8,
    ).to_pandas()
    if parts.empty or "key" not in parts.columns:
        return pd.DataFrame(
            {"key": pd.Series(dtype=np.int64),
             "count": pd.Series(dtype=np.int64)}
        )
    g = parts.groupby("key", sort=True)["count"].sum().reset_index()
    out = g[g["count"] * phi_inv > n]
    return out.reset_index(drop=True).astype(np.int64)
