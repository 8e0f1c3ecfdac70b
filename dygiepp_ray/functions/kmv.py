"""K-Minimum-Values (KMV / bottom-k, Bar-Yossef et al. 2002;
theta-sketch family) distinct-count sketch with SET-INTERSECTION
estimation — the sketch that composes where HLL cannot (HLL unions but
does not intersect).

The mergeable state per group is the k smallest 60-bit md5 hash values
of the DISTINCT keys (60 bits = first 15 hex chars, so values fit
BIGINT on both the engine and the DuckDB twin).  Each batch emits its
local bottom-k per group (a combiner: <= k rows per group per batch),
partials merge by union + bottom-k.  The driver holds O(k x groups)
ints.

Intersection of groups A, B (Beyer et al. 2007): take U = bottom-k of
the UNION of the two sketches, kth = max(U);
``union_est = (kU-1) * 2^60 // kth`` (exact ``kU`` when the union
sketch saw every value), ``matches`` = values of U present in BOTH
sketches, ``inter_est = matches * union_est // kU``.  All arithmetic is
integer floor division so the SQL twin is bit-exact (HUGEINT in SQL,
Python int here).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

import ray.data

KMV_K = 64
_M60 = 1 << 60  # hash domain size (60-bit hashes fit BIGINT)


def hash60(values: pd.Series) -> np.ndarray:
    """First 60 bits (15 hex chars) of md5(str(v)) — the repo-standard
    hash convention truncated to BIGINT range."""
    return np.array(
        [int(hashlib.md5(str(v).encode()).hexdigest()[:15], 16)
         for v in values],
        dtype=np.int64,
    )


def kmv_sketch_by(
    ds: ray.data.Dataset, col: str, by: str, k: int = KMV_K
) -> dict[str, np.ndarray]:
    """One bottom-k sketch per ``by`` group -> {group: sorted hashes}."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[[by, col]].drop_duplicates()
        d = pd.DataFrame({by: d[by].to_numpy(object), "val": hash60(d[col])})
        d = d.drop_duplicates()
        d = d.sort_values("val", kind="mergesort")
        d = d.groupby(by, sort=False).head(k)
        return d

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        # union + bottom-k per group (groups are whole within a bucket:
        # the exchange hashes on ``by``) — bottom-k of unions is
        # associative, so any merge tree yields the same sketch.  The
        # driver reads back <= k rows per group, not per (group, batch).
        if len(df) == 0 or "val" not in df.columns:
            return pd.DataFrame({by: pd.Series(dtype=object),
                                 "val": pd.Series(dtype=np.int64)})
        d = df.drop_duplicates([by, "val"]).sort_values("val", kind="mergesort")
        return d.groupby(by, sort=False).head(k).reset_index(drop=True)

    from ..core import hash_exchange

    parts = hash_exchange(
        ds.map_batches(partial, batch_format="pandas"), by, merge,
        num_buckets=8,
    ).to_pandas()
    if parts.empty or "val" not in parts.columns:
        return {}
    out: dict[str, np.ndarray] = {}
    for g, sub in parts.groupby(by, sort=True):
        vals = np.unique(sub["val"].to_numpy(np.int64))
        out[g] = vals[:k]
    return out


def kmv_intersections(
    sketches: dict[str, np.ndarray], k: int = KMV_K
) -> pd.DataFrame:
    """All ordered group pairs (a < b) ->
    (type_a, type_b, matches, union_est, inter_est), integer-exact."""
    cols = ("type_a", "type_b", "matches", "union_est", "inter_est")
    rows = []
    names = sorted(sketches)
    for i, ta in enumerate(names):
        for tb in names[i + 1:]:
            ha, hb = sketches[ta], sketches[tb]
            union = np.union1d(ha, hb)
            n_union = len(union)
            u = union[: min(k, n_union)]
            ku = len(u)
            if ku == 0:
                continue
            both = np.intersect1d(ha, hb)
            matches = int(np.isin(u, both).sum())
            if n_union < k:
                union_est = n_union  # sketch saw the whole union
            else:
                union_est = (ku - 1) * _M60 // int(u[-1])
            inter_est = matches * union_est // ku
            rows.append((ta, tb, matches, union_est, inter_est))
    if not rows:
        return pd.DataFrame(
            {c: pd.Series(dtype=object if c.startswith("type") else np.int64)
             for c in cols}
        )
    df = pd.DataFrame(rows, columns=list(cols))
    for c in cols[2:]:
        df[c] = df[c].astype(np.int64)
    return df
