"""Count-Min sketch (Cormode & Muthukrishnan 2005) as a distributed
Ray Data aggregate — the frequency-estimation companion to the
HyperLogLog sketch in ``functions/hll.py``.

Topology: each batch computes a SPARSE partial of the d x w counter
matrix (at most d x distinct-values-in-batch cells, capped at d x w),
partials merge by cell-wise SUM, and the driver holds only the final
matrix.  No row-level shuffle; merge traffic is O(d x w) per batch
regardless of row count — the mergeable-sketch shape that survives
100 TB.

Hash convention (pinned by the SQL twin in ``relational.py``): row ``j``
hashes value ``v`` to ``int(md5(f"{j}:{v}").hexdigest()[:16], 16) % w``.
Counters are integers, so the driver-level oracle compares bit-for-bit;
the point-estimate helper (``estimate``) implements the standard
min-over-rows upper bound and is tested separately.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

import ray.data

CMS_DEPTH = 4
CMS_WIDTH = 1024


def _cell(j: int, values: pd.Series, width: int) -> np.ndarray:
    return np.array(
        [
            int(hashlib.md5(f"{j}:{v}".encode()).hexdigest()[:16], 16) % width
            for v in values
        ],
        dtype=np.int64,
    )


def cms_counters(
    ds: ray.data.Dataset, col: str, depth: int = CMS_DEPTH, width: int = CMS_WIDTH
) -> pd.DataFrame:
    """-> (row, col, count): the NONZERO cells of the d x w counter
    matrix after one pass over ``ds[col]``."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "row": pd.Series(dtype=np.int64),
                    "col": pd.Series(dtype=np.int64),
                    "count": pd.Series(dtype=np.int64),
                }
            )
        # hash each DISTINCT value once, then weight by its multiplicity
        vc = df[col].value_counts()
        vals, mult = vc.index.to_series(), vc.to_numpy(np.int64)
        outs = []
        for j in range(depth):
            cells = _cell(j, vals, width)
            cnt = np.zeros(width, dtype=np.int64)
            np.add.at(cnt, cells, mult)
            nz = np.flatnonzero(cnt)
            outs.append(
                pd.DataFrame(
                    {
                        "row": np.full(len(nz), j, dtype=np.int64),
                        "col": nz.astype(np.int64),
                        "count": cnt[nz],
                    }
                )
            )
        return pd.concat(outs, ignore_index=True)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "row" not in df.columns:
            return pd.DataFrame({"row": pd.Series(dtype=np.int64),
                                 "col": pd.Series(dtype=np.int64),
                                 "count": pd.Series(dtype=np.int64)})
        g = df.groupby(["row", "col"], sort=False, as_index=False)["count"].sum()
        return g.astype(np.int64)

    from ..core import hash_exchange

    # cell-wise sums merge on a col-keyed exchange BEFORE the collect:
    # driver holds <= d x w nonzero cells, not O(batches x d x w)
    partials = hash_exchange(
        ds.map_batches(partial, batch_format="pandas"), "col", merge,
        num_buckets=4,
    ).to_pandas()
    # empty dataset -> column-less collect (Ray skips UDFs on zero-row
    # blocks); the empty sketch has no nonzero cells
    if partials.empty or "row" not in partials.columns:
        return pd.DataFrame(
            {"row": pd.Series(dtype=np.int64),
             "col": pd.Series(dtype=np.int64),
             "count": pd.Series(dtype=np.int64)}
        )
    merged = (
        partials.groupby(["row", "col"], sort=True)["count"].sum().reset_index()
    )
    merged["count"] = merged["count"].astype(np.int64)
    return merged


def cms_counters_by(
    ds: ray.data.Dataset, col: str, group_col: str,
    depth: int = CMS_DEPTH, width: int = CMS_WIDTH,
) -> pd.DataFrame:
    """-> (group, row, col, count): one Count-Min sketch PER GROUP
    (e.g. per-event-type user frequencies).  Sparse partials as in
    :func:`cms_counters`, keyed additionally by the group; merge is a
    cell-wise sum, driver holds at most n_groups x d x w ints."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                group_col: pd.Series(dtype=object),
                "row": pd.Series(dtype=np.int64),
                "col": pd.Series(dtype=np.int64),
                "count": pd.Series(dtype=np.int64),
            }
        )
        if len(df) == 0:
            return empty
        vc = df.groupby([group_col, col], sort=False).size().reset_index(name="m")
        outs = []
        for j in range(depth):
            cells = _cell(j, vc[col], width)
            sub = pd.DataFrame(
                {
                    group_col: vc[group_col].to_numpy(),
                    "row": np.full(len(vc), j, dtype=np.int64),
                    "col": cells,
                    "count": vc["m"].to_numpy(np.int64),
                }
            )
            outs.append(
                sub.groupby([group_col, "row", "col"], sort=False)["count"]
                .sum()
                .reset_index()
            )
        return pd.concat(outs, ignore_index=True) if outs else empty

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "row" not in df.columns:
            return pd.DataFrame(
                {group_col: pd.Series(dtype=object),
                 "row": pd.Series(dtype=np.int64),
                 "col": pd.Series(dtype=np.int64),
                 "count": pd.Series(dtype=np.int64)}
            )
        return (
            df.groupby([group_col, "row", "col"], sort=False)["count"]
            .sum()
            .reset_index()
        )

    from ..core import hash_exchange

    # per-group cells merge on a col-keyed exchange first: driver reads
    # back <= n_groups x d x w rows regardless of batch count
    partials = hash_exchange(
        ds.map_batches(partial, batch_format="pandas"), "col", merge,
        num_buckets=4,
    ).to_pandas()
    if partials.empty or "row" not in partials.columns:
        return pd.DataFrame(
            {group_col: pd.Series(dtype=object),
             "row": pd.Series(dtype=np.int64),
             "col": pd.Series(dtype=np.int64),
             "count": pd.Series(dtype=np.int64)}
        )
    merged = (
        partials.groupby([group_col, "row", "col"], sort=True)["count"]
        .sum()
        .reset_index()
    )
    for c in ("row", "col", "count"):
        merged[c] = merged[c].astype(np.int64)
    return merged


def estimate(counters: pd.DataFrame, value, depth: int = CMS_DEPTH,
             width: int = CMS_WIDTH) -> int:
    """Point frequency estimate: min over rows of the value's cell —
    an upper bound on the true count (never an underestimate)."""
    lut = {(int(r), int(c)): int(n) for r, c, n in counters.to_numpy()}
    return min(
        lut.get((j, int(_cell(j, pd.Series([value]), width)[0])), 0)
        for j in range(depth)
    )
