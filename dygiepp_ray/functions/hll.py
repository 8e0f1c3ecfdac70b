"""HyperLogLog distinct-count sketch (Flajolet et al. 2007) as a
distributed Ray Data aggregate.

The mergeable state is the register vector (``2**p`` small ints): each
batch computes a full partial register vector (a combiner — shuffle
bytes are O(2**p) per batch regardless of row count), partials merge by
element-wise max, and the driver holds only the final ``2**p`` ints.
That is the textbook HLL topology and exactly the 100 TB shape: no
shuffle of row-level data at all.

Hash convention (pinned by the SQL twin in ``relational.py`` /
``textops/queries.py`` style): value ``v`` hashes to the big-endian
integer of the first 16 hex chars of ``md5(str(v))``; register = top
``p`` bits, rho = leading-zero count of the remaining ``64-p`` bits + 1
(so rho = 64-p+1 for a zero suffix).  Registers are INTEGERS, so the
driver-level oracle compares bit-for-bit; the float estimate is a
separate helper (``estimate``) kept out of the hashed survey.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

import ray.data

HLL_P = 8  # 256 registers


def _bit_length(w: np.ndarray) -> np.ndarray:
    """Vectorized bit_length for uint64 arrays (6 shift/compare rounds)."""
    bl = np.zeros(len(w), dtype=np.int64)
    ww = w.copy()
    for s in (32, 16, 8, 4, 2, 1):
        mask = ww >= (np.uint64(1) << np.uint64(s))
        bl[mask] += s
        ww[mask] >>= np.uint64(s)
    return bl + (ww > 0)


def register_rho(values: pd.Series, p: int = HLL_P) -> tuple[np.ndarray, np.ndarray]:
    """(register, rho) per value under the md5 hash convention above."""
    hx = values.map(lambda v: int(hashlib.md5(str(v).encode()).hexdigest()[:16], 16))
    h = np.array(hx.tolist(), dtype=np.uint64)
    reg = (h >> np.uint64(64 - p)).astype(np.int64)
    w = h & np.uint64((1 << (64 - p)) - 1)
    rho = (64 - p + 1) - _bit_length(w)
    return reg, rho


def hll_registers(
    ds: ray.data.Dataset, col: str, p: int = HLL_P
) -> pd.DataFrame:
    """-> (register, rho_max) for all ``2**p`` registers (0 = never hit)."""
    m = 1 << p

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        regs = np.zeros(m, dtype=np.int64)
        if len(df):
            reg, rho = register_rho(df[col], p)
            np.maximum.at(regs, reg, rho)
        return pd.DataFrame(
            {"register": np.arange(m, dtype=np.int64), "rho_max": regs}
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "register" not in df.columns:
            return pd.DataFrame({"register": pd.Series(dtype=np.int64),
                                 "rho_max": pd.Series(dtype=np.int64)})
        g = df.groupby("register", sort=False, as_index=False)["rho_max"].max()
        return g.astype(np.int64)

    from ..core import hash_exchange

    # register-keyed exchange merges per-batch vectors element-wise
    # BEFORE the collect: the driver holds exactly 2^p rows, not
    # O(batches x 2^p)
    partials = hash_exchange(
        ds.map_batches(partial, batch_format="pandas"), "register", merge,
        num_buckets=4,
    ).to_pandas()
    # Ray passes zero-row blocks through WITHOUT calling the UDF, so an
    # empty dataset collects to a column-less frame; the sketch of the
    # empty set is the all-zero register vector (== the SQL twin's
    # LEFT JOIN over generate_series)
    if partials.empty or "register" not in partials.columns:
        return pd.DataFrame(
            {"register": np.arange(m, dtype=np.int64),
             "rho_max": np.zeros(m, dtype=np.int64)}
        )
    merged = (
        partials.groupby("register")["rho_max"].max().reindex(range(m), fill_value=0)
    )
    return pd.DataFrame(
        {
            "register": np.arange(m, dtype=np.int64),
            "rho_max": merged.to_numpy(np.int64),
        }
    )


def hll_registers_by(
    ds: ray.data.Dataset, col: str, group_col: str, p: int = HLL_P
) -> pd.DataFrame:
    """-> (group, register, rho_max): one HLL sketch PER GROUP — the
    grouped distinct-count aggregate (e.g. distinct users per event
    type).  Sparse partials: each batch emits only its observed
    (group, register) cells, merged by max; driver holds at most
    n_groups x 2**p small ints.  Zero-hit registers are omitted (the
    natural GROUP BY shape, mirrored by the SQL twin)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    group_col: pd.Series(dtype=object),
                    "register": pd.Series(dtype=np.int64),
                    "rho_max": pd.Series(dtype=np.int64),
                }
            )
        reg, rho = register_rho(df[col], p)
        out = pd.DataFrame(
            {group_col: df[group_col].to_numpy(), "register": reg, "rho": rho}
        )
        return (
            out.groupby([group_col, "register"], sort=False)["rho"]
            .max()
            .reset_index(name="rho_max")
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "register" not in df.columns:
            return pd.DataFrame(
                {group_col: pd.Series(dtype=object),
                 "register": pd.Series(dtype=np.int64),
                 "rho_max": pd.Series(dtype=np.int64)}
            )
        return (
            df.groupby([group_col, "register"], sort=False)["rho_max"]
            .max()
            .reset_index()
        )

    from ..core import hash_exchange

    # (group, register) cells merge on a register-keyed exchange first:
    # driver reads back <= n_groups x 2^p rows regardless of batch count
    partials = hash_exchange(
        ds.map_batches(partial, batch_format="pandas"), "register", merge,
        num_buckets=4,
    ).to_pandas()
    if partials.empty or "register" not in partials.columns:
        # empty input -> no observed (group, register) cells
        return pd.DataFrame(
            {group_col: pd.Series(dtype=object),
             "register": pd.Series(dtype=np.int64),
             "rho_max": pd.Series(dtype=np.int64)}
        )
    merged = (
        partials.groupby([group_col, "register"], sort=True)["rho_max"]
        .max()
        .reset_index()
    )
    merged["register"] = merged["register"].astype(np.int64)
    merged["rho_max"] = merged["rho_max"].astype(np.int64)
    return merged


def estimate(registers: pd.DataFrame, p: int = HLL_P) -> float:
    """Cardinality estimate from a register vector, with the standard
    small-range (linear counting) correction."""
    m = 1 << p
    rho = registers.sort_values("register")["rho_max"].to_numpy()
    alpha = 0.7213 / (1 + 1.079 / m)
    raw = alpha * m * m / np.sum(np.power(2.0, -rho.astype(np.float64)))
    zeros = int((rho == 0).sum())
    if raw <= 2.5 * m and zeros:
        return m * np.log(m / zeros)
    return float(raw)
