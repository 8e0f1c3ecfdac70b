"""Custom join / quantile / semi-structured operators Ray Data lacks
natively, built from the engine's exchange primitives with exact DuckDB
oracles:

* **as-of join** — for each left row, the latest right row at-or-before
  its timestamp, per key.  Distributed as ONE two-sided keyed exchange
  on the equi-key (`core.hash_coexchange`) + a vectorized in-bucket
  `pd.merge_asof`; the reference's closest analogue is the antecedent
  window (each mention vs preceding spans, `dygie/models/coref.py:471-526`)
  — "latest preceding item per key" generalized to event time.
* **range join** — interval x point with NO equi-key: time is cut into
  fixed chunks, each interval is replicated to the (<=2) chunks it
  overlaps while each point lands in exactly one, then a keyed
  coexchange on chunk id joins locally (sorted `searchsorted` probes).
  Partitioning assumption: interval length <= chunk length, so
  replication is bounded and no pair dedup is needed.
* **distributed exact quantiles** — multi-pass selection: per-block
  order-statistic candidates -> one counting pass (packed int64
  partials) -> collect only the bracketing interval(s).  The driver
  holds O(blocks x candidates) scalars, never the data; each refinement
  round shrinks the interval ~candidates-fold, so 1e12 rows need ~3
  passes before the final small collect.
* **anti join** — orders with no matching filtered child rows: child
  side pre-deduped per batch (combiner), one coexchange, left-anti in
  the bucket.
* **JSON extraction** — vectorized regex fast path over a uniform JSON
  column with a per-row `json.loads` fallback for rows the fast path
  misses (exact semantics, hot path stays vectorized).

Float policy matches `relational.py`: sums that must hash-match SQL are
integer (counts, floor-cents) or exact (max / direct values), with
`round(, 2)` applied on BOTH sides only to per-row values.
"""

from __future__ import annotations

import json
import logging
import math

import numpy as np
import pandas as pd

import ray
import ray.data

from .core import hash_coexchange, hash_exchange, split_refs, ts_epoch_us

_LOG = logging.getLogger(__name__)


US = 1_000_000


# ---------------------------------------------------------------------------
# as-of join
# ---------------------------------------------------------------------------

def asof_join_purchase(sf_dir: str) -> ray.data.Dataset:
    """For every 'click' event, the latest 'purchase' by the same user
    at-or-before the click (backward as-of join on user_id).

    The right side is pre-aggregated to one row per (user_id, ts) —
    purchase_id = max(event_id), purchase_value = max(value) — so the
    as-of target is deterministic even under timestamp ties (max is
    order-independent and bit-exact, unlike a float sum); both sides
    ride one `hash_coexchange` on user_id and each bucket runs a single
    vectorized `pd.merge_asof`."""
    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )
    clicks = purchases = events  # one read; the two maps filter

    def mk_left(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["event_type"] == "click"]
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(np.int64),
                "user_id": df["user_id"].to_numpy(np.int64),
                "t": ts_epoch_us(df["ts"]),
            }
        )

    def mk_right(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["event_type"] == "purchase"]
        return pd.DataFrame(
            {
                "user_id": df["user_id"].to_numpy(np.int64),
                "t": ts_epoch_us(df["ts"]),
                "event_id": df["event_id"].to_numpy(np.int64),
                "value": df["value"].to_numpy(np.float64),
            }
        )

    left = clicks.map_batches(mk_left, batch_format="pandas")
    right = purchases.map_batches(mk_right, batch_format="pandas")

    def empty() -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": pd.Series(dtype=np.int64),
                "user_id": pd.Series(dtype=np.int64),
                "t_click": pd.Series(dtype=np.int64),
                "purchase_id": pd.Series(dtype=np.int64),
                "lag_s": pd.Series(dtype=np.int64),
                "purchase_value": pd.Series(dtype=np.float64),
            }
        )

    def join(c: pd.DataFrame, p: pd.DataFrame) -> pd.DataFrame:
        if len(c) == 0 or "t" not in c.columns or len(p) == 0 or "t" not in p.columns:
            return empty()
        # Deterministic as-of target under ties: one row per (user, ts).
        p = p.groupby(["user_id", "t"], as_index=False).agg(
            purchase_id=("event_id", "max"), purchase_value=("value", "max")
        )
        p["t_p"] = p["t"]
        c = c.sort_values("t", kind="mergesort", ignore_index=True)
        p = p.sort_values("t", kind="mergesort", ignore_index=True)
        j = pd.merge_asof(c, p, on="t", by="user_id", direction="backward")
        j = j.dropna(subset=["purchase_id"])
        return pd.DataFrame(
            {
                "event_id": j["event_id"].to_numpy(np.int64),
                "user_id": j["user_id"].to_numpy(np.int64),
                "t_click": j["t"].to_numpy(np.int64),
                "purchase_id": j["purchase_id"].to_numpy(np.int64),
                "lag_s": (j["t"].to_numpy(np.int64) - j["t_p"].to_numpy(np.int64))
                // US,
                "purchase_value": j["purchase_value"].to_numpy(np.float64).round(2),
            }
        )

    return hash_coexchange(left, right, "user_id", "user_id", join, num_buckets=16)


SQL_ASOF_JOIN_PURCHASE = """
WITH clicks AS (
  SELECT event_id, user_id, ts FROM events WHERE event_type = 'click'
), purch AS (
  SELECT user_id, ts,
         CAST(max(event_id) AS BIGINT) AS purchase_id,
         round(max(value), 2) AS purchase_value
  FROM events WHERE event_type = 'purchase' GROUP BY 1, 2
)
SELECT c.event_id, c.user_id,
       CAST(epoch_us(c.ts) AS BIGINT) AS t_click,
       p.purchase_id,
       (CAST(epoch_us(c.ts) AS BIGINT) - CAST(epoch_us(p.ts) AS BIGINT))
         // 1000000 AS lag_s,
       p.purchase_value
FROM clicks c ASOF JOIN purch p
  ON c.user_id = p.user_id AND c.ts >= p.ts
"""


# ---------------------------------------------------------------------------
# range join (interval x point, no equi-key)
# ---------------------------------------------------------------------------

def range_join_error_window(
    sf_dir: str, window_s: int = 60, chunk_s: int = 256
) -> ray.data.Dataset:
    """Count non-error events falling in each error event's
    [ts, ts + window_s) interval — a pure range join distributed by
    time-chunk replication (requires window_s <= chunk_s so each
    interval spans <= 2 chunks; points are never replicated, so partial
    counts need no pair dedup, only a per-interval sum).

    Aggregates are exact under any partitioning: n_hits is an integer
    count, hit_cents sums floor(value*100) (per-row double -> int64,
    associative)."""
    if window_s > chunk_s:
        raise ValueError("window_s must be <= chunk_s (bounded replication)")
    win_us = window_s * US
    chunk_us = chunk_s * US

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "event_type", "value"]
    )

    def mk_intervals(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["event_type"] == "error"]
        t0 = ts_epoch_us(df["ts"])
        t1 = t0 + win_us
        eid = df["event_id"].to_numpy(np.int64)
        c0 = t0 // chunk_us
        c1 = (t1 - 1) // chunk_us  # last covered point (t1 exclusive)
        first = pd.DataFrame({"chunk": c0, "event_id": eid, "t0": t0, "t1": t1})
        spill = c1 > c0
        second = pd.DataFrame(
            {"chunk": c1[spill], "event_id": eid[spill],
             "t0": t0[spill], "t1": t1[spill]}
        )
        return pd.concat([first, second], ignore_index=True)

    def mk_points(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["event_type"] != "error"]
        t = ts_epoch_us(df["ts"])
        return pd.DataFrame(
            {
                "chunk": t // chunk_us,
                "t": t,
                "cents": np.floor(df["value"].to_numpy(np.float64) * 100.0).astype(
                    np.int64
                ),
            }
        )

    intervals = ds.map_batches(mk_intervals, batch_format="pandas")
    points = ds.map_batches(mk_points, batch_format="pandas")

    def bucket_join(iv: pd.DataFrame, pt: pd.DataFrame) -> pd.DataFrame:
        if (len(iv) == 0 or "t0" not in iv.columns
                or len(pt) == 0 or "t" not in pt.columns):
            return pd.DataFrame(
                {
                    "event_id": pd.Series(dtype=np.int64),
                    "n_hits": pd.Series(dtype=np.int64),
                    "hit_cents": pd.Series(dtype=np.int64),
                }
            )
        pt = pt.sort_values("t", kind="mergesort", ignore_index=True)
        ts = pt["t"].to_numpy(np.int64)
        pref = np.concatenate(
            [[0], np.cumsum(pt["cents"].to_numpy(np.int64))]
        )
        # Clamp each interval replica to its own chunk's span: any point
        # whose t lies in the clamped range belongs to that chunk by
        # construction, so a single sorted array over the whole bucket
        # (which holds many chunks) is safe.
        chunk = iv["chunk"].to_numpy(np.int64)
        lo = np.maximum(iv["t0"].to_numpy(np.int64), chunk * chunk_us)
        hi = np.minimum(iv["t1"].to_numpy(np.int64), (chunk + 1) * chunk_us)
        i0 = np.searchsorted(ts, lo, side="left")
        i1 = np.searchsorted(ts, hi, side="left")
        return pd.DataFrame(
            {
                "event_id": iv["event_id"].to_numpy(np.int64),
                "n_hits": (i1 - i0).astype(np.int64),
                "hit_cents": (pref[i1] - pref[i0]).astype(np.int64),
            }
        )

    partials = hash_coexchange(
        intervals, points, "chunk", "chunk", bucket_join, num_buckets=16
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("event_id", as_index=False).agg(
            n_hits=("n_hits", "sum"), hit_cents=("hit_cents", "sum")
        )
        g = g[g["n_hits"] > 0]
        return g.astype(
            {"event_id": np.int64, "n_hits": np.int64, "hit_cents": np.int64}
        )

    return hash_exchange(partials, "event_id", finalize, num_buckets=8)


SQL_RANGE_JOIN_ERROR_WINDOW = """
WITH e AS (
  SELECT event_id, ts FROM events WHERE event_type = 'error'
), o AS (
  SELECT ts, CAST(floor(value * 100.0) AS BIGINT) AS cents
  FROM events WHERE event_type <> 'error'
)
SELECT e.event_id,
       CAST(count(*) AS BIGINT) AS n_hits,
       CAST(sum(o.cents) AS BIGINT) AS hit_cents
FROM e JOIN o ON o.ts >= e.ts AND o.ts < e.ts + INTERVAL 60 SECOND
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# distributed exact quantiles
# ---------------------------------------------------------------------------

def exact_quantiles(
    ds: ray.data.Dataset,
    col: str,
    qs: list[float],
    per_block_candidates: int = 128,
    collect_cap: int = 1_000_000,
    max_rounds: int = 8,
    _ks_fn=None,
) -> pd.DataFrame:
    """Exact q-quantiles of ``ds[col]`` by distributed selection.

    Convention: the q-quantile is the ceil(q*n)-th smallest value
    (matches DuckDB ``quantile_disc``); ``_ks_fn(n) -> [rank...]``
    (1-based, one per q) overrides that rank choice — the hook
    :func:`exact_quantiles_cont` uses to fetch the two order statistics
    an interpolated quantile needs.  Per round: (1) every block
    contributes ``per_block_candidates`` of its own order statistics
    within the current bracket (gap between adjacent global candidates
    <= n_bracket/(candidates-1)); (2) one counting pass returns packed
    int64 partial counts per block (driver holds only
    O(blocks x candidates) scalars); (3) brackets tighten ~128x per
    round until the interval population fits ``collect_cap``, then only
    those rows are pulled and selected locally."""
    if not qs:
        return pd.DataFrame({"q": pd.Series(dtype=np.float64),
                             "value": pd.Series(dtype=np.float64)})

    # The selection makes 2+ full passes (candidates, counts, collect):
    # pin the pruned single column in the object store once instead of
    # re-decoding parquet per pass.  One float64 column is ~1% of a
    # typical table's bytes, and blocks spill if it doesn't fit.
    ds = ds.select_columns([col]).materialize()

    # Per-target bracket (lo_v, hi_v], with lo_cnt = #values <= lo_v.
    # Brackets refine independently (a shared bracket could never drop
    # below the population BETWEEN the smallest and largest target);
    # each round still costs exactly two passes because the candidate
    # and counting passes run over the UNION of open brackets.
    brackets = None  # per q: [lo_v, hi_v, lo_cnt, hi_cnt, done]
    n_total = None
    ks = None

    for _round in range(max_rounds):
        if brackets is None:
            spans = [(-np.inf, np.inf)]
        else:
            spans = [(b[0], b[1]) for b in brackets if not b[4]]

        def candidates(df: pd.DataFrame) -> pd.DataFrame:
            # Sampled per span (not over the union) so a narrow bracket
            # still receives candidates next to a wide one.
            v0 = df[col].to_numpy(np.float64)
            out = []
            for lo, hi in spans:
                v = v0[(v0 > lo) & (v0 <= hi)]
                if len(v) == 0:
                    continue
                v.sort()
                idx = np.linspace(
                    0, len(v) - 1, min(per_block_candidates, len(v))
                ).astype(np.int64)
                out.append(np.unique(v[idx]))
            if not out:
                return pd.DataFrame({"cand": pd.Series(dtype=np.float64)})
            return pd.DataFrame({"cand": np.unique(np.concatenate(out))})

        cand_df = ds.map_batches(candidates, batch_format="pandas").to_pandas()
        if cand_df.empty or "cand" not in cand_df.columns:
            if brackets is None:
                # zero-row input: quantiles of the empty set are no rows
                # (matches quantile_disc over an empty table)
                return pd.DataFrame({"q": pd.Series(dtype=np.float64),
                                     "value": pd.Series(dtype=np.float64)})
            cands = np.empty(0, dtype=np.float64)
        else:
            cands = np.unique(cand_df["cand"].to_numpy(np.float64))
        if len(cands) == 0:
            raise ValueError(f"no values of {col!r} in any open bracket")

        def count_le(df: pd.DataFrame) -> pd.DataFrame:
            v = np.sort(df[col].to_numpy(np.float64))
            c = np.searchsorted(v, cands, side="right").astype(np.int64)
            return pd.DataFrame({"packed": [c.tobytes()]})

        parts = ds.map_batches(count_le, batch_format="pandas").to_pandas()
        abs_counts = np.zeros(len(cands), dtype=np.int64)
        for buf in parts["packed"]:
            abs_counts += np.frombuffer(buf, dtype=np.int64)
        # abs_counts[i] = #values <= cands[i] over the WHOLE column.

        if n_total is None:
            # Round 1 candidates include every block's max -> global max.
            n_total = int(abs_counts[-1])
            if n_total == 0:
                raise ValueError(f"empty column {col!r}")
            raw_ks = (_ks_fn(n_total) if _ks_fn is not None
                      else [int(math.ceil(q * n_total)) for q in qs])
            ks = [min(max(int(k), 1), n_total) for k in raw_ks]
            brackets = [[-np.inf, np.inf, 0, n_total, False] for _ in qs]

        all_done = True
        for b, k in zip(brackets, ks):
            if b[4]:
                continue
            # Tighten around rank k using candidates inside this bracket.
            lo_v, hi_v = b[0], b[1]
            m = (cands > lo_v) & (cands <= hi_v)
            c_in, n_in = cands[m], abs_counts[m]
            i = int(np.searchsorted(n_in, k, side="left"))
            if i < len(c_in):
                b[1], b[3] = float(c_in[i]), int(n_in[i])
            if i > 0:
                b[0], b[2] = float(c_in[i - 1]), int(n_in[i - 1])
            if b[3] - b[2] <= collect_cap:
                b[4] = True
            else:
                all_done = False
        if all_done:
            break
    else:
        raise RuntimeError("exact_quantiles did not converge; raise collect_cap")

    final_spans = [(b[0], b[1]) for b in brackets]

    def in_bracket(df: pd.DataFrame) -> pd.DataFrame:
        v = df[col].to_numpy(np.float64)
        keep = np.zeros(len(v), dtype=bool)
        for lo, hi in final_spans:
            keep |= (v > lo) & (v <= hi)
        return pd.DataFrame({"v": v[keep]})

    vals = np.sort(
        ds.map_batches(in_bracket, batch_format="pandas")
        .to_pandas()["v"].to_numpy(np.float64)
    )
    out = []
    for q, k, b in zip(qs, ks, brackets):
        lo_v, hi_v, lo_cnt = b[0], b[1], b[2]
        seg = vals[(vals > lo_v) & (vals <= hi_v)]
        out.append((q, float(seg[k - lo_cnt - 1])))
    return pd.DataFrame(out, columns=["q", "value"]).astype(np.float64)


def exact_quantiles_cont(
    ds: ray.data.Dataset, col: str, qs: list[float], **kw
) -> pd.DataFrame:
    """Exact INTERPOLATED quantiles (DuckDB ``quantile_cont`` /
    SQL PERCENTILE_CONT): h = (n-1)*q, value = (ceil(h) - h) *
    x[floor(h)] + (h - floor(h)) * x[ceil(h)] — the two-sided weighting
    DuckDB uses (NOT the algebraically-equal ``lo + frac*(hi-lo)``,
    which differs in the last ulp; planted tests assert bit-equality).
    Rides :func:`exact_quantiles`' distributed selection once over the
    UNION of the floor/ceil ranks (2 ranks per q, same two passes per
    round), so the cont variant costs the same as disc."""
    if not qs:
        return pd.DataFrame({"q": pd.Series(dtype=np.float64),
                             "value": pd.Series(dtype=np.float64)})
    seen = {}

    def ks_fn(n):
        seen["n"] = n
        lo = [int(math.floor((n - 1) * q)) + 1 for q in qs]
        hi = [int(math.ceil((n - 1) * q)) + 1 for q in qs]
        return lo + hi

    res = exact_quantiles(ds, col, list(qs) + list(qs), _ks_fn=ks_fn, **kw)
    if res.empty:
        return res
    n = seen["n"]
    vals = res["value"].to_numpy(np.float64)
    lo, hi = vals[: len(qs)], vals[len(qs):]
    out = []
    for i, q in enumerate(qs):
        h = (n - 1) * q
        frn, crn = math.floor(h), math.ceil(h)
        if crn == frn:
            out.append((q, lo[i]))
        else:
            out.append((q, (crn - h) * lo[i] + (h - frn) * hi[i]))
    return pd.DataFrame(out, columns=["q", "value"]).astype(np.float64)


def quantiles_price(sf_dir: str) -> pd.DataFrame:
    """Exact distributed quantiles of lineitem.l_extendedprice."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )
    out = exact_quantiles(ds, "l_extendedprice", [0.25, 0.5, 0.75, 0.95])
    out["value"] = out["value"].round(2)
    return out


SQL_QUANTILES_PRICE = """
SELECT q, round(value, 2) AS value FROM (
  SELECT unnest([0.25, 0.5, 0.75, 0.95]) AS q,
         unnest(quantile_disc(l_extendedprice, [0.25, 0.5, 0.75, 0.95])) AS value
  FROM lineitem
)
"""


def quantiles_cont_price(sf_dir: str) -> pd.DataFrame:
    """Exact interpolated (PERCENTILE_CONT) quantiles of
    lineitem.l_extendedprice — raw doubles, bit-identical to DuckDB."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )
    return exact_quantiles_cont(
        ds, "l_extendedprice", [0.25, 0.5, 0.75, 0.95]
    )


SQL_QUANTILES_CONT_PRICE = """
SELECT q, value FROM (
  SELECT unnest([0.25, 0.5, 0.75, 0.95]) AS q,
         unnest(quantile_cont(l_extendedprice, [0.25, 0.5, 0.75, 0.95])) AS value
  FROM lineitem
)
"""


def quantiles_cont_by_flag(sf_dir: str) -> ray.data.Dataset:
    """Per-group interpolated quantiles (l_extendedprice by
    l_returnflag): one keyed exchange, DuckDB's exact two-sided
    interpolation weighting per group (see
    :func:`exact_quantiles_cont`); assumes a group fits one bucket
    task, like :func:`quantiles_by_flag`."""
    qs = [0.25, 0.5, 0.75, 0.95]
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice"],
    )

    def per_group(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        if len(df) == 0 or "l_returnflag" not in df.columns:
            return pd.DataFrame(
                {"l_returnflag": pd.Series(dtype=object),
                 "q": pd.Series(dtype=np.float64),
                 "value": pd.Series(dtype=np.float64)}
            )
        for flag, g in df.groupby("l_returnflag", sort=False):
            v = np.sort(g["l_extendedprice"].to_numpy(np.float64))
            n = len(v)
            for q in qs:
                h = (n - 1) * q
                frn, crn = math.floor(h), math.ceil(h)
                val = v[frn] if crn == frn else (
                    (crn - h) * v[frn] + (h - frn) * v[crn]
                )
                out.append((flag, q, val))
        return pd.DataFrame(
            out, columns=["l_returnflag", "q", "value"]
        ).astype({"q": np.float64, "value": np.float64})

    return hash_exchange(ds, "l_returnflag", per_group,
                                  num_buckets=4)


SQL_QUANTILES_CONT_BY_FLAG = """
SELECT l_returnflag, q, value FROM (
  SELECT l_returnflag,
         unnest([0.25, 0.5, 0.75, 0.95]) AS q,
         unnest(quantile_cont(l_extendedprice, [0.25, 0.5, 0.75, 0.95])) AS value
  FROM lineitem GROUP BY l_returnflag
)
"""


def winsorized_revenue(sf_dir: str) -> pd.DataFrame:
    """Winsorization — the outlier-robust cleaning transform: clip
    l_extendedprice to its exact global [p05, p95] (distributed
    selection, same ceil(q*n) rank as ``quantile_disc``), then sum the
    CLIPPED prices per l_returnflag in integer cents.  Clipping happens
    before the cents quantization on both sides, and the two clip
    bounds are themselves input values, so the whole statistic is
    hash-exact under any partitioning.  Two passes: the quantile
    selection (driver holds two scalars) + one map-only combiner scan —
    no exchange at all (3-value group key; see price_outliers).
    -> (l_returnflag, n, clipped_cents)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice"],
    )
    qs = exact_quantiles(
        ds.select_columns(["l_extendedprice"]), "l_extendedprice",
        [0.05, 0.95],
    )
    _empty = pd.DataFrame(
        {"l_returnflag": pd.Series(dtype=object),
         "n": pd.Series(dtype=np.int64),
         "clipped_cents": pd.Series(dtype=np.int64)}
    )
    if qs.empty:
        return _empty
    lo, hi = float(qs["value"].iloc[0]), float(qs["value"].iloc[1])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_returnflag" not in df.columns:
            return _empty.copy()
        v = np.clip(df["l_extendedprice"].to_numpy(np.float64), lo, hi)
        cents = np.floor(v * 100 + 0.5).astype(np.int64)
        g = (
            pd.DataFrame({"l_returnflag": df["l_returnflag"].to_numpy(object),
                          "cents": cents})
            .groupby("l_returnflag", sort=False)["cents"]
            .agg(["size", "sum"]).reset_index()
        )
        return pd.DataFrame(
            {"l_returnflag": g["l_returnflag"],
             "n": g["size"].to_numpy(np.int64),
             "clipped_cents": g["sum"].to_numpy(np.int64)}
        )

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty or "l_returnflag" not in parts.columns:
        return _empty
    out = parts.groupby("l_returnflag", sort=True, as_index=False).agg(
        n=("n", "sum"), clipped_cents=("clipped_cents", "sum")
    )
    return out.astype({"n": np.int64, "clipped_cents": np.int64})


SQL_WINSORIZED_REVENUE = """
WITH b AS (
  SELECT unnest(quantile_disc(l_extendedprice, [0.05, 0.95])) AS v
  FROM lineitem
),
lim AS (SELECT min(v) AS lo, max(v) AS hi FROM b)
SELECT l_returnflag, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(floor(
         least(greatest(l_extendedprice, (SELECT lo FROM lim)),
               (SELECT hi FROM lim)) * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS clipped_cents
FROM lineitem GROUP BY 1
"""


def quantiles_by_flag(sf_dir: str) -> ray.data.Dataset:
    """Exact per-group quantiles (l_extendedprice by l_returnflag): one
    keyed exchange, np selection per group with the same ceil(q*n)-th
    rank convention as :func:`exact_quantiles`.  Assumes a group fits
    one bucket task (the sessionize/map_groups shape); for groups
    bigger than a task, run :func:`exact_quantiles` on a filtered
    dataset per group instead."""
    qs = [0.25, 0.5, 0.75, 0.95]
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_extendedprice"]
    )

    def per_group(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for flag, g in df.groupby("l_returnflag", sort=False):
            v = np.sort(g["l_extendedprice"].to_numpy(np.float64))
            for q in qs:
                k = min(max(int(math.ceil(q * len(v))), 1), len(v))
                out.append((flag, q, round(float(v[k - 1]), 2)))
        return pd.DataFrame(out, columns=["l_returnflag", "q", "value"]).astype(
            {"q": np.float64, "value": np.float64}
        )

    return hash_exchange(ds, "l_returnflag", per_group, num_buckets=4)


SQL_QUANTILES_BY_FLAG = """
SELECT l_returnflag, q, round(value, 2) AS value FROM (
  SELECT l_returnflag,
         unnest([0.25, 0.5, 0.75, 0.95]) AS q,
         unnest(quantile_disc(l_extendedprice, [0.25, 0.5, 0.75, 0.95])) AS value
  FROM lineitem GROUP BY l_returnflag
)
"""


# ---------------------------------------------------------------------------
# anti join
# ---------------------------------------------------------------------------

def orders_anti_join(sf_dir: str, bloom_prefilter: bool = False) -> ray.data.Dataset:
    """Orders with NO returned ('R') lineitem: child side filtered and
    batch-deduped (combiner), then one coexchange on the order key with
    a left-anti membership test per bucket.

    ``bloom_prefilter=True`` is the scale path: a distributed Bloom
    filter over the child keys (one pass, tree-OR'd bitmaps, ray.put
    broadcast) splits the left side BEFORE the shuffle — Bloom-negative
    rows provably have no match and bypass the exchange entirely; only
    Bloom-positive rows (matches + ~1% false positives) ride it for the
    exact check.  Result is identical (equivalence-tested)."""
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_returnflag"]
    )

    def returned_keys(df: pd.DataFrame) -> pd.DataFrame:
        keys = df.loc[df["l_returnflag"] == "R", "l_orderkey"]
        return pd.DataFrame({"l_orderkey": keys.unique().astype(np.int64)})

    keys = li.map_batches(returned_keys, batch_format="pandas")

    def anti(o: pd.DataFrame, k: pd.DataFrame) -> pd.DataFrame:
        if len(o) == 0 or "o_orderkey" not in o.columns:
            return pd.DataFrame(
                {"o_orderkey": pd.Series(dtype=np.int64),
                 "o_totalprice": pd.Series(dtype=np.float64)}
            )
        if len(k) == 0 or "l_orderkey" not in k.columns:
            keep = o
        else:
            keep = o[~o["o_orderkey"].isin(k["l_orderkey"])]
        return pd.DataFrame(
            {
                "o_orderkey": keep["o_orderkey"].to_numpy(np.int64),
                "o_totalprice": keep["o_totalprice"].to_numpy(np.float64).round(2),
            }
        )

    if not bloom_prefilter:
        return hash_coexchange(orders, keys, "o_orderkey", "l_orderkey", anti,
                               num_buckets=16)

    from .functions.bloom import build_bloom, split_by_bloom

    bloom_ref = build_bloom(keys, "l_orderkey")
    maybe, definitely_not = split_by_bloom(orders, "o_orderkey", bloom_ref)

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"].to_numpy(np.int64),
                "o_totalprice": df["o_totalprice"].to_numpy(np.float64).round(2),
            }
        )

    checked = hash_coexchange(maybe, keys, "o_orderkey", "l_orderkey", anti,
                              num_buckets=16)
    return checked.union(definitely_not.map_batches(project, batch_format="pandas"))


SQL_ORDERS_ANTI_JOIN = """
SELECT o_orderkey, round(o_totalprice, 2) AS o_totalprice
FROM orders o
WHERE NOT EXISTS (
  SELECT 1 FROM lineitem l
  WHERE l.l_orderkey = o.o_orderkey AND l.l_returnflag = 'R'
)
"""


def orders_semi_join(sf_dir: str, bloom_prefilter: bool = True) -> ray.data.Dataset:
    """Orders WITH at least one returned ('R') lineitem — the semi-join
    complement of :func:`orders_anti_join`, same one-coexchange shape.

    For a semi join the Bloom prefilter (default ON) is strictly a win:
    Bloom-NEGATIVE rows provably have no match and are DROPPED before
    the shuffle, so only candidate rows (matches + ~1% false positives,
    which the exact in-bucket check removes) ever ride the exchange —
    at 100 TB the left side shrinks to roughly the match cardinality
    before any all-to-all."""
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_returnflag"]
    )

    def returned_keys(df: pd.DataFrame) -> pd.DataFrame:
        keys = df.loc[df["l_returnflag"] == "R", "l_orderkey"]
        return pd.DataFrame({"l_orderkey": keys.unique().astype(np.int64)})

    keys = li.map_batches(returned_keys, batch_format="pandas")

    def semi(o: pd.DataFrame, k: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"o_orderkey": pd.Series(dtype=np.int64),
             "o_totalprice": pd.Series(dtype=np.float64)}
        )
        if len(o) == 0 or "o_orderkey" not in o.columns:
            return empty
        if len(k) == 0 or "l_orderkey" not in k.columns:
            return empty
        keep = o[o["o_orderkey"].isin(k["l_orderkey"])]
        return pd.DataFrame(
            {
                "o_orderkey": keep["o_orderkey"].to_numpy(np.int64),
                "o_totalprice": keep["o_totalprice"].to_numpy(np.float64).round(2),
            }
        )

    left = orders
    if bloom_prefilter:
        from .functions.bloom import build_bloom, split_by_bloom

        bloom_ref = build_bloom(keys, "l_orderkey")
        left, _definitely_not = split_by_bloom(orders, "o_orderkey", bloom_ref)

    return hash_coexchange(left, keys, "o_orderkey", "l_orderkey", semi,
                           num_buckets=16)


SQL_ORDERS_SEMI_JOIN = """
SELECT o_orderkey, round(o_totalprice, 2) AS o_totalprice
FROM orders o
WHERE EXISTS (
  SELECT 1 FROM lineitem l
  WHERE l.l_orderkey = o.o_orderkey AND l.l_returnflag = 'R'
)
"""


# ---------------------------------------------------------------------------
# JSON extraction
# ---------------------------------------------------------------------------

_JSON_K = r'^\{"k":\s*(-?\d+)\}$'


def json_props_sum(sf_dir: str) -> ray.data.Dataset:
    """Sum of the JSON field props.k per event type.  The hot path is a
    vectorized regex over the uniform payload shape; rows it misses fall
    back to exact per-row json.loads (zero rows on well-formed data, so
    the loop never runs hot)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "props"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        k = df["props"].str.extract(_JSON_K, expand=False)
        miss = k.isna()
        if miss.any():  # exact fallback for non-uniform payloads
            k = k.copy()
            k[miss] = df.loc[miss, "props"].map(
                lambda s: json.loads(s).get("k")
            )
        # objects without 'k' are NULL for SQL's sum: skip those rows
        # (a group whose rows are ALL k-less sums to SQL NULL and to no
        # row here — out of scope for the uniform-payload contract)
        has_k = k.notna()
        out = pd.DataFrame(
            {"event_type": df.loc[has_k, "event_type"],
             "k": k[has_k].astype(np.int64)}
        )
        g = out.groupby("event_type", as_index=False).agg(k_sum=("k", "sum"))
        return g.astype({"k_sum": np.int64})

    partials = ds.map_batches(partial, batch_format="pandas")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("event_type", as_index=False).agg(k_sum=("k_sum", "sum"))
        return g.astype({"k_sum": np.int64})

    return hash_exchange(partials, "event_type", final, num_buckets=4)


SQL_JSON_PROPS_SUM = """
SELECT event_type,
       CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS k_sum
FROM events GROUP BY 1
"""


# ---------------------------------------------------------------------------
# iterative graph: fixed-point PageRank
# ---------------------------------------------------------------------------

_PR_SCALE = 1_000_000_000_000  # fixed-point unit: 1e-12 of total rank mass


def _customer_supplier_edges(sf_dir: str) -> ray.data.Dataset:
    """Symmetric distinct edges of the bipartite customer-supplier
    graph (edge = customer ordered from supplier; nodes 'c<k>'/'s<k>').
    One coexchange on orderkey for pair generation, one pair-keyed
    exchange for global dedup.  Shared by pagerank3 and bfs_hops."""
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    )

    def join_pairs(o: pd.DataFrame, l: pd.DataFrame) -> pd.DataFrame:
        if (len(o) == 0 or "o_custkey" not in o.columns
                or len(l) == 0 or "l_suppkey" not in l.columns):
            return pd.DataFrame({"a": pd.Series(dtype=object),
                                 "b": pd.Series(dtype=object)})
        j = o.merge(l, left_on="o_orderkey", right_on="l_orderkey")
        out = pd.DataFrame(
            {"a": "c" + j["o_custkey"].astype(str),
             "b": "s" + j["l_suppkey"].astype(str)}
        ).drop_duplicates(ignore_index=True)
        out["pair"] = out["a"] + "|" + out["b"]
        return out

    pairs_raw = hash_coexchange(
        orders, li, "o_orderkey", "l_orderkey", join_pairs, num_buckets=16
    )

    def dedup_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates("pair", ignore_index=True)[["a", "b"]]

    pairs = hash_exchange(pairs_raw, "pair", dedup_pairs, num_buckets=16)

    def symmetrize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": pd.concat([df["a"], df["b"]], ignore_index=True),
                "dst": pd.concat([df["b"], df["a"]], ignore_index=True),
            }
        )

    return pairs.map_batches(symmetrize, batch_format="pandas").materialize()


def pagerank3(sf_dir: str, iters: int = 3) -> ray.data.Dataset:
    """3 power iterations of PageRank (damping 0.85) over the bipartite
    customer-supplier graph (edge = customer ordered from supplier),
    entirely in FIXED-POINT integer arithmetic: every multiply/divide
    floors on BIGINTs, so the result is bit-exact under any partitioning
    or summation order and the chained-CTE SQL twin hashes identically —
    the same determinism trick the connected-components oracle uses for
    floats-free iteration.  Per iteration: one coexchange scatters
    r/deg along edges (batch-combined per destination), one coexchange
    gathers sums back onto the node table.  The driver holds only the
    node count."""
    return pagerank_over_edges(_customer_supplier_edges(sf_dir), iters)


def pagerank_over_edges(
    edges: ray.data.Dataset, iters: int = 3
) -> ray.data.Dataset:
    """Fixed-point PageRank over an arbitrary (src, dst) edge Dataset —
    the reusable core of :func:`pagerank3` (kg_entity_rank runs it over
    the constructed KG's entity graph)."""

    def degree(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("src", as_index=False).size()
        return g.rename(columns={"src": "node", "size": "deg"}).astype({"deg": np.int64})

    nodes = hash_exchange(edges, "src", degree, num_buckets=8).materialize()
    n = nodes.count()
    if n == 0:  # empty graph: no nodes, no ranks
        return ray.data.from_pandas(
            pd.DataFrame({"node": pd.Series(dtype=object),
                          "r": pd.Series(dtype=np.int64)})
        )
    base = (15 * (_PR_SCALE // n)) // 100

    def init_r(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["r"] = np.int64(_PR_SCALE // n)
        return out

    r = nodes.map_batches(init_r, batch_format="pandas")

    # the static sides (edges, nodes) are split ONCE and shared across
    # all rounds — the exchange is eager, so passing the Dataset each
    # round would re-run its split tasks per iteration
    esplits = split_refs(edges, "src", 8)
    nsplits = split_refs(nodes, "node", 8)

    for _ in range(iters):
        def scatter(rd: pd.DataFrame, e: pd.DataFrame) -> pd.DataFrame:
            if (len(e) == 0 or "src" not in e.columns
                    or len(rd) == 0 or "r" not in rd.columns):
                return pd.DataFrame({"dst": pd.Series(dtype=object),
                                     "s": pd.Series(dtype=np.int64)})
            j = e.merge(rd, left_on="src", right_on="node")
            j["s"] = j["r"].to_numpy(np.int64) // j["deg"].to_numpy(np.int64)
            g = j.groupby("dst", as_index=False).agg(s=("s", "sum"))
            return g.astype({"s": np.int64})

        contribs = hash_coexchange(r, edges, "node", "src", scatter,
                                   num_buckets=8, splits_b=esplits)

        def gather(c: pd.DataFrame, nd: pd.DataFrame) -> pd.DataFrame:
            if len(nd) == 0 or "node" not in nd.columns:
                return pd.DataFrame({"node": pd.Series(dtype=object),
                                     "deg": pd.Series(dtype=np.int64),
                                     "r": pd.Series(dtype=np.int64)})
            if len(c) == 0 or "s" not in c.columns:
                s = pd.Series(0, index=nd.index, dtype=np.int64)
                j = nd.assign(s=s)
            else:
                cs = c.groupby("dst", as_index=False).agg(s=("s", "sum"))
                j = nd.merge(cs, left_on="node", right_on="dst", how="left")
                j["s"] = j["s"].fillna(0)
            out = pd.DataFrame(
                {
                    "node": j["node"],
                    "deg": j["deg"].to_numpy(np.int64),
                    "r": np.int64(base)
                    + (85 * j["s"].to_numpy(np.int64)) // 100,
                }
            )
            return out

        r = hash_coexchange(contribs, nodes, "dst", "node", gather,
                            num_buckets=8, splits_b=nsplits)

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": df["node"], "r": df["r"].to_numpy(np.int64)})

    return r.map_batches(project, batch_format="pandas")


# shared 3-iteration fixed-point chain over an ``edges(src, dst)`` CTE
# (kg_entity_rank reuses it over the KG entity graph)
SQL_PR3_CHAIN = """deg AS (
  SELECT src AS node, CAST(count(*) AS BIGINT) AS deg FROM edges GROUP BY 1
), nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM deg),
r0 AS (SELECT node, deg, (1000000000000 // nn.n) AS r FROM deg, nn),
c1 AS (SELECT e.dst AS node, sum(r0.r // r0.deg) AS s
       FROM edges e JOIN r0 ON e.src = r0.node GROUP BY 1),
r1 AS (SELECT r0.node, r0.deg,
              (15 * (1000000000000 // nn.n)) // 100
                + (85 * COALESCE(c1.s, 0)) // 100 AS r
       FROM r0 LEFT JOIN c1 USING (node), nn),
c2 AS (SELECT e.dst AS node, sum(r1.r // r1.deg) AS s
       FROM edges e JOIN r1 ON e.src = r1.node GROUP BY 1),
r2 AS (SELECT r1.node, r1.deg,
              (15 * (1000000000000 // nn.n)) // 100
                + (85 * COALESCE(c2.s, 0)) // 100 AS r
       FROM r1 LEFT JOIN c2 USING (node), nn),
c3 AS (SELECT e.dst AS node, sum(r2.r // r2.deg) AS s
       FROM edges e JOIN r2 ON e.src = r2.node GROUP BY 1),
r3 AS (SELECT r2.node, r2.deg,
              (15 * (1000000000000 // nn.n)) // 100
                + (85 * COALESCE(c3.s, 0)) // 100 AS r
       FROM r2 LEFT JOIN c3 USING (node), nn)
SELECT node, CAST(r AS BIGINT) AS r FROM r3
"""

SQL_PAGERANK3 = """
WITH pairs AS (
  SELECT DISTINCT 'c' || CAST(o_custkey AS VARCHAR) AS a,
                  's' || CAST(l_suppkey AS VARCHAR) AS b
  FROM orders JOIN lineitem ON l_orderkey = o_orderkey
), edges AS (
  SELECT a AS src, b AS dst FROM pairs UNION ALL SELECT b, a FROM pairs
), """ + SQL_PR3_CHAIN


def bfs_hops(
    sf_dir: str, max_hops: int = 3, seed_mod: int = 10
) -> ray.data.Dataset:
    """Bounded multi-source BFS: minimum hop distance (<= ``max_hops``)
    from the seed set {supplier nodes with suppkey % ``seed_mod`` == 0}
    over the bipartite customer-supplier graph — the reachability /
    shortest-path family next to pagerank3's value propagation.

    FRONTIER-based: iteration t scatters only nodes settled at t-1
    (one coexchange bounded by frontier-adjacent edges), then an
    anti-join settle coexchange adds unseen candidates at distance t —
    settled nodes never re-enter the exchange, so total shuffle bytes
    are O(edges touched), not O(nodes x iterations).  Distances are
    BIGINTs (min of ints is order-free), so the unrolled-CTE SQL twin
    hashes identically.  The driver holds no per-node state."""
    edges = _customer_supplier_edges(sf_dir)
    esplits = split_refs(edges, "src", 8)

    _D = {"node": object, "hops": np.int64}

    def _empty() -> pd.DataFrame:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _D.items()})

    def seed_fn(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "src" not in df.columns:
            return _empty()
        s = df.drop_duplicates("src")["src"]
        is_seed = s.str.startswith("s") & (
            s.str[1:].astype(np.int64) % seed_mod == 0
        )
        return pd.DataFrame(
            {"node": s[is_seed].to_numpy(object),
             "hops": np.zeros(int(is_seed.sum()), dtype=np.int64)}
        )

    dist = hash_exchange(edges, "src", seed_fn, num_buckets=8)

    for t in range(1, max_hops + 1):

        def scatter(dd: pd.DataFrame, e: pd.DataFrame, t=t) -> pd.DataFrame:
            if (len(dd) == 0 or "hops" not in dd.columns
                    or len(e) == 0 or "src" not in e.columns):
                return pd.DataFrame({"node": pd.Series(dtype=object)})
            f = dd[dd["hops"] == t - 1]
            j = e.merge(f, left_on="src", right_on="node")
            return pd.DataFrame({"node": j["dst"].unique().astype(object)})

        cands = hash_coexchange(dist, edges, "node", "src", scatter,
                                num_buckets=8, splits_b=esplits)

        def settle(c: pd.DataFrame, dd: pd.DataFrame, t=t) -> pd.DataFrame:
            old = dd if (len(dd) and "node" in dd.columns) else _empty()
            if len(c) == 0 or "node" not in c.columns:
                return old[["node", "hops"]].astype({"hops": np.int64})
            fresh = c["node"].unique()
            fresh = fresh[~pd.Series(fresh).isin(old["node"]).to_numpy()]
            new = pd.DataFrame(
                {"node": fresh.astype(object),
                 "hops": np.full(len(fresh), t, dtype=np.int64)}
            )
            return pd.concat(
                [old[["node", "hops"]], new], ignore_index=True
            ).astype({"hops": np.int64})

        dist = hash_coexchange(cands, dist, "node", "node", settle,
                               num_buckets=8)

    def project(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "node" not in df.columns:
            return _empty()
        return pd.DataFrame(
            {"node": df["node"], "hops": df["hops"].to_numpy(np.int64)}
        )

    return dist.map_batches(project, batch_format="pandas")


SQL_BFS_HOPS = """
WITH pairs AS (
  SELECT DISTINCT 'c' || CAST(o_custkey AS VARCHAR) AS a,
                  's' || CAST(l_suppkey AS VARCHAR) AS b
  FROM orders JOIN lineitem ON l_orderkey = o_orderkey
), edges AS (
  SELECT a AS src, b AS dst FROM pairs UNION ALL SELECT b, a FROM pairs
), d0 AS (
  SELECT DISTINCT src AS node, CAST(0 AS BIGINT) AS hops FROM edges
  WHERE src LIKE 's%' AND CAST(substr(src, 2) AS BIGINT) % 10 = 0
), n1 AS (
  SELECT DISTINCT e.dst AS node FROM edges e JOIN d0 ON e.src = d0.node
  WHERE e.dst NOT IN (SELECT node FROM d0)
), d1 AS (
  SELECT node, hops FROM d0
  UNION ALL SELECT node, CAST(1 AS BIGINT) FROM n1
), n2 AS (
  SELECT DISTINCT e.dst AS node FROM edges e
  JOIN d1 ON e.src = d1.node AND d1.hops = 1
  WHERE e.dst NOT IN (SELECT node FROM d1)
), d2 AS (
  SELECT node, hops FROM d1
  UNION ALL SELECT node, CAST(2 AS BIGINT) FROM n2
), n3 AS (
  SELECT DISTINCT e.dst AS node FROM edges e
  JOIN d2 ON e.src = d2.node AND d2.hops = 2
  WHERE e.dst NOT IN (SELECT node FROM d2)
), d3 AS (
  SELECT node, hops FROM d2
  UNION ALL SELECT node, CAST(3 AS BIGINT) FROM n3
)
SELECT node, hops FROM d3
"""


# ---------------------------------------------------------------------------
# triangle counting
# ---------------------------------------------------------------------------


def _pairs_within_sorted_groups(
    values: np.ndarray, group_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All positional pairs (i < j) within runs of equal ``group_ids``
    — see :func:`core.grouped_pair_indices` (the shared vectorized
    expansion; the loop version cost triangle_count ~150 s at sf0.1).
    Inputs must be sorted by (group, value); returns
    (values[i], values[j]) with i-value < j-value inside each run when
    values ascend."""
    from .core import grouped_pair_indices

    li, rj = grouped_pair_indices(group_ids)
    return values[li], values[rj]


def _copurchase_edges(sf_dir: str, num_buckets: int = 16) -> ray.data.Dataset:
    """Distinct undirected co-purchase edges (id_a < id_b, + pkey) —
    parts appearing in the same order are adjacent.  One exchange on
    orderkey for pair generation (bounded by order size), one pkey
    exchange for global dedup.  Shared by triangle_count and kcore."""
    from .textops.dedup import _add_pair_key

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )

    _EP = {"id_a": np.int64, "id_b": np.int64}

    def order_pairs(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_orderkey" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _EP.items()})
        d = df.drop_duplicates(["l_orderkey", "l_partkey"])
        j = d.merge(d, on="l_orderkey")
        j = j[j["l_partkey_x"] < j["l_partkey_y"]]
        return pd.DataFrame(
            {"id_a": j["l_partkey_x"].to_numpy(np.int64),
             "id_b": j["l_partkey_y"].to_numpy(np.int64)}
        ).drop_duplicates(ignore_index=True)

    raw = hash_exchange(li, "l_orderkey", order_pairs, num_buckets)

    def dedup_keep_key(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "id_a" not in df.columns:
            out = pd.DataFrame({c: pd.Series(dtype=t) for c, t in _EP.items()})
            out["pkey"] = pd.Series(dtype=np.int64)
            return out
        return df.drop_duplicates(["id_a", "id_b"], ignore_index=True)

    return hash_exchange(
        raw.map_batches(_add_pair_key, batch_format="pandas"),
        "pkey", dedup_keep_key, num_buckets,
    ).materialize()


# Broadcast the edge-key set only while the edge table stays below this
# metadata byte count (~24 B/edge -> ~45M edges at the default).  Above
# it the closing stage stays fully distributed: at 100x scale a
# co-purchase graph's edge set can exceed driver/worker memory long
# before node ids exceed 32 bits, so id width alone is the wrong guard.
_BROADCAST_EDGE_BYTES = 1 << 30


def _triangle_close_path(size_bytes: int, max_id: int | None) -> str:
    """Closing-path decision: 'broadcast' only when the edge set is both
    small enough to ship (metadata bytes) AND id-packable into uint64."""
    if size_bytes > _BROADCAST_EDGE_BYTES:
        return "exchange"
    if max_id is not None and int(max_id) >= (1 << 32):
        return "exchange"
    return "broadcast"


def triangle_count(
    sf_dir: str, num_buckets: int = 16, broadcast_edges: bool = True
) -> pd.DataFrame:
    """Distributed triangle count over the co-purchase graph (parts
    appearing in the same order are adjacent) — the classic
    degree-oriented wedge-join algorithm (Cohen's MapReduce form /
    Suri-Vassilvitskii WWW'11), the graph analytic beyond PageRank and
    connected components:

      1. per-order part pairs (one keyed exchange on orderkey; the
         in-bucket pair merge is bounded by order size), global pair
         dedup on the pkey exchange;
      2. degrees (one exchange on node), attached to both edge
         endpoints via ``attach_pair_values``;
      3. each edge oriented from its (degree, id)-smaller endpoint —
         every node's out-degree is O(sqrt(m)), so per-source wedge
         generation is bounded even on power-law graphs (the reason
         for degree orientation instead of id orientation);
      4. wedges (out-neighbor pairs per source) closed against the
         undirected edge set — each triangle closes at exactly one
         pivot, so the sum of matches IS the triangle count.

    Closing has two shapes.  ``broadcast_edges=True`` (default): the
    edge-key set (8 B/edge, sorted uint64) is ``ray.put`` once and
    wedges are closed IN PLACE with a vectorized searchsorted — wedges
    (Θ(Σ outdeg²), ~40M at sf0.1, the dominant volume) never enter an
    exchange; measured 60 s → ~12 s at sf0.1.  For graphs whose edge
    set exceeds worker memory (≳10⁹ edges), ``broadcast_edges=False``
    keeps everything distributed: wedges ride a pair-key coexchange
    against the edge table (both paths equivalence-tested).  Node ids
    must fit 32 bits for the packed broadcast key; larger ids fall
    back to the exchange path automatically.

    The driver holds two scalars (plus the broadcast keys in the small
    -side path).  Output: one row (n_edges, n_triangles) — both
    constrained by the SQL twin.
    """
    from .textops.dedup import _add_pair_key, attach_pair_values
    import pyarrow as pa

    _EP = {"id_a": np.int64, "id_b": np.int64}
    edges = _copurchase_edges(sf_dir, num_buckets)

    def endpoints(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "id_a" not in df.columns:
            return pd.DataFrame({"doc_id": pd.Series(dtype=np.int64)})
        return pd.DataFrame(
            {"doc_id": np.concatenate(
                [df["id_a"].to_numpy(np.int64), df["id_b"].to_numpy(np.int64)]
            )}
        )

    def degree(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "doc_id" not in df.columns:
            return pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                                 "degree": pd.Series(dtype=np.int64)})
        g = df.groupby("doc_id", as_index=False).size()
        return g.rename(columns={"size": "degree"}).astype({"degree": np.int64})

    degrees = hash_exchange(
        edges.map_batches(endpoints, batch_format="pandas"),
        "doc_id", degree, num_buckets,
    )

    withdeg = attach_pair_values(
        edges, degrees, "degree", "deg_a", "deg_b", num_buckets,
        value_dtype=pa.int64(),
    )

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "deg_a" not in df.columns:
            return pd.DataFrame({"src": pd.Series(dtype=np.int64),
                                 "dst": pd.Series(dtype=np.int64)})
        a, b = df["id_a"].to_numpy(np.int64), df["id_b"].to_numpy(np.int64)
        da, db = df["deg_a"].to_numpy(np.int64), df["deg_b"].to_numpy(np.int64)
        a_first = (da < db) | ((da == db) & (a < b))
        return pd.DataFrame(
            {"src": np.where(a_first, a, b), "dst": np.where(a_first, b, a)}
        )

    oriented = withdeg.map_batches(orient, batch_format="pandas")

    def _wedge_pairs(df: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
        src = df["src"].to_numpy(np.int64)
        dst = df["dst"].to_numpy(np.int64)
        order = np.lexsort((dst, src))
        return _pairs_within_sorted_groups(dst[order], src[order])

    ekeys = None
    if broadcast_edges:
        # id_a < id_b by construction, so max(id_b) is the max node id;
        # both probes are metadata/aggregate-cheap on the materialized
        # edge table (no driver-side row materialization).  The
        # zero-row case is probed explicitly — a blanket except here
        # would turn a transient aggregation failure into a silent
        # 0-triangle answer (review r4)
        size_bytes = edges.size_bytes() or 0
        n_edge_rows = edges.count()
        max_id = edges.max("id_b") if n_edge_rows else None
        path = _triangle_close_path(size_bytes, max_id)
        _LOG.info(
            "triangle_count closing path: %s (edges=%d bytes, max_id=%s)",
            path, size_bytes, max_id,
        )
        if path == "broadcast":
            if max_id is None:
                ekeys = ray.put(np.empty(0, dtype=np.uint64))
            else:
                # pack the 8 B/edge uint64 keys INSIDE map_batches and
                # collect only the key column — the driver never holds
                # the 24 B/edge (id_a, id_b, pkey) rows (ADVICE r3)
                def pack(df: pd.DataFrame) -> pd.DataFrame:
                    if len(df) == 0 or "id_a" not in df.columns:
                        return pd.DataFrame({"k": pd.Series(dtype=np.uint64)})
                    return pd.DataFrame(
                        {"k": (df["id_a"].to_numpy(np.uint64) << np.uint64(32))
                         | df["id_b"].to_numpy(np.uint64)}
                    )

                kcol = edges.map_batches(pack, batch_format="pandas")
                ekeys = ray.put(
                    np.sort(kcol.to_pandas()["k"].to_numpy(np.uint64))
                )

    if ekeys is not None:
        keys_ref = ekeys

        def wedge_close(df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0 or "src" not in df.columns:
                return pd.DataFrame({"cnt": pd.Series(dtype=np.int64)})
            a, b = _wedge_pairs(df)
            if len(a) == 0:
                return pd.DataFrame({"cnt": np.asarray([0], dtype=np.int64)})
            keys = ray.get(keys_ref)  # zero-copy object-store fetch
            if len(keys) == 0:
                return pd.DataFrame({"cnt": np.asarray([0], dtype=np.int64)})
            k = (a.astype(np.uint64) << np.uint64(32)) | b.astype(np.uint64)
            idx = np.searchsorted(keys, k)
            hits = (idx < len(keys)) & (keys[np.minimum(idx, len(keys) - 1)] == k)
            return pd.DataFrame({"cnt": np.asarray([int(hits.sum())], dtype=np.int64)})

        closed = hash_exchange(oriented, "src", wedge_close, num_buckets)
    else:
        def wedges(df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0 or "src" not in df.columns:
                return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _EP.items()})
            a, b = _wedge_pairs(df)
            return pd.DataFrame({"id_a": a, "id_b": b})

        wedge_ds = hash_exchange(oriented, "src", wedges, num_buckets)
        wedge_keyed = wedge_ds.map_batches(_add_pair_key, batch_format="pandas")

        def close_count(w: pd.DataFrame, e: pd.DataFrame) -> pd.DataFrame:
            if (len(w) == 0 or "id_a" not in w.columns
                    or len(e) == 0 or "id_a" not in e.columns):
                return pd.DataFrame({"cnt": pd.Series(dtype=np.int64)})
            m = w.merge(e[["id_a", "id_b"]], on=["id_a", "id_b"], how="inner")
            return pd.DataFrame({"cnt": np.asarray([len(m)], dtype=np.int64)})

        closed = hash_coexchange(
            wedge_keyed, edges, "pkey", "pkey", close_count, num_buckets
        )
    n_tri = int(closed.sum("cnt") or 0)
    n_edges = edges.count()
    return pd.DataFrame(
        {"n_edges": np.asarray([n_edges], dtype=np.int64),
         "n_triangles": np.asarray([n_tri], dtype=np.int64)}
    )


def kcore(
    sf_dir: str, k: int = 80, rounds: int = 3, num_buckets: int = 16
) -> ray.data.Dataset:
    """``rounds`` rounds of k-core peeling over the co-purchase graph
    (iterative graph op #3 next to PageRank and connected components):
    each round recomputes every surviving node's degree within the
    surviving-node-induced subgraph and drops nodes below ``k``.

    A FIXED round count (like ``pagerank3``) instead of
    run-to-convergence makes the iteration SQL-expressible as chained
    CTEs — recursive CTEs can only grow a set, and peeling shrinks one.

    Per round: two coexchanges in the connected-components pattern —
    (1) alive x edges on the SOURCE node: every alive node sends 1 along
    its out-edges; (2) messages x alive on the TARGET: induced degree =
    incoming count, keep deg >= k.  The symmetrized edge table is split
    once (``splits_b``) and shared by every round; the driver holds
    nothing.  -> (node, deg) of the survivors after ``rounds`` peels."""
    edges = _copurchase_edges(sf_dir, num_buckets)

    def sym(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "id_a" not in df.columns:
            return pd.DataFrame({"src": pd.Series(dtype=np.int64),
                                 "dst": pd.Series(dtype=np.int64)})
        return pd.DataFrame(
            {"src": np.concatenate([df["id_a"].to_numpy(np.int64),
                                    df["id_b"].to_numpy(np.int64)]),
             "dst": np.concatenate([df["id_b"].to_numpy(np.int64),
                                    df["id_a"].to_numpy(np.int64)])}
        )

    es = edges.map_batches(sym, batch_format="pandas").materialize()

    _NODE = {"node": np.int64, "deg": np.int64}

    def init_alive(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "src" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _NODE.items()})
        g = df.groupby("src", as_index=False).size()
        return g.rename(columns={"src": "node", "size": "deg"}).astype(
            {"node": np.int64, "deg": np.int64}
        )

    alive = hash_exchange(es, "src", init_alive, num_buckets)

    esplits = split_refs(es, "src", num_buckets)

    def send(al: pd.DataFrame, e: pd.DataFrame) -> pd.DataFrame:
        if (len(al) == 0 or "node" not in al.columns
                or len(e) == 0 or "src" not in e.columns):
            return pd.DataFrame({"dst": pd.Series(dtype=np.int64)})
        j = e.merge(al[["node"]].rename(columns={"node": "src"}), on="src")
        return j[["dst"]]

    def recv(m: pd.DataFrame, al: pd.DataFrame) -> pd.DataFrame:
        if (len(m) == 0 or "dst" not in m.columns
                or len(al) == 0 or "node" not in al.columns):
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _NODE.items()})
        deg = m.groupby("dst", as_index=False).size().rename(
            columns={"dst": "node", "size": "deg"}
        )
        j = al[["node"]].merge(deg, on="node", how="inner")
        out = j[j["deg"] >= k].reset_index(drop=True)
        return out.astype({"node": np.int64, "deg": np.int64})

    for _ in range(rounds):
        msgs = hash_coexchange(alive, es, "node", "src", send,
                               num_buckets, splits_b=esplits)
        alive = hash_coexchange(msgs, alive, "dst", "node", recv,
                                num_buckets).materialize()

    return alive


def _sql_kcore(k: int, rounds: int) -> str:
    ctes = ["""
WITH li AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
e0 AS (SELECT DISTINCT a.p AS u, b.p AS v FROM li a JOIN li b ON a.o = b.o AND a.p < b.p),
es0 AS (SELECT u, v FROM e0 UNION ALL SELECT v, u FROM e0)"""]
    for i in range(1, rounds + 1):
        ctes.append(f"""
d{i} AS (SELECT u AS node, count(*) AS deg FROM es{i-1} GROUP BY 1),
a{i} AS (SELECT node, deg FROM d{i} WHERE deg >= {k}),
es{i} AS (SELECT es{i-1}.u, es{i-1}.v FROM es{i-1}
          JOIN a{i} x ON es{i-1}.u = x.node JOIN a{i} y ON es{i-1}.v = y.node)""")
    return (",".join(ctes)
            + f"\nSELECT node, CAST(deg AS BIGINT) AS deg FROM a{rounds}")


SQL_KCORE = _sql_kcore(80, 3)


SQL_TRIANGLE_COUNT = """
WITH li AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
e AS (SELECT DISTINCT a.p AS u, b.p AS v FROM li a JOIN li b ON a.o = b.o AND a.p < b.p)
SELECT CAST((SELECT count(*) FROM e) AS BIGINT) AS n_edges,
       CAST((SELECT count(*) FROM e e1 JOIN e e2 ON e2.u = e1.v
             JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v) AS BIGINT) AS n_triangles
"""


def _skyline_2d(df: pd.DataFrame) -> pd.DataFrame:
    """2-D skyline (minimize price_cents, maximize p_size) of one
    frame, vectorized: a row survives iff its size equals the max size
    at its exact price AND strictly exceeds the max size over all
    strictly cheaper prices.  Ties on (price, size) all survive
    (neither dominates the other)."""
    cols = ("p_partkey", "price_cents", "p_size")
    if len(df) == 0 or "price_cents" not in df.columns:
        return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
    g = df.groupby("price_cents", sort=True)["p_size"].max()
    # max size over strictly cheaper price groups (-1 sentinel: sizes >= 0;
    # TPC-H p_size is 1..50)
    prevmax = g.cummax().shift(1, fill_value=-1)
    gmax = df["price_cents"].map(g).to_numpy(np.int64)
    pmax = df["price_cents"].map(prevmax).to_numpy(np.int64)
    size = df["p_size"].to_numpy(np.int64)
    keep = (size == gmax) & (size > pmax)
    out = df.loc[keep, list(cols)]
    return out.astype(np.int64)


def part_skyline(sf_dir: str) -> pd.DataFrame:
    """Pareto frontier (skyline) of parts: cheapest price for each
    dominating size — parts not dominated on (price_cents min, p_size
    max).  Distributed via the skyline-of-skylines identity: each block
    computes its local skyline in one vectorized pass (the global
    skyline is a subset of the union of local skylines), then one final
    pass merges the candidates.  On value-random data a block's skyline
    is O(log block_rows), so the merged candidate set stays tiny at any
    scale; a price-sorted pathological layout can inflate local
    skylines, in which case the final pass itself is the same
    map_batches fn over a re-blocked candidate Dataset (the candidate
    table here is driver-merged because it is provably small).
    -> (p_partkey, price_cents, p_size)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_retailprice", "p_size"]
    )

    def local(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                "p_partkey": df["p_partkey"].to_numpy(np.int64),
                "price_cents": np.floor(
                    df["p_retailprice"].to_numpy(np.float64) * 100.0
                ).astype(np.int64),
                "p_size": df["p_size"].to_numpy(np.int64),
            }
        )
        return _skyline_2d(d)

    cand = ds.map_batches(local, batch_format="pandas").to_pandas()
    return _skyline_2d(cand)


SQL_PART_SKYLINE = """
WITH p2 AS (
  SELECT CAST(p_partkey AS BIGINT) AS p_partkey,
         CAST(floor(p_retailprice * 100.0) AS BIGINT) AS price_cents,
         CAST(p_size AS BIGINT) AS p_size
  FROM part
), g AS (
  SELECT price_cents, max(p_size) AS gmax FROM p2 GROUP BY 1
), s AS (
  SELECT price_cents, gmax,
         COALESCE(max(gmax) OVER (
           ORDER BY price_cents
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
         ), -1) AS prevmax
  FROM g
)
SELECT p2.p_partkey, p2.price_cents, p2.p_size
FROM p2 JOIN s USING (price_cents)
WHERE p2.p_size = s.gmax AND p2.p_size > s.prevmax
"""


ANALYTICS_QUERIES = {
    "asof_join_purchase": (asof_join_purchase, SQL_ASOF_JOIN_PURCHASE),
    "range_join_error_window": (range_join_error_window,
                                SQL_RANGE_JOIN_ERROR_WINDOW),
    "quantiles_price": (quantiles_price, SQL_QUANTILES_PRICE),
    "quantiles_by_flag": (quantiles_by_flag, SQL_QUANTILES_BY_FLAG),
    "quantiles_cont_price": (quantiles_cont_price, SQL_QUANTILES_CONT_PRICE),
    "quantiles_cont_by_flag": (quantiles_cont_by_flag, SQL_QUANTILES_CONT_BY_FLAG),
    "winsorized_revenue": (winsorized_revenue, SQL_WINSORIZED_REVENUE),
    "orders_anti_join": (orders_anti_join, SQL_ORDERS_ANTI_JOIN),
    "orders_semi_join": (orders_semi_join, SQL_ORDERS_SEMI_JOIN),
    "json_props_sum": (json_props_sum, SQL_JSON_PROPS_SUM),
    "pagerank3": (pagerank3, SQL_PAGERANK3),
    "bfs_hops": (bfs_hops, SQL_BFS_HOPS),
    "triangle_count": (triangle_count, SQL_TRIANGLE_COUNT),
    "kcore": (kcore, SQL_KCORE),
    "part_skyline": (part_skyline, SQL_PART_SKYLINE),
}


# ---------------------------------------------------------------------------
# HITS (hubs & authorities)
# ---------------------------------------------------------------------------

_HITS_SCALE = 1_000_000


def _global_int_max(ds: ray.data.Dataset, col: str) -> int:
    """Streaming global max of an int64 column: per-batch one-row
    partials, driver folds O(blocks) python ints."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or col not in df.columns:
            return pd.DataFrame({"m": pd.Series(dtype=object)})
        return pd.DataFrame({"m": [str(int(df[col].max()))]})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty or "m" not in parts.columns:
        return 0
    return max(int(v) for v in parts["m"])


def hits_over_edges(
    edges: ray.data.Dataset, iters: int = 2
) -> ray.data.Dataset:
    """Fixed-point HITS over a DIRECTED (src, dst) edge Dataset —
    2 iterations of authority/hub mutual recursion with max-
    normalization at fixed point 1e6 (floored BIGINT division, the
    pagerank_over_edges discipline, so the HUGEINT SQL chain hashes
    identically).  Directed complement to PageRank: authorities are
    heavily-referenced objects, hubs reference many authorities.

    Shape: one coexchange (scatter) + one keyed fold per half-
    iteration; the driver holds ONE scalar (the normalization max,
    folded from per-block partials) per half-iteration.  Edge splits
    are shared across rounds (split_refs), like pagerank_over_edges."""
    def endpoints(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "src" not in df.columns:
            return pd.DataFrame({"node": pd.Series(dtype=object)})
        return pd.DataFrame(
            {"node": np.concatenate([df["src"].to_numpy(object),
                                     df["dst"].to_numpy(object)])}
        ).drop_duplicates()

    def dedup(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates()

    nodes = hash_exchange(
        edges.map_batches(endpoints, batch_format="pandas"),
        "node", dedup, num_buckets=8).materialize()
    empty_out = pd.DataFrame(
        {"node": pd.Series(dtype=object),
         "hub_x1e6": pd.Series(dtype=np.int64),
         "auth_x1e6": pd.Series(dtype=np.int64)})
    if nodes.count() == 0:
        return ray.data.from_pandas(empty_out)

    def init_h(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["v"] = np.int64(_HITS_SCALE)
        return out

    h = nodes.map_batches(init_h, batch_format="pandas")
    esrc = split_refs(edges, "src", 8)
    edst = split_refs(edges, "dst", 8)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "node" not in df.columns:
            return pd.DataFrame({"node": pd.Series(dtype=object),
                                 "v": pd.Series(dtype=np.int64)})
        return df.groupby("node", as_index=False).agg(
            v=("v", "sum")).astype({"v": np.int64})

    def normalize(ds: ray.data.Dataset) -> ray.data.Dataset:
        m = _global_int_max(ds, "v")
        if m <= 0:
            return ds
        if m > (1 << 62) // _HITS_SCALE:
            raise OverflowError(
                "hits_over_edges: normalization product risks int64")

        def scale(df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0 or "v" not in df.columns:
                return df
            out = df.copy()
            out["v"] = (out["v"].to_numpy(np.int64)
                        * np.int64(_HITS_SCALE)) // np.int64(m)
            return out

        return ds.map_batches(scale, batch_format="pandas")

    a = None
    for _ in range(iters):
        def scatter_auth(hd: pd.DataFrame, e: pd.DataFrame) -> pd.DataFrame:
            if (len(e) == 0 or "src" not in e.columns
                    or len(hd) == 0 or "v" not in hd.columns):
                return pd.DataFrame({"node": pd.Series(dtype=object),
                                     "v": pd.Series(dtype=np.int64)})
            j = e.merge(hd, left_on="src", right_on="node")
            g = j.groupby("dst", as_index=False).agg(v=("v", "sum"))
            return g.rename(columns={"dst": "node"}).astype(
                {"v": np.int64})

        contribs = hash_coexchange(h, edges, "node", "src", scatter_auth,
                                   num_buckets=8, splits_b=esrc)
        a = normalize(hash_exchange(
            contribs, "node", fold, num_buckets=8).materialize())

        def scatter_hub(ad: pd.DataFrame, e: pd.DataFrame) -> pd.DataFrame:
            if (len(e) == 0 or "dst" not in e.columns
                    or len(ad) == 0 or "v" not in ad.columns):
                return pd.DataFrame({"node": pd.Series(dtype=object),
                                     "v": pd.Series(dtype=np.int64)})
            j = e.merge(ad, left_on="dst", right_on="node")
            g = j.groupby("src", as_index=False).agg(v=("v", "sum"))
            return g.rename(columns={"src": "node"}).astype(
                {"v": np.int64})

        contribs2 = hash_coexchange(a, edges, "node", "dst", scatter_hub,
                                    num_buckets=8, splits_b=edst)
        h = normalize(hash_exchange(
            contribs2, "node", fold, num_buckets=8).materialize())

    def attach_hub(nd: pd.DataFrame, hv: pd.DataFrame) -> pd.DataFrame:
        if len(nd) == 0 or "node" not in nd.columns:
            return pd.DataFrame({"node": pd.Series(dtype=object),
                                 "hub_x1e6": pd.Series(dtype=np.int64)})
        if len(hv) == 0 or "v" not in hv.columns:
            return nd.assign(hub_x1e6=np.int64(0))[["node", "hub_x1e6"]]
        j = nd.merge(hv, on="node", how="left")
        return pd.DataFrame(
            {"node": j["node"],
             "hub_x1e6": j["v"].fillna(0).to_numpy(np.int64)})

    withhub = hash_coexchange(nodes, h, "node", "node", attach_hub,
                              num_buckets=8)

    def attach_auth(nd: pd.DataFrame, av: pd.DataFrame) -> pd.DataFrame:
        if len(nd) == 0 or "node" not in nd.columns:
            return pd.DataFrame(
                {"node": pd.Series(dtype=object),
                 "hub_x1e6": pd.Series(dtype=np.int64),
                 "auth_x1e6": pd.Series(dtype=np.int64)})
        if len(av) == 0 or "v" not in av.columns:
            return nd.assign(auth_x1e6=np.int64(0))
        j = nd.merge(av, on="node", how="left")
        return pd.DataFrame(
            {"node": j["node"],
             "hub_x1e6": j["hub_x1e6"].to_numpy(np.int64),
             "auth_x1e6": j["v"].fillna(0).to_numpy(np.int64)})

    return hash_coexchange(withhub, a, "node", "node", attach_auth,
                           num_buckets=8)


# shared 2-iteration HITS chain over an ``edges(src, dst)`` CTE
# (kg_hits runs it over the constructed KG's directed entity graph)
SQL_HITS2_CHAIN = """nodes AS (
  SELECT src AS node FROM edges UNION SELECT dst AS node FROM edges
),
a1 AS (SELECT dst AS node, CAST(count(*) AS HUGEINT) * 1000000 AS v
       FROM edges GROUP BY 1),
a1m AS (SELECT max(v) AS m FROM a1),
a1n AS (SELECT node, (v * 1000000) // m AS v FROM a1, a1m),
h1 AS (SELECT e.src AS node, CAST(sum(a1n.v) AS HUGEINT) AS v
       FROM edges e JOIN a1n ON a1n.node = e.dst GROUP BY 1),
h1m AS (SELECT max(v) AS m FROM h1),
h1n AS (SELECT node, (v * 1000000) // m AS v FROM h1, h1m),
a2 AS (SELECT e.dst AS node, CAST(sum(h1n.v) AS HUGEINT) AS v
       FROM edges e JOIN h1n ON h1n.node = e.src GROUP BY 1),
a2m AS (SELECT max(v) AS m FROM a2),
a2n AS (SELECT node, (v * 1000000) // m AS v FROM a2, a2m),
h2 AS (SELECT e.src AS node, CAST(sum(a2n.v) AS HUGEINT) AS v
       FROM edges e JOIN a2n ON a2n.node = e.dst GROUP BY 1),
h2m AS (SELECT max(v) AS m FROM h2),
h2n AS (SELECT node, (v * 1000000) // m AS v FROM h2, h2m)
SELECT n.node, CAST(COALESCE(h2n.v, 0) AS BIGINT) AS hub_x1e6,
       CAST(COALESCE(a2n.v, 0) AS BIGINT) AS auth_x1e6
FROM nodes n
LEFT JOIN h2n ON h2n.node = n.node
LEFT JOIN a2n ON a2n.node = n.node
"""


def copurchase_components(sf_dir: str) -> pd.DataFrame:
    """Component-size histogram of the co-purchase graph — the market-
    structure readout (one giant blob vs many niches) that decides
    whether graph features are worth computing at all.  Rides the
    shared `_copurchase_edges` builder and the fully distributed
    min-label `connected_components` (two keyed exchanges per round,
    driver holds one convergence scalar); sizes fold in a component-
    keyed exchange and only the tiny (size, count) histogram reaches
    the driver.  -> (size, n_components)."""
    from .textops.dedup import connected_components

    edges = _copurchase_edges(sf_dir)
    out_cols = {"size": np.int64, "n_components": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    if edges.count() == 0:
        return empty_out
    comp = connected_components(edges)

    def sizes(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "component" not in df.columns:
            return pd.DataFrame({"size": pd.Series(dtype=np.int64)})
        g = df.groupby("component", as_index=False).size()
        return pd.DataFrame({"size": g["size"].to_numpy(np.int64)})

    sz = hash_exchange(
        comp, "component", sizes, num_buckets=8).to_pandas()
    if sz.empty or "size" not in sz.columns:
        return empty_out
    vc = sz["size"].value_counts()
    return pd.DataFrame({"size": vc.index.to_numpy(np.int64),
                         "n_components": vc.to_numpy(np.int64)})


SQL_COPURCHASE_COMPONENTS = """
WITH RECURSIVE d AS (
  SELECT DISTINCT l_orderkey AS ok, CAST(l_partkey AS BIGINT) AS pk
  FROM lineitem
),
e AS (
  SELECT DISTINCT a.pk AS pa, b.pk AS pb
  FROM d a JOIN d b ON b.ok = a.ok AND a.pk < b.pk
),
sym AS (SELECT pa AS s, pb AS t FROM e
        UNION ALL SELECT pb, pa FROM e),
reach(a, b) AS (
  SELECT s, t FROM sym
  UNION
  SELECT r.a, s2.t FROM reach r JOIN sym s2 ON s2.s = r.b
),
lab AS (
  SELECT a AS node, least(a, min(b)) AS label FROM reach GROUP BY a
),
siz AS (SELECT label, CAST(count(*) AS BIGINT) AS size
        FROM lab GROUP BY label)
SELECT size, CAST(count(*) AS BIGINT) AS n_components
FROM siz GROUP BY size
"""


ANALYTICS_QUERIES["copurchase_components"] = (
    copurchase_components, SQL_COPURCHASE_COMPONENTS)
