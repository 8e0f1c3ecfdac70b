"""General relational operators over the driver's TPC-H-ish tables —
demonstrations of the engine's wide-operation idioms with exact DuckDB
oracles:

* partial-aggregate-then-small-groupby (pre-aggregation before the
  shuffle — A1-A3 pattern at relational scale);
* broadcast hash join (small dimension side via ray.put — J3 pattern);
* global sort + limit (O5/O8);
* tumbling event-time windows and gap-based sessionization over the
  ``events`` stream table (groupby(key).map_groups over ts-sorted
  groups — SURVEY.md §2.9's batch-windowing stance).

Float aggregates are rounded explicitly on BOTH sides (engine and SQL)
so value hashes cannot drift on summation order.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data

from .core import hash_exchange, ts_epoch_us


def q1_pricing_summary(sf_dir: str) -> ray.data.Dataset:
    """Pricing summary over lineitem: partial per-batch aggregation, then
    a tiny global groupby (pre-aggregation pattern)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(revenue=df["l_extendedprice"] * (1 - df["l_discount"]))
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=False).agg(
            sum_qty=("l_quantity", "sum"),
            sum_base=("l_extendedprice", "sum"),
            sum_revenue=("revenue", "sum"),
            n=("l_quantity", "size"),
        )
        return g.reset_index()

    partials = ds.map_batches(partial, batch_format="pandas")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=False).agg(
            sum_qty=("sum_qty", "sum"),
            sum_base=("sum_base", "sum"),
            sum_revenue=("sum_revenue", "sum"),
            count_order=("n", "sum"),
        ).reset_index()
        for c in ("sum_qty", "sum_base", "sum_revenue"):
            g[c] = g[c].round(2)
        g["count_order"] = g["count_order"].astype(np.int64)
        return g

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__gkey"] = df["l_returnflag"].str.cat(df["l_linestatus"], sep="|")
        return df

    out = hash_exchange(
        partials.map_batches(keyed, batch_format="pandas"),
        "__gkey",
        lambda df: final(df.drop(columns="__gkey")),
        num_buckets=4,
    )
    return out


SQL_Q1 = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2) AS sum_qty,
       round(sum(l_extendedprice), 2) AS sum_base,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_revenue,
       CAST(count(*) AS BIGINT) AS count_order
FROM lineitem GROUP BY 1, 2
"""


def segment_revenue(sf_dir: str) -> ray.data.Dataset:
    """orders x customer broadcast hash join -> revenue per market
    segment.  customer (small side) is ray.put once; every batch maps
    custkey -> segment with a vectorized pandas merge."""
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).to_pandas()
    cust_ref = ray.put(cust)

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    class JoinAgg:
        def __init__(self):
            self.cust = ray.get(cust_ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            j = df.merge(self.cust, left_on="o_custkey", right_on="c_custkey", how="inner")
            g = j.groupby("c_mktsegment", sort=False).agg(
                total=("o_totalprice", "sum"), n_orders=("o_totalprice", "size")
            )
            return g.reset_index()

    partials = orders.map_batches(JoinAgg, batch_format="pandas", concurrency=2)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("c_mktsegment", sort=False).agg(
            total=("total", "sum"), n_orders=("n_orders", "sum")
        ).reset_index()
        g["total"] = g["total"].round(2)
        g["n_orders"] = g["n_orders"].astype(np.int64)
        return g

    return hash_exchange(partials, "c_mktsegment", final, num_buckets=4)


SQL_SEGMENT_REVENUE = """
SELECT c_mktsegment, round(sum(o_totalprice), 2) AS total,
       CAST(count(*) AS BIGINT) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY 1
"""


def _star_dim_and_orders(sf_dir: str):
    """Shared star-join inputs for region_revenue / revenue_rollup: the
    customer->nation->region dimension pre-joined on the driver (tiny)
    and broadcast once, plus the pruned orders fact scan."""
    def collect(table: str, cols: list[str]) -> pd.DataFrame:
        df = ray.data.read_parquet(
            f"{sf_dir}/{table}.parquet", columns=cols
        ).to_pandas()
        if df.empty and not all(c in df.columns for c in cols):
            # zero-row collect loses columns (Ray skips UDFs on empty
            # blocks); rebuild the typed empty frame
            return pd.DataFrame(
                {c: pd.Series(dtype=object if c.endswith("name") else np.int64)
                 for c in cols}
            )
        return df

    cust = collect("customer", ["c_custkey", "c_nationkey"])
    nation = collect("nation", ["n_nationkey", "n_name", "n_regionkey"])
    region = collect("region", ["r_regionkey", "r_name"])
    dim = (
        cust.merge(nation, left_on="c_nationkey", right_on="n_nationkey")
        .merge(region, left_on="n_regionkey", right_on="r_regionkey")
    )[["c_custkey", "n_name", "r_name"]]
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    return ray.put(dim), orders


def region_revenue(sf_dir: str) -> ray.data.Dataset:
    """Four-table star join: orders x customer x nation x region ->
    revenue per region.  The three dimension tables are pre-joined on
    the driver (they are tiny) and broadcast once; the fact scan does a
    single vectorized merge per batch — the canonical
    broadcast-the-small-side pattern at any scale."""
    dim_ref, orders = _star_dim_and_orders(sf_dir)

    class JoinAgg:
        def __init__(self):
            self.dim = ray.get(dim_ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            j = df.merge(self.dim, left_on="o_custkey", right_on="c_custkey", how="inner")
            g = j.groupby(["r_name", "n_name"], sort=False).agg(
                total=("o_totalprice", "sum"), n_orders=("o_totalprice", "size")
            )
            return g.reset_index()

    partials = orders.map_batches(JoinAgg, batch_format="pandas", concurrency=2)

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__rkey"] = df["r_name"].str.cat(df["n_name"], sep="|")
        return df

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["r_name", "n_name"], sort=False).agg(
            total=("total", "sum"), n_orders=("n_orders", "sum")
        ).reset_index()
        g["total"] = g["total"].round(2)
        g["n_orders"] = g["n_orders"].astype(np.int64)
        return g

    return hash_exchange(
        partials.map_batches(keyed, batch_format="pandas"),
        "__rkey",
        lambda df: final(df.drop(columns="__rkey")),
        num_buckets=4,
    )


SQL_REGION_REVENUE = """
SELECT r_name, n_name, round(sum(o_totalprice), 2) AS total,
       CAST(count(*) AS BIGINT) AS n_orders
FROM orders
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY 1, 2
"""


def top_orders(sf_dir: str, k: int = 10) -> ray.data.Dataset:
    """Global sort + limit (O5/O8): top-k orders by totalprice."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    # tiebreak on o_orderkey so the k-th boundary is deterministic
    # (matches the oracle's ORDER BY o_totalprice DESC, o_orderkey)
    top = ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(k)
    return top.map_batches(
        lambda df: df.assign(o_totalprice=df["o_totalprice"].round(2)),
        batch_format="pandas",
    )


SQL_TOP_ORDERS = """
SELECT o_orderkey, round(o_totalprice, 2) AS o_totalprice
FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""


def events_tumbling(sf_dir: str, window_s: int = 3600) -> ray.data.Dataset:
    """Tumbling event-time windows: (event_type, window_start_epoch) ->
    count + rounded value sum.  Pre-aggregated per batch; windows are a
    pure column function so no per-key state is needed."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        win = (ts_epoch_us(df["ts"]) // 1_000_000 // window_s) * window_s
        g = (
            df.assign(window_start=win)
            .groupby(["event_type", "window_start"], sort=False)
            .agg(n=("value", "size"), sum_value=("value", "sum"))
        )
        return g.reset_index()

    partials = ds.map_batches(partial, batch_format="pandas")

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__wkey"] = df["event_type"].str.cat(df["window_start"].astype(str), sep="|")
        return df

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["event_type", "window_start"], sort=False).agg(
            n=("n", "sum"), sum_value=("sum_value", "sum")
        ).reset_index()
        g["n"] = g["n"].astype(np.int64)
        g["sum_value"] = g["sum_value"].round(2)
        g["window_start"] = g["window_start"].astype(np.int64)
        return g

    return hash_exchange(
        partials.map_batches(keyed, batch_format="pandas"),
        "__wkey",
        lambda df: final(df.drop(columns="__wkey")),
        num_buckets=8,
    )


SQL_EVENTS_TUMBLING = """
SELECT event_type,
       CAST(floor(epoch(ts) / 3600) AS BIGINT) * 3600 AS window_start,
       CAST(count(*) AS BIGINT) AS n,
       round(sum(value), 2) AS sum_value
FROM events GROUP BY 1, 2
"""


def events_hopping(sf_dir: str, size_s: int = 7200, hop_s: int = 3600) -> ray.data.Dataset:
    """Hopping (sliding) windows: size 2h, hop 1h — each event lands in
    size/hop windows; realized as a vectorized per-batch explode (the
    window assignment is a pure column function, no state)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )
    k = size_s // hop_s

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        sec = ts_epoch_us(df["ts"]) // 1_000_000
        last = (sec // hop_s) * hop_s  # latest window containing the event
        parts = []
        for i in range(k):
            w = last - i * hop_s
            parts.append(
                pd.DataFrame(
                    {"event_type": df["event_type"], "window_start": w, "value": df["value"]}
                )
            )
        allp = pd.concat(parts, ignore_index=True)
        g = allp.groupby(["event_type", "window_start"], sort=False).agg(
            n=("value", "size"), sum_value=("value", "sum")
        )
        return g.reset_index()

    partials = ds.map_batches(partial, batch_format="pandas")

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__wkey"] = df["event_type"].str.cat(df["window_start"].astype(str), sep="|")
        return df

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["event_type", "window_start"], sort=False).agg(
            n=("n", "sum"), sum_value=("sum_value", "sum")
        ).reset_index()
        g["n"] = g["n"].astype(np.int64)
        g["sum_value"] = g["sum_value"].round(2)
        g["window_start"] = g["window_start"].astype(np.int64)
        return g

    return hash_exchange(
        partials.map_batches(keyed, batch_format="pandas"),
        "__wkey",
        lambda df: final(df.drop(columns="__wkey")),
        num_buckets=8,
    )


SQL_EVENTS_HOPPING = """
SELECT event_type,
       CAST(floor(epoch(ts) / 3600) AS BIGINT) * 3600 - s.i * 3600 AS window_start,
       CAST(count(*) AS BIGINT) AS n,
       round(sum(value), 2) AS sum_value
FROM events, LATERAL (SELECT unnest(generate_series(0, 1)) AS i) s
GROUP BY 1, 2
"""


def events_gap_histogram(sf_dir: str) -> pd.DataFrame:
    """Inter-arrival profile of the event stream: per event type, a
    log2-bucketed histogram of the gap (whole seconds, floored) since
    the same user's previous event — the telemetry statistic that sizes
    session-gap thresholds and watermark delays before deploying any
    windowed pipeline.

    One user-keyed exchange; gaps sort and diff bucket-locally (a user
    never spans buckets), buckets collapse to per-(type, bucket) counts
    per block and a tiny driver merge sums them.  The bucket index is
    EXACT bit_length via ``np.frexp`` (float64 represents every gap
    < 2^53 exactly) — no log2 rounding drift vs the SQL twin."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"])

    _OUT = {"event_type": object, "bucket": np.int64, "n": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t) for c, t in _OUT.items()})

    def gaps(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return empty_out
        d = df.sort_values(["user_id", "ts", "event_id"],
                           kind="mergesort").reset_index(drop=True)
        d["us"] = ts_epoch_us(d["ts"])
        pts = d.groupby("user_id")["us"].shift(1)
        m = pts.notna().to_numpy()
        if not m.any():
            return empty_out
        gap_s = ((d["us"].to_numpy(np.int64)
                  - pts.fillna(0).to_numpy(np.int64)) // 1_000_000)[m]
        bucket = np.frexp(gap_s.astype(np.float64))[1].astype(np.int64)
        g = pd.DataFrame(
            {"event_type": d["event_type"].to_numpy(object)[m],
             "bucket": bucket}
        ).groupby(["event_type", "bucket"], as_index=False).size()
        return g.rename(columns={"size": "n"}).astype(
            {"bucket": np.int64, "n": np.int64})

    parts = hash_exchange(ds, "user_id", gaps,
                                   num_buckets=16).to_pandas()
    if len(parts) == 0 or "event_type" not in parts.columns:
        return empty_out
    out = parts.groupby(["event_type", "bucket"], as_index=False).agg(
        n=("n", "sum"))
    return out.astype({"bucket": np.int64, "n": np.int64})


SQL_EVENTS_GAP_HISTOGRAM = """
WITH s AS (
  SELECT user_id, event_type, CAST(epoch_us(ts) AS BIGINT) AS us,
         lag(CAST(epoch_us(ts) AS BIGINT))
           OVER (PARTITION BY user_id ORDER BY ts, event_id) AS pus
  FROM events
),
g AS (SELECT event_type, (us - pus) // 1000000 AS gap_s
      FROM s WHERE pus IS NOT NULL)
SELECT event_type,
       CAST(CASE WHEN gap_s = 0 THEN 0
                 ELSE length(bin(gap_s)) END AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n
FROM g GROUP BY 1, 2
"""


def events_dedup_window(sf_dir: str, window_s: int = 60) -> pd.DataFrame:
    """At-least-once ingest dedup report: collapsing retransmitted
    events to one per (user, event type, tumbling ``window_s`` window),
    how many survive per type — the idempotency statistic a streaming
    ingest layer publishes (and the exact batch analogue of a keyed
    dedup-within-window operator).

    One user-keyed exchange; the (user, type, window) dedup is
    bucket-local (a user never spans buckets) and partials collapse to
    per-type (total, kept) counts."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"])

    _OUT = {"event_type": object, "n_total": np.int64, "n_kept": np.int64,
            "n_dropped": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t) for c, t in _OUT.items()})

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return empty_out
        d = df.assign(w=ts_epoch_us(df["ts"]) // (window_s * 1_000_000))
        tot = d.groupby("event_type", as_index=False).size().rename(
            columns={"size": "n_total"})
        kept = (d.drop_duplicates(["user_id", "event_type", "w"])
                .groupby("event_type", as_index=False).size()
                .rename(columns={"size": "n_kept"}))
        m = tot.merge(kept, on="event_type")
        m["n_dropped"] = m["n_total"] - m["n_kept"]
        return m.astype({c: np.int64
                         for c in ("n_total", "n_kept", "n_dropped")})

    parts = hash_exchange(ds, "user_id", per_bucket,
                                   num_buckets=16).to_pandas()
    if len(parts) == 0 or "event_type" not in parts.columns:
        return empty_out
    out = parts.groupby("event_type", as_index=False).agg(
        n_total=("n_total", "sum"), n_kept=("n_kept", "sum"),
        n_dropped=("n_dropped", "sum"))
    return out.astype({c: np.int64 for c in ("n_total", "n_kept",
                                             "n_dropped")})


SQL_EVENTS_DEDUP_WINDOW = """
WITH w AS (
  SELECT event_type, user_id,
         CAST(epoch_us(ts) AS BIGINT) // 60000000 AS w
  FROM events
)
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_total,
       CAST(count(DISTINCT user_id || ':' || w) AS BIGINT) AS n_kept,
       CAST(count(*) - count(DISTINCT user_id || ':' || w) AS BIGINT)
         AS n_dropped
FROM w GROUP BY 1
"""


def sessionize(sf_dir: str, gap_s: int = 1800) -> ray.data.Dataset:
    """Gap-based sessionization per user: groupby(user).map_groups over
    ts-sorted events (the streaming-window idiom for a batch log)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def sessions(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for uid, g in df.groupby("user_id", sort=False):
            # exact microsecond gaps: flooring to seconds first diverges
            # from the oracle for fractional gaps in (gap_s, gap_s + 1)
            t = np.sort(ts_epoch_us(g["ts"]))
            n_sessions = (
                1 + int((np.diff(t) > gap_s * 1_000_000).sum()) if len(t) else 0
            )
            out.append((uid, len(t), n_sessions))
        return pd.DataFrame(out, columns=["user_id", "n_events", "n_sessions"]).astype(
            {"user_id": np.int64, "n_events": np.int64, "n_sessions": np.int64}
        )

    return hash_exchange(ds, "user_id", sessions, num_buckets=16)


SQL_SESSIONIZE = """
WITH ordered AS (
  SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS t,
         lag(CAST(epoch_us(ts) AS BIGINT))
           OVER (PARTITION BY user_id ORDER BY ts) AS prev_t
  FROM events
)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CASE WHEN prev_t IS NULL OR t - prev_t > 1800000000
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions
FROM ordered GROUP BY 1
"""


def orders_sample(sf_dir: str, pct_hex: str = "1a") -> ray.data.Dataset:
    """Deterministic ~10% sample (O7 analogue, reproducibility-first):
    keep rows where the first md5 byte of the key is < 0x1a.  Unlike
    ``random_sample``, membership is a pure function of the key — stable
    across parallelism levels, block layouts and engines (the DuckDB
    oracle computes the identical predicate)."""
    import hashlib

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        h = df["o_orderkey"].map(
            lambda k: hashlib.md5(str(k).encode()).hexdigest()[:2]
        )
        out = df[h < pct_hex].copy()
        out["o_totalprice"] = out["o_totalprice"].round(2)
        return out

    return ds.map_batches(fn, batch_format="pandas")


SQL_ORDERS_SAMPLE = """
SELECT o_orderkey, round(o_totalprice, 2) AS o_totalprice
FROM orders
WHERE substr(md5(CAST(o_orderkey AS VARCHAR)), 1, 2) < '1a'
"""


def distinct_event_users(sf_dir: str) -> ray.data.Dataset:
    """Distinct users per event type (A9 pattern: per-batch distinct
    partials, then exact distinct-union in a small groupby)."""
    import pyarrow as pa

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["event_type", "user_id"], ignore_index=True)

    partials = ds.map_batches(partial, batch_format="pandas")
    schema = pa.schema([("event_type", pa.string()), ("n_users", pa.int64())])

    def final(df: pd.DataFrame) -> pa.Table:
        # a fixed schema: an empty bucket's event_type would be Arrow null
        g = df.groupby("event_type", sort=False)["user_id"].nunique().rename("n_users")
        return pa.Table.from_pandas(g.reset_index(), schema=schema, preserve_index=False)

    return hash_exchange(partials, "event_type", final, num_buckets=4)


SQL_DISTINCT_EVENT_USERS = """
SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY 1
"""

def stratified_sample(sf_dir: str) -> ray.data.Dataset:
    """Per-stratum deterministic sampling (O7 extended): each ``source``
    stratum gets its own rate, derived from md5(source) — membership is
    a pure function of (source, doc_id), so results are stable across
    parallelism, block layout and engines (the oracle computes the
    identical predicates)."""
    import hashlib

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        th = df["source"].map(lambda s: hashlib.md5(s.encode()).hexdigest()[:2])
        key = df["source"].str.cat(df["doc_id"].astype(str), sep=":")
        h = key.map(lambda k: hashlib.md5(k.encode()).hexdigest()[:2])
        return df[h < th][["doc_id", "source"]].reset_index(drop=True)

    return ds.map_batches(fn, batch_format="pandas")


SQL_STRATIFIED_SAMPLE = """
SELECT doc_id, source
FROM documents
WHERE substr(md5(source || ':' || CAST(doc_id AS VARCHAR)), 1, 2)
      < substr(md5(source), 1, 2)
"""


def top_docs_per_source(sf_dir: str, k: int = 3) -> ray.data.Dataset:
    """Group-wise top-k (combiner + keyed exchange): the k largest docs
    by (n_chars desc, doc_id asc) per source.  Each batch pre-trims to
    its local top-k per group, so the shuffle carries O(groups x k x
    batches) rows regardless of corpus size."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"]
    )

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(["source", "n_chars", "doc_id"],
                           ascending=[True, False, True])
            .groupby("source", sort=False)
            .head(k)
            .reset_index(drop=True)
        )

    partials = ds.map_batches(topk, batch_format="pandas")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = topk(df)
        out["rk"] = out.groupby("source", sort=False).cumcount().astype(np.int64) + 1
        out["n_chars"] = out["n_chars"].astype(np.int64)
        return out

    return hash_exchange(partials, "source", final, num_buckets=4)


SQL_TOP_DOCS_PER_SOURCE = """
SELECT source, doc_id, CAST(n_chars AS BIGINT) AS n_chars, rk FROM (
  SELECT source, doc_id, n_chars,
         CAST(row_number() OVER (PARTITION BY source
                                 ORDER BY n_chars DESC, doc_id) AS BIGINT) AS rk
  FROM documents
) WHERE rk <= 3
"""


def docs_embedding_join(sf_dir: str) -> ray.data.Dataset:
    """Distributed equi-join of two large-side tables via the two-sided
    keyed exchange (``core.hash_coexchange``): documents x embeddings on
    doc_id = vec_id — the both-sides-large join shape (neither side is
    broadcast or driver-materialized)."""
    from .core import hash_coexchange

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"]
    )

    def join(d: pd.DataFrame, e: pd.DataFrame) -> pd.DataFrame:
        if (len(d) == 0 or "doc_id" not in d.columns
                or len(e) == 0 or "vec_id" not in e.columns):
            return pd.DataFrame(
                {"doc_id": pd.Series(dtype=np.int64),
                 "n_chars": pd.Series(dtype=np.int64),
                 "label": pd.Series(dtype=object)}
            )
        j = d.merge(e.rename(columns={"vec_id": "doc_id"}), on="doc_id", how="inner")
        return j.astype({"doc_id": np.int64, "n_chars": np.int64})

    return hash_coexchange(docs, emb, "doc_id", "vec_id", join, num_buckets=8)


SQL_DOCS_EMBEDDING_JOIN = """
SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
       CAST(d.n_chars AS BIGINT) AS n_chars, e.label
FROM documents d JOIN embeddings e ON e.vec_id = d.doc_id
"""


def pack_training_sequences(
    sf_dir: str, budget: int = 4096, chunk_docs: int = 65536,
    num_buckets: int = 8,
) -> ray.data.Dataset:
    """Sequence packing for training shards: documents fill contiguous
    packs of <= ``budget`` chars per source, in doc_id order —
    pack_id = floor(running_total_before_doc / budget).  (The
    length-aware GPU packer with a span budget is ``stages/collate``;
    this is the shard-filling variant whose boundaries a SQL window
    reproduces exactly.)

    Two-phase distributed prefix sum, so a source with most of the
    corpus no longer serializes into one task:

    1. exchange on ``(source, doc_id // chunk_docs)``: each CHUNK task
       computes its local exclusive cumsum + chunk total (a chunk is a
       contiguous doc_id range WITHIN a source, so chunk order = doc
       order);
    2. tiny exchange of the per-chunk totals on ``source``: exclusive
       prefix over chunks = each chunk's global starting offset
       (O(n_sources x n_chunks) rows — bytes, not the corpus);
    3. co-partitioned join of offsets back onto the per-doc rows:
       pack_id = (offset + local_before) // budget, stateless.
    """
    ds = pack_sequences_dataset(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "source", "n_chars"],
        ),
        budget=budget, chunk_docs=chunk_docs, num_buckets=num_buckets,
    )
    return ds


def pack_sequences_dataset(
    docs: ray.data.Dataset, budget: int = 4096, chunk_docs: int = 65536,
    num_buckets: int = 8,
) -> ray.data.Dataset:
    from .core import hash_coexchange

    def add_ckey(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        if len(df) == 0 or "doc_id" not in df.columns:
            df["ckey"] = pd.Series(dtype=object)
            return df
        chunk = df["doc_id"].to_numpy().astype(np.int64) // chunk_docs
        df["chunk"] = chunk
        df["ckey"] = df["source"].astype(str) + ":" + pd.Series(chunk, index=df.index).astype(str)
        return df

    keyed = docs.map_batches(add_ckey, batch_format="pandas")

    _LOCAL_EMPTY = {
        "doc_id": pd.Series(dtype=np.int64), "source": pd.Series(dtype=object),
        "chunk": pd.Series(dtype=np.int64), "ckey": pd.Series(dtype=object),
        "local_before": pd.Series(dtype=np.int64),
        "chunk_total": pd.Series(dtype=np.int64),
    }

    def local_cumsum(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "doc_id" not in df.columns:
            return pd.DataFrame(_LOCAL_EMPTY)
        df = df.sort_values(["source", "chunk", "doc_id"], ignore_index=True)
        g = df.groupby(["source", "chunk"], sort=False)["n_chars"]
        cum = g.cumsum()
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype(np.int64),
                "source": df["source"],
                "chunk": df["chunk"].astype(np.int64),
                "ckey": df["ckey"],
                "local_before": (cum - df["n_chars"]).astype(np.int64),
                "chunk_total": g.transform("sum").astype(np.int64),
            }
        )

    locals_ds = hash_exchange(keyed, "ckey", local_cumsum, num_buckets)

    totals = locals_ds.map_batches(
        lambda df: (
            df[["source", "chunk", "ckey", "chunk_total"]].drop_duplicates(
                ["source", "chunk"], ignore_index=True
            )
            if len(df) and "source" in df.columns
            else pd.DataFrame({k: _LOCAL_EMPTY[k] for k in
                               ("source", "chunk", "ckey", "chunk_total")})
        ),
        batch_format="pandas",
    )

    def offsets(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "source" not in df.columns:
            return pd.DataFrame({"ckey": pd.Series(dtype=object),
                                 "offset": pd.Series(dtype=np.int64)})
        d = df.drop_duplicates(["source", "chunk"]).sort_values(
            ["source", "chunk"], ignore_index=True
        )
        cum = d.groupby("source", sort=False)["chunk_total"].cumsum()
        return pd.DataFrame(
            {"ckey": d["ckey"], "offset": (cum - d["chunk_total"]).astype(np.int64)}
        )

    offs = hash_exchange(totals, "source", offsets, num_buckets=4)

    def assign(l: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"doc_id": pd.Series(dtype=np.int64),
             "source": pd.Series(dtype=object),
             "pack_id": pd.Series(dtype=np.int64)}
        )
        if (len(l) == 0 or "ckey" not in l.columns
                or len(o) == 0 or "ckey" not in o.columns):
            return empty
        j = l.merge(o, on="ckey", how="inner")
        before = j["offset"].to_numpy() + j["local_before"].to_numpy()
        return pd.DataFrame(
            {
                "doc_id": j["doc_id"].astype(np.int64),
                "source": j["source"],
                "pack_id": (before // budget).astype(np.int64),
            }
        )

    return hash_coexchange(locals_ds, offs, "ckey", "ckey", assign, num_buckets)


SQL_PACK_SEQUENCES = """
SELECT doc_id, source,
       CAST(COALESCE(SUM(n_chars) OVER (
              PARTITION BY source ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
            // 4096 AS BIGINT) AS pack_id
FROM documents
"""


FUNNEL_STEPS = ("signup", "view", "click", "purchase")


def funnel_steps(sf_dir: str, steps: tuple[str, ...] = FUNNEL_STEPS) -> pd.DataFrame:
    """-> (step, step_name, n_users): strict-sequence funnel — a user
    completes step k at the earliest event of type ``steps[k]`` strictly
    after their step-(k-1) completion time (greedy earliest-completion,
    the standard funnel semantics).

    One keyed exchange on user_id; inside a bucket each step is a
    vectorized filter + per-user min against the previous step's
    completion times, and the bucket emits only per-step user counts
    (len(steps) rows), so the driver merges a constant-size grid."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts"]
    )

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[df["event_type"].isin(steps)]
        return pd.DataFrame(
            {
                "user_id": keep["user_id"].to_numpy().astype(np.int64),
                "event_type": keep["event_type"].to_numpy(),
                "t": ts_epoch_us(keep["ts"]),
            }
        )

    slim = ev.map_batches(prep, batch_format="pandas")

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "step": pd.Series(dtype=np.int64),
                "step_name": pd.Series(dtype=object),
                "n_users": pd.Series(dtype=np.int64),
            }
        )
        if len(df) == 0 or "event_type" not in df.columns:
            return empty
        rows = []
        prev: pd.Series | None = None  # user -> completion time of prior step
        for k, name in enumerate(steps):
            sub = df[df["event_type"] == name]
            if prev is not None:
                if len(prev) == 0:
                    sub = sub.iloc[0:0]
                else:
                    # int64 end to end: reindex would promote through
                    # float64 on any missing label (inexact beyond
                    # 2^53 us), so look up positions and mask instead
                    idx = prev.index.get_indexer(sub["user_id"])
                    present = idx >= 0
                    tpv = prev.to_numpy()[np.clip(idx, 0, None)]
                    sub = sub[present & (sub["t"].to_numpy() > tpv)]
            cur = sub.groupby("user_id")["t"].min()
            rows.append((k + 1, name, len(cur)))
            prev = cur
        return pd.DataFrame(rows, columns=["step", "step_name", "n_users"])

    partials = hash_exchange(slim, "user_id", per_bucket).to_pandas()
    # always emit one row per step (the SQL twin's count(*) over an
    # empty CTE is a 0 row, never an absent row)
    totals = {name: 0 for name in steps}
    if not partials.empty and "step_name" in partials.columns:
        for name, n in partials.groupby("step_name")["n_users"].sum().items():
            totals[name] = int(n)
    return pd.DataFrame(
        {
            "step": np.arange(1, len(steps) + 1, dtype=np.int64),
            "step_name": list(steps),
            "n_users": np.array([totals[s] for s in steps], dtype=np.int64),
        }
    )


def _sql_funnel(steps: tuple[str, ...]) -> str:
    ctes = ["e AS (SELECT user_id, event_type, epoch_us(ts) AS t FROM events)"]
    sels = []
    for k, name in enumerate(steps, start=1):
        if k == 1:
            ctes.append(
                f"s1 AS (SELECT user_id, min(t) AS t1 FROM e"
                f" WHERE event_type = '{name}' GROUP BY 1)"
            )
        else:
            ctes.append(
                f"s{k} AS (SELECT e.user_id, min(t) AS t{k} FROM e"
                f" JOIN s{k - 1} USING (user_id)"
                f" WHERE event_type = '{name}' AND t > t{k - 1} GROUP BY 1)"
            )
        sels.append(
            f"SELECT CAST({k} AS BIGINT) AS step, '{name}' AS step_name,"
            f" CAST(count(*) AS BIGINT) AS n_users FROM s{k}"
        )
    return "WITH " + ",\n".join(ctes) + "\n" + "\nUNION ALL ".join(sels)


SQL_FUNNEL_STEPS = _sql_funnel(FUNNEL_STEPS)


def revenue_rollup(sf_dir: str) -> pd.DataFrame:
    """-> (region, nation, revenue_cents, n_orders) at THREE grouping
    levels — (region, nation), (region, ALL), (ALL, ALL) — the GROUP BY
    ROLLUP pattern.

    The fact scan computes finest-level partials only (broadcast dim
    join + per-batch combiner, same shape as region_revenue); the
    coarser levels are derived from the <= |region x nation| finest rows
    on the driver, so the rollup costs ONE pass regardless of level
    count.  Revenue is summed in integer CENTS (each price rounded once
    per row) so every level is hash-exact vs SQL under any partitioning
    or summation order — the fixed-point trick from pagerank3 applied to
    money."""
    dim_ref, orders = _star_dim_and_orders(sf_dir)

    class JoinCents:
        def __init__(self):
            self.dim = ray.get(dim_ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            j = df.merge(self.dim, left_on="o_custkey", right_on="c_custkey",
                         how="inner")
            # half-AWAY-from-zero to match DuckDB round() (np.round is
            # half-even — the CLAUDE.md .5-boundary hazard)
            p = j["o_totalprice"].to_numpy() * 100
            j["cents"] = np.trunc(p + np.sign(p) * 0.5).astype(np.int64)
            g = j.groupby(["r_name", "n_name"], sort=False).agg(
                revenue_cents=("cents", "sum"), n_orders=("cents", "size")
            )
            return g.reset_index()

    partials = orders.map_batches(
        JoinCents, batch_format="pandas", concurrency=2
    ).to_pandas()
    if partials.empty or "r_name" not in partials.columns:
        # GROUP BY ROLLUP over empty input still yields the grand-total
        # row — match the SQL twin exactly
        return pd.DataFrame(
            {"region": ["ALL"], "nation": ["ALL"],
             "revenue_cents": np.asarray([0], dtype=np.int64),
             "n_orders": np.asarray([0], dtype=np.int64)}
        )
    finest = (
        partials.groupby(["r_name", "n_name"], sort=True)[["revenue_cents", "n_orders"]]
        .sum()
        .reset_index()
        .rename(columns={"r_name": "region", "n_name": "nation"})
    )
    by_region = (
        finest.groupby("region", sort=True)[["revenue_cents", "n_orders"]]
        .sum()
        .reset_index()
        .assign(nation="ALL")
    )
    grand = pd.DataFrame(
        {
            "region": ["ALL"],
            "nation": ["ALL"],
            "revenue_cents": [finest["revenue_cents"].sum()],
            "n_orders": [finest["n_orders"].sum()],
        }
    )
    out = pd.concat([finest, by_region, grand], ignore_index=True)[
        ["region", "nation", "revenue_cents", "n_orders"]
    ]
    out["revenue_cents"] = out["revenue_cents"].astype(np.int64)
    out["n_orders"] = out["n_orders"].astype(np.int64)
    return out


SQL_REVENUE_ROLLUP = """
WITH j AS (
  SELECT r_name, n_name, CAST(round(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders
  JOIN customer ON o_custkey = c_custkey
  JOIN nation ON c_nationkey = n_nationkey
  JOIN region ON n_regionkey = r_regionkey
)
SELECT CASE WHEN GROUPING(r_name) = 1 THEN 'ALL' ELSE r_name END AS region,
       CASE WHEN GROUPING(n_name) = 1 THEN 'ALL' ELSE n_name END AS nation,
       CAST(COALESCE(sum(cents), 0) AS BIGINT) AS revenue_cents,
       CAST(count(*) AS BIGINT) AS n_orders
FROM j GROUP BY ROLLUP(r_name, n_name)
"""


_DAY_US = 86_400_000_000


def cohort_retention(sf_dir: str) -> pd.DataFrame:
    """-> (cohort_day, days_since, n_users): classic retention matrix —
    users grouped by first-activity day, distinct active users counted
    at each day offset.

    One keyed exchange on user_id computes each user's first day AND the
    distinct (cohort, offset, user) rows in the same bucket pass (a user
    lives wholly in one bucket, so the per-bucket distinct-user counts
    are exact partials); the driver merges only the tiny cohort x offset
    grid.  Batch-local (user, day) dedup runs before the exchange to cut
    shuffle bytes to active-days, not events."""
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def days(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "user_id": df["user_id"].to_numpy().astype(np.int64),
                "day": (ts_epoch_us(df["ts"]) // _DAY_US).astype(np.int64),
            }
        )
        return out.drop_duplicates()

    active = ev.map_batches(days, batch_format="pandas")

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "day" not in df.columns:
            return pd.DataFrame(
                {
                    "cohort_day": pd.Series(dtype=np.int64),
                    "days_since": pd.Series(dtype=np.int64),
                    "n_users": pd.Series(dtype=np.int64),
                }
            )
        first = df.groupby("user_id")["day"].transform("min")
        distinct = pd.DataFrame(
            {
                "cohort_day": first.to_numpy(np.int64),
                "days_since": (df["day"] - first).to_numpy(np.int64),
                "user_id": df["user_id"].to_numpy(np.int64),
            }
        ).drop_duplicates()
        return (
            distinct.groupby(["cohort_day", "days_since"], sort=False)
            .size()
            .reset_index(name="n_users")
        )

    partials = hash_exchange(active, "user_id", per_bucket).to_pandas()
    if partials.empty or "cohort_day" not in partials.columns:
        return pd.DataFrame(
            {c: pd.Series(dtype=np.int64)
             for c in ("cohort_day", "days_since", "n_users")}
        )
    out = (
        partials.groupby(["cohort_day", "days_since"], sort=True)["n_users"]
        .sum()
        .reset_index()
    )
    out["n_users"] = out["n_users"].astype(np.int64)
    return out


SQL_COHORT_RETENTION = f"""
WITH w AS (
  SELECT DISTINCT user_id,
         CAST(epoch_us(ts) // {_DAY_US} AS BIGINT) AS day
  FROM events
),
f AS (SELECT user_id, min(day) AS first_day FROM w GROUP BY 1),
a AS (
  SELECT DISTINCT w.user_id, f.first_day AS cohort_day,
         w.day - f.first_day AS days_since
  FROM w JOIN f USING (user_id)
)
SELECT cohort_day, days_since, CAST(count(*) AS BIGINT) AS n_users
FROM a GROUP BY 1, 2
"""


def hll_users(sf_dir: str) -> pd.DataFrame:
    """HyperLogLog register vector over events.user_id (p=8) — the
    distinct-count sketch; see functions/hll.py for the topology."""
    from .functions.hll import hll_registers

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return hll_registers(ev, "user_id")


def _sql_hexval_huge(expr: str, nchars: int) -> str:
    """HUGEINT value of the first ``nchars`` hex chars of ``expr``
    (big-endian; BIGINT would overflow beyond 15 chars)."""
    return "(" + " + ".join(
        f"(strpos('0123456789abcdef', substr({expr}, {1 + i}, 1)) - 1)"
        f" * {16 ** (nchars - 1 - i)}::HUGEINT"
        for i in range(nchars)
    ) + ")"


# p=8: register = top 8 of 64 hash bits, rho over the low 56 bits;
# length(bin(w)) is w's bit_length (bin() strips leading zeros), so
# rho = 57 - bit_length(w), with the w=0 case pinned to 57.
SQL_HLL_USERS = f"""
WITH h AS (
  SELECT {_sql_hexval_huge("md5(CAST(user_id AS VARCHAR))", 16)} AS val
  FROM events
),
rr AS (
  SELECT CAST(val >> 56 AS BIGINT) AS register,
         CAST(CASE WHEN (val % (1::HUGEINT << 56)) = 0 THEN 57
              ELSE 57 - length(bin(val % (1::HUGEINT << 56))) END AS BIGINT) AS rho
  FROM h
),
mx AS (SELECT register, max(rho) AS rho_max FROM rr GROUP BY 1)
SELECT r.register, CAST(COALESCE(mx.rho_max, 0) AS BIGINT) AS rho_max
FROM (SELECT CAST(range AS BIGINT) AS register FROM range(0, 256)) r
LEFT JOIN mx USING (register)
"""


def hll_users_by_type(sf_dir: str) -> pd.DataFrame:
    """Grouped HLL: one distinct-user sketch per event_type."""
    from .functions.hll import hll_registers_by

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return hll_registers_by(ev, "user_id", "event_type")


SQL_HLL_USERS_BY_TYPE = f"""
WITH h AS (
  SELECT event_type,
         {_sql_hexval_huge("md5(CAST(user_id AS VARCHAR))", 16)} AS val
  FROM events
),
rr AS (
  SELECT event_type,
         CAST(val >> 56 AS BIGINT) AS register,
         CAST(CASE WHEN (val % (1::HUGEINT << 56)) = 0 THEN 57
              ELSE 57 - length(bin(val % (1::HUGEINT << 56))) END AS BIGINT) AS rho
  FROM h
)
SELECT event_type, register, CAST(max(rho) AS BIGINT) AS rho_max
FROM rr GROUP BY 1, 2
"""


def cms_users(sf_dir: str) -> pd.DataFrame:
    """Count-Min sketch counters over events.user_id (4 x 1024) — the
    frequency-estimation sketch; see functions/cms.py."""
    from .functions.cms import cms_counters

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return cms_counters(ev, "user_id")


SQL_CMS_USERS = f"""
WITH rows_ AS (SELECT CAST(range AS BIGINT) AS row FROM range(0, 4)),
h AS (
  SELECT r.row,
         {_sql_hexval_huge(
             "md5(CAST(r.row AS VARCHAR) || ':' || CAST(user_id AS VARCHAR))", 16
         )} % 1024 AS col
  FROM events, rows_ r
)
SELECT row, CAST(col AS BIGINT) AS col, CAST(count(*) AS BIGINT) AS "count"
FROM h GROUP BY 1, 2
"""


def cms_users_by_type(sf_dir: str) -> pd.DataFrame:
    """Grouped Count-Min: one per-event-type user-frequency sketch."""
    from .functions.cms import cms_counters_by

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return cms_counters_by(ev, "user_id", "event_type")


SQL_CMS_USERS_BY_TYPE = f"""
WITH rows_ AS (SELECT CAST(range AS BIGINT) AS row FROM range(0, 4)),
h AS (
  SELECT event_type, r.row,
         {_sql_hexval_huge(
             "md5(CAST(r.row AS VARCHAR) || ':' || CAST(user_id AS VARCHAR))", 16
         )} % 1024 AS col
  FROM events, rows_ r
)
SELECT event_type, row, CAST(col AS BIGINT) AS col,
       CAST(count(*) AS BIGINT) AS "count"
FROM h GROUP BY 1, 2, 3
"""


def weighted_sample_docs(sf_dir: str, factor: int = 40) -> ray.data.Dataset:
    """Deterministic size-weighted sample of documents (O7 family,
    probability-proportional-to-size): keep a document when the 16-bit
    value of its md5 prefix is below ``n_chars * factor`` — i.e.
    p = min(1, n_chars * factor / 65536), so longer documents are
    proportionally more likely to survive (the usual up-weighting of
    long/high-token documents when subsampling a corpus).  Membership
    is a pure function of (key, n_chars): stable across engines,
    parallelism and reruns, embarrassingly parallel, and the DuckDB
    twin recomputes the identical predicate."""
    import hashlib

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"]
    )

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        u = df["doc_id"].map(
            lambda k: int(hashlib.md5(str(k).encode()).hexdigest()[:4], 16)
        ).to_numpy(np.int64)
        keep = df[u < df["n_chars"].to_numpy(np.int64) * factor]
        return pd.DataFrame(
            {
                "doc_id": keep["doc_id"].to_numpy(np.int64),
                "source": keep["source"].to_numpy(),
                "n_chars": keep["n_chars"].to_numpy(np.int64),
            }
        )

    return ds.map_batches(fn, batch_format="pandas")


SQL_WEIGHTED_SAMPLE_DOCS = f"""
SELECT doc_id, source, n_chars
FROM documents
WHERE {_sql_hexval_huge("md5(CAST(doc_id AS VARCHAR))", 4)} < n_chars * 40
"""


def price_histogram(sf_dir: str, bin_cents: int = 25_000_00) -> ray.data.Dataset:
    """Mergeable equi-width histogram sketch over orders.o_totalprice
    (the third sketch family next to HLL and CMS): each batch folds to
    its local (bin -> n, sum_cents) partial, partials merge by integer
    addition in a tiny keyed exchange — the distributed-histogram shape
    where shuffle bytes are O(n_bins x n_blocks) regardless of row
    count.  Prices are floored to integer cents before binning so the
    DuckDB twin is bit-exact (no float-boundary drift at bin edges)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_totalprice"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(df["o_totalprice"].to_numpy(np.float64) * 100.0).astype(
            np.int64
        )
        bins = cents // bin_cents
        g = pd.DataFrame({"bin": bins, "cents": cents}).groupby("bin", sort=False)
        out = g.agg(n=("cents", "size"), sum_cents=("cents", "sum")).reset_index()
        return out.astype({"bin": np.int64, "n": np.int64, "sum_cents": np.int64})

    partials = ds.map_batches(partial, batch_format="pandas")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("bin", sort=False).agg(
            n=("n", "sum"), sum_cents=("sum_cents", "sum")
        ).reset_index()
        return g.astype({"bin": np.int64, "n": np.int64, "sum_cents": np.int64})

    return hash_exchange(partials, "bin", merge, num_buckets=4)


SQL_PRICE_HISTOGRAM = """
SELECT CAST(floor(o_totalprice * 100.0) AS BIGINT) // 2500000 AS bin,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(floor(o_totalprice * 100.0) AS BIGINT)) AS BIGINT) AS sum_cents
FROM orders GROUP BY 1
"""


def histogram_quantiles(
    sf_dir: str, bin_cents: int = 10_000_00
) -> ray.data.Dataset:
    """Approximate per-group quantiles FROM the mergeable histogram
    sketch (the one-pass, fixed-memory alternative to
    ``analytics.exact_quantiles``' multi-pass selection): per
    (group, bin) integer partials merge in a tiny keyed exchange, then
    each group's quantile estimate is the upper edge of the first bin
    whose cumulative count reaches ``ceil(q*n)`` — error bounded by the
    bin width, deterministic, so the window-cumsum SQL twin is
    bit-exact.  Shuffle bytes are O(groups x bins x blocks) regardless
    of row count — the sketch shape for percentile dashboards at
    100 TB.  -> (flag, n, p50_cents, p95_cents)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_extendedprice"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(
            df["l_extendedprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        g = pd.DataFrame(
            {"flag": df["l_returnflag"].to_numpy(), "bin": cents // bin_cents}
        ).groupby(["flag", "bin"], sort=False).size().rename("n").reset_index()
        return g.astype({"bin": np.int64, "n": np.int64})

    partials = ds.map_batches(partial, batch_format="pandas")

    def quantiles(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"flag": pd.Series(dtype=object), "n": pd.Series(dtype=np.int64),
             "p50_cents": pd.Series(dtype=np.int64),
             "p95_cents": pd.Series(dtype=np.int64)}
        )
        if len(df) == 0 or "flag" not in df.columns:
            return empty
        h = df.groupby(["flag", "bin"], sort=False)["n"].sum().reset_index()
        h = h.sort_values(["flag", "bin"], kind="mergesort")
        rows = []
        for flag, g in h.groupby("flag", sort=False):
            n = int(g["n"].sum())
            cum = g["n"].cumsum().to_numpy(np.int64)
            bins = g["bin"].to_numpy(np.int64)
            t50 = (n + 1) // 2                  # ceil(0.5 * n)
            t95 = (95 * n + 99) // 100          # ceil(0.95 * n)
            b50 = bins[np.searchsorted(cum, t50)]
            b95 = bins[np.searchsorted(cum, t95)]
            rows.append((flag, n, (b50 + 1) * bin_cents, (b95 + 1) * bin_cents))
        return pd.DataFrame(
            rows, columns=["flag", "n", "p50_cents", "p95_cents"]
        ).astype({"n": np.int64, "p50_cents": np.int64, "p95_cents": np.int64})

    return hash_exchange(partials, "flag", quantiles, num_buckets=4)


SQL_HISTOGRAM_QUANTILES = """
WITH h AS (
  SELECT l_returnflag AS flag,
         CAST(floor(l_extendedprice * 100.0) AS BIGINT) // 1000000 AS bin,
         count(*) AS c
  FROM lineitem GROUP BY 1, 2
),
cum AS (
  SELECT flag, bin, c,
         sum(c) OVER (PARTITION BY flag ORDER BY bin) AS cum,
         sum(c) OVER (PARTITION BY flag) AS n
  FROM h
)
SELECT flag, CAST(any_value(n) AS BIGINT) AS n,
       CAST((min(CASE WHEN cum >= (n + 1) // 2 THEN bin END) + 1)
            * 1000000 AS BIGINT) AS p50_cents,
       CAST((min(CASE WHEN cum >= (95 * n + 99) // 100 THEN bin END) + 1)
            * 1000000 AS BIGINT) AS p95_cents
FROM cum GROUP BY flag
"""


def events_moving_sum(sf_dir: str, window: int = 3) -> ray.data.Dataset:
    """Per-key moving-window aggregate (the lead/lag window-function
    family): for every event, the sum of the last ``window`` values of
    its user's stream ordered by (ts, event_id) — realized as ONE keyed
    exchange on user_id with a vectorized prefix-sum difference per
    bucket (no per-row loop; a user's history never spans buckets).
    Values are floored to integer cents per row BEFORE summation so the
    window sum is order-independent and the DuckDB ROWS-BETWEEN twin
    hashes identically."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )

    def moving(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "event_id": pd.Series(dtype=np.int64),
                    "user_id": pd.Series(dtype=np.int64),
                    "mov_cents": pd.Series(dtype=np.int64),
                }
            )
        t = ts_epoch_us(df["ts"])
        order = np.lexsort(
            (df["event_id"].to_numpy(np.int64), t, df["user_id"].to_numpy(np.int64))
        )
        uid = df["user_id"].to_numpy(np.int64)[order]
        eid = df["event_id"].to_numpy(np.int64)[order]
        cents = np.floor(df["value"].to_numpy(np.float64)[order] * 100.0).astype(
            np.int64
        )
        pref = np.concatenate([[0], np.cumsum(cents)])
        idx = np.arange(len(cents))
        lo = np.maximum(idx - (window - 1), 0)
        # clamp the window start to the first row of each user's run
        new_user = np.concatenate([[True], uid[1:] != uid[:-1]])
        run_start = np.maximum.accumulate(np.where(new_user, idx, 0))
        lo = np.maximum(lo, run_start)
        mov = pref[idx + 1] - pref[lo]
        return pd.DataFrame(
            {"event_id": eid, "user_id": uid, "mov_cents": mov.astype(np.int64)}
        )

    return hash_exchange(ds, "user_id", moving, num_buckets=16)


SQL_EVENTS_MOVING_SUM = """
SELECT event_id, user_id,
       CAST(sum(CAST(floor(value * 100.0) AS BIGINT)) OVER (
            PARTITION BY user_id ORDER BY ts, event_id
            ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT) AS mov_cents
FROM events
"""


def window_distinct_users(
    sf_dir: str, window_s: int = 3600
) -> ray.data.Dataset:
    """EXACT count-distinct per tumbling window (the sketch-free twin of
    the windowed-HLL family): per-batch distinct (window, user) pairs
    are the combiner — shuffle bytes are O(distinct pairs), never O(rows)
    — then one keyed exchange on the window counts uniques.  A window's
    pairs all land in one bucket, so the count is exact; at 100 TB the
    per-window distinct set must fit a task (true for hourly windows;
    beyond that, switch to the HLL sketch or salt users and sum
    per-salt distinct counts)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        win = (ts_epoch_us(df["ts"]) // 1_000_000 // window_s) * window_s
        out = pd.DataFrame(
            {"window_start": win, "user_id": df["user_id"].to_numpy(np.int64)}
        ).drop_duplicates(ignore_index=True)
        return out.astype({"window_start": np.int64})

    partials = ds.map_batches(partial, batch_format="pandas")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "window_start" not in df.columns:
            return pd.DataFrame({"window_start": pd.Series(dtype=np.int64),
                                 "n_users": pd.Series(dtype=np.int64)})
        g = df.drop_duplicates(["window_start", "user_id"]).groupby(
            "window_start", as_index=False
        ).size()
        return g.rename(columns={"size": "n_users"}).astype(
            {"window_start": np.int64, "n_users": np.int64}
        )

    return hash_exchange(partials, "window_start", final, num_buckets=8)


SQL_WINDOW_DISTINCT_USERS = """
SELECT CAST(floor(epoch(ts) / 3600) AS BIGINT) * 3600 AS window_start,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY 1
"""


def events_lag(sf_dir: str) -> ray.data.Dataset:
    """LAG window function: microseconds since the user's previous event
    (-1 for the first event of a stream) — the explicit lag/lead family
    member next to the moving-window sum.  Same single keyed exchange on
    user_id; in-bucket work is one lexsort + one vectorized diff."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )

    def lag(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"event_id": pd.Series(dtype=np.int64),
                 "user_id": pd.Series(dtype=np.int64),
                 "gap_us": pd.Series(dtype=np.int64)}
            )
        t = ts_epoch_us(df["ts"])
        order = np.lexsort(
            (df["event_id"].to_numpy(np.int64), t, df["user_id"].to_numpy(np.int64))
        )
        uid = df["user_id"].to_numpy(np.int64)[order]
        eid = df["event_id"].to_numpy(np.int64)[order]
        ts = t[order]
        gap = np.empty(len(ts), dtype=np.int64)
        gap[0] = -1
        gap[1:] = ts[1:] - ts[:-1]
        new_user = np.concatenate([[True], uid[1:] != uid[:-1]])
        gap[new_user] = -1
        return pd.DataFrame({"event_id": eid, "user_id": uid, "gap_us": gap})

    return hash_exchange(ds, "user_id", lag, num_buckets=16)


SQL_EVENTS_LAG = """
SELECT event_id, user_id,
       CAST(COALESCE(epoch_us(ts) - epoch_us(
            lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)), -1)
            AS BIGINT) AS gap_us
FROM events
"""


_TYPE_PAIRS = {"from_type": object, "to_type": object, "n": np.int64}


def _sum_type_pairs(parts: ray.data.Dataset, num_buckets: int = 4) -> ray.data.Dataset:
    """Sum per-bucket (from_type, to_type, n) partials into the global
    |types|² matrix via one tiny string-keyed exchange — shared by
    event_transitions and events_within_window."""

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        if not len(df) or "from_type" not in df.columns:
            df["__tkey"] = pd.Series(dtype=object)
            return df
        df["__tkey"] = df["from_type"].str.cat(df["to_type"], sep="|")
        return df

    def final(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df) or "from_type" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _TYPE_PAIRS.items()})
        g = df.groupby(["from_type", "to_type"], as_index=False).agg(n=("n", "sum"))
        return g.astype({"n": np.int64})

    return hash_exchange(
        parts.map_batches(keyed, batch_format="pandas"),
        "__tkey",
        lambda df: final(df.drop(columns="__tkey", errors="ignore")),
        num_buckets,
    )


def event_transitions(sf_dir: str) -> ray.data.Dataset:
    """Markov transition counts over per-user event streams: how often
    does event type A immediately precede event type B for the same
    user (the sequence-mining primitive behind funnel discovery /
    next-event models)?  One keyed exchange on user_id, vectorized
    lexsort + shift inside the bucket, per-bucket partial counts, and a
    tiny second exchange summing the |types|² transition matrix.
    -> (from_type, to_type, n)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "event_type"]
    )

    _OUT = _TYPE_PAIRS

    def transitions(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df) or "user_id" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _OUT.items()})
        t = ts_epoch_us(df["ts"])
        order = np.lexsort(
            (df["event_id"].to_numpy(np.int64), t, df["user_id"].to_numpy(np.int64))
        )
        uid = df["user_id"].to_numpy(np.int64)[order]
        et = df["event_type"].to_numpy(object)[order]
        same = uid[1:] == uid[:-1]
        if not same.any():
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _OUT.items()})
        g = pd.DataFrame(
            {"from_type": et[:-1][same], "to_type": et[1:][same]}
        ).groupby(["from_type", "to_type"], as_index=False).size()
        return g.rename(columns={"size": "n"}).astype({"n": np.int64})

    parts = hash_exchange(ds, "user_id", transitions, num_buckets=16)
    return _sum_type_pairs(parts)


SQL_EVENT_TRANSITIONS = """
WITH seq AS (
  SELECT user_id, event_type,
         lead(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS nxt
  FROM events
)
SELECT event_type AS from_type, nxt AS to_type, CAST(count(*) AS BIGINT) AS n
FROM seq WHERE nxt IS NOT NULL GROUP BY 1, 2
"""


def events_within_window(
    sf_dir: str, window_s: int = 3600
) -> ray.data.Dataset:
    """Stream-stream interval self-join: ordered pairs of SAME-USER
    events at most ``window_s`` apart (strictly later), aggregated to
    transition-pair counts — the bounded-time correlation join (the
    family between the as-of join and the range join: both sides are
    streams, the predicate is a time band plus an equi-key).

    In-bucket expansion is fully vectorized: rows sort by (user, ts,
    event_id), each user run is lifted onto a disjoint virtual time
    axis (run_id * 2^41 + in-run offset, so one global searchsorted
    window can never cross users), and the [i+1, hi_i] windows expand
    with the same repeat/cumsum arithmetic as grouped pair expansion.
    -> (from_type, to_type, n)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    w_us = np.int64(window_s) * np.int64(1_000_000)

    _OUT = _TYPE_PAIRS

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({c: pd.Series(dtype=t) for c, t in _OUT.items()})
        if not len(df) or "user_id" not in df.columns:
            return empty
        t = ts_epoch_us(df["ts"])
        order = np.lexsort(
            (df["event_id"].to_numpy(np.int64), t, df["user_id"].to_numpy(np.int64))
        )
        uid = df["user_id"].to_numpy(np.int64)[order]
        ts = t[order]
        et = df["event_type"].to_numpy(object)[order]
        n = len(ts)
        new = np.concatenate([[True], uid[1:] != uid[:-1]])
        starts = np.flatnonzero(new)
        run_len = np.diff(np.concatenate([starts, [n]]))
        run_id = np.cumsum(new) - 1
        ts_rel = ts - np.repeat(ts[starts], run_len)
        # run stride: beyond the longest in-run span + window, so a
        # searchsorted window can never cross runs; overflow-checked
        stride = np.int64(int(ts_rel.max()) + int(w_us) + 1)
        if int(run_id[-1]) * int(stride) + int(ts_rel.max()) >= (1 << 62):
            raise OverflowError(
                "events_within_window: run span x run count exceeds the "
                "int64 virtual axis; shrink buckets or the window"
            )
        virt = run_id.astype(np.int64) * stride + ts_rel
        # strictly-later partners within the window, same virtual run
        lo = np.searchsorted(virt, virt, side="right")
        hi = np.searchsorted(virt, virt + w_us, side="right")
        cnt = hi - lo
        total = int(cnt.sum())
        if total == 0:
            return empty
        li = np.repeat(np.arange(n, dtype=np.int64), cnt)
        cum = np.concatenate([[0], np.cumsum(cnt)])
        rj = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], cnt) + lo[li]
        g = pd.DataFrame({"from_type": et[li], "to_type": et[rj]}).groupby(
            ["from_type", "to_type"], as_index=False
        ).size()
        return g.rename(columns={"size": "n"}).astype({"n": np.int64})

    parts = hash_exchange(ds, "user_id", pairs, num_buckets=16)
    return _sum_type_pairs(parts)


SQL_EVENTS_WITHIN_WINDOW = """
SELECT a.event_type AS from_type, b.event_type AS to_type,
       CAST(count(*) AS BIGINT) AS n
FROM events a JOIN events b
  ON a.user_id = b.user_id
 AND epoch_us(b.ts) > epoch_us(a.ts)
 AND epoch_us(b.ts) - epoch_us(a.ts) <= 3600000000
GROUP BY 1, 2
"""


def profile_orders(sf_dir: str) -> ray.data.Dataset:
    """Column profiling (the data-quality sweep run before any pipeline
    is trusted): per-column row count, null count, min and max over the
    orders table, as one long-format table.  Values are encoded to
    BIGINT (floor-cents for money, epoch microseconds for timestamps)
    so every column shares one schema and the SQL twin hashes exactly.

    Shape: per-batch partials (a few rows per batch per column) merge
    by min/max/sum in a tiny keyed exchange — profiling 100 TB costs
    one streaming pass and O(columns x blocks) shuffle bytes."""
    cols = ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"]
    ds = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=cols)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        # integer keys stay on int64 end to end (a float64 round-trip
        # loses exactness above 2^53 — ADVICE r3); only money needs the
        # float encode, and timestamps are already integral epoch-us
        enc = {
            "o_orderkey": lambda s: s.to_numpy(np.int64),
            "o_custkey": lambda s: s.to_numpy(np.int64),
            "o_totalprice": lambda s: np.floor(
                s.to_numpy(np.float64) * 100.0
            ).astype(np.int64),
            "o_orderdate": lambda s: ts_epoch_us(s),
        }
        for c in cols:
            s = df[c]
            null = s.isna()
            v = enc[c](s[~null]) if (~null).any() else np.empty(0)
            rows.append(
                (c, len(s), int(null.sum()),
                 int(v.min()) if len(v) else np.iinfo(np.int64).max,
                 int(v.max()) if len(v) else np.iinfo(np.int64).min)
            )
        return pd.DataFrame(
            rows, columns=["column", "n", "n_null", "min_v", "max_v"]
        ).astype({"n": np.int64, "n_null": np.int64,
                  "min_v": np.int64, "max_v": np.int64})

    partials = ds.map_batches(partial, batch_format="pandas")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "column" not in df.columns:
            return pd.DataFrame(
                {"column": pd.Series(dtype=object),
                 **{c: pd.Series(dtype=np.int64)
                    for c in ("n", "n_null", "min_v", "max_v")}}
            )
        g = df.groupby("column", as_index=False).agg(
            n=("n", "sum"), n_null=("n_null", "sum"),
            min_v=("min_v", "min"), max_v=("max_v", "max"),
        )
        # a column with NO non-null values still carries the +/-inf
        # sentinels here: report 0/0 (the COALESCE convention the SQL
        # twin uses — fabricated extrema would be worse than a zero)
        no_vals = g["n"] - g["n_null"] == 0
        g.loc[no_vals, ["min_v", "max_v"]] = 0
        return g.astype({c: np.int64 for c in ("n", "n_null", "min_v", "max_v")})

    out = hash_exchange(partials, "column", merge, num_buckets=4)

    def ensure_all_columns(df: pd.DataFrame) -> pd.DataFrame:
        # zero-row input never runs the partials: emit the 4 all-zero
        # rows the SQL twin's aggregate-per-column UNION still produces
        if len(df) == 0 or "column" not in df.columns:
            return pd.DataFrame(
                {"column": cols,
                 **{c: np.zeros(len(cols), dtype=np.int64)
                    for c in ("n", "n_null", "min_v", "max_v")}}
            )
        return df

    # the exchange is eager; counting is cheap on its materialized output
    if out.count() == 0:
        return ray.data.from_pandas(ensure_all_columns(pd.DataFrame()))
    return out


SQL_PROFILE_ORDERS = """
SELECT 'o_orderkey' AS "column", CAST(count(*) AS BIGINT) AS n,
       CAST(count(*) - count(o_orderkey) AS BIGINT) AS n_null,
       CAST(COALESCE(min(o_orderkey), 0) AS BIGINT) AS min_v,
       CAST(COALESCE(max(o_orderkey), 0) AS BIGINT) AS max_v FROM orders
UNION ALL
SELECT 'o_custkey', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(o_custkey) AS BIGINT),
       CAST(COALESCE(min(o_custkey), 0) AS BIGINT),
       CAST(COALESCE(max(o_custkey), 0) AS BIGINT) FROM orders
UNION ALL
SELECT 'o_totalprice', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(o_totalprice) AS BIGINT),
       CAST(COALESCE(min(CAST(floor(o_totalprice * 100.0) AS BIGINT)), 0) AS BIGINT),
       CAST(COALESCE(max(CAST(floor(o_totalprice * 100.0) AS BIGINT)), 0) AS BIGINT) FROM orders
UNION ALL
SELECT 'o_orderdate', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(o_orderdate) AS BIGINT),
       CAST(COALESCE(min(epoch_us(o_orderdate)), 0) AS BIGINT),
       CAST(COALESCE(max(epoch_us(o_orderdate)), 0) AS BIGINT) FROM orders
"""


def ddsketch_quantiles(sf_dir: str, sub_bits: int = 3) -> ray.data.Dataset:
    """Relative-error quantile sketch (DDSketch-style log buckets,
    Masson et al., VLDB 2019) — the heavy-tail complement to the
    equi-width ``histogram_quantiles``: bucket = (bit_length(v),
    top ``sub_bits`` mantissa bits), so relative error is bounded by
    2^-sub_bits per bucket while the sketch stays O(log(max) * 2^sub_bits)
    registers REGARDLESS of the value range (an equi-width histogram
    needs O(range/width) bins and collapses on heavy-tailed data).
    All-integer bucket math (bit_length + shifts, no float log) keeps
    the DuckDB twin bit-exact via length(bin(v)).  Same mergeable shape
    as the other sketches: per-batch (type, bucket) partials -> tiny
    keyed exchange -> per-group cumulative scan.  Values are event
    ``value`` floored to cents and clamped to >= 1 (log buckets need
    positive support; the clamp is applied on BOTH sides).
    -> (event_type, n, p50_ub_cents, p95_ub_cents, p99_ub_cents) where
    each quantile is the exclusive upper edge of its bucket."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    sub = 1 << sub_bits

    def bucketize(cents: np.ndarray) -> np.ndarray:
        # bit_length via float64 log2 is UNSAFE at powers of two;
        # derive it by searchsorted against exact power-of-2 edges
        bl = np.searchsorted(
            2 ** np.arange(1, 64, dtype=np.uint64), cents.astype(np.uint64),
            side="right",
        ) + 1  # bit_length(v) for v >= 1
        shift = np.maximum(bl - 1 - sub_bits, 0)
        mant = cents >> shift  # in [2^sub_bits, 2^(sub_bits+1)) for bl > sub_bits
        return bl * (2 * sub) + mant

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.maximum(
            np.floor(df["value"].to_numpy(np.float64) * 100.0).astype(np.int64), 1
        )
        g = pd.DataFrame(
            {"event_type": df["event_type"].to_numpy(), "bucket": bucketize(cents)}
        ).groupby(["event_type", "bucket"], sort=False).size().rename("n")
        return g.reset_index().astype({"bucket": np.int64, "n": np.int64})

    partials = ds.map_batches(partial, batch_format="pandas")

    def quantiles(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n": pd.Series(dtype=np.int64),
             **{c: pd.Series(dtype=np.int64)
                for c in ("p50_ub_cents", "p95_ub_cents", "p99_ub_cents")}}
        )
        if len(df) == 0 or "event_type" not in df.columns:
            return empty
        h = df.groupby(["event_type", "bucket"], sort=False)["n"].sum().reset_index()
        h = h.sort_values(["event_type", "bucket"], kind="mergesort")
        rows = []
        for et, g in h.groupby("event_type", sort=False):
            n = int(g["n"].sum())
            cum = g["n"].cumsum().to_numpy(np.int64)
            bk = g["bucket"].to_numpy(np.int64)
            ubs = []
            for num, den in ((1, 2), (95, 100), (99, 100)):
                b = int(bk[np.searchsorted(cum, (num * n + den - 1) // den)])
                bl, mant = b // (2 * sub), b % (2 * sub)
                ubs.append((mant + 1) << max(bl - 1 - sub_bits, 0))
            rows.append((et, n, *ubs))
        return pd.DataFrame(
            rows,
            columns=["event_type", "n", "p50_ub_cents", "p95_ub_cents",
                     "p99_ub_cents"],
        ).astype({c: np.int64 for c in
                  ("n", "p50_ub_cents", "p95_ub_cents", "p99_ub_cents")})

    return hash_exchange(partials, "event_type", quantiles, num_buckets=4)


# length(bin(v)) == bit_length for v >= 1; shifts/masks mirror the
# engine's integer bucket math exactly (no float log anywhere)
SQL_DDSKETCH_QUANTILES = """
WITH vals AS (
  SELECT event_type,
         greatest(CAST(floor(value * 100.0) AS BIGINT), 1) AS cents
  FROM events
), bk AS (
  SELECT event_type,
         length(bin(cents)) * 16
           + (cents >> greatest(length(bin(cents)) - 1 - 3, 0)) AS bucket,
         count(*) AS c
  FROM vals GROUP BY 1, 2
), cum AS (
  SELECT event_type, bucket, c,
         sum(c) OVER (PARTITION BY event_type ORDER BY bucket) AS cum,
         sum(c) OVER (PARTITION BY event_type) AS n
  FROM bk
)
SELECT event_type, CAST(any_value(n) AS BIGINT) AS n,
       CAST(((min(CASE WHEN cum >= (n + 1) // 2 THEN bucket END) % 16) + 1)
            * power(2, greatest(min(CASE WHEN cum >= (n + 1) // 2
                                    THEN bucket END) // 16 - 4, 0)) AS BIGINT)
         AS p50_ub_cents,
       CAST(((min(CASE WHEN cum >= (95 * n + 99) // 100 THEN bucket END) % 16) + 1)
            * power(2, greatest(min(CASE WHEN cum >= (95 * n + 99) // 100
                                    THEN bucket END) // 16 - 4, 0)) AS BIGINT)
         AS p95_ub_cents,
       CAST(((min(CASE WHEN cum >= (99 * n + 99) // 100 THEN bucket END) % 16) + 1)
            * power(2, greatest(min(CASE WHEN cum >= (99 * n + 99) // 100
                                    THEN bucket END) // 16 - 4, 0)) AS BIGINT)
         AS p99_ub_cents
FROM cum GROUP BY event_type
"""


def key_skew_profile(sf_dir: str, top_k: int = 20) -> ray.data.Dataset:
    """Hot-key profiler — the measurement tool behind every 'skew
    handled explicitly' decision in this engine (salted
    canonicalization, conv_id assembly): per-block combiner counts on
    events.user_id, one tiny keyed exchange to merge, per-bucket top-K,
    then a final single-block reduce over the K x num_buckets survivors
    (per-bucket top-K is a safe prefilter: the global top-K by count is
    a subset of the per-bucket top-Ks since buckets partition keys).
    Emits rank, count and share in parts-per-million so a planner (or
    an operator choosing a salt factor) can read skew directly.
    -> (rank, user_id, n, share_ppm) ordered by (n DESC, user_id ASC)."""
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", sort=False).size().rename("n").reset_index()
        return g.astype({"user_id": np.int64, "n": np.int64})

    partials = ds.map_batches(partial, batch_format="pandas")

    def merge_topk(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"user_id": pd.Series(dtype=np.int64),
             "n": pd.Series(dtype=np.int64)}
        )
        if len(df) == 0 or "user_id" not in df.columns:
            return empty
        g = df.groupby("user_id", sort=False)["n"].sum().reset_index()
        total = int(g["n"].sum())
        g = g.sort_values(["n", "user_id"], ascending=[False, True],
                          kind="mergesort").head(top_k)
        # sentinel row carries this bucket's TOTAL count downstream
        # (user_id is a non-negative key in the input; -1 can't collide)
        g = pd.concat(
            [g, pd.DataFrame({"user_id": [-1], "n": [total]})],
            ignore_index=True,
        )
        return g.astype({"user_id": np.int64, "n": np.int64})

    survivors = hash_exchange(partials, "user_id", merge_topk,
                                       num_buckets=8)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame(
                {"rank": pd.Series(dtype=np.int64),
                 "user_id": pd.Series(dtype=np.int64),
                 "n": pd.Series(dtype=np.int64),
                 "share_ppm": pd.Series(dtype=np.int64)}
            )
        sentinel = df["user_id"].to_numpy(np.int64) == -1
        total = int(df.loc[sentinel, "n"].to_numpy(np.int64).sum())
        df = df.loc[~sentinel].sort_values(
            ["n", "user_id"], ascending=[False, True], kind="mergesort"
        ).head(top_k)
        return pd.DataFrame(
            {"rank": np.arange(1, len(df) + 1, dtype=np.int64),
             "user_id": df["user_id"].to_numpy(np.int64),
             "n": df["n"].to_numpy(np.int64),
             "share_ppm": df["n"].to_numpy(np.int64) * 1_000_000 // max(total, 1)}
        )

    # survivors is <= top_k x num_buckets rows: a single-block global
    # reduce is O(K) driver-free work
    return survivors.repartition(1).map_batches(
        final, batch_format="pandas", batch_size=None
    )


SQL_KEY_SKEW_PROFILE = """
WITH c AS (
  SELECT user_id, count(*) AS n FROM events GROUP BY 1
), t AS (SELECT sum(n) AS total FROM c)
SELECT CAST(row_number() OVER (ORDER BY n DESC, user_id ASC) AS BIGINT) AS "rank",
       user_id, CAST(n AS BIGINT) AS n,
       CAST(n * 1000000 // (SELECT total FROM t) AS BIGINT) AS share_ppm
FROM c ORDER BY n DESC, user_id ASC LIMIT 20
"""


def join_size_estimate(sf_dir: str) -> pd.DataFrame:
    """Join-cardinality estimation WITHOUT running the join — the
    planner primitive behind broadcast-vs-exchange decisions like
    ``analytics._triangle_close_path``: |A join B on k| =
    sum_k count_A(k) * count_B(k) is estimated by the inner product of
    the two sides' Count-Min sketches (Cormode & Muthukrishnan 2005,
    §4.2), min over the d hash rows — an upper bound that needs one
    streaming pass per side and O(d x w) driver state, never the join
    itself.  Sides: events.user_id x customer.c_custkey (key domains
    align by construction).  Rows missing from the per-row cell match
    contribute inner product 0, so the min is taken over ALL d rows.
    -> one row (est_join_rows)."""
    from .functions.cms import CMS_DEPTH, cms_counters

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    cu = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    )
    a = cms_counters(ev, "user_id")
    b = cms_counters(cu, "c_custkey")
    j = a.merge(b, on=["row", "col"], suffixes=("_a", "_b"))
    inner = (
        (j["count_a"].to_numpy(np.int64) * j["count_b"].to_numpy(np.int64))
        .astype(np.int64)
    )
    per_row = np.zeros(CMS_DEPTH, dtype=np.int64)
    if len(j):
        np.add.at(per_row, j["row"].to_numpy(np.int64), inner)
    return pd.DataFrame({"est_join_rows": [np.int64(per_row.min())]})


SQL_JOIN_SIZE_ESTIMATE = f"""
WITH rows_ AS (SELECT CAST(range AS BIGINT) AS row FROM range(0, 4)),
ha AS (
  SELECT r.row,
         {_sql_hexval_huge(
             "md5(CAST(r.row AS VARCHAR) || ':' || CAST(user_id AS VARCHAR))", 16
         )} % 1024 AS col, count(*) AS c
  FROM events, rows_ r GROUP BY 1, 2
),
hb AS (
  SELECT r.row,
         {_sql_hexval_huge(
             "md5(CAST(r.row AS VARCHAR) || ':' || CAST(c_custkey AS VARCHAR))", 16
         )} % 1024 AS col, count(*) AS c
  FROM customer, rows_ r GROUP BY 1, 2
),
ip AS (
  SELECT r.row, COALESCE(sum(a.c * b.c), 0) AS inner_
  FROM rows_ r
  LEFT JOIN ha a ON a.row = r.row
  LEFT JOIN hb b ON b.row = a.row AND b.col = a.col
  GROUP BY r.row
)
SELECT CAST(min(inner_) AS BIGINT) AS est_join_rows FROM ip
"""


def customer_upsert(sf_dir: str) -> ray.data.Dataset:
    """MERGE INTO (latest-wins upsert): apply a change stream to a base
    table — customer balances overridden by each customer's most recent
    'purchase' event value (ties on ts broken by event_id, both
    descending).  The CDC/delta-apply shape every warehouse engine
    needs: ONE two-sided keyed exchange (base x deltas co-partitioned on
    the key), per-bucket latest-delta selection by vectorized lexsort,
    left-merge, no broadcast and no driver materialization — at 100 TB
    the delta side is typically small but this path never assumes it.
    -> (c_custkey, acctbal_cents, updated)."""
    from .core import hash_coexchange

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_acctbal"]
    )
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type", "value"],
    ).filter(expr="event_type == 'purchase'")

    def apply_deltas(c: pd.DataFrame, d: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"c_custkey": pd.Series(dtype=np.int64),
             "acctbal_cents": pd.Series(dtype=np.int64),
             "updated": pd.Series(dtype=np.int64)}
        )
        if len(c) == 0 or "c_custkey" not in c.columns:
            return empty
        base_cents = np.floor(
            c["c_acctbal"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        out = pd.DataFrame(
            {"c_custkey": c["c_custkey"].to_numpy(np.int64),
             "acctbal_cents": base_cents,
             "updated": np.zeros(len(c), dtype=np.int64)}
        )
        if len(d) and "user_id" in d.columns:
            t = ts_epoch_us(d["ts"])
            order = np.lexsort(
                (d["event_id"].to_numpy(np.int64), t,
                 d["user_id"].to_numpy(np.int64))
            )
            uid = d["user_id"].to_numpy(np.int64)[order]
            cents = np.floor(
                d["value"].to_numpy(np.float64)[order] * 100.0
            ).astype(np.int64)
            last = np.concatenate([uid[1:] != uid[:-1], [True]])
            latest = pd.DataFrame(
                {"c_custkey": uid[last], "__new": cents[last]}
            )
            out = out.merge(latest, on="c_custkey", how="left")
            hit = out["__new"].notna().to_numpy()
            out.loc[hit, "acctbal_cents"] = out.loc[hit, "__new"].astype(np.int64)
            out.loc[hit, "updated"] = 1
            out = out.drop(columns="__new")
        return out.astype({"acctbal_cents": np.int64, "updated": np.int64})

    return hash_coexchange(
        cust, ev, "c_custkey", "user_id", apply_deltas, num_buckets=8
    )


SQL_CUSTOMER_UPSERT = """
WITH d AS (
  SELECT user_id, CAST(floor(value * 100.0) AS BIGINT) AS cents,
         row_number() OVER (
           PARTITION BY user_id ORDER BY ts DESC, event_id DESC
         ) AS rn
  FROM events WHERE event_type = 'purchase'
)
SELECT CAST(c_custkey AS BIGINT) AS c_custkey,
       CAST(COALESCE(d.cents,
                     CAST(floor(c_acctbal * 100.0) AS BIGINT)) AS BIGINT)
         AS acctbal_cents,
       CAST(CASE WHEN d.user_id IS NULL THEN 0 ELSE 1 END AS BIGINT) AS updated
FROM customer LEFT JOIN (SELECT * FROM d WHERE rn = 1) d
  ON c_custkey = d.user_id
"""


def customer_order_dist(sf_dir: str) -> ray.data.Dataset:
    """Order-count distribution per customer (TPC-H Q13 shape): LEFT
    join customer x orders, count orders per customer (zero-order
    customers kept), then the distribution of those counts.  Shape: the
    fact side pre-aggregates to one row per custkey inside map_batches,
    the left join is ONE two-sided keyed exchange (customer x partial
    counts co-partitioned on the key), and each bucket emits its LOCAL
    count distribution — the second shuffle moves O(distinct counts)
    rows per bucket, never O(customers).  -> (n_orders, n_customers)."""
    from .core import hash_coexchange

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_custkey", sort=False).size().rename("n")
        return g.reset_index().astype({"n": np.int64})

    partials = orders.map_batches(partial, batch_format="pandas")

    def local_dist(c: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"n_orders": pd.Series(dtype=np.int64),
             "n_customers": pd.Series(dtype=np.int64)}
        )
        if len(c) == 0 or "c_custkey" not in c.columns:
            return empty
        per = pd.DataFrame({"c_custkey": c["c_custkey"].to_numpy(np.int64)})
        if len(o) and "o_custkey" in o.columns:
            counts = (
                o.groupby("o_custkey", sort=False)["n"].sum().rename("n_orders")
            )
            per = per.merge(
                counts, left_on="c_custkey", right_index=True, how="left"
            )
            per["n_orders"] = per["n_orders"].fillna(0).astype(np.int64)
        else:
            per["n_orders"] = np.zeros(len(per), dtype=np.int64)
        g = per.groupby("n_orders", sort=False).size().rename("n_customers")
        return g.reset_index().astype(np.int64)

    dist_partials = hash_coexchange(
        cust, partials, "c_custkey", "o_custkey", local_dist, num_buckets=8
    )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("n_orders", sort=False)["n_customers"].sum()
        return g.reset_index().astype(np.int64)

    return hash_exchange(dist_partials, "n_orders", final, num_buckets=2)


SQL_CUSTOMER_ORDER_DIST = """
WITH pc AS (
  SELECT c_custkey, count(o_custkey) AS n_orders
  FROM customer LEFT JOIN orders ON c_custkey = o_custkey
  GROUP BY 1
)
SELECT CAST(n_orders AS BIGINT) AS n_orders,
       CAST(count(*) AS BIGINT) AS n_customers
FROM pc GROUP BY 1
"""


def large_volume_orders(sf_dir: str, min_qty: int = 250, k: int = 100) -> ray.data.Dataset:
    """Large-volume orders (TPC-H Q18 shape): orders whose total line
    quantity exceeds ``min_qty``, joined back to orders + customer,
    top-k by price.  HAVING realized as filter-after-exchange on the
    pre-aggregated quantity totals; both joins are two-sided keyed
    exchanges (never broadcast — the surviving set is small at this
    threshold but the path must not assume it); price is integer cents
    so the top-k boundary is exact.  -> top-k rows
    (o_orderkey, o_custkey, c_name, orderdate_s, price_cents, total_qty)."""
    from .core import hash_exchange, hash_coexchange

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    )

    def qty_partial(df: pd.DataFrame) -> pd.DataFrame:
        q = df["l_quantity"].to_numpy(np.float64).astype(np.int64)
        g = (
            pd.DataFrame({"l_orderkey": df["l_orderkey"].to_numpy(np.int64),
                          "total_qty": q})
            .groupby("l_orderkey", sort=False)["total_qty"].sum()
        )
        return g.reset_index().astype(np.int64)

    partials = li.map_batches(qty_partial, batch_format="pandas")

    def qty_total(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_orderkey" not in df.columns:
            return pd.DataFrame(
                {"l_orderkey": pd.Series(dtype=np.int64),
                 "total_qty": pd.Series(dtype=np.int64)}
            )
        g = df.groupby("l_orderkey", sort=False)["total_qty"].sum().reset_index()
        return g[g["total_qty"] > min_qty].astype(np.int64)

    big = hash_exchange(partials, "l_orderkey", qty_total, num_buckets=8)

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"],
    )

    def attach_order(o: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"o_orderkey": pd.Series(dtype=np.int64),
             "o_custkey": pd.Series(dtype=np.int64),
             "orderdate_s": pd.Series(dtype=np.int64),
             "price_cents": pd.Series(dtype=np.int64),
             "total_qty": pd.Series(dtype=np.int64)}
        )
        if len(o) == 0 or len(b) == 0 or "o_orderkey" not in o.columns \
                or "l_orderkey" not in b.columns:
            return empty
        j = o.merge(b, left_on="o_orderkey", right_on="l_orderkey", how="inner")
        if len(j) == 0:
            return empty
        return pd.DataFrame(
            {"o_orderkey": j["o_orderkey"].to_numpy(np.int64),
             "o_custkey": j["o_custkey"].to_numpy(np.int64),
             "orderdate_s": ts_epoch_us(j["o_orderdate"]) // 1_000_000,
             "price_cents": np.floor(
                 j["o_totalprice"].to_numpy(np.float64) * 100.0
             ).astype(np.int64),
             "total_qty": j["total_qty"].to_numpy(np.int64)}
        )

    joined = hash_coexchange(
        orders, big, "o_orderkey", "l_orderkey", attach_order, num_buckets=8
    )

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )

    def attach_cust(j: pd.DataFrame, c: pd.DataFrame) -> pd.DataFrame:
        if len(j) == 0 or "o_custkey" not in j.columns:
            return pd.DataFrame(
                {"o_orderkey": pd.Series(dtype=np.int64),
                 "o_custkey": pd.Series(dtype=np.int64),
                 "c_name": pd.Series(dtype=object),
                 "orderdate_s": pd.Series(dtype=np.int64),
                 "price_cents": pd.Series(dtype=np.int64),
                 "total_qty": pd.Series(dtype=np.int64)}
            )
        out = j.merge(c, left_on="o_custkey", right_on="c_custkey", how="inner")
        return out[["o_orderkey", "o_custkey", "c_name", "orderdate_s",
                    "price_cents", "total_qty"]]

    named = hash_coexchange(
        joined, cust, "o_custkey", "c_custkey", attach_cust, num_buckets=8
    )
    return named.sort(
        ["price_cents", "o_orderkey"], descending=[True, False]
    ).limit(k)


SQL_LARGE_VOLUME_ORDERS = """
WITH t AS (
  SELECT l_orderkey,
         CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS total_qty
  FROM lineitem GROUP BY 1
  HAVING sum(CAST(l_quantity AS BIGINT)) > 250
)
SELECT CAST(o_orderkey AS BIGINT) AS o_orderkey,
       CAST(o_custkey AS BIGINT) AS o_custkey, c_name,
       CAST(epoch(o_orderdate) AS BIGINT) AS orderdate_s,
       CAST(floor(o_totalprice * 100.0) AS BIGINT) AS price_cents,
       t.total_qty
FROM orders
JOIN t ON o_orderkey = t.l_orderkey
JOIN customer ON o_custkey = c_custkey
ORDER BY price_cents DESC, o_orderkey LIMIT 100
"""


def pivot_events(sf_dir: str) -> ray.data.Dataset:
    """Crosstab / PIVOT: one row per day with per-event-type count
    columns plus purchase revenue (integer cents).  The pivot happens
    INSIDE map_batches (long -> wide partials with a fixed column set),
    so the shuffle moves one wide row per (batch, day) — never the long
    table.  -> (day, n_click, n_error, n_purchase, n_signup, n_view,
    purchase_cents)."""
    types = ["click", "error", "purchase", "signup", "view"]
    cols = [f"n_{t}" for t in types]

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        day = ts_epoch_us(df["ts"]) // 86_400_000_000
        cents = np.floor(df["value"].to_numpy(np.float64) * 100.0).astype(np.int64)
        long = pd.DataFrame(
            {"day": day, "event_type": df["event_type"].to_numpy(object),
             "cents": cents}
        )
        wide = (
            long.pivot_table(index="day", columns="event_type",
                             values="cents", aggfunc="size", fill_value=0)
            .reindex(columns=types, fill_value=0)
        )
        wide.columns = cols
        pur = long[long["event_type"] == "purchase"]
        pc = pur.groupby("day", sort=False)["cents"].sum()
        wide["purchase_cents"] = pc.reindex(wide.index, fill_value=0)
        return wide.reset_index().astype(np.int64)

    partials = ds.map_batches(partial, batch_format="pandas")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("day", sort=False)[cols + ["purchase_cents"]].sum()
        return g.reset_index().astype(np.int64)

    return hash_exchange(partials, "day", final, num_buckets=4)


SQL_PIVOT_EVENTS = """
SELECT CAST(floor(epoch(ts) / 86400) AS BIGINT) AS day,
       CAST(count(*) FILTER (event_type = 'click') AS BIGINT) AS n_click,
       CAST(count(*) FILTER (event_type = 'error') AS BIGINT) AS n_error,
       CAST(count(*) FILTER (event_type = 'purchase') AS BIGINT) AS n_purchase,
       CAST(count(*) FILTER (event_type = 'signup') AS BIGINT) AS n_signup,
       CAST(count(*) FILTER (event_type = 'view') AS BIGINT) AS n_view,
       CAST(COALESCE(sum(CAST(floor(value * 100.0) AS BIGINT))
                     FILTER (event_type = 'purchase'), 0) AS BIGINT)
         AS purchase_cents
FROM events GROUP BY 1
"""


def segment_rank(sf_dir: str, k: int = 5) -> ray.data.Dataset:
    """Per-group window function: dense_rank() of customers by total
    order revenue within each market segment, keeping rank <= k.
    Revenue pre-aggregates to one row per custkey; the custkey->segment
    attach is a two-sided keyed exchange whose buckets ALSO prune to the
    local top-k distinct revenues per segment (global top-k distinct is
    contained in the union of local top-k distinct), so the final
    per-segment exchange ranks O(k x buckets) rows per segment — the
    segment key's low cardinality never concentrates the full table.
    -> (c_mktsegment, c_custkey, revenue_cents, rk)."""
    from .core import hash_exchange, hash_coexchange

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def rev_partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        g = (
            pd.DataFrame({"o_custkey": df["o_custkey"].to_numpy(np.int64),
                          "revenue_cents": cents})
            .groupby("o_custkey", sort=False)["revenue_cents"].sum()
        )
        return g.reset_index().astype(np.int64)

    partials = orders.map_batches(rev_partial, batch_format="pandas")

    def attach_prune(c: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"c_mktsegment": pd.Series(dtype=object),
             "c_custkey": pd.Series(dtype=np.int64),
             "revenue_cents": pd.Series(dtype=np.int64)}
        )
        if len(c) == 0 or len(o) == 0 or "c_custkey" not in c.columns \
                or "o_custkey" not in o.columns:
            return empty
        rev = o.groupby("o_custkey", sort=False)["revenue_cents"].sum().reset_index()
        j = c.merge(rev, left_on="c_custkey", right_on="o_custkey", how="inner")
        if len(j) == 0:
            return empty
        # local prune: keep rows whose revenue is among this bucket's
        # top-k DISTINCT revenues for the segment
        rk = j.groupby("c_mktsegment", sort=False)["revenue_cents"].rank(
            method="dense", ascending=False
        )
        j = j[rk <= k]
        return j[["c_mktsegment", "c_custkey", "revenue_cents"]].astype(
            {"c_custkey": np.int64, "revenue_cents": np.int64}
        )

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    pruned = hash_coexchange(
        cust, partials, "c_custkey", "o_custkey", attach_prune, num_buckets=8
    )

    def rank_seg(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "c_mktsegment" not in df.columns:
            return pd.DataFrame(
                {"c_mktsegment": pd.Series(dtype=object),
                 "c_custkey": pd.Series(dtype=np.int64),
                 "revenue_cents": pd.Series(dtype=np.int64),
                 "rk": pd.Series(dtype=np.int64)}
            )
        df = df.copy()
        df["rk"] = (
            df.groupby("c_mktsegment", sort=False)["revenue_cents"]
            .rank(method="dense", ascending=False)
            .astype(np.int64)
        )
        return df[df["rk"] <= k]

    return hash_exchange(pruned, "c_mktsegment", rank_seg, num_buckets=4)


SQL_SEGMENT_RANK = """
WITH r AS (
  SELECT o_custkey,
         CAST(sum(CAST(floor(o_totalprice * 100.0) AS BIGINT)) AS BIGINT)
           AS revenue_cents
  FROM orders GROUP BY 1
), d AS (
  SELECT c_mktsegment, c_custkey, revenue_cents,
         dense_rank() OVER (
           PARTITION BY c_mktsegment ORDER BY revenue_cents DESC
         ) AS rk
  FROM customer JOIN r ON c_custkey = o_custkey
)
SELECT c_mktsegment, CAST(c_custkey AS BIGINT) AS c_custkey,
       revenue_cents, CAST(rk AS BIGINT) AS rk
FROM d WHERE rk <= 5
"""


def balance_ntile(sf_dir: str, tiles: int = 10) -> pd.DataFrame:
    """NTILE(10) decile bucketing of customers by account balance,
    reported as per-tile aggregates — the distributed window-bucketing
    op without a global sort.  Each batch folds to a (cents -> n)
    histogram partial (a combiner: shuffle bytes are O(distinct cents
    per batch), and distinct cents is bounded by the VALUE DOMAIN —
    ~1.1M for TPC-H acctbal — not the row count, so the merged
    histogram the driver holds is bounded at any data scale).  The
    driver converts cumulative counts to global rank ranges and splits
    each value's range across NTILE boundaries; because rows with equal
    cents are interchangeable, per-tile aggregates are invariant to the
    intra-tie order SQL leaves unspecified.  NTILE sizing matches the
    SQL-standard rule: the first n % tiles buckets get one extra row.
    -> (tile, n_customers, min_cents, max_cents, sum_cents)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_acctbal"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(
            df["c_acctbal"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        g = pd.Series(cents).value_counts()
        return pd.DataFrame(
            {"cents": g.index.to_numpy(np.int64),
             "n": g.to_numpy(np.int64)}
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "cents" not in df.columns:
            return pd.DataFrame({"cents": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64)})
        g = df.groupby("cents", sort=False, as_index=False)["n"].sum()
        return g.astype(np.int64)

    # per-batch partials merge to the global histogram on a keyed
    # exchange BEFORE the driver collect: the driver holds O(domain)
    # rows, not O(batches x batch-distinct-cents)
    partials = hash_exchange(
        ds.map_batches(partial, batch_format="pandas"), "cents", merge,
        num_buckets=8,
    ).to_pandas()
    cols = ("tile", "n_customers", "min_cents", "max_cents", "sum_cents")
    if partials.empty or "cents" not in partials.columns:
        return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
    hist = partials.groupby("cents", sort=True)["n"].sum()
    cents = hist.index.to_numpy(np.int64)
    cnt = hist.to_numpy(np.int64)
    lo = np.concatenate([[0], np.cumsum(cnt)[:-1]])  # 0-based rank range start
    hi = lo + cnt
    n = int(cnt.sum())
    q, rem = divmod(n, tiles)
    # tile i (0-based) covers ranks [start[i], start[i+1])
    sizes = np.full(tiles, q, dtype=np.int64)
    sizes[:rem] += 1
    start = np.concatenate([[0], np.cumsum(sizes)])
    out = {c: [] for c in cols}
    for i in range(tiles):
        a, b = start[i], start[i + 1]
        if b <= a:
            continue
        ov = np.minimum(hi, b) - np.maximum(lo, a)
        ov = np.clip(ov, 0, None)
        m = ov > 0
        out["tile"].append(i + 1)
        out["n_customers"].append(int(ov.sum()))
        out["min_cents"].append(int(cents[m].min()))
        out["max_cents"].append(int(cents[m].max()))
        out["sum_cents"].append(int((cents * ov).sum()))
    return pd.DataFrame(out).astype(np.int64)


SQL_BALANCE_NTILE = """
WITH c AS (
  SELECT CAST(floor(c_acctbal * 100.0) AS BIGINT) AS cents FROM customer
), t AS (
  SELECT cents, NTILE(10) OVER (ORDER BY cents) AS tile FROM c
)
SELECT CAST(tile AS BIGINT) AS tile,
       CAST(count(*) AS BIGINT) AS n_customers,
       CAST(min(cents) AS BIGINT) AS min_cents,
       CAST(max(cents) AS BIGINT) AS max_cents,
       CAST(sum(cents) AS BIGINT) AS sum_cents
FROM t GROUP BY 1
"""


def heavy_hitters(sf_dir: str, phi_inv: int = 4096) -> pd.DataFrame:
    """EXACT frequent items over events.user_id via the Misra-Gries
    two-pass topology (candidates sketch + broadcast verify — see
    functions/mg.py): users with count * phi_inv > n.  The MG superset
    guarantee makes the output identical to plain GROUP BY ... HAVING,
    which is the SQL twin.  At this synthetic SF the distinct-user
    count sits under the capacity so the sketch never prunes; the
    pruning path is pinned by a Zipf unit test
    (tests/test_analytics.py::test_mg_*)."""
    from .functions.mg import heavy_hitters_exact

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    out = heavy_hitters_exact(ev, "user_id", phi_inv)
    return out.rename(columns={"key": "user_id", "count": "n_events"})


SQL_HEAVY_HITTERS = """
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(count(*) AS BIGINT) AS n_events
FROM events GROUP BY 1
HAVING count(*) * 4096 > (SELECT count(*) FROM events)
"""


def kmv_intersection(sf_dir: str, k: int = 64) -> pd.DataFrame:
    """KMV (bottom-k / theta) sketch set-intersection: estimated
    distinct-user overlap for every event-type pair — the sketch
    composition HLL cannot do (see functions/kmv.py for the integer
    estimator pinned by the SQL twin).
    -> (type_a, type_b, matches, union_est, inter_est)."""
    from .functions.kmv import kmv_intersections, kmv_sketch_by

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    sketches = kmv_sketch_by(ev, "user_id", "event_type", k)
    return kmv_intersections(sketches, k)


SQL_KMV_INTERSECTION = f"""
WITH d AS (
  SELECT DISTINCT event_type,
         CAST({_sql_hexval_huge("md5(CAST(user_id AS VARCHAR))", 15)}
              AS BIGINT) AS val
  FROM events
),
r AS (
  SELECT event_type, val,
         row_number() OVER (PARTITION BY event_type ORDER BY val) AS rn
  FROM d
),
sk AS (SELECT event_type, val FROM r WHERE rn <= 64),
ty AS (SELECT DISTINCT event_type FROM events),
pr AS (
  SELECT a.event_type AS ta, b.event_type AS tb
  FROM ty a JOIN ty b ON a.event_type < b.event_type
),
uni AS (
  SELECT pr.ta, pr.tb, s.val,
         max(CASE WHEN s.event_type = pr.ta THEN 1 ELSE 0 END) AS in_a,
         max(CASE WHEN s.event_type = pr.tb THEN 1 ELSE 0 END) AS in_b
  FROM pr JOIN sk s ON s.event_type = pr.ta OR s.event_type = pr.tb
  GROUP BY 1, 2, 3
),
ru AS (
  SELECT ta, tb, val, in_a, in_b,
         row_number() OVER (PARTITION BY ta, tb ORDER BY val) AS rn,
         count(*) OVER (PARTITION BY ta, tb) AS n_union
  FROM uni
),
agg AS (
  SELECT ta, tb, least(max(n_union), 64) AS ku, max(n_union) AS n_union,
         max(val) FILTER (WHERE rn <= 64) AS kth,
         count(*) FILTER (WHERE rn <= 64 AND in_a = 1 AND in_b = 1)
           AS matches
  FROM ru GROUP BY 1, 2
),
est AS (
  SELECT ta, tb, ku, matches,
         CASE WHEN n_union < 64 THEN n_union
              ELSE (ku - 1) * (1152921504606846976::HUGEINT) // kth
         END AS union_est
  FROM agg
)
SELECT ta AS type_a, tb AS type_b,
       CAST(matches AS BIGINT) AS matches,
       CAST(union_est AS BIGINT) AS union_est,
       CAST(matches * union_est // ku AS BIGINT) AS inter_est
FROM est
"""


_Q3_CUTOFF_US = int(pd.Timestamp("1998-06-01").value // 1000)


def shipping_priority(sf_dir: str, k: int = 10) -> ray.data.Dataset:
    """TPC-H Q3 shape: customer (filtered to one market segment,
    broadcast once) x orders (date-filtered) x lineitem (date-filtered)
    -> top-k not-yet-shipped orders by revenue.

    The canonical mixed-join plan at any scale: the SMALL side (the
    segment's custkeys, O(customers/5) int64s) rides ``ray.put`` into a
    vectorized ``np.isin`` filter on the orders scan; the BIG-BIG
    orders x lineitem join is ONE keyed coexchange on the orderkey with
    a per-batch revenue combiner on the lineitem side (shuffle bytes =
    one partial row per (batch, orderkey), not one per lineitem) and a
    per-bucket top-k, so the final global sort sees <= k * num_buckets
    rows no matter the corpus size."""
    from .core import hash_coexchange

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).to_pandas()
    if len(cust) and "c_mktsegment" in cust.columns:
        keys = np.sort(
            cust.loc[cust["c_mktsegment"] == "BUILDING", "c_custkey"]
            .to_numpy(np.int64)
        )
    else:
        keys = np.empty(0, dtype=np.int64)
    keys_ref = ray.put(keys)

    _EMPTY_O = {"o_orderkey": np.int64, "o_orderdate_us": np.int64,
                "o_orderpriority": object}

    def ofilter(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderkey" not in df.columns:
            return pd.DataFrame(
                {c: pd.Series(dtype=t) for c, t in _EMPTY_O.items()}
            )
        t = ts_epoch_us(df["o_orderdate"])
        keep = (t < _Q3_CUTOFF_US) & np.isin(
            df["o_custkey"].to_numpy(np.int64), ray.get(keys_ref),
            assume_unique=False,
        )
        return pd.DataFrame(
            {"o_orderkey": df["o_orderkey"].to_numpy(np.int64)[keep],
             "o_orderdate_us": t[keep],
             "o_orderpriority": df["o_orderpriority"].to_numpy()[keep]}
        )

    ordf = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(ofilter, batch_format="pandas")

    def lpart(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_orderkey" not in df.columns:
            return pd.DataFrame({"l_orderkey": pd.Series(dtype=np.int64),
                                 "rev": pd.Series(dtype=np.float64)})
        sub = df.loc[ts_epoch_us(df["l_shipdate"]) > _Q3_CUTOFF_US]
        rev = sub["l_extendedprice"] * (1 - sub["l_discount"])
        g = rev.groupby(sub["l_orderkey"].to_numpy(np.int64)).sum()
        return pd.DataFrame({"l_orderkey": g.index.to_numpy(np.int64),
                             "rev": g.to_numpy(np.float64)})

    lip = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(lpart, batch_format="pandas")

    _OUT = ("l_orderkey", "revenue", "o_orderdate_us", "o_orderpriority")

    def join_topk(o: pd.DataFrame, l: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"l_orderkey": pd.Series(dtype=np.int64),
             "revenue": pd.Series(dtype=np.float64),
             "o_orderdate_us": pd.Series(dtype=np.int64),
             "o_orderpriority": pd.Series(dtype=object)}
        )
        if (len(o) == 0 or "o_orderkey" not in o.columns
                or len(l) == 0 or "l_orderkey" not in l.columns):
            return empty
        g = l.groupby("l_orderkey", as_index=False)["rev"].sum()
        j = g.merge(o, left_on="l_orderkey", right_on="o_orderkey")
        if len(j) == 0:
            return empty
        j["revenue"] = j["rev"].round(2)
        j = j.sort_values(["revenue", "l_orderkey"],
                          ascending=[False, True], kind="mergesort").head(k)
        return j[list(_OUT)].astype(
            {"l_orderkey": np.int64, "o_orderdate_us": np.int64}
        ).reset_index(drop=True)

    per_bucket = hash_coexchange(
        ordf, lip, "o_orderkey", "l_orderkey", join_topk, num_buckets=16
    )
    return per_bucket.sort(
        ["revenue", "l_orderkey"], descending=[True, False]
    ).limit(k)


SQL_SHIPPING_PRIORITY = f"""
SELECT CAST(l_orderkey AS BIGINT) AS l_orderkey,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue,
       CAST(epoch_us(o_orderdate) AS BIGINT) AS o_orderdate_us,
       o_orderpriority
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND epoch_us(o_orderdate) < {_Q3_CUTOFF_US}
  AND epoch_us(l_shipdate) > {_Q3_CUTOFF_US}
GROUP BY 1, 3, 4
ORDER BY revenue DESC, l_orderkey
LIMIT 10
"""


_Q5_LO_US = int(pd.Timestamp("1996-01-01").value // 1000)
_Q5_HI_US = int(pd.Timestamp("1997-01-01").value // 1000)


def local_supplier_volume(
    sf_dir: str, region: str = "ASIA"
) -> "ray.data.Dataset | pd.DataFrame":
    """TPC-H Q5 shape: revenue per nation from orders where the item's
    SUPPLIER sits in the same nation as the CUSTOMER (the "local
    supplier" join that cannot be expressed as a chain of star lookups
    — the equality crosses two different fact paths).

    The canonical mixed plan at 100 TB: region x nation (tens of rows)
    resolve on the driver; supplier (the SMALLEST big table, ~1/10th of
    customer) reduces to a suppkey -> nationkey int64 pair array and
    broadcasts via ``ray.put``; the two genuinely large joins are keyed
    coexchanges — orders x customer on custkey, then (orderkey,
    c_nationkey) x lineitem-partials on orderkey — with the lineitem
    side pre-aggregated per (orderkey, s_nationkey) inside each batch
    before shuffling.  Revenue is integer fixed-point (floor-cents x
    floor-hundredths of the discount complement), so the sum is
    order-independent and hashes exactly against the SQL twin.
    -> (n_name, revenue_x1e4)."""
    from .core import hash_coexchange

    nat = ray.data.read_parquet(f"{sf_dir}/nation.parquet").to_pandas()
    reg = ray.data.read_parquet(f"{sf_dir}/region.parquet").to_pandas()
    _OUT = {"n_name": object, "revenue_x1e4": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t) for c, t in _OUT.items()})
    if (len(reg) == 0 or "r_name" not in reg.columns
            or len(nat) == 0 or "n_regionkey" not in nat.columns):
        return empty_out
    rkeys = reg.loc[reg["r_name"] == region, "r_regionkey"].to_numpy(np.int64)
    nats = nat[nat["n_regionkey"].isin(rkeys)]
    names = dict(zip(nats["n_nationkey"].to_numpy(np.int64).tolist(),
                     nats["n_name"]))
    nset = np.sort(nats["n_nationkey"].to_numpy(np.int64))

    sup = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    if len(sup) and "s_suppkey" in sup.columns:
        sup = sup[sup["s_nationkey"].isin(nset)].sort_values("s_suppkey")
        sup_ref = ray.put((sup["s_suppkey"].to_numpy(np.int64),
                           sup["s_nationkey"].to_numpy(np.int64)))
    else:
        sup_ref = ray.put((np.empty(0, np.int64), np.empty(0, np.int64)))

    def ofilter(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderkey" not in df.columns:
            return pd.DataFrame({"o_orderkey": pd.Series(dtype=np.int64),
                                 "o_custkey": pd.Series(dtype=np.int64)})
        t = ts_epoch_us(df["o_orderdate"])
        keep = (t >= _Q5_LO_US) & (t < _Q5_HI_US)
        return pd.DataFrame(
            {"o_orderkey": df["o_orderkey"].to_numpy(np.int64)[keep],
             "o_custkey": df["o_custkey"].to_numpy(np.int64)[keep]}
        )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(ofilter, batch_format="pandas")

    def cfilter(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "c_custkey" not in df.columns:
            return pd.DataFrame({"c_custkey": pd.Series(dtype=np.int64),
                                 "c_nationkey": pd.Series(dtype=np.int64)})
        keep = df["c_nationkey"].isin(nset).to_numpy()
        return pd.DataFrame(
            {"c_custkey": df["c_custkey"].to_numpy(np.int64)[keep],
             "c_nationkey": df["c_nationkey"].to_numpy(np.int64)[keep]}
        )

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(cfilter, batch_format="pandas")

    def join_cust(o: pd.DataFrame, c: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"o_orderkey": pd.Series(dtype=np.int64),
                              "c_nationkey": pd.Series(dtype=np.int64)})
        if (len(o) == 0 or "o_custkey" not in o.columns
                or len(c) == 0 or "c_custkey" not in c.columns):
            return empty
        j = o.merge(c, left_on="o_custkey", right_on="c_custkey")
        return j[["o_orderkey", "c_nationkey"]]

    ocn = hash_coexchange(orders, cust, "o_custkey", "c_custkey", join_cust)

    def lpart(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"l_orderkey": pd.Series(dtype=np.int64),
                              "s_nationkey": pd.Series(dtype=np.int64),
                              "rev": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "l_orderkey" not in df.columns:
            return empty
        sk, sn = ray.get(sup_ref)
        if len(sk) == 0:
            return empty
        lsk = df["l_suppkey"].to_numpy(np.int64)
        pos = np.searchsorted(sk, lsk)
        pos = np.minimum(pos, len(sk) - 1)
        hit = sk[pos] == lsk
        if not hit.any():
            return empty
        price_c = np.floor(
            df["l_extendedprice"].to_numpy(np.float64)[hit] * 100.0
        ).astype(np.int64)
        disc_c = np.floor(
            (1.0 - df["l_discount"].to_numpy(np.float64)[hit]) * 100.0
        ).astype(np.int64)
        g = pd.DataFrame(
            {"l_orderkey": df["l_orderkey"].to_numpy(np.int64)[hit],
             "s_nationkey": sn[pos[hit]],
             "rev": price_c * disc_c}
        ).groupby(["l_orderkey", "s_nationkey"], as_index=False)["rev"].sum()
        g["rev"] = g["rev"].astype(np.int64)
        return g

    lip = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(lpart, batch_format="pandas")

    def join_local(o: pd.DataFrame, l: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"n_nationkey": pd.Series(dtype=np.int64),
                              "rev": pd.Series(dtype=np.int64)})
        if (len(o) == 0 or "o_orderkey" not in o.columns
                or len(l) == 0 or "l_orderkey" not in l.columns):
            return empty
        j = l.merge(o, left_on="l_orderkey", right_on="o_orderkey")
        j = j[j["s_nationkey"] == j["c_nationkey"]]
        if len(j) == 0:
            return empty
        g = j.groupby("s_nationkey", as_index=False)["rev"].sum()
        return pd.DataFrame(
            {"n_nationkey": g["s_nationkey"].to_numpy(np.int64),
             "rev": g["rev"].to_numpy(np.int64)}
        )

    parts = hash_coexchange(ocn, lip, "o_orderkey", "l_orderkey", join_local)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "n_nationkey" not in df.columns:
            return empty_out
        g = df.groupby("n_nationkey", as_index=False)["rev"].sum()
        return pd.DataFrame(
            {"n_name": g["n_nationkey"].map(names).to_numpy(object),
             "revenue_x1e4": g["rev"].to_numpy(np.int64)}
        )

    out = hash_exchange(parts, "n_nationkey", final, num_buckets=4)
    # a fully-empty exchange passes column-less blocks through, and a
    # 0-row Dataset's to_pandas() drops the schema entirely: hand back
    # the typed empty frame itself (the exchange is eager, counting is
    # cheap; pd.DataFrame is a supported queries() return type)
    if out.count() == 0:
        return empty_out
    return out


SQL_LOCAL_SUPPLIER_VOLUME = f"""
SELECT n_name,
       CAST(sum(CAST(floor(l_extendedprice * 100) AS BIGINT)
                * CAST(floor((1 - l_discount) * 100) AS BIGINT)) AS BIGINT)
         AS revenue_x1e4
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
WHERE r_name = 'ASIA'
  AND epoch_us(o_orderdate) >= {_Q5_LO_US}
  AND epoch_us(o_orderdate) < {_Q5_HI_US}
GROUP BY 1
"""


def cheapest_supplier(sf_dir: str) -> ray.data.Dataset:
    """Group-wise argmin with an ASSOCIATIVE combiner (TPC-H Q2
    min-cost-supplier flavor over the lineitem fact): per part, the
    supplier offering the lowest extended price (ties -> lowest
    suppkey).

    min-by is associative, so each batch reduces to ONE row per
    (batch, part) before the exchange — shuffle bytes are O(parts x
    batches), not O(lineitems); the final per-bucket pass re-runs the
    same argmin on the partials.  Prices are compared as the exact
    float64s read from parquet (no arithmetic before the comparison),
    so engine and SQL order identically; round() applies only to the
    output column on both sides."""

    def argmin(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_partkey" not in df.columns:
            return pd.DataFrame(
                {"l_partkey": pd.Series(dtype=np.int64),
                 "l_suppkey": pd.Series(dtype=np.int64),
                 "l_extendedprice": pd.Series(dtype=np.float64)}
            )
        return (
            df.sort_values(["l_partkey", "l_extendedprice", "l_suppkey"],
                           kind="mergesort")
            .drop_duplicates("l_partkey")
            .reset_index(drop=True)
        )

    partials = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice"],
    ).map_batches(argmin, batch_format="pandas")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = argmin(df)
        if "l_extendedprice" not in df.columns:
            return pd.DataFrame(
                {"l_partkey": pd.Series(dtype=np.int64),
                 "best_suppkey": pd.Series(dtype=np.int64),
                 "min_price": pd.Series(dtype=np.float64)}
            )
        return pd.DataFrame(
            {"l_partkey": df["l_partkey"].to_numpy(np.int64),
             "best_suppkey": df["l_suppkey"].to_numpy(np.int64),
             "min_price": df["l_extendedprice"].round(2).to_numpy()}
        )

    return hash_exchange(partials, "l_partkey", final, num_buckets=8)


SQL_CHEAPEST_SUPPLIER = """
WITH r AS (
  SELECT l_partkey, l_suppkey, l_extendedprice,
         row_number() OVER (PARTITION BY l_partkey
                            ORDER BY l_extendedprice, l_suppkey) AS rk
  FROM lineitem
)
SELECT CAST(l_partkey AS BIGINT) AS l_partkey,
       CAST(l_suppkey AS BIGINT) AS best_suppkey,
       round(l_extendedprice, 2) AS min_price
FROM r WHERE rk = 1
"""


def user_paths(sf_dir: str, num_buckets: int = 16) -> ray.data.Dataset:
    """Clickstream sequence mining: every user's full ordered
    event-type path (by ts, event_id tie-break), then the frequency of
    each distinct path — ordered string aggregation OVER a partition
    plus a second count aggregate, the pattern behind funnel discovery
    and session clustering.

    Stage 1 is ONE user-keyed exchange: a bucket lexsorts its rows once
    (user, ts, event_id) and joins each user's types in a single
    groupby-agg — no per-user Python loop beyond the join itself, and a
    user's path length is bounded by that user's event count, never the
    corpus.  Stage 2 counts paths with a per-bucket combiner feeding a
    path-keyed exchange (paths repeat across user buckets, so the
    second exchange is required for exact counts).
    -> (path, n_users)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id",
                                             "event_type"],
    )

    def paths(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame({"path": pd.Series(dtype=object)})
        df = df.assign(t=ts_epoch_us(df["ts"]))
        df = df.sort_values(["user_id", "t", "event_id"], kind="mergesort")
        p = df.groupby("user_id", sort=False)["event_type"].agg(">".join)
        return pd.DataFrame({"path": p.to_numpy(object)})

    per_user = hash_exchange(ds, "user_id", paths, num_buckets)

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "path" not in df.columns:
            return pd.DataFrame({"path": pd.Series(dtype=object),
                                 "n_users": pd.Series(dtype=np.int64)})
        vc = df["path"].value_counts()
        return pd.DataFrame({"path": vc.index.to_numpy(object),
                             "n_users": vc.to_numpy(np.int64)})

    def count_final(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "path" not in df.columns:
            return pd.DataFrame({"path": pd.Series(dtype=object),
                                 "n_users": pd.Series(dtype=np.int64)})
        g = df.groupby("path", sort=False, as_index=False)["n_users"].sum()
        g["n_users"] = g["n_users"].astype(np.int64)
        return g

    return hash_exchange(
        per_user.map_batches(count_partial, batch_format="pandas"),
        "path", count_final, num_buckets,
    )


SQL_USER_PATHS = """
WITH p AS (
  SELECT user_id,
         string_agg(event_type, '>' ORDER BY ts, event_id) AS path
  FROM events GROUP BY 1
)
SELECT path, CAST(count(*) AS BIGINT) AS n_users
FROM p GROUP BY 1
"""


def events_resample(
    sf_dir: str, window_s: int = 3600, num_buckets: int = 8
) -> pd.DataFrame:
    """Gap-filled time-series resampling: (event_type, window_start) ->
    count + rounded value sum over EVERY window in the global
    [min, max] span, zero rows materialized for silent windows — the
    resample/asfreq pattern behind rate dashboards and anomaly
    detection, which a plain GROUP BY cannot express (missing windows
    simply don't exist in the input).

    Shape: per-batch combiner (O(types x windows) rows per batch, never
    O(rows)) -> ONE event_type-keyed exchange for exact per-(type,
    window) sums -> the driver densifies the grid.  Driver residency is
    the OUTPUT (types x span windows) — bounded by calendar time x type
    cardinality, independent of corpus size, which is exactly the
    asymmetry a resample wants at 100 TB (a year of hourly windows x
    1k types is ~9M rows)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "ts" not in df.columns:
            return pd.DataFrame(
                {"event_type": pd.Series(dtype=object),
                 "window_start": pd.Series(dtype=np.int64),
                 "n": pd.Series(dtype=np.int64),
                 "sum_value": pd.Series(dtype=np.float64)}
            )
        win = (ts_epoch_us(df["ts"]) // 1_000_000 // window_s) * window_s
        g = (
            df.assign(window_start=win)
            .groupby(["event_type", "window_start"], sort=False)
            .agg(n=("value", "size"), sum_value=("value", "sum"))
            .reset_index()
        )
        return g.astype({"window_start": np.int64, "n": np.int64})

    partials = ds.map_batches(partial, batch_format="pandas")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "event_type" not in df.columns:
            return partial(pd.DataFrame())
        g = df.groupby(["event_type", "window_start"], sort=False).agg(
            n=("n", "sum"), sum_value=("sum_value", "sum")
        ).reset_index()
        return g.astype({"window_start": np.int64, "n": np.int64})

    # exact per-(type, window) aggregates: a (type, window) pair lives
    # entirely in its type's bucket, so no further merge is needed
    agg = hash_exchange(partials, "event_type", final,
                                 num_buckets).to_pandas()
    if agg.empty or "window_start" not in agg.columns:
        return partial(pd.DataFrame())
    lo = int(agg["window_start"].min())
    hi = int(agg["window_start"].max())
    grid_w = np.arange(lo, hi + 1, window_s, dtype=np.int64)
    types = np.sort(agg["event_type"].unique())
    grid = pd.MultiIndex.from_product(
        [types, grid_w], names=["event_type", "window_start"]
    )
    dense = (
        agg.set_index(["event_type", "window_start"])
        .reindex(grid)
        .fillna({"n": 0, "sum_value": 0.0})
        .reset_index()
    )
    dense["n"] = dense["n"].astype(np.int64)
    dense["sum_value"] = dense["sum_value"].round(2)
    return dense


SQL_EVENTS_RESAMPLE = """
WITH b AS (
  SELECT event_type,
         CAST(floor(epoch(ts) / 3600) AS BIGINT) * 3600 AS w, value
  FROM events
),
span AS (SELECT min(w) AS lo, max(w) AS hi FROM b),
grid AS (
  SELECT t.event_type, g.w
  FROM (SELECT DISTINCT event_type FROM b) t
  CROSS JOIN (
    SELECT unnest(generate_series((SELECT lo FROM span),
                                  (SELECT hi FROM span), 3600)) AS w
  ) g
),
agg AS (
  SELECT event_type, w, count(*) AS n, sum(value) AS sv
  FROM b GROUP BY 1, 2
)
SELECT grid.event_type, grid.w AS window_start,
       CAST(coalesce(agg.n, 0) AS BIGINT) AS n,
       round(coalesce(agg.sv, 0.0), 2) AS sum_value
FROM grid LEFT JOIN agg ON grid.event_type = agg.event_type
                       AND grid.w = agg.w
"""


def users_setop(
    sf_dir: str, threshold: float = 90.0, num_buckets: int = 8
) -> ray.data.Dataset:
    """Distributed set algebra over two derived user sets — A = users
    with a purchase over ``threshold``, B = users with an error over
    ``threshold`` — classifying every member of A ∪ B as ``both``
    (INTERSECT), ``a_only`` (A EXCEPT B) or ``b_only`` (B EXCEPT A) in
    one pass.  The general INTERSECT/EXCEPT plan: per-batch DISTINCT
    (user, membership-bit) pairs are the combiner (shuffle bytes are
    O(distinct members), never O(rows)); one user-keyed exchange ORs
    the bits per user; the label is a pure function of the OR.  A
    full-outer-join-of-distincts in SQL, but shuffle-free on the fact
    scan side here."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "value"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                                 "bit": pd.Series(dtype=np.int64)})
        v = df["value"].to_numpy()
        uid = df["user_id"].to_numpy(np.int64)
        et = df["event_type"].to_numpy(object)
        out = []
        for bit, typ in ((1, "purchase"), (2, "error")):
            m = (et == typ) & (v > threshold)
            if m.any():
                out.append(pd.DataFrame(
                    {"user_id": np.unique(uid[m]),
                     "bit": np.int64(bit)}
                ))
        if not out:
            return pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                                 "bit": pd.Series(dtype=np.int64)})
        return pd.concat(out, ignore_index=True)

    partials = ds.map_batches(partial, batch_format="pandas")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                                 "setop": pd.Series(dtype=object)})
        # bits are distinct powers of two, so sum-of-deduped == bitwise OR
        # (keeps the reduction a vectorized groupby-sum, no per-group lambda)
        d = df.drop_duplicates(["user_id", "bit"])
        g = d.groupby("user_id", sort=False)["bit"].sum()
        lab = np.array(["", "a_only", "b_only", "both"], dtype=object)
        return pd.DataFrame(
            {"user_id": g.index.to_numpy(np.int64),
             "setop": lab[g.to_numpy(np.int64)]}
        )

    return hash_exchange(partials, "user_id", final, num_buckets)


SQL_USERS_SETOP = """
WITH a AS (
  SELECT DISTINCT user_id FROM events
  WHERE event_type = 'purchase' AND value > 90
),
b AS (
  SELECT DISTINCT user_id FROM events
  WHERE event_type = 'error' AND value > 90
)
SELECT CAST(coalesce(a.user_id, b.user_id) AS BIGINT) AS user_id,
       CASE WHEN a.user_id IS NOT NULL AND b.user_id IS NOT NULL
              THEN 'both'
            WHEN a.user_id IS NOT NULL THEN 'a_only'
            ELSE 'b_only' END AS setop
FROM a FULL OUTER JOIN b ON a.user_id = b.user_id
"""


def zorder_layout(
    sf_dir: str, shift: int = 16, num_buckets: int = 8
) -> ray.data.Dataset:
    """Z-order (Morton) layout keys over (o_custkey, o_orderdate-day)
    with per-partition locality stats — the multidimensional clustering
    primitive behind Delta/Iceberg OPTIMIZE ZORDER: interleaving the
    bits of two coordinates gives ONE sort/partition key under which a
    range predicate on EITHER dimension prunes most partitions, which
    is exactly what a 100 TB fact table wants from its file layout.

    The key is pure per-row arithmetic (16 vectorized shift/mask steps,
    bit-identical to the unrolled SQL twin), so assignment is map-only;
    the partition profile (count + min/max of both dims per
    ``zkey >> shift`` range) is a per-batch combiner merged on one
    keyed exchange — the output is O(partitions), and its min/max
    spans ARE the pruning index a reader would consult.
    -> (part_id, n, min_cust, max_cust, min_day, max_day)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    )

    _EMPTY = {c: np.int64 for c in
              ["part_id", "n", "min_cust", "max_cust", "min_day", "max_day"]}

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_custkey" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _EMPTY.items()})
        cust = df["o_custkey"].to_numpy(np.int64)
        day = ts_epoch_us(df["o_orderdate"]) // 1_000_000 // 86_400
        x = cust % 65536
        y = day % 65536
        z = np.zeros(len(df), dtype=np.int64)
        for b in range(16):
            z |= ((x >> b) & 1) << (2 * b)
            z |= ((y >> b) & 1) << (2 * b + 1)
        g = (
            pd.DataFrame({"part_id": z >> shift, "cust": cust, "day": day})
            .groupby("part_id", sort=False)
            .agg(n=("cust", "size"), min_cust=("cust", "min"),
                 max_cust=("cust", "max"), min_day=("day", "min"),
                 max_day=("day", "max"))
            .reset_index()
        )
        return g.astype(_EMPTY)

    partials = ds.map_batches(partial, batch_format="pandas")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "part_id" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _EMPTY.items()})
        g = df.groupby("part_id", as_index=False).agg(
            n=("n", "sum"), min_cust=("min_cust", "min"),
            max_cust=("max_cust", "max"), min_day=("min_day", "min"),
            max_day=("max_day", "max")
        )
        return g.astype(_EMPTY)

    return hash_exchange(partials, "part_id", merge, num_buckets)


def purchase_attribution(
    sf_dir: str, num_buckets: int = 16
) -> ray.data.Dataset:
    """Last-touch attribution: for every purchase, the timestamp of the
    user's most recent PRECEDING touch event (click/view) — the
    marketing-attribution join, a running max over a user's ordered
    stream rather than an equi-join.

    One user-keyed exchange; inside a bucket the rows are lexsorted
    once by (user, ts, event_id) and the attribution is a shifted
    segment-wise cummax (pure numpy, no per-user loop).  Semantics are
    the window frame ROWS UNBOUNDED PRECEDING..1 PRECEDING in that
    exact order on BOTH sides, so equal-timestamp ties resolve
    identically to the SQL twin.  -> (event_id, attr_ts_us; -1 = no
    preceding touch)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )

    def attribute(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame({"event_id": pd.Series(dtype=np.int64),
                                 "attr_ts_us": pd.Series(dtype=np.int64)})
        t = ts_epoch_us(df["ts"])
        eid = df["event_id"].to_numpy(np.int64)
        uid = df["user_id"].to_numpy(np.int64)
        et = df["event_type"].to_numpy(object)
        order = np.lexsort((eid, t, uid))
        uid, eid, t, et = uid[order], eid[order], t[order], et[order]
        touch = np.where(
            (et == "click") | (et == "view"), t, np.int64(-1)
        ).astype(np.int64)
        # shift by 1 (strictly preceding rows), reset at user boundaries
        prev = np.empty_like(touch)
        prev[0] = -1
        prev[1:] = touch[:-1]
        new_user = np.empty(len(uid), dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        prev[new_user] = -1
        # per-user running max of preceding touch timestamps (-1 = none;
        # it compares below every real ts, so it IS the identity)
        run = (
            pd.Series(prev).groupby(pd.Series(uid)).cummax()
            .to_numpy(np.int64)
        )
        keep = et == "purchase"
        return pd.DataFrame(
            {"event_id": eid[keep], "attr_ts_us": run[keep]}
        )

    return hash_exchange(ds, "user_id", attribute, num_buckets)


def rfm_segments(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """RFM customer segmentation — the classic marketing composite:
    per customer Recency (last order day), Frequency (order count) and
    Monetary (total cents), each cut into terciles at the EXACT global
    1/3 and 2/3 order statistics (``quantile_disc`` convention), and
    customers rolled up per 3-digit segment label ('111'..'333').

    Thresholding by ORDER-STATISTIC VALUES (not NTILE row counts)
    makes tied customers land deterministically on both engines — a
    row-count NTILE would depend on sort tie-breaks.  Shape: per-batch
    combiner -> one custkey exchange for exact per-user aggregates ->
    three distributed quantile selections over the user table (six
    driver scalars) -> broadcast bucket assignment with a per-batch
    segment combiner (27 segments max on the driver).
    -> (segment, n_users, total_m_cents)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_totalprice"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_custkey" not in df.columns:
            return pd.DataFrame({"o_custkey": pd.Series(dtype=np.int64),
                                 "r": pd.Series(dtype=np.int64),
                                 "f": pd.Series(dtype=np.int64),
                                 "m": pd.Series(dtype=np.int64)})
        day = ts_epoch_us(df["o_orderdate"]) // 1_000_000 // 86_400
        p = df["o_totalprice"].to_numpy(np.float64)
        cents = np.floor(p * 100 + 0.5).astype(np.int64)
        g = (
            pd.DataFrame({"o_custkey": df["o_custkey"].to_numpy(np.int64),
                          "r": day, "m": cents})
            .groupby("o_custkey", sort=False)
            .agg(r=("r", "max"), f=("r", "size"), m=("m", "sum"))
            .reset_index()
        )
        return g.astype({c: np.int64 for c in ["r", "f", "m"]})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_custkey" not in df.columns:
            return partial(pd.DataFrame())
        g = df.groupby("o_custkey", as_index=False).agg(
            r=("r", "max"), f=("f", "sum"), m=("m", "sum")
        )
        return g.astype({c: np.int64 for c in ["r", "f", "m"]})

    users = hash_exchange(
        ds.map_batches(partial, batch_format="pandas"),
        "o_custkey", merge, num_buckets,
    )
    _empty = pd.DataFrame(
        {"segment": pd.Series(dtype=object),
         "n_users": pd.Series(dtype=np.int64),
         "total_m_cents": pd.Series(dtype=np.int64)}
    )
    from .analytics import exact_quantiles

    cuts = {}
    for col in ["r", "f", "m"]:
        try:
            q = exact_quantiles(users, col, [1 / 3, 2 / 3])
        except ValueError:  # empty column: no users at all
            return _empty
        if q.empty:
            return _empty
        cuts[col] = (int(q["value"].iloc[0]), int(q["value"].iloc[1]))
    cuts_ref = ray.put(cuts)

    class Assign:
        def __init__(self):
            self.cuts = ray.get(cuts_ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0 or "r" not in df.columns:
                return pd.DataFrame({"segment": pd.Series(dtype=object),
                                     "n_users": pd.Series(dtype=np.int64),
                                     "total_m_cents": pd.Series(dtype=np.int64)})
            seg = np.full(len(df), "", dtype=object)
            for col in ["r", "f", "m"]:
                v = df[col].to_numpy(np.int64)
                q1, q2 = self.cuts[col]
                b = 1 + (v > q1).astype(np.int64) + (v > q2).astype(np.int64)
                seg = np.char.add(seg.astype(str), b.astype(str)).astype(object)
            g = (
                pd.DataFrame({"segment": seg,
                              "m": df["m"].to_numpy(np.int64)})
                .groupby("segment", sort=False)
                .agg(n_users=("m", "size"), total_m_cents=("m", "sum"))
                .reset_index()
            )
            return g.astype({"n_users": np.int64, "total_m_cents": np.int64})

    parts = users.map_batches(
        Assign, batch_format="pandas", concurrency=2
    ).to_pandas()
    if parts.empty or "segment" not in parts.columns:
        return _empty
    out = parts.groupby("segment", sort=True, as_index=False).agg(
        n_users=("n_users", "sum"), total_m_cents=("total_m_cents", "sum")
    )
    return out.astype({"n_users": np.int64, "total_m_cents": np.int64})


SQL_RFM_SEGMENTS = """
WITH u AS (
  SELECT o_custkey,
         max(CAST(floor(epoch(o_orderdate) / 86400) AS BIGINT)) AS r,
         CAST(count(*) AS BIGINT) AS f,
         sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS m
  FROM orders GROUP BY 1
),
q AS (
  SELECT quantile_disc(r, [1.0/3, 2.0/3]) AS qr,
         quantile_disc(f, [1.0/3, 2.0/3]) AS qf,
         quantile_disc(m, [1.0/3, 2.0/3]) AS qm
  FROM u
)
SELECT
  CAST(1 + CAST(r > qr[1] AS INT) + CAST(r > qr[2] AS INT) AS VARCHAR) ||
  CAST(1 + CAST(f > qf[1] AS INT) + CAST(f > qf[2] AS INT) AS VARCHAR) ||
  CAST(1 + CAST(m > qm[1] AS INT) + CAST(m > qm[2] AS INT) AS VARCHAR)
    AS segment,
  CAST(count(*) AS BIGINT) AS n_users,
  CAST(sum(m) AS BIGINT) AS total_m_cents
FROM u, q GROUP BY 1
"""


def events_rate_alert(
    sf_dir: str, window_s: int = 3600, trail: int = 6, num_buckets: int = 8
) -> ray.data.Dataset:
    """Streaming rate-spike detection: (event_type, window) pairs whose
    count exceeds 2x the average of the previous ``trail`` PRESENT
    windows — the anomaly-alert pattern over a windowed stream.  The
    threshold is the cross-multiplied integer comparison
    ``n * trail > 2 * trailing_sum`` (no float average, no boundary
    flips), and the frame is ROWS (previous present windows), applied
    identically in the SQL twin; windows with fewer than ``trail``
    predecessors never alert.

    Per-batch (type, window) count combiner -> ONE type-keyed exchange;
    in-bucket the trailing sum is a vectorized cumsum difference over
    the type's sorted window series (each type's full series lives in
    one bucket — window counts per type are bounded by calendar time,
    the same asymmetry events_resample exploits).
    -> (event_type, window_start, n, trail_sum)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "ts" not in df.columns:
            return pd.DataFrame({"event_type": pd.Series(dtype=object),
                                 "window_start": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64)})
        win = (ts_epoch_us(df["ts"]) // 1_000_000 // window_s) * window_s
        g = (
            df.assign(window_start=win)
            .groupby(["event_type", "window_start"], sort=False)
            .size().rename("n").reset_index()
        )
        return g.astype({"window_start": np.int64, "n": np.int64})

    partials = ds.map_batches(partial, batch_format="pandas")

    def alerts(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "window_start": pd.Series(dtype=np.int64),
             "n": pd.Series(dtype=np.int64),
             "trail_sum": pd.Series(dtype=np.int64)}
        )
        if len(df) == 0 or "event_type" not in df.columns:
            return empty
        g = df.groupby(["event_type", "window_start"], sort=False)[
            "n"
        ].sum().reset_index()
        g = g.sort_values(["event_type", "window_start"],
                          kind="mergesort", ignore_index=True)
        et = g["event_type"].to_numpy(object)
        n = g["n"].to_numpy(np.int64)
        cs = np.concatenate([[0], np.cumsum(n)])
        idx = np.arange(len(g))
        # start index of each type's run
        new_t = np.ones(len(g), dtype=bool)
        new_t[1:] = et[1:] != et[:-1]
        run_start = np.maximum.accumulate(np.where(new_t, idx, 0))
        lo = np.maximum(idx - trail, run_start)
        trail_sum = cs[idx] - cs[lo]
        full = (idx - run_start) >= trail
        alert = full & (n * trail > 2 * trail_sum)
        out = g[alert].copy()
        out["trail_sum"] = trail_sum[alert]
        return out.astype({"window_start": np.int64, "n": np.int64,
                           "trail_sum": np.int64})

    out = hash_exchange(
        partials, "event_type", alerts, num_buckets
    ).to_pandas()
    # alerts are rare by construction (the output is the exception
    # stream, not the data), so a driver collect is O(alerts); an
    # all-empty exchange yields a COLUMN-LESS frame — restore the shape
    if out.empty and "event_type" not in out.columns:
        return pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "window_start": pd.Series(dtype=np.int64),
             "n": pd.Series(dtype=np.int64),
             "trail_sum": pd.Series(dtype=np.int64)}
        )
    return out


SQL_EVENTS_RATE_ALERT = """
WITH c AS (
  SELECT event_type,
         CAST(floor(epoch(ts) / 3600) AS BIGINT) * 3600 AS window_start,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
),
w AS (
  SELECT event_type, window_start, n,
         sum(n) OVER (PARTITION BY event_type ORDER BY window_start
                      ROWS BETWEEN 6 PRECEDING AND 1 PRECEDING)
           AS trail_sum,
         count(*) OVER (PARTITION BY event_type ORDER BY window_start
                        ROWS BETWEEN 6 PRECEDING AND 1 PRECEDING)
           AS n_prev
  FROM c
)
SELECT event_type, window_start, n, CAST(trail_sum AS BIGINT) AS trail_sum
FROM w WHERE n_prev = 6 AND n * 6 > 2 * trail_sum
"""


def user_streaks(sf_dir: str, num_buckets: int = 16) -> ray.data.Dataset:
    """Gaps-and-islands: each user's LONGEST run of consecutive active
    days — the classic islands analytic (day minus dense rank = island
    id) that needs ordered per-key state, not a plain aggregate.

    Per-batch DISTINCT (user, day) pairs are the combiner (shuffle
    bytes O(active user-days), never O(events)); one user-keyed
    exchange; in-bucket the islands fall out of one lexsort + two
    vectorized diffs (run starts where the user changes or the day gap
    isn't 1), no per-user loop.  -> (user_id, longest_streak)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def days(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                                 "day": pd.Series(dtype=np.int64)})
        d = ts_epoch_us(df["ts"]) // 1_000_000 // 86_400
        return pd.DataFrame(
            {"user_id": df["user_id"].to_numpy(np.int64), "day": d}
        ).drop_duplicates(ignore_index=True)

    pairs = ds.map_batches(days, batch_format="pandas")

    def streaks(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame(
                {"user_id": pd.Series(dtype=np.int64),
                 "longest_streak": pd.Series(dtype=np.int64)}
            )
        df = df.drop_duplicates(["user_id", "day"])
        uid = df["user_id"].to_numpy(np.int64)
        day = df["day"].to_numpy(np.int64)
        order = np.lexsort((day, uid))
        uid, day = uid[order], day[order]
        new_run = np.ones(len(uid), dtype=bool)
        new_run[1:] = (uid[1:] != uid[:-1]) | (day[1:] != day[:-1] + 1)
        run_id = np.cumsum(new_run) - 1
        run_len = np.bincount(run_id)
        per_run_user = uid[new_run]
        out = (
            pd.DataFrame({"user_id": per_run_user, "len": run_len})
            .groupby("user_id", as_index=False)["len"].max()
            .rename(columns={"len": "longest_streak"})
        )
        return out.astype({"user_id": np.int64, "longest_streak": np.int64})

    return hash_exchange(pairs, "user_id", streaks, num_buckets)


SQL_USER_STREAKS = """
WITH d AS (
  SELECT DISTINCT user_id,
         CAST(floor(epoch(ts) / 86400) AS BIGINT) AS day
  FROM events
),
r AS (
  SELECT user_id, day,
         day - row_number() OVER (PARTITION BY user_id ORDER BY day) AS isl
  FROM d
),
l AS (SELECT user_id, count(*) AS len FROM r GROUP BY user_id, isl)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(max(len) AS BIGINT) AS longest_streak
FROM l GROUP BY 1
"""


def user_active_time(
    sf_dir: str, window_s: int = 300, num_buckets: int = 16
) -> ray.data.Dataset:
    """Interval-union sweep: each event opens a [ts, ts+window) activity
    interval; report each user's TOTAL covered time in microseconds —
    the classic sweep-line union-of-intervals analytic (distinct from
    sessionize's gap-splitting and user_streaks' day islands: intervals
    OVERLAP and the union length must not double-count).

    For fixed-width intervals the union telescopes: with per-user
    sorted timestamps, covered = sum(min(t[i+1]-t[i], W)) + W for the
    last event.  Duplicate timestamps contribute min(0, W) = 0, so the
    per-batch DISTINCT (user, t) combiner is exact and shuffle bytes
    are O(distinct user-timestamps).  One user-keyed exchange; in-bucket
    one lexsort + one clipped diff, no per-user loop.
    -> (user_id, active_us)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    w_us = np.int64(window_s) * np.int64(1_000_000)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                                 "t": pd.Series(dtype=np.int64)})
        return pd.DataFrame(
            {"user_id": df["user_id"].to_numpy(np.int64),
             "t": ts_epoch_us(df["ts"])}
        ).drop_duplicates(ignore_index=True)

    pairs = ds.map_batches(partial, batch_format="pandas")

    def union_len(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame(
                {"user_id": pd.Series(dtype=np.int64),
                 "active_us": pd.Series(dtype=np.int64)}
            )
        df = df.drop_duplicates(["user_id", "t"])
        uid = df["user_id"].to_numpy(np.int64)
        t = df["t"].to_numpy(np.int64)
        order = np.lexsort((t, uid))
        uid, t = uid[order], t[order]
        n = len(t)
        cover = np.full(n, w_us, dtype=np.int64)  # run-last keeps W
        if n > 1:
            same = uid[1:] == uid[:-1]
            cover[:-1][same] = np.minimum(t[1:][same] - t[:-1][same], w_us)
        out = (
            pd.DataFrame({"user_id": uid, "c": cover})
            .groupby("user_id", as_index=False)["c"].sum()
            .rename(columns={"c": "active_us"})
        )
        return out.astype({"user_id": np.int64, "active_us": np.int64})

    return hash_exchange(pairs, "user_id", union_len, num_buckets)


def events_late_arrivals(
    sf_dir: str, num_buckets: int = 16
) -> ray.data.Dataset:
    """Out-of-order ingest QA (the watermark / late-data profile every
    streaming pipeline needs before picking a watermark delay): treat
    ``event_id`` as arrival order; an event is LATE if its timestamp is
    older than the running max timestamp of the user's earlier-arrived
    events.  Per user: events, late events, and the worst backwards
    skew in microseconds.

    One user-keyed exchange; in-bucket one lexsort by (event_id) within
    user runs + one ``np.maximum.accumulate`` running max — the
    order-sensitive stateful scan that a plain aggregate can't express.
    -> (user_id, n_events, n_late, max_skew_us)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )

    _OUT = {"user_id": np.int64, "n_events": np.int64,
            "n_late": np.int64, "max_skew_us": np.int64}

    def late(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _OUT.items()})
        uid = df["user_id"].to_numpy(np.int64)
        eid = df["event_id"].to_numpy(np.int64)
        t = ts_epoch_us(df["ts"])
        order = np.lexsort((eid, uid))
        uid, t = uid[order], t[order]
        n = len(t)
        # running max within user runs: offset each run onto a disjoint
        # value band so one global accumulate never crosses users
        new = np.concatenate([[True], uid[1:] != uid[:-1]])
        run_id = np.cumsum(new) - 1
        span = np.int64(int(t.max()) - int(t.min()) + 1) if n else np.int64(1)
        if n and int(run_id[-1]) * int(span) >= (1 << 62):
            raise OverflowError(
                "events_late_arrivals: run count x time span exceeds the "
                "int64 virtual axis; shrink buckets"
            )
        virt = t - int(t.min()) + run_id * span if n else t
        runmax = np.maximum.accumulate(virt)
        # prior max BEFORE each event (first of a run has no prior)
        prior = np.concatenate([[np.int64(0)], runmax[:-1]])
        skew = np.where(new, 0, prior - virt)   # >0 means late
        g = pd.DataFrame(
            {"user_id": uid, "late": (skew > 0).astype(np.int64),
             "skew": np.maximum(skew, 0)}
        ).groupby("user_id", as_index=False).agg(
            n_events=("late", "size"), n_late=("late", "sum"),
            max_skew_us=("skew", "max"),
        )
        return g.astype(_OUT)

    return hash_exchange(ds, "user_id", late, num_buckets)


SQL_EVENTS_LATE_ARRIVALS = """
WITH s AS (
  SELECT user_id, epoch_us(ts) AS t,
         max(epoch_us(ts)) OVER (
           PARTITION BY user_id ORDER BY event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
         ) AS prior_max
  FROM events
)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CASE WHEN prior_max > t THEN 1 ELSE 0 END) AS BIGINT)
         AS n_late,
       CAST(COALESCE(max(CASE WHEN prior_max > t THEN prior_max - t
                              ELSE 0 END), 0) AS BIGINT) AS max_skew_us
FROM s GROUP BY 1
"""


SQL_USER_ACTIVE_TIME = """
WITH e AS (
  SELECT DISTINCT user_id, epoch_us(ts) AS t FROM events
),
s AS (
  SELECT user_id, t,
         lead(t) OVER (PARTITION BY user_id ORDER BY t) AS nxt
  FROM e
)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(sum(CASE WHEN nxt IS NULL THEN 300000000
                     ELSE least(nxt - t, 300000000) END) AS BIGINT)
         AS active_us
FROM s GROUP BY 1
"""


def price_outliers(sf_dir: str) -> pd.DataFrame:
    """Integer-exact statistical outlier detection: lineitems whose
    price sits more than 1.7 standard deviations from their
    l_returnflag group mean, WITHOUT any float in the test — with
    diff = x*n - S and V = n*SSQ - S^2 (x in cents), ``|z| > t`` is the
    pure-integer comparison ``(10*diff)^2 > 289*V``, evaluated as
    ``|10*diff| > isqrt(289*V)`` (exact: a > isqrt(m) <=> a^2 > m for
    nonneg ints), so a boundary row can never flip between engines.

    Shape: the group key has cardinality 3, so an exchange would be a
    skew disaster at 100 TB — instead TWO map-only passes: a per-batch
    (n, S, SSQ) combiner merged to exact python-int group stats on the
    driver (3 rows), then a broadcast filter whose per-batch outlier
    aggregates merge the same way.  Per-batch SSQ uses int64 np.dot
    under a checked bound and falls back to object-int summation past
    it.  -> (l_returnflag, n_outliers, min_out_cents, max_out_cents);
    groups with no outlier emit no row (the twin's WHERE+GROUP BY
    shape)."""
    import math as _math

    def _cents(df: pd.DataFrame) -> tuple:
        x = np.floor(
            df["l_extendedprice"].to_numpy(np.float64) * 100 + 0.5
        ).astype(np.int64)
        return df["l_returnflag"].to_numpy(object), x

    def _ssq(x: np.ndarray) -> int:
        mx = int(np.abs(x).max(initial=0))
        if mx and len(x) * mx * mx < (1 << 63):
            return int(np.dot(x, x))
        return int(sum(int(v) * int(v) for v in x))

    def stats_partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_returnflag" not in df.columns:
            return pd.DataFrame({"f": pd.Series(dtype=object),
                                 "n": pd.Series(dtype=np.int64),
                                 "s": pd.Series(dtype=object),
                                 "ssq": pd.Series(dtype=object)})
        f, x = _cents(df)
        rows = []
        for flag in np.unique(f):
            xi = x[f == flag]
            rows.append((flag, len(xi), str(int(xi.sum())), str(_ssq(xi))))
        return pd.DataFrame(rows, columns=["f", "n", "s", "ssq"]).astype(
            {"n": np.int64}
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice"],
    )
    parts = ds.map_batches(stats_partial, batch_format="pandas").to_pandas()
    _empty = pd.DataFrame(
        {"l_returnflag": pd.Series(dtype=object),
         "n_outliers": pd.Series(dtype=np.int64),
         "min_out_cents": pd.Series(dtype=np.int64),
         "max_out_cents": pd.Series(dtype=np.int64)}
    )
    if parts.empty or "f" not in parts.columns:
        return _empty
    # exact python-int merge: S/SSQ travel as decimal strings so the
    # partial frame never forces them through int64
    stats = {}
    for _, r in parts.iterrows():
        n0, s0, q0 = stats.get(r["f"], (0, 0, 0))
        stats[r["f"]] = (n0 + int(r["n"]), s0 + int(r["s"]), q0 + int(r["ssq"]))
    thresh = {
        flag: (n, s, _math.isqrt(289 * (n * q - s * s)))
        for flag, (n, s, q) in stats.items()
    }
    thresh_ref = ray.put(thresh)

    class OutlierAgg:
        def __init__(self):
            self.t = ray.get(thresh_ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0 or "l_returnflag" not in df.columns:
                return pd.DataFrame(
                    {"f": pd.Series(dtype=object),
                     "k": pd.Series(dtype=np.int64),
                     "lo": pd.Series(dtype=np.int64),
                     "hi": pd.Series(dtype=np.int64)}
                )
            f, x = _cents(df)
            rows = []
            for flag, (n, s, rt) in self.t.items():
                xi = x[f == flag]
                if not len(xi):
                    continue
                diff10 = np.abs(xi * n - s) * 10
                m = diff10 > rt
                if m.any():
                    sel = xi[m]
                    rows.append((flag, int(m.sum()), int(sel.min()),
                                 int(sel.max())))
            return pd.DataFrame(rows, columns=["f", "k", "lo", "hi"]).astype(
                {"k": np.int64, "lo": np.int64, "hi": np.int64}
            )

    outs = ds.map_batches(
        OutlierAgg, batch_format="pandas", concurrency=2
    ).to_pandas()
    if outs.empty or "f" not in outs.columns:
        return _empty
    g = outs.groupby("f", sort=True).agg(
        n_outliers=("k", "sum"), min_out_cents=("lo", "min"),
        max_out_cents=("hi", "max")
    ).reset_index().rename(columns={"f": "l_returnflag"})
    return g.astype({"n_outliers": np.int64, "min_out_cents": np.int64,
                     "max_out_cents": np.int64})


SQL_PRICE_OUTLIERS = """
WITH c AS (
  SELECT l_returnflag AS f,
         CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS x
  FROM lineitem
),
s AS (
  SELECT f, count(*) AS n, sum(CAST(x AS HUGEINT)) AS sm,
         sum(CAST(x AS HUGEINT) * x) AS ssq
  FROM c GROUP BY 1
)
SELECT f AS l_returnflag, CAST(count(*) AS BIGINT) AS n_outliers,
       CAST(min(x) AS BIGINT) AS min_out_cents,
       CAST(max(x) AS BIGINT) AS max_out_cents
FROM c JOIN s USING (f)
WHERE 100 * (CAST(x AS HUGEINT) * n - sm) * (CAST(x AS HUGEINT) * n - sm)
      > 289 * (n * ssq - sm * sm)
GROUP BY 1
"""


def sales_opportunity(
    sf_dir: str, nations=(0, 1, 2, 3, 4, 5, 6), num_buckets: int = 8
) -> pd.DataFrame:
    """TPC-H Q22 shape — global-aggregate threshold + anti-join
    composition: customers in a nation cohort whose balance exceeds the
    cohort's positive-balance average AND who have no orders, rolled up
    per nation.

    The above-average filter is INTEGER-EXACT: with S = sum of positive
    cents and n their count, ``bal > S/n`` is evaluated as
    ``bal_cents * n > S`` (no float division on either side — the twin
    uses the same cross-multiplied BIGINT comparison, so boundary
    customers cannot flip).  S and n come from one per-batch combiner
    pass (two driver scalars); the anti-join is a custkey coexchange
    against per-batch-DISTINCT order custkeys (shuffle bytes O(distinct
    buyers), never O(orders)); the per-nation rollup merges
    bucket-level partials on the driver (<= buckets x nations rows).
    -> (c_nationkey, n_cust, total_bal_cents)."""
    nation_set = np.asarray(sorted(nations), dtype=np.int64)

    def cents(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "c_custkey" not in df.columns:
            return pd.DataFrame(
                {"c_custkey": pd.Series(dtype=np.int64),
                 "c_nationkey": pd.Series(dtype=np.int64),
                 "bc": pd.Series(dtype=np.int64)}
            )
        df = df[np.isin(df["c_nationkey"].to_numpy(np.int64), nation_set)]
        b = df["c_acctbal"].to_numpy(np.float64)
        return pd.DataFrame(
            {"c_custkey": df["c_custkey"].to_numpy(np.int64),
             "c_nationkey": df["c_nationkey"].to_numpy(np.int64),
             "bc": np.floor(b * 100 + 0.5).astype(np.int64)}
        )

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_acctbal"],
    ).map_batches(cents, batch_format="pandas")

    def pos_partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "bc" not in df.columns:
            return pd.DataFrame({"s": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64)})
        p = df["bc"].to_numpy(np.int64)
        p = p[p > 0]
        return pd.DataFrame({"s": np.asarray([p.sum()], np.int64),
                             "n": np.asarray([len(p)], np.int64)})

    pos = cust.map_batches(pos_partial, batch_format="pandas").to_pandas()
    _empty = pd.DataFrame(
        {"c_nationkey": pd.Series(dtype=np.int64),
         "n_cust": pd.Series(dtype=np.int64),
         "total_bal_cents": pd.Series(dtype=np.int64)}
    )
    if pos.empty or "s" not in pos.columns or int(pos["n"].sum()) == 0:
        return _empty
    s_tot, n_tot = int(pos["s"].sum()), int(pos["n"].sum())

    def eligible(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "bc" not in df.columns:
            return df
        return df[df["bc"].to_numpy(np.int64) * n_tot > s_tot]

    elig = cust.map_batches(eligible, batch_format="pandas")

    cutoff_us = 946_684_800_000_000  # 2000-01-01

    def buyers(df: pd.DataFrame) -> pd.DataFrame:
        # "recent urgent buyers": the anti-join side carries a predicate
        # (priority + date) so the cohort is the lapsed customers
        if len(df) == 0 or "o_custkey" not in df.columns:
            return pd.DataFrame({"o_custkey": pd.Series(dtype=np.int64)})
        m = (df["o_orderpriority"].to_numpy(object) == "1-URGENT") & (
            ts_epoch_us(df["o_orderdate"]) >= cutoff_us
        )
        return pd.DataFrame(
            {"o_custkey": np.unique(df["o_custkey"].to_numpy(np.int64)[m])}
        )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderpriority", "o_orderdate"],
    ).map_batches(buyers, batch_format="pandas")

    from .core import hash_coexchange

    def anti_rollup(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
        if len(a) == 0 or "c_custkey" not in a.columns:
            return _empty.copy()
        bought = (b["o_custkey"].to_numpy(np.int64)
                  if len(b) and "o_custkey" in b.columns
                  else np.empty(0, np.int64))
        keep = ~np.isin(a["c_custkey"].to_numpy(np.int64), bought)
        a = a[keep]
        if not len(a):
            return _empty.copy()
        g = a.groupby("c_nationkey", sort=False)["bc"].agg(["size", "sum"])
        return pd.DataFrame(
            {"c_nationkey": g.index.to_numpy(np.int64),
             "n_cust": g["size"].to_numpy(np.int64),
             "total_bal_cents": g["sum"].to_numpy(np.int64)}
        )

    parts = hash_coexchange(
        elig, orders, "c_custkey", "o_custkey", anti_rollup, num_buckets
    ).to_pandas()
    if parts.empty or "c_nationkey" not in parts.columns:
        return _empty
    out = parts.groupby("c_nationkey", as_index=False).agg(
        n_cust=("n_cust", "sum"), total_bal_cents=("total_bal_cents", "sum")
    )
    return out.astype(
        {"c_nationkey": np.int64, "n_cust": np.int64,
         "total_bal_cents": np.int64}
    )


SQL_SALES_OPPORTUNITY = """
WITH cents AS (
  SELECT c_custkey, c_nationkey,
         CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS bc
  FROM customer WHERE c_nationkey IN (0, 1, 2, 3, 4, 5, 6)
),
pos AS (SELECT sum(bc) AS s, count(*) AS n FROM cents WHERE bc > 0),
elig AS (
  SELECT * FROM cents
  WHERE bc * (SELECT n FROM pos) > (SELECT s FROM pos)
),
noord AS (
  SELECT e.* FROM elig e
  WHERE NOT EXISTS (
    SELECT 1 FROM orders o
    WHERE o.o_custkey = e.c_custkey
      AND o.o_orderpriority = '1-URGENT'
      AND o.o_orderdate >= TIMESTAMP '2000-01-01'
  )
)
SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
       CAST(count(*) AS BIGINT) AS n_cust,
       CAST(sum(bc) AS BIGINT) AS total_bal_cents
FROM noord GROUP BY 1
"""


def small_quantity_revenue(
    sf_dir: str, brand: str = "Brand#23", num_buckets: int = 8
) -> pd.DataFrame:
    """TPC-H Q17 shape — aggregate-rejoin-to-detail with an inequality
    filter: revenue from lineitems whose quantity is below 20% of
    their part's average quantity, parts restricted to one brand.

    Plan: the brand's partkeys broadcast once (``ray.put`` + np.isin —
    the small side never shuffles); the FILTERED detail takes ONE
    partkey-keyed exchange, which colocates each part's rows so the
    per-part average and the below-threshold sum complete inside the
    bucket — no second pass, no detail re-join.  Money sums in integer
    cents (floor(p*100 + 0.5) per row on both sides); quantities are
    integral so the float average is order-independent and the
    inequality cannot flip across engines.  -> one row
    (total_cents, avg_yearly_x100)."""
    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
    ).map_batches(
        lambda df: df[df["p_brand"] == brand][["p_partkey"]],
        batch_format="pandas",
    ).to_pandas()
    keys_ref = ray.put(
        part["p_partkey"].to_numpy(np.int64) if len(part)
        else np.empty(0, np.int64)
    )

    class BrandFilter:
        def __init__(self):
            self.keys = ray.get(keys_ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0 or "l_partkey" not in df.columns:
                return pd.DataFrame(
                    {"l_partkey": pd.Series(dtype=np.int64),
                     "l_quantity": pd.Series(dtype=np.float64),
                     "l_extendedprice": pd.Series(dtype=np.float64)}
                )
            m = np.isin(df["l_partkey"].to_numpy(np.int64), self.keys)
            return df[m]

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    ).map_batches(BrandFilter, batch_format="pandas", concurrency=2)

    def bucket_sum(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_partkey" not in df.columns:
            return pd.DataFrame({"cents": pd.Series(dtype=np.int64)})
        qty = df["l_quantity"].to_numpy(np.float64)
        g = df.groupby("l_partkey", sort=False)["l_quantity"]
        lim = 0.2 * (g.transform("sum").to_numpy(np.float64)
                     / g.transform("size").to_numpy(np.float64))
        keep = qty < lim
        p = df["l_extendedprice"].to_numpy(np.float64)[keep]
        cents = np.floor(p * 100 + 0.5).astype(np.int64).sum()
        return pd.DataFrame(
            {"cents": np.asarray([cents], dtype=np.int64),
             "k": np.asarray([int(keep.sum())], dtype=np.int64)}
        )

    parts = hash_exchange(
        li, "l_partkey", bucket_sum, num_buckets
    ).to_pandas()
    if parts.empty or "cents" not in parts.columns or \
            int(parts["k"].sum()) == 0:
        # no qualifying row: match the twin's HAVING count(*) > 0
        return pd.DataFrame(
            {"total_cents": pd.Series(dtype=np.int64),
             "avg_yearly_x100": pd.Series(dtype=np.int64)}
        )
    total = int(parts["cents"].sum())
    return pd.DataFrame(
        {"total_cents": np.asarray([total], dtype=np.int64),
         "avg_yearly_x100": np.asarray([total // 7], dtype=np.int64)}
    )


SQL_SMALL_QUANTITY_REVENUE = """
WITH li AS (
  SELECT l_partkey, l_quantity, l_extendedprice
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE p_brand = 'Brand#23'
),
a AS (
  SELECT l_partkey, 0.2 * (sum(l_quantity) / count(*)) AS lim
  FROM li GROUP BY 1
)
SELECT CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT))
            AS BIGINT) AS total_cents,
       CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) // 7
            AS BIGINT) AS avg_yearly_x100
FROM li JOIN a USING (l_partkey)
WHERE l_quantity < lim
HAVING count(*) > 0
"""


def events_ohlc(
    sf_dir: str, window_s: int = 3600, num_buckets: int = 8
) -> ray.data.Dataset:
    """OHLC bars: per (event_type, window) the FIRST and LAST value in
    (ts, event_id) order plus high/low/count — the ordered first/last
    aggregate family (arg_min/arg_max by a composite time key) that a
    plain groupby cannot express.

    first/last are ASSOCIATIVE under lexicographic key comparison, so
    each batch contributes one candidate row per (type, window) (open
    and close representatives travel WITH their keys) and one keyed
    exchange finishes the reduction — no sort of the full stream, and
    every output value is an exact input value (no float summation to
    drift).  The SQL twin packs the same (ts_us, event_id) order into a
    HUGEINT arg_min/arg_max key (identical while event_id < 1e7 —
    holds for this corpus; the engine side is pure lexicographic and
    has no such bound)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["ts", "event_id", "event_type", "value"],
    )

    _EMPTY = {"event_type": object, "window_start": np.int64,
              "o_ts": np.int64, "o_id": np.int64, "open_v": np.float64,
              "c_ts": np.int64, "c_id": np.int64, "close_v": np.float64,
              "high_v": np.float64, "low_v": np.float64, "n": np.int64}

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "ts" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _EMPTY.items()})
        t = ts_epoch_us(df["ts"])
        d = pd.DataFrame(
            {"event_type": df["event_type"].to_numpy(object),
             "window_start": (t // 1_000_000 // window_s) * window_s,
             "ts_us": t,
             "event_id": df["event_id"].to_numpy(np.int64),
             "value": df["value"].to_numpy(np.float64)}
        ).sort_values(["ts_us", "event_id"], kind="mergesort")
        g = d.groupby(["event_type", "window_start"], sort=False)
        out = g.agg(
            o_ts=("ts_us", "first"), c_ts=("ts_us", "last"),
            o_id=("event_id", "first"), c_id=("event_id", "last"),
            open_v=("value", "first"), close_v=("value", "last"),
            high_v=("value", "max"), low_v=("value", "min"),
            n=("value", "size"),
        ).reset_index()
        return out.astype({"window_start": np.int64, "n": np.int64})[
            list(_EMPTY)
        ]

    partials = ds.map_batches(partial, batch_format="pandas")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "event_type" not in df.columns:
            return pd.DataFrame(
                {"event_type": pd.Series(dtype=object),
                 "window_start": pd.Series(dtype=np.int64),
                 "open_v": pd.Series(dtype=np.float64),
                 "high_v": pd.Series(dtype=np.float64),
                 "low_v": pd.Series(dtype=np.float64),
                 "close_v": pd.Series(dtype=np.float64),
                 "n": pd.Series(dtype=np.int64)}
            )
        keys = ["event_type", "window_start"]
        opens = (
            df.sort_values(["o_ts", "o_id"], kind="mergesort")
            .groupby(keys, sort=False)["open_v"].first()
        )
        closes = (
            df.sort_values(["c_ts", "c_id"], kind="mergesort")
            .groupby(keys, sort=False)["close_v"].last()
        )
        rest = df.groupby(keys, sort=False).agg(
            high_v=("high_v", "max"), low_v=("low_v", "min"),
            n=("n", "sum")
        )
        out = rest.join(opens).join(closes).reset_index()
        out = out[["event_type", "window_start", "open_v", "high_v",
                   "low_v", "close_v", "n"]]
        return out.astype({"window_start": np.int64, "n": np.int64})

    return hash_exchange(partials, "event_type", merge, num_buckets)


SQL_EVENTS_OHLC = """
SELECT event_type,
       CAST(floor(epoch(ts) / 3600) AS BIGINT) * 3600 AS window_start,
       arg_min(value,
               CAST(epoch_us(ts) AS HUGEINT) * 10000000 + event_id) AS open_v,
       max(value) AS high_v,
       min(value) AS low_v,
       arg_max(value,
               CAST(epoch_us(ts) AS HUGEINT) * 10000000 + event_id) AS close_v,
       CAST(count(*) AS BIGINT) AS n
FROM events GROUP BY 1, 2
"""


def table_diff(
    ds_a: ray.data.Dataset,
    ds_b: ray.data.Dataset,
    key: str,
    value_cols: list[str],
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Snapshot diff / CDC between two keyed table versions: rows only
    in B are ``added``, only in A ``removed``, in both with any
    ``value_cols`` difference ``changed``; unchanged rows are omitted.
    ONE two-sided keyed exchange (`hash_coexchange`) — equal keys meet
    in one bucket, each side keeps its own schema, and the diff is a
    per-bucket outer merge, so the operator streams at any table size
    without a driver-side collect.  -> (key, change)."""
    from .core import hash_coexchange

    cols = [key] + list(value_cols)

    def diff(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({key: pd.Series(dtype=np.int64),
                              "change": pd.Series(dtype=object)})
        a_ok = len(a) > 0 and key in a.columns
        b_ok = len(b) > 0 and key in b.columns
        if not a_ok and not b_ok:
            return empty
        # the empty-side key placeholder must be int64: a float64 key
        # would promote the merge's key column and corrupt ids > 2^53
        def _side(df, ok):
            if ok:
                return df[cols]
            out = {key: pd.Series(dtype=np.int64)}
            out.update({c: pd.Series(dtype=np.float64) for c in value_cols})
            return pd.DataFrame(out)

        a, b = _side(a, a_ok), _side(b, b_ok)
        m = a.merge(b, on=key, how="outer", suffixes=("_a", "_b"),
                    indicator=True)
        changed = np.zeros(len(m), dtype=bool)
        for c in value_cols:
            va, vb = m[f"{c}_a"], m[f"{c}_b"]
            changed |= (va != vb).to_numpy() & va.notna().to_numpy() \
                & vb.notna().to_numpy()
        lab = np.where(
            m["_merge"].to_numpy() == "right_only", "added",
            np.where(m["_merge"].to_numpy() == "left_only", "removed",
                     np.where(changed, "changed", "")),
        )
        keep = lab != ""
        return pd.DataFrame(
            {key: m[key].to_numpy()[keep].astype(np.int64),
             "change": lab[keep].astype(object)}
        )

    return hash_coexchange(ds_a, ds_b, key, key, diff, num_buckets)


def orders_snapshot_diff(sf_dir: str, num_buckets: int = 8) -> ray.data.Dataset:
    """`table_diff` over two deterministically-derived versions of
    orders — v1 excludes keys % 101 == 0 (so those read as ``added``),
    v2 excludes keys % 97 == 0 (``removed``) and bumps o_totalprice on
    keys % 13 == 0 (``changed``)."""
    base_cols = ["o_orderkey", "o_totalprice"]

    def v1(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderkey" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=np.float64)
                                 for c in base_cols})
        return df[df["o_orderkey"] % 101 != 0][base_cols]

    def v2(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderkey" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=np.float64)
                                 for c in base_cols})
        df = df[df["o_orderkey"] % 97 != 0][base_cols].copy()
        bump = (df["o_orderkey"] % 13 == 0).to_numpy()
        df.loc[bump, "o_totalprice"] = df.loc[bump, "o_totalprice"] + 1.0
        return df

    def read():
        return ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=base_cols
        )

    ds_a = read().map_batches(v1, batch_format="pandas")
    ds_b = read().map_batches(v2, batch_format="pandas")
    return table_diff(ds_a, ds_b, "o_orderkey", ["o_totalprice"],
                      num_buckets)


SQL_ORDERS_SNAPSHOT_DIFF = """
WITH v1 AS (
  SELECT o_orderkey AS k, o_totalprice AS p FROM orders
  WHERE o_orderkey % 101 <> 0
),
v2 AS (
  SELECT o_orderkey AS k,
         CASE WHEN o_orderkey % 13 = 0 THEN o_totalprice + 1
              ELSE o_totalprice END AS p
  FROM orders WHERE o_orderkey % 97 <> 0
)
SELECT CAST(coalesce(v1.k, v2.k) AS BIGINT) AS o_orderkey,
       CASE WHEN v1.k IS NULL THEN 'added'
            WHEN v2.k IS NULL THEN 'removed'
            ELSE 'changed' END AS change
FROM v1 FULL OUTER JOIN v2 ON v1.k = v2.k
WHERE v1.k IS NULL OR v2.k IS NULL OR v1.p <> v2.p
"""


def contingency_table(sf_dir: str, num_buckets: int = 4) -> pd.DataFrame:
    """Contingency table with independence-expected counts — the
    observed-vs-expected crosstab behind chi-square tests and mutual-
    information feature scoring: (o_orderstatus x o_orderpriority)
    observed counts plus floor(1e6 * row_total * col_total /
    grand_total) in exact integer arithmetic (Python bigint on the
    driver, HUGEINT // in the twin), so the statistic is hash-stable
    under any partitioning.

    The fact scan is a per-batch combiner (cells-per-batch rows, never
    O(rows)); one keyed exchange merges cells exactly; the driver holds
    only the r x c table — marginals are driver-side math on the
    OUTPUT, the right asymmetry at 100 TB (a cell table is bounded by
    category cardinality).  Raises instead of wrapping if the
    fixed-point expected count exceeds int64 (~3e6 rows per marginal
    pair at 1e6 scale)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_orderpriority"],
    )

    _EMPTY = {"o_orderstatus": object, "o_orderpriority": object,
              "observed": np.int64}

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderstatus" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _EMPTY.items()})
        g = (
            df.groupby(["o_orderstatus", "o_orderpriority"], sort=False)
            .size().rename("observed").reset_index()
        )
        return g.astype({"observed": np.int64})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderstatus" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _EMPTY.items()})
        g = df.groupby(["o_orderstatus", "o_orderpriority"], as_index=False)[
            "observed"
        ].sum()
        return g.astype({"observed": np.int64})

    cells = hash_exchange(
        ds.map_batches(partial, batch_format="pandas"),
        "o_orderstatus", merge, num_buckets,
    ).to_pandas()
    if cells.empty or "o_orderstatus" not in cells.columns:
        return pd.DataFrame(
            {"o_orderstatus": pd.Series(dtype=object),
             "o_orderpriority": pd.Series(dtype=object),
             "observed": pd.Series(dtype=np.int64),
             "expected_x1e6": pd.Series(dtype=np.int64)}
        )
    row_tot = cells.groupby("o_orderstatus")["observed"].sum().to_dict()
    col_tot = cells.groupby("o_orderpriority")["observed"].sum().to_dict()
    tot = int(cells["observed"].sum())
    exp = []
    for s, p in zip(cells["o_orderstatus"], cells["o_orderpriority"]):
        e = 1_000_000 * int(row_tot[s]) * int(col_tot[p]) // tot
        if e >= 1 << 63:
            raise ValueError(
                "contingency_table: expected_x1e6 exceeds int64 — "
                "lower the fixed-point scale for this input size"
            )
        exp.append(e)
    cells = cells.copy()
    cells["expected_x1e6"] = np.asarray(exp, dtype=np.int64)
    return cells


SQL_CONTINGENCY_TABLE = """
WITH c AS (
  SELECT o_orderstatus, o_orderpriority, count(*) AS n
  FROM orders GROUP BY 1, 2
),
t AS (
  SELECT o_orderstatus, o_orderpriority, n,
         sum(n) OVER (PARTITION BY o_orderstatus) AS rs,
         sum(n) OVER (PARTITION BY o_orderpriority) AS cs,
         sum(n) OVER () AS tot
  FROM c
)
SELECT o_orderstatus, o_orderpriority,
       CAST(n AS BIGINT) AS observed,
       CAST((1000000 * rs * cs) // tot AS BIGINT) AS expected_x1e6
FROM t
"""


SQL_PURCHASE_ATTRIBUTION = """
WITH w AS (
  SELECT event_id, event_type,
         max(CASE WHEN event_type IN ('click', 'view')
                  THEN epoch_us(ts) END)
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS attr
  FROM events
)
SELECT CAST(event_id AS BIGINT) AS event_id,
       CAST(coalesce(attr, -1) AS BIGINT) AS attr_ts_us
FROM w WHERE event_type = 'purchase'
"""


_Z_TERMS = " + ".join(
    f"(((x >> {b}) & CAST(1 AS BIGINT)) << {2 * b})"
    f" + (((y >> {b}) & CAST(1 AS BIGINT)) << {2 * b + 1})"
    for b in range(16)
)

SQL_ZORDER_LAYOUT = f"""
WITH c AS (
  SELECT CAST(o_custkey AS BIGINT) AS cust,
         CAST(o_custkey % 65536 AS BIGINT) AS x,
         CAST(floor(epoch(o_orderdate) / 86400) AS BIGINT) AS day,
         CAST(floor(epoch(o_orderdate) / 86400) AS BIGINT) % 65536 AS y
  FROM orders
),
z AS (SELECT cust, day, ({_Z_TERMS}) AS zkey FROM c)
SELECT CAST(zkey >> 16 AS BIGINT) AS part_id,
       CAST(count(*) AS BIGINT) AS n,
       min(cust) AS min_cust, max(cust) AS max_cust,
       min(day) AS min_day, max(day) AS max_day
FROM z GROUP BY 1
"""


_Q7_LO_US = int(pd.Timestamp("1995-01-01").value // 1000)
_Q7_HI_US = int(pd.Timestamp("1997-01-01").value // 1000)


def volume_shipping(
    sf_dir: str, nations=(1, 2), num_buckets: int = 8
) -> pd.DataFrame:
    """TPC-H Q7 shape — nation-pair trade volume: revenue shipped between
    a pair of nations (supplier nation != customer nation, both in the
    pair), per shipment year.

    100-TB plan: nation (25 rows) resolves on the driver; supplier's
    (suppkey -> nationkey) map is the classic broadcast side (8+4 B per
    supplier, bounded by the SMALLEST dimension table) consumed via
    ``np.searchsorted`` inside the lineitem scan; the two BIG-BIG joins
    are keyed coexchanges — orders x customer on custkey, then the
    lineitem partials x (order -> customer-nation) on orderkey — with
    revenue pre-aggregated per (orderkey, year) inside each lineitem
    batch BEFORE the shuffle.  Final rollup is <= buckets x 2 x years
    rows on the driver.  Revenue is integer cents
    (``floor(x*100+0.5)``) so the twin cannot drift on summation order.
    -> (supp_nation, cust_nation, l_year, revenue_cents)."""
    from .core import hash_coexchange

    pair = np.asarray(sorted(nations), dtype=np.int64)
    names = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nk2name = dict(zip(names["n_nationkey"].astype(np.int64),
                       names["n_name"].astype(str))) if len(names) else {}

    sup = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    if len(sup):
        sub = sup[np.isin(sup["s_nationkey"].to_numpy(np.int64), pair)]
        order = np.argsort(sub["s_suppkey"].to_numpy(np.int64))
        skeys = sub["s_suppkey"].to_numpy(np.int64)[order]
        snats = sub["s_nationkey"].to_numpy(np.int64)[order]
    else:
        skeys = np.empty(0, np.int64)
        snats = np.empty(0, np.int64)
    sup_ref = ray.put((skeys, snats))

    def cfilter(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "c_custkey" not in df.columns:
            return pd.DataFrame({"c_custkey": pd.Series(dtype=np.int64),
                                 "cust_nk": pd.Series(dtype=np.int64)})
        nk = df["c_nationkey"].to_numpy(np.int64)
        keep = np.isin(nk, pair)
        return pd.DataFrame({"c_custkey": df["c_custkey"].to_numpy(np.int64)[keep],
                             "cust_nk": nk[keep]})

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(cfilter, batch_format="pandas")

    ordf = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )

    def ojoin(o: pd.DataFrame, c: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"o_orderkey": pd.Series(dtype=np.int64),
                              "cust_nk": pd.Series(dtype=np.int64)})
        if (len(o) == 0 or "o_orderkey" not in o.columns
                or len(c) == 0 or "c_custkey" not in c.columns):
            return empty
        j = o.merge(c, left_on="o_custkey", right_on="c_custkey")
        return j[["o_orderkey", "cust_nk"]].astype(np.int64)

    order_nat = hash_coexchange(
        ordf, cust, "o_custkey", "c_custkey", ojoin, num_buckets=num_buckets
    )

    def lpart(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"l_orderkey": pd.Series(dtype=np.int64),
                              "supp_nk": pd.Series(dtype=np.int64),
                              "l_year": pd.Series(dtype=np.int64),
                              "rc": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "l_orderkey" not in df.columns:
            return empty
        t = ts_epoch_us(df["l_shipdate"])
        df = df.loc[(t >= _Q7_LO_US) & (t < _Q7_HI_US)]
        if len(df) == 0:
            return empty
        sk, sn = ray.get(sup_ref)
        if len(sk) == 0:
            return empty
        lsk = df["l_suppkey"].to_numpy(np.int64)
        pos = np.minimum(np.searchsorted(sk, lsk), len(sk) - 1)
        hit = sk[pos] == lsk
        df = df.loc[hit]
        if len(df) == 0:
            return empty
        supp_nk = sn[pos[hit]]
        rc = np.floor(
            df["l_extendedprice"].to_numpy(np.float64)
            * (1 - df["l_discount"].to_numpy(np.float64)) * 100 + 0.5
        ).astype(np.int64)
        g = pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(np.int64),
            "supp_nk": supp_nk,
            "l_year": df["l_shipdate"].dt.year.to_numpy(np.int64),
            "rc": rc,
        }).groupby(["l_orderkey", "supp_nk", "l_year"], as_index=False)["rc"].sum()
        return g.astype(np.int64)

    lip = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
    ).map_batches(lpart, batch_format="pandas")

    def vjoin(l: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"supp_nk": pd.Series(dtype=np.int64),
                              "cust_nk": pd.Series(dtype=np.int64),
                              "l_year": pd.Series(dtype=np.int64),
                              "rc": pd.Series(dtype=np.int64)})
        if (len(l) == 0 or "l_orderkey" not in l.columns
                or len(o) == 0 or "o_orderkey" not in o.columns):
            return empty
        j = l.merge(o, left_on="l_orderkey", right_on="o_orderkey")
        j = j.loc[j["supp_nk"] != j["cust_nk"]]
        if len(j) == 0:
            return empty
        g = j.groupby(["supp_nk", "cust_nk", "l_year"], as_index=False)["rc"].sum()
        return g.astype(np.int64)

    parts = hash_coexchange(
        lip, order_nat, "l_orderkey", "o_orderkey", vjoin,
        num_buckets=num_buckets,
    ).to_pandas()
    cols = ["supp_nation", "cust_nation", "l_year", "revenue_cents"]
    if parts.empty or "supp_nk" not in parts.columns:
        return pd.DataFrame({"supp_nation": pd.Series(dtype=object),
                             "cust_nation": pd.Series(dtype=object),
                             "l_year": pd.Series(dtype=np.int64),
                             "revenue_cents": pd.Series(dtype=np.int64)})
    g = parts.groupby(["supp_nk", "cust_nk", "l_year"], as_index=False)["rc"].sum()
    g["supp_nation"] = g["supp_nk"].map(nk2name).astype(str)
    g["cust_nation"] = g["cust_nk"].map(nk2name).astype(str)
    g = g.rename(columns={"rc": "revenue_cents"})
    return g[cols].astype({"l_year": np.int64, "revenue_cents": np.int64})


SQL_VOLUME_SHIPPING = f"""
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
       CAST(year(l_shipdate) AS BIGINT) AS l_year,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem
JOIN supplier ON s_suppkey = l_suppkey
JOIN orders ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN nation n1 ON n1.n_nationkey = s_nationkey
JOIN nation n2 ON n2.n_nationkey = c_nationkey
WHERE s_nationkey IN (1, 2) AND c_nationkey IN (1, 2)
  AND s_nationkey <> c_nationkey
  AND epoch_us(l_shipdate) >= {_Q7_LO_US}
  AND epoch_us(l_shipdate) < {_Q7_HI_US}
GROUP BY 1, 2, 3
"""


_Q10_LO_US = int(pd.Timestamp("1995-10-01").value // 1000)
_Q10_HI_US = int(pd.Timestamp("1996-01-01").value // 1000)


def returned_items(
    sf_dir: str, k: int = 20, num_buckets: int = 8
) -> ray.data.Dataset:
    """TPC-H Q10 shape — returned-item reporting: top-k customers by
    revenue lost to returns (``l_returnflag = 'R'``) for orders placed
    in one quarter.

    100-TB plan: both joins are keyed coexchanges (orderkey then
    custkey) with per-batch partial revenue sums BEFORE each shuffle, so
    shuffle bytes are O(distinct orders) then O(distinct customers),
    never O(lineitems); each custkey bucket emits only its local top-k
    and the global sort sees <= k x buckets rows.  Revenue is integer
    cents.  -> (c_custkey, c_name, c_nationkey, acctbal_cents,
    revenue_cents)."""
    from .core import hash_coexchange

    def ofilter(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderkey" not in df.columns:
            return pd.DataFrame({"o_orderkey": pd.Series(dtype=np.int64),
                                 "o_custkey": pd.Series(dtype=np.int64)})
        t = ts_epoch_us(df["o_orderdate"])
        keep = (t >= _Q10_LO_US) & (t < _Q10_HI_US)
        return pd.DataFrame(
            {"o_orderkey": df["o_orderkey"].to_numpy(np.int64)[keep],
             "o_custkey": df["o_custkey"].to_numpy(np.int64)[keep]}
        )

    ordf = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(ofilter, batch_format="pandas")

    def lpart(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_orderkey" not in df.columns:
            return pd.DataFrame({"l_orderkey": pd.Series(dtype=np.int64),
                                 "rc": pd.Series(dtype=np.int64)})
        df = df.loc[df["l_returnflag"] == "R"]
        rc = np.floor(
            df["l_extendedprice"].to_numpy(np.float64)
            * (1 - df["l_discount"].to_numpy(np.float64)) * 100 + 0.5
        ).astype(np.int64)
        g = pd.DataFrame({"l_orderkey": df["l_orderkey"].to_numpy(np.int64),
                          "rc": rc}).groupby("l_orderkey", as_index=False)["rc"].sum()
        return g.astype(np.int64)

    lip = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice",
                 "l_discount"],
    ).map_batches(lpart, batch_format="pandas")

    def ojoin(o: pd.DataFrame, l: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"o_custkey": pd.Series(dtype=np.int64),
                              "rc": pd.Series(dtype=np.int64)})
        if (len(o) == 0 or "o_orderkey" not in o.columns
                or len(l) == 0 or "l_orderkey" not in l.columns):
            return empty
        j = o.merge(l, left_on="o_orderkey", right_on="l_orderkey")
        if len(j) == 0:
            return empty
        g = j.groupby("o_custkey", as_index=False)["rc"].sum()
        return g.astype(np.int64)

    per_cust = hash_coexchange(
        ordf, lip, "o_orderkey", "l_orderkey", ojoin, num_buckets=num_buckets
    )

    def acents(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "c_custkey" not in df.columns:
            return pd.DataFrame({"c_custkey": pd.Series(dtype=np.int64),
                                 "c_name": pd.Series(dtype=object),
                                 "c_nationkey": pd.Series(dtype=np.int64),
                                 "acctbal_cents": pd.Series(dtype=np.int64)})
        return pd.DataFrame(
            {"c_custkey": df["c_custkey"].to_numpy(np.int64),
             "c_name": df["c_name"].to_numpy(object),
             "c_nationkey": df["c_nationkey"].to_numpy(np.int64),
             "acctbal_cents": np.floor(
                 df["c_acctbal"].to_numpy(np.float64) * 100 + 0.5
             ).astype(np.int64)}
        )

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey", "c_acctbal"],
    ).map_batches(acents, batch_format="pandas")

    _OUT = ("c_custkey", "c_name", "c_nationkey", "acctbal_cents",
            "revenue_cents")

    def cjoin(p: pd.DataFrame, c: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"c_custkey": pd.Series(dtype=np.int64),
             "c_name": pd.Series(dtype=object),
             "c_nationkey": pd.Series(dtype=np.int64),
             "acctbal_cents": pd.Series(dtype=np.int64),
             "revenue_cents": pd.Series(dtype=np.int64)}
        )
        if (len(p) == 0 or "o_custkey" not in p.columns
                or len(c) == 0 or "c_custkey" not in c.columns):
            return empty
        g = p.groupby("o_custkey", as_index=False)["rc"].sum()
        j = g.merge(c, left_on="o_custkey", right_on="c_custkey")
        if len(j) == 0:
            return empty
        j = j.rename(columns={"rc": "revenue_cents"})
        j = j.sort_values(["revenue_cents", "c_custkey"],
                          ascending=[False, True], kind="mergesort").head(k)
        return j[list(_OUT)].reset_index(drop=True)

    per_bucket = hash_coexchange(
        per_cust, cust, "o_custkey", "c_custkey", cjoin,
        num_buckets=num_buckets,
    ).to_pandas()
    if per_bucket.empty or "revenue_cents" not in per_bucket.columns:
        # zero-row window: Ray drops the schema on empty frames, so
        # rebuild the typed columns the oracle always carries
        per_bucket = pd.DataFrame(
            {"c_custkey": pd.Series(dtype=np.int64),
             "c_name": pd.Series(dtype=object),
             "c_nationkey": pd.Series(dtype=np.int64),
             "acctbal_cents": pd.Series(dtype=np.int64),
             "revenue_cents": pd.Series(dtype=np.int64)}
        )
    return per_bucket.sort_values(
        ["revenue_cents", "c_custkey"], ascending=[False, True],
        kind="mergesort",
    ).head(k).reset_index(drop=True)[list(_OUT)]


SQL_RETURNED_ITEMS = f"""
SELECT CAST(c_custkey AS BIGINT) AS c_custkey, c_name,
       CAST(c_nationkey AS BIGINT) AS c_nationkey,
       CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS acctbal_cents,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM customer
JOIN orders ON o_custkey = c_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE l_returnflag = 'R'
  AND epoch_us(o_orderdate) >= {_Q10_LO_US}
  AND epoch_us(o_orderdate) < {_Q10_HI_US}
GROUP BY 1, 2, 3, 4
ORDER BY revenue_cents DESC, c_custkey
LIMIT 20
"""


_Q14_LO_US = int(pd.Timestamp("1995-09-01").value // 1000)
_Q14_HI_US = int(pd.Timestamp("1995-10-01").value // 1000)


def promo_revenue(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """TPC-H Q14 shape — promotion effect: share of one month's revenue
    coming from parts of type 'PROMO'.

    100-TB plan: lineitem revenue is pre-aggregated per partkey inside
    each batch, then ONE keyed coexchange against part on partkey (part
    is a dimension but still sharded at 100 TB — no broadcast); each
    bucket emits a single (promo_cents, total_cents) row and the driver
    folds <= num_buckets rows with exact Python-int arithmetic.  The
    promo share is fixed-point ``(100 * promo * 1e6) // total``
    (HUGEINT in the twin) so no float division exists on either side.
    -> one row (promo_revenue_cents, total_revenue_cents,
    promo_pct_x1e6); zero rows when the month has no revenue."""
    from .core import hash_coexchange

    def lpart(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_partkey" not in df.columns:
            return pd.DataFrame({"l_partkey": pd.Series(dtype=np.int64),
                                 "rc": pd.Series(dtype=np.int64)})
        t = ts_epoch_us(df["l_shipdate"])
        df = df.loc[(t >= _Q14_LO_US) & (t < _Q14_HI_US)]
        rc = np.floor(
            df["l_extendedprice"].to_numpy(np.float64)
            * (1 - df["l_discount"].to_numpy(np.float64)) * 100 + 0.5
        ).astype(np.int64)
        g = pd.DataFrame({"l_partkey": df["l_partkey"].to_numpy(np.int64),
                          "rc": rc}).groupby("l_partkey", as_index=False)["rc"].sum()
        return g.astype(np.int64)

    lip = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(lpart, batch_format="pandas")

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    )

    def pjoin(l: pd.DataFrame, p: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"promo": pd.Series(dtype=np.int64),
                              "total": pd.Series(dtype=np.int64)})
        if (len(l) == 0 or "l_partkey" not in l.columns
                or len(p) == 0 or "p_partkey" not in p.columns):
            return empty
        j = l.merge(p, left_on="l_partkey", right_on="p_partkey")
        if len(j) == 0:
            return empty
        total = int(j["rc"].sum())
        promo = int(j.loc[j["p_type"] == "PROMO", "rc"].sum())
        return pd.DataFrame({"promo": np.asarray([promo], np.int64),
                             "total": np.asarray([total], np.int64)})

    parts = hash_coexchange(
        lip, part, "l_partkey", "p_partkey", pjoin, num_buckets=num_buckets
    ).to_pandas()
    cols = {"promo_revenue_cents": np.int64, "total_revenue_cents": np.int64,
            "promo_pct_x1e6": np.int64}
    if parts.empty or "total" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    promo = int(parts["promo"].sum())
    total = int(parts["total"].sum())
    if total == 0:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    pct = (100 * promo * 1_000_000) // total
    return pd.DataFrame({"promo_revenue_cents": np.asarray([promo], np.int64),
                         "total_revenue_cents": np.asarray([total], np.int64),
                         "promo_pct_x1e6": np.asarray([pct], np.int64)})


SQL_PROMO_REVENUE = f"""
WITH l AS (
  SELECT CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
              AS BIGINT) AS rc, p_type
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE epoch_us(l_shipdate) >= {_Q14_LO_US}
    AND epoch_us(l_shipdate) < {_Q14_HI_US}
),
a AS (
  SELECT CAST(sum(CASE WHEN p_type = 'PROMO' THEN rc ELSE 0 END) AS BIGINT)
           AS promo,
         CAST(sum(rc) AS BIGINT) AS total
  FROM l
)
SELECT promo AS promo_revenue_cents, total AS total_revenue_cents,
       CAST((100 * CAST(promo AS HUGEINT) * 1000000) // CAST(total AS HUGEINT)
            AS BIGINT) AS promo_pct_x1e6
FROM a WHERE total > 0
"""


_Q4_LO_US = int(pd.Timestamp("1995-07-01").value // 1000)
_Q4_HI_US = int(pd.Timestamp("1995-10-01").value // 1000)
_Q4_LATE_US = 60 * 86_400 * 1_000_000  # shipped > 60 days after order


def order_priority_check(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """TPC-H Q4 shape — order-priority checking: orders placed in one
    quarter that had at least one LATE shipment (this schema has no
    commit/receipt dates, so late = ``l_shipdate > o_orderdate + 60d``),
    counted per priority class.

    100-TB plan: the EXISTS collapses to a per-orderkey MAX of the
    shipdate — pre-reduced inside every lineitem batch, so the ONE
    keyed coexchange ships a single int64 per (batch, orderkey) instead
    of per lineitem; each bucket emits <= 5 (priority, count) partials
    and the driver folds <= 5 x buckets rows.
    -> (o_orderpriority, order_count)."""
    from .core import hash_coexchange

    def ofilter(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderkey" not in df.columns:
            return pd.DataFrame({"o_orderkey": pd.Series(dtype=np.int64),
                                 "o_date_us": pd.Series(dtype=np.int64),
                                 "o_orderpriority": pd.Series(dtype=object)})
        t = ts_epoch_us(df["o_orderdate"])
        keep = (t >= _Q4_LO_US) & (t < _Q4_HI_US)
        return pd.DataFrame(
            {"o_orderkey": df["o_orderkey"].to_numpy(np.int64)[keep],
             "o_date_us": t[keep],
             "o_orderpriority": df["o_orderpriority"].to_numpy()[keep]}
        )

    ordf = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(ofilter, batch_format="pandas")

    def lmax(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_orderkey" not in df.columns:
            return pd.DataFrame({"l_orderkey": pd.Series(dtype=np.int64),
                                 "max_ship_us": pd.Series(dtype=np.int64)})
        t = pd.Series(ts_epoch_us(df["l_shipdate"]))
        g = t.groupby(df["l_orderkey"].to_numpy(np.int64)).max()
        return pd.DataFrame({"l_orderkey": g.index.to_numpy(np.int64),
                             "max_ship_us": g.to_numpy(np.int64)})

    lip = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    ).map_batches(lmax, batch_format="pandas")

    def pjoin(o: pd.DataFrame, l: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"o_orderpriority": pd.Series(dtype=object),
                              "n": pd.Series(dtype=np.int64)})
        if (len(o) == 0 or "o_orderkey" not in o.columns
                or len(l) == 0 or "l_orderkey" not in l.columns):
            return empty
        m = l.groupby("l_orderkey", as_index=False)["max_ship_us"].max()
        j = o.merge(m, left_on="o_orderkey", right_on="l_orderkey")
        j = j.loc[j["max_ship_us"].to_numpy(np.int64)
                  > j["o_date_us"].to_numpy(np.int64) + _Q4_LATE_US]
        if len(j) == 0:
            return empty
        g = j.groupby("o_orderpriority", as_index=False).size()
        return pd.DataFrame({"o_orderpriority": g["o_orderpriority"],
                             "n": g["size"].to_numpy(np.int64)})

    parts = hash_coexchange(
        ordf, lip, "o_orderkey", "l_orderkey", pjoin, num_buckets=num_buckets
    ).to_pandas()
    if parts.empty or "o_orderpriority" not in parts.columns:
        return pd.DataFrame({"o_orderpriority": pd.Series(dtype=object),
                             "order_count": pd.Series(dtype=np.int64)})
    g = parts.groupby("o_orderpriority", as_index=False)["n"].sum()
    return pd.DataFrame({"o_orderpriority": g["o_orderpriority"],
                         "order_count": g["n"].to_numpy(np.int64)})


SQL_ORDER_PRIORITY_CHECK = f"""
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS order_count
FROM orders
WHERE epoch_us(o_orderdate) >= {_Q4_LO_US}
  AND epoch_us(o_orderdate) < {_Q4_HI_US}
  AND EXISTS (
    SELECT 1 FROM lineitem
    WHERE l_orderkey = o_orderkey
      AND epoch_us(l_shipdate) > epoch_us(o_orderdate) + {_Q4_LATE_US}
  )
GROUP BY 1
"""


_Q15_LO_US = int(pd.Timestamp("1995-01-01").value // 1000)
_Q15_HI_US = int(pd.Timestamp("1995-04-01").value // 1000)


def top_supplier_revenue(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """TPC-H Q15 shape — top supplier(s): the supplier(s) whose shipped
    revenue over one quarter equals the global maximum (ties kept, as in
    the spec's view formulation).

    100-TB plan: revenue cents are pre-summed per (batch, suppkey), ONE
    suppkey-keyed exchange totals them, and each bucket emits only the
    rows achieving ITS max — the global max is the max of <= buckets
    candidates, so the driver folds O(buckets) rows and broadcasts the
    winning suppkeys (a handful of int64s) into a vectorized supplier
    scan for the names.  No float division anywhere.
    -> (s_suppkey, s_name, total_revenue_cents)."""

    def lpart(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_suppkey" not in df.columns:
            return pd.DataFrame({"l_suppkey": pd.Series(dtype=np.int64),
                                 "rc": pd.Series(dtype=np.int64)})
        t = ts_epoch_us(df["l_shipdate"])
        df = df.loc[(t >= _Q15_LO_US) & (t < _Q15_HI_US)]
        rc = np.floor(
            df["l_extendedprice"].to_numpy(np.float64)
            * (1 - df["l_discount"].to_numpy(np.float64)) * 100 + 0.5
        ).astype(np.int64)
        g = pd.DataFrame({"l_suppkey": df["l_suppkey"].to_numpy(np.int64),
                          "rc": rc}).groupby("l_suppkey", as_index=False)["rc"].sum()
        return g.astype(np.int64)

    lip = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(lpart, batch_format="pandas")

    def bucket_max(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"l_suppkey": pd.Series(dtype=np.int64),
                              "total": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "l_suppkey" not in df.columns:
            return empty
        g = df.groupby("l_suppkey", as_index=False)["rc"].sum()
        mx = g["rc"].max()
        g = g.loc[g["rc"] == mx]
        return pd.DataFrame({"l_suppkey": g["l_suppkey"].to_numpy(np.int64),
                             "total": g["rc"].to_numpy(np.int64)})

    cand = hash_exchange(
        lip, "l_suppkey", bucket_max, num_buckets=num_buckets
    ).to_pandas()
    cols = {"s_suppkey": np.int64, "s_name": object,
            "total_revenue_cents": np.int64}
    if cand.empty or "total" not in cand.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    mx = int(cand["total"].max())
    win = cand.loc[cand["total"] == mx]
    win_keys = np.sort(win["l_suppkey"].to_numpy(np.int64))
    keys_ref = ray.put(win_keys)

    def sname(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "s_suppkey" not in df.columns:
            return pd.DataFrame({"s_suppkey": pd.Series(dtype=np.int64),
                                 "s_name": pd.Series(dtype=object)})
        keep = np.isin(df["s_suppkey"].to_numpy(np.int64), ray.get(keys_ref))
        return pd.DataFrame(
            {"s_suppkey": df["s_suppkey"].to_numpy(np.int64)[keep],
             "s_name": df["s_name"].to_numpy()[keep]}
        )

    names = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    ).map_batches(sname, batch_format="pandas").to_pandas()
    if names.empty or "s_suppkey" not in names.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    out = names.sort_values("s_suppkey", ignore_index=True)
    out["total_revenue_cents"] = np.int64(mx)
    return out[list(cols)]


SQL_TOP_SUPPLIER_REVENUE = f"""
WITH r AS (
  SELECT l_suppkey,
         CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                       AS BIGINT)) AS BIGINT) AS total
  FROM lineitem
  WHERE epoch_us(l_shipdate) >= {_Q15_LO_US}
    AND epoch_us(l_shipdate) < {_Q15_HI_US}
  GROUP BY 1
)
SELECT CAST(s_suppkey AS BIGINT) AS s_suppkey, s_name,
       total AS total_revenue_cents
FROM supplier JOIN r ON s_suppkey = l_suppkey
WHERE total = (SELECT max(total) FROM r)
"""


_Q19_BRACKETS = (
    # (brand, size_lo, size_hi, qty_lo, qty_hi)
    ("Brand#1", 1, 5, 1, 11),
    ("Brand#2", 1, 10, 10, 20),
    ("Brand#3", 1, 15, 20, 30),
)


def bracket_revenue(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """TPC-H Q19 shape — discounted revenue under DISJUNCTIVE
    brand/size/quantity brackets (an OR of three conjunctions spanning
    BOTH join sides).

    100-TB plan: the quantity predicate only needs the integer quantity
    CLASS, so lineitem revenue is pre-summed per (partkey, quantity)
    inside each batch (quantity > max bracket qty pruned at the scan) —
    the ONE partkey coexchange then ships O(distinct partkey x 30) rows,
    never O(lineitems); part is brand-pruned at its scan.  Each bucket
    applies the OR-of-ANDs vectorized and emits one cents partial.
    -> one row (revenue_cents)."""
    from .core import hash_coexchange

    qty_max = max(b[4] for b in _Q19_BRACKETS)
    brands = sorted({b[0] for b in _Q19_BRACKETS})

    def lpart(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_partkey" not in df.columns:
            return pd.DataFrame({"l_partkey": pd.Series(dtype=np.int64),
                                 "qty": pd.Series(dtype=np.int64),
                                 "rc": pd.Series(dtype=np.int64)})
        qty = df["l_quantity"].to_numpy(np.float64).astype(np.int64)
        keep = qty <= qty_max
        df = df.loc[keep]
        qty = qty[keep]
        rc = np.floor(
            df["l_extendedprice"].to_numpy(np.float64)
            * (1 - df["l_discount"].to_numpy(np.float64)) * 100 + 0.5
        ).astype(np.int64)
        g = pd.DataFrame({"l_partkey": df["l_partkey"].to_numpy(np.int64),
                          "qty": qty, "rc": rc}
                         ).groupby(["l_partkey", "qty"], as_index=False)["rc"].sum()
        return g.astype(np.int64)

    lip = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(lpart, batch_format="pandas")

    def pfilter(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "p_partkey" not in df.columns:
            return pd.DataFrame({"p_partkey": pd.Series(dtype=np.int64),
                                 "p_brand": pd.Series(dtype=object),
                                 "p_size": pd.Series(dtype=np.int64)})
        keep = df["p_brand"].isin(brands).to_numpy()
        return pd.DataFrame(
            {"p_partkey": df["p_partkey"].to_numpy(np.int64)[keep],
             "p_brand": df["p_brand"].to_numpy()[keep],
             "p_size": df["p_size"].to_numpy(np.int64)[keep]}
        )

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"]
    ).map_batches(pfilter, batch_format="pandas")

    def bjoin(l: pd.DataFrame, p: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"rc": pd.Series(dtype=np.int64)})
        if (len(l) == 0 or "l_partkey" not in l.columns
                or len(p) == 0 or "p_partkey" not in p.columns):
            return empty
        j = l.merge(p, left_on="l_partkey", right_on="p_partkey")
        if len(j) == 0:
            return empty
        qty = j["qty"].to_numpy(np.int64)
        size = j["p_size"].to_numpy(np.int64)
        brand = j["p_brand"].to_numpy()
        keep = np.zeros(len(j), dtype=bool)
        for b, slo, shi, qlo, qhi in _Q19_BRACKETS:
            keep |= ((brand == b) & (size >= slo) & (size <= shi)
                     & (qty >= qlo) & (qty <= qhi))
        tot = int(j["rc"].to_numpy(np.int64)[keep].sum())
        if tot == 0:
            return empty
        return pd.DataFrame({"rc": np.asarray([tot], np.int64)})

    parts = hash_coexchange(
        lip, part, "l_partkey", "p_partkey", bjoin, num_buckets=num_buckets
    ).to_pandas()
    if parts.empty or "rc" not in parts.columns:
        return pd.DataFrame({"revenue_cents": pd.Series(dtype=np.int64)})
    return pd.DataFrame(
        {"revenue_cents": np.asarray([int(parts["rc"].sum())], np.int64)}
    )


SQL_BRACKET_REVENUE = """
SELECT CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE (p_brand = 'Brand#1' AND p_size BETWEEN 1 AND 5
       AND l_quantity BETWEEN 1 AND 11)
   OR (p_brand = 'Brand#2' AND p_size BETWEEN 1 AND 10
       AND l_quantity BETWEEN 10 AND 20)
   OR (p_brand = 'Brand#3' AND p_size BETWEEN 1 AND 15
       AND l_quantity BETWEEN 20 AND 30)
HAVING sum(1) > 0 AND sum(CAST(floor(l_extendedprice * (1 - l_discount)
                                     * 100 + 0.5) AS BIGINT)) <> 0
"""


def slowest_supplier_orders(
    sf_dir: str, k: int = 20, num_buckets: int = 8
) -> pd.DataFrame:
    """TPC-H Q21 shape — suppliers who kept orders waiting: on orders
    with >= 2 distinct suppliers, the supplier who UNIQUELY shipped
    last (no tie at the order's max shipdate), counted per supplier;
    top-k by count.

    100-TB plan: lineitem pre-reduces to one max-shipdate int64 per
    (batch, orderkey, suppkey); ONE orderkey exchange runs the
    exists/not-exists logic vectorized per bucket (groupby transform,
    no order loop) and emits per-bucket (suppkey, n) partials — the
    driver folds O(buckets x active suppliers) dimension-class rows and
    broadcasts only the k winning suppkeys into the supplier name scan.
    -> (s_suppkey, s_name, n_orders)."""

    def lmax(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_orderkey" not in df.columns:
            return pd.DataFrame({"l_orderkey": pd.Series(dtype=np.int64),
                                 "l_suppkey": pd.Series(dtype=np.int64),
                                 "ms": pd.Series(dtype=np.int64)})
        g = pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(np.int64),
            "l_suppkey": df["l_suppkey"].to_numpy(np.int64),
            "ms": ts_epoch_us(df["l_shipdate"]),
        }).groupby(["l_orderkey", "l_suppkey"], as_index=False)["ms"].max()
        return g.astype(np.int64)

    lip = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    ).map_batches(lmax, batch_format="pandas")

    def census(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"l_suppkey": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "l_orderkey" not in df.columns:
            return empty
        m = df.groupby(["l_orderkey", "l_suppkey"], as_index=False)["ms"].max()
        grp = m.groupby("l_orderkey")["ms"]
        mx = grp.transform("max").to_numpy(np.int64)
        nsupp = grp.transform("size").to_numpy(np.int64)
        at_max = m["ms"].to_numpy(np.int64) == mx
        nmax = (pd.Series(at_max.astype(np.int64))
                .groupby(m["l_orderkey"].to_numpy(np.int64)).transform("sum")
                .to_numpy(np.int64))
        keep = at_max & (nsupp >= 2) & (nmax == 1)
        if not keep.any():
            return empty
        g = (m.loc[keep].groupby("l_suppkey", as_index=False).size()
             .rename(columns={"size": "n"}))
        return g.astype(np.int64)

    parts = hash_exchange(
        lip, "l_orderkey", census, num_buckets=num_buckets
    ).to_pandas()
    cols = {"s_suppkey": np.int64, "s_name": object, "n_orders": np.int64}
    if parts.empty or "l_suppkey" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    g = parts.groupby("l_suppkey", as_index=False)["n"].sum()
    g = g.sort_values(["n", "l_suppkey"], ascending=[False, True],
                      kind="mergesort").head(k)
    win_keys = np.sort(g["l_suppkey"].to_numpy(np.int64))
    keys_ref = ray.put(win_keys)

    def sname(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "s_suppkey" not in df.columns:
            return pd.DataFrame({"s_suppkey": pd.Series(dtype=np.int64),
                                 "s_name": pd.Series(dtype=object)})
        keep = np.isin(df["s_suppkey"].to_numpy(np.int64), ray.get(keys_ref))
        return pd.DataFrame(
            {"s_suppkey": df["s_suppkey"].to_numpy(np.int64)[keep],
             "s_name": df["s_name"].to_numpy()[keep]}
        )

    names = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    ).map_batches(sname, batch_format="pandas").to_pandas()
    if names.empty or "s_suppkey" not in names.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    out = g.merge(names, left_on="l_suppkey", right_on="s_suppkey")
    out = out.rename(columns={"n": "n_orders"})
    return out[list(cols)].astype(
        {"s_suppkey": np.int64, "n_orders": np.int64}
    ).reset_index(drop=True)


SQL_SLOWEST_SUPPLIER_ORDERS = """
WITH m AS (
  SELECT l_orderkey, l_suppkey, max(epoch_us(l_shipdate)) AS ms
  FROM lineitem GROUP BY 1, 2
),
m1 AS (
  SELECT l_orderkey, l_suppkey, ms,
         max(ms) OVER (PARTITION BY l_orderkey) AS mx,
         count(*) OVER (PARTITION BY l_orderkey) AS nsupp
  FROM m
),
m2 AS (
  SELECT l_orderkey, l_suppkey, ms, mx, nsupp,
         sum(CASE WHEN ms = mx THEN 1 ELSE 0 END)
           OVER (PARTITION BY l_orderkey) AS nmax
  FROM m1
)
SELECT CAST(s_suppkey AS BIGINT) AS s_suppkey, s_name,
       CAST(count(*) AS BIGINT) AS n_orders
FROM m2 JOIN supplier ON s_suppkey = l_suppkey
WHERE ms = mx AND nsupp >= 2 AND nmax = 1
GROUP BY 1, 2
ORDER BY n_orders DESC, s_suppkey
LIMIT 20
"""


_Q22_NATIONS = (0, 1, 2, 3, 4, 5, 6)
_Q22_CUT_US = int(pd.Timestamp("2000-06-01").value // 1000)


def idle_customers(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """TPC-H Q22 shape — global-sales-opportunity: customers from a set
    of nations with an above-average positive balance and NO RECENT
    orders (none on/after the cutoff), rolled up per nation.

    100-TB plan: pass 1 reduces the customer scan to ONE (sum, count)
    scalar pair per batch (driver folds scalars — the "computed
    broadcast" pattern); the above-average test is the exact integer
    cross-multiplication ``acctbal_cents * count > total_cents``, so no
    float average exists on either side.  Pass 2 anti-joins candidates
    against orders on ONE custkey coexchange with per-bucket
    (nation, count, sum) partials; the driver folds <= 25 x buckets
    rows.  -> (c_nationkey, n_customers, total_acctbal_cents)."""
    from .core import hash_coexchange

    nations = np.asarray(_Q22_NATIONS, dtype=np.int64)

    def cpart(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "c_custkey" not in df.columns:
            return pd.DataFrame({"tot": pd.Series(dtype=np.int64),
                                 "cnt": pd.Series(dtype=np.int64)})
        bal = df["c_acctbal"].to_numpy(np.float64)
        keep = (bal > 0.0) & np.isin(
            df["c_nationkey"].to_numpy(np.int64), nations
        )
        ac = np.floor(bal[keep] * 100 + 0.5).astype(np.int64)
        return pd.DataFrame({"tot": np.asarray([int(ac.sum())], np.int64),
                             "cnt": np.asarray([len(ac)], np.int64)})

    stats = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey",
                                               "c_acctbal"]
    ).map_batches(cpart, batch_format="pandas").to_pandas()
    cols = {"c_nationkey": np.int64, "n_customers": np.int64,
            "total_acctbal_cents": np.int64}
    if stats.empty or "tot" not in stats.columns or int(stats["cnt"].sum()) == 0:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    tot = int(stats["tot"].sum())
    cnt = int(stats["cnt"].sum())

    def cfilter(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "c_custkey" not in df.columns:
            return pd.DataFrame({"c_custkey": pd.Series(dtype=np.int64),
                                 "c_nationkey": pd.Series(dtype=np.int64),
                                 "ac": pd.Series(dtype=np.int64)})
        bal = df["c_acctbal"].to_numpy(np.float64)
        nk = df["c_nationkey"].to_numpy(np.int64)
        ac = np.floor(bal * 100 + 0.5).astype(np.int64)
        keep = (bal > 0.0) & np.isin(nk, nations) & (ac * cnt > tot)
        return pd.DataFrame({"c_custkey": df["c_custkey"].to_numpy(np.int64)[keep],
                             "c_nationkey": nk[keep], "ac": ac[keep]})

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_acctbal"],
    ).map_batches(cfilter, batch_format="pandas")

    def okeys(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_custkey" not in df.columns:
            return pd.DataFrame({"o_custkey": pd.Series(dtype=np.int64)})
        keep = ts_epoch_us(df["o_orderdate"]) >= _Q22_CUT_US
        return pd.DataFrame(
            {"o_custkey": np.unique(df["o_custkey"].to_numpy(np.int64)[keep])}
        )

    ordf = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    ).map_batches(okeys, batch_format="pandas")

    def anti(c: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"c_nationkey": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64),
                              "s": pd.Series(dtype=np.int64)})
        if len(c) == 0 or "c_custkey" not in c.columns:
            return empty
        if len(o) and "o_custkey" in o.columns:
            c = c.loc[~np.isin(c["c_custkey"].to_numpy(np.int64),
                               np.unique(o["o_custkey"].to_numpy(np.int64)))]
        if len(c) == 0:
            return empty
        g = c.groupby("c_nationkey", as_index=False).agg(
            n=("c_custkey", "size"), s=("ac", "sum")
        )
        return g.astype(np.int64)

    parts = hash_coexchange(
        cust, ordf, "c_custkey", "o_custkey", anti, num_buckets=num_buckets
    ).to_pandas()
    if parts.empty or "c_nationkey" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    g = parts.groupby("c_nationkey", as_index=False).agg(
        n_customers=("n", "sum"), total_acctbal_cents=("s", "sum")
    )
    return g.rename(columns={"c_nationkey": "c_nationkey"}).astype(
        {c: np.int64 for c in cols}
    )[list(cols)]


SQL_IDLE_CUSTOMERS = f"""
WITH cc AS (
  SELECT c_custkey, CAST(c_nationkey AS BIGINT) AS c_nationkey,
         CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS ac
  FROM customer
  WHERE c_acctbal > 0.0
    AND c_nationkey IN {tuple(_Q22_NATIONS)}
),
s AS (
  SELECT CAST(sum(ac) AS BIGINT) AS tot, CAST(count(*) AS BIGINT) AS cnt
  FROM cc
)
SELECT c_nationkey, CAST(count(*) AS BIGINT) AS n_customers,
       CAST(sum(ac) AS BIGINT) AS total_acctbal_cents
FROM cc, s
WHERE ac * cnt > tot
  AND NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey
                  AND epoch_us(o_orderdate) >= {_Q22_CUT_US})
GROUP BY 1
"""


_TOPUSER_WIN_US = 86_400 * 1_000_000  # 1-day tumbling windows


def events_top_users_window(
    sf_dir: str, k: int = 3, num_buckets: int = 8
) -> pd.DataFrame:
    """Tumbling-window leaderboard: top-k users by event count per
    1-day window (ties broken by smaller user_id).

    100-TB plan: counts are pre-reduced per (batch, window, user), ONE
    window-keyed exchange totals them and emits only each window's
    top-k — the classic combiner + per-group heap; the driver sees
    O(windows x k) rows.  A hot window stays one bucket's problem, and
    the partial counts bound its input by distinct users, not events.
    -> (win_start_us, user_id, n_events)."""

    def epart(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame({"win": pd.Series(dtype=np.int64),
                                 "user_id": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64)})
        win = ts_epoch_us(df["ts"]) // _TOPUSER_WIN_US
        g = (pd.DataFrame({"win": win,
                           "user_id": df["user_id"].to_numpy(np.int64)})
             .groupby(["win", "user_id"], as_index=False).size()
             .rename(columns={"size": "n"}))
        return g.astype(np.int64)

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id"]
    ).map_batches(epart, batch_format="pandas")

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"win_start_us": pd.Series(dtype=np.int64),
                              "user_id": pd.Series(dtype=np.int64),
                              "n_events": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "win" not in df.columns:
            return empty
        g = df.groupby(["win", "user_id"], as_index=False)["n"].sum()
        g = g.sort_values(["win", "n", "user_id"],
                          ascending=[True, False, True], kind="mergesort")
        g = g.groupby("win", as_index=False).head(k)
        return pd.DataFrame(
            {"win_start_us": g["win"].to_numpy(np.int64) * _TOPUSER_WIN_US,
             "user_id": g["user_id"].to_numpy(np.int64),
             "n_events": g["n"].to_numpy(np.int64)}
        )

    out = hash_exchange(ev, "win", topk, num_buckets=num_buckets).to_pandas()
    if out.empty or "win_start_us" not in out.columns:
        return pd.DataFrame({"win_start_us": pd.Series(dtype=np.int64),
                             "user_id": pd.Series(dtype=np.int64),
                             "n_events": pd.Series(dtype=np.int64)})
    return out.astype(np.int64)


SQL_EVENTS_TOP_USERS_WINDOW = f"""
WITH c AS (
  SELECT (epoch_us(ts) // {_TOPUSER_WIN_US}) * {_TOPUSER_WIN_US}
           AS win_start_us,
         user_id, CAST(count(*) AS BIGINT) AS n_events
  FROM events GROUP BY 1, 2
)
SELECT CAST(win_start_us AS BIGINT) AS win_start_us,
       CAST(user_id AS BIGINT) AS user_id, n_events
FROM c
QUALIFY row_number() OVER (
  PARTITION BY win_start_us ORDER BY n_events DESC, user_id
) <= 3
"""


_Q6_LO_US = int(pd.Timestamp("1995-01-01").value // 1000)
_Q6_HI_US = int(pd.Timestamp("1996-01-01").value // 1000)


def revenue_forecast(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q6 shape — forecasting revenue change: the revenue that
    would have been kept by dropping small discounts on low-quantity
    lineitems in one year (``sum(l_extendedprice * l_discount)`` over a
    shipdate-year x discount-band x quantity filter).

    100-TB plan: the only full-size table is scanned ONCE with column
    pruning and reduced to one int64 partial per batch (no exchange at
    all — the driver folds <= n_blocks scalars).  Revenue is fixed-point
    x1e4 (price and discount each carry two decimals, so the product is
    exact at four) — no float sum order-dependence on either side.
    -> one row (revenue_x1e4, n_items); zero rows when nothing matches
    (so the hash distinguishes "no data" from "zero revenue")."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"rev": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "l_shipdate" not in df.columns:
            return empty
        t = ts_epoch_us(df["l_shipdate"])
        disc = df["l_discount"].to_numpy(np.float64)
        disc_x100 = np.floor(disc * 100 + 0.5).astype(np.int64)
        keep = (
            (t >= _Q6_LO_US) & (t < _Q6_HI_US)
            & (disc_x100 >= 5) & (disc_x100 <= 7)
            & (df["l_quantity"].to_numpy(np.float64) < 24)
        )
        if not keep.any():
            return empty
        rev = np.floor(
            df["l_extendedprice"].to_numpy(np.float64)[keep]
            * disc[keep] * 10_000 + 0.5
        ).astype(np.int64)
        return pd.DataFrame({"rev": np.asarray([rev.sum()], np.int64),
                             "n": np.asarray([len(rev)], np.int64)})

    parts = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    ).map_batches(partial, batch_format="pandas").to_pandas()
    cols = {"revenue_x1e4": np.int64, "n_items": np.int64}
    if parts.empty or "rev" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    return pd.DataFrame(
        {"revenue_x1e4": np.asarray([int(parts["rev"].sum())], np.int64),
         "n_items": np.asarray([int(parts["n"].sum())], np.int64)}
    )


SQL_REVENUE_FORECAST = f"""
SELECT CAST(sum(CAST(floor(l_extendedprice * l_discount * 10000 + 0.5)
                     AS BIGINT)) AS BIGINT) AS revenue_x1e4,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem
WHERE epoch_us(l_shipdate) >= {_Q6_LO_US}
  AND epoch_us(l_shipdate) < {_Q6_HI_US}
  AND CAST(floor(l_discount * 100 + 0.5) AS BIGINT) BETWEEN 5 AND 7
  AND l_quantity < 24
HAVING count(*) > 0
"""


_Q8_REGION = "ASIA"
_Q8_NATION = "NATION_2"
_Q8_LO_US = int(pd.Timestamp("1995-01-01").value // 1000)
_Q8_HI_US = int(pd.Timestamp("1997-01-01").value // 1000)


def national_market_share(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """TPC-H Q8 shape — national market share: within the orders of
    customers in one region over two years, the revenue share supplied
    by one nation, per order year.

    100-TB plan: supplier->nation and nation->region are broadcast
    (bounded: suppliers ~1e-5 of lineitems, nations fixed at 25 — the
    same asymmetry as ``local_supplier_volume``); lineitem revenue is
    stamped with the supplier nation in the scan batch and pre-reduced
    to (orderkey, is_target_nation) partials, then ONE keyed coexchange
    against filtered orders on orderkey and a SECOND on custkey against
    customer (both full-size sides exchange only pre-aggregated int64
    rows).  Each bucket emits <= 2x2 (year, flag) partials; the share is
    fixed-point ``(num * 1e6) // total`` on exact cent sums.
    -> (o_year, nation_revenue_cents, total_revenue_cents,
    mkt_share_x1e6), one row per year with revenue."""
    from .core import hash_coexchange

    nat = pd.read_parquet(f"{sf_dir}/nation.parquet")
    reg = pd.read_parquet(f"{sf_dir}/region.parquet")
    sup = pd.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    nat2reg = dict(
        zip(nat["n_nationkey"].astype(np.int64),
            nat["n_regionkey"].map(
                dict(zip(reg["r_regionkey"], reg["r_name"]))
            ))
    )
    nat2name = dict(zip(nat["n_nationkey"].astype(np.int64), nat["n_name"]))
    supp2target = {
        int(k): nat2name.get(int(v)) == _Q8_NATION
        for k, v in zip(sup["s_suppkey"], sup["s_nationkey"])
    }
    target_nations = {
        int(k) for k, v in nat2reg.items() if v == _Q8_REGION
    }
    supp_ref = ray.put(supp2target)

    def lpart(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_orderkey" not in df.columns:
            return pd.DataFrame({"l_orderkey": pd.Series(dtype=np.int64),
                                 "is_tgt": pd.Series(dtype=np.int64),
                                 "rc": pd.Series(dtype=np.int64)})
        s2t = ray.get(supp_ref)
        rc = np.floor(
            df["l_extendedprice"].to_numpy(np.float64)
            * (1 - df["l_discount"].to_numpy(np.float64)) * 100 + 0.5
        ).astype(np.int64)
        is_tgt = (
            df["l_suppkey"].map(s2t).fillna(False).to_numpy(bool)
        ).astype(np.int64)
        g = pd.DataFrame(
            {"l_orderkey": df["l_orderkey"].to_numpy(np.int64),
             "is_tgt": is_tgt, "rc": rc}
        ).groupby(["l_orderkey", "is_tgt"], as_index=False)["rc"].sum()
        return g.astype(np.int64)

    lip = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(lpart, batch_format="pandas")

    def ofilter(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderkey" not in df.columns:
            return pd.DataFrame({"o_orderkey": pd.Series(dtype=np.int64),
                                 "o_custkey": pd.Series(dtype=np.int64),
                                 "o_year": pd.Series(dtype=np.int64)})
        t = ts_epoch_us(df["o_orderdate"])
        keep = (t >= _Q8_LO_US) & (t < _Q8_HI_US)
        yr = df["o_orderdate"].dt.year.to_numpy(np.int64)
        return pd.DataFrame(
            {"o_orderkey": df["o_orderkey"].to_numpy(np.int64)[keep],
             "o_custkey": df["o_custkey"].to_numpy(np.int64)[keep],
             "o_year": yr[keep]}
        )

    ordf = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(ofilter, batch_format="pandas")

    def ojoin(l: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({c: pd.Series(dtype=np.int64)
                              for c in ("o_custkey", "o_year", "is_tgt", "rc")})
        if (len(l) == 0 or "l_orderkey" not in l.columns
                or len(o) == 0 or "o_orderkey" not in o.columns):
            return empty
        j = l.merge(o, left_on="l_orderkey", right_on="o_orderkey")
        if len(j) == 0:
            return empty
        g = j.groupby(["o_custkey", "o_year", "is_tgt"], as_index=False)["rc"].sum()
        return g.astype(np.int64)

    per_cust = hash_coexchange(
        lip, ordf, "l_orderkey", "o_orderkey", ojoin, num_buckets=num_buckets
    )

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    tgt_ref = ray.put(target_nations)

    def cjoin(l: pd.DataFrame, c: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({c_: pd.Series(dtype=np.int64)
                              for c_ in ("o_year", "is_tgt", "rc")})
        if (len(l) == 0 or "o_custkey" not in l.columns
                or len(c) == 0 or "c_custkey" not in c.columns):
            return empty
        tgt = ray.get(tgt_ref)
        c = c.loc[c["c_nationkey"].astype(np.int64).isin(list(tgt))]
        j = l.merge(c, left_on="o_custkey", right_on="c_custkey")
        if len(j) == 0:
            return empty
        g = j.groupby(["o_year", "is_tgt"], as_index=False)["rc"].sum()
        return g.astype(np.int64)

    parts = hash_coexchange(
        per_cust, cust, "o_custkey", "c_custkey", cjoin, num_buckets=num_buckets
    ).to_pandas()
    cols = {"o_year": np.int64, "nation_revenue_cents": np.int64,
            "total_revenue_cents": np.int64, "mkt_share_x1e6": np.int64}
    if parts.empty or "o_year" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    tot = parts.groupby("o_year")["rc"].sum()
    num = parts.loc[parts["is_tgt"] == 1].groupby("o_year")["rc"].sum()
    num = num.reindex(tot.index, fill_value=0)
    out = pd.DataFrame(
        {"o_year": tot.index.to_numpy(np.int64),
         "nation_revenue_cents": num.to_numpy(np.int64),
         "total_revenue_cents": tot.to_numpy(np.int64)}
    )
    out = out[out["total_revenue_cents"] > 0]
    out["mkt_share_x1e6"] = (
        out["nation_revenue_cents"].map(int).map(lambda v: v * 1_000_000)
        // out["total_revenue_cents"].map(int)
    ).astype(np.int64)
    return out.sort_values("o_year", ignore_index=True)


SQL_NATIONAL_MARKET_SHARE = f"""
WITH l AS (
  SELECT CAST(extract(year FROM o_orderdate) AS BIGINT) AS o_year,
         CASE WHEN sn.n_name = '{_Q8_NATION}' THEN 1 ELSE 0 END AS is_tgt,
         CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
              AS BIGINT) AS rc
  FROM lineitem
  JOIN orders ON o_orderkey = l_orderkey
  JOIN customer ON c_custkey = o_custkey
  JOIN nation cn ON cn.n_nationkey = c_nationkey
  JOIN region rn ON rn.r_regionkey = cn.n_regionkey
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation sn ON sn.n_nationkey = s_nationkey
  WHERE rn.r_name = '{_Q8_REGION}'
    AND epoch_us(o_orderdate) >= {_Q8_LO_US}
    AND epoch_us(o_orderdate) < {_Q8_HI_US}
),
a AS (
  SELECT o_year,
         CAST(sum(CASE WHEN is_tgt = 1 THEN rc ELSE 0 END) AS BIGINT)
           AS nation_revenue_cents,
         CAST(sum(rc) AS BIGINT) AS total_revenue_cents
  FROM l GROUP BY 1
)
SELECT o_year, nation_revenue_cents, total_revenue_cents,
       CAST((CAST(nation_revenue_cents AS HUGEINT) * 1000000)
            // total_revenue_cents AS BIGINT) AS mkt_share_x1e6
FROM a WHERE total_revenue_cents > 0 ORDER BY o_year
"""


_Q9_WORD = "bolt"


def product_profit(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """TPC-H Q9 shape — product-type profit: for every lineitem whose
    part name contains one word, profit per (supplier nation, order
    year).  This schema has no partsupp/supplycost, so cost =
    ``p_retailprice * l_quantity`` (the reference Q9 uses
    ``ps_supplycost * l_quantity`` — same join/aggregate shape).

    100-TB plan: supplier->nation is broadcast (bounded small side);
    part is NOT broadcast (it scales with SF) — the name filter runs
    inside the part scan and ONE keyed coexchange on partkey attaches
    part price to lineitem partials, pre-reduced to (orderkey, nation)
    rows; a SECOND coexchange on orderkey attaches the order year.
    Profit is exact integer cents (quantities are integral, so
    ``price_cents * qty`` is exact).  Each bucket emits <= nations x
    years partials.  -> (supp_nation, o_year, profit_cents)."""
    from .core import hash_coexchange

    nat = pd.read_parquet(f"{sf_dir}/nation.parquet")
    sup = pd.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    nat2name = dict(zip(nat["n_nationkey"].astype(np.int64), nat["n_name"]))
    supp2nat = {
        int(k): nat2name.get(int(v))
        for k, v in zip(sup["s_suppkey"], sup["s_nationkey"])
    }
    supp_ref = ray.put(supp2nat)

    def lpart(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"l_partkey": np.int64, "l_orderkey": np.int64,
                "rc": np.int64, "qty": np.int64}
        if len(df) == 0 or "l_orderkey" not in df.columns:
            return pd.DataFrame({**{c: pd.Series(dtype=t)
                                    for c, t in cols.items()},
                                 "nation": pd.Series(dtype=object)})
        s2n = ray.get(supp_ref)
        rc = np.floor(
            df["l_extendedprice"].to_numpy(np.float64)
            * (1 - df["l_discount"].to_numpy(np.float64)) * 100 + 0.5
        ).astype(np.int64)
        return pd.DataFrame(
            {"l_partkey": df["l_partkey"].to_numpy(np.int64),
             "l_orderkey": df["l_orderkey"].to_numpy(np.int64),
             "rc": rc,
             "qty": df["l_quantity"].to_numpy(np.float64).astype(np.int64),
             "nation": df["l_suppkey"].map(s2n).to_numpy(object)}
        )

    lip = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_orderkey", "l_suppkey", "l_quantity",
                 "l_extendedprice", "l_discount"],
    ).map_batches(lpart, batch_format="pandas")

    def pfilter(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "p_partkey" not in df.columns:
            return pd.DataFrame({"p_partkey": pd.Series(dtype=np.int64),
                                 "price_cents": pd.Series(dtype=np.int64)})
        keep = df["p_name"].str.contains(_Q9_WORD, regex=False).to_numpy(bool)
        pc = np.floor(
            df["p_retailprice"].to_numpy(np.float64) * 100 + 0.5
        ).astype(np.int64)
        return pd.DataFrame(
            {"p_partkey": df["p_partkey"].to_numpy(np.int64)[keep],
             "price_cents": pc[keep]}
        )

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_name", "p_retailprice"],
    ).map_batches(pfilter, batch_format="pandas")

    def pjoin(l: pd.DataFrame, p: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"l_orderkey": pd.Series(dtype=np.int64),
                              "nation": pd.Series(dtype=object),
                              "profit": pd.Series(dtype=np.int64)})
        if (len(l) == 0 or "l_partkey" not in l.columns
                or len(p) == 0 or "p_partkey" not in p.columns):
            return empty
        j = l.merge(p, left_on="l_partkey", right_on="p_partkey")
        if len(j) == 0:
            return empty
        j["profit"] = j["rc"] - j["price_cents"] * j["qty"]
        g = j.groupby(["l_orderkey", "nation"], as_index=False)["profit"].sum()
        return g.astype({"l_orderkey": np.int64, "profit": np.int64})

    per_order = hash_coexchange(
        lip, part, "l_partkey", "p_partkey", pjoin, num_buckets=num_buckets
    )

    def oyear(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderkey" not in df.columns:
            return pd.DataFrame({"o_orderkey": pd.Series(dtype=np.int64),
                                 "o_year": pd.Series(dtype=np.int64)})
        return pd.DataFrame(
            {"o_orderkey": df["o_orderkey"].to_numpy(np.int64),
             "o_year": df["o_orderdate"].dt.year.to_numpy(np.int64)}
        )

    ordf = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    ).map_batches(oyear, batch_format="pandas")

    def ojoin(l: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"nation": pd.Series(dtype=object),
                              "o_year": pd.Series(dtype=np.int64),
                              "profit": pd.Series(dtype=np.int64)})
        if (len(l) == 0 or "l_orderkey" not in l.columns
                or len(o) == 0 or "o_orderkey" not in o.columns):
            return empty
        j = l.merge(o, left_on="l_orderkey", right_on="o_orderkey")
        if len(j) == 0:
            return empty
        g = j.groupby(["nation", "o_year"], as_index=False)["profit"].sum()
        return g.astype({"o_year": np.int64, "profit": np.int64})

    parts = hash_coexchange(
        per_order, ordf, "l_orderkey", "o_orderkey", ojoin,
        num_buckets=num_buckets,
    ).to_pandas()
    cols = {"supp_nation": object, "o_year": np.int64,
            "profit_cents": np.int64}
    if parts.empty or "nation" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    g = parts.groupby(["nation", "o_year"], as_index=False)["profit"].sum()
    g = g.rename(columns={"nation": "supp_nation", "profit": "profit_cents"})
    g["o_year"] = g["o_year"].astype(np.int64)
    g["profit_cents"] = g["profit_cents"].astype(np.int64)
    return g.sort_values(["supp_nation", "o_year"], ignore_index=True)


SQL_PRODUCT_PROFIT = f"""
SELECT sn.n_name AS supp_nation,
       CAST(extract(year FROM o_orderdate) AS BIGINT) AS o_year,
       CAST(sum(
         CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
              AS BIGINT)
         - CAST(floor(p_retailprice * 100 + 0.5) AS BIGINT)
           * CAST(l_quantity AS BIGINT)
       ) AS BIGINT) AS profit_cents
FROM lineitem
JOIN part ON p_partkey = l_partkey
JOIN orders ON o_orderkey = l_orderkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation sn ON sn.n_nationkey = s_nationkey
WHERE p_name LIKE '%{_Q9_WORD}%'
GROUP BY 1, 2 ORDER BY 1, 2
"""


_Q12_LO_US = int(pd.Timestamp("1996-01-01").value // 1000)
_Q12_HI_US = int(pd.Timestamp("1997-01-01").value // 1000)
_Q12_LATE_US = 45 * 86_400 * 1_000_000  # shipped > 45 days after order


def late_shipments(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """TPC-H Q12 shape — shipping-mode/priority analysis (this schema
    has no ``l_shipmode``, so the grouping dimension is
    ``l_returnflag`` and late = shipped > 45 days after the order
    date): per returnflag, how many LATE lines belonged to
    high-priority orders (1-URGENT / 2-HIGH) vs everything else, over
    one shipping year.

    100-TB plan: the ship-window filter prunes lineitem at the first
    map (only ~1/6 of rows enter the exchange) and each shipped row is
    3 packed int64/bytes columns; ONE orderkey-keyed coexchange joins
    the order's date + priority class, and every bucket collapses to
    <= 3 (returnflag, hi, lo) partials — the driver folds
    <= 3 x buckets rows.  -> (l_returnflag, high_line_count,
    low_line_count)."""
    from .core import hash_coexchange

    def lproj(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_orderkey" not in df.columns:
            return pd.DataFrame({"l_orderkey": pd.Series(dtype=np.int64),
                                 "ship_us": pd.Series(dtype=np.int64),
                                 "rflag": pd.Series(dtype=object)})
        t = ts_epoch_us(df["l_shipdate"])
        keep = (t >= _Q12_LO_US) & (t < _Q12_HI_US)
        return pd.DataFrame(
            {"l_orderkey": df["l_orderkey"].to_numpy(np.int64)[keep],
             "ship_us": t[keep],
             "rflag": df["l_returnflag"].to_numpy()[keep]}
        )

    lip = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_shipdate", "l_returnflag"],
    ).map_batches(lproj, batch_format="pandas")

    def oproj(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderkey" not in df.columns:
            return pd.DataFrame({"o_orderkey": pd.Series(dtype=np.int64),
                                 "o_date_us": pd.Series(dtype=np.int64),
                                 "hi": pd.Series(dtype=np.int64)})
        prio = df["o_orderpriority"].to_numpy()
        return pd.DataFrame(
            {"o_orderkey": df["o_orderkey"].to_numpy(np.int64),
             "o_date_us": ts_epoch_us(df["o_orderdate"]),
             "hi": np.isin(prio, ("1-URGENT", "2-HIGH")).astype(np.int64)}
        )

    ordf = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(oproj, batch_format="pandas")

    def pjoin(l: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"rflag": pd.Series(dtype=object),
                              "hi_n": pd.Series(dtype=np.int64),
                              "lo_n": pd.Series(dtype=np.int64)})
        if (len(l) == 0 or "l_orderkey" not in l.columns
                or len(o) == 0 or "o_orderkey" not in o.columns):
            return empty
        j = l.merge(o, left_on="l_orderkey", right_on="o_orderkey")
        j = j.loc[j["ship_us"].to_numpy(np.int64)
                  > j["o_date_us"].to_numpy(np.int64) + _Q12_LATE_US]
        if len(j) == 0:
            return empty
        hi = j["hi"].to_numpy(np.int64)
        g = pd.DataFrame({"rflag": j["rflag"].to_numpy(),
                          "hi_n": hi, "lo_n": 1 - hi})
        return g.groupby("rflag", as_index=False)[["hi_n", "lo_n"]].sum()

    parts = hash_coexchange(
        lip, ordf, "l_orderkey", "o_orderkey", pjoin, num_buckets=num_buckets
    ).to_pandas()
    cols = {"l_returnflag": object, "high_line_count": np.int64,
            "low_line_count": np.int64}
    if parts.empty or "rflag" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    g = parts.groupby("rflag", as_index=False)[["hi_n", "lo_n"]].sum()
    return pd.DataFrame(
        {"l_returnflag": g["rflag"],
         "high_line_count": g["hi_n"].to_numpy(np.int64),
         "low_line_count": g["lo_n"].to_numpy(np.int64)}
    ).sort_values("l_returnflag", ignore_index=True)


SQL_LATE_SHIPMENTS = f"""
SELECT l_returnflag,
       CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
       CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
FROM lineitem JOIN orders ON o_orderkey = l_orderkey
WHERE epoch_us(l_shipdate) >= {_Q12_LO_US}
  AND epoch_us(l_shipdate) < {_Q12_HI_US}
  AND epoch_us(l_shipdate) > epoch_us(o_orderdate) + {_Q12_LATE_US}
GROUP BY 1 ORDER BY 1
"""


def important_parts(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """TPC-H Q11 shape — important stock identification (no partsupp
    table here, so "value" = shipped revenue): the parts whose total
    lineitem revenue exceeds 1.5x the mean per-part revenue.  The
    threshold is a fraction of a GLOBAL aggregate, the part Q11 adds
    over a plain groupby-having.

    100-TB plan: lineitem pre-reduces per (batch, partkey) to integer
    cents, ONE partkey-keyed exchange totals each part exactly once,
    and the global (total, n_parts) pair is folded from tiny per-batch
    partials of that (already per-part) dataset with PYTHON ints — no
    int64 overflow at any scale, no second pass over lineitem.  The
    1.5x-mean test ``2*n_parts*c > 3*total`` is applied as
    ``c > (3*total) // (2*n_parts)`` (exact for integers), so the
    filter is a vectorized int64 compare.  -> (l_partkey,
    revenue_cents) for the qualifying parts only."""

    def lpart(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_partkey" not in df.columns:
            return pd.DataFrame({"l_partkey": pd.Series(dtype=np.int64),
                                 "cents": pd.Series(dtype=np.int64)})
        cents = np.floor(
            df["l_extendedprice"].to_numpy(np.float64) * 100 + 0.5
        ).astype(np.int64)
        g = pd.Series(cents).groupby(
            df["l_partkey"].to_numpy(np.int64)).sum()
        return pd.DataFrame({"l_partkey": g.index.to_numpy(np.int64),
                             "cents": g.to_numpy(np.int64)})

    lip = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_extendedprice"]
    ).map_batches(lpart, batch_format="pandas")

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_partkey" not in df.columns:
            return pd.DataFrame({"l_partkey": pd.Series(dtype=np.int64),
                                 "cents": pd.Series(dtype=np.int64)})
        g = df.groupby("l_partkey", as_index=False)["cents"].sum()
        return g.astype({"l_partkey": np.int64, "cents": np.int64})

    # Exchange is eager: the per-part dataset below reads stored bucket
    # refs, so consuming it twice (scalar fold + filter) re-reads, not
    # re-shuffles.
    parts = hash_exchange(lip, "l_partkey", per_part,
                          num_buckets=num_buckets)

    def scalar(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "cents" not in df.columns:
            return pd.DataFrame({"tot": pd.Series(dtype=object),
                                 "np_": pd.Series(dtype=np.int64)})
        # decimal-string partial: the driver folds PYTHON ints, exact
        # past int64 (ADVICE r3 overflow discipline)
        return pd.DataFrame(
            {"tot": [str(int(df["cents"].to_numpy(np.int64).sum()))],
             "np_": np.asarray([len(df)], dtype=np.int64)}
        )

    sc = parts.map_batches(scalar, batch_format="pandas").to_pandas()
    total = sum(int(s) for s in sc["tot"]) if len(sc) else 0
    n_parts = int(sc["np_"].sum()) if len(sc) else 0
    out_cols = {"l_partkey": np.int64, "revenue_cents": np.int64}
    if n_parts == 0:
        return pd.DataFrame(
            {c: pd.Series(dtype=t) for c, t in out_cols.items()})
    # 2*np*c > 3*total  <=>  c > (3*total) // (2*np) for integer c
    thr = (3 * total) // (2 * n_parts)

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "cents" not in df.columns:
            return pd.DataFrame(
                {c: pd.Series(dtype=t) for c, t in out_cols.items()})
        m = df["cents"].to_numpy(np.int64) > thr
        return pd.DataFrame(
            {"l_partkey": df["l_partkey"].to_numpy(np.int64)[m],
             "revenue_cents": df["cents"].to_numpy(np.int64)[m]}
        )

    out = parts.map_batches(keep, batch_format="pandas").to_pandas()
    if out.empty:
        return pd.DataFrame(
            {c: pd.Series(dtype=t) for c, t in out_cols.items()})
    return out.sort_values("l_partkey", ignore_index=True)


SQL_IMPORTANT_PARTS = """
WITH rc AS (
  SELECT l_partkey,
         sum(CAST(floor(l_extendedprice * 100 + 0.5) AS HUGEINT)) AS c
  FROM lineitem GROUP BY 1
),
t AS (SELECT sum(c) AS total, count(*) AS np FROM rc)
SELECT l_partkey, CAST(c AS BIGINT) AS revenue_cents
FROM rc, t
WHERE 2 * np * c > 3 * total
ORDER BY l_partkey
"""


def parts_supplier_counts(
    sf_dir: str, excl_brand: str = "Brand#45", num_buckets: int = 8
) -> pd.DataFrame:
    """TPC-H Q16 shape — parts/supplier relationship: per (brand, type,
    size), how many DISTINCT suppliers shipped that part, excluding one
    brand and every supplier with a negative account balance (the
    "customer complaints" stand-in).

    100-TB plan: three linear keyed exchanges, no broadcast of the
    supplier table.  (1) lineitem pre-dedups (partkey, suppkey) per
    batch; a suppkey-keyed coexchange against the NEGATIVE suppliers
    anti-joins and finishes the global pair dedup (all rows of one
    suppkey share a bucket).  (2) a partkey-keyed coexchange against
    the brand-filtered part table attaches (brand, type, size).  (3) a
    composite-key exchange dedups (brand, type, size, suppkey) globally
    and counts.  -> (p_brand, p_type, p_size, supplier_cnt)."""
    from .core import hash_coexchange, hash_exchange

    def lpairs(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_partkey" not in df.columns:
            return pd.DataFrame({"l_partkey": pd.Series(dtype=np.int64),
                                 "l_suppkey": pd.Series(dtype=np.int64)})
        return df[["l_partkey", "l_suppkey"]].drop_duplicates().astype(
            {"l_partkey": np.int64, "l_suppkey": np.int64})

    pairs = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    ).map_batches(lpairs, batch_format="pandas")

    neg = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_acctbal"]
    ).map_batches(
        lambda df: (
            df.loc[df["s_acctbal"] < 0, ["s_suppkey"]].astype(np.int64)
            if len(df) and "s_suppkey" in df.columns
            else pd.DataFrame({"s_suppkey": pd.Series(dtype=np.int64)})
        ),
        batch_format="pandas",
    )

    def anti(p: pd.DataFrame, s: pd.DataFrame) -> pd.DataFrame:
        if len(p) == 0 or "l_partkey" not in p.columns:
            return pd.DataFrame({"l_partkey": pd.Series(dtype=np.int64),
                                 "l_suppkey": pd.Series(dtype=np.int64)})
        p = p.drop_duplicates()  # bucket holds every copy of a suppkey
        if len(s) and "s_suppkey" in s.columns:
            bad = s["s_suppkey"].to_numpy(np.int64)
            p = p.loc[~np.isin(p["l_suppkey"].to_numpy(np.int64), bad)]
        return p

    clean = hash_coexchange(
        pairs, neg, "l_suppkey", "s_suppkey", anti, num_buckets=num_buckets
    )

    def pproj(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"p_partkey": pd.Series(dtype=np.int64),
                              "p_brand": pd.Series(dtype=object),
                              "p_type": pd.Series(dtype=object),
                              "p_size": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "p_partkey" not in df.columns:
            return empty
        keep = df["p_brand"].to_numpy() != excl_brand
        return pd.DataFrame(
            {"p_partkey": df["p_partkey"].to_numpy(np.int64)[keep],
             "p_brand": df["p_brand"].to_numpy()[keep],
             "p_type": df["p_type"].to_numpy()[keep],
             "p_size": df["p_size"].to_numpy(np.int64)[keep]}
        )

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_type", "p_size"],
    ).map_batches(pproj, batch_format="pandas")

    def attach(p: pd.DataFrame, q: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"k": pd.Series(dtype=object),
                              "l_suppkey": pd.Series(dtype=np.int64)})
        if (len(p) == 0 or "l_partkey" not in p.columns
                or len(q) == 0 or "p_partkey" not in q.columns):
            return empty
        j = p.merge(q, left_on="l_partkey", right_on="p_partkey")
        if len(j) == 0:
            return empty
        # \x1f separator: pandas 2.x str.cat silently drops NUL
        k = (j["p_brand"].astype(str) + "\x1f" + j["p_type"].astype(str)
             + "\x1f" + j["p_size"].astype(np.int64).astype(str))
        return pd.DataFrame({"k": k.to_numpy(),
                             "l_suppkey": j["l_suppkey"].to_numpy(np.int64)})

    tagged = hash_coexchange(
        clean, part, "l_partkey", "p_partkey", attach, num_buckets=num_buckets
    )

    def count_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"p_brand": pd.Series(dtype=object),
                              "p_type": pd.Series(dtype=object),
                              "p_size": pd.Series(dtype=np.int64),
                              "supplier_cnt": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "k" not in df.columns:
            return empty
        d = df.drop_duplicates()  # global: all rows of one k share a bucket
        g = d.groupby("k", as_index=False).size()
        bts = g["k"].str.split("\x1f", expand=True)
        return pd.DataFrame(
            {"p_brand": bts[0].to_numpy(),
             "p_type": bts[1].to_numpy(),
             "p_size": bts[2].astype(np.int64).to_numpy(),
             "supplier_cnt": g["size"].to_numpy(np.int64)}
        )

    out = hash_exchange(
        tagged, "k", count_bucket, num_buckets=num_buckets
    ).to_pandas()
    cols = {"p_brand": object, "p_type": object, "p_size": np.int64,
            "supplier_cnt": np.int64}
    if out.empty or "p_brand" not in out.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    return out.sort_values(
        ["p_brand", "p_type", "p_size"], ignore_index=True)


SQL_PARTS_SUPPLIER_COUNTS = """
SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size,
       CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE p_brand <> 'Brand#45'
  AND l_suppkey NOT IN (
    SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
"""


def corr_matrix(sf_dir: str) -> pd.DataFrame:
    """Pearson correlation matrix over lineitem's numeric columns
    (quantity, price, discount) — the feature-screening pass run before
    any model touches tabular training data.

    Exactness scheme: every moment (n, Σx, Σx², Σxy, ...) is an exact
    INTEGER over encoded columns (quantity is integral; price and
    discount in floor-cents), accumulated in 8192-row numpy chunks
    (each chunk sum fits int64: price² ~1e14 x 8192 « 2^63) and folded
    with PYTHON ints across batches — bit-identical to the SQL twin's
    HUGEINT sums at any scale.  Only the FINAL ratio runs in float64,
    through the same op sequence on both sides (int→double casts, one
    multiply, one sqrt, one divide, floor — each IEEE-exact-rounded),
    so ``corr_x1e6`` cannot drift.  One streaming map pass, a
    10-integer partial per batch, no shuffle.
    -> (pair, corr_x1e6)."""
    import math

    cols = ["l_quantity", "l_extendedprice", "l_discount"]
    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet", columns=cols)
    MOMENTS = ["n", "sx", "sy", "sz", "sxx", "syy", "szz",
               "sxy", "sxz", "syz"]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_quantity" not in df.columns:
            return pd.DataFrame({m: pd.Series(dtype=object)
                                 for m in MOMENTS})
        x = df["l_quantity"].to_numpy(np.float64).astype(np.int64)
        y = np.floor(df["l_extendedprice"].to_numpy(np.float64) * 100
                     + 0.5).astype(np.int64)
        z = np.floor(df["l_discount"].to_numpy(np.float64) * 100
                     + 0.5).astype(np.int64)
        acc = {m: 0 for m in MOMENTS}
        acc["n"] = len(x)
        for lo in range(0, len(x), 8192):
            cx, cy, cz = x[lo:lo + 8192], y[lo:lo + 8192], z[lo:lo + 8192]
            acc["sx"] += int(cx.sum()); acc["sy"] += int(cy.sum())
            acc["sz"] += int(cz.sum())
            acc["sxx"] += int((cx * cx).sum())
            acc["syy"] += int((cy * cy).sum())
            acc["szz"] += int((cz * cz).sum())
            acc["sxy"] += int((cx * cy).sum())
            acc["sxz"] += int((cx * cz).sum())
            acc["syz"] += int((cy * cz).sum())
        return pd.DataFrame({m: [str(acc[m])] for m in MOMENTS})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_empty = pd.DataFrame({"pair": pd.Series(dtype=object),
                              "corr_x1e6": pd.Series(dtype=np.int64)})
    if parts.empty or "n" not in parts.columns:
        return out_empty
    tot = {m: sum(int(v) for v in parts[m]) for m in MOMENTS}
    n = tot["n"]
    if n == 0:
        return out_empty

    def corr(sa, sb, saa, sbb, sab) -> int:
        cov = n * sab - sa * sb
        va = n * saa - sa * sa
        vb = n * sbb - sb * sb
        if va == 0 or vb == 0:
            return 0
        # float64 finish, same op ORDER as the SQL twin (exact-rounded
        # IEEE ops on identical inputs -> identical doubles)
        return int(math.floor(
            (1_000_000.0 * float(cov)) / math.sqrt(float(va) * float(vb))
        ))

    t = tot
    return pd.DataFrame(
        {"pair": ["price_discount", "qty_discount", "qty_price"],
         "corr_x1e6": np.asarray(
             [corr(t["sy"], t["sz"], t["syy"], t["szz"], t["syz"]),
              corr(t["sx"], t["sz"], t["sxx"], t["szz"], t["sxz"]),
              corr(t["sx"], t["sy"], t["sxx"], t["syy"], t["sxy"])],
             dtype=np.int64)}
    )


SQL_CORR_MATRIX = """
WITH e AS (
  SELECT CAST(l_quantity AS HUGEINT) AS x,
         CAST(floor(l_extendedprice * 100 + 0.5) AS HUGEINT) AS y,
         CAST(floor(l_discount * 100 + 0.5) AS HUGEINT) AS z
  FROM lineitem
),
s AS (
  SELECT count(*) AS n, sum(x) AS sx, sum(y) AS sy, sum(z) AS sz,
         sum(x*x) AS sxx, sum(y*y) AS syy, sum(z*z) AS szz,
         sum(x*y) AS sxy, sum(x*z) AS sxz, sum(y*z) AS syz
  FROM e
),
p AS (
  SELECT 'qty_price' AS pair, n*sxy - sx*sy AS cov,
         n*sxx - sx*sx AS va, n*syy - sy*sy AS vb, n FROM s
  UNION ALL
  SELECT 'qty_discount', n*sxz - sx*sz, n*sxx - sx*sx, n*szz - sz*sz, n
  FROM s
  UNION ALL
  SELECT 'price_discount', n*syz - sy*sz, n*syy - sy*sy, n*szz - sz*sz, n
  FROM s
)
SELECT pair,
       CASE WHEN va = 0 OR vb = 0 THEN 0
            ELSE CAST(floor((1000000.0 * CAST(cov AS DOUBLE))
                            / sqrt(CAST(va AS DOUBLE)
                                   * CAST(vb AS DOUBLE))) AS BIGINT)
       END AS corr_x1e6
FROM p WHERE n > 0
"""


def revenue_cube(sf_dir: str) -> pd.DataFrame:
    """GROUP BY CUBE over (l_returnflag, l_linestatus): revenue and
    line counts at all FOUR grouping sets — the margin-table companion
    to :func:`revenue_rollup`'s hierarchy levels.

    One fact pass: per-batch combiner partials at the finest level
    only; the three coarser sets are derived from the <= |flag x
    status| finest rows on the driver (every margin is a sum of finest
    cells), so the cube costs exactly one scan and zero shuffles.
    Integer cents keep every level hash-exact under any summation
    order.  -> (returnflag, linestatus, revenue_cents, n_lines)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_extendedprice"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_returnflag" not in df.columns:
            return pd.DataFrame({"f": pd.Series(dtype=object),
                                 "s": pd.Series(dtype=object),
                                 "revenue_cents": pd.Series(dtype=np.int64),
                                 "n_lines": pd.Series(dtype=np.int64)})
        p = df["l_extendedprice"].to_numpy(np.float64) * 100
        cents = np.trunc(p + np.sign(p) * 0.5).astype(np.int64)
        g = pd.DataFrame({"f": df["l_returnflag"].to_numpy(),
                          "s": df["l_linestatus"].to_numpy(),
                          "cents": cents}).groupby(["f", "s"], sort=False)
        out = g.agg(revenue_cents=("cents", "sum"),
                    n_lines=("cents", "size")).reset_index()
        return out.astype({"revenue_cents": np.int64, "n_lines": np.int64})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty or "f" not in parts.columns:
        # CUBE over empty input still yields the grand-total row
        return pd.DataFrame(
            {"returnflag": ["ALL"], "linestatus": ["ALL"],
             "revenue_cents": np.asarray([0], dtype=np.int64),
             "n_lines": np.asarray([0], dtype=np.int64)}
        )
    finest = parts.groupby(["f", "s"], as_index=False)[
        ["revenue_cents", "n_lines"]].sum()

    def margin(keys: list[str]) -> pd.DataFrame:
        if keys:
            m = finest.groupby(keys, as_index=False)[
                ["revenue_cents", "n_lines"]].sum()
        else:
            m = pd.DataFrame(
                {"revenue_cents": [finest["revenue_cents"].sum()],
                 "n_lines": [finest["n_lines"].sum()]})
        if "f" not in m.columns:
            m["f"] = "ALL"
        if "s" not in m.columns:
            m["s"] = "ALL"
        return m[["f", "s", "revenue_cents", "n_lines"]]

    out = pd.concat(
        [margin(["f", "s"]), margin(["f"]), margin(["s"]), margin([])],
        ignore_index=True,
    )
    return pd.DataFrame(
        {"returnflag": out["f"].to_numpy(),
         "linestatus": out["s"].to_numpy(),
         "revenue_cents": out["revenue_cents"].to_numpy(np.int64),
         "n_lines": out["n_lines"].to_numpy(np.int64)}
    ).sort_values(["returnflag", "linestatus"], ignore_index=True)


SQL_REVENUE_CUBE = """
SELECT CASE WHEN GROUPING(l_returnflag) = 1 THEN 'ALL'
            ELSE l_returnflag END AS returnflag,
       CASE WHEN GROUPING(l_linestatus) = 1 THEN 'ALL'
            ELSE l_linestatus END AS linestatus,
       CAST(COALESCE(sum(CAST(round(l_extendedprice * 100) AS BIGINT)), 0)
            AS BIGINT) AS revenue_cents,
       CAST(count(*) AS BIGINT) AS n_lines
FROM lineitem GROUP BY CUBE(l_returnflag, l_linestatus)
"""


_OLS_HUGE_BOUND = (1 << 126)  # keep every SQL intermediate in HUGEINT


def ols_price_qty(sf_dir: str) -> pd.DataFrame:
    """Ordinary-least-squares fit of line price (cents) on quantity —
    the drift-check regression run over a feature pair before training.
    Slope and intercept are EXACT fixed-point integers: both are
    rationals of the integer moment sums, emitted as floored
    ``slope_x1e6`` (cents per unit) and ``intercept_x100`` — no float
    enters the computation at all (unlike :func:`corr_matrix`, which
    needs a sqrt).

    One streaming pass, 5-integer partials per batch folded with
    python ints.  The SQL twin computes the same floored divisions in
    HUGEINT via an explicit floor-div expansion (DuckDB ``//``
    truncates toward zero on integers; Python floors — the expansion
    makes both floor).  Raises OverflowError before the oracle's
    HUGEINT would (ADVICE r3: fail loudly, never silently diverge);
    the bound is ~3e9 rows at TPC-H value ranges.
    -> one row (n, slope_x1e6, intercept_x100)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_extendedprice"],
    )
    MOMENTS = ["n", "sx", "sy", "sxx", "sxy"]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_quantity" not in df.columns:
            return pd.DataFrame({m: pd.Series(dtype=object)
                                 for m in MOMENTS})
        x = df["l_quantity"].to_numpy(np.float64).astype(np.int64)
        y = np.floor(df["l_extendedprice"].to_numpy(np.float64) * 100
                     + 0.5).astype(np.int64)
        acc = {"n": len(x), "sx": 0, "sy": 0, "sxx": 0, "sxy": 0}
        for lo in range(0, len(x), 8192):
            cx, cy = x[lo:lo + 8192], y[lo:lo + 8192]
            acc["sx"] += int(cx.sum()); acc["sy"] += int(cy.sum())
            acc["sxx"] += int((cx * cx).sum())
            acc["sxy"] += int((cx * cy).sum())
        return pd.DataFrame({m: [str(acc[m])] for m in MOMENTS})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    cols = {"n": np.int64, "slope_x1e6": np.int64,
            "intercept_x100": np.int64}
    if parts.empty or "n" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    t = {m: sum(int(v) for v in parts[m]) for m in MOMENTS}
    n, sx, sy, sxx, sxy = t["n"], t["sx"], t["sy"], t["sxx"], t["sxy"]
    cov = n * sxy - sx * sy
    vx = n * sxx - sx * sx
    if n == 0 or vx == 0:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    inum = sy * vx - cov * sx
    if max(abs(1_000_000 * cov), abs(100 * inum)) > _OLS_HUGE_BOUND:
        raise OverflowError(
            "ols_price_qty: moment products exceed the HUGEINT bound the "
            f"SQL twin computes in (n={n}); shard the input first")
    slope = (1_000_000 * cov) // vx        # python // floors
    intercept = (100 * inum) // (n * vx)
    return pd.DataFrame(
        {"n": np.asarray([n], dtype=np.int64),
         "slope_x1e6": np.asarray([slope], dtype=np.int64),
         "intercept_x100": np.asarray([intercept], dtype=np.int64)}
    )


# DuckDB integer division truncates toward zero; expand to a FLOOR
# division (denominators below are always > 0)
def _sql_floordiv(a: str, b: str) -> str:
    return f"(({a}) - (((({a}) % ({b})) + ({b})) % ({b}))) / ({b})"


SQL_OLS_PRICE_QTY = f"""
WITH e AS (
  SELECT CAST(l_quantity AS HUGEINT) AS x,
         CAST(floor(l_extendedprice * 100 + 0.5) AS HUGEINT) AS y
  FROM lineitem
),
s AS (
  SELECT count(*) AS n, sum(x) AS sx, sum(y) AS sy,
         sum(x*x) AS sxx, sum(x*y) AS sxy
  FROM e
),
m AS (
  SELECT n, n*sxy - sx*sy AS cov, n*sxx - sx*sx AS vx,
         sy*(n*sxx - sx*sx) - (n*sxy - sx*sy)*sx AS inum
  FROM s
)
SELECT CAST(n AS BIGINT) AS n,
       CAST({_sql_floordiv('1000000 * cov', 'vx')} AS BIGINT)
         AS slope_x1e6,
       CAST({_sql_floordiv('100 * inum', 'n * vx')} AS BIGINT)
         AS intercept_x100
FROM m WHERE n > 0 AND vx <> 0
"""


def session_duration_quantiles(
    sf_dir: str, gap_s: int = 1800
) -> pd.DataFrame:
    """Composite: gap-based sessionization -> per-session durations ->
    EXACT distributed quantiles — the engagement-distribution readout
    (how long are sessions, really) layered from two existing
    primitives.

    One user-keyed partition pass emits a duration row per session
    (vectorized: sort + diff + segment min/max inside each bucket);
    :func:`analytics.exact_quantiles` then selects the exact order
    statistics over that derived dataset without ever collecting it.
    -> (q, value) with value in microseconds."""
    from .analytics import exact_quantiles

    gap_us = gap_s * 1_000_000
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def durations(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame({"dur_us": pd.Series(dtype=np.int64)})
        out = []
        for _, g in df.groupby("user_id", sort=False):
            t = np.sort(ts_epoch_us(g["ts"]))
            new = np.ones(len(t), dtype=bool)
            new[1:] = np.diff(t) > gap_us
            sid = np.cumsum(new)
            d = pd.Series(t).groupby(sid).agg(["min", "max"])
            out.append(
                (d["max"] - d["min"]).to_numpy(np.int64))
        return pd.DataFrame(
            {"dur_us": np.concatenate(out) if out
             else np.empty(0, np.int64)})

    durs = hash_exchange(ds, "user_id", durations)
    out = exact_quantiles(durs, "dur_us", [0.5, 0.9, 0.99])
    if len(out):
        out["value"] = out["value"].astype(np.int64)
    else:
        out = pd.DataFrame({"q": pd.Series(dtype=np.float64),
                            "value": pd.Series(dtype=np.int64)})
    return out


SQL_SESSION_DURATION_QUANTILES = """
WITH ordered AS (
  SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS t,
         lag(CAST(epoch_us(ts) AS BIGINT))
           OVER (PARTITION BY user_id ORDER BY ts) AS prev_t
  FROM events
),
marks AS (
  SELECT user_id, t,
         CASE WHEN prev_t IS NULL OR t - prev_t > 1800000000
              THEN 1 ELSE 0 END AS new_s
  FROM ordered
),
sess AS (
  SELECT user_id, t,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY t
                          ROWS UNBOUNDED PRECEDING) AS sid
  FROM marks
),
d AS (SELECT user_id, sid, max(t) - min(t) AS dur_us
      FROM sess GROUP BY 1, 2)
SELECT q, CAST(value AS BIGINT) AS value FROM (
  SELECT unnest([0.5, 0.9, 0.99]) AS q,
         unnest(quantile_disc(dur_us, [0.5, 0.9, 0.99])) AS value
  FROM d
) WHERE value IS NOT NULL
"""


def monthly_revenue_zscore(sf_dir: str) -> pd.DataFrame:
    """Seasonal anomaly card: monthly revenue plus its z-score against
    the all-months distribution — the sanity plot drawn before trusting
    any time-partitioned pipeline output.

    Exactness: monthly sums are integer cents folded from per-batch
    partials (one pass, <= |months| rows per batch, no shuffle); the
    z-score uses the algebraic identity z = (n*x - T)/sqrt(n*T2 - T^2)
    whose numerator and radicand are EXACT integers, with only the
    final sqrt/divide/floor in float64 through the same op sequence as
    the SQL twin.  -> (month_us, revenue_cents, z_x1e6)."""
    import math

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderdate" not in df.columns:
            return pd.DataFrame({"month_us": pd.Series(dtype=np.int64),
                                 "cents": pd.Series(dtype=np.int64)})
        d = df["o_orderdate"]
        if isinstance(d.dtype, pd.DatetimeTZDtype):
            d = d.dt.tz_convert("UTC").dt.tz_localize(None)
        m = (d.to_numpy().astype("datetime64[M]")
             .astype("datetime64[us]").astype(np.int64))
        p = df["o_totalprice"].to_numpy(np.float64) * 100
        cents = np.trunc(p + np.sign(p) * 0.5).astype(np.int64)
        g = pd.Series(cents).groupby(m).sum()
        return pd.DataFrame({"month_us": g.index.to_numpy(np.int64),
                             "cents": g.to_numpy(np.int64)})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    cols = {"month_us": np.int64, "revenue_cents": np.int64,
            "z_x1e6": np.int64}
    if parts.empty or "month_us" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    g = parts.groupby("month_us", as_index=False)["cents"].sum()
    x = [int(v) for v in g["cents"]]  # python ints: T2 is past int64
    n, T, T2 = len(x), sum(x), sum(v * v for v in x)
    rad = n * T2 - T * T
    if rad == 0:
        z = np.zeros(n, dtype=np.int64)
    else:
        s = math.sqrt(float(rad))
        z = np.asarray(
            [int(math.floor((1_000_000.0 * float(n * v - T)) / s))
             for v in x],
            dtype=np.int64)
    return pd.DataFrame(
        {"month_us": g["month_us"].to_numpy(np.int64),
         "revenue_cents": g["cents"].to_numpy(np.int64),
         "z_x1e6": z}
    ).sort_values("month_us", ignore_index=True)


SQL_MONTHLY_REVENUE_ZSCORE = """
WITH m AS (
  SELECT CAST(epoch_us(date_trunc('month', o_orderdate)) AS BIGINT)
           AS month_us,
         sum(CAST(round(o_totalprice * 100) AS HUGEINT)) AS cents
  FROM orders GROUP BY 1
),
s AS (SELECT count(*) AS n, sum(cents) AS t,
             sum(cents * cents) AS t2
      FROM m)
SELECT month_us, CAST(cents AS BIGINT) AS revenue_cents,
       CASE WHEN n * t2 - t * t = 0 THEN 0
            ELSE CAST(floor((1000000.0 * CAST(n * cents - t AS DOUBLE))
                            / sqrt(CAST(n * t2 - t * t AS DOUBLE)))
                      AS BIGINT)
       END AS z_x1e6
FROM m, s ORDER BY 1
"""


_Q20_LO_US = int(pd.Timestamp("1996-01-01").value // 1000)
_Q20_HI_US = int(pd.Timestamp("1997-01-01").value // 1000)


def excess_share_suppliers(
    sf_dir: str, word: str = _Q9_WORD, num_buckets: int = 8
) -> pd.DataFrame:
    """TPC-H Q20 shape — potential part promotion (no partsupp table,
    so "excess stock" = shipped share): suppliers who shipped MORE THAN
    HALF of some matching part's total quantity in one year.  This
    completes the 22-shape TPC-H sweep.

    100-TB plan: the year filter + per-(batch, partkey, suppkey)
    quantity combiner shrink lineitem before ONE partkey-keyed
    coexchange against the name-filtered part slice; the per-part
    total, the 2*sq > tq majority test, and the first suppkey dedup
    all complete inside the partkey bucket.  A second suppkey-keyed
    coexchange attaches names and finishes the global supplier
    dedup.  -> (s_suppkey, s_name)."""
    from .core import hash_coexchange

    def lqty(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"l_partkey": pd.Series(dtype=np.int64),
                              "l_suppkey": pd.Series(dtype=np.int64),
                              "q": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "l_partkey" not in df.columns:
            return empty
        t = ts_epoch_us(df["l_shipdate"])
        keep = (t >= _Q20_LO_US) & (t < _Q20_HI_US)
        if not keep.any():
            return empty
        g = pd.DataFrame(
            {"l_partkey": df["l_partkey"].to_numpy(np.int64)[keep],
             "l_suppkey": df["l_suppkey"].to_numpy(np.int64)[keep],
             "q": df["l_quantity"].to_numpy(np.float64)[keep]
                  .astype(np.int64)}
        ).groupby(["l_partkey", "l_suppkey"], as_index=False)["q"].sum()
        return g.astype(np.int64)

    lip = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
    ).map_batches(lqty, batch_format="pandas")

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    ).map_batches(
        lambda df: (
            df.loc[df["p_name"].str.contains(word), ["p_partkey"]]
            .astype(np.int64)
            if len(df) and "p_partkey" in df.columns
            else pd.DataFrame({"p_partkey": pd.Series(dtype=np.int64)})
        ),
        batch_format="pandas",
    )

    def majority(l: pd.DataFrame, p: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"l_suppkey": pd.Series(dtype=np.int64)})
        if (len(l) == 0 or "l_partkey" not in l.columns
                or len(p) == 0 or "p_partkey" not in p.columns):
            return empty
        j = l.merge(p, left_on="l_partkey", right_on="p_partkey")
        if len(j) == 0:
            return empty
        g = j.groupby(["l_partkey", "l_suppkey"], as_index=False)["q"].sum()
        tq = g.groupby("l_partkey")["q"].transform("sum").to_numpy(np.int64)
        win = g.loc[2 * g["q"].to_numpy(np.int64) > tq, ["l_suppkey"]]
        return win.drop_duplicates().astype(np.int64)

    winners = hash_coexchange(
        lip, part, "l_partkey", "p_partkey", majority, num_buckets=num_buckets
    )

    sup = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )

    def names(w: pd.DataFrame, s: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"s_suppkey": pd.Series(dtype=np.int64),
                              "s_name": pd.Series(dtype=object)})
        if (len(w) == 0 or "l_suppkey" not in w.columns
                or len(s) == 0 or "s_suppkey" not in s.columns):
            return empty
        w = w.drop_duplicates()  # global: all copies of a suppkey co-locate
        j = w.merge(s, left_on="l_suppkey", right_on="s_suppkey")
        return j[["s_suppkey", "s_name"]].astype({"s_suppkey": np.int64})

    out = hash_coexchange(
        winners, sup, "l_suppkey", "s_suppkey", names, num_buckets=num_buckets
    ).to_pandas()
    if out.empty or "s_suppkey" not in out.columns:
        return pd.DataFrame({"s_suppkey": pd.Series(dtype=np.int64),
                             "s_name": pd.Series(dtype=object)})
    return out.sort_values("s_suppkey", ignore_index=True)


SQL_EXCESS_SHARE_SUPPLIERS = f"""
WITH f AS (
  SELECT l_partkey, l_suppkey, CAST(l_quantity AS BIGINT) AS q
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE p_name LIKE '%{_Q9_WORD}%'
    AND epoch_us(l_shipdate) >= {_Q20_LO_US}
    AND epoch_us(l_shipdate) < {_Q20_HI_US}
),
ps AS (SELECT l_partkey, l_suppkey, sum(q) AS sq FROM f GROUP BY 1, 2),
pt AS (SELECT l_partkey, sum(sq) AS tq FROM ps GROUP BY 1)
SELECT DISTINCT s.s_suppkey, s.s_name
FROM ps JOIN pt USING (l_partkey)
JOIN supplier s ON s.s_suppkey = ps.l_suppkey
WHERE 2 * ps.sq > pt.tq
ORDER BY 1
"""


def revenue_drawdown(sf_dir: str) -> pd.DataFrame:
    """Cumulative-revenue drawdown by month: running total, running
    peak, and peak-to-current gap — the monotonicity audit of any
    incrementally-ingested revenue rollup (a positive drawdown month
    means a backfill or correction landed out of order).

    One combiner pass to <= |months| integer-cent rows; the ordered
    scan (cumsum + running max) runs on the driver over that tiny
    aggregate — sequential semantics never touch the fact table.
    -> (month_us, revenue_cents, cum_cents, drawdown_cents)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderdate" not in df.columns:
            return pd.DataFrame({"month_us": pd.Series(dtype=np.int64),
                                 "cents": pd.Series(dtype=np.int64)})
        d = df["o_orderdate"]
        if isinstance(d.dtype, pd.DatetimeTZDtype):
            d = d.dt.tz_convert("UTC").dt.tz_localize(None)
        m = (d.to_numpy().astype("datetime64[M]")
             .astype("datetime64[us]").astype(np.int64))
        p = df["o_totalprice"].to_numpy(np.float64) * 100
        cents = np.trunc(p + np.sign(p) * 0.5).astype(np.int64)
        g = pd.Series(cents).groupby(m).sum()
        return pd.DataFrame({"month_us": g.index.to_numpy(np.int64),
                             "cents": g.to_numpy(np.int64)})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    cols = {"month_us": np.int64, "revenue_cents": np.int64,
            "cum_cents": np.int64, "drawdown_cents": np.int64}
    if parts.empty or "month_us" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    g = parts.groupby("month_us", as_index=False)["cents"].sum()
    g = g.sort_values("month_us", ignore_index=True)
    cum = g["cents"].to_numpy(np.int64).cumsum()
    peak = np.maximum.accumulate(cum)
    return pd.DataFrame(
        {"month_us": g["month_us"].to_numpy(np.int64),
         "revenue_cents": g["cents"].to_numpy(np.int64),
         "cum_cents": cum, "drawdown_cents": peak - cum}
    )


SQL_REVENUE_DRAWDOWN = """
WITH m AS (
  SELECT CAST(epoch_us(date_trunc('month', o_orderdate)) AS BIGINT)
           AS month_us,
         CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS revenue_cents
  FROM orders GROUP BY 1
),
w AS (
  SELECT month_us, revenue_cents,
         sum(revenue_cents) OVER (ORDER BY month_us) AS cum
  FROM m
)
SELECT month_us, revenue_cents, CAST(cum AS BIGINT) AS cum_cents,
       CAST(max(cum) OVER (ORDER BY month_us) - cum AS BIGINT)
         AS drawdown_cents
FROM w ORDER BY month_us
"""


def events_ewma(sf_dir: str) -> pd.DataFrame:
    """Exponentially-weighted moving average of daily event value per
    type (alpha = 1/2): the streaming smoother behind rate dashboards,
    in INTEGER fixed point — ``ewma_n = (x_n + ewma_{n-1}) // 2`` — so
    the recursion is hash-exact against the SQL twin's recursive CTE.

    One combiner pass to <= |types x days| integer-cent rows; the
    per-type ordered recursion runs on the driver over that tiny
    aggregate.  -> (event_type, day_us, day_cents, ewma_cents)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "ts" not in df.columns:
            return pd.DataFrame({"event_type": pd.Series(dtype=object),
                                 "day_us": pd.Series(dtype=np.int64),
                                 "cents": pd.Series(dtype=np.int64)})
        d = df["ts"]
        if isinstance(d.dtype, pd.DatetimeTZDtype):
            d = d.dt.tz_convert("UTC").dt.tz_localize(None)
        day = (d.to_numpy().astype("datetime64[D]")
               .astype("datetime64[us]").astype(np.int64))
        cents = np.floor(
            df["value"].to_numpy(np.float64) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                          "day_us": day, "cents": cents}).groupby(
            ["event_type", "day_us"], as_index=False)["cents"].sum()
        return g.astype({"day_us": np.int64, "cents": np.int64})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    cols = {"event_type": object, "day_us": np.int64,
            "day_cents": np.int64, "ewma_cents": np.int64}
    if parts.empty or "event_type" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    g = parts.groupby(["event_type", "day_us"], as_index=False)[
        "cents"].sum().sort_values(["event_type", "day_us"],
                                   ignore_index=True)
    out = []
    for et, grp in g.groupby("event_type", sort=False):
        x = grp["cents"].to_numpy(np.int64)
        e = np.empty(len(x), dtype=np.int64)
        acc = int(x[0])
        e[0] = acc
        for i in range(1, len(x)):
            acc = (int(x[i]) + acc) // 2
            e[i] = acc
        out.append(pd.DataFrame(
            {"event_type": et, "day_us": grp["day_us"].to_numpy(np.int64),
             "day_cents": x, "ewma_cents": e}))
    return pd.concat(out, ignore_index=True)


SQL_EVENTS_EWMA = """
WITH RECURSIVE d AS (
  SELECT event_type,
         CAST(epoch_us(date_trunc('day', ts)) AS BIGINT) AS day_us,
         CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS x,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY date_trunc('day', ts)) AS rn
  FROM events GROUP BY 1, 2, date_trunc('day', ts)
),
e AS (
  SELECT event_type, day_us, x, rn, x AS ewma FROM d WHERE rn = 1
  UNION ALL
  SELECT d.event_type, d.day_us, d.x, d.rn, (d.x + e.ewma) // 2
  FROM d JOIN e ON d.event_type = e.event_type AND d.rn = e.rn + 1
)
SELECT event_type, day_us, CAST(x AS BIGINT) AS day_cents,
       CAST(ewma AS BIGINT) AS ewma_cents
FROM e ORDER BY event_type, day_us
"""


def ols_by_brand(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """Grouped OLS — :func:`ols_price_qty` per brand: the per-segment
    drift check (one global slope can hide a segment whose pricing
    model inverted).  Same integer-exact scheme, now with the moments
    keyed by brand.

    100-TB plan: one partkey-keyed coexchange attaches brands (no part
    broadcast); per-brand moments leave each bucket as ONE
    decimal-string row per brand (chunked int64 sums -> python ints),
    so the driver folds <= buckets x |brands| rows and runs the floored
    rational arithmetic per brand.  -> (p_brand, n, slope_x1e6,
    intercept_x100)."""
    from .core import hash_coexchange

    lip = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    )
    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
    )
    MOMENTS = ["n", "sx", "sy", "sxx", "sxy"]

    def moments(l: pd.DataFrame, p: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"p_brand": pd.Series(dtype=object),
                              **{m: pd.Series(dtype=object)
                                 for m in MOMENTS}})
        if (len(l) == 0 or "l_partkey" not in l.columns
                or len(p) == 0 or "p_partkey" not in p.columns):
            return empty
        j = l.merge(p, left_on="l_partkey", right_on="p_partkey")
        if len(j) == 0:
            return empty
        rows = []
        for brand, g in j.groupby("p_brand", sort=False):
            x = g["l_quantity"].to_numpy(np.float64).astype(np.int64)
            y = np.floor(g["l_extendedprice"].to_numpy(np.float64) * 100
                         + 0.5).astype(np.int64)
            acc = {"n": len(x), "sx": 0, "sy": 0, "sxx": 0, "sxy": 0}
            for lo in range(0, len(x), 8192):
                cx, cy = x[lo:lo + 8192], y[lo:lo + 8192]
                acc["sx"] += int(cx.sum()); acc["sy"] += int(cy.sum())
                acc["sxx"] += int((cx * cx).sum())
                acc["sxy"] += int((cx * cy).sum())
            rows.append({"p_brand": brand,
                         **{m: str(acc[m]) for m in MOMENTS}})
        return pd.DataFrame(rows)

    parts = hash_coexchange(
        lip, part, "l_partkey", "p_partkey", moments, num_buckets=num_buckets
    ).to_pandas()
    cols = {"p_brand": object, "n": np.int64, "slope_x1e6": np.int64,
            "intercept_x100": np.int64}
    if parts.empty or "p_brand" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    out = []
    for brand, g in parts.groupby("p_brand", sort=True):
        t = {m: sum(int(v) for v in g[m]) for m in MOMENTS}
        n, sx, sy, sxx, sxy = t["n"], t["sx"], t["sy"], t["sxx"], t["sxy"]
        cov = n * sxy - sx * sy
        vx = n * sxx - sx * sx
        if n == 0 or vx == 0:
            continue
        inum = sy * vx - cov * sx
        if max(abs(1_000_000 * cov), abs(100 * inum)) > _OLS_HUGE_BOUND:
            raise OverflowError(
                f"ols_by_brand: brand {brand} exceeds the HUGEINT bound")
        out.append({"p_brand": brand, "n": n,
                    "slope_x1e6": (1_000_000 * cov) // vx,
                    "intercept_x100": (100 * inum) // (n * vx)})
    if not out:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    return pd.DataFrame(out).astype(
        {"n": np.int64, "slope_x1e6": np.int64, "intercept_x100": np.int64})


SQL_OLS_BY_BRAND = f"""
WITH e AS (
  SELECT p_brand, CAST(l_quantity AS HUGEINT) AS x,
         CAST(floor(l_extendedprice * 100 + 0.5) AS HUGEINT) AS y
  FROM lineitem JOIN part ON p_partkey = l_partkey
),
s AS (
  SELECT p_brand, count(*) AS n, sum(x) AS sx, sum(y) AS sy,
         sum(x*x) AS sxx, sum(x*y) AS sxy
  FROM e GROUP BY 1
),
m AS (
  SELECT p_brand, n, n*sxy - sx*sy AS cov, n*sxx - sx*sx AS vx,
         sy*(n*sxx - sx*sx) - (n*sxy - sx*sy)*sx AS inum
  FROM s
)
SELECT p_brand, CAST(n AS BIGINT) AS n,
       CAST({_sql_floordiv('1000000 * cov', 'vx')} AS BIGINT)
         AS slope_x1e6,
       CAST({_sql_floordiv('100 * inum', 'n * vx')} AS BIGINT)
         AS intercept_x100
FROM m WHERE n > 0 AND vx <> 0 ORDER BY 1
"""


def ship_lag_quantiles(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """Exact fulfillment-latency quantiles per order priority (days
    from order to line shipment) — the SLA percentile readout.

    Unlike the per-group selection in :func:`analytics.quantiles_by_flag`
    (which needs a group to fit one task), the lag domain here is SMALL
    (integer days), so per-(priority, day) COUNTS combine across
    batches: one orderkey coexchange emits histogram partials, the
    driver folds <= |priorities| x |days| rows and reads the exact
    ceil(q*n)-th order statistic off the cumulative counts — correct at
    any group size.  Day = floored division on BOTH sides (negative
    lags floor identically).  -> (o_orderpriority, q, lag_days)."""
    import math

    from .core import hash_coexchange

    DAY_US = 86_400_000_000
    qs = [0.25, 0.5, 0.75, 0.95]

    lip = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    ).map_batches(
        lambda df: (
            pd.DataFrame({"l_orderkey": df["l_orderkey"].to_numpy(np.int64),
                          "ship_us": ts_epoch_us(df["l_shipdate"])})
            if len(df) and "l_orderkey" in df.columns
            else pd.DataFrame({"l_orderkey": pd.Series(dtype=np.int64),
                               "ship_us": pd.Series(dtype=np.int64)})
        ),
        batch_format="pandas",
    )
    ordf = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(
        lambda df: (
            pd.DataFrame({"o_orderkey": df["o_orderkey"].to_numpy(np.int64),
                          "o_date_us": ts_epoch_us(df["o_orderdate"]),
                          "prio": df["o_orderpriority"].to_numpy()})
            if len(df) and "o_orderkey" in df.columns
            else pd.DataFrame({"o_orderkey": pd.Series(dtype=np.int64),
                               "o_date_us": pd.Series(dtype=np.int64),
                               "prio": pd.Series(dtype=object)})
        ),
        batch_format="pandas",
    )

    def hist(l: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"prio": pd.Series(dtype=object),
                              "lag_days": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64)})
        if (len(l) == 0 or "l_orderkey" not in l.columns
                or len(o) == 0 or "o_orderkey" not in o.columns):
            return empty
        j = l.merge(o, left_on="l_orderkey", right_on="o_orderkey")
        if len(j) == 0:
            return empty
        lag = (j["ship_us"].to_numpy(np.int64)
               - j["o_date_us"].to_numpy(np.int64)) // DAY_US
        g = pd.DataFrame({"prio": j["prio"].to_numpy(),
                          "lag_days": lag}).groupby(
            ["prio", "lag_days"], as_index=False).size()
        return pd.DataFrame({"prio": g["prio"],
                             "lag_days": g["lag_days"].to_numpy(np.int64),
                             "n": g["size"].to_numpy(np.int64)})

    parts = hash_coexchange(
        lip, ordf, "l_orderkey", "o_orderkey", hist, num_buckets=num_buckets
    ).to_pandas()
    cols = {"o_orderpriority": object, "q": np.float64,
            "lag_days": np.int64}
    if parts.empty or "prio" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    g = parts.groupby(["prio", "lag_days"], as_index=False)["n"].sum()
    out = []
    for prio, grp in g.groupby("prio", sort=True):
        grp = grp.sort_values("lag_days")
        days = grp["lag_days"].to_numpy(np.int64)
        cum = grp["n"].to_numpy(np.int64).cumsum()
        n = int(cum[-1])
        for q in qs:
            k = min(max(int(math.ceil(q * n)), 1), n)
            out.append((prio, q, int(days[np.searchsorted(cum, k)])))
    return pd.DataFrame(out, columns=list(cols)).astype(
        {"q": np.float64, "lag_days": np.int64})


SQL_SHIP_LAG_QUANTILES = f"""
WITH j AS (
  SELECT o_orderpriority,
         CAST({_sql_floordiv(
             'epoch_us(l_shipdate) - epoch_us(o_orderdate)',
             '86400000000')} AS BIGINT) AS lag_days
  FROM lineitem JOIN orders ON o_orderkey = l_orderkey
)
SELECT o_orderpriority, q, CAST(value AS BIGINT) AS lag_days
FROM (
  SELECT o_orderpriority,
         unnest([0.25, 0.5, 0.75, 0.95]) AS q,
         unnest(quantile_disc(lag_days, [0.25, 0.5, 0.75, 0.95]))
           AS value
  FROM j GROUP BY 1
)
"""


_WM_LATE_US = 1800 * 1_000_000   # allowed lateness behind the watermark
_WM_WIN_US = 3600 * 1_000_000    # tumbling event-time window


def events_watermark_agg(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """Watermark-aware tumbling aggregate with a LATE side channel —
    the batch replay of the streaming triad (event time vs arrival
    order vs allowed lateness): per (event_type, 1h event-time window),
    how many events arrived on time vs more than 30 min behind the
    type's running watermark (max event time over earlier ARRIVALS,
    ``event_id`` = arrival order).

    One type-keyed exchange; in-bucket sort by arrival + one running
    max per type (the order-sensitive scan), then partials collapse to
    per-(type, window) counts.  -> (event_type, window_us, n_on_time,
    n_late)."""

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "ts"]
    )
    cols = {"event_type": object, "window_us": np.int64,
            "n_on_time": np.int64, "n_late": np.int64}

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "event_type" not in df.columns:
            return pd.DataFrame(
                {c: pd.Series(dtype=t) for c, t in cols.items()})
        out = []
        for et, g in df.groupby("event_type", sort=False):
            order = np.argsort(g["event_id"].to_numpy(np.int64),
                               kind="stable")
            t = ts_epoch_us(g["ts"])[order]
            runmax = np.maximum.accumulate(t)
            prior = np.concatenate([[np.int64(-1)], runmax[:-1]])
            late = (prior >= 0) & (t + _WM_LATE_US < prior)
            win = (t // _WM_WIN_US) * _WM_WIN_US
            h = pd.DataFrame({"window_us": win,
                              "late": late.astype(np.int64)}).groupby(
                "window_us", as_index=False).agg(
                n=("late", "size"), n_late=("late", "sum"))
            out.append(pd.DataFrame(
                {"event_type": et,
                 "window_us": h["window_us"].to_numpy(np.int64),
                 "n_on_time": (h["n"] - h["n_late"]).to_numpy(np.int64),
                 "n_late": h["n_late"].to_numpy(np.int64)}))
        return pd.concat(out, ignore_index=True)

    parts = hash_exchange(ds, "event_type", agg,
                                   num_buckets=num_buckets).to_pandas()
    if parts.empty or "event_type" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    g = parts.groupby(["event_type", "window_us"], as_index=False)[
        ["n_on_time", "n_late"]].sum()
    return g.astype({"window_us": np.int64, "n_on_time": np.int64,
                     "n_late": np.int64}).sort_values(
        ["event_type", "window_us"], ignore_index=True)


SQL_EVENTS_WATERMARK_AGG = f"""
WITH o AS (
  SELECT event_type, CAST(epoch_us(ts) AS BIGINT) AS t,
         max(CAST(epoch_us(ts) AS BIGINT))
           OVER (PARTITION BY event_type ORDER BY event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS prior
  FROM events
),
f AS (
  SELECT event_type, (t // {_WM_WIN_US}) * {_WM_WIN_US} AS window_us,
         CASE WHEN prior IS NOT NULL AND t + {_WM_LATE_US} < prior
              THEN 1 ELSE 0 END AS late
  FROM o
)
SELECT event_type, CAST(window_us AS BIGINT) AS window_us,
       CAST(sum(1 - late) AS BIGINT) AS n_on_time,
       CAST(sum(late) AS BIGINT) AS n_late
FROM f GROUP BY 1, 2 ORDER BY 1, 2
"""


def session_table(sf_dir: str, gap_s: int = 1800) -> pd.DataFrame:
    """Materialized sessionization: one row per (user, session) with
    its ordinal, bounds and event count — the session TABLE every
    downstream funnel/attribution join consumes (sessionize and
    :func:`session_duration_quantiles` are aggregates over this).

    One user-keyed exchange; session ordinals come from the in-bucket
    gap scan (a user never spans buckets, so ordinals are global).
    -> (user_id, session_id, start_us, end_us, n_events)."""

    gap_us = gap_s * 1_000_000
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    cols = {"user_id": np.int64, "session_id": np.int64,
            "start_us": np.int64, "end_us": np.int64,
            "n_events": np.int64}

    def sessions(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame(
                {c: pd.Series(dtype=t) for c, t in cols.items()})
        out = []
        for uid, g in df.groupby("user_id", sort=False):
            t = np.sort(ts_epoch_us(g["ts"]))
            new = np.ones(len(t), dtype=bool)
            new[1:] = np.diff(t) > gap_us
            sid = np.cumsum(new)
            d = pd.Series(t).groupby(sid).agg(["min", "max", "size"])
            out.append(pd.DataFrame(
                {"user_id": np.int64(uid),
                 "session_id": d.index.to_numpy(np.int64),
                 "start_us": d["min"].to_numpy(np.int64),
                 "end_us": d["max"].to_numpy(np.int64),
                 "n_events": d["size"].to_numpy(np.int64)}))
        return pd.concat(out, ignore_index=True)

    out = hash_exchange(ds, "user_id", sessions,
                                 num_buckets=8).to_pandas()
    if out.empty or "user_id" not in out.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    return out.astype({c: np.int64 for c in cols}).sort_values(
        ["user_id", "session_id"], ignore_index=True)


SQL_SESSION_TABLE = """
WITH ordered AS (
  SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS t,
         lag(CAST(epoch_us(ts) AS BIGINT))
           OVER (PARTITION BY user_id ORDER BY ts) AS prev_t
  FROM events
),
marks AS (
  SELECT user_id, t,
         CASE WHEN prev_t IS NULL OR t - prev_t > 1800000000
              THEN 1 ELSE 0 END AS new_s
  FROM ordered
),
sess AS (
  SELECT user_id, t,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY t
                          ROWS UNBOUNDED PRECEDING) AS sid
  FROM marks
)
SELECT user_id, CAST(sid AS BIGINT) AS session_id,
       CAST(min(t) AS BIGINT) AS start_us,
       CAST(max(t) AS BIGINT) AS end_us,
       CAST(count(*) AS BIGINT) AS n_events
FROM sess GROUP BY 1, 2 ORDER BY 1, 2
"""


def revenue_pareto(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """Pareto concentration curve: customers cut into revenue DECILES
    by exact value order statistics, with each decile's cumulative
    share counted from the top — the 80/20 readout behind every
    "whales" analysis.

    Per-customer cents on one custkey exchange; the nine cuts come from
    the distributed selection (`analytics.exact_quantiles` over the
    derived per-customer dataset — no driver sort of customers), then
    one counting pass buckets by value (ties fall into the LOWER decile
    on both sides) and the driver folds 10 rows.
    -> (decile, n_customers, revenue_cents, cum_share_x1e6)."""
    from .analytics import exact_quantiles

    def opart(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_custkey" not in df.columns:
            return pd.DataFrame({"o_custkey": pd.Series(dtype=np.int64),
                                 "cents": pd.Series(dtype=np.int64)})
        p = df["o_totalprice"].to_numpy(np.float64) * 100
        cents = np.trunc(p + np.sign(p) * 0.5).astype(np.int64)
        g = pd.Series(cents).groupby(
            df["o_custkey"].to_numpy(np.int64)).sum()
        return pd.DataFrame({"o_custkey": g.index.to_numpy(np.int64),
                             "cents": g.to_numpy(np.int64)})

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(opart, batch_format="pandas")

    def per_cust(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_custkey" not in df.columns:
            return pd.DataFrame({"o_custkey": pd.Series(dtype=np.int64),
                                 "cents": pd.Series(dtype=np.int64)})
        g = df.groupby("o_custkey", as_index=False)["cents"].sum()
        return g.astype(np.int64)

    percust = hash_exchange(orders, "o_custkey", per_cust,
                            num_buckets=num_buckets)
    qs = [round(0.1 * i, 1) for i in range(1, 10)]
    cuts_df = exact_quantiles(percust, "cents", qs)
    cols = {"decile": np.int64, "n_customers": np.int64,
            "revenue_cents": np.int64, "cum_share_x1e6": np.int64}
    if len(cuts_df) < 9:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    cuts = cuts_df["value"].to_numpy(np.float64).astype(np.int64)

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "cents" not in df.columns:
            return pd.DataFrame({"decile": pd.Series(dtype=np.int64),
                                 "n_customers": pd.Series(dtype=np.int64),
                                 "revenue_cents": pd.Series(dtype=np.int64)})
        v = df["cents"].to_numpy(np.int64)
        d = (v[:, None] > cuts[None, :]).sum(axis=1).astype(np.int64)
        g = pd.DataFrame({"decile": d, "cents": v}).groupby(
            "decile", as_index=False).agg(n_customers=("cents", "size"),
                                          revenue_cents=("cents", "sum"))
        return g.astype(np.int64)

    parts = percust.map_batches(bucket, batch_format="pandas").to_pandas()
    if parts.empty or "decile" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    g = parts.groupby("decile", as_index=False)[
        ["n_customers", "revenue_cents"]].sum().sort_values(
        "decile", ascending=False, ignore_index=True)
    total = int(g["revenue_cents"].sum())
    cum = g["revenue_cents"].to_numpy(np.int64).cumsum()
    share = ((1_000_000 * cum.astype(object)) // total if total
             else np.zeros(len(g), dtype=np.int64))
    g["cum_share_x1e6"] = np.asarray([int(x) for x in share],
                                     dtype=np.int64)
    return g.astype(np.int64).sort_values("decile", ignore_index=True)


SQL_REVENUE_PARETO = """
WITH rc AS (
  SELECT o_custkey,
         CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS cents
  FROM orders GROUP BY 1
),
cuts AS (
  SELECT quantile_disc(cents,
    [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]) AS cs
  FROM rc
),
b AS (
  SELECT cents,
         (CASE WHEN cents > cs[1] THEN 1 ELSE 0 END
        + CASE WHEN cents > cs[2] THEN 1 ELSE 0 END
        + CASE WHEN cents > cs[3] THEN 1 ELSE 0 END
        + CASE WHEN cents > cs[4] THEN 1 ELSE 0 END
        + CASE WHEN cents > cs[5] THEN 1 ELSE 0 END
        + CASE WHEN cents > cs[6] THEN 1 ELSE 0 END
        + CASE WHEN cents > cs[7] THEN 1 ELSE 0 END
        + CASE WHEN cents > cs[8] THEN 1 ELSE 0 END
        + CASE WHEN cents > cs[9] THEN 1 ELSE 0 END) AS decile
  FROM rc, cuts
),
a AS (
  SELECT decile, CAST(count(*) AS BIGINT) AS n_customers,
         CAST(sum(cents) AS BIGINT) AS revenue_cents
  FROM b GROUP BY 1
),
t AS (SELECT sum(revenue_cents) AS tot FROM a)
SELECT CAST(decile AS BIGINT) AS decile, n_customers, revenue_cents,
       CAST((1000000 * sum(revenue_cents)
             OVER (ORDER BY decile DESC ROWS UNBOUNDED PRECEDING))
            // tot AS BIGINT) AS cum_share_x1e6
FROM a, t ORDER BY decile
"""


def quantity_mode(sf_dir: str) -> pd.DataFrame:
    """Modal order quantity per returnflag (ties -> smallest quantity)
    — the MODE aggregate, which no groupby builtin gives exactly: per
    (flag, quantity) count partials combine across batches (quantity is
    small-domain), the driver folds <= |flags| x 50 rows and takes the
    deterministic argmax.  -> (l_returnflag, mode_qty, n)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_quantity"]
    )
    cols = {"l_returnflag": object, "mode_qty": np.int64, "n": np.int64}

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_returnflag" not in df.columns:
            return pd.DataFrame({"l_returnflag": pd.Series(dtype=object),
                                 "qty": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64)})
        g = pd.DataFrame(
            {"l_returnflag": df["l_returnflag"].to_numpy(),
             "qty": df["l_quantity"].to_numpy(np.float64)
                    .astype(np.int64)}).groupby(
            ["l_returnflag", "qty"], as_index=False).size()
        return pd.DataFrame({"l_returnflag": g["l_returnflag"],
                             "qty": g["qty"].to_numpy(np.int64),
                             "n": g["size"].to_numpy(np.int64)})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty or "l_returnflag" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    g = parts.groupby(["l_returnflag", "qty"], as_index=False)["n"].sum()
    g = g.sort_values(["l_returnflag", "n", "qty"],
                      ascending=[True, False, True], kind="mergesort")
    top = g.groupby("l_returnflag", as_index=False).first()
    return pd.DataFrame(
        {"l_returnflag": top["l_returnflag"],
         "mode_qty": top["qty"].to_numpy(np.int64),
         "n": top["n"].to_numpy(np.int64)}
    ).sort_values("l_returnflag", ignore_index=True)


SQL_QUANTITY_MODE = """
WITH c AS (
  SELECT l_returnflag, CAST(l_quantity AS BIGINT) AS qty,
         count(*) AS n
  FROM lineitem GROUP BY 1, 2
),
r AS (
  SELECT l_returnflag, qty, n,
         row_number() OVER (PARTITION BY l_returnflag
                            ORDER BY n DESC, qty ASC) AS rk
  FROM c
)
SELECT l_returnflag, CAST(qty AS BIGINT) AS mode_qty,
       CAST(n AS BIGINT) AS n
FROM r WHERE rk = 1 ORDER BY 1
"""


def mad_price_outliers(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """Robust outlier detection per returnflag: median / MAD (median
    absolute deviation) instead of mean / stddev — the estimator that
    does not let the outliers it hunts inflate its own scale the way
    :func:`price_outliers`'s z-score does (one extreme row shifts a
    mean; it cannot shift a median).

    Everything is exact off ONE collapsed histogram: per-batch
    (flag, cents) count partials collapse on a cents-keyed exchange
    (NOT flag-keyed — 3 hot flags would be a skew disaster; cents
    spreads uniformly), then the driver folds <= |flags| x |price
    domain| rows.  Median, MAD and the outlier count are all pure
    integer arithmetic over that histogram (deviations of distinct
    values inherit their weights), so no second data pass exists at
    all.  Lower-median rank (n+1)//2 on both engines; outlier <=>
    |cents - med| > 3 * MAD in ints — no float anywhere.
    -> (l_returnflag, median_cents, mad_cents, n_outliers, n_rows)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice"],
    )
    cols = {"l_returnflag": object, "median_cents": np.int64,
            "mad_cents": np.int64, "n_outliers": np.int64,
            "n_rows": np.int64}

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_returnflag" not in df.columns:
            return pd.DataFrame({"flag": pd.Series(dtype=object),
                                 "cents": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64)})
        g = pd.DataFrame(
            {"flag": df["l_returnflag"].to_numpy(),
             "cents": np.floor(
                 df["l_extendedprice"].to_numpy(np.float64) * 100.0
             ).astype(np.int64)}
        ).groupby(["flag", "cents"], as_index=False).size()
        return g.rename(columns={"size": "n"}).astype({"n": np.int64})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "flag" not in df.columns:
            return pd.DataFrame({"flag": pd.Series(dtype=object),
                                 "cents": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64)})
        return (df.groupby(["flag", "cents"], as_index=False)["n"].sum()
                .astype({"cents": np.int64, "n": np.int64}))

    hist = hash_exchange(
        ds.map_batches(partial, batch_format="pandas"), "cents", merge,
        num_buckets,
    ).to_pandas()
    if hist.empty or "flag" not in hist.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})

    def w_lower_median(cents: np.ndarray, n: np.ndarray) -> int:
        order = np.argsort(cents, kind="mergesort")
        c, w = cents[order], n[order]
        k = (int(w.sum()) + 1) // 2
        return int(c[int(np.searchsorted(np.cumsum(w), k, side="left"))])

    out = []
    for flag, g in hist.groupby("flag", sort=True):
        cents = g["cents"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        med = w_lower_median(cents, n)
        dev = np.abs(cents - med)
        mad = w_lower_median(dev, n)
        n_out = int(n[dev > 3 * mad].sum())
        out.append((flag, med, mad, n_out, int(n.sum())))
    return pd.DataFrame(out, columns=list(cols)).astype(
        {c: t for c, t in cols.items() if t is not object})


SQL_MAD_PRICE_OUTLIERS = """
WITH h AS (
  SELECT l_returnflag AS flag,
         CAST(floor(l_extendedprice * 100.0) AS BIGINT) AS cents,
         count(*) AS n
  FROM lineitem GROUP BY 1, 2
),
tot AS (SELECT flag, sum(n) AS nt FROM h GROUP BY 1),
cum AS (SELECT flag, cents,
               sum(n) OVER (PARTITION BY flag ORDER BY cents) AS c
        FROM h),
med AS (SELECT flag, min(cents) AS med
        FROM cum JOIN tot USING (flag)
        WHERE c >= (nt + 1) // 2 GROUP BY flag),
dev AS (SELECT h.flag, abs(h.cents - med.med) AS d, h.n
        FROM h JOIN med USING (flag)),
devh AS (SELECT flag, d, sum(n) AS n FROM dev GROUP BY 1, 2),
cumd AS (SELECT flag, d,
                sum(n) OVER (PARTITION BY flag ORDER BY d) AS c
         FROM devh),
mad AS (SELECT flag, min(d) AS mad
        FROM cumd JOIN tot USING (flag)
        WHERE c >= (nt + 1) // 2 GROUP BY flag),
outl AS (SELECT dev.flag,
                sum(CASE WHEN dev.d > 3 * mad.mad THEN dev.n ELSE 0 END) AS n_out
         FROM dev JOIN mad USING (flag) GROUP BY 1)
SELECT med.flag AS l_returnflag,
       CAST(med.med AS BIGINT) AS median_cents,
       CAST(mad.mad AS BIGINT) AS mad_cents,
       CAST(COALESCE(outl.n_out, 0) AS BIGINT) AS n_outliers,
       CAST(tot.nt AS BIGINT) AS n_rows
FROM med JOIN mad USING (flag) JOIN outl USING (flag) JOIN tot USING (flag)
ORDER BY 1
"""


_EVT_CHAR = {"click": "c", "error": "e", "purchase": "p",
             "signup": "s", "view": "v"}


def event_pattern_match(
    sf_dir: str, pattern: str = "vc+p", num_buckets: int = 16
) -> ray.data.Dataset:
    """Complex-event-processing pattern match: users whose event-type
    SEQUENCE contains ``view, one-or-more clicks, then purchase``
    contiguously — the MATCH_RECOGNIZE shape that funnel_steps (any-gap
    ordering) and user_paths (single transitions) cannot express,
    because the pattern constrains the full in-between subsequence.

    Each user's history becomes one char-encoded string (one keyed
    exchange; in-bucket lexsort + per-user join, no per-event loop
    beyond the join) and matches are counted with a compiled regex —
    non-overlapping leftmost scan, the semantics ``re`` and DuckDB's
    RE2 agree on for this pattern class.  Ties at equal timestamps
    order by event_id on both engines.  -> (user_id, n_matches),
    matching users only."""
    import re

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    rx = re.compile(pattern)

    def match(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                                 "n_matches": pd.Series(dtype=np.int64)})
        t = ts_epoch_us(df["ts"])
        uid = df["user_id"].to_numpy(np.int64)
        order = np.lexsort((df["event_id"].to_numpy(np.int64), t, uid))
        ch = (df["event_type"].map(_EVT_CHAR).fillna("x")
              .to_numpy(object)[order])
        seq = pd.Series(ch).groupby(uid[order]).agg("".join)
        n = seq.map(lambda s: len(rx.findall(s))).to_numpy(np.int64)
        keep = n > 0
        return pd.DataFrame({"user_id": seq.index.to_numpy(np.int64)[keep],
                             "n_matches": n[keep]})

    return hash_exchange(ds, "user_id", match, num_buckets)


SQL_EVENT_PATTERN_MATCH = """
WITH e AS (
  SELECT user_id, ts, event_id,
         CASE event_type WHEN 'click' THEN 'c' WHEN 'error' THEN 'e'
              WHEN 'purchase' THEN 'p' WHEN 'signup' THEN 's'
              WHEN 'view' THEN 'v' ELSE 'x' END AS ch
  FROM events
),
s AS (
  SELECT user_id, string_agg(ch, '' ORDER BY ts, event_id) AS seq
  FROM e GROUP BY 1
)
SELECT user_id,
       CAST(len(regexp_extract_all(seq, 'vc+p')) AS BIGINT) AS n_matches
FROM s WHERE len(regexp_extract_all(seq, 'vc+p')) > 0
"""


def events_trailing_range(
    sf_dir: str, window_s: int = 3600, num_buckets: int = 16
) -> ray.data.Dataset:
    """Time-RANGE window frame: for every event, the count and
    integer-cents sum of the SAME user's events in the trailing
    ``[ts - window, ts]`` interval — the RANGE BETWEEN frame that
    events_moving_sum's ROWS frame cannot express (a burst of events
    in one second all enter each other's frame; a quiet hour empties
    it).  RANGE semantics include PEERS: rows sharing the current
    timestamp belong to the frame on both engines regardless of
    event_id order.

    One keyed exchange on user_id; per bucket a lexsort + two
    vectorized searchsorted bounds + a prefix-sum difference — no
    per-row loop.  -> (event_id, user_id, n_win, sum_cents_win)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    w_us = np.int64(window_s) * np.int64(1_000_000)
    cols = {"event_id": np.int64, "user_id": np.int64,
            "n_win": np.int64, "sum_cents_win": np.int64}

    def frame(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t)
                                 for c, t in cols.items()})
        t = ts_epoch_us(df["ts"])
        uid = df["user_id"].to_numpy(np.int64)
        eid = df["event_id"].to_numpy(np.int64)
        cents = np.floor(
            df["value"].to_numpy(np.float64) * 100.0).astype(np.int64)
        order = np.lexsort((eid, t, uid))
        uid, eid, t, cents = uid[order], eid[order], t[order], cents[order]
        # per-user searchsorted bounds against that user's own slice
        starts = np.concatenate([[0], np.flatnonzero(uid[1:] != uid[:-1]) + 1])
        ends = np.concatenate([starts[1:], [len(uid)]])
        csum = np.concatenate([[0], np.cumsum(cents)])
        lo = np.empty(len(t), dtype=np.int64)
        hi = np.empty(len(t), dtype=np.int64)
        for s, e in zip(starts, ends):
            seg = t[s:e]
            lo[s:e] = s + np.searchsorted(seg, seg - w_us, side="left")
            hi[s:e] = s + np.searchsorted(seg, seg, side="right")
        return pd.DataFrame({"event_id": eid, "user_id": uid,
                             "n_win": hi - lo,
                             "sum_cents_win": csum[hi] - csum[lo]})

    return hash_exchange(ds, "user_id", frame, num_buckets)


SQL_EVENTS_TRAILING_RANGE = """
WITH e AS (
  SELECT event_id, user_id, epoch_us(ts) AS t,
         CAST(floor(value * 100.0) AS BIGINT) AS cents
  FROM events
)
SELECT event_id, user_id,
       CAST(count(*) OVER w AS BIGINT) AS n_win,
       CAST(sum(cents) OVER w AS BIGINT) AS sum_cents_win
FROM e
WINDOW w AS (PARTITION BY user_id ORDER BY t
             RANGE BETWEEN 3600000000 PRECEDING AND CURRENT ROW)
"""


def chi2_independence(sf_dir: str, num_buckets: int = 4) -> pd.DataFrame:
    """Chi-square independence statistic (fixed-point, hash-exact):
    is event type independent of hour-of-day?  chi2_x1e6 =
    sum over cells of floor(1e6 * (o*N - r*c)^2 / (N * r * c)) — the
    numerator/denominator form that never divides early, so every term
    is exact integer arithmetic (python bigint on the driver, HUGEINT
    in the twin) and the per-cell floor makes the sum order-free.

    One keyed exchange merges per-batch cell combiners (cells bounded
    by |types| x 24, never O(rows)); marginals and the statistic are
    driver-side math on the cell table.  Raises rather than wrapping
    when the fixed-point term would exceed HUGEINT on the twin
    (N ~ 1e8; use a wider scale then — same discipline as
    contingency_table).  -> one row (chi2_x1e6, df, n)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )
    cols = {"chi2_x1e6": np.int64, "df": np.int64, "n": np.int64}

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "event_type" not in df.columns:
            return pd.DataFrame({"event_type": pd.Series(dtype=object),
                                 "hour": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64)})
        hour = (ts_epoch_us(df["ts"]) // 3_600_000_000) % 24
        g = pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                          "hour": hour}).groupby(
            ["event_type", "hour"], as_index=False).size()
        return g.rename(columns={"size": "n"}).astype(
            {"hour": np.int64, "n": np.int64})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "event_type" not in df.columns:
            return pd.DataFrame({"event_type": pd.Series(dtype=object),
                                 "hour": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64)})
        return (df.groupby(["event_type", "hour"], as_index=False)["n"]
                .sum().astype({"hour": np.int64, "n": np.int64}))

    cells = hash_exchange(
        ds.map_batches(partial, batch_format="pandas"), "hour", merge,
        num_buckets,
    ).to_pandas()
    if cells.empty or "event_type" not in cells.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    r = cells.groupby("event_type")["n"].sum().to_dict()
    c = cells.groupby("hour")["n"].sum().to_dict()
    N = int(cells["n"].sum())
    if N > 100_000_000:
        raise OverflowError(
            "chi2_independence fixed-point term exceeds the twin's "
            f"HUGEINT at N={N}; reduce the scale factor"
        )
    chi2 = 0
    for t, h, o in zip(cells["event_type"], cells["hour"], cells["n"]):
        rr, cc = int(r[t]), int(c[int(h)])
        d = int(o) * N - rr * cc
        chi2 += (1_000_000 * d * d) // (N * rr * cc)
    return pd.DataFrame(
        {"chi2_x1e6": [chi2],
         "df": [(len(r) - 1) * (len(c) - 1)],
         "n": [N]}
    ).astype({c_: t for c_, t in cols.items()})


SQL_CHI2_INDEPENDENCE = """
WITH cells AS (
  SELECT event_type,
         (epoch_us(ts) // 3600000000) % 24 AS hour,
         CAST(count(*) AS HUGEINT) AS n
  FROM events GROUP BY 1, 2
),
r AS (SELECT event_type, sum(n) AS rn FROM cells GROUP BY 1),
c AS (SELECT hour, sum(n) AS cn FROM cells GROUP BY 1),
tot AS (SELECT sum(n) AS N FROM cells),
terms AS (
  SELECT (1000000::HUGEINT * (cells.n * tot.N - r.rn * c.cn)
          * (cells.n * tot.N - r.rn * c.cn))
         // (tot.N * r.rn * c.cn) AS term
  FROM cells JOIN r USING (event_type) JOIN c USING (hour), tot
)
SELECT CAST((SELECT sum(term) FROM terms) AS BIGINT) AS chi2_x1e6,
       CAST(((SELECT count(*) FROM r) - 1)
            * ((SELECT count(*) FROM c) - 1) AS BIGINT) AS df,
       CAST((SELECT N FROM tot) AS BIGINT) AS n
"""


def k_anonymity_violations(
    sf_dir: str, num_buckets: int = 4
) -> pd.DataFrame:
    """Privacy audit: quasi-identifier combinations (nation, market
    segment) whose group size falls below the anonymity threshold —
    the k-anonymity check run before a customer extract is shared
    (every undersized combo is a re-identification risk; the redaction
    sibling of redact_terms).  k is SCALE-FREE — 80% of the mean cell
    size — as a pure integer comparison ``10 * n * n_cells <
    8 * total`` (the rank-rewrite discipline), so the audit is
    meaningful at any corpus size instead of going trivially empty as
    cells grow.

    Per-batch combo combiner then one combo-keyed exchange; the driver
    folds only the cell table (bounded by |nations| x |segments|, the
    right asymmetry at 100 TB).  -> (c_nationkey, c_mktsegment, n)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_nationkey", "c_mktsegment"],
    )
    cols = {"c_nationkey": np.int64, "c_mktsegment": object,
            "n": np.int64}

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "c_nationkey" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t)
                                 for c, t in cols.items()})
        g = df.groupby(["c_nationkey", "c_mktsegment"],
                       as_index=False).size()
        return g.rename(columns={"size": "n"}).astype(
            {"c_nationkey": np.int64, "n": np.int64})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "c_nationkey" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t)
                                 for c, t in cols.items()})
        return (df.groupby(["c_nationkey", "c_mktsegment"],
                           as_index=False)["n"].sum()
                .astype({"c_nationkey": np.int64, "n": np.int64}))

    cells = hash_exchange(
        ds.map_batches(partial, batch_format="pandas"), "c_nationkey",
        merge, num_buckets,
    ).to_pandas()
    if cells.empty or "c_nationkey" not in cells.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    n = cells["n"].to_numpy(np.int64)
    keep = 10 * n * len(cells) < 8 * int(n.sum())
    return (cells[keep][list(cols)]
            .astype({c: t for c, t in cols.items() if t is not object})
            .sort_values(["c_nationkey", "c_mktsegment"],
                         ignore_index=True))


SQL_K_ANONYMITY_VIOLATIONS = """
WITH cells AS (
  SELECT c_nationkey, c_mktsegment, count(*) AS n
  FROM customer GROUP BY 1, 2
),
m AS (SELECT count(*) AS nc, sum(n) AS tot FROM cells)
SELECT c_nationkey, c_mktsegment, CAST(n AS BIGINT) AS n
FROM cells, m WHERE 10 * n * nc < 8 * tot
ORDER BY 1, 2
"""


def orders_backlog_by_day(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """Open-order concurrency by day (calendarization): for every day,
    how many orders were placed but not yet fully shipped — the
    interval-overlap-count analytic behind capacity and WIP dashboards,
    realized as the classic +1/-1 delta sweep (an order contributes
    ``+1`` on its order day and ``-1`` the day after its LAST line
    ships) so no per-day interval join ever exists.

    Shape: one orderkey coexchange folds each order's lineitems to a
    max-shipdate and meets its order date; delta rows collapse per day
    in-bucket; the driver cumsums the day-bounded histogram (O(days)
    rows — the domain bound, not the data bound).  Orders with no
    lineitems never open.  -> (day_epoch_s, n_open) for days with
    backlog change, running count carried between them."""
    from .core import hash_coexchange

    DAY_US = 86_400_000_000
    lip = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    ).map_batches(
        lambda df: (
            pd.DataFrame({"l_orderkey": df["l_orderkey"].to_numpy(np.int64),
                          "ship_us": ts_epoch_us(df["l_shipdate"])})
            .groupby("l_orderkey", as_index=False).max()
            if len(df) and "l_orderkey" in df.columns
            else pd.DataFrame({"l_orderkey": pd.Series(dtype=np.int64),
                               "ship_us": pd.Series(dtype=np.int64)})
        ),
        batch_format="pandas",
    )
    ordf = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    )

    def deltas(l: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"day": pd.Series(dtype=np.int64),
                              "d": pd.Series(dtype=np.int64)})
        if (len(l) == 0 or "l_orderkey" not in l.columns
                or len(o) == 0 or "o_orderkey" not in o.columns):
            return empty
        last = l.groupby("l_orderkey", as_index=False)["ship_us"].max()
        j = last.merge(
            pd.DataFrame({"o_orderkey": o["o_orderkey"].to_numpy(np.int64),
                          "od_us": ts_epoch_us(o["o_orderdate"])}),
            left_on="l_orderkey", right_on="o_orderkey",
        )
        if len(j) == 0:
            return empty
        open_day = j["od_us"].to_numpy(np.int64) // DAY_US
        close_day = j["ship_us"].to_numpy(np.int64) // DAY_US + 1
        out = pd.DataFrame(
            {"day": np.concatenate([open_day, close_day]),
             "d": np.concatenate(
                 [np.ones(len(j), dtype=np.int64),
                  -np.ones(len(j), dtype=np.int64)])}
        )
        return out.groupby("day", as_index=False)["d"].sum().astype(np.int64)

    parts = hash_coexchange(
        lip, ordf, "l_orderkey", "o_orderkey", deltas, num_buckets
    ).to_pandas()
    cols = {"day_epoch_s": np.int64, "n_open": np.int64}
    if parts.empty or "day" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    g = parts.groupby("day", as_index=False)["d"].sum().sort_values(
        "day", ignore_index=True)
    return pd.DataFrame(
        {"day_epoch_s": g["day"].to_numpy(np.int64) * 86_400,
         "n_open": np.cumsum(g["d"].to_numpy(np.int64))}
    )


SQL_ORDERS_BACKLOG_BY_DAY = """
WITH last AS (
  SELECT l_orderkey, max(epoch_us(l_shipdate)) AS ship_us
  FROM lineitem GROUP BY 1
),
iv AS (
  SELECT epoch_us(o_orderdate) // 86400000000 AS open_day,
         ship_us // 86400000000 + 1 AS close_day
  FROM orders JOIN last ON l_orderkey = o_orderkey
),
d AS (
  SELECT open_day AS day, 1 AS delta FROM iv
  UNION ALL
  SELECT close_day AS day, -1 AS delta FROM iv
),
g AS (SELECT day, sum(delta) AS d FROM d GROUP BY 1)
SELECT CAST(day * 86400 AS BIGINT) AS day_epoch_s,
       CAST(sum(d) OVER (ORDER BY day) AS BIGINT) AS n_open
FROM g
"""


def conversion_lag_quantiles(
    sf_dir: str, num_buckets: int = 16
) -> pd.DataFrame:
    """Funnel TIMING: exact quantiles of the view-to-purchase lag —
    for every converting user, microseconds from their first ``view``
    to the first ``purchase`` AFTER it (funnel_steps says how many
    convert; this says how fast).  Per-user lags complete on one
    user-keyed exchange (grouped vectorized mins, no per-user loop);
    quantiles come from the distributed selection core
    (`analytics.exact_quantiles`) over the derived lag dataset — the
    session_duration_quantiles composite pattern.
    -> (q, lag_us), quantile_disc convention (ceil(q*n)-th)."""
    from .analytics import exact_quantiles

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )

    def lags(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame({"lag_us": pd.Series(dtype=np.int64)})
        t = ts_epoch_us(df["ts"])
        uid = df["user_id"].to_numpy(np.int64)
        ty = df["event_type"].to_numpy()
        v = pd.DataFrame({"u": uid[ty == "view"], "t": t[ty == "view"]})
        p = pd.DataFrame({"u": uid[ty == "purchase"],
                          "t": t[ty == "purchase"]})
        if len(v) == 0 or len(p) == 0:
            return pd.DataFrame({"lag_us": pd.Series(dtype=np.int64)})
        fv = v.groupby("u")["t"].min()
        # first purchase at-or-after the first view (ties convert:
        # epoch(view) <= epoch(purchase) mirrors the SQL >=)
        j = p.merge(fv.rename("v0"), left_on="u", right_index=True)
        j = j[j["t"] >= j["v0"]]
        if len(j) == 0:
            return pd.DataFrame({"lag_us": pd.Series(dtype=np.int64)})
        g = j.groupby("u").agg(t=("t", "min"), v0=("v0", "first"))
        return pd.DataFrame(
            {"lag_us": (g["t"] - g["v0"]).to_numpy(np.int64)})

    per_user = hash_exchange(ds, "user_id", lags, num_buckets)
    out = exact_quantiles(per_user, "lag_us", [0.25, 0.5, 0.75, 0.95])
    if len(out) == 0:
        return pd.DataFrame({"q": pd.Series(dtype=np.float64),
                             "lag_us": pd.Series(dtype=np.int64)})
    return pd.DataFrame({"q": out["q"].to_numpy(np.float64),
                         "lag_us": out["value"].to_numpy(np.int64)})


SQL_CONVERSION_LAG_QUANTILES = """
WITH fv AS (
  SELECT user_id, min(epoch_us(ts)) AS v0 FROM events
  WHERE event_type = 'view' GROUP BY 1
),
fp AS (
  SELECT e.user_id, min(epoch_us(e.ts)) AS p0
  FROM events e JOIN fv ON fv.user_id = e.user_id
  WHERE e.event_type = 'purchase' AND epoch_us(e.ts) >= fv.v0
  GROUP BY 1
),
lag AS (SELECT fp.p0 - fv.v0 AS lag_us FROM fp JOIN fv USING (user_id)),
n AS (SELECT count(*) AS nt FROM lag),
r AS (SELECT lag_us, row_number() OVER (ORDER BY lag_us) AS rk FROM lag)
SELECT q, CAST(min(lag_us) AS BIGINT) AS lag_us
FROM r, n, (VALUES (0.25), (0.5), (0.75), (0.95)) qs(q)
WHERE rk >= CAST(ceil(q * nt) AS BIGINT) AND nt > 0
GROUP BY q
"""


def user_gap_mad(sf_dir: str, num_buckets: int = 16) -> ray.data.Dataset:
    """Per-user inter-event-gap median and MAD — the robust behavioral
    fingerprint behind bot detection (a scripted client's gaps have
    near-zero MAD; a human's spread): the per-GROUP member of the
    median/MAD family (mad_price_outliers is global-per-flag off a
    histogram; gaps are unbounded, so here each user's gaps sort
    in-bucket).

    One user-keyed exchange; in-bucket everything is grouped-vectorized
    (lexsort, diff, per-group rank picks via cumcount — no per-user
    loop).  Lower-median rank (n+1)//2 on both engines.
    -> (user_id, n_gaps, med_gap_us, mad_gap_us), users with >= 1 gap."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    cols = {"user_id": np.int64, "n_gaps": np.int64,
            "med_gap_us": np.int64, "mad_gap_us": np.int64}

    def _group_lower_median(uid: np.ndarray, val: np.ndarray) -> pd.Series:
        """uid run-grouped; per group the (n+1)//2-th smallest val."""
        df = pd.DataFrame({"u": uid, "v": val})
        df = df.sort_values(["u", "v"], kind="mergesort",
                            ignore_index=True)
        g = df.groupby("u", sort=False)
        rank = g.cumcount().to_numpy()
        size = g["v"].transform("size").to_numpy()
        pick = rank == (size + 1) // 2 - 1
        return df[pick].set_index("u")["v"]

    def mad(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t)
                                 for c, t in cols.items()})
        t = ts_epoch_us(df["ts"])
        uid = df["user_id"].to_numpy(np.int64)
        order = np.lexsort((df["event_id"].to_numpy(np.int64), t, uid))
        uid, t = uid[order], t[order]
        same = np.concatenate([[False], uid[1:] == uid[:-1]])
        gap = np.empty(len(t), dtype=np.int64)
        gap[1:] = t[1:] - t[:-1]
        gu, gv = uid[same], gap[same]
        if len(gu) == 0:
            return pd.DataFrame({c: pd.Series(dtype=t_)
                                 for c, t_ in cols.items()})
        med = _group_lower_median(gu, gv)
        dev = np.abs(gv - med.reindex(gu).to_numpy(np.int64))
        md = _group_lower_median(gu, dev)
        n = pd.Series(gv).groupby(gu).size()
        return pd.DataFrame(
            {"user_id": med.index.to_numpy(np.int64),
             "n_gaps": n.reindex(med.index).to_numpy(np.int64),
             "med_gap_us": med.to_numpy(np.int64),
             "mad_gap_us": md.reindex(med.index).to_numpy(np.int64)})

    return hash_exchange(ds, "user_id", mad, num_buckets)


SQL_USER_GAP_MAD = """
WITH g AS (
  SELECT user_id,
         epoch_us(ts) - lag(epoch_us(ts))
           OVER (PARTITION BY user_id ORDER BY ts, event_id) AS gap
  FROM events
),
gg AS (SELECT user_id, gap FROM g WHERE gap IS NOT NULL),
n AS (SELECT user_id, count(*) AS n_gaps FROM gg GROUP BY 1),
r AS (SELECT user_id, gap,
             row_number() OVER (PARTITION BY user_id ORDER BY gap) AS rk
      FROM gg),
med AS (SELECT r.user_id, min(gap) AS med FROM r JOIN n USING (user_id)
        WHERE rk >= (n_gaps + 1) // 2 GROUP BY 1),
dv AS (SELECT gg.user_id, abs(gg.gap - med.med) AS d
       FROM gg JOIN med USING (user_id)),
rd AS (SELECT user_id, d,
              row_number() OVER (PARTITION BY user_id ORDER BY d) AS rk
       FROM dv),
mad AS (SELECT rd.user_id, min(d) AS mad FROM rd JOIN n USING (user_id)
        WHERE rk >= (n_gaps + 1) // 2 GROUP BY 1)
SELECT user_id, CAST(n_gaps AS BIGINT) AS n_gaps,
       CAST(med AS BIGINT) AS med_gap_us,
       CAST(mad AS BIGINT) AS mad_gap_us
FROM n JOIN med USING (user_id) JOIN mad USING (user_id)
"""


def dau_wau_mau(sf_dir: str, num_buckets: int = 8) -> ray.data.Dataset:
    """DAU / WAU / MAU: per calendar day, the distinct users active
    that day, in the trailing 7 days, and in the trailing 30 — the
    growth-analytics triple that sliding-window DISTINCT makes hard
    (a user active twice in a window still counts once, so no sum of
    daily counts works).

    Shape: per-batch DISTINCT (user, day) pairs are the combiner
    (shuffle bytes O(users x active days), never O(events)); each pair
    then fans out to the <= 30 window days it serves (a bounded
    explode), and ONE day-keyed exchange dedups per (window day, user,
    span) and counts — a window day's users co-locate, so the count is
    exact.  Days with no activity in any trailing span emit nothing.
    -> (day_epoch_s, dau, wau, mau)."""
    DAY_US = 86_400_000_000
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                                 "day": pd.Series(dtype=np.int64)})
        return pd.DataFrame(
            {"user_id": df["user_id"].to_numpy(np.int64),
             "day": ts_epoch_us(df["ts"]) // DAY_US}
        ).drop_duplicates(ignore_index=True)

    def fanout(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                                 "wday": pd.Series(dtype=np.int64),
                                 "span": pd.Series(dtype=np.int64)})
        d = df.drop_duplicates()
        u = d["user_id"].to_numpy(np.int64)
        day = d["day"].to_numpy(np.int64)
        out_u, out_w, out_s = [], [], []
        for span, width in ((1, 1), (7, 7), (30, 30)):
            off = np.arange(width, dtype=np.int64)
            out_u.append(np.repeat(u, width))
            out_w.append((day[:, None] + off[None, :]).ravel())
            out_s.append(np.full(len(u) * width, span, dtype=np.int64))
        return pd.DataFrame({"user_id": np.concatenate(out_u),
                             "wday": np.concatenate(out_w),
                             "span": np.concatenate(out_s)})

    def count(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"day_epoch_s": np.int64, "dau": np.int64,
                "wau": np.int64, "mau": np.int64}
        if len(df) == 0 or "wday" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t)
                                 for c, t in cols.items()})
        g = (df.drop_duplicates()
             .groupby(["wday", "span"], as_index=False)["user_id"]
             .nunique().rename(columns={"user_id": "n"}))
        p = g.pivot(index="wday", columns="span", values="n").fillna(0)
        for s in (1, 7, 30):
            if s not in p.columns:
                p[s] = 0
        return pd.DataFrame(
            {"day_epoch_s": p.index.to_numpy(np.int64) * 86_400,
             "dau": p[1].to_numpy(np.int64),
             "wau": p[7].to_numpy(np.int64),
             "mau": p[30].to_numpy(np.int64)})

    fan = ds.map_batches(pairs, batch_format="pandas").map_batches(
        fanout, batch_format="pandas")
    return hash_exchange(fan, "wday", count, num_buckets)


SQL_DAU_WAU_MAU = """
WITH p AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day
  FROM events
),
days AS (
  SELECT DISTINCT day + o AS wday
  FROM p, unnest(range(0, 30)) t(o)
)
SELECT CAST(wday * 86400 AS BIGINT) AS day_epoch_s,
       CAST(count(DISTINCT CASE WHEN p.day = wday
                           THEN user_id END) AS BIGINT) AS dau,
       CAST(count(DISTINCT CASE WHEN p.day > wday - 7
                           THEN user_id END) AS BIGINT) AS wau,
       CAST(count(DISTINCT user_id) AS BIGINT) AS mau
FROM days JOIN p ON p.day BETWEEN wday - 29 AND wday
GROUP BY wday
"""


def loo_target_encoding(sf_dir: str, num_buckets: int = 4) -> ray.data.Dataset:
    """Leave-one-out target encoding of a categorical feature: each
    order's priority class encoded as the mean order value of the
    OTHER orders in its class — the supervised-feature transform that
    must exclude the row's own target or it leaks (the classic tabular
    ML preprocessing step).  Exact fixed-point: enc_x1e3 =
    ``(1000 * (sum_c - x_i)) // (n_c - 1)`` in integer cents.

    Per-class (n, sum) folds from per-batch combiners into a
    cells-bounded driver dict broadcast to a map-only encode pass —
    the same asymmetry as a fitted sklearn encoder, so no shuffle
    touches the fact table.  Singleton classes emit NULL-free -1 (the
    no-information sentinel both engines share).
    -> (o_orderkey, o_orderpriority, enc_x1e3)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority", "o_totalprice"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderpriority" not in df.columns:
            return pd.DataFrame({"prio": pd.Series(dtype=object),
                                 "n": pd.Series(dtype=np.int64),
                                 "s": pd.Series(dtype=object)})
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        g = pd.DataFrame({"prio": df["o_orderpriority"].to_numpy(),
                          "c": cents}).groupby("prio")["c"]
        # decimal-string partial sums: exact past int64 at any scale
        return pd.DataFrame(
            {"prio": g.size().index.to_numpy(object),
             "n": g.size().to_numpy(np.int64),
             "s": [str(int(x)) for x in g.sum()]})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    stats: dict[str, tuple[int, int]] = {}
    if not parts.empty and "prio" in parts.columns:
        for p, g in parts.groupby("prio"):
            stats[p] = (int(g["n"].sum()), sum(int(x) for x in g["s"]))
    sref = ray.put(stats)

    def encode(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderkey" not in df.columns:
            return pd.DataFrame(
                {"o_orderkey": pd.Series(dtype=np.int64),
                 "o_orderpriority": pd.Series(dtype=object),
                 "enc_x1e3": pd.Series(dtype=np.int64)})
        st = ray.get(sref)
        if any(1000 * s >= (1 << 63) for _, s in st.values()):
            raise OverflowError(
                "loo_target_encoding class sum exceeds the vectorized "
                "int64 encode bound; shard the class or widen the scale"
            )
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        prio = pd.Series(df["o_orderpriority"].to_numpy(object))
        ns = prio.map(lambda p: st[p][0]).to_numpy(np.int64)
        ss = prio.map(lambda p: st[p][1]).to_numpy(np.int64)
        enc = np.where(
            ns <= 1, np.int64(-1),
            (1000 * (ss - cents)) // np.maximum(ns - 1, 1))
        return pd.DataFrame(
            {"o_orderkey": df["o_orderkey"].to_numpy(np.int64),
             "o_orderpriority": prio.to_numpy(object),
             "enc_x1e3": enc.astype(np.int64)})

    return ds.map_batches(encode, batch_format="pandas")


SQL_LOO_TARGET_ENCODING = """
WITH e AS (
  SELECT o_orderkey, o_orderpriority,
         CAST(floor(o_totalprice * 100.0) AS HUGEINT) AS cents
  FROM orders
),
s AS (SELECT o_orderpriority, count(*) AS n, sum(cents) AS t
      FROM e GROUP BY 1)
SELECT e.o_orderkey, e.o_orderpriority,
       CAST(CASE WHEN s.n <= 1 THEN -1
            ELSE (1000 * (s.t - e.cents)) // (s.n - 1)
            END AS BIGINT) AS enc_x1e3
FROM e JOIN s USING (o_orderpriority)
"""


def revenue_gini(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """Gini coefficient of order values — THE inequality scalar next to
    revenue_pareto's decile curve — exact, with no global sort: ranks
    are never materialized because tied values contribute an arithmetic
    series, so the whole statistic folds off the collapsed
    (cents, count) histogram: for value v with count c after o smaller
    rows, sum(rank*v) gains ``v * c * (2o + c + 1) / 2``.  Final value
    is the pure integer ``(1e6 * (2S - (n+1)T)) // (nT)`` (python
    bigint driver / row_number HUGEINT twin — same by the series
    identity).  One combiner pass + one cents-keyed exchange; the
    driver folds a price-domain-bounded histogram.
    -> one row (gini_x1e6, n)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_totalprice"]
    )
    cols = {"gini_x1e6": np.int64, "n": np.int64}

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_totalprice" not in df.columns:
            return pd.DataFrame({"cents": pd.Series(dtype=np.int64),
                                 "c": pd.Series(dtype=np.int64)})
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        u, n = np.unique(cents, return_counts=True)
        return pd.DataFrame({"cents": u, "c": n.astype(np.int64)})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "cents" not in df.columns:
            return pd.DataFrame({"cents": pd.Series(dtype=np.int64),
                                 "c": pd.Series(dtype=np.int64)})
        return (df.groupby("cents", as_index=False)["c"].sum()
                .astype(np.int64))

    hist = hash_exchange(
        ds.map_batches(partial, batch_format="pandas"), "cents", merge,
        num_buckets,
    ).to_pandas()
    if hist.empty or "cents" not in hist.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    h = hist.sort_values("cents", ignore_index=True)
    S, T, n, o = 0, 0, 0, 0
    for v, c in zip(h["cents"], h["c"]):
        v, c = int(v), int(c)
        S += v * (c * (2 * o + c + 1)) // 2
        T += v * c
        o += c
        n += c
    if n == 0 or T == 0:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    g = (1_000_000 * (2 * S - (n + 1) * T)) // (n * T)
    return pd.DataFrame({"gini_x1e6": [g], "n": [n]}).astype(
        {c: t for c, t in cols.items()})


SQL_REVENUE_GINI = """
WITH e AS (
  SELECT CAST(floor(o_totalprice * 100.0) AS HUGEINT) AS cents
  FROM orders
),
r AS (
  SELECT cents, CAST(row_number() OVER (ORDER BY cents) AS HUGEINT) AS rk
  FROM e
),
s AS (SELECT count(*) AS n, sum(cents) AS t, sum(rk * cents) AS s FROM r)
SELECT CAST((1000000 * (2 * s - (n + 1) * t)) // (n * t) AS BIGINT)
         AS gini_x1e6,
       CAST(n AS BIGINT) AS n
FROM s WHERE n > 0 AND t > 0
"""


# Poisson(1) CDF cutoffs scaled by 16^6 (exact ints both engines):
# weight k iff cutoff[k-1] <= u < cutoff[k] over the md5-uniform u
_POIS_CUTS = (6171992, 12343985, 15429982, 16458647,
              16715813, 16767247, 16775819, 16777044)
_BOOT_REPS = 8


def poisson_bootstrap_mean(sf_dir: str) -> pd.DataFrame:
    """Distributed bootstrap of mean order value: ``_BOOT_REPS``
    Poisson-bootstrap replicates (the resampling scheme that actually
    distributes — per-row independent Poisson(1) multiplicities instead
    of a global sample-with-replacement, so each replicate is one
    streaming weighted sum).  Everything is deterministic and
    hash-exact: the md5-of-orderkey uniform is cut by precomputed
    integer Poisson CDF thresholds (no float RNG anywhere), per-batch
    (sum_w, sum_wx) partials fold as decimal strings -> python ints,
    and the replicate mean is a floored fixed-point rational.
    -> (rep, n_eff, mean_cents_x100) — the spread across reps IS the
    sampling-error estimate."""
    import hashlib

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    cols = {"rep": np.int64, "n_eff": np.int64, "mean_cents_x100": np.int64}
    cuts = np.asarray(_POIS_CUTS, dtype=np.int64)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderkey" not in df.columns:
            return pd.DataFrame({"rep": pd.Series(dtype=np.int64),
                                 "sw": pd.Series(dtype=object),
                                 "swx": pd.Series(dtype=object)})
        keys = df["o_orderkey"].astype(str)
        h = (keys.map(lambda s: hashlib.md5(s.encode()).hexdigest())
             + keys.map(lambda s: hashlib.md5((s + "x").encode()).hexdigest()))
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100.0).astype(np.int64)
        rows = []
        for rep in range(_BOOT_REPS):
            u = h.str.slice(6 * rep, 6 * rep + 6).map(
                lambda s: int(s, 16)).to_numpy(np.int64)
            w = np.searchsorted(cuts, u, side="right")
            sw, swx = 0, 0
            for s in range(0, len(w), 8192):
                sw += int(w[s:s + 8192].sum())
                swx += int((w[s:s + 8192] * cents[s:s + 8192]).sum())
            rows.append((rep, str(sw), str(swx)))
        return pd.DataFrame(rows, columns=["rep", "sw", "swx"]).astype(
            {"rep": np.int64})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty or "rep" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    out = []
    for rep in range(_BOOT_REPS):
        g = parts[parts["rep"] == rep]
        sw = sum(int(x) for x in g["sw"])
        swx = sum(int(x) for x in g["swx"])
        if sw == 0:
            continue
        out.append((rep, sw, (100 * swx) // sw))
    return pd.DataFrame(out, columns=list(cols)).astype(
        {c: t for c, t in cols.items()})


def _sql_poisson_bootstrap_mean() -> str:
    whens = "".join(
        f" WHEN u < {c} THEN {k}" for k, c in enumerate(_POIS_CUTS)
    )
    return f"""
WITH o AS (
  SELECT md5(CAST(o_orderkey AS VARCHAR))
           || md5(CAST(o_orderkey AS VARCHAR) || 'x') AS h,
         CAST(floor(o_totalprice * 100.0) AS HUGEINT) AS cents
  FROM orders
),
u AS (
  SELECT rep, cents, {_sql_hexval6('h', '1 + 6 * rep')} AS u
  FROM o, range(0, {_BOOT_REPS}) t(rep)
),
w AS (SELECT rep, cents, CASE{whens} ELSE {len(_POIS_CUTS)} END AS wt FROM u),
s AS (SELECT rep, sum(wt::HUGEINT) AS sw, sum(wt::HUGEINT * cents) AS swx
      FROM w GROUP BY 1)
SELECT CAST(rep AS BIGINT) AS rep, CAST(sw AS BIGINT) AS n_eff,
       CAST((100 * swx) // sw AS BIGINT) AS mean_cents_x100
FROM s WHERE sw > 0
"""


def basket_rules(sf_dir: str, num_buckets: int = 16) -> pd.DataFrame:
    """Market-basket association rules at brand granularity: for each
    unordered brand pair, the orders containing both (support), both
    directional confidences and the lift — the Apriori 2-itemset
    output that seeds recommendation / cross-sell pipelines.

    Shape: brands attach to lineitem on ONE partkey coexchange (the
    part side scales with the corpus — never a broadcast); distinct
    (order, brand) rows then co-locate per order on an orderkey
    exchange where each basket expands to its <= C(|brands|, 2) pairs;
    per-bucket partials collapse to the DENSE bounded brand-pair
    matrix (<= ~300 rows/bucket at 25 brands), so the driver folds
    O(brands^2 x buckets), never O(orders).  Ratios are floored
    fixed-point via python-int arithmetic (exact at any scale; HUGEINT
    twin) -> (brand_a, brand_b, n_ab, conf_ab_x1e6, conf_ba_x1e6,
    lift_x1e6), pairs with n_ab >= 2."""
    from .core import hash_coexchange

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )
    pt = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
    )

    _OB = {"ok": np.int64, "b": object}

    def attach(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
        if (len(a) == 0 or "l_orderkey" not in a.columns
                or len(b) == 0 or "p_partkey" not in b.columns):
            return pd.DataFrame(
                {c: pd.Series(dtype=t) for c, t in _OB.items()})
        j = a.drop_duplicates().merge(
            b.drop_duplicates(), left_on="l_partkey", right_on="p_partkey")
        return pd.DataFrame(
            {"ok": j["l_orderkey"].to_numpy(np.int64),
             "b": j["p_brand"].to_numpy(object)}
        ).drop_duplicates(ignore_index=True)

    ob = hash_coexchange(li, pt, "l_partkey", "p_partkey", attach,
                         num_buckets=num_buckets)

    _PART = {"brand_a": object, "brand_b": object, "n": np.int64}

    def per_order(df: pd.DataFrame) -> pd.DataFrame:
        # one partial frame per bucket: brand-pair counts, per-brand
        # basket counts (brand_b = ''), and the bucket's order count
        # ('' / '') — three tiny dense families in one exchange pass
        if len(df) == 0 or "ok" not in df.columns:
            return pd.DataFrame(
                {c: pd.Series(dtype=t) for c, t in _PART.items()})
        d = df.drop_duplicates(ignore_index=True)
        j = d.merge(d, on="ok")
        j = j[j["b_x"] < j["b_y"]]
        pairs = j.groupby(["b_x", "b_y"], as_index=False).size()
        singles = d.groupby("b", as_index=False).size()
        return pd.DataFrame(
            {"brand_a": np.concatenate(
                [pairs["b_x"].to_numpy(object),
                 singles["b"].to_numpy(object), np.array([""], object)]),
             "brand_b": np.concatenate(
                [pairs["b_y"].to_numpy(object),
                 np.full(len(singles) + 1, "", object)]),
             "n": np.concatenate(
                [pairs["size"].to_numpy(np.int64),
                 singles["size"].to_numpy(np.int64),
                 np.array([d["ok"].nunique()], np.int64)])})

    parts = hash_exchange(ob, "ok", per_order,
                                   num_buckets).to_pandas()

    out_cols = {"brand_a": object, "brand_b": object, "n_ab": np.int64,
                "conf_ab_x1e6": np.int64, "conf_ba_x1e6": np.int64,
                "lift_x1e6": np.int64}
    empty = pd.DataFrame({c: pd.Series(dtype=t) for c, t in out_cols.items()})
    if parts.empty or "brand_a" not in parts.columns:
        return empty
    g = parts.groupby(["brand_a", "brand_b"], as_index=False)["n"].sum()
    n_orders = int(g.loc[(g["brand_a"] == "") & (g["brand_b"] == ""),
                         "n"].sum())
    sing = {r.brand_a: int(r.n) for r in
            g[(g["brand_b"] == "") & (g["brand_a"] != "")].itertuples()}
    pairs = g[(g["brand_a"] != "") & (g["brand_b"] != "")]
    pairs = pairs[pairs["n"] >= 2]
    if pairs.empty:
        return empty
    rows = []
    for r in pairs.itertuples():
        n_ab, na, nb = int(r.n), sing[r.brand_a], sing[r.brand_b]
        lift = (1_000_000 * n_ab * n_orders) // (na * nb)
        if lift >= (1 << 63):  # matches the HUGEINT twin's range loudly
            raise OverflowError(
                f"lift_x1e6 exceeds int64 for ({r.brand_a}, {r.brand_b})")
        rows.append((r.brand_a, r.brand_b, n_ab,
                     (1_000_000 * n_ab) // na, (1_000_000 * n_ab) // nb,
                     lift))
    return pd.DataFrame(rows, columns=list(out_cols)).astype(out_cols)


SQL_BASKET_RULES = """
WITH ob AS (
  SELECT DISTINCT l_orderkey AS ok, p_brand AS b
  FROM lineitem JOIN part ON p_partkey = l_partkey
),
n AS (SELECT count(DISTINCT ok) AS n_orders FROM ob),
cnt AS (SELECT b, count(*) AS c FROM ob GROUP BY b),
pairs AS (
  SELECT a.b AS brand_a, b2.b AS brand_b, count(*) AS n_ab
  FROM ob a JOIN ob b2 ON a.ok = b2.ok AND a.b < b2.b
  GROUP BY 1, 2
)
SELECT brand_a, brand_b, CAST(n_ab AS BIGINT) AS n_ab,
       CAST((1000000::HUGEINT * n_ab) // ca.c AS BIGINT) AS conf_ab_x1e6,
       CAST((1000000::HUGEINT * n_ab) // cb.c AS BIGINT) AS conf_ba_x1e6,
       CAST((1000000::HUGEINT * n_ab * n.n_orders)
            // (ca.c::HUGEINT * cb.c) AS BIGINT) AS lift_x1e6
FROM pairs, n
JOIN cnt ca ON ca.b = brand_a
JOIN cnt cb ON cb.b = brand_b
WHERE n_ab >= 2
"""


def kaplan_meier(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """Kaplan-Meier survival of time-to-repurchase: per customer, the
    event is the SECOND order; weeks from first order to second are
    event times, one-order customers are right-censored at the corpus's
    last order date — the churn/survival curve estimator, exact.

    Shape: one streaming max-day pass (scalar to the driver), then a
    custkey exchange where each customer collapses to ONE (week, event)
    row and partials collapse further to the bounded (week, d, c)
    histogram — the driver folds O(weeks), never O(customers).  The
    product-limit estimate is floored fixed-point per step
    (``s <- s * (n_w - d_w) // n_w`` from 1e6) so a recursive-CTE
    HUGEINT twin reproduces it bit-for-bit.
    -> (week, n_risk, n_events, surv_x1e6), rows at event weeks."""
    DAY_US = 86_400_000_000
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    )

    out_cols = {"week": np.int64, "n_risk": np.int64,
                "n_events": np.int64, "surv_x1e6": np.int64}
    empty = pd.DataFrame({c: pd.Series(dtype=t) for c, t in out_cols.items()})

    _MIN = np.iinfo(np.int64).min

    def max_part(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderdate" not in df.columns:
            return pd.DataFrame({"md": pd.Series(dtype=np.int64)})
        return pd.DataFrame(
            {"md": [int(ts_epoch_us(df["o_orderdate"]).max() // DAY_US)]})

    mx = ds.map_batches(max_part, batch_format="pandas").to_pandas()
    if mx.empty or "md" not in mx.columns:
        return empty
    md = int(mx["md"].max())
    if md == _MIN:
        return empty

    _H = {"wk": np.int64, "d": np.int64, "c": np.int64}

    def per_customer(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_custkey" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _H.items()})
        day = ts_epoch_us(df["o_orderdate"]) // DAY_US
        d = pd.DataFrame(
            {"ck": df["o_custkey"].to_numpy(np.int64), "day": day}
        ).sort_values(["ck", "day"], kind="mergesort")
        ck = d["ck"].to_numpy()
        dy = d["day"].to_numpy()
        first = np.unique(ck, return_index=True)[1]
        cnt = np.diff(np.append(first, len(ck)))
        d1 = dy[first]
        has2 = cnt >= 2
        # 2nd-smallest day per customer (duplicate days count as two
        # orders — a same-day repurchase is a week-0 event)
        d2 = dy[np.minimum(first + 1, len(dy) - 1)]
        wk = np.where(has2, (d2 - d1) // 7, (md - d1) // 7)
        g = pd.DataFrame({"wk": wk.astype(np.int64),
                          "ev": has2.astype(np.int64)}
                         ).groupby("wk", as_index=False)["ev"].agg(
            d="sum", c=lambda s: int((1 - s).sum()))
        return g.astype(_H)

    parts = hash_exchange(
        ds, "o_custkey", per_customer, num_buckets).to_pandas()
    if parts.empty or "wk" not in parts.columns:
        return empty
    hist = parts.groupby("wk", as_index=False)[["d", "c"]].sum()
    hist = hist.sort_values("wk", ascending=False, ignore_index=True)
    # n_at_risk(w) = customers whose event-or-censor week >= w
    hist["n"] = (hist["d"] + hist["c"]).cumsum()
    ev = hist[hist["d"] > 0].sort_values("wk", ignore_index=True)
    s = 1_000_000
    rows = []
    for r in ev.itertuples():
        n_w, d_w = int(r.n), int(r.d)
        s = (s * (n_w - d_w)) // n_w
        rows.append((int(r.wk), n_w, d_w, s))
    return pd.DataFrame(rows, columns=list(out_cols)).astype(out_cols)


SQL_KAPLAN_MEIER = """
WITH RECURSIVE o AS (
  SELECT o_custkey AS ck,
         epoch_us(o_orderdate) // 86400000000 AS day
  FROM orders
),
mx AS (SELECT max(day) AS md FROM o),
per AS (SELECT ck, count(*) AS cnt, min(day) AS d1 FROM o GROUP BY ck),
r2 AS (
  SELECT ck, day AS second_day FROM (
    SELECT ck, day, row_number() OVER (PARTITION BY ck ORDER BY day) AS rn
    FROM o
  ) WHERE rn = 2
),
t AS (
  SELECT per.ck,
         CASE WHEN cnt >= 2 THEN (second_day - d1) // 7
              ELSE (mx.md - d1) // 7 END AS wk,
         CASE WHEN cnt >= 2 THEN 1 ELSE 0 END AS ev
  FROM per LEFT JOIN r2 ON r2.ck = per.ck, mx
),
hist AS (
  SELECT wk, sum(ev) AS d, count(*) - sum(ev) AS c FROM t GROUP BY wk
),
ev AS (
  SELECT wk, d,
         sum(d + c) OVER (ORDER BY wk DESC
                          ROWS BETWEEN UNBOUNDED PRECEDING
                          AND CURRENT ROW) AS n
  FROM hist
),
seq AS (
  SELECT wk, d, n, row_number() OVER (ORDER BY wk) AS i
  FROM ev WHERE d > 0
),
km AS (
  SELECT i, wk, d, n, (1000000::HUGEINT * (n - d)) // n AS s
  FROM seq WHERE i = 1
  UNION ALL
  SELECT q.i, q.wk, q.d, q.n, (km.s * (q.n - q.d)) // q.n
  FROM km JOIN seq q ON q.i = km.i + 1
)
SELECT CAST(wk AS BIGINT) AS week, CAST(n AS BIGINT) AS n_risk,
       CAST(d AS BIGINT) AS n_events, CAST(s AS BIGINT) AS surv_x1e6
FROM km
"""


def conversion_ab_test(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """Two-proportion A/B test on conversion: users split 50/50 by the
    parity of their md5 first nibble (the deterministic bucketing an
    experiment framework would persist), conversion = at least one
    purchase event; reports both arms and the pooled z^2 statistic —
    the experimentation-readout primitive.

    Shape: per-batch distinct (user, converted) partials, ONE user
    exchange dedups users exactly (md5 runs once per distinct user per
    bucket), per-bucket partials collapse to two (arm, n, conv) rows;
    the driver folds O(buckets).  z^2 is pure rational arithmetic —
    ``1e6 * (c_a*n_b - c_b*n_a)^2 * N // (n_a*n_b*C*(N-C))`` — in
    python ints (HUGEINT twin), so the statistic hashes exactly.
    -> one row (n_a, conv_a, n_b, conv_b, z2_x1e6)."""
    import hashlib

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )

    _P = {"user_id": np.int64, "conv": np.int64}

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _P.items()})
        g = pd.DataFrame(
            {"user_id": df["user_id"].to_numpy(np.int64),
             "conv": (df["event_type"].to_numpy() == "purchase")
             .astype(np.int64)}
        ).groupby("user_id", as_index=False)["conv"].max()
        return g.astype(_P)

    _A = {"grp": np.int64, "n": np.int64, "c": np.int64}

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _A.items()})
        u = df.groupby("user_id", as_index=False)["conv"].max()
        grp = u["user_id"].map(
            lambda k: int(hashlib.md5(str(k).encode()).hexdigest()[0], 16) % 2
        ).to_numpy(np.int64)
        g = pd.DataFrame({"grp": grp, "conv": u["conv"].to_numpy(np.int64)}
                         ).groupby("grp", as_index=False)["conv"].agg(
            n="size", c="sum")
        return g.astype(_A)

    parts = hash_exchange(
        ds.map_batches(pre, batch_format="pandas"), "user_id", per_user,
        num_buckets).to_pandas()

    out_cols = {"n_a": np.int64, "conv_a": np.int64, "n_b": np.int64,
                "conv_b": np.int64, "z2_x1e6": np.int64}
    na = ca = nb = cb = 0
    if not parts.empty and "grp" in parts.columns:
        g = parts.groupby("grp")[["n", "c"]].sum()
        if 0 in g.index:
            na, ca = int(g.loc[0, "n"]), int(g.loc[0, "c"])
        if 1 in g.index:
            nb, cb = int(g.loc[1, "n"]), int(g.loc[1, "c"])
    C, N = ca + cb, na + nb
    if na == 0 or nb == 0 or C == 0 or C == N:
        z2 = 0  # degenerate arms: no variance, statistic undefined -> 0
    else:
        z2 = (1_000_000 * (ca * nb - cb * na) ** 2 * N) // (
            na * nb * C * (N - C))
        if z2 >= (1 << 63):
            raise OverflowError("z2_x1e6 exceeds int64")
    return pd.DataFrame([(na, ca, nb, cb, z2)],
                        columns=list(out_cols)).astype(out_cols)


SQL_CONVERSION_AB_TEST = """
WITH u AS (
  SELECT user_id,
         max(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS conv
  FROM events GROUP BY user_id
),
g AS (
  SELECT (strpos('0123456789abcdef',
                 substr(md5(CAST(user_id AS VARCHAR)), 1, 1)) - 1) % 2 AS grp,
         count(*) AS n, sum(conv) AS c
  FROM u GROUP BY 1
),
a AS (
  SELECT coalesce(max(CASE WHEN grp = 0 THEN n END), 0) AS n_a,
         coalesce(max(CASE WHEN grp = 0 THEN c END), 0) AS c_a,
         coalesce(max(CASE WHEN grp = 1 THEN n END), 0) AS n_b,
         coalesce(max(CASE WHEN grp = 1 THEN c END), 0) AS c_b
  FROM g
)
SELECT CAST(n_a AS BIGINT) AS n_a, CAST(c_a AS BIGINT) AS conv_a,
       CAST(n_b AS BIGINT) AS n_b, CAST(c_b AS BIGINT) AS conv_b,
       CAST(CASE WHEN n_a = 0 OR n_b = 0 OR c_a + c_b = 0
                      OR c_a + c_b = n_a + n_b THEN 0
            ELSE (1000000::HUGEINT
                  * (c_a::HUGEINT * n_b - c_b::HUGEINT * n_a)
                  * (c_a::HUGEINT * n_b - c_b::HUGEINT * n_a)
                  * (n_a + n_b))
                 // (n_a::HUGEINT * n_b * (c_a + c_b)
                     * (n_a + n_b - c_a - c_b))
            END AS BIGINT) AS z2_x1e6
FROM a
"""


def revenue_cusum(sf_dir: str) -> pd.DataFrame:
    """CUSUM change-point statistic over daily revenue: with reference
    level k = mean active-day revenue (floored cents), the one-sided
    cumulative sum ``s_t = max(0, s_{t-1} + x_t - k)`` flags sustained
    upward shifts — the classic sequential drift monitor over a
    revenue stream.

    Shape: per-batch (day, cents) partials are already collapsed to
    the bounded day domain (a calendar, not the fact table), so ONE
    streaming pass feeds a driver fold of O(days); the recurrence is
    inherently sequential and runs in python ints over that bounded
    series (recursive-CTE HUGEINT twin, bit-exact).
    -> (day_epoch_s, rev_cents, cusum_cents) per active day."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
    )
    DAY_US = 86_400_000_000

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderdate" not in df.columns:
            return pd.DataFrame({"day": pd.Series(dtype=np.int64),
                                 "cents": pd.Series(dtype=np.int64)})
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        g = pd.DataFrame(
            {"day": ts_epoch_us(df["o_orderdate"]) // DAY_US, "cents": cents}
        ).groupby("day", as_index=False)["cents"].sum()
        return g.astype({"day": np.int64, "cents": np.int64})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"day_epoch_s": np.int64, "rev_cents": np.int64,
                "cusum_cents": np.int64}
    if parts.empty or "day" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t)
                             for c, t in out_cols.items()})
    hist = parts.groupby("day", as_index=False)["cents"].sum()
    hist = hist.sort_values("day", ignore_index=True)
    total = sum(int(x) for x in hist["cents"])  # python ints: exact
    k = total // len(hist)
    s, rows = 0, []
    for r in hist.itertuples():
        s = max(0, s + int(r.cents) - k)
        rows.append((int(r.day) * 86_400, int(r.cents), s))
    return pd.DataFrame(rows, columns=list(out_cols)).astype(out_cols)


SQL_REVENUE_CUSUM = """
WITH RECURSIVE d AS (
  SELECT epoch_us(o_orderdate) // 86400000000 AS day,
         sum(CAST(floor(o_totalprice * 100) AS BIGINT)) AS cents
  FROM orders GROUP BY 1
),
k AS (SELECT sum(cents::HUGEINT) // count(*) AS k FROM d),
seq AS (SELECT day, cents, row_number() OVER (ORDER BY day) AS i FROM d),
cu AS (
  SELECT i, day, cents,
         greatest(0::HUGEINT, cents - (SELECT k FROM k)) AS s
  FROM seq WHERE i = 1
  UNION ALL
  SELECT q.i, q.day, q.cents,
         greatest(0::HUGEINT, cu.s + q.cents - (SELECT k FROM k))
  FROM cu JOIN seq q ON q.i = cu.i + 1
)
SELECT CAST(day * 86400 AS BIGINT) AS day_epoch_s,
       CAST(cents AS BIGINT) AS rev_cents,
       CAST(s AS BIGINT) AS cusum_cents
FROM cu
"""


_FOOTER_KEYS = (
    ("region", "r_regionkey"), ("nation", "n_nationkey"),
    ("customer", "c_custkey"), ("supplier", "s_suppkey"),
    ("part", "p_partkey"), ("orders", "o_orderkey"),
    ("lineitem", "l_orderkey"), ("events", "event_id"),
    ("documents", "doc_id"), ("embeddings", "vec_id"),
)


def footer_stats(sf_dir: str) -> pd.DataFrame:
    """Decode-free catalog audit: per table, row count and key-column
    min/max/null-count read from PARQUET FOOTERS ONLY (zero data pages
    touched) — the metadata sweep a planner runs to prune scans, cross-
    checked by the full-scan SQL twin, so a writer that produced lying
    statistics (the thing that silently breaks row-group pruning at
    100 TB) fails the hash.

    Shape: a dataset OF FILE PATHS fans footer reads out as tasks (a
    table is thousands of files at scale, each footer ~KB); per-file
    partials collapse to one row per (table, file) and the driver folds
    O(tables).  -> (tbl, n_rows, min_key, max_key, n_null)."""
    import os

    import pyarrow.parquet as _pq

    items = [{"tbl": t, "col": c,
              "path": os.path.join(sf_dir, f"{t}.parquet")}
             for t, c in _FOOTER_KEYS
             if os.path.exists(os.path.join(sf_dir, f"{t}.parquet"))]
    out_cols = {"tbl": object, "n_rows": np.int64, "min_key": np.int64,
                "max_key": np.int64, "n_null": np.int64}
    if not items:
        return pd.DataFrame({c: pd.Series(dtype=t)
                             for c, t in out_cols.items()})
    paths = ray.data.from_items(items)

    def read_footers(df: pd.DataFrame) -> pd.DataFrame:
        recs = []
        for r in df.itertuples():
            md = _pq.ParquetFile(r.path).metadata
            ci = next(i for i in range(md.num_columns)
                      if md.schema.column(i).name == r.col)
            rows = nulls = 0
            mn, mx = None, None
            for g in range(md.num_row_groups):
                rg = md.row_group(g)
                rows += rg.num_rows
                st = rg.column(ci).statistics
                if st is None:
                    if rg.num_rows:  # zero-row groups carry no stats
                        raise ValueError(
                            f"{r.path} rg{g}: missing statistics")
                    continue
                nulls += st.null_count or 0
                if st.has_min_max:
                    mn = st.min if mn is None else min(mn, st.min)
                    mx = st.max if mx is None else max(mx, st.max)
            recs.append((r.tbl, rows,
                         0 if mn is None else int(mn),
                         0 if mx is None else int(mx), nulls))
        return pd.DataFrame(recs, columns=list(out_cols)).astype(out_cols)

    parts = paths.map_batches(read_footers, batch_format="pandas").to_pandas()
    g = parts.groupby("tbl", as_index=False).agg(
        n_rows=("n_rows", "sum"),
        min_key=("min_key", "min"), max_key=("max_key", "max"),
        n_null=("n_null", "sum"))
    return g.astype(out_cols).sort_values("tbl", ignore_index=True)


SQL_FOOTER_STATS = "\nUNION ALL\n".join(
    f"""SELECT '{t}' AS tbl, CAST(count(*) AS BIGINT) AS n_rows,
       CAST(coalesce(min({c}), 0) AS BIGINT) AS min_key,
       CAST(coalesce(max({c}), 0) AS BIGINT) AS max_key,
       CAST(count(*) - count({c}) AS BIGINT) AS n_null FROM {t}"""
    for t, c in _FOOTER_KEYS
) + "\nORDER BY tbl"


def cohort_ltv(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """Cohort lifetime value: customers grouped by first-order calendar
    month, CUMULATIVE revenue tracked per month of age — the money
    sibling of cohort_retention and the table every growth model fits.

    One custkey exchange computes each customer's cohort AND the
    (cohort, age) revenue partials in the same bucket pass (a customer
    lives wholly in one bucket); the driver folds only the bounded
    cohort x age grid with python-int sums (exact; loud int64 guard)
    and cumsums ages in place.
    -> (cohort_month, age_months, n_customers, cum_revenue_cents)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_totalprice"],
    )

    _P = {"cm": np.int64, "age": np.int64, "rev": np.int64, "nc": np.int64}

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_custkey" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _P.items()})
        dt = pd.DatetimeIndex(df["o_orderdate"])
        m = (dt.year * 12 + dt.month - 1).to_numpy(np.int64)
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        d = pd.DataFrame({"ck": df["o_custkey"].to_numpy(np.int64),
                          "m": m, "cents": cents})
        first = d.groupby("ck")["m"].transform("min")
        rev = pd.DataFrame(
            {"cm": first.to_numpy(np.int64),
             "age": (d["m"] - first).to_numpy(np.int64),
             "rev": cents}
        ).groupby(["cm", "age"], as_index=False)["rev"].sum()
        rev["nc"] = 0
        nc = d.groupby("ck", as_index=False)["m"].min().groupby(
            "m", as_index=False).size()
        nc = pd.DataFrame({"cm": nc["m"].to_numpy(np.int64),
                           "age": np.full(len(nc), -1, np.int64),
                           "rev": np.zeros(len(nc), np.int64),
                           "nc": nc["size"].to_numpy(np.int64)})
        return pd.concat([rev, nc], ignore_index=True).astype(_P)

    parts = hash_exchange(
        ds, "o_custkey", per_bucket, num_buckets).to_pandas()
    out_cols = {"cohort_month": np.int64, "age_months": np.int64,
                "n_customers": np.int64, "cum_revenue_cents": np.int64}
    if parts.empty or "cm" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t)
                             for c, t in out_cols.items()})
    ncs = parts[parts["age"] < 0].groupby("cm")["nc"].sum().to_dict()
    rev = parts[parts["age"] >= 0].groupby(
        ["cm", "age"], as_index=False)["rev"].sum()
    rev = rev.sort_values(["cm", "age"], ignore_index=True)
    rows, cum, cur = [], 0, None
    for r in rev.itertuples():
        if r.cm != cur:
            cur, cum = r.cm, 0
        cum += int(r.rev)  # python ints: exact at any scale
        if cum >= (1 << 63):
            raise OverflowError("cum_revenue_cents exceeds int64")
        rows.append((int(r.cm), int(r.age), int(ncs[r.cm]), cum))
    return pd.DataFrame(rows, columns=list(out_cols)).astype(out_cols)


SQL_COHORT_LTV = """
WITH o AS (
  SELECT o_custkey AS ck,
         CAST(date_part('year', o_orderdate) * 12
              + date_part('month', o_orderdate) - 1 AS BIGINT) AS m,
         CAST(floor(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders
),
f AS (SELECT ck, min(m) AS cm FROM o GROUP BY ck),
nc AS (SELECT cm, count(*) AS n_customers FROM f GROUP BY cm),
r AS (SELECT f.cm, o.m - f.cm AS age, sum(cents) AS rev
      FROM o JOIN f ON f.ck = o.ck GROUP BY 1, 2)
SELECT CAST(r.cm AS BIGINT) AS cohort_month,
       CAST(age AS BIGINT) AS age_months,
       CAST(nc.n_customers AS BIGINT) AS n_customers,
       CAST(sum(rev) OVER (PARTITION BY r.cm ORDER BY age)
            AS BIGINT) AS cum_revenue_cents
FROM r JOIN nc ON nc.cm = r.cm
"""


# Benford first-digit probabilities log10(1 + 1/d), fixed-point 1e9 —
# ONE shared constant table: the SQL twin inlines these same literals,
# so both engines test against the identical expected distribution.
import math as _math

BENFORD_P_X1E9 = {
    d: int(round(_math.log10(1 + 1 / d) * 1_000_000_000))
    for d in range(1, 10)
}


def benford_audit(sf_dir: str) -> pd.DataFrame:
    """Benford's-law audit of order totals: observed first-significant-
    digit counts (of integer cents) against the log10(1+1/d) expected
    distribution, with an exact fixed-point chi-square contribution per
    digit — the fraud/data-quality screen run over any money column.

    Map-only: per-batch digit counts collapse to <= 9 rows; the driver
    folds O(digits) and evaluates the statistic in python ints over the
    shared 1e9-scaled constant table (HUGEINT twin).
    -> (digit, n_obs, expected_x1e9, chi2_term_x1e6)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_totalprice"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_totalprice" not in df.columns:
            return pd.DataFrame({"digit": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64)})
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        cents = cents[cents > 0]
        if len(cents) == 0:
            return pd.DataFrame({"digit": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64)})
        first = pd.Series(cents).astype(str).str[0].astype(np.int64)
        g = first.value_counts().sort_index()
        return pd.DataFrame({"digit": g.index.to_numpy(np.int64),
                             "n": g.to_numpy(np.int64)})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"digit": np.int64, "n_obs": np.int64,
                "expected_x1e9": np.int64, "chi2_term_x1e6": np.int64}
    if parts.empty or "digit" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t)
                             for c, t in out_cols.items()})
    obs = parts.groupby("digit")["n"].sum().to_dict()
    N = sum(int(v) for v in obs.values())
    rows = []
    for d in range(1, 10):
        o, p = int(obs.get(d, 0)), BENFORD_P_X1E9[d]
        exp9 = N * p
        term = ((o * 1_000_000_000 - exp9) ** 2 * 1_000_000) // (
            1_000_000_000 * exp9) if exp9 else 0
        if term >= (1 << 63) or exp9 >= (1 << 63):
            raise OverflowError("benford statistic exceeds int64")
        rows.append((d, o, exp9, term))
    return pd.DataFrame(rows, columns=list(out_cols)).astype(out_cols)


_BENFORD_VALUES = ", ".join(
    f"({d}, {p})" for d, p in BENFORD_P_X1E9.items())

SQL_BENFORD_AUDIT = f"""
WITH c AS (
  SELECT CAST(floor(o_totalprice * 100) AS BIGINT) AS cents FROM orders
),
o AS (
  SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) AS BIGINT) AS digit,
         count(*) AS n
  FROM c WHERE cents > 0 GROUP BY 1
),
n AS (SELECT coalesce(sum(n), 0) AS total FROM o),
p(digit, p9) AS (VALUES {_BENFORD_VALUES})
SELECT CAST(p.digit AS BIGINT) AS digit,
       CAST(coalesce(o.n, 0) AS BIGINT) AS n_obs,
       CAST(n.total * p.p9 AS BIGINT) AS expected_x1e9,
       CAST(CASE WHEN n.total = 0 THEN 0 ELSE
            ((coalesce(o.n, 0)::HUGEINT * 1000000000 - n.total * p.p9)
             * (coalesce(o.n, 0)::HUGEINT * 1000000000 - n.total * p.p9)
             * 1000000)
            // (1000000000::HUGEINT * n.total * p.p9) END AS BIGINT)
       AS chi2_term_x1e6
FROM p LEFT JOIN o ON o.digit = p.digit, n
WHERE n.total > 0
"""


# HLL alpha constant for m = 256 registers, fixed-point 1e9, plus the
# linear-counting table ln(256/V) for every possible zero-register
# count V — BOTH shared as literals between engine and twin, so the
# corrected estimator is pure integer arithmetic on each side.
HLL_ALPHA_X1E9 = int(round(0.7213 / (1 + 1.079 / 256) * 1_000_000_000))
HLL_LN_X1E9 = {v: int(round(_math.log(256 / v) * 1_000_000_000))
               for v in range(1, 257)}


def hll_error_audit(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """Sketch-accuracy audit: per event type, the HLL(m=256) distinct-
    user ESTIMATE next to the exact distinct count and the absolute
    error — the calibration table that justifies replacing exact
    distincts with sketches at 100 TB.

    The harmonic mean is evaluated as the exact rational
    ``sum(2^(57-rho))`` over all 256 registers (missing registers
    contribute 2^57) and the small-range linear-counting branch
    (``E < 2.5m`` with zero registers -> ``m * ln(m/V)``) reads a
    shared 1e9-scaled log table, so the corrected estimate is pure
    integer arithmetic (python ints / HUGEINT twin) — no float
    summation order to drift.  Registers come from the mergeable
    per-batch sketch partials; the exact side is a distinct
    (user, type) combiner + one user exchange.
    -> (event_type, n_exact, hll_est_x1e6, abs_err_x1e6)."""
    from .functions.hll import hll_registers_by

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    regs = hll_registers_by(ev, "user_id", "event_type")

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                                 "event_type": pd.Series(dtype=object)})
        return df.drop_duplicates(ignore_index=True)

    def count_part(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "event_type" not in df.columns:
            return pd.DataFrame({"event_type": pd.Series(dtype=object),
                                 "n": pd.Series(dtype=np.int64)})
        g = df.drop_duplicates().groupby("event_type", as_index=False).size()
        return pd.DataFrame({"event_type": g["event_type"],
                             "n": g["size"].astype(np.int64)})

    exact = hash_exchange(
        ev.map_batches(pre, batch_format="pandas"), "user_id", count_part,
        num_buckets).to_pandas()

    out_cols = {"event_type": object, "n_exact": np.int64,
                "hll_est_x1e6": np.int64, "abs_err_x1e6": np.int64}
    if exact.empty or "event_type" not in exact.columns:
        return pd.DataFrame({c: pd.Series(dtype=t)
                             for c, t in out_cols.items()})
    n_exact = exact.groupby("event_type")["n"].sum().to_dict()
    sums: dict[str, int] = {t: 256 * (1 << 57) for t in n_exact}
    npres: dict[str, int] = {t: 0 for t in n_exact}
    if not regs.empty and "register" in regs.columns:
        for r in regs.itertuples():
            # replace this register's default 2^57 with 2^(57-rho)
            sums[r.event_type] += (1 << (57 - int(r.rho_max))) - (1 << 57)
            npres[r.event_type] += 1
    rows = []
    for t in sorted(n_exact):
        s = sums[t]
        est = (HLL_ALPHA_X1E9 * 65536 * (1 << 57) * 1_000_000) // (
            s * 1_000_000_000)
        v = 256 - npres[t]
        if v > 0 and est < 640_000_000:  # E < 2.5m: linear counting
            est = (256 * HLL_LN_X1E9[v] * 1_000_000) // 1_000_000_000
        if est >= (1 << 63):
            raise OverflowError("hll_est_x1e6 exceeds int64")
        rows.append((t, int(n_exact[t]), est,
                     abs(est - int(n_exact[t]) * 1_000_000)))
    return pd.DataFrame(rows, columns=list(out_cols)).astype(out_cols)


SQL_HLL_ERROR_AUDIT = f"""
WITH h AS (
  SELECT event_type, user_id,
         {_sql_hexval_huge("md5(CAST(user_id AS VARCHAR))", 16)} AS val
  FROM events
),
rr AS (
  SELECT event_type,
         CAST(val >> 56 AS BIGINT) AS register,
         CAST(CASE WHEN (val % (1::HUGEINT << 56)) = 0 THEN 57
              ELSE 57 - length(bin(val % (1::HUGEINT << 56))) END
              AS BIGINT) AS rho
  FROM h
),
reg AS (SELECT event_type, register, max(rho) AS rho
        FROM rr GROUP BY 1, 2),
srr AS (
  SELECT event_type,
         sum(1::HUGEINT << CAST(57 - rho AS INTEGER)) AS s_present,
         count(*) AS n_present
  FROM reg GROUP BY 1
),
ex AS (SELECT event_type, count(DISTINCT user_id) AS n_exact
       FROM events GROUP BY 1),
raw AS (
  SELECT e.event_type, e.n_exact, 256 - s.n_present AS v,
         ({HLL_ALPHA_X1E9}::HUGEINT * 65536 * (1::HUGEINT << 57)
          * 1000000)
         // ((s.s_present + (256 - s.n_present) * (1::HUGEINT << 57))
             * 1000000000) AS est
  FROM ex e JOIN srr s ON s.event_type = e.event_type
),
ln9(v, l9) AS (VALUES {", ".join(f"({v}, {l})"
                                 for v, l in HLL_LN_X1E9.items())}),
est AS (
  SELECT event_type, n_exact,
         CASE WHEN raw.v > 0 AND raw.est < 640000000
              THEN (256::HUGEINT * ln9.l9 * 1000000) // 1000000000
              ELSE raw.est END AS est
  FROM raw LEFT JOIN ln9 ON ln9.v = raw.v
)
SELECT event_type, CAST(n_exact AS BIGINT) AS n_exact,
       CAST(est AS BIGINT) AS hll_est_x1e6,
       CAST(abs(est - n_exact::HUGEINT * 1000000) AS BIGINT)
       AS abs_err_x1e6
FROM est
"""


def haar_revenue(sf_dir: str, levels: int = 3) -> pd.DataFrame:
    """Integer Haar wavelet energy of the daily-revenue series: at each
    of 3 dyadic levels, the count of detail coefficients and the sum of
    their absolute values (unnormalized a+b / a-b transform over the
    active-day sequence, odd tails carried up) — the multiresolution
    feature a time-series anomaly model consumes: level-1 energy is
    day-to-day noise, level-3 is week-scale drift.

    The day histogram collapses in one streaming pass (bounded
    calendar domain); the dyadic recursion runs on the driver over
    O(days) python ints, exactly as the unrolled pairing CTEs of the
    HUGEINT twin.  -> (level, n_coeffs, abs_energy_cents)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
    )
    DAY_US = 86_400_000_000

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderdate" not in df.columns:
            return pd.DataFrame({"day": pd.Series(dtype=np.int64),
                                 "cents": pd.Series(dtype=np.int64)})
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        g = pd.DataFrame(
            {"day": ts_epoch_us(df["o_orderdate"]) // DAY_US, "cents": cents}
        ).groupby("day", as_index=False)["cents"].sum()
        return g.astype({"day": np.int64, "cents": np.int64})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"level": np.int64, "n_coeffs": np.int64,
                "abs_energy_cents": np.int64}
    if parts.empty or "day" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t)
                             for c, t in out_cols.items()})
    hist = parts.groupby("day", as_index=False)["cents"].sum()
    series = [int(x) for x in
              hist.sort_values("day", ignore_index=True)["cents"]]
    rows = []
    for lvl in range(1, levels + 1):
        pairs = len(series) // 2
        detail = [series[2 * i] - series[2 * i + 1] for i in range(pairs)]
        approx = [series[2 * i] + series[2 * i + 1] for i in range(pairs)]
        if len(series) % 2:
            approx.append(series[-1])  # odd tail carries up unchanged
        energy = sum(abs(d) for d in detail)
        if energy >= (1 << 63):
            raise OverflowError("abs_energy_cents exceeds int64")
        rows.append((lvl, pairs, energy))
        series = approx
        if not series:
            break
    return pd.DataFrame(rows, columns=list(out_cols)).astype(out_cols)


def _sql_haar_revenue(levels: int = 3) -> str:
    """Unrolled dyadic pairing: level k pairs consecutive rows of the
    previous approximation by row_number; odd tails pass through."""
    sql = """
WITH d AS (
  SELECT epoch_us(o_orderdate) // 86400000000 AS day,
         sum(CAST(floor(o_totalprice * 100) AS BIGINT)) AS v
  FROM orders GROUP BY 1
),
a0 AS (SELECT row_number() OVER (ORDER BY day) - 1 AS i, v::HUGEINT AS v
       FROM d)"""
    prev = "a0"
    selects = []
    for lvl in range(1, levels + 1):
        sql += f""",
p{lvl} AS (
  SELECT e.i // 2 AS i, e.v AS ev, o.v AS ov
  FROM {prev} e LEFT JOIN {prev} o ON o.i = e.i + 1
  WHERE e.i % 2 = 0
),
det{lvl} AS (SELECT i, ev - ov AS dv FROM p{lvl} WHERE ov IS NOT NULL),
a{lvl} AS (
  SELECT i, CASE WHEN ov IS NULL THEN ev ELSE ev + ov END AS v FROM p{lvl}
)"""
        prev = f"a{lvl}"
        selects.append(
            f"SELECT CAST({lvl} AS BIGINT) AS level,\n"
            f"       CAST((SELECT count(*) FROM det{lvl}) AS BIGINT)"
            f" AS n_coeffs,\n"
            f"       CAST((SELECT coalesce(sum(abs(dv)), 0) FROM det{lvl})"
            f" AS BIGINT) AS abs_energy_cents\n"
            f"FROM (SELECT 1) WHERE (SELECT count(*) FROM d) >= 1"
            f" AND (SELECT count(*) FROM {'d' if lvl == 1 else f'a{lvl - 1}'})"
            f" >= 1"
        )
    return sql + "\n" + "\nUNION ALL\n".join(selects)


def _sql_hexval6(expr: str, start_expr: str) -> str:
    """Integer value of the 6 hex chars of ``expr`` starting at the
    1-based DYNAMIC position ``start_expr`` (the static-position helper
    in textops builds literal offsets; replicate slicing needs an
    expression)."""
    return "(" + " + ".join(
        f"(strpos('0123456789abcdef', substr({expr}, ({start_expr}) + {i}, 1)) - 1)"
        f" * {16 ** (5 - i)}"
        for i in range(6)
    ) + ")"


def mann_whitney_quantity(sf_dir: str) -> pd.DataFrame:
    """Mann-Whitney U (Wilcoxon rank-sum) test: do RETURNED lineitems
    ship different quantities than kept ones?  Exact midrank handling —
    every rank is carried as 2x (tie midranks are half-integers), so
    the statistic is pure integer arithmetic and the HUGEINT SQL twin
    hashes identically.  Reports the rank-biserial-equivalent AUC
    (P(X_ret > X_kept) + 0.5 P(=)) at fixed-point 1e9.

    Map-only: per-batch (quantity, flag) counts collapse to the tiny
    quantity domain (bounded by the quantity value range, like
    quantity_mode); the driver folds O(values) python ints — no rank
    shuffle at any scale.  -> one row (n_ret, n_kept, two_u_ret,
    auc_x1e9)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_returnflag"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"q": pd.Series(dtype=np.int64),
                              "n_ret": pd.Series(dtype=np.int64),
                              "n_kept": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "l_quantity" not in df.columns:
            return empty
        q = df["l_quantity"].to_numpy(np.int64)
        r = (df["l_returnflag"] == "R").to_numpy()
        g = pd.DataFrame({"q": q, "r": r.astype(np.int64)}).groupby(
            "q", as_index=False).agg(n_ret=("r", "sum"), n=("r", "size"))
        g["n_kept"] = g["n"] - g["n_ret"]
        return g[["q", "n_ret", "n_kept"]].astype(np.int64)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"n_ret": np.int64, "n_kept": np.int64,
                "two_u_ret": np.int64, "auc_x1e9": np.int64}
    if parts.empty or "q" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t)
                             for c, t in out_cols.items()})
    g = parts.groupby("q").agg(
        n_ret=("n_ret", "sum"), n_kept=("n_kept", "sum")).sort_index()
    n1 = int(g["n_ret"].sum())
    n0 = int(g["n_kept"].sum())
    if n1 == 0 or n0 == 0:
        return pd.DataFrame({c: pd.Series(dtype=t)
                             for c, t in out_cols.items()})
    # two_rank(v) = 2*(count below v) + (count at v) + 1 — twice the
    # midrank, exact under ties; two_R1 = sum n1(v) * two_rank(v)
    tot = (g["n_ret"] + g["n_kept"]).to_numpy(np.int64)
    cless = np.concatenate([[0], np.cumsum(tot)[:-1]])
    two_rank = 2 * cless + tot + 1
    two_r1 = int((g["n_ret"].to_numpy(np.int64) * two_rank).sum())
    two_u1 = two_r1 - n1 * (n1 + 1)
    auc = (two_u1 * 1_000_000_000) // (2 * n1 * n0)
    if two_u1 >= (1 << 63):
        raise OverflowError("two_u_ret exceeds int64; rescale the report")
    return pd.DataFrame(
        [(n1, n0, two_u1, auc)], columns=list(out_cols)).astype(out_cols)


SQL_MANN_WHITNEY_QUANTITY = f"""
WITH v AS (
  SELECT CAST(l_quantity AS BIGINT) AS q,
         CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END AS r
  FROM lineitem
),
c AS (
  SELECT q, CAST(sum(r) AS HUGEINT) AS n1,
         CAST(count(*) - sum(r) AS HUGEINT) AS n0
  FROM v GROUP BY q
),
w AS (
  SELECT q, n1, n0,
         2 * COALESCE(sum(n1 + n0) OVER (
             ORDER BY q ROWS BETWEEN UNBOUNDED PRECEDING
             AND 1 PRECEDING), 0) + (n1 + n0) + 1 AS two_rank
  FROM c
),
s AS (
  SELECT sum(n1) AS n1t, sum(n0) AS n0t,
         sum(n1 * two_rank) AS two_r1
  FROM w
)
SELECT CAST(n1t AS BIGINT) AS n_ret,
       CAST(n0t AS BIGINT) AS n_kept,
       CAST(two_r1 - n1t * (n1t + 1) AS BIGINT) AS two_u_ret,
       CAST({_sql_floordiv('(two_r1 - n1t * (n1t + 1)) * 1000000000',
                           '2 * n1t * n0t')} AS BIGINT) AS auc_x1e9
FROM s WHERE n1t > 0 AND n0t > 0
"""


def ks_price_by_status(sf_dir: str) -> pd.DataFrame:
    """Two-sample Kolmogorov-Smirnov test: does the order-value
    distribution of fulfilled ('F') orders differ from open ('O')
    ones?  The sup-distance is computed exactly in integers —
    D_num = max |n_o*CDF_f(v) - n_f*CDF_o(v)| over the merged support —
    and reported at fixed-point 1e9 with the (smallest) value attaining
    it.  The drift monitor run between two corpus snapshots before
    trusting a retrain.

    Map-only: per-batch (cents, status) counts collapse to the distinct
    price domain (bounded by the price range x 100, like
    histogram_quantiles); the driver folds O(distinct values) and scans
    the merged CDF once.  -> one row (n_f, n_o, d_num, d_x1e9,
    at_cents)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_totalprice", "o_orderstatus"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"cents": pd.Series(dtype=np.int64),
                              "n_f": pd.Series(dtype=np.int64),
                              "n_o": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "o_totalprice" not in df.columns:
            return empty
        df = df[df["o_orderstatus"].isin(("F", "O"))]
        if len(df) == 0:
            return empty
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        f = (df["o_orderstatus"] == "F").to_numpy()
        g = pd.DataFrame({"cents": cents, "f": f.astype(np.int64)}).groupby(
            "cents", as_index=False).agg(n_f=("f", "sum"), n=("f", "size"))
        g["n_o"] = g["n"] - g["n_f"]
        return g[["cents", "n_f", "n_o"]].astype(np.int64)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"n_f": np.int64, "n_o": np.int64, "d_num": np.int64,
                "d_x1e9": np.int64, "at_cents": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    if parts.empty or "cents" not in parts.columns:
        return empty_out
    g = parts.groupby("cents").agg(
        n_f=("n_f", "sum"), n_o=("n_o", "sum")).sort_index()
    nf = int(g["n_f"].sum())
    no = int(g["n_o"].sum())
    if nf == 0 or no == 0:
        return empty_out
    if nf * no >= (1 << 62):
        raise OverflowError("KS numerator risks int64; rescale groups")
    cf = np.cumsum(g["n_f"].to_numpy(np.int64))
    co = np.cumsum(g["n_o"].to_numpy(np.int64))
    dn = np.abs(no * cf - nf * co)
    best = int(dn.argmax())  # argmax returns the FIRST (smallest cents)
    d_num = int(dn[best])
    return pd.DataFrame(
        [(nf, no, d_num, (d_num * 1_000_000_000) // (nf * no),
          int(g.index[best]))],
        columns=list(out_cols)).astype(out_cols)


SQL_KS_PRICE_BY_STATUS = f"""
WITH v AS (
  SELECT CAST(floor(o_totalprice * 100) AS BIGINT) AS cents,
         CASE WHEN o_orderstatus = 'F' THEN 1 ELSE 0 END AS f
  FROM orders WHERE o_orderstatus IN ('F', 'O')
),
c AS (
  SELECT cents, CAST(sum(f) AS HUGEINT) AS nf,
         CAST(count(*) - sum(f) AS HUGEINT) AS no
  FROM v GROUP BY cents
),
w AS (
  SELECT cents,
         sum(nf) OVER (ORDER BY cents) AS cf,
         sum(no) OVER (ORDER BY cents) AS co
  FROM c
),
t AS (SELECT sum(nf) AS nft, sum(no) AS not_ FROM c),
d AS (SELECT cents, abs(not_ * cf - nft * co) AS dn FROM w, t)
SELECT CAST(t.nft AS BIGINT) AS n_f,
       CAST(t.not_ AS BIGINT) AS n_o,
       CAST(b.dn AS BIGINT) AS d_num,
       CAST({_sql_floordiv('b.dn * 1000000000', 't.nft * t.not_')}
            AS BIGINT) AS d_x1e9,
       CAST(b.cents AS BIGINT) AS at_cents
FROM t, (SELECT cents, dn FROM d ORDER BY dn DESC, cents LIMIT 1) b
WHERE t.nft > 0 AND t.not_ > 0
"""


def order_value_ecdf(sf_dir: str) -> pd.DataFrame:
    """Empirical CDF of order value sampled at 10 equi-spaced grid
    points of the observed range — the distribution summary shipped to
    a dashboard without quantile machinery.  grid(i) = min_cents +
    (i * (max_cents - min_cents)) // 10 for i = 1..10, all integer.

    Two streaming passes: a min/max partial fold (O(blocks) rows),
    then per-batch searchsorted counts against the broadcast 10-value
    grid — no shuffle at any scale.  -> (i, grid_cents, n_le,
    frac_x1e9)."""
    path = f"{sf_dir}/orders.parquet"
    cols = ["o_totalprice"]

    def cents_of(df: pd.DataFrame) -> np.ndarray:
        return np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)

    def mm(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"lo": pd.Series(dtype=np.int64),
                              "hi": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "o_totalprice" not in df.columns:
            return empty
        c = cents_of(df)
        return pd.DataFrame({"lo": [int(c.min())], "hi": [int(c.max())]})

    bounds = ray.data.read_parquet(path, columns=cols).map_batches(
        mm, batch_format="pandas").to_pandas()
    out_cols = {"i": np.int64, "grid_cents": np.int64,
                "n_le": np.int64, "frac_x1e9": np.int64}
    if bounds.empty or "lo" not in bounds.columns:
        return pd.DataFrame({c: pd.Series(dtype=t)
                             for c, t in out_cols.items()})
    lo, hi = int(bounds["lo"].min()), int(bounds["hi"].max())
    grid = np.array([lo + (i * (hi - lo)) // 10 for i in range(1, 11)],
                    dtype=np.int64)

    def count_le(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"i": pd.Series(dtype=np.int64),
                              "n_le": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "o_totalprice" not in df.columns:
            return empty
        c = np.sort(cents_of(df))
        return pd.DataFrame(
            {"i": np.arange(1, 11, dtype=np.int64),
             "n_le": np.searchsorted(c, grid, side="right").astype(np.int64)})

    parts = ray.data.read_parquet(path, columns=cols).map_batches(
        count_le, batch_format="pandas").to_pandas()
    g = parts.groupby("i")["n_le"].sum().sort_index()
    n = int(g.loc[10])
    return pd.DataFrame(
        {"i": g.index.to_numpy(np.int64),
         "grid_cents": grid,
         "n_le": g.to_numpy(np.int64),
         "frac_x1e9": (g.to_numpy(np.int64) * 1_000_000_000) // n}
    ).astype(out_cols)


SQL_ORDER_VALUE_ECDF = """
WITH c AS (
  SELECT CAST(floor(o_totalprice * 100) AS BIGINT) AS cents FROM orders
),
b AS (SELECT min(cents) AS lo, max(cents) AS hi, count(*) AS n FROM c),
g AS (
  SELECT i, b.lo + (i * (b.hi - b.lo)) // 10 AS grid_cents, b.n
  FROM range(1, 11) t(i), b
)
SELECT CAST(g.i AS BIGINT) AS i,
       CAST(g.grid_cents AS BIGINT) AS grid_cents,
       CAST(count(c.cents) AS BIGINT) AS n_le,
       CAST(count(c.cents)::HUGEINT * 1000000000 // g.n AS BIGINT)
         AS frac_x1e9
FROM g LEFT JOIN c ON c.cents <= g.grid_cents
WHERE g.n > 0
GROUP BY g.i, g.grid_cents, g.n
"""


def autocorr_revenue(sf_dir: str) -> pd.DataFrame:
    """Autocorrelation of the daily-revenue series at lags 1..7 — the
    weekly-seasonality probe run before fitting any forecast.  The
    calendar is densified (days with no orders contribute 0 revenue)
    and the sample ACF is computed exactly: with integer cents x_t,
    n days and S = sum(x), r_k = sum((n*x_t - S)(n*x_{t-k} - S)) /
    sum((n*x_t - S)^2) — every term a python int / HUGEINT, only the
    final 1e9 fixed-point floor division reported.

    Map-only partials per (day) collapse to the bounded day domain;
    the driver folds O(days) ints (like orders_backlog_by_day).
    -> (lag, n_days, r_x1e9)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderdate", "o_totalprice"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"day": pd.Series(dtype=np.int64),
                              "rev": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "o_orderdate" not in df.columns:
            return empty
        day = ts_epoch_us(df["o_orderdate"]) // 86_400_000_000
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        g = pd.DataFrame({"day": day, "rev": cents}).groupby(
            "day", as_index=False)["rev"].sum()
        return g.astype(np.int64)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"lag": np.int64, "n_days": np.int64, "r_x1e9": np.int64}
    if parts.empty or "day" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t)
                             for c, t in out_cols.items()})
    g = parts.groupby("day")["rev"].sum()
    d0, d1 = int(g.index.min()), int(g.index.max())
    x = np.zeros(d1 - d0 + 1, dtype=np.int64)
    x[g.index.to_numpy(np.int64) - d0] = g.to_numpy(np.int64)
    n = len(x)
    S = int(x.sum())
    # centered-and-scaled series n*x_t - S as python ints (exact)
    c = [n * int(v) - S for v in x]
    den = sum(v * v for v in c)
    rows = []
    for k in range(1, 8):
        if k >= n or den == 0:
            continue
        num = sum(c[t] * c[t - k] for t in range(k, n))
        rows.append((k, n, (num * 1_000_000_000) // den))
    if not rows:
        return pd.DataFrame({c2: pd.Series(dtype=t)
                             for c2, t in out_cols.items()})
    return pd.DataFrame(rows, columns=list(out_cols)).astype(out_cols)


SQL_AUTOCORR_REVENUE = f"""
WITH r AS (
  SELECT epoch_us(o_orderdate) // 86400000000 AS day,
         sum(CAST(floor(o_totalprice * 100) AS BIGINT)) AS rev
  FROM orders GROUP BY 1
),
b AS (SELECT min(day) AS d0, max(day) AS d1 FROM r),
g AS (
  -- range() takes no lateral args: generate a constant 100k-day span
  -- (273 years) and clip to the observed calendar
  SELECT t.i AS pos FROM range(0, 100000) t(i), b
  WHERE t.i <= b.d1 - b.d0
),
rp AS (SELECT day - (SELECT d0 FROM b) AS pos, rev FROM r),
s AS (
  SELECT g.pos, CAST(COALESCE(rp.rev, 0) AS HUGEINT) AS x
  FROM g LEFT JOIN rp ON rp.pos = g.pos
),
tot AS (SELECT CAST(count(*) AS HUGEINT) AS n, sum(x) AS S FROM s),
c AS (SELECT pos, tot.n * x - tot.S AS v FROM s, tot),
den AS (SELECT sum(v * v) AS d FROM c),
num AS (
  SELECT k.k, sum(a.v * l.v) AS nm, count(*) AS n_pairs
  FROM range(1, 8) k(k)
  JOIN c a ON TRUE
  JOIN c l ON l.pos = a.pos - k.k
  GROUP BY k.k
)
SELECT CAST(num.k AS BIGINT) AS lag,
       CAST(tot.n AS BIGINT) AS n_days,
       CAST({_sql_floordiv('num.nm * 1000000000', 'den.d')} AS BIGINT)
         AS r_x1e9
FROM num, den, tot
WHERE den.d > 0
"""


def lineitem_reconciliation(sf_dir: str) -> pd.DataFrame:
    """Order-ledger reconciliation audit: per order, the header total
    (``o_totalprice``) against the recomputed sum of line charges
    (``floor(extendedprice * (1-discount) * (1+tax) * 100)`` cents —
    identical IEEE op sequence on both engines), rolled up per order
    status.  The invariant check run before trusting either table as a
    revenue source.

    Shape: line charges pre-aggregate per order inside each batch, then
    ONE two-sided keyed exchange on orderkey joins headers to partials;
    per-bucket output is O(statuses) rows, the driver folds a handful
    of ints.  Orders with no lineitems reconcile against 0.
    -> (o_orderstatus, n_orders, n_exact, n_header_over, n_header_under,
    max_abs_diff_cents)."""
    from .core import hash_coexchange

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_totalprice"],
    )
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_tax"],
    )

    def li_partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"l_orderkey": pd.Series(dtype=np.int64),
                              "charge": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "l_extendedprice" not in df.columns:
            return empty
        ch = np.floor(
            df["l_extendedprice"].to_numpy(np.float64)
            * (1.0 - df["l_discount"].to_numpy(np.float64))
            * (1.0 + df["l_tax"].to_numpy(np.float64)) * 100.0
        ).astype(np.int64)
        return pd.DataFrame(
            {"l_orderkey": df["l_orderkey"].to_numpy(np.int64),
             "charge": ch}).groupby("l_orderkey", as_index=False)[
            "charge"].sum().astype(np.int64)

    parts = li.map_batches(li_partial, batch_format="pandas")

    out_cols = {"o_orderstatus": object, "n_orders": np.int64,
                "n_exact": np.int64, "n_header_over": np.int64,
                "n_header_under": np.int64, "max_abs_diff_cents": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})

    def bucket(oa: pd.DataFrame, lb: pd.DataFrame) -> pd.DataFrame:
        if len(oa) == 0 or "o_orderkey" not in oa.columns:
            return empty_out
        if len(lb) == 0 or "l_orderkey" not in lb.columns:
            lb = pd.DataFrame({"l_orderkey": pd.Series(dtype=np.int64),
                               "charge": pd.Series(dtype=np.int64)})
        ch = lb.groupby("l_orderkey")["charge"].sum()
        total = np.floor(
            oa["o_totalprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        got = oa["o_orderkey"].map(ch).fillna(0).astype(np.int64)
        diff = total - got.to_numpy(np.int64)
        d = pd.DataFrame({"s": oa["o_orderstatus"].to_numpy(object),
                          "diff": diff})
        g = d.groupby("s")["diff"].agg(
            n_orders="size",
            n_exact=lambda v: int((v == 0).sum()),
            n_header_over=lambda v: int((v > 0).sum()),
            n_header_under=lambda v: int((v < 0).sum()),
            max_abs_diff_cents=lambda v: int(v.abs().max()),
        ).reset_index().rename(columns={"s": "o_orderstatus"})
        return g.astype({c: np.int64 for c in list(out_cols)[1:]})

    res = hash_coexchange(
        orders, parts, "o_orderkey", "l_orderkey", bucket, num_buckets=8
    ).to_pandas()
    if len(res) == 0 or "o_orderstatus" not in res.columns:
        return empty_out
    return res.groupby("o_orderstatus", as_index=False).agg(
        n_orders=("n_orders", "sum"), n_exact=("n_exact", "sum"),
        n_header_over=("n_header_over", "sum"),
        n_header_under=("n_header_under", "sum"),
        max_abs_diff_cents=("max_abs_diff_cents", "max"),
    ).astype({c: np.int64 for c in list(out_cols)[1:]})


SQL_LINEITEM_RECONCILIATION = """
WITH ch AS (
  SELECT l_orderkey,
         sum(CAST(floor(l_extendedprice * (1 - l_discount) * (1 + l_tax)
                        * 100) AS BIGINT)) AS charge
  FROM lineitem GROUP BY 1
),
d AS (
  SELECT o.o_orderstatus,
         CAST(floor(o.o_totalprice * 100) AS BIGINT)
           - COALESCE(ch.charge, 0) AS diff
  FROM orders o LEFT JOIN ch ON ch.l_orderkey = o.o_orderkey
)
SELECT o_orderstatus,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CASE WHEN diff = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_exact,
       CAST(sum(CASE WHEN diff > 0 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_header_over,
       CAST(sum(CASE WHEN diff < 0 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_header_under,
       CAST(max(abs(diff)) AS BIGINT) AS max_abs_diff_cents
FROM d GROUP BY o_orderstatus
"""


RELATIONAL_QUERIES = {
    "q1_pricing_summary": (q1_pricing_summary, SQL_Q1),
    "segment_revenue": (segment_revenue, SQL_SEGMENT_REVENUE),
    "region_revenue": (region_revenue, SQL_REGION_REVENUE),
    "top_orders": (top_orders, SQL_TOP_ORDERS),
    "events_tumbling": (events_tumbling, SQL_EVENTS_TUMBLING),
    "events_hopping": (events_hopping, SQL_EVENTS_HOPPING),
    "sessionize": (sessionize, SQL_SESSIONIZE),
    "events_gap_histogram": (events_gap_histogram, SQL_EVENTS_GAP_HISTOGRAM),
    "events_dedup_window": (events_dedup_window, SQL_EVENTS_DEDUP_WINDOW),
    "orders_sample": (orders_sample, SQL_ORDERS_SAMPLE),
    "distinct_event_users": (distinct_event_users, SQL_DISTINCT_EVENT_USERS),
    "stratified_sample": (stratified_sample, SQL_STRATIFIED_SAMPLE),
    "pack_sequences": (pack_training_sequences, SQL_PACK_SEQUENCES),
    "top_docs_per_source": (top_docs_per_source, SQL_TOP_DOCS_PER_SOURCE),
    "docs_embedding_join": (docs_embedding_join, SQL_DOCS_EMBEDDING_JOIN),
    "hll_users": (hll_users, SQL_HLL_USERS),
    "cms_users": (cms_users, SQL_CMS_USERS),
    "cohort_retention": (cohort_retention, SQL_COHORT_RETENTION),
    "revenue_rollup": (revenue_rollup, SQL_REVENUE_ROLLUP),
    "funnel_steps": (funnel_steps, SQL_FUNNEL_STEPS),
    "hll_users_by_type": (hll_users_by_type, SQL_HLL_USERS_BY_TYPE),
    "cms_users_by_type": (cms_users_by_type, SQL_CMS_USERS_BY_TYPE),
    "price_histogram": (price_histogram, SQL_PRICE_HISTOGRAM),
    "histogram_quantiles": (histogram_quantiles, SQL_HISTOGRAM_QUANTILES),
    "weighted_sample_docs": (weighted_sample_docs, SQL_WEIGHTED_SAMPLE_DOCS),
    "events_moving_sum": (events_moving_sum, SQL_EVENTS_MOVING_SUM),
    "events_lag": (events_lag, SQL_EVENTS_LAG),
    "window_distinct_users": (window_distinct_users, SQL_WINDOW_DISTINCT_USERS),
    "profile_orders": (profile_orders, SQL_PROFILE_ORDERS),
    "event_transitions": (event_transitions, SQL_EVENT_TRANSITIONS),
    "events_within_window": (events_within_window, SQL_EVENTS_WITHIN_WINDOW),
    "ddsketch_quantiles": (ddsketch_quantiles, SQL_DDSKETCH_QUANTILES),
    "key_skew_profile": (key_skew_profile, SQL_KEY_SKEW_PROFILE),
    "join_size_estimate": (join_size_estimate, SQL_JOIN_SIZE_ESTIMATE),
    "customer_upsert": (customer_upsert, SQL_CUSTOMER_UPSERT),
    "customer_order_dist": (customer_order_dist, SQL_CUSTOMER_ORDER_DIST),
    "large_volume_orders": (large_volume_orders, SQL_LARGE_VOLUME_ORDERS),
    "pivot_events": (pivot_events, SQL_PIVOT_EVENTS),
    "segment_rank": (segment_rank, SQL_SEGMENT_RANK),
    "balance_ntile": (balance_ntile, SQL_BALANCE_NTILE),
    "heavy_hitters": (heavy_hitters, SQL_HEAVY_HITTERS),
    "kmv_intersection": (kmv_intersection, SQL_KMV_INTERSECTION),
    "shipping_priority": (shipping_priority, SQL_SHIPPING_PRIORITY),
    "volume_shipping": (volume_shipping, SQL_VOLUME_SHIPPING),
    "returned_items": (returned_items, SQL_RETURNED_ITEMS),
    "promo_revenue": (promo_revenue, SQL_PROMO_REVENUE),
    "order_priority_check": (order_priority_check, SQL_ORDER_PRIORITY_CHECK),
    "top_supplier_revenue": (top_supplier_revenue, SQL_TOP_SUPPLIER_REVENUE),
    "bracket_revenue": (bracket_revenue, SQL_BRACKET_REVENUE),
    "slowest_supplier_orders": (slowest_supplier_orders,
                                SQL_SLOWEST_SUPPLIER_ORDERS),
    "idle_customers": (idle_customers, SQL_IDLE_CUSTOMERS),
    "events_top_users_window": (events_top_users_window,
                                SQL_EVENTS_TOP_USERS_WINDOW),
    "local_supplier_volume": (local_supplier_volume, SQL_LOCAL_SUPPLIER_VOLUME),
    "cheapest_supplier": (cheapest_supplier, SQL_CHEAPEST_SUPPLIER),
    "user_paths": (user_paths, SQL_USER_PATHS),
    "events_resample": (events_resample, SQL_EVENTS_RESAMPLE),
    "users_setop": (users_setop, SQL_USERS_SETOP),
    "zorder_layout": (zorder_layout, SQL_ZORDER_LAYOUT),
    "purchase_attribution": (purchase_attribution, SQL_PURCHASE_ATTRIBUTION),
    "contingency_table": (contingency_table, SQL_CONTINGENCY_TABLE),
    "orders_snapshot_diff": (orders_snapshot_diff, SQL_ORDERS_SNAPSHOT_DIFF),
    "events_ohlc": (events_ohlc, SQL_EVENTS_OHLC),
    "small_quantity_revenue": (small_quantity_revenue, SQL_SMALL_QUANTITY_REVENUE),
    "sales_opportunity": (sales_opportunity, SQL_SALES_OPPORTUNITY),
    "price_outliers": (price_outliers, SQL_PRICE_OUTLIERS),
    "user_streaks": (user_streaks, SQL_USER_STREAKS),
    "user_active_time": (user_active_time, SQL_USER_ACTIVE_TIME),
    "events_late_arrivals": (events_late_arrivals, SQL_EVENTS_LATE_ARRIVALS),
    "events_rate_alert": (events_rate_alert, SQL_EVENTS_RATE_ALERT),
    "rfm_segments": (rfm_segments, SQL_RFM_SEGMENTS),
    "revenue_forecast": (revenue_forecast, SQL_REVENUE_FORECAST),
    "national_market_share": (national_market_share,
                              SQL_NATIONAL_MARKET_SHARE),
    "product_profit": (product_profit, SQL_PRODUCT_PROFIT),
    "late_shipments": (late_shipments, SQL_LATE_SHIPMENTS),
    "important_parts": (important_parts, SQL_IMPORTANT_PARTS),
    "parts_supplier_counts": (parts_supplier_counts,
                              SQL_PARTS_SUPPLIER_COUNTS),
    "corr_matrix": (corr_matrix, SQL_CORR_MATRIX),
    "revenue_cube": (revenue_cube, SQL_REVENUE_CUBE),
    "ols_price_qty": (ols_price_qty, SQL_OLS_PRICE_QTY),
    "session_duration_quantiles": (session_duration_quantiles,
                                   SQL_SESSION_DURATION_QUANTILES),
    "monthly_revenue_zscore": (monthly_revenue_zscore,
                               SQL_MONTHLY_REVENUE_ZSCORE),
    "excess_share_suppliers": (excess_share_suppliers,
                               SQL_EXCESS_SHARE_SUPPLIERS),
    "revenue_drawdown": (revenue_drawdown, SQL_REVENUE_DRAWDOWN),
    "events_ewma": (events_ewma, SQL_EVENTS_EWMA),
    "ols_by_brand": (ols_by_brand, SQL_OLS_BY_BRAND),
    "ship_lag_quantiles": (ship_lag_quantiles, SQL_SHIP_LAG_QUANTILES),
    "events_watermark_agg": (events_watermark_agg,
                             SQL_EVENTS_WATERMARK_AGG),
    "session_table": (session_table, SQL_SESSION_TABLE),
    "revenue_pareto": (revenue_pareto, SQL_REVENUE_PARETO),
    "quantity_mode": (quantity_mode, SQL_QUANTITY_MODE),
    "mad_price_outliers": (mad_price_outliers, SQL_MAD_PRICE_OUTLIERS),
    "event_pattern_match": (event_pattern_match, SQL_EVENT_PATTERN_MATCH),
    "events_trailing_range": (events_trailing_range,
                              SQL_EVENTS_TRAILING_RANGE),
    "chi2_independence": (chi2_independence, SQL_CHI2_INDEPENDENCE),
    "k_anonymity_violations": (k_anonymity_violations,
                               SQL_K_ANONYMITY_VIOLATIONS),
    "poisson_bootstrap_mean": (poisson_bootstrap_mean,
                               _sql_poisson_bootstrap_mean()),
    "orders_backlog_by_day": (orders_backlog_by_day,
                              SQL_ORDERS_BACKLOG_BY_DAY),
    "revenue_gini": (revenue_gini, SQL_REVENUE_GINI),
    "conversion_lag_quantiles": (conversion_lag_quantiles,
                                 SQL_CONVERSION_LAG_QUANTILES),
    "user_gap_mad": (user_gap_mad, SQL_USER_GAP_MAD),
    "loo_target_encoding": (loo_target_encoding, SQL_LOO_TARGET_ENCODING),
    "dau_wau_mau": (dau_wau_mau, SQL_DAU_WAU_MAU),
    "basket_rules": (basket_rules, SQL_BASKET_RULES),
    "kaplan_meier": (kaplan_meier, SQL_KAPLAN_MEIER),
    "conversion_ab_test": (conversion_ab_test, SQL_CONVERSION_AB_TEST),
    "revenue_cusum": (revenue_cusum, SQL_REVENUE_CUSUM),
    "footer_stats": (footer_stats, SQL_FOOTER_STATS),
    "cohort_ltv": (cohort_ltv, SQL_COHORT_LTV),
    "benford_audit": (benford_audit, SQL_BENFORD_AUDIT),
    "hll_error_audit": (hll_error_audit, SQL_HLL_ERROR_AUDIT),
    "haar_revenue": (haar_revenue, _sql_haar_revenue()),
    "mann_whitney_quantity": (mann_whitney_quantity,
                              SQL_MANN_WHITNEY_QUANTITY),
    "ks_price_by_status": (ks_price_by_status, SQL_KS_PRICE_BY_STATUS),
    "order_value_ecdf": (order_value_ecdf, SQL_ORDER_VALUE_ECDF),
    "autocorr_revenue": (autocorr_revenue, SQL_AUTOCORR_REVENUE),
    "lineitem_reconciliation": (lineitem_reconciliation,
                                SQL_LINEITEM_RECONCILIATION),
}


# Bloom-audit geometry: m bits / k probes, double hashing over two
# 48-bit md5-derived mixes (g_i = h1 + i*h2 mod m) — md5 instead of the
# production filter's pd.util.hash_array so the SQL twin replays the
# exact bit pattern.
BLOOM_AUDIT_M = 1024
BLOOM_AUDIT_K = 4


def bloom_fpr_audit(sf_dir: str) -> pd.DataFrame:
    """Bloom-prefilter calibration audit: build a (m=1024, k=4) filter
    over the distinct event users, probe it with PROVABLY ABSENT keys
    (every user id shifted by 1e9 — same cardinality, zero overlap),
    and report the measured false-positive rate next to the filter
    load — the table that justifies the anti-join Bloom prefilter's
    shuffle-bypass claim (functions/bloom.py).

    Shape: per-batch distinct-user partials collapse to the bounded
    user domain; the filter itself is m/64 words however large the
    build side gets (the production pattern: partial bitmaps, tree-OR,
    broadcast).  -> one row (n_build, n_probe, n_bits_set, n_fp,
    fpr_x1e6)."""
    import hashlib

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"user_id": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "user_id" not in df.columns:
            return empty
        return pd.DataFrame(
            {"user_id": np.unique(df["user_id"].to_numpy(np.int64))})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"n_build": np.int64, "n_probe": np.int64,
                "n_bits_set": np.int64, "n_fp": np.int64,
                "fpr_x1e6": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    if parts.empty or "user_id" not in parts.columns:
        return empty_out
    build = np.unique(parts["user_id"].to_numpy(np.int64))
    probe = build + 1_000_000_000
    if len(build) == 0:
        return empty_out

    def positions(ids: np.ndarray) -> np.ndarray:
        h1 = np.array([int(hashlib.md5(f"bf1:{i}".encode())
                           .hexdigest()[:12], 16) for i in ids],
                      dtype=np.int64)
        h2 = np.array([int(hashlib.md5(f"bf2:{i}".encode())
                           .hexdigest()[:12], 16) for i in ids],
                      dtype=np.int64) | 1
        return np.stack([(h1 + i * h2) % BLOOM_AUDIT_M
                         for i in range(BLOOM_AUDIT_K)], axis=1)

    bits = np.zeros(BLOOM_AUDIT_M, dtype=bool)
    bits[positions(build).ravel()] = True
    hit = bits[positions(probe)].all(axis=1)
    n_fp = int(hit.sum())
    return pd.DataFrame(
        [(len(build), len(probe), int(bits.sum()), n_fp,
          (n_fp * 1_000_000) // len(probe))],
        columns=list(out_cols)).astype(out_cols)


def _sql_bloom_fpr_audit() -> str:
    h1 = _sql_hexval_huge("md5('bf1:' || uid)", 12)
    h2 = _sql_hexval_huge("md5('bf2:' || uid)", 12)
    m, k = BLOOM_AUDIT_M, BLOOM_AUDIT_K
    return f"""
WITH u AS (SELECT DISTINCT user_id FROM events),
bp AS (
  SELECT user_id AS uid, 1 AS build FROM u
  UNION ALL
  SELECT user_id + 1000000000 AS uid, 0 AS build FROM u
),
hx AS (
  SELECT uid, build, CAST({h1} AS BIGINT) AS h1,
         CAST({h2} AS BIGINT) | 1 AS h2
  FROM bp
),
pos AS (
  SELECT uid, build, (h1 + i.i * h2) % {m} AS pos
  FROM hx, range(0, {k}) i(i)
),
apos AS (SELECT DISTINCT pos FROM pos WHERE build = 1),
fp AS (
  SELECT b.uid FROM bp b WHERE b.build = 0 AND NOT EXISTS (
    SELECT 1 FROM pos WHERE pos.uid = b.uid AND pos.build = 0
      AND pos.pos NOT IN (SELECT pos FROM apos))
),
c AS (
  SELECT (SELECT count(*) FROM u) AS n_build,
         (SELECT count(*) FROM u) AS n_probe,
         (SELECT count(*) FROM apos) AS n_bits_set,
         (SELECT count(*) FROM fp) AS n_fp
)
SELECT CAST(n_build AS BIGINT) AS n_build,
       CAST(n_probe AS BIGINT) AS n_probe,
       CAST(n_bits_set AS BIGINT) AS n_bits_set,
       CAST(n_fp AS BIGINT) AS n_fp,
       CAST(n_fp * 1000000 // n_probe AS BIGINT) AS fpr_x1e6
FROM c WHERE n_build > 0 AND n_probe > 0
"""


RELATIONAL_QUERIES["bloom_fpr_audit"] = (bloom_fpr_audit,
                                         _sql_bloom_fpr_audit())


def packing_efficiency(sf_dir: str, budget: int = 4096) -> pd.DataFrame:
    """Packing-efficiency audit of the pack_sequences layout: per
    source, how many packs the shard-filling rule produces and the
    fill rate ``fill_x1e6 = (1e6 * total_chars) // (n_packs * budget)``
    — the wasted-capacity readout that decides whether the pack budget
    is sized right before an expensive training run.  n_packs needs no
    replay of the packer: the last pack is the one holding the final
    doc's start, so n_packs = (total - last_doc_chars) // budget + 1.

    Map-only: per-batch per-source partials (count/sum/argmax-by-doc_id)
    merge associatively on the driver — O(sources) rows, no shuffle.
    -> (source, n_docs, total_chars, n_packs, fill_x1e6)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "n_chars"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"source": pd.Series(dtype=object),
                              "n_docs": pd.Series(dtype=np.int64),
                              "total_chars": pd.Series(dtype=np.int64),
                              "max_doc": pd.Series(dtype=np.int64),
                              "max_doc_chars": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "doc_id" not in df.columns:
            return empty
        df = df.sort_values("doc_id")
        g = df.groupby("source", as_index=False).agg(
            n_docs=("doc_id", "size"), total_chars=("n_chars", "sum"),
            max_doc=("doc_id", "last"), max_doc_chars=("n_chars", "last"))
        return g.astype({c: np.int64 for c in
                         ("n_docs", "total_chars", "max_doc",
                          "max_doc_chars")})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"source": object, "n_docs": np.int64,
                "total_chars": np.int64, "n_packs": np.int64,
                "fill_x1e6": np.int64}
    if parts.empty or "source" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t)
                             for c, t in out_cols.items()})
    parts = parts.sort_values("max_doc")
    g = parts.groupby("source", as_index=False).agg(
        n_docs=("n_docs", "sum"), total_chars=("total_chars", "sum"),
        max_doc_chars=("max_doc_chars", "last"))
    n_packs = (g["total_chars"].to_numpy(np.int64)
               - g["max_doc_chars"].to_numpy(np.int64)) // budget + 1
    return pd.DataFrame(
        {"source": g["source"],
         "n_docs": g["n_docs"].to_numpy(np.int64),
         "total_chars": g["total_chars"].to_numpy(np.int64),
         "n_packs": n_packs,
         "fill_x1e6": (g["total_chars"].to_numpy(np.int64) * 1_000_000)
         // (n_packs * budget)}
    ).astype(out_cols)


SQL_PACKING_EFFICIENCY = """
WITH s AS (
  SELECT source, count(*) AS n_docs, sum(n_chars) AS total,
         max(doc_id) AS mx
  FROM documents GROUP BY 1
),
l AS (
  SELECT s.source, s.n_docs, s.total,
         (s.total - d.n_chars) // 4096 + 1 AS n_packs
  FROM s JOIN documents d ON d.source = s.source AND d.doc_id = s.mx
)
SELECT source, CAST(n_docs AS BIGINT) AS n_docs,
       CAST(total AS BIGINT) AS total_chars,
       CAST(n_packs AS BIGINT) AS n_packs,
       CAST((total::HUGEINT * 1000000) // (n_packs * 4096) AS BIGINT)
         AS fill_x1e6
FROM l
"""


RELATIONAL_QUERIES["packing_efficiency"] = (packing_efficiency,
                                            SQL_PACKING_EFFICIENCY)


def weekday_revenue_profile(sf_dir: str) -> pd.DataFrame:
    """Day-of-week seasonality profile of order revenue: per weekday
    (0 = Sunday, via the pure-integer epoch rule (day + 4) % 7 — no
    locale/timezone machinery on either engine), order count, revenue
    cents and the fixed-point revenue share.  The calendar heat-map
    behind staffing and cache-warm decisions.

    Map-only: per-batch partials collapse to <= 7 rows; the driver
    folds a constant-size grid.  -> (weekday, n_orders, revenue_cents,
    share_x1e6)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderdate", "o_totalprice"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"weekday": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64),
                              "rev": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "o_orderdate" not in df.columns:
            return empty
        wd = (ts_epoch_us(df["o_orderdate"]) // 86_400_000_000 + 4) % 7
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        g = pd.DataFrame({"weekday": wd, "rev": cents}).groupby(
            "weekday", as_index=False).agg(n=("rev", "size"),
                                           rev=("rev", "sum"))
        return g[["weekday", "n", "rev"]].astype(np.int64)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"weekday": np.int64, "n_orders": np.int64,
                "revenue_cents": np.int64, "share_x1e6": np.int64}
    if parts.empty or "weekday" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t)
                             for c, t in out_cols.items()})
    g = parts.groupby("weekday", as_index=False).agg(
        n_orders=("n", "sum"), revenue_cents=("rev", "sum"))
    tot = int(g["revenue_cents"].sum())
    g["share_x1e6"] = (g["revenue_cents"].to_numpy(np.int64)
                       * 1_000_000) // tot
    return g.astype(out_cols)


SQL_WEEKDAY_REVENUE_PROFILE = """
WITH d AS (
  SELECT (epoch_us(o_orderdate) // 86400000000 + 4) % 7 AS weekday,
         CAST(floor(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders
),
g AS (
  SELECT weekday, count(*) AS n_orders, sum(cents) AS revenue_cents
  FROM d GROUP BY 1
),
t AS (SELECT sum(revenue_cents) AS tot FROM g)
SELECT CAST(weekday AS BIGINT) AS weekday,
       CAST(n_orders AS BIGINT) AS n_orders,
       CAST(revenue_cents AS BIGINT) AS revenue_cents,
       CAST(revenue_cents::HUGEINT * 1000000 // t.tot AS BIGINT)
         AS share_x1e6
FROM g, t WHERE t.tot > 0
"""


def orders_gap_analysis(sf_dir: str) -> ray.data.Dataset:
    """Inter-order cadence per customer: order count, calendar span and
    the maximum day gap between consecutive orders (date ties broken by
    orderkey; same-day repeat orders gap 0) for customers with >= 2
    orders — the churn-risk feature the idle_customers cut-off is
    calibrated against.

    One keyed exchange on o_custkey; per-bucket vectorized lexsort +
    diff, output O(customers) rows.  -> (o_custkey, n_orders,
    span_days, max_gap_days)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_orderdate"],
    )

    out_cols = {"o_custkey": np.int64, "n_orders": np.int64,
                "span_days": np.int64, "max_gap_days": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_custkey" not in df.columns:
            return empty_out
        day = ts_epoch_us(df["o_orderdate"]) // 86_400_000_000
        cust = df["o_custkey"].to_numpy(np.int64)
        okey = df["o_orderkey"].to_numpy(np.int64)
        order = np.lexsort((okey, day, cust))
        cust, day = cust[order], day[order]
        gap = np.empty(len(day), dtype=np.int64)
        gap[0] = -1
        gap[1:] = day[1:] - day[:-1]
        new = np.concatenate([[True], cust[1:] != cust[:-1]])
        gap[new] = -1
        g = pd.DataFrame({"o_custkey": cust, "day": day, "gap": gap})
        a = g.groupby("o_custkey", as_index=False).agg(
            n_orders=("day", "size"), lo=("day", "min"), hi=("day", "max"),
            max_gap_days=("gap", "max"))
        a = a[a["n_orders"] >= 2]
        return pd.DataFrame(
            {"o_custkey": a["o_custkey"].to_numpy(np.int64),
             "n_orders": a["n_orders"].to_numpy(np.int64),
             "span_days": (a["hi"] - a["lo"]).to_numpy(np.int64),
             "max_gap_days": a["max_gap_days"].to_numpy(np.int64)})

    return hash_exchange(ds, "o_custkey", bucket, num_buckets=16)


SQL_ORDERS_GAP_ANALYSIS = """
WITH d AS (
  SELECT o_custkey, epoch_us(o_orderdate) // 86400000000 AS day,
         o_orderkey
  FROM orders
),
g AS (
  SELECT o_custkey, day,
         day - lag(day) OVER (PARTITION BY o_custkey
                              ORDER BY day, o_orderkey) AS gap
  FROM d
)
SELECT CAST(o_custkey AS BIGINT) AS o_custkey,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(max(day) - min(day) AS BIGINT) AS span_days,
       CAST(max(COALESCE(gap, -1)) AS BIGINT) AS max_gap_days
FROM g GROUP BY o_custkey HAVING count(*) >= 2
"""


def supplier_hhi(sf_dir: str) -> pd.DataFrame:
    """Market-concentration audit: per supplier nation, the
    Herfindahl-Hirschman index of discounted line revenue across its
    suppliers — shares floored at 1e4 fixed point BEFORE squaring, so
    hhi_x1e8 = sum(share_x1e4^2) is pure integer on both engines
    (10000^2 = monopoly).  The third inequality lens next to
    revenue_gini (dispersion) and revenue_pareto (cumulative share).

    Shape: per-batch (suppkey, rev) partials collapse to the supplier
    domain; the supplier->nation dimension is a broadcast-size table
    read once.  -> (s_nationkey, n_suppliers, revenue_cents,
    hhi_x1e8)."""
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"l_suppkey": pd.Series(dtype=np.int64),
                              "rev": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "l_suppkey" not in df.columns:
            return empty
        rev = np.floor(
            df["l_extendedprice"].to_numpy(np.float64)
            * (1.0 - df["l_discount"].to_numpy(np.float64)) * 100.0
        ).astype(np.int64)
        g = pd.DataFrame({"l_suppkey": df["l_suppkey"].to_numpy(np.int64),
                          "rev": rev}).groupby(
            "l_suppkey", as_index=False)["rev"].sum()
        return g.astype(np.int64)

    parts = li.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"s_nationkey": np.int64, "n_suppliers": np.int64,
                "revenue_cents": np.int64, "hhi_x1e8": np.int64}
    if parts.empty or "l_suppkey" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t)
                             for c, t in out_cols.items()})
    sup = parts.groupby("l_suppkey", as_index=False)["rev"].sum()
    dim = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    m = sup.merge(dim, left_on="l_suppkey", right_on="s_suppkey")
    tot = m.groupby("s_nationkey")["rev"].transform("sum")
    m["share4"] = (m["rev"].to_numpy(np.int64) * 10_000) // tot.to_numpy(
        np.int64)
    m["sq"] = m["share4"] * m["share4"]
    g = m.groupby("s_nationkey", as_index=False).agg(
        n_suppliers=("s_suppkey", "size"), revenue_cents=("rev", "sum"),
        hhi_x1e8=("sq", "sum"))
    return g.astype(out_cols)


SQL_SUPPLIER_HHI = """
WITH r AS (
  SELECT l_suppkey,
         sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100)
                  AS BIGINT)) AS rev
  FROM lineitem GROUP BY 1
),
j AS (
  SELECT s.s_nationkey, r.l_suppkey, r.rev,
         sum(r.rev) OVER (PARTITION BY s.s_nationkey) AS tot
  FROM r JOIN supplier s ON s.s_suppkey = r.l_suppkey
),
sh AS (
  SELECT s_nationkey, rev, (rev::HUGEINT * 10000) // tot AS share4
  FROM j
)
SELECT CAST(s_nationkey AS BIGINT) AS s_nationkey,
       CAST(count(*) AS BIGINT) AS n_suppliers,
       CAST(sum(rev) AS BIGINT) AS revenue_cents,
       CAST(sum(share4 * share4) AS BIGINT) AS hhi_x1e8
FROM sh GROUP BY s_nationkey
"""


def customer_percentile_rank(sf_dir: str) -> pd.DataFrame:
    """Percentile rank of every customer by lifetime order revenue —
    SQL rank() semantics (ties share the MINIMUM rank), fixed point
    ``pct_x1e6 = ((rank - 1) * 1e6) // (n - 1)`` — the feature a
    marketing segmentation joins back onto the customer table.

    Per-batch (custkey, rev) partials collapse to the customer domain;
    ranking is a driver fold over O(customers) rows (the same bound as
    cohort_ltv / rfm_segments) — at larger scale the rank rewrite runs
    over the distinct-revenue histogram instead.
    -> (o_custkey, revenue_cents, rank, pct_x1e6)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"o_custkey": pd.Series(dtype=np.int64),
                              "rev": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "o_custkey" not in df.columns:
            return empty
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        g = pd.DataFrame({"o_custkey": df["o_custkey"].to_numpy(np.int64),
                          "rev": cents}).groupby(
            "o_custkey", as_index=False)["rev"].sum()
        return g.astype(np.int64)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"o_custkey": np.int64, "revenue_cents": np.int64,
                "rank": np.int64, "pct_x1e6": np.int64}
    if parts.empty or "o_custkey" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t)
                             for c, t in out_cols.items()})
    g = parts.groupby("o_custkey", as_index=False)["rev"].sum()
    rev = g["rev"].to_numpy(np.int64)
    order = np.argsort(rev, kind="stable")
    sorted_rev = rev[order]
    # min-rank of each row's revenue = 1 + count of strictly smaller
    rank = np.searchsorted(sorted_rev, rev, side="left") + 1
    n = len(g)
    pct = (((rank - 1) * 1_000_000) // (n - 1) if n > 1
           else np.zeros(n, dtype=np.int64))
    return pd.DataFrame(
        {"o_custkey": g["o_custkey"].to_numpy(np.int64),
         "revenue_cents": rev, "rank": rank.astype(np.int64),
         "pct_x1e6": np.asarray(pct, np.int64)}).astype(out_cols)


SQL_CUSTOMER_PERCENTILE_RANK = """
WITH r AS (
  SELECT o_custkey,
         sum(CAST(floor(o_totalprice * 100) AS BIGINT)) AS rev
  FROM orders GROUP BY 1
),
k AS (
  SELECT o_custkey, rev, rank() OVER (ORDER BY rev) AS rnk,
         count(*) OVER () AS n
  FROM r
)
SELECT CAST(o_custkey AS BIGINT) AS o_custkey,
       CAST(rev AS BIGINT) AS revenue_cents,
       CAST(rnk AS BIGINT) AS rank,
       CAST(CASE WHEN n > 1 THEN ((rnk - 1) * 1000000) // (n - 1)
                 ELSE 0 END AS BIGINT) AS pct_x1e6
FROM k
"""


RELATIONAL_QUERIES["weekday_revenue_profile"] = (
    weekday_revenue_profile, SQL_WEEKDAY_REVENUE_PROFILE)
RELATIONAL_QUERIES["orders_gap_analysis"] = (
    orders_gap_analysis, SQL_ORDERS_GAP_ANALYSIS)
RELATIONAL_QUERIES["supplier_hhi"] = (supplier_hhi, SQL_SUPPLIER_HHI)
RELATIONAL_QUERIES["customer_percentile_rank"] = (
    customer_percentile_rank, SQL_CUSTOMER_PERCENTILE_RANK)


def events_burst(sf_dir: str) -> ray.data.Dataset:
    """Peak-rate detection per user: the maximum number of events
    inside any 1-hour window anchored at an event's timestamp (value-
    range counting — ties in ts all land in the window regardless of
    arrival order) and the earliest anchor achieving it — the burst
    screen run before rate-limiting or bot triage.

    One keyed exchange on user_id; per-bucket sorted searchsorted
    two-pointer, O(n log n) per user, O(users) output rows.
    -> (user_id, n_events, max_in_hour, at_ts_us)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    out_cols = {"user_id": np.int64, "n_events": np.int64,
                "max_in_hour": np.int64, "at_ts_us": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return empty_out
        uid = df["user_id"].to_numpy(np.int64)
        t = ts_epoch_us(df["ts"])
        order = np.lexsort((t, uid))
        uid, t = uid[order], t[order]
        starts = np.concatenate(
            [[0], np.flatnonzero(uid[1:] != uid[:-1]) + 1, [len(uid)]])
        rows = []
        for i in range(len(starts) - 1):
            lo, hi = starts[i], starts[i + 1]
            ts_u = t[lo:hi]
            cnt = (np.searchsorted(ts_u, ts_u + 3_600_000_000, "left")
                   - np.arange(len(ts_u)))
            best = int(cnt.max())
            at = int(ts_u[int(cnt.argmax())])  # first occurrence wins
            rows.append((int(uid[lo]), hi - lo, best, at))
        return pd.DataFrame(rows, columns=list(out_cols)).astype(out_cols)

    return hash_exchange(ds, "user_id", bucket, num_buckets=16)


SQL_EVENTS_BURST = """
WITH e AS (
  SELECT user_id, epoch_us(ts) AS t FROM events
),
c AS (
  SELECT user_id, t,
         count(*) OVER (PARTITION BY user_id ORDER BY t
                        RANGE BETWEEN CURRENT ROW
                        AND 3599999999 FOLLOWING) AS n_win
  FROM e
),
m AS (
  SELECT user_id, count(*) AS n_events, max(n_win) AS max_in_hour
  FROM c GROUP BY user_id
)
SELECT CAST(m.user_id AS BIGINT) AS user_id,
       CAST(m.n_events AS BIGINT) AS n_events,
       CAST(m.max_in_hour AS BIGINT) AS max_in_hour,
       CAST(min(c.t) AS BIGINT) AS at_ts_us
FROM m JOIN c ON c.user_id = m.user_id AND c.n_win = m.max_in_hour
GROUP BY m.user_id, m.n_events, m.max_in_hour
"""


RELATIONAL_QUERIES["events_burst"] = (events_burst, SQL_EVENTS_BURST)


def anova_price_status(sf_dir: str) -> pd.DataFrame:
    """One-way ANOVA of order value (whole dollars) across order
    status — the group-difference screen run before segmenting a
    corpus by a categorical feature (reference analogue: per-dataset
    metric grouping, ``dygie/training/f1.py`` aggregates by task).
    Group moments (n, sum, sumsq in whole dollars) are exact python
    ints / HUGEINTs; the F statistic itself runs in float64 through
    the IDENTICAL IEEE op sequence as the twin, with the per-status
    between-group terms added in the pinned order O -> F -> P (missing
    statuses contribute 0.0) — deterministic at any scale, no integer
    product can overflow.

    Map-only: per-batch (status, n, sum, sumsq) partials collapse to
    the 3-row status domain; the driver folds O(statuses) python ints.
    -> one row (n, k, f_x1e6)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_totalprice"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"st": pd.Series(dtype=object),
                              "n": pd.Series(dtype=object),
                              "s": pd.Series(dtype=object),
                              "q": pd.Series(dtype=object)})
        if len(df) == 0 or "o_orderstatus" not in df.columns:
            return empty
        df = df[df["o_orderstatus"].isin(("O", "F", "P"))]
        if len(df) == 0:
            return empty
        x = np.floor(df["o_totalprice"].to_numpy(np.float64)).astype(
            np.int64)
        g = pd.DataFrame({"st": df["o_orderstatus"].to_numpy(), "x": x})
        rows = []
        for st, sub in g.groupby("st"):
            v = sub["x"].to_numpy(np.int64)
            acc_s, acc_q = 0, 0
            for lo in range(0, len(v), 8192):
                c = v[lo:lo + 8192]
                acc_s += int(c.sum())
                acc_q += int((c * c).sum())
            rows.append((st, str(len(v)), str(acc_s), str(acc_q)))
        return pd.DataFrame(rows, columns=["st", "n", "s", "q"])

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"n": np.int64, "k": np.int64, "f_x1e6": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    if parts.empty or "st" not in parts.columns:
        return empty_out
    groups = {}
    for st, sub in parts.groupby("st"):
        groups[st] = (sum(int(v) for v in sub["n"]),
                      sum(int(v) for v in sub["s"]),
                      sum(int(v) for v in sub["q"]))
    import math

    k = len(groups)
    N = sum(n for n, _, _ in groups.values())
    S = sum(s for _, s, _ in groups.values())
    Q = sum(q for _, _, q in groups.values())
    if k < 2 or N <= k:
        return empty_out
    # between-group term, pinned addition order O -> F -> P (left-
    # assoc, matching the twin's `o + f + p` expression)
    apf = 0.0
    for st in ("O", "F", "P"):
        if st in groups:
            n, s, _ = groups[st]
            apf = apf + (float(s) * float(s) / float(n))
        else:
            apf = apf + 0.0
    s2n = float(S) * float(S) / float(N)
    ssb = apf - s2n
    ssw = float(Q) - apf
    if ssw <= 0.0:
        return empty_out
    f = int(math.floor(
        (1_000_000.0 * ssb * float(N - k)) / (ssw * float(k - 1))))
    return pd.DataFrame(
        [(N, k, f)], columns=list(out_cols)).astype(out_cols)


SQL_ANOVA_PRICE_STATUS = f"""
WITH v AS (
  SELECT o_orderstatus AS st,
         CAST(floor(o_totalprice) AS HUGEINT) AS x
  FROM orders WHERE o_orderstatus IN ('O', 'F', 'P')
),
g AS (
  SELECT st, CAST(count(*) AS HUGEINT) AS n, sum(x) AS s,
         sum(x * x) AS q
  FROM v GROUP BY st
),
t AS (
  SELECT sum(n) AS nn, sum(s) AS ss, sum(q) AS qq,
         CAST(count(*) AS HUGEINT) AS k,
         COALESCE(max(CASE WHEN st = 'O' THEN
             CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE)
           END), 0.0)
         + COALESCE(max(CASE WHEN st = 'F' THEN
             CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE)
           END), 0.0)
         + COALESCE(max(CASE WHEN st = 'P' THEN
             CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE)
           END), 0.0) AS apf
  FROM g
),
m AS (
  SELECT nn, k,
         apf - CAST(ss AS DOUBLE) * CAST(ss AS DOUBLE)
               / CAST(nn AS DOUBLE) AS ssb,
         CAST(qq AS DOUBLE) - apf AS ssw
  FROM t
)
SELECT CAST(nn AS BIGINT) AS n, CAST(k AS BIGINT) AS k,
       CAST(floor((1000000.0 * ssb * CAST(nn - k AS DOUBLE))
                  / (ssw * CAST(k - 1 AS DOUBLE))) AS BIGINT) AS f_x1e6
FROM m WHERE k >= 2 AND nn > k AND ssw > 0.0
"""


def spearman_qty_disc(sf_dir: str) -> pd.DataFrame:
    """Spearman rank correlation (tie-aware) between line quantity and
    discount — the monotone-association screen that Pearson
    (corr_matrix) misses.  Ranks are carried as 2x midranks (exact
    integers under ties, the mann_whitney_quantity convention), so all
    moment sums are exact python ints / HUGEINTs; only the final
    normalized ratio runs in float64 through the identical IEEE op
    sequence as the twin (cast -> multiply -> sqrt -> divide -> floor).

    Map-only: per-batch joint (quantity, discount-cents) counts
    collapse to the tiny 50x11 cell domain; the driver folds O(cells)
    ints — no rank shuffle at any scale.  -> one row (n, rho_x1e6)."""
    import math

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_discount"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"q": pd.Series(dtype=np.int64),
                              "d": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "l_quantity" not in df.columns:
            return empty
        q = df["l_quantity"].to_numpy(np.float64).astype(np.int64)
        d = np.floor(
            df["l_discount"].to_numpy(np.float64) * 100.0 + 0.5
        ).astype(np.int64)
        g = pd.DataFrame({"q": q, "d": d}).groupby(
            ["q", "d"], as_index=False).size()
        return g.rename(columns={"size": "n"}).astype(np.int64)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"n": np.int64, "rho_x1e6": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    if parts.empty or "q" not in parts.columns:
        return empty_out
    cells = parts.groupby(["q", "d"], as_index=False)["n"].sum()

    def two_ranks(marg: pd.Series) -> dict:
        # two_rank(v) = 2*(count below) + count(at) + 1 (exact midrank
        # x2 under ties — mann_whitney_quantity convention)
        marg = marg.sort_index()
        tot = marg.to_numpy(np.int64)
        cless = np.concatenate([[0], np.cumsum(tot)[:-1]])
        return dict(zip(marg.index, (2 * cless + tot + 1).tolist()))

    rx = two_ranks(cells.groupby("q")["n"].sum())
    ry = two_ranks(cells.groupby("d")["n"].sum())
    N = int(cells["n"].sum())
    if N < 2:
        return empty_out
    s1 = sum(int(n) * rx[q] * ry[d]
             for q, d, n in cells.itertuples(index=False))
    sx = sum(int(n) * rx[q] for q, n in
             cells.groupby("q")["n"].sum().items())
    sy = sum(int(n) * ry[d] for d, n in
             cells.groupby("d")["n"].sum().items())
    sxx = sum(int(n) * rx[q] * rx[q] for q, n in
              cells.groupby("q")["n"].sum().items())
    syy = sum(int(n) * ry[d] * ry[d] for d, n in
              cells.groupby("d")["n"].sum().items())
    num = N * s1 - sx * sy
    vx = N * sxx - sx * sx
    vy = N * syy - sy * sy
    if vx == 0 or vy == 0:
        return empty_out
    rho = int(math.floor(
        (1_000_000.0 * float(num)) / math.sqrt(float(vx) * float(vy))
    ))
    return pd.DataFrame([(N, rho)], columns=list(out_cols)).astype(out_cols)


SQL_SPEARMAN_QTY_DISC = """
WITH v AS (
  SELECT CAST(l_quantity AS HUGEINT) AS q,
         CAST(floor(l_discount * 100 + 0.5) AS HUGEINT) AS d
  FROM lineitem
),
c AS (SELECT q, d, CAST(count(*) AS HUGEINT) AS n FROM v GROUP BY q, d),
mx AS (SELECT q, sum(n) AS nx FROM c GROUP BY q),
my AS (SELECT d, sum(n) AS ny FROM c GROUP BY d),
rx AS (
  SELECT q, nx,
         2 * COALESCE(sum(nx) OVER (ORDER BY q ROWS BETWEEN UNBOUNDED
             PRECEDING AND 1 PRECEDING), 0) + nx + 1 AS trx
  FROM mx
),
ry AS (
  SELECT d, ny,
         2 * COALESCE(sum(ny) OVER (ORDER BY d ROWS BETWEEN UNBOUNDED
             PRECEDING AND 1 PRECEDING), 0) + ny + 1 AS try_
  FROM my
),
s AS (
  SELECT (SELECT sum(n) FROM c) AS nn,
         (SELECT sum(c.n * rx.trx * ry.try_)
          FROM c JOIN rx ON rx.q = c.q JOIN ry ON ry.d = c.d) AS s1,
         (SELECT sum(nx * trx) FROM rx) AS sx,
         (SELECT sum(ny * try_) FROM ry) AS sy,
         (SELECT sum(nx * trx * trx) FROM rx) AS sxx,
         (SELECT sum(ny * try_ * try_) FROM ry) AS syy
),
m AS (
  SELECT nn, nn * s1 - sx * sy AS num, nn * sxx - sx * sx AS vx,
         nn * syy - sy * sy AS vy
  FROM s
)
SELECT CAST(nn AS BIGINT) AS n,
       CAST(floor((1000000.0 * CAST(num AS DOUBLE))
                  / sqrt(CAST(vx AS DOUBLE) * CAST(vy AS DOUBLE)))
            AS BIGINT) AS rho_x1e6
FROM m WHERE nn >= 2 AND vx <> 0 AND vy <> 0
"""


def revenue_runs_test(sf_dir: str) -> pd.DataFrame:
    """Wald-Wolfowitz runs test on daily revenue vs its median — the
    randomness check run on a metric series before trusting any trend
    readout (too few runs = regime drift; too many = oscillation).
    Days with revenue EQUAL to the median are excluded (standard
    convention); the median is the lower-middle element (0-based index
    ``(n-1)//2`` of the sorted daily revenues).  Counts are exact
    integers; the z statistic runs in float64 through the identical
    IEEE op sequence as the twin.

    Map-only: per-batch (day, cents) partials collapse to the bounded
    calendar domain; the driver folds O(days) ints (the
    autocorr_revenue shape).  -> one row (n_days_used, n_above,
    n_below, n_runs, z_x1e6)."""
    import math

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderdate", "o_totalprice"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"day": pd.Series(dtype=np.int64),
                              "rev": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "o_orderdate" not in df.columns:
            return empty
        day = ts_epoch_us(df["o_orderdate"]) // 86_400_000_000
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        g = pd.DataFrame({"day": day, "rev": cents}).groupby(
            "day", as_index=False)["rev"].sum()
        return g.astype(np.int64)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"n_days_used": np.int64, "n_above": np.int64,
                "n_below": np.int64, "n_runs": np.int64,
                "z_x1e6": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    if parts.empty or "day" not in parts.columns:
        return empty_out
    g = parts.groupby("day")["rev"].sum().sort_index()
    revs = g.to_numpy(np.int64)
    if len(revs) < 2:
        return empty_out
    med = int(np.sort(revs)[(len(revs) - 1) // 2])
    keep = revs != med
    sg = (revs[keep] > med).astype(np.int64)
    n1 = int(sg.sum())
    n2 = int(len(sg) - n1)
    n = n1 + n2
    if n1 == 0 or n2 == 0 or n < 2:
        return empty_out
    runs = 1 + int((sg[1:] != sg[:-1]).sum())
    a = float(2 * n1 * n2)
    nn = float(n)
    mu = 1.0 + a / nn
    var = (a * (a - nn)) / (nn * nn * (nn - 1.0))
    if var <= 0.0:
        return empty_out
    z = int(math.floor(
        (1_000_000.0 * (float(runs) - mu)) / math.sqrt(var)))
    return pd.DataFrame(
        [(n, n1, n2, runs, z)], columns=list(out_cols)).astype(out_cols)


SQL_REVENUE_RUNS_TEST = """
WITH daily AS (
  SELECT CAST(CAST(epoch_us(o_orderdate) AS HUGEINT)
              // 86400000000 AS BIGINT) AS day,
         CAST(sum(CAST(floor(o_totalprice * 100) AS HUGEINT))
              AS HUGEINT) AS rev
  FROM orders GROUP BY 1
),
r AS (SELECT rev, row_number() OVER (ORDER BY rev) AS rn FROM daily),
med AS (
  SELECT rev AS m FROM r
  WHERE rn = (SELECT (count(*) + 1) // 2 FROM daily)
),
s AS (
  SELECT day, CASE WHEN rev > m THEN 1 ELSE 0 END AS sg
  FROM daily, med WHERE rev <> m
),
w AS (SELECT sg, lag(sg) OVER (ORDER BY day) AS pg FROM s),
t AS (
  SELECT CAST(count(*) AS HUGEINT) AS n,
         CAST(sum(sg) AS HUGEINT) AS n1,
         CAST(count(*) - sum(sg) AS HUGEINT) AS n2,
         CAST(count(CASE WHEN pg IS NULL OR sg <> pg THEN 1 END)
              AS HUGEINT) AS runs
  FROM w
),
m AS (
  SELECT n, n1, n2, runs,
         CAST(2 * n1 * n2 AS DOUBLE) AS a, CAST(n AS DOUBLE) AS nn
  FROM t
)
SELECT CAST(n AS BIGINT) AS n_days_used,
       CAST(n1 AS BIGINT) AS n_above,
       CAST(n2 AS BIGINT) AS n_below,
       CAST(runs AS BIGINT) AS n_runs,
       CAST(floor((1000000.0 * (CAST(runs AS DOUBLE) - (1.0 + a / nn)))
                  / sqrt((a * (a - nn)) / (nn * nn * (nn - 1.0))))
            AS BIGINT) AS z_x1e6
FROM m
WHERE n1 > 0 AND n2 > 0 AND n >= 2
  AND (a * (a - nn)) / (nn * nn * (nn - 1.0)) > 0.0
"""


RELATIONAL_QUERIES["anova_price_status"] = (
    anova_price_status, SQL_ANOVA_PRICE_STATUS)
RELATIONAL_QUERIES["spearman_qty_disc"] = (
    spearman_qty_disc, SQL_SPEARMAN_QTY_DISC)
RELATIONAL_QUERIES["revenue_runs_test"] = (
    revenue_runs_test, SQL_REVENUE_RUNS_TEST)


ROWGROUP_PRUNE_RG = 512


def rowgroup_pruning(sf_dir: str) -> pd.DataFrame:
    """Row-group pruning audit (the lakehouse layout check run after a
    re-cluster): orders are laid out in canonical (day, key) order at
    a fixed 512-row group size, then the audit asks — for three
    quartile date cutoffs — how many row groups (and rows) a
    ``day >= cutoff`` scan skips using ONLY footer min/max statistics.
    The engine writes a real parquet shard and reads real footer
    stats (the footer_stats machinery); the twin recomputes group
    membership arithmetically (group = rownum // 512 over the same
    total order).

    Scale shape: the single-shard collect is the per-shard layout cost
    (each shard of a 100-TB table lays out its own file in parallel —
    state/checkpoint's manifested writer is the multi-shard path); the
    audit itself reads O(groups) footer bytes, never data pages.
    -> (k, cutoff_day, n_groups, n_pruned_groups, n_pruned_rows)."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as _pq

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate"])

    def enc(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderdate" not in df.columns:
            return pd.DataFrame({"day": pd.Series(dtype=np.int64),
                                 "key": pd.Series(dtype=np.int64)})
        return pd.DataFrame(
            {"day": ts_epoch_us(df["o_orderdate"]) // 86_400_000_000,
             "key": df["o_orderkey"].to_numpy(np.int64)})

    parts = ds.map_batches(enc, batch_format="pandas").to_pandas()
    out_cols = {"k": np.int64, "cutoff_day": np.int64,
                "n_groups": np.int64, "n_pruned_groups": np.int64,
                "n_pruned_rows": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    if parts.empty or "day" not in parts.columns:
        return empty_out
    parts = parts.sort_values(["day", "key"], ignore_index=True)
    dmin, dmax = int(parts["day"].min()), int(parts["day"].max())
    with tempfile.TemporaryDirectory(prefix="dygiepp_rgprune_") as td:
        path = os.path.join(td, "orders_layout.parquet")
        _pq.write_table(
            pa.table({"day": pa.array(parts["day"].to_numpy(np.int64)),
                      "key": pa.array(parts["key"].to_numpy(np.int64))}),
            path, row_group_size=ROWGROUP_PRUNE_RG)
        meta = _pq.ParquetFile(path).metadata
        day_idx = meta.schema.to_arrow_schema().get_field_index("day")
        groups = []
        for g in range(meta.num_row_groups):
            col = meta.row_group(g).column(day_idx)
            st = col.statistics
            if st is None or not st.has_min_max:
                raise ValueError(f"row group {g} missing day statistics")
            groups.append((int(st.min), int(st.max),
                           int(meta.row_group(g).num_rows)))
    rows = []
    for k in (1, 2, 3):
        cut = dmin + k * ((dmax - dmin) // 4)
        pruned = [(mx, c) for _, mx, c in groups if mx < cut]
        rows.append((k, cut, len(groups), len(pruned),
                     sum(c for _, c in pruned)))
    return pd.DataFrame(rows, columns=list(out_cols)).astype(out_cols)


SQL_ROWGROUP_PRUNING = f"""
WITH e AS (
  SELECT CAST(CAST(epoch_us(o_orderdate) AS HUGEINT)
              // 86400000000 AS BIGINT) AS day, o_orderkey
  FROM orders
),
r AS (
  SELECT day,
         row_number() OVER (ORDER BY day, o_orderkey) - 1 AS rn
  FROM e
),
g AS (
  SELECT rn // {ROWGROUP_PRUNE_RG} AS grp, max(day) AS mx,
         CAST(count(*) AS BIGINT) AS c
  FROM r GROUP BY 1
),
b AS (SELECT min(day) AS dmin, max(day) AS dmax FROM e),
cuts AS (
  SELECT t.k, b.dmin + t.k * ((b.dmax - b.dmin) // 4) AS cut
  FROM b, range(1, 4) t(k)
)
SELECT CAST(cuts.k AS BIGINT) AS k,
       CAST(cuts.cut AS BIGINT) AS cutoff_day,
       CAST(count(*) AS BIGINT) AS n_groups,
       CAST(sum(CASE WHEN g.mx < cuts.cut THEN 1 ELSE 0 END)
            AS BIGINT) AS n_pruned_groups,
       CAST(sum(CASE WHEN g.mx < cuts.cut THEN g.c ELSE 0 END)
            AS BIGINT) AS n_pruned_rows
FROM cuts, g GROUP BY cuts.k, cuts.cut
"""


RELATIONAL_QUERIES["rowgroup_pruning"] = (
    rowgroup_pruning, SQL_ROWGROUP_PRUNING)


def ddsketch_error_audit(sf_dir: str, sub_bits: int = 3) -> pd.DataFrame:
    """Sketch-calibration audit (the hll_error_audit of quantiles):
    per event type, the DDSketch bucket upper bound at p50/p95/p99
    next to the EXACT quantile at the same rank ((q*n + den-1) // den,
    1-based), with the relative error in ppm — the measurement that
    justifies choosing the O(log range) sketch over the exact
    histogram at 100 TB.  err_ppm = ((ub - exact) * 1e6) // exact;
    the sketch bound is an exclusive upper edge, so the error is
    always >= 0 wherever the sketch is correct.

    One streaming pass: per-batch (type, cents) counts collapse to the
    bounded cent domain (histogram_quantiles shape); the driver folds
    O(distinct cents) ints and derives BOTH the exact quantiles and
    the sketch buckets from the same counts."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    sub = 1 << sub_bits

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"event_type": pd.Series(dtype=object),
                              "cents": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "value" not in df.columns:
            return empty
        cents = np.maximum(np.floor(
            df["value"].to_numpy(np.float64) * 100.0).astype(np.int64), 1)
        g = pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                          "cents": cents}).groupby(
            ["event_type", "cents"], as_index=False).size().rename(
            columns={"size": "n"})
        return g.astype({"cents": np.int64, "n": np.int64})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"event_type": object, "q": object, "n": np.int64,
                "est_ub_cents": np.int64, "exact_cents": np.int64,
                "err_ppm": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    if parts.empty or "event_type" not in parts.columns:
        return empty_out
    folded = parts.groupby(["event_type", "cents"], as_index=False)[
        "n"].sum()
    rows = []
    for et, g in folded.groupby("event_type"):
        g = g.sort_values("cents")
        vals = g["cents"].to_numpy(np.int64)
        cnt = g["n"].to_numpy(np.int64)
        cum = np.cumsum(cnt)
        n = int(cum[-1])
        for qname, num, den in (("p50", 1, 2), ("p95", 95, 100),
                                ("p99", 99, 100)):
            rank = (num * n + den - 1) // den
            i = int(np.searchsorted(cum, rank))
            exact = int(vals[i])
            # sketch bucket of the exact-rank value (same counts feed
            # the sketch, so its quantile bucket is the value's bucket)
            bl = exact.bit_length()
            shift = max(bl - 1 - sub_bits, 0)
            mant = exact >> shift
            ub = (mant + 1) << shift
            rows.append((et, qname, n, ub, exact,
                         ((ub - exact) * 1_000_000) // exact))
    return pd.DataFrame(rows, columns=list(out_cols)).astype(
        {"n": np.int64, "est_ub_cents": np.int64,
         "exact_cents": np.int64, "err_ppm": np.int64})


SQL_DDSKETCH_ERROR_AUDIT = """
WITH vals AS (
  SELECT event_type,
         greatest(CAST(floor(value * 100.0) AS BIGINT), 1) AS cents
  FROM events
),
c AS (
  SELECT event_type, cents, count(*) AS cnt FROM vals GROUP BY 1, 2
),
cum AS (
  SELECT event_type, cents,
         sum(cnt) OVER (PARTITION BY event_type ORDER BY cents) AS cum,
         sum(cnt) OVER (PARTITION BY event_type) AS n
  FROM c
),
q(qname, num, den) AS (VALUES ('p50', 1, 2), ('p95', 95, 100),
                              ('p99', 99, 100)),
ex AS (
  SELECT cum.event_type, q.qname, CAST(any_value(cum.n) AS BIGINT) AS n,
         CAST(min(CASE WHEN cum.cum >= (q.num * cum.n + q.den - 1)
                            // q.den
                  THEN cum.cents END) AS BIGINT) AS exact
  FROM cum, q GROUP BY cum.event_type, q.qname
),
m AS (
  SELECT event_type, qname, n, exact,
         greatest(length(bin(exact)) - 1 - 3, 0) AS shift
  FROM ex
)
SELECT event_type, qname AS q, n,
       CAST(((exact >> shift) + 1) << shift AS BIGINT) AS est_ub_cents,
       exact AS exact_cents,
       CAST(((((exact >> shift) + 1) << shift) - exact) * 1000000
            // exact AS BIGINT) AS err_ppm
FROM m
"""


RELATIONAL_QUERIES["ddsketch_error_audit"] = (
    ddsketch_error_audit, SQL_DDSKETCH_ERROR_AUDIT)


def churn_labels(sf_dir: str) -> pd.DataFrame:
    """Leakage-safe churn-label export (the temporal label/feature
    split every behavioral model needs): the observation window is the
    first 80% of the event time range (cutoff = tmin + 4*(tmax-tmin)//5,
    integer micros); features come ONLY from events before the cutoff,
    the label marks users with no event at-or-after it.  Users with no
    observation-window activity are excluded (nothing to featurize).

    Two streaming passes: a (min, max) scalar fold, then per-batch
    per-user partials that collapse to the bounded user domain.
    -> (user_id, n_events_obs, n_purchases_obs, recency_s, churned)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type"])

    def spanp(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "ts" not in df.columns:
            return pd.DataFrame({"mn": pd.Series(dtype=object),
                                 "mx": pd.Series(dtype=object)})
        t = ts_epoch_us(df["ts"])
        return pd.DataFrame({"mn": [str(int(t.min()))],
                             "mx": [str(int(t.max()))]})

    sp = ds.map_batches(spanp, batch_format="pandas").to_pandas()
    out_cols = {"user_id": np.int64, "n_events_obs": np.int64,
                "n_purchases_obs": np.int64, "recency_s": np.int64,
                "churned": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    if sp.empty or "mn" not in sp.columns:
        return empty_out
    tmin = min(int(v) for v in sp["mn"])
    tmax = max(int(v) for v in sp["mx"])
    cutoff = tmin + 4 * (tmax - tmin) // 5

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                              "n_obs": pd.Series(dtype=np.int64),
                              "n_pur": pd.Series(dtype=np.int64),
                              "last_obs": pd.Series(dtype=np.int64),
                              "n_post": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "user_id" not in df.columns:
            return empty
        t = ts_epoch_us(df["ts"])
        obs = t < cutoff
        g = pd.DataFrame(
            {"user_id": df["user_id"].to_numpy(np.int64),
             "n_obs": obs.astype(np.int64),
             "n_pur": (obs & (df["event_type"] == "purchase")
                       .to_numpy()).astype(np.int64),
             "last_obs": np.where(obs, t, np.int64(-1)),
             "n_post": (~obs).astype(np.int64)}
        ).groupby("user_id", as_index=False).agg(
            n_obs=("n_obs", "sum"), n_pur=("n_pur", "sum"),
            last_obs=("last_obs", "max"), n_post=("n_post", "sum"))
        return g.astype(np.int64)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty or "user_id" not in parts.columns:
        return empty_out
    g = parts.groupby("user_id", as_index=False).agg(
        n_obs=("n_obs", "sum"), n_pur=("n_pur", "sum"),
        last_obs=("last_obs", "max"), n_post=("n_post", "sum"))
    g = g[g["n_obs"] > 0]
    if len(g) == 0:
        return empty_out
    return pd.DataFrame(
        {"user_id": g["user_id"].to_numpy(np.int64),
         "n_events_obs": g["n_obs"].to_numpy(np.int64),
         "n_purchases_obs": g["n_pur"].to_numpy(np.int64),
         "recency_s": (cutoff - g["last_obs"].to_numpy(np.int64))
         // 1_000_000,
         "churned": (g["n_post"].to_numpy(np.int64) == 0)
         .astype(np.int64)}).reset_index(drop=True)


SQL_CHURN_LABELS = """
WITH e AS (
  SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS t, event_type
  FROM events
),
b AS (SELECT min(t) AS tmin, max(t) AS tmax FROM e),
c AS (SELECT tmin + 4 * (tmax - tmin) // 5 AS cutoff FROM b),
g AS (
  SELECT user_id,
         sum(CASE WHEN t < cutoff THEN 1 ELSE 0 END) AS n_obs,
         sum(CASE WHEN t < cutoff AND event_type = 'purchase'
                  THEN 1 ELSE 0 END) AS n_pur,
         max(CASE WHEN t < cutoff THEN t END) AS last_obs,
         sum(CASE WHEN t >= cutoff THEN 1 ELSE 0 END) AS n_post
  FROM e, c GROUP BY user_id
)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(n_obs AS BIGINT) AS n_events_obs,
       CAST(n_pur AS BIGINT) AS n_purchases_obs,
       CAST((c.cutoff - last_obs) // 1000000 AS BIGINT) AS recency_s,
       CAST(CASE WHEN n_post = 0 THEN 1 ELSE 0 END AS BIGINT) AS churned
FROM g, c WHERE n_obs > 0
"""


def revenue_sax_motifs(sf_dir: str) -> pd.DataFrame:
    """SAX symbolization + motif counts of the weekly revenue series
    (symbolic aggregate approximation, Lin et al.): the densified
    daily series is piecewise-aggregated into full 7-day windows
    (integer sums), each window mapped to a quartile symbol a-d
    against the PAA distribution's own rank breakpoints, and every
    3-week motif counted — the regime-pattern miner run before
    forecasting.  All integer arithmetic (rank cuts, no float).

    Map-only partials collapse to the bounded day domain; the driver
    folds O(days) ints (autocorr_revenue shape).
    -> (motif, n)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"day": pd.Series(dtype=np.int64),
                              "rev": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "o_orderdate" not in df.columns:
            return empty
        day = ts_epoch_us(df["o_orderdate"]) // 86_400_000_000
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        g = pd.DataFrame({"day": day, "rev": cents}).groupby(
            "day", as_index=False)["rev"].sum()
        return g.astype(np.int64)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"motif": object, "n": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    if parts.empty or "day" not in parts.columns:
        return empty_out
    g = parts.groupby("day")["rev"].sum()
    d0, d1 = int(g.index.min()), int(g.index.max())
    x = np.zeros(d1 - d0 + 1, dtype=np.int64)
    x[g.index.to_numpy(np.int64) - d0] = g.to_numpy(np.int64)
    nw = len(x) // 7
    if nw < 3:
        return empty_out
    paa = x[:nw * 7].reshape(nw, 7).sum(axis=1)
    s = np.sort(paa)
    # 1-based rank cuts ceil(nw/4), ceil(nw/2), ceil(3nw/4)
    q1 = int(s[(nw + 3) // 4 - 1])
    q2 = int(s[(nw + 1) // 2 - 1])
    q3 = int(s[(3 * nw + 3) // 4 - 1])
    sym = np.where(paa <= q1, "a",
                   np.where(paa <= q2, "b",
                            np.where(paa <= q3, "c", "d")))
    motifs = ["".join(sym[i:i + 3]) for i in range(nw - 2)]
    vc = pd.Series(motifs, dtype=object).value_counts()
    return pd.DataFrame({"motif": vc.index.to_numpy(object),
                         "n": vc.to_numpy(np.int64)})


SQL_REVENUE_SAX_MOTIFS = """
WITH daily AS (
  SELECT CAST(CAST(epoch_us(o_orderdate) AS HUGEINT)
              // 86400000000 AS BIGINT) AS day,
         CAST(sum(CAST(floor(o_totalprice * 100) AS HUGEINT))
              AS BIGINT) AS rev
  FROM orders GROUP BY 1
),
b AS (SELECT min(day) AS d0, max(day) AS d1 FROM daily),
cal AS (
  SELECT s.day, COALESCE(daily.rev, 0) AS rev
  FROM (SELECT unnest(generate_series((SELECT d0 FROM b),
                                      (SELECT d1 FROM b))) AS day) s
  LEFT JOIN daily ON daily.day = s.day
),
w AS (
  SELECT (day - (SELECT d0 FROM b)) // 7 AS wk, sum(rev) AS paa
  FROM cal
  WHERE (day - (SELECT d0 FROM b)) // 7
        < (SELECT (d1 - d0 + 1) // 7 FROM b)
  GROUP BY 1
),
nn AS (SELECT CAST(count(*) AS BIGINT) AS nw FROM w),
r AS (SELECT paa, row_number() OVER (ORDER BY paa) AS rn FROM w),
q AS (
  SELECT max(CASE WHEN rn = (nw + 3) // 4 THEN paa END) AS q1,
         max(CASE WHEN rn = (nw + 1) // 2 THEN paa END) AS q2,
         max(CASE WHEN rn = (3 * nw + 3) // 4 THEN paa END) AS q3
  FROM r, nn GROUP BY nn.nw
),
sym AS (
  SELECT wk, CASE WHEN paa <= q1 THEN 'a' WHEN paa <= q2 THEN 'b'
                  WHEN paa <= q3 THEN 'c' ELSE 'd' END AS s
  FROM w, q
),
tri AS (
  SELECT s1.s || s2.s || s3.s AS motif
  FROM sym s1 JOIN sym s2 ON s2.wk = s1.wk + 1
  JOIN sym s3 ON s3.wk = s1.wk + 2
)
SELECT motif, CAST(count(*) AS BIGINT) AS n
FROM tri, nn WHERE nn.nw >= 3 GROUP BY motif
"""


RELATIONAL_QUERIES["churn_labels"] = (churn_labels, SQL_CHURN_LABELS)
RELATIONAL_QUERIES["revenue_sax_motifs"] = (
    revenue_sax_motifs, SQL_REVENUE_SAX_MOTIFS)


def contract_violations(sf_dir: str) -> pd.DataFrame:
    """Data-contract audit over orders (the gate every ingested batch
    must pass before entering a pipeline): per-rule violation counts
    for value positivity, status domain, date range, key nullability
    and primary-key uniqueness.  Rule rows are ALWAYS emitted (zero
    counts prove the check ran — the pipeline_metrics convention).

    Map-only partials for the four row-local rules; the PK-uniqueness
    rule folds per-key counts inside an orderkey-keyed exchange (one
    row per bucket leaves), so no rule ships more than O(rules +
    buckets) rows to the driver.
    -> (rule, n_violations)."""

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderstatus",
                 "o_totalprice", "o_orderdate"])
    lo_day = (np.datetime64("1992-01-01") - np.datetime64("1970-01-01")
              ) // np.timedelta64(1, "D")
    hi_day = (np.datetime64("1999-01-01") - np.datetime64("1970-01-01")
              ) // np.timedelta64(1, "D")

    RULES = ["nonpositive_price", "bad_status", "date_out_of_range",
             "bad_custkey", "duplicate_orderkey"]

    def rowlocal(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"rule": pd.Series(dtype=object),
                              "n": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "o_orderkey" not in df.columns:
            return empty
        day = ts_epoch_us(df["o_orderdate"]) // 86_400_000_000
        price = df["o_totalprice"].to_numpy(np.float64)
        ck = df["o_custkey"]
        return pd.DataFrame(
            {"rule": RULES[:4],
             "n": np.array(
                 [int((price <= 0).sum()),
                  int((~df["o_orderstatus"].isin(("O", "F", "P")))
                      .sum()),
                  int(((day < int(lo_day)) | (day >= int(hi_day)))
                      .sum()),
                  int((ck.isna() | (ck.fillna(-1) < 0)).sum())],
                 dtype=np.int64)})

    parts = ds.map_batches(rowlocal, batch_format="pandas").to_pandas()

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderkey" not in df.columns:
            return pd.DataFrame({"o_orderkey": pd.Series(dtype=np.int64),
                                 "__k": pd.Series(dtype=np.int64)})
        return pd.DataFrame(
            {"o_orderkey": df["o_orderkey"].to_numpy(np.int64),
             "__k": df["o_orderkey"].to_numpy(np.int64)})

    def dupcount(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_orderkey" not in df.columns:
            return pd.DataFrame({"n": pd.Series(dtype=np.int64)})
        c = df.groupby("o_orderkey").size()
        return pd.DataFrame({"n": [np.int64((c[c > 1] - 1).sum())]})

    dup = hash_exchange(
        ds.map_batches(keyed, batch_format="pandas"), "__k",
        dupcount, num_buckets=8).to_pandas()
    n_dup = int(dup["n"].sum()) if "n" in dup.columns and len(dup) else 0
    counts = {r: 0 for r in RULES}
    if not parts.empty and "rule" in parts.columns:
        for r, n in parts.groupby("rule")["n"].sum().items():
            counts[r] = int(n)
    counts["duplicate_orderkey"] = n_dup
    return pd.DataFrame({"rule": RULES,
                         "n_violations": np.array(
                             [counts[r] for r in RULES], np.int64)})


SQL_CONTRACT_VIOLATIONS = """
WITH e AS (
  SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice,
         CAST(epoch_us(o_orderdate) AS BIGINT) // 86400000000 AS day
  FROM orders
),
dup AS (
  SELECT COALESCE(sum(c - 1), 0) AS n
  FROM (SELECT count(*) AS c FROM e GROUP BY o_orderkey) t
  WHERE c > 1
)
SELECT 'nonpositive_price' AS rule,
       CAST(count(CASE WHEN o_totalprice <= 0 THEN 1 END) AS BIGINT)
         AS n_violations FROM e
UNION ALL
SELECT 'bad_status',
       CAST(count(CASE WHEN o_orderstatus NOT IN ('O', 'F', 'P')
                  THEN 1 END) AS BIGINT) FROM e
UNION ALL
SELECT 'date_out_of_range',
       CAST(count(CASE WHEN day < 8035 OR day >= 10592 THEN 1 END)
            AS BIGINT) FROM e
UNION ALL
SELECT 'bad_custkey',
       CAST(count(CASE WHEN o_custkey IS NULL OR o_custkey < 0
                  THEN 1 END) AS BIGINT) FROM e
UNION ALL
SELECT 'duplicate_orderkey', CAST(n AS BIGINT) FROM dup
"""


RELATIONAL_QUERIES["contract_violations"] = (
    contract_violations, SQL_CONTRACT_VIOLATIONS)


def l_diversity_profile(sf_dir: str) -> pd.DataFrame:
    """l-diversity profile (the k_anonymity_violations companion):
    with quasi-identifier (o_orderstatus, $1000 price bucket) and
    sensitive attribute o_orderpriority, report per status how many
    QI groups have exactly l distinct sensitive values — the privacy
    readout a release gate thresholds (groups at l=1 are homogeneous
    leaks).  -> (o_orderstatus, l, n_groups).

    Map-only: per-batch (status, bucket, priority) counts collapse to
    the bounded QI x sensitive domain; the driver folds O(domain)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_totalprice", "o_orderpriority"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"st": pd.Series(dtype=object),
                              "b": pd.Series(dtype=np.int64),
                              "p": pd.Series(dtype=object),
                              "n": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "o_orderstatus" not in df.columns:
            return empty
        b = (np.floor(df["o_totalprice"].to_numpy(np.float64) * 100.0)
             .astype(np.int64)) // 100_000
        g = pd.DataFrame({"st": df["o_orderstatus"].to_numpy(),
                          "b": b,
                          "p": df["o_orderpriority"].to_numpy()}).groupby(
            ["st", "b", "p"], as_index=False).size().rename(
            columns={"size": "n"})
        return g.astype({"b": np.int64, "n": np.int64})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"o_orderstatus": object, "l": np.int64,
                "n_groups": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    if parts.empty or "st" not in parts.columns:
        return empty_out
    cells = parts.groupby(["st", "b", "p"], as_index=False)["n"].sum()
    lv = cells.groupby(["st", "b"], as_index=False).agg(
        l=("p", "nunique"))
    out = lv.groupby(["st", "l"], as_index=False).size().rename(
        columns={"st": "o_orderstatus", "size": "n_groups"})
    return out.astype({"l": np.int64, "n_groups": np.int64})


SQL_L_DIVERSITY_PROFILE = """
WITH e AS (
  SELECT o_orderstatus AS st,
         CAST(floor(o_totalprice * 100) AS BIGINT) // 100000 AS b,
         o_orderpriority AS p
  FROM orders
),
g AS (SELECT st, b, count(DISTINCT p) AS l FROM e GROUP BY st, b)
SELECT st AS o_orderstatus, CAST(l AS BIGINT) AS l,
       CAST(count(*) AS BIGINT) AS n_groups
FROM g GROUP BY st, l
"""


def monthly_top_movers(sf_dir: str, top_k: int = 5) -> pd.DataFrame:
    """Month-over-month brand movers: revenue rank per (month, brand)
    over shipped lines, joined to the previous CALENDAR month's rank
    (brands absent a month drop out — inner-join semantics), keeping
    each month's top 5 by current rank — the trend report every
    merchandising dashboard runs.  Ranks break ties by brand name.

    Shape: per-batch (month, brand, cents) partials collapse to the
    tiny months x brands domain; the broadcast part->brand lookup is
    the small side (cheapest_supplier convention).
    -> (month, brand, rank, prev_rank, delta)."""
    parts_tbl = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
    ).to_pandas()
    out_cols = {"month": np.int64, "brand": object, "rank": np.int64,
                "prev_rank": np.int64, "delta": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    if len(parts_tbl) == 0 or "p_partkey" not in parts_tbl.columns:
        return empty_out
    brand_of = dict(zip(parts_tbl["p_partkey"].to_numpy(np.int64),
                        parts_tbl["p_brand"].to_numpy(object)))

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_shipdate", "l_extendedprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"midx": pd.Series(dtype=np.int64),
                              "brand": pd.Series(dtype=object),
                              "cents": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "l_partkey" not in df.columns:
            return empty
        ts = pd.to_datetime(df["l_shipdate"])
        midx = ((ts.dt.year.to_numpy(np.int64) - 1970) * 12
                + ts.dt.month.to_numpy(np.int64) - 1)
        cents = np.floor(
            df["l_extendedprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        brand = df["l_partkey"].map(brand_of)
        keep = brand.notna().to_numpy()
        if not keep.any():
            return empty
        g = pd.DataFrame({"midx": midx[keep],
                          "brand": brand.to_numpy(object)[keep],
                          "cents": cents[keep]}).groupby(
            ["midx", "brand"], as_index=False)["cents"].sum()
        return g.astype({"midx": np.int64, "cents": np.int64})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty or "midx" not in parts.columns:
        return empty_out
    g = parts.groupby(["midx", "brand"], as_index=False)["cents"].sum()
    g = g.sort_values(["midx", "cents", "brand"],
                      ascending=[True, False, True], ignore_index=True)
    g["rank"] = g.groupby("midx").cumcount().to_numpy(np.int64) + 1
    prev = g[["midx", "brand", "rank"]].copy()
    prev["midx"] = prev["midx"] + 1
    j = g.merge(prev, on=["midx", "brand"], suffixes=("", "_prev"))
    j = j[j["rank"] <= top_k]
    if len(j) == 0:
        return empty_out
    y = 1970 + j["midx"].to_numpy(np.int64) // 12
    m = j["midx"].to_numpy(np.int64) % 12 + 1
    return pd.DataFrame(
        {"month": y * 100 + m, "brand": j["brand"].to_numpy(object),
         "rank": j["rank"].to_numpy(np.int64),
         "prev_rank": j["rank_prev"].to_numpy(np.int64),
         "delta": (j["rank_prev"] - j["rank"]).to_numpy(np.int64)}
    ).reset_index(drop=True)


SQL_MONTHLY_TOP_MOVERS = """
WITH e AS (
  SELECT (year(l_shipdate) - 1970) * 12 + month(l_shipdate) - 1 AS midx,
         p.p_brand AS brand,
         CAST(floor(l_extendedprice * 100) AS HUGEINT) AS cents
  FROM lineitem JOIN part p ON p.p_partkey = l_partkey
),
g AS (SELECT midx, brand, sum(cents) AS rev FROM e GROUP BY 1, 2),
r AS (
  SELECT midx, brand,
         row_number() OVER (PARTITION BY midx
                            ORDER BY rev DESC, brand ASC) AS rank
  FROM g
)
SELECT CAST(1970 + cur.midx // 12 AS BIGINT) * 100
         + CAST(cur.midx % 12 + 1 AS BIGINT) AS month,
       cur.brand, CAST(cur.rank AS BIGINT) AS rank,
       CAST(prv.rank AS BIGINT) AS prev_rank,
       CAST(prv.rank - cur.rank AS BIGINT) AS delta
FROM r cur JOIN r prv
  ON prv.brand = cur.brand AND prv.midx = cur.midx - 1
WHERE cur.rank <= 5
"""


RELATIONAL_QUERIES["l_diversity_profile"] = (
    l_diversity_profile, SQL_L_DIVERSITY_PROFILE)
RELATIONAL_QUERIES["monthly_top_movers"] = (
    monthly_top_movers, SQL_MONTHLY_TOP_MOVERS)


def duplicate_payments(sf_dir: str, window_days: int = 90) -> pd.DataFrame:
    """Duplicate-payment screen (the fraud/idempotency audit run on
    every billing ledger): pairs of orders by the SAME customer in the
    SAME $1000 value band within 90 days — the candidate set a retry-
    bug / double-charge review works through.  Pairs are emitted once
    (earlier day first; key order breaks day ties).

    Shape: one (custkey, band)-keyed exchange; candidate pairs are
    generated bucket-locally (exact: both legs co-locate by key), so
    no all-pairs join ever forms.
    -> (o_custkey, band, key_a, key_b, day_gap)."""

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice",
                 "o_orderdate"])

    def key(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"key": pd.Series(dtype=np.int64),
                              "cust": pd.Series(dtype=np.int64),
                              "cents": pd.Series(dtype=np.int64),
                              "day": pd.Series(dtype=np.int64),
                              "__k": pd.Series(dtype=object)})
        if len(df) == 0 or "o_orderkey" not in df.columns:
            return empty
        band = np.floor(
            df["o_totalprice"].to_numpy(np.float64) / 1000.0
        ).astype(np.int64)
        out = pd.DataFrame(
            {"key": df["o_orderkey"].to_numpy(np.int64),
             "cust": df["o_custkey"].to_numpy(np.int64),
             "cents": band,
             "day": (ts_epoch_us(df["o_orderdate"])
                     // 86_400_000_000).astype(np.int64)})
        out["__k"] = (out["cust"].astype(str).str
                      .cat(out["cents"].astype(str), sep="\x1f"))
        return out

    _OUT = {"o_custkey": np.int64, "band": np.int64,
            "key_a": np.int64, "key_b": np.int64, "day_gap": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in _OUT.items()})

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "cust" not in df.columns:
            return empty_out
        rows = []
        for (cust, cents), g in df.groupby(["cust", "cents"]):
            if len(g) < 2:
                continue
            g = g.sort_values(["day", "key"])
            days = g["day"].to_numpy(np.int64)
            keys = g["key"].to_numpy(np.int64)
            for i in range(len(g)):
                for j in range(i + 1, len(g)):
                    gap = int(days[j] - days[i])
                    if gap > window_days:
                        break
                    rows.append((int(cust), int(cents),
                                 int(keys[i]), int(keys[j]), gap))
        if not rows:
            return empty_out
        return pd.DataFrame(rows, columns=list(_OUT)).astype(_OUT)

    out = hash_exchange(
        ds.map_batches(key, batch_format="pandas"), "__k",
        pairs, num_buckets=8)
    if out.count() == 0:
        return empty_out
    return out


SQL_DUPLICATE_PAYMENTS = """
WITH e AS (
  SELECT o_orderkey AS key, o_custkey AS cust,
         CAST(floor(o_totalprice / 1000) AS BIGINT) AS band,
         CAST(epoch_us(o_orderdate) AS BIGINT) // 86400000000 AS day
  FROM orders
)
SELECT CAST(a.cust AS BIGINT) AS o_custkey, a.band,
       CAST(a.key AS BIGINT) AS key_a, CAST(b.key AS BIGINT) AS key_b,
       CAST(b.day - a.day AS BIGINT) AS day_gap
FROM e a JOIN e b
  ON b.cust = a.cust AND b.band = a.band
 AND (a.day < b.day OR (a.day = b.day AND a.key < b.key))
 AND b.day - a.day <= 90
"""


RELATIONAL_QUERIES["duplicate_payments"] = (
    duplicate_payments, SQL_DUPLICATE_PAYMENTS)


def bitmap_index_stats(sf_dir: str) -> pd.DataFrame:
    """Bitmap-index sizing audit: for a per-status bitmap over the
    o_orderkey value space (64-bit words), the set-bit count, touched
    word count and bit density in ppm — the numbers that decide
    bitmap-vs-btree for a low-cardinality column at 100 TB.

    Map-only: per-batch (status, word) partials collapse to the
    touched-word domain; driver folds O(words).
    -> (o_orderstatus, n_set, n_words, density_ppm)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"st": pd.Series(dtype=object),
                              "word": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "o_orderkey" not in df.columns:
            return empty
        g = pd.DataFrame(
            {"st": df["o_orderstatus"].to_numpy(),
             "word": df["o_orderkey"].to_numpy(np.int64) // 64}
        ).groupby(["st", "word"], as_index=False).size().rename(
            columns={"size": "n"})
        return g.astype({"word": np.int64, "n": np.int64})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"o_orderstatus": object, "n_set": np.int64,
                "n_words": np.int64, "density_ppm": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    if parts.empty or "st" not in parts.columns:
        return empty_out
    w = parts.groupby(["st", "word"], as_index=False)["n"].sum()
    g = w.groupby("st", as_index=False).agg(
        n_set=("n", "sum"), n_words=("word", "size"))
    return pd.DataFrame(
        {"o_orderstatus": g["st"].to_numpy(object),
         "n_set": g["n_set"].to_numpy(np.int64),
         "n_words": g["n_words"].to_numpy(np.int64),
         "density_ppm": (g["n_set"].to_numpy(np.int64) * 1_000_000)
         // (64 * g["n_words"].to_numpy(np.int64))})


SQL_BITMAP_INDEX_STATS = """
WITH w AS (
  SELECT o_orderstatus AS st, o_orderkey // 64 AS word,
         CAST(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1, 2
),
g AS (
  SELECT st, sum(n) AS n_set, CAST(count(*) AS BIGINT) AS n_words
  FROM w GROUP BY st
)
SELECT st AS o_orderstatus, CAST(n_set AS BIGINT) AS n_set, n_words,
       CAST(n_set * 1000000 // (64 * n_words) AS BIGINT) AS density_ppm
FROM g
"""


RELATIONAL_QUERIES["bitmap_index_stats"] = (
    bitmap_index_stats, SQL_BITMAP_INDEX_STATS)


def events_hour_profile(sf_dir: str) -> pd.DataFrame:
    """Hour-of-day seasonality per event type (the weekday_revenue
    profile's event-stream sibling): counts and parts-per-million
    share within each type — the load-shape table an ingestion
    scheduler reads.  -> (event_type, hour, n, share_ppm).

    Map-only partials collapse to the 24 x types domain."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"event_type": pd.Series(dtype=object),
                              "hour": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "ts" not in df.columns:
            return empty
        hour = (ts_epoch_us(df["ts"]) // 3_600_000_000) % 24
        g = pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                          "hour": hour}).groupby(
            ["event_type", "hour"], as_index=False).size().rename(
            columns={"size": "n"})
        return g.astype({"hour": np.int64, "n": np.int64})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"event_type": object, "hour": np.int64, "n": np.int64,
                "share_ppm": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    if parts.empty or "event_type" not in parts.columns:
        return empty_out
    g = parts.groupby(["event_type", "hour"], as_index=False)["n"].sum()
    tot = g.groupby("event_type")["n"].transform("sum")
    g["share_ppm"] = (g["n"].to_numpy(np.int64) * 1_000_000
                      ) // tot.to_numpy(np.int64)
    return g.astype({"hour": np.int64, "n": np.int64,
                     "share_ppm": np.int64})


SQL_EVENTS_HOUR_PROFILE = """
WITH e AS (
  SELECT event_type,
         (CAST(epoch_us(ts) AS BIGINT) // 3600000000) % 24 AS hour
  FROM events
),
g AS (SELECT event_type, hour, CAST(count(*) AS BIGINT) AS n
      FROM e GROUP BY 1, 2)
SELECT event_type, hour, n,
       CAST(n * 1000000 // sum(n) OVER (PARTITION BY event_type)
            AS BIGINT) AS share_ppm
FROM g
"""


RELATIONAL_QUERIES["events_hour_profile"] = (
    events_hour_profile, SQL_EVENTS_HOUR_PROFILE)


ANON_K = 10
ANON_MAX_J = 15


def anonymize_width_search(sf_dir: str) -> pd.DataFrame:
    """k-anonymity REMEDY (the generalization step after
    k_anonymity_violations / l_diversity_profile flag a table): for
    each order status, find the smallest price-band width from the
    doubling ladder 1000*2^j dollars (j = 0..14) at which EVERY band
    group holds >= 10 rows — the minimal generalization that makes the
    quasi-identifier safe to release.  Statuses whose total count
    can't reach k report j = -1 (suppress, don't generalize).

    Map-only: per-batch (status, j, band) count partials collapse to
    the bounded ladder x band domain; the driver folds O(domain).
    -> (o_orderstatus, chosen_j, width_dollars, n_groups, min_group)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"st": pd.Series(dtype=object),
                              "j": pd.Series(dtype=np.int64),
                              "band": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "o_orderstatus" not in df.columns:
            return empty
        dollars = np.floor(
            df["o_totalprice"].to_numpy(np.float64)).astype(np.int64)
        st = df["o_orderstatus"].to_numpy(object)
        frames = []
        for j in range(ANON_MAX_J):
            w = 1000 << j
            frames.append(pd.DataFrame(
                {"st": st, "j": np.int64(j), "band": dollars // w}))
        g = pd.concat(frames, ignore_index=True).groupby(
            ["st", "j", "band"], as_index=False).size().rename(
            columns={"size": "n"})
        return g.astype({"j": np.int64, "band": np.int64,
                         "n": np.int64})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"o_orderstatus": object, "chosen_j": np.int64,
                "width_dollars": np.int64, "n_groups": np.int64,
                "min_group": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    if parts.empty or "st" not in parts.columns:
        return empty_out
    cells = parts.groupby(["st", "j", "band"], as_index=False)["n"].sum()
    per_j = cells.groupby(["st", "j"], as_index=False).agg(
        n_groups=("n", "size"), min_group=("n", "min"))
    rows = []
    for st, g in per_j.groupby("st"):
        ok = g[g["min_group"] >= ANON_K].sort_values("j")
        if len(ok):
            r = ok.iloc[0]
            rows.append((st, int(r["j"]), 1000 << int(r["j"]),
                         int(r["n_groups"]), int(r["min_group"])))
        else:
            rows.append((st, -1, -1, 0, 0))
    return pd.DataFrame(rows, columns=list(out_cols)).astype(
        {c: t for c, t in out_cols.items() if c != "o_orderstatus"}
    ).sort_values("o_orderstatus", ignore_index=True)


SQL_ANONYMIZE_WIDTH_SEARCH = f"""
WITH e AS (
  SELECT o_orderstatus AS st,
         CAST(floor(o_totalprice) AS BIGINT) AS dollars
  FROM orders
),
lad AS (SELECT j, 1000 * (1 << j) AS w
        FROM range(0, {ANON_MAX_J}) t(j)),
c AS (
  SELECT st, lad.j, lad.w, dollars // lad.w AS band,
         CAST(count(*) AS BIGINT) AS n
  FROM e, lad GROUP BY 1, 2, 3, 4
),
pj AS (
  SELECT st, j, any_value(w) AS w,
         CAST(count(*) AS BIGINT) AS n_groups, min(n) AS min_group
  FROM c GROUP BY st, j
),
ok AS (
  SELECT st, j, w, n_groups, min_group,
         row_number() OVER (PARTITION BY st ORDER BY j) AS rk
  FROM pj WHERE min_group >= {ANON_K}
),
sts AS (SELECT DISTINCT st FROM e)
SELECT sts.st AS o_orderstatus,
       CAST(COALESCE(ok.j, -1) AS BIGINT) AS chosen_j,
       CAST(COALESCE(ok.w, -1) AS BIGINT) AS width_dollars,
       CAST(COALESCE(ok.n_groups, 0) AS BIGINT) AS n_groups,
       CAST(COALESCE(ok.min_group, 0) AS BIGINT) AS min_group
FROM sts LEFT JOIN ok ON ok.st = sts.st AND ok.rk = 1
"""


RELATIONAL_QUERIES["anonymize_width_search"] = (
    anonymize_width_search, SQL_ANONYMIZE_WIDTH_SEARCH)


def events_peak_days(sf_dir: str) -> pd.DataFrame:
    """Peak detection over the daily event-count series: strict local
    maxima (higher than BOTH neighbors on the densified calendar) —
    the traffic-spike report an ingestion planner reads.  Exact
    integer comparisons only.  -> (day, n).

    Map-only partials collapse to the bounded day domain; the driver
    folds O(days) ints (the autocorr_revenue shape)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"day": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "ts" not in df.columns:
            return empty
        day = ts_epoch_us(df["ts"]) // 86_400_000_000
        g = pd.DataFrame({"day": day}).groupby(
            "day", as_index=False).size().rename(columns={"size": "n"})
        return g.astype({"day": np.int64, "n": np.int64})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out_cols = {"day": np.int64, "n": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    if parts.empty or "day" not in parts.columns:
        return empty_out
    g = parts.groupby("day")["n"].sum().sort_index()
    d0, d1 = int(g.index.min()), int(g.index.max())
    x = np.zeros(d1 - d0 + 1, dtype=np.int64)
    x[g.index.to_numpy(np.int64) - d0] = g.to_numpy(np.int64)
    ndays = len(x)
    if ndays < 3:
        return empty_out
    mid = x[1:-1]
    peak = (mid > x[:-2]) & (mid > x[2:])
    idx = np.flatnonzero(peak) + 1
    if len(idx) == 0:
        return empty_out
    return pd.DataFrame({"day": idx + d0,
                         "n": x[idx]}).astype(out_cols)


SQL_EVENTS_PEAK_DAYS = """
WITH daily AS (
  SELECT CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day,
         CAST(count(*) AS HUGEINT) AS n
  FROM events GROUP BY 1
),
b AS (SELECT min(day) AS d0, max(day) AS d1 FROM daily),
cal AS (
  SELECT s.day, COALESCE(daily.n, 0) AS n
  FROM (SELECT unnest(generate_series((SELECT d0 FROM b),
                                      (SELECT d1 FROM b))) AS day) s
  LEFT JOIN daily ON daily.day = s.day
),
t AS (SELECT CAST(count(*) AS HUGEINT) AS days FROM cal),
w AS (
  SELECT day, n,
         lag(n) OVER (ORDER BY day) AS pn,
         lead(n) OVER (ORDER BY day) AS nn
  FROM cal
)
SELECT CAST(w.day AS BIGINT) AS day, CAST(w.n AS BIGINT) AS n
FROM w, t
WHERE w.pn IS NOT NULL AND w.nn IS NOT NULL
  AND w.n > w.pn AND w.n > w.nn AND t.days >= 3
"""


RELATIONAL_QUERIES["events_peak_days"] = (
    events_peak_days, SQL_EVENTS_PEAK_DAYS)


def theil_sen_revenue(sf_dir: str) -> pd.DataFrame:
    """Theil-Sen robust trend over monthly revenue: the median of all
    pairwise month-to-month slopes — the outlier-proof alternative to
    OLS (`ols_price_qty`) for is-this-corpus/revenue-growing checks.
    Slopes are fixed-point floor(1e6 * d_cents / d_months); the median
    is the LOWER median (element (n-1)//2 of the sorted slopes), so
    every number is integer-exact.

    Shape: per-batch (month, cents) partials collapse to the tiny
    month domain; the all-pairs step runs on the driver over the
    aggregated ~O(100) monthly points only (never row-level data).
    -> one row (n_months, n_pairs, median_slope_x1e6)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"])
    out_cols = {"n_months": np.int64, "n_pairs": np.int64,
                "median_slope_x1e6": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"midx": pd.Series(dtype=np.int64),
                              "cents": pd.Series(dtype=object)})
        if len(df) == 0 or "o_orderdate" not in df.columns:
            return empty
        ts = pd.to_datetime(df["o_orderdate"])
        midx = ((ts.dt.year.to_numpy(np.int64) - 1970) * 12
                + ts.dt.month.to_numpy(np.int64) - 1)
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100.0 + 0.5
        ).astype(np.int64)
        g = pd.DataFrame({"midx": midx, "cents": cents}).groupby(
            "midx", as_index=False)["cents"].sum()
        # decimal-string partials: exact past int64 at any scale
        g["cents"] = g["cents"].map(lambda v: str(int(v)))
        return g
    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty or "midx" not in parts.columns:
        return empty_out
    rev: dict[int, int] = {}
    for m, c in zip(parts["midx"], parts["cents"]):
        rev[int(m)] = rev.get(int(m), 0) + int(c)
    months = sorted(rev)
    n = len(months)
    if n < 2:
        return empty_out
    slopes = []
    for i in range(n):
        for j in range(i + 1, n):
            slopes.append(
                (1_000_000 * (rev[months[j]] - rev[months[i]]))
                // (months[j] - months[i]))
    slopes.sort()
    return pd.DataFrame(
        [(n, len(slopes), slopes[(len(slopes) - 1) // 2])],
        columns=list(out_cols)).astype(out_cols)


SQL_THEIL_SEN_REVENUE = f"""
WITH g AS (
  SELECT (year(o_orderdate) - 1970) * 12 + month(o_orderdate) - 1 AS midx,
         sum(CAST(floor(o_totalprice * 100 + 0.5) AS HUGEINT)) AS cents
  FROM orders GROUP BY 1
),
p AS (
  SELECT {_sql_floordiv('1000000 * (b.cents - a.cents)',
                        'b.midx - a.midx')} AS s
  FROM g a JOIN g b ON b.midx > a.midx
),
r AS (
  SELECT s, row_number() OVER (ORDER BY s) AS rk,
         count(*) OVER () AS np
  FROM p
)
SELECT CAST((SELECT count(*) FROM g) AS BIGINT) AS n_months,
       CAST(np AS BIGINT) AS n_pairs,
       CAST(s AS BIGINT) AS median_slope_x1e6
FROM r WHERE rk = (np - 1) // 2 + 1
  AND (SELECT count(*) FROM g) >= 2
"""


RELATIONAL_QUERIES["theil_sen_revenue"] = (
    theil_sen_revenue, SQL_THEIL_SEN_REVENUE)


def kruskal_wallis_quantity(sf_dir: str) -> pd.DataFrame:
    """Kruskal-Wallis H (uncorrected) for l_quantity across the three
    l_returnflag groups — the rank-based does-the-distribution-differ
    test that needs no normality assumption.  l_quantity's tiny value
    domain makes exact tied-rank arithmetic cheap: 2x the average rank
    is always an integer, so per-group rank sums are exact; the H
    finish runs in float64 through the pinned left-associative
    sequence ((t_A + t_N) + t_R) on BOTH sides.

    Shape: per-batch (flag, qty, n) partials collapse to the ~150-cell
    (flag x qty) domain; the driver folds python ints only.
    -> one row (n_total, n_groups, sum_t3_minus_t, h_x1e9)."""
    import math

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity"])
    out_cols = {"n_total": np.int64, "n_groups": np.int64,
                "sum_t3_minus_t": np.int64, "h_x1e9": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"flag": pd.Series(dtype=object),
                              "qty": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=object)})
        if len(df) == 0 or "l_returnflag" not in df.columns:
            return empty
        g = pd.DataFrame(
            {"flag": df["l_returnflag"].to_numpy(object),
             "qty": df["l_quantity"].to_numpy(np.float64).astype(np.int64)}
        ).groupby(["flag", "qty"], as_index=False).size()
        g["n"] = g["size"].map(lambda v: str(int(v)))
        return g[["flag", "qty", "n"]]

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty or "flag" not in parts.columns:
        return empty_out
    cnt: dict[tuple, int] = {}
    for f, q, n in zip(parts["flag"], parts["qty"], parts["n"]):
        cnt[(str(f), int(q))] = cnt.get((str(f), int(q)), 0) + int(n)
    flags = sorted({k[0] for k in cnt})
    qtys = sorted({k[1] for k in cnt})
    N = sum(cnt.values())
    if N == 0 or len(flags) < 2:
        return empty_out
    # tied ranks over the value domain: 2*avg_rank(q) = 2*below + t + 1
    below = 0
    r2_of: dict[int, int] = {}
    sum_t3 = 0
    for q in qtys:
        t = sum(cnt.get((f, q), 0) for f in flags)
        r2_of[q] = 2 * below + t + 1
        sum_t3 += t * t * t - t
        below += t
    # exact per-group rank sums (x2) and sizes
    terms = []
    for f in flags:
        n_i = sum(cnt.get((f, q), 0) for q in qtys)
        r2_i = sum(cnt.get((f, q), 0) * r2_of[q] for q in qtys)
        # pinned float64 op order, identical in the SQL twin
        terms.append((float(r2_i) / 2.0) ** 2 / float(n_i))
    acc = terms[0]
    for t_ in terms[1:]:
        acc = acc + t_
    h = 12.0 * acc / (float(N) * (float(N) + 1.0)) - 3.0 * (float(N) + 1.0)
    return pd.DataFrame(
        [(N, len(flags), sum_t3, math.floor(h * 1e9))],
        columns=list(out_cols)).astype(out_cols)


SQL_KRUSKAL_WALLIS_QUANTITY = """
WITH e AS (
  SELECT l_returnflag AS flag, CAST(l_quantity AS BIGINT) AS qty
  FROM lineitem
),
vc AS (SELECT qty, CAST(count(*) AS HUGEINT) AS t FROM e GROUP BY qty),
rk AS (
  SELECT qty, t,
         2 * (sum(t) OVER (ORDER BY qty) - t) + t + 1 AS r2
  FROM vc
),
gs AS (
  SELECT e.flag, CAST(count(*) AS HUGEINT) AS n_i,
         sum(CAST(rk.r2 AS HUGEINT)) AS r2_i
  FROM e JOIN rk ON rk.qty = e.qty GROUP BY e.flag
),
piv AS (
  SELECT (SELECT sum(n_i) FROM gs) AS n,
         (SELECT count(*) FROM gs) AS k,
         (SELECT sum(t*t*t - t) FROM vc) AS st3,
         list(
           (CAST(r2_i AS DOUBLE) / 2.0) ^ 2 / CAST(n_i AS DOUBLE)
           ORDER BY flag) AS terms
  FROM gs
)
SELECT CAST(n AS BIGINT) AS n_total,
       CAST(k AS BIGINT) AS n_groups,
       CAST(st3 AS BIGINT) AS sum_t3_minus_t,
       CAST(floor(
         (12.0 * list_reduce(terms, (a, b) -> a + b)
          / (CAST(n AS DOUBLE) * (CAST(n AS DOUBLE) + 1.0))
          - 3.0 * (CAST(n AS DOUBLE) + 1.0)) * 1e9) AS BIGINT) AS h_x1e9
FROM piv
WHERE n > 0 AND k >= 2
"""


RELATIONAL_QUERIES["kruskal_wallis_quantity"] = (
    kruskal_wallis_quantity, SQL_KRUSKAL_WALLIS_QUANTITY)


def welch_t_test(sf_dir: str) -> pd.DataFrame:
    """Welch's unequal-variance t-test for l_extendedprice (cents)
    between the 'O' and 'F' line statuses, with the Welch-Satterthwaite
    degrees of freedom — the exact-moments discipline: per-batch
    chunked integer (n, sum, sum-of-squares) partials as decimal
    strings, python-int fold on the driver, and a float64 finish that
    runs the IDENTICAL IEEE op sequence as the SQL twin.
    -> one row (n_o, n_f, t_x1e9, df_x1e6)."""
    import math

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_linestatus", "l_extendedprice"])
    out_cols = {"n_o": np.int64, "n_f": np.int64,
                "t_x1e9": np.int64, "df_x1e6": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"st": pd.Series(dtype=object),
                              "n": pd.Series(dtype=np.int64),
                              "s": pd.Series(dtype=object),
                              "q": pd.Series(dtype=object)})
        if len(df) == 0 or "l_linestatus" not in df.columns:
            return empty
        rows = {"st": [], "n": [], "s": [], "q": []}
        for st in ("O", "F"):
            c = np.floor(
                df.loc[df["l_linestatus"] == st, "l_extendedprice"]
                .to_numpy(np.float64) * 100.0 + 0.5).astype(np.int64)
            if len(c) == 0:
                continue
            s = q = 0
            for i in range(0, len(c), 4096):  # int64-safe chunks
                ch = c[i:i + 4096]
                s += int(ch.sum())
                q += int((ch * ch).sum())
            rows["st"].append(st)
            rows["n"].append(len(c))
            rows["s"].append(str(s))
            rows["q"].append(str(q))
        if not rows["st"]:
            return empty
        return pd.DataFrame(rows).astype({"n": np.int64})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty or "st" not in parts.columns:
        return empty_out
    agg = {"O": [0, 0, 0], "F": [0, 0, 0]}
    for st, n, s, q in zip(parts["st"], parts["n"], parts["s"],
                           parts["q"]):
        a = agg[str(st)]
        a[0] += int(n)
        a[1] += int(s)
        a[2] += int(q)
    (n1, s1, q1), (n2, s2, q2) = agg["O"], agg["F"]
    if n1 < 2 or n2 < 2:
        return empty_out
    # pinned float64 sequence — mirrored verbatim in the SQL twin
    n1f, n2f = float(n1), float(n2)
    m1 = float(s1) / n1f
    m2 = float(s2) / n2f
    v1 = (float(q1) - float(s1) * float(s1) / n1f) / (n1f - 1.0)
    v2 = (float(q2) - float(s2) * float(s2) / n2f) / (n2f - 1.0)
    se1 = v1 / n1f
    se2 = v2 / n2f
    se = se1 + se2
    if se <= 0:
        return empty_out
    t = (m1 - m2) / math.sqrt(se)
    dfree = se * se / (se1 * se1 / (n1f - 1.0) + se2 * se2 / (n2f - 1.0))
    return pd.DataFrame(
        [(n1, n2, math.floor(t * 1e9), math.floor(dfree * 1e6))],
        columns=list(out_cols)).astype(out_cols)


SQL_WELCH_T_TEST = """
WITH e AS (
  SELECT l_linestatus AS st,
         CAST(floor(l_extendedprice * 100 + 0.5) AS HUGEINT) AS c
  FROM lineitem WHERE l_linestatus IN ('O', 'F')
),
s AS (
  SELECT st, CAST(count(*) AS HUGEINT) AS n, sum(c) AS sc,
         sum(c * c) AS qc
  FROM e GROUP BY st
),
p AS (
  SELECT max(CASE WHEN st = 'O' THEN n END) AS n1,
         max(CASE WHEN st = 'O' THEN sc END) AS s1,
         max(CASE WHEN st = 'O' THEN qc END) AS q1,
         max(CASE WHEN st = 'F' THEN n END) AS n2,
         max(CASE WHEN st = 'F' THEN sc END) AS s2,
         max(CASE WHEN st = 'F' THEN qc END) AS q2
  FROM s
),
f AS (
  SELECT n1, n2,
         CAST(s1 AS DOUBLE) / CAST(n1 AS DOUBLE) AS m1,
         CAST(s2 AS DOUBLE) / CAST(n2 AS DOUBLE) AS m2,
         ((CAST(q1 AS DOUBLE)
           - CAST(s1 AS DOUBLE) * CAST(s1 AS DOUBLE) / CAST(n1 AS DOUBLE))
          / (CAST(n1 AS DOUBLE) - 1.0)) / CAST(n1 AS DOUBLE) AS se1,
         ((CAST(q2 AS DOUBLE)
           - CAST(s2 AS DOUBLE) * CAST(s2 AS DOUBLE) / CAST(n2 AS DOUBLE))
          / (CAST(n2 AS DOUBLE) - 1.0)) / CAST(n2 AS DOUBLE) AS se2
  FROM p WHERE n1 >= 2 AND n2 >= 2
)
SELECT CAST(n1 AS BIGINT) AS n_o, CAST(n2 AS BIGINT) AS n_f,
       CAST(floor((m1 - m2) / sqrt(se1 + se2) * 1e9) AS BIGINT) AS t_x1e9,
       CAST(floor((se1 + se2) * (se1 + se2)
             / (se1 * se1 / (CAST(n1 AS DOUBLE) - 1.0)
                + se2 * se2 / (CAST(n2 AS DOUBLE) - 1.0)) * 1e6)
            AS BIGINT) AS df_x1e6
FROM f WHERE se1 + se2 > 0
"""


RELATIONAL_QUERIES["welch_t_test"] = (welch_t_test, SQL_WELCH_T_TEST)


def pseudonymize_users(sf_dir: str) -> pd.DataFrame:
    """Pseudonymization audit for the events stream (the GDPR-style
    stable-token rewrite next to redact_terms' content rewrite): each
    user_id maps to pseudonym 'u' + md5('pseudo:' || id)[:8]; the
    audit proves the mapping is FIT FOR JOINING — per pseudonym, the
    distinct source ids (collisions break referential integrity) and
    the event count the pseudonymized stream preserves.  Only
    colliding or high-volume pseudonyms surface (full mappings are
    PII-adjacent; the audit is the safe artifact).

    Map-only: per-batch (pseudonym, ids, n) partials collapse to the
    user domain; one pseudonym-keyed exchange finalizes.
    -> (pseudonym, n_source_ids, n_events) for pseudonyms with
    n_source_ids > 1 OR n_events >= 64."""
    import hashlib

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"])
    out_cols = {"pseudonym": object, "n_source_ids": np.int64,
                "n_events": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"pseudonym": pd.Series(dtype=object),
                              "user_id": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "user_id" not in df.columns:
            return empty
        g = df.groupby("user_id", as_index=False).size().rename(
            columns={"size": "n"})
        g["pseudonym"] = [
            "u" + hashlib.md5(f"pseudo:{int(u)}".encode()).hexdigest()[:8]
            for u in g["user_id"]]
        return g[["pseudonym", "user_id", "n"]].astype(
            {"user_id": np.int64, "n": np.int64})

    parts = ds.map_batches(partial, batch_format="pandas")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "pseudonym" not in df.columns:
            return empty_out
        g = df.groupby("pseudonym", as_index=False).agg(
            n_source_ids=("user_id", "nunique"), n_events=("n", "sum"))
        g = g[(g["n_source_ids"] > 1) | (g["n_events"] >= 64)]
        return g.astype({"n_source_ids": np.int64,
                         "n_events": np.int64})

    out = hash_exchange(parts, "pseudonym", final,
                                 num_buckets=16)
    pdf = out.to_pandas()
    if pdf.empty or "pseudonym" not in pdf.columns:
        return empty_out
    return pdf.sort_values("pseudonym", ignore_index=True)


SQL_PSEUDONYMIZE_USERS = """
WITH g AS (
  SELECT 'u' || substr(md5('pseudo:' || user_id), 1, 8) AS pseudonym,
         user_id, CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
)
SELECT pseudonym,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_source_ids,
       CAST(sum(n) AS BIGINT) AS n_events
FROM g GROUP BY 1
HAVING count(DISTINCT user_id) > 1 OR sum(n) >= 64
"""


RELATIONAL_QUERIES["pseudonymize_users"] = (
    pseudonymize_users, SQL_PSEUDONYMIZE_USERS)


def events_seasonal_backtest(sf_dir: str) -> pd.DataFrame:
    """Rolling-origin backtest of the two standard no-model
    forecasters over the daily event-count series: seasonal-naive
    (predict day d with day d-7) vs naive (predict with d-1), scored
    by MAE at fixed point 1000 over the densified calendar (missing
    days count as 0, the events_peak_days convention) — the
    is-there-weekly-structure readout that decides whether a seasonal
    model is worth training.

    Map-only: per-batch (day, n) partials collapse to the day domain;
    the driver folds python ints over O(days) rows.
    -> one row (n_days_scored, mae7_x1000, mae1_x1000)."""
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts"])
    out_cols = {"n_days_scored": np.int64, "mae7_x1000": np.int64,
                "mae1_x1000": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"day": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "ts" not in df.columns:
            return empty
        day = ts_epoch_us(df["ts"]) // 86_400_000_000
        g = pd.DataFrame({"day": day}).groupby(
            "day", as_index=False).size().rename(columns={"size": "n"})
        return g.astype({"day": np.int64, "n": np.int64})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty or "day" not in parts.columns:
        return empty_out
    cnt: dict[int, int] = {}
    for d, n in zip(parts["day"], parts["n"]):
        cnt[int(d)] = cnt.get(int(d), 0) + int(n)
    d0, d1 = min(cnt), max(cnt)
    if d1 - d0 < 7:
        return empty_out
    series = {d: cnt.get(d, 0) for d in range(d0, d1 + 1)}
    e7 = e1 = ns = 0
    for d in range(d0 + 7, d1 + 1):
        e7 += abs(series[d] - series[d - 7])
        e1 += abs(series[d] - series[d - 1])
        ns += 1
    return pd.DataFrame(
        [(ns, (1000 * e7) // ns, (1000 * e1) // ns)],
        columns=list(out_cols)).astype(out_cols)


SQL_EVENTS_SEASONAL_BACKTEST = """
WITH daily AS (
  SELECT CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day,
         CAST(count(*) AS HUGEINT) AS n
  FROM events GROUP BY 1
),
b AS (SELECT min(day) AS d0, max(day) AS d1 FROM daily),
cal AS (
  SELECT s.day, COALESCE(daily.n, 0) AS n
  FROM (SELECT unnest(generate_series((SELECT d0 FROM b),
                                      (SELECT d1 FROM b))) AS day) s
  LEFT JOIN daily ON daily.day = s.day
),
w AS (
  SELECT day, n,
         lag(n, 7) OVER (ORDER BY day) AS n7,
         lag(n, 1) OVER (ORDER BY day) AS n1
  FROM cal
),
sc AS (SELECT * FROM w WHERE day >= (SELECT d0 FROM b) + 7)
SELECT CAST(count(*) AS BIGINT) AS n_days_scored,
       CAST(1000 * sum(abs(n - n7)) // count(*) AS BIGINT) AS mae7_x1000,
       CAST(1000 * sum(abs(n - n1)) // count(*) AS BIGINT) AS mae1_x1000
FROM sc
HAVING (SELECT d1 - d0 FROM b) >= 7
"""


RELATIONAL_QUERIES["events_seasonal_backtest"] = (
    events_seasonal_backtest, SQL_EVENTS_SEASONAL_BACKTEST)


def user_value_auc(sf_dir: str) -> "ray.data.Dataset | pd.DataFrame":
    """Time-weighted value integral per user (the trapezoid AUC that
    turns point-in-time gauges into exposure: twice the integral of
    the linearly-interpolated value curve, in cent-milliseconds, so
    everything stays integer-exact): segments run between consecutive
    events ordered by (ms, event_id), ms being ts truncated to whole
    milliseconds.  Users with one event have no
    segment and report auc2x = 0.

    ONE user-keyed exchange; per-bucket vectorized diff over each
    user's ordered events.  -> (user_id, n_events, auc2x)."""

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"])
    out_cols = {"user_id": np.int64, "n_events": np.int64,
                "auc2x": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return empty_out
        d = df.assign(ms=ts_epoch_us(df["ts"]) // 1000).sort_values(
            ["user_id", "ms", "event_id"])
        ms = d["ms"].to_numpy(np.int64)
        cv = np.floor(
            d["value"].to_numpy(np.float64) * 100.0 + 0.5
        ).astype(np.int64)
        uid = d["user_id"].to_numpy(np.int64)
        same = uid[1:] == uid[:-1]
        seg = (cv[1:] + cv[:-1]) * (ms[1:] - ms[:-1]) * same
        acc = pd.DataFrame(
            {"user_id": uid[1:][same], "a": seg[same]}).groupby(
            "user_id", as_index=False)["a"].sum()
        n = pd.DataFrame({"user_id": uid}).groupby(
            "user_id", as_index=False).size()
        out = n.merge(acc, on="user_id", how="left").fillna({"a": 0})
        return pd.DataFrame(
            {"user_id": out["user_id"].to_numpy(np.int64),
             "n_events": out["size"].to_numpy(np.int64),
             "auc2x": out["a"].to_numpy(np.int64)})

    out = hash_exchange(ds, "user_id", fold, num_buckets=16)
    if out.count() == 0:
        return empty_out
    return out


SQL_USER_VALUE_AUC = """
WITH e AS (
  SELECT user_id,
         CAST(epoch_us(ts) AS BIGINT) // 1000 AS ms,
         event_id,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cv
  FROM events
),
w AS (
  SELECT user_id, cv, ms,
         lag(cv) OVER (PARTITION BY user_id
                       ORDER BY ms, event_id) AS pcv,
         lag(ms) OVER (PARTITION BY user_id
                       ORDER BY ms, event_id) AS pms
  FROM e
)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(COALESCE(sum((cv + pcv) * (ms - pms)), 0) AS BIGINT)
         AS auc2x
FROM w GROUP BY user_id
"""


RELATIONAL_QUERIES["user_value_auc"] = (user_value_auc,
                                        SQL_USER_VALUE_AUC)


def frequent_event_sequences(sf_dir: str) -> pd.DataFrame:
    """Sequential-pattern mining, PrefixSpan-lite: for every length-2
    and length-3 pattern over the four event types, the number of
    users whose (ts, event_id)-ordered event stream CONTAINS it as a
    subsequence (gaps allowed) — the funnel-discovery primitive that
    finds which orderings actually happen before anyone hand-builds a
    funnel.  Event types map to their distinct initials, so
    containment is a regex over each user's letter path.

    ONE user-keyed exchange builds per-user paths; each bucket tests
    its users against the fixed 80-pattern set (compiled once per
    call) and emits per-pattern partial counts; the driver folds 80
    ints.  -> (pattern, k, n_users), patterns with zero users drop."""
    import itertools
    import re

    types = ["click", "error", "purchase", "view"]
    letters = {t: t[0] for t in types}
    pats = []
    for k in (2, 3):
        for combo in itertools.product(types, repeat=k):
            pats.append((">".join(combo), k,
                         re.compile(".*".join(letters[t]
                                              for t in combo))))

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"])
    out_cols = {"pattern": object, "k": np.int64, "n_users": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return empty_out
        d = df.sort_values(["user_id", "ts", "event_id"])
        d = d.assign(c=d["event_type"].astype(str).str[0])
        paths = d.groupby("user_id")["c"].agg("".join)
        rows = {"pattern": [], "k": [], "n_users": []}
        for name, k, rx in pats:
            n = int(paths.map(lambda p: rx.search(p) is not None).sum())
            if n:
                rows["pattern"].append(name)
                rows["k"].append(k)
                rows["n_users"].append(n)
        if not rows["pattern"]:
            return empty_out
        return pd.DataFrame(rows).astype({"k": np.int64,
                                          "n_users": np.int64})

    parts = hash_exchange(
        ds, "user_id", fold, num_buckets=16).to_pandas()
    if parts.empty or "pattern" not in parts.columns:
        return empty_out
    g = parts.groupby(["pattern", "k"], as_index=False).agg(
        n_users=("n_users", "sum"))
    return g.sort_values(["k", "pattern"], ignore_index=True).astype(
        {"k": np.int64, "n_users": np.int64})


SQL_FREQUENT_EVENT_SEQUENCES = """
WITH p AS (
  SELECT user_id,
         string_agg(substr(event_type, 1, 1), ''
                    ORDER BY ts, event_id) AS path
  FROM events GROUP BY user_id
),
ty AS (SELECT unnest(['click', 'error', 'purchase', 'view']) AS t),
p2 AS (
  SELECT a.t || '>' || b.t AS pattern, 2 AS k,
         '%' || substr(a.t, 1, 1) || '%' || substr(b.t, 1, 1) || '%'
           AS lk
  FROM ty a, ty b
),
p3 AS (
  SELECT a.t || '>' || b.t || '>' || c.t AS pattern, 3 AS k,
         '%' || substr(a.t, 1, 1) || '%' || substr(b.t, 1, 1)
             || '%' || substr(c.t, 1, 1) || '%' AS lk
  FROM ty a, ty b, ty c
),
pats AS (SELECT * FROM p2 UNION ALL SELECT * FROM p3)
SELECT pats.pattern, CAST(pats.k AS BIGINT) AS k,
       CAST(count(*) AS BIGINT) AS n_users
FROM pats JOIN p ON p.path LIKE pats.lk
GROUP BY 1, 2
"""


RELATIONAL_QUERIES["frequent_event_sequences"] = (
    frequent_event_sequences, SQL_FREQUENT_EVENT_SEQUENCES)
