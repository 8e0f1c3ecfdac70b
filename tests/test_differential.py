"""Randomized differential testing: seeded random micro-tables ->
engine result vs the query's OWN DuckDB oracle SQL, beyond the fixed
testdata distributions.  Catches convention drift (tie-breaks, empty
groups, boundary rounding) that a single frozen input can mask."""

import hashlib

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray

from dygiepp_ray import relational as R

_TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
           "lineitem", "events", "documents", "embeddings"]


def _rand_events(rng: np.random.Generator, n: int) -> pa.Table:
    # heavy ts ties + tiny user space: stress ordering tie-breaks
    ts = rng.integers(0, 50, n) * 1_800 + rng.integers(0, 3, n)
    types = rng.choice(["click", "view", "purchase", "error"], n)
    # plant one guaranteed view->click->purchase run (a fresh user at
    # the stream's end) so sequence-pattern queries never go 0-row —
    # Ray's to_pandas drops columns on an all-empty Dataset
    ts = np.concatenate([ts, [200_000, 200_001, 200_002]])
    types = np.concatenate([types, ["view", "click", "purchase"]])
    n += 3
    return pa.table(
        {
            "event_id": pa.array(rng.permutation(n).astype(np.int64)),
            "ts": pa.array(pd.to_datetime(ts * 1_000_000_000),
                           pa.timestamp("us")),
            "user_id": pa.array(np.concatenate(
                [rng.integers(0, 7, n - 3), [99, 99, 99]]
            ).astype(np.int64)),
            "event_type": pa.array(types),
            "value": pa.array(
                np.round(rng.uniform(0, 200, n), 2), pa.float64()
            ),
            "props": pa.array(["{}"] * n),
        }
    )


def _canon(df: pd.DataFrame) -> tuple:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    df = df.sort_values(list(df.columns), ignore_index=True)
    h = hashlib.md5()
    for c in df.columns:
        col = df[c]
        if col.dtype.kind == "f":
            col = col.round(6)
        h.update(pd.util.hash_pandas_object(col, index=False)
                 .to_numpy().tobytes())
    return len(df), tuple(df.columns), h.hexdigest()


def _compare(sf_dir: str, qname: str):
    import __ray_entry__ as entry

    res = entry.queries()[qname](sf_dir)
    got = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    con = duckdb.connect()
    for t in _TABLES:
        try:
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'"
            )
        except duckdb.IOException:
            pass  # only the tables the query reads are written
    want = con.execute(entry.oracle_sql()[qname]).df()
    assert _canon(got) == _canon(want), qname


@pytest.mark.parametrize("seed", [11, 23, 47])
@pytest.mark.parametrize(
    "qname",
    ["events_ohlc", "user_streaks", "users_setop", "purchase_attribution",
     "events_rate_alert", "events_tumbling", "user_paths",
     "events_gap_histogram", "events_dedup_window",
     "session_duration_quantiles", "events_ewma",
     "events_watermark_agg", "session_table", "event_pattern_match",
     "events_trailing_range", "chi2_independence",
     "conversion_lag_quantiles", "user_gap_mad", "dau_wau_mau",
     "conversion_ab_test", "hll_error_audit", "ddsketch_error_audit",
     "churn_labels", "events_hour_profile", "events_peak_days",
     # tiny user space (7 ids) -> every pseudonym crosses the
     # n_events>=64 cut or not; the collision branch stays reachable
     "pseudonymize_users",
     # ~25-hour synthetic span: the d1-d0 >= 7 guard and calendar
     # densification both bind here
     "events_seasonal_backtest",
     # heavy ts ties: the (ms, event_id) segment order must agree
     "user_value_auc",
     # short random paths: many of the 80 patterns drop to zero,
     # pinning the drop-vs-keep convention and the tie order
     "frequent_event_sequences"],
)
def test_event_queries_differential(ray_session, tmp_path, seed, qname):
    rng = np.random.default_rng(seed * 1000 + len(qname))
    pq.write_table(_rand_events(rng, int(rng.integers(50, 400))),
                   tmp_path / "events.parquet")
    _compare(str(tmp_path), qname)


def test_user_value_auc_sub_ms_order(ray_session, tmp_path):
    """One user, two events inside one millisecond whose microseconds
    and event ids order them oppositely, then a third event: segments
    follow (ms, event_id) as in the SQL twin, not the raw timestamp."""
    ts = np.array([1_000_100, 1_000_900, 2_000_000])  # microseconds
    pq.write_table(pa.table({
        "event_id": pa.array([2, 1, 3], pa.int64()),
        "ts": pa.array(pd.to_datetime(ts * 1_000), pa.timestamp("us")),
        "user_id": pa.array([5, 5, 5], pa.int64()),
        "event_type": pa.array(["view", "click", "purchase"]),
        "value": pa.array([10.0, 30.0, 50.0]),
        "props": pa.array(["{}"] * 3),
    }), tmp_path / "events.parquet")
    _compare(str(tmp_path), "user_value_auc")


@pytest.mark.parametrize("seed", [5, 19])
def test_orders_queries_differential(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(100, 600))
    tbl = pa.table(
        {
            "o_orderkey": pa.array(rng.permutation(n * 3)[:n].astype(np.int64)),
            "o_custkey": pa.array(rng.integers(0, 40, n).astype(np.int64)),
            "o_orderstatus": pa.array(rng.choice(["O", "F", "P"], n)),
            "o_totalprice": pa.array(
                np.round(rng.uniform(900, 400000, n), 2), pa.float64()
            ),
            "o_orderdate": pa.array(
                pd.to_datetime(
                    rng.integers(800_000_000, 1_000_000_000, n)
                    * 1_000_000_000
                ),
                pa.timestamp("us"),
            ),
            "o_orderpriority": pa.array(
                rng.choice(["1-URGENT", "2-HIGH", "3-MEDIUM"], n)
            ),
        }
    )
    pq.write_table(tbl, tmp_path / "orders.parquet")
    for q in ["zorder_layout", "orders_snapshot_diff", "contingency_table",
              "rfm_segments", "monthly_revenue_zscore",
              "revenue_drawdown", "revenue_pareto",
              "poisson_bootstrap_mean", "revenue_gini",
              "loo_target_encoding", "kaplan_meier", "revenue_cusum",
              "cohort_ltv", "benford_audit", "haar_revenue",
              "revenue_sax_motifs", "l_diversity_profile",
              # tiny key domains make band collisions and shared
              # bitmap words the NORM here
              "duplicate_payments", "bitmap_index_stats",
              # micro-tables rarely reach k=10 per band: the
              # suppress (-1) branch runs here
              "anonymize_width_search",
              # few months + signed slope floor-division (negative
              # slopes are the norm on random month revenue)
              "theil_sen_revenue"]:
        _compare(str(tmp_path), q)


@pytest.mark.parametrize("seed", [3, 31])
def test_lineitem_queries_differential(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(200, 900))
    tbl = pa.table(
        {
            "l_orderkey": pa.array(rng.integers(0, n, n).astype(np.int64)),
            "l_partkey": pa.array(rng.integers(0, 30, n).astype(np.int64)),
            "l_suppkey": pa.array(rng.integers(0, 10, n).astype(np.int64)),
            "l_linenumber": pa.array(rng.integers(1, 7, n).astype(np.int64)),
            "l_quantity": pa.array(
                rng.integers(1, 51, n).astype(np.float64), pa.float64()
            ),
            "l_extendedprice": pa.array(
                np.round(rng.uniform(900, 100000, n), 2), pa.float64()
            ),
            "l_discount": pa.array(
                np.round(rng.uniform(0, 0.1, n), 2), pa.float64()
            ),
            "l_tax": pa.array(
                np.round(rng.uniform(0, 0.08, n), 2), pa.float64()
            ),
            "l_returnflag": pa.array(rng.choice(["A", "N", "R"], n)),
            "l_linestatus": pa.array(rng.choice(["O", "F"], n)),
            "l_shipdate": pa.array(
                pd.to_datetime(
                    rng.integers(800_000_000, 1_000_000_000, n)
                    * 1_000_000_000
                ),
                pa.timestamp("us"),
            ),
        }
    )
    pq.write_table(tbl, tmp_path / "lineitem.parquet")
    pq.write_table(pa.table(
        {"p_partkey": pa.array(np.arange(30, dtype=np.int64)),
         "p_brand": pa.array(
             np.random.default_rng(seed + 1).choice(
                 ["Brand#23", "Brand#1"], 30
             ))}
    ), tmp_path / "part.parquet")
    for q in ["quantiles_price", "quantiles_cont_price",
              "quantiles_by_flag", "quantiles_cont_by_flag",
              "price_outliers", "winsorized_revenue",
              "cheapest_supplier", "small_quantity_revenue",
              "corr_matrix", "revenue_cube", "ols_price_qty",
              "quantity_mode", "mad_price_outliers", "basket_rules",
              # sparse random baskets -> genuinely multi-component
              # co-purchase graphs (sf tables give one giant blob)
              "monthly_top_movers", "copurchase_components",
              # tiny-n tied ranks: every qty value collides across
              # flags, exercising the exact tied-rank arithmetic
              "kruskal_wallis_quantity",
              # small unequal groups stress the Welch-Satterthwaite
              # df and the pinned float64 finish
              "welch_t_test"]:
        _compare(str(tmp_path), q)


@pytest.mark.parametrize("seed", [13, 29])
def test_document_queries_differential(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 150))
    vocab = np.array(["table", "hash", "join", "scan", "merge", "a", "b"])
    texts = [
        " ".join(rng.choice(vocab, rng.integers(0, 40)))
        for _ in range(n)
    ]
    # plant blanks and whitespace-only rows (tokenizer edge cases)
    for i in range(0, n, 17):
        texts[i] = ""
    for i in range(5, n, 23):
        texts[i] = "   "
    pq.write_table(pa.table(
        {"doc_id": pa.array(np.arange(n, dtype=np.int64)),
         "source": pa.array(rng.choice(["web", "book"], n)),
         "text": pa.array(texts)}
    ), tmp_path / "documents.parquet")
    for q in ["phrase_search", "term_search", "token_count",
              "unigram_surprisal", "kg_entity_degree", "kg_path2",
              "vocab_growth", "surprisal_buckets",
              "term_freq_spectrum", "inverted_index", "hashed_features",
              "chatml_export", "sentence_dedup", "skipgram_pairs",
              "split_leakage_audit", "group_aware_split",
              "novelty_scores", "extractive_summary", "cdc_chunk_dedup",
              # tiny vocab -> heavy cross-doc 8-gram collisions; blank
              # and sub-8-token docs exercise the drop-out edge
              "window_shingle_dedup",
              # 16 report buckets over few docs: empty buckets and the
              # blank-doc zero-token convention both occur here
              "shard_skew_report",
              # random micro-corpora DO produce outliers here; blank
              # docs pin the zero-token histogram bucket
              "doc_length_outliers"]:
        _compare(str(tmp_path), q)


@pytest.mark.parametrize("seed", [11, 37])
def test_kg_triples_temporal_differential(ray_session, tmp_path, seed):
    """Temporal triple roll-up under random lexicon-dense documents LONG
    enough to split into multiple windows — the ``_SPLIT_w`` doc_key
    parse and the turn-ts formula must agree with the SQL twin across
    window boundaries."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 60))
    # entity unigrams + predicate words + filler: adjacent ENT PRED ENT
    # runs appear at random, often repeated across docs (n_convs > 1)
    vocab = np.array(
        ["batch", "column", "customer", "join", "merge", "scan",
         "filter", "x", "y"]
    )
    texts = [
        " ".join(rng.choice(vocab, rng.integers(0, 600)))
        for _ in range(n)
    ]
    texts[0] = ""  # tokenizer edge case
    pq.write_table(pa.table(
        {"doc_id": pa.array(np.arange(n, dtype=np.int64)),
         "source": pa.array(rng.choice(["web", "book"], n)),
         "text": pa.array(texts)}
    ), tmp_path / "documents.parquet")
    _compare(str(tmp_path), "kg_triples_temporal")
    # entity lifespans share the _SPLIT_w parse + turn-ts formula but
    # roll up MENTIONS (start-token turn), not predicate turns
    _compare(str(tmp_path), "kg_entity_timeline")
    # the dense toy KG closes many directed loops; random subsets pin
    # the rotation-start (smallest entity first) convention
    _compare(str(tmp_path), "kg_cycles3")
    # predicate turns land on all three cyclic roles across the
    # multi-window docs (the _SPLIT_w + t%3 stamp must agree)
    _compare(str(tmp_path), "kg_predicate_by_role")
    # random predicate loads pin the LPT fold (heaviest-first, name
    # ties, least-loaded-partition ties) against the recursive CTE
    _compare(str(tmp_path), "kg_partition_plan")


@pytest.mark.parametrize("seed", [17, 53])
def test_mixture_sample_differential(ray_session, tmp_path, seed):
    """Quota math and md5-rank selection under random source skew —
    including a source with FEWER docs than its quota and sources
    outside the mixture."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 250))
    srcs = rng.choice(
        ["src0", "src1", "src2", "src3", "srcX"], n,
        p=[0.4, 0.25, 0.2, 0.02, 0.13],  # src3 nearly empty: cap binds
    )
    pq.write_table(pa.table(
        {"doc_id": pa.array(np.arange(n, dtype=np.int64)),
         "source": pa.array(srcs),
         "text": pa.array(["t"] * n)}
    ), tmp_path / "documents.parquet")
    _compare(str(tmp_path), "mixture_sample")


def _write_tpch_micro(tmp_path, rng):
    """Random 6-table TPC-H micro-schema (region/nation/customer/
    supplier/orders/lineitem + a small part table) with heavy key reuse
    and dates straddling the queries' fixed windows."""
    pq.write_table(pa.table(
        {"r_regionkey": pa.array(np.arange(5, dtype=np.int64)),
         "r_name": pa.array(["AFRICA", "AMERICA", "ASIA", "EUROPE",
                             "MIDDLE EAST"])}
    ), tmp_path / "region.parquet")
    n_nat = 10
    pq.write_table(pa.table(
        {"n_nationkey": pa.array(np.arange(n_nat, dtype=np.int64)),
         "n_name": pa.array([f"NATION_{i}" for i in range(n_nat)]),
         "n_regionkey": pa.array(rng.integers(0, 5, n_nat).astype(np.int64))}
    ), tmp_path / "nation.parquet")
    n_cust, n_sup = 40, 12
    pq.write_table(pa.table(
        {"c_custkey": pa.array(np.arange(n_cust, dtype=np.int64)),
         "c_name": pa.array([f"c{i}" for i in range(n_cust)]),
         "c_nationkey": pa.array(rng.integers(0, n_nat, n_cust).astype(np.int64)),
         "c_acctbal": pa.array(np.round(rng.uniform(0, 9999, n_cust), 2)),
         "c_mktsegment": pa.array(rng.choice(["BUILDING", "AUTO"], n_cust))}
    ), tmp_path / "customer.parquet")
    pq.write_table(pa.table(
        {"s_suppkey": pa.array(np.arange(n_sup, dtype=np.int64)),
         "s_name": pa.array([f"s{i}" for i in range(n_sup)]),
         "s_nationkey": pa.array(rng.integers(0, n_nat, n_sup).astype(np.int64)),
         "s_acctbal": pa.array(np.round(rng.uniform(0, 9999, n_sup), 2))}
    ), tmp_path / "supplier.parquet")
    n_ord = int(rng.integers(80, 300))
    pq.write_table(pa.table(
        {"o_orderkey": pa.array(np.arange(n_ord, dtype=np.int64)),
         "o_custkey": pa.array(rng.integers(0, n_cust, n_ord).astype(np.int64)),
         "o_orderstatus": pa.array(rng.choice(["O", "F"], n_ord)),
         "o_totalprice": pa.array(np.round(rng.uniform(900, 400000, n_ord), 2)),
         "o_orderdate": pa.array(
             pd.to_datetime(rng.integers(800_000_000, 1_000_000_000, n_ord)
                            * 1_000_000_000), pa.timestamp("us")),
         "o_orderpriority": pa.array(rng.choice(["1-URGENT", "2-HIGH"], n_ord))}
    ), tmp_path / "orders.parquet")
    n_li = int(rng.integers(200, 800))
    pq.write_table(pa.table(
        {"l_orderkey": pa.array(rng.integers(0, n_ord, n_li).astype(np.int64)),
         "l_partkey": pa.array(rng.integers(0, 30, n_li).astype(np.int64)),
         "l_suppkey": pa.array(rng.integers(0, n_sup, n_li).astype(np.int64)),
         "l_linenumber": pa.array(rng.integers(1, 7, n_li).astype(np.int64)),
         "l_quantity": pa.array(rng.integers(1, 51, n_li).astype(np.float64)),
         "l_extendedprice": pa.array(np.round(rng.uniform(900, 100000, n_li), 2)),
         "l_discount": pa.array(np.round(rng.uniform(0, 0.1, n_li), 2)),
         "l_tax": pa.array(np.round(rng.uniform(0, 0.08, n_li), 2)),
         "l_returnflag": pa.array(rng.choice(["A", "N", "R"], n_li)),
         "l_linestatus": pa.array(rng.choice(["O", "F"], n_li)),
         "l_shipdate": pa.array(
             pd.to_datetime(rng.integers(800_000_000, 1_000_000_000, n_li)
                            * 1_000_000_000), pa.timestamp("us"))}
    ), tmp_path / "lineitem.parquet")
    pq.write_table(pa.table(
        {"p_partkey": pa.array(np.arange(30, dtype=np.int64)),
         "p_name": pa.array([f"p{i} bolt" if i % 3 == 0 else f"p{i}"
                             for i in range(30)]),
         "p_brand": pa.array([f"Brand#{i % 5}" for i in range(30)]),
         "p_type": pa.array(rng.choice(
             ["PROMO", "ECONOMY", "SMALL", "STANDARD"], 30)),
         "p_size": pa.array(rng.integers(1, 50, 30).astype(np.int64)),
         "p_retailprice": pa.array(np.round(rng.uniform(900, 2000, 30), 2))}
    ), tmp_path / "part.parquet")


@pytest.mark.parametrize("seed", [7, 41])
@pytest.mark.parametrize(
    "qname",
    ["local_supplier_volume", "volume_shipping", "returned_items",
     "promo_revenue", "order_priority_check", "top_supplier_revenue",
     "bracket_revenue", "slowest_supplier_orders", "idle_customers",
     "revenue_forecast", "national_market_share", "product_profit",
     "late_shipments", "important_parts", "parts_supplier_counts",
     "excess_share_suppliers", "ols_by_brand", "ship_lag_quantiles"],
)
def test_tpch_join_queries_differential(ray_session, tmp_path, seed, qname):
    """TPC-H join shapes (Q5/Q7/Q10/Q14) over a random micro-schema: the
    multi-path join equalities and fixed date windows must match the SQL
    join plans under arbitrary key distributions."""
    rng = np.random.default_rng(seed * 100 + len(qname))
    _write_tpch_micro(tmp_path, rng)
    _compare(str(tmp_path), qname)


def test_per_user_ops_survive_hot_key(ray_session, tmp_path):
    """One user owning ~all events (the skewed-conversation analogue):
    per-user ops must stay vectorized in the hot bucket and still match
    their oracles."""
    rng = np.random.default_rng(99)
    n = 30_000
    uid = np.zeros(n, dtype=np.int64)  # user 0 owns everything...
    uid[::997] = rng.integers(1, 5, len(uid[::997]))  # ...almost
    ts = np.sort(rng.integers(0, 2_000_000, n)) * 1_000
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(pd.to_datetime(ts * 1000), pa.timestamp("us")),
            "user_id": pa.array(uid),
            "event_type": pa.array(
                rng.choice(["click", "view", "purchase", "error"], n)
            ),
            "value": pa.array(np.round(rng.uniform(0, 200, n), 2)),
            "props": pa.array(["{}"] * n),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    for q in ["user_streaks", "purchase_attribution", "users_setop"]:
        _compare(str(tmp_path), q)


@pytest.mark.parametrize("seed", [7, 41])
@pytest.mark.parametrize(
    "qname",
    ["events_resample", "events_lag", "sessionize",
     "window_distinct_users", "event_transitions", "events_moving_sum",
     "funnel_steps", "cohort_retention", "pivot_events",
     "distinct_event_users", "events_top_users_window"],
)
def test_event_window_queries_differential(ray_session, tmp_path, seed, qname):
    rng = np.random.default_rng(seed * 7919 + len(qname))
    pq.write_table(_rand_events(rng, int(rng.integers(60, 350))),
                   tmp_path / "events.parquet")
    _compare(str(tmp_path), qname)


@pytest.mark.parametrize("seed", [13, 29, 61])
@pytest.mark.parametrize(
    "qname", ["user_active_time", "events_late_arrivals"]
)
def test_interval_queries_differential(ray_session, tmp_path, seed, qname):
    """New interval-union / out-of-order scans under heavy ts ties and
    shuffled arrival ids — the exact inputs that break tie handling."""
    rng = np.random.default_rng(seed * 100 + len(qname))
    pq.write_table(_rand_events(rng, int(rng.integers(50, 400))),
                   tmp_path / "events.parquet")
    _compare(str(tmp_path), qname)


@pytest.mark.parametrize("seed", [7, 41])
def test_bfs_hops_differential(ray_session, tmp_path, seed):
    """Random bipartite order graphs: seed reachability must agree with
    the unrolled-CTE oracle, including unreachable nodes and graphs
    where the seed set is empty."""
    rng = np.random.default_rng(seed)
    n_orders = int(rng.integers(20, 120))
    orders = pa.table(
        {
            "o_orderkey": pa.array(np.arange(n_orders, dtype=np.int64)),
            "o_custkey": pa.array(rng.integers(0, 15, n_orders).astype(np.int64)),
        }
    )
    n_li = int(rng.integers(30, 250))
    li = pa.table(
        {
            "l_orderkey": pa.array(rng.integers(0, n_orders, n_li).astype(np.int64)),
            # seed set = suppkey % 10 == 0; a sparse supplier space makes
            # some draws have no seeds at all (empty-result agreement)
            "l_suppkey": pa.array(rng.integers(1, 25, n_li).astype(np.int64)),
        }
    )
    pq.write_table(orders, tmp_path / "orders.parquet")
    pq.write_table(li, tmp_path / "lineitem.parquet")
    _compare(str(tmp_path), "bfs_hops")


@pytest.mark.parametrize("seed", [17, 53])
def test_source_diversity_differential(ray_session, tmp_path, seed):
    """Random (source, lang) mixes incl. single-language sources
    (gini must be exactly 0) and near-uniform ones."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 300))
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(["w"] * n),
            "lang": pa.array(rng.choice(["en", "de", "fr", "zh"], n)),
            "source": pa.array(
                rng.choice(["web", "wiki", "mono"], n)
            ),
            "n_chars": pa.array(np.ones(n, dtype=np.int64)),
        }
    )
    # force one single-language source: gini exactly 0
    df = tbl.to_pandas()
    df.loc[df["source"] == "mono", "lang"] = "en"
    pq.write_table(pa.Table.from_pandas(df), tmp_path / "documents.parquet")
    _compare(str(tmp_path), "source_diversity")
    # every text is identical here -> ALL pairs are near-dups: the
    # source matrix and cluster histogram must survive the one-giant-
    # cluster worst case
    _compare(str(tmp_path), "near_dup_source_matrix")
    _compare(str(tmp_path), "dup_cluster_hist")


@pytest.mark.parametrize("seed", [7, 41])
def test_kg_schema_ops_differential(ray_session, tmp_path, seed):
    """The round-4 KG schema/profile family (predicate stats, symmetric
    pairs, conflict report, upsert diff, entity cards, negative samples,
    entity rank, cluster sizes, metrics card) plus corpus_card and
    word_entropy under random lexicon-dense multi-window documents —
    the same generator as the temporal roll-up test, with lang/source
    columns for the card queries."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 60))
    vocab = np.array(
        ["batch", "column", "customer", "join", "merge", "scan",
         "filter", "x", "y", "acme", "corp", "flink"]
    )  # acme/corp/flink: gazetteer alias tokens (with occasional
    #    adjacent 'acme corp' exact bigrams) for the linking path
    texts = [
        " ".join(rng.choice(vocab, rng.integers(0, 600)))
        for _ in range(n)
    ]
    texts[0] = ""  # tokenizer edge case
    pq.write_table(pa.table(
        {"doc_id": pa.array(np.arange(n, dtype=np.int64)),
         "source": pa.array(rng.choice(["web", "book"], n)),
         "lang": pa.array(rng.choice(["en", "de", "zh"], n)),
         "text": pa.array(texts)}
    ), tmp_path / "documents.parquet")
    for q in ["kg_predicate_stats", "kg_symmetric_pairs",
              "kg_conflicting_attrs", "kg_upsert_diff", "kg_entity_cards",
              "kg_negative_samples", "kg_entity_rank", "kg_cluster_sizes",
              "kg_rule_mining", "kg_subgraph_export", "pipeline_metrics",
              "corpus_card", "word_entropy", "bpe_fertility_by_lang",
              "kg_ego_network", "kg_store_lookup", "kg_store_upsert",
              "kg_yield_hist", "role_token_share",
              "kg_mention_length_hist", "tool_transitions",
              "kg_predicate_drift", "kg_type_constraints",
              "kg_shared_neighbors", "kg_mention_contexts",
              "kg_merged_triples", "kg_degree_assortativity",
              "kg_qa_pairs", "chatml_export", "kg_alias_resolution",
              "bio_tagged_export", "kg_hits", "kg_transe_scores",
              "kg_mention_salience", "kg_completeness_audit",
              "kg_provenance_sample", "kg_transe_eval",
              "kg_cardinality_rules", "tool_chain_export",
              "kg_sink_entities"]:
        _compare(str(tmp_path), q)


@pytest.mark.parametrize("seed", [19, 43])
def test_q16_negative_balance_exclusion(ray_session, tmp_path, seed):
    """parts_supplier_counts under PLANTED negative balances and the
    excluded brand, plus late_shipments under the full 5-way priority
    mix — the micro-schema fixture keeps every balance positive and
    only two priorities, so the exclusion branches never fire there."""
    rng = np.random.default_rng(seed)
    _write_tpch_micro(tmp_path, rng)
    sup = pq.read_table(tmp_path / "supplier.parquet").to_pandas()
    sup.loc[sup.index % 3 == 0, "s_acctbal"] = -42.5  # a third excluded
    pq.write_table(pa.Table.from_pandas(sup, preserve_index=False),
                   tmp_path / "supplier.parquet")
    part = pq.read_table(tmp_path / "part.parquet").to_pandas()
    part.loc[part.index % 4 == 0, "p_brand"] = "Brand#45"  # excluded brand
    pq.write_table(pa.Table.from_pandas(part, preserve_index=False),
                   tmp_path / "part.parquet")
    orders = pq.read_table(tmp_path / "orders.parquet").to_pandas()
    orders["o_orderpriority"] = rng.choice(
        ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"],
        len(orders),
    )
    pq.write_table(pa.Table.from_pandas(orders, preserve_index=False),
                   tmp_path / "orders.parquet")
    for q in ["parts_supplier_counts", "late_shipments", "important_parts"]:
        _compare(str(tmp_path), q)


def test_sql_floordiv_matches_python_floor():
    """`relational._sql_floordiv` must FLOOR like Python `//` for every
    sign combination (DuckDB's native integer `//` truncates toward
    zero) — the OLS twins silently diverge on negative covariances if
    this breaks."""
    from dygiepp_ray.relational import _sql_floordiv

    con = duckdb.connect()
    rng = np.random.default_rng(7)
    a = np.concatenate([
        rng.integers(-10**12, 10**12, 200),
        np.array([0, -1, 1, -10**15, 10**15]),
    ])
    b = np.concatenate([
        rng.integers(1, 10**9, 200), np.array([1, 2, 3, 7, 10**6])])
    for ai in a[:50]:
        for bi in b[:8]:
            got = con.execute(
                f"SELECT {_sql_floordiv(str(int(ai)), str(int(bi)))}"
            ).fetchone()[0]
            assert int(got) == int(ai) // int(bi), (ai, bi)


@pytest.mark.parametrize("seed", [5, 53])
def test_customer_embedding_backlog_differential(ray_session, tmp_path, seed):
    """The session's cross-table ops under random micro-tables:
    k-anonymity's scale-free cut, the deletion-neighborhood
    Levenshtein-1 join (names of MIXED lengths so the indel path runs),
    the fixed-point PCA power iteration (with a planted all-zero
    vector), and the backlog delta sweep over orders x lineitem."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 200))
    names = [f"C#{int(x):04d}" for x in rng.integers(0, 500, n)]
    names[0] = "C#001"   # length-17 vs 18 analogue: forces indel pairs
    names[1] = "C#0011"
    pq.write_table(pa.table(
        {"c_custkey": pa.array(np.arange(n, dtype=np.int64)),
         "c_name": pa.array(names),
         "c_nationkey": pa.array(rng.integers(0, 6, n).astype(np.int64)),
         "c_mktsegment": pa.array(rng.choice(["AUTO", "HOUSE"], n))}
    ), tmp_path / "customer.parquet")
    _compare(str(tmp_path), "k_anonymity_violations")
    _compare(str(tmp_path), "edit1_name_neighbors")

    d = 8
    emb = rng.normal(0, 0.3, (40, d)).astype(np.float32)
    emb[7] = 0.0  # zero vector: its encoded row contributes nothing
    pq.write_table(pa.table(
        {"vec_id": pa.array(np.arange(40, dtype=np.int64)),
         "embedding": pa.array(list(emb), pa.list_(pa.float32())),
         "label": pa.array(rng.integers(0, 3, 40).astype(np.int32))}
    ), tmp_path / "embeddings.parquet")
    _compare(str(tmp_path), "embedding_pca1")
    _compare(str(tmp_path), "embedding_quantize")
    # cosine-pair histogram: the planted zero vector must drop out of
    # exactly the pairs that touch it, on both sides
    _compare(str(tmp_path), "embedding_pair_cosine_hist")
    _compare(str(tmp_path), "embedding_feature_gain")
    # integer k-means: the zero vector lands among the 8 seeds here,
    # pinning the empty-cluster carry-forward and seed conventions;
    # semantic_dedup additionally pins the n2>0 zero-vector guard
    _compare(str(tmp_path), "kmeans_clusters")
    _compare(str(tmp_path), "semantic_dedup")
    # per-dim rank ties (quantized values collide) pin the vec_id
    # tie-break on both sides
    _compare(str(tmp_path), "quantile_normalize")
    # 40 vecs in one shard: header alignment + f4 payload round trip
    _compare(str(tmp_path), "npy_embeddings")
    # 3 labels over 40 vecs: vote ties and distance ties are common,
    # pinning both tie-break conventions
    _compare(str(tmp_path), "label_knn_eval")
    # small label groups hit every partial-IDCG branch (n_rel < 5)
    _compare(str(tmp_path), "ndcg_label_retrieval")
    # tiny clusters: some hold one label only (no-row branch)
    _compare(str(tmp_path), "cluster_hard_negatives")
    # 40 vecs split by md5 fence: unequal halves are the norm
    _compare(str(tmp_path), "embedding_drift_ab")
    # the zero vector is a legitimate farthest-point candidate
    _compare(str(tmp_path), "kcenter_coreset")

    m = int(rng.integers(80, 300))
    pq.write_table(pa.table(
        {"o_orderkey": pa.array(np.arange(m, dtype=np.int64)),
         "o_orderdate": pa.array(
             pd.to_datetime(rng.integers(800_000_000, 900_000_000, m)
                            * 1_000_000_000), pa.timestamp("us"))}
    ), tmp_path / "orders.parquet")
    k = m * 3
    pq.write_table(pa.table(
        {"l_orderkey": pa.array(rng.integers(0, m + 10, k).astype(np.int64)),
         "l_shipdate": pa.array(
             pd.to_datetime(rng.integers(800_000_000, 1_000_000_000, k)
                            * 1_000_000_000), pa.timestamp("us"))}
    ), tmp_path / "lineitem.parquet")
    _compare(str(tmp_path), "orders_backlog_by_day")


@pytest.mark.parametrize("seed", [17])
def test_footer_stats_multi_rowgroup_differential(ray_session, tmp_path, seed):
    """footer_stats' multi-row-group fold: a table written as many row
    groups (plus planted nulls) must fold footer partials to exactly
    the full-scan aggregates."""
    src = "/root/testdata/sf0.001"
    for t in _TABLES:
        schema = pq.read_schema(f"{src}/{t}.parquet").remove_metadata()
        pq.write_table(schema.empty_table(), tmp_path / f"{t}.parquet")
    rng = np.random.default_rng(seed)
    n = 500
    keys = rng.permutation(n * 2)[:n].astype(np.int64)
    keys_arr = pa.array(
        [None if i % 97 == 0 else int(k) for i, k in enumerate(keys)],
        pa.int64())
    tbl = pa.table(
        {"o_orderkey": keys_arr,
         "o_custkey": pa.array(rng.integers(0, 40, n).astype(np.int64)),
         "o_orderstatus": pa.array(rng.choice(["O", "F"], n)),
         "o_totalprice": pa.array(rng.uniform(900, 40000, n), pa.float64()),
         "o_orderdate": pa.array(
             pd.to_datetime(rng.integers(8e8, 9e8, n) * 1_000_000_000),
             pa.timestamp("us")),
         "o_orderpriority": pa.array(rng.choice(["1-URGENT", "2-HIGH"], n))}
    )
    pq.write_table(tbl, tmp_path / "orders.parquet", row_group_size=64)
    assert pq.ParquetFile(tmp_path / "orders.parquet"
                          ).metadata.num_row_groups > 3
    _compare(str(tmp_path), "footer_stats")


@pytest.mark.parametrize("seed", [9, 27])
def test_ninth_wave_orders_differential(ray_session, tmp_path, seed):
    """Ninth-continuation order statistics under HEAVY value ties
    (whole-dollar prices) and a compressed calendar (dense daily
    series): exact midrank/KS/ECDF/ACF conventions must hold where
    ties and empty days are the norm, plus the ledger reconciliation
    with orphan orders AND orphan lineitems."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(150, 500))
    okeys = rng.permutation(n * 2)[:n].astype(np.int64)
    pq.write_table(pa.table(
        {"o_orderkey": pa.array(okeys),
         "o_custkey": pa.array(rng.integers(0, 40, n).astype(np.int64)),
         "o_orderstatus": pa.array(rng.choice(["O", "F", "P"], n)),
         # whole dollars -> massive cent-level ties
         "o_totalprice": pa.array(
             rng.integers(10, 60, n).astype(np.float64), pa.float64()),
         "o_orderdate": pa.array(
             pd.to_datetime(
                 (800_000_000 + rng.integers(0, 40, n) * 86_400)
                 * 1_000_000_000),
             pa.timestamp("us")),
         "o_orderpriority": pa.array(rng.choice(["1-URGENT", "2-HIGH"], n))}
    ), tmp_path / "orders.parquet")
    m = int(rng.integers(200, 700))
    # half the lineitems reference orders, half are orphans
    lkeys = np.concatenate([
        rng.choice(okeys, m // 2),
        (okeys.max() + 1 + rng.integers(0, 50, m - m // 2)),
    ]).astype(np.int64)
    pq.write_table(pa.table(
        {"l_orderkey": pa.array(lkeys),
         "l_partkey": pa.array(rng.integers(0, 30, m).astype(np.int64)),
         "l_suppkey": pa.array(rng.integers(0, 10, m).astype(np.int64)),
         "l_linenumber": pa.array(rng.integers(1, 7, m).astype(np.int64)),
         "l_quantity": pa.array(
             rng.integers(1, 8, m).astype(np.float64), pa.float64()),
         "l_extendedprice": pa.array(
             np.round(rng.uniform(900, 100000, m), 2), pa.float64()),
         "l_discount": pa.array(
             np.round(rng.uniform(0, 0.1, m), 2), pa.float64()),
         "l_tax": pa.array(
             np.round(rng.uniform(0, 0.08, m), 2), pa.float64()),
         "l_returnflag": pa.array(rng.choice(["A", "N", "R"], m)),
         "l_linestatus": pa.array(rng.choice(["O", "F"], m)),
         "l_shipdate": pa.array(
             pd.to_datetime(rng.integers(8e8, 9e8, m) * 1_000_000_000),
             pa.timestamp("us"))}
    ), tmp_path / "lineitem.parquet")
    for q in ["ks_price_by_status", "order_value_ecdf",
              "autocorr_revenue", "mann_whitney_quantity",
              "lineitem_reconciliation",
              # tenth continuation: ANOVA / Spearman / runs test ride
              # the same heavy-ties + dense-calendar generator (whole-
              # dollar prices make tied midranks and a tied median the
              # norm; the restricted O/F/P domain matches both sides)
              "anova_price_status", "spearman_qty_disc",
              "revenue_runs_test",
              # rowgroup_pruning: the whole-dollar/dense-calendar shape
              # makes row groups straddle equal days (tie order by key)
              "rowgroup_pruning"]:
        _compare(str(tmp_path), q)


@pytest.mark.parametrize("seed", [15, 33])
def test_ninth_wave_documents_differential(ray_session, tmp_path, seed):
    """Ninth-continuation corpus ops over random micro-corpora with
    planted blank/whitespace docs: the masking recipe, character-class
    counting, packing fill audit and the MinHash calibration pairs
    must match their twins off the frozen testdata distribution."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 120))
    vocab = np.array(["table", "hash", "join", "scan", "merge", "a", "b"])
    texts = [" ".join(rng.choice(vocab, rng.integers(0, 40)))
             for _ in range(n)]
    for i in range(0, n, 17):
        texts[i] = ""
    for i in range(5, n, 23):
        texts[i] = "   "
    pq.write_table(pa.table(
        {"doc_id": pa.array(np.arange(n, dtype=np.int64)),
         "source": pa.array(rng.choice(["web", "book"], n)),
         "text": pa.array(texts),
         "n_chars": pa.array(
             np.array([len(t) for t in texts], dtype=np.int64))}
    ), tmp_path / "documents.parquet")
    for q in ["unicode_audit", "masked_lm_export", "packing_efficiency",
              "minhash_error_audit"]:
        _compare(str(tmp_path), q)


@pytest.mark.parametrize("seed", [21])
def test_ninth_wave_events_and_selfsynth_differential(
        ray_session, tmp_path, seed):
    """Bloom FPR audit over a random user domain, plus the
    self-synthesizing sources (pii corpus, FLAC, ICO) whose oracles
    regenerate the input from the md5-chain rule."""
    rng = np.random.default_rng(seed)
    pq.write_table(_rand_events(rng, int(rng.integers(80, 300))),
                   tmp_path / "events.parquet")
    for q in ["bloom_fpr_audit", "pii_scan", "flac_info", "ico_frames"]:
        _compare(str(tmp_path), q)


@pytest.mark.parametrize("seed", [25, 49])
def test_kg_inverse_predicates_differential(ray_session, tmp_path, seed):
    """Inverse-pair mining over lexicon-dense random documents (the
    kg_triples_temporal generator shape): the unordered-pair bucket
    self-join must agree with the all-pairs SQL twin, including the
    p == q ordered-count convention."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 60))
    vocab = np.array(
        ["batch", "column", "customer", "join", "merge", "scan",
         "filter", "x", "y"]
    )
    texts = [" ".join(rng.choice(vocab, rng.integers(0, 600)))
             for _ in range(n)]
    texts[0] = ""
    pq.write_table(pa.table(
        {"doc_id": pa.array(np.arange(n, dtype=np.int64)),
         "source": pa.array(rng.choice(["web", "book"], n)),
         "text": pa.array(texts)}
    ), tmp_path / "documents.parquet")
    _compare(str(tmp_path), "kg_inverse_predicates")


@pytest.mark.parametrize("seed", [35, 57])
def test_wave2_differential(ray_session, tmp_path, seed):
    """Wave-2 ops over random micro-tables: weekday phase arithmetic,
    gap/burst tie-breaks under heavy ts ties, HHI share flooring,
    min-rank percentile ties, and the LSH band sweep's candidate
    dedup + truth labeling."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(150, 400))
    okeys = rng.permutation(n * 2)[:n].astype(np.int64)
    pq.write_table(pa.table(
        {"o_orderkey": pa.array(okeys),
         "o_custkey": pa.array(rng.integers(0, 30, n).astype(np.int64)),
         "o_orderstatus": pa.array(rng.choice(["O", "F", "P"], n)),
         # whole dollars -> revenue ties for the min-rank convention
         "o_totalprice": pa.array(
             rng.integers(10, 40, n).astype(np.float64), pa.float64()),
         "o_orderdate": pa.array(
             pd.to_datetime(
                 (800_000_000 + rng.integers(0, 60, n) * 86_400)
                 * 1_000_000_000),
             pa.timestamp("us")),
         "o_orderpriority": pa.array(rng.choice(["1-URGENT", "2-HIGH"], n))}
    ), tmp_path / "orders.parquet")
    m = int(rng.integers(150, 400))
    pq.write_table(pa.table(
        {"l_orderkey": pa.array(rng.choice(okeys, m)),
         "l_partkey": pa.array(rng.integers(0, 30, m).astype(np.int64)),
         "l_suppkey": pa.array(rng.integers(0, 8, m).astype(np.int64)),
         "l_linenumber": pa.array(rng.integers(1, 7, m).astype(np.int64)),
         "l_quantity": pa.array(
             rng.integers(1, 8, m).astype(np.float64), pa.float64()),
         "l_extendedprice": pa.array(
             np.round(rng.uniform(900, 100000, m), 2), pa.float64()),
         "l_discount": pa.array(
             np.round(rng.uniform(0, 0.1, m), 2), pa.float64()),
         "l_tax": pa.array(
             np.round(rng.uniform(0, 0.08, m), 2), pa.float64()),
         "l_returnflag": pa.array(rng.choice(["A", "N", "R"], m)),
         "l_linestatus": pa.array(rng.choice(["O", "F"], m)),
         "l_shipdate": pa.array(
             pd.to_datetime(rng.integers(8e8, 9e8, m) * 1_000_000_000),
             pa.timestamp("us"))}
    ), tmp_path / "lineitem.parquet")
    pq.write_table(pa.table(
        {"s_suppkey": pa.array(np.arange(8, dtype=np.int64)),
         "s_name": pa.array([f"Supplier#{i}" for i in range(8)]),
         "s_nationkey": pa.array(
             rng.integers(0, 3, 8).astype(np.int32), pa.int32()),
         "s_acctbal": pa.array(rng.uniform(0, 9000, 8), pa.float64())}
    ), tmp_path / "supplier.parquet")
    pq.write_table(_rand_events(rng, int(rng.integers(80, 300))),
                   tmp_path / "events.parquet")
    nd = int(rng.integers(30, 80))
    vocab = np.array(["table", "hash", "join", "scan", "merge", "a", "b"])
    texts = [" ".join(rng.choice(vocab, rng.integers(0, 30)))
             for _ in range(nd)]
    texts[0] = ""
    pq.write_table(pa.table(
        {"doc_id": pa.array(np.arange(nd, dtype=np.int64)),
         "source": pa.array(rng.choice(["web", "book"], nd)),
         "text": pa.array(texts)}
    ), tmp_path / "documents.parquet")
    for q in ["weekday_revenue_profile", "orders_gap_analysis",
              "supplier_hhi", "customer_percentile_rank",
              "events_burst", "lsh_band_sweep"]:
        _compare(str(tmp_path), q)


@pytest.mark.parametrize("seed", [43])
def test_kg_transitivity_differential(ray_session, tmp_path, seed):
    """Transitivity rate over lexicon-dense random documents: the
    two-exchange wedge+closure path must agree with the all-pairs SQL
    twin, including middle-node multiplicity and the s != w cut."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 50))
    vocab = np.array(
        ["batch", "column", "customer", "join", "merge", "scan",
         "filter", "x", "y"]
    )
    texts = [" ".join(rng.choice(vocab, rng.integers(0, 500)))
             for _ in range(n)]
    pq.write_table(pa.table(
        {"doc_id": pa.array(np.arange(n, dtype=np.int64)),
         "source": pa.array(rng.choice(["web", "book"], n)),
         "text": pa.array(texts)}
    ), tmp_path / "documents.parquet")
    _compare(str(tmp_path), "kg_transitivity")


@pytest.mark.parametrize("seed", [11, 43])
def test_webcorpus_differential(ray_session, tmp_path, seed):
    """HTML extraction and URL parsing over adversarial micro-corpora:
    planted blank/whitespace docs, raw HTML metacharacters (&, <, >,
    quotes — must survive the escape -> parse round trip) and
    tab/newline whitespace (must collapse identically to the twin's
    regexp)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 90))
    vocab = np.array(["alpha", "beta", "r&d", "<tag>", 'say"hi"',
                      "x<y", "a&&b", "plain"])
    texts = [" ".join(rng.choice(vocab, rng.integers(0, 20)))
             for _ in range(n)]
    for i in range(0, n, 13):
        texts[i] = ""
    for i in range(4, n, 17):
        # internal tabs/newlines (edges stay spaces: DuckDB trim()
        # strips only spaces while python strip() eats tabs — the
        # corpus-wide convention is space-or-token doc edges)
        texts[i] = "  mixed\twhitespace\r\nacross \n lines  "
    pq.write_table(pa.table(
        {"doc_id": pa.array(np.arange(n, dtype=np.int64)),
         "source": pa.array(rng.choice(["web", "book", "code"], n)),
         "lang": pa.array(rng.choice(["en", "de"], n)),
         "text": pa.array(texts),
         "n_chars": pa.array(
             np.array([len(t) for t in texts], dtype=np.int64))}
    ), tmp_path / "documents.parquet")
    for q in ["html_extract", "url_host_stats",
              # dpo_pairs / bm25_search share the generator: the tiny
              # vocab forces heavy score ties (doc_id tie-break) and
              # the planted blanks pin the trim<>'' convention
              "dpo_pairs", "bm25_search",
              # span corruption / PMI / stemming: blank docs pin the
              # trim<>'' convention; 'a&&b'/'r&d' exercise suffix rules
              # on punctuation; tiny vocab gives heavy bigram mass
              "span_corruption_export", "pmi_bigrams", "stem_freq",
              "winnowing_fingerprints", "contrastive_pairs",
              "tfrecord_docs", "webdataset_export", "avro_docs",
              "turn_latency_stats", "token_budget_allocation",
              "topic_boundaries", "bigram_lm_eval",
              "mixture_temperature_sweep"]:
        _compare(str(tmp_path), q)


def test_warc_reader_requires_length_framing():
    """The planted mid-payload 'WARC/1.0' header means a reader that
    splits on record separators instead of honoring Content-Length
    desynchronizes — prove the trap exists and the real reader wins."""
    from dygiepp_ray.textops import webcorpus as W

    tbl = W.synth_warc(24)
    payload = tbl.column("payload")[0].as_py()
    # the trap is present in the raw bytes more often than real records
    assert payload.count(b"WARC/1.0") > 24
    df = W.WarcRecords()(pd.DataFrame(
        {"file_id": [0], "payload": [payload]}))
    assert len(df) == 24
    # trapped records carry the fake header inside their hashed payload
    trapped = df[df["rec_idx"] % 5 == 2]
    assert (trapped["content_length"] >= 52).all()


def test_eml_single_vs_multipart_conventions():
    from dygiepp_ray.textops import webcorpus as W

    df = W.EmlHeaders()(W.synth_eml(36).to_pandas())
    assert set(df["n_parts"]) <= {1, 2, 3} and len(df) == 36
    # body bytes always equal the sum of the generated part sizes —
    # the trailing-newline convention must not leak into payloads
    for i, nparts, nbytes in zip(df["msg_id"], df["n_parts"],
                                 df["body_bytes"]):
        import hashlib as _h
        expect = 0
        for p in range(nparts):
            pb = _h.md5(f"eml:{W.EML_SEED}:{i}:{p}".encode()).hexdigest()
            expect += 20 + int(pb[0:2], 16) % 200
        assert nbytes == expect


def test_html_extract_drops_script_and_comments():
    from dygiepp_ray.textops import webcorpus as W

    doc = W.synth_html(7, "web", "hello <world> & friends")
    ext = W.extract_text(doc)
    assert ext == "Doc 7 web hello <world> & friends"
    assert "var id" not in ext and "crawl:" not in ext
    assert "margin" not in ext


def test_midi_vlq_integrity():
    """A corrupted VLQ continuation bit desynchronizes the event walk
    and must raise, not silently mis-count."""
    from dygiepp_ray.textops import multimodal as M

    tbl = M.synth_midi(4)
    good = M.MidiTrackReader()(tbl.to_pandas())
    assert (good["n_events"] % 2 == 0).all() and len(good) >= 4
    # multi-byte VLQs are the norm in the synth (deltas up to 999)
    assert (good["total_ticks"] > 127).all()
    payload = bytearray(tbl.column("payload")[0].as_py())
    # shrink the first MTrk chunk length by one byte: the VLQ walk no
    # longer lands exactly on the chunk boundary
    pos = payload.index(b"MTrk") + 4
    tlen = int.from_bytes(payload[pos:pos + 4], "big")
    payload[pos:pos + 4] = (tlen - 1).to_bytes(4, "big")
    import pytest as _pytest
    with _pytest.raises((ValueError, IndexError)):
        M.MidiTrackReader()(pd.DataFrame(
            {"file_id": [0], "payload": [bytes(payload)]}))


def test_pdf_xref_offsets_are_live():
    """Shifting the xref offsets must make the reader fail loudly —
    proving objects are resolved THROUGH the table, not by scanning."""
    from dygiepp_ray.sources import pdffile as P

    tbl = P.synth_pdf(3)
    good = P.PdfObjects()(tbl.to_pandas())
    assert set(good["kind"]) == {"catalog", "pages", "page", "stream"}
    raw = bytearray(tbl.column("payload")[0].as_py())
    x = raw.index(b"xref")
    first_entry = raw.index(b"0000000000 65535 f", x) + 20
    raw[first_entry:first_entry + 10] = b"0000000007"  # bogus offset
    import pytest as _pytest
    with _pytest.raises(ValueError):
        P.PdfObjects()(pd.DataFrame(
            {"file_id": [0], "payload": [bytes(raw)]}))


@pytest.mark.parametrize("seed", [37])
def test_contract_violations_differential(ray_session, tmp_path, seed):
    """Planted contract breaches — duplicate keys, negative custkeys,
    out-of-domain statuses, out-of-range dates, non-positive prices —
    must be counted identically by the keyed-exchange dup fold and the
    SQL twin."""
    rng = np.random.default_rng(seed)
    n = 160
    keys = rng.integers(0, 60, n).astype(np.int64)  # heavy duplicates
    status = rng.choice(["O", "F", "P", "X"], n)    # 'X' = breach
    price = np.round(rng.uniform(-50, 40000, n), 2)  # some <= 0
    custkey = rng.integers(-3, 40, n).astype(np.int64)  # some < 0
    days = rng.integers(7000, 11500, n)              # some out of range
    pq.write_table(pa.table(
        {"o_orderkey": pa.array(keys),
         "o_custkey": pa.array(custkey),
         "o_orderstatus": pa.array(status),
         "o_totalprice": pa.array(price, pa.float64()),
         "o_orderdate": pa.array(
             pd.to_datetime(days * 86_400 * 1_000_000_000),
             pa.timestamp("us")),
         "o_orderpriority": pa.array(rng.choice(["1-URGENT"], n))}
    ), tmp_path / "orders.parquet")
    _compare(str(tmp_path), "contract_violations")


def test_protobuf_varint_framing():
    """Multi-byte varints are the norm in the synth stream; a length
    corruption must fail loudly (message framing is live)."""
    from dygiepp_ray.sources import protostream as P

    tbl = P.synth_protostream(10)
    good = P.ProtoRecords()(tbl.to_pandas())
    assert len(good) == 10 and (good["doc_id"] >= 1000).all()
    raw = bytearray(tbl.column("payload")[0].as_py())
    raw[0] ^= 0x01  # first message's length prefix off by one
    import pytest as _pytest
    with _pytest.raises((ValueError, IndexError, UnicodeDecodeError)):
        P.ProtoRecords()(pd.DataFrame(
            {"file_id": [0], "payload": [bytes(raw)]}))


def test_tfrecord_crc32c_and_framing():
    """Pin the Castagnoli polynomial (crc32c('123456789') = 0xe3069283)
    and prove the reader actually verifies CRCs: a flipped payload
    byte must raise, not pass through."""
    from dygiepp_ray.sources import tfrecord as T

    assert T.crc32c(b"123456789") == 0xE3069283
    blob = bytearray(T.write_tfrecords([b"hello world", b"x" * 300]))
    assert T.read_tfrecords(bytes(blob)) == [b"hello world", b"x" * 300]
    blob[14] ^= 0xFF  # inside the first payload
    import pytest as _pytest
    with _pytest.raises(ValueError):
        T.read_tfrecords(bytes(blob))


def test_advice_r4_contrastive_blank_at_max_doc_id(ray_session, tmp_path):
    """ADVICE r4 (medium): the partner modulus D must come from the
    FULL documents table on both sides.  Plant a BLANK doc at the max
    doc_id so a twin that computes dd over non-blank docs only would
    shift every partner_id."""
    n = 40
    rng = np.random.default_rng(7)
    vocab = np.array(["alpha", "beta", "gamma", "delta", "eps"])
    texts = [" ".join(rng.choice(vocab, 12)) for _ in range(n)]
    texts[n - 1] = ""          # blank at max doc_id
    texts[0] = ""              # and one interior blank for good measure
    pq.write_table(pa.table(
        {"doc_id": pa.array(np.arange(n, dtype=np.int64)),
         "source": pa.array(["web"] * n),
         "text": pa.array(texts)}
    ), tmp_path / "documents.parquet")
    _compare(str(tmp_path), "contrastive_pairs")


def test_advice_r4_bigram_lm_empty_train_split(ray_session, tmp_path):
    """ADVICE r4 (low): all docs land in the md5-fenced TEST split ->
    the engine must emit the same 1-row all-OOV card as the SQL twin
    (n_train_bigrams=0, oov_ppm=1000000), not an empty frame."""
    import hashlib as _h

    ids = [i for i in range(400)
           if _h.md5(str(i).encode()).hexdigest()[:2] >= "e6"][:20]
    rng = np.random.default_rng(3)
    vocab = np.array(["scan", "merge", "probe", "spill"])
    texts = [" ".join(rng.choice(vocab, 10)) for _ in ids]
    pq.write_table(pa.table(
        {"doc_id": pa.array(np.asarray(ids, dtype=np.int64)),
         "source": pa.array(["web"] * len(ids)),
         "text": pa.array(texts)}
    ), tmp_path / "documents.parquet")
    _compare(str(tmp_path), "bigram_lm_eval")


def test_advice_r4_export_bytes_vs_chars_nonascii(ray_session, tmp_path):
    """ADVICE r4 (low): total_bytes must be UTF-8 BYTE length on both
    sides (DuckDB strlen, engine len(encode)).  Non-ASCII text makes
    char-count twins diverge."""
    n = 24
    texts = [f"héllo wörld ünïcode ✓ {i} — naïve café" for i in range(n)]
    texts[5] = ""
    pq.write_table(pa.table(
        {"doc_id": pa.array(np.arange(n, dtype=np.int64)),
         "source": pa.array(["web" if i % 2 else "bücher"
                             for i in range(n)]),
         "text": pa.array(texts)}
    ), tmp_path / "documents.parquet")
    for q in ["tfrecord_docs", "webdataset_export", "avro_docs",
              "sqlite_docs"]:
        _compare(str(tmp_path), q)


def test_avro_ocf_framing_and_sync_verification():
    """Zigzag varints are pinned to the Avro spec values; a corrupted
    block sync marker must raise, not pass through."""
    from dygiepp_ray.sources import avrofile as A

    # spec examples: 0->0, -1->1, 1->2, -2->3, 2->4
    assert [A.zigzag_encode(n) for n in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]
    assert A.write_long(1) == b"\x02" and A.write_long(-64) == b"\x7f"
    assert A.write_long(64) == b"\x80\x01"  # multi-byte varint
    recs = [(i, f"doc {i} — naïve".encode()) for i in range(40)]
    blob = bytearray(A.write_avro(recs, key="web"))
    assert bytes(blob[:4]) == b"Obj\x01"
    assert A.read_avro(bytes(blob)) == recs
    blob[-1] ^= 0xFF  # corrupt the final block's sync marker
    import pytest as _pytest
    with _pytest.raises(ValueError):
        A.read_avro(bytes(blob))


def test_avro_negative_data_block_count_raises():
    """A data block's record count is never negative (unlike a map
    block's): a crafted block with count -1 and an empty body must
    raise instead of parsing as zero records."""
    import pytest as _pytest

    from dygiepp_ray.sources import avrofile as A

    recs = [(1, b"a"), (2, b"b")]
    blob = A.write_avro(recs, key="neg")
    sync = A._sync_for("neg")
    assert A.read_avro(blob + A.write_long(0) + A.write_long(0) + sync) == recs
    crafted = blob + A.write_long(-1) + A.write_long(0) + sync
    with _pytest.raises(ValueError, match="negative Avro block record count"):
        A.read_avro(crafted)


def test_wav_rms_windows_differential(ray_session, tmp_path):
    """Self-synthesizing input (md5-chain WAV): the REAL wave-module
    parse + 64-sample windowing must match the hex-pair SQL twin,
    including the short tail window."""
    _compare(str(tmp_path), "wav_rms_windows")


def test_rss_entries_differential(ray_session, tmp_path):
    """Self-synthesizing RSS feeds: the real XML parse (tree walk +
    entity unescape of the planted &amp;) must match the chain-rule
    twin, including the '&x'-suffixed titles."""
    _compare(str(tmp_path), "rss_entries")
    # the escape actually occurs on the wire
    from dygiepp_ray.textops import webcorpus as W
    blob = b"".join(W.synth_rss(24).column("payload").to_pylist())
    assert b"&amp;x" in blob


def test_robots_audit_differential(ray_session, tmp_path):
    """Self-synthesizing robots.txt corpus: the real parse (comments,
    group splits, case-insensitive directives, decoy agent group that
    must be SKIPPED) + longest-match/Allow-tie evaluation must match
    the chain-rule twin."""
    _compare(str(tmp_path), "robots_audit")
    from dygiepp_ray.textops import webcorpus as W
    blob = b"".join(W.synth_robots(24).column("payload").to_pylist())
    assert b"User-agent: decoybot" in blob  # the trap exists


def test_media_sniff_differential(ray_session, tmp_path):
    """Self-synthesizing mixed binary corpus: magic-byte routing
    (RIFF/WAVE, P6, unknown) + exact byte sizes must match the
    chain-rule twin."""
    _compare(str(tmp_path), "media_sniff")


def test_avro_negative_block_count_and_npy_alignment():
    """Spec edge cases: an Avro metadata map block with a NEGATIVE
    count carries a byte size before the pairs (read path must honor
    it); a .npy header that is not 64-byte aligned must raise."""
    import io

    from dygiepp_ray.sources import avrofile as A

    recs = [(5, b"x")]
    blob = A.write_avro(recs, key="k")
    # rebuild the metadata map with a negative-count block
    buf = io.BytesIO(blob)
    assert buf.read(4) == A.MAGIC
    n = A.read_long(buf)
    pairs = []
    for _ in range(n):
        k = A._read_bytes(buf)
        pairs.append((k, A._read_bytes(buf)))
    assert A.read_long(buf) == 0
    rest = buf.read()
    body = b"".join(A._write_str(k) + A._write_str(v) for k, v in pairs)
    neg = (A.MAGIC + A.write_long(-n) + A.write_long(len(body))
           + body + A.write_long(0) + rest)
    assert A.read_avro(neg) == recs

    import pytest as _pytest

    from dygiepp_ray.textops.ann import read_npy, write_npy

    mat = np.arange(8, dtype="<f4").reshape(2, 4)
    assert (read_npy(write_npy(mat)) == mat).all()
    bad = bytearray(b"\x93NUMPY\x01\x00")
    head = b"{'descr': '<f4', 'fortran_order': False, 'shape': (2, 4), }\n"
    bad += len(head).to_bytes(2, "little") + head  # 10+len % 64 != 0
    bad += mat.tobytes()
    with _pytest.raises(ValueError, match="alig"):
        read_npy(bytes(bad))
