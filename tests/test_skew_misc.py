"""Skew handling, uniqueness assertion (D1), fuzzy join (J4),
deterministic sampling."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from dygiepp_ray.core import assert_unique
from dygiepp_ray.functions.metrics import triple_counts
from dygiepp_ray.pipelines.kg import KGPipeline
from dygiepp_ray.textops.dedup import fuzzy_join
from dygiepp_ray import oracle


def test_assert_unique_passes_and_raises(ray_session):
    ok = rd.from_pandas(pd.DataFrame({"a": [1, 2, 3], "b": ["x", "y", "x"]}))
    assert_unique(ok, ["a", "b"]).count()  # no raise
    bad = rd.from_pandas(pd.DataFrame({"a": [1, 1], "b": ["x", "x"]}))
    with pytest.raises(Exception):
        assert_unique(bad, ["a", "b"]).count()


def test_conversation_length_skew(ray_session):
    """One giant conversation among tiny ones: M8 splitting bounds the
    per-document work; parity with the oracle still holds."""
    rows = []
    for t in range(400):  # 400 turns x ~3 tokens >> max_tokens_per_doc
        rows.append(("giant", t, "spark join table"))
    for c in range(20):
        rows.append((f"small{c}", 0, "customer scan stream"))
    tbl = pa.table(
        {
            "conv_id": [r[0] for r in rows],
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": ["user"] * len(rows),
            "text": [r[2] for r in rows],
        }
    )
    pipe = KGPipeline(rd.from_arrow(tbl), num_buckets=4)
    docs = pipe.documents.to_pandas()
    giant_windows = [k for k in docs["doc_key"] if k.startswith("giant_SPLIT_")]
    assert len(giant_windows) > 3
    assert docs["n_tokens"].max() <= 256
    # oracle parity on the skewed corpus
    etr = pipe.triples().to_pandas()
    odocs = oracle.extract_all(tbl.to_pylist())
    gold = [(c, s, p, o) for (c, _si, s, p, _oi, o) in oracle.triples_from_docs(odocs)]
    pred = list(zip(etr.conv_id, etr.subj, etr.pred, etr.obj))
    assert triple_counts(pred, gold).prf()[:2] == (1.0, 1.0)


def test_hot_surface_canonicalization_exact(ray_session):
    """A surface shared by every conversation (hot key): salted two-phase
    aggregation must still count exactly."""
    n = 60
    tbl = pa.table(
        {
            "conv_id": [f"c{i}" for i in range(n)],
            "turn_idx": pa.array([0] * n, pa.int32()),
            "role": ["user"] * n,
            "text": ["spark join spark"] * n,  # 'spark' twice per conv
        }
    )
    pipe = KGPipeline(rd.from_arrow(tbl), num_buckets=4)
    ents = pipe.entities(num_salts=8).to_pandas().set_index("surface")
    assert ents.loc["spark", "n_mentions"] == 2 * n
    assert ents.loc["spark", "n_docs"] == n


def test_canonicalize_empty_buckets_keep_entity_schema(ray_session):
    """One surface lands in one of the 4 auto phase-2 buckets on the
    4-CPU session; the 3 empty buckets must still emit ENTITY_SCHEMA,
    and the counts must equal a pandas groupby.  A zero-block input
    comes back as ENTITY_SCHEMA too."""
    import ray

    from dygiepp_ray.stages.canonicalize import ENTITY_SCHEMA, canonicalize

    def blocks_of(ds):
        return [ray.get(ref) for bundle in ds.iter_internal_ref_bundles()
                for ref, _ in bundle.blocks]

    # every doc's mentions in one block (canonicalize's block invariant)
    docs = [
        pd.DataFrame({"doc_key": [f"d{i}"] * (1 + i % 3),
                      "surface": ["Spark", "spark", "SPARK"][: 1 + i % 3],
                      "label": ["Method"] * (1 + i % 3)})
        for i in range(40)
    ]
    ds = canonicalize(rd.from_pandas(docs))
    blocks = blocks_of(ds)
    assert len(blocks) == 4
    assert sum(b.num_rows == 0 for b in blocks) == 3
    assert all(b.schema == ENTITY_SCHEMA for b in blocks)
    ment = pd.concat(docs).assign(surface=lambda d: d["surface"].str.lower())
    want = ment.groupby(["surface", "label"]).agg(
        n_mentions=("doc_key", "size"), n_docs=("doc_key", "nunique"))
    got = ds.to_pandas().set_index(["surface", "label"])
    assert got[["n_mentions", "n_docs"]].equals(want)
    none = blocks_of(canonicalize(rd.from_arrow(pa.Table.from_pandas(docs[0])).limit(0)))
    assert none and all(b.num_rows == 0 and b.schema == ENTITY_SCHEMA for b in none)


def test_fuzzy_join_titles(ray_session):
    left = rd.from_pandas(
        pd.DataFrame(
            {
                "doc_id": np.arange(3, dtype=np.int64),
                "title": [
                    "span based joint entity and relation extraction",
                    "a completely unrelated title about databases",
                    "graph neural networks for coreference",
                ],
            }
        )
    )
    right = rd.from_pandas(
        pd.DataFrame(
            {
                "doc_id": np.arange(100, 103, dtype=np.int64),
                "title": [
                    "span based joint entity and relation extraction with transformers",
                    "streaming systems in practice",
                    "graph neural networks for coreference resolution",
                ],
            }
        )
    )
    out = fuzzy_join(left, right, key_col="title", threshold=0.4).to_pandas()
    matches = dict(zip(out["left_id"], out["right_id"]))
    assert matches.get(0) == 100
    assert matches.get(2) == 102
    assert 1 not in matches  # unrelated title finds no partner


def test_orders_sample_deterministic(ray_session):
    from dygiepp_ray.relational import orders_sample

    a = orders_sample("/root/testdata/sf0.001").to_pandas()
    b = orders_sample("/root/testdata/sf0.001").to_pandas()
    assert sorted(a["o_orderkey"]) == sorted(b["o_orderkey"])
    assert 0 < len(a) < 1500  # ~10% of 1500


def test_pack_sequences_skewed_source_multi_chunk(ray_session):
    """One source holds 90% of rows spread over many blocks: the
    two-phase packer (chunk-local cumsum -> tiny offset exchange ->
    stateless assign) must reproduce the sequential per-source cumsum
    exactly even when the source spans many chunks."""
    from dygiepp_ray.relational import pack_sequences_dataset

    rs = np.random.RandomState(3)
    n = 5000
    src = np.where(rs.rand(n) < 0.9, "big", "small")
    df = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "source": src,
            "n_chars": rs.randint(1, 900, size=n).astype(np.int64),
        }
    )
    ds = rd.from_pandas(df.sample(frac=1.0, random_state=7)).repartition(16)
    out = (
        pack_sequences_dataset(ds, budget=2048, chunk_docs=256, num_buckets=8)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )

    ref = df.sort_values(["source", "doc_id"], ignore_index=True)
    cum = ref.groupby("source", sort=False)["n_chars"].cumsum()
    ref["pack_id"] = ((cum - ref["n_chars"]) // 2048).astype(np.int64)
    ref = ref.sort_values("doc_id", ignore_index=True)

    assert (out["doc_id"].to_numpy() == ref["doc_id"].to_numpy()).all()
    assert (out["pack_id"].to_numpy() == ref["pack_id"].to_numpy()).all()
    assert (out["source"].to_numpy() == ref["source"].to_numpy()).all()


def test_task_retry_through_pipeline(ray_session, tmp_path):
    """SURVEY §4: stragglers/retries are Ray-native — a UDF that dies on
    its first attempt (per task) must be retried transparently and the
    pipeline must still produce exact results.  `retry_exceptions` is
    the same knob a flaky model-inference stage would use in
    production; the flag file makes exactly the first attempt fail."""
    import pandas as pd

    import ray as _ray
    import ray.data as rd

    flag = tmp_path / "first_attempt_died"

    def flaky(df: pd.DataFrame) -> pd.DataFrame:
        if not flag.exists():
            flag.write_text("x")
            raise RuntimeError("injected first-attempt failure")
        out = df.copy()
        out["y"] = out["x"] * 2
        return out

    ds = rd.from_pandas(pd.DataFrame({"x": list(range(100))})).repartition(1)
    got = ds.map_batches(
        flaky, batch_format="pandas", retry_exceptions=True, max_retries=2
    ).to_pandas()
    assert flag.exists()
    assert sorted(got["y"]) == [2 * i for i in range(100)]


def test_events_moving_sum_window_clamps_at_user_boundary(ray_session):
    """3-row window sums never reach across users, ties break on
    event_id, and singleton users get their own value back."""
    import pandas as pd
    import ray.data as rd
    from dygiepp_ray.relational import events_moving_sum

    ts = pd.to_datetime(
        ["2024-01-01 00:00:00"] * 2 + ["2024-01-01 00:00:05", "2024-01-01 00:00:09"]
        + ["2024-01-01 00:00:01"],
    )
    df = pd.DataFrame(
        {
            "event_id": np.int64([2, 1, 3, 4, 9]),
            "user_id": np.int64([7, 7, 7, 7, 8]),
            "ts": ts,
            "value": [1.0, 2.0, 4.0, 8.0, 16.0],
        }
    )
    import tempfile, os, pyarrow as pa, pyarrow.parquet as pq

    with tempfile.TemporaryDirectory() as tmp:
        pq.write_table(pa.Table.from_pandas(df), os.path.join(tmp, "events.parquet"))
        out = events_moving_sum(tmp).to_pandas().set_index("event_id")["mov_cents"]
    # user 7 order: (t0,e1)=200, (t0,e2)=100, (t5,e3)=400, (t9,e4)=800
    assert out[1] == 200
    assert out[2] == 300
    assert out[3] == 700       # 200+100+400
    assert out[4] == 1300      # 100+400+800 (window slides, 200 dropped)
    assert out[9] == 1600      # singleton user: no bleed from user 7


def test_price_histogram_partials_merge_exactly(ray_session):
    """Partial-then-merge equals a direct single-pass groupby, including
    the floor-to-cents bin edges."""
    import pandas as pd
    import tempfile, os, pyarrow as pa, pyarrow.parquet as pq
    from dygiepp_ray.relational import price_histogram

    prices = [0.0, 24999.99, 25000.0, 25000.01, 99999.995, 1.005]
    df = pd.DataFrame({"o_totalprice": prices})
    with tempfile.TemporaryDirectory() as tmp:
        pq.write_table(pa.Table.from_pandas(df), os.path.join(tmp, "orders.parquet"))
        got = price_histogram(tmp).to_pandas().sort_values("bin").reset_index(drop=True)
    cents = np.floor(np.array(prices) * 100.0).astype(np.int64)
    exp = (
        pd.DataFrame({"bin": cents // 2_500_000, "cents": cents})
        .groupby("bin")
        .agg(n=("cents", "size"), sum_cents=("cents", "sum"))
        .reset_index()
        .astype({"bin": np.int64, "n": np.int64, "sum_cents": np.int64})
    )
    pd.testing.assert_frame_equal(got, exp)


def test_events_lag_gaps_and_stream_starts(ray_session):
    """Gap = microseconds since the user's previous event; stream starts
    (and the tie-broken first of equal timestamps) get -1; no bleed
    across users."""
    import tempfile, os
    import pandas as pd
    import pyarrow as pa, pyarrow.parquet as pq
    from dygiepp_ray.relational import events_lag

    ts = pd.to_datetime(
        ["2024-01-01 00:00:00"] * 2 + ["2024-01-01 00:00:05", "2024-01-01 00:00:09"]
        + ["2024-01-01 00:00:01"]
    )
    df = pd.DataFrame(
        {
            "event_id": np.int64([2, 1, 3, 4, 9]),
            "user_id": np.int64([7, 7, 7, 7, 8]),
            "ts": ts,
        }
    )
    with tempfile.TemporaryDirectory() as tmp:
        pq.write_table(pa.Table.from_pandas(df), os.path.join(tmp, "events.parquet"))
        out = events_lag(tmp).to_pandas().set_index("event_id")["gap_us"]
    assert out[1] == -1          # first of user 7 (ts tie, event_id order)
    assert out[2] == 0           # same timestamp as event 1
    assert out[3] == 5_000_000
    assert out[4] == 4_000_000
    assert out[9] == -1          # singleton user 8


def test_histogram_quantiles_error_bounded_by_bin(ray_session):
    """The sketch estimate must sit within one bin width above the exact
    quantile (upper-edge convention), per group."""
    import tempfile, os
    import pandas as pd
    import pyarrow as pa, pyarrow.parquet as pq
    from dygiepp_ray.relational import histogram_quantiles

    rng = np.random.RandomState(3)
    n = 5000
    df = pd.DataFrame(
        {
            "l_returnflag": np.where(rng.rand(n) < 0.5, "A", "B"),
            "l_extendedprice": rng.gamma(2.0, 20000.0, size=n).round(2),
        }
    )
    bin_cents = 10_000_00
    with tempfile.TemporaryDirectory() as tmp:
        pq.write_table(pa.Table.from_pandas(df), os.path.join(tmp, "lineitem.parquet"))
        got = histogram_quantiles(tmp, bin_cents=bin_cents).to_pandas()
    got = got.set_index("flag").sort_index()
    for flag, g in df.groupby("l_returnflag"):
        cents = np.sort(np.floor(g["l_extendedprice"].to_numpy() * 100.0).astype(np.int64))
        for q, col in ((0.5, "p50_cents"), (0.95, "p95_cents")):
            exact = cents[int(np.ceil(q * len(cents))) - 1]
            est = int(got.loc[flag, col])
            assert exact <= est <= exact + bin_cents, (flag, col, exact, est)
        assert int(got.loc[flag, "n"]) == len(g)


def test_quality_gate_percentile_threshold(ray_session):
    """Docs below the global p25 distinct-token count are dropped; the
    quantile convention is the ceil(q*n)-th smallest (quantile_disc)."""
    import pandas as pd
    import tempfile, os, pyarrow as pa, pyarrow.parquet as pq
    from dygiepp_ray.textops.queries import q_quality_gate

    # distinct counts 1..8 -> p25 = 2nd smallest = 2; docs with 1 drop
    texts = [" ".join(f"w{j}" for j in range(i)) for i in range(1, 9)]
    df = pd.DataFrame(
        {
            "doc_id": np.arange(8, dtype=np.int64),
            "text": texts,
            "source": ["a"] * 4 + ["b"] * 4,
        }
    )
    with tempfile.TemporaryDirectory() as tmp:
        pq.write_table(pa.Table.from_pandas(df), os.path.join(tmp, "documents.parquet"))
        got = q_quality_gate(tmp).to_pandas().sort_values("source").reset_index(drop=True)
    assert got.loc[got["source"] == "a", "n_docs"].iloc[0] == 3   # 2,3,4 survive
    assert got.loc[got["source"] == "b", "n_docs"].iloc[0] == 4   # 5..8 survive
    assert got.loc[got["source"] == "a", "sum_distinct"].iloc[0] == 9
    assert got.loc[got["source"] == "b", "sum_distinct"].iloc[0] == 26


def test_profile_orders_counts_nulls(ray_session):
    """Null rows counted per column; min/max over non-null only."""
    import tempfile, os
    import pandas as pd
    import pyarrow as pa, pyarrow.parquet as pq
    from dygiepp_ray.relational import profile_orders

    df = pd.DataFrame(
        {
            "o_orderkey": np.int64([1, 2, 3]),
            "o_custkey": pd.array([10, None, 30], dtype="Int64"),
            "o_totalprice": [1.005, None, 2.5],
            "o_orderdate": pd.to_datetime(
                ["2024-01-01", "2024-06-01", None]
            ),
        }
    )
    with tempfile.TemporaryDirectory() as tmp:
        pq.write_table(pa.Table.from_pandas(df), os.path.join(tmp, "orders.parquet"))
        out = profile_orders(tmp).to_pandas().set_index("column")
    assert out.loc["o_custkey", "n"] == 3
    assert out.loc["o_custkey", "n_null"] == 1
    assert out.loc["o_custkey", "min_v"] == 10
    assert out.loc["o_custkey", "max_v"] == 30
    assert out.loc["o_totalprice", "min_v"] == 100  # floor(1.005*100)
    assert out.loc["o_totalprice", "max_v"] == 250
    assert out.loc["o_orderdate", "n_null"] == 1


def test_profile_orders_all_null_column_reports_zero_extrema(ray_session):
    """A column with NO non-null values must report 0/0 (the COALESCE
    convention), never the int64 +/-inf sentinels."""
    import tempfile, os
    import pandas as pd
    import pyarrow as pa, pyarrow.parquet as pq
    from dygiepp_ray.relational import profile_orders

    df = pd.DataFrame(
        {
            "o_orderkey": np.int64([1, 2]),
            "o_custkey": pd.array([None, None], dtype="Int64"),
            "o_totalprice": [1.0, 2.0],
            "o_orderdate": pd.to_datetime(["2024-01-01", "2024-01-02"]),
        }
    )
    with tempfile.TemporaryDirectory() as tmp:
        pq.write_table(pa.Table.from_pandas(df), os.path.join(tmp, "orders.parquet"))
        out = profile_orders(tmp).to_pandas().set_index("column")
    assert out.loc["o_custkey", "n_null"] == 2
    assert out.loc["o_custkey", "min_v"] == 0
    assert out.loc["o_custkey", "max_v"] == 0


def test_event_transitions_hand_case(ray_session):
    """Adjacent-only pairs, same-user only, ts-then-event_id order."""
    import tempfile, os
    import pandas as pd
    import pyarrow as pa, pyarrow.parquet as pq
    from dygiepp_ray.relational import event_transitions

    ts = pd.to_datetime(
        ["2024-01-01 00:00:00", "2024-01-01 00:00:01", "2024-01-01 00:00:02",
         "2024-01-01 00:00:00"]
    )
    df = pd.DataFrame(
        {
            "event_id": np.int64([1, 2, 3, 9]),
            "user_id": np.int64([7, 7, 7, 8]),
            "ts": ts,
            "event_type": ["view", "cart", "view", "view"],
        }
    )
    with tempfile.TemporaryDirectory() as tmp:
        pq.write_table(pa.Table.from_pandas(df), os.path.join(tmp, "events.parquet"))
        out = event_transitions(tmp).to_pandas()
    got = {(r.from_type, r.to_type): int(r.n) for r in out.itertuples()}
    assert got == {("view", "cart"): 1, ("cart", "view"): 1}


def test_events_within_window_hand_case(ray_session):
    """Pairs strictly later and within the window, same user only;
    equal timestamps never pair (strict >)."""
    import tempfile, os
    import pandas as pd
    import pyarrow as pa, pyarrow.parquet as pq
    from dygiepp_ray.relational import events_within_window

    ts = pd.to_datetime(
        ["2024-01-01 00:00:00", "2024-01-01 00:00:00",  # tie: no pair
         "2024-01-01 00:30:00", "2024-01-01 02:00:00",  # 30min in, 2h out
         "2024-01-01 00:10:00"]                          # other user
    )
    df = pd.DataFrame(
        {
            "event_id": np.int64([1, 2, 3, 4, 9]),
            "user_id": np.int64([7, 7, 7, 7, 8]),
            "ts": ts,
            "event_type": ["a", "b", "c", "d", "a"],
        }
    )
    with tempfile.TemporaryDirectory() as tmp:
        pq.write_table(pa.Table.from_pandas(df), os.path.join(tmp, "events.parquet"))
        out = events_within_window(tmp, window_s=3600).to_pandas()
    got = {(r.from_type, r.to_type): int(r.n) for r in out.itertuples()}
    # a->c and b->c (both within 1h); c->d is 90min (out); ties excluded
    assert got == {("a", "c"): 1, ("b", "c"): 1}


def test_ddsketch_relative_error_bound(ray_session):
    """DDSketch-style log buckets: each quantile estimate is the
    exclusive upper edge of its bucket, so exact < est <= exact * (1 +
    2^-sub_bits) + 1 — a RELATIVE bound that holds across five orders
    of magnitude (where an equi-width histogram would need ~10^7 bins).
    Exercises power-of-two boundary values explicitly (the float-log2
    trap the searchsorted bit_length avoids)."""
    import tempfile, os
    import pyarrow as pa, pyarrow.parquet as pq
    from dygiepp_ray.relational import ddsketch_quantiles

    rng = np.random.RandomState(7)
    vals = np.concatenate([
        rng.lognormal(3.0, 2.0, size=4000),       # heavy tail, ~5 decades
        np.array([0.01, 0.02, 0.04, 2.56, 163.84, 655.36]),  # 2^k cents
    ])
    df = pd.DataFrame({
        "event_type": np.where(np.arange(len(vals)) % 2 == 0, "a", "b"),
        "value": np.round(vals, 2),
    })
    with tempfile.TemporaryDirectory() as tmp:
        pq.write_table(pa.Table.from_pandas(df), os.path.join(tmp, "events.parquet"))
        got = ddsketch_quantiles(tmp).to_pandas().set_index("event_type")
    for et, g in df.groupby("event_type"):
        cents = np.maximum(
            np.floor(g["value"].to_numpy(np.float64) * 100.0).astype(np.int64), 1
        )
        cents.sort()
        assert int(got.loc[et, "n"]) == len(g)
        for q, col in ((0.5, "p50_ub_cents"), (0.95, "p95_ub_cents"),
                       (0.99, "p99_ub_cents")):
            exact = int(cents[int(np.ceil(q * len(cents))) - 1])
            est = int(got.loc[et, col])
            assert exact < est <= int(exact * 1.125) + 1, (et, col, exact, est)


def test_key_skew_profile_matches_bruteforce(ray_session):
    """Hot-key profiler: rank/count/share must equal the brute-force
    answer on a skewed distribution, including the (n DESC, user_id ASC)
    tie order and the per-bucket-top-K prefilter not losing a global
    survivor."""
    import tempfile, os
    import pyarrow as pa, pyarrow.parquet as pq
    from dygiepp_ray.relational import key_skew_profile

    rng = np.random.RandomState(11)
    # zipf-ish: key k appears ~1000/k times -> heavy head, long tie tail
    uid = np.repeat(np.arange(1, 200), (1000 // np.arange(1, 200)).clip(1))
    rng.shuffle(uid)
    df = pd.DataFrame({"user_id": uid.astype(np.int64)})
    with tempfile.TemporaryDirectory() as tmp:
        pq.write_table(pa.Table.from_pandas(df), os.path.join(tmp, "events.parquet"))
        got = key_skew_profile(tmp, top_k=10).to_pandas()
    counts = df.groupby("user_id").size().reset_index(name="n")
    counts = counts.sort_values(["n", "user_id"], ascending=[False, True],
                                kind="mergesort").head(10)
    assert got["user_id"].tolist() == counts["user_id"].tolist()
    assert got["n"].tolist() == counts["n"].tolist()
    assert got["rank"].tolist() == list(range(1, 11))
    assert (got["share_ppm"].to_numpy()
            == counts["n"].to_numpy() * 1_000_000 // len(df)).all()


def test_join_size_estimate_upper_bounds_true_join(ray_session):
    """CMS inner-product estimate: never below the true equi-join
    cardinality (collisions only ADD), and tight at small key
    cardinality vs the 4x1024 sketch."""
    import tempfile, os
    import pyarrow as pa, pyarrow.parquet as pq
    from dygiepp_ray.relational import join_size_estimate

    rng = np.random.RandomState(5)
    ev_keys = rng.zipf(1.5, size=3000).clip(0, 400).astype(np.int64)
    cu_keys = np.arange(0, 500, dtype=np.int64).repeat(2)
    true = int(
        pd.Series(ev_keys).value_counts()
        .mul(pd.Series(cu_keys).value_counts(), fill_value=0).sum()
    )
    with tempfile.TemporaryDirectory() as tmp:
        pq.write_table(pa.table({"user_id": ev_keys}),
                       os.path.join(tmp, "events.parquet"))
        pq.write_table(pa.table({"c_custkey": cu_keys}),
                       os.path.join(tmp, "customer.parquet"))
        est = int(join_size_estimate(tmp)["est_join_rows"].iloc[0])
    assert est >= true
    assert est <= int(true * 1.5) + 1


def test_customer_upsert_latest_wins_and_untouched_rows(ray_session):
    """MERGE INTO hand case: ts DESC then event_id DESC picks the
    winning delta; customers without deltas keep their base balance
    with updated=0."""
    import tempfile, os
    import pyarrow as pa, pyarrow.parquet as pq
    from dygiepp_ray.relational import customer_upsert

    cust = pa.table({
        "c_custkey": pa.array([1, 2, 3], pa.int64()),
        "c_acctbal": pa.array([10.00, 20.00, 30.00], pa.float64()),
    })
    ts = pd.to_datetime(
        ["2024-01-01 00:00:00", "2024-01-02 00:00:00",
         "2024-01-02 00:00:00", "2024-01-01 00:00:00"]
    )
    ev = pa.table({
        "event_id": pa.array([7, 5, 6, 9], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1, 2, 2, 3], pa.int64()),
        "event_type": ["purchase", "purchase", "purchase", "click"],
        "value": pa.array([111.11, 222.22, 333.33, 999.99], pa.float64()),
    })
    with tempfile.TemporaryDirectory() as tmp:
        pq.write_table(cust, os.path.join(tmp, "customer.parquet"))
        pq.write_table(ev, os.path.join(tmp, "events.parquet"))
        got = customer_upsert(tmp).to_pandas().sort_values(
            "c_custkey", ignore_index=True
        )
    # user 2: two purchases at the SAME ts -> higher event_id (6) wins
    assert got["acctbal_cents"].tolist() == [11111, 33333, 3000]
    assert got["updated"].tolist() == [1, 1, 0]  # user 3's click is no delta
