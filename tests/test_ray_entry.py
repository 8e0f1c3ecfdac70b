"""Driver-contract smoke: entry() runs, queries()/oracle_sql() are
consistent, and a sample of query callables produce stable results at
sf0.001 (full hash-vs-DuckDB comparison lives in
scripts/check_queries.py, exercised for every SQL-backed query)."""

import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def entrymod(ray_session):
    import __ray_entry__

    return __ray_entry__


def test_entry_returns_rows(entrymod):
    res = entrymod.entry()
    df = res.to_pandas() if hasattr(res, "to_pandas") else pd.DataFrame(res)
    assert len(df) > 0
    assert {"conv_id", "subj", "pred", "obj", "subj_id", "obj_id"} <= set(df.columns)


def test_oracle_sql_keys_subset_of_queries(entrymod):
    q = entrymod.queries()
    o = entrymod.oracle_sql()
    assert set(o) <= set(q)
    assert len(q) >= 25
    assert len(o) >= 20


def test_sampled_queries_run(entrymod):
    q = entrymod.queries()
    for name in ["kg_triples", "q1_pricing_summary", "token_count", "ann_topk"]:
        res = q[name](SF)
        df = res.to_pandas() if hasattr(res, "to_pandas") else pd.DataFrame(res)
        assert len(df) > 0, name


def test_registry_families_are_consistent(entrymod):
    """The four family dicts share no name (``all_queries`` merges them
    with ``dict.update``, so a reused name would silently win), the
    driver's sample-first list names each registry entry at most once,
    and every query has its DuckDB oracle."""
    from dygiepp_ray.analytics import ANALYTICS_QUERIES
    from dygiepp_ray.pipelines.queries import _DRIVER_SAMPLE_FIRST, KG_QUERIES
    from dygiepp_ray.relational import RELATIONAL_QUERIES
    from dygiepp_ray.textops.queries import TEXTOPS_QUERIES

    families = [KG_QUERIES, RELATIONAL_QUERIES, TEXTOPS_QUERIES,
                ANALYTICS_QUERIES]
    names = [k for fam in families for k in fam]
    assert len(names) == len(set(names))

    q = entrymod.queries()
    assert set(q) == set(names)
    assert len(_DRIVER_SAMPLE_FIRST) == len(set(_DRIVER_SAMPLE_FIRST))
    assert set(_DRIVER_SAMPLE_FIRST) <= set(q)
    assert set(entrymod.oracle_sql()) == set(q)


def test_bench_secondary_queries_are_registered():
    import bench
    from dygiepp_ray.pipelines.queries import all_queries

    assert set(bench.SECONDARY_QUERIES) <= set(all_queries())


def test_sql_oracles_are_valid_duckdb(entrymod):
    import duckdb

    con = duckdb.connect()
    for tbl in ["region", "nation", "customer", "supplier", "part", "orders",
                "lineitem", "events", "documents", "embeddings"]:
        con.execute(f"CREATE VIEW {tbl} AS SELECT * FROM '{SF}/{tbl}.parquet'")
    for name, sql in entrymod.oracle_sql().items():
        con.execute(sql).fetchdf()  # must parse + run
