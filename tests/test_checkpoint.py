"""Resumable partitioned output: idempotent per-partition writes,
completed partitions skipped on re-run (SURVEY.md §4)."""

import json
import os
import re

import pandas as pd
import pyarrow.parquet as pq
import pytest

import ray.data as rd

from dygiepp_ray.state import checkpoint as C


@pytest.fixture()
def small_ds(ray_session):
    df = pd.DataFrame(
        {"conv_id": [f"c{i % 10}" for i in range(100)], "v": range(100)}
    )
    return rd.from_pandas(df), df


def test_write_and_read_roundtrip(small_ds, tmp_path):
    ds, df = small_ds
    out = str(tmp_path / "graph")
    run = C.write_partitioned(ds, out, "conv_id", num_partitions=4)
    assert run["rows_written"] == 100
    assert os.path.exists(os.path.join(out, "_MANIFEST.json"))
    back = C.read_partitioned(out).to_pandas()
    assert len(back) == 100
    assert sorted(back["v"]) == list(range(100))


def test_resume_skips_completed_partitions(small_ds, tmp_path):
    ds, df = small_ds
    out = str(tmp_path / "graph")
    C.write_partitioned(ds, out, "conv_id", num_partitions=4)
    done = C.completed_partitions(out)
    assert len(done) >= 1
    # second run: every partition already has a manifest -> all skipped
    run2 = C.write_partitioned(ds, out, "conv_id", num_partitions=4)
    assert run2["rows_written"] == 0
    assert run2["skipped"] == len(done)
    # data still intact
    assert len(C.read_partitioned(out).to_pandas()) == 100


def test_partial_resume(small_ds, tmp_path):
    ds, df = small_ds
    out = str(tmp_path / "graph")
    C.write_partitioned(ds, out, "conv_id", num_partitions=4)
    # simulate a killed run: delete one partition's manifest + data
    victim = sorted(C.completed_partitions(out))[0]
    os.remove(C._part_manifest(out, victim))
    import shutil

    shutil.rmtree(C._part_dir(out, victim))
    run = C.write_partitioned(ds, out, "conv_id", num_partitions=4)
    assert run["rows_written"] > 0  # only the victim partition was rewritten
    back = C.read_partitioned(out).to_pandas()
    assert len(back) == 100


def test_manifest_lineage_fields(small_ds, tmp_path):
    ds, _ = small_ds
    out = str(tmp_path / "graph")
    C.write_partitioned(ds, out, "conv_id", num_partitions=2)
    m = json.load(open(C._part_manifest(out, sorted(C.completed_partitions(out))[0])))
    assert {"bucket", "key", "num_partitions", "rows", "n_keys", "fingerprint",
            "ts"} <= set(m)
    assert m["num_partitions"] == 2


def test_refuses_directory_with_another_key(small_ds, tmp_path):
    """Rows placed by one key sit in other buckets under another: the
    writer must not skip (and relist) the old partitions."""
    ds, _ = small_ds
    out = str(tmp_path / "graph")
    C.write_partitioned(ds, out, "conv_id", num_partitions=4)
    with pytest.raises(ValueError, match=re.escape(out)):
        C.write_partitioned(ds, out, "v", num_partitions=4)
    # a lost _MANIFEST.json does not hide the part manifests' key
    os.remove(os.path.join(out, "_MANIFEST.json"))
    with pytest.raises(ValueError, match="key='conv_id'"):
        C.write_partitioned(ds, out, "v", num_partitions=4)


def test_refuses_directory_with_another_partition_count(small_ds, tmp_path):
    ds, _ = small_ds
    out = str(tmp_path / "graph")
    C.write_partitioned(ds, out, "conv_id", num_partitions=4)
    with pytest.raises(ValueError, match=re.escape(out)):
        C.write_partitioned(ds, out, "conv_id", num_partitions=8)
    os.remove(os.path.join(out, "_MANIFEST.json"))
    with pytest.raises(ValueError, match="num_partitions=4"):
        C.write_partitioned(ds, out, "conv_id", num_partitions=8)
    # the same layout still resumes
    assert C.write_partitioned(ds, out, "conv_id", num_partitions=4)["rows_written"] == 0


def test_manifest_fingerprint_deterministic(small_ds, tmp_path):
    """Content fingerprint is order-insensitive and stable across
    identical rewrites (the resume-audit contract)."""
    ds, df = small_ds
    out1, out2 = str(tmp_path / "g1"), str(tmp_path / "g2")
    C.write_partitioned(ds, out1, "conv_id", num_partitions=2)
    shuffled = rd.from_pandas(df.sample(frac=1.0, random_state=7))
    C.write_partitioned(shuffled, out2, "conv_id", num_partitions=2)
    for b in sorted(C.completed_partitions(out1)):
        m1 = json.load(open(C._part_manifest(out1, b)))
        m2 = json.load(open(C._part_manifest(out2, b)))
        assert m1["fingerprint"] == m2["fingerprint"]
        assert len(m1["fingerprint"]) == 16
        # the shuffled frame's index is not stored as a column
        part = pq.read_table(C._part_dir(out2, b), partitioning=None)
        assert part.column_names == ["conv_id", "v"]


def test_write_part_fingerprint_golden(tmp_path):
    """``write_part`` hashes the pandas view of the Arrow table it
    writes; the value below was written by the pandas-bucket writer, so
    stores written before the Arrow writer stay resumable."""
    import pyarrow as pa

    tbl = pa.table({
        "conv_id": ["c7", "c7", "c7", "c7"],
        "subj": ["alpha", "beta", "alpha", "Gamma ray"],
        "n_convs": pa.array([3, 1, 3, -2], pa.int64()),
        "score": pa.array([0.5, 0.25, 0.5, 1.125], pa.float32()),
    })
    out = str(tmp_path / "g")
    os.makedirs(out)
    C.write_part(tbl, out, "conv_id", 4, set())
    m = json.load(open(C._part_manifest(out, 0)))
    assert (m["rows"], m["n_keys"], m["fingerprint"]) == (4, 1, "730657aab7292a9f")


def test_kill_resume_two_stage_pipeline(ray_session, tmp_path):
    """SURVEY §4 resumability through the exchange: a two-stage job
    (conv assembly exchange -> extraction -> triple dedup -> partitioned
    write) killed mid-write leaves manifests for the finished
    partitions; the rerun skips exactly those (manifests untouched,
    byte-identical mtimes) and the resumed output equals a clean run."""
    from dygiepp_ray.core import stable_bucket
    from dygiepp_ray.pipelines.kg import from_documents_table

    sf = "/root/testdata/sf0.001"
    NP = 8
    out = str(tmp_path / "triples")

    ref = from_documents_table(sf).triples().to_pandas()

    # run 1, "killed" after half the partitions: reproduce the post-kill
    # state by writing only the rows hashing to the low buckets
    def keep_low(df):
        if len(df) == 0:
            return df
        return df[stable_bucket(df["conv_id"].to_numpy(), NP) < NP // 2]

    partial = from_documents_table(sf).triples().map_batches(
        keep_low, batch_format="pandas"
    )
    C.write_partitioned(partial, out, "conv_id", num_partitions=NP)
    done1 = C.completed_partitions(out)
    assert 0 < len(done1) < NP
    mtimes1 = {b: os.path.getmtime(C._part_manifest(out, b)) for b in done1}

    # resume: the FULL pipeline re-runs, completed partitions skipped
    run2 = C.write_partitioned(
        from_documents_table(sf).triples(), out, "conv_id", num_partitions=NP
    )
    assert run2["skipped"] == len(done1)
    for b in done1:
        assert os.path.getmtime(C._part_manifest(out, b)) == mtimes1[b]
    assert C.completed_partitions(out) >= done1

    back = C.read_partitioned(out).to_pandas()
    assert len(back) == len(ref)
    cols = sorted(ref.columns)
    norm = lambda d: sorted(map(tuple, d[cols].astype(str).to_numpy()))  # noqa: E731
    assert norm(back) == norm(ref)


def test_kg_store_save_lookup_roundtrip(ray_session, tmp_path):
    """Persisted KG store ("graph materialize"): subject-partitioned
    parquet, multiple files (resumable-output shape), and a pushdown
    point lookup bit-identical to filtering the in-session triples."""
    import glob

    import numpy as np
    import pandas as pd

    from dygiepp_ray.pipelines.kg import from_documents_table
    from dygiepp_ray.state.kgstore import kg_lookup, save_kg_store

    pipe = from_documents_table("/root/testdata/sf0.001")
    trip = pipe.triples().select_columns(["conv_id", "subj", "pred", "obj"])
    in_mem = trip.to_pandas()
    path = str(tmp_path / "store")
    run = save_kg_store(trip, path, num_buckets=8)
    part_dirs = glob.glob(f"{path}/part=*/")
    assert len(part_dirs) > 1  # partitioned, not one giant file
    assert run["partitions"] == len(part_dirs)
    manifests = glob.glob(f"{path}/part=*.manifest.json")
    assert len(manifests) == len(part_dirs)  # resumable: one per bucket

    subj = in_mem["subj"].iloc[0]
    got = kg_lookup(path, subj).sort_values(
        ["subj", "pred", "obj"], ignore_index=True)
    want = (in_mem[in_mem["subj"] == subj]
            .drop_duplicates()
            .groupby(["subj", "pred", "obj"], as_index=False)["conv_id"]
            .nunique().rename(columns={"conv_id": "n_convs"})
            .sort_values(["subj", "pred", "obj"], ignore_index=True))
    want["n_convs"] = want["n_convs"].astype(np.int64)
    pd.testing.assert_frame_equal(got, want)

    # a missing subject returns an EMPTY result, not an error
    assert len(kg_lookup(path, "no-such-entity")) == 0


def test_kg_store_upsert_equals_full_rebuild(ray_session, tmp_path):
    """Ingesting the odd-conversation delta into an even-conversation
    base store must produce a store BIT-IDENTICAL (all partitions, not
    just one subject) to building from the full corpus."""
    import numpy as np
    import pandas as pd

    from dygiepp_ray.pipelines.kg import from_documents_table
    from dygiepp_ray.state.kgstore import save_kg_store, upsert_kg_store

    pipe = from_documents_table("/root/testdata/sf0.001")
    trip = pipe.triples().select_columns(
        ["conv_id", "subj", "pred", "obj"]).materialize()

    def par(df, want):
        p = df["conv_id"].str.slice(3).astype(np.int64) % 2
        return df.loc[p.to_numpy() == want]

    full_dir = str(tmp_path / "full")
    base_dir = str(tmp_path / "base")
    out_dir = str(tmp_path / "upserted")
    save_kg_store(trip, full_dir, num_buckets=8)
    save_kg_store(
        trip.map_batches(lambda d: par(d, 0), batch_format="pandas"),
        base_dir, num_buckets=8)
    upsert_kg_store(
        base_dir,
        trip.map_batches(lambda d: par(d, 1), batch_format="pandas"),
        out_dir, num_buckets=8)

    from dygiepp_ray.state.checkpoint import read_partitioned

    canon = lambda p: (read_partitioned(p).to_pandas()
                       .sort_values(["subj", "pred", "obj"],
                                    ignore_index=True))
    pd.testing.assert_frame_equal(canon(out_dir), canon(full_dir))


def test_kg_store_resave_skips_manifested_partitions(ray_session, tmp_path):
    """A re-run over an already-saved store must SKIP every manifested
    partition (the crash-resume contract): zero rows rewritten, files
    untouched."""
    import glob
    import os

    from dygiepp_ray.pipelines.kg import from_documents_table
    from dygiepp_ray.state.kgstore import save_kg_store

    pipe = from_documents_table("/root/testdata/sf0.001")
    trip = pipe.triples().select_columns(
        ["conv_id", "subj", "pred", "obj"]).materialize()
    path = str(tmp_path / "store")
    first = save_kg_store(trip, path, num_buckets=8)
    mtimes = {f: os.path.getmtime(f)
              for f in glob.glob(f"{path}/part=*/data.parquet")}
    second = save_kg_store(trip, path, num_buckets=8)
    assert second["rows_written"] == 0
    assert second["skipped"] >= first["partitions"]
    for f, m in mtimes.items():
        assert os.path.getmtime(f) == m  # bytes untouched


@pytest.mark.parametrize("make", [
    lambda: rd.from_items([]),
    lambda: rd.range(0).map(lambda r: {"conv_id": str(r["id"])}),
], ids=["from_items", "range_map"])
def test_write_partitioned_zero_blocks(ray_session, tmp_path, make):
    """A Dataset with no blocks writes an empty table, not a KeyError."""
    out = str(tmp_path / "graph")
    run = C.write_partitioned(make(), out, "conv_id", num_partitions=4)
    assert run["parts"] == []
    assert run["partitions"] == run["rows_written"] == 0
    with open(os.path.join(out, "_MANIFEST.json")) as f:
        assert json.load(f) == run
