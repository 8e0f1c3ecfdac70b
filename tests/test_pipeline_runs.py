"""Pipeline-level runs: actor-pool extraction, run_all graph store with
resume, the one-exchange triples() path, embedding near-dups, hopping
windows."""

import contextlib
import json
import logging
import os
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

import ray
import ray.data as rd

from dygiepp_ray.pipelines.kg import KGPipeline
from dygiepp_ray.semantics import DEFAULT_CONFIG
from dygiepp_ray.stages.extract import extract
from dygiepp_ray.stages.triples import TRIPLE_KEY, TRIPLE_SCHEMA, triples_local_dedup
from dygiepp_ray.synth import make_transcripts
from dygiepp_ray.textops import ann


@contextlib.contextmanager
def schema_drift_warnings():
    """The "different schema" warnings Ray Data logs while the ``with``
    body runs (the list fills when the body exits)."""
    messages = []

    class Capture(logging.Handler):
        def emit(self, record):
            messages.append(record.getMessage())

    ray_log = logging.getLogger("ray.data")
    handler, level = Capture(logging.WARNING), ray_log.level
    ray_log.addHandler(handler)
    ray_log.setLevel(logging.WARNING)
    drift = []
    try:
        yield drift
    finally:
        ray_log.removeHandler(handler)
        ray_log.setLevel(level)
        drift.extend(m for m in messages if "different schema" in m)


def test_actor_pool_extraction_matches_tasks(ray_session):
    tbl = make_transcripts(15, seed=21)
    from dygiepp_ray.stages.assemble import assemble_documents

    docs = assemble_documents(rd.from_arrow(tbl), num_buckets=2)
    a = extract(docs).to_pandas()
    docs2 = assemble_documents(rd.from_arrow(tbl), num_buckets=2)
    b = extract(docs2, concurrency=2, batch_size=64).to_pandas()

    def mention_set(df):
        return {
            (r["doc_key"], m["start"], m["end"], m["label"])
            for _, r in df.iterrows() for m in r["ner"]
        }

    assert mention_set(a) == mention_set(b)


def test_run_all_graph_store_and_resume(ray_session, tmp_path):
    tbl = make_transcripts(12, seed=31)
    out = str(tmp_path / "graph")
    pipe = KGPipeline(rd.from_arrow(tbl), num_buckets=2)
    manifests = pipe.run_all(out, num_partitions=4)
    assert manifests["triples"]["rows_written"] > 0
    assert manifests["entities"]["rows_written"] > 0
    assert os.path.exists(os.path.join(out, "triples", "_MANIFEST.json"))

    from dygiepp_ray.state.checkpoint import read_partitioned

    t1 = read_partitioned(os.path.join(out, "triples")).to_pandas()

    # rerun: everything skipped, nothing rewritten, data intact
    pipe2 = KGPipeline(rd.from_arrow(tbl), num_buckets=2)
    manifests2 = pipe2.run_all(out, num_partitions=4)
    assert manifests2["triples"]["rows_written"] == 0
    t2 = read_partitioned(os.path.join(out, "triples")).to_pandas()
    assert len(t1) == len(t2)


def test_run_all_emits_no_schema_drift(ray_session, tmp_path):
    """Empty buckets must emit their declared schema: Ray Data warns
    when one operator's blocks disagree on schema, and the written
    entities carry exactly ENTITY_SCHEMA.  Canonicalize's exchanges are
    data-sized, so few of its buckets are empty here; its empty buckets
    are checked in test_skew_misc.  The 4 assembly
    buckets are all non-empty: Ray Data's map_batches turns an EMPTY
    input block into a column-less block without calling the UDF, so an
    empty assembly bucket makes extraction warn whatever the engine
    emits (empty assembly buckets are checked in test_assemble)."""
    import pyarrow.parquet as pq

    from dygiepp_ray.stages.canonicalize import ENTITY_SCHEMA

    out = str(tmp_path / "graph")
    with schema_drift_warnings() as drift:
        manifests = KGPipeline(rd.from_arrow(make_transcripts(20, seed=5)), num_buckets=4).run_all(
            out, num_partitions=4
        )
    assert not drift, "\n".join(drift)
    assert manifests["entities"]["rows_written"] > 0
    edir = os.path.join(out, "entities")
    for part in sorted(os.listdir(edir)):
        if part.startswith("part=") and os.path.isdir(os.path.join(edir, part)):
            schema = pq.read_schema(os.path.join(edir, part, "data.parquet"))
            assert schema.remove_metadata().equals(ENTITY_SCHEMA), schema


def test_triples_empty_buckets_keep_triple_schema(ray_session):
    """triples() at the default 64 buckets over 20 conversations: its
    empty buckets emit TRIPLE_SCHEMA like the others, so Ray Data logs
    no "different schema" warning."""
    with schema_drift_warnings() as drift:
        ds = KGPipeline(rd.from_arrow(make_transcripts(20, seed=7))).triples()
        blocks = [ray.get(ref) for bundle in ds.iter_internal_ref_bundles()
                  for ref, _ in bundle.blocks]
        n_rows = len(ds.to_pandas())
    assert not drift, "\n".join(drift)
    assert len(blocks) == 64
    assert any(b.num_rows == 0 for b in blocks)
    assert n_rows == sum(b.num_rows for b in blocks) > 0
    assert all(b.schema == TRIPLE_SCHEMA for b in blocks)


def test_triples_zero_block_input_keeps_triple_schema(ray_session):
    """Transcripts with no blocks still run triples()'s bucket body, so
    every block is an empty TRIPLE_SCHEMA table, not the transcripts'
    schema."""
    src = rd.from_arrow(make_transcripts(20, seed=7)).limit(0)
    ds = KGPipeline(src, num_buckets=4).triples()
    blocks = [ray.get(ref) for bundle in ds.iter_internal_ref_bundles()
              for ref, _ in bundle.blocks]
    assert len(blocks) == 4
    assert all(b.num_rows == 0 and b.schema == TRIPLE_SCHEMA for b in blocks)


@pytest.mark.parametrize("cfg", [
    DEFAULT_CONFIG,
    replace(DEFAULT_CONFIG, tasks=("ner", "relations", "events")),
    replace(DEFAULT_CONFIG, tasks=("ner", "relations", "coref")),
    # reference-mode extraction (the oracle's per-document loop)
    replace(DEFAULT_CONFIG, entity_beam=False),
], ids=["default", "no_coref", "no_events", "reference_mode"])
def test_triples_one_exchange_matches_full_task_lineage(ray_session, monkeypatch, cfg):
    """triples() runs one conv_id exchange that extracts only relations
    and builds no lineage; its rows and dtypes equal the local dedup of
    the lineage's relations, extracted with every task of ``cfg``."""
    from dygiepp_ray import core

    keys = []
    real = core._stream_gens

    def spy(blocks, key, *a, **kw):
        keys.append(key)
        return real(blocks, key, *a, **kw)

    monkeypatch.setattr(core, "_stream_gens", spy)
    pipe = KGPipeline(rd.from_arrow(make_transcripts(12, seed=41)), cfg, num_buckets=4)
    got = pipe.triples().to_pandas()
    assert keys == ["conv_id"]
    assert "documents" not in pipe.__dict__
    want = triples_local_dedup(pipe.relations).to_pandas()
    assert len(got) > 0

    def canon(df):
        return df.sort_values(TRIPLE_KEY, ignore_index=True)

    pd.testing.assert_frame_equal(canon(got), canon(want))


def test_run_all_without_coref_skips_clusters(ray_session, tmp_path):
    # clusters is None when 'coref' is disabled — run_all must skip the
    # clusters manifest, not crash after triples/entities landed
    # (reader review r3)
    tbl = make_transcripts(8, seed=7)
    cfg = replace(DEFAULT_CONFIG, tasks=("ner", "relations", "events"))
    out = str(tmp_path / "graph_nocoref")
    pipe = KGPipeline(rd.from_arrow(tbl), cfg, num_buckets=2)
    assert pipe.clusters is None
    manifests = pipe.run_all(out, num_partitions=2)
    assert manifests["triples"]["rows_written"] > 0
    assert "clusters" not in manifests
    assert not os.path.exists(os.path.join(out, "clusters"))


def test_embedding_near_dups_finds_planted_pair(ray_session):
    rs = np.random.RandomState(3)
    vecs = rs.normal(size=(100, 16))
    vecs[7] = vecs[3] + rs.normal(scale=0.01, size=16)  # planted near-dup
    df = pd.DataFrame({"vec_id": np.arange(100, dtype=np.int64), "embedding": list(vecs)})
    pairs = ann.embedding_near_dups(rd.from_pandas(df), threshold=0.95)
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    assert (3, 7) in got
    # no spurious pairs among random gaussians at 0.95 in 16-d (overwhelming odds)
    assert all({a, b} == {3, 7} for a, b in got)


def test_events_hopping_counts(ray_session):
    from dygiepp_ray.relational import events_hopping, events_tumbling

    hop = events_hopping("/root/testdata/sf0.001").to_pandas()
    tum = events_tumbling("/root/testdata/sf0.001").to_pandas()
    # every event lands in exactly 2 hopping windows
    assert hop["n"].sum() == 2 * tum["n"].sum()


def test_embedding_near_dups_matches_all_pairs(ray_session):
    """Signature-only-exchange + 2-bit multi-probe path must reproduce
    the exact all-pairs cosine join on a corpus with planted near-dups
    (VERDICT r1 #7 equivalence requirement)."""
    rs = np.random.RandomState(11)
    vecs = rs.normal(size=(200, 32))
    for src, dst in [(3, 7), (20, 150), (44, 45), (44, 46)]:
        vecs[dst] = vecs[src] + rs.normal(scale=0.02, size=32)
    df = pd.DataFrame({"vec_id": np.arange(200, dtype=np.int64), "embedding": list(vecs)})

    norm = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = norm @ norm.T
    iu = np.triu_indices(200, k=1)
    truth = {
        (int(a), int(b))
        for a, b in zip(iu[0][sims[iu] >= 0.95], iu[1][sims[iu] >= 0.95])
    }
    assert len(truth) >= 4  # planted pairs really are above threshold

    pairs = ann.embedding_near_dups(rd.from_pandas(df), threshold=0.95)
    got = set(zip(pairs["id_a"].astype(int), pairs["id_b"].astype(int)))
    assert got == truth


def test_kg_cooccurrence_matches_duckdb(ray_session):
    """Entity co-occurrence lift vs its SQL twin at sf0.001 (integer
    fixed-point lift must match bit-for-bit)."""
    import duckdb

    from dygiepp_ray.pipelines.queries import (
        SQL_KG_COOCCURRENCE,
        q_kg_cooccurrence,
    )

    sf = "/root/testdata/sf0.001"
    got = q_kg_cooccurrence(sf).to_pandas()
    got = got.sort_values(["surface_a", "surface_b"], ignore_index=True)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'"
    )
    want = con.execute(SQL_KG_COOCCURRENCE).fetchdf().sort_values(
        ["surface_a", "surface_b"], ignore_index=True
    )
    assert len(got) > 0
    got = got.astype({"surface_a": object, "surface_b": object})
    pd.testing.assert_frame_equal(got, want)
