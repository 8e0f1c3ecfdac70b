"""Resume without recomputation: ``run_all`` decides per table from the
checkpoint manifests, extracts only the conversations whose partitions
were lost, and a killed write (orphan ``part=N.tmp``, ``part=N`` without
a manifest) is rewritten exactly.  ``run_all``'s fused write (one
conv_id exchange that also writes the triples and clusters partitions)
matches ``write_partitioned`` over the lazily built lineage, in at most
three exchanges.  Also the manifest and reader primitives of
``state/checkpoint.py`` and the Ray-free ``kg_lookup``."""

import json
import os
import shutil
from dataclasses import replace

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from dygiepp_ray.core import hash_exchange, stable_bucket
from dygiepp_ray.pipelines import kg
from dygiepp_ray.pipelines.kg import KGPipeline
from dygiepp_ray.semantics import DEFAULT_CONFIG
from dygiepp_ray.state import checkpoint as C
from dygiepp_ray.synth import make_transcripts

NP = 4  # run_all partitions (entities get max(4, NP // 8) = 4)
TABLES = ("triples", "entities", "clusters")
NO_COREF = replace(DEFAULT_CONFIG, tasks=("ner", "relations", "events"))


def _parts(table_dir: str) -> dict[int, dict]:
    out = {}
    for b in C.completed_partitions(table_dir):
        with open(C._part_manifest(table_dir, b)) as f:
            out[b] = json.load(f)
    return out


def _content(table_dir: str) -> dict[int, tuple]:
    """Per-partition (rows, order-insensitive fingerprint)."""
    return {b: (m["rows"], m["fingerprint"]) for b, m in _parts(table_dir).items()}


def _ts(table_dir: str) -> dict[int, float]:
    return {b: m["ts"] for b, m in _parts(table_dir).items()}


@pytest.fixture()
def extracted(monkeypatch):
    """The transcripts Dataset entering every conv_id exchange of
    ``run_all``: that exchange's tasks assemble and extract, so its
    input is exactly what gets extracted."""
    seen = []
    real = kg.hash_exchange

    def spy(ds, key, *a, **kw):
        if key == "conv_id":
            seen.append(ds)
        return real(ds, key, *a, **kw)

    monkeypatch.setattr(kg, "hash_exchange", spy)
    return seen


def _seen(extracted) -> tuple[list[str], int]:
    """The conversations and the turn count of every spied input."""
    frames = [d.to_pandas() for d in extracted]
    convs = sorted({c for f in frames for c in f["conv_id"]})
    return convs, sum(len(f) for f in frames)


def _turns_in(tbl, buckets, num_partitions: int) -> tuple[list[str], int]:
    """The conversations (and their turn count) of ``tbl`` that hash to
    ``buckets``."""
    conv = tbl["conv_id"].to_numpy(zero_copy_only=False)
    hit = np.isin(stable_bucket(conv, num_partitions), list(buckets))
    return sorted(set(conv[hit])), int(hit.sum())


@pytest.fixture(scope="module")
def clean(ray_session, tmp_path_factory):
    """One clean graph store, its per-table content and the
    conversations (and turn count) of any set of triples partitions."""
    tbl = make_transcripts(16, seed=41)
    out = str(tmp_path_factory.mktemp("clean") / "graph")
    KGPipeline(rd.from_arrow(tbl), num_buckets=4).run_all(out, NP)
    content = {t: _content(os.path.join(out, t)) for t in TABLES}
    # every damage case below hits a non-empty partition
    assert all(sorted(content[t]) == list(range(NP)) for t in TABLES)
    return {
        "tbl": tbl,
        "out": out,
        "content": content,
        "turns_in": lambda buckets: _turns_in(tbl, buckets, NP),
    }


def _copy(clean, tmp_path) -> str:
    out = str(tmp_path / "graph")
    shutil.copytree(clean["out"], out)
    return out


def _assert_same_store(out, clean):
    for t in TABLES:
        assert _content(os.path.join(out, t)) == clean["content"][t], t
        assert not [d for d in os.listdir(os.path.join(out, t)) if d.endswith(".tmp")]


def test_clean_build_lists_its_parts(clean):
    for t in TABLES:
        tdir = os.path.join(clean["out"], t)
        with open(os.path.join(tdir, "_MANIFEST.json")) as f:
            run = json.load(f)
        assert run["parts"] == sorted(clean["content"][t])
        assert run["partitions"] == len(run["parts"])
    # triples and clusters share conv_id partition ids
    with open(os.path.join(clean["out"], "clusters", "_MANIFEST.json")) as f:
        assert json.load(f)["key"] == "conv_id"


def test_resume_extracts_only_lost_conversations(clean, tmp_path, extracted):
    out = _copy(clean, tmp_path)
    tdir = os.path.join(out, "triples")
    lost = sorted(clean["content"]["triples"])[:2]
    for b in lost:
        os.remove(C._part_manifest(tdir, b))
    before = _ts(tdir)
    m = KGPipeline(rd.from_arrow(clean["tbl"]), num_buckets=4).run_all(out, NP)

    assert _seen(extracted) == clean["turns_in"](lost)
    after = _ts(tdir)
    assert sorted(b for b in after if before.get(b) != after[b]) == lost
    assert m["triples"]["rows_written"] == sum(
        clean["content"]["triples"][b][0] for b in lost)
    assert m["entities"]["rows_written"] == m["clusters"]["rows_written"] == 0
    assert m["triples"]["parts"] == sorted(clean["content"]["triples"])
    assert m["triples"]["skipped"] == NP - len(lost)
    _assert_same_store(out, clean)


def test_complete_store_reads_no_input(clean, tmp_path, extracted):
    def boom(batch):
        raise RuntimeError("a complete store must not read its input")

    src = rd.from_arrow(clean["tbl"]).map_batches(boom, batch_format="pyarrow")
    m = KGPipeline(src, num_buckets=4).run_all(_copy(clean, tmp_path), NP)
    assert sorted(m) == sorted(TABLES)
    for t in TABLES:
        assert m[t]["rows_written"] == 0
        assert m[t]["skipped"] == m[t]["partitions"] == len(clean["content"][t])
    assert extracted == []


def _orphan_tmp(tdir: str, b: int) -> None:
    """A write killed between its data and its rename: the data lies in
    part=N.tmp and neither part=N nor its manifest exists."""
    os.remove(C._part_manifest(tdir, b))
    os.replace(C._part_dir(tdir, b), C._part_dir(tdir, b) + ".tmp")


def _no_manifest(tdir: str, b: int) -> None:
    """A write killed between its rename and its manifest."""
    os.remove(C._part_manifest(tdir, b))


@pytest.mark.parametrize("damage", [
    {"triples": [(0, _orphan_tmp)]},
    {"triples": [(1, _no_manifest)]},
    {"triples": [(2, _no_manifest)], "clusters": [(3, _orphan_tmp)]},
], ids=["orphan_tmp", "no_manifest", "triples_and_clusters"])
def test_kill_mid_write_rewrites_exactly_the_damage(clean, tmp_path, extracted, damage):
    out = _copy(clean, tmp_path)
    before = {t: _ts(os.path.join(out, t)) for t in TABLES}
    for t, hits in damage.items():
        for b, hit in hits:
            hit(os.path.join(out, t), b)
    m = KGPipeline(rd.from_arrow(clean["tbl"]), num_buckets=4).run_all(out, NP)

    lost = {b for hits in damage.values() for b, _ in hits}
    assert _seen(extracted) == clean["turns_in"](lost)
    for t in TABLES:
        after = _ts(os.path.join(out, t))
        rewritten = sorted(b for b in after if before[t].get(b) != after[b])
        assert rewritten == sorted(b for b, _ in damage.get(t, [])), t
        if t not in damage:
            assert m[t]["rows_written"] == 0
    _assert_same_store(out, clean)


def test_lost_entity_partition_reruns_full_extraction(clean, tmp_path, extracted):
    out = _copy(clean, tmp_path)
    edir = os.path.join(out, "entities")
    victim = sorted(clean["content"]["entities"])[0]
    os.remove(C._part_manifest(edir, victim))
    before = _ts(edir)
    m = KGPipeline(rd.from_arrow(clean["tbl"]), num_buckets=4).run_all(out, NP)
    assert _seen(extracted) == clean["turns_in"](range(NP))
    after = _ts(edir)
    assert [b for b in after if before.get(b) != after[b]] == [victim]
    assert m["triples"]["rows_written"] == m["clusters"]["rows_written"] == 0
    _assert_same_store(out, clean)


def test_resume_without_coref(ray_session, tmp_path, extracted):
    cfg = NO_COREF
    tbl = make_transcripts(8, seed=7)
    out = str(tmp_path / "graph")
    KGPipeline(rd.from_arrow(tbl), cfg, num_buckets=2).run_all(out, 2)
    tdir = os.path.join(out, "triples")
    content = _content(tdir)
    lost = sorted(content)[0]
    os.remove(C._part_manifest(tdir, lost))
    extracted.clear()
    m = KGPipeline(rd.from_arrow(tbl), cfg, num_buckets=2).run_all(out, 2)
    assert "clusters" not in m
    assert not os.path.exists(os.path.join(out, "clusters"))
    assert m["triples"]["rows_written"] == content[lost][0]
    assert m["entities"]["rows_written"] == 0
    assert _content(tdir) == content
    assert _seen(extracted) == _turns_in(tbl, [lost], 2)


@pytest.mark.parametrize("cfg, n_convs, num_partitions", [
    (DEFAULT_CONFIG, 12, 4),
    (NO_COREF, 12, 4),
    # more partitions than conversations: most buckets are empty
    (DEFAULT_CONFIG, 3, 16),
], ids=["coref", "no_coref", "empty_buckets"])
def test_run_all_matches_lineage_writes(ray_session, tmp_path, cfg, n_convs,
                                        num_partitions):
    """The fused run_all writes the same partitions, rows and
    fingerprints as write_partitioned over the lazily built tables."""
    tbl = make_transcripts(n_convs, seed=23)
    fused_dir = str(tmp_path / "fused")
    fused = KGPipeline(rd.from_arrow(tbl), cfg, num_buckets=2).run_all(
        fused_dir, num_partitions)
    pipe = KGPipeline(rd.from_arrow(tbl), cfg, num_buckets=2)
    lineage = {
        "triples": (pipe.triples(), "conv_id", num_partitions),
        "entities": (pipe.entities(), "surface", max(4, num_partitions // 8)),
    }
    if "coref" in cfg.tasks:
        lineage["clusters"] = (pipe.clusters, "conv_id", num_partitions)
    assert sorted(fused) == sorted(lineage)
    for t, (ds, key, n) in lineage.items():
        ref_dir = str(tmp_path / "lineage" / t)
        assert fused[t] == C.write_partitioned(ds, ref_dir, key, n), t
        got = _content(os.path.join(fused_dir, t))
        assert got == _content(ref_dir), t
        # an empty bucket writes no partition and is not listed
        assert sorted(got) == fused[t]["parts"]
        assert all(rows for rows, _ in got.values())
        assert sorted(d for d in os.listdir(os.path.join(fused_dir, t))
                       if os.path.isdir(os.path.join(fused_dir, t, d))) == [
            f"part={b:05d}" for b in fused[t]["parts"]]
    if num_partitions > n_convs:
        assert len(fused["triples"]["parts"]) <= n_convs


def test_collated_run_all_matches_direct(ray_session, tmp_path):
    """The collated path writes the lazily built tables one by one; its
    store equals the direct path's fused store, partition by partition."""
    tbl = make_transcripts(12, seed=3)
    direct, collated = str(tmp_path / "direct"), str(tmp_path / "collated")
    KGPipeline(rd.from_arrow(tbl), num_buckets=2).run_all(direct, NP)
    m = KGPipeline(rd.from_arrow(tbl), num_buckets=2, collate_extract=True,
                   extract_concurrency=2).run_all(collated, NP)
    assert sorted(m) == sorted(TABLES)
    for t in TABLES:
        assert _content(os.path.join(collated, t)) == _content(os.path.join(direct, t)), t


def test_exchange_counts(ray_session, tmp_path, monkeypatch):
    """A clean run_all runs at most 3 exchanges, a triples-only resume
    1 and save_kg_store 1 (each side of a coexchange would count)."""
    from dygiepp_ray import core
    from dygiepp_ray.stages.triples import TRIPLE_KEY
    from dygiepp_ray.state.kgstore import save_kg_store

    keys = []
    real = core._stream_gens

    def spy(blocks, key, *a, **kw):
        keys.append(key)
        return real(blocks, key, *a, **kw)

    monkeypatch.setattr(core, "_stream_gens", spy)
    tbl = make_transcripts(12, seed=29)
    out = str(tmp_path / "graph")
    KGPipeline(rd.from_arrow(tbl), num_buckets=4).run_all(out, NP)
    assert len(keys) <= 3, keys
    tdir = os.path.join(out, "triples")
    os.remove(C._part_manifest(tdir, sorted(C.completed_partitions(tdir))[0]))
    keys.clear()
    m = KGPipeline(rd.from_arrow(tbl), num_buckets=4).run_all(out, NP)
    assert keys == ["conv_id"]
    assert m["triples"]["rows_written"] > 0
    keys.clear()
    save_kg_store(C.read_partitioned(tdir).select_columns(TRIPLE_KEY),
                  str(tmp_path / "store"), num_buckets=4)
    assert keys == ["subj"]


def test_retried_bucket_leaves_store_unchanged(ray_session, tmp_path):
    """A bucket task whose worker dies right after ``write_part`` is run
    again by Ray's default task retry, and the partition it rewrites
    equals a clean write: ``_MANIFEST.json`` with its ``parts``, and
    every part's rows and fingerprint.  One worker is killed, once."""
    df = pd.DataFrame({"conv_id": [f"c{i % 10}" for i in range(100)], "v": range(100)})
    flag = str(tmp_path / "killed")

    def write(out_dir: str, kill: bool) -> dict:
        # the calls _run_all_direct makes for its fused triples write
        done = C.prepare_table(out_dir, "conv_id", NP)

        def bucket(rows: pa.Table) -> pa.Table:
            C.write_part(rows, out_dir, "conv_id", NP, done)
            if kill and rows.num_rows:
                try:  # O_EXCL: only the first writer to get here dies
                    os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    os._exit(1)
            return pa.table({})

        hash_exchange(rd.from_pandas(df), "conv_id", bucket, num_buckets=NP,
                      fn_format="pyarrow")
        C.finish_table(out_dir, "conv_id", NP, done)
        with open(os.path.join(out_dir, "_MANIFEST.json")) as f:
            return json.load(f)

    clean_dir, retried_dir = str(tmp_path / "clean"), str(tmp_path / "retried")
    clean = write(clean_dir, kill=False)
    assert clean["parts"] == list(range(NP))
    retried = write(retried_dir, kill=True)
    assert os.path.exists(flag)  # a worker did die mid-exchange
    assert retried == clean
    assert _content(retried_dir) == _content(clean_dir)
    assert not [d for d in os.listdir(retried_dir) if d.endswith(".tmp")]


def test_retried_graph_bucket_leaves_store_unchanged(clean, tmp_path, monkeypatch):
    """A ``run_all`` bucket whose worker dies after the fused body has
    written its triples and clusters partitions is run again by Ray's
    default task retry, and the store equals a clean build: every
    table's ``_MANIFEST.json``, and every part's rows and fingerprint.
    One worker is killed, once."""
    flag = str(tmp_path / "killed")
    real = kg._graph_bucket

    def killing(tbl, **kw):
        out = real(tbl, **kw)
        if tbl.num_rows:
            try:  # O_EXCL: only the first bucket to get here dies
                os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os._exit(1)
        return out

    monkeypatch.setattr(kg, "_graph_bucket", killing)
    out = str(tmp_path / "graph")
    KGPipeline(rd.from_arrow(clean["tbl"]), num_buckets=4).run_all(out, NP)
    assert os.path.exists(flag)  # a worker did die inside the exchange
    for t in TABLES:
        with open(os.path.join(out, t, "_MANIFEST.json")) as f:
            got = json.load(f)
        with open(os.path.join(clean["out"], t, "_MANIFEST.json")) as f:
            assert got == json.load(f), t
    _assert_same_store(out, clean)


@pytest.fixture()
def small_ds(ray_session):
    df = pd.DataFrame({"conv_id": [f"c{i % 10}" for i in range(100)], "v": range(100)})
    return rd.from_pandas(df)


def test_read_partitioned_skips_orphan_tmp(small_ds, tmp_path):
    out = str(tmp_path / "t")
    C.write_partitioned(small_ds, out, "conv_id", num_partitions=4)
    b = sorted(C.completed_partitions(out))[0]
    shutil.copytree(C._part_dir(out, b), C._part_dir(out, b) + ".tmp")
    assert C.read_partitioned(out).count() == 100


def test_complete_manifest(small_ds, tmp_path):
    out = str(tmp_path / "t")
    assert C.complete_manifest(out, "conv_id", 4) is None  # no _MANIFEST.json
    run = C.write_partitioned(small_ds, out, "conv_id", num_partitions=4)
    assert run["parts"] == sorted(C.completed_partitions(out))
    assert not [f for f in os.listdir(out) if f.endswith(".tmp")]
    assert C.complete_manifest(out, "conv_id", 4) == dict(
        run, rows_written=0, skipped=len(run["parts"]))
    assert C.complete_manifest(out, "v", 4) is None
    assert C.complete_manifest(out, "conv_id", 8) is None
    assert C.missing_partitions(out, "conv_id", 4) == set()
    victim = run["parts"][0]
    os.remove(C._part_manifest(out, victim))
    assert C.complete_manifest(out, "conv_id", 4) is None
    assert C.missing_partitions(out, "conv_id", 4) == {victim}
    # the rewrite lists the skipped parts as well as the rewritten one
    again = C.write_partitioned(small_ds, out, "conv_id", num_partitions=4)
    assert again["parts"] == run["parts"]
    assert again["skipped"] == len(run["parts"]) - 1


def test_kg_lookup_empty_results_keep_store_schema(ray_session, tmp_path):
    from dygiepp_ray.state.kgstore import STORE_SCHEMA, kg_lookup

    nb = 16
    rows = pd.DataFrame({"subj": ["alpha", "beta"], "pred": ["p", "q"],
                         "obj": ["x", "y"], "n_convs": np.array([2, 1], np.int64)})
    path = str(tmp_path / "store")
    C.write_partitioned(rd.from_pandas(rows), path, "subj", num_partitions=nb)
    written = C.completed_partitions(path)
    names = [f"s{i}" for i in range(200)]
    buckets = stable_bucket(names, nb)
    in_written = next(n for n, b in zip(names, buckets) if b in written)
    in_empty = next(n for n, b in zip(names, buckets) if b not in written)
    want = STORE_SCHEMA.empty_table().to_pandas()
    for subject in (in_written, in_empty):
        got = kg_lookup(path, subject)
        assert len(got) == 0
        assert list(got.columns) == list(want.columns)
        assert got.dtypes.equals(want.dtypes)
    hit = kg_lookup(path, "alpha")
    pd.testing.assert_frame_equal(hit, rows.iloc[:1])
