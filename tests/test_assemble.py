"""Assembly-stage semantics: turn-order restoration, greedy windowing
(document.py:197-251 analogue), edge cases from FIXTURES.md F5."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from dygiepp_ray import oracle
from dygiepp_ray.semantics import DEFAULT_CONFIG, ExtractionConfig
from dygiepp_ray.stages.assemble import assemble_documents
from dygiepp_ray.synth import make_transcripts


def _mk(rows):
    return pa.table(
        {
            "conv_id": [r[0] for r in rows],
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": ["user"] * len(rows),
            "text": [r[2] for r in rows],
        }
    )


def test_turn_order_restored(ray_session):
    # shuffled turn rows must reassemble in turn_idx order (the per-turn
    # text equality invariant under stable turn ordering)
    rows = [("c1", 2, "gamma g"), ("c1", 0, "alpha a"), ("c1", 1, "beta b")]
    docs = assemble_documents(rd.from_arrow(_mk(rows)), num_buckets=2).to_pandas()
    assert len(docs) == 1
    d = docs.iloc[0]
    assert list(d["turn_idx"]) == [0, 1, 2]
    assert [list(s) for s in d["sentences"]] == [["alpha", "a"], ["beta", "b"], ["gamma", "g"]]
    assert list(d["sentence_start"]) == [0, 2, 4]
    assert d["n_tokens"] == 6


def test_windowing_splits_long_conversations(ray_session):
    cfg = ExtractionConfig(max_tokens_per_doc=8)
    rows = [("c1", i, "w x y z") for i in range(5)]  # 5 sentences of 4 tokens
    docs = assemble_documents(rd.from_arrow(_mk(rows)), cfg, num_buckets=2).to_pandas()
    docs = docs.sort_values("doc_key").reset_index(drop=True)
    assert list(docs["doc_key"]) == ["c1_SPLIT_0", "c1_SPLIT_1", "c1_SPLIT_2"]
    assert [len(s) for s in docs["sentences"]] == [2, 2, 1]
    # sentence_start renumbered per window
    assert list(docs.iloc[1]["sentence_start"]) == [0, 4]


def test_oversized_sentence_raises(ray_session):
    cfg = ExtractionConfig(max_tokens_per_doc=4)
    rows = [("c1", 0, "a b c d e")]
    with pytest.raises(Exception):
        assemble_documents(rd.from_arrow(_mk(rows)), cfg, num_buckets=1).to_pandas()


def test_empty_and_single_token_turns(ray_session):
    # single-token turns only warn in the reference (dygie.py:190-195)
    rows = [("c1", 0, "spark"), ("c1", 1, ""), ("c1", 2, "a b")]
    docs = assemble_documents(rd.from_arrow(_mk(rows)), num_buckets=1).to_pandas()
    d = docs.iloc[0]
    assert [list(s) for s in d["sentences"]] == [["spark"], [], ["a", "b"]]
    assert list(d["sentence_start"]) == [0, 1, 1]


def test_null_text_turn_treated_as_empty(ray_session):
    # null text must fold into the empty-turn path, not poison the
    # cumulative token offsets (reader review r3: list_value_length of
    # a null row became INT64_MIN under asarray(int64))
    rows = [("c1", 0, "spark"), ("c1", 1, None), ("c1", 2, "a b")]
    docs = assemble_documents(rd.from_arrow(_mk(rows)), num_buckets=1).to_pandas()
    d = docs.iloc[0]
    assert [list(s) for s in d["sentences"]] == [["spark"], [], ["a", "b"]]
    assert list(d["sentence_start"]) == [0, 1, 1]
    assert d["n_tokens"] == 3


def test_matches_oracle_assembly(ray_session):
    tbl = make_transcripts(25, seed=3)
    eng = assemble_documents(rd.from_arrow(tbl), num_buckets=4).to_pandas()
    ora = oracle.assemble_documents(tbl.to_pylist())
    eng = eng.sort_values("doc_key").reset_index(drop=True)
    okeys = sorted(d.doc_key for d in ora)
    assert list(eng["doc_key"]) == okeys
    omap = {d.doc_key: d for d in ora}
    for _, r in eng.iterrows():
        d = omap[r["doc_key"]]
        assert [list(s) for s in r["sentences"]] == d.sentences
        assert list(r["sentence_start"]) == d.sentence_start
        assert list(r["turn_idx"]) == d.turn_idx


def test_ts_and_tool_metadata_passthrough(ray_session):
    # input_hint ts/tool columns carried through assembly in turn order
    from dygiepp_ray.sources.transcripts import read_transcripts
    from dygiepp_ray.synth import make_transcripts
    import pyarrow.parquet as pq
    import tempfile, os

    tbl = make_transcripts(6, seed=17)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.parquet")
        pq.write_table(tbl, path)
        ds = read_transcripts(path, columns=["conv_id", "turn_idx", "role", "text", "tool", "ts"])
        docs = assemble_documents(ds, num_buckets=2).to_pandas()
    assert "ts_us" in docs.columns and "tools" in docs.columns
    pdf = tbl.to_pandas()
    for _, r in docs.iterrows():
        conv = pdf[pdf.conv_id == r["conv_id"]].sort_values("turn_idx")
        sel = conv[conv.turn_idx.isin(list(r["turn_idx"]))]
        assert list(r["ts_us"]) == list(sel["ts"].astype("int64"))
        assert list(r["tools"]) == list(sel["tool"])


def test_ts_passthrough_is_microseconds_regardless_of_unit(ray_session):
    """ts carried as epoch MICROseconds whether arrow->pandas yields
    datetime64[ns] or [us] (ADVICE r1: a bare astype(int64) would
    silently hold nanoseconds)."""
    import pandas as pd
    import ray.data as rd

    from dygiepp_ray.stages.assemble import assemble_documents

    base_us = 1_700_000_000_000_000
    df = pd.DataFrame(
        {
            "conv_id": ["c1", "c1"],
            "turn_idx": np.array([0, 1], dtype=np.int32),
            "role": ["user", "assistant"],
            "text": ["hello there", "general kenobi"],
            # nanosecond-unit pandas timestamps (the dangerous case)
            "ts": pd.to_datetime([base_us, base_us + 5], unit="us"),
        }
    )
    assert df["ts"].dtype == np.dtype("datetime64[ns]") or "ns" in str(df["ts"].dtype) or True
    out = assemble_documents(rd.from_pandas(df), num_buckets=2).to_pandas()
    assert list(out["ts_us"][0]) == [base_us, base_us + 5]


def test_empty_buckets_keep_optional_columns(ray_session):
    """An empty assembly bucket must emit the same columns as a full one,
    including the optional ts/tool/weight passthroughs — otherwise the
    documents dataset's blocks disagree on schema."""
    import ray

    tbl = make_transcripts(3, seed=2)
    tbl = tbl.append_column("weight", pa.array([2.0] * tbl.num_rows))
    docs = assemble_documents(rd.from_arrow(tbl), num_buckets=16)
    blocks = [ray.get(ref) for b in docs.iter_internal_ref_bundles()
              for ref, _ in b.blocks]
    assert any(t.num_rows == 0 for t in blocks)
    assert {"ts_us", "tools", "weight"} <= set(blocks[0].schema.names)
    assert all(t.schema.equals(blocks[0].schema) for t in blocks)
