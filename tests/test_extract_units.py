"""Hand-computed extraction expectations on tiny documents (reference
test style: dygie/tests/data/dygie_test.py:24-97)."""

import pyarrow as pa

import ray.data as rd

from dygiepp_ray import semantics as S
from dygiepp_ray.pipelines.kg import KGPipeline


def _run(texts, ray_session=None):
    tbl = pa.table(
        {
            "conv_id": ["c1"] * len(texts),
            "turn_idx": pa.array(range(len(texts)), pa.int32()),
            "role": ["user"] * len(texts),
            "text": texts,
        }
    )
    pipe = KGPipeline(rd.from_arrow(tbl), num_buckets=1)
    return pipe, pipe.predicted.to_pandas().iloc[0]


def test_simple_relation(ray_session):
    # "spark join table" -> mention TOOL(0,0), DATA(2,2); relation join;
    # event trigger join with AGENT spark / PATIENT table
    pipe, d = _run(["spark join table"])
    ner = [(m["start"], m["end"], m["label"]) for m in d["ner"]]
    assert ner == [(0, 0, "TOOL"), (2, 2, "DATA")]
    rel = [(m["s1"], m["e1"], m["s2"], m["e2"], m["label"]) for m in d["relations"]]
    assert rel == [(0, 0, 2, 2, "join")]
    trig = [(m["tok"], m["label"]) for m in d["triggers"]]
    assert trig == [(1, "join")]
    args = [(m["start"], m["end"], m["role"]) for m in d["event_args"]]
    assert sorted(args) == [(0, 0, "AGENT"), (2, 2, "PATIENT")]


def test_multi_token_span(ray_session):
    # width-2 phrase mention + relation from a phrase subject
    pipe, d = _run(["acme corp scan stream"])
    ner = [(m["start"], m["end"], m["label"], m["surface"]) for m in d["ner"]]
    assert (0, 1, "ORG", "acme corp") in ner
    rel = [(m["s1"], m["e1"], m["s2"], m["e2"], m["label"]) for m in d["relations"]]
    assert (0, 1, 3, 3, "scan") in rel


def test_no_cross_sentence_relation(ray_session):
    # subj at end of turn 0, obj at start of turn 1: adjacency in doc
    # coordinates but NOT within one sentence -> no relation
    pipe, d = _run(["filler spark", "join table"])
    assert len(d["relations"]) == 0
    # mentions still found in both sentences (doc-level offsets)
    ner = [(m["start"], m["end"], m["label"]) for m in d["ner"]]
    assert (1, 1, "TOOL") in ner and (3, 3, "DATA") in ner


def test_no_phrase_across_sentence_boundary(ray_session):
    # "acme" ends turn 0, "corp" starts turn 1 -> no width-2 mention
    pipe, d = _run(["x acme", "corp y"])
    assert len(d["ner"]) == 0


def test_coref_same_surface_clusters(ray_session):
    pipe, d = _run(["spark a b", "c spark d", "table z"])
    cl = {}
    for m in d["cluster_members"]:
        cl.setdefault(m["cluster_ix"], []).append((m["start"], m["end"], m["surface"]))
    assert len(cl) == 1  # 'table' appears once -> no cluster
    members = sorted(cl[0])
    assert members == [(0, 0, "spark"), (4, 4, "spark")]


def test_argument_distance_window(ray_session):
    # entity 5 tokens before the trigger: outside ARG_MAX_DIST=3
    pipe, d = _run(["spark a a a a join"])
    assert [(m["tok"], m["label"]) for m in d["triggers"]] == [(5, "join")]
    assert len(d["event_args"]) == 0


def test_decode_score_constants(ray_session):
    # softmax must equal the shared decode path's value, rounded to 4
    pipe, d = _run(["spark join table"])
    m = d["ner"][0]
    arg, raw, soft = S.softmax_with_dummy(S.ner_raw_scores("spark"))
    assert float(m["raw"]) == S.round_score(raw)
    assert abs(float(m["softmax"]) - S.round_score(soft)) < 1e-6


def test_reference_mode_honors_task_toggles(ray_session):
    # the reference-control-flow path must skip disabled tasks like
    # ExtractStage does (reader review r3): tasks=('ner',) with top-k
    # pruning routes to ReferenceModeExtract and must emit ONLY ner
    from dataclasses import replace

    from dygiepp_ray.semantics import DEFAULT_CONFIG
    from dygiepp_ray.stages.assemble import assemble_documents
    from dygiepp_ray.stages.extract import extract

    tbl = pa.table(
        {
            "conv_id": ["c1"],
            "turn_idx": pa.array([0], pa.int32()),
            "role": ["user"],
            "text": ["spark join table"],
        }
    )
    cfg = replace(DEFAULT_CONFIG, entity_beam=False, tasks=("ner",))
    docs = assemble_documents(rd.from_arrow(tbl), cfg, num_buckets=1)
    out = extract(docs, cfg).to_pandas()
    assert "ner" in out.columns
    for col in ("relations", "triggers", "event_args", "cluster_members"):
        assert col not in out.columns
    ner = [(m["start"], m["end"], m["label"]) for m in out.iloc[0]["ner"]]
    assert ner == [(0, 0, "TOOL"), (2, 2, "DATA")]


def test_extract_clamps_oversized_actor_pool(ray_session):
    """An actor pool as wide as the CPU budget deadlocks the streaming
    executor (starves the read stage); extract() must clamp and finish.
    Without the clamp this test HANGS at the 4-CPU session."""
    texts = ["spark join table", "user filter logs", "spark group rows"]
    tbl = pa.table(
        {
            "conv_id": [f"c{i}" for i in range(len(texts))],
            "turn_idx": pa.array([0] * len(texts), pa.int32()),
            "role": ["user"] * len(texts),
            "text": texts,
        }
    )
    pipe = KGPipeline(
        rd.from_arrow(tbl), num_buckets=2, extract_concurrency=64
    )
    assert pipe.mentions.count() > 0


def test_overlapping_spans_match_oracle(monkeypatch):
    """A unigram and a bigram that share a start token, and objects
    starting where two mentions start: every mention, relation, event
    argument and cluster equals the oracle's (the shipped lexicon never
    overlaps, so only this input reaches the shared-start expansion)."""
    from dygiepp_ray import oracle
    from dygiepp_ray.semantics import DEFAULT_CONFIG
    from dygiepp_ray.stages.assemble import assemble_bucket
    from dygiepp_ray.stages.extract import ExtractStage

    monkeypatch.setattr(S, "ENTITY_LEXICON", {
        **S.ENTITY_LEXICON, "spark stream": "TOOL", "table row": "DATA",
    })
    monkeypatch.setattr(S, "LEXICON_WIDTHS", (1, 2))
    texts = ["spark stream join table row", "x spark stream", "table row sort row"]
    tbl = pa.table({
        "conv_id": ["c1"] * len(texts),
        "turn_idx": pa.array(range(len(texts)), pa.int32()),
        "role": ["user"] * len(texts),
        "text": texts,
    })
    got = ExtractStage(DEFAULT_CONFIG)(assemble_bucket(tbl, DEFAULT_CONFIG)).to_pylist()
    want = oracle.extract_all(tbl.to_pylist(), DEFAULT_CONFIG)
    assert len(got) == len(want) == 1
    d, o = got[0], want[0]
    ner = [(m["start"], m["end"], m["label"]) for m in d["ner"]]
    assert ner == [(a, b, lab) for sent in o.ner for (a, b, lab, _r, _s) in sent]
    assert (0, 0, "TOOL") in ner and (0, 1, "TOOL") in ner
    rel = [(m["s1"], m["e1"], m["s2"], m["e2"], m["label"]) for m in d["relations"]]
    assert rel == [r[:5] for sent in o.relations for r in sent]
    # both subjects ending at token 1 meet both objects starting at 3
    assert [r for r in rel if r[2] == 3] == [
        (0, 1, 3, 3, "join"), (0, 1, 3, 4, "join"),
        (1, 1, 3, 3, "join"), (1, 1, 3, 4, "join"),
    ]
    args = [(m["trig_tok"], m["start"], m["end"], m["role"]) for m in d["event_args"]]
    assert args == [(ev["trigger"][0], a, b, role) for sent in o.events
                    for ev in sent for (a, b, role) in ev["args"]]
    clusters = {}
    for m in d["cluster_members"]:
        clusters.setdefault(m["cluster_ix"], []).append((m["start"], m["end"]))
    assert sorted(clusters.values()) == o.clusters
