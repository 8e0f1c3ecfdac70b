"""The two workloads of the KG-pipeline benchmark.

Each workload drives the engine's public API from this one benchmark
process, one operation at a time (a closed loop with one client):

* ``triples_stream`` — ``KGPipeline(read_transcripts(corpus)).triples()``
  fully consumed: the assembly exchange, extraction, explode and the
  block-local triple dedup.
* ``graph_build`` — one crash-recovery-and-serve cycle per operation:
  ``run_all`` into a fresh directory, the loss of a seed-chosen half of
  the triples partition manifests, ``run_all`` again (resume), then
  ``save_kg_store`` over the written triples and a fixed, seed-chosen
  list of ``kg_lookup`` calls.

An operation returns ``(seconds, payload)``: the seconds are timed around
the engine calls only, and ``check(payload)`` runs afterwards, outside
every timed span.  ``traced_op`` runs the same work with the lineage cut
by ``.materialize()`` at each public stage call, recording one span per
call; it returns ``(seconds, (root span ids, payload))``, and the check's
own reads lie outside every root span.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time
from contextlib import nullcontext

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from dygiepp_ray import oracle
from dygiepp_ray.core import stable_bucket
from dygiepp_ray.functions.metrics import triple_counts
from dygiepp_ray.pipelines.kg import KGPipeline
from dygiepp_ray.sources.transcripts import read_transcripts
from dygiepp_ray.stages import explode
from dygiepp_ray.stages.assemble import assemble_documents
from dygiepp_ray.stages.canonicalize import canonicalize
from dygiepp_ray.stages.extract import extract
from dygiepp_ray.stages.triples import triples_local_dedup
from dygiepp_ray.state.checkpoint import (completed_partitions, read_partitioned,
                                          write_partitioned)
from dygiepp_ray.state.kgstore import kg_lookup, save_kg_store
from dygiepp_ray.synth import make_transcripts

from kgperf.harness import Tracer, p50

TRIPLE_KEY = ["conv_id", "subj", "pred", "obj"]
CORPUS_FILES = 8
ORACLE_SAMPLE = 150          # conversations checked against the oracle
WARM_TURNS = 600             # corpus prefix of the set-up's warm-up job
STORE_CHECK_COLS = ["subj", "pred", "obj", "n_convs"]

# span name -> per-layer time metric
SPAN_METRIC = {
    "sources": "sources.read_s",
    "assemble": "assemble.s",
    "extract": "extract.s",
    "explode": "explode.s",
    "triples": "triples.s",
    "canonicalize": "canonicalize.s",
    "checkpoint.write": "checkpoint.write_s",
    "checkpoint.resume": "checkpoint.resume_s",
    "kgstore.save": "kgstore.save_s",
    "kgstore.lookup": "kgstore.lookup_s",
}


# ---------------------------------------------------------------- helpers

def fingerprint(df: pd.DataFrame) -> str:
    """Order-insensitive content hash: sum of per-row hashes mod 2^64
    (duplicates accumulate instead of cancelling), plus the row count."""
    cols = sorted(df.columns)
    if len(df) == 0:
        return f"0:{','.join(cols)}"
    h = pd.util.hash_pandas_object(df[cols], index=False).to_numpy(np.uint64)
    with np.errstate(over="ignore"):
        total = int(np.add.reduce(h))
    return f"{len(df)}:{total:016x}"


def write_corpus(n_convs: int, seed: int, path: str) -> pa.Table:
    tbl = make_transcripts(n_convs, seed)
    os.makedirs(path)
    step = -(-tbl.num_rows // CORPUS_FILES)
    for i in range(CORPUS_FILES):
        pq.write_table(tbl.slice(i * step, step),
                       os.path.join(path, f"part-{i:02d}.parquet"))
    return tbl


def oracle_triples(tbl: pa.Table, convs: list[str]) -> list[tuple]:
    """(conv_id, subj, pred, obj) from the pure-Python oracle over the
    given conversations."""
    rows = tbl.filter(pc.is_in(tbl["conv_id"], pa.array(convs))).select(
        ["conv_id", "turn_idx", "role", "text"]).to_pylist()
    docs = oracle.extract_all(rows)
    return [(c, s, p, o) for (c, _si, s, p, _oi, o)
            in oracle.triples_from_docs(docs)]


def check_triples(df: pd.DataFrame, convs: list[str], gold: list[tuple]) -> list[str]:
    problems = []
    if df.duplicated(TRIPLE_KEY).any():
        problems.append("duplicate (conv_id, subj, pred, obj) triples")
    sub = df[df["conv_id"].isin(convs)]
    pred = list(zip(sub["conv_id"], sub["subj"], sub["pred"], sub["obj"]))
    p, r, _ = triple_counts(pred, gold).prf()
    if (p, r) != (1.0, 1.0):
        problems.append(f"oracle sample P/R = {p:.4f}/{r:.4f}")
    return problems


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0


def read_dir(path: str) -> pd.DataFrame:
    """Every parquet file under ``path``, read without Ray."""
    files = sorted(os.path.join(d, f) for d, _, fs in os.walk(path)
                   for f in fs if f.endswith(".parquet"))
    if not files:
        return pd.DataFrame()
    return pa.concat_tables(pq.read_table(f) for f in files).to_pandas()


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs
               if f.endswith(".parquet"))


def manifests(path: str) -> dict[int, dict]:
    out = {}
    for b in completed_partitions(path):
        with open(os.path.join(path, f"part={b:05d}.manifest.json")) as f:
            out[b] = json.load(f)
    return out


def block_rows(ds) -> list[int]:
    """Rows per block of a materialized dataset, from block metadata."""
    return [meta.num_rows for bundle in ds.iter_internal_ref_bundles()
            for _, meta in bundle.blocks]


def max_over_median(values: list[int]) -> float:
    values = [v for v in values if v]
    return max(values) / float(np.median(values)) if values else 0.0


def traced_stages(tracer: Tracer, corpus: str, num_buckets: int,
                  graph: bool = False) -> dict:
    """The triples path one public stage call at a time, each cut with
    ``.materialize()`` and recorded as a span.  ``graph`` also explodes
    mentions and clusters, as ``run_all`` does."""
    st = {}
    with tracer.span("sources"):
        st["src"] = read_transcripts(corpus).materialize()
    with tracer.span("assemble"):
        st["docs"] = assemble_documents(st["src"], num_buckets=num_buckets).materialize()
    with tracer.span("extract"):
        st["pred"] = extract(st["docs"]).materialize()
    with tracer.span("explode"):
        st["rel"] = explode.relations_table(st["pred"]).materialize()
        if graph:
            st["men"] = explode.mentions_table(st["pred"]).materialize()
            st["clu"] = explode.clusters_table(st["pred"]).materialize()
    with tracer.span("triples"):
        st["tri"] = triples_local_dedup(st["rel"]).materialize()
    return st


def stage_counts(st: dict) -> dict:
    """Per-layer counts of a ``traced_stages`` result, read from block
    metadata after the traced job (mentions, when the job did not explode
    them, cost one untimed extra pass)."""
    n_rel, n_tri = st["rel"].count(), st["tri"].count()
    men = st["men"] if "men" in st else explode.mentions_table(st["pred"])
    return {
        "sources.rows_out": st["src"].count(),
        "sources.bytes_out": st["src"].size_bytes(),
        "assemble.docs_out": st["docs"].count(),
        "assemble.bytes_out": st["docs"].size_bytes(),
        "core.bucket_rows_max_over_median": max_over_median(block_rows(st["docs"])),
        "extract.bytes_out": st["pred"].size_bytes(),
        "explode.relations_out": n_rel,
        "explode.mentions_out": men.count(),
        "triples.rows_in": n_rel,
        "triples.rows_out": n_tri,
        "triples.unique_ratio": n_tri / n_rel if n_rel else 0.0,
    }


class Workload:
    """Common shape: ``prepare`` (corpus and oracle, before Ray),
    ``setup`` (after Ray starts: a warm-up job over a small corpus),
    ``op`` / ``check``, ``traced_op`` and ``layer_metrics``.  Subclasses
    provide ``prepare_oracle``, ``warm_up``, ``op``, ``check``,
    ``traced_op``, ``layer_metrics`` and ``e2e``.

    ``num_buckets`` is the assembly exchange's bucket count.  At one CPU
    a job's time is mostly per-task overhead, so the buckets are sized
    to the corpus rather than left at the pipeline's default of 64."""

    name = ""
    default_convs = 0
    num_buckets: int
    op_deadline_s = 60.0

    def __init__(self, seed: int, work_dir: str, convs: int | None = None):
        self.seed = seed
        self.work = work_dir
        self.n_convs = convs or self.default_convs
        self.rng = random.Random(seed)
        self.corpus = os.path.join(work_dir, "corpus")
        self.layer: dict[str, float] = {}
        self.context: dict = {}

    def prepare(self) -> None:
        t0 = time.perf_counter()
        self.table = write_corpus(self.n_convs, self.seed, self.corpus)
        self.n_turns = self.table.num_rows
        self.context["corpus_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        self.prepare_oracle()
        self.context["oracle_s"] = time.perf_counter() - t0
        self.context.update(n_convs=self.n_convs, n_turns=self.n_turns)

    def setup(self) -> None:
        """Warm-up: the workload's own job over the corpus's first
        ``WARM_TURNS`` turns starts the workers and loads the engine in
        them, at a fraction of a measured job's cost."""
        warm = os.path.join(self.work, "warm")
        shutil.rmtree(warm, ignore_errors=True)
        os.makedirs(os.path.join(warm, "corpus"))
        pq.write_table(self.table.slice(0, WARM_TURNS),
                       os.path.join(warm, "corpus", "part.parquet"))
        self.warm_up(os.path.join(warm, "corpus"), warm)
        shutil.rmtree(warm)

    def sample_convs(self, k: int) -> list[str]:
        ids = sorted(set(self.table["conv_id"].to_pylist()))
        return sorted(self.rng.sample(ids, min(k, len(ids))))

    def finish_layers(self, tracer: Tracer, jobs: list[list[int]],
                      untraced: list[float]) -> None:
        """Median layer self times over the traced jobs (each job is one
        or more root spans), plus the trace totals."""
        per_job = []
        for roots in jobs:
            times: dict[str, float] = {}
            for r in roots:
                for span, t in tracer.self_times(r).items():
                    times[span] = times.get(span, 0.0) + t
            per_job.append(times)
        for span, metric in SPAN_METRIC.items():
            vals = [t.get(span, 0.0) for t in per_job]
            if any(vals):
                self.layer[metric] = p50(vals)
        walls = [sum(tracer.duration(r) for r in roots) for roots in jobs]
        sums = [sum(v for k, v in t.items() if k in SPAN_METRIC) for t in per_job]
        self.layer["trace.sum_s"] = p50(sums)
        self.layer["trace.unattributed_s"] = p50([w - s for w, s in zip(walls, sums)])
        self.layer["trace.overhead_s"] = p50(walls) - p50(untraced)
        self.layer["core.ray_workers_peak"] = tracer.workers_peak


# ---------------------------------------------------------------- triples_stream

class TriplesStream(Workload):
    name = "triples_stream"
    default_convs = 2000
    num_buckets = 16

    def prepare_oracle(self) -> None:
        self.sample = self.sample_convs(ORACLE_SAMPLE)
        self.gold = oracle_triples(self.table, self.sample)
        self.reference: str | None = None

    def triples(self, corpus: str) -> pd.DataFrame:
        return KGPipeline(read_transcripts(corpus),
                          num_buckets=self.num_buckets).triples().to_pandas()

    def warm_up(self, corpus: str, _work: str) -> None:
        self.triples(corpus)

    def op(self):
        t0 = time.perf_counter()
        df = self.triples(self.corpus)
        return time.perf_counter() - t0, df

    def check(self, df: pd.DataFrame) -> list[str]:
        problems = check_triples(df, self.sample, self.gold)
        fp = fingerprint(df)
        if self.reference is None:
            self.reference = fp
        elif fp != self.reference:
            problems.append("triples fingerprint differs between jobs")
        return problems

    def traced_op(self, tracer: Tracer):
        with tracer.span("job") as root:
            self.stages = traced_stages(tracer, self.corpus, self.num_buckets)
            df = self.stages["tri"].to_pandas()
        return tracer.duration(root), ([root], df)

    def layer_metrics(self, tracer: Tracer) -> None:
        self.layer.update(stage_counts(self.stages))

    def e2e(self, durations: list[float]) -> dict:
        job = p50(durations)
        self.context.update({"job_s.p50": job, "turns_per_s": rate(self.n_turns, job),
                             "jobs_s": durations})
        # conversations per second: the count is fixed, turns vary by seed
        return {"job_s.p50": job, "items_per_s": rate(self.n_convs, job)}


# ---------------------------------------------------------------- graph_build

class GraphBuild(Workload):
    name = "graph_build"
    default_convs = 300
    num_buckets = 4
    num_partitions = 4
    store_buckets = 4
    op_deadline_s = 90.0
    lookups = 5
    absent_share = 0.1

    def prepare_oracle(self) -> None:
        # the whole corpus: the store is checked row for row
        self.sample = sorted(set(self.table["conv_id"].to_pylist()))
        self.gold = oracle_triples(self.table, self.sample)
        store = (pd.DataFrame(self.gold, columns=TRIPLE_KEY).drop_duplicates()
                 .groupby(["subj", "pred", "obj"])["conv_id"].nunique()
                 .rename("n_convs").reset_index())
        self.expected_store = store[STORE_CHECK_COLS].astype({"n_convs": np.int64})
        self.expected = {s: sorted(map(tuple, g[STORE_CHECK_COLS].to_numpy().tolist()))
                         for s, g in self.expected_store.groupby("subj")}
        subjects = sorted(self.expected)
        # the same seed-chosen subjects in every cycle; ~10 % are absent
        # from the store (an empty partition, or a read that filters to
        # nothing)
        self.subjects = [
            f"absent subject {self.rng.randrange(10**9)}"
            if self.rng.random() < self.absent_share or not subjects
            else self.rng.choice(subjects)
            for _ in range(self.lookups)]
        self.lost: list[int] | None = None
        self.reference: str | None = None
        self.cycles = 0
        self.examined = self.returned = 0
        self.phase_s: dict[str, list[float]] = {
            "build_s": [], "resume_s": [], "save_s": [], "lookup_s": []}

    def run_all(self, corpus: str, out: str) -> dict:
        return KGPipeline(read_transcripts(corpus),
                          num_buckets=self.num_buckets).run_all(out, self.num_partitions)

    def warm_up(self, corpus: str, work: str) -> None:
        """A build, a store over its triples and one lookup: every code
        path of a measured cycle."""
        self.run_all(corpus, os.path.join(work, "out"))
        tdir = os.path.join(work, "out", "triples")
        store = os.path.join(work, "store")
        save_kg_store(read_partitioned(tdir).select_columns(TRIPLE_KEY), store,
                      num_buckets=self.store_buckets)
        subjects = read_dir(tdir).get("subj", pd.Series(["absent"]))
        kg_lookup(store, subjects.iloc[0])

    def _run_all(self, out: str, tracer: Tracer | None, resume: bool):
        """One ``run_all``: (seconds, its manifests, root span ids)."""
        if tracer is None:
            t0 = time.perf_counter()
            m = self.run_all(self.corpus, out)
            return time.perf_counter() - t0, m, []
        # run_all's steps, one public stage call at a time
        n_parts = self.num_partitions
        with tracer.span("job") as root:
            st = traced_stages(tracer, self.corpus, self.num_buckets, graph=True)
            with tracer.span("canonicalize"):
                st["ent"] = canonicalize(st["men"], num_salts=16).materialize()
            with tracer.span("checkpoint.resume" if resume else "checkpoint.write"):
                m = {
                    "triples": write_partitioned(st["tri"], os.path.join(out, "triples"),
                                                 "conv_id", n_parts),
                    "entities": write_partitioned(st["ent"], os.path.join(out, "entities"),
                                                  "surface", max(4, n_parts // 8)),
                    "clusters": write_partitioned(st["clu"], os.path.join(out, "clusters"),
                                                  "doc_key", n_parts),
                }
        if not resume:
            self.stages = st
        return tracer.duration(root), m, [root]

    def _serve(self, out: str, tracer: Tracer | None):
        """``save_kg_store`` over the written triples, then the lookups:
        (seconds, payload, root span ids)."""
        span = tracer.span if tracer else (lambda name: nullcontext())
        store = os.path.join(out, "store")
        answers = []
        with span("job") as root:
            t0 = time.perf_counter()
            with span("kgstore.save"):
                manifest = save_kg_store(
                    read_partitioned(os.path.join(out, "triples"))
                    .select_columns(TRIPLE_KEY), store, num_buckets=self.store_buckets)
            save_s = time.perf_counter() - t0
            for subject in self.subjects:
                t1 = time.perf_counter()
                with span("kgstore.lookup"):
                    df = kg_lookup(store, subject)
                answers.append((subject, time.perf_counter() - t1, df))
            sec = time.perf_counter() - t0
        served = {"store": store, "manifest": manifest, "save_s": save_s,
                  "answers": answers}
        return sec, served, [root] if tracer else []

    def _cycle(self, tracer: Tracer | None):
        self.cycles += 1
        out = os.path.join(self.work, f"build-{self.cycles}")
        build_s, built, roots = self._run_all(out, tracer, resume=False)
        # untimed, outside every span: read the clean store back, then lose
        # half the triples
        tdir = os.path.join(out, "triples")
        clean = {"fp": self.store_fingerprint(out), "manifests": manifests(tdir),
                 "triples": read_dir(tdir), "bytes": dir_bytes(out)}
        if self.lost is None:
            # a seed-chosen half of the written partitions, the same in
            # every cycle of the run
            done = sorted(clean["manifests"])
            self.lost = sorted(self.rng.sample(done, len(done) // 2))
        for b in self.lost:
            os.remove(os.path.join(tdir, f"part={b:05d}.manifest.json"))
        resume_s, resumed, resume_roots = self._run_all(out, tracer, resume=True)
        serve_s, served, serve_roots = self._serve(out, tracer)
        return build_s + resume_s + serve_s, {
            "out": out, "clean": clean, "built": built, "resumed": resumed,
            "served": served, "build_s": build_s, "resume_s": resume_s,
            "roots": roots + resume_roots + serve_roots}

    def op(self):
        return self._cycle(None)

    def traced_op(self, tracer: Tracer):
        sec, res = self._cycle(tracer)
        return sec, (res["roots"], res)

    @staticmethod
    def store_fingerprint(out: str) -> str:
        return "|".join(fingerprint(read_dir(os.path.join(out, d)))
                        for d in ("triples", "entities", "clusters"))

    def check(self, res: dict) -> list[str]:
        out, clean = res["out"], res["clean"]
        problems = check_triples(clean["triples"], self.sample, self.gold)
        if self.reference is None:
            self.reference = clean["fp"]
        elif clean["fp"] != self.reference:
            problems.append("graph store fingerprint differs between jobs")
        if self.store_fingerprint(out) != clean["fp"]:
            problems.append("resumed store differs from the clean build")
        after = manifests(os.path.join(out, "triples"))
        before = clean["manifests"]
        if sorted(after) != sorted(before):
            problems.append("triples partitions missing after resume")
        rewritten = sorted(b for b in after
                           if b not in before or after[b]["ts"] != before[b]["ts"])
        if rewritten != self.lost:
            problems.append(f"resume rewrote partitions {rewritten}, lost {self.lost}")
        for b in self.lost:
            if (after.get(b, {}).get("fingerprint") != before[b]["fingerprint"]):
                problems.append(f"partition {b} fingerprint changed on resume")
        rows_lost = sum(before[b]["rows"] for b in self.lost)
        r = res["resumed"]
        if r["triples"]["rows_written"] != rows_lost:
            problems.append("resume rewrote a different number of triples rows")
        if r["entities"]["rows_written"] or r["clusters"]["rows_written"]:
            problems.append("resume rewrote entities or clusters")
        problems += self.check_store(res["served"])
        self.phase_s["build_s"].append(res["build_s"])
        self.phase_s["resume_s"].append(res["resume_s"])
        self.last_res = dict(res, rows_lost=rows_lost)
        shutil.rmtree(out)
        return problems

    def check_store(self, served: dict) -> list[str]:
        """The whole store against the oracle's rollup, and every lookup
        against the oracle's answer for its subject."""
        problems = []
        got = read_dir(served["store"])
        got = got[STORE_CHECK_COLS].astype({"n_convs": np.int64}).sort_values(
            STORE_CHECK_COLS, ignore_index=True)
        want = self.expected_store.sort_values(STORE_CHECK_COLS, ignore_index=True)
        if not got.equals(want):
            problems.append("store content differs from the oracle")
        # rows a pruned read has to scan: the subject's whole partition
        part_rows = {b: m["rows"] for b, m in manifests(served["store"]).items()}
        n_parts = served["manifest"]["num_partitions"]
        for subject, sec, df in served["answers"]:
            rows = sorted(map(tuple, df[STORE_CHECK_COLS].astype(
                {"n_convs": np.int64}).to_numpy().tolist())) if len(df) else []
            if rows != self.expected.get(subject, []):
                problems.append(f"lookup of {subject!r} differs from the oracle")
            bucket = int(stable_bucket(np.asarray([subject], dtype=object), n_parts)[0])
            self.examined += part_rows.get(bucket, 0)
            self.returned += len(rows)
            self.phase_s["lookup_s"].append(sec)
        self.phase_s["save_s"].append(served["save_s"])
        return problems

    def layer_metrics(self, tracer: Tracer) -> None:
        res = self.last_res
        built, resumed = res["built"], res["resumed"]
        self.layer.update(stage_counts(self.stages))
        self.layer.update({
            "canonicalize.mentions_in": self.stages["men"].count(),
            "canonicalize.entities_out": self.stages["ent"].count(),
            "checkpoint.rows_written": sum(m["rows_written"] for m in built.values()),
            "checkpoint.bytes_written": res["clean"]["bytes"],
            "checkpoint.partitions_written": sum(
                m["partitions"] - m["skipped"] for m in built.values()),
            "checkpoint.partitions_skipped": sum(m["skipped"] for m in resumed.values()),
            "checkpoint.resume_rewrite_ratio": (
                resumed["triples"]["rows_written"] / res["rows_lost"]
                if res["rows_lost"] else 0.0),
            "kgstore.rows_examined_per_result": (
                self.examined / self.returned if self.returned else 0.0),
        })

    def e2e(self, durations: list[float]) -> dict:
        job = p50(durations)
        ph = self.phase_s
        self.context.update({
            "job_s.p50": job, "turns_per_s": rate(self.n_turns, job), "jobs_s": durations,
            "build_s.p50": p50(ph["build_s"]), "resume_s.p50": p50(ph["resume_s"]),
            "save_s.p50": p50(ph["save_s"]),
            "lookup_ms.p50": 1e3 * p50(ph["lookup_s"]),
            "lookups": len(ph["lookup_s"])})
        return {"job_s.p50": job, "items_per_s": rate(self.n_convs, job)}


WORKLOADS = {w.name: w for w in (TriplesStream, GraphBuild)}
