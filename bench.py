"""Benchmark harness (driver-run per round -> BENCH_r{N}.json).

Headline: the flagship KG pipeline (transcripts -> conv_id-partitioned
assembly -> vectorized joint extraction -> shuffle-free conv-local triple
dedup, fully streaming) over a deterministic synthetic transcript corpus
sized to the sf dir, plus the same pipeline over the driver documents
table and a set of secondary operator pipelines.  Prints ONE JSON line.

--scaling: the north rule's two-cluster-size criterion, evidenced here by
running the SAME job on the SAME input at two parallelism levels in fresh
processes with the CPU budget enforced via ``os.sched_setaffinity`` (so
raylet / object store / driver are confined too — ``ray.init(num_cpus=N)``
alone only limits task slots, and unconfined runs both leak CPU and show
±30% scheduler noise).  Reports N=2 vs 4N=8 (the engine's scaling, under
the machine's memory-bandwidth saturation point) AND 8 vs 32 (which on
this single-socket box measures the shared DRAM bus, not the engine —
see BASELINE.md "single-node scaling ceiling" for the probe data).
"""

from __future__ import annotations

import json
import os
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# transcript corpus size scales with the sf dir (sf0.1 ~ 400k convs ~ 5.8M
# turns — sized so per-CPU compute dominates fixed overheads at every
# measured parallelism level)
_CONVS = {"sf0.001": 1000, "sf0.01": 20000}
N_CONVS = _CONVS.get(os.path.basename(SF_DIR.rstrip("/")), 400000)
CORPUS = f"/tmp/dygiepp_bench/transcripts_c{N_CONVS}_seed42"
N_FILES = 64


# Secondary registry queries timed after the flagship, by registry name.
SECONDARY_QUERIES = (
    "q1_pricing_summary", "events_tumbling", "sessionize", "dedup_exact",
    "ann_topk", "ivf_topk", "minhash_near_dups", "simhash_near_dups",
    "asof_join_purchase", "range_join_error_window", "quantiles_price",
    "decontaminate", "shuffle_rank", "frequent_ngrams", "hll_users",
    "cms_users", "cohort_retention", "revenue_rollup", "funnel_steps",
    "prepare_training_set", "prefix_near_dups", "fuzzy_decontaminate",
    "triangle_count", "kg_cooccurrence", "histogram_quantiles",
    "orders_snapshot_diff", "events_ohlc", "purchase_attribution",
    "zorder_layout", "bfs_hops", "user_active_time",
    "events_late_arrivals", "source_diversity", "unigram_surprisal",
    "local_supplier_volume", "parts_supplier_counts", "corr_matrix",
    "session_duration_quantiles", "surprisal_buckets", "kg_store_lookup",
    # web-corpus ingestion + retrieval + KG-embedding families
    "html_extract", "bm25_search", "winnowing_fingerprints", "kg_hits",
    "kg_transe_scores",
    # semantic/exact dedup + clustering
    "semantic_dedup", "kmeans_clusters", "window_shingle_dedup",
    "kg_entity_timeline",
)


def ensure_corpus() -> str:
    """Deterministic synthetic transcripts, written once (64 parquet files
    so reads parallelize); generation is excluded from timing."""
    import pyarrow.parquet as pq

    if os.path.isdir(CORPUS) and len(os.listdir(CORPUS)) == N_FILES:
        return CORPUS
    from dygiepp_ray.synth import make_transcripts

    os.makedirs(CORPUS + ".tmp", exist_ok=True)
    tbl = make_transcripts(N_CONVS, seed=42)
    n = len(tbl)
    step = -(-n // N_FILES)
    for i in range(N_FILES):
        pq.write_table(tbl.slice(i * step, step), f"{CORPUS}.tmp/part-{i:02d}.parquet")
    os.replace(CORPUS + ".tmp", CORPUS)
    return CORPUS


def main() -> None:
    if os.environ.get("RAY_GRAFT_PIN", "1") == "1":
        # confine the WHOLE Ray process tree (raylet/object store inherit
        # the affinity) — num_cpus alone only caps task slots, and
        # unpinned runs show ±30% scheduler noise
        os.sched_setaffinity(0, set(range(min(NUM_CPUS, os.cpu_count()))))

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import ray.data as rd

    from dygiepp_ray.pipelines.kg import KGPipeline, from_documents_table

    corpus = ensure_corpus()

    # warm the page cache AND the worker pool (untimed)
    n_turns = rd.read_parquet(corpus).count()
    KGPipeline(
        rd.read_parquet(corpus, override_num_blocks=8).limit(2000), num_buckets=8
    ).triples().count()

    def read():
        return rd.read_parquet(corpus, override_num_blocks=N_FILES)

    queries: dict[str, float] = {}
    trials = int(os.environ.get("RAY_GRAFT_TRIALS", "2"))

    # ---- headline: full KG pipeline over transcripts (min of trials) ----
    times = []
    n_triples = 0
    for _ in range(trials):
        t0 = time.perf_counter()
        n_triples = KGPipeline(read(), num_buckets=64).triples().count()
        times.append(time.perf_counter() - t0)
    headline = min(times)
    queries["kg_transcripts_triples"] = headline

    if os.environ.get("RAY_GRAFT_HEADLINE_ONLY") != "1":
        # ---- flagship over the driver documents table ----
        t0 = time.perf_counter()
        n_doc_triples = from_documents_table(SF_DIR).triples().count()
        queries["kg_documents_triples"] = time.perf_counter() - t0

        # ---- entities aggregate (salted canonicalization shuffle) ----
        t0 = time.perf_counter()
        KGPipeline(read(), num_buckets=64).entities().count()
        queries["kg_entities"] = time.perf_counter() - t0

        # ---- collated GPU-shaped path (bin-pack -> heavy-state actor
        # pool -> uncollate projection) over the documents table ----
        t0 = time.perf_counter()
        from_documents_table(
            SF_DIR, collate_extract=True, extract_concurrency=4
        ).triples().count()
        queries["kg_collated_triples"] = time.perf_counter() - t0

        # ---- secondary operator pipelines over driver tables ----
        from dygiepp_ray.pipelines.queries import all_queries

        registry = all_queries()
        for name in SECONDARY_QUERIES:
            fn = registry[name][0]
            t0 = time.perf_counter()
            res = fn(SF_DIR)
            if hasattr(res, "count"):
                res.count()
            queries[name] = time.perf_counter() - t0
    else:
        n_doc_triples = 0

    out = {
        "metric": "kg_pipeline_sec",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": {k: round(v, 3) for k, v in queries.items()},
        "sf": os.path.basename(SF_DIR.rstrip("/")),
        "num_cpus": NUM_CPUS,
        "turns": int(n_turns),
        "turns_per_sec": round(n_turns / headline, 1),
        "triples": int(n_triples),
        "doc_triples": int(n_doc_triples),
        "triples_per_sec": round(n_triples / headline, 1),
    }
    ray.shutdown()
    # Pinned 2->8-CPU mini-scaling in the STANDARD output (VERDICT r3
    # #5): the headline wall-time is host-noise-sensitive on this box,
    # the affinity-pinned efficiency pair is the cross-round-comparable
    # number — carry it in every BENCH_r{N}.json.  Expected band:
    # ~0.85-1.0 (BASELINE.md); skipped inside the scaling subprocesses
    # themselves (RAY_GRAFT_HEADLINE_ONLY) and via RAY_GRAFT_EFF=0.
    if (
        os.environ.get("RAY_GRAFT_HEADLINE_ONLY") != "1"
        and os.environ.get("RAY_GRAFT_EFF", "1") == "1"
    ):
        # never lose the completed headline measurements to an eff
        # subprocess failure (review r4)
        try:
            r2, r8 = _run_pinned(2, trials=2), _run_pinned(8, trials=2)
            t2, t8 = r2["value"], r8["value"]
            out["sec_2_pinned"] = t2
            out["sec_8_pinned"] = t8
            out["eff_2_8"] = round((t2 / t8) / 4, 3)
        except Exception as e:  # noqa: BLE001 — report, don't discard
            out["eff_2_8_error"] = str(e)[:200]
    print(json.dumps(out))


def _run_pinned(ncpu: int, trials: int = 3) -> dict:
    """Fresh affinity-pinned headline-only bench run at ``ncpu`` CPUs.
    The explicit --scaling protocol uses 3 trials (min-of-trials needs
    the extra draw on days when the shared DRAM bus adds ±20-35% window
    noise, BASELINE.md r4); the eff pair embedded in the standard bench
    keeps 2 to bound total runtime."""
    import subprocess

    env = dict(
        os.environ,
        RAY_GRAFT_CPUS=str(ncpu),
        RAY_GRAFT_PIN="1",
        RAY_GRAFT_HEADLINE_ONLY="1",
        RAY_GRAFT_TRIALS=str(trials),
        RAY_GRAFT_EFF="0",
    )
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__)], env=env,
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def scaling() -> None:
    """Same job, same input, fresh affinity-pinned processes at 2 / 8 / 32
    CPUs.  value = efficiency at N=2 -> 4N=8; the 8 -> 32 pair is
    reported alongside (memory-bandwidth-bound on this box)."""
    r2, r8, r32 = _run_pinned(2), _run_pinned(8), _run_pinned(32)
    t2, t8, t32 = r2["value"], r8["value"], r32["value"]
    eff_2_8 = (t2 / t8) / 4
    eff_8_32 = (t8 / t32) / 4
    print(json.dumps(
        {
            "metric": "scaling_efficiency",
            "value": round(eff_2_8, 3),
            "unit": "ratio",
            "pair": "num_cpus 2 -> 8 (N -> 4N), affinity-pinned, same input",
            "sec_2": t2,
            "sec_8": t8,
            "sec_32": t32,
            "eff_2_8": round(eff_2_8, 3),
            "eff_8_32": round(eff_8_32, 3),
            "triples_per_sec_2": r2["triples_per_sec"],
            "triples_per_sec_8": r8["triples_per_sec"],
            "triples_per_sec_32": r32["triples_per_sec"],
            "turns": r8["turns"],
            "sf": r8["sf"],
            "note": "8->32 is memory-bandwidth-bound on this single-socket box; see BASELINE.md",
        }
    ))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    else:
        main()
