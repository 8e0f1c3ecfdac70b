"""KG-construction job entry point — the ``ray job submit`` target.

    ray job submit -- python scripts/run_graph.py \
        --input /data/transcripts --output /data/graph \
        [--num-partitions 1024] [--num-cpus N] [--fresh]

Reads the transcript Parquet table (BASELINE.json input_hint shape),
runs the flagship pipeline, and writes the graph store (triples +
entities + clusters) as resumable partitioned parquet with per-partition
lineage manifests.  Re-submitting a killed run resumes it: complete
tables are skipped, and lost triples/clusters partitions re-extract only
their own conversations (``KGPipeline.run_all``).  ``--fresh`` deletes
the output first and recomputes everything.

Owns its Ray session (scripts do; library code never calls ray.init).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True, help="transcript parquet path/dir")
    ap.add_argument("--output", required=True, help="graph store output dir")
    ap.add_argument("--num-partitions", type=int, default=64,
                    help="output partitions per table; also the conv_id "
                         "exchange's bucket count (~2-4x cluster cores)")
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="local-mode CPU cap (omit on a real cluster)")
    ap.add_argument("--fresh", action="store_true",
                    help="ignore existing partition manifests (full recompute)")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        kw = {"include_dashboard": False, "ignore_reinit_error": True,
              "logging_level": "ERROR"}
        if args.num_cpus:
            kw["num_cpus"] = args.num_cpus
            kw["address"] = "local"
        ray.init(**kw)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from dygiepp_ray.pipelines.kg import from_parquet

    if args.fresh:
        import shutil

        shutil.rmtree(args.output, ignore_errors=True)

    t0 = time.perf_counter()
    pipe = from_parquet(args.input)
    manifests = pipe.run_all(args.output, num_partitions=args.num_partitions)
    wall = time.perf_counter() - t0
    print(json.dumps({"wall_s": round(wall, 2), "manifests": manifests}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
