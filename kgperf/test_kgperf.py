"""Self-tests of the KG-pipeline benchmark.

    python3 -m pytest kgperf -q -p no:cacheprovider

The helper tests need no Ray.  The workload tests run every workload, in
both modes, over a tiny corpus and check that the printed metric names
and units are exactly those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pandas as pd
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from kgperf import harness as H  # noqa: E402

with open(os.path.join(H.ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def run_bench(cwd: str, *args: str, timeout: float = 240) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "kgperf", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


# ---------------------------------------------------------------- spec

def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in SPEC[k]]
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


# ---------------------------------------------------------------- helpers

def test_self_times_subtract_children():
    tr = H.Tracer()
    with tr.span("job") as root:
        with tr.span("a"):
            time.sleep(0.02)
        with tr.span("b"):
            with tr.span("a"):
                time.sleep(0.02)
            time.sleep(0.01)
    st = tr.self_times(root)
    assert set(st) == {"job", "a", "b"}
    assert st["a"] >= 0.04 and 0.01 <= st["b"] < 0.1
    assert abs(sum(st.values()) - tr.duration(root)) < 1e-9


def test_deadline_and_errors():
    assert H.run_with_deadline(lambda: 7, 5) == 7
    with pytest.raises(H.DeadlineExceeded):
        H.run_with_deadline(lambda: time.sleep(2), 0.1)
    with pytest.raises(KeyError):
        H.run_with_deadline(lambda: {}["x"], 5)


def test_fingerprint_ignores_row_order():
    from kgperf.workloads import fingerprint

    df = pd.DataFrame({"a": [1, 2, 2], "b": ["x", "y", "y"]})
    assert fingerprint(df) == fingerprint(df.iloc[::-1])
    assert fingerprint(df) != fingerprint(df.iloc[:2])
    assert fingerprint(df) != fingerprint(df.drop_duplicates())


# ---------------------------------------------------------------- workloads

# per-layer metrics a traced run of each workload must report as > 0: the
# layers it runs (a renamed span or count would otherwise read 0)
PIPELINE_LAYERS = {
    "sources.read_s", "sources.rows_out", "sources.bytes_out",
    "assemble.s", "assemble.docs_out", "assemble.bytes_out",
    "core.bucket_rows_max_over_median", "core.ray_workers_peak",
    "extract.s", "extract.bytes_out",
    "explode.s", "explode.relations_out", "explode.mentions_out",
    "triples.s", "triples.rows_in", "triples.rows_out", "triples.unique_ratio",
    "trace.sum_s", "trace.unattributed_s",
}
LAYERS_RUN = {
    "triples_stream": PIPELINE_LAYERS,
    "graph_build": PIPELINE_LAYERS | {
        "canonicalize.s", "canonicalize.mentions_in", "canonicalize.entities_out",
        "checkpoint.write_s", "checkpoint.rows_written", "checkpoint.bytes_written",
        "checkpoint.partitions_written", "checkpoint.resume_s",
        "checkpoint.partitions_skipped", "checkpoint.resume_rewrite_ratio",
        "kgstore.save_s", "kgstore.lookup_s", "kgstore.rows_examined_per_result"},
}


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_spec_metrics(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        out = result_line(run_bench(
            H.ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--convs", "60"))
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True and out["failed"] == 0
        assert out["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        assert got == want
        must_run = set(want) if trace == 0 else LAYERS_RUN[workload]
        zero = sorted(k for k in must_run if not out["metrics"][k]["value"] > 0)
        assert zero == [], f"--trace {trace} reports 0 for {zero}"


def test_fails_without_the_engine():
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    bare = os.path.join(H.STATE_DIR, f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(H.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "kgperf"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", SPEC["workloads"][0]["name"],
                         "--seed", "1", "--seconds", "1", "--trace", "0",
                         timeout=180)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
