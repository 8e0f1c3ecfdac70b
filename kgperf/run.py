"""KG-pipeline benchmark: one workload per invocation.

    python3 kgperf/run.py --workload triples_stream --seed 1 --seconds 25 --trace 0

Generates the workload's corpus from ``--seed``, sets up a private Ray
cluster with ``num_cpus`` = ``nproc`` (``SETUP_REPEATS`` times, keeping
the last cluster), then runs the workload's operation in a closed loop
for ``--seconds`` and checks every output outside its timed span.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it (``context: {...}``) carries the
workload's own figures under their own names.  See ``kgperf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from kgperf import harness as H  # noqa: E402

# the run must end within 180 s: stop starting operations at this mark
# and give no single operation more than what is left before it
HARD_LIMIT_S = 150.0
# set-up (Ray start and a small warm-up job) is timed this many times in
# a run, each on a fresh cluster; setup_s is the median
SETUP_REPEATS = 2


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(wl, tracer, seconds: float, t_start: float):
    """Closed loop: the next operation starts only after the previous one
    ended and was checked.  With a tracer, untraced and traced operations
    alternate (untraced first).  Returns (durations, the root span ids of
    each traced job, attempted, failed, problems)."""
    untraced, roots, problems = [], [], []
    attempted = failed = 0
    loop_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        traced = tracer is not None and len(roots) < len(untraced)
        done = untraced and (tracer is None or roots)
        typical = H.p50(untraced) if untraced else 0.0
        if done and (now - loop_start + typical > seconds
                     or now - t_start + typical > HARD_LIMIT_S - 30):
            break
        deadline = max(1.0, min(wl.op_deadline_s, HARD_LIMIT_S - (now - t_start)))
        attempted += 1
        try:
            if traced:
                sec, (job_roots, payload) = H.run_with_deadline(
                    lambda: wl.traced_op(tracer), deadline)
            else:
                sec, payload = H.run_with_deadline(wl.op, deadline)
        except H.DeadlineExceeded as e:
            failed += 1
            problems.append(str(e))
            break       # the engine is in an unknown state: stop the loop
        except Exception:
            failed += 1
            problems.append(traceback.format_exc(limit=3))
            if time.perf_counter() - loop_start > seconds:
                break
            continue
        try:
            found = wl.check(payload)
        except Exception:
            found = [traceback.format_exc(limit=3)]
        if found:
            failed += 1
            problems.extend(found)
        if traced:
            roots.append(job_roots)
        else:
            untraced.append(sec)
    return untraced, roots, attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--convs", type=int, default=None,
                    help="corpus size override (self-tests use a tiny one)")
    args = ap.parse_args(argv)
    t_start = time.perf_counter()

    spec = load_spec()
    from kgperf.workloads import WORKLOADS  # imports the engine

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    work = os.path.join(H.STATE_DIR, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = WORKLOADS[args.workload](args.seed, work, args.convs)
    tracer = H.Tracer() if args.trace else None
    session = H.RaySession(H.nproc())
    problems: list[str] = []
    untraced, attempted, failed, e2e = [], 1, 1, {}
    try:
        wl.prepare()
        H.reset_peak_rss()
        setups = []
        for i in range(SETUP_REPEATS):
            if i:
                session.stop()
            t0 = time.perf_counter()
            session.start()
            H.run_with_deadline(
                wl.setup, max(10.0, HARD_LIMIT_S / 2 - (t0 - t_start)))
            setups.append(time.perf_counter() - t0)
        setup_s = H.p50(setups)
        wl.context["setups_s"] = setups
        steal0 = H.steal_s()
        untraced, roots, attempted, failed, found = measure(
            wl, tracer, args.seconds, t_start)
        wl.context["host_steal_s"] = H.steal_s() - steal0
        problems += found
        rss = H.peak_rss_mb()
        e2e = {"setup_s": setup_s, **wl.e2e(untraced), "peak_rss_mb": rss}
        if tracer is not None and roots:
            wl.finish_layers(tracer, roots, untraced)
            wl.layer_metrics(tracer)
            tracer.dump(os.path.join(
                H.STATE_DIR, "traces", f"{wl.name}-seed{args.seed}.json"))
    except Exception:
        # set-up failed or hung: counted as one failed operation
        problems.append(traceback.format_exc(limit=5))
    finally:
        session.stop()
        shutil.rmtree(work, ignore_errors=True)

    wl.context.update(num_cpus=session.num_cpus, seed=args.seed,
                      workload=wl.name, error_rate=failed / max(1, attempted),
                      **{k: v for k, v in e2e.items() if k not in wl.context})
    names = spec["per_layer" if args.trace else "end_to_end"]
    values = wl.layer if args.trace else e2e
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in names}
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print("context: " + json.dumps(wl.context, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
