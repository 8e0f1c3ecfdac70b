"""Shared machinery of the KG-pipeline benchmark: checkout paths, the Ray
session, per-operation deadlines, in-memory spans and process memory.

Nothing here imports the engine, so the self-tests can exercise it without
Ray.  The benchmark's work directories and traces live under
``<checkout>/.kgperf``; Ray's session directory is a fresh directory under
the system temp dir.  Both are removed at exit.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import tempfile
import threading
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE_DIR = os.path.join(ROOT, ".kgperf")


def nproc() -> int:
    """CPU budget as ``nproc`` reports it (it honours OMP_NUM_THREADS)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             timeout=10, check=True).stdout
        return max(1, int(out.strip()))
    except (OSError, ValueError, subprocess.SubprocessError):
        return max(1, len(os.sched_getaffinity(0)))


# ---------------------------------------------------------------- processes

def _proc_stat(pid: int) -> tuple[int, str] | None:
    """(ppid, state) of a live process, None when it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # the command name may hold spaces and parentheses: split after the
    # last ')'
    fields = raw[raw.rindex(")") + 2:].split()
    return int(fields[1]), fields[0]


def _alive(pid: int) -> bool:
    st = _proc_stat(pid)
    return st is not None and st[1] != "Z"


def _wait_gone(pids: list[int], seconds: float) -> None:
    end = time.monotonic() + seconds
    while time.monotonic() < end and any(_alive(p) for p in pids):
        time.sleep(0.1)


def descendants(root: int | None = None) -> list[int]:
    """Live (non-zombie) descendants of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        st = _proc_stat(int(name))
        if st is not None and st[1] != "Z":
            children.setdefault(st[0], []).append(int(name))
    out, stack = [], [root]
    while stack:
        for c in children.get(stack.pop(), []):
            out.append(c)
            stack.append(c)
    return out


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def is_ray_worker(pid: int) -> bool:
    cmd = _cmdline(pid)
    return "default_worker.py" in cmd or cmd.startswith("ray::")


def count_ray_workers() -> int:
    return sum(1 for p in descendants() if is_ray_worker(p))


def peak_rss_mb() -> float:
    """Sum of VmHWM over this process and every process it started."""
    kb = sum(_status_kb(p, "VmHWM") for p in [os.getpid(), *descendants()])
    return kb / 1024.0


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over this
    machine's CPUs (/proc/stat): a noisy-neighbour gauge for a run."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current RSS, so corpus and
    oracle building stay out of ``peak_rss_mb``."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


# ---------------------------------------------------------------- Ray

class RaySession:
    """A private local Ray cluster whose files and processes are all gone
    after :meth:`stop`."""

    def __init__(self, num_cpus: int):
        self.num_cpus = num_cpus
        self.temp_dir: str | None = None

    def start(self) -> None:
        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
        os.environ.setdefault("RAY_DATA_DISABLE_PROGRESS_BARS", "1")
        import logging

        import ray
        import ray.data

        # a short path: Ray's unix sockets live under it, and their paths
        # are capped at 107 bytes whatever the checkout's depth
        self.temp_dir = tempfile.mkdtemp(prefix="kgperf-ray")
        pythonpath = os.pathsep.join(
            p for p in (ROOT, os.environ.get("PYTHONPATH", "")) if p)
        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            object_store_memory=512 << 20,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=self.temp_dir,
            # workers import the engine from this checkout wherever the
            # benchmark was launched from
            runtime_env={"env_vars": {"PYTHONPATH": pythonpath}},
        )
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def stop(self, grace_s: float = 20.0) -> None:
        import ray

        procs = descendants()
        if ray.is_initialized():
            ray.shutdown()
        _wait_gone(procs, grace_s)
        for p in procs:
            if _alive(p):
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        _wait_gone(procs, 5.0)
        # reap any of our own children left as zombies
        for p in procs:
            try:
                os.waitpid(p, os.WNOHANG)
            except ChildProcessError:
                pass
        if self.temp_dir:
            shutil.rmtree(self.temp_dir, ignore_errors=True)


# ---------------------------------------------------------------- deadlines

class DeadlineExceeded(Exception):
    pass


def run_with_deadline(fn, deadline_s: float):
    """Run ``fn`` on a helper thread and return its result.

    Raises ``DeadlineExceeded`` when ``fn`` is still running after
    ``deadline_s`` (the thread is left behind as a daemon), or re-raises
    what ``fn`` raised."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # handed to the caller below
            box["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(deadline_s)
    if t.is_alive():
        raise DeadlineExceeded(f"operation still running after {deadline_s:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


# ---------------------------------------------------------------- spans

class Tracer:
    """Spans kept in memory as (id, name, start, end, parent id).

    ``workers_peak`` is sampled as each root span closes, after its end
    time is taken, so the /proc scan falls inside no span."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[int] = []
        self.workers_peak = 0

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, name, time.perf_counter(), float("nan"), parent))
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            _, _, start, _, _ = self.spans[sid]
            self.spans[sid] = (sid, name, start, time.perf_counter(), parent)
            if not self._stack:
                self.workers_peak = max(self.workers_peak, count_ray_workers())

    def duration(self, sid: int) -> float:
        _, _, start, end, _ = self.spans[sid]
        return end - start

    def self_times(self, root: int) -> dict[str, float]:
        """Per-name self time inside the subtree of ``root``: a span's
        duration minus the part its children cover (children are
        sequential, so their durations add)."""
        kids: dict[int, list[int]] = {}
        for sid, _, _, _, parent in self.spans:
            if parent is not None:
                kids.setdefault(parent, []).append(sid)
        out: dict[str, float] = {}
        stack = [root]
        while stack:
            sid = stack.pop()
            child_ids = kids.get(sid, [])
            own = self.duration(sid) - sum(self.duration(c) for c in child_ids)
            name = self.spans[sid][1]
            out[name] = out.get(name, 0.0) + own
            stack.extend(child_ids)
        return out

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [{"id": sid, "name": name, "start_s": start - t0,
                 "end_s": end - t0, "parent": parent}
                for sid, name, start, end, parent in self.spans]
        with open(path, "w") as f:
            json.dump(rows, f, indent=0)


# ---------------------------------------------------------------- stats

def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0

