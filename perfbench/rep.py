"""Repetitions of the workloads, each in a freshly forked process.

``run.py`` starts this file once per benchmark run as a fork server:

    python3 perfbench/rep.py

It imports the simulator and the workloads, then reads one JSON request per
line on standard input (``{"workload", "seed", "traced", "workers"}``) and,
for each, forks a child that sets the workload up, makes its public call,
checks the output and sends back one JSON record, which the server writes
as one line on standard output.  Every repetition therefore starts from the
same just-imported interpreter state: ``ru_maxrss``, the collector's
counters and lazily built state never carry over from an earlier
repetition, and no repetition pays the interpreter's start-up and import
time.  A call that raises or an output that fails its checks still produces
a record (``ok`` false); a child that dies produces ``{"fatal": ...}``.
"""

from __future__ import annotations

import heapq
import json
import os
import platform
import random
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from ledger import Tracer  # noqa: E402

#: Pinned digests of the default seed's simulated outputs.
PINNED = json.loads((HERE / "digests.json").read_text())


def _maxrss_mb(who: int) -> float:
    """Peak resident set size in MB (Linux reports ``ru_maxrss`` in kB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def probe() -> float:
    """Seconds a fixed CPU-bound mix of float, heap, dict and numpy work takes.

    Everything it allocates is freed by the time it returns, so running it
    next to a repetition leaves the collector's counts as they were.
    """
    start = time.perf_counter()
    rng = random.Random(7)
    heap: list[float] = []
    totals: dict[int, float] = {}
    now = 0.0
    for index in range(30_000):
        now += rng.expovariate(100.0)
        heapq.heappush(heap, now + rng.random())
        if len(heap) > 64:
            key = index & 63
            totals[key] = totals.get(key, 0.0) + heapq.heappop(heap)
    generator = np.random.default_rng(7)
    for _ in range(10):  # small blocks, so the probe barely moves peak RSS
        np.cumsum(np.sort(generator.exponential(1.0, 20_000)))
    return time.perf_counter() - start


def run_rep(name: str, seed: int, traced: bool, workers: int | None) -> dict:
    workload = workloads.WORKLOADS[name]()
    tracer = Tracer(extra_modules=(workloads,)) if traced else None
    record = {"workload": name, "seed": seed, "traced": traced, "workers": workers}
    output = None
    state = None
    problems: list[str] = []
    probe_before = probe()
    with tracer or nullcontext(), tracer.span("run") if tracer else nullcontext():
        start = time.perf_counter()
        state = workload.setup(seed)
        called = time.perf_counter()
        try:
            output = workload.call(state, workers)
        except Exception:  # a failed call counts all its ops as failed
            problems.append("call raised: " + traceback.format_exc(limit=3))
        done = time.perf_counter()
    record.update(setup_s=called - start, call_s=done - called, wall_s=done - start)
    record["probe_s"] = (probe_before, probe())
    record["peak_rss_mb"] = _maxrss_mb(resource.RUSAGE_SELF)
    record["children_rss_mb"] = _maxrss_mb(resource.RUSAGE_CHILDREN)
    if output is None:
        record.update(ok=False, problems=problems, ops=workload.expected_ops(state))
        return record
    problems += workload.check(state, output)
    record["digest"] = workloads.digest(workload.outputs(output))
    pinned = PINNED.get(name)
    if seed == workloads.DEFAULT_SEED and record["digest"] != pinned:
        problems.append(f"{name}: digest {record['digest']} != pinned {pinned} for seed {seed}")
    record.update(
        ok=not problems,
        problems=problems,
        ops=workload.ops(output),
        attempts=workload.attempts(output),
        reported_wall_s=workload.reported_wall_s(output),
        counts=workload.counts(output),
        columnar_flag=workloads.columnar_flag_present(),
    )
    if tracer is not None:
        ledger = tracer.ledger(name)
        ledger["plan_imbalance"] = workload.plan_imbalance(state) if hasattr(workload, "plan_imbalance") else 0.0
        record["ledger"] = ledger
        record["spans"] = [[n, s - tracer.spans[0][1], e - tracer.spans[0][1], p] for n, s, e, p in tracer.spans]
    return record


def _child(request: dict, write_fd: int) -> None:
    """Run one repetition and write its record to ``write_fd``; never returns."""
    os.dup2(2, 1)  # the simulator must not write into the protocol stream
    code = 0
    try:
        record = run_rep(request["workload"], request["seed"], request["traced"], request["workers"])
        record["host"] = {"python": platform.python_version(), "numpy": np.__version__}
    except BaseException:
        record = {"fatal": traceback.format_exc()}
        code = 1
    with os.fdopen(write_fd, "w") as channel:
        json.dump(record, channel)
    os._exit(code)


def serve() -> None:
    """Fork one child per request line; answer with one record line each."""
    for line in sys.stdin:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            _child(json.loads(line), write_fd)
        os.close(write_fd)
        with os.fdopen(read_fd) as channel:
            payload = channel.read()
        _, status = os.waitpid(pid, 0)
        if not payload:
            payload = json.dumps({"fatal": f"repetition exited with status {status} and no record"})
        sys.stdout.write(payload + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
