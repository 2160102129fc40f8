"""Benchmark runner: repeated fresh-process runs of one workload, medians.

    python3 perfbench/run.py --workload trace-hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20        # every workload

Each repetition runs in a process freshly forked from the ``rep.py`` fork
server (set-up, one public call, output checks) and reports back one
record; repetitions repeat until ``--seconds`` have passed (at least three
untraced repetitions, or two rounds in traced mode).  All repetitions of a run use the same seed, so
their simulated-output digests must agree.

``--trace 0`` reports the end-to-end metrics: throughput, set-up time, peak
memory and the share of operations that passed their checks.  ``--trace 1``
alternates untraced repetitions with traced ones and reports the per-layer
ledger (see ``README.md``).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the full record —
host, every repetition and its spans — goes to ``perfbench/out/``.

The exit code is non-zero, with no result printed, when the benchmark
itself cannot run: no ``src/repro`` next to it, a repetition that dies or
hangs, or a traced boundary that is gone or never called.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("trace-hot", "population-wide", "retry-storm", "workflow-fanout")
#: The traced run replays population shards in-process so the wrappers see
#: inside them; its untraced twin uses the same worker count, so the
#: tracing overhead compares like with like.
TRACED_WORKERS = {"population-wide": 1}
MIN_UNTRACED_REPS = 3
MIN_TRACED_ROUNDS = 2
REP_TIMEOUT_S = 100

#: The host-speed probe's time (``rep.probe``) at the reference speed that
#: every duration and rate is reported at; each repetition is rescaled by
#: the probes timed next to it (see README, "Host noise").
PROBE_REFERENCE_S = 0.035
DURATION_UNITS = ("s", "us")
RATE_UNITS = ("inv/s", "1/s")

END_TO_END_UNITS = {
    "throughput_inv_per_s": "inv/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


class HarnessError(RuntimeError):
    """The benchmark could not produce a measurement."""


class ForkServer:
    """The ``rep.py`` process that forks one child per repetition.

    It runs in its own session, so a hung repetition can be killed together
    with any worker processes it started.
    """

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "rep.py")],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )

    def run(self, workload: str, seed: int, traced: bool, workers: int | None) -> dict:
        """One repetition; returns its record."""
        request = {"workload": workload, "seed": seed, "traced": traced, "workers": workers}
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        ready, _, _ = select.select([self.process.stdout], [], [], REP_TIMEOUT_S)
        if not ready:
            raise HarnessError(f"{workload} repetition exceeded {REP_TIMEOUT_S}s")
        line = self.process.stdout.readline()
        if not line:
            raise HarnessError(f"fork server exited with status {self.process.wait()}")
        record = json.loads(line)
        if "fatal" in record:
            raise HarnessError(f"{workload} repetition failed:\n{record['fatal']}")
        return record

    def close(self) -> None:
        """Stop the server (and anything left in its session) and wait for it."""
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
                self.process.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                pass
        if self.process.poll() is None:
            os.killpg(self.process.pid, signal.SIGKILL)
            self.process.wait()
        self.process.stdout.close()


def collect(server: ForkServer, workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Repeat rounds of repetitions for up to ``seconds`` (after a minimum)."""
    if trace:
        kinds = [(False, None), (True, TRACED_WORKERS.get(workload))]
        if workload in TRACED_WORKERS:
            kinds.append((False, TRACED_WORKERS[workload]))
        min_rounds = MIN_TRACED_ROUNDS
    else:
        kinds = [(False, None)]
        min_rounds = MIN_UNTRACED_REPS
    reps: list[dict] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        elapsed = time.perf_counter() - start
        # Past the minimum, start a round only if it should end in time.
        if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
            return reps
        for traced, workers in kinds:
            reps.append(server.run(workload, seed, traced, workers))
        rounds += 1


def tally(reps: list[dict]) -> tuple[int, int]:
    """``(attempted, failed)`` ops; a repetition that failed counts all its ops.

    Repetitions share one seed, so a digest that differs from the most
    common one marks its repetition as failed (non-determinism, or traced
    and untraced outputs disagreeing).
    """
    digests = Counter(rep["digest"] for rep in reps if "digest" in rep)
    if digests:
        majority = digests.most_common(1)[0][0]
        for rep in reps:
            if rep.get("digest", majority) != majority:
                rep["ok"] = False
                rep["problems"].append(f"digest {rep['digest']} differs from the run's {majority}")
    known = [rep["ops"] for rep in reps if rep.get("ops")]
    fallback = known[0] if known else 1
    attempted = sum(rep.get("ops") or fallback for rep in reps)
    failed = sum(rep.get("ops") or fallback for rep in reps if not rep["ok"])
    return attempted, failed


def at_reference_speed(unit: str, value: float, probe_s: float) -> float:
    """``value`` as it would read on a host where the probe takes
    ``PROBE_REFERENCE_S``; ``probe_s`` is the probe time next to the work."""
    factor = PROBE_REFERENCE_S / probe_s
    if unit in DURATION_UNITS:
        return value * factor
    if unit in RATE_UNITS:
        return value / factor
    return value


def call_probe_s(rep: dict) -> float:
    """Mean of the probes that bracket the repetition's set-up and call."""
    return statistics.fmean(rep["probe_s"])


def end_to_end(reps: list[dict], attempted: int, failed: int) -> dict:
    return {
        "throughput_inv_per_s": statistics.median(
            at_reference_speed("inv/s", rep["ops"] / rep["call_s"], call_probe_s(rep)) for rep in reps if rep.get("ops")
        ),
        # The set-up directly follows the first probe.
        "setup_s": statistics.median(at_reference_speed("s", rep["setup_s"], rep["probe_s"][0]) for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "success_rate": 1.0 - failed / attempted,
    }


#: Per-layer metric -> (unit, value from one traced repetition's record).
LAYER_METRICS = {
    "deploy.s": ("s", lambda r: r["ledger"]["self_s"]["deploy"]),
    "deploy.us_per_function": (
        "us",
        lambda r: 1e6 * r["ledger"]["self_s"]["deploy"] / r["ledger"]["functions_deployed"],
    ),
    "arrivals.s": ("s", lambda r: r["ledger"]["self_s"]["arrivals"]),
    "arrivals.count": ("count", lambda r: r["ledger"]["items"].get("arrivals", 0)),
    "plan.s": ("s", lambda r: r["ledger"]["self_s"]["plan"]),
    "plan.imbalance": ("ratio", lambda r: r["ledger"]["plan_imbalance"]),
    "transport.bytes": ("bytes", lambda r: r["ledger"]["transport_bytes"]),
    "transport.s": ("s", lambda r: r["ledger"]["self_s"]["transport"]),
    "replay.s": ("s", lambda r: r["ledger"]["self_s"]["replay"]),
    "replay.events_per_s": ("1/s", lambda r: r["attempts"] / r["ledger"]["self_s"]["replay"]),
    "merge.s": ("s", lambda r: r["ledger"]["self_s"]["merge"]),
    "summary.s": ("s", lambda r: r["ledger"]["self_s"]["summary"]),
    "attribution.s": ("s", lambda r: r["ledger"]["self_s"]["attribution"]),
    "gc.s": ("s", lambda r: r["ledger"]["gc_s"]),
    "gc.collections": ("count", lambda r: r["ledger"]["gc_collections"]),
    "ledger.coverage": ("ratio", lambda r: r["ledger"]["coverage"]),
}
COUNT_UNITS = {
    "sim.cold_start_share": "ratio",
    "concurrency.attempts_per_request": "ratio",
    "concurrency.goodput_ratio": "ratio",
    "resilience.short_circuited": "count",
    "workflows.invocations_per_execution": "ratio",
    "population.active_functions": "count",
}


def per_layer(workload: str, reps: list[dict]) -> dict:
    traced = [rep for rep in reps if rep["traced"] and rep.get("ledger")]
    untraced = [rep for rep in reps if not rep["traced"] and rep.get("ops")]
    if not traced or not untraced:
        raise HarnessError(f"{workload}: no completed traced and untraced repetitions")
    real = [rep for rep in untraced if rep["workers"] is None]
    twin = [rep for rep in untraced if rep["workers"] == TRACED_WORKERS.get(workload)]
    metrics = {
        name: (unit, statistics.median(at_reference_speed(unit, value(rep), call_probe_s(rep)) for rep in traced))
        for name, (unit, value) in LAYER_METRICS.items()
    }
    for name, unit in COUNT_UNITS.items():
        metrics[name] = (unit, statistics.median(rep["counts"][name] for rep in traced))
    metrics["parallel.worker_peak_rss_mb"] = ("MB", statistics.median(rep["children_rss_mb"] for rep in real))
    # Traced and untraced repetitions alternate within the run, so their raw
    # walls see the same host; rescaling each by its own probes adds noise.
    walls = [statistics.median(rep["wall_s"] for rep in kind) for kind in (traced, twin)]
    metrics["tracing.overhead"] = ("ratio", walls[0] / walls[1] - 1.0)
    metrics["clock.reported_gap_s"] = (
        "s",
        statistics.median(
            at_reference_speed("s", rep["call_s"] - rep["reported_wall_s"], call_probe_s(rep)) for rep in real
        ),
    )
    return {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()}


def host() -> dict:
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()}


def measure(server: ForkServer, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; write its full record and return the summary."""
    reps = collect(server, workload, seed, seconds, trace)
    attempted, failed = tally(reps)
    if trace:
        metrics = per_layer(workload, reps)
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end(reps, attempted, failed).items()
        }
    probe_s = statistics.median(sample for rep in reps for sample in rep["probe_s"])
    paths = sorted({path for rep in reps for path in rep.get("ledger", {}).get("engine_path", ())})
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    info = dict(host(), numpy=reps[0]["host"]["numpy"])
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": info,
        "engine_path": paths,
        "columnar_flag": reps[0].get("columnar_flag"),
        "probe_s": probe_s,
        "summary": summary,
        "reps": reps,
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    print(f"{workload}: seed {seed}, {len(reps)} repetitions, host {json.dumps(info)}")
    print(
        f"{workload}: host probe {probe_s * 1e3:.2f} ms against {PROBE_REFERENCE_S * 1e3:.0f} ms;"
        " durations and rates below are at the reference speed"
    )
    if paths:
        print(f"{workload}: engine path {'+'.join(paths)}")
    for name, metric in metrics.items():
        print(f"{workload}: {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{workload}: error_rate = {failed}/{attempted} = {failed / attempted:.6g} ratio")
    for rep in reps:
        for problem in rep["problems"]:
            print(f"{workload}: FAILED CHECK {problem}")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (1 is pinned in digests.json)")
    parser.add_argument("--seconds", type=float, default=28.0, help="measurement time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    server = ForkServer()
    try:
        summaries = {name: measure(server, name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except HarnessError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        server.close()
    if args.workload == "all":
        result = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{name}/{key}": m for name, s in summaries.items() for key, m in s["metrics"].items()},
        }
    else:
        result = summaries[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
