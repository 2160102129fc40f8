"""Workflow-replay throughput: composed invocations per wall-clock second.

Not a paper figure — this target measures the *workflow orchestration
subsystem* (:mod:`repro.workflows`): how fast a fan-out/fan-in DAG with
100 000+ constituent invocations replays through the event-queue engine in
streaming mode, and whether the critical-path accounting stays exact at
scale.  The rate guards against regressions in the feedback request source
(an accidental barrier or re-sort would crater it), and the tracemalloc
target pins the O(functions + in-flight executions) memory bound of
``keep_records=False``.

The 100k target also replays the same arrivals on the scalar reference
engine (``tests/oracle.py::scalar_reference()``) in the same process,
asserts every replay's simulated outputs identical, and gates the
same-process ratio: workflows run the columnar loop, so the default engine
must stay at least 1.3x the scalar reference.  A ratio is robust to host
speed in a way an absolute floor is not.

Besides the printed report, the 100k target writes
``benchmarks/BENCH_workflow_throughput.json`` — machine-readable
throughput, the scalar reference's throughput and the speedup over it,
peak RSS and end-to-end latency percentiles, with the previous run's
figures carried along as ``previous`` so the perf trajectory is tracked
across PRs.  Both throughputs are the best of ``RATIO_ROUNDS`` rounds, and
peak RSS covers every replay of the process, the reference rounds included.
"""

from __future__ import annotations

import resource
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import emit_bench_json, run_once

from repro.config import Provider, SimulationConfig
from repro.experiments.base import deploy_benchmark
from repro.simulator.providers import create_platform
from repro.workload import PoissonArrivals
from repro.workflows import standard_workflow, synthesize_workflow_arrivals

sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from oracle import scalar_reference  # noqa: E402

#: fanout DAG: split + fan_out map tasks + collect = 10 invocations/execution.
FAN_OUT = 8
EXECUTIONS = 10_000
CONSTITUENT_INVOCATIONS = EXECUTIONS * (FAN_OUT + 2)
ARRIVAL_RATE_PER_S = 20.0
#: Alternating scalar/default rounds of the 100k replay; the best round of
#: each engine is kept, so one slow phase of a noisy host cannot decide the
#: ratio gate.
RATIO_ROUNDS = 3

BENCH_JSON = Path(__file__).resolve().parent / "BENCH_workflow_throughput.json"


def _peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux: ru_maxrss is kB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _deployed_platform(simulation: SimulationConfig):
    platform = create_platform(Provider.AWS, simulation)
    spec, functions = standard_workflow("fanout", fan_out=FAN_OUT)
    for function in functions:
        deploy_benchmark(
            platform,
            function.benchmark,
            memory_mb=function.memory_mb,
            function_name=function.function_name,
        )
    return platform, spec


def _simulated_outputs(result) -> tuple:
    """Every simulated output of a streaming replay (wall clock excluded)."""
    return (
        result.execution_count,
        result.invocation_total,
        result.cold_start_total,
        result.failure_total,
        result.cost_usd_total,
        result.compute_s_total,
        result.cold_start_s_total,
        result.trigger_propagation_s_total,
        result.end_to_end_s_total,
        result.simulated_span_s,
        result.peak_in_flight,
        {name: repr(summary) for name, summary in result.summaries.items()},
    )


def _emit_bench_json(result, summary, scalar) -> None:
    """Write the machine-readable perf record, keeping the previous run."""
    emit_bench_json(
        BENCH_JSON,
        {
            "benchmark": "workflow_throughput_100k",
            "executions": result.execution_count,
            "constituent_invocations": result.invocation_total,
            "wall_clock_s": round(result.wall_clock_s, 4),
            "throughput_per_s": round(result.throughput_per_s, 1),
            "scalar_throughput_per_s": round(scalar.throughput_per_s, 1),
            "speedup_vs_scalar": round(result.throughput_per_s / scalar.throughput_per_s, 2),
            "peak_rss_mb": round(_peak_rss_mb(), 1),
            "e2e_p50_ms": round(summary.end_to_end.median * 1000.0, 3),
            "e2e_p95_ms": round(summary.end_to_end.percentiles[95.0] * 1000.0, 3),
            "cold_start_rate": round(result.cold_start_rate, 5),
            "peak_in_flight": result.peak_in_flight,
            "compute_share": round(
                result.compute_s_total
                / (
                    result.compute_s_total
                    + result.cold_start_s_total
                    + result.trigger_propagation_s_total
                ),
                4,
            ),
        },
    )


def test_workflow_replay_throughput_100k(benchmark):
    """A 100k-constituent-invocation fan-out/fan-in replay in streaming mode.

    The same arrivals replay on the scalar reference engine and on the
    default engine, each on a freshly deployed platform, for
    ``RATIO_ROUNDS`` rounds with the order alternating between rounds.
    Every replay's simulated outputs must match exactly before any
    throughput figure is recorded.  Every default round must clear the
    absolute floor; the ratio gate compares each engine's best round, and
    the default engine must hold >= 1.3x the reference.
    """
    simulation = SimulationConfig(seed=42, log_retention=10_000)
    spec, _ = standard_workflow("fanout", fan_out=FAN_OUT)
    arrivals = synthesize_workflow_arrivals(
        spec,
        PoissonArrivals(ARRIVAL_RATE_PER_S),
        duration_s=1.02 * EXECUTIONS / ARRIVAL_RATE_PER_S,
        rng=42,
    )
    assert len(arrivals) >= EXECUTIONS
    arrivals = arrivals[:EXECUTIONS]

    replays = {True: [], False: []}

    def rounds():
        for index in range(RATIO_ROUNDS):
            for scalar in (True, False) if index % 2 == 0 else (False, True):
                with scalar_reference(scalar):
                    platform, _ = _deployed_platform(simulation)
                    replays[scalar].append(
                        platform.run_workflows(arrivals, keep_records=False)
                    )

    run_once(benchmark, rounds)
    reference = _simulated_outputs(replays[True][0])
    for replay in replays[True] + replays[False]:
        assert _simulated_outputs(replay) == reference
    scalar = max(replays[True], key=lambda replay: replay.throughput_per_s)
    result = max(replays[False], key=lambda replay: replay.throughput_per_s)

    speedup = result.throughput_per_s / scalar.throughput_per_s
    print(
        f"\nreplayed {result.execution_count} workflow executions "
        f"({result.invocation_total} constituent invocations, "
        f"{result.simulated_span_s:.0f}s of virtual time) in {result.wall_clock_s:.2f}s "
        f"wall clock => {result.throughput_per_s:,.0f} invocations/s "
        f"({speedup:.2f}x the scalar reference's {scalar.throughput_per_s:,.0f}/s), "
        f"peak in-flight {result.peak_in_flight}"
    )
    summary = result.per_workflow()["fanout"]
    _emit_bench_json(result, summary, scalar)

    assert result.execution_count == EXECUTIONS
    assert result.invocation_total == CONSTITUENT_INVOCATIONS
    assert result.executions == []  # streaming mode keeps no per-execution state
    # Critical-path components must account for the whole end-to-end time:
    # the three buckets tile every execution's interval by construction.
    components = (
        result.compute_s_total + result.cold_start_s_total + result.trigger_propagation_s_total
    )
    assert components == pytest.approx(result.end_to_end_s_total, rel=1e-9)
    # Steady 20/s arrivals keep sandboxes warm; trigger edges always cost
    # something, so propagation is a visible but minority share.
    assert result.cold_start_rate < 0.05
    assert result.trigger_propagation_s_total > 0
    # Throughput floor: constituent invocations must replay within the same
    # order of magnitude as flat traces (the workflow layer adds one
    # hash-seeded generator per edge, not a new hot path).
    assert min(replay.throughput_per_s for replay in replays[False]) > 5_000.0
    # Ratio gate: workflows run the columnar loop, measured 1.45-1.9x the
    # scalar reference on a 2-vCPU x86-64 host.  Falling back to the scalar
    # loop would put the ratio near 1.0.
    assert speedup >= 1.3


def test_workflow_streaming_memory_is_bounded(benchmark):
    """tracemalloc audit: streaming workflow replay holds per-workflow
    accumulators and in-flight execution state only — the python-heap peak
    stays flat as the execution count grows."""
    executions = 5_000
    simulation = SimulationConfig(seed=7, log_retention=1_000)
    platform, spec = _deployed_platform(simulation)
    arrivals = synthesize_workflow_arrivals(
        spec,
        PoissonArrivals(ARRIVAL_RATE_PER_S),
        duration_s=1.05 * executions / ARRIVAL_RATE_PER_S,
        rng=7,
    )[:executions]

    tracemalloc.start()
    result = run_once(
        benchmark, lambda: platform.run_workflows(arrivals, keep_records=False)
    )
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    peak_mb = peak_bytes / (1024.0 * 1024.0)
    print(
        f"\nstreamed {result.execution_count} executions "
        f"({result.invocation_total} invocations), python heap peak {peak_mb:.1f} MB"
    )
    assert result.execution_count == executions
    # Materialised execution results would be tens of MB at this scale; the
    # arrival list itself dominates the bounded streaming state.
    assert peak_mb < 24.0
