"""The one replay-path decision: which loop a replay actually runs.

:meth:`repro.workload.engine.WorkloadEngine.stream` is the one switch: it
runs the columnar loop whenever :func:`repro.columnar.engine.fast_path`
holds (no overload admission, fault plane, client resilience or kernel
execution) and the controlled loop otherwise.  These tests spy on the
loops themselves, so they fail if an entry point silently takes another
path — outputs alone cannot tell, because both loops are bit-identical by
construction.
"""

from __future__ import annotations

import json

import pytest

from repro.columnar import engine as columnar_engine
from repro.columnar.draws import LognormalBlock
from repro.concurrency import OverloadConfig
from repro.config import Provider, SimulationConfig
from repro.experiments.base import deploy_benchmark
from repro.faults import FaultPlaneConfig, OutageWindow
from repro.population import PopulationSpec, replay_population
from repro.resilience import ResilienceConfig
from repro.simulator.providers import create_platform
from repro.workload import PoissonArrivals, WorkloadTrace
from repro.workload.engine import WorkloadEngine
from repro.workflows import standard_workflow, synthesize_workflow_arrivals

from oracle import scalar_reference


class _Spy:
    """Counts calls to a wrapped function and forwards them."""

    def __init__(self, function):
        self.function = function
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.function(*args, **kwargs)


@pytest.fixture
def loops(monkeypatch):
    """Spies on the columnar loop and the controlled (scalar) loop."""
    columnar = _Spy(columnar_engine._replay)
    scalar = _Spy(WorkloadEngine._stream_overload)
    monkeypatch.setattr(columnar_engine, "_replay", columnar)
    monkeypatch.setattr(
        WorkloadEngine, "_stream_overload", lambda self, *a, **k: scalar(self, *a, **k)
    )
    return columnar, scalar


def _platform(**simkw):
    platform = create_platform(Provider.AWS, SimulationConfig(seed=7, **simkw))
    fnames = [
        deploy_benchmark(platform, "dynamic-html", memory_mb=256, function_name="fn-a"),
        deploy_benchmark(platform, "thumbnailer", memory_mb=512, function_name="fn-b"),
    ]
    return platform, fnames


def _trace(fnames):
    return WorkloadTrace.merge(
        *(
            WorkloadTrace.synthesize(fname, PoissonArrivals(10.0), duration_s=20.0, rng=index)
            for index, fname in enumerate(fnames)
        )
    )


def _workflow_platform():
    """Two function-disjoint workflows, so a sharded replay plans two shards."""
    platform = create_platform(Provider.AWS, SimulationConfig(seed=7))
    arrivals = []
    for index, name in enumerate(("fanout", "pipeline")):
        spec, functions = standard_workflow(name, fan_out=3)
        for function in functions:
            deploy_benchmark(
                platform, function.benchmark, memory_mb=function.memory_mb,
                function_name=function.function_name,
            )
        arrivals.extend(
            synthesize_workflow_arrivals(spec, PoissonArrivals(2.0), 20.0, rng=index)
        )
    arrivals.sort(key=lambda arrival: arrival.submitted_at)
    return platform, arrivals


def _series_json(result):
    return json.dumps(result.timeseries.to_dict(), sort_keys=True)


def _streaming_json(result):
    return json.dumps(
        {
            "counters": [
                result.invocations,
                result.cold_start_total,
                result.failure_total,
                result.total_cost_usd,
                result.simulated_span_s,
            ],
            "summaries": {
                name: json.dumps(summary.__dict__, default=repr, sort_keys=True)
                for name, summary in sorted(result.streaming_summaries.items())
            },
        },
        sort_keys=True,
    )


class TestFastPathPredicate:
    def test_default_config_is_fast_path(self):
        platform, _ = _platform()
        assert columnar_engine.fast_path(platform)

    @pytest.mark.parametrize(
        "simkw",
        [
            {"overload": OverloadConfig(reserved_concurrency=4)},
            {"faults": FaultPlaneConfig(outages=(OutageWindow(start_s=1.0, duration_s=1.0),))},
            {"resilience": ResilienceConfig(stale_after_s=1.0)},
        ],
        ids=["overload", "faults", "resilience"],
    )
    def test_controlled_replays_are_not(self, simkw):
        platform, _ = _platform(**simkw)
        assert not columnar_engine.fast_path(platform)

    def test_kernel_execution_is_not(self):
        platform = create_platform(Provider.AWS, SimulationConfig(seed=7), execute_kernels=True)
        assert not columnar_engine.fast_path(platform)


class TestDefaultConfigRunsColumnar:
    def test_streaming_run_workload(self, loops):
        columnar, scalar = loops
        platform, fnames = _platform()
        result = platform.run_workload(_trace(fnames), keep_records=False)
        assert result.invocations > 0
        assert columnar.calls == 1
        assert scalar.calls == 0

    def test_replay_population(self, loops):
        columnar, scalar = loops
        population = PopulationSpec(
            n_functions=30, duration_s=60.0, aggregate_rate_per_s=5.0, name="path-pop"
        )
        platform = create_platform(Provider.AWS, SimulationConfig(seed=7))
        replay = replay_population(platform, population, workers=1)
        assert replay.result.invocations > 0
        assert columnar.calls >= 1
        assert scalar.calls == 0

    def test_controlled_replay_runs_scalar(self, loops):
        columnar, scalar = loops
        platform, fnames = _platform(overload=OverloadConfig(reserved_concurrency=4))
        platform.run_workload(_trace(fnames), keep_records=False)
        assert columnar.calls == 0
        assert scalar.calls == 1

    def test_kernel_execution_runs_scalar(self, loops):
        columnar, scalar = loops
        platform = create_platform(Provider.AWS, SimulationConfig(seed=7), execute_kernels=True)
        deploy_benchmark(platform, "dynamic-html", memory_mb=256, function_name="fn-a")
        trace = WorkloadTrace.synthesize("fn-a", PoissonArrivals(2.0), duration_s=3.0, rng=0)
        assert platform.run_workload(trace).invocations > 0
        assert (columnar.calls, scalar.calls) == (0, 1)

    @pytest.mark.parametrize("keep_records", (True, False))
    def test_run_workflows(self, loops, keep_records):
        columnar, scalar = loops
        platform, arrivals = _workflow_platform()
        result = platform.run_workflows(arrivals, keep_records=keep_records)
        assert result.invocation_total > 0
        assert (columnar.calls, scalar.calls) == (1, 0)

    @pytest.mark.parametrize("keep_records", (True, False))
    def test_sharded_run_workflows(self, loops, keep_records):
        columnar, scalar = loops
        platform, arrivals = _workflow_platform()
        result = platform.run_workflows(
            arrivals, keep_records=keep_records, workers=2, backend="sequential"
        )
        assert result.invocation_total > 0
        # One columnar loop per shard (one workflow each), never the scalar one.
        assert (columnar.calls, scalar.calls) == (2, 0)

    def test_invoke_stream(self, loops):
        columnar, scalar = loops
        platform, fnames = _platform()
        stream = platform.invoke_stream(_trace(fnames))
        assert next(stream).request_index == 0
        stream.close()
        assert (columnar.calls, scalar.calls) == (1, 0)


class TestShardedTimeSeries:
    @pytest.mark.parametrize("keep_records", (False, True))
    def test_runs_columnar_and_matches_serial(self, loops, keep_records):
        columnar, scalar = loops
        platform, fnames = _platform()
        serial = platform.run_workload(_trace(fnames), keep_records=keep_records, timeseries=5.0)
        assert (columnar.calls, scalar.calls) == (1, 0)

        platform, fnames = _platform()
        sharded = platform.run_workload(
            _trace(fnames),
            keep_records=keep_records,
            timeseries=5.0,
            workers=2,
            backend="sequential",
        )
        # One columnar loop per shard, and never the scalar one.
        assert (columnar.calls, scalar.calls) == (3, 0)
        assert _series_json(sharded) == _series_json(serial)
        if keep_records:
            assert sharded.records == serial.records
        else:
            assert _streaming_json(sharded) == _streaming_json(serial)

    def test_process_backend_matches_serial(self):
        platform, fnames = _platform()
        serial = platform.run_workload(_trace(fnames), keep_records=False, timeseries=5.0)
        platform, fnames = _platform()
        sharded = platform.run_workload(
            _trace(fnames), keep_records=False, timeseries=5.0, workers=2, backend="process"
        )
        assert _series_json(sharded) == _series_json(serial)
        assert _streaming_json(sharded) == _streaming_json(serial)


class TestScalarReference:
    """The oracle the differential tier and the benches compare against."""

    def test_routes_to_the_scalar_loop_on_raw_generators(self, loops):
        """The oracle runs the controlled loop, the only scalar loop left."""
        columnar, scalar = loops
        with scalar_reference():
            platform, fnames = _platform()
            platform.run_workload(_trace(fnames), keep_records=False)
            assert not columnar_engine.fast_path(platform)
        assert (columnar.calls, scalar.calls) == (0, 1)
        assert not isinstance(platform._state["fn-a"].gateway_stream, LognormalBlock)

    def test_default_installs_draw_blocks(self):
        platform, fnames = _platform()
        platform.run_workload(_trace(fnames), keep_records=False)
        assert isinstance(platform._state["fn-a"].gateway_stream, LognormalBlock)
