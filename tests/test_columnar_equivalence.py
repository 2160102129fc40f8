"""Columnar replay must equal scalar replay — bit for bit.

The differential tier behind the columnar hot path (see
``docs/architecture.md``, "Columnar hot path"): every scenario is replayed
twice on identically-seeded platforms — once on the scalar reference
engine (``oracle.scalar_reference()``), once on the default columnar
engine — and every observable output is compared with ``==`` (which for
floats is bit equality, no tolerances):

* the full record list, field for field, including cost breakdowns,
  container ids, submission/start/finish timestamps and request indices;
* streaming summaries (counts, sums, reservoir percentile state);
* provider logs, final clock, peak in-flight, simulated span;
* observer event streams (container create/evict, per-record hooks);
* sharded replay (``workers=2``) on both backends, where record-mode
  shards ship columnar blocks across the process boundary;
* workflow replays (records, streaming, ``record_sink``, ``timeseries=``
  and ``workers=2`` on both backends), whose feedback request source feeds
  the columnar loop one stage task at a time;
* ``invoke_stream`` — records, clock, provider logs and warm pools, for a
  stream run to exhaustion and for one abandoned half-way and closed;
* direct ``invoke`` / ``invoke_batch`` calls on every provider and IaaS
  (Azure's shared sandboxes exercise the burst reservation rule), across
  version bumps and input-size changes, and a kernel-executing replay;
* every branch of the reliability check and the timeout — out-of-memory
  beyond 1.5x the allocation (AWS) and above it (GCP), GCP's sporadic
  borderline kills, burst unavailability up to GCP's 4 GB bursts of 50,
  Azure's dynamic memory and the ``enable_failures=False`` switch — on
  ``invoke`` / ``invoke_batch`` and on a replay.

Every one of these callers samples through the one lane step
(:func:`repro.columnar.engine.lane_step`); the reference side runs the
frozen scalar chain of ``tests/oracle.py`` on raw generators instead.

Every scenario deploys ``dynamic-html`` (no storage transfers),
``thumbnailer`` (2) and ``compression`` (41 reads + 1 write), so the
per-invocation batched storage-jitter draw is compared at batch sizes 0, 2
and 42.  Scenarios are hypothesis-generated over providers × arrival
patterns × trigger types × the overload/fault/resilience stack, plus
explicit pinned cases for every provider, IaaS (both storage modes) and
the controlled stack — hedged duplicates, stale resubmission, crashes with
and without survivors, and a latency storm whose multipliers scale the
step's durations.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchmarks.base import BenchmarkContext, InputSize
from repro.concurrency import OverloadConfig
from repro.config import DYNAMIC_MEMORY, Provider, SimulationConfig, StartType, TriggerType
from repro.experiments.base import deploy_benchmark
from repro.faas.platform import LogQueryType
from repro.faults import ContainerCrash, FaultPlaneConfig, LatencyStorm, OutageWindow
from repro.observe.events import ReplayObserver
from repro.parallel import run_workload_sharded
from repro.resilience import CircuitBreakerConfig, HedgeConfig, ResilienceConfig
from repro.simulator.iaas import IaaSPlatform
from repro.simulator.providers import create_platform
from repro.workload import (
    BurstyArrivals,
    ConstantRateArrivals,
    PoissonArrivals,
    WorkloadTrace,
)
from repro.workload.engine import WorkloadEngine
from repro.workflows import (
    merge_workflow_arrivals,
    standard_workflow,
    synthesize_workflow_arrivals,
)

from oracle import scalar_reference

PROVIDERS = (Provider.AWS, Provider.GCP, Provider.AZURE)


# ----------------------------------------------------------------- helpers


def _record_key(record):
    """Every field of an InvocationRecord, as a comparable tuple."""
    return (
        record.function_name,
        record.benchmark,
        record.provider,
        record.start_type,
        record.success,
        record.benchmark_time_s,
        record.provider_time_s,
        record.client_time_s,
        record.invocation_overhead_s,
        record.cold_init_s,
        record.memory_declared_mb,
        record.memory_used_mb,
        record.billed_duration_s,
        record.cost.request_cost,
        record.cost.compute_cost,
        record.cost.storage_cost,
        record.cost.egress_cost,
        record.output_bytes,
        record.container_id,
        record.submitted_at,
        record.started_at,
        record.finished_at,
        record.error,
        record.outcome,
        record.admitted_at,
        record.request_index,
    )


def _stream_key(result):
    """Streaming-mode result signature: counters + summary state."""
    rows = {
        name: json.dumps(summary.__dict__, default=repr, sort_keys=True)
        for name, summary in sorted(result.streaming_summaries.items())
    }
    return (
        result.invocation_count,
        result.cold_start_total,
        result.failure_total,
        result.executed_total,
        result.throttled_total,
        result.dropped_total,
        result.faulted_total,
        result.short_circuited_total,
        result.retry_total,
        result.cost_usd_total,
        result.simulated_span_s,
        rows,
    )


def _logs_key(platform, fnames):
    out = []
    for fname in fnames:
        out.append(
            [
                (
                    entry.provider_time_s,
                    entry.memory_used_mb,
                    entry.cost_usd,
                    entry.start_type,
                    entry.success,
                    entry.timestamp,
                )
                for entry in platform._state[fname].history
            ]
        )
    return out


def _build_platform(provider, seed, **simkw):
    simulation = SimulationConfig(seed=seed, **simkw)
    platform = create_platform(provider, simulation=simulation)
    memory = DYNAMIC_MEMORY if provider is Provider.AZURE else 512
    f1 = deploy_benchmark(platform, "dynamic-html", memory_mb=memory, function_name="fn-a")
    f2 = deploy_benchmark(platform, "thumbnailer", memory_mb=memory, function_name="fn-b")
    f3 = deploy_benchmark(platform, "compression", memory_mb=memory, function_name="fn-c")
    return platform, (f1, f2, f3)


def _trace(fnames, process_a, process_b, duration_s, trigger_b):
    t1 = WorkloadTrace.synthesize(
        fnames[0], process_a, duration_s, rng=11, trigger=TriggerType.HTTP
    )
    t2 = WorkloadTrace.synthesize(fnames[1], process_b, duration_s, rng=12, trigger=trigger_b)
    t3 = WorkloadTrace.synthesize(fnames[2], process_b, duration_s, rng=13, trigger=trigger_b)
    return WorkloadTrace.merge(t1, t2, t3)


def _replay_both(provider, trace_of, keep_records, seed=2026, observer_factory=None, **simkw):
    """Replay one scenario scalar and columnar; return both outputs."""
    outputs = []
    for scalar in (True, False):
        with scalar_reference(scalar):
            platform, fnames = _build_platform(provider, seed, **simkw)
            engine = WorkloadEngine(platform)
            observer = observer_factory() if observer_factory is not None else None
            result = engine.run(trace_of(fnames), keep_records=keep_records, observer=observer)
        outputs.append((result, platform, fnames, observer))
    return outputs


def _assert_identical(outputs, keep_records):
    (res_s, plat_s, fnames, _), (res_c, plat_c, _, _) = outputs
    if keep_records:
        assert len(res_s.records) == len(res_c.records)
        for scalar, columnar in zip(res_s.records, res_c.records):
            assert _record_key(scalar) == _record_key(columnar)
    else:
        assert _stream_key(res_s) == _stream_key(res_c)
    assert res_s.simulated_span_s == res_c.simulated_span_s
    assert res_s.peak_in_flight == res_c.peak_in_flight
    assert plat_s.clock.now() == plat_c.clock.now()
    assert _logs_key(plat_s, fnames) == _logs_key(plat_c, fnames)


# ------------------------------------------------------ hypothesis scenarios

_ARRIVALS = {
    "poisson": lambda rate: PoissonArrivals(rate),
    "bursty": lambda rate: BurstyArrivals(
        on_rate_per_s=rate * 3, mean_on_s=3.0, mean_off_s=6.0
    ),
    "constant": lambda rate: ConstantRateArrivals(rate),
}


def _stack_kwargs(overload, faults, resilience):
    simkw = {}
    if overload:
        simkw["overload"] = OverloadConfig(per_function_reserved={"fn-a": 8})
    if faults:
        simkw["faults"] = FaultPlaneConfig(
            outages=(OutageWindow(start_s=3.0, duration_s=2.5),),
            crashes=(ContainerCrash(at_s=6.0), ContainerCrash(at_s=12.0, survive_fraction=0.5)),
            storms=(
                LatencyStorm(
                    start_s=8.0, duration_s=3.0, compute_multiplier=2.5, network_multiplier=1.7
                ),
            ),
        )
    if resilience:
        simkw["resilience"] = ResilienceConfig(
            breaker=CircuitBreakerConfig(cooldown_s=2.0),
            retry_policy="exponential",
            hedge=HedgeConfig(delay_s=0.25),
            stale_after_s=0.2,
        )
    return simkw


scenario = st.fixed_dictionaries(
    {
        "provider": st.sampled_from(PROVIDERS),
        "pattern": st.sampled_from(sorted(_ARRIVALS)),
        "rate": st.floats(min_value=2.0, max_value=25.0),
        "duration_s": st.floats(min_value=4.0, max_value=15.0),
        "trigger_b": st.sampled_from((TriggerType.SDK, TriggerType.HTTP)),
        "overload": st.booleans(),
        "faults": st.booleans(),
        "resilience": st.booleans(),
        "keep_records": st.booleans(),
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
    }
)


class TestHypothesisScenarios:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(case=scenario)
    def test_scalar_and_columnar_replays_are_bit_identical(self, case):
        arrivals = _ARRIVALS[case["pattern"]]

        def trace_of(fnames):
            return _trace(
                fnames,
                arrivals(case["rate"]),
                arrivals(max(1.0, case["rate"] / 2)),
                case["duration_s"],
                case["trigger_b"],
            )

        simkw = _stack_kwargs(case["overload"], case["faults"], case["resilience"])
        outputs = _replay_both(
            case["provider"], trace_of, case["keep_records"], seed=case["seed"], **simkw
        )
        _assert_identical(outputs, case["keep_records"])


# ------------------------------------------------------------ pinned cases


def _mixed_trace(fnames):
    return _trace(fnames, PoissonArrivals(20.0), PoissonArrivals(15.0), 20.0, TriggerType.SDK)


class TestPinnedProviders:
    @pytest.mark.parametrize("provider", PROVIDERS)
    @pytest.mark.parametrize("keep_records", (True, False))
    def test_fast_path(self, provider, keep_records):
        outputs = _replay_both(provider, _mixed_trace, keep_records)
        _assert_identical(outputs, keep_records)

    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_full_stack_records(self, provider):
        simkw = _stack_kwargs(True, True, True)
        outputs = _replay_both(
            provider, _mixed_trace, True, observer_factory=_RecordingObserver, **simkw
        )
        _assert_identical(outputs, True)
        (result, _, _, observer), _ = outputs
        # Every policy the stack configures actually fired.
        assert result.hedge_count > 0
        assert any(record.error == "stale" for record in result.records)
        assert result.faulted_count > 0
        assert any(event[0] == "evict" and event[4] == "crash" for event in observer.events)
        assert any(
            8.0 <= record.admitted_at < 11.0 and record.start_type is not StartType.NONE
            for record in result.records
        )

    @pytest.mark.parametrize("use_cloud_storage", (False, True))
    def test_iaas(self, use_cloud_storage):
        outputs = []
        for scalar in (True, False):
            with scalar_reference(scalar):
                simulation = SimulationConfig(seed=2026)
                platform = IaaSPlatform(simulation=simulation, use_cloud_storage=use_cloud_storage)
                f1 = deploy_benchmark(platform, "dynamic-html", memory_mb=1024, function_name="fn-a")
                f2 = deploy_benchmark(platform, "thumbnailer", memory_mb=1024, function_name="fn-b")
                f3 = deploy_benchmark(platform, "compression", memory_mb=1024, function_name="fn-c")
                engine = WorkloadEngine(platform)
                result = engine.run(_mixed_trace((f1, f2, f3)), keep_records=True)
            outputs.append((result, platform, (f1, f2, f3), None))
        _assert_identical(outputs, True)


class _RecordingObserver(ReplayObserver):
    """Captures the sandbox and invocation hook calls, in order."""

    def __init__(self):
        self.events = []

    def on_container_create(self, fname, container_id, timestamp):
        self.events.append(("create", fname, container_id, timestamp))

    def on_container_evict(self, fname, count, timestamp, reason):
        self.events.append(("evict", fname, count, timestamp, reason))

    def on_invocation(self, record):
        self.events.append(("invocation", _record_key(record)))


class TestObserverStream:
    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_observer_events_identical(self, provider):
        outputs = _replay_both(
            provider, _mixed_trace, True, observer_factory=_RecordingObserver
        )
        (res_s, _, _, obs_s), (res_c, _, _, obs_c) = outputs
        assert obs_s.events == obs_c.events
        for scalar, columnar in zip(res_s.records, res_c.records):
            assert _record_key(scalar) == _record_key(columnar)


class TestSharded:
    """workers=2: columnar shards ship blocks; merged output equals serial scalar."""

    @pytest.mark.parametrize("backend", ("sequential", "process"))
    @pytest.mark.parametrize("keep_records", (True, False))
    def test_sharded_columnar_equals_serial_scalar(self, backend, keep_records):
        with scalar_reference():
            serial_platform, fnames = _build_platform(Provider.AWS, 2026)
            serial = WorkloadEngine(serial_platform).run(
                _mixed_trace(fnames), keep_records=keep_records
            )
        platform, fnames = _build_platform(Provider.AWS, 2026)
        sharded = run_workload_sharded(
            platform,
            _mixed_trace(fnames),
            workers=2,
            backend=backend,
            keep_records=keep_records,
        )
        if keep_records:
            assert [_record_key(r) for r in sharded.records] == [
                _record_key(r) for r in serial.records
            ]
        else:
            assert _stream_key(sharded) == _stream_key(serial)

    def test_sharded_timeseries_falls_back_scalar_identical(self):
        """Time-series shards run the columnar loop yielding record objects;
        their merged series and streaming output equal the scalar
        reference's."""
        results = []
        for scalar in (True, False):
            with scalar_reference(scalar):
                platform, fnames = _build_platform(Provider.AWS, 2026)
                result = run_workload_sharded(
                    platform,
                    _mixed_trace(fnames),
                    workers=2,
                    keep_records=False,
                    timeseries=5.0,
                )
            results.append(result)
        scalar, columnar = results
        assert _stream_key(scalar) == _stream_key(columnar)
        assert json.dumps(scalar.timeseries.to_dict(), sort_keys=True) == json.dumps(
            columnar.timeseries.to_dict(), sort_keys=True
        )


# --------------------------------------------------------------- workflows


def _workflow_platform():
    """AWS platform with the fanout, pipeline and branch workflows deployed."""
    platform = create_platform(Provider.AWS, SimulationConfig(seed=2026))
    specs = {}
    fnames = []
    for name in ("fanout", "pipeline", "branch"):
        spec, functions = standard_workflow(name, fan_out=4)
        for function in functions:
            deploy_benchmark(
                platform,
                function.benchmark,
                memory_mb=function.memory_mb,
                function_name=function.function_name,
            )
            fnames.append(function.function_name)
        specs[name] = spec
    return platform, specs, fnames


def _workflow_arrivals(specs):
    """Three function-disjoint workflows; ``branch`` takes both routes."""
    return merge_workflow_arrivals(
        synthesize_workflow_arrivals(specs["fanout"], PoissonArrivals(2.0), 30.0, rng=21),
        synthesize_workflow_arrivals(
            specs["pipeline"],
            BurstyArrivals(on_rate_per_s=3.0, mean_on_s=3.0, mean_off_s=6.0),
            30.0,
            rng=22,
        ),
        synthesize_workflow_arrivals(
            specs["branch"], PoissonArrivals(1.0), 30.0, rng=23, payload={"size": "small"}
        ),
        synthesize_workflow_arrivals(
            specs["branch"], PoissonArrivals(0.5), 30.0, rng=24, payload={"size": "large"}
        ),
    )


def _workflow_key(result):
    """Every simulated output of a workflow replay (wall clock excluded)."""
    return json.dumps(
        {
            "executions": [repr(execution) for execution in result.executions],
            "counters": [
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
            ],
            "summaries": {name: repr(summary) for name, summary in result.summaries.items()},
        },
        sort_keys=True,
    )


def _replay_workflows_both(**kwargs):
    """Replay the workflow mix scalar and columnar; return both outputs."""
    outputs = []
    for scalar in (True, False):
        with scalar_reference(scalar):
            platform, specs, fnames = _workflow_platform()
            result = platform.run_workflows(_workflow_arrivals(specs), **kwargs)
        outputs.append((result, platform, fnames))
    return outputs


class TestWorkflows:
    """Workflows feed the columnar loop through a feedback request source."""

    @pytest.mark.parametrize("keep_records", (True, False))
    def test_serial(self, keep_records):
        (res_s, plat_s, fnames), (res_c, plat_c, _) = _replay_workflows_both(
            keep_records=keep_records
        )
        assert res_s.invocation_total > 500
        assert bool(res_c.executions) is keep_records
        assert _workflow_key(res_s) == _workflow_key(res_c)
        assert plat_s.clock.now() == plat_c.clock.now()
        assert _logs_key(plat_s, fnames) == _logs_key(plat_c, fnames)

    def test_record_sink(self):
        sinks = ([], [])
        outputs = []
        for scalar, sink in zip((True, False), sinks):
            with scalar_reference(scalar):
                platform, specs, _ = _workflow_platform()
                result = platform.run_workflows(
                    _workflow_arrivals(specs), keep_records=False, record_sink=sink.append
                )
            outputs.append(_workflow_key(result))
        assert outputs[0] == outputs[1]
        assert len(sinks[0]) == result.invocation_total
        assert [_record_key(r) for r in sinks[0]] == [_record_key(r) for r in sinks[1]]

    @pytest.mark.parametrize("keep_records", (True, False))
    def test_timeseries(self, keep_records):
        (res_s, _, _), (res_c, _, _) = _replay_workflows_both(
            keep_records=keep_records, timeseries=5.0
        )
        assert _workflow_key(res_s) == _workflow_key(res_c)
        assert json.dumps(res_s.timeseries.to_dict(), sort_keys=True) == json.dumps(
            res_c.timeseries.to_dict(), sort_keys=True
        )

    @pytest.mark.parametrize("backend", ("sequential", "process"))
    @pytest.mark.parametrize("keep_records", (True, False))
    def test_sharded(self, backend, keep_records):
        (res_s, _, _), (res_c, _, _) = _replay_workflows_both(
            keep_records=keep_records, workers=2, backend=backend
        )
        assert _workflow_key(res_s) == _workflow_key(res_c)


# ------------------------------------------------------------ invoke_stream


def _platform_state_key(platform, fnames):
    """Clock, provider logs and live warm-pool state after a stream."""
    pools = []
    for fname in fnames:
        pool = platform._state[fname].pool
        pools.append(
            (
                platform.warm_container_count(fname),
                dict(pool._in_use),
                [
                    (c.container_id, c.state, c.created_at, c.last_used_at, c.invocations)
                    for c in pool.all_containers()
                    if c.is_warm
                ],
            )
        )
    logs = [
        [platform.query_logs(fname, query) for query in LogQueryType] for fname in fnames
    ]
    return platform.clock.now(), logs, _logs_key(platform, fnames), pools


class TestInvokeStream:
    """``invoke_stream`` runs the columnar loop lazily, record by record."""

    @pytest.mark.parametrize("provider", PROVIDERS)
    @pytest.mark.parametrize(
        "stop_after, log_retention",
        [(None, None), (1_500, None), (1_500, 100)],
        ids=["exhausted", "abandoned", "abandoned-retention"],
    )
    def test_records_and_state(self, provider, stop_after, log_retention):
        outputs = []
        for scalar in (True, False):
            with scalar_reference(scalar):
                platform, fnames = _build_platform(
                    provider, 2026, log_retention=log_retention
                )
                trace = _trace(
                    fnames, PoissonArrivals(20.0), PoissonArrivals(15.0), 60.0, TriggerType.SDK
                )
                stream = platform.invoke_stream(trace)
                records = []
                for record in stream:
                    records.append(_record_key(record))
                    if len(records) == stop_after:
                        break
                stream.close()
            outputs.append((records, _platform_state_key(platform, fnames)))
        (records_s, state_s), (records_c, state_c) = outputs
        assert len(records_s) == (stop_after or len(trace))
        assert records_s == records_c
        assert state_s == state_c


# ------------------------------------------------------ invoke / invoke_batch


def _drive_invokes(platform, fnames, bump_version=True):
    """A scripted mix of direct invocations; returns every record."""
    records = []
    for _ in range(3):
        for fname in fnames:
            records.append(platform.invoke(fname, {}))
            records.append(
                platform.invoke(fname, {"size": "x" * 300}, trigger=TriggerType.SDK)
            )
            records.append(platform.invoke(fname, {}, payload_bytes=2_000_000))
        # Bursts of 12 and 60 cross the availability-failure thresholds
        # (concurrency >= 10 / >= 50) on GCP and Azure.
        records.extend(platform.invoke_batch(fnames[0], 12))
        records.extend(platform.invoke_batch(fnames[1], 60, trigger=TriggerType.SDK))
        records.extend(platform.invoke_batch(fnames[2], 3, payload={"k": 1}))
        platform.clock.advance(200.0)
    # Invalidate the cached lanes: a new version with new memory, and a new
    # input size.
    if bump_version:
        function = platform.get_function(fnames[0])
        if function.config.memory_mb != DYNAMIC_MEMORY:
            config = replace(function.config, memory_mb=1024)
        else:
            config = function.config
        platform.update_function(fnames[0], config=config)
    platform.set_input_size(fnames[1], InputSize.LARGE)
    for fname in fnames:
        records.append(platform.invoke(fname, {}))
        records.extend(platform.invoke_batch(fname, 4))
    return records


def _invoke_both(build, bump_version=True):
    """Drive the invoke script on the scalar chain and on the lane step."""
    outputs = []
    for scalar in (True, False):
        with scalar_reference(scalar):
            platform, fnames = build()
            records = [
                _record_key(record)
                for record in _drive_invokes(platform, fnames, bump_version)
            ]
        outputs.append((records, _platform_state_key(platform, fnames)))
    return outputs


class TestInvoke:
    """``invoke`` and ``invoke_batch`` sample through the lane step."""

    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_invoke_and_batches(self, provider):
        (records_s, state_s), (records_c, state_c) = _invoke_both(
            lambda: _build_platform(provider, 2026)
        )
        assert len(records_s) > 250
        assert records_s == records_c
        assert state_s == state_c

    @pytest.mark.parametrize("use_cloud_storage", (False, True))
    def test_iaas(self, use_cloud_storage):
        def build():
            platform = IaaSPlatform(
                simulation=SimulationConfig(seed=2026), use_cloud_storage=use_cloud_storage
            )
            fnames = tuple(
                deploy_benchmark(platform, benchmark, memory_mb=1024, function_name=name)
                for benchmark, name in (
                    ("dynamic-html", "fn-a"),
                    ("thumbnailer", "fn-b"),
                    ("compression", "fn-c"),
                )
            )
            return platform, fnames

        # No version bump: an updated IaaS function has no sandbox to run on.
        (records_s, state_s), (records_c, state_c) = _invoke_both(build, bump_version=False)
        assert records_s == records_c
        assert state_s == state_c


# ------------------------------------------------------ reliability branches

#: (provider, enable_failures, deployed (benchmark, memory MB, timeout s)).
#: Peaks: image-recognition 480 MB, compression 250 MB, video-processing
#: ~261 MB (~1.5 s of CPU work).  Azure allocates memory dynamically only,
#: so its lenient 1.5x limit is reachable on AWS alone.
_GCP_FUNCTIONS = (
    ("image-recognition", 256, None),  # declared below the peak: killed
    ("compression", 256, None),  # within 10% of the peak: sporadic kills
    ("video-processing", 4096, None),  # bursts of 50 at 4 GB: 60% unavailable
)
_RELIABILITY_CASES = {
    "aws": (
        Provider.AWS,
        True,
        (
            ("image-recognition", 256, None),  # beyond 1.5x: killed
            ("compression", 168, None),  # around 1.5x: killed or tolerated
            ("video-processing", 1024, 1.0),  # slower than its timeout
        ),
    ),
    "gcp": (Provider.GCP, True, _GCP_FUNCTIONS),
    "gcp-failures-off": (Provider.GCP, False, _GCP_FUNCTIONS),
    "azure-dynamic": (
        Provider.AZURE,
        True,
        tuple((benchmark, DYNAMIC_MEMORY, None) for benchmark, _, _ in _GCP_FUNCTIONS),
    ),
}


def _reliability_run(case):
    """Bursts, sequential calls and a replay of the case's functions."""
    provider, enable_failures, functions = _RELIABILITY_CASES[case]
    platform = create_platform(
        provider, SimulationConfig(seed=2026, enable_failures=enable_failures)
    )
    fnames = tuple(
        deploy_benchmark(
            platform, benchmark, memory_mb=memory, timeout_s=timeout, function_name=f"fn-{i}"
        )
        for i, (benchmark, memory, timeout) in enumerate(functions)
    )
    records = []
    for fname in fnames:
        records.extend(platform.invoke(fname, {}) for _ in range(5))
        records.extend(platform.invoke_batch(fname, 12))
        records.extend(platform.invoke_batch(fname, 50))
        platform.clock.advance(200.0)
    trace = WorkloadTrace.merge(
        *(
            WorkloadTrace.synthesize(fname, PoissonArrivals(20.0), 20.0, rng=40 + i)
            for i, fname in enumerate(fnames)
        )
    )
    records.extend(platform.run_workload(trace).records)
    return records, _platform_state_key(platform, fnames)


class TestReliabilityBranches:
    """The step's reliability check and timeout, branch by branch."""

    @pytest.mark.parametrize("case", sorted(_RELIABILITY_CASES))
    def test_invoke_and_replay(self, case):
        outputs = []
        for scalar in (True, False):
            with scalar_reference(scalar):
                outputs.append(_reliability_run(case))
        (records_s, state_s), (records_c, state_c) = outputs
        assert [_record_key(r) for r in records_s] == [_record_key(r) for r in records_c]
        assert state_s == state_c

        errors = {}
        for record in records_c:
            errors.setdefault(record.function_name, Counter())[record.error] += 1
        if case == "aws":
            assert set(errors["fn-0"]) == {"out-of-memory"}
            assert set(errors["fn-1"]) == {None, "out-of-memory"}
            assert set(errors["fn-2"]) == {"timeout"}
        elif case == "gcp":
            assert set(errors["fn-0"]) == {"out-of-memory"}
            assert {None, "out-of-memory"} <= set(errors["fn-1"])
            assert errors["fn-2"]["unavailable"] >= 20
            assert "out-of-memory" not in errors["fn-2"]
        elif case == "gcp-failures-off":
            assert all(set(counts) == {None} for counts in errors.values())
        else:
            unavailable = sum(counts["unavailable"] for counts in errors.values())
            assert unavailable > 0
            assert all(set(counts) <= {None, "unavailable"} for counts in errors.values())


class TestKernelReplay:
    """``execute_kernels=True``: the step takes the kernel-output hook."""

    def test_records_outputs_and_state(self):
        outputs = []
        for scalar in (True, False):
            with scalar_reference(scalar):
                platform = create_platform(
                    Provider.AWS, SimulationConfig(seed=2026), execute_kernels=True
                )
                fname = deploy_benchmark(
                    platform, "dynamic-html", memory_mb=512, function_name="fn-a",
                    input_size=InputSize.TEST,
                )
                benchmark = platform.registry.get("dynamic-html")
                context = BenchmarkContext(
                    storage=platform.object_store, rng=np.random.default_rng(1)
                )
                payload = benchmark.generate_input(InputSize.TEST, context)
                trace = WorkloadTrace.merge(
                    WorkloadTrace.synthesize(
                        fname, PoissonArrivals(8.0), 10.0, rng=31, payload=payload
                    ),
                    WorkloadTrace.synthesize(
                        fname, PoissonArrivals(4.0), 10.0, rng=32, trigger=TriggerType.SDK
                    ),
                )
                result = platform.run_workload(trace)
            outputs.append(
                (
                    [_record_key(record) for record in result.records],
                    [json.dumps(record.output, sort_keys=True) for record in result.records],
                    _platform_state_key(platform, (fname,)),
                )
            )
        scalar, columnar = outputs
        assert any(output != "{}" for output in scalar[1])
        assert scalar == columnar
