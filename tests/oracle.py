"""The scalar reference engine, for differential tests and benches.

The library has one per-invocation model,
:func:`repro.columnar.engine.lane_step`: the columnar loop, the controlled
loop (``WorkloadEngine._stream_overload``), ``invoke`` and ``invoke_batch``
all sample through it.  This module keeps the scalar chain that step
replaced — ``_simulate_invocation`` → ``_simulate_reserved_invocation`` →
compute / reliability / network / billing models, and the base
``_acquire_container`` — frozen as an independent implementation to prove
the step against.

:func:`scalar_reference` routes everything inside its ``with`` block to
it: every replay (traces, shards, populations, workflows,
``invoke_stream``) runs the controlled loop, every runtime state keeps its
raw generators (no pre-drawn blocks), and
``SimulatedPlatform._simulate_invocation`` is this module's frozen copy.
Direct ``invoke`` / ``invoke_batch`` calls therefore run the chain too.
With no overload, fault or resilience policy configured, the controlled
loop is byte-identical to the columnar loop.

Build the platform *and* replay inside the block: draw blocks are installed
when a function's runtime state is created.  Process-backend shards fork
inside the block and inherit the patch.

Import it from a test as ``from oracle import scalar_reference`` (pytest
puts ``tests/`` on ``sys.path``); scripts outside ``tests/`` add that
directory first.

Everything below is frozen.  A deliberate change to the per-invocation
model lands in ``lane_step`` and is mirrored here by hand; the
differential tier (``tests/test_columnar_equivalence.py``) then shows the
two agree, and fails on any change made to one side only.  The unit
tests of the compute and reliability behaviours
(``tests/test_simulator_core.py``) drive ``lane_step`` itself, not this
copy.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from unittest import mock

from repro.columnar import engine as columnar_engine
from repro.config import DYNAMIC_MEMORY, InvocationOutcome, Provider, StartType, TriggerType
from repro.faas.invocation import InvocationRecord, payload_wire_bytes
from repro.simulator import platform_sim
from repro.simulator.containers import Container
from repro.simulator.platform_sim import SimulatedPlatform, _LogEntry

#: Size of the UTF-8 encoding of an empty JSON payload (``b"{}"``).
_EMPTY_PAYLOAD_BYTES = len(json.dumps({}).encode("utf-8"))


# ------------------------------------------------------------ compute model


@dataclass(frozen=True)
class ExecutionSample:
    """One simulated execution of a benchmark inside a sandbox."""

    benchmark_time_s: float
    compute_time_s: float
    storage_time_s: float
    cold_init_s: float
    memory_used_mb: float


def compute_time(compute, profile, memory_mb, concurrent=False):
    """CPU portion of the benchmark time under ``memory_mb``."""
    performance = compute._performance
    share = compute.cpu_share(memory_mb)
    base = profile.warm_compute_s * performance.compute_speed_factor / share
    cv = performance.compute_jitter_cv
    if concurrent:
        cv *= performance.concurrency_jitter_factor
    return base * compute._jitter(cv)


def storage_time(compute, profile, memory_mb):
    """Persistent-storage portion: one contention draw, then the transfers."""
    storage = compute.storage_model
    contention = storage.draw_contention()
    bases = storage.transfer_bases(profile, compute.effective_memory(memory_mb))
    return storage.invocation_time(bases, contention) if bases else 0.0


def memory_used(compute, profile):
    """Peak memory of one invocation with small measurement noise."""
    noise = compute._rng.normal(loc=1.0, scale=0.03)
    return float(max(1.0, profile.peak_memory_mb * max(0.85, noise)))


def execute(compute, profile, memory_mb, cold, code_package_mb, concurrent=False):
    """Produce all durations of one invocation."""
    compute_s = compute_time(compute, profile, memory_mb, concurrent)
    storage_s = storage_time(compute, profile, memory_mb)
    cold_init = compute.cold_init_time(profile, memory_mb, code_package_mb) if cold else 0.0
    return ExecutionSample(
        benchmark_time_s=compute_s + storage_s,
        compute_time_s=compute_s,
        storage_time_s=storage_s,
        cold_init_s=cold_init,
        memory_used_mb=memory_used(compute, profile),
    )


# -------------------------------------------------------- reliability model


@dataclass(frozen=True)
class FailureDecision:
    """Outcome of the reliability check for one invocation."""

    failed: bool
    reason: str = ""
    message: str = ""


def check(reliability, profile, memory_mb, memory_used_mb, concurrency=1):
    """Evaluate failure conditions for one invocation."""
    if not reliability._enabled:
        return FailureDecision(failed=False)
    decision = _check_memory(reliability, profile, memory_mb, memory_used_mb)
    if decision.failed:
        return decision
    return _check_availability(reliability, memory_mb, concurrency)


def _check_memory(reliability, profile, memory_mb, memory_used_mb):
    if memory_mb == DYNAMIC_MEMORY:
        return FailureDecision(failed=False)
    if reliability._provider not in reliability._STRICT_MEMORY_PROVIDERS:
        if memory_used_mb > memory_mb * 1.5:
            return FailureDecision(True, "out-of-memory", f"used {memory_used_mb:.0f} MB of {memory_mb} MB")
        return FailureDecision(failed=False)
    if memory_used_mb > memory_mb:
        return FailureDecision(True, "out-of-memory", f"used {memory_used_mb:.0f} MB of {memory_mb} MB")
    if memory_mb < profile.peak_memory_mb * 1.10 and reliability._rng.random() < 0.05:
        return FailureDecision(True, "out-of-memory", "sporadic memory-limit violation")
    return FailureDecision(failed=False)


def _check_availability(reliability, memory_mb, concurrency):
    provider = reliability._provider
    if provider not in reliability._BURST_FAILURE_PROVIDERS or concurrency < 10:
        return FailureDecision(failed=False)
    probability = 0.0
    if provider is Provider.GCP:
        probability = 0.01
        if memory_mb >= 4096 and concurrency >= 50:
            probability = 0.6
    elif provider is Provider.AZURE:
        probability = 0.02
    if reliability._rng.random() < probability:
        return FailureDecision(True, "unavailable", "service could not allocate resources for the burst")
    return FailureDecision(failed=False)


# ---------------------------------------------------------- invocation chain


def _acquire_container(platform, function, state, start_at):
    """Base sandbox acquisition: eviction, spurious cold start, MRU pick."""
    evicted = platform.eviction_policy.apply(state.pool, start_at)
    if evicted and platform._observer is not None:
        platform._observer.on_container_evict(function.name, evicted, start_at, "policy")
    spurious = (
        platform._spurious_probability > 0
        and state.spurious_stream.random() < platform._spurious_probability
    )
    if not spurious:
        container = state.pool.pick_mru(function.version)
        if container is not None:
            return container, StartType.WARM
    container = Container(
        function_name=function.name,
        function_version=function.version,
        memory_mb=function.config.memory_mb,
        created_at=start_at,
        container_id=state.pool.next_container_id(),
    )
    state.pool.add(container)
    if platform._observer is not None:
        platform._observer.on_container_create(function.name, container.container_id, start_at)
    return container, StartType.COLD


def _simulate_invocation(
    self,
    fname,
    payload,
    trigger,
    payload_bytes,
    concurrency,
    start_at,
    request_index=-1,
    fault_scale=None,
):
    """Frozen ``SimulatedPlatform._simulate_invocation``; leaves the sandbox reserved."""
    function = self.get_function(fname)
    state = self._state.get(fname)
    if state is None:
        state = self._runtime_state(fname)
    profile = self._profile_for(function, state)
    memory_mb = function.config.memory_mb
    if type(self)._acquire_container is SimulatedPlatform._acquire_container:
        container, start_type = _acquire_container(self, function, state, start_at)
    else:
        container, start_type = self._acquire_container(function, state, start_at)
    state.pool.reserve(container.container_id)
    try:
        return _simulate_reserved_invocation(
            self, fname, function, state, profile, container, start_type,
            payload, trigger, payload_bytes, concurrency, start_at, memory_mb,
            request_index, fault_scale,
        )
    except BaseException:
        state.pool.release(container.container_id)
        raise


def _simulate_reserved_invocation(
    self,
    fname,
    function,
    state,
    profile,
    container,
    start_type,
    payload,
    trigger,
    payload_bytes,
    concurrency,
    start_at,
    memory_mb,
    request_index=-1,
    fault_scale=None,
):
    """Frozen scalar chain: compute, reliability, kernel, wire, billing."""
    sample = execute(
        state.compute,
        profile,
        memory_mb=memory_mb,
        cold=start_type is StartType.COLD,
        code_package_mb=function.package.size_mb,
        concurrent=concurrency > 1,
    )
    failure = check(
        state.reliability,
        profile,
        memory_mb=memory_mb,
        memory_used_mb=sample.memory_used_mb,
        concurrency=concurrency,
    )

    output: dict = {}
    output_bytes = profile.output_bytes
    if self.execute_kernels and payload and not failure.failed:
        output, output_bytes = self._execute_kernel(function, payload)

    if payload_bytes is not None:
        request_bytes = payload_bytes
    elif payload:
        request_bytes = payload_wire_bytes(payload)
    else:
        request_bytes = _EMPTY_PAYLOAD_BYTES
    overhead_profile = self._invocation_profile
    via_http = trigger is TriggerType.HTTP
    gateway = overhead_profile.http_gateway_s if via_http else overhead_profile.sdk_overhead_s
    gateway *= float(
        state.gateway_stream.lognormal(mean=self._gateway_mean, sigma=self._gateway_sigma)
    )
    payload_upload_s = request_bytes / (overhead_profile.payload_bandwidth_mbps * 1024 * 1024)
    response_download_s = output_bytes / (overhead_profile.response_bandwidth_mbps * 1024 * 1024)
    request_network_s = state.network.one_way_delay("request")
    response_network_s = state.network.one_way_delay("response")

    sampled_benchmark_time_s = sample.benchmark_time_s
    cold_init_s = sample.cold_init_s
    if fault_scale is not None:
        compute_scale, network_scale = fault_scale
        sampled_benchmark_time_s *= compute_scale
        cold_init_s *= compute_scale
        gateway *= network_scale
        payload_upload_s *= network_scale
        response_download_s *= network_scale
        request_network_s *= network_scale
        response_network_s *= network_scale

    invocation_overhead_s = request_network_s + gateway + payload_upload_s + cold_init_s

    if failure.failed:
        benchmark_time_s = 0.0
        provider_time_s = self._runtime_overhead_s
        success = False
    else:
        benchmark_time_s = sampled_benchmark_time_s
        provider_time_s = benchmark_time_s + self._runtime_overhead_s
        success = True

    client_time_s = invocation_overhead_s + provider_time_s + response_download_s + response_network_s

    if success and provider_time_s > function.config.timeout_s:
        success = False
        failure_reason = "timeout"
        provider_time_s = function.config.timeout_s
        client_time_s = invocation_overhead_s + provider_time_s + response_network_s
    else:
        failure_reason = failure.reason if failure.failed else None

    billing = self.billing
    billed_duration_s = billing.billed_duration(provider_time_s)
    cost = billing.invocation_cost(
        duration_s=provider_time_s,
        declared_memory_mb=memory_mb,
        used_memory_mb=sample.memory_used_mb,
        output_bytes=output_bytes if success else 0,
        storage_requests=profile.storage_read_requests + profile.storage_write_requests,
        via_http_api=via_http,
        billed_duration_s=billed_duration_s,
    )

    started_at = start_at + invocation_overhead_s
    finished_at = start_at + client_time_s
    container.serve(finished_at)
    state.pool.touch(container)

    state.history.append(
        _LogEntry(
            function_name=fname,
            provider_time_s=provider_time_s,
            memory_used_mb=sample.memory_used_mb,
            cost_usd=cost.total,
            start_type=start_type,
            success=success,
            timestamp=finished_at,
        )
    )

    return InvocationRecord(
        function_name=fname,
        benchmark=function.benchmark,
        provider=self.provider,
        start_type=start_type,
        success=success,
        benchmark_time_s=benchmark_time_s,
        provider_time_s=provider_time_s,
        client_time_s=client_time_s,
        invocation_overhead_s=invocation_overhead_s,
        cold_init_s=cold_init_s,
        memory_declared_mb=memory_mb,
        memory_used_mb=sample.memory_used_mb,
        billed_duration_s=billed_duration_s,
        cost=cost,
        output_bytes=output_bytes,
        container_id=container.container_id,
        submitted_at=start_at,
        started_at=started_at,
        finished_at=finished_at,
        error=failure_reason,
        output=output,
        outcome=InvocationOutcome.COMPLETED if success else InvocationOutcome.FAILED,
        admitted_at=start_at,
        request_index=request_index,
    )


@contextlib.contextmanager
def scalar_reference(active: bool = True):
    """Run the scalar reference engine inside the block (no-op if not ``active``)."""
    if not active:
        yield
        return
    with mock.patch.object(
        columnar_engine, "fast_path", lambda platform: False
    ), mock.patch.object(
        platform_sim, "install_draw_blocks", lambda state, platform: None
    ), mock.patch.object(
        SimulatedPlatform, "_simulate_invocation", _simulate_invocation
    ):
        yield
