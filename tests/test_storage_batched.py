"""The batched storage draw equals the per-transfer loop — bit for bit.

An invocation's storage time (the lane step's, and ``storage_time`` of the
frozen reference in ``tests/oracle.py``) draws all of its transfer
jitters in a single vectorized ``Generator.lognormal(mean, sigma, n)`` call
(``StorageLatencyModel.invocation_time``) and folds the sum left to right.  The per-transfer loop it replaced lives
on here, only as an oracle: one scalar ``transfer_time`` body per request,
reads before writes, with the contention event drawn once per invocation.
For every case the batched path must return the identical float *and*
leave every generator it touched in the identical state, so any later draw
from the same stream (memory noise, cold-start jitter, the next
invocation) is unaffected.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks.base import WorkProfile
from repro.config import DYNAMIC_MEMORY, Provider, SimulationConfig
from repro.exceptions import ConfigurationError
from repro.experiments.base import deploy_benchmark
from repro.faas.limits import limits_for
from repro.simulator.compute import ComputeModel
from repro.simulator.iaas import IaaSPlatform
from repro.simulator.profiles import profile_for
from repro.storage.latency import StorageLatencyModel, StorageProfile

from oracle import storage_time

REQUEST_COUNTS = (0, 1, 2, 41, 64)


def _oracle_transfer(storage, num_bytes, memory_mb, contention):
    """One transfer exactly as ``transfer_time`` computed it per request."""
    profile = storage.profile
    bandwidth = storage.bandwidth_mbps(memory_mb) * 1024 * 1024
    base = profile.base_latency_s + num_bytes / bandwidth
    if profile.jitter_cv > 0:
        sigma = np.sqrt(np.log(1.0 + profile.jitter_cv**2))
        jitter = float(storage._rng.lognormal(mean=-sigma**2 / 2.0, sigma=sigma))
    else:
        jitter = 1.0
    duration = base * jitter
    if contention:
        duration *= profile.contention_slowdown
    return float(duration)


def _oracle_storage_time(compute, profile, memory_mb):
    """The per-transfer loop ``storage_time`` used to run."""
    storage = compute.storage_model
    effective = compute.effective_memory(memory_mb)
    contention = storage.draw_contention()
    total = 0.0
    if profile.storage_read_bytes > 0 or profile.storage_read_requests > 0:
        requests = max(1, profile.storage_read_requests)
        per_request = profile.storage_read_bytes // requests
        for _ in range(requests):
            total += _oracle_transfer(storage, per_request, effective, contention)
    if profile.storage_write_bytes > 0 or profile.storage_write_requests > 0:
        requests = max(1, profile.storage_write_requests)
        per_request = profile.storage_write_bytes // requests
        for _ in range(requests):
            total += _oracle_transfer(storage, per_request, effective, contention)
    return total


def _work_profile(read_requests, read_bytes, write_requests, write_bytes):
    return WorkProfile(
        warm_compute_s=0.1,
        cold_init_s=0.2,
        instructions=1e8,
        cpu_utilization=0.5,
        peak_memory_mb=100.0,
        storage_read_bytes=read_bytes,
        storage_write_bytes=write_bytes,
        storage_read_requests=read_requests,
        storage_write_requests=write_requests,
    )


def _states(compute):
    return (
        compute._rng.bit_generator.state,
        compute.storage_model._rng.bit_generator.state,
    )


requests = st.sampled_from(REQUEST_COUNTS)
transfer_bytes = st.one_of(st.just(0), st.integers(min_value=1, max_value=2 * 1024**3))
# Dynamic (resolved to the provider's effective size), below and above the
# 1024 MB reference at which bandwidth saturates.
memories = st.one_of(
    st.just(DYNAMIC_MEMORY),
    st.integers(min_value=64, max_value=1023),
    st.integers(min_value=1025, max_value=10240),
)
jitter_cvs = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.5))
# Off, the usual few per cent, and (all but) always on.
contention_ps = st.sampled_from((0.0, 0.05, 0.999999))
seeds = st.integers(min_value=0, max_value=2**63 - 1)


class TestStorageTimeMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        provider=st.sampled_from((Provider.AWS, Provider.GCP, Provider.AZURE)),
        read_requests=requests,
        read_bytes=transfer_bytes,
        write_requests=requests,
        write_bytes=transfer_bytes,
        memory_mb=memories,
        jitter_cv=jitter_cvs,
        contention_p=contention_ps,
        seed=seeds,
        invocations=st.integers(min_value=1, max_value=3),
    )
    def test_identical_float_and_generator_state(
        self,
        provider,
        read_requests,
        read_bytes,
        write_requests,
        write_bytes,
        memory_mb,
        jitter_cv,
        contention_p,
        seed,
        invocations,
    ):
        performance = profile_for(provider)
        storage = replace(
            performance.storage,
            jitter_cv=jitter_cv,
            contention_tail_probability=contention_p,
        )
        performance = replace(performance, storage=storage)
        profile = _work_profile(read_requests, read_bytes, write_requests, write_bytes)
        batched = ComputeModel(performance, limits_for(provider), np.random.default_rng(seed))
        oracle = ComputeModel(performance, limits_for(provider), np.random.default_rng(seed))
        # Several invocations in a row also exercise the warm bases cache.
        for _ in range(invocations):
            expected = _oracle_storage_time(oracle, profile, memory_mb)
            assert storage_time(batched, profile, memory_mb) == expected
            assert _states(batched) == _states(oracle)


class TestInvocationTimeForcedContention:
    @settings(max_examples=200, deadline=None)
    @given(
        read_requests=requests,
        read_bytes=transfer_bytes,
        write_requests=requests,
        write_bytes=transfer_bytes,
        memory_mb=st.integers(min_value=64, max_value=10240),
        jitter_cv=jitter_cvs,
        contention=st.booleans(),
        seed=seeds,
    )
    def test_forced_contention(
        self, read_requests, read_bytes, write_requests, write_bytes, memory_mb, jitter_cv,
        contention, seed,
    ):
        profile = StorageProfile(jitter_cv=jitter_cv, contention_slowdown=3.0)
        work = _work_profile(read_requests, read_bytes, write_requests, write_bytes)
        batched = StorageLatencyModel(profile, np.random.default_rng(seed))
        oracle = StorageLatencyModel(profile, np.random.default_rng(seed))
        expected = 0.0
        for direction_bytes, direction_requests in (
            (read_bytes, read_requests),
            (write_bytes, write_requests),
        ):
            if direction_bytes > 0 or direction_requests > 0:
                count = max(1, direction_requests)
                for _ in range(count):
                    expected += _oracle_transfer(
                        oracle, direction_bytes // count, memory_mb, contention
                    )
        bases = batched.transfer_bases(work, memory_mb)
        assert batched.invocation_time(bases, contention) == expected
        assert batched._rng.bit_generator.state == oracle._rng.bit_generator.state

    def test_bases_are_reads_then_writes(self):
        model = StorageLatencyModel(StorageProfile(), np.random.default_rng(0))
        bases = model.transfer_bases(_work_profile(2, 4 * 1024**2, 1, 0), 1024)
        assert len(bases) == 3
        assert bases[0] == bases[1] > bases[2] == model.profile.base_latency_s
        assert model.transfer_bases(_work_profile(0, 0, 0, 0), 1024) == ()


class TestIaaSCloudStorage:
    """IaaS swaps in an S3 model with its own stream after construction."""

    @settings(max_examples=25, deadline=None)
    @given(
        benchmark=st.sampled_from(("compression", "thumbnailer", "dynamic-html")),
        # The VM deploys at 1024 MB only; the model itself takes any size.
        memory_mb=st.sampled_from((512, 1024, 2048)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_dedicated_stream(self, benchmark, memory_mb, seed):
        platform = IaaSPlatform(simulation=SimulationConfig(seed=seed), use_cloud_storage=True)
        fname = deploy_benchmark(platform, benchmark, memory_mb=1024)
        state = platform._runtime_state(fname)
        profile = platform._profile_for(platform.get_function(fname), state)
        batched = state.compute
        oracle = copy.deepcopy(batched)
        assert batched.storage_model._rng is not batched._rng
        for _ in range(3):
            expected = _oracle_storage_time(oracle, profile, memory_mb)
            assert storage_time(batched, profile, memory_mb) == expected
            assert _states(batched) == _states(oracle)


def test_negative_bytes_still_rejected():
    model = StorageLatencyModel(StorageProfile(), np.random.default_rng(0))
    with pytest.raises(ConfigurationError, match="negative"):
        model.transfer_bases(_work_profile(1, -5, 0, 0), 1024)
