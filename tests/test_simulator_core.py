"""Tests for the simulator building blocks: containers, eviction, compute, reliability.

The per-invocation compute and reliability behaviours are sampled by
:func:`repro.columnar.engine.lane_step`, so their tests drive that step on
a lane built for a function of a chosen work profile and memory size.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.benchmarks.base import WorkProfile
from repro.columnar.engine import build_lane, lane_record, lane_step
from repro.config import DYNAMIC_MEMORY, Provider, SimulationConfig, StartType
from repro.exceptions import PlatformError
from repro.experiments.base import deploy_benchmark
from repro.faas.limits import limits_for
from repro.simulator.compute import ComputeModel
from repro.simulator.containers import Container, ContainerPool, ContainerState
from repro.simulator.eviction import AWS_EVICTION_PERIOD_S, HalfLifeEvictionPolicy, IdleTimeoutEvictionPolicy
from repro.simulator.profiles import profile_for
from repro.simulator.providers import create_platform


def make_container(created_at=0.0, name="f", version=1, memory=128) -> Container:
    return Container(function_name=name, function_version=version, memory_mb=memory, created_at=created_at)


def make_pool(count: int, created_at: float = 0.0, name: str = "f") -> ContainerPool:
    pool = ContainerPool(name)
    for _ in range(count):
        container = make_container(created_at=created_at, name=name)
        container.mark_warm(created_at)
        pool.add(container)
    return pool


class TestContainer:
    def test_serve_updates_state_and_counters(self):
        container = make_container()
        container.serve(5.0)
        assert container.invocations == 1
        assert container.last_used_at == 5.0
        assert container.is_warm

    def test_evicted_container_cannot_serve(self):
        container = make_container()
        container.evict()
        with pytest.raises(PlatformError):
            container.serve(1.0)
        with pytest.raises(PlatformError):
            container.mark_warm(1.0)

    def test_uptime_and_idle_time(self):
        container = make_container(created_at=10.0)
        container.serve(15.0)
        assert container.uptime(20.0) == 10.0
        assert container.idle_time(20.0) == 5.0

    def test_unique_ids(self):
        assert make_container().container_id != make_container().container_id


class TestContainerPool:
    def test_warm_count_and_version_filter(self):
        pool = ContainerPool("f")
        c1 = make_container(version=1)
        c1.mark_warm(0.0)
        c2 = make_container(version=2)
        c2.mark_warm(0.0)
        pool.add(c1)
        pool.add(c2)
        assert pool.warm_count() == 2
        assert pool.warm_count(version=2) == 1

    def test_rejects_foreign_containers(self):
        pool = ContainerPool("f")
        with pytest.raises(PlatformError):
            pool.add(make_container(name="other"))

    def test_evict_all_and_prune(self):
        pool = make_pool(5)
        assert pool.evict_all() == 5
        assert pool.warm_count() == 0
        assert len(pool) == 5
        pool.prune()
        assert len(pool) == 0

    def test_total_created_counts_history(self):
        pool = make_pool(3)
        pool.evict_all()
        assert pool.total_created() == 3


class TestHalfLifeEviction:
    def test_no_eviction_within_first_period(self):
        policy = HalfLifeEvictionPolicy(period_s=380.0)
        pool = make_pool(20)
        assert policy.apply(pool, now=379.0) == 0
        assert pool.warm_count() == 20

    @pytest.mark.parametrize("d_init,periods,expected", [(20, 1, 10), (20, 2, 5), (20, 3, 2), (8, 1, 4), (8, 3, 1), (12, 2, 3)])
    def test_halving_model(self, d_init, periods, expected):
        policy = HalfLifeEvictionPolicy(period_s=380.0)
        pool = make_pool(d_init)
        policy.apply(pool, now=380.0 * periods + 1.0)
        assert pool.warm_count() == expected

    def test_eviction_is_deterministic(self):
        for _ in range(3):
            policy = HalfLifeEvictionPolicy(period_s=380.0)
            pool = make_pool(16)
            policy.apply(pool, now=381.0)
            assert pool.warm_count() == 8

    def test_default_period_matches_paper(self):
        assert AWS_EVICTION_PERIOD_S == 380.0
        assert HalfLifeEvictionPolicy().period_s == 380.0

    def test_rejects_non_positive_period(self):
        with pytest.raises(Exception):
            HalfLifeEvictionPolicy(period_s=0.0)


class TestIdleTimeoutEviction:
    def test_keeps_recently_used_containers(self):
        policy = IdleTimeoutEvictionPolicy(mean_idle_timeout_s=900.0, jitter_cv=0.0, rng=np.random.default_rng(0))
        pool = make_pool(5)
        assert policy.apply(pool, now=100.0) == 0

    def test_evicts_idle_containers_after_timeout(self):
        policy = IdleTimeoutEvictionPolicy(mean_idle_timeout_s=900.0, jitter_cv=0.0, rng=np.random.default_rng(0))
        pool = make_pool(5)
        assert policy.apply(pool, now=1000.0) == 5

    def test_jitter_makes_evictions_gradual(self):
        policy = IdleTimeoutEvictionPolicy(mean_idle_timeout_s=900.0, jitter_cv=0.6, rng=np.random.default_rng(1))
        pool = make_pool(50)
        policy.apply(pool, now=900.0)
        survivors = pool.warm_count()
        assert 0 < survivors < 50


PROFILE = WorkProfile(
    warm_compute_s=0.1,
    cold_init_s=0.2,
    instructions=1e8,
    cpu_utilization=0.95,
    peak_memory_mb=100.0,
    storage_read_bytes=1024 * 1024,
    storage_write_bytes=1024 * 1024,
    storage_read_requests=1,
    storage_write_requests=1,
    output_bytes=1000,
    code_package_mb=10.0,
)

#: PROFILE without storage traffic: its benchmark time is pure compute.
COMPUTE_PROFILE = replace(
    PROFILE,
    storage_read_bytes=0,
    storage_write_bytes=0,
    storage_read_requests=0,
    storage_write_requests=0,
)


def _sampler(provider, profile, memory_mb, seed=0, enable_failures=True):
    """Invocations of a function with work ``profile`` deployed at ``memory_mb``.

    Returns ``sample(cold=False, concurrency=1)``, the record of one
    :func:`lane_step` on the function's lane (SDK trigger, empty payload).
    """
    platform = create_platform(
        provider, SimulationConfig(seed=seed, enable_failures=enable_failures)
    )
    fname = deploy_benchmark(platform, "dynamic-html", memory_mb=memory_mb, function_name="f")
    function = platform.get_function(fname)
    state = platform._runtime_state(fname)
    # Seed the platform's profile cache, so the lane resolves ``profile``.
    state.profile = profile
    state.profile_key = (function.benchmark, state.input_size, state.language)
    lane = build_lane(platform, function, state)

    def sample(cold=False, concurrency=1):
        start_type = StartType.COLD if cold else StartType.WARM
        step = lane_step(lane, cold, concurrency, False, None, None)
        return lane_record(lane, provider, start_type, False, step, "c-1", 0.0, 0)

    return sample


class TestComputeModel:
    def _model(self, provider=Provider.AWS, seed=0) -> ComputeModel:
        return ComputeModel(profile_for(provider), limits_for(provider), np.random.default_rng(seed))

    def test_cpu_share_plateaus_at_one_vcpu(self):
        model = self._model()
        assert model.cpu_share(1792) == pytest.approx(1.0)
        assert model.cpu_share(3008) == pytest.approx(1.0)
        assert model.cpu_share(896) == pytest.approx(0.5)

    def test_compute_time_decreases_with_memory_until_plateau(self):
        def compute_time(memory_mb):
            sample = _sampler(Provider.AWS, COMPUTE_PROFILE, memory_mb)
            return np.median([sample().benchmark_time_s for _ in range(50)])

        t128, t1024, t1792, t3008 = (compute_time(memory) for memory in (128, 1024, 1792, 3008))
        assert t128 > t1024 > t1792
        assert t3008 == pytest.approx(t1792, rel=0.2)

    def test_dynamic_memory_uses_effective_size(self):
        model = self._model(Provider.AZURE)
        assert model.effective_memory(DYNAMIC_MEMORY) == profile_for(Provider.AZURE).dynamic_memory_effective_mb

    def test_gcp_compute_slower_than_aws(self):
        aws = _sampler(Provider.AWS, COMPUTE_PROFILE, 2048)
        gcp = _sampler(Provider.GCP, COMPUTE_PROFILE, 2048)
        aws_time = np.median([aws().benchmark_time_s for _ in range(100)])
        gcp_time = np.median([gcp().benchmark_time_s for _ in range(100)])
        assert gcp_time > aws_time

    def test_cold_init_includes_package_download(self):
        model = self._model()
        small = np.median([model.cold_init_time(PROFILE, 1024, code_package_mb=1.0) for _ in range(50)])
        large = np.median([model.cold_init_time(PROFILE, 1024, code_package_mb=240.0) for _ in range(50)])
        assert large > small

    def test_aws_cold_init_decreases_with_memory(self):
        model = self._model(Provider.AWS)
        low = np.median([model.cold_init_time(PROFILE, 128, 10.0) for _ in range(100)])
        high = np.median([model.cold_init_time(PROFILE, 2048, 10.0) for _ in range(100)])
        assert high < low

    def test_gcp_cold_init_grows_with_memory(self):
        """The paper's surprising finding: high memory hurts GCP cold starts."""
        model = self._model(Provider.GCP)
        low = np.median([model.cold_init_time(PROFILE, 256, 10.0) for _ in range(200)])
        high = np.median([model.cold_init_time(PROFILE, 4096, 10.0) for _ in range(200)])
        assert high > low

    def test_storage_time_scales_with_bytes_and_memory(self):
        # No CPU work: the benchmark time is the storage time alone.
        small = _sampler(Provider.AWS, replace(PROFILE, warm_compute_s=0.0), 1024)
        big = _sampler(Provider.AWS, replace(PROFILE.scaled(16.0), warm_compute_s=0.0), 1024)
        small_time = np.median([small().benchmark_time_s for _ in range(50)])
        big_time = np.median([big().benchmark_time_s for _ in range(50)])
        assert 0 < small_time < big_time

    def test_memory_used_close_to_profile_peak(self):
        sample = _sampler(Provider.AWS, PROFILE, 1024)
        samples = [sample().memory_used_mb for _ in range(200)]
        assert np.median(samples) == pytest.approx(100.0, rel=0.1)

    def test_execute_combines_components(self):
        sample = _sampler(Provider.AWS, PROFILE, 1024)
        cold = sample(cold=True)
        assert cold.benchmark_time_s > 0
        assert cold.provider_time_s > cold.benchmark_time_s
        assert cold.cold_init_s > 0
        # Sandbox initialisation delays the start, not the billed execution.
        assert cold.invocation_overhead_s > cold.cold_init_s
        assert cold.started_at - cold.submitted_at == cold.invocation_overhead_s
        warm = sample(cold=False)
        assert warm.cold_init_s == 0.0


class TestReliabilityModel:
    @staticmethod
    def _failures(sample, count, concurrency=1):
        return sum(not sample(concurrency=concurrency).success for _ in range(count))

    def test_disabled_model_never_fails(self):
        # Far above its 128 MB and in a burst of 100: no failure without the switch.
        sample = _sampler(
            Provider.GCP, replace(PROFILE, peak_memory_mb=1000.0), 128, enable_failures=False
        )
        assert self._failures(sample, 50, concurrency=100) == 0

    def test_gcp_kills_overcommitted_memory(self):
        sample = _sampler(Provider.GCP, replace(PROFILE, peak_memory_mb=200.0), 128)
        records = [sample() for _ in range(20)]
        assert all(record.error == "out-of-memory" for record in records)
        assert all(record.benchmark_time_s == 0.0 for record in records)

    def test_gcp_sporadic_failures_near_the_limit(self):
        """Compression-at-256MB-style failures: a few percent, not all."""
        # The peak sits within 10% of the allocation, and its noisy samples
        # stay below it (256 MB is > 3 sigma above 234 MB).
        profile = WorkProfile(0.1, 0.1, 1e8, 0.9, peak_memory_mb=234.0)
        sample = _sampler(Provider.GCP, profile, 256)
        assert 10 <= self._failures(sample, 1000) <= 120

    def test_aws_tolerates_borderline_memory(self):
        profile = WorkProfile(0.1, 0.1, 1e8, 0.9, peak_memory_mb=250.0)
        sample = _sampler(Provider.AWS, profile, 256)
        assert self._failures(sample, 500) == 0

    def test_aws_kills_only_egregious_overcommit(self):
        # Beyond 1.5x the allocation (192 MB of 128 MB) AWS kills, below it tolerates.
        egregious = _sampler(Provider.AWS, replace(PROFILE, peak_memory_mb=500.0), 128)
        assert self._failures(egregious, 20) == 20
        tolerated = _sampler(Provider.AWS, replace(PROFILE, peak_memory_mb=150.0), 128)
        assert self._failures(tolerated, 200) == 0

    def test_gcp_highmem_burst_availability_failures(self):
        """image-recognition at 4096 MB with 50 concurrent calls: massive error rate."""
        sample = _sampler(Provider.GCP, PROFILE, 4096)
        records = [sample(concurrency=50) for _ in range(500)]
        assert sum(record.error == "unavailable" for record in records) > 200

    def test_sequential_invocations_never_hit_burst_failures(self):
        sample = _sampler(Provider.GCP, PROFILE, 4096)
        assert self._failures(sample, 200) == 0

    def test_azure_dynamic_memory_never_oom(self):
        sample = _sampler(Provider.AZURE, replace(PROFILE, peak_memory_mb=5000.0), DYNAMIC_MEMORY)
        assert self._failures(sample, 50) == 0
