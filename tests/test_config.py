"""Tests for repro.config."""

from __future__ import annotations

import pytest

from repro.concurrency import OverloadConfig
from repro.config import (
    DYNAMIC_MEMORY,
    DEFAULT_REGIONS,
    ExperimentConfig,
    FunctionConfig,
    Language,
    PERF_COST_MEMORY_SIZES,
    Provider,
    SimulationConfig,
    config_to_dict,
    resolve_memory_sizes,
)
from repro.exceptions import ConfigurationError
from repro.faults import ContainerCrash, FaultPlaneConfig, LatencyStorm, OutageWindow
from repro.resilience import CircuitBreakerConfig, HedgeConfig, ResilienceConfig


class TestProvider:
    def test_display_names(self):
        assert Provider.AWS.display_name == "AWS Lambda"
        assert Provider.AZURE.display_name == "Azure Functions"
        assert Provider.GCP.display_name == "Google Cloud Functions"

    def test_all_providers_have_default_regions(self):
        for provider in Provider:
            assert provider in DEFAULT_REGIONS

    def test_paper_regions(self):
        assert DEFAULT_REGIONS[Provider.AWS] == "us-east-1"
        assert DEFAULT_REGIONS[Provider.AZURE] == "WestEurope"
        assert DEFAULT_REGIONS[Provider.GCP] == "europe-west1"


class TestFunctionConfig:
    def test_defaults(self):
        config = FunctionConfig()
        assert config.memory_mb == 256
        assert config.language is Language.PYTHON

    def test_with_memory_returns_copy(self):
        config = FunctionConfig(memory_mb=128)
        bigger = config.with_memory(1024)
        assert bigger.memory_mb == 1024
        assert config.memory_mb == 128

    def test_dynamic_memory_flag(self):
        assert FunctionConfig(memory_mb=DYNAMIC_MEMORY).is_dynamic_memory
        assert not FunctionConfig(memory_mb=512).is_dynamic_memory

    def test_rejects_negative_memory(self):
        with pytest.raises(ConfigurationError):
            FunctionConfig(memory_mb=-1)

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ConfigurationError):
            FunctionConfig(timeout_s=0)


class TestSimulationConfig:
    def test_default_network_rtts_match_paper(self):
        sim = SimulationConfig()
        assert sim.network_rtt_ms[Provider.AWS] == pytest.approx(109.0)
        assert sim.network_rtt_ms[Provider.AZURE] == pytest.approx(20.0)
        assert sim.network_rtt_ms[Provider.GCP] == pytest.approx(33.0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(seed=-1)

    def test_rejects_bad_time_of_day_factor(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(time_of_day_factor=0.0)


class TestExperimentConfig:
    def test_paper_defaults(self):
        config = ExperimentConfig()
        assert config.samples == 200
        assert config.batch_size == 50
        assert 0.95 in config.confidence_levels and 0.99 in config.confidence_levels
        assert config.target_ci_width == pytest.approx(0.05)

    def test_scaled_reduces_samples(self):
        config = ExperimentConfig(samples=100).scaled(0.1)
        assert config.samples == 10

    def test_scaled_never_drops_below_one(self):
        assert ExperimentConfig(samples=5).scaled(0.01).samples == 1

    @pytest.mark.parametrize("kwargs", [
        {"samples": 0},
        {"batch_size": 0},
        {"confidence_levels": (1.5,)},
        {"target_ci_width": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**kwargs)


class TestMemorySizes:
    def test_default_sweeps_match_figure3(self):
        assert PERF_COST_MEMORY_SIZES[Provider.AWS] == (128, 256, 512, 1024, 1536, 2048, 3008)
        assert PERF_COST_MEMORY_SIZES[Provider.GCP] == (128, 256, 512, 1024, 2048)
        assert PERF_COST_MEMORY_SIZES[Provider.AZURE] == (DYNAMIC_MEMORY,)

    def test_resolve_defaults(self):
        assert resolve_memory_sizes(Provider.AWS) == PERF_COST_MEMORY_SIZES[Provider.AWS]

    def test_resolve_custom_sizes(self):
        assert resolve_memory_sizes(Provider.AWS, (256, 512)) == (256, 512)

    def test_resolve_azure_always_dynamic(self):
        assert resolve_memory_sizes(Provider.AZURE, (512,)) == (DYNAMIC_MEMORY,)

    def test_resolve_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            resolve_memory_sizes(Provider.AWS, (0,))


class TestConfigToDict:
    def test_serialises_nested_dataclasses_and_enums(self):
        as_dict = config_to_dict(SimulationConfig(seed=3))
        assert as_dict["seed"] == 3
        assert as_dict["network_rtt_ms"]["aws"] == pytest.approx(109.0)

    def test_serialises_tuples(self):
        as_dict = config_to_dict(ExperimentConfig())
        assert as_dict["confidence_levels"] == [0.95, 0.99]


NAN, INF = float("nan"), float("inf")
_STORM = LatencyStorm(start_s=1.0, duration_s=1.0)


class TestPolicyConfigsRejectNonFinite:
    """A NaN passes every comparison-based range check; reject it up front."""

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: LatencyStorm(1.0, 1.0, compute_multiplier=NAN), id="storm-compute-nan"),
            pytest.param(lambda: LatencyStorm(1.0, 1.0, network_multiplier=INF), id="storm-network-inf"),
            pytest.param(lambda: LatencyStorm(start_s=NAN, duration_s=1.0), id="storm-start-nan"),
            pytest.param(lambda: LatencyStorm(start_s=INF, duration_s=1.0), id="storm-start-inf"),
            pytest.param(lambda: LatencyStorm(start_s=1.0, duration_s=NAN), id="storm-duration-nan"),
            pytest.param(lambda: OutageWindow(start_s=NAN, duration_s=1.0), id="outage-start-nan"),
            pytest.param(lambda: OutageWindow(start_s=INF, duration_s=1.0), id="outage-start-inf"),
            pytest.param(lambda: ContainerCrash(at_s=NAN), id="crash-at-nan"),
            pytest.param(lambda: ContainerCrash(at_s=INF), id="crash-at-inf"),
            pytest.param(
                lambda: FaultPlaneConfig(storms=(_STORM,), boundary_jitter_s=NAN), id="plane-jitter-nan"
            ),
            pytest.param(
                lambda: FaultPlaneConfig(storms=(_STORM,), boundary_jitter_s=INF), id="plane-jitter-inf"
            ),
            pytest.param(lambda: ResilienceConfig(stale_after_s=NAN), id="resilience-stale-nan"),
            pytest.param(lambda: ResilienceConfig(retry_base_delay_s=NAN), id="resilience-retry-base-nan"),
            pytest.param(lambda: HedgeConfig(delay_s=NAN), id="hedge-delay-nan"),
            pytest.param(lambda: CircuitBreakerConfig(cooldown_s=NAN), id="breaker-cooldown-nan"),
            pytest.param(lambda: OverloadConfig(admission_max_age_s=NAN), id="overload-max-age-nan"),
            pytest.param(lambda: OverloadConfig(retry_base_delay_s=NAN), id="overload-retry-base-nan"),
        ],
    )
    def test_rejected(self, build):
        with pytest.raises(ConfigurationError):
            build()

    def test_infinite_durations_stay_legal(self):
        assert OutageWindow(start_s=2.0, duration_s=INF).duration_s == INF
        assert LatencyStorm(start_s=2.0, duration_s=INF, compute_multiplier=3.0).duration_s == INF
