"""Execution-duration model of a sandbox.

Given a benchmark's :class:`~repro.benchmarks.base.WorkProfile`, a memory
configuration and a provider performance profile, the compute model produces
the three durations SeBS measures for every invocation:

* **benchmark time** — CPU work scaled by the memory-proportional CPU share
  (plateauing at one vCPU, since the kernels are single-threaded) plus the
  time spent in persistent-storage transfers (whose bandwidth also scales
  with memory);
* **cold initialisation time** — runtime/dependency import and, on a cold
  start, downloading the code package, plus the provider's provisioning
  latency (with the GCP high-memory penalty and the erratic component of
  Azure/GCP);
* **memory consumption** — the kernel's peak memory with a small amount of
  per-invocation noise (which is what makes borderline allocations fail
  occasionally on GCP).

The per-invocation draws live in one place,
:func:`repro.columnar.engine.lane_step`; this model supplies what the step
resolves once per function (the CPU share, the effective memory, the
storage model) and the cold-start draw it delegates
(:meth:`ComputeModel.cold_init_time`).
"""

from __future__ import annotations

import numpy as np

from ..benchmarks.base import WorkProfile
from ..config import DYNAMIC_MEMORY
from ..faas.limits import PlatformLimits
from ..storage.latency import StorageLatencyModel
from .profiles import ProviderPerformanceProfile


class ComputeModel:
    """Per-function compute stream, CPU share and cold-start model."""

    def __init__(
        self,
        performance: ProviderPerformanceProfile,
        limits: PlatformLimits,
        rng: np.random.Generator,
    ):
        self._performance = performance
        self._limits = limits
        self._rng = rng
        self._storage_model = StorageLatencyModel(performance.storage, rng)
        # Pure-function caches for the per-invocation hot path.  Every entry
        # stores the exact float the inline computation would produce, so
        # replays are bit-identical with or without a warm cache.
        self._share_cache: dict[int, float] = {}
        self._sigma_cache: dict[float, float] = {}

    @property
    def storage_model(self) -> StorageLatencyModel:
        return self._storage_model

    def effective_memory(self, memory_mb: int) -> int:
        """Memory used for CPU/bandwidth scaling (resolves dynamic allocation)."""
        if memory_mb == DYNAMIC_MEMORY:
            return self._performance.dynamic_memory_effective_mb
        return memory_mb

    def cpu_share(self, memory_mb: int) -> float:
        """Usable CPU share: proportional to memory, capped at one full vCPU."""
        cached = self._share_cache.get(memory_mb)
        if cached is None:
            share = self._limits.cpu_share(self.effective_memory(memory_mb))
            cached = self._share_cache[memory_mb] = float(min(1.0, share))
        return cached

    def _jitter(self, cv: float) -> float:
        if cv <= 0:
            return 1.0
        sigma = self._sigma_cache.get(cv)
        if sigma is None:
            sigma = self._sigma_cache[cv] = float(np.sqrt(np.log(1.0 + cv**2)))
        return float(self._rng.lognormal(mean=-sigma**2 / 2.0, sigma=sigma))

    def cold_init_time(self, profile: WorkProfile, memory_mb: int, code_package_mb: float) -> float:
        """Cold-start latency: provisioning + package fetch + runtime init."""
        performance = self._performance
        cold = performance.cold_start
        share = self.cpu_share(memory_mb)
        provisioning = cold.provisioning_s * self._jitter(cold.jitter_cv)
        package_fetch = code_package_mb / cold.package_bandwidth_mbps
        runtime_init = profile.cold_init_s * cold.init_multiplier / share
        penalty = cold.highmem_penalty_s_per_gb * (self.effective_memory(memory_mb) / 1024.0)
        erratic = 0.0
        if cold.erratic_probability > 0 and self._rng.random() < cold.erratic_probability:
            erratic = float(self._rng.exponential(cold.erratic_scale_s))
        return provisioning + package_fetch + runtime_init + penalty + erratic
