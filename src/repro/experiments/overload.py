"""The Overload experiment: providers under concurrency pressure.

The paper's Table 2 characterizes the providers' *static* concurrency
limits; this experiment probes the *dynamic* consequences.  A fixed
two-source traffic mix — a bursty synchronous HTTP endpoint plus a
queue-triggered asynchronous worker — is replayed against every provider
at several reserved-concurrency levels (:mod:`repro.concurrency`).  As the
cap tightens, the same trace produces rising 429 rates, client retries,
admission-queue backlog and age-based drops; the sweep reports the
throttle/drop rates, goodput, queueing delay and cost at each level, so
the overload behaviour of the platforms can be compared under identical
pressure.

Per the billing rules, throttled and dropped requests cost nothing while
retried-then-admitted requests bill exactly once — the cost column of the
sweep therefore *falls* as the cap tightens, quantifying the work the
limiter sheds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..concurrency import OverloadConfig
from ..config import Provider, TriggerType
from ..simulator.providers import create_platform
from ..workload.arrivals import BurstyArrivals, PoissonArrivals
from ..workload.engine import WorkloadResult
from ..workload.trace import MergedWorkloadTrace, WorkloadTrace
from .base import ExperimentRunner, deploy_benchmark

#: Function names of the canned overload deployment.
SYNC_FUNCTION = "hot-api"
ASYNC_FUNCTION = "queue-worker"


@dataclass(frozen=True)
class OverloadSweepPoint:
    """Outcome of one (provider, reserved-concurrency) sweep cell."""

    provider: Provider
    #: The per-function cap of this cell (``None`` = account limit only).
    reserved_concurrency: int | None
    retry_policy: str
    invocations: int
    executed: int
    throttled: int
    dropped: int
    retries: int
    queued: int
    queue_delay_s_total: float
    failures: int
    cold_starts: int
    cost_usd: float
    simulated_span_s: float

    @property
    def throttle_rate(self) -> float:
        return self.throttled / self.invocations if self.invocations else 0.0

    @property
    def goodput_per_s(self) -> float:
        """Successfully executed invocations per second of simulated time."""
        if self.simulated_span_s <= 0:
            return 0.0
        return (self.executed - self.failures) / self.simulated_span_s

    @property
    def mean_queue_delay_s(self) -> float:
        return self.queue_delay_s_total / self.queued if self.queued else 0.0

    def to_row(self) -> dict:
        return {
            "provider": self.provider.value,
            "reserved": self.reserved_concurrency if self.reserved_concurrency is not None else "-",
            "invocations": self.invocations,
            "executed": self.executed,
            "throttled": self.throttled,
            "throttle_pct": round(100.0 * self.throttle_rate, 2),
            "dropped": self.dropped,
            "retries": self.retries,
            "queue_delay_ms_mean": round(1000.0 * self.mean_queue_delay_s, 2),
            "goodput_per_s": round(self.goodput_per_s, 2),
            "cost_usd": round(self.cost_usd, 8),
        }


@dataclass
class OverloadExperimentResult:
    """Sweep outcomes, one point per (provider, reserved level)."""

    points: list[OverloadSweepPoint] = field(default_factory=list)
    trace_invocations: int = 0
    duration_s: float = 0.0

    def to_rows(self) -> list[dict]:
        return [point.to_row() for point in self.points]

    def by_provider(self, provider: Provider) -> list[OverloadSweepPoint]:
        return [point for point in self.points if point.provider is provider]


class OverloadExperiment(ExperimentRunner):
    """Sweeps reserved-concurrency levels under a fixed overload trace."""

    def run(
        self,
        providers: tuple[Provider, ...] = (Provider.AWS, Provider.GCP, Provider.AZURE),
        reserved_levels: tuple[int | None, ...] = (2, 8, 32, None),
        retry_policy: str = "exponential",
        max_retries: int = 3,
        duration_s: float = 60.0,
        sync_rate_per_s: float = 30.0,
        async_rate_per_s: float = 20.0,
        admission_queue_depth: int = 200,
        admission_max_age_s: float = 10.0,
        workers: int | None = None,
        supervision=None,
    ) -> OverloadExperimentResult:
        """Replay the same overload trace at every (provider, cap) cell.

        The trace is synthesized once (seeded by the experiment config) and
        shared across all cells, so differences between rows are
        attributable to the limiter, not the workload.  ``workers`` routes
        each replay through the sharded parallel path — identical results
        by the per-function throttle-state isolation; ``supervision`` adds
        the shard recovery ladder (:class:`~repro.parallel.SupervisorConfig`)
        to every cell's replay.
        """
        trace = self._build_trace(duration_s, sync_rate_per_s, async_rate_per_s)
        result = OverloadExperimentResult(
            trace_invocations=len(trace), duration_s=duration_s
        )
        for provider in providers:
            for reserved in reserved_levels:
                overload = OverloadConfig(
                    reserved_concurrency=reserved,
                    retry_policy=retry_policy,
                    max_retries=max_retries,
                    admission_queue_depth=admission_queue_depth,
                    admission_max_age_s=admission_max_age_s,
                )
                platform = create_platform(
                    provider, replace(self.simulation, overload=overload)
                )
                for fname in (SYNC_FUNCTION, ASYNC_FUNCTION):
                    deploy_benchmark(
                        platform,
                        "dynamic-html",
                        memory_mb=256 if platform.limits.memory_static else 0,
                        language=self.language,
                        input_size=self.input_size,
                        function_name=fname,
                    )
                replay = platform.run_workload(
                    trace, keep_records=False, workers=workers, supervision=supervision
                )
                result.points.append(
                    self._point(provider, reserved, retry_policy, replay)
                )
        return result

    def _build_trace(
        self, duration_s: float, sync_rate_per_s: float, async_rate_per_s: float
    ) -> MergedWorkloadTrace:
        seed = self.config.seed
        return WorkloadTrace.merge(
            WorkloadTrace.synthesize(
                SYNC_FUNCTION,
                BurstyArrivals(
                    on_rate_per_s=4.0 * sync_rate_per_s,
                    mean_on_s=max(1.0, duration_s / 20.0),
                    mean_off_s=max(3.0, 3.0 * duration_s / 20.0),
                ),
                duration_s=duration_s,
                rng=seed + 1,
            ),
            WorkloadTrace.synthesize(
                ASYNC_FUNCTION,
                PoissonArrivals(async_rate_per_s),
                duration_s=duration_s,
                rng=seed + 2,
                trigger=TriggerType.QUEUE,
            ),
        )

    @staticmethod
    def _point(
        provider: Provider,
        reserved: int | None,
        retry_policy: str,
        replay: WorkloadResult,
    ) -> OverloadSweepPoint:
        return OverloadSweepPoint(
            provider=provider,
            reserved_concurrency=reserved,
            retry_policy=retry_policy,
            invocations=replay.invocations,
            # Independently counted (not invocations - throttled - dropped),
            # so the sweep's conservation assertion is a real check.
            executed=replay.executed_count,
            throttled=replay.throttled_count,
            dropped=replay.dropped_count,
            retries=replay.retry_count,
            queued=replay.queued_count,
            queue_delay_s_total=replay.queue_delay_s,
            failures=replay.failure_count,
            cold_starts=replay.cold_start_count,
            cost_usd=replay.total_cost_usd,
            simulated_span_s=replay.simulated_span_s,
        )
