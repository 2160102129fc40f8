"""The four benchmark workloads: inputs from a seed, one public call, checks.

Each workload is one batch call into the public ``repro`` API, chosen so the
four together load different layers of the simulator (see ``README.md`` for
the reasons).  A workload object knows how to

* ``setup(seed)`` — build the platform, deploy functions and synthesize the
  arrivals that exist *before* the call (what ``setup_s`` times);
* ``call(state, workers)`` — make the public call plus the summary a user
  reads off its result (what ``throughput_inv_per_s`` times);
* ``check(state, output)`` — return the list of violated output invariants
  (empty when the output is correct);
* ``outputs(output)`` — the simulated outputs as a plain document, hashed
  into the digest that must repeat across repetitions, traced and untraced
  runs, and worker counts;
* ``ops`` / ``attempts`` / ``counts`` / ``reported_wall_s`` — the figures the
  metrics are computed from.

Sizes are constructor arguments only so the self-tests can run a small
instance; the benchmark always uses the defaults.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from collections.abc import Mapping

import numpy as np

from repro.config import ExperimentConfig, Provider, SimulationConfig
from repro.experiments import base
from repro.experiments.resilience import ResilienceExperiment
from repro.parallel.plan import ShardPlanner
from repro.population import PopulationSpec, replay_population
from repro.simulator import providers
from repro.workflows import standard_workflow, synthesize_workflow_arrivals
from repro.workload import PoissonArrivals, WorkloadTrace

#: Seed whose simulated outputs are pinned in ``digests.json``.
DEFAULT_SEED = 1

#: Provider-side log entries kept per function; every workload replays far
#: more invocations than any check reads back, so the log stays bounded.
LOG_RETENTION = 8


def simulation(seed: int, columnar: bool = False, **overrides) -> SimulationConfig:
    """A ``SimulationConfig`` for ``seed``.

    ``columnar=True`` is passed on only while ``SimulationConfig`` still has
    that field, so the benchmark keeps running once the flag is removed
    (the result files record which engine path actually ran).
    """
    if columnar and columnar_flag_present():
        overrides["columnar"] = True
    return SimulationConfig(seed=seed, log_retention=LOG_RETENTION, **overrides)


def columnar_flag_present() -> bool:
    """Whether ``SimulationConfig`` still offers the columnar opt-in flag."""
    return any(f.name == "columnar" for f in dataclasses.fields(SimulationConfig))


def canonical(value):
    """Plain JSON-able form of simulated outputs (dataclasses, enums, numpy)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.generic):
        return value.item()
    return value


def digest(document) -> str:
    """SHA-256 of the canonical JSON form of ``document``."""
    text = json.dumps(canonical(document), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def workload_outputs(result) -> dict:
    """Every simulated figure of a ``WorkloadResult`` (no host timings)."""
    return {
        "invocations": result.invocations,
        "cold_starts": result.cold_start_count,
        "failures": result.failure_count,
        "executed": result.executed_count,
        "throttled": result.throttled_count,
        "dropped": result.dropped_count,
        "faulted": result.faulted_count,
        "short_circuited": result.short_circuited_count,
        "hedges": result.hedge_count,
        "retries": result.retry_count,
        "queued": result.queued_count,
        "queue_delay_s": result.queue_delay_s,
        "cost_usd": result.total_cost_usd,
        "simulated_span_s": result.simulated_span_s,
        "peak_in_flight": result.peak_in_flight,
        "per_function": result.per_function(),
    }


def conservation_problems(label: str, figures: Mapping) -> list[str]:
    """``executed + throttled + dropped + faulted + short_circuited == invocations``."""
    resolved = (
        figures["executed"]
        + figures["throttled"]
        + figures["dropped"]
        + figures["faulted"]
        + figures["short_circuited"]
    )
    if resolved != figures["invocations"]:
        return [f"{label}: conservation broken ({resolved} resolved != {figures['invocations']} invocations)"]
    return []


def _counts(invocations, cold_starts, attempts, goodput, short_circuited=0, per_execution=0.0, active=0):
    """The simulated per-layer counts; 0 marks a layer the workload does not use."""
    return {
        "sim.cold_start_share": cold_starts / invocations,
        "concurrency.attempts_per_request": attempts / invocations,
        "concurrency.goodput_ratio": goodput / attempts,
        "resilience.short_circuited": short_circuited,
        "workflows.invocations_per_execution": per_execution,
        "population.active_functions": active,
    }


class TraceHot:
    """Eight functions, one merged Poisson trace, serial columnar streaming replay."""

    name = "trace-hot"
    #: (benchmark, memory MB): the four benchmarks at two memory sizes each.
    FUNCTIONS = (
        ("dynamic-html", 128),
        ("dynamic-html", 512),
        ("uploader", 256),
        ("uploader", 1024),
        ("thumbnailer", 512),
        ("thumbnailer", 2048),
        ("compression", 512),
        ("compression", 1024),
    )

    def __init__(self, duration_s: float = 600.0, aggregate_rate_per_s: float = 200.0):
        self.duration_s = duration_s
        self.rate_per_function = aggregate_rate_per_s / len(self.FUNCTIONS)

    def setup(self, seed: int) -> dict:
        platform = providers.create_platform(Provider.AWS, simulation(seed, columnar=True))
        traces = []
        expected = {}
        for index, (benchmark, memory_mb) in enumerate(self.FUNCTIONS):
            fname = base.deploy_benchmark(
                platform, benchmark, memory_mb=memory_mb, function_name=f"{benchmark}-{memory_mb}mb"
            )
            traces.append(
                WorkloadTrace.synthesize(
                    fname,
                    PoissonArrivals(self.rate_per_function),
                    duration_s=self.duration_s,
                    rng=np.random.default_rng([seed, index]),
                )
            )
            expected[fname] = len(traces[-1])
        return {"platform": platform, "trace": WorkloadTrace.merge(*traces), "expected": expected}

    def expected_ops(self, state) -> int:
        return sum(state["expected"].values())

    def call(self, state, workers: int | None = None):
        result = state["platform"].run_workload(state["trace"], keep_records=False)
        result.per_function()
        return result

    def outputs(self, result) -> dict:
        return workload_outputs(result)

    def check(self, state, result) -> list[str]:
        figures = workload_outputs(result)
        problems = conservation_problems(self.name, figures)
        counts = {name: summary.invocations for name, summary in figures["per_function"].items()}
        if counts != state["expected"]:
            problems.append(f"{self.name}: per-function invocations {counts} != trace {state['expected']}")
        return problems

    def ops(self, result) -> int:
        return result.invocations

    def attempts(self, result) -> int:
        return result.invocations + result.retry_count

    def reported_wall_s(self, result) -> float:
        return result.wall_clock_s

    def counts(self, result) -> dict:
        return _counts(
            result.invocations,
            result.cold_start_count,
            self.attempts(result),
            result.executed_count - result.failure_count,
            short_circuited=result.short_circuited_count,
        )


class PopulationWide:
    """A Zipf population of many rarely invoked functions, sharded over two workers."""

    name = "population-wide"
    #: Worker processes of the untraced run (the host's two cores); the
    #: traced run replays the shards sequentially in-process.
    WORKERS = 2

    def __init__(self, n_functions: int = 8_000, aggregate_rate_per_s: float = 100.0, duration_s: float = 400.0):
        self.spec_args = dict(
            n_functions=n_functions, aggregate_rate_per_s=aggregate_rate_per_s, duration_s=duration_s
        )

    def setup(self, seed: int) -> dict:
        platform = providers.create_platform(Provider.AWS, simulation(seed, columnar=True))
        return {"platform": platform, "population": PopulationSpec(**self.spec_args), "seed": seed}

    def expected_ops(self, state) -> int | None:
        return None

    def plan_imbalance(self, state) -> float:
        """Largest shard / mean expected invocations of the untraced run's plan."""
        shards = ShardPlanner().plan_population(state["population"], state["seed"], self.WORKERS)
        weights = [shard.weight for shard in shards]
        return max(weights) / (sum(weights) / len(weights))

    def call(self, state, workers: int | None = None):
        return replay_population(
            state["platform"], state["population"], workers=workers or self.WORKERS
        )

    def outputs(self, replay) -> dict:
        document = workload_outputs(replay.result)
        # A sharded streaming replay reports the largest per-shard peak, a
        # documented lower bound that depends on the worker count
        # (docs/determinism.md); every other figure is shard-invariant.
        del document["peak_in_flight"]
        document.update(
            functions_total=replay.functions_total,
            functions_active=replay.functions_active,
            top_tenants=replay.top_tenants,
        )
        return document

    def check(self, state, replay) -> list[str]:
        figures = workload_outputs(replay.result)
        problems = conservation_problems(self.name, figures)
        tenants = replay.top_tenants
        if not tenants:
            problems.append(f"{self.name}: no tenant attribution")
        ranks = [(-spend.cost_usd, spend.tenant) for spend in tenants]
        if ranks != sorted(ranks):
            problems.append(f"{self.name}: top tenants are not ranked by spend")
        if sum(spend.invocations for spend in tenants) > figures["invocations"]:
            problems.append(f"{self.name}: top tenants claim more invocations than were replayed")
        if replay.functions_active != len(figures["per_function"]) or replay.functions_active < 1:
            problems.append(f"{self.name}: active function count {replay.functions_active} is inconsistent")
        return problems

    def ops(self, replay) -> int:
        return replay.invocations

    def attempts(self, replay) -> int:
        return replay.invocations + replay.result.retry_count

    def reported_wall_s(self, replay) -> float:
        return replay.result.wall_clock_s

    def counts(self, replay) -> dict:
        result = replay.result
        return _counts(
            result.invocations,
            result.cold_start_count,
            self.attempts(replay),
            result.executed_count - result.failure_count,
            short_circuited=result.short_circuited_count,
            active=replay.functions_active,
        )


class RetryStorm:
    """The resilience experiment: naive vs breaker clients through an outage."""

    name = "retry-storm"
    NAIVE_RECOVERY_MAX = 0.5
    RESILIENT_RECOVERY_MIN = 0.9

    def __init__(self, duration_s: float = 500.0, outage_start_s: float = 120.0):
        self.duration_s = duration_s
        self.outage_start_s = outage_start_s

    def setup(self, seed: int) -> dict:
        experiment = ResilienceExperiment(ExperimentConfig(seed=seed), simulation(seed))
        return {"experiment": experiment}

    def expected_ops(self, state) -> int | None:
        return None

    def call(self, state, workers: int | None = None):
        return state["experiment"].run(
            duration_s=self.duration_s,
            outage_start_s=self.outage_start_s,
            outage_duration_s=15.0,
            reserved_concurrency=8,
        )

    def outputs(self, result) -> dict:
        return result.to_dict(include_replay=False)

    def check(self, state, result) -> list[str]:
        problems = []
        for variant in result.variants:
            problems += conservation_problems(f"{self.name}/{variant.name}", dataclasses.asdict(variant))
        naive = result.variant("naive").recovery_ratio
        resilient = result.variant("resilient").recovery_ratio
        if not naive <= self.NAIVE_RECOVERY_MAX:
            problems.append(f"{self.name}: naive recovery {naive:.3f} > {self.NAIVE_RECOVERY_MAX}")
        if not resilient >= self.RESILIENT_RECOVERY_MIN:
            problems.append(f"{self.name}: resilient recovery {resilient:.3f} < {self.RESILIENT_RECOVERY_MIN}")
        return problems

    def ops(self, result) -> int:
        return sum(variant.invocations for variant in result.variants)

    def attempts(self, result) -> int:
        return sum(variant.invocations + variant.retries + variant.hedges for variant in result.variants)

    def reported_wall_s(self, result) -> float:
        return sum(variant.wall_clock_s for variant in result.variants)

    def counts(self, result) -> dict:
        variants = result.variants
        # The experiment's variant results do not expose cold starts.
        return _counts(
            self.ops(result),
            0,
            self.attempts(result),
            sum(variant.executed - variant.failures for variant in variants),
            short_circuited=sum(variant.short_circuited for variant in variants),
        )


class WorkflowFanout:
    """Fan-out/fan-in workflow executions through the workflow engine."""

    name = "workflow-fanout"
    FAN_OUT = 8

    def __init__(self, duration_s: float = 300.0, rate_per_s: float = 10.0):
        self.duration_s = duration_s
        self.rate_per_s = rate_per_s

    def setup(self, seed: int) -> dict:
        platform = providers.create_platform(Provider.AWS, simulation(seed))
        spec, functions = standard_workflow("fanout", fan_out=self.FAN_OUT)
        for function in functions:
            base.deploy_benchmark(
                platform, function.benchmark, memory_mb=function.memory_mb, function_name=function.function_name
            )
        arrivals = synthesize_workflow_arrivals(
            spec, PoissonArrivals(self.rate_per_s), duration_s=self.duration_s, rng=np.random.default_rng([seed, 0])
        )
        return {"platform": platform, "arrivals": arrivals}

    def expected_ops(self, state) -> int:
        return len(state["arrivals"]) * (self.FAN_OUT + 2)

    def call(self, state, workers: int | None = None):
        result = state["platform"].run_workflows(state["arrivals"], keep_records=False)
        result.per_workflow()
        return result

    def outputs(self, result) -> dict:
        fields = (
            "execution_count", "invocation_total", "cold_start_total", "failure_total",
            "cost_usd_total", "compute_s_total", "cold_start_s_total",
            "trigger_propagation_s_total", "end_to_end_s_total", "simulated_span_s",
            "peak_in_flight", "summaries",
        )
        return {name: getattr(result, name) for name in fields}

    def check(self, state, result) -> list[str]:
        # Workflow results carry no per-outcome counters; without an overload
        # or fault model every stage task executes, so conservation reads:
        # each arrival is one execution and each execution resolves exactly
        # split + FAN_OUT map tasks + collect invocations.
        problems = []
        executions = len(state["arrivals"])
        if result.execution_count != executions:
            problems.append(f"{self.name}: {result.execution_count} executions for {executions} arrivals")
        expected = executions * (self.FAN_OUT + 2)
        if result.invocation_total != expected:
            problems.append(f"{self.name}: {result.invocation_total} invocations != {expected}")
        summaries = result.per_workflow().values()
        if sum(summary.invocations for summary in summaries) != result.invocation_total:
            problems.append(f"{self.name}: per-workflow invocations do not sum to the total")
        if any(summary.skipped_stages for summary in summaries):
            problems.append(f"{self.name}: a fan-out execution skipped a stage")
        return problems

    def ops(self, result) -> int:
        return result.invocation_total

    def attempts(self, result) -> int:
        return result.invocation_total

    def reported_wall_s(self, result) -> float:
        return result.wall_clock_s

    def counts(self, result) -> dict:
        return _counts(
            result.invocation_total,
            result.cold_start_total,
            result.invocation_total,
            result.invocation_total - result.failure_total,
            per_execution=result.invocation_total / result.execution_count,
        )


WORKLOADS = {cls.name: cls for cls in (TraceHot, PopulationWide, RetryStorm, WorkflowFanout)}
