"""Configuration of the client-side resilience layer.

Attach a :class:`ResilienceConfig` to
:attr:`repro.config.SimulationConfig.resilience` to give the simulated
*clients* of synchronous (HTTP/SDK) invocations operational defences:
circuit breakers, hedged requests, retries on fault responses, and a
staleness deadline.  With the default ``resilience=None`` no client
machinery runs and replay is bit-identical to earlier releases.

Like the retry policies of :mod:`repro.concurrency.retry`, everything here
is policy-free middleware in the Dearle et al. sense: the engine asks
narrow questions ("may this dispatch proceed?", "hedge after how long?")
and the layer answers without ever touching simulator state.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..concurrency.retry import RETRY_POLICY_NAMES
from ..config import reject_nan
from ..exceptions import ConfigurationError


@dataclass(frozen=True)
class CircuitBreakerConfig:
    """Knobs of the per-function circuit breaker.

    Attributes
    ----------
    window:
        Sliding-window length (attempt outcomes) over which the failure
        rate is measured while CLOSED.
    min_calls:
        Minimum outcomes in the window before the breaker may trip (a
        single early failure must not open a cold breaker).
    failure_threshold:
        Failure fraction of the window at which the breaker trips.
    cooldown_s:
        Seconds an OPEN breaker rejects everything before its first
        recovery probe is allowed (OPEN -> HALF_OPEN happens on the first
        ``allow`` after the cooldown).
    half_open_probes:
        Probe budget of the HALF_OPEN state: that many requests are let
        through, and that many consecutive successes close the breaker
        (any failure re-trips it).
    """

    window: int = 20
    min_calls: int = 10
    failure_threshold: float = 0.5
    cooldown_s: float = 30.0
    half_open_probes: int = 3

    def __post_init__(self) -> None:
        reject_nan(self)
        if self.window < 1:
            raise ConfigurationError("breaker window must be at least 1")
        if not 1 <= self.min_calls <= self.window:
            raise ConfigurationError("breaker min_calls must lie in [1, window]")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ConfigurationError("breaker failure_threshold must lie in (0, 1]")
        if self.cooldown_s <= 0:
            raise ConfigurationError("breaker cooldown_s must be positive")
        if self.half_open_probes < 1:
            raise ConfigurationError("breaker half_open_probes must be at least 1")


@dataclass(frozen=True)
class HedgeConfig:
    """Knobs of hedged requests (tail-latency duplicates).

    ``delay_s`` is the client's hedging trigger — canonically an offline
    measured latency percentile (e.g. p95).  It is a fixed number, not a
    live quantile: a client that re-estimated it from in-replay traffic
    would couple every function's behaviour to global traffic and break
    sharded bit-identity, so the simulator takes the deployed constant the
    way real hedging middleware takes a rolled-out config value.

    A synchronous request whose primary attempt will still be running
    ``delay_s`` after dispatch sends one duplicate; the first completion
    wins and **both invocations are billed** — the provider executed both,
    hedging trades money for tail latency.
    """

    delay_s: float

    def __post_init__(self) -> None:
        reject_nan(self)
        if self.delay_s <= 0:
            raise ConfigurationError("hedge delay_s must be positive")


@dataclass(frozen=True)
class ResilienceConfig:
    """The client-side resilience stack for synchronous invocations.

    Attributes
    ----------
    breaker:
        Per-function circuit breaker (:class:`CircuitBreakerConfig`);
        ``None`` disables breaking.  Breaker state is kept per function and
        fed every attempt outcome the client observes (execution results,
        fault responses, 429s), so sharded replay stays bit-identical.
    hedge:
        Hedged-request policy (:class:`HedgeConfig`); ``None`` disables
        hedging.
    retry_policy / max_retries / retry_base_delay_s / retry_max_delay_s:
        Client reaction to **fault responses** (outage windows — see
        :mod:`repro.faults`), using the same pluggable policy registry as
        the 429 path (:mod:`repro.concurrency.retry`) but drawing jitter
        from the separate stream ``(seed, "client-retry", fname)``.  The
        default ``"none"`` fails fast.
    stale_after_s:
        Client deadline on *admission* delay: an execution admitted more
        than this many seconds after the request's original submission is
        wasted work — the client stopped waiting — and its record flips to
        ``FAILED`` (``error="stale"``) while still occupying its sandbox
        and being billed.  When ``retry_policy`` is set, the client also
        *resubmits* each timed-out attempt (per-attempt timeout, no
        end-to-end deadline propagation): the doomed execution still runs
        while its replacement grinds through admission, and — since the
        saga is already past the original deadline — every further
        execution is doomed too.  This work amplification is the feedback
        loop behind metastable failure: one user request burns many
        executions, so a recovered platform stays saturated with work
        nobody wants until retry budgets run out.  The terminal record
        carries the summed cost of every execution its saga burned.
        ``None`` disables the deadline.
    """

    breaker: CircuitBreakerConfig | None = None
    hedge: HedgeConfig | None = None
    retry_policy: str = "none"
    max_retries: int = 3
    retry_base_delay_s: float = 0.05
    retry_max_delay_s: float = 2.0
    stale_after_s: float | None = None

    def __post_init__(self) -> None:
        reject_nan(self)
        if self.retry_policy not in RETRY_POLICY_NAMES:
            raise ConfigurationError(
                f"unknown retry policy {self.retry_policy!r}; "
                f"choose from {', '.join(RETRY_POLICY_NAMES)}"
            )
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if self.retry_base_delay_s <= 0 or self.retry_max_delay_s <= 0:
            raise ConfigurationError("retry delays must be positive")
        if self.stale_after_s is not None and self.stale_after_s <= 0:
            raise ConfigurationError("stale_after_s must be positive (or None)")
