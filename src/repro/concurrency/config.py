"""Configuration of the overload / admission-control model.

Attach an :class:`OverloadConfig` to
:attr:`repro.config.SimulationConfig.overload` to enable the concurrency
limiter.  With the default ``overload=None`` every request is admitted
unconditionally and the simulator behaves bit-identically to earlier
releases (the golden fixtures pin this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..config import reject_nan
from ..exceptions import ConfigurationError
from .retry import RETRY_POLICY_NAMES


@dataclass(frozen=True)
class OverloadConfig:
    """Knobs of the concurrency-limit and throttling subsystem.

    Attributes
    ----------
    reserved_concurrency:
        Default per-function concurrency cap (AWS "reserved concurrency").
        ``None`` leaves functions bounded only by the account cap.
    per_function_reserved:
        Per-function overrides of ``reserved_concurrency``.
    account_concurrency:
        Account-level concurrent-execution cap.  ``None`` uses the
        provider's Table 2 ``concurrency_limit``.  Enforced *per function*
        (each function may use up to the account cap, never more): true
        cross-function contention for the unreserved pool would couple
        shards and break the bit-identical sharded replay guarantee, so it
        is deliberately not modelled (see ``docs/architecture.md``).
    model_burst:
        Model the provider's burst ramp-up
        (:func:`repro.concurrency.limits.burst_profile_for`): AWS's
        token-bucket burst allowance, Azure/GCP's instance-based scale-out
        rate.  Off, the only limits are the (reserved, account) caps.
    retry_policy / max_retries / retry_base_delay_s / retry_max_delay_s:
        Client behaviour on a throttled synchronous invocation
        (:mod:`repro.concurrency.retry`).
    admission_queue_depth:
        Bound of the per-function admission queue asynchronous (queue /
        storage / timer trigger) invocations spill into when over the
        limit.  Arrivals beyond the bound are dropped immediately
        (``queue-full``).  0 disables queueing — every over-limit async
        request drops.
    admission_max_age_s:
        Maximum time a spilled request may wait before it is dropped
        (``expired``) instead of admitted.  ``None`` waits forever.
    """

    reserved_concurrency: int | None = None
    per_function_reserved: Mapping[str, int] = field(default_factory=dict)
    account_concurrency: int | None = None
    model_burst: bool = True
    retry_policy: str = "exponential"
    max_retries: int = 3
    retry_base_delay_s: float = 0.05
    retry_max_delay_s: float = 2.0
    admission_queue_depth: int = 1000
    admission_max_age_s: float | None = 60.0

    def __post_init__(self) -> None:
        reject_nan(self)
        for name, value in (
            ("reserved_concurrency", self.reserved_concurrency),
            ("account_concurrency", self.account_concurrency),
        ):
            if value is not None and value < 1:
                raise ConfigurationError(f"{name} must be at least 1 (or None)")
        for fname, value in self.per_function_reserved.items():
            if value < 1:
                raise ConfigurationError(
                    f"per_function_reserved[{fname!r}] must be at least 1"
                )
        if self.retry_policy not in RETRY_POLICY_NAMES:
            raise ConfigurationError(
                f"unknown retry policy {self.retry_policy!r}; "
                f"choose from {', '.join(RETRY_POLICY_NAMES)}"
            )
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if self.retry_base_delay_s <= 0 or self.retry_max_delay_s <= 0:
            raise ConfigurationError("retry delays must be positive")
        if self.admission_queue_depth < 0:
            raise ConfigurationError("admission_queue_depth must be non-negative")
        if self.admission_max_age_s is not None and self.admission_max_age_s <= 0:
            raise ConfigurationError("admission_max_age_s must be positive (or None)")
