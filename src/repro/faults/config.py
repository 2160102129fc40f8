"""Configuration of the fault-injection plane.

Attach a :class:`FaultPlaneConfig` to
:attr:`repro.config.SimulationConfig.faults` to inject operational failure
modes into trace replay: region/zone outage windows, correlated warm-pool
crashes, and latency storms.  With the default ``faults=None`` no fault
machinery runs and the simulator behaves bit-identically to earlier
releases (the golden fixtures pin this).

All schedule times are **trace-relative** seconds (request time 0 is the
replay's first instant), matching the timestamps of
:class:`~repro.workload.trace.WorkloadTrace`.  Every event optionally
restricts itself to a set of function names; ``functions=None`` means the
whole deployment (a region-wide event).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import reject_nan
from ..exceptions import ConfigurationError

#: Accepted outage behaviours: ``fail-fast`` turns every invocation attempt
#: around with an immediate error response (the gateway answers, the backend
#: is down); ``hang`` holds the connection open until the function timeout
#: before failing (the pathological variant that ties up clients).
OUTAGE_MODES = ("fail-fast", "hang")


@dataclass(frozen=True)
class OutageWindow:
    """A window during which invocations of the affected functions fail.

    Requests arriving inside ``[start_s, start_s + duration_s)`` never reach
    a sandbox: in ``fail-fast`` mode the client sees an error after one
    gateway round trip, in ``hang`` mode only after the function timeout.
    Synchronous clients may retry (see
    :attr:`repro.resilience.ResilienceConfig.retry_policy`); asynchronous
    deliveries are lost (terminal ``FAULTED`` records).
    """

    start_s: float
    duration_s: float
    mode: str = "fail-fast"
    functions: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        reject_nan(self)
        if not 0 <= self.start_s < math.inf:
            raise ConfigurationError("outage start_s must be finite and non-negative")
        if self.duration_s <= 0:
            raise ConfigurationError("outage duration_s must be positive")
        if self.mode not in OUTAGE_MODES:
            raise ConfigurationError(
                f"unknown outage mode {self.mode!r}; choose from {', '.join(OUTAGE_MODES)}"
            )

    def applies_to(self, fname: str) -> bool:
        return self.functions is None or fname in self.functions


@dataclass(frozen=True)
class ContainerCrash:
    """A correlated crash event that evicts warm sandboxes at ``at_s``.

    Models a host/zone failure taking down the warm pool mid-replay: every
    *idle* warm sandbox created before the crash instant is evicted, so the
    next invocations pay cold starts again.  Sandboxes hosting in-flight
    executions survive (their work was already scheduled; the simulator has
    no mid-flight abort) — the crash manifests as a cold-start storm, the
    operationally dominant symptom.  ``survive_fraction`` spares each victim
    independently with that probability (drawn from the function's fault
    stream), modelling a partial-zone event.
    """

    at_s: float
    functions: tuple[str, ...] | None = None
    survive_fraction: float = 0.0

    def __post_init__(self) -> None:
        reject_nan(self)
        if not 0 <= self.at_s < math.inf:
            raise ConfigurationError("crash at_s must be finite and non-negative")
        if not 0.0 <= self.survive_fraction < 1.0:
            raise ConfigurationError("survive_fraction must lie in [0, 1)")

    def applies_to(self, fname: str) -> bool:
        return self.functions is None or fname in self.functions


@dataclass(frozen=True)
class LatencyStorm:
    """A window during which service degrades without failing outright.

    Inside ``[start_s, start_s + duration_s)`` the affected functions'
    compute draws (benchmark time, cold init) are scaled by
    ``compute_multiplier`` and their network draws (gateway, payload
    transfer, propagation) by ``network_multiplier``.  Draw *counts* are
    unchanged — the storm scales sampled values after the fact — so a storm
    never shifts the function's RNG streams relative to a calm replay.
    Overlapping storms multiply.
    """

    start_s: float
    duration_s: float
    compute_multiplier: float = 1.0
    network_multiplier: float = 1.0
    functions: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        reject_nan(self)
        if not 0 <= self.start_s < math.inf:
            raise ConfigurationError("storm start_s must be finite and non-negative")
        if self.duration_s <= 0:
            raise ConfigurationError("storm duration_s must be positive")
        for multiplier in (self.compute_multiplier, self.network_multiplier):
            if not 0 < multiplier < math.inf:
                raise ConfigurationError("storm multipliers must be finite and positive")

    def applies_to(self, fname: str) -> bool:
        return self.functions is None or fname in self.functions


@dataclass(frozen=True)
class FaultPlaneConfig:
    """The full fault schedule injected into a replay.

    Attributes
    ----------
    outages / crashes / storms:
        The scheduled fault events, in any order (each function derives its
        own per-event view in config order, see
        :func:`repro.faults.plane.build_fault_state`).
    boundary_jitter_s:
        Per-function jitter added to every outage/storm window start.  Real
        outages do not hit every client at the same microsecond; each
        function shifts each window start by an independent uniform draw
        from ``[0, boundary_jitter_s)`` taken from its derived fault stream,
        so the schedule stays a pure function of (seed, function name) and
        sharded replay stays bit-identical.  0 disables jitter (and draws
        nothing).
    """

    outages: tuple[OutageWindow, ...] = ()
    crashes: tuple[ContainerCrash, ...] = ()
    storms: tuple[LatencyStorm, ...] = ()
    boundary_jitter_s: float = 0.0

    def __post_init__(self) -> None:
        reject_nan(self)
        if not 0 <= self.boundary_jitter_s < math.inf:
            raise ConfigurationError("boundary_jitter_s must be finite and non-negative")
        if not (self.outages or self.crashes or self.storms):
            raise ConfigurationError(
                "a FaultPlaneConfig needs at least one outage, crash or storm "
                "(use faults=None to disable the fault plane)"
            )
