"""Function triggers (Section 2, label 1).

SeBS experiments invoke functions through an abstract trigger interface.
Five concrete implementations cover the platform model:

* :class:`HTTPTrigger` adds gateway latency and is what the Perf-Cost and
  Invoc-Overhead experiments use;
* :class:`SDKTrigger` bypasses the HTTP front end;
* :class:`QueueTrigger`, :class:`StorageTrigger` and :class:`TimerTrigger`
  are the asynchronous channels — a queue message, an object-store event,
  a cron schedule.  Invoked directly they behave like SDK calls (no HTTP
  gateway in the path, and billing skips the HTTP API surcharge); their
  distinguishing *propagation* latency belongs to the edges between
  workflow stages and is modelled by
  :class:`repro.workflows.edges.TriggerEdgeModel`.

All five are registered in :data:`TRIGGER_CLASSES`, keyed by
:class:`~repro.config.TriggerType`; :func:`create_trigger` is the factory
the platform exposes.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Mapping

from ..config import TriggerType
from ..exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .invocation import InvocationRecord
    from .platform import FaaSPlatform


class Trigger(abc.ABC):
    """Abstract invocation channel for a deployed function."""

    trigger_type: TriggerType = TriggerType.HTTP

    def __init__(self, platform: "FaaSPlatform", function_name: str):
        self._platform = platform
        self._function_name = function_name

    @property
    def function_name(self) -> str:
        return self._function_name

    @abc.abstractmethod
    def invoke(self, payload: Mapping[str, Any] | None = None, payload_bytes: int | None = None) -> "InvocationRecord":
        """Synchronously invoke the function and return its record."""


class HTTPTrigger(Trigger):
    """Invocation through the provider's HTTP endpoint / API gateway."""

    trigger_type = TriggerType.HTTP

    def invoke(self, payload: Mapping[str, Any] | None = None, payload_bytes: int | None = None) -> "InvocationRecord":
        return self._platform.invoke(
            self._function_name,
            payload=payload or {},
            trigger=TriggerType.HTTP,
            payload_bytes=payload_bytes,
        )


class SDKTrigger(Trigger):
    """Invocation through the provider SDK (no HTTP gateway in the path)."""

    trigger_type = TriggerType.SDK

    def invoke(self, payload: Mapping[str, Any] | None = None, payload_bytes: int | None = None) -> "InvocationRecord":
        return self._platform.invoke(
            self._function_name,
            payload=payload or {},
            trigger=TriggerType.SDK,
            payload_bytes=payload_bytes,
        )


class QueueTrigger(Trigger):
    """Invocation delivered through a message queue binding.

    The execution itself takes the SDK-like internal path (no HTTP
    gateway); the enqueue/dequeue propagation latency is an *edge* property
    modelled when queues connect workflow stages.
    """

    trigger_type = TriggerType.QUEUE

    def invoke(self, payload: Mapping[str, Any] | None = None, payload_bytes: int | None = None) -> "InvocationRecord":
        return self._platform.invoke(
            self._function_name,
            payload=payload or {},
            trigger=TriggerType.QUEUE,
            payload_bytes=payload_bytes,
        )


class StorageTrigger(Trigger):
    """Invocation fired by an object-store change notification."""

    trigger_type = TriggerType.STORAGE

    def invoke(self, payload: Mapping[str, Any] | None = None, payload_bytes: int | None = None) -> "InvocationRecord":
        return self._platform.invoke(
            self._function_name,
            payload=payload or {},
            trigger=TriggerType.STORAGE,
            payload_bytes=payload_bytes,
        )


class TimerTrigger(Trigger):
    """Invocation fired by a cron-style schedule.

    Scheduled (timer) roots are how recurring workflow executions are
    expressed; the firing jitter of the schedule is modelled by the
    workflow edge model, not by the synchronous ``invoke`` path.
    """

    trigger_type = TriggerType.TIMER

    def invoke(self, payload: Mapping[str, Any] | None = None, payload_bytes: int | None = None) -> "InvocationRecord":
        return self._platform.invoke(
            self._function_name,
            payload=payload or {},
            trigger=TriggerType.TIMER,
            payload_bytes=payload_bytes,
        )


#: Concrete trigger implementation per :class:`~repro.config.TriggerType`.
TRIGGER_CLASSES: Mapping[TriggerType, type[Trigger]] = {
    TriggerType.HTTP: HTTPTrigger,
    TriggerType.SDK: SDKTrigger,
    TriggerType.QUEUE: QueueTrigger,
    TriggerType.STORAGE: StorageTrigger,
    TriggerType.TIMER: TimerTrigger,
}


def create_trigger(
    platform: "FaaSPlatform", function_name: str, trigger_type: TriggerType
) -> Trigger:
    """Instantiate the trigger implementation registered for ``trigger_type``."""
    trigger_class = TRIGGER_CLASSES.get(trigger_type)
    if trigger_class is None:
        raise ConfigurationError(f"no trigger implementation for {trigger_type!r}")
    return trigger_class(platform, function_name)
