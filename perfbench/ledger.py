"""Traced runs: spans around the simulator's layer boundaries, and the ledger.

The tracer wraps public boundary functions of ``repro`` from the outside
(nothing in the package changes), records one span ``(name, start, end,
parent)`` per call in memory, and turns the spans into per-layer self times:
a span's self time is its duration minus the time its child spans cover.
``coverage`` is the share of the root span's wall time that named layers
account for.

A boundary that no longer exists raises when the tracer is installed, and
one that a workload should call but never did raises when the ledger is
built — a traced run never reports a silent zero for a layer it expected.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.reduction import ForkingPickler

#: Layer names in ledger order; ``transport`` spans are the pickling of
#: shard inputs and outputs, measured beside the shard replay.
LAYERS = ("deploy", "arrivals", "plan", "transport", "replay", "merge", "summary", "attribution")


@dataclass(frozen=True)
class Boundary:
    """One wrapped callable: ``target`` is ``"module:qualname"``."""

    layer: str
    target: str
    #: Workloads that must call this boundary at least once.
    required_by: tuple[str, ...]
    #: Add ``len(result)`` to the layer's count (arrival synthesis).
    counts_items: bool = False
    #: Arguments and result cross a process boundary in the untraced run:
    #: pickle both after the call and record a ``transport`` span.
    ships: bool = False


ALL = ("trace-hot", "population-wide", "retry-storm", "workflow-fanout")
SERIAL_DEPLOY = ("trace-hot", "retry-storm", "workflow-fanout")

BOUNDARIES = (
    Boundary("deploy", "repro.simulator.providers:create_platform", ALL),
    Boundary("deploy", "repro.experiments.base:deploy_benchmark", SERIAL_DEPLOY),
    Boundary("deploy", "repro.population.replay:deploy_population", ("population-wide",)),
    Boundary(
        "arrivals", "repro.workload.trace:WorkloadTrace.synthesize", ("trace-hot", "retry-storm"), counts_items=True
    ),
    Boundary("arrivals", "repro.workflows.spec:synthesize_workflow_arrivals", ("workflow-fanout",), counts_items=True),
    Boundary("arrivals", "repro.population.spec:PopulationSpec.arrivals", ("population-wide",), counts_items=True),
    Boundary("plan", "repro.parallel.plan:ShardPlanner.plan_population", ("population-wide",)),
    Boundary("replay", "repro.workload.engine:WorkloadEngine.run", ("trace-hot", "retry-storm")),
    Boundary("replay", "repro.workflows.engine:WorkflowEngine.run", ("workflow-fanout",)),
    Boundary("replay", "repro.population.replay:_replay_population_shard", ("population-wide",), ships=True),
    Boundary("merge", "repro.parallel.merge:merge_trace_outcomes", ("population-wide",)),
    Boundary("summary", "repro.workload.engine:WorkloadResult.per_function", ("trace-hot", "population-wide")),
    Boundary("summary", "repro.workload.engine:streaming_result", ("trace-hot", "population-wide")),
    Boundary("summary", "repro.workflows.engine:build_replay_result", ("workflow-fanout",)),
    Boundary("summary", "repro.workflows.engine:WorkflowReplayResult.per_workflow", ("workflow-fanout",)),
    Boundary("summary", "repro.experiments.resilience:ResilienceExperiment._variant_result", ("retry-storm",)),
    Boundary("attribution", "repro.population.replay:tenant_attribution", ("population-wide",)),
)

#: Counted, not timed: functions deployed, and which replay loop ran.  The
#: engine-path probes are optional so that removing a path (or the flag that
#: selects it) changes what is recorded, not whether the traced run works.
DEPLOY_PROBE = "repro.simulator.platform_sim:SimulatedPlatform.create_function"
PATH_PROBES = {
    "columnar": "repro.columnar.engine:_replay",
    "scalar": "repro.workload.engine:WorkloadEngine._stream_fast",
    "controlled": "repro.workload.engine:WorkloadEngine._stream_overload",
}


def _resolve(target: str):
    """``(owner, attribute, raw value)`` of ``"module:Qual.name"``; raises if gone."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    """Span recorder plus the patches that feed it; use as a context manager."""

    def __init__(self, extra_modules=()):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.transport_bytes = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = None
        self._patches: list[tuple[object, str, object]] = []
        self._extra_modules = tuple(extra_modules)

    # ----------------------------------------------------------- recording
    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def _ship(self, args, kwargs, result) -> None:
        with self.span("transport"):
            for payload in ((args, kwargs), result):
                data = ForkingPickler.dumps(payload)
                ForkingPickler.loads(data)
                self.transport_bytes += len(data)

    # ------------------------------------------------------------ patching
    def _wrap(self, boundary: Boundary | None, key: str, function):
        tracer = self

        if boundary is None:  # count-only probe

            def probe(*args, **kwargs):
                tracer.calls[key] += 1
                return function(*args, **kwargs)

            return probe

        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            with tracer.span(boundary.layer):
                result = function(*args, **kwargs)
            if boundary.counts_items:
                tracer.items[boundary.layer] += len(result)
            if boundary.ships:
                tracer._ship(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, target: str, boundary: Boundary | None) -> None:
        owner, attr, raw = _resolve(target)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._wrap(boundary, target, raw.__func__))
        else:
            replacement = self._wrap(boundary, target, raw)
        if isinstance(owner, type):
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, replacement)
            return
        # A module-level function is looked up through every module that
        # imported it by name; rebind each of those references.
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if not (name == "repro" or name.startswith("repro.") or module in self._extra_modules):
                continue
            for binding, value in list(vars(module).items()):
                if value is raw:
                    self._patches.append((module, binding, raw))
                    setattr(module, binding, replacement)

    def __enter__(self) -> "Tracer":
        try:
            for boundary in BOUNDARIES:
                self._patch(boundary.target, boundary)
            self._patch(DEPLOY_PROBE, None)
            for target in PATH_PROBES.values():
                try:
                    self._patch(target, None)
                except (ImportError, AttributeError, KeyError):
                    continue
        except BaseException:
            self._restore()
            raise
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # --------------------------------------------------------------- ledger
    def engine_path(self) -> list[str]:
        """The replay loops that ran, by probe name."""
        return sorted(path for path, target in PATH_PROBES.items() if self.calls[target])

    def ledger(self, workload: str) -> dict:
        """Per-layer self times of the recorded spans (root = first span).

        Raises ``RuntimeError`` when a boundary ``workload`` requires was
        never called.
        """
        missing = [b.target for b in BOUNDARIES if workload in b.required_by and not self.calls[b.target]]
        if missing:
            raise RuntimeError(f"{workload}: traced boundaries never called: {', '.join(missing)}")
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            if name in self_s:
                self_s[name] += (end - start) - covered
        root = self.spans[0]
        wall = root[2] - root[1]
        return {
            "wall_s": wall,
            "self_s": self_s,
            "coverage": sum(self_s.values()) / wall,
            "items": dict(self.items),
            "functions_deployed": self.calls[DEPLOY_PROBE],
            "transport_bytes": self.transport_bytes,
            "gc_s": self.gc_s,
            "gc_collections": self.gc_collections,
            "engine_path": self.engine_path(),
        }
