"""Exception hierarchy for the SeBS reproduction library.

Every error raised by the library derives from :class:`SeBSError`, so callers
can catch a single base class.  Sub-classes mirror the main subsystems: the
FaaS platform abstraction, the storage substrate, benchmark execution, and
experiment orchestration.
"""

from __future__ import annotations


class SeBSError(Exception):
    """Base class for all errors raised by the SeBS reproduction."""


class ConfigurationError(SeBSError):
    """An invalid or inconsistent configuration value was supplied."""


class PlatformError(SeBSError):
    """Base class for FaaS-platform related errors."""


class FunctionNotFoundError(PlatformError):
    """A function name was referenced before being created on the platform."""

    def __init__(self, name: str):
        super().__init__(f"function {name!r} does not exist on this platform")
        self.name = name


class FunctionAlreadyExistsError(PlatformError):
    """A function with the same name already exists on the platform."""

    def __init__(self, name: str):
        super().__init__(f"function {name!r} already exists on this platform")
        self.name = name


class DeploymentError(PlatformError):
    """A code package could not be deployed (e.g. exceeds size limits)."""


class StorageError(SeBSError):
    """Base class for persistent/ephemeral storage errors."""


class BucketNotFoundError(StorageError):
    """A bucket was referenced before being created."""

    def __init__(self, bucket: str):
        super().__init__(f"bucket {bucket!r} does not exist")
        self.bucket = bucket


class ObjectNotFoundError(StorageError):
    """An object key does not exist in the referenced bucket."""

    def __init__(self, bucket: str, key: str):
        super().__init__(f"object {key!r} not found in bucket {bucket!r}")
        self.bucket = bucket
        self.key = key


class BenchmarkError(SeBSError):
    """Base class for benchmark definition and execution errors."""


class UnknownBenchmarkError(BenchmarkError):
    """The requested benchmark name is not registered."""

    def __init__(self, name: str, available: list[str] | None = None):
        message = f"unknown benchmark {name!r}"
        if available:
            message += f"; available: {', '.join(sorted(available))}"
        super().__init__(message)
        self.name = name


class InputGenerationError(BenchmarkError):
    """Benchmark input could not be generated for the requested size."""


class ExperimentError(SeBSError):
    """An experiment could not be executed or produced inconsistent results."""


class ShardReplayError(SeBSError):
    """A sharded replay failed after exhausting its supervision budget.

    Raised by :mod:`repro.parallel.supervisor` once a shard has burned
    through its retries (and, when enabled, its in-process quarantine
    replay).  Carries full shard provenance so callers can requeue, log, or
    resume precisely:

    * ``shard_index`` / ``functions`` — which shard died and whose traffic
      it carried;
    * ``attempts`` — how many times the supervisor tried it;
    * ``cause`` — the last underlying exception (also set as
      ``__cause__``), or ``None`` when the worker died silently
      (SIGKILL/OOM);
    * ``partial_outcomes`` — every *completed* shard outcome salvaged from
      the run, in shard order, so a caller with a checkpoint store loses no
      finished work.
    """

    def __init__(
        self,
        message: str,
        *,
        shard_index: int,
        functions: tuple[str, ...] = (),
        attempts: int = 0,
        cause: BaseException | None = None,
        partial_outcomes: tuple = (),
    ):
        super().__init__(message)
        self.shard_index = shard_index
        self.functions = tuple(functions)
        self.attempts = attempts
        self.cause = cause
        self.partial_outcomes = tuple(partial_outcomes)


class CheckpointError(SeBSError):
    """A checkpoint store could not be used as configured.

    Raised for structural misuse — ``resume=True`` without a
    ``checkpoint_dir``, or a checkpoint directory that cannot be created.
    Corrupt or mismatched checkpoint *files* are never an error: they are
    ignored and the shard is simply replayed."""


class ModelFitError(SeBSError):
    """An analytical model could not be fitted to the measured data."""
