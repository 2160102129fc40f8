"""Pre-drawn random blocks for the per-invocation lane step.

The scalar simulator draws from its per-function named streams one value at
a time (``Generator.random()``, ``.lognormal()``, ``.exponential()``).  For
four of the five streams — *gateway*, *network*, *reliability* and
*spurious* — every draw comes from a **single distribution with constant
parameters**, so the whole stream can be pre-drawn in vectorized blocks:
one ``Generator.random(n)`` call consumes the underlying bit stream exactly
like ``n`` scalar ``random()`` calls and yields the identical float
sequence (the same property :class:`repro.stats.streaming.MergeableReservoir`
already exploits for its tag blocks, and which
``tests/test_columnar_draws.py`` proves property-based).

The fifth stream — *compute* — interleaves lognormal, uniform, exponential
and normal draws data-dependently (jitter, storage contention, cold-start
erratic delays, memory noise), so pre-drawing it in blocks would permute
bit-stream consumption.  Within one invocation, though, the storage
transfers are consecutive constant-parameter lognormals, drawn as one
``Generator.lognormal(mean, sigma, n)`` call
(:meth:`repro.storage.latency.StorageLatencyModel.invocation_time`), which
is the same fact again at batch size ``n``.  Only the mixed-distribution
remainder stays scalar; the lane step merely inlines the arithmetic
around it.

Each block object *wraps* the live generator of a function's runtime state
and replaces it in place (``state.gateway_stream``, ``state.network._rng``,
…).  Every consumer reads a block through ``take()`` or the same inlined
cursor: :func:`repro.columnar.engine.lane_step`, the one per-invocation
model behind the columnar loop, the controlled loop and direct
``invoke`` / ``invoke_batch`` calls, and the platform's sandbox
acquisition (spurious cold starts).  The blocks have no scalar
``random()`` / ``lognormal()`` / ``exponential()`` face: the frozen
scalar reference in ``tests/oracle.py`` runs on the raw generators
instead (it skips :func:`install_draw_blocks`).

Batch-boundary rule: a block pre-draws up to ``BLOCK`` values, so after a
replay the *underlying* generator sits at the next block boundary rather
than at the last consumed value.  Consumers never observe this (they only
ever see the block), but it is why blocks are installed once per runtime
state and kept for the platform's lifetime: discarding a partially consumed
block would lose draws.
"""

from __future__ import annotations

import numpy as np

#: Values pre-drawn per vectorized generator call.  Large enough to
#: amortize numpy call overhead across the hot loop, small enough that the
#: buffered tail after a replay stays negligible.
BLOCK = 256


class UniformBlock:
    """Pre-drawn ``Generator.random()`` stream (reliability / spurious)."""

    __slots__ = ("_rng", "_values", "_i")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._values: list[float] = []
        self._i = 0

    def take(self) -> float:
        """Next value; refills the block from the wrapped generator."""
        i = self._i
        values = self._values
        if i == len(values):
            values = self._values = self._rng.random(BLOCK).tolist()
            i = 0
        self._i = i + 1
        return values[i]


class LognormalBlock:
    """Pre-drawn ``Generator.lognormal(mean, sigma)`` stream (gateway).

    The gateway stream only ever draws with the platform's warm-jitter
    parameters, so they are fixed at construction.
    """

    __slots__ = ("_rng", "_mean", "_sigma", "_values", "_i")

    def __init__(self, rng: np.random.Generator, mean: float, sigma: float):
        self._rng = rng
        self._mean = mean
        self._sigma = sigma
        self._values: list[float] = []
        self._i = 0

    def take(self) -> float:
        i = self._i
        values = self._values
        if i == len(values):
            values = self._values = self._rng.lognormal(self._mean, self._sigma, BLOCK).tolist()
            i = 0
        self._i = i + 1
        return values[i]


class ExponentialBlock:
    """Pre-drawn ``Generator.exponential(scale)`` stream (network jitter).

    One block serves both the request and the response delay of every
    invocation — the scalar path draws them alternately from the same
    generator, and a single buffer preserves that interleaving exactly.
    """

    __slots__ = ("_rng", "_scale", "_values", "_i")

    def __init__(self, rng: np.random.Generator, scale: float):
        self._rng = rng
        self._scale = scale
        self._values: list[float] = []
        self._i = 0

    def take(self) -> float:
        i = self._i
        values = self._values
        if i == len(values):
            values = self._values = self._rng.exponential(self._scale, BLOCK).tolist()
            i = 0
        self._i = i + 1
        return values[i]


def install_draw_blocks(state, platform) -> None:
    """Replace a runtime state's blockable streams with pre-drawn blocks.

    Called once from ``_new_runtime_state`` for every runtime state.  Wraps
    exactly the streams whose draw pattern is a single constant-parameter
    distribution:

    * ``gateway_stream`` — one warm-jitter lognormal per executed invocation;
    * ``network._rng`` — two exponentials (request, response) per invocation;
    * ``reliability._rng`` — conditional uniforms (sporadic OOM, availability);
    * ``spurious_stream`` — one uniform per admission (GCP only; streams
      with zero spurious probability never draw and are left untouched).

    The compute stream is deliberately *not* wrapped (see module docstring).
    """
    state.gateway_stream = LognormalBlock(
        state.gateway_stream, platform._gateway_mean, platform._gateway_sigma
    )
    jitter_scale = state.network.profile.jitter_scale_s
    if jitter_scale > 0:
        state.network._rng = ExponentialBlock(state.network._rng, jitter_scale)
    if platform.simulation.enable_failures:
        state.reliability._rng = UniformBlock(state.reliability._rng)
    if platform._spurious_probability > 0.0:
        state.spurious_stream = UniformBlock(state.spurious_stream)
