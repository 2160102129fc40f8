"""Failure injection reproducing provider reliability issues.

Section 6.2 Q3 documents two classes of failures, both on Google Cloud
Functions:

* **Out-of-memory kills** — ``image-recognition`` on 512 MB and
  ``compression`` on 256 MB failed on 4% and 5.2% of invocations because the
  observed peak memory occasionally crosses the allocation, while AWS's more
  lenient accounting never killed the same workloads;
* **Availability errors** — concurrent bursts occasionally fail with service
  errors on Azure and GCP; the extreme case is ``image-recognition`` at
  4096 MB where up to 80% of a 50-invocation batch failed, indicating a lack
  of free high-memory resources.

:func:`repro.columnar.engine.lane_step` makes the per-invocation decision;
this model holds what it reads: the provider classes below, the switch, and
the function's reliability stream.
"""

from __future__ import annotations

import numpy as np

from ..config import Provider


class ReliabilityModel:
    """A function's failure-injection stream and the provider's failure classes."""

    #: Providers whose memory accounting is strict enough to kill borderline
    #: allocations (the paper only observed this on GCP).
    _STRICT_MEMORY_PROVIDERS = (Provider.GCP,)
    #: Providers showing availability errors under concurrent bursts.
    _BURST_FAILURE_PROVIDERS = (Provider.GCP, Provider.AZURE)

    def __init__(self, provider: Provider, rng: np.random.Generator, enabled: bool = True):
        self._provider = provider
        self._rng = rng
        self._enabled = enabled
