"""The scalar reference engine, for differential tests and benches.

Every fast-path replay runs the columnar loop
(:mod:`repro.columnar.engine`).  The controlled loop of
:class:`~repro.workload.engine.WorkloadEngine` (``_stream_overload``)
stays in the library for overload, fault, resilience and kernel replays;
with none of them configured it is byte-identical to the columnar loop, so
it is the oracle the columnar loop is proven bit-identical against.
:func:`scalar_reference` routes every replay inside its ``with`` block to
it — traces, shards, populations, workflows and ``invoke_stream`` alike —
on raw generators with no pre-drawn blocks.

Build the platform *and* replay inside the block: draw blocks are installed
when a function's runtime state is created.  Process-backend shards fork
inside the block and inherit the patch.

Import it from a test as ``from oracle import scalar_reference`` (pytest
puts ``tests/`` on ``sys.path``); scripts outside ``tests/`` add that
directory first.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.columnar import engine as columnar_engine
from repro.simulator import platform_sim


@contextlib.contextmanager
def scalar_reference(active: bool = True):
    """Run the scalar reference engine inside the block (no-op if not ``active``)."""
    if not active:
        yield
        return
    with mock.patch.object(columnar_engine, "fast_path", lambda platform: False), mock.patch.object(
        platform_sim, "install_draw_blocks", lambda state, platform: None
    ):
        yield
