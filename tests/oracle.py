"""The scalar reference engine, for differential tests and benches.

Every fast-path trace replay runs the columnar loop
(:mod:`repro.columnar.engine`).  The scalar loops of
:class:`~repro.workload.engine.WorkloadEngine` stay in the library for the
controlled, kernel and workflow replays, and they are the oracle the
columnar loop is proven bit-identical against.  :func:`scalar_reference`
routes every replay inside its ``with`` block to them, on raw generators
with no pre-drawn blocks — the engine exactly as it was before the columnar
path existed.

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
