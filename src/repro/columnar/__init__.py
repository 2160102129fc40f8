"""Vectorized columnar replay hot path: the engine of every fast-path replay.

:meth:`repro.workload.engine.WorkloadEngine.stream` picks it whenever
:func:`repro.columnar.engine.fast_path` holds: every replay without
overload admission, fault plane, client resilience or kernel execution
runs here.  Three cooperating pieces:

* :mod:`repro.columnar.draws` — pre-drawn random blocks wrapping the
  blockable per-function streams (gateway, network, reliability,
  spurious), installed at runtime-state creation;
* :mod:`repro.columnar.records` — struct-of-arrays invocation storage
  with lazy record materialisation;
* :mod:`repro.columnar.engine` — the per-invocation lane step every
  caller samples through, the flat replay loop and the
  :func:`~repro.columnar.engine.fast_path` predicate.

Every result is bit-identical to the frozen scalar reference in
``tests/oracle.py``: the differential tier
(``tests/test_columnar_equivalence.py``) and the golden fixtures prove it.
"""

from .draws import BLOCK, ExponentialBlock, LognormalBlock, UniformBlock, install_draw_blocks
from .records import ColumnarRecordBlock, LaneMeta

__all__ = [
    "BLOCK",
    "ColumnarRecordBlock",
    "ExponentialBlock",
    "LaneMeta",
    "LognormalBlock",
    "UniformBlock",
    "install_draw_blocks",
]
