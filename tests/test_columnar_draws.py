"""Property suite for the vectorized draw primitives (repro.columnar.draws).

The columnar engine rests on one numpy fact: a single vectorized
``Generator`` call with constant parameters consumes the underlying bit
stream exactly like the same number of scalar calls and yields the
identical float sequence.  These tests prove that fact property-based for
each wrapped distribution, then prove the block wrappers preserve it
across batch boundaries (partial tails, ``k`` beyond ``BLOCK``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import BLOCK, ExponentialBlock, LognormalBlock, UniformBlock

seeds = st.integers(min_value=0, max_value=2**63 - 1)
# Around one block, around two blocks, and small tails.
counts = st.one_of(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=BLOCK - 3, max_value=BLOCK + 3),
    st.integers(min_value=2 * BLOCK - 2, max_value=2 * BLOCK + 2),
)
means = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
sigmas = st.floats(min_value=0.01, max_value=1.5, allow_nan=False)
scales = st.floats(min_value=1e-6, max_value=10.0, allow_nan=False)


def _gen(seed):
    return np.random.default_rng(seed)


# ------------------------------------------- the underlying numpy property


class TestVectorizedEqualsScalarDraws:
    @given(seed=seeds, k=counts)
    @settings(deadline=None)
    def test_uniform(self, seed, k):
        batched = _gen(seed).random(k).tolist()
        scalar_rng = _gen(seed)
        assert batched == [scalar_rng.random() for _ in range(k)]

    @given(seed=seeds, k=counts, mean=means, sigma=sigmas)
    @settings(deadline=None)
    def test_lognormal(self, seed, k, mean, sigma):
        batched = _gen(seed).lognormal(mean, sigma, k).tolist()
        scalar_rng = _gen(seed)
        assert batched == [scalar_rng.lognormal(mean, sigma) for _ in range(k)]

    @given(seed=seeds, k=counts, scale=scales)
    @settings(deadline=None)
    def test_exponential(self, seed, k, scale):
        batched = _gen(seed).exponential(scale, k).tolist()
        scalar_rng = _gen(seed)
        assert batched == [scalar_rng.exponential(scale) for _ in range(k)]


# ------------------------------------------------------- block == scalar


class TestBlocksMatchScalarStreams:
    @given(seed=seeds, k=counts)
    @settings(deadline=None)
    def test_uniform_block(self, seed, k):
        block = UniformBlock(_gen(seed))
        scalar_rng = _gen(seed)
        for i in range(k):
            assert block.take() == scalar_rng.random(), f"index {i}"

    @given(seed=seeds, k=counts, mean=means, sigma=sigmas)
    @settings(deadline=None)
    def test_lognormal_block(self, seed, k, mean, sigma):
        block = LognormalBlock(_gen(seed), mean, sigma)
        scalar_rng = _gen(seed)
        for i in range(k):
            assert block.take() == scalar_rng.lognormal(mean, sigma), f"index {i}"

    @given(seed=seeds, k=counts, scale=scales)
    @settings(deadline=None)
    def test_exponential_block(self, seed, k, scale):
        block = ExponentialBlock(_gen(seed), scale)
        scalar_rng = _gen(seed)
        for i in range(k):
            assert block.take() == scalar_rng.exponential(scale), f"index {i}"

    def test_partial_batch_tail_positions(self):
        """After k takes the cursor sits at k mod BLOCK into the batch."""
        for k in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 5):
            block = UniformBlock(_gen(99))
            for _ in range(k):
                block.take()
            assert block._i == (k - 1) % BLOCK + 1
            assert len(block._values) == BLOCK
