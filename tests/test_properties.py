"""Property tests over many small geometries, drawn by hypothesis.

Extents run from 1 to 9 and ranks from 1 to 4 on every mode. Runs are
derandomized, so a failure reproduces on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trfuse.ring import TRFactors, compose
from trfuse.tensor import fold, unfold

extents = st.tuples(*[st.integers(1, 9)] * 3)
ranks = st.tuples(*[st.integers(1, 4)] * 3)
seeds = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=100, derandomize=True, deadline=None)


@PROPERTY
@given(dims=extents, ranks=ranks, seed=seeds)
def test_compose_is_the_trace_of_slice_products(dims, ranks, seed):
    rng = np.random.default_rng(seed)
    cores = tuple(rng.standard_normal((ranks[n], dims[n], ranks[(n + 1) % 3]))
                  for n in range(3))
    want = np.einsum("aib,bjc,cka->ijk", *cores)
    got = compose(TRFactors(cores))
    assert got.shape == dims
    assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)


@PROPERTY
@given(dims=extents, seed=seeds)
def test_fold_inverts_unfold(dims, seed):
    t = np.random.default_rng(seed).standard_normal(dims)
    for convention in ("first", "cyclic"):
        for mode in range(3):
            m = unfold(t, mode, convention)
            assert m.shape == (dims[mode], t.size // dims[mode])
            np.testing.assert_array_equal(fold(m, mode, dims, convention), t)
