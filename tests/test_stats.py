import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsieve import stats
from flowsieve.stats import pairwise_dists, pairwise_sq_dists, row_sq_norms

from conftest import one_expression_sq_dists

CELLS = stats._INPLACE_CELLS


@st.composite
def duplicated_rows(draw):
    """Rows of a and b drawn from one small pool, so pairs of equal rows
    reach the clamp at zero; n sets how many rows one in-place step holds
    (every row, 2 or 1), m covers 1, 2 and that height and its neighbours."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 7, 1248, CELLS // 2, CELLS]))
    step = max(1, CELLS // n)
    m = draw(st.sampled_from(sorted({1, 2, step - 1, step, step + 1} - {0})))
    d = draw(st.sampled_from([1, 5, 25]))
    pool = rng.normal(size=(draw(st.integers(1, 8)), d)) * rng.uniform(0.01, 100.0)
    a = pool[rng.integers(0, pool.shape[0], size=m)]
    b = pool[rng.integers(0, pool.shape[0], size=n)]
    return a, b, draw(st.booleans())


class TestLeanPairwiseKernels:
    """The in-place kernels equal the one-expression formula bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(case=duplicated_rows())
    def test_equal_to_the_one_expression_formula(self, case):
        a, b, pass_norms = case
        a_sq = row_sq_norms(a) if pass_norms else None
        want = one_expression_sq_dists(a, b, a_sq)
        assert pairwise_sq_dists(a, b, a_sq).tobytes() == want.tobytes()
        assert pairwise_dists(a, b).tobytes() == np.sqrt(one_expression_sq_dists(a, b)).tobytes()

    def test_clamp_at_zero_is_reached(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(300, 25)) * 37.0
        raw = row_sq_norms(a)[:, None] + row_sq_norms(a)[None, :] - 2.0 * (a @ a.T)
        assert (raw < 0.0).any()  # equal rows cancel to below zero
        assert pairwise_sq_dists(a, a).tobytes() == one_expression_sq_dists(a, a).tobytes()
        assert (np.diag(pairwise_sq_dists(a, a)) >= 0.0).all()

    def test_peak_memory_is_about_the_result(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(1024, 25))
        b = rng.normal(size=(1248, 25))
        result_bytes = 1024 * 1248 * 8
        tracemalloc.start()
        try:
            pairwise_dists(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the one-expression form held about two results at once
        assert peak < 1.15 * result_bytes
