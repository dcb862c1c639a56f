import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsdelab.gfunction import GParams, g_value, worst_case_q

GP = GParams(0.5, 1.0)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestGParams:
    def test_valid(self):
        GParams(0.5, 1.0)
        GParams(1.0, 1.0)

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0),
                                       (0.5, np.inf)])
    def test_invalid(self, lo, hi):
        with pytest.raises(ValueError):
            GParams(lo, hi)


class TestGValue:
    def test_zero(self):
        assert g_value(GP, 0.0) == 0.0

    def test_positive_branch(self):
        assert g_value(GP, 2.0) == 1.0

    def test_negative_branch(self):
        assert g_value(GP, -2.0) == -0.5

    def test_array(self):
        out = g_value(GP, np.array([2.0, -2.0, 0.0]))
        assert np.array_equal(out, [1.0, -0.5, 0.0])

    @given(finite, finite)
    @settings(max_examples=200, deadline=None)
    def test_monotone_degeneracy(self, a, b):
        lo, hi = sorted((a, b))
        d = g_value(GP, hi) - g_value(GP, lo)
        assert 0.5 * GP.sigma_low_sq * (hi - lo) - 1e-9 <= d
        assert d <= 0.5 * GP.sigma_high_sq * (hi - lo) + 1e-9

    @given(finite, finite)
    @settings(max_examples=200, deadline=None)
    def test_sublinear(self, a, b):
        assert g_value(GP, a + b) <= g_value(GP, a) + g_value(GP, b) + 1e-9

    @given(finite, st.floats(min_value=0, max_value=1e3, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_positive_homogeneity(self, a, lam):
        assert g_value(GP, lam * a) == pytest.approx(lam * g_value(GP, a),
                                                     rel=1e-12, abs=1e-9)


class TestWorstCaseQ:
    def test_positive(self):
        assert worst_case_q(GP, 3.0) == GP.sigma_high_sq

    def test_negative(self):
        assert worst_case_q(GP, -3.0) == GP.sigma_low_sq

    def test_tie_break_at_zero(self):
        assert worst_case_q(GP, 0.0) == GP.sigma_high_sq

    @given(finite)
    @settings(max_examples=200, deadline=None)
    def test_attains_g(self, a):
        assert g_value(GP, a) == pytest.approx(
            0.5 * worst_case_q(GP, a) * a, rel=1e-12, abs=1e-12
        )

