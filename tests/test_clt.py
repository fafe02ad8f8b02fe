"""Gaussian fluctuation parameters and the binary limit curve."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strassen_lab.clt import (BinaryCltInstance, GaussParams, crossing_points,
                              gauss_params, lambda_binary, lambda_dual_grid,
                              normal_cdf)
from strassen_lab.errors import ValidationError
from strassen_lab.measures import Dist


def _normal_pdf(t: float, sigma2: float) -> float:
    return math.exp(-t * t / (2.0 * sigma2)) / math.sqrt(2.0 * math.pi * sigma2)


class TestGaussParams:
    def test_fair_coin_covariance(self):
        gp = gauss_params(Dist.bernoulli(0.5))
        assert gp.mean == (0.0, 0.0)
        assert np.allclose(gp.as_array(),
                           [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_point_mass_covariance_vanishes(self):
        gp = gauss_params(Dist.from_mass([1.0]))
        assert gp.as_array().tolist() == [[0.0]]

    def test_rows_sum_to_zero(self):
        gp = gauss_params(Dist.from_mass([0.2, 0.3, 0.5]))
        assert np.allclose(gp.as_array().sum(axis=1), 0.0, atol=1e-15)
        assert np.allclose(gp.as_array(), gp.as_array().T, atol=1e-15)

    def test_rejects_nonzero_mean(self):
        with pytest.raises(ValidationError):
            GaussParams(mean=(0.1, -0.1), cov=((0.25, -0.25), (-0.25, 0.25)))

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValidationError):
            GaussParams(mean=(0.0, 0.0), cov=((0.2, -0.1), (-0.3, 0.2)))

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValidationError):
            GaussParams(mean=(0.0, 0.0), cov=((-1.0, 1.0), (1.0, -1.0)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            GaussParams(mean=(0.0, 0.0, 0.0), cov=((0.25, -0.25),
                                                   (-0.25, 0.25)))


class TestCrossingPoints:
    def test_variance_bounds_enforced(self):
        with pytest.raises(ValidationError):
            BinaryCltInstance(sigma_x2=0.3, sigma_y2=0.2, delta=0.0)
        with pytest.raises(ValidationError):
            BinaryCltInstance(sigma_x2=0.0, sigma_y2=0.2, delta=0.0)

    def test_equal_variance_midpoint(self):
        inst = BinaryCltInstance(sigma_x2=0.21, sigma_y2=0.21, delta=0.3)
        assert crossing_points(inst) == [-0.15]

    def test_frozen_symmetric_roots(self):
        inst = BinaryCltInstance(sigma_x2=0.09, sigma_y2=0.25, delta=0.0)
        roots = crossing_points(inst)
        assert roots == pytest.approx(
            [-0.37903786972304615, 0.37903786972304615], abs=1e-14)

    @given(st.floats(0.05, 0.45), st.floats(0.05, 0.45), st.floats(-2.0, 2.0))
    @settings(max_examples=200, deadline=None)
    @example(0.05, 0.05000000000000001, 1.0)
    def test_densities_agree_at_roots(self, a, b, delta):
        sx2, sy2 = a * (1.0 - a), b * (1.0 - b)
        inst = BinaryCltInstance(sigma_x2=sx2, sigma_y2=sy2, delta=delta)
        for r in crossing_points(inst):
            assert _normal_pdf(r, sx2) == pytest.approx(
                _normal_pdf(r + delta, sy2), abs=1e-10)


class TestNormalCdf:
    def test_median(self):
        assert normal_cdf(0.0, 0.17) == 0.5

    def test_quantile(self):
        assert normal_cdf(1.96 * math.sqrt(0.21), 0.21) == pytest.approx(
            0.975, abs=1e-4)

    def test_symmetry(self):
        for x in (0.3, 1.1, 2.7):
            assert normal_cdf(x, 0.09) + normal_cdf(-x, 0.09) == \
                pytest.approx(1.0, abs=1e-15)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValidationError):
            normal_cdf(0.0, 0.0)
        with pytest.raises(ValidationError):
            normal_cdf(0.0, -0.2)


class TestLambdaBinary:
    def test_frozen_reference_value(self):
        assert lambda_binary(0.1, 0.5, 0.0) == pytest.approx(
            0.1209907866707356, abs=1e-14)

    def test_equal_parameters_cutoff(self):
        assert lambda_binary(0.3, 0.3, 1.0) == 0.0
        assert lambda_binary(0.3, 0.3, 0.0) == 0.0
        assert lambda_binary(0.3, 0.3, -1.0) == pytest.approx(
            0.7247664759251657, abs=1e-12)

    def test_degenerate_point_mass_side(self):
        # a = 0: the X fluctuation is a point mass, so the curve is the
        # Y tail beyond the shift
        for delta in (-1.0, -0.2, 0.0, 0.4, 2.0):
            want = 0.5 * math.erfc(delta / math.sqrt(2.0 * 0.25))
            assert lambda_binary(0.0, 0.5, delta) == pytest.approx(
                want, abs=1e-14)

    def test_rejects_unordered_or_out_of_range(self):
        with pytest.raises(ValidationError):
            lambda_binary(0.5, 0.1, 0.0)
        with pytest.raises(ValidationError):
            lambda_binary(0.1, 0.6, 0.0)
        with pytest.raises(ValidationError):
            lambda_binary(-0.1, 0.4, 0.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_delta(self, delta):
        # nan and -inf once read 0.0, though the curve tends to 1 as
        # delta -> -inf
        with pytest.raises(ValidationError, match="finite"):
            lambda_binary(0.2, 0.4, delta)
        with pytest.raises(ValidationError, match="finite"):
            lambda_binary(0.0, 0.0, delta)

    def test_far_shift_limits(self):
        assert lambda_binary(0.1, 0.5, -10.0) == pytest.approx(1.0, abs=1e-9)
        assert lambda_binary(0.1, 0.5, 10.0) == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(0.0, 0.5), st.floats(0.0, 0.5),
           st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=300, deadline=None)
    def test_bounded_and_monotone(self, p1, p2, d1, d2):
        a, b = sorted((p1, p2))
        lo_d, hi_d = sorted((d1, d2))
        v_lo = lambda_binary(a, b, lo_d)
        v_hi = lambda_binary(a, b, hi_d)
        assert 0.0 <= v_hi <= v_lo <= 1.0

    def test_right_continuous_at_equal_parameter_jump(self):
        # a = b jumps at delta = 0; the curve keeps the right limit
        assert lambda_binary(0.3, 0.3, 0.0) == lambda_binary(0.3, 0.3, 1e-12)


class TestLambdaDualGrid:
    def test_matches_closed_form_asymmetric(self):
        for delta in (-2.0, -0.7, 0.0, 0.4, 1.3, 2.9):
            assert lambda_dual_grid(0.1, 0.5, delta) == pytest.approx(
                lambda_binary(0.1, 0.5, delta), abs=1e-8)

    def test_matches_closed_form_symmetric(self):
        for delta in (-2.0, -0.7, -0.1, 0.4, 1.3):
            assert lambda_dual_grid(0.3, 0.3, delta) == pytest.approx(
                lambda_binary(0.3, 0.3, delta), abs=1e-8)

    def test_matches_closed_form_degenerate(self):
        for delta in (-1.0, 0.0, 0.8):
            assert lambda_dual_grid(0.0, 0.4, delta) == pytest.approx(
                lambda_binary(0.0, 0.4, delta), abs=1e-8)

    def test_both_sides_degenerate(self):
        assert lambda_dual_grid(0.0, 0.0, -0.5) == 1.0
        assert lambda_dual_grid(0.0, 0.0, 0.5) == 0.0

    def test_validates_parameters(self):
        with pytest.raises(ValidationError):
            lambda_dual_grid(0.4, 0.1, 0.0)
        for delta in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="finite"):
                lambda_dual_grid(0.2, 0.4, delta)
            with pytest.raises(ValidationError, match="finite"):
                lambda_dual_grid(0.0, 0.4, delta)
