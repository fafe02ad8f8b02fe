import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strassen_lab.errors import SizeGuardError, ValidationError
from strassen_lab.ldp import (
    RateQuery,
    d_bern,
    rate_f,
    rate_f_binary,
    rate_g,
    rate_g_binary,
)
from strassen_lab.measures import Dist, kl
from strassen_lab.transport import CostMatrix, ot_value

HAMMING = CostMatrix.hamming(2)


def binary_query(a, b, alpha):
    return RateQuery(Dist.bernoulli(a), Dist.bernoulli(b), HAMMING, alpha)


class TestDBern:
    def test_zero_at_equal(self):
        assert d_bern(0.3, 0.3) == 0.0

    def test_known_value(self):
        want = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert d_bern(0.5, 0.25) == pytest.approx(want, rel=1e-12)

    def test_infinite_off_support(self):
        assert d_bern(0.5, 0.0) == math.inf
        assert d_bern(0.0, 0.5) < math.inf


class TestRateQuery:
    def test_shape_guard(self):
        with pytest.raises(ValidationError):
            RateQuery(Dist.bernoulli(0.2), Dist.from_mass([0.2, 0.3, 0.5]),
                      HAMMING, 0.1)

    def test_alpha_must_be_finite(self):
        with pytest.raises(ValidationError):
            binary_query(0.1, 0.5, math.inf)


class TestRateFBinary:
    def test_frozen_reference_value(self):
        assert rate_f_binary(0.1, 0.5, 0.2) == pytest.approx(
            0.029244120930040543, abs=1e-12)

    def test_zero_when_event_is_typical(self):
        assert rate_f_binary(0.1, 0.5, 0.4) == 0.0
        assert rate_f_binary(0.1, 0.5, 0.7) == 0.0
        assert rate_f_binary(0.3, 0.3, 0.0) == 0.0

    def test_negative_alpha_unreachable(self):
        assert rate_f_binary(0.1, 0.5, -0.1) == math.inf

    def test_symmetric_in_marginals(self):
        assert rate_f_binary(0.5, 0.1, 0.2) == pytest.approx(
            rate_f_binary(0.1, 0.5, 0.2), abs=1e-12)

    def test_degenerate_edge_is_divergence(self):
        # one marginal frozen at 0: only the other can move, to distance alpha
        assert rate_f_binary(0.0, 0.5, 0.2) == pytest.approx(
            d_bern(0.2, 0.5), rel=1e-9)

    def test_minimax_grid_oracle(self):
        # the closed form equals min over q of max(D(q||a), D(q+alpha||b));
        # the minimum sits at a kink, so refine the grid argmin by golden
        # section before comparing
        a, b, alpha = 0.15, 0.65, 0.2

        def minimax(q):
            return max(d_bern(q, a), d_bern(q + alpha, b))

        qs = np.linspace(0.0, 1.0 - alpha, 40001)
        vals = np.array([minimax(q) for q in qs])
        i = int(vals.argmin())
        lo, hi = qs[max(i - 1, 0)], qs[min(i + 1, len(qs) - 1)]
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        fc, fd = minimax(c), minimax(d)
        for _ in range(80):
            if fc <= fd:
                hi, d, fd = d, c, fc
                c = hi - invphi * (hi - lo)
                fc = minimax(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + invphi * (hi - lo)
                fd = minimax(d)
        assert rate_f_binary(a, b, alpha) == pytest.approx(
            min(fc, fd), abs=1e-9)

    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_monotone_nonincreasing_in_alpha(self, a, b, t1, t2):
        lo, hi = sorted((t1, t2))
        assert (rate_f_binary(a, b, lo)
                >= rate_f_binary(a, b, hi) - 1e-10)


class TestRateGBinary:
    def test_frozen_reference_value(self):
        assert rate_g_binary(0.1, 0.5, 0.45) == pytest.approx(
            0.04985689606264948, abs=1e-12)

    def test_zero_below_typical_gap(self):
        assert rate_g_binary(0.1, 0.5, 0.2) == 0.0

    def test_infinite_at_certain_exceedance(self):
        assert rate_g_binary(0.1, 0.5, 1.0) == math.inf

    def test_infinite_when_marginals_agree(self):
        # the identity coupling never exceeds any alpha >= 0; rounding in
        # the two divergences must not open a spurious drift region
        for alpha in (0.0, 1e-15, 1e-9, 0.3):
            assert rate_g_binary(0.5, 0.5, alpha) == math.inf
            assert rate_g_binary(0.3, 0.3, alpha) == math.inf

    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95),
           st.floats(0.0, 0.99), st.floats(0.0, 0.99))
    @settings(max_examples=150, deadline=None)
    def test_monotone_nondecreasing_in_alpha(self, a, b, t1, t2):
        lo, hi = sorted((t1, t2))
        assert (rate_g_binary(a, b, hi)
                >= rate_g_binary(a, b, lo) - 1e-10)


class TestGeneralSolvers:
    def test_rate_f_matches_closed_form(self):
        got = rate_f(binary_query(0.1, 0.5, 0.2))
        assert got == pytest.approx(0.029244120930040543, abs=1e-6)

    def test_rate_g_matches_closed_form(self):
        got = rate_g(binary_query(0.1, 0.5, 0.45))
        assert got == pytest.approx(0.04985689606264948, abs=1e-5)

    def test_rate_f_zero_and_infinite_branches(self):
        assert rate_f(binary_query(0.1, 0.5, 0.4)) == 0.0
        c = CostMatrix.from_rows([[0.5, 1.0], [1.0, 0.5]])
        q = RateQuery(Dist.bernoulli(0.1), Dist.bernoulli(0.5), c, 0.1)
        assert rate_f(q) == math.inf

    def test_rate_g_zero_and_infinite_branches(self):
        assert rate_g(binary_query(0.1, 0.5, 0.3)) == 0.0
        assert rate_g(binary_query(0.1, 0.5, 1.2)) == math.inf

    def test_rate_f_three_letter_upper_bounded_by_grid(self):
        px = Dist.from_mass([0.2, 0.5, 0.3])
        py = Dist.bernoulli(0.4)
        c = CostMatrix.from_rows([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        alpha = 0.05
        query = RateQuery(px, py, c, alpha)
        got = rate_f(query)
        # any feasible (q_x, q_y) pair gives an upper bound on the true rate
        best = math.inf
        grid = np.linspace(0.0, 1.0, 31)
        carr = c.as_array()
        for w0 in grid:
            for w1 in grid:
                if w0 + w1 > 1.0:
                    continue
                qx = np.array([w0, w1, 1.0 - w0 - w1])
                for v0 in grid:
                    qy = np.array([v0, 1.0 - v0])
                    if ot_value(qx, qy, carr) <= alpha:
                        cand = max(
                            kl(Dist.from_mass(qx.tolist()), px),
                            kl(Dist.from_mass(qy.tolist()), py))
                        best = min(best, cand)
        assert got <= best + 1e-6
        assert got >= 0.0

    def test_rate_g_pinned_simplex_edge_takes_no_log_of_zero(self):
        # the 3x3 instance of the acceptance theta suites; the coarse grid
        # puts pinned laws with zero masses on the simplex edges
        px = Dist.from_mass([0.5, 0.3, 0.2])
        py = Dist.from_mass([0.3, 0.4, 0.3])
        c = CostMatrix.from_rows([[0.0, 0.7, 1.3], [0.9, 0.1, 0.6],
                                  [1.4, 0.8, 0.2]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = rate_g(RateQuery(px, py, c, 0.28), grid=4)
        assert got == 0.11348544429699059
        assert not [w for w in caught if "divide by zero" in str(w.message)]

    def test_size_guards(self):
        p5 = Dist.from_mass([0.2] * 5)
        c5 = CostMatrix.from_rows([[0.0, 1.0]] * 5)
        with pytest.raises(SizeGuardError):
            rate_f(RateQuery(p5, Dist.bernoulli(0.5), c5, 0.1))
        p4 = Dist.from_mass([0.25] * 4)
        c4 = CostMatrix.from_rows([[0.0, 1.0]] * 4)
        with pytest.raises(SizeGuardError):
            rate_g(RateQuery(p4, Dist.bernoulli(0.5), c4, 0.1))
