"""Signed-coupling cost theta and the quadratic-scale rate kernels."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strassen_lab import mdp
from strassen_lab.errors import (DimensionMismatchError, SizeGuardError,
                                 ValidationError)
from strassen_lab.mdp import (SetaReport, SignedMatrix, helmert_basis,
                              mdp_rate_lower, mdp_rate_upper, seta_check,
                              seta_gap_sequence, support_of, theta,
                              theta_plan, unit_directions)
from strassen_lab.measures import Dist, SignedVec
from strassen_lab.transport import CostMatrix, SupportSet, ot_cost

HAM = CostMatrix.hamming(2)


def _binary_support() -> SupportSet:
    return support_of(Dist.bernoulli(0.2), Dist.bernoulli(0.6), HAM)


class TestTheta:
    def test_support_of_binary_skewed_pair(self):
        assert sorted(_binary_support().cells) == [(0, 0), (1, 0), (1, 1)]

    def test_frozen_reference_value(self):
        s = _binary_support()
        assert theta(SignedVec((0.2, -0.2)), SignedVec((-0.1, 0.1)),
                     s, HAM) == pytest.approx(-0.3, abs=1e-12)

    def test_zero_perturbation_costs_nothing(self):
        s = _binary_support()
        assert theta(SignedVec.zero(2), SignedVec.zero(2), s, HAM) == \
            pytest.approx(0.0, abs=1e-12)

    def test_linear_on_binary_asymmetric_support(self):
        # with removals allowed on {(0,0),(1,0),(1,1)} the optimum routes
        # everything through column 0 and the value is b' - a'
        s = _binary_support()
        for ap, bp in [(0.3, 0.1), (-0.2, 0.05), (0.0, -0.4), (0.17, 0.17)]:
            got = theta(SignedVec((ap, -ap)), SignedVec((bp, -bp)), s, HAM)
            assert got == pytest.approx(bp - ap, abs=1e-10)

    def test_infeasible_when_removals_cannot_reach(self):
        # only (0,0) may go negative, but the perturbation needs mass taken
        # off column 1
        s = SupportSet(frozenset({(0, 0)}))
        assert theta(SignedVec((-0.1, 0.1)), SignedVec((0.1, -0.1)),
                     s, HAM) == math.inf

    def test_unbounded_support_warns(self):
        # removals on the whole square admit the circulation that adds on
        # the diagonal and removes off it, at cost -2 per unit
        s = SupportSet(frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
        with pytest.warns(RuntimeWarning):
            val = theta(SignedVec.zero(2), SignedVec.zero(2), s, HAM)
        assert val == -math.inf

    def test_full_support_runs_no_lp(self, monkeypatch):
        # a support from optimal_support that touches every symbol is priced
        # on the vertices of its dual face, with no linprog call
        px, py = Dist.from_mass([0.5, 0.3, 0.2]), Dist.from_mass([0.3, 0.4, 0.3])
        c = CostMatrix.from_rows([[0.0, 0.7, 1.3], [0.9, 0.1, 0.6],
                                  [1.4, 0.8, 0.2]])
        s = support_of(px, py, c)
        assert {i for i, _ in s} == {0, 1, 2} == {j for _, j in s}
        bx, by = SignedVec((0.3, -0.1, -0.2)), SignedVec((-0.25, 0.5, -0.25))
        want = mdp._theta_lp(bx.mass, by.mass, s, c)[0].fun
        calls = []
        real = mdp.linprog
        monkeypatch.setattr(mdp, "linprog",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        assert theta(bx, by, s, c) == pytest.approx(want, abs=1e-12)
        assert theta(SignedVec((0.1, -0.1)), SignedVec((0.2, -0.2)),
                     _binary_support(), HAM) == pytest.approx(0.1, abs=1e-12)
        assert calls == []

    def test_dimension_mismatch(self):
        s = _binary_support()
        with pytest.raises(DimensionMismatchError):
            theta(SignedVec((0.1, -0.2, 0.1)), SignedVec((0.1, -0.1)), s, HAM)

    @given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(0.0, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_positive_homogeneity(self, ap, bp, t):
        s = _binary_support()
        bx, by = SignedVec((ap, -ap)), SignedVec((bp, -bp))
        base = theta(bx, by, s, HAM)
        scaled = theta(bx.scaled(t), by.scaled(t), s, HAM)
        assert scaled == pytest.approx(t * base, abs=1e-9)

    @given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
           st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
    @settings(max_examples=80, deadline=None)
    def test_subadditive(self, a1, b1, a2, b2):
        s = _binary_support()
        lhs = theta(SignedVec((a1 + a2, -a1 - a2)),
                    SignedVec((b1 + b2, -b1 - b2)), s, HAM)
        rhs = theta(SignedVec((a1, -a1)), SignedVec((b1, -b1)), s, HAM) \
            + theta(SignedVec((a2, -a2)), SignedVec((b2, -b2)), s, HAM)
        assert lhs <= rhs + 1e-9


class TestThetaPlan:
    def test_plan_realizes_value_and_marginals(self):
        s = _binary_support()
        bx, by = SignedVec((0.2, -0.2)), SignedVec((-0.1, 0.1))
        val, plan = theta_plan(bx, by, s, HAM)
        assert val == pytest.approx(-0.3, abs=1e-12)
        assert plan.beta_x().mass == pytest.approx(bx.mass, abs=1e-9)
        assert plan.beta_y().mass == pytest.approx(by.mass, abs=1e-9)
        cost = float((plan.as_array() * HAM.as_array()).sum())
        assert cost == pytest.approx(val, abs=1e-9)

    def test_plan_refuses_infeasible_pair(self):
        s = SupportSet(frozenset({(0, 0)}))
        with pytest.raises(ValidationError):
            theta_plan(SignedVec((-0.1, 0.1)), SignedVec((0.1, -0.1)), s, HAM)


class TestSignedMatrix:
    def test_rejects_nonzero_total(self):
        s = _binary_support()
        with pytest.raises(ValidationError):
            SignedMatrix(((0.2, 0.0), (0.0, 0.0)), s)

    def test_rejects_negativity_outside_support(self):
        s = _binary_support()
        with pytest.raises(ValidationError):
            SignedMatrix(((0.0, -0.2), (0.2, 0.0)), s)

    def test_rejects_ragged_rows(self):
        s = _binary_support()
        with pytest.raises(ValidationError):
            SignedMatrix(((0.0, 0.0), (0.0,)), s)

    def test_marginals_of_valid_matrix(self):
        s = _binary_support()
        m = SignedMatrix(((0.2, 0.0), (-0.1, -0.1)), s)
        assert m.beta_x().mass == pytest.approx((0.2, -0.2), abs=1e-12)
        assert m.beta_y().mass == pytest.approx((0.1, -0.1), abs=1e-12)


class TestRateKernels:
    def test_binary_lower_frozen(self):
        got = mdp_rate_lower(Dist.bernoulli(0.1), Dist.bernoulli(0.5),
                             HAM, -1.0)
        assert got == pytest.approx(12.5, abs=1e-6)

    def test_binary_lower_matches_separation_closed_form(self):
        a, b, delta = 0.2, 0.7, -1.0
        sx, sy = math.sqrt(a * (1 - a)), math.sqrt(b * (1 - b))
        want = delta ** 2 / (2.0 * (sy - sx) ** 2)
        got = mdp_rate_lower(Dist.bernoulli(a), Dist.bernoulli(b), HAM, delta)
        assert got == pytest.approx(want, rel=1e-8)

    def test_binary_upper_frozen(self):
        got = mdp_rate_upper(Dist.bernoulli(0.1), Dist.bernoulli(0.5),
                             HAM, 1.0)
        assert got == pytest.approx(0.78125, abs=1e-6)

    def test_binary_upper_matches_cooperation_closed_form(self):
        a, b, delta = 0.2, 0.7, 1.0
        sx, sy = math.sqrt(a * (1 - a)), math.sqrt(b * (1 - b))
        want = delta ** 2 / (2.0 * (sx + sy) ** 2)
        got = mdp_rate_upper(Dist.bernoulli(a), Dist.bernoulli(b), HAM, delta)
        assert got == pytest.approx(want, rel=1e-6)

    def test_symmetric_pair_upper_finite(self):
        # equal marginals: cooperation still works, at 1/(8 sigma^2)
        got = mdp_rate_upper(Dist.bernoulli(0.3), Dist.bernoulli(0.3),
                             HAM, 1.0)
        assert got == pytest.approx(1.0 / (8.0 * 0.21), abs=1e-9)

    def test_symmetric_pair_lower_infinite(self):
        # equal marginals cannot separate at the quadratic scale
        got = mdp_rate_lower(Dist.bernoulli(0.3), Dist.bernoulli(0.3),
                             HAM, -1.0)
        assert got == math.inf

    def test_quadratic_homogeneity(self):
        px, py = Dist.bernoulli(0.1), Dist.bernoulli(0.5)
        base_lo = mdp_rate_lower(px, py, HAM, -1.0)
        base_up = mdp_rate_upper(px, py, HAM, 1.0)
        for t in (0.5, 2.0):
            assert mdp_rate_lower(px, py, HAM, -t) == pytest.approx(
                t * t * base_lo, rel=1e-10)
            assert mdp_rate_upper(px, py, HAM, t) == pytest.approx(
                t * t * base_up, rel=1e-10)

    def test_three_letter_instance_frozen(self):
        c = CostMatrix.from_rows([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])
        px, py = Dist.from_mass([0.5, 0.5]), Dist.from_mass([0.2, 0.3, 0.5])
        lo = mdp_rate_lower(px, py, c, -1.0, directions=96)
        up = mdp_rate_upper(px, py, c, 1.0, directions=96)
        assert lo == pytest.approx(6.3311148440997, abs=1e-9)
        assert up == pytest.approx(0.3046876250360, abs=1e-9)

    def test_rejects_wrong_sign_deviation(self):
        px, py = Dist.bernoulli(0.1), Dist.bernoulli(0.5)
        with pytest.raises(ValidationError):
            mdp_rate_lower(px, py, HAM, 0.5)
        with pytest.raises(ValidationError):
            mdp_rate_lower(px, py, HAM, 0.0)
        with pytest.raises(ValidationError):
            mdp_rate_upper(px, py, HAM, -0.5)
        with pytest.raises(ValidationError):
            mdp_rate_upper(px, py, HAM, 0.0)

    def test_lower_rejects_zero_mass_marginal(self):
        px = Dist.from_mass([0.0, 1.0])
        with pytest.raises(ValidationError):
            mdp_rate_lower(px, Dist.bernoulli(0.5), HAM, -1.0)

    def test_size_guard(self):
        big = Dist.uniform(5)
        c = CostMatrix.hamming(5)
        with pytest.raises(SizeGuardError):
            mdp_rate_lower(big, big, c, -1.0)
        with pytest.raises(SizeGuardError):
            mdp_rate_upper(big, big, c, 1.0)


@st.composite
def _seta_instance(draw):
    mx = draw(st.integers(2, 3))
    my = draw(st.integers(2, 3))

    def weights(k):
        return draw(st.lists(st.integers(1, 30), min_size=k, max_size=k))

    def dist(w):
        return Dist.from_mass([v / sum(w) for v in w])

    rows = draw(st.lists(
        st.lists(st.integers(0, 12), min_size=my, max_size=my),
        min_size=mx, max_size=mx))
    cost = CostMatrix.from_rows([[v / 4.0 for v in row] for row in rows])
    return (dist(weights(mx)), dist(weights(my)),
            dist(weights(mx)), dist(weights(my)), cost)


class TestSeta:
    def test_report_fields(self):
        rep = seta_check(Dist.bernoulli(0.3), Dist.bernoulli(0.6), HAM,
                         Dist.bernoulli(0.4), Dist.bernoulli(0.6), 1.0)
        assert isinstance(rep, SetaReport)
        assert rep.holds
        assert rep.lhs >= rep.rhs - 1e-9

    def test_rejects_nonpositive_scale(self):
        p = Dist.bernoulli(0.3)
        with pytest.raises(ValidationError):
            seta_check(p, p, HAM, p, p, 0.0)
        with pytest.raises(ValidationError):
            seta_check(p, p, HAM, p, p, -0.25)

    @given(_seta_instance())
    @settings(max_examples=60, deadline=None)
    def test_increment_dominates_linearization(self, inst):
        px, py, qx, qy, cost = inst
        rep = seta_check(px, py, cost, qx, qy, 1.0)
        assert rep.holds

    def test_gap_sequence_crosses_one_kink(self):
        # moving Bernoulli(0.45) mass upward crosses the |q - 1/2| kink of
        # the transport value exactly once inside the sampled scales
        gaps = seta_gap_sequence(Dist.bernoulli(0.45), Dist.bernoulli(0.5),
                                 HAM, SignedVec((1.0, -1.0)), SignedVec.zero(2))
        assert gaps[0][0] == pytest.approx(2.0 ** -4)
        assert gaps[0][1] == pytest.approx(0.4, abs=1e-9)
        for _, g in gaps[1:]:
            assert g == pytest.approx(0.0, abs=1e-9)

    def test_gap_sequence_rejects_simplex_escape(self):
        with pytest.raises(ValidationError):
            seta_gap_sequence(Dist.bernoulli(0.45), Dist.bernoulli(0.5), HAM,
                              SignedVec((10.0, -10.0)), SignedVec.zero(2))


class TestDirectionHelpers:
    def test_helmert_rows_orthonormal_zero_sum(self):
        for k in (2, 3, 4, 6):
            basis = helmert_basis(k)
            assert basis.shape == (k - 1, k)
            assert np.allclose(basis @ basis.T, np.eye(k - 1), atol=1e-12)
            assert np.allclose(basis.sum(axis=1), 0.0, atol=1e-12)

    def test_helmert_needs_two_letters(self):
        with pytest.raises(ValidationError):
            helmert_basis(1)

    def test_dim_one_directions(self):
        assert unit_directions(1, 99).tolist() == [[1.0], [-1.0]]

    def test_dim_two_directions_on_circle(self):
        dirs = unit_directions(2, 360)
        assert dirs.shape == (360, 2)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_higher_dim_directions_include_axes(self):
        dirs = unit_directions(3, 50)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        rows = {tuple(np.round(v, 12)) for v in dirs}
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            assert tuple(e) in rows and tuple(-e) in rows

    def test_directions_deterministic(self):
        a = unit_directions(4, 37, seed=5)
        b = unit_directions(4, 37, seed=5)
        assert np.array_equal(a, b)
