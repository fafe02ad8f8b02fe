"""Signed-coupling cost theta and the quadratic-scale rate kernels."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from strassen_lab import mdp
from strassen_lab.errors import (DimensionMismatchError, SizeGuardError,
                                 ValidationError)
from strassen_lab.mdp import (SetaReport, SignedMatrix, mdp_rate_lower,
                              mdp_rate_upper, seta_check, seta_gap_sequence,
                              support_of, theta, theta_plan)
from strassen_lab.measures import Dist, SignedVec
from strassen_lab.transport import CostMatrix, SupportSet, ot_cost
from test_acceptance import THETA_INSTANCES

HAM = CostMatrix.hamming(2)


def _binary_support() -> SupportSet:
    return support_of(Dist.bernoulli(0.2), Dist.bernoulli(0.6), HAM)


def _simplex_grid(parts: int, steps: int) -> np.ndarray:
    """Every point of the simplex in R^parts with coordinates in Z / steps."""
    bars = np.array(list(itertools.combinations(range(steps + parts - 1),
                                                parts - 1)))
    lo = np.full((len(bars), 1), -1)
    hi = np.full((len(bars), 1), steps + parts - 1)
    return (np.diff(np.hstack([lo, bars, hi]), axis=1) - 1) / steps


def _sd(h: np.ndarray, mass: np.ndarray) -> float:
    return math.sqrt(((h - h @ mass) ** 2) @ mass)


def _realized_upper(p_x: Dist, p_y: Dist, c: CostMatrix) -> float:
    """The upper kernel at the direction built from the best face vertex.

    On the positive-mass symbols, u = p (h - mean_p h) / sigma_p(h) puts
    each halved chi-square at 1/2, so the kernel there is 1 / (2 theta^2).
    Zero-mass symbols get no perturbation, and theta prices the padded
    direction on the full instance.
    """
    px, py = p_x.as_array(), p_y.as_array()
    rows, cols = np.flatnonzero(px > 0.0), np.flatnonzero(py > 0.0)
    sub_c = CostMatrix.from_rows(c.as_array()[np.ix_(rows, cols)])
    f, g = mdp._optimal_face(support_of(Dist.from_mass(px[rows]),
                                        Dist.from_mass(py[cols]), sub_c),
                             sub_c)

    def unit(h, mass):
        sd = _sd(h, mass)
        return mass * (h - h @ mass) / sd if sd > 0.0 else 0.0 * h

    best = max(range(len(f)),
               key=lambda v: _sd(f[v], px[rows]) + _sd(g[v], py[cols]))
    ux, uy = np.zeros(len(px)), np.zeros(len(py))
    ux[rows] = unit(f[best], px[rows])
    uy[cols] = unit(g[best], py[cols])
    th = theta(SignedVec(tuple(ux)), SignedVec(tuple(uy)),
               support_of(p_x, p_y, c), c)
    return max(_chi2_half_arr(ux, px), _chi2_half_arr(uy, py)) / th ** 2


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

    def test_letter_below_the_old_flow_dust(self):
        # the min-cost flow once skipped residuals up to 1e-15, left the
        # 2^-52 letter unrouted, and the support missed (0, 0): the optimal
        # dual face read as empty or unbounded
        px = Dist.from_mass([2.0 ** -52, 0.5 - 2.0 ** -52, 0.5])
        py = Dist.from_mass([0.25, 0.75])
        c = CostMatrix.from_rows([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        up = mdp_rate_upper(px, py, c, 0.5)
        lo = mdp_rate_lower(px, py, c, -0.5)
        assert math.isfinite(up) and math.isfinite(lo)
        assert up == pytest.approx(2 / 3, rel=1e-6)
        assert lo == pytest.approx(2 / 3, rel=1e-6)

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

    def test_lower_drops_zero_mass_row(self):
        # as for the upper kernel: the reduced 2x3 instance, against the
        # direction sweep on it, and a point mass leaves only sigma_y(g)
        c = CostMatrix.from_rows([[abs(i - j) for j in range(3)]
                                  for i in range(3)])
        py = Dist.from_mass([0.2, 0.3, 0.5])
        got = mdp_rate_lower(Dist.from_mass([0.5, 0.5, 0.0]), py, c, -1.0)
        assert got == pytest.approx(6.331114844099786, rel=1e-12)
        sub = CostMatrix.from_rows([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])
        sweep, _, _ = sweep_lower(Dist.from_mass([0.5, 0.5]), py, sub, 48)
        assert got == pytest.approx(sweep, rel=1e-6)
        assert mdp_rate_lower(Dist.from_mass([0.0, 1.0]), Dist.bernoulli(0.5),
                              HAM, -1.0) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
    def test_tiny_mass_row_keeps_its_support(self, eps):
        # against Bern(0.5) the face is the one vertex f = (1, -1)/2 up to
        # shift, so the kernels are 1 / (2 (1/2 +- sqrt(eps (1 - eps)))^2);
        # an absolute 1e-9 cut-off on plan mass once dropped the (0, 0)
        # cell at eps = 1e-9 and both kernels refused an empty face
        px, py = Dist.from_mass([eps, 1 - eps]), Dist.bernoulli(0.5)
        spread = math.sqrt(eps * (1 - eps))
        assert mdp_rate_upper(px, py, HAM, 1.0) == pytest.approx(
            1 / (2 * (0.5 + spread) ** 2), rel=1e-12)
        assert mdp_rate_lower(px, py, HAM, -1.0) == pytest.approx(
            1 / (2 * (0.5 - spread) ** 2), rel=1e-12)

    def test_closed_forms_exact(self):
        bx, by = Dist.bernoulli(0.1), Dist.bernoulli(0.5)
        assert mdp_rate_lower(bx, by, HAM, -1.0) == pytest.approx(12.5, rel=1e-12)
        assert mdp_rate_upper(bx, by, HAM, 1.0) == pytest.approx(0.78125, rel=1e-12)
        px, py, c = THETA_INSTANCES[2]
        assert mdp_rate_lower(px, py, c, -1.0) == pytest.approx(
            126.5465804198012, rel=1e-12)
        assert mdp_rate_upper(px, py, c, 1.0) == pytest.approx(
            0.6578524215863327, rel=1e-12)

    def test_upper_drops_zero_mass_row(self):
        # the zero-mass row of |i - j| leaves the 2x3 instance, whose
        # kernel theta realizes on the zero-padded direction
        c = CostMatrix.from_rows([[abs(i - j) for j in range(3)]
                                  for i in range(3)])
        px, py = Dist.from_mass([0.5, 0.5, 0.0]), Dist.from_mass([0.2, 0.3, 0.5])
        got = mdp_rate_upper(px, py, c, 1.0)
        assert got == pytest.approx(0.30468762503601, abs=1e-13)
        sub = CostMatrix.from_rows([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])
        assert got == pytest.approx(
            mdp_rate_upper(Dist.from_mass([0.5, 0.5]), py, sub, 1.0), rel=1e-12)
        assert _realized_upper(px, py, c) == pytest.approx(got, rel=1e-12)

    def test_upper_point_mass(self):
        # only the y side can move: 1 / (2 sigma_y(g)^2) with sigma_y = 1/2
        got = mdp_rate_upper(Dist.from_mass([1.0, 0.0]), Dist.bernoulli(0.5),
                             HAM, 1.0)
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_upper_two_vertex_face(self):
        c = CostMatrix.from_rows([[2, 2, 2], [0, 2, 1], [1, 1, 0]])
        p = Dist.from_mass([1 / 2, 1 / 3, 1 / 6])
        got = mdp_rate_upper(p, p, c, 1.0)
        assert len(mdp._face_spreads(p, p, c)[0]) == 2
        assert got == pytest.approx(0.3099003388254815, rel=1e-12)
        assert _realized_upper(p, p, c) == pytest.approx(got, rel=1e-12)

    def test_lower_maximum_inside_a_two_dimensional_face(self):
        # the best vertex mixture is interior to a 2-D face: a simplex grid
        # beats every vertex and edge, and the kernel is at or below the grid
        c = CostMatrix.from_rows([[3, 1, 2, 2], [0, 1, 0, 1], [2, 0, 0, 1],
                                  [3, 3, 2, 1]])
        px = Dist.from_mass([1 / 6, 1 / 6, 1 / 6, 3 / 6])
        py = Dist.from_mass([1 / 6, 1 / 6, 2 / 6, 2 / 6])
        wx, wy = mdp._face_spreads(px, py, c)
        assert len(wx) == 4

        def kernel_on(lam):
            gap = np.abs(np.linalg.norm(lam @ wx, axis=1)
                         - np.linalg.norm(lam @ wy, axis=1))
            return 1.0 / (2.0 * gap.max() ** 2)

        t = np.linspace(0.0, 1.0, 2001)[:, None]
        edges = min(kernel_on((1.0 - t) * np.eye(4)[i] + t * np.eye(4)[j])
                    for i in range(4) for j in range(i + 1, 4))
        got = mdp_rate_lower(px, py, c, -1.0)
        assert got <= kernel_on(_simplex_grid(4, 80))
        assert got <= 2.1910109 + 1e-7
        assert got < 2.19361 <= edges + 1e-5

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


# ---------------------------------------------------------------------------
# The direction sweep the face kernels replaced, kept as their oracle: unit
# directions, the W(u) minimax solved by SLSQP with a ray-sweep fallback,
# and a Nelder-Mead polish of the best direction.


def helmert_basis(k: int) -> np.ndarray:
    """Orthonormal basis (rows) of the zero-sum subspace in R^k."""
    if k < 2:
        raise ValidationError("zero-sum subspace needs k >= 2")
    basis = np.zeros((k - 1, k))
    for r in range(1, k):
        basis[r - 1, :r] = 1.0
        basis[r - 1, r] = -r
        basis[r - 1] /= math.sqrt(r * (r + 1))
    return basis


def unit_directions(dim: int, count: int, seed: int = 2026) -> np.ndarray:
    """A spread of unit vectors: signs, angles, or a seeded sphere sample."""
    if dim < 1:
        raise ValidationError("direction space must have dimension >= 1")
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        return np.column_stack([np.cos(angles), np.sin(angles)])
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    return np.vstack([axes, pts])


def _chi2_half_arr(beta: np.ndarray, mass: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(mass > 0.0, beta * beta / np.where(mass > 0.0, mass, 1.0),
                         np.where(beta == 0.0, 0.0, math.inf))
    return 0.5 * float(terms.sum())


def _w_inner(u: np.ndarray, radius: float, s: SupportSet, c: CostMatrix,
             inner_mass: np.ndarray, outer_on_rows: bool) -> float:
    """min theta(u, beta) over the inner chi-square ball of the given radius.

    Solved as a smooth convex program in the arc variables: linear cost,
    linear outer-marginal equalities, one convex quadratic ball constraint.
    """
    carr = c.as_array() if outer_on_rows else c.as_array().T
    cells = (s.cells if outer_on_rows
             else frozenset((j, i) for i, j in s.cells))
    m, k = carr.shape
    s_cells = sorted(cells)
    n_f, n_b = m * k, len(s_cells)
    cost_vec = np.concatenate([carr.reshape(-1),
                               [-carr[i, j] for i, j in s_cells]])
    row_mat = np.zeros((m, n_f + n_b))
    col_mat = np.zeros((k, n_f + n_b))
    for i in range(m):
        row_mat[i, i * k:(i + 1) * k] = 1.0
    for j in range(k):
        col_mat[j, j:n_f:k] = 1.0
    for col, (i, j) in enumerate(s_cells):
        row_mat[i, n_f + col] = -1.0
        col_mat[j, n_f + col] = -1.0
    inv_mass = 1.0 / inner_mass

    def quad(z):
        beta = col_mat @ z
        return radius - 0.5 * float(beta @ (beta * inv_mass))

    def quad_jac(z):
        beta = col_mat @ z
        return -(beta * inv_mass) @ col_mat

    z0 = np.zeros(n_f + n_b)
    for i in range(m):
        if u[i] > 0.0:
            z0[i * k + int(np.argmin(carr[i]))] = u[i]
    for col, (i, j) in enumerate(s_cells):
        if u[i] < 0.0 and z0[n_f + col] == 0.0:
            z0[n_f + col] = -u[i]
    # second start spreads each row's mass uniformly: a degenerate vertex
    # start occasionally jams the line search
    z1 = np.zeros(n_f + n_b)
    back_per_row = np.zeros(m)
    for i, _ in s_cells:
        back_per_row[i] += 1.0
    for i in range(m):
        if u[i] > 0.0:
            z1[i * k:(i + 1) * k] = u[i] / k
    for col, (i, j) in enumerate(s_cells):
        if u[i] < 0.0:
            z1[n_f + col] = -u[i] / back_per_row[i]
    for start in (z0, z1):
        res = minimize(
            lambda z: float(cost_vec @ z), start, jac=lambda z: cost_vec,
            method="SLSQP",
            bounds=[(0.0, None)] * (n_f + n_b),
            constraints=[
                {"type": "eq", "fun": lambda z: row_mat @ z - u,
                 "jac": lambda z: row_mat},
                {"type": "ineq", "fun": quad, "jac": quad_jac},
            ],
            options={"maxiter": 400, "ftol": 1e-14},
        )
        if res.success:
            return float(res.fun)
    # Fall back to a ray sweep: theta is convex along each ray from 0, so a
    # golden search per direction recovers the ball minimum to grid accuracy.
    basis = helmert_basis(k)
    best = math.inf
    uvec = SignedVec(tuple(u - u.mean()))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for v in unit_directions(k - 1, 48):
        beta_dir = v @ basis
        chalf = _chi2_half_arr(beta_dir, inner_mass)
        if not math.isfinite(chalf) or chalf <= 0.0:
            continue
        t_max = math.sqrt(radius / chalf)

        def along(t: float) -> float:
            bv = SignedVec(tuple(t * beta_dir - (t * beta_dir).mean()))
            if outer_on_rows:
                return theta(uvec, bv, s, c)
            return theta(bv, uvec, s, c)

        lo, hi = 0.0, t_max
        t1, t2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        f1, f2 = along(t1), along(t2)
        for _ in range(28):
            if f1 <= f2:
                hi, t2, f2 = t2, t1, f1
                t1 = hi - invphi * (hi - lo)
                f1 = along(t1)
            else:
                lo, t1, f1 = t1, t2, f2
                t2 = lo + invphi * (hi - lo)
                f2 = along(t2)
        best = min(best, f1, f2, along(0.0), along(t_max))
    return best


def sweep_lower(p_x: Dist, p_y: Dist, c: CostMatrix, directions: int):
    """The old lower kernel, with the outer direction u and orientation
    (outer on rows or not) that attain it."""
    s = support_of(p_x, p_y, c)
    best = (math.inf, None, None)
    for outer_on_rows, outer_p, inner_p in ((True, p_x, p_y),
                                            (False, p_y, p_x)):
        ko = len(outer_p)
        basis = helmert_basis(ko)
        omass = outer_p.as_array()
        imass = inner_p.as_array()

        def kernel(coords: np.ndarray) -> float:
            u = coords @ basis
            chalf = _chi2_half_arr(u, omass)
            if not math.isfinite(chalf) or chalf <= 0.0:
                return math.inf
            w = _w_inner(u, chalf, s, c, imass, outer_on_rows)
            if w <= mdp.DIR_EPS:
                return math.inf
            return chalf / (w * w)

        dirs = unit_directions(ko - 1, directions)
        vals = [kernel(v) for v in dirs]
        idx = int(np.argmin(vals))
        local, arg = vals[idx], dirs[idx]
        if math.isfinite(local) and ko > 2:
            polish = minimize(
                lambda v: kernel(v / max(np.linalg.norm(v), 1e-12)),
                dirs[idx], method="Nelder-Mead",
                options={"maxiter": 200, "xatol": 1e-6, "fatol": 1e-12},
            )
            if math.isfinite(polish.fun) and polish.fun < local:
                local = float(polish.fun)
                arg = polish.x / max(np.linalg.norm(polish.x), 1e-12)
        if local < best[0]:
            best = (local, arg @ basis, outer_on_rows)
    return best


def sweep_upper(p_x: Dist, p_y: Dist, c: CostMatrix, directions: int) -> float:
    """The old upper kernel: joint unit directions with theta(u) > 0 cost
    max of the two halved chi-squares over theta^2."""
    s = support_of(p_x, p_y, c)
    kx, ky = len(p_x), len(p_y)
    bx = helmert_basis(kx)
    by = helmert_basis(ky)
    xmass = p_x.as_array()
    ymass = p_y.as_array()
    dim = (kx - 1) + (ky - 1)

    def kernel(coords: np.ndarray) -> float:
        ux = coords[:kx - 1] @ bx
        uy = coords[kx - 1:] @ by
        try:
            th = theta(SignedVec(tuple(ux - ux.mean())),
                       SignedVec(tuple(uy - uy.mean())), s, c)
        except ValidationError:
            return math.inf
        if not th > mdp.DIR_EPS:
            return math.inf
        q = max(_chi2_half_arr(ux, xmass), _chi2_half_arr(uy, ymass))
        if not math.isfinite(q):
            return math.inf
        return q / (th * th)

    dirs = unit_directions(dim, directions)
    vals = [kernel(v) for v in dirs]
    idx = int(np.argmin(vals))
    best = vals[idx]
    if math.isfinite(best):
        polish = minimize(
            lambda v: kernel(v / max(np.linalg.norm(v), 1e-12)),
            dirs[idx], method="Nelder-Mead",
            options={"maxiter": 400, "xatol": 1e-7, "fatol": 1e-13},
        )
        if math.isfinite(polish.fun):
            best = min(best, float(polish.fun))
    return best


def _certified_w(u: np.ndarray, outer_on_rows: bool, p_x: Dist, p_y: Dist,
                 c: CostMatrix) -> tuple[float, float]:
    """A bracket [dual, primal] on W(u) = min_beta max_v over the face.

    The primal epigraph prices one feasible beta of the inner chi-square
    ball.  The face dual prices one vertex mixture lam at
    (outer^T lam) . u - sqrt(2 r) sigma_inner(inner^T lam), solved in
    epigraph form (tau >= sigma) because the optimum is often a cusp where
    sigma vanishes.  Each side is a valid bound whatever its solver
    reports, so a narrow bracket certifies W(u).
    """
    f, g = mdp._optimal_face(support_of(p_x, p_y, c), c)
    outer, inner = (f, g) if outer_on_rows else (g, f)
    omass, imass = ((p_x, p_y) if outer_on_rows else (p_y, p_x))
    omass, imass = omass.as_array(), imass.as_array()
    radius = _chi2_half_arr(u, omass)
    base, scale = outer @ u, math.sqrt(2.0 * radius)
    spread = (inner - (inner @ imass)[:, None]) * np.sqrt(imass)
    n, k = inner.shape

    def dual_at(lam):
        lam = np.clip(lam, 0.0, None)
        lam = lam / lam.sum()
        return float(lam @ base - scale * np.linalg.norm(lam @ spread))

    lam0 = np.full(n, 1.0 / n)
    res = minimize(
        lambda z: scale * z[n] - z[:n] @ base,
        np.append(lam0, np.linalg.norm(lam0 @ spread) + 1.0),
        jac=lambda z: np.append(-base, scale), method="SLSQP",
        bounds=[(0.0, 1.0)] * n + [(0.0, None)],
        constraints=[
            {"type": "eq", "fun": lambda z: z[:n].sum() - 1.0,
             "jac": lambda z: np.append(np.ones(n), 0.0)},
            {"type": "ineq",
             "fun": lambda z: z[n] ** 2 - np.sum((z[:n] @ spread) ** 2),
             "jac": lambda z: np.append(-2.0 * spread @ (z[:n] @ spread),
                                        2.0 * z[n])},
        ],
        options={"maxiter": 500, "ftol": 1e-15})
    dual = dual_at(res.x[:n])

    def primal_at(z):
        beta = z[:k] - z[:k].mean()
        q = _chi2_half_arr(beta, imass)
        if q > radius:
            beta = beta * math.sqrt(radius / q)
        return float(np.max(base + inner @ beta))

    res = minimize(
        lambda z: z[k], np.append(np.zeros(k), base.max()), method="SLSQP",
        constraints=[
            {"type": "ineq", "fun": lambda z: z[k] - base - inner @ z[:k]},
            {"type": "ineq",
             "fun": lambda z: radius - _chi2_half_arr(z[:k], imass)},
            {"type": "eq", "fun": lambda z: z[:k].sum()},
        ],
        options={"maxiter": 500, "ftol": 1e-15})
    return dual, primal_at(res.x)


def _realized_lower(p_x: Dist, p_y: Dist, c: CostMatrix) -> tuple:
    """A bracket on the lower kernel at the direction a one-vertex face
    picks: the side with the larger spread moves along p (h - mean_p h) /
    sigma_p(h), at halved chi-square 1/2, and W there is certified."""
    (f,), (g,) = mdp._optimal_face(support_of(p_x, p_y, c), c)
    px, py = p_x.as_array(), p_y.as_array()
    on_rows = _sd(f, px) >= _sd(g, py)
    h, mass = (f, px) if on_rows else (g, py)
    dual, primal = _certified_w(mass * (h - h @ mass) / _sd(h, mass),
                                on_rows, p_x, p_y, c)
    return 0.5 / primal ** 2, 0.5 / dual ** 2


def _differential_instances() -> list:
    """Binary pairs, THETA_INSTANCES, faces with several vertices and seeded
    random positive instances up to 4x4.

    Odd draws have tied integer costs and a symbol of equal mass on both
    sides whose zero-cost cell no optimal plan leaves (every other cost in
    its row and column is the largest), so S has two or more components and
    the face two or more vertices.
    """
    out = [(Dist.bernoulli(a), Dist.bernoulli(b), HAM)
           for a, b in ((0.1, 0.5), (0.2, 0.7), (0.3, 0.3), (0.8, 0.35))]
    out += list(THETA_INSTANCES)
    out += [(Dist.from_mass([0.5, 0.3, 0.2]), Dist.from_mass([0.4, 0.4, 0.2]),
             CostMatrix.hamming(3)),
            (Dist.from_mass([1 / 2, 1 / 3, 1 / 6]),
             Dist.from_mass([1 / 2, 1 / 3, 1 / 6]),
             CostMatrix.from_rows([[2, 2, 2], [0, 2, 1], [1, 1, 0]])),
            (Dist.from_mass([1 / 6, 1 / 6, 1 / 6, 3 / 6]),
             Dist.from_mass([1 / 6, 1 / 6, 2 / 6, 2 / 6]),
             CostMatrix.from_rows([[3, 1, 2, 2], [0, 1, 0, 1], [2, 0, 0, 1],
                                   [3, 3, 2, 1]]))]
    rng = np.random.default_rng(20261018)
    for draw in range(5):
        m, k = rng.integers(2, 5, size=2)
        wx, wy = rng.integers(1, 10, size=m), rng.integers(1, 10, size=k)
        px, py = wx / wx.sum(), wy / wy.sum()
        if draw % 2:
            py = np.concatenate([px[:1], (1.0 - px[0]) * wy[1:] / wy[1:].sum()])
            cost = rng.integers(1, 3, size=(m, k)).astype(float)
            cost[0, :] = cost[:, 0] = 3.0
            cost[0, 0] = 0.0
        else:
            cost = np.round(rng.uniform(0.0, 2.0, size=(m, k)), 2)
        out.append((Dist.from_mass(px), Dist.from_mass(py),
                    CostMatrix.from_rows(cost)))
    return out


DIFFERENTIAL = _differential_instances()
#: The binary pairs and THETA_INSTANCES come first: one-vertex faces whose
#: direction spaces the 48-direction sweep covers to 1e-6.
SWEEP_CONVERGES = 4 + len(THETA_INSTANCES)


class TestSweepOracle:
    """The face kernels against the direction sweep they replaced.

    Where the sweep converges the two agree to 1e-6.  Elsewhere a gap is
    settled by proof: the face kernel is realized at an explicit direction,
    and a sweep kernel below it comes from a W(u) that sits above a
    certified feasible point.
    """

    @pytest.mark.parametrize("idx", range(len(DIFFERENTIAL)))
    def test_face_kernels_match_sweep(self, idx):
        px, py, c = DIFFERENTIAL[idx]
        one_vertex = len(mdp._optimal_face(support_of(px, py, c), c)[0]) == 1
        up, up_sweep = mdp_rate_upper(px, py, c, 1.0), sweep_upper(px, py, c, 48)
        lo = mdp_rate_lower(px, py, c, -1.0)
        lo_sweep, u, outer_on_rows = sweep_lower(px, py, c, 48)
        if idx < SWEEP_CONVERGES:
            assert up == pytest.approx(up_sweep, rel=1e-6)
            assert lo == pytest.approx(lo_sweep, rel=1e-6)
        # the sweep only evaluates realized directions, and theta realizes
        # the upper kernel at the direction its best vertex picks
        assert up <= up_sweep * (1.0 + 1e-12)
        assert _realized_upper(px, py, c) == pytest.approx(up, rel=1e-12)
        if one_vertex and math.isfinite(lo):
            low, high = _realized_lower(px, py, c)
            assert low * (1.0 - 1e-9) <= lo <= high * (1.0 + 1e-9)
        if not math.isfinite(lo_sweep):
            assert lo == math.inf or one_vertex
            return
        # W at the sweep's best direction, certified from both sides: the
        # face kernel is not beaten there
        dual, primal = _certified_w(u, outer_on_rows, px, py, c)
        assert primal - dual <= 1e-10 * max(1.0, abs(primal))
        radius = _chi2_half_arr(u, (px if outer_on_rows else py).as_array())
        assert dual <= 0.0 or lo <= radius / dual ** 2 * (1.0 + 1e-9)
        if lo_sweep < lo * (1.0 - 1e-6):
            # the sweep came out lower: its W(u) is not the ball minimum
            assert math.sqrt(radius / lo_sweep) > primal * (1.0 + 1e-9)


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
