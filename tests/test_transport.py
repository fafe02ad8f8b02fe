import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.optimize import linprog

from strassen_lab import flow
from strassen_lab.errors import SizeGuardError, ValidationError
from strassen_lab.measures import Dist, tv
from strassen_lab.transport import (
    CostMatrix,
    SupportSet,
    dual_vertices,
    ecp,
    ecp_dual_bruteforce,
    gamma_enlarge,
    kantorovich_certificate,
    optimal_support,
    ot_cost,
    ot_value,
)

from conftest import problem_st, random_cost, random_dist

HAMMING = CostMatrix.hamming(2)


def lp_transport_value(px, py, cost):
    """Independent transport optimum straight from the LP definition."""
    m, k = cost.shape
    a_eq = np.zeros((m + k, m * k))
    for i in range(m):
        a_eq[i, i * k:(i + 1) * k] = 1.0
    for j in range(k):
        a_eq[m + j, j::k] = 1.0
    res = linprog(cost.reshape(-1), A_eq=a_eq,
                  b_eq=np.concatenate([px, py]), bounds=(0, None),
                  method="highs")
    assert res.status == 0
    return float(res.fun)


class TestCostMatrix:
    def test_hamming(self):
        assert HAMMING.as_array().tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            CostMatrix.from_rows([[0.0, math.inf]])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            CostMatrix.from_rows([[0.0, -0.5]])

    def test_extremes(self):
        c = CostMatrix.from_rows([[0.25, 2.0], [1.0, 0.5]])
        assert c.min() == 0.25
        assert c.max() == 2.0


class TestSupportSet:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            SupportSet(frozenset())

    def test_contains(self):
        s = SupportSet(frozenset({(0, 0), (1, 1)}))
        assert (0, 0) in s and (0, 1) not in s
        assert len(s) == 2


class TestOtCost:
    def test_binary_hamming_is_marginal_gap(self):
        plan = ot_cost(Dist.bernoulli(0.1), Dist.bernoulli(0.5), HAMMING)
        assert plan.objective == pytest.approx(0.4, abs=1e-12)

    def test_identical_marginals_zero_diagonal(self):
        p = Dist.from_mass([0.2, 0.5, 0.3])
        c = CostMatrix.from_rows([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert ot_cost(p, p, c).objective == pytest.approx(0.0, abs=1e-12)

    def test_uniform_3x3_matches_birkhoff_vertices(self, rng):
        u = Dist.from_mass([1 / 3] * 3)
        for _ in range(10):
            c = random_cost(rng, 3, 3)
            best = min(
                sum(c.as_array()[i, p[i]] for i in range(3)) / 3.0
                for p in itertools.permutations(range(3))
            )
            assert ot_cost(u, u, c).objective == pytest.approx(best, abs=1e-9)

    def test_plan_marginals_and_objective_consistency(self, rng):
        for _ in range(25):
            px = random_dist(rng, int(rng.integers(2, 5)))
            py = random_dist(rng, int(rng.integers(2, 5)))
            c = random_cost(rng, len(px), len(py))
            plan = ot_cost(px, py, c)
            mat = plan.plan.as_array()
            assert np.allclose(mat.sum(axis=1), px.mass, atol=1e-9)
            assert np.allclose(mat.sum(axis=0), py.mass, atol=1e-9)
            assert plan.objective == pytest.approx(
                float((mat * c.as_array()).sum()), abs=1e-9)
            assert plan.objective == pytest.approx(
                lp_transport_value(px.as_array(), py.as_array(), c.as_array()),
                abs=1e-9)

    @given(problem_st())
    @settings(max_examples=120, deadline=None)
    def test_matches_lp_oracle(self, prob):
        px, py, c = prob
        got = ot_cost(px, py, c).objective
        want = lp_transport_value(px.as_array(), py.as_array(), c.as_array())
        assert got == pytest.approx(want, abs=1e-9)

    @given(problem_st(), problem_st())
    @settings(max_examples=80, deadline=None)
    def test_value_convex_in_marginals(self, prob_a, prob_b):
        px, py, c = prob_a
        qx_raw, qy_raw, _ = prob_b
        if len(qx_raw) != len(px) or len(qy_raw) != len(py):
            return
        lam = 0.375
        mx = [lam * a + (1 - lam) * b for a, b in zip(px.mass, qx_raw.mass)]
        my = [lam * a + (1 - lam) * b for a, b in zip(py.mass, qy_raw.mass)]
        carr = c.as_array()
        mixed = ot_value(np.asarray(mx), np.asarray(my), carr)
        split = (lam * ot_value(px.as_array(), py.as_array(), carr)
                 + (1 - lam) * ot_value(qx_raw.as_array(), qy_raw.as_array(),
                                        carr))
        assert mixed <= split + 1e-9


def _vertex_test_costs(rng, m, k):
    """Generic, tied, rank-one (every tree tight) and constant cost tables."""
    yield rng.random((m, k)) * 4.0
    yield rng.integers(0, 3, (m, k)).astype(float)
    yield rng.random(m)[:, None] + rng.random(k)[None, :]
    yield np.full((m, k), 0.7)


class TestDualVertices:
    """The dual-vertex value route against the SSP min-cost flow it replaces."""

    @pytest.mark.parametrize("m,k", itertools.product(range(1, 5), repeat=2))
    def test_ot_value_matches_ssp(self, m, k):
        rng = np.random.default_rng(100 * m + k)
        for cost in _vertex_test_costs(rng, m, k):
            for _ in range(40):
                px = random_dist(rng, m).as_array()
                py = random_dist(rng, k).as_array()
                _, _, _, want = flow.transport_min_cost(px, py, cost)
                assert abs(ot_value(px, py, cost) - want) <= 1e-14

    @pytest.mark.parametrize("m,k", itertools.product(range(1, 5), repeat=2))
    def test_generic_cost_vertex_count_and_feasibility(self, m, k):
        # a generic m x k cost has C(m+k-2, m-1) dual vertices, each
        # feasible everywhere and tight on a spanning set of cells
        rng = np.random.default_rng(7 * m + k)
        cost = rng.random((m, k)) * 4.0
        f, g = dual_vertices(CostMatrix.from_rows(cost.tolist()))
        assert f.shape == (math.comb(m + k - 2, m - 1), m)
        assert g.shape == (len(f), k)
        assert np.all(f[:, 0] == 0.0)
        slack = cost - f[:, :, None] - g[:, None, :]
        assert slack.min() >= -1e-12
        assert np.all((np.abs(slack) <= 1e-12).sum(axis=(1, 2)) >= m + k - 1)

    def test_none_past_four_symbols_and_ot_value_falls_back(self, rng):
        c = CostMatrix.hamming(5)
        assert dual_vertices(c) is None
        px, py = random_dist(rng, 5).as_array(), random_dist(rng, 5).as_array()
        want = flow.transport_min_cost(px, py, c.as_array())[3]
        assert ot_value(px, py, c.as_array()) == want


class TestEcp:
    def test_tv_case(self):
        res = ecp(Dist.bernoulli(0.1), Dist.bernoulli(0.5), HAMMING, 0.0)
        assert res.value == pytest.approx(0.4, abs=1e-12)
        assert res.value == pytest.approx(
            tv(Dist.bernoulli(0.1), Dist.bernoulli(0.5)), abs=1e-12)

    def test_alpha_above_max_cost(self):
        res = ecp(Dist.bernoulli(0.3), Dist.bernoulli(0.8), HAMMING, 1.0)
        assert res.value == 0.0
        assert res.complement == 1.0

    def test_alpha_below_min_cost(self):
        c = CostMatrix.from_rows([[0.5, 1.0], [1.0, 0.5]])
        res = ecp(Dist.bernoulli(0.3), Dist.bernoulli(0.8), c, 0.2)
        assert res.value == 1.0

    def test_witness_realizes_value(self, rng):
        for _ in range(25):
            px = random_dist(rng, int(rng.integers(2, 6)))
            py = random_dist(rng, int(rng.integers(2, 6)))
            c = random_cost(rng, len(px), len(py))
            alpha = float(rng.random() * c.max())
            res = ecp(px, py, c, alpha)
            gamma = gamma_enlarge(res.witness, c, alpha)
            direct = (sum(px.mass[i] for i in res.witness)
                      - sum(py.mass[j] for j in gamma))
            assert res.value == pytest.approx(direct, abs=1e-9)
            assert res.value + res.complement == pytest.approx(1.0, abs=1e-9)

    def test_plan_is_feasible_and_attains_value(self, rng):
        for _ in range(15):
            px = random_dist(rng, 3)
            py = random_dist(rng, 4)
            c = random_cost(rng, 3, 4)
            alpha = float(rng.random() * c.max())
            res = ecp(px, py, c, alpha)
            mat = res.plan.as_array()
            assert np.allclose(mat.sum(axis=1), px.mass, atol=1e-9)
            assert np.allclose(mat.sum(axis=0), py.mass, atol=1e-9)
            exceed = float(mat[c.as_array() > alpha + 1e-12].sum())
            assert exceed == pytest.approx(res.value, abs=1e-9)

    def test_exact_mode_agrees(self, rng):
        for _ in range(10):
            px = random_dist(rng, 3)
            py = random_dist(rng, 3)
            c = random_cost(rng, 3, 3)
            alpha = float(rng.random() * c.max())
            a = ecp(px, py, c, alpha).value
            b = ecp(px, py, c, alpha, exact=True).value
            assert a == pytest.approx(b, abs=1e-12)

    def test_alpha_monotone(self, rng):
        for _ in range(20):
            px = random_dist(rng, 3)
            py = random_dist(rng, 3)
            c = random_cost(rng, 3, 3)
            alphas = sorted(rng.random(3) * c.max())
            vals = [ecp(px, py, c, a).value for a in alphas]
            assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


class TestEcpDual:
    def test_binary_witness(self):
        val, e = ecp_dual_bruteforce(Dist.bernoulli(0.1), Dist.bernoulli(0.5),
                                     HAMMING, 0.0)
        assert val == pytest.approx(0.4, abs=1e-12)
        assert e == frozenset({1})

    def test_alpha_above_max(self):
        val, e = ecp_dual_bruteforce(Dist.bernoulli(0.2), Dist.bernoulli(0.9),
                                     HAMMING, 2.0)
        assert val == 0.0
        assert e == frozenset()

    def test_size_guard(self):
        k = 21
        p = Dist.from_mass([1.0 / k] * k)
        c = CostMatrix.from_rows([[0.0] * k] * k)
        with pytest.raises(SizeGuardError):
            ecp_dual_bruteforce(p, p, c, 0.0)


class TestGammaEnlarge:
    def test_empty(self):
        assert gamma_enlarge(frozenset(), HAMMING, 0.0) == frozenset()

    def test_everything_admissible(self):
        assert gamma_enlarge({0}, HAMMING, 1.0) == frozenset({0, 1})

    def test_diagonal_only(self):
        assert gamma_enlarge({0}, HAMMING, 0.0) == frozenset({0})


class TestKantorovichCertificate:
    def test_optimal_plan_has_tiny_gap(self, rng):
        for _ in range(10):
            px = random_dist(rng, 3)
            py = random_dist(rng, 4)
            c = random_cost(rng, 3, 4)
            plan = ot_cost(px, py, c)
            f, g, gap = kantorovich_certificate(px, py, c, plan)
            farr, garr = np.asarray(f), np.asarray(g)
            assert (farr[:, None] + garr[None, :] <= c.as_array() + 1e-12).all()
            assert abs(gap) <= 1e-9

    def test_zero_cost(self):
        p = Dist.bernoulli(0.4)
        c = CostMatrix.from_rows([[0.0, 0.0], [0.0, 0.0]])
        plan = ot_cost(p, p, c)
        f, g, gap = kantorovich_certificate(p, p, c, plan)
        assert gap == pytest.approx(0.0, abs=1e-12)


class TestOptimalSupport:
    def test_binary_asymmetric(self):
        s = optimal_support(Dist.bernoulli(0.1), Dist.bernoulli(0.5), HAMMING)
        assert s.cells == frozenset({(0, 0), (1, 0), (1, 1)})

    def test_constant_cost_full(self):
        c = CostMatrix.from_rows([[1.0, 1.0], [1.0, 1.0]])
        s = optimal_support(Dist.bernoulli(0.3), Dist.bernoulli(0.6), c)
        assert s.cells == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})

    def test_point_masses(self):
        px = Dist.from_mass([1.0, 0.0])
        py = Dist.from_mass([0.0, 1.0])
        s = optimal_support(px, py, HAMMING)
        assert s.cells == frozenset({(0, 1)})
