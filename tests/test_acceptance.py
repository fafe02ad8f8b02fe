"""End-to-end acceptance gates for the package.

Each ``test_criterionN_*`` function asserts one headline guarantee — exact
agreement between independent solvers, convergence of finite-n exponents to
their limiting rates, frozen closed-form values, or a randomized invariant
suite — together with its tolerance and, where stated, a wall-clock budget.
The hook in conftest.py aggregates the functions by number and prints one
``ACCEPTANCE N: PASS/FAIL`` line per criterion at the end of the run.
"""
import functools
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import cost_st, random_cost, random_dist
from strassen_lab.clt import lambda_binary, lambda_dual_grid
from strassen_lab.lattice import (
    direct_gn_oracle,
    exact_gn,
    exponent_series,
    nested_instance,
    splitting_coupling,
)
from strassen_lab.ldp import (
    RateQuery,
    rate_f,
    rate_f_binary,
    rate_g,
    rate_g_binary,
)
from strassen_lab.mdp import (_theta_lp, mdp_rate_lower, mdp_rate_upper,
                              seta_check, support_of, theta)
from strassen_lab.measures import Dist, SignedVec, coupling_transfer, kl, tv
from strassen_lab.transport import CostMatrix, ecp, ecp_dual_bruteforce, ot_value

HAMMING = CostMatrix.from_rows([[0.0, 1.0], [1.0, 0.0]])

#: Settings for the randomized invariant suites: a thousand cases each, no
#: per-example deadline (individual cases call LP/flow solvers).
BULK = settings(max_examples=1000, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.filter_too_much,
                                       HealthCheck.data_too_large])


# ---------------------------------------------------------------------------
# 1. the flow-based excess-cost probability equals the subset dual


def test_criterion1_flow_ecp_matches_subset_dual(rng):
    start = time.monotonic()
    for _ in range(200):
        m = int(rng.integers(2, 9))
        k = int(rng.integers(2, 9))
        p_x, p_y = random_dist(rng, m), random_dist(rng, k)
        c = random_cost(rng, m, k)
        # stretch alpha past both ends so the G = 1 and G = 0 edges appear
        alpha = float(rng.uniform(-0.2, 1.2)) * float(np.max(c.as_array()))
        v_flow = ecp(p_x, p_y, c, alpha).value
        v_dual, _ = ecp_dual_bruteforce(p_x, p_y, c, alpha)
        assert abs(v_flow - v_dual) <= 1e-9
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# 2. the lattice evaluation of G_n equals direct product-space enumeration


def test_criterion2_nested_gn_matches_enumeration(rng):
    start = time.monotonic()
    for _ in range(50):
        m = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        p_x, p_y = random_dist(rng, m), random_dist(rng, k)
        c = random_cost(rng, m, k)
        alpha = float(rng.uniform(0.0, 1.05)) * float(np.max(c.as_array()))
        for n in (1, 2, 3):
            lattice_val = exact_gn(p_x, p_y, c, alpha, n)
            direct_val = direct_gn_oracle(p_x, p_y, c, alpha, n)
            assert abs(lattice_val - direct_val) <= 1e-9
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 3./4. finite-n decay exponents approach the limiting rates


def test_criterion3_lower_tail_exponents_approach_rate():
    start = time.monotonic()
    curve = exponent_series(Dist.bernoulli(0.1), Dist.bernoulli(0.5), HAMMING,
                            lambda n: 0.2, (50, 100, 200, 400, 800),
                            "lower-tail")
    limit = rate_f_binary(0.1, 0.5, 0.2)
    gaps = [abs(e - limit) for e in curve.values]
    assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.05
    assert time.monotonic() - start < 120.0


def test_criterion4_upper_tail_exponents_approach_rate():
    curve = exponent_series(Dist.bernoulli(0.1), Dist.bernoulli(0.5), HAMMING,
                            lambda n: 0.45, (50, 100, 200, 400, 800),
                            "upper-tail")
    limit = rate_g_binary(0.1, 0.5, 0.45)
    gaps = [abs(e - limit) for e in curve.values]
    assert all(later <= earlier for earlier, later in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.05


# ---------------------------------------------------------------------------
# 5. the general-alphabet rate solvers reproduce the binary closed forms

#: Binary triples (a, b, alpha) spread over both tails: alpha below |a-b|
#: makes the lower-tail rate active, alpha above it the upper-tail rate.
RATE_TRIPLES = (
    (0.1, 0.5, 0.05), (0.1, 0.5, 0.2), (0.1, 0.5, 0.45), (0.1, 0.5, 0.6),
    (0.2, 0.7, 0.1), (0.2, 0.7, 0.3), (0.2, 0.7, 0.55), (0.2, 0.7, 0.8),
    (0.3, 0.3, 0.1), (0.3, 0.3, 0.35), (0.05, 0.9, 0.5), (0.05, 0.9, 0.95),
    (0.4, 0.6, 0.05), (0.4, 0.6, 0.15), (0.4, 0.6, 0.3), (0.25, 0.45, 0.12),
    (0.25, 0.45, 0.28), (0.15, 0.85, 0.6), (0.15, 0.85, 0.75),
    (0.35, 0.55, 0.1),
)


def _rates_agree(general: float, closed: float, tol: float) -> bool:
    if math.isinf(general) or math.isinf(closed):
        return general == closed
    return abs(general - closed) <= tol


def test_criterion5_binary_rate_solvers_match_closed_forms():
    start = time.monotonic()
    for a, b, alpha in RATE_TRIPLES:
        query = RateQuery(Dist.bernoulli(a), Dist.bernoulli(b), HAMMING, alpha)
        assert _rates_agree(rate_f(query), rate_f_binary(a, b, alpha), 1e-4)
        assert _rates_agree(rate_g(query), rate_g_binary(a, b, alpha), 1e-4)
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 6. moderate-deviation kernels: frozen binary values, quadratic homogeneity


def test_criterion6_moderate_deviation_closed_values():
    p_x, p_y = Dist.bernoulli(0.1), Dist.bernoulli(0.5)
    assert mdp_rate_lower(p_x, p_y, HAMMING, -1.0) == pytest.approx(12.5, abs=1e-3)
    assert mdp_rate_upper(p_x, p_y, HAMMING, 1.0) == pytest.approx(0.78125, abs=1e-3)


def test_criterion6_moderate_deviation_quadratic_homogeneity():
    p_x, p_y = Dist.bernoulli(0.1), Dist.bernoulli(0.5)
    base_lower = mdp_rate_lower(p_x, p_y, HAMMING, -1.0)
    base_upper = mdp_rate_upper(p_x, p_y, HAMMING, 1.0)
    for t in (0.5, 2.0):
        assert mdp_rate_lower(p_x, p_y, HAMMING, -t) == pytest.approx(
            t * t * base_lower, abs=1e-6)
        assert mdp_rate_upper(p_x, p_y, HAMMING, t) == pytest.approx(
            t * t * base_upper, abs=1e-6)


# ---------------------------------------------------------------------------
# 7. the Gaussian-limit closed form equals the dual grid evaluation


def test_criterion7_gaussian_limit_matches_dual_grid():
    # the equal-parameter pair exercises the branch that switches at zero
    for a, b in ((0.1, 0.5), (0.3, 0.3)):
        for delta in np.linspace(-3.0, 3.0, 41):
            closed = lambda_binary(a, b, float(delta))
            gridded = lambda_dual_grid(a, b, float(delta))
            assert abs(closed - gridded) <= 1e-6


# ---------------------------------------------------------------------------
# 8. finite-n probabilities at threshold-window arguments track the limit


def test_criterion8_threshold_window_tracks_limit():
    a, b, n = 0.1, 0.5, 800
    p_x, p_y = Dist.bernoulli(a), Dist.bernoulli(b)
    for delta in (-1.5, -0.5, 0.0, 0.5, 1.5):
        # genericity screen: the limit curve must not jump at this delta
        jump = abs(lambda_binary(a, b, delta + 1e-4)
                   - lambda_binary(a, b, delta - 1e-4))
        assert jump < 1e-3
        alpha_n = (b - a) + delta / math.sqrt(n)
        gn = exact_gn(p_x, p_y, HAMMING, alpha_n, n)
        assert abs(gn - lambda_binary(a, b, delta)) <= 0.05


# ---------------------------------------------------------------------------
# 9. randomized invariant suites, one thousand cases each


@st.composite
def _dist_triple_shared(draw):
    """Three distributions on one alphabet, zero coordinates allowed."""
    k = draw(st.integers(2, 4))
    weights = st.lists(st.integers(0, 40), min_size=k, max_size=k).filter(
        lambda w: sum(w) > 0)
    dists = []
    for _ in range(3):
        w = draw(weights)
        dists.append(Dist.from_mass([v / sum(w) for v in w]))
    return tuple(dists)


@BULK
@given(_dist_triple_shared())
def test_criterion9_kl_tv_axioms(triple):
    p, q, r = triple
    div = kl(q, p)
    assert div >= 0.0
    assert kl(p, p) == 0.0
    if div == 0.0:
        assert tv(p, q) <= 1e-8
    assert tv(p, q) == tv(q, p)
    assert 0.0 <= tv(p, q) <= 1.0
    assert tv(p, p) == 0.0
    assert tv(p, r) <= tv(p, q) + tv(q, r) + 1e-12


@st.composite
def _convexity_case(draw):
    m = draw(st.integers(2, 3))
    k = draw(st.integers(2, 3))
    weights = lambda size: draw(
        st.lists(st.integers(0, 40), min_size=size, max_size=size).filter(
            lambda w: sum(w) > 0))

    def simplex(size):
        w = weights(size)
        return np.array(w, dtype=float) / sum(w)

    cost = draw(cost_st(m, k))
    lam = draw(st.floats(0.0, 1.0))
    return (simplex(m), simplex(k), simplex(m), simplex(k), cost, lam)


@BULK
@given(_convexity_case())
def test_criterion9_transport_value_convexity(case):
    px1, py1, px2, py2, cost, lam = case
    carr = cost.as_array()
    mixed = ot_value(lam * px1 + (1 - lam) * px2,
                     lam * py1 + (1 - lam) * py2, carr)
    split = lam * ot_value(px1, py1, carr) + (1 - lam) * ot_value(px2, py2, carr)
    assert mixed <= split + 1e-9


#: Fixed, well-conditioned base instances for the perturbation-cost suites:
#: every support is tight against its transport potentials and spans both
#: alphabets, so theta is finite on all zero-sum inputs.
THETA_INSTANCES = (
    (Dist.bernoulli(0.2), Dist.bernoulli(0.6), HAMMING),
    (Dist.from_mass([0.5, 0.5]), Dist.from_mass([0.2, 0.3, 0.5]),
     CostMatrix.from_rows([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])),
    (Dist.from_mass([0.5, 0.3, 0.2]), Dist.from_mass([0.3, 0.4, 0.3]),
     CostMatrix.from_rows([[0.0, 0.7, 1.3], [0.9, 0.1, 0.6],
                           [1.4, 0.8, 0.2]])),
)


def _recentered(values) -> SignedVec:
    shift = math.fsum(values) / len(values)
    return SignedVec(tuple(v - shift for v in values))


@st.composite
def _theta_case(draw, betas: int):
    idx = draw(st.integers(0, len(THETA_INSTANCES) - 1))
    p_x, p_y, cost = THETA_INSTANCES[idx]
    coords = st.floats(-3.0, 3.0)
    pairs = []
    for _ in range(betas):
        bx = _recentered(draw(st.lists(coords, min_size=len(p_x),
                                       max_size=len(p_x))))
        by = _recentered(draw(st.lists(coords, min_size=len(p_y),
                                       max_size=len(p_y))))
        pairs.append((bx, by))
    return idx, pairs


@BULK
@given(_theta_case(betas=1), st.floats(0.0, 4.0))
def test_criterion9_theta_homogeneity(case, t):
    idx, ((beta_x, beta_y),) = case
    p_x, p_y, cost = THETA_INSTANCES[idx]
    s = support_of(p_x, p_y, cost)
    base = theta(beta_x, beta_y, s, cost)
    scaled = theta(beta_x.scaled(t), beta_y.scaled(t), s, cost)
    assert scaled == pytest.approx(t * base, abs=1e-9 * (1.0 + t))


@BULK
@given(_theta_case(betas=2))
def test_criterion9_theta_subadditivity(case):
    idx, ((bx1, by1), (bx2, by2)) = case
    p_x, p_y, cost = THETA_INSTANCES[idx]
    s = support_of(p_x, p_y, cost)
    joint = theta(_recentered([a + b for a, b in zip(bx1.mass, bx2.mass)]),
                  _recentered([a + b for a, b in zip(by1.mass, by2.mass)]),
                  s, cost)
    assert joint <= theta(bx1, by1, s, cost) + theta(bx2, by2, s, cost) + 1e-9


@BULK
@given(_theta_case(betas=1))
def test_theta_face_vertices_match_signed_coupling_lp(case):
    # theta reads the best vertex of the optimal dual face; the HiGHS LP
    # over signed couplings it replaced is the oracle
    idx, ((beta_x, beta_y),) = case
    p_x, p_y, cost = THETA_INSTANCES[idx]
    s = support_of(p_x, p_y, cost)
    res, _, _ = _theta_lp(beta_x.mass, beta_y.mass, s, cost)
    assert res.status == 0
    assert theta(beta_x, beta_y, s, cost) == pytest.approx(res.fun, abs=1e-10)


def _ball_extremes(k: int) -> list:
    """Extreme points of the zero-sum unit-sup-norm ball in R^k."""
    points = set()
    for free in range(k):
        for signs in itertools.product((-1.0, 1.0), repeat=k - 1):
            v = np.empty(k)
            rest = iter(signs)
            for i in range(k):
                if i != free:
                    v[i] = next(rest)
            v[free] = -math.fsum(signs)
            if abs(v[free]) <= 1.0 + 1e-12:
                points.add(tuple(v))
    return [np.array(p) for p in sorted(points)]


@functools.lru_cache(maxsize=None)
def _theta_sup_on_unit_ball(idx: int) -> float:
    """sup of theta over the product of zero-sum unit-sup-norm balls.

    theta is convex and the ball product is a polytope, so the supremum
    sits at a product of extreme points; by positive homogeneity it is a
    Lipschitz constant for theta in the sup-norm metric.
    """
    p_x, p_y, cost = THETA_INSTANCES[idx]
    s = support_of(p_x, p_y, cost)
    return max(theta(SignedVec(tuple(vx)), SignedVec(tuple(vy)), s, cost)
               for vx in _ball_extremes(len(p_x))
               for vy in _ball_extremes(len(p_y)))


@BULK
@given(_theta_case(betas=2))
def test_criterion9_theta_lipschitz(case):
    idx, ((bx1, by1), (bx2, by2)) = case
    p_x, p_y, cost = THETA_INSTANCES[idx]
    s = support_of(p_x, p_y, cost)
    stretch = max(max(abs(a - b) for a, b in zip(bx1.mass, bx2.mass)),
                  max(abs(a - b) for a, b in zip(by1.mass, by2.mass)))
    gap = abs(theta(bx1, by1, s, cost) - theta(bx2, by2, s, cost))
    assert gap <= 1.1 * _theta_sup_on_unit_ball(idx) * stretch + 1e-9


@st.composite
def _expansion_case(draw):
    m = draw(st.integers(2, 3))
    k = draw(st.integers(2, 3))
    weights = lambda size: draw(
        st.lists(st.integers(1, 40), min_size=size, max_size=size))

    def simplex(size):
        w = weights(size)
        return Dist.from_mass([v / sum(w) for v in w])

    cost = draw(cost_st(m, k))
    scale = draw(st.floats(0.05, 1.0))
    return (simplex(m), simplex(k), simplex(m), simplex(k), cost, scale)


@BULK
@given(_expansion_case())
def test_criterion9_first_order_expansion_inequality(case):
    p_x, p_y, q_x, q_y, cost, scale = case
    assert seta_check(p_x, p_y, cost, q_x, q_y, scale).holds


@st.composite
def _transfer_case(draw):
    m = draw(st.integers(2, 3))
    k = draw(st.integers(2, 3))
    cells = draw(st.lists(st.lists(st.integers(1, 40), min_size=k,
                                   max_size=k), min_size=m, max_size=m))
    arr = np.array(cells, dtype=float)
    joint = arr / arr.sum()

    def simplex(size):
        w = draw(st.lists(st.integers(1, 40), min_size=size, max_size=size))
        return Dist.from_mass([v / sum(w) for v in w])

    return joint, simplex(m), simplex(k)


@BULK
@given(_transfer_case())
def test_criterion9_coupling_transfer_bound(case):
    from strassen_lab.measures import JointDist

    joint_arr, p_x, p_y = case
    q_xy = JointDist.from_array(joint_arr)
    out = coupling_transfer(q_xy, p_x, p_y)
    assert np.abs(np.asarray(out.marginal_x()) - p_x.as_array()).max() <= 1e-12
    assert np.abs(np.asarray(out.marginal_y()) - p_y.as_array()).max() <= 1e-12
    q_x = Dist.from_mass([v / math.fsum(q_xy.marginal_x())
                          for v in q_xy.marginal_x()], labels=p_x.labels)
    q_y = Dist.from_mass([v / math.fsum(q_xy.marginal_y())
                          for v in q_xy.marginal_y()], labels=p_y.labels)
    joint_tv = 0.5 * float(np.abs(out.as_array() - q_xy.as_array()).sum())
    assert joint_tv <= tv(p_x, q_x) + tv(p_y, q_y) + 1e-12


@st.composite
def _gn_monotone_case(draw):
    m = draw(st.integers(2, 3))
    k = draw(st.integers(2, 3))
    weights = lambda size: draw(
        st.lists(st.integers(0, 40), min_size=size, max_size=size).filter(
            lambda w: sum(w) > 0))

    def simplex(size):
        w = weights(size)
        return Dist.from_mass([v / sum(w) for v in w])

    cost = draw(cost_st(m, k))
    n = draw(st.integers(1, 4))
    lo = draw(st.floats(0.0, 4.0))
    hi = draw(st.floats(0.0, 4.0))
    return simplex(m), simplex(k), cost, n, min(lo, hi), max(lo, hi)


@BULK
@given(_gn_monotone_case())
def test_criterion9_gn_monotone_in_alpha(case):
    p_x, p_y, cost, n, alpha_lo, alpha_hi = case
    assert (exact_gn(p_x, p_y, cost, alpha_hi, n)
            <= exact_gn(p_x, p_y, cost, alpha_lo, n) + 1e-12)


@st.composite
def _splitting_case(draw):
    m = draw(st.integers(2, 3))
    k = draw(st.integers(2, 3))
    weights = lambda size: draw(
        st.lists(st.integers(0, 40), min_size=size, max_size=size).filter(
            lambda w: sum(w) > 0))

    def simplex(size):
        w = weights(size)
        return Dist.from_mass([v / sum(w) for v in w])

    cost = draw(cost_st(m, k))
    n = draw(st.integers(1, 4))
    # membership masks longer than any lattice in range; truncated below
    mask_a = draw(st.lists(st.booleans(), min_size=15, max_size=15))
    mask_b = draw(st.lists(st.booleans(), min_size=15, max_size=15))
    return simplex(m), simplex(k), cost, n, mask_a, mask_b


@BULK
@given(_splitting_case())
def test_criterion9_splitting_coupling_identities(case):
    p_x, p_y, cost, n, mask_a, mask_b = case
    inst = nested_instance(p_x, p_y, cost, n)
    a_set = [i for i in range(len(inst.mu)) if mask_a[i]] or [0]
    b_set = [j for j in range(len(inst.nu)) if mask_b[j]] or [0]
    pi = splitting_coupling(inst.mu, inst.nu, a_set, b_set)
    arr = pi.as_array()
    assert np.abs(np.asarray(pi.marginal_x()) - inst.mu.mass()).max() <= 1e-12
    assert np.abs(np.asarray(pi.marginal_y()) - inst.nu.mass()).max() <= 1e-12
    guaranteed = min(inst.mu.prob(a_set), inst.nu.prob(b_set))
    assert arr[np.ix_(a_set, b_set)].sum() >= guaranteed - 1e-12
