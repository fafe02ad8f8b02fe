import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from strassen_lab import ldp
from strassen_lab.errors import SizeGuardError, ValidationError
from strassen_lab.flow import transport_min_cost
from strassen_lab.ldp import (
    COST_EPS,
    EXCEED_EPS,
    RateQuery,
    d_bern,
    rate_f,
    rate_f_binary,
    rate_g,
    rate_g_binary,
)
from strassen_lab.measures import Dist, kl
from strassen_lab.transport import CostMatrix, ot_value
from test_acceptance import RATE_TRIPLES, THETA_INSTANCES, _rates_agree

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

    def test_matches_kl_of_the_bernoulli_laws(self):
        # values equal bit for bit, and the same ValidationError where a law
        # is rejected: mass dust below 1e-12 is cleaned, more is refused
        def outcome(fn, x, y):
            try:
                return fn(x, y)
            except ValidationError as err:
                return str(err)

        def by_laws(x, y):
            return kl(Dist.bernoulli(x), Dist.bernoulli(y))

        edges = [0.0, -0.0, 1.0, 0.5, 1e-300, 5e-324, 1.0 - 2.0 ** -53,
                 -1e-14, 1.0 + 1e-14, -0.9e-12, 1.0 + 0.9e-12, -2e-12,
                 1.0 + 2e-12, -1.0, 2.0, math.nan, math.inf, -math.inf]
        rng = np.random.default_rng(2024)
        n = 50_000
        spread = np.concatenate([
            rng.uniform(0.0, 1.0, n),
            10.0 ** rng.uniform(-320.0, 0.0, n),
            1.0 - 10.0 ** rng.uniform(-17.0, 0.0, n),
            rng.uniform(-3e-12, 3e-12, n),
            1.0 + rng.uniform(-3e-12, 3e-12, n)])
        xs = np.concatenate([spread, rng.choice(edges, n)])
        ys = rng.permutation(xs)
        pairs = [(x, y) for x in edges for y in edges]
        pairs += zip(xs.tolist(), ys.tolist())
        pairs += zip(xs[:1000], ys[:1000])  # numpy scalars, as linspace gives
        for x, y in pairs:
            assert outcome(d_bern, x, y) == outcome(by_laws, x, y), (x, y)


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
        assert rate_f(binary_query(0.1, 0.5, -0.1)) == math.inf

    def test_rate_g_zero_and_infinite_branches(self):
        assert rate_g(binary_query(0.1, 0.5, 0.3)) == 0.0
        assert rate_g(binary_query(0.1, 0.5, 1.2)) == math.inf

    @pytest.mark.parametrize("a, b, alpha", [
        (1.0, 0.9, 0.2), (0.0, 0.2, 0.3), (1.0, 0.5, 0.6)])
    def test_rate_g_point_mass_marginal(self, a, b, alpha):
        # the point mass's own orientation walks a one-letter simplex
        assert _rates_agree(rate_g(binary_query(a, b, alpha)),
                            rate_g_binary(a, b, alpha), 1e-4)

    @pytest.mark.parametrize("a, b, alpha", [
        (1.0, 0.3, 0.2), (0.2, 0.0, 0.05), (0.2, 1.0, 0.05), (0.0, 0.6, 0.1)])
    def test_rate_f_point_mass_marginal(self, a, b, alpha):
        assert _rates_agree(rate_f(binary_query(a, b, alpha)),
                            rate_f_binary(a, b, alpha), 1e-4)

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
        assert not caught

    def test_rate_g_drift_of_rounding_size_does_not_exceed(self):
        # the grid meets p_x itself, at a divergence of 4e-17 from
        # rounding; p_y is then within budget, so that law cannot exceed
        q = RateQuery(Dist.from_mass([0.95, 0.05]),
                      Dist.from_mass([1.0 - 0.9, 0.9]), HAMMING, 0.95)
        assert rate_g(q) == rate_g_binary(0.05, 0.9, 0.95) == math.inf

    def test_size_guards(self):
        p5 = Dist.from_mass([0.2] * 5)
        c5 = CostMatrix.from_rows([[0.0, 1.0]] * 5)
        with pytest.raises(SizeGuardError):
            rate_f(RateQuery(p5, Dist.bernoulli(0.5), c5, 0.1))
        p4 = Dist.from_mass([0.25] * 4)
        c4 = CostMatrix.from_rows([[0.0, 1.0]] * 4)
        with pytest.raises(SizeGuardError):
            rate_g(RateQuery(p4, Dist.bernoulli(0.5), c4, 0.1))


# ---------------------------------------------------------------------------
# The Frank-Wolfe solver the vertex dual replaced, kept as the differential
# oracle: each bisection level of a radius is decided by Frank-Wolfe steps
# over KL balls, golden-section line searches and an SLSQP finish.
# ---------------------------------------------------------------------------

def _kl_of(q: np.ndarray, logp: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0.0, q * (np.log(np.where(q > 0.0, q, 1.0))
                                       - logp), 0.0)
    return float(max(0.0, terms.sum()))


def _kl_ball_linmin(logp: np.ndarray, grad: np.ndarray, r: float) -> np.ndarray:
    """argmin <grad, q> over {q : KL(q || p) <= r}, support kept inside p.

    The minimizer is an exponential tilt q ~ p * exp(-grad / lam); lam is
    bisected until the tilt sits on the ball boundary, unless even the point
    mass on the cheapest symbol fits inside.
    """
    p = np.exp(logp)
    if r <= 0.0:
        return p
    j = int(np.argmin(grad))
    if -logp[j] <= r:
        out = np.zeros_like(p)
        out[j] = 1.0
        return out
    lo, hi = -40.0, 40.0  # log(lam) bracket
    q = p
    for _ in range(80):
        lam = math.exp(0.5 * (lo + hi))
        z = logp - grad / lam
        z -= z.max()
        w = np.exp(z)
        q_try = w / w.sum()
        if _kl_of(q_try, logp) <= r:
            q = q_try
            hi = 0.5 * (lo + hi)
        else:
            lo = 0.5 * (lo + hi)
    return q


def _golden_min(fun, lo: float = 0.0, hi: float = 1.0, iters: int = 32):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    t = c if fc <= fd else d
    return t, min(fc, fd)


def _coupling_min(px: np.ndarray, py: np.ndarray, carr: np.ndarray,
                  rx: float, ry: float, move_x: bool, move_y: bool,
                  x0: np.ndarray | None = None):
    """min <c, pi> over couplings whose marginals stay in the KL balls.

    The marginal of a frozen side is pinned by equality instead.  Returns
    the coupling as a matrix; the caller re-checks feasibility and value on
    the induced marginals, so no trust is placed in the solver status.
    """
    m, k = carr.shape
    cvec = carr.reshape(-1)

    def rows(v: np.ndarray) -> np.ndarray:
        return v.reshape(m, k).sum(axis=1)

    def cols(v: np.ndarray) -> np.ndarray:
        return v.reshape(m, k).sum(axis=0)

    cons = []
    # logs only of a moving side: a pinned side may hold zero masses
    if move_x:
        logpx = np.log(px)
        cons.append({
            "type": "ineq",
            "fun": lambda v: rx - _kl_of(rows(v), logpx),
            "jac": lambda v: np.repeat(
                -(np.log(np.maximum(rows(v), 1e-18)) - logpx + 1.0), k),
        })
        cons.append({"type": "eq", "fun": lambda v: v.sum() - 1.0,
                     "jac": lambda v: np.ones_like(v)})
    else:
        cons.append({"type": "eq", "fun": lambda v: rows(v) - px,
                     "jac": lambda v: np.repeat(np.eye(m), k, axis=1)})
    if move_y:
        logpy = np.log(py)
        cons.append({
            "type": "ineq",
            "fun": lambda v: ry - _kl_of(cols(v), logpy),
            "jac": lambda v: np.tile(
                -(np.log(np.maximum(cols(v), 1e-18)) - logpy + 1.0), m),
        })
    else:
        cons.append({"type": "eq", "fun": lambda v: cols(v) - py,
                     "jac": lambda v: np.tile(np.eye(k), (1, m)).reshape(k, m * k)})

    if x0 is None:
        x0 = np.outer(px, py).reshape(-1)
    res = minimize(lambda v: float(np.dot(cvec, v)), x0,
                   jac=lambda v: cvec, method="SLSQP",
                   bounds=[(0.0, 1.0)] * (m * k), constraints=cons,
                   options={"maxiter": 300, "ftol": 1e-14})
    v = np.maximum(res.x, 0.0)
    total = v.sum()
    if not total > 0.0:
        return None
    return (v / total).reshape(m, k)


class _BallTransport:
    """Certified min of the transport value over one or two KL balls.

    decide(r, budget) answers whether the minimum over the ball(s) of
    radius r is <= budget, with the answer certified by either a feasible
    point or the Frank-Wolfe duality gap.  When the linearized step jams at
    a kink of the piecewise-linear value, the level is finished by a direct
    coupling-space solve; a level undecided even then (only possible exactly
    at the threshold) reports infeasible.
    """

    def __init__(self, px: np.ndarray, py: np.ndarray, carr: np.ndarray,
                 move_x: bool, move_y: bool):
        self.px, self.py, self.carr = px, py, carr
        self.logpx = np.where(px > 0.0, np.log(np.where(px > 0.0, px, 1.0)),
                              -math.inf)
        self.logpy = np.where(py > 0.0, np.log(np.where(py > 0.0, py, 1.0)),
                              -math.inf)
        self.move_x, self.move_y = move_x, move_y
        self.warm = None

    def _project(self, q: np.ndarray, logp: np.ndarray, r: float) -> np.ndarray:
        p = np.exp(logp)
        if _kl_of(q, logp) <= r:
            return q
        lo, hi = 0.0, 1.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if _kl_of(q + mid * (p - q), logp) <= r * 0.999 + 1e-15:
                hi = mid
            else:
                lo = mid
        return q + hi * (p - q)

    def _lower_bound(self, qx: np.ndarray, qy: np.ndarray,
                     rx: float, ry: float) -> tuple[float, float]:
        """(value, certified lower bound on the ball-constrained minimum).

        By convexity the transport value dominates its linearization at
        (qx, qy), and the linearization's exact minimum over the balls is
        one tilt per side.  Valid at any anchor point, feasible or not.
        """
        _, f, g, val = transport_min_cost(qx, qy, self.carr)
        gap = 0.0
        if self.move_x:
            sx = _kl_ball_linmin(self.logpx, np.asarray(f), rx)
            gap += float(np.dot(f, qx - sx))
        if self.move_y:
            sy = _kl_ball_linmin(self.logpy, np.asarray(g), ry)
            gap += float(np.dot(g, qy - sy))
        return val, val - gap

    def decide(self, r: float, budget: float, max_iter: int = 120) -> bool:
        qx, qy = (self.warm if self.warm is not None
                  else (self.px.copy(), self.py.copy()))
        rx = r if self.move_x else 0.0
        ry = r if self.move_y else 0.0
        qx = self._project(qx, self.logpx, rx) if self.move_x else self.px
        qy = self._project(qy, self.logpy, ry) if self.move_y else self.py
        plan = None
        for _ in range(max_iter):
            plan, f, g, val = transport_min_cost(qx, qy, self.carr)
            if val <= budget:
                self.warm = (qx, qy)
                return True
            sx = (_kl_ball_linmin(self.logpx, np.asarray(f), rx)
                  if self.move_x else qx)
            sy = (_kl_ball_linmin(self.logpy, np.asarray(g), ry)
                  if self.move_y else qy)
            gap = (float(np.dot(f, qx - sx)) if self.move_x else 0.0) \
                + (float(np.dot(g, qy - sy)) if self.move_y else 0.0)
            if val - gap > budget:
                return False
            dx, dy = sx - qx, sy - qy
            t, best = _golden_min(
                lambda t: ot_value(qx + t * dx, qy + t * dy, self.carr))
            if best >= val - 1e-13:
                break
            qx = qx + t * dx
            qy = qy + t * dy
        pi = _coupling_min(self.px, self.py, self.carr, rx, ry,
                           self.move_x, self.move_y,
                           None if plan is None else plan.reshape(-1))
        if pi is not None:
            qx = pi.sum(axis=1) if self.move_x else self.px
            qy = pi.sum(axis=0) if self.move_y else self.py
            klx = _kl_of(qx, self.logpx) if self.move_x else 0.0
            kly = _kl_of(qy, self.logpy) if self.move_y else 0.0
            # a 1e-9 overhang on the ball shifts the bisected radius by at
            # most that much, well under every quoted tolerance
            if klx <= rx + 1e-9 and kly <= ry + 1e-9:
                val = ot_value(qx, qy, self.carr)
                if val <= budget:
                    self.warm = (qx, qy)
                    return True
            val, bound = self._lower_bound(qx, qy, rx, ry)
            if bound > budget:
                return False
        return False


def _restrict(p: Dist):
    mass = p.as_array()
    supp = np.nonzero(mass > 0.0)[0]
    return mass[supp], supp


def fw_rate_f(query: RateQuery) -> float:
    """The old rate_f: bisection on the radius, each level decided by
    certified Frank-Wolfe over the product of the two balls."""
    alpha = query.alpha
    px, sx = _restrict(query.p_x)
    py, sy = _restrict(query.p_y)
    carr = query.cost.as_array()[np.ix_(sx, sy)]
    if ot_value(px, py, carr) <= alpha + COST_EPS:
        return 0.0
    if carr.min() > alpha + COST_EPS:
        return math.inf
    cells = np.argwhere(carr <= alpha + COST_EPS)
    r_hi = min(max(-math.log(px[i]), -math.log(py[j]))
               for i, j in cells) + 1.0
    solver = _BallTransport(px, py, carr, move_x=True, move_y=True)
    lo, hi = 0.0, r_hi
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if solver.decide(mid, alpha + COST_EPS):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)




def fw_exceed_test(carr, bmass, alpha):
    """The old exceed test, in the form ``ldp._exceed_test`` takes."""
    def exceeds(q, level):
        return np.array([
            lv > 0.0 and not _BallTransport(row, bmass, carr, move_x=False,
                                            move_y=True).decide(
                lv, alpha + EXCEED_EPS)
            for row, lv in zip(q, level)])
    return exceeds


def _halving_orientation_rate(pa, pb, carr_ab, alpha, grid):
    """The walk ``ldp._orientation_rate`` replaced, one exceed solve per
    halving, kept as the oracle of the batched walk (verbatim but for the
    ``ldp.`` prefixes)."""
    amass, bmass, carr = ldp._supports(pa, pb, carr_ab)
    loga = np.log(amass)
    k = len(amass)
    exceeds = ldp._exceed_test(carr, bmass, alpha)
    if k == 1:
        points = np.ones((1, 1))
    elif k == 2:
        ts = np.linspace(0.0, 1.0, grid)
        points = np.stack([ts, 1.0 - ts], axis=1)
    else:
        steps = max(2, int(round(math.sqrt(grid))) * 4)
        points = np.array([[i / steps, j / steps, 1.0 - i / steps - j / steps]
                           for i in range(steps + 1)
                           for j in range(steps + 1 - i)])
    levels = ldp._kl_rows(points, loga)
    ok = exceeds(points, levels)
    if not ok.any():
        return math.inf, math.inf
    # Walk the best few exceeding points toward the base law: the rate is
    # attained on the boundary where the neighbourhood stops being rarer.
    q = points[ok][np.argsort(levels[ok], kind="stable")[:3]]
    toward = amass - q
    lo_t, hi_t = np.zeros(len(q)), np.ones(len(q))
    for _ in range(45):
        mid = 0.5 * (lo_t + hi_t)
        at = q + mid[:, None] * toward
        ok = exceeds(at, ldp._kl_rows(at, loga))
        lo_t, hi_t = np.where(ok, mid, lo_t), np.where(ok, hi_t, mid)
    return (float(ldp._kl_rows(q + hi_t[:, None] * toward, loga).min()),
            float(ldp._kl_rows(q + lo_t[:, None] * toward, loga).min()))


def fw_rate_g(query, grid, monkeypatch):
    """The old rate_g: the same grid and halving walks, with the old exceed
    test.  That test decides row by row, so the halving walk keeps its cost
    at one row per walk and step; the batched walk is tied to the halving
    one by TestBoundaryWalk."""
    monkeypatch.setattr(ldp, "_exceed_test", fw_exceed_test)
    monkeypatch.setattr(ldp, "_orientation_rate", _halving_orientation_rate)
    try:
        return rate_g(query, grid)
    finally:
        monkeypatch.undo()


def _near(value, bracket, tol):
    lower, upper = bracket
    return lower - tol <= value <= upper + tol


def _workload_alphas():
    """THETA_INSTANCES[2] at the rate-solvers workload's thresholds."""
    px, py, c = THETA_INSTANCES[2]
    base = ot_value(px.as_array(), py.as_array(), c.as_array())
    return ([RateQuery(px, py, c, base - eps) for eps in (0.02, 0.01, 0.005)],
            [RateQuery(px, py, c, base + eps) for eps in (0.02, 0.01)])


class TestVertexDual:
    """The vertex-dual rates against certificates and the old solver."""

    def test_rate_f_kink_carries_no_stall_bias(self):
        # At alpha = 0.05 the y side binds alone (mu = 0), and the old
        # solver stalled there, returning 0.21917702432844957.  Its optimal
        # pair is q_x = q_y = the tilt of p_y along the diagonal costs that
        # meets alpha: the identity coupling then costs alpha, so the
        # larger divergence of that pair is an upper bound on the rate.
        px, py, c = THETA_INSTANCES[2]
        got = rate_f(RateQuery(px, py, c, 0.05))
        diag = np.diag(c.as_array())
        lo, hi = 0.0, 100.0
        for _ in range(200):
            theta = 0.5 * (lo + hi)
            q = py.as_array() * np.exp(-theta * diag)
            q /= q.sum()
            fits = q @ diag <= 0.05 + COST_EPS
            lo, hi = (lo, theta) if fits else (theta, hi)
        q = py.as_array() * np.exp(-hi * diag)
        q /= q.sum()
        assert q @ diag <= 0.05 + COST_EPS
        upper = max(kl(Dist.from_mass(q.tolist()), px),
                    kl(Dist.from_mass(q.tolist()), py))
        assert 0.219146086 <= got <= upper + 1e-12
        assert 0.219146086 <= got <= 0.21914616

    def test_rate_f_matches_frank_wolfe_off_the_kink(self):
        px, py, c = THETA_INSTANCES[2]
        for alpha in (0.1, 0.2):
            query = RateQuery(px, py, c, alpha)
            assert rate_f(query) == pytest.approx(fw_rate_f(query), abs=1e-9)

    @pytest.mark.parametrize("a, b, alpha", RATE_TRIPLES)
    def test_binary_brackets_hold_the_old_rates(self, a, b, alpha,
                                                monkeypatch):
        query = binary_query(a, b, alpha)
        for bracket, value, old in (
                (ldp._rate_f_bracket(query), rate_f(query), fw_rate_f(query)),
                (ldp._rate_g_bracket(query), rate_g(query),
                 fw_rate_g(query, 201, monkeypatch))):
            lower, upper = bracket
            if math.isinf(upper) or upper == 0.0:
                assert value == old == upper
                continue
            assert abs(upper - lower) <= 1e-9 * max(1.0, upper)
            assert _near(value, bracket, 1e-15)
            assert _near(old, bracket, 1e-9)

    def test_theta_brackets_hold_the_old_rates(self, monkeypatch):
        lower_tail, upper_tail = _workload_alphas()
        for query in lower_tail:
            bracket = ldp._rate_f_bracket(query)
            assert 0.0 < bracket[1] and abs(bracket[1] - bracket[0]) <= 1e-9
            assert _near(fw_rate_f(query), bracket, 1e-9)
        for query in upper_tail:
            bracket = ldp._rate_g_bracket(query, grid=4)
            assert 0.0 < bracket[1] and abs(bracket[1] - bracket[0]) <= 1e-9
            assert _near(fw_rate_g(query, 4, monkeypatch), bracket, 1e-9)

    def test_pinned_value_lies_in_the_new_bracket(self, monkeypatch):
        px, py, c = THETA_INSTANCES[2]
        query = RateQuery(px, py, c, 0.28)
        bracket = ldp._rate_g_bracket(query, grid=4)
        assert _near(0.11348544429699059, bracket, 1e-9)
        assert _near(fw_rate_g(query, 4, monkeypatch), bracket, 1e-9)


def _random_rate_f_queries(seed, count):
    """Random 2- to 4-letter instances, alpha at 0.2 to 0.9 of the base cost."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m, k = (int(v) for v in rng.integers(2, 5, 2))
        pa, pb = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(k))
        cost = np.round(rng.uniform(0.0, 1.0, (m, k)), 3)
        alpha = rng.uniform(0.2, 0.9) * ot_value(pa, pb, cost)
        out.append(RateQuery(Dist.from_mass(pa.tolist()),
                             Dist.from_mass(pb.tolist()),
                             CostMatrix.from_rows(cost.tolist()), alpha))
    return out


class TestRateFBracketCutShort:
    """A Newton search stopped after a few steps still brackets the rate.

    Short budgets reach the branch that steps mu back halfway when its
    inner ascent has not converged."""

    def test_bracket_holds_the_full_solve(self, monkeypatch):
        px, py, c = THETA_INSTANCES[2]
        queries = [RateQuery(px, py, c, alpha)
                   for alpha in (0.05, 0.1, 0.2, 0.3)]
        queries += _random_rate_f_queries(1919, 40)
        full = [rate_f(query) for query in queries]
        for steps in (1, 2, 3, 5, 6, 8, 12, 20):
            monkeypatch.setattr(ldp, "STEPS", steps)
            for query, mid in zip(queries, full):
                lower, upper = ldp._rate_f_bracket(query)
                if math.isinf(mid):
                    assert upper == math.inf
                    continue
                tol = 1e-12 * mid
                assert lower - tol <= mid <= upper + tol, (steps, query)

    def test_binary_point_masses_apart(self):
        assert rate_f_binary(0.0, 1.0, 0.5) == math.inf


def _counted_ascents(monkeypatch):
    """Wrap ldp._ascend: each call appends (oracle calls, lower, upper,
    settled) to the list returned."""
    ascents = []
    ascend = ldp._ascend

    def counting(oracle, bounds, settled, z):
        calls = 0

        def counted(z):
            nonlocal calls
            calls += 1
            return oracle(z)

        lower, upper, z, state = ascend(counted, bounds, settled, z)
        ascents.append((calls, lower, upper, settled(lower, upper)))
        return lower, upper, z, state

    monkeypatch.setattr(ldp, "_ascend", counting)
    return ascents


class TestRoundingFloor:
    """Newton ascents settle at the rounding of the dual value, FLOOR."""

    def test_brackets_hold_up_to_the_floor(self):
        # near a settled optimum the dual value may round above the pair's
        # divergence (by up to 1e-16 at these three alphas), never by more
        # than FLOOR
        px, py, c = THETA_INSTANCES[2]
        queries = [RateQuery(px, py, c, alpha)
                   for alpha in (0.24, 0.25, 0.255)]
        queries += _random_rate_f_queries(1919, 40)
        queries += [binary_query(*triple) for triple in RATE_TRIPLES]
        for query in queries:
            lower, upper = ldp._rate_f_bracket(query)
            assert lower <= upper + ldp.FLOOR, query

    @pytest.mark.parametrize("query, most", [
        pytest.param(binary_query(0.1, 0.5, 0.2), 19, id="0.1-0.5-0.2"),
        pytest.param(RateQuery(*THETA_INSTANCES[2], 0.255), 13,
                     id="theta-0.255"),
    ])
    def test_oracle_calls_per_solve(self, query, most, monkeypatch):
        # stopping at WIDTH alone took 25 and 58 oracle calls: each edge
        # projection at rate 0 (lower -1e-16) ran 7, and on the 3x3 instance
        # the inner ascents and the mu search ran into STALL
        ascents = _counted_ascents(monkeypatch)
        rate_f(query)
        assert sum(calls for calls, *_ in ascents) <= most
        assert all(done.all() for *_, done in ascents)
        edges = [calls for calls, _, upper, _ in ascents if upper[0] == 0.0]
        assert edges == [1, 1]


def _old_covariance(b, q):
    b = np.broadcast_to(b, (len(q),) + b.shape[-2:])
    bq = np.einsum("nvi,ni->nv", b, q)
    return (np.einsum("nvi,ni,nwi->nvw", b, q, b)
            - bq[:, :, None] * bq[:, None, :])


def _old_kl_rows(q, logp):
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0.0, q * (np.log(q) - logp), 0.0)
    return np.maximum(terms.sum(axis=-1), 0.0)


def _old_free_norm(z, grad):
    return np.linalg.norm(np.where((z > 0.0) | (grad > 0.0), grad, 0.0),
                          axis=1)


def _kernel_batches(count=300):
    """Seeded (rows, multipliers, b, q, z, grad) batches: 1 to 201 rows, 1
    to 6 multipliers, 1 to 4 letters, b shared by every row (2-D) or one
    per row (3-D); q, z and grad carry exact zeros."""
    rng = np.random.default_rng(2727)
    for i in range(count):
        n, v, k = (int(rng.integers(lo, hi))
                   for lo, hi in ((1, 202), (1, 7), (1, 5)))
        b = rng.normal(size=(v, k) if i % 2 else (n, v, k))
        q = rng.dirichlet(np.ones(k), size=n)
        q[rng.random((n, k)) < 0.2] = 0.0
        z = rng.exponential(size=(n, v))
        z[rng.random((n, v)) < 0.3] = 0.0
        grad = rng.normal(size=(n, v))
        grad[rng.random((n, v)) < 0.1] = 0.0
        yield n, v, b, q, z, grad


class TestStepKernels:
    """The step kernels against the forms they replaced, bit for bit.

    Each kernel must also raise no floating-point error: the old forms
    silenced theirs under np.errstate, the new ones guard with np.where."""

    def test_covariance(self):
        for n, v, b, q, _, _ in _kernel_batches():
            got = ldp._covariance(b, q)
            assert got.shape == (n, v, v)
            assert np.array_equal(got, _old_covariance(b, q))

    def test_kl_rows(self):
        rng = np.random.default_rng(2728)
        for _, _, _, q, _, _ in _kernel_batches():
            logp = np.log(rng.dirichlet(np.ones(q.shape[1])))
            with np.errstate(divide="raise", invalid="raise"):
                got = ldp._kl_rows(q, logp)
            assert np.array_equal(got, _old_kl_rows(q, logp))

    def test_free_norm(self):
        for _, _, _, _, z, grad in _kernel_batches():
            assert np.array_equal(ldp._free_norm(z, grad),
                                  _old_free_norm(z, grad))

    def test_step_cut_and_damping_forms(self):
        # _ascend's inline forms: the step's reach to zero, and the damping
        # clamp, against the errstate division and np.clip they replaced
        rng = np.random.default_rng(2729)
        for _, _, _, _, z, step in _kernel_batches():
            with np.errstate(divide="ignore", invalid="ignore"):
                old = np.where(step < 0.0, z / -step, np.inf)
            down = step < 0.0
            with np.errstate(divide="raise", invalid="raise"):
                new = np.where(down, z / np.where(down, -step, 1.0), np.inf)
            assert np.array_equal(new, old)
            damp = 10.0 ** rng.uniform(-10.0, 10.0, len(z))
            damp[::7] = 10.0 ** rng.integers(-9, 10, len(damp[::7]))
            assert np.array_equal(np.minimum(np.maximum(damp, 1e-8), 1e8),
                                  np.clip(damp, 1e-8, 1e8))


def _random_rate_g_queries(seed, count):
    """Random 2x2, 2x3 and 3x3 instances, alpha above the base cost."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        m, k = ((2, 2), (2, 3), (3, 3))[i % 3]
        pa, pb = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(k))
        cost = np.round(rng.uniform(0.0, 1.0, (m, k)), 3)
        base = ot_value(pa, pb, cost)
        alpha = base + 0.5 * rng.uniform() * (cost.max() - base)
        out.append(RateQuery(Dist.from_mass(pa.tolist()),
                             Dist.from_mass(pb.tolist()),
                             CostMatrix.from_rows(cost.tolist()), alpha))
    return out


def _walk_cases(group):
    """(query, grid) pairs whose rate_g walks the two walks must agree on."""
    if group == "binary":
        return [(binary_query(a, b, alpha), 201)
                for a, b, alpha in RATE_TRIPLES]
    if group == "theta":
        px, py, c = THETA_INSTANCES[2]
        base = ot_value(px.as_array(), py.as_array(), c.as_array())
        return ([(RateQuery(px, py, c, base + eps), grid)
                 for eps in (0.005, 0.01, 0.02, 0.05, 0.1)
                 for grid in (4, 49, 201)]
                + [(RateQuery(px, py, c, alpha), 201) for alpha in (0.27, 0.28)])
    return [(query, 4) for query in _random_rate_g_queries(1313, 90)]


def _rate_g_brackets(cases, monkeypatch, walk=None):
    if walk is not None:
        monkeypatch.setattr(ldp, "_orientation_rate", walk)
    try:
        return [ldp._rate_g_bracket(query, grid) for query, grid in cases]
    finally:
        monkeypatch.undo()


class TestBoundaryWalk:
    """The batched boundary walk against one-at-a-time halving."""

    @pytest.mark.parametrize("group", ["binary", "theta", "random"])
    def test_brackets_equal_the_halving_walk(self, group, monkeypatch):
        cases = _walk_cases(group)
        got = _rate_g_brackets(cases, monkeypatch)
        want = _rate_g_brackets(cases, monkeypatch, _halving_orientation_rate)
        assert got == want
        assert any(0.0 < upper < math.inf for _, upper in got)

    @pytest.mark.parametrize("seed", range(4))
    def test_tree_reading_equals_halving_for_any_decisions(self, seed,
                                                           monkeypatch):
        # decisions that are a hash of each row's bits, so not monotone along
        # a walk: reading five halvings off one table must still visit the
        # points, and take the turns, that halving one step at a time does
        def hashed_test(carr, bmass, alpha):
            def exceeds(q, level):
                return np.array([
                    hashlib.blake2b(row.tobytes(), key=bytes([seed + 1]))
                    .digest()[0] % 2 == 1 for row in q])
            return exceeds

        cases = _walk_cases("theta") + _walk_cases("random")[:30]
        monkeypatch.setattr(ldp, "_exceed_test", hashed_test)
        got = [ldp._rate_g_bracket(query, grid) for query, grid in cases]
        monkeypatch.setattr(ldp, "_orientation_rate",
                            _halving_orientation_rate)
        want = [ldp._rate_g_bracket(query, grid) for query, grid in cases]
        monkeypatch.undo()
        assert got == want
        assert sum(0.0 < upper < math.inf for _, upper in got) > len(got) // 2

    @pytest.mark.parametrize("query, grid", [
        pytest.param(_workload_alphas()[1][0], 4, id="theta-base+0.02"),
        pytest.param(binary_query(0.1, 0.5, 0.45), 201, id="0.1-0.5-0.45"),
    ])
    def test_one_solve_per_five_halvings(self, query, grid, monkeypatch):
        # the grid of each orientation, then 9 solves for one walk of 45
        # halvings: 11 dual solves in all, where halving one step at a time
        # makes 47
        calls = []
        project = ldp._project

        def counting(*args):
            calls.append(len(args[2]))
            return project(*args)

        monkeypatch.setattr(ldp, "_project", counting)
        rate_g(query, grid)
        assert len(calls) == 11

    def test_exceed_decisions_ignore_the_rows_beside_them(self):
        # the walk's equality with halving rests on this: a law's projection
        # bounds, and so its decision, keep their bits whatever rows share
        # the solve (numpy's one-row and many-row products round apart)
        for seed, query in enumerate(_random_rate_g_queries(1313, 12)):
            amass, bmass, carr = ldp._supports(query.p_x, query.p_y,
                                               query.cost.as_array())
            f, g, shrink = ldp._dual_of(carr)
            q = np.random.default_rng(seed).dirichlet(np.ones(len(amass)),
                                                      size=40)
            level = ldp._kl_rows(q, np.log(amass))
            beta = query.alpha + EXCEED_EPS - q @ f.T
            logb = np.log(bmass)
            batch = ldp._project(logb, g, beta, shrink, ldp._narrow)
            for i in range(len(q)):
                alone = ldp._project(logb, g, beta[i:i + 1], shrink,
                                     ldp._narrow)
                for many, one in zip(batch, alone):
                    assert np.array_equal(many[i], one[0])
            exceeds = ldp._exceed_test(carr, bmass, query.alpha)
            assert np.array_equal(exceeds(q, level), np.concatenate(
                [exceeds(q[i:i + 1], level[i:i + 1]) for i in range(len(q))]))
