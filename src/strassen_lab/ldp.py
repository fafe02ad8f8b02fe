"""Exponential decay rates of the two excess-cost tails.

Lower tail: the chance that an optimal coupling of the n-fold products stays
within budget alpha decays like exp(-n * rate_f(alpha)) when alpha is below
the base transport cost.  The rate is the smallest r such that two KL balls
of radius r around the marginals contain a pair within transport cost alpha
-- the bottleneck is whichever marginal must distort more, hence the max.

Upper tail: the chance that every coupling exceeds alpha decays like
exp(-n * rate_g(alpha)).  One marginal drifts to a law Q whose entire
cost-alpha neighbourhood on the other side is even less likely than Q
itself; the cheapest such drift, over both orientations, is the rate.

Both solvers work on the convexity of the transport value in its marginals:
Frank-Wolfe steps with exact linear minimization over a KL ball, certified
by the dual-potential subgradient gap, decide each bisection level.  The
transport value is piecewise linear, so the single-subgradient step can jam
at a kink; jammed levels are finished in coupling space, where the same
feasibility question is a smooth convex program.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import SizeGuardError, ValidationError
from .flow import transport_min_cost
from .measures import Dist, kl
from .transport import CostMatrix, ot_value

COST_EPS = 1e-12
EXCEED_EPS = 1e-9


@dataclass(frozen=True)
class RateQuery:
    """One rate-function evaluation: marginals, per-symbol cost, threshold."""

    p_x: Dist
    p_y: Dist
    cost: CostMatrix
    alpha: float

    def __post_init__(self) -> None:
        if (len(self.p_x), len(self.p_y)) != self.cost.shape:
            raise ValidationError("marginal sizes do not match the cost table")
        if not math.isfinite(self.alpha):
            raise ValidationError("alpha must be finite")


def d_bern(x: float, y: float) -> float:
    """KL divergence between Bernoulli(x) and Bernoulli(y)."""
    return kl(Dist.bernoulli(x), Dist.bernoulli(y))


# ---------------------------------------------------------------------------
# Linear minimization over a KL ball, and certified ball-constrained
# transport minimization.
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
    at the threshold) warns and reports infeasible.
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
        self._warned = False

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
        if not self._warned:
            self._warned = True
            warnings.warn("ball-constrained transport stalled at the decision "
                          "boundary; reporting infeasible", RuntimeWarning)
        return False


def _restrict(p: Dist):
    mass = p.as_array()
    supp = np.nonzero(mass > 0.0)[0]
    return mass[supp], supp


def rate_f(query: RateQuery) -> float:
    """Lower-tail rate: smallest KL radius whose two balls touch cost alpha.

    Bisection on the radius; each level is decided by certified Frank-Wolfe
    over the product of the two balls.
    """
    if max(len(query.p_x), len(query.p_y)) > 4:
        raise SizeGuardError("rate_f handles alphabets of size at most 4")
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


def rate_f_binary(a: float, b: float, alpha: float) -> float:
    """Closed form of rate_f for Bernoulli marginals and Hamming cost.

    The optimum equalizes the two divergences along the binding constraint
    q_y = q_x + alpha, so it is the root of d(q+alpha || b) - d(q || a).
    """
    for v in (a, b):
        if not 0.0 <= v <= 1.0:
            raise ValidationError("Bernoulli parameters must lie in [0, 1]")
    if alpha < 0.0:
        return math.inf
    if abs(a - b) <= alpha + COST_EPS:
        return 0.0
    if a > b:
        a, b = b, a
    # Degenerate marginals pin their coordinate outright.
    if a in (0.0, 1.0) and b in (0.0, 1.0):
        return math.inf
    if a == 0.0:
        return d_bern(alpha, b)
    if a == 1.0:
        return d_bern(1.0 - alpha, b)
    if b == 0.0:
        return d_bern(alpha, a)
    if b == 1.0:
        return d_bern(1.0 - alpha, a)
    lo, hi = a, b - alpha

    def phi(q: float) -> float:
        return d_bern(q + alpha, b) - d_bern(q, a)

    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if phi(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return max(d_bern(root, a), d_bern(root + alpha, b))


# ---------------------------------------------------------------------------
# Upper tail.
# ---------------------------------------------------------------------------

def _exceeds(solver: _BallTransport, level: float, alpha: float) -> bool:
    """Whether every law within KL 'level' of the fixed side costs > alpha."""
    if level <= 0.0:
        return False
    return not solver.decide(level, alpha + EXCEED_EPS)


def _orientation_rate(pa: Dist, pb: Dist, carr_ab: np.ndarray,
                      alpha: float, grid: int) -> float:
    """inf D(Q || pa) over laws Q whose cost-alpha neighbourhood of pb is
    rarer than Q itself; Q ranges over the simplex on pa's support."""
    amass, asupp = _restrict(pa)
    bmass, bsupp = _restrict(pb)
    carr = carr_ab[np.ix_(asupp, bsupp)]
    loga = np.where(amass > 0.0, np.log(amass), -math.inf)
    k = len(amass)

    def feasible(q: np.ndarray) -> tuple[bool, float]:
        dq = _kl_of(q, loga)
        solver = _BallTransport(q, bmass, carr, move_x=False, move_y=True)
        return _exceeds(solver, dq, alpha), dq

    points: list[np.ndarray] = []
    if k == 1:
        points.append(np.array([1.0]))
    elif k == 2:
        ts = np.linspace(0.0, 1.0, grid)
        points.extend(np.array([t, 1.0 - t]) for t in ts)
    else:
        steps = max(2, int(round(math.sqrt(grid))) * 4)
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                t0, t1 = i / steps, j / steps
                points.append(np.array([t0, t1, 1.0 - t0 - t1]))
    feas = []
    for q in points:
        ok, dq = feasible(q)
        if ok:
            feas.append((dq, q))
    if not feas:
        return math.inf
    feas.sort(key=lambda pair: pair[0])
    best = feas[0][0]
    # Walk the best few feasible points toward the base law: the rate is
    # attained on the boundary where the neighbourhood stops being rarer.
    for dq, q in feas[:3]:
        lo_t, hi_t = 0.0, 1.0  # q + t (amass - q); t=0 feasible
        for _ in range(45):
            mid = 0.5 * (lo_t + hi_t)
            ok, _ = feasible(q + mid * (amass - q))
            if ok:
                lo_t = mid
            else:
                hi_t = mid
        best = min(best, _kl_of(q + lo_t * (amass - q), loga))
    return best


def rate_g(query: RateQuery, grid: int = 201) -> float:
    """Upper-tail rate, minimized over the two drift orientations."""
    if max(len(query.p_x), len(query.p_y)) > 3:
        raise SizeGuardError("rate_g handles alphabets of size at most 3")
    alpha = query.alpha
    px, sx = _restrict(query.p_x)
    py, sy = _restrict(query.p_y)
    carr = query.cost.as_array()[np.ix_(sx, sy)]
    if alpha < ot_value(px, py, carr) - COST_EPS:
        return 0.0
    if alpha >= carr.max() - COST_EPS:
        return math.inf
    gx = _orientation_rate(query.p_x, query.p_y, query.cost.as_array(),
                           alpha, grid)
    gy = _orientation_rate(query.p_y, query.p_x, query.cost.as_array().T,
                           alpha, grid)
    return min(gx, gy)


def rate_g_binary(a: float, b: float, alpha: float) -> float:
    """Closed form of rate_g for Bernoulli marginals and Hamming cost.

    Scans each orientation for the region where the drifted parameter is
    harder to reach from the other side than from its own, then takes the
    cheapest boundary point.
    """
    for v in (a, b):
        if not 0.0 <= v <= 1.0:
            raise ValidationError("Bernoulli parameters must lie in [0, 1]")
    if alpha >= 1.0 - COST_EPS:
        return math.inf
    if alpha < abs(a - b) - COST_EPS:
        return 0.0

    def branch(base: float, other: float) -> float:
        # Drift the 'base' marginal to t; the cheapest admissible partner is
        # the clamp of 'other' into [t - alpha, t + alpha].
        def phi(t: float) -> float:
            partner = min(max(other, t - alpha), t + alpha)
            return d_bern(partner, other) - d_bern(t, base)

        def edge(inside: float, outside: float) -> float:
            # last point with phi > 0 on the way from 'inside' to 'outside'
            for _ in range(60):
                mid = 0.5 * (inside + outside)
                if phi(mid) > 0.0:
                    inside = mid
                else:
                    outside = mid
            return inside

        ts = np.linspace(0.0, 1.0, 2001)
        vals = [phi(t) for t in ts]
        best = math.inf
        i = 0
        while i < len(ts):
            if not vals[i] > 0.0:
                i += 1
                continue
            j = i
            while j + 1 < len(ts) and vals[j + 1] > 0.0:
                j += 1
            # A run whose margin stays within rounding of zero is no region:
            # with a == b both divergences agree up to a few ulps.
            if max(vals[i:j + 1]) > COST_EPS:
                lo_t = edge(ts[i], ts[i - 1]) if i > 0 else ts[i]
                hi_t = edge(ts[j], ts[j + 1]) if j + 1 < len(ts) else ts[j]
                best = min(best, d_bern(lo_t, base), d_bern(hi_t, base),
                           *(d_bern(t, base) for t in ts[i:j + 1]))
            i = j + 1
        return best

    return min(branch(b, a), branch(a, b))
