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

Both are I-projections (Csiszar 1975) onto the polyhedron the dual vertices
(F, G) of the cost cut out (``transport.dual_vertices``): OT(q_x, q_y) <=
alpha exactly when F q_x + G q_y <= alpha, row by row.  rate_f, the least
max(KL(q_x || p_x), KL(q_y || p_y)) there, is the max over lam >= 0 and mu
in [0, 1] of -mu LSE(log p_x - F^T lam / mu) - (1 - mu) LSE(log p_y -
G^T lam / (1 - mu)) - alpha sum(lam).  rate_g tests at each drifted Q
whether E(Q) > KL(Q || p_a), E(Q) the least KL(Q' || p_b) subject to
G Q' <= alpha - F Q: the max over lam >= 0 of -LSE(log p_b - G^T lam)
- lam . (alpha - F Q).  An active-set Newton ascent solves these duals.
A dual value bounds a rate from below, and the exponential tilts of the
marginals at its multipliers, where they meet the constraints (the duals
are solved against a budget shrunk by SHRINK, for room), bound it above;
where mu sits at 0 or 1 one side binds alone, and its partner is where the
cheapest cells send it.  rate_f is the midpoint of that bracket; rate_g's
bracket closes on the boundary of each walk.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError, ValidationError
from .measures import Dist, kl
from .transport import CostMatrix, dual_vertices, ot_value

COST_EPS = 1e-12
EXCEED_EPS = 1e-9

#: The duals are solved against the budget less SHRINK times max(1, max c).
SHRINK = 1e-15
#: rate_f's search keeps mu inside [MU_EDGE, 1 - MU_EDGE].
MU_EDGE = 1e-12
#: A bracket narrower than WIDTH times its lower end is done.
WIDTH = 1e-13
#: Below ROUND times the value, a promised rise is lost in rounding.
ROUND = 1e-12
#: Newton steps per solve, and steps in a row improving no bound that end it.
STEPS = 200
STALL = 6


# Not called here: the benchmark's tracer (perfbench/spans.py) wraps
# ldp.minimize by attribute.  scipy.optimize would load only on a call.
def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first call."""
    from scipy.optimize import minimize as solve
    return solve(*args, **kwargs)


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
# Tilts and the dual ascent.
# ---------------------------------------------------------------------------

def _kl_rows(q: np.ndarray, logp: np.ndarray) -> np.ndarray:
    """KL(q || p) along the last axis; p > 0 everywhere."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0.0, q * (np.log(q) - logp), 0.0)
    return np.maximum(terms.sum(axis=-1), 0.0)


def _tilt(logp: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of w: LSE(log p - w), and the tilted law p exp(-w) / Z."""
    s = logp - w
    top = s.max(axis=-1, keepdims=True)
    e = np.exp(s - top)
    total = e.sum(axis=-1, keepdims=True)
    return (top + np.log(total))[..., 0], e / total


def _covariance(b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """b diag(q) b^T - (b q)(b q)^T per row: the Hessian of LSE through b."""
    b = np.broadcast_to(b, (len(q),) + b.shape[-2:])
    bq = np.einsum("nvi,ni->nv", b, q)
    return (np.einsum("nvi,ni,nwi->nvw", b, q, b)
            - bq[:, :, None] * bq[:, None, :])


def _ascend(oracle, bounds, settled, z: np.ndarray):
    """Maximize each row's concave oracle over z >= 0.

    oracle(z) gives (value, gradient, Hessian, *extras) by row, bounds(z,
    state) the certified (lower, upper) bounds they yield.  Coordinates at
    zero that the gradient or the step would push below it stay there; the
    others take a Levenberg-Marquardt step (damping damp * |free gradient|)
    cut where a coordinate reaches zero, a simplex pivot along the duals'
    flat directions.  A step is kept if the value rises by an Armijo part of
    its promise or, a promise lost in rounding, if the free gradient
    shrinks; damp then falls tenfold, else grows tenfold.  A row stops when
    settled(lower, upper) holds for its best bounds, or after STALL steps
    improving neither.  Returns those bounds, the last z and state.
    """
    state = oracle(z)
    lower, upper = bounds(z, state)
    damp = np.ones(len(z))
    idle = np.zeros(len(z), dtype=int)
    eye = np.eye(z.shape[1])

    def free_gradient(z, grad):
        return np.linalg.norm(np.where((z > 0.0) | (grad > 0.0), grad, 0.0),
                              axis=1)

    for _ in range(STEPS):
        live = ~settled(lower, upper) & (idle < STALL)
        if not live.any():
            break
        val, grad, hess = state[:3]
        free = (z > 0.0) | (grad > 0.0)
        norm = free_gradient(z, grad)
        floor = 1e-14 * (1.0 + np.abs(hess).max(axis=(1, 2)))
        for _ in range(z.shape[1]):
            diag = np.where(free, (damp * norm + floor)[:, None], 1.0)
            a = (np.where(free[:, :, None] & free[:, None, :], -hess, 0.0)
                 + diag[:, :, None] * eye)
            step = np.linalg.solve(
                a, np.where(free, grad, 0.0)[..., None])[..., 0]
            blocked = free & (z <= 0.0) & (step < 0.0)
            if not blocked.any():
                break
            free &= ~blocked
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = np.where(step < 0.0, z / -step, np.inf)
        cut = np.minimum(reach.min(axis=1), 1.0)[:, None]
        trial = np.where(reach <= cut, 0.0, np.maximum(z + cut * step, 0.0))
        trial = np.where(live[:, None], trial, z)
        new = oracle(trial)
        promise = np.sum(grad * (trial - z), axis=1)
        keep = live & np.where(promise > ROUND * (1.0 + np.abs(val)),
                               new[0] - val >= 1e-4 * promise,
                               free_gradient(trial, new[1]) < norm)
        z = np.where(keep[:, None], trial, z)
        state = tuple(np.where(keep.reshape((-1,) + (1,) * (b.ndim - 1)), a, b)
                      for a, b in zip(new, state))
        damp = np.clip(np.where(keep, damp / 10.0,
                                np.where(live, damp * 10.0, damp)), 1e-8, 1e8)
        low, up = bounds(z, state)
        idle = np.where((low > lower) | (up < upper), 0, idle + live)
        lower, upper = np.maximum(lower, low), np.minimum(upper, up)
    return lower, upper, z, state


def _narrow(lower, upper):
    return upper - lower <= WIDTH * lower


def _project(logp, a, beta, shrink, settled):
    """I-projections of p onto {q : a q <= beta}, one per row of beta.

    Returns per row a certified lower bound on the least KL(q || p), the
    dual value at beta; an upper bound, the KL of the tilt if it meets
    a q <= beta, else inf; and the tilt.  settled(lower, upper) ends a row.
    """
    def oracle(lam):
        lse, q = _tilt(logp, lam @ a)
        grad = q @ a.T - beta + shrink
        return (-lse - np.sum(lam * (beta - shrink), axis=1), grad,
                -_covariance(a, q), q)

    def bounds(lam, state):
        val, grad, _, q = state
        return (val - shrink * lam.sum(axis=1),
                np.where((grad <= shrink).all(axis=1), _kl_rows(q, logp),
                         np.inf))

    lower, upper, _, state = _ascend(oracle, bounds, settled,
                                     np.zeros_like(beta))
    return lower, upper, state[3]


def _supports(pa: Dist, pb: Dist, cost: np.ndarray):
    """Both laws and the cost array, restricted to the supports."""
    a, b = pa.as_array(), pb.as_array()
    sa, sb = np.flatnonzero(a > 0.0), np.flatnonzero(b > 0.0)
    return a[sa], b[sb], cost[np.ix_(sa, sb)]


def _dual_of(carr: np.ndarray):
    """The dual vertices (F, G) of a cost array, and its budget shrink."""
    f, g = dual_vertices(CostMatrix.from_rows(carr.tolist()))
    return f, g, SHRINK * max(1.0, float(carr.max()))


# ---------------------------------------------------------------------------
# Lower tail.
# ---------------------------------------------------------------------------

def _rate_f_dual(lam, mu, logpx, logpy, f, g, budget):
    """rate_f's dual at rows lam and a fixed mu: value, gradient and Hessian
    in lam, the divergences of the tilts, and the Hessian in (lam, mu)."""
    nu = 1.0 - mu
    ux, uy = lam @ f / mu, lam @ g / nu
    lse_x, qx = _tilt(logpx, ux)
    lse_y, qy = _tilt(logpy, uy)
    bx = np.concatenate([np.broadcast_to(f, (len(lam),) + f.shape),
                         -ux[:, None, :]], axis=1)
    by = np.concatenate([np.broadcast_to(g, (len(lam),) + g.shape),
                         uy[:, None, :]], axis=1)
    hess = -(_covariance(bx, qx) / mu + _covariance(by, qy) / nu)
    return (-mu * lse_x - nu * lse_y - budget * lam.sum(axis=1),
            qx @ f.T + qy @ g.T - budget, hess[:, :-1, :-1],
            _kl_rows(qx, logpx), _kl_rows(qy, logpy), hess)


def _rate_f_bracket(query: RateQuery) -> tuple[float, float]:
    """Certified [lower, upper] bounds on rate_f: the best dual value, and
    the larger divergence of the best pair found within budget."""
    if max(len(query.p_x), len(query.p_y)) > 4:
        raise SizeGuardError("rate_f handles alphabets of size at most 4")
    px, py, carr = _supports(query.p_x, query.p_y, query.cost.as_array())
    budget = query.alpha + COST_EPS
    if ot_value(px, py, carr) <= budget:
        return 0.0, 0.0
    if carr.min() > budget:
        return math.inf, math.inf
    f, g, shrink = _dual_of(carr)
    logpx, logpy = np.log(px), np.log(py)
    # mu = 0 (or 1): the y (x) law binds alone.  It is the I-projection onto
    # the laws that some partner meets within budget, those whose mean
    # cheapest cost is within it, and its partner is where the cheapest
    # cells send it (ties split by the partner's own mass).
    lower, upper = 0.0, math.inf
    for logp, cost, other in ((logpy, carr, px), (logpx, carr.T, py)):
        low, _, q = _project(logp, cost.min(axis=0)[None],
                             np.array([[budget]]), shrink, _narrow)
        w = np.where(cost == cost.min(axis=0), other[:, None], 0.0)
        pair = ((w / w.sum(axis=0)) @ q[0], q[0])
        qx, qy = pair if other is px else pair[::-1]
        if np.max(f @ qx + g @ qy) <= budget:
            upper = min(upper, max(_kl_rows(qx, logpx), _kl_rows(qy, logpy)))
        lower = max(lower, low[0])
    if _narrow(lower, upper):
        return float(lower), float(upper)
    # Otherwise KL_x = KL_y at the optimum.  g(mu) = max_lam D(lam, mu) is
    # concave with slope KL_x - KL_y at the tilts and curvature the Schur
    # complement of D's lam block, so a Newton search over mu, kept inside
    # the bracket the slope signs leave, finds that crossing; every mu first
    # maximizes D over lam.  A mu whose lam stays 1e-9 short of optimal
    # steps back halfway instead.
    lam = np.zeros((1, len(f)))
    mu, left, right = 0.5, MU_EDGE, 1.0 - MU_EDGE
    base, idle = None, 0
    for _ in range(STEPS):
        def bounds(lam, state, mu=mu):
            val, grad, _, klx, kly, _ = state
            fits = (grad <= shrink).all(axis=1)
            return (val - shrink * lam.sum(axis=1),
                    np.where(fits, mu * klx + (1.0 - mu) * kly, np.inf))

        inner_low, inner_up, found, state = _ascend(
            lambda lam, mu=mu: _rate_f_dual(lam, mu, logpx, logpy, f, g,
                                            budget - shrink),
            bounds, _narrow, lam)
        val, grad, _, klx, kly, hess = state
        low = float(val[0] - shrink * found.sum())
        up = float(max(klx[0], kly[0])) if (grad <= shrink).all() else upper
        idle = 0 if low > lower or up < upper else idle + 1
        lower, upper = max(lower, low), min(upper, up)
        if _narrow(lower, upper) or idle >= STALL:
            break
        if not inner_up[0] - inner_low[0] <= 1e-9 * (1.0 + inner_low[0]):
            if base is None:
                break
            mu, lam = 0.5 * (mu + base[0]), base[1]
            continue
        base, lam = (mu, found), found
        slope = float(klx[0] - kly[0])
        if slope == 0.0:
            break
        left, right = (mu, right) if slope > 0.0 else (left, mu)
        free = (lam[0] > 0.0) | (grad[0] >= 0.0)
        cross = hess[0, :-1, -1][free]
        bend = hess[0, -1, -1] - cross @ np.linalg.lstsq(
            hess[0, :-1, :-1][np.ix_(free, free)], cross, rcond=None)[0]
        step = mu - slope / bend if bend < 0.0 else math.nan
        mu = step if left < step < right else 0.5 * (left + right)
    return float(lower), float(upper)


def rate_f(query: RateQuery) -> float:
    """Lower-tail rate: smallest KL radius whose two balls touch cost alpha,
    the midpoint of the certified bracket from the vertex dual."""
    lower, upper = _rate_f_bracket(query)
    return 0.5 * (lower + upper)


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

def _exceed_test(carr: np.ndarray, bmass: np.ndarray, alpha: float):
    """exceeds(q, level): per row of q, whether E(q) > level, that is,
    every law within KL 'level' of bmass costs more than alpha + EXCEED_EPS
    against q; a row that neither its dual nor a tilt settles exceeds."""
    f, g, shrink = _dual_of(carr)
    logb, budget = np.log(bmass), alpha + EXCEED_EPS

    def exceeds(q: np.ndarray, level: np.ndarray) -> np.ndarray:
        # E(q) is 0 where bmass itself is within budget of q, and infinite
        # (its dual unbounded) where q's cheapest cells cost more
        home = np.max(q @ f.T + g @ bmass, axis=1) <= budget
        beyond = q @ carr.min(axis=1) > budget - shrink
        _, upper, _ = _project(
            logb, g, budget - q @ f.T, shrink,
            lambda lower, upper: (lower > level) | (upper <= level)
            | (level <= 0.0) | home | beyond)
        return (level > 0.0) & ~home & (beyond | (upper > level))

    return exceeds


def _orientation_rate(pa: Dist, pb: Dist, carr_ab: np.ndarray,
                      alpha: float, grid: int) -> tuple[float, float]:
    """inf D(Q || pa) over laws Q whose cost-alpha neighbourhood of pb is
    rarer than Q itself; Q ranges over the simplex on pa's support.

    Returns the bracket the boundary walks close: the least divergence of a
    walk's first law that does not exceed, and of its last law that does.
    """
    amass, bmass, carr = _supports(pa, pb, carr_ab)
    loga = np.log(amass)
    k = len(amass)
    exceeds = _exceed_test(carr, bmass, alpha)
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
    levels = _kl_rows(points, loga)
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
        ok = exceeds(at, _kl_rows(at, loga))
        lo_t, hi_t = np.where(ok, mid, lo_t), np.where(ok, hi_t, mid)
    return (float(_kl_rows(q + hi_t[:, None] * toward, loga).min()),
            float(_kl_rows(q + lo_t[:, None] * toward, loga).min()))


def _rate_g_bracket(query: RateQuery, grid: int = 201) -> tuple[float, float]:
    """[lower, upper] on rate_g: both orientations' walk brackets."""
    if max(len(query.p_x), len(query.p_y)) > 3:
        raise SizeGuardError("rate_g handles alphabets of size at most 3")
    alpha = query.alpha
    px, py, carr = _supports(query.p_x, query.p_y, query.cost.as_array())
    if alpha < ot_value(px, py, carr) - COST_EPS:
        return 0.0, 0.0
    if alpha >= carr.max() - COST_EPS:
        return math.inf, math.inf
    cost = query.cost.as_array()
    gx = _orientation_rate(query.p_x, query.p_y, cost, alpha, grid)
    gy = _orientation_rate(query.p_y, query.p_x, cost.T, alpha, grid)
    return min(gx[0], gy[0]), min(gx[1], gy[1])


def rate_g(query: RateQuery, grid: int = 201) -> float:
    """Upper-tail rate, minimized over the two drift orientations."""
    return _rate_g_bracket(query, grid)[1]


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
