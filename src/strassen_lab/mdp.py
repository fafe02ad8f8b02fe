"""Moderate-deviation layer: the signed-coupling cost theta and the
quadratic-scale rate kernels.

theta(beta_x, beta_y) prices the cheapest signed reallocation of mass whose
removals stay inside the optimal-support set S of the base instance; it is
the directional derivative of the transport value at the base marginals.
By LP duality it is also the largest <f, beta_x> + <g, beta_y> over the
potentials with f + g <= c everywhere and f + g = c on S.  When S touches
every symbol that face is a bounded polytope, whose vertices are the dual
vertices of c (``transport.dual_vertices``) tight on S, so theta is a max
of a few dot products; other supports go to a HiGHS LP.

Both moderate-deviation rates are delta^2 times a kernel read off the same
face.  Write F, G for its vertices (one per row) and sigma_p(h) for the
standard deviation of h under p: over zero-sum u with chi2/2(u) <= r, the
largest h . u is sqrt(2 r) sigma_p(h).

* upper (delta > 0): both marginals push theta up inside their balls, so
  the kernel is 1 / (2 max_v (sigma_x(f_v) + sigma_y(g_v))^2).  It is
  exact: a convex function of the face point peaks at a vertex.
* lower (delta < 0): one marginal must outrun the other, which pulls theta
  down inside its own ball.  Sion's minimax theorem turns W(u) = min_beta
  max_v into a max over mixtures lam of the vertices, so the kernel is
  1 / (2 M^2), M = max_lam |sigma_x(F^T lam) - sigma_y(G^T lam)| over both
  orientations, and +inf when M vanishes.  The vertices and every segment
  between two of them are solved exactly (a segment's stationary points
  are roots of a quartic).  Only a face with three or more vertices adds a
  search: a seeded multistart ascent over lam.

A one-vertex face, the generic case, gives both kernels in closed form;
binary Hamming reduces to 1/(2(sigma_y - sigma_x)^2) and
1/(2(sigma_x + sigma_y)^2).  Zero-mass symbols are dropped before the face
lookup, because the chi-square term pins a perturbation to zero there.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import DimensionMismatchError, SizeGuardError, ValidationError
from .measures import Dist, SignedVec
from .transport import (VERTEX_MAX, CostMatrix, SupportSet, dual_vertices,
                        optimal_support, ot_value, vertex_tol)

THETA_TOL = 1e-10
DIR_EPS = 1e-12


# scipy.optimize loads on the first call, not at import: only the theta LP on
# a hand-made support and the multistart on faces with three or more vertices
# need it.  Both stay module-level names that this layer calls, so the
# benchmark's tracer (perfbench/spans.py) can wrap them by attribute.
def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first call."""
    from scipy.optimize import linprog as solve
    return solve(*args, **kwargs)


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first call."""
    from scipy.optimize import minimize as solve
    return solve(*args, **kwargs)


@dataclass(frozen=True)
class SignedMatrix:
    """A signed coupling: real matrix whose negativity stays inside S."""

    values: tuple
    support: SupportSet

    def __post_init__(self) -> None:
        rows = tuple(tuple(float(v) for v in row) for row in self.values)
        object.__setattr__(self, "values", rows)
        if not rows or not rows[0]:
            raise ValidationError("signed coupling must be nonempty")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValidationError("ragged signed coupling")
        total = math.fsum(v for row in rows for v in row)
        if abs(total) > THETA_TOL:
            raise ValidationError(f"entries sum to {total!r}, not 0")
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v < -THETA_TOL and (i, j) not in self.support:
                    raise ValidationError(
                        f"negative mass {v!r} at {(i, j)} outside the support"
                    )

    def beta_x(self) -> SignedVec:
        sums = [math.fsum(row) for row in self.values]
        shift = math.fsum(sums) / len(sums)
        return SignedVec(tuple(v - shift for v in sums))

    def beta_y(self) -> SignedVec:
        sums = [math.fsum(col) for col in zip(*self.values)]
        shift = math.fsum(sums) / len(sums)
        return SignedVec(tuple(v - shift for v in sums))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def _check_theta_dims(beta_x, beta_y, c: CostMatrix) -> None:
    m, k = c.shape
    if len(beta_x) != m or len(beta_y) != k:
        raise DimensionMismatchError(
            f"perturbations sized {len(beta_x)}, {len(beta_y)} against a "
            f"{m}x{k} cost"
        )


def _theta_lp(beta_x, beta_y, s: SupportSet, c: CostMatrix):
    _check_theta_dims(beta_x, beta_y, c)
    m, k = c.shape
    carr = c.as_array().reshape(-1)
    s_cells = sorted(s.cells)
    # Forward arcs add mass anywhere; backward arcs remove it, only on S.
    n_f, n_b = m * k, len(s_cells)
    obj = np.concatenate([carr, [-carr[i * k + j] for i, j in s_cells]])
    a_eq = np.zeros((m + k, n_f + n_b))
    for i in range(m):
        a_eq[i, i * k:(i + 1) * k] = 1.0
    for j in range(k):
        a_eq[m + j, j:n_f:k] = 1.0
    for col, (i, j) in enumerate(s_cells):
        a_eq[i, n_f + col] = -1.0
        a_eq[m + j, n_f + col] = -1.0
    b_eq = np.concatenate([np.asarray(beta_x, float),
                           np.asarray(beta_y, float)])
    res = linprog(obj, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return res, s_cells, (m, k)


@lru_cache(maxsize=64)
def _optimal_face(s: SupportSet, c: CostMatrix):
    """Vertices (F, G) of the dual face {f + g <= c, f + g = c on S}, or None.

    None when S misses a symbol (the face may be unbounded, and theta
    +inf), when the alphabets are past the vertex kernel, or when no
    vertex is tight on all of S (the face is empty, and theta -inf).
    """
    m, k = c.shape
    rows, cols = (np.array(v) for v in zip(*sorted(s.cells)))
    verts = dual_vertices(c)
    if (verts is None or set(rows) != set(range(m))
            or set(cols) != set(range(k))):
        return None
    f, g = verts
    cost = c.as_array()
    slack = cost[rows, cols] - f[:, rows] - g[:, cols]
    tight = (np.abs(slack) <= vertex_tol(cost)).all(axis=1)
    if not tight.any():
        return None
    face = f[tight], g[tight]
    for part in face:
        part.setflags(write=False)
    return face


def theta(beta_x: SignedVec, beta_y: SignedVec, s: SupportSet,
          c: CostMatrix) -> float:
    """Cheapest signed-coupling cost of the perturbation pair.

    +inf when no signed coupling with admissible negativity exists; -inf
    (with a warning) when S admits a cost-reducing circulation.  A support
    coming out of ``optimal_support`` never does — its cells are tight
    against the transport potentials, so every circulation inside it costs
    zero — but a hand-assembled S may, and the LP then reports the problem
    as unbounded.  A support touching every symbol is priced as the best
    vertex of its dual face, with no LP.
    """
    _check_theta_dims(beta_x, beta_y, c)
    face = _optimal_face(s, c)
    if face is not None:
        f, g = face
        return float(np.max(f @ beta_x.as_array() + g @ beta_y.as_array()))
    res, _, _ = _theta_lp(beta_x.mass, beta_y.mass, s, c)
    if res.status == 2:
        return math.inf
    if res.status == 3:
        warnings.warn("signed-coupling LP is unbounded; the support set "
                      "admits a negative-cost circulation", RuntimeWarning)
        return -math.inf
    if res.status != 0:
        raise ValidationError(f"signed-coupling LP failed: {res.message}")
    return float(res.fun)


def theta_plan(beta_x: SignedVec, beta_y: SignedVec, s: SupportSet,
               c: CostMatrix) -> tuple[float, SignedMatrix]:
    """theta together with an optimal signed coupling realizing it."""
    res, s_cells, (m, k) = _theta_lp(beta_x.mass, beta_y.mass, s, c)
    if res.status != 0:
        raise ValidationError(
            "signed-coupling LP has no finite optimum for these inputs"
        )
    mat = res.x[:m * k].reshape(m, k)
    for col, (i, j) in enumerate(s_cells):
        mat[i, j] -= res.x[m * k + col]
    total = mat.sum()
    mat = mat - total / mat.size
    mat[np.abs(mat) < 1e-14] = 0.0
    return float(res.fun), SignedMatrix(tuple(map(tuple, mat)), s)


support_of = lru_cache(maxsize=256)(optimal_support)


def _guard_sizes(p_x: Dist, p_y: Dist) -> None:
    if len(p_x) > VERTEX_MAX or len(p_y) > VERTEX_MAX:
        raise SizeGuardError("moderate-deviation kernels handle alphabets of "
                             f"size at most {VERTEX_MAX}")


def _spread_rows(h: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Rows h_v centered and scaled so that sigma(h^T lam) = |lam @ out|."""
    return (h - (h @ mass)[:, None]) * np.sqrt(mass)


@lru_cache(maxsize=256)
def _face_spreads(p_x: Dist, p_y: Dist, c: CostMatrix):
    """The optimal face's vertices as spread rows under p_x and p_y.

    Zero-mass symbols are dropped first: the chi-square term pins a
    perturbation to zero there.  S is solved on what is left and loses no
    cell: it is the union of the optimal couplings' supports, and no
    coupling puts mass on a zero-mass symbol.
    """
    px, py = p_x.as_array(), p_y.as_array()
    rows, cols = np.flatnonzero(px > 0.0), np.flatnonzero(py > 0.0)
    sub_x, sub_y = Dist.from_mass(px[rows]), Dist.from_mass(py[cols])
    sub = CostMatrix(tuple(map(tuple, c.as_array()[np.ix_(rows, cols)])))
    face = _optimal_face(support_of(sub_x, sub_y, sub), sub)
    if face is None:
        raise ValidationError("the optimal dual face is empty or unbounded")
    spreads = _spread_rows(face[0], px[rows]), _spread_rows(face[1], py[cols])
    for part in spreads:
        part.setflags(write=False)
    return spreads


def _kernel(spread: float) -> float:
    return 1.0 / (2.0 * spread * spread) if spread > DIR_EPS else math.inf


def _spread_gap(lam: np.ndarray, wx: np.ndarray, wy: np.ndarray) -> float:
    return abs(float(np.linalg.norm(lam @ wx) - np.linalg.norm(lam @ wy)))


def _segment_critical(wx: np.ndarray, wy: np.ndarray, i: int, j: int):
    """Candidate maximizers t in [0, 1] of the gap on the segment i -> j.

    Along lam = (1 - t) e_i + t e_j the variances are quadratics A and B;
    sqrt(A) - sqrt(B) is stationary where A'^2 B = B'^2 A, a quartic.  The
    minimizers of A and B are added in closed form: a spread that vanishes
    there is a cusp, a double root the quartic solve finds only to
    sqrt(eps).  Real parts of all roots are kept, since a spare candidate
    costs one evaluation and a lost one the answer.
    """
    def quad(w):
        d = w[j] - w[i]
        return np.array([w[i] @ w[i], 2.0 * (w[i] @ d), d @ d])

    a, b = quad(wx), quad(wy)
    da, db = P.polyder(a), P.polyder(b)
    quartic = P.polysub(P.polymul(P.polymul(da, da), b),
                        P.polymul(P.polymul(db, db), a))
    t = P.polyroots(quartic).real if np.any(quartic) else np.empty(0)
    t = np.append(t, [-q[1] / (2.0 * q[2]) for q in (a, b) if q[2] > 0.0])
    return t[np.isfinite(t) & (t >= 0.0) & (t <= 1.0)]


def _ascend_gap(wx: np.ndarray, wy: np.ndarray, start: np.ndarray,
                sign: float) -> np.ndarray:
    """Local max of sign * (sigma_x - sigma_y) over the vertex simplex.

    lam = w / sum(w) with box bounds on w, so a face of the simplex is
    reached exactly; the objective is scale-free in w.
    """
    def neg(w):
        total = w.sum()
        if total <= 0.0:
            return 0.0, np.zeros_like(w)
        hx, hy = w @ wx, w @ wy
        sx, sy = np.linalg.norm(hx), np.linalg.norm(hy)
        val = sign * (sx - sy) / total
        grad = (sign * (wx @ hx / max(sx, DIR_EPS) - wy @ hy / max(sy, DIR_EPS))
                - val) / total
        return -val, -grad

    # TNC rather than L-BFGS-B: with default BLAS threads, L-BFGS-B at times
    # took 50 ms for one of these 4-variable ascents instead of 1.5 ms
    res = minimize(neg, start / start.max(), jac=True, method="TNC",
                   bounds=[(0.0, 1.0)] * len(start),
                   options={"ftol": 1e-15, "gtol": 1e-12})
    return res.x / res.x.sum() if res.x.sum() > 0.0 else start


def _max_spread_gap(wx: np.ndarray, wy: np.ndarray) -> float:
    """M = max over the vertex simplex of |sigma_x(F^T lam) - sigma_y(G^T lam)|.

    Exact on the vertices and on every segment between two of them; a face
    with three or more vertices adds a seeded multistart ascent.
    """
    n = len(wx)
    eye = np.eye(n)
    cands = list(eye)
    for i in range(n):
        for j in range(i + 1, n):
            cands += [(1.0 - t) * eye[i] + t * eye[j]
                      for t in _segment_critical(wx, wy, i, j)]
    best = max(cands, key=lambda lam: _spread_gap(lam, wx, wy))
    if n >= 3:
        inits = [best, np.full(n, 1.0 / n)] + list(
            np.random.default_rng(2026).dirichlet(np.ones(n), 6))
        cands = [_ascend_gap(wx, wy, w, sign)
                 for w in inits for sign in (1.0, -1.0)] + [best]
    return max(_spread_gap(lam, wx, wy) for lam in cands)


def mdp_rate_lower(p_x: Dist, p_y: Dist, c: CostMatrix, delta: float,
                   directions: int = 720) -> float:
    """Lower-tail moderate-deviation rate at deviation delta < 0.

    delta^2 / (2 M^2), where M is the largest gap between the two spreads,
    |sigma_x(F^T lam) - sigma_y(G^T lam)|, over mixtures lam of the optimal
    face's vertices; +inf when no mixture separates them.  ``directions``
    is accepted for compatibility and ignored.
    """
    if delta >= 0.0:
        raise ValidationError("the lower-tail rate needs delta < 0")
    _guard_sizes(p_x, p_y)
    return delta * delta * _kernel(_max_spread_gap(*_face_spreads(p_x, p_y, c)))


def mdp_rate_upper(p_x: Dist, p_y: Dist, c: CostMatrix, delta: float,
                   directions: int = 720) -> float:
    """Upper-tail moderate-deviation rate at deviation delta > 0.

    delta^2 / (2 max_v (sigma_x(f_v) + sigma_y(g_v))^2) over the vertices
    of the optimal face; exact, since a convex function of the face point
    peaks at a vertex.  ``directions`` is accepted for compatibility and
    ignored.
    """
    if delta <= 0.0:
        raise ValidationError("the upper-tail rate needs delta > 0")
    _guard_sizes(p_x, p_y)
    wx, wy = _face_spreads(p_x, p_y, c)
    spread = float(np.max(np.linalg.norm(wx, axis=1)
                          + np.linalg.norm(wy, axis=1)))
    return delta * delta * _kernel(spread)


@dataclass(frozen=True)
class SetaReport:
    """First-order expansion check of the transport value at the base pair."""

    lhs: float
    rhs: float
    holds: bool


def seta_check(p_x: Dist, p_y: Dist, c: CostMatrix, q_x: Dist, q_y: Dist,
               a: float) -> SetaReport:
    """Compare the scaled transport increment against theta.

    By convexity of the transport value in its marginals,
    (E(Q) - E(P)) / a >= theta((Q_X-P_X)/a, (Q_Y-P_Y)/a), with equality as
    a -> 0; `holds` reports the inequality at tolerance 1e-9.
    """
    if a <= 0.0:
        raise ValidationError("the scale a must be positive")
    s = support_of(p_x, p_y, c)
    rhs = theta(SignedVec.from_difference(q_x, p_x, scale=a),
                SignedVec.from_difference(q_y, p_y, scale=a), s, c)
    cost = c.as_array()
    lhs = (ot_value(q_x.as_array(), q_y.as_array(), cost)
           - ot_value(p_x.as_array(), p_y.as_array(), cost)) / a
    return SetaReport(lhs=lhs, rhs=rhs, holds=bool(lhs >= rhs - 1e-9))


def seta_gap_sequence(p_x: Dist, p_y: Dist, c: CostMatrix,
                      beta_x: SignedVec, beta_y: SignedVec,
                      ks=range(4, 13)) -> list[tuple[float, float]]:
    """Gaps lhs - rhs of seta_check along a = 2^-k; they shrink to zero.

    The perturbed marginals P + a*beta must stay inside the simplex for
    every sampled a (checked; the largest a binds).
    """
    out = []
    for k in ks:
        a = 2.0 ** (-k)
        qx = [pm + a * bm for pm, bm in zip(p_x.mass, beta_x.mass)]
        qy = [pm + a * bm for pm, bm in zip(p_y.mass, beta_y.mass)]
        if min(qx) < 0.0 or min(qy) < 0.0:
            raise ValidationError(
                f"perturbation leaves the simplex at a = 2^-{k}"
            )
        rep = seta_check(p_x, p_y, c,
                         Dist.from_mass(qx, labels=p_x.labels),
                         Dist.from_mass(qy, labels=p_y.labels), a)
        out.append((a, rep.lhs - rep.rhs))
    return out
