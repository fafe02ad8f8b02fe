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
Both moderate-deviation rates are degree-2 homogeneous in the deviation
delta, so each reduces to delta^2 times a kernel minimized over unit
perturbation directions:

* lower (delta < 0): one marginal must outrun the other.  For an outer unit
  direction u, W(u) is the smallest theta achievable by the other marginal
  inside the matching chi-square ball; directions with W(u) > 0 cost
  (chi2/2)(u) / W(u)^2.
* upper (delta > 0): both marginals cooperate to push the value up.  Joint
  unit directions with theta(u) > 0 cost max of the two halved chi-squares
  over theta(u)^2.

Binary instances admit closed forms (1/(2(sigma_y - sigma_x)^2) and
1/(2(sigma_x + sigma_y)^2) kernels) that the direction search reproduces.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog, minimize

from .errors import DimensionMismatchError, SizeGuardError, ValidationError
from .measures import Dist, SignedVec, chi2_half
from .transport import (CostMatrix, SupportSet, dual_vertices,
                        optimal_support, ot_cost, vertex_tol)

THETA_TOL = 1e-10
DIR_EPS = 1e-12


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


@lru_cache(maxsize=256)
def support_of(p_x: Dist, p_y: Dist, c: CostMatrix) -> SupportSet:
    return optimal_support(p_x, p_y, c, tol=1e-9)


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


def _guard_sizes(p_x: Dist, p_y: Dist) -> None:
    if len(p_x) > 4 or len(p_y) > 4:
        raise SizeGuardError(
            "moderate-deviation kernels handle alphabets of size at most 4"
        )


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


def mdp_rate_lower(p_x: Dist, p_y: Dist, c: CostMatrix, delta: float,
                   directions: int = 720) -> float:
    """Lower-tail moderate-deviation rate at deviation delta < 0.

    delta^2 times the separation kernel: over both orientations and outer
    unit directions u, the cheapest u with W(u) > 0 costs
    (chi2/2)(u) / W(u)^2, where W(u) is the best theta the opposing marginal
    can reach inside the matching chi-square ball.
    """
    if delta >= 0.0:
        raise ValidationError("the lower-tail rate needs delta < 0")
    _guard_sizes(p_x, p_y)
    if min(p_x.mass) <= 0.0 or min(p_y.mass) <= 0.0:
        raise ValidationError("marginals must be strictly positive")
    s = support_of(p_x, p_y, c)
    best = math.inf
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
            if w <= DIR_EPS:
                return math.inf
            return chalf / (w * w)

        dirs = unit_directions(ko - 1, directions)
        vals = [kernel(v) for v in dirs]
        idx = int(np.argmin(vals))
        local = vals[idx]
        if math.isfinite(local) and ko > 2:
            polish = minimize(
                lambda v: kernel(v / max(np.linalg.norm(v), 1e-12)),
                dirs[idx], method="Nelder-Mead",
                options={"maxiter": 200, "xatol": 1e-6, "fatol": 1e-12},
            )
            if math.isfinite(polish.fun):
                local = min(local, float(polish.fun))
        best = min(best, local)
    return delta * delta * best


def mdp_rate_upper(p_x: Dist, p_y: Dist, c: CostMatrix, delta: float,
                   directions: int = 720) -> float:
    """Upper-tail moderate-deviation rate at deviation delta > 0.

    delta^2 times the cooperation kernel: joint unit directions with
    theta(u) > 0 cost max of the two halved chi-squares over theta^2
    (rescaling such a direction onto the constraint boundary theta = 1
    is exact by positive homogeneity).
    """
    if delta <= 0.0:
        raise ValidationError("the upper-tail rate needs delta > 0")
    _guard_sizes(p_x, p_y)
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
        if not th > DIR_EPS:
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
    return delta * delta * best


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
    base = ot_cost(p_x, p_y, c).objective
    moved = ot_cost(q_x, q_y, c).objective
    lhs = (moved - base) / a
    s = support_of(p_x, p_y, c)
    rhs = theta(SignedVec.from_difference(q_x, p_x, scale=a),
                SignedVec.from_difference(q_y, p_y, scale=a), s, c)
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
