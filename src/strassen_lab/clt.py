"""Central-limit layer: Gaussian fluctuation parameters and the binary
limit curve.

At the root-n scale the excess-cost probability of a binary pair converges
to a Strassen value between two centered Gaussians, which collapses to a
one-dimensional formula: the supremum over thresholds of
F_X(a') - F_Y(a' + delta).  The supremum is attained at the larger point
where the two normal densities cross, giving a closed form; a direct grid
maximization of the same objective serves as its independent check.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .measures import Dist


@dataclass(frozen=True)
class GaussParams:
    """Mean and covariance of the limiting empirical fluctuation."""

    mean: tuple
    cov: tuple

    def __post_init__(self) -> None:
        mean = tuple(float(v) for v in self.mean)
        cov = tuple(tuple(float(v) for v in row) for row in self.cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        k = len(mean)
        if len(cov) != k or any(len(row) != k for row in cov):
            raise ValidationError("covariance shape must match the mean")
        if any(v != 0.0 for v in mean):
            raise ValidationError("fluctuation mean must be zero")
        arr = np.asarray(cov)
        if not np.allclose(arr, arr.T, atol=1e-12):
            raise ValidationError("covariance must be symmetric")
        if k and np.linalg.eigvalsh(arr).min() < -1e-12:
            raise ValidationError("covariance must be positive semidefinite")
        if k and np.abs(arr.sum(axis=1)).max() > 1e-12:
            raise ValidationError(
                "covariance rows must sum to zero along the simplex normal"
            )

    def as_array(self) -> np.ndarray:
        return np.asarray(self.cov, dtype=float)


def gauss_params(p: Dist) -> GaussParams:
    """Multinomial covariance p(x)1{x=x'} - p(x)p(x') with zero mean."""
    mass = p.as_array()
    cov = np.diag(mass) - np.outer(mass, mass)
    return GaussParams(mean=(0.0,) * len(mass), cov=tuple(map(tuple, cov)))


@dataclass(frozen=True)
class BinaryCltInstance:
    """Variance pair and shift for the one-dimensional limit problem."""

    sigma_x2: float
    sigma_y2: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("sigma_x2", "sigma_y2"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not 0.0 < v <= 0.25:
                raise ValidationError(
                    f"{name} = {v!r} outside (0, 1/4]; binary variances "
                    "are a(1-a)"
                )
        object.__setattr__(self, "delta", float(self.delta))


def crossing_points(inst: BinaryCltInstance) -> list:
    """Points where the two centered normal densities phi_X(t) and
    phi_Y(t + delta) agree.

    Equal variances give the single midpoint -delta/2; otherwise the log
    ratio is a genuine quadratic with two roots.  Its discriminant
    delta^2 + (sigma_x^2 - sigma_y^2) log(sigma_x^2 / sigma_y^2) is >= 0 in
    floats too: a correctly rounded quotient x / y of x > y is >= 1, so the
    two factors share a sign.
    Where sigma_x^2 * delta and the root are close in size, one of
    (-sigma_x^2 * delta -+ root) cancels, badly so for nearly equal
    variances; there the larger-magnitude root comes from q, whose two terms
    share a sign, and the other is c/q by Vieta.  Elsewhere nothing cancels,
    and the two-sided form keeps the roots continuous through delta = 0.
    """
    sx2, sy2, d = inst.sigma_x2, inst.sigma_y2, inst.delta
    if sx2 == sy2:
        return [-d / 2.0]
    disc = d * d + 2.0 * (sx2 - sy2) * 0.5 * math.log(sx2 / sy2)
    prod = sx2 * sy2 * disc
    # below the normal range the product sheds digits; take roots first
    root = (math.sqrt(prod) if prod >= sys.float_info.min
            else math.sqrt(sx2) * math.sqrt(sy2) * math.sqrt(disc))
    if abs(sx2 * d) <= 0.5 * root:
        return sorted([(-sx2 * d + root) / (sx2 - sy2),
                       (-sx2 * d - root) / (sx2 - sy2)])
    q = -(sx2 * d + math.copysign(root, d))
    c = sx2 * d * d - sx2 * sy2 * math.log(sx2 / sy2)
    return sorted([q / (sx2 - sy2), c / q])


def normal_cdf(x: float, sigma2: float) -> float:
    if sigma2 <= 0.0:
        raise ValidationError(f"variance must be positive, got {sigma2!r}")
    return 0.5 * math.erfc(-x / math.sqrt(2.0 * sigma2))


def _tail(x: float, sigma2: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0 * sigma2))


def _step_cdf(x: float) -> float:
    return 1.0 if x >= 0.0 else 0.0


def _check_params(a: float, b: float, delta: float) -> None:
    if not (0.0 <= a <= b <= 0.5):
        raise ValidationError(
            f"need 0 <= a <= b <= 1/2, got a={a!r}, b={b!r}"
        )
    if not math.isfinite(delta):
        raise ValidationError(f"delta must be finite, got {delta!r}")


def _dual_objective(ap: float, sx2: float, sy2: float, d: float) -> float:
    """F_X(a') - F_Y(a' + delta), evaluated cancellation-free.

    Both CDFs sit near 1 when both arguments are in the upper bulk; the
    complementary form keeps relative accuracy there.
    """
    zx = ap / math.sqrt(sx2)
    zy = (ap + d) / math.sqrt(sy2)
    if zx + zy > 0.0:
        return _tail(ap + d, sy2) - _tail(ap, sx2)
    return normal_cdf(ap, sx2) - normal_cdf(ap + d, sy2)


_erfc = np.frompyfunc(math.erfc, 1, 1)  # numpy has no erfc


def _dual_objective_grid(ap: np.ndarray, sx2: float, sy2: float,
                         d: float) -> np.ndarray:
    """_dual_objective at every point of ap, bit for bit.

    Each point takes its own branch's two erfc calls: the upper branch's
    tails are the lower branch's CDFs at negated arguments, in swapped
    order.  A huge delta overflows (ap + d) / sigma to inf, which erfc maps
    to 0 as the scalar code does.
    """
    with np.errstate(over="ignore"):
        apd = ap + d
        upper = ap / math.sqrt(sx2) + apd / math.sqrt(sy2) > 0.0
        sign = np.where(upper, 1.0, -1.0)
        fx = 0.5 * _erfc(sign * ap / math.sqrt(2.0 * sx2)).astype(float)
        fy = 0.5 * _erfc(sign * apd / math.sqrt(2.0 * sy2)).astype(float)
    return np.where(upper, fy - fx, fx - fy)


def lambda_binary(a: float, b: float, delta: float) -> float:
    """Closed-form limit curve of the binary excess-cost probability.

    Requires 0 <= a <= b <= 1/2.  The optimal threshold is the larger
    density crossing; for equal parameters that is the midpoint -delta/2,
    where the objective F(-delta/2) - F(delta/2) is <= 0 for delta > 0, so
    the final clamp gives the positive-shift cutoff.  Zero-variance edges
    degenerate to step CDFs: a = b = 0 is 1 exactly when delta < 0, and
    a = 0 < b takes its threshold at the atom.  A non-finite delta raises.
    """
    _check_params(a, b, delta)
    sx2 = a * (1.0 - a)
    sy2 = b * (1.0 - b)
    if sy2 == 0.0:
        return 1.0 if delta < 0.0 else 0.0
    if sx2 == 0.0:
        # X fluctuation is a point mass; the best threshold is its atom.
        return min(1.0, max(0.0, _tail(delta, sy2)))
    inst = BinaryCltInstance(sigma_x2=sx2, sigma_y2=sy2, delta=delta)
    a2 = crossing_points(inst)[-1]
    return min(1.0, max(0.0, _dual_objective(a2, sx2, sy2, delta)))


def lambda_dual_grid(a: float, b: float, delta: float,
                     grid: int = 2001) -> float:
    """Grid maximization of F_X(a') - F_Y(a' + delta) with a golden polish.

    Independent oracle for lambda_binary: no crossing formula, just the
    supremum definition over a threshold range of six standard deviations.
    The grid is evaluated as arrays with the scalar objective's operations;
    the polish runs on Python floats, where an overflow to inf is silent.
    """
    _check_params(a, b, delta)
    sx2 = a * (1.0 - a)
    sy2 = b * (1.0 - b)
    if sy2 == 0.0:
        return 1.0 if delta < 0.0 else 0.0
    smax = math.sqrt(max(sx2, sy2))
    pts = np.linspace(-6.0 * smax, 6.0 * smax, max(int(grid), 3))

    if sx2 == 0.0:
        fun = lambda ap: _step_cdf(ap) - normal_cdf(ap + delta, sy2)
        vals = [fun(p) for p in pts.tolist()]
    else:
        fun = lambda ap: _dual_objective(ap, sx2, sy2, delta)
        vals = _dual_objective_grid(pts, sx2, sy2, delta)
    idx = int(np.argmax(vals))
    lo = float(pts[max(idx - 1, 0)])
    hi = float(pts[min(idx + 1, len(pts) - 1)])
    for _ in range(60):
        m1 = lo + (hi - lo) * 0.382
        m2 = lo + (hi - lo) * 0.618
        if fun(m1) >= fun(m2):
            hi = m2
        else:
            lo = m1
    best = max(float(vals[idx]), fun(0.5 * (lo + hi)))
    return min(1.0, max(0.0, best))
