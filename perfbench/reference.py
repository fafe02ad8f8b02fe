"""Reference values computed without strassen_lab.

Every benchmark check compares the program against one of these, or
against a property the method must have.  Nothing here imports the
program: the binary tails are bracketed by a greedy flow and its min cut
in extended precision, the dense outer problem is a HiGHS LP, and the
binary rates are the closed forms written out again.
"""
from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

#: Admissibility slack on the cost threshold; cost ties at alpha are
#: admissible, as in the program.
TIE_EPS = 1e-12
#: HiGHS defaults allow 1e-7 of constraint violation, which shows as 1e-7
#: of error in an outer max-flow value; the checks need 1e-9.
LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
              "dual_feasibility_tolerance": 1e-10}


# ---------------------------------------------------------------------------
# Binary tails: an exact bracket from a feasible flow and a witness set.

def band_width(alpha: float, n: int) -> int:
    """Largest |i - j| whose Hamming type cost |i - j|/n is <= alpha."""
    return math.floor((Fraction(alpha) + Fraction(TIE_EPS)) * n)


def binomial_masses(mass0: float, mass1: float, n: int) -> list:
    """Type-class masses of Bern on the lattice i = count of symbol 0.

    Built from the exact binary values of the two float masses, scaled to
    sum to one, and exact integer binomials.  The scaling matters: 0.1 and
    0.9 as floats sum to 1 + 5.6e-17, which over n = 1600 letters would
    shift a bulk-sized witness difference by 1e-13, far above a 1e-37 tail.
    """
    total = Decimal(mass0) + Decimal(mass1)
    m0, m1 = Decimal(mass0) / total, Decimal(mass1) / total
    out = []
    coef = 1
    for i in range(n + 1):
        out.append(Decimal(coef) * m0 ** i * m1 ** (n - i))
        coef = coef * (n - i) // (i + 1)
    return out


def binary_bracket(mass_x, mass_y, alpha: float, n: int, digits: int = 120):
    """Bounds on (G, 1 - G) for two Bernoulli products under Hamming cost.

    The outer graph links lattice points i and j when |i - j| <= d; both
    interval endpoints grow with i, so filling the lowest open j first is a
    maximum flow.  Its value F gives G <= 1 - F and 1 - G >= F.  The source
    side E of the residual graph is a witness set: G >= mu(E) - nu(Gamma(E))
    and 1 - G <= mu(E^c) + nu(Gamma(E)).  The four bounds are Decimals.
    """
    d = band_width(alpha, n)
    with localcontext() as ctx:
        ctx.prec = digits
        mu = binomial_masses(mass_x[0], mass_x[1], n)
        nu = binomial_masses(mass_y[0], mass_y[1], n)
        zero = Decimal(0)
        resid = list(nu)
        left = list(mu)
        flows_into = [[] for _ in range(n + 1)]  # j -> [i with flow i->j]
        total = zero
        p = 0
        for i in range(n + 1):
            p = max(p, i - d)
            top = min(n, i + d)
            while left[i] > zero and p <= top:
                take = min(left[i], resid[p])
                if take > zero:
                    left[i] -= take
                    resid[p] -= take
                    total += take
                    flows_into[p].append(i)
                if resid[p] == zero:
                    p += 1
                else:
                    break
        # Residual reachability from the source: x with spare supply, the
        # y band of every reached x, and x feeding a reached y.
        reached_x = [left[i] > zero for i in range(n + 1)]
        reached_y = [False] * (n + 1)
        stack = [i for i in range(n + 1) if reached_x[i]]
        next_y = list(range(n + 2))  # path-halving "next unreached y"

        def find(j):
            while next_y[j] != j:
                next_y[j] = next_y[next_y[j]]
                j = next_y[j]
            return j

        while stack:
            i = stack.pop()
            j = find(max(0, i - d))
            while j <= min(n, i + d):
                reached_y[j] = True
                next_y[j] = j + 1
                for src in flows_into[j]:
                    if not reached_x[src]:
                        reached_x[src] = True
                        stack.append(src)
                j = find(j + 1)
        mu_e = sum((mu[i] for i in range(n + 1) if reached_x[i]), zero)
        mu_ec = sum((mu[i] for i in range(n + 1) if not reached_x[i]), zero)
        nu_g = sum((nu[j] for j in range(n + 1) if reached_y[j]), zero)
        one = mu_e + mu_ec
        return {
            "g_lo": mu_e - nu_g,
            "g_hi": one - total,
            "comp_lo": total,
            "comp_hi": mu_ec + nu_g,
            # rounding of sums of about n terms of size <= 1
            "atol": Decimal(10) ** (6 - digits),
        }


def within_bracket(value: float, bracket: dict, side: str,
                   rtol: float) -> bool:
    """Whether a float lies in the bracket's [lo, hi] for side "g" or
    "comp", up to a relative tolerance and the bracket's own rounding."""
    lo, hi = bracket[side + "_lo"], bracket[side + "_hi"]
    v = Decimal(value)
    slack = Decimal(rtol) * max(abs(lo), abs(hi)) + bracket["atol"]
    return lo - slack <= v <= hi + slack


# ---------------------------------------------------------------------------
# Dense lattices.

def type_log_masses(counts: np.ndarray, mass) -> np.ndarray:
    """Multinomial log-probabilities of the given type count vectors."""
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts[0].sum())
    out = np.empty(len(counts))
    logm = [math.log(v) if v > 0 else -math.inf for v in mass]
    for r, row in enumerate(counts):
        val = math.lgamma(n + 1)
        for cnt, lm in zip(row, logm):
            if cnt:
                val += cnt * lm - math.lgamma(cnt + 1)
        out[r] = val
    return out


def ot_lp(px, py, cost) -> float:
    """Optimal transport value by a HiGHS LP over couplings."""
    cost = np.asarray(cost, dtype=float)
    m, k = cost.shape
    a_eq = np.zeros((m + k, m * k))
    for i in range(m):
        a_eq[i, i * k:(i + 1) * k] = 1.0
    for j in range(k):
        a_eq[m + j, j::k] = 1.0
    res = linprog(cost.reshape(-1), A_eq=a_eq,
                  b_eq=np.concatenate([px, py]), bounds=(0, None),
                  method="highs", options=LP_OPTIONS)
    if res.status != 0:
        raise RuntimeError(f"OT LP failed: {res.message}")
    return float(res.fun)


def outer_g_lp(mu: np.ndarray, nu: np.ndarray, adm: np.ndarray) -> float:
    """G = 1 - max flow over the admissible cells, as a sparse LP."""
    rows, cols = np.nonzero(adm)
    if rows.size == 0:
        return 1.0
    nv = rows.size
    idx = np.arange(nv)
    a_ub = coo_matrix(
        (np.ones(2 * nv), (np.concatenate([rows, len(mu) + cols]),
                           np.concatenate([idx, idx]))),
        shape=(len(mu) + len(nu), nv)).tocsr()
    res = linprog(-np.ones(nv), A_ub=a_ub, b_ub=np.concatenate([mu, nu]),
                  bounds=(0, None), method="highs", options=LP_OPTIONS)
    if res.status != 0:
        raise RuntimeError(f"outer LP failed: {res.message}")
    return 1.0 + float(res.fun)


# ---------------------------------------------------------------------------
# Binary rate closed forms.

def kl_bern(q: float, p: float) -> float:
    """D(Bern(q) || Bern(p))."""
    out = 0.0
    for x, y in ((q, p), (1.0 - q, 1.0 - p)):
        if x > 0.0:
            if y <= 0.0:
                return math.inf
            out += x * math.log(x / y)
    return out


def rate_f_closed(a: float, b: float, alpha: float) -> float:
    """Lower-tail rate: min of max(D(q||a), D(q'||b)) over |q - q'| <= alpha.

    For a < b the optimum moves both laws toward each other until
    q' = q + alpha, where the two divergences cross (one rises, one falls).
    """
    if abs(a - b) <= alpha + TIE_EPS:
        return 0.0
    a, b = min(a, b), max(a, b)
    lo, hi = a, b - alpha
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kl_bern(mid, a) < kl_bern(mid + alpha, b):
            lo = mid
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    return max(kl_bern(q, a), kl_bern(q + alpha, b))


def rate_g_closed(a: float, b: float, alpha: float, steps: int = 4000) -> float:
    """Upper-tail rate for Bernoulli laws under Hamming cost.

    Drifting one law to Bern(t) costs D(t || own); the other law is then
    forced beyond cost alpha unless it reaches [t - alpha, t + alpha], which
    costs D(clamp || other).  The rate is the cheapest t where the forced
    side is the dearer one.  D(t || own) grows moving away from own, so the
    nearest such t on either side wins; it is found by an outward scan and
    a bisection on the last step.
    """
    if alpha < abs(a - b) - TIE_EPS:
        return 0.0

    def excess(t, own, other):
        partner = min(max(other, t - alpha), t + alpha)
        return kl_bern(partner, other) - kl_bern(t, own)

    best = math.inf
    for own, other in ((a, b), (b, a)):
        for end in (0.0, 1.0):
            prev = own
            for s in range(1, steps + 1):
                t = own + (end - own) * s / steps
                if excess(t, own, other) > 0.0:
                    lo, hi = prev, t
                    for _ in range(100):
                        mid = 0.5 * (lo + hi)
                        if excess(mid, own, other) > 0.0:
                            hi = mid
                        else:
                            lo = mid
                    best = min(best, kl_bern(hi, own))
                    break
                prev = t
    return best


def mdp_binary(a: float, b: float, delta: float) -> float:
    """Binary moderate-deviation rates from the two standard deviations.

    delta < 0 (lower tail): delta^2 / (2 (sigma_y - sigma_x)^2);
    delta > 0 (upper tail): delta^2 / (2 (sigma_x + sigma_y)^2).
    """
    sx = math.sqrt(a * (1.0 - a))
    sy = math.sqrt(b * (1.0 - b))
    spread = sy - sx if delta < 0.0 else sx + sy
    return delta * delta / (2.0 * spread * spread)
