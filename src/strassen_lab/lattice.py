"""Exact excess-cost probabilities for n-fold products via type lattices.

The n-letter problem G_alpha(P_X^n, P_Y^n) with per-symbol average cost
collapses to an outer Strassen problem between the laws of the empirical
types, whose inner cost is the plain OT value between the induced
distributions.  That value is the best of the few dual vertices of c
(``transport.dual_vertices``), so the whole inner table is one max of
outer sums over the vertices, filled block by block with no solver per
pair of types.  This module builds those lattices, solves the outer problem
through Strassen's dual G = max_E mu(E) - nu(Gamma(E)), and provides the
coupling constructions used to realize the optimum.

When every row's admissible set is an interval and the intervals move
monotonically (as for Bernoulli laws under Hamming cost), witness sets E
are chains of rows, and one chain DP finds them.  It runs with two
scores: the gain mu(E) - nu(Gamma(E)), maximised, and the loss
nu(Gamma(E)) + mu(E^c), minimised, so both G and 1 - G get a witness on
their own scale.  Signed scores are ranked exactly in log space, by
(sign, sign * log|value|).  The DP ends with every chain's four masses,
so G and 1 - G are read off that end state, and only the winning
witness sets, two for each orientation of the table, are evaluated
exactly.  Other lattices go to a dense max-flow.

Numerical posture: type masses are kept in log space end to end; every
reported probability is assembled from sums of same-sign terms selected
through a dual witness, never by subtracting two near-equal bulk sums.
"""
from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import flow
from .curves import RateCurve
from .errors import SizeGuardError, ValidationError
from .measures import Dist, JointDist
from .transport import (ADMISS_EPS, CostMatrix, dual_vertices, ecp, ot_value,
                        tight_cells)

ENUM_GUARD = 10_000_000
DENSE_GUARD = 300_000
PAIR_GUARD = 2_000_000


@dataclass(frozen=True)
class TypeVector:
    """An empirical histogram: nonnegative counts summing to n."""

    counts: tuple
    n: int

    def __post_init__(self) -> None:
        counts = tuple(int(v) for v in self.counts)
        object.__setattr__(self, "counts", counts)
        if self.n < 1:
            raise ValidationError("n must be a positive integer")
        if any(v < 0 for v in counts) or sum(counts) != self.n:
            raise ValidationError(
                f"counts {counts!r} are not a composition of {self.n}"
            )

    def induced(self) -> Dist:
        return Dist.from_mass([v / self.n for v in self.counts])

    def fractions(self) -> tuple:
        return tuple(v / self.n for v in self.counts)


@lru_cache(maxsize=64)
def enum_types(n: int, k: int) -> tuple[TypeVector, ...]:
    """All compositions of n into k nonnegative parts, lexicographic."""
    if n < 1 or k < 1:
        raise ValidationError("need n >= 1 and k >= 1")
    count = math.comb(n + k - 1, k - 1)
    if count > ENUM_GUARD:
        raise SizeGuardError(
            f"type lattice has {count} points, beyond the {ENUM_GUARD} guard"
        )
    return tuple(TypeVector(c, n) for c in _compositions(n, k))


def _compositions(n: int, k: int):
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


# cephes lgam, the routine behind scipy.special.gammaln: log(sqrt(2 pi)) and
# the Stirling-series coefficients it uses below x = 1000, highest first.
LS2PI = 0.91893853320467274178
STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
            7.93650340457716943945e-4, -2.77777777730099687205e-3,
            8.33333333333331927722e-2)


@lru_cache(maxsize=32)
def _log_factorials(n: int) -> np.ndarray:
    """log(k!) for k = 0..n, computed as cephes lgam(k + 1).

    A port of lgam's integer path with libm's log (``math.log``), so every
    entry equals scipy.special.gammaln(k + 1) bit for bit: log(k!) of the
    exact product below k = 12, Stirling's series from there on.
    """
    out = [0.0] * (n + 1)
    z = 1.0
    for k in range(2, min(n, 11) + 1):
        z *= k
        out[k] = math.log(z)
    for k in range(12, n + 1):
        x = float(k + 1)
        q = (x - 0.5) * math.log(x) - x + LS2PI
        p = 1.0 / (x * x)
        if x >= 1000.0:
            q += ((7.9365079365079365079365e-4 * p
                   - 2.7777777777777777777778e-3) * p
                  + 0.0833333333333333333333) / x
        else:
            poly = STIRLING[0]
            for coef in STIRLING[1:]:
                poly = poly * p + coef
            q += poly / x
        out[k] = q
    arr = np.array(out)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=32)
def _counts_matrix(n: int, k: int) -> np.ndarray:
    arr = np.array([t.counts for t in enum_types(n, k)], dtype=np.int64)
    arr.setflags(write=False)
    return arr


def type_log_prob(t: TypeVector, p: Dist) -> float:
    """log of the product-law probability of the type class of t under p."""
    if len(t.counts) != len(p):
        raise ValidationError(
            f"type has {len(t.counts)} symbols, distribution has {len(p)}"
        )
    total = math.lgamma(t.n + 1)
    for cnt, mass in zip(t.counts, p.mass):
        if cnt == 0:
            continue
        if mass == 0.0:
            return -math.inf
        total += cnt * math.log(mass) - math.lgamma(cnt + 1)
    return total


@dataclass(frozen=True, eq=False)
class TypeMeasure:
    """A type lattice with the log-probabilities its base law induces."""

    lattice: tuple
    logmass: np.ndarray

    def __post_init__(self) -> None:
        lm = np.asarray(self.logmass, dtype=float)
        lm.setflags(write=False)
        object.__setattr__(self, "logmass", lm)
        if len(self.lattice) != len(lm):
            raise ValidationError("lattice and logmass must align")
        total = _lse(lm)
        if abs(total) > 1e-9:
            raise ValidationError(
                f"type masses sum to exp({total!r}), not 1"
            )

    @classmethod
    def of(cls, p: Dist, n: int) -> "TypeMeasure":
        k = len(p)
        lattice = enum_types(n, k)
        counts = _counts_matrix(n, k)
        mass = p.as_array()
        logp = np.where(mass > 0.0, np.log(np.where(mass > 0.0, mass, 1.0)),
                        -math.inf)
        with np.errstate(invalid="ignore"):
            # 0 * (-inf) appears on zero-count coordinates and is discarded
            contrib = np.where(counts > 0, counts * logp[None, :], 0.0)
        log_fact = _log_factorials(n)
        logmass = (log_fact[n] - log_fact[counts].sum(axis=1)
                   + contrib.sum(axis=1))
        return cls(lattice=lattice, logmass=logmass)

    def __len__(self) -> int:
        return len(self.lattice)

    def mass(self) -> np.ndarray:
        return np.exp(self.logmass)

    def prob(self, index_set) -> float:
        idx = np.fromiter((int(i) for i in index_set), dtype=np.int64)
        if idx.size == 0:
            return 0.0
        return float(np.exp(_lse(self.logmass[idx])))

    def as_dist(self) -> Dist:
        """The lattice as a plain Dist (masses renormalized from log space)."""
        m = self.mass()
        m = m / math.fsum(m)
        return Dist.from_mass(m, labels=tuple(t.counts for t in self.lattice))


@dataclass(frozen=True, eq=False)
class NestedInstance:
    """Outer Strassen instance over two type lattices."""

    mu: TypeMeasure
    nu: TypeMeasure
    inner_cost: np.ndarray
    cost: CostMatrix
    n: int


#: Entries of one scratch block in ``_inner_cost_table`` (8 MB of floats).
_TABLE_BLOCK = 1 << 20


@lru_cache(maxsize=16)
def _inner_cost_table(c: CostMatrix, n: int) -> np.ndarray:
    """OT values between every pair of induced type laws, clipped at 0.

    Each entry is the best dual vertex of c, max_v F_v . x + G_v . y, so
    the table is filled block by block, one vertex at a time, with one
    small scratch block and no full-size temporary.  Alphabets past the
    vertex kernel solve each pair by min-cost flow.
    """
    kx, ky = c.shape
    fx = _counts_matrix(n, kx) / n
    fy = _counts_matrix(n, ky) / n
    if (kx, ky) != (2, 2) and len(fx) * len(fy) > PAIR_GUARD:
        raise SizeGuardError(
            f"inner cost table would have {len(fx) * len(fy)} entries"
        )
    table = np.empty((len(fx), len(fy)))
    verts = dual_vertices(c)
    if verts is None:
        carr = c.as_array()
        for i, x in enumerate(fx):
            for j, y in enumerate(fy):
                table[i, j] = ot_value(x, y, carr)
    else:
        f, g = verts
        row_part, col_part = fx @ f.T, fy @ g.T
        step = max(1, _TABLE_BLOCK // len(fy))
        scratch = np.empty((min(step, len(fx)), len(fy)))
        for lo in range(0, len(fx), step):
            block = table[lo:lo + step]
            tmp = scratch[:len(block)]
            np.add.outer(row_part[lo:lo + step, 0], col_part[:, 0], out=block)
            for v in range(1, len(f)):
                np.add.outer(row_part[lo:lo + step, v], col_part[:, v], out=tmp)
                np.maximum(block, tmp, out=block)
    np.maximum(table, 0.0, out=table)
    table.setflags(write=False)
    return table


def nested_instance(p_x: Dist, p_y: Dist, c: CostMatrix, n: int) -> NestedInstance:
    if (len(p_x), len(p_y)) != c.shape:
        raise ValidationError("marginal sizes do not match the cost table")
    mu = TypeMeasure.of(p_x, n)
    nu = TypeMeasure.of(p_y, n)
    return NestedInstance(mu=mu, nu=nu, inner_cost=_inner_cost_table(c, n),
                          cost=c, n=n)


# ---------------------------------------------------------------------------
# Outer Strassen solve on the lattice.
# ---------------------------------------------------------------------------

def _banded_view(adm: np.ndarray):
    """Interval structure of an admissibility table, if it has one.

    Returns ``(active_rows, lo, hi, empty_rows)`` when every row's admissible
    set is a contiguous interval and the interval endpoints are nondecreasing
    over the active rows; otherwise None.  Both conditions together are what
    the cut DP needs to enumerate witness sets exactly.
    """
    any_row = adm.any(axis=1)
    act = np.nonzero(any_row)[0]
    if act.size == 0:
        return None
    first = np.argmax(adm, axis=1)[act]
    last = (adm.shape[1] - 1 - np.argmax(adm[:, ::-1], axis=1))[act]
    counts = adm.sum(axis=1)[act]
    if not np.array_equal(counts, last - first + 1):
        return None
    if np.any(np.diff(first) < 0) or np.any(np.diff(last) < 0):
        return None
    return act, first, last, np.nonzero(~any_row)[0]


_LOG_HALF = math.log(0.5)


def _gain(log_e, log_g, log_ec, log_gc):
    """Score mu(E) - nu(Gamma(E)), as the logs of its plus and minus parts.

    As in _witness_values, a chain with mu(E) > 1/2 is scored through the
    equal form nu(Gamma(E)^c) - mu(E^c), which sums the smaller masses;
    summed directly, the bulk masses carry the lattices' normalization
    error (TypeMeasure admits 1e-9) and would outrank every deep-tail
    witness.
    """
    bulk = log_e > _LOG_HALF
    return np.where(bulk, log_gc, log_e), np.where(bulk, log_ec, log_g)


def _loss(log_e, log_g, log_ec, log_gc):
    """Score -(nu(Gamma(E)) + mu(E^c)), the chain's bound on 1 - G."""
    return -np.inf, np.logaddexp(log_g, log_ec)


def _signed_argmax(lpos, lneg) -> int:
    """First index of the largest exp(lpos) - exp(lneg), compared exactly.

    Values are ranked by the pair (sign, sign * log|value|) in
    lexicographic order, so no offset ever mixes the sign into the
    magnitude and relative precision survives at any depth.  The caller
    silences the warnings of -inf - -inf (a zero value) and of the terms
    outside the winning sign class, which are masked out.
    """
    diff = lpos - lneg
    pos = diff > 0.0
    if pos.any():
        logabs = lpos + np.log(-np.expm1(-diff))
        return int(np.argmax(np.where(pos, logabs, -np.inf)))
    zero = ~(diff < 0.0)
    if zero.any():
        return int(np.argmax(zero))
    return int(np.argmin(lneg + np.log(-np.expm1(diff))))


def _dp_chains(logmu: np.ndarray, lognu: np.ndarray, view,
               score) -> tuple[np.ndarray, tuple]:
    """Best witness chain ending at each active row, and its end state.

    A chain is a set E of active rows, plus the always-free rows.  Every
    chain carries the same log-sum state over the rows up to its end and
    the columns up to its span's end: mu(E), nu(Gamma(E)), mu of the rows
    it skipped and nu of the columns it left uncovered.  Because lo and hi
    are nondecreasing, appending row i to the chain ending at row j adds
    mu_i to the first, the span (max(hi_j, lo_i - 1), hi_i] to the second
    and the gap (hi_j, lo_i - 1] to the last; every chain that does not
    take row i adds mu_i to its skipped mass.  Slot 0 is the empty chain
    (hi = -1), so starting fresh is one more candidate and wins ties, ahead
    of the chains in row order.  ``score(log_e, log_g, log_ec, log_gc)``
    sees each candidate's mu(E), nu(Gamma(E)), mu(E^c) and nu(Gamma(E)^c)
    and returns the logs of the plus and minus parts of its value.

    Returns the parent pointers (the row before row i in its chain, or
    -1) and the end state: the four log-masses above for slot 0 and for
    the chain ending at each active row.  At the end every
    row after a chain's last one is skipped, and every column after its
    span is uncovered, so the state holds E^c and Gamma(E)^c whole, each
    summed from same-sign terms.  G and 1 - G are read off this state;
    only the two winning witness sets are then evaluated exactly.
    """
    act, lo, hi, empty = view
    logmu_a = logmu[act]
    m = len(act)
    # log mass of the active rows after row i, and of the columns from j on
    mu_after = np.append(np.logaddexp.accumulate(logmu_a[:0:-1])[::-1],
                         -np.inf)
    nu_suffix = np.append(np.logaddexp.accumulate(lognu[::-1])[::-1], -np.inf)
    nu_after = nu_suffix[hi + 1]
    log_e = np.full(m + 1, -np.inf)
    log_e[0] = _lse(logmu[empty])
    log_g = np.full(m + 1, -np.inf)
    log_skip = np.full(m + 1, -np.inf)
    log_gap = np.full(m + 1, -np.inf)
    last_hi = np.concatenate([[-1], hi])
    parent = np.full(m, -1, dtype=np.int64)
    # span[t] = log nu(hi_i - t .. hi_i) and gap[t] = log nu(lo_i - 1 - t ..
    # lo_i - 1) at step i; index -1 reads the empty sum
    span = np.full(len(lognu) + 1, -np.inf)
    gap = np.full(len(lognu) + 1, -np.inf)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for i in range(m):
            lo_i, hi_i = int(lo[i]), int(hi[i])
            np.logaddexp.accumulate(lognu[lo_i:hi_i + 1][::-1],
                                    out=span[:hi_i - lo_i + 1])
            np.logaddexp.accumulate(lognu[:lo_i][::-1], out=gap[:lo_i])
            prev = last_hi[:i + 1]
            skip = log_skip[:i + 1]
            cand_e = np.logaddexp(log_e[:i + 1], logmu_a[i])
            cand_g = np.logaddexp(
                log_g[:i + 1], span[np.minimum(hi_i - 1 - prev, hi_i - lo_i)])
            cand_gap = np.logaddexp(
                log_gap[:i + 1], gap[np.maximum(lo_i - 2 - prev, -1)])
            best = _signed_argmax(*score(
                cand_e, cand_g, np.logaddexp(skip, mu_after[i]),
                np.logaddexp(cand_gap, nu_after[i])))
            parent[i] = best - 1
            log_e[i + 1], log_g[i + 1] = cand_e[best], cand_g[best]
            log_skip[i + 1], log_gap[i + 1] = skip[best], cand_gap[best]
            log_skip[:i + 1] = np.logaddexp(skip, logmu_a[i])
    log_gc = np.logaddexp(log_gap, nu_suffix[last_hi + 1])
    return parent, (log_e, log_g, log_skip, log_gc)


def _chain_members(parent: np.ndarray, i: int) -> list[int]:
    out = []
    while i >= 0:
        out.append(i)
        i = parent[i]
    out.reverse()
    return out


def _merge_spans(chain, lo, hi):
    spans = []
    for i in chain:
        if spans and lo[i] <= spans[-1][1] + 1:
            spans[-1][1] = max(spans[-1][1], hi[i])
        else:
            spans.append([int(lo[i]), int(hi[i])])
    return spans


def _span_indices(spans) -> np.ndarray:
    if not spans:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([np.arange(a, b + 1) for a, b in spans])


def _lse(logs: np.ndarray) -> float:
    """log(sum(exp(logs))) in scipy.special.logsumexp's log1p form.

    The m entries equal to the max are left out of the shifted sum s, and
    the result is log1p(s / m) + log(m) + max, the same operations in the
    same order as scipy (1.17), so the two agree bit for bit.  Empty input
    gives -inf; a non-finite max (all -inf, or +inf) is returned as is.
    """
    if logs.size == 0:
        return -math.inf
    top = logs.max()
    if not np.isfinite(top):
        return float(top)
    at_top = logs == top
    m = np.float64(np.count_nonzero(at_top))
    s = np.exp(np.where(at_top, -np.inf, logs) - top).sum()
    return float(np.log1p(s / m) + np.log(m) + top)


def _chain_masks(chain, view, size_mu: int, size_nu: int):
    """Masks of the witness set E of one chain and of its enlargement."""
    act, lo, hi, empty = view
    in_e = np.zeros(size_mu, dtype=bool)
    in_e[act[chain]] = True
    in_e[empty] = True
    in_g = np.zeros(size_nu, dtype=bool)
    in_g[_span_indices(_merge_spans(chain, lo, hi))] = True
    return in_e, in_g


def _witness_values(logmu, lognu, in_e, in_g):
    """Exact (direct, complement-sum) values of a witness set E.

    direct   = mu(E) - nu(Gamma(E)), evaluated through whichever of the two
               algebraically equal forms sums the smaller masses;
    comp_sum = mu(E^c) + nu(Gamma(E)), the matching bound on 1 - G
               (a sum of same-sign terms, so it never cancels).
    """
    l_e, l_ec = _lse(logmu[in_e]), _lse(logmu[~in_e])
    l_g, l_gc = _lse(lognu[in_g]), _lse(lognu[~in_g])
    mass_e = math.exp(l_e)
    if mass_e > 0.5:
        direct = math.exp(l_gc) - math.exp(l_ec)
    else:
        direct = mass_e - math.exp(l_g)
    return direct, math.exp(l_ec) + math.exp(l_g)


def _side_candidates(logmu, lognu, view):
    """(direct, complement-sum) of the best G and the best 1 - G chain.

    Both DP runs end with every chain's four masses, so the winners are
    picked from that state, and only their witness sets are evaluated.
    """
    runs = [_dp_chains(logmu, lognu, view, score) for score in (_gain, _loss)]
    state = np.concatenate([end for _, end in runs], axis=1)
    slots = state.shape[1] // len(runs)
    out = []
    for score in (_gain, _loss):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            best = _signed_argmax(*score(*state))
        chain = _chain_members(runs[best // slots][0], best % slots - 1)
        out.append(_witness_values(
            logmu, lognu, *_chain_masks(chain, view, len(logmu), len(lognu))))
    return out


def _lattice_ecp_banded(logmu, lognu, adm):
    view_a, view_b = _banded_view(adm), _banded_view(adm.T)
    if view_a is None or view_b is None:
        return None
    a = _side_candidates(logmu, lognu, view_a)
    b = _side_candidates(lognu, logmu, view_b)
    g = max(0.0, max(direct for direct, _ in a + b))
    comp = min(1.0, min(comp_sum for _, comp_sum in a + b))
    return min(g, 1.0), max(comp, 0.0)


def _lattice_ecp_dense(logmu, lognu, adm):
    if adm.size > DENSE_GUARD:
        raise SizeGuardError(
            f"dense outer flow needs {adm.size} cells; no banded structure found"
        )
    mu_lin = np.exp(logmu)
    nu_lin = np.exp(lognu)
    _, _, witness = flow.bipartite_max_flow(mu_lin, nu_lin, adm)
    rows = np.fromiter(witness, dtype=np.int64) if witness else np.empty(0, np.int64)
    in_e = np.zeros(len(logmu), dtype=bool)
    in_e[rows] = True
    in_g = adm[in_e].any(axis=0) if rows.size else np.zeros(len(lognu), bool)
    g, comp = _witness_values(logmu, lognu, in_e, in_g)
    return min(max(g, 0.0), 1.0), min(max(comp, 0.0), 1.0)


def gn_tails(p_x: Dist, p_y: Dist, c: CostMatrix, alpha: float,
             n: int) -> tuple[float, float]:
    """(G, 1-G) for the n-fold product problem, each summed on its own scale.

    The pair is computed from dual witnesses rather than from each other, so
    both stay meaningful when one of them is at the 1e-300 scale.
    """
    inst = nested_instance(p_x, p_y, c, n)
    adm = inst.inner_cost <= alpha + ADMISS_EPS
    if not adm.any():
        return 1.0, 0.0
    logmu, lognu = inst.mu.logmass, inst.nu.logmass
    banded = _lattice_ecp_banded(logmu, lognu, adm)
    if banded is not None:
        return banded
    return _lattice_ecp_dense(logmu, lognu, adm)


def exact_gn(p_x: Dist, p_y: Dist, c: CostMatrix, alpha: float, n: int) -> float:
    """G_alpha(P_X^n, P_Y^n), exactly, through the nested formula."""
    return gn_tails(p_x, p_y, c, alpha, n)[0]


def direct_gn_oracle(p_x: Dist, p_y: Dist, c: CostMatrix, alpha: float,
                     n: int) -> float:
    """The same probability solved on the raw product space (tests only)."""
    kx, ky = c.shape
    if kx ** n * ky ** n > 1_000_000:
        raise SizeGuardError(
            f"product space has {kx ** n * ky ** n} cells, beyond the guard"
        )
    xs = list(itertools.product(range(kx), repeat=n))
    ys = list(itertools.product(range(ky), repeat=n))
    px = np.array([math.prod(p_x.mass[s] for s in seq) for seq in xs])
    py = np.array([math.prod(p_y.mass[s] for s in seq) for seq in ys])
    carr = c.as_array()
    cost = np.array([[sum(carr[a, b] for a, b in zip(sx, sy)) / n
                      for sy in ys] for sx in xs])
    adm = cost <= alpha + ADMISS_EPS
    value, _, _ = flow.bipartite_max_flow(px, py, adm)
    return max(0.0, 1.0 - value)


def optimal_outer_plan(instance: NestedInstance, alpha: float) -> JointDist:
    """An optimal coupling of the two type laws for the outer problem."""
    inner = CostMatrix.from_rows(instance.inner_cost)
    return ecp(instance.mu.as_dist(), instance.nu.as_dist(), inner, alpha).plan


# ---------------------------------------------------------------------------
# Coupling constructions.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _optimal_joint_type(tx: tuple, ty: tuple, c: CostMatrix) -> tuple:
    """The lexicographically smallest cost-optimal integer coupling of types.

    The min-cost flow gives optimal potentials; the lexicographic max-flow
    then runs in exact integers on the cells tight against them.  The
    result is re-verified.
    """
    carr = c.as_array()
    _, f, g, vstar = flow.transport_min_cost(tx, ty, carr)
    mat = tuple(map(tuple, flow.lex_min_coupling(tx, ty,
                                                 tight_cells(carr, f, g))))
    if (any(v < 0 for row in mat for v in row)
            or [sum(row) for row in mat] != list(tx)
            or [sum(col) for col in zip(*mat)] != list(ty)):
        raise ValidationError("tie-broken inner coupling failed verification")
    if float(np.sum(np.array(mat) * carr)) > vstar + 1e-6:
        raise ValidationError("tie-broken inner coupling lost optimality")
    return mat


class TypeClassSampler:
    """Samples (x^n, y^n) pairs realizing an outer coupling of type laws.

    For each drawn type pair the emitted sequences are a uniformly shuffled
    arrangement of the optimal inner joint type, which makes the sequence
    marginals exactly the product laws while the excess-cost event keeps the
    outer coupling's probability.
    """

    def __init__(self, trips, n: int):
        self._trips = trips  # list of (prob, joint_counts_matrix)
        self.n = n
        self._cum = list(itertools.accumulate(p for p, _ in trips))

    def sample(self, rng: random.Random) -> tuple[tuple, tuple]:
        u = rng.random() * self._cum[-1]
        idx = bisect_right(self._cum, u)
        idx = min(idx, len(self._trips) - 1)
        _, mat = self._trips[idx]
        pairs = [(i, j) for i, row in enumerate(mat)
                 for j, v in enumerate(row) for _ in range(v)]
        rng.shuffle(pairs)
        xs, ys = zip(*pairs)
        return tuple(xs), tuple(ys)

    def law(self) -> dict:
        """Exact sampler law as {(x_seq, y_seq): probability}; small n only."""
        total_arrangements = 0
        for _, mat in self._trips:
            flat = [v for row in mat for v in row]
            total_arrangements += _multinomial(self.n, flat)
        if total_arrangements > 200_000:
            raise SizeGuardError(
                f"law enumeration needs {total_arrangements} arrangements"
            )
        out: dict = {}
        for prob, mat in self._trips:
            pairs = Counter()
            for i, row in enumerate(mat):
                for j, v in enumerate(row):
                    if v:
                        pairs[(i, j)] += v
            count = _multinomial(self.n, list(pairs.values()))
            share = prob / count
            for arrangement in _multiset_permutations(pairs, self.n):
                xs, ys = zip(*arrangement)
                key = (tuple(xs), tuple(ys))
                out[key] = out.get(key, 0.0) + share
        return out


def _multinomial(n: int, parts) -> int:
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


def _multiset_permutations(counter: Counter, n: int):
    if n == 0:
        yield ()
        return
    for item in sorted(counter):
        if counter[item] == 0:
            continue
        counter[item] -= 1
        for rest in _multiset_permutations(counter, n - 1):
            yield (item,) + rest
        counter[item] += 1


def lift_coupling(pi: JointDist, instance: NestedInstance) -> TypeClassSampler:
    """Realize an outer type coupling as a sampler of sequence pairs."""
    lx, ly = len(instance.mu), len(instance.nu)
    if pi.shape != (lx, ly):
        raise ValidationError(
            f"coupling is {pi.shape} but lattices have sizes {lx}, {ly}"
        )
    mx = np.array(pi.marginal_x())
    my = np.array(pi.marginal_y())
    if (np.abs(mx - instance.mu.mass()).max() > 1e-9
            or np.abs(my - instance.nu.mass()).max() > 1e-9):
        raise ValidationError("coupling marginals do not match the type laws")
    trips = []
    mat = pi.as_array()
    for i, j in np.argwhere(mat > 0.0):
        tx = instance.mu.lattice[int(i)].counts
        ty = instance.nu.lattice[int(j)].counts
        joint = _optimal_joint_type(tx, ty, instance.cost)
        trips.append((float(mat[i, j]), joint))
    return TypeClassSampler(trips, instance.n)


def splitting_coupling(mu: TypeMeasure, nu: TypeMeasure, a_set,
                       b_set) -> JointDist:
    """Mixture coupling with guaranteed mass on a target rectangle.

    With p = min(mu(A), nu(B)), couples the conditional laws on A x B with
    weight p and the normalized leftovers as an independent product with
    weight 1 - p; the result has marginals (mu, nu) and puts at least p on
    A x B.
    """
    lx, ly = len(mu), len(nu)
    if lx * ly > 4_000_000:
        raise SizeGuardError("splitting matrix would be too large")
    mvec = mu.mass()
    nvec = nu.mass()
    a_mask = np.zeros(lx, dtype=bool)
    a_mask[np.fromiter((int(i) for i in a_set), dtype=np.int64,
                       count=len(a_set))] = True
    b_mask = np.zeros(ly, dtype=bool)
    b_mask[np.fromiter((int(j) for j in b_set), dtype=np.int64,
                       count=len(b_set))] = True
    pa = float(mvec[a_mask].sum())
    pb = float(nvec[b_mask].sum())
    p = min(pa, pb)
    if p <= 1e-300:
        return JointDist.from_array(np.outer(mvec, nvec))
    mu_a = np.where(a_mask, mvec, 0.0) / pa
    nu_b = np.where(b_mask, nvec, 0.0) / pb
    if p >= 1.0 - 1e-15:
        return JointDist.from_array(np.outer(mu_a, nu_b))
    mu_rest = (mvec - p * mu_a) / (1.0 - p)
    nu_rest = (nvec - p * nu_b) / (1.0 - p)
    out = p * np.outer(mu_a, nu_b) + (1.0 - p) * np.outer(mu_rest, nu_rest)
    return JointDist.from_array(np.clip(out, 0.0, None))


def exponent_series(p_x: Dist, p_y: Dist, c: CostMatrix, alpha_fn,
                    n_list, mode: str) -> RateCurve:
    """Exponential decay estimates -(1/n) log of the relevant tail.

    ``mode`` is "lower-tail" (the tail is 1 - G, mass failing to exceed
    alpha) or "upper-tail" (the tail is G itself).  A zero tail yields the
    +inf sentinel for that n.
    """
    if mode not in ("lower-tail", "upper-tail"):
        raise ValidationError(f"unknown mode {mode!r}")
    ns = [int(v) for v in n_list]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValidationError("n values must be strictly increasing")
    alphas, gs, comps, es = [], [], [], []
    for n in ns:
        alpha = float(alpha_fn(n))
        g, comp = gn_tails(p_x, p_y, c, alpha, n)
        tail = comp if mode == "lower-tail" else g
        e = math.inf if tail <= 0.0 else -math.log(tail) / n
        alphas.append(alpha)
        gs.append(g)
        comps.append(comp)
        es.append(e)
    return RateCurve(
        params=tuple(float(n) for n in ns),
        values=tuple(es),
        meta={"kind": f"exponent-series:{mode}", "alpha": tuple(alphas),
              "gn": tuple(gs), "complement": tuple(comps)},
    )
