"""Exact excess-cost probabilities for n-fold products via type lattices.

The n-letter problem G_alpha(P_X^n, P_Y^n) with per-symbol average cost
collapses to an outer Strassen problem between the laws of the empirical
types, whose inner cost is the plain OT value between the induced
distributions.  That value is the best of the few dual vertices of c
(``transport.dual_vertices``), so the whole inner table is one max of
outer sums over the vertices, filled block by block with no solver per
pair of types.  This module builds those lattices, solves the outer problem
as an exact max-flow between them, and provides the coupling constructions
used to realize the optimum.

The outer solve runs on Python ints.  A ``Dist`` is read as the law
m_i / sum(m) of its float masses' numerators over one power-of-two
denominator, and each type t weighs multinomial(t) prod m_i^t_i, made by
ratio recurrences (``_type_masses``).  Each side is scaled by the other
side's total, so both total the same integer T, and for the max-flow F
between them G = (T - F) / T and 1 - G = F / T, each rounded once.

When one alphabet has 2 letters, its types lie on a line and the inner
cost is convex along it, so every type of the other side admits an
interval of them, with ends in any order (a convex bipartite graph).
The ends come in closed form from the 2-source dual, with no inner table,
and Glover's greedy sweep along the line is the max-flow
(``flow.convex_max_flow``).  Lattices where both sides have 3 or more
letters go to the exact max-flow over the admissible cells of the inner
table.  ``TypeMeasure`` keeps each lattice's log masses, for the outer
plans and couplings.
"""
from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import flow
from .curves import RateCurve
from .errors import SizeGuardError, ValidationError
from .measures import Dist, JointDist
from .transport import (ADMISS_EPS, CostMatrix, dual_vertices, ot_value,
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


def enum_types(n: int, k: int) -> tuple[TypeVector, ...]:
    """All compositions of n into k nonnegative parts, lexicographic: one
    ``TypeVector`` per row of ``_counts_matrix(n, k)``, with its checks."""
    return tuple(TypeVector(row, n) for row in _counts_matrix(n, k).tolist())


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
    """Every type of n over k letters, one read-only int64 row each, in
    lexicographic order: the one enumeration of a lattice.  Stars and bars:
    each choice of k - 1 bars among n + k - 1 slots is one composition."""
    if n < 1 or k < 1:
        raise ValidationError("need n >= 1 and k >= 1")
    count = math.comb(n + k - 1, k - 1)
    if count > ENUM_GUARD:
        raise SizeGuardError(
            f"type lattice has {count} points, beyond the {ENUM_GUARD} guard"
        )
    combos = itertools.combinations(range(n + k - 1), k - 1)
    bars = np.fromiter(itertools.chain.from_iterable(combos), np.int64,
                       count * (k - 1)).reshape(count, k - 1)
    arr = np.diff(bars, axis=1, prepend=-1, append=n + k - 1) - 1
    arr.setflags(write=False)
    return arr


def _log_type_masses(counts: np.ndarray, p: Dist, n: int) -> np.ndarray:
    """log of the product-law probability of each type class, one per row."""
    mass = p.as_array()
    logp = np.where(mass > 0.0, np.log(np.where(mass > 0.0, mass, 1.0)),
                    -math.inf)
    with np.errstate(invalid="ignore"):
        # 0 * (-inf) appears on zero-count coordinates and is discarded
        contrib = np.where(counts > 0, counts * logp[None, :], 0.0)
    log_fact = _log_factorials(n)
    return log_fact[n] - log_fact[counts].sum(axis=1) + contrib.sum(axis=1)


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


def type_log_prob(t: TypeVector, p: Dist) -> float:
    """log of the product-law probability of the type class of t under p.

    Computed as ``TypeMeasure.of`` computes its masses, so the two agree
    bit for bit.
    """
    if len(t.counts) != len(p):
        raise ValidationError(
            f"type has {len(t.counts)} symbols, distribution has {len(p)}"
        )
    return float(_log_type_masses(np.array([t.counts]), p, t.n)[0])


@dataclass(frozen=True, eq=False)
class TypeMeasure:
    """A type lattice, one type per row of ``counts``, with the log masses
    its base law induces.  ``lattice`` builds the rows' ``TypeVector``s on
    first read; the solvers read only the two arrays."""

    counts: np.ndarray
    logmass: np.ndarray

    def __post_init__(self) -> None:
        lm = np.asarray(self.logmass, dtype=float)
        lm.setflags(write=False)
        object.__setattr__(self, "logmass", lm)
        if len(self.counts) != len(lm):
            raise ValidationError("lattice and logmass must align")
        total = _lse(lm)
        if abs(total) > 1e-9:
            raise ValidationError(
                f"type masses sum to exp({total!r}), not 1"
            )

    @classmethod
    def of(cls, p: Dist, n: int) -> "TypeMeasure":
        counts = _counts_matrix(n, len(p))
        return cls(counts=counts, logmass=_log_type_masses(counts, p, n))

    @cached_property
    def lattice(self) -> tuple[TypeVector, ...]:
        n = int(self.counts[0].sum())
        return tuple(TypeVector(row, n) for row in self.counts.tolist())

    def __len__(self) -> int:
        return len(self.logmass)

    def mass(self) -> np.ndarray:
        return np.exp(self.logmass)

    def prob(self, index_set) -> float:
        idx = np.fromiter((int(i) for i in index_set), dtype=np.int64)
        if idx.size == 0:
            return 0.0
        return float(np.exp(_lse(self.logmass[idx])))

    def normalized_mass(self) -> list[float]:
        """The type masses renormalized from log space to sum to 1."""
        m = self.mass()
        return (m / math.fsum(m)).tolist()

    def as_dist(self) -> Dist:
        """The lattice as a plain Dist (masses renormalized from log space)."""
        return Dist.from_mass(self.normalized_mass(),
                              labels=tuple(map(tuple, self.counts.tolist())))


@dataclass(frozen=True, eq=False)
class NestedInstance:
    """Outer Strassen instance over two type lattices."""

    mu: TypeMeasure
    nu: TypeMeasure
    inner_cost: np.ndarray
    cost: CostMatrix
    n: int


@lru_cache(maxsize=16)
def _inner_cost_table(c: CostMatrix, n: int) -> np.ndarray:
    """OT values between every pair of induced type laws, clipped at 0.

    Each entry is the best dual vertex of c, max_v F_v . x + G_v . y, so
    the table is one outer sum per vertex, folded in by a running maximum;
    ``PAIR_GUARD`` keeps the table and its one temporary at 16 MB each.
    Alphabets past the vertex kernel solve each pair by min-cost flow.
    """
    fx = _counts_matrix(n, c.shape[0]) / n
    fy = _counts_matrix(n, c.shape[1]) / n
    if len(fx) * len(fy) > PAIR_GUARD:
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
        np.add.outer(row_part[:, 0], col_part[:, 0], out=table)
        for v in range(1, len(f)):
            np.maximum(table, np.add.outer(row_part[:, v], col_part[:, v]),
                       out=table)
    np.maximum(table, 0.0, out=table)
    table.setflags(write=False)
    return table


def _check_sizes(p_x: Dist, p_y: Dist, c: CostMatrix) -> None:
    if (len(p_x), len(p_y)) != c.shape:
        raise ValidationError("marginal sizes do not match the cost table")


def nested_instance(p_x: Dist, p_y: Dist, c: CostMatrix, n: int) -> NestedInstance:
    _check_sizes(p_x, p_y, c)
    return NestedInstance(mu=TypeMeasure.of(p_x, n),
                          nu=TypeMeasure.of(p_y, n),
                          inner_cost=_inner_cost_table(c, n), cost=c, n=n)


# ---------------------------------------------------------------------------
# Outer Strassen solve on the lattice.
# ---------------------------------------------------------------------------

def _line_view(carr: np.ndarray, alpha: float, n: int):
    """The row interval of each column of a 2 x k cost at threshold alpha,
    from the cost alone: ``(lo, hi)``, int arrays over the columns in
    lattice order, with lo > hi where no row admits the column.

    Row i is the type (i, n - i) of the 2-letter side, t = i / n.  With
    s_j = c_1j - c_0j, the 2-source dual has the k candidate solutions
    f = (0, s_j), g_j = min(c_0, c_1 - s_j), so OT((t, 1 - t), y) =
    max_j s_j (1 - t) + g_j . y.  Each j therefore bounds t from one side:
    with room_j = alpha + ADMISS_EPS - s_j - g_j . y, a column y admits
    t >= -room_j / s_j where s_j > 0, t <= -room_j / s_j where s_j < 0, and
    nothing at all where s_j = 0 and room_j < 0.  The inner cost is convex
    along the line, so the rows between the ends are the ones admitted.
    """
    s = carr[1] - carr[0]
    g = np.minimum(carr[0], carr[1] - s[:, None])
    room = alpha + ADMISS_EPS - s - (_counts_matrix(n, len(s)) / n) @ g.T
    pos, neg = s > 0.0, s < 0.0
    lo = np.ceil(n * (-room[:, pos] / s[pos]).max(axis=1, initial=0.0))
    hi = np.floor(n * (-room[:, neg] / s[neg]).min(axis=1, initial=1.0))
    hi[~(room[:, s == 0.0] >= 0.0).all(axis=1)] = -1.0
    # clipped into [-1, n + 1], NaN to the clip, so the casts are exact
    return (np.fmin(lo, n + 1).astype(np.int64),
            np.fmax(hi, -1.0).astype(np.int64))


def _type_masses(m, n: int, scale: int = 1):
    """The type masses of n letters over the law m_i / sum(m) as ints:
    scale * multinomial(t) * prod m_i^t_i for each type t, in the order of
    ``_counts_matrix``, generated one by one.

    On two letters they are the ratio recurrence N(i + 1) = N(i) (n - i)
    m_0 / ((i + 1) m_1) from N(0) = scale m_1^n.  Otherwise, and when
    m_1 = 0, the first letter's count c runs outermost, and each block is
    the lattice of the other letters with the first letter's term folded
    into its scale, itself the recurrence f(c + 1) = f(c) (n - c) m_0 /
    (c + 1) from f(0) = scale.  Each division is exact.
    """
    if len(m) == 1:
        yield scale * m[0] ** n
    elif len(m) == 2 and m[1]:
        a, b = m
        v = scale * b ** n
        for i in range(n):
            yield v
            v = v * (n - i) * a // ((i + 1) * b)
        yield v
    else:
        for c in range(n + 1):
            yield from _type_masses(m[1:], n - c, scale)
            scale = scale * (n - c) * m[0] // (c + 1)


def _outer_masses(p_x: Dist, p_y: Dist, n: int):
    """Both sides' type masses as ints, each side scaled by the other's
    total so that both total the same integer T: ``(rows, cols, T)``, the
    rows and columns generated in lattice order.  A ``Dist`` is the law
    m_i / sum(m) of its float masses' numerators over one power-of-two
    denominator.  T is the lcm of the two totals, so two totals that are
    powers of two add no bits to the larger one."""
    mx, my = (flow._lift(p.mass, ())[0] for p in (p_x, p_y))
    sx, sy = sum(mx) ** n, sum(my) ** n
    g = math.gcd(sx, sy)
    return (_type_masses(mx, n, sy // g), _type_masses(my, n, sx // g),
            sx // g * sy)


@lru_cache(maxsize=16)
def _dense_masses(p_x: Dist, p_y: Dist, n: int) -> tuple[tuple, tuple]:
    """The masses of ``_outer_masses`` over T, as ``Fraction``s, so that
    the max-flow's plan cells divide back to floats; an alpha sweep on one
    instance builds them once."""
    rows, cols, total = _outer_masses(p_x, p_y, n)
    return (tuple(Fraction(v, total) for v in rows),
            tuple(Fraction(v, total) for v in cols))


def gn_tails(p_x: Dist, p_y: Dist, c: CostMatrix, alpha: float,
             n: int) -> tuple[float, float]:
    """(G, 1 - G) for the n-fold product problem, each the exact rational
    rounded once.

    The outer max-flow F between the integer type masses of
    ``_outer_masses``, which both total T, is exact, so G = (T - F) / T and
    1 - G = F / T.  A 2-letter side goes on the rows and runs the greedy
    over its line of types (``flow.convex_max_flow``); otherwise the
    max-flow runs over the admissible cells of the inner table.
    """
    _check_sizes(p_x, p_y, c)
    if 2 in c.shape:
        carr = c.as_array()
        if c.shape[0] != 2:
            p_x, p_y, carr = p_y, p_x, carr.T
        lo, hi = _line_view(carr, alpha, n)
        rows, cols, total = _outer_masses(p_x, p_y, n)
        routed = flow.convex_max_flow(rows, cols, lo, hi)
        # an int over an int rounds once
        return (total - routed) / total, routed / total
    adm = nested_instance(p_x, p_y, c, n).inner_cost <= alpha + ADMISS_EPS
    if adm.size > DENSE_GUARD:
        raise SizeGuardError(f"dense outer flow needs {adm.size} cells")
    value, unrouted, _, _ = flow.bipartite_max_flow(
        *_dense_masses(p_x, p_y, n), adm)
    return float(unrouted), float(value)


def exact_gn(p_x: Dist, p_y: Dist, c: CostMatrix, alpha: float, n: int) -> float:
    """G_alpha(P_X^n, P_Y^n), exactly, through the nested formula."""
    return gn_tails(p_x, p_y, c, alpha, n)[0]


def direct_gn_oracle(p_x: Dist, p_y: Dist, c: CostMatrix, alpha: float,
                     n: int) -> float:
    """The same probability solved on the raw product space (tests only):
    the supply the exact max-flow leaves unrouted, capped at 1, as ``ecp``
    reads it."""
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
    _, unrouted, _, _ = flow.bipartite_max_flow(px, py, adm)
    return float(min(1, unrouted))


def optimal_outer_plan(instance: NestedInstance, alpha: float) -> JointDist:
    """An optimal coupling of the two type laws for the outer problem: the
    exact max-flow over the admissible type pairs, completed off them."""
    mu, nu = instance.mu.normalized_mass(), instance.nu.normalized_mass()
    adm = instance.inner_cost <= alpha + ADMISS_EPS
    _, _, plan, _ = flow.bipartite_max_flow(mu, nu, adm)
    return JointDist.from_array(plan)


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
    mx, my = pi.marginal_x(), pi.marginal_y()
    if (np.abs(np.subtract(mx, instance.mu.mass())).max() > 1e-9
            or np.abs(np.subtract(my, instance.nu.mass())).max() > 1e-9):
        raise ValidationError("coupling marginals do not match the type laws")
    trips = []
    mat = pi.as_array()
    for i, j in np.argwhere(mat > 0.0):
        tx = tuple(instance.mu.counts[i].tolist())
        ty = tuple(instance.nu.counts[j].tolist())
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
