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
ratio recurrences (``_type_masses``).  Both sides are scaled to one
total T, the lcm of their totals, and for the max-flow F between them
G = (T - F) / T and 1 - G = F / T, each rounded once.  These masses
depend on (P_X, P_Y, n) alone, so ``_outer_masses`` keeps them in one
cache, bounded by the bytes of its ints, that every alpha and every cost
on the instance reads.

When one alphabet has 2 letters, its types lie on a line and the inner
cost is convex along it, so every type of the other side admits an
interval of them, with ends in any order (a convex bipartite graph).
The ends come in closed form from the 2-source dual, with no inner table,
and Glover's greedy sweep along the line is the max-flow
(``flow.convex_max_flow``).  Lattices where both sides have 3 or more
letters go to Dinic's exact max-flow over the admissible cells of the
inner table, whose flow value alone is read.  The LDP, MDP and CLT
thresholds are alpha sweeps on one instance, and a higher alpha only adds
admissible cells, so that max-flow continues the instance's last flow
(``_last_flow``) whenever alpha has not dropped, the warm start of
parametric max-flow (Gallo, Grigoriadis & Tarjan, 1989).
``TypeMeasure`` keeps a lattice with these integer masses and their
total, the one stored format of type masses: the outer plans run on them,
scaled to T, and every float mass, probability and log mass is read off
them, each rounded once.
"""
from __future__ import annotations

import itertools
import math
import random
import sys
from bisect import bisect_right
from collections import Counter, OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache, update_wrapper

import numpy as np

from . import flow
from .curves import RateCurve
from .errors import SizeGuardError, ValidationError
from .measures import Dist, JointDist
from .transport import ADMISS_EPS, CostMatrix, dual_vertices, ot_value

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


# log 2 split as fdlibm's log splits it: LN2_HI has 32 significant bits, so
# e * LN2_HI is exact for |e| < 2**21
LN2_HI, LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def _log_ratio(v: int, total: int) -> float:
    """log(v / total) for ints 0 <= v <= total, within 1 ulp.

    v / total = 2^e (1 + d) with 1 + d in [2/3, 4/3), and d is one division
    of exact ints, rounded once.  So log(v / total) = e log 2 + log1p(d)
    loses nothing to underflow, however small the quotient, nor to
    cancellation near 1.
    """
    if not v:
        return -math.inf
    e = v.bit_length() - total.bit_length()
    # num / den = v / total / 2^e, in (1/2, 2), then moved into [2/3, 4/3)
    num, den = (v << -e, total) if e < 0 else (v, total << e)
    if 3 * num < 2 * den:
        num, e = num << 1, e - 1
    elif 3 * num >= 4 * den:
        den, e = den << 1, e + 1
    return e * LN2_HI + (e * LN2_LO + math.log1p((num - den) / den))


def _lifted(p: Dist) -> list:
    """p's masses as ints over one power-of-two denominator (``flow._lift``):
    p is the law m_i / sum(m)."""
    return flow._lift(p.mass, ())[0]


def type_log_prob(t: TypeVector, p: Dist) -> float:
    """log of the product-law probability of the type class of t under p:
    the exact int multinomial(t) prod m_i^t_i over (sum m)^n, for p's
    lifted masses m, as ``TypeMeasure.logmass`` reads it, within 1 ulp.

    Each call rebuilds that int anew, a product of about 53·n bits
    (some 2 ms at binary n = 1600), so a loop over a lattice should read
    ``TypeMeasure.of(p, n).logmass`` instead, which shares the work."""
    if len(t.counts) != len(p):
        raise ValidationError(
            f"type has {len(t.counts)} symbols, distribution has {len(p)}"
        )
    m = _lifted(p)
    v = _multinomial(t.n, t.counts) * math.prod(
        mi ** ti for mi, ti in zip(m, t.counts))
    return _log_ratio(v, sum(m) ** t.n)


@dataclass(frozen=True, eq=False)
class TypeMeasure:
    """A type lattice, one type per row of ``counts``, with the exact law
    its base law induces: row i weighs ``masses[i] / total``, Python ints
    from ``_type_masses``.  Every float is read off them, rounded once:
    ``mass()``, ``prob`` and ``logmass``.  ``lattice`` builds the rows'
    ``TypeVector``s on first read."""

    counts: np.ndarray
    masses: tuple
    total: int

    def __post_init__(self) -> None:
        if len(self.counts) != len(self.masses):
            raise ValidationError("lattice and masses must align")
        if sum(self.masses) != self.total:
            raise ValidationError("type masses do not sum to their total")

    @classmethod
    def of(cls, p: Dist, n: int) -> "TypeMeasure":
        m = _lifted(p)
        return cls(counts=_counts_matrix(n, len(p)),
                   masses=tuple(_type_masses(m, n)), total=sum(m) ** n)

    @cached_property
    def lattice(self) -> tuple[TypeVector, ...]:
        n = int(self.counts[0].sum())
        return tuple(TypeVector(row, n) for row in self.counts.tolist())

    @cached_property
    def logmass(self) -> np.ndarray:
        """log of each type's mass, within 1 ulp (``_log_ratio``)."""
        arr = np.array([_log_ratio(v, self.total) for v in self.masses])
        arr.setflags(write=False)
        return arr

    def __len__(self) -> int:
        return len(self.masses)

    def mass(self) -> np.ndarray:
        # an int over an int rounds once
        return np.array([v / self.total for v in self.masses])

    def prob(self, index_set) -> float:
        return sum(self.masses[int(i)] for i in index_set) / self.total

    def as_dist(self) -> Dist:
        """The lattice as a plain Dist, labelled by the types' counts."""
        return Dist.from_mass(self.mass().tolist(),
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


#: The bytes of ints ``_outer_masses`` keeps besides its newest entry.
OUTER_CACHE_BYTES = 64 << 20


def _cached_by_bytes(limit: int):
    """A least-recently-used cache for ``_outer_masses``, bounded by the
    bytes of the ints its entries hold rather than by their count: an
    entry counts each of its masses at the size of its total T, which none
    exceeds, and before each build the oldest entries go until the rest
    count at most ``limit`` bytes.  So the newest entry is kept at any
    size, and an alpha sweep on it builds it once.  ``cache_clear``
    empties it, as it empties an ``lru_cache``."""
    def decorate(fn):
        kept = OrderedDict()  # args -> ((rows, cols, T), bytes)

        def cached(*args):
            hit = kept.get(args)
            if hit is not None:
                kept.move_to_end(args)
                return hit[0]
            held = sum(size for _, size in kept.values())
            while held > limit:
                held -= kept.popitem(last=False)[1][1]
            rows, cols, total = result = fn(*args)
            kept[args] = result, (len(rows) + len(cols)) * sys.getsizeof(
                total)
            return result

        cached.cache_clear = kept.clear
        return update_wrapper(cached, fn)
    return decorate


@_cached_by_bytes(OUTER_CACHE_BYTES)
def _outer_masses(p_x: Dist, p_y: Dist, n: int) -> tuple[tuple, tuple, int]:
    """Both sides' type masses as ints, each side scaled
    (``flow._scales``) so that both total the same integer T:
    ``(rows, cols, T)``, the rows and columns in lattice order.

    The table depends on (p_x, p_y, n) alone, not on alpha or the cost, so
    an alpha sweep builds it once, and a k x 2 call shares the entry of
    its 2 x k transpose.  The cache is bounded by the bytes of its ints
    (``OUTER_CACHE_BYTES``), for an entry grows as n^(k - 1) ints of about
    53 n bits each: a binary one at n = 3200 holds 144 MiB."""
    mx, my = _lifted(p_x), _lifted(p_y)
    row_scale, col_scale, total = flow._scales(sum(mx) ** n, sum(my) ** n)
    return (tuple(_type_masses(mx, n, row_scale)),
            tuple(_type_masses(my, n, col_scale)), total)


@lru_cache(maxsize=16)
def _last_flow(p_x: Dist, p_y: Dist, c: CostMatrix, n: int) -> list:
    """The dense route's last solved flow on this instance, empty before
    the first: ``[alpha, supply left, demand left, flows into each column,
    routed]``, the network's state without its column lists, so an entry
    is sized by the types and the cells that carry flow."""
    return []


def _resume(last: list, table: np.ndarray, total: int) -> flow.BipartiteFlow:
    """``_last_flow``'s entry as the solved flow it was, to start from:
    its admissible cells are read off the table at its alpha again."""
    alpha, sup, dem, into, routed = last
    net = flow.BipartiteNetwork(sup, dem, [])
    net.into = into
    return flow.BipartiteFlow(net, table <= alpha + ADMISS_EPS, routed,
                              total, 1)


def gn_tails(p_x: Dist, p_y: Dist, c: CostMatrix, alpha: float,
             n: int) -> tuple[float, float]:
    """(G, 1 - G) for the n-fold product problem, each the exact rational
    rounded once.

    Both routes read the cached integer type masses of ``_outer_masses``,
    which both total T, and the exact max-flow F between them, so
    G = (T - F) / T and 1 - G = F / T.  A 2-letter side goes on the rows
    and runs the greedy over its line of types (``flow.convex_max_flow``);
    otherwise Dinic runs over the admissible cells of the inner table, and
    only its flow value is read: no plan, no witness and no
    ``TypeMeasure`` is built.  Dinic starts from the instance's last solved
    flow (``_last_flow``) when alpha is at least that flow's alpha, and
    from zero flow otherwise; F is the maximum flow value either way, so
    the bits do not depend on the order of the calls.
    """
    _check_sizes(p_x, p_y, c)
    if 2 in c.shape:
        carr = c.as_array()
        if c.shape[0] != 2:
            p_x, p_y, carr = p_y, p_x, carr.T
        lo, hi = _line_view(carr, alpha, n)
        rows, cols, total = _outer_masses(p_x, p_y, n)
        routed = flow.convex_max_flow(rows, cols, lo, hi)
    else:
        table = _inner_cost_table(c, n)
        adm = table <= alpha + ADMISS_EPS
        if adm.size > DENSE_GUARD:
            raise SizeGuardError(f"dense outer flow needs {adm.size} cells")
        rows, cols, total = _outer_masses(p_x, p_y, n)
        last = _last_flow(p_x, p_y, c, n)
        start = None
        # alpha' >= alpha admits every cell alpha admits, for the float add
        # and compare are monotone: the last flow is feasible here too
        if last and alpha >= last[0]:
            start = _resume(last, table, total)
        solved = flow.bipartite_max_flow(rows, cols, adm, start)
        net, routed = solved.network, solved.routed
        last[:] = alpha, net.sup, net.dem, net.into, routed
    # an int over an int rounds once
    return (total - routed) / total, routed / total


def exact_gn(p_x: Dist, p_y: Dist, c: CostMatrix, alpha: float, n: int) -> float:
    """G_alpha(P_X^n, P_Y^n), exactly, through the nested formula."""
    return gn_tails(p_x, p_y, c, alpha, n)[0]


def direct_gn_oracle(p_x: Dist, p_y: Dist, c: CostMatrix, alpha: float,
                     n: int) -> float:
    """The same probability solved on the raw product space (tests only),
    in the form of ``gn_tails``: each sequence weighs the exact int product
    of its letters' lifted masses, the law the type masses sum, scaled as
    ``_outer_masses`` scales them to one total T, and G = (T - F) / T for
    the exact max-flow F, rounded once."""
    kx, ky = c.shape
    if kx ** n * ky ** n > 1_000_000:
        raise SizeGuardError(
            f"product space has {kx ** n * ky ** n} cells, beyond the guard"
        )
    xs = list(itertools.product(range(kx), repeat=n))
    ys = list(itertools.product(range(ky), repeat=n))
    mx, my = _lifted(p_x), _lifted(p_y)
    row_scale, col_scale, total = flow._scales(sum(mx) ** n, sum(my) ** n)
    px = [math.prod(mx[s] for s in seq) * row_scale for seq in xs]
    py = [math.prod(my[s] for s in seq) * col_scale for seq in ys]
    carr = c.as_array()
    cost = np.array([[sum(carr[a, b] for a, b in zip(sx, sy)) / n
                      for sy in ys] for sx in xs])
    adm = cost <= alpha + ADMISS_EPS
    return (total - flow.bipartite_max_flow(px, py, adm).routed) / total


def optimal_outer_plan(instance: NestedInstance, alpha: float) -> JointDist:
    """An optimal coupling of the two type laws for the outer problem: the
    exact max-flow over the admissible type pairs, completed off them, on
    the exact laws, so the mass it leaves off them is G.

    Both lattices' int masses are scaled to their common total T
    (``flow._scales``) and the flow runs on them over T, so each plan cell
    is an int over T, rounded once."""
    mu, nu = instance.mu, instance.nu
    row_scale, col_scale, total = flow._scales(mu.total, nu.total)
    adm = instance.inner_cost <= alpha + ADMISS_EPS
    return JointDist.from_array(flow.bipartite_max_flow(
        [v * row_scale for v in mu.masses], [v * col_scale for v in nu.masses],
        adm, den=total).plan)


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
    _, _, _, vstar, tight = flow.transport_min_cost(tx, ty, carr)
    mat = tuple(map(tuple, flow.lex_min_coupling(tx, ty, tight)))
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
