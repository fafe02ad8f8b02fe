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

When one alphabet has 2 letters, its types lie on a line and the inner
cost is convex along it, so every type of the other side admits an
interval of them, with ends in any order (a convex bipartite graph).
The ends come in closed form from the 2-source dual, with no inner table.
Witness sets E on the 2-letter side are then chains of its types, and
one pass of a chain DP over that line finds them for three scores at
once, one run per score, all fed by the same steps.  Each score is
ranked on the masses a chain has settled itself, never on the masses
every chain of a step shares, which would round away differences at the
tail's scale: the gain mu(E) - nu(Gamma(E)) over sets with mu(E) <= 1/2,
the same value through the complement D = E^c, nu(F(D)) - mu(D), over
sets with mu(D) <= 1/2, and the loss nu(Gamma(E)) + mu(E^c), minimised.
So G gets a witness on the scale of E or of its complement, and 1 - G
on its own.  Signed scores are ranked exactly in log space, by (sign,
sign * log|value|).  The DP ends with every chain's four masses in each
run, so the winners are read off that end state, and only the three
winning witness sets are evaluated exactly.  Lattices where both sides
have 3 or more letters go to the exact max-flow over the inner table,
on the float type masses; its min cut is the witness set.

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
from functools import cached_property, lru_cache
from typing import NamedTuple

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

class _IntervalView(NamedTuple):
    """Column y is admitted by the active rows lo_y..hi_y, in any order of
    the ends; ``act`` holds the rows that admit something, ``empty`` the
    rest.  A column that no row admits has lo = len(act) and hi = -1."""

    act: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    empty: np.ndarray

    def masses(self, lognu):
        """The column masses a chain DP over the rows needs.

        Returns the log nu of the columns still unsettled after each slot's
        last row (slot 0 is the empty chain, slot j + 1 the chain ending at
        active row j), and an iterator that yields, for each active row i,
        the log nu newly covered and newly left uncovered for good when
        row i follows the last row of each slot 0..i.  After a chain whose
        last row is j, row i newly covers the columns with
        j < lo_y <= i <= hi_y and leaves uncovered for good those with
        j < lo_y <= hi_y < i; the columns with lo_y > j are unsettled.  With
        the columns sorted by lo, those with j < lo_y <= i are a run, so
        both masses of step i are suffix sums over the columns starting by
        row i: of those that row i admits, and of the rest.
        """
        order = np.argsort(self.lo, kind="stable")
        lo, hi, nu = self.lo[order], self.hi[order], lognu[order]
        # start[s]: the columns whose rows begin before active row s
        start = np.searchsorted(lo, np.arange(len(self.act) + 1))
        suffix = np.append(np.logaddexp.accumulate(nu[::-1])[::-1], -np.inf)
        return suffix[start], self._steps(hi, nu, start)

    @staticmethod
    def _steps(hi, nu, start):
        # at step i, cover[t] and gap[t] sum the t + 1 columns before
        # start[i + 1]; index -1 reads the empty sum
        cover = np.full(len(nu) + 1, -np.inf)
        gap = np.full(len(nu) + 1, -np.inf)
        for i in range(len(start) - 1):
            p = start[i + 1]
            admitted = hi[:p] >= i
            np.logaddexp.accumulate(np.where(admitted, nu[:p], -np.inf)[::-1],
                                    out=cover[:p])
            np.logaddexp.accumulate(np.where(admitted, -np.inf, nu[:p])[::-1],
                                    out=gap[:p])
            at = p - 1 - start[:i + 1]
            yield cover[at], gap[at]

    def covered(self, chain) -> np.ndarray:
        # the first chain row at or after lo_y, or the sentinel len(act)
        rows = np.append(np.asarray(chain, dtype=np.int64), len(self.act))
        return rows[np.searchsorted(rows, self.lo)] <= self.hi


def _line_view(carr: np.ndarray, alpha: float, n: int):
    """The ``_IntervalView`` of a 2 x k cost at threshold alpha, from the
    cost alone; None if no pair of types is admissible.

    Row i is the type (i, n - i) of the 2-letter side, t = i / n.  With
    s_j = c_1j - c_0j, the 2-source dual has the k candidate solutions
    f = (0, s_j), g_j = min(c_0, c_1 - s_j), so OT((t, 1 - t), y) =
    max_j s_j (1 - t) + g_j . y.  Each j therefore bounds t from one side:
    with room_j = alpha + ADMISS_EPS - s_j - g_j . y, a column y admits
    t >= -room_j / s_j where s_j > 0, t <= -room_j / s_j where s_j < 0, and
    nothing at all where s_j = 0 and room_j < 0.
    """
    s = carr[1] - carr[0]
    g = np.minimum(carr[0], carr[1] - s[:, None])
    room = alpha + ADMISS_EPS - s - (_counts_matrix(n, len(s)) / n) @ g.T
    pos, neg = s > 0.0, s < 0.0
    lo = np.ceil(n * (-room[:, pos] / s[pos]).max(axis=1, initial=0.0))
    hi = np.floor(n * (-room[:, neg] / s[neg]).min(axis=1, initial=1.0))
    admits = (lo <= hi) & (room[:, s == 0.0] >= 0.0).all(axis=1)
    if not admits.any():
        return None
    lo = lo[admits].astype(np.int64)
    hi = hi[admits].astype(np.int64)
    # every row inside a column's interval admits it, so is active
    any_row = np.cumsum(np.bincount(lo, minlength=n + 2)
                        - np.bincount(hi + 1, minlength=n + 2))[:n + 1] > 0
    act = np.flatnonzero(any_row)
    rank = np.cumsum(any_row) - 1
    first = np.full(len(admits), act.size)
    last = np.full(len(admits), -1)
    first[admits], last[admits] = rank[lo], rank[hi]
    return _IntervalView(act, first, last, np.flatnonzero(~any_row))


_LOG_HALF = math.log(0.5)


def _scores(log_e, log_g, log_skip, log_gap, loss_g, loss_skip, lpos, lneg):
    """Write the logs of the plus and minus parts of the three scores into
    rows 0-2 of lpos and lneg, from the only masses they read: the gain
    run's mu(E) and nu(Gamma(E)), the complement run's skipped and gap
    masses, and the loss run's nu(Gamma(E)) and skipped mass.

    gain        mu(E) - nu(Gamma(E)), for chains with mu(E) <= 1/2.  Summed
                directly, the bulk masses of a chain with mu(E) > 1/2 carry
                the lattices' normalization error (TypeMeasure admits 1e-9)
                and would outrank every deep-tail witness; the complement
                scores those chains.
    complement  nu(F(D)) - mu(D) of the skipped rows D = E^c, mu(D) <= 1/2.
                F(D), the columns whose whole row interval lies inside D
                plus those no row admits, is Gamma(E)^c, so at the end this
                is the gain of E summed from the smaller masses.  Past
                mu(D) = 1/2 the chain is left to the gain: D = all rows
                would win on the normalization error alone.
    loss        -(nu(Gamma(E)) + mu(E^c)), the chain's bound on 1 - G.

    A chain outside its run's range scores -inf; mu(E) and mu(D) only grow
    along a chain, so every prefix of a chain inside the range is inside it.
    """
    bulk = np.greater([log_e, log_skip], _LOG_HALF)
    lpos[0], lpos[1], lpos[2] = log_e, log_gap, -np.inf
    lneg[0], lneg[1] = log_g, log_skip
    np.logaddexp(loss_g, loss_skip, out=lneg[2])
    np.copyto(lpos[:2], -np.inf, where=bulk)
    np.copyto(lneg[:2], np.inf, where=bulk)


def _signed_argmax(lpos, lneg) -> np.ndarray:
    """First index of the largest exp(lpos) - exp(lneg) along the last
    axis, compared exactly.

    Values are ranked by the pair (sign, sign * log|value|) in
    lexicographic order, so no offset ever mixes the sign into the
    magnitude and relative precision survives at any depth.  -inf - -inf is
    a zero.  The caller silences the warnings of that difference and of the
    magnitudes of the zeros, which are not used.
    """
    diff = lpos - lneg
    pos, neg = diff > 0.0, diff < 0.0
    sign = np.subtract(pos, neg, dtype=np.int8)
    logabs = np.maximum(lpos, lneg) + np.log(-np.expm1(-np.abs(diff)))
    key = np.where(pos, logabs, np.where(neg, -logabs, 0.0))
    top = sign.max(axis=-1, keepdims=True)
    return np.argmax(np.where(sign == top, key, -np.inf), axis=-1)


def _dp_chains(logmu: np.ndarray, lognu: np.ndarray,
               view) -> tuple[np.ndarray, np.ndarray]:
    """Best witness chain ending at each active row for each score, and
    the end state.

    A chain is a set E of active rows, plus the always-free rows.  Every
    chain carries the same log-sum state over the rows up to its end and
    the columns it has settled: mu(E), nu(Gamma(E)), mu of the rows it
    skipped and nu of the columns it left uncovered for good.  Appending
    row i to the chain ending at row j adds mu_i to the first, and the
    view's newly covered and gap masses for (j, i) to the second and the
    last (``view.masses``); every chain that does not take row i adds mu_i
    to its skipped mass.  Slot 0 is the empty chain, so starting fresh is
    one more candidate and wins ties, ahead of the chains in row order.
    Three runs, one per score of ``_scores``, share one pass over the
    steps of the view; each ranks the candidates of step i on these four
    masses alone.  A step computes only the two masses per run that its
    score reads, and then the four masses of each run's winning slot: the
    losers are dropped, so any other mass of theirs would be wasted work.
    As witness sets, all of them also hold the rows after i in E^c and the
    columns starting after row i in Gamma(E)^c; those masses are the same
    for every candidate, and added in, they would round away the
    differences at the tail's scale.

    Returns the parent pointers, (3, m) (the row before row i in its
    chain, or -1), and the end state, (4, 3, m + 1): the four log-masses
    above for slot 0 and for the chain ending at each active row, per run.
    At the end every row after a chain's last one is skipped, and every
    column it has not settled is uncovered, so the state holds E^c and
    Gamma(E)^c whole, each summed from same-sign terms.  G and 1 - G are
    read off this state; only the winning witness sets are then evaluated
    exactly.
    """
    logmu_a = logmu[view.act]
    m = len(logmu_a)
    state = np.full((4, 3, m + 1), -np.inf)
    state[0, :, 0] = _lse(logmu[view.empty])
    parent = np.full((3, m), -1, dtype=np.int64)
    runs = np.arange(3)
    lpos, lneg = np.empty((2, 3, m + 1))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        unsettled, steps = view.masses(lognu)
        for i, (cover, gap) in enumerate(steps):
            log_e, log_g, log_skip, log_gap = state[:, :, :i + 1]
            covered = np.logaddexp(log_g[::2], cover)  # the gain and loss runs
            _scores(np.logaddexp(log_e[0], logmu_a[i]), covered[0],
                    log_skip[1], np.logaddexp(log_gap[1], gap), covered[1],
                    log_skip[2], lpos[:, :i + 1], lneg[:, :i + 1])
            best = _signed_argmax(lpos[:, :i + 1], lneg[:, :i + 1])
            parent[:, i] = best - 1
            won = state[:, runs, best]
            np.logaddexp(won[0], logmu_a[i], out=won[0])
            np.logaddexp(won[1], cover[best], out=won[1])
            np.logaddexp(won[3], gap[best], out=won[3])
            state[:, :, i + 1] = won
            np.logaddexp(log_skip, logmu_a[i], out=log_skip)
    state[3] = np.logaddexp(state[3], unsettled)
    return parent, state


def _chain_members(parent: np.ndarray, i: int) -> list[int]:
    out = []
    while i >= 0:
        out.append(i)
        i = parent[i]
    out.reverse()
    return out


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


def _chain_masks(chain, view, size_mu: int):
    """Masks of the witness set E of one chain and of its enlargement."""
    in_e = np.zeros(size_mu, dtype=bool)
    in_e[view.act[chain]] = True
    in_e[view.empty] = True
    return in_e, view.covered(chain)


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
    """(direct, complement-sum) of the best chain of each score.

    The best G chain is the better of the gain and complement winners, the
    best 1 - G chain the loss winner.  The DP ends with every chain's four
    masses, so each score picks its winner from the end states of all
    three runs, the gain run's first, and only the winners' witness sets
    are evaluated.  At the end a chain of one run can tie the winner of
    another score's run, and tied witness sets can round 1 - G apart.
    """
    parent, state = _dp_chains(logmu, lognu, view)
    log_e, log_g, log_skip, log_gap = state.reshape(4, -1)
    lpos, lneg = np.empty((2, 3, log_e.size))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        _scores(log_e, log_g, log_skip, log_gap, log_g, log_skip, lpos, lneg)
        best = _signed_argmax(lpos, lneg)
    return [_witness_values(logmu, lognu, *_chain_masks(
                _chain_members(parent[run], slot - 1), view, len(logmu)))
            for run, slot in zip(*np.divmod(best, state.shape[2]))]


def _bounds(candidates) -> tuple[float, float]:
    """(G, 1 - G) from the (direct, complement-sum) pairs of witness sets."""
    g = max(0.0, max(direct for direct, _ in candidates))
    comp = min(1.0, min(comp_sum for _, comp_sum in candidates))
    return min(g, 1.0), max(comp, 0.0)


def _lattice_ecp_dense(logmu, lognu, adm):
    if adm.size > DENSE_GUARD:
        raise SizeGuardError(f"dense outer flow needs {adm.size} cells")
    *_, witness = flow.bipartite_max_flow(np.exp(logmu), np.exp(lognu), adm)
    in_e = np.zeros(len(logmu), dtype=bool)
    in_e[list(witness)] = True
    in_g = adm[in_e].any(axis=0)
    return _bounds([_witness_values(logmu, lognu, in_e, in_g)])


def gn_tails(p_x: Dist, p_y: Dist, c: CostMatrix, alpha: float,
             n: int) -> tuple[float, float]:
    """(G, 1-G) for the n-fold product problem, each summed on its own scale.

    The pair is computed from dual witnesses rather than from each other, so
    both stay meaningful when one of them is at the 1e-300 scale.
    """
    kx, ky = c.shape
    if kx != 2 and ky != 2:
        inst = nested_instance(p_x, p_y, c, n)
        adm = inst.inner_cost <= alpha + ADMISS_EPS
        if not adm.any():
            return 1.0, 0.0
        return _lattice_ecp_dense(inst.mu.logmass, inst.nu.logmass, adm)
    _check_sizes(p_x, p_y, c)
    # the types of a 2-letter side lie on a line, so the chain runs there
    carr = c.as_array()
    if kx != 2:
        p_x, p_y, carr = p_y, p_x, carr.T
    view = _line_view(carr, alpha, n)
    if view is None:
        return 1.0, 0.0
    return _bounds(_side_candidates(TypeMeasure.of(p_x, n).logmass,
                                    TypeMeasure.of(p_y, n).logmass, view))


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
