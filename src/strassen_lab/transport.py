"""Discrete optimal transport and excess-cost probabilities with certificates.

The two primal problems live on the same bipartite geometry:

* ``ot_cost`` minimizes expected cost over couplings (min-cost flow, then a
  lexicographic max-flow for a vertex plan, exact on the lifted masses);
* ``ecp`` minimizes the probability of exceeding a cost level ``alpha``
  (max-flow over the admissible cells, by Strassen duality), in exact
  big-integer arithmetic on the marginals' binary rationals, and its
  coupling completed off those cells in the same integers.

Duals come along for free: Kantorovich potentials from the terminating flow
potentials, and a maximizing witness set E from the min cut.

A third route serves values alone.  For alphabets up to ``VERTEX_MAX``
symbols a side, ``dual_vertices`` lists the vertices of the dual polyhedron
{f_i + g_j <= c_ij, f_0 = 0}: the potentials of the spanning trees of
K_{m,k} that stay dual-feasible (Dantzig; Klee & Witzgall 1968).  They
depend only on c and are cached, and by LP duality OT(p, q) is the largest
F_v . p + G_v . q over them, so ``ot_value`` is a few dot products.  Plans
come from the lexicographic max-flow, certificates from the min-cost flow.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import flow
from .errors import (
    DimensionMismatchError,
    InfeasibleError,
    SizeGuardError,
    ValidationError,
)
from .measures import Dist, JointDist

#: Cells with cost <= alpha + ADMISS_EPS count as admissible, so ties at
#: exactly alpha resolve toward admissibility and the strict ">alpha" event
#: is complementary to them.
ADMISS_EPS = 1e-12

#: ``dual_vertices`` serves alphabets of at most this many symbols a side;
#: at 4 x 4 it tries 11,440 candidate trees, a count that explodes beyond.
VERTEX_MAX = 4

#: Dual feasibility, vertex identity and tightness are decided up to this
#: multiple of the cost scale max(1, max |c|); tree potentials are sums of a
#: few costs, so their rounding error is orders of magnitude below it.
VERTEX_TOL = 1e-12

#: Reduced costs up to this multiple of the cost scale count as tight.
TIGHT_TOL = 1e-9


@dataclass(frozen=True)
class CostMatrix:
    """A finite nonnegative cost table c(x, y)."""

    values: tuple

    def __post_init__(self) -> None:
        rows = []
        width = None
        for row in self.values:
            row = tuple(float(v) for v in row)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValidationError("ragged cost matrix")
            for v in row:
                if not math.isfinite(v) or v < 0.0:
                    raise ValidationError(
                        f"cost {v!r} is not finite and nonnegative"
                    )
            rows.append(row)
        if not rows or width == 0:
            raise ValidationError("cost matrix must be nonempty")
        object.__setattr__(self, "values", tuple(rows))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.values), len(self.values[0]))

    @classmethod
    def hamming(cls, m: int, k: int | None = None) -> "CostMatrix":
        k = m if k is None else k
        return cls(tuple(tuple(0.0 if i == j else 1.0 for j in range(k))
                         for i in range(m)))

    @classmethod
    def from_rows(cls, rows) -> "CostMatrix":
        return cls(tuple(tuple(row) for row in rows))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def max(self) -> float:
        return max(max(row) for row in self.values)

    def min(self) -> float:
        return min(min(row) for row in self.values)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """An optimal coupling together with its expected cost.

    ``potentials`` holds the Kantorovich potentials (f, g) of the solve that
    found the plan, when ``ot_cost`` made it, so that
    ``kantorovich_certificate`` need not solve the problem again.
    """

    plan: JointDist
    objective: float
    potentials: tuple | None = field(default=None, repr=False)


@dataclass(frozen=True, eq=False)
class EcpResult:
    """Outcome of a Strassen excess-cost problem.

    ``value`` is G_alpha and ``complement`` the max-flow value, each
    capped at 1 (``Dist`` lets masses sum to 1 + 1e-12); each is one exact
    rational rounded once, never one minus the other, so tiny tails keep
    full precision.  ``plan`` is an optimal coupling, each cell an exact
    rational rounded once: before rounding, when the float masses of the
    two sides sum to the same total, its rows and columns sum to them and
    its mass off the admissible cells is G.  ``witness`` is a maximizing
    dual set E of x indices: below the cap, value = P_X(E) - P_Y(Gamma(E)),
    exactly for the float masses given.
    """

    value: float
    complement: float
    plan: JointDist
    witness: frozenset


@dataclass(frozen=True)
class SupportSet:
    """Cells carrying positive mass in at least one optimal coupling."""

    cells: frozenset

    def __post_init__(self) -> None:
        cells = frozenset((int(i), int(j)) for i, j in self.cells)
        if not cells:
            raise ValidationError("support set must be nonempty")
        object.__setattr__(self, "cells", cells)

    def __contains__(self, cell) -> bool:
        return tuple(cell) in self.cells

    def __iter__(self):
        return iter(sorted(self.cells))

    def __len__(self) -> int:
        return len(self.cells)


def _check_dims(p_x: Dist, p_y: Dist, c: CostMatrix) -> None:
    m, k = c.shape
    if len(p_x) != m or len(p_y) != k:
        raise DimensionMismatchError(
            f"cost is {m}x{k} but marginals have sizes {len(p_x)}, {len(p_y)}"
        )


def admissible_mask(c: CostMatrix, alpha: float) -> np.ndarray:
    """Boolean table of the cells with c(x, y) <= alpha (up to the tie epsilon)."""
    return c.as_array() <= alpha + ADMISS_EPS


def gamma_enlarge(a_set, c: CostMatrix, alpha: float) -> frozenset:
    """The alpha-enlargement: all y admissible from some x in the set."""
    adm = admissible_mask(c, alpha)
    out = set()
    for i in a_set:
        out.update(int(j) for j in np.nonzero(adm[int(i)])[0])
    return frozenset(out)


def tight_cells(cost: np.ndarray, f, g) -> np.ndarray:
    """Cells tight against (f, g), up to ``TIGHT_TOL`` times the cost scale."""
    scale = max(1.0, float(np.abs(cost).max()))
    return cost - f[:, None] - g[None, :] <= TIGHT_TOL * scale


def vertex_tol(cost: np.ndarray) -> float:
    """The absolute tolerance ``VERTEX_TOL`` stands for at this cost scale."""
    return VERTEX_TOL * max(1.0, float(np.abs(cost).max()))


def dual_vertices(c: CostMatrix) -> tuple[np.ndarray, np.ndarray] | None:
    """Vertices (F, G) of the dual polyhedron {f_i + g_j <= c_ij, f_0 = 0}.

    Row v of F and of G is one vertex.  For any nonnegative pair (p, q) of
    equal mass, OT(p, q) = max_v F_v . p + G_v . q.  Cached per cost table.
    None past ``VERTEX_MAX`` symbols a side, where callers solve by flow.
    """
    return _vertices(*_cost_key(c.as_array()))


def _cost_key(cost: np.ndarray) -> tuple[tuple, bytes]:
    cost = np.ascontiguousarray(cost, dtype=float)
    return cost.shape, cost.tobytes()


@lru_cache(maxsize=64)
def _vertices(shape: tuple, raw: bytes):
    m, k = shape
    if max(m, k) > VERTEX_MAX:
        return None
    cost = np.frombuffer(raw).reshape(m, k)
    # Each candidate is a set of m + k - 1 cells with f_i + g_j = c_ij on
    # them.  The system in (f_1..f_{m-1}, g) is a network matrix, so it is
    # nonsingular (determinant +-1) exactly when the cells form a spanning
    # tree of K_{m,k}.
    r = m + k - 1
    cells = np.array(list(itertools.combinations(range(m * k), r)))
    rows, cols = np.divmod(cells, k)
    tree = np.arange(len(cells))[:, None]
    eq = np.arange(r)[None, :]
    a = np.zeros((len(cells), r, m + k))
    a[tree, eq, rows] = 1.0
    a[tree, eq, m + cols] = 1.0
    a = a[:, :, 1:]
    spanning = np.abs(np.linalg.det(a)) > 0.5
    sol = np.linalg.solve(a[spanning],
                          cost.reshape(-1)[cells[spanning]][..., None])[..., 0]
    verts = np.concatenate([np.zeros((len(sol), 1)), sol], axis=1)
    tol = vertex_tol(cost)
    slack = cost - verts[:, :m, None] - verts[:, None, m:]
    verts = verts[(slack >= -tol).all(axis=(1, 2))]
    # Degenerate costs reach one vertex from several trees; keep the first.
    _, first = np.unique(np.round(verts / tol), axis=0, return_index=True)
    verts = verts[np.sort(first)]
    verts.setflags(write=False)
    return verts[:, :m], verts[:, m:]


def ot_value(px: np.ndarray, py: np.ndarray, cost: np.ndarray) -> float:
    """Expected-cost optimum only, for hot loops (no plan, no dataclasses).

    Up to ``VERTEX_MAX`` symbols a side it is the best dual vertex;
    larger tables run the min-cost flow.
    """
    verts = _vertices(*_cost_key(cost))
    if verts is not None:
        f, g = verts
        return float(np.max(f @ px + g @ py))
    _, _, _, objective = flow.transport_min_cost(px, py, cost)
    return objective


def ot_cost(p_x: Dist, p_y: Dist, c: CostMatrix) -> TransportPlan:
    """The minimum expected cost over couplings, with an optimal vertex plan.

    The plan is the lexicographically least maximum flow on the tight
    cells, run on the masses lifted to integers and divided back once per
    cell: a vertex, also when the marginals' float sums differ.
    """
    _check_dims(p_x, p_y, c)
    cost = c.as_array()
    _, f, g, _ = flow.transport_min_cost(p_x.mass, p_y.mass, cost)
    sup, dem, den = flow._lift(p_x.mass, p_y.mass)
    rows = flow.lex_min_coupling(sup, dem, tight_cells(cost, f, g))
    plan = np.array([[v / den for v in row] for row in rows])
    objective = float(np.sum(plan * cost))
    f.setflags(write=False)
    g.setflags(write=False)
    return TransportPlan(plan=JointDist.from_array(plan), objective=objective,
                         potentials=(f, g))


def ecp(p_x: Dist, p_y: Dist, c: CostMatrix, alpha: float) -> EcpResult:
    """Strassen's optimal excess-cost probability G_alpha, exactly rounded.

    The marginals are lifted to integers over a common denominator (their
    float values read as exact binary rationals), and a big-integer
    max-flow runs on the bipartite graph whose cell edges are exactly the
    admissible cells.  G is the total supply less that flow,
    one exact rational rounded once and capped at 1: below the cap it
    equals P_X(E) - P_Y(Gamma(E)) for the min-cut witness E, with no
    rounding from the marginals' own sum.  The plan is the flow completed
    in the same integers (``flow.bipartite_max_flow``).
    """
    _check_dims(p_x, p_y, c)
    solved = flow.bipartite_max_flow(p_x.mass, p_y.mass,
                                     admissible_mask(c, alpha))
    value = float(min(Fraction(1), solved.unrouted))
    complement = float(min(Fraction(1), solved.value))
    return EcpResult(value=value, complement=complement,
                     plan=JointDist.from_array(solved.plan),
                     witness=frozenset(solved.witness))


def ecp_dual_bruteforce(p_x: Dist, p_y: Dist, c: CostMatrix,
                        alpha: float) -> tuple[float, frozenset]:
    """max over E of P_X(E) - P_Y(Gamma(E)) by subset enumeration.

    An independent check of the max-flow route; refuses alphabets past 20
    symbols (2^|X| subsets).
    """
    _check_dims(p_x, p_y, c)
    m, k = c.shape
    if m > 20:
        raise SizeGuardError(
            f"subset enumeration needs 2^{m} sets; refusing beyond 2^20"
        )
    adm = admissible_mask(c, alpha)
    gamma_bits = [0] * m
    for i in range(m):
        bits = 0
        for j in np.nonzero(adm[i])[0]:
            bits |= 1 << int(j)
        gamma_bits[i] = bits
    py_of_mask: dict[int, float] = {0: 0.0}

    def py_mass(mask: int) -> float:
        got = py_of_mask.get(mask)
        if got is None:
            low = mask & -mask
            got = py_mass(mask ^ low) + p_y.mass[low.bit_length() - 1]
            py_of_mask[mask] = got
        return got

    best, best_set = 0.0, 0
    px_sum = [0.0] * (1 << m)
    gm = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        rest = mask ^ low
        idx = low.bit_length() - 1
        px_sum[mask] = px_sum[rest] + p_x.mass[idx]
        gm[mask] = gm[rest] | gamma_bits[idx]
        val = px_sum[mask] - py_mass(gm[mask])
        if val > best:
            best, best_set = val, mask
    witness = frozenset(i for i in range(m) if best_set >> i & 1)
    return best, witness


def kantorovich_certificate(p_x: Dist, p_y: Dist, c: CostMatrix,
                            plan: TransportPlan):
    """Dual potentials (f, g) with f + g <= c everywhere, and the duality gap.

    The gap is plan objective minus the dual value; it vanishes (up to flow
    roundoff) exactly when the plan is optimal.  The potentials are the
    plan's own when ``ot_cost`` made it, else those of a min-cost flow.
    """
    _check_dims(p_x, p_y, c)
    mat = plan.plan.as_array()
    if mat.shape != c.shape:
        raise DimensionMismatchError("plan shape does not match the cost table")
    if (np.abs(mat.sum(axis=1) - p_x.as_array()).max() > 1e-9
            or np.abs(mat.sum(axis=0) - p_y.as_array()).max() > 1e-9):
        raise InfeasibleError("plan marginals do not match the problem marginals")
    cost = c.as_array()
    if plan.potentials is None:
        _, f, g, _ = flow.transport_min_cost(p_x.mass, p_y.mass, cost)
    else:
        f, g = plan.potentials
    violation = float((f[:, None] + g[None, :] - cost).max())
    if violation > 0.0:
        # Shift f down by the roundoff overshoot so the certificate is
        # unconditionally feasible; this only widens the gap by ~1e-15.
        f = f - violation
    dual_value = float(f @ p_x.as_array() + g @ p_y.as_array())
    gap = plan.objective - dual_value
    return tuple(float(v) for v in f), tuple(float(v) for v in g), gap


def optimal_support(p_x: Dist, p_y: Dist, c: CostMatrix) -> SupportSet:
    """Union of supports over all optimal couplings.

    One optimal plan and its potentials pin down the whole optimal face: a
    coupling is optimal iff it lives on the cells tight against the
    potentials.  A tight cell then carries mass in some optimal coupling
    iff the base plan already uses it, or mass can be routed onto it around
    an alternating cycle (gain on tight cells, give back on cells the base
    plan uses).  Membership is thus decided by graph reachability rather
    than by thresholding a per-cell LP, which would also admit slack cells
    whose reduced cost is smaller than the mass budget lets on.  TIGHT_TOL
    only separates tight from slack reduced costs (relative to the cost
    scale); the base plan runs on the lifted masses, so a cell counts as
    used when it carries any mass at all.
    """
    _check_dims(p_x, p_y, c)
    m, k = c.shape
    cost = c.as_array()
    plan, f, g, _ = flow.transport_min_cost(p_x.as_array(), p_y.as_array(),
                                            cost)
    tight = tight_cells(cost, f, g)
    used = plan > 0
    # Symbol digraph: x -> y along any tight cell (mass may be added there),
    # y -> x along any used cell (the base plan can give mass back).  A cell
    # (i, j) joins the support iff a path j ~> i closes the cycle through it.
    adj: list[list[int]] = [[] for _ in range(m + k)]
    for i in range(m):
        for j in range(k):
            if tight[i, j]:
                adj[i].append(m + j)
            if used[i, j]:
                adj[m + j].append(i)
    cells = set()
    for j in range(k):
        seen = np.zeros(m + k, dtype=bool)
        stack = [m + j]
        seen[m + j] = True
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
        for i in range(m):
            if tight[i, j] and (used[i, j] or seen[i]):
                cells.add((i, j))
    return SupportSet(frozenset(cells))
