"""Differential tests for six second paths deleted from ``src``.

Each primitive below once had a second path beside it that redid its work:
a BFS for the min cut after Dinic's last search, per-call capacity and
residual types in the max-flow, a blocked inner-table fill, a hand-written
clamp in the dense outer solve, a re-indexed support in the moderate-
deviation face, and an equal-parameter branch in the binary limit curve.
The code as it stood with those paths is kept here verbatim as the oracle,
and the one path left must match it bit for bit.  The float max-flow is
kept too, as the dense solve's old witness: the exact flow replaced it,
and the dense solve is held to it at a stated tolerance.  So is the float
lexicographic coupling, the oracle of the one on lifted integers that
replaced it, and the scalar sweep of the binary limit curve's grid oracle,
the oracle of the array sweep that replaced it.  The exact max-flow now
completes its flow to a coupling in ints, and matches the old exact flow
bit for bit on the admissible cells and its leftovers' northwest-corner
routing off them.  The tuple-of-floats ``JointDist`` is kept as the oracle
of the read-only array that replaced it: the same decisions, messages and
bits on every input, and the same bits out of every coupling's producer
and consumer.
"""
import math
import sys
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
import pytest

from strassen_lab import cli, clt, flow, lattice, mdp, measures, transport
from strassen_lab.clt import (BinaryCltInstance, _dual_objective, _step_cdf,
                              _tail, crossing_points, normal_cdf)
from strassen_lab.errors import SizeGuardError, ValidationError
from strassen_lab.lattice import DENSE_GUARD, PAIR_GUARD, _counts_matrix
from strassen_lab.mdp import _optimal_face, _spread_rows, support_of
from strassen_lab.measures import Dist
from strassen_lab.transport import (ADMISS_EPS, CostMatrix, SupportSet,
                                    dual_vertices, ot_value)

from chain_dp import _witness_values, log_type_masses
from conftest import random_cost, random_dist
from test_transport import find_support_cycle


# ---------------------------------------------------------------------------
# flow: the max-flow kernels with their BFS min cut, their isinstance-picked
# residual type and their cell_cap argument, verbatim.

#: The float flows' dust: a residual, need or remainder at or below it
#: counts as none.
FLOW_EPS = 1e-15


class MaxFlowGraph:
    """An explicit residual graph, with Dinic's algorithm for max-flow.

    Capacities may be floats or Python ints; with ints every intermediate
    value stays exact.  Edges are stored as parallel arrays with the reverse
    edge at ``index ^ 1``; the min-cost solver keeps its edge costs in one
    more array beside them.
    """

    def __init__(self, n_nodes: int):
        self.n = n_nodes
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list = []

    def add_edge(self, u: int, v: int, cap) -> int:
        idx = len(self.to)
        self.adj[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0.0 if isinstance(cap, float) else 0)
        return idx

    def flow_on(self, idx: int):
        """Flow pushed through the forward edge created as ``idx``."""
        return self.cap[idx ^ 1]

    def _bfs(self, s: int, t: int) -> bool:
        self.level = [-1] * self.n
        self.level[s] = 0
        queue = [s]
        for u in queue:
            for e in self.adj[u]:
                v = self.to[e]
                if self.cap[e] > FLOW_EPS and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    queue.append(v)
        return self.level[t] >= 0

    def _dfs(self, u: int, t: int, pushed):
        # The recursion depth is the sink's level.  On the source/x/y/sink
        # graphs used here, with m x and k y nodes, a shortest augmenting
        # path alternates distinct x and y nodes, so that level is at most
        # 2 * min(m, k) + 1 (39 on a 3x3 type lattice at n = 12).
        if u == t:
            return pushed
        while self.it[u] < len(self.adj[u]):
            e = self.adj[u][self.it[u]]
            v = self.to[e]
            if self.cap[e] > FLOW_EPS and self.level[v] == self.level[u] + 1:
                got = self._dfs(v, t, min(pushed, self.cap[e]))
                if got > FLOW_EPS:
                    self.cap[e] -= got
                    self.cap[e ^ 1] += got
                    return got
            self.it[u] += 1
        return 0

    def max_flow(self, s: int, t: int):
        total = 0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                # min() against the first finite capacity keeps integer
                # graphs in exact integer arithmetic.
                pushed = self._dfs(s, t, math.inf)
                if pushed <= FLOW_EPS:
                    break
                total += pushed
        return total

    def source_side_cut(self, s: int) -> set[int]:
        """Nodes reachable from ``s`` in the residual graph after max_flow."""
        seen = {s}
        queue = [s]
        for u in queue:
            for e in self.adj[u]:
                v = self.to[e]
                if self.cap[e] > FLOW_EPS and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def _bipartite_flow(supply, demand, admissible: np.ndarray, cell_cap,
                    scale=1):
    """Max-flow from supplies to demands through the admissible cells.

    Returns ``(flow_value, flow_matrix, source_side_x)``; the flow matrix is
    divided by ``scale`` and ``source_side_x`` is the set of x indices on
    the source side of a minimum cut.
    """
    m, k = admissible.shape
    s, t = m + k, m + k + 1
    g = MaxFlowGraph(m + k + 2)
    for i in range(m):
        g.add_edge(s, i, supply[i])
    for j in range(k):
        g.add_edge(m + j, t, demand[j])
    cell_edges = {}
    for i in range(m):
        row = admissible[i]
        for j in range(k):
            if row[j]:
                cell_edges[(i, j)] = g.add_edge(i, m + j, cell_cap)
    value = g.max_flow(s, t)
    flow = np.zeros((m, k))
    for (i, j), e in cell_edges.items():
        flow[i, j] = g.flow_on(e) / scale
    cut = g.source_side_cut(s)
    witness = {i for i in range(m) if i in cut}
    return value, flow, witness


def bipartite_max_flow(supply: Sequence[float], demand: Sequence[float],
                       admissible: np.ndarray):
    """Max-flow from supplies to demands along admissible cells (floats).

    Returns ``(flow_value, flow_matrix, source_side_x)`` where
    ``source_side_x`` is the set of x indices on the source side of a minimum
    cut — a maximizing witness set for the Strassen dual.
    """
    return _bipartite_flow([float(v) for v in supply],
                           [float(v) for v in demand], admissible, math.inf)


def exact_scaled_masses(*mass_lists: Sequence[float]) -> tuple[list[list[int]], int]:
    """Lift float masses to integers over one common denominator, exactly.

    ``Fraction(float)`` is exact and every denominator is a power of two, so
    the common denominator is their lcm and no rounding occurs anywhere.
    """
    fracs = [[Fraction(v) for v in lst] for lst in mass_lists]
    den = 1
    for lst in fracs:
        for f in lst:
            den = math.lcm(den, f.denominator)
    nums = [[f.numerator * (den // f.denominator) for f in lst] for lst in fracs]
    return nums, den


def bipartite_max_flow_exact(supply: Sequence[float], demand: Sequence[float],
                             admissible: np.ndarray):
    """Integer-arithmetic variant of :func:`bipartite_max_flow`.

    Returns ``(flow_fraction, unrouted_fraction, flow_matrix, witness)``:
    the flow value and the supply it leaves unrouted as exact
    :class:`fractions.Fraction` values, and the matrix already divided back
    to floats.
    """
    (sup, dem), den = exact_scaled_masses(supply, demand)
    value, flow, witness = _bipartite_flow(sup, dem, admissible,
                                           sum(sup) + 1, den)
    return Fraction(value, den), Fraction(sum(sup) - value, den), flow, witness


def check_completed_flow(got, sup, dem, adm, want_flow) -> None:
    """``got``, a completed coupling, against the old exact flow matrix
    ``want_flow``: bit for bit on the admissible cells, and off them the
    northwest-corner routing of the supply and demand that flow leaves,
    run in the lifted ints on the old graph and rounded once per cell."""
    assert got[adm].tobytes() == want_flow[adm].tobytes()
    (sup, dem), den = exact_scaled_masses(sup, dem)
    m, k = adm.shape
    g = MaxFlowGraph(m + k + 2)
    rows = [g.add_edge(m + k, i, v) for i, v in enumerate(sup)]
    cols = [g.add_edge(m + j, m + k + 1, v) for j, v in enumerate(dem)]
    for i, j in np.argwhere(adm):
        g.add_edge(int(i), m + int(j), sum(sup) + 1)
    g.max_flow(m + k, m + k + 1)
    rx = [v - g.flow_on(e) for v, e in zip(sup, rows)]
    ry = [v - g.flow_on(e) for v, e in zip(dem, cols)]
    want = np.zeros((m, k))
    i = j = 0
    while i < m and j < k:
        moved = min(rx[i], ry[j])
        if moved:
            assert not adm[i, j]  # else an augmenting path was left
            want[i, j] = Fraction(moved, den)
            rx[i] -= moved
            ry[j] -= moved
        if rx[i]:
            j += 1
        else:
            i += 1
    assert got[~adm].tobytes() == want[~adm].tobytes()


def lex_min_coupling(supply, demand, allowed: np.ndarray) -> list[list]:
    """The lexicographically least coupling on the allowed cells, as rows.

    In row-major order each cell carries the least mass it must: what the
    allowed cells after it cannot route, one max-flow.  The result is a
    vertex (no support cycle).  Python ints stay exact; a float need within
    ``FLOW_EPS`` of 0 or of its row's or column's remainder snaps there.
    """
    sup, dem = list(supply), list(demand)
    m, k = allowed.shape
    cell_cap = sum(sup) + 1 if isinstance(sum(sup), int) else math.inf
    plan = [[0] * k for _ in range(m)]
    later = np.array(allowed, dtype=bool)
    for i, j in np.argwhere(allowed):
        later[i, j] = False
        routed, _, _ = _bipartite_flow(sup, dem, later, cell_cap)
        need = sum(sup) - routed
        if need <= FLOW_EPS:
            continue
        bound = min(sup[i], dem[j])
        if bound - need <= FLOW_EPS:  # the row or column is used up
            need = bound
        plan[i][j] = need
        sup[i] -= need
        dem[j] -= need
    return plan



# ---------------------------------------------------------------------------
# lattice: the blocked table fill and the dense solve's own clamp, verbatim
# (the dense solve calls the max-flow above by its bare name).

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



def _lattice_ecp_dense(logmu, lognu, adm):
    if adm.size > DENSE_GUARD:
        raise SizeGuardError(f"dense outer flow needs {adm.size} cells")
    mu_lin = np.exp(logmu)
    nu_lin = np.exp(lognu)
    _, _, witness = bipartite_max_flow(mu_lin, nu_lin, adm)
    in_e = np.zeros(len(logmu), dtype=bool)
    in_e[list(witness)] = True
    in_g = adm[in_e].any(axis=0)
    g, comp = _witness_values(logmu, lognu, in_e, in_g)
    return min(max(g, 0.0), 1.0), min(max(comp, 0.0), 1.0)



def _dense_gn_tails(p_x, p_y, c, alpha, n):
    """The dense branch of gn_tails on the oracle's table and flow."""
    adm = _inner_cost_table(c, n) <= alpha + ADMISS_EPS
    if not adm.any():
        return 1.0, 0.0
    return _lattice_ecp_dense(log_type_masses(p_x, n),
                              log_type_masses(p_y, n), adm)


# ---------------------------------------------------------------------------
# mdp: the face spreads with the support solved on the full alphabets and
# mapped into the positive-mass sub-problem, verbatim.

@lru_cache(maxsize=256)
def _face_spreads(p_x: Dist, p_y: Dist, c: CostMatrix):
    """The optimal face's vertices as spread rows under p_x and p_y.

    Zero-mass symbols are dropped first: the chi-square term pins a
    perturbation to zero there, and S has no cell on them.
    """
    px, py = p_x.as_array(), p_y.as_array()
    rows, cols = np.flatnonzero(px > 0.0), np.flatnonzero(py > 0.0)
    at_row = {int(i): a for a, i in enumerate(rows)}
    at_col = {int(j): b for b, j in enumerate(cols)}
    cells = frozenset((at_row[i], at_col[j])
                      for i, j in support_of(p_x, p_y, c).cells
                      if i in at_row and j in at_col)
    sub = CostMatrix(tuple(map(tuple, c.as_array()[np.ix_(rows, cols)])))
    face = _optimal_face(SupportSet(cells), sub)
    if face is None:
        raise ValidationError("the optimal dual face is empty or unbounded")
    spreads = _spread_rows(face[0], px[rows]), _spread_rows(face[1], py[cols])
    for part in spreads:
        part.setflags(write=False)
    return spreads



# ---------------------------------------------------------------------------
# clt: the limit curve with its equal-parameter branch, verbatim.

def lambda_binary(a: float, b: float, delta: float) -> float:
    """Closed-form limit curve of the binary excess-cost probability.

    Requires 0 <= a <= b <= 1/2.  Equal parameters use the midpoint
    threshold with the positive-shift cutoff; otherwise the optimal
    threshold is the larger density crossing.  Zero-variance edges (a = 0)
    degenerate to step CDFs and are evaluated as such.
    """
    if not (0.0 <= a <= b <= 0.5):
        raise ValidationError(
            f"need 0 <= a <= b <= 1/2, got a={a!r}, b={b!r}"
        )
    sx2 = a * (1.0 - a)
    sy2 = b * (1.0 - b)
    if a == b:
        if delta > 0.0:
            return 0.0
        if sx2 == 0.0:
            val = _step_cdf(-delta / 2.0) - _step_cdf(delta / 2.0)
        else:
            val = (normal_cdf(-delta / 2.0, sx2)
                   - normal_cdf(delta / 2.0, sy2))
        return min(1.0, max(0.0, val))
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
    """
    if not (0.0 <= a <= b <= 0.5):
        raise ValidationError(
            f"need 0 <= a <= b <= 1/2, got a={a!r}, b={b!r}"
        )
    sx2 = a * (1.0 - a)
    sy2 = b * (1.0 - b)
    if sy2 == 0.0:
        return 1.0 if delta < 0.0 else 0.0
    smax = math.sqrt(max(sx2, sy2))
    pts = np.linspace(-6.0 * smax, 6.0 * smax, max(int(grid), 3))

    if sx2 == 0.0:
        fun = lambda ap: _step_cdf(ap) - normal_cdf(ap + delta, sy2)
    else:
        fun = lambda ap: _dual_objective(ap, sx2, sy2, delta)

    vals = [fun(p) for p in pts]
    idx = int(np.argmax(vals))
    lo = pts[max(idx - 1, 0)]
    hi = pts[min(idx + 1, len(pts) - 1)]
    for _ in range(60):
        m1 = lo + (hi - lo) * 0.382
        m2 = lo + (hi - lo) * 0.618
        if fun(m1) >= fun(m2):
            hi = m2
        else:
            lo = m1
    best = max(vals[idx], fun(0.5 * (lo + hi)))
    return min(1.0, max(0.0, best))



# ---------------------------------------------------------------------------

def _masses(rng, size, normalized):
    """Masses from 1 down to 1e-30, some exactly zero."""
    w = rng.random(size) * 10.0 ** -rng.integers(0, 31, size)
    w[rng.random(size) < 0.2] = 0.0
    if normalized and w.sum() > 0.0:
        w = w / w.sum()
    return w.tolist()


def _flow_instances(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, k = (int(v) for v in rng.integers(1, 7, 2))
        normalized = bool(rng.random() < 0.5)
        adm = rng.random((m, k)) < rng.random()
        yield _masses(rng, m, normalized), _masses(rng, k, normalized), adm


def _tie_heavy_cost(rng, m, k):
    return CostMatrix.from_rows(rng.integers(0, 3, (m, k)).astype(float)
                                .tolist())


def check_lex_min_coupling(sup, dem, allowed, old) -> bool:
    """The int plan against ``old``, a verbatim float-era lex_min_coupling:
    the same plan when the max-flow routes all the supply, as the old code
    assumed, else a maximum flow with no support cycle.  Returns whether
    all the supply routed."""
    got = flow.lex_min_coupling(sup, dem, allowed)
    assert all(type(v) is int for row in got for v in row)
    value = flow.BipartiteNetwork.on(sup, dem, allowed).max_flow()
    if value == sum(sup):
        assert repr(got) == repr(old(sup, dem, allowed))
        return True
    plan = np.array(got, dtype=float)
    assert not plan[~allowed].any()
    assert all(sum(row) <= s for row, s in zip(got, sup))
    assert all(sum(col) <= d for col, d in zip(zip(*got), dem))
    assert sum(map(sum, got)) == value
    assert find_support_cycle(plan, 0.0) is None
    return False


class TestFlow:
    def test_exact_max_flow_bit_for_bit(self):
        for sup, dem, adm in _flow_instances(1902, 3000):
            got = flow.bipartite_max_flow(sup, dem, adm)
            want = bipartite_max_flow_exact(sup, dem, adm)
            assert (got.value, got.unrouted) == want[:2]
            check_completed_flow(got.plan, sup, dem, adm, want[2])
            assert got.witness == want[3]

    def test_witness_is_the_residual_reach(self):
        # the levels of the last search are the BFS they replaced, run on
        # the residual graph of the solved network: supply and demand
        # left, the total supply less each cell's flow and, backward, the
        # flow itself
        for sup, dem, adm in _flow_instances(1903, 500):
            m, k = adm.shape
            sup, dem, _ = flow._lift(sup, dem)
            net = flow.BipartiteNetwork.on(sup, dem, adm)
            net.max_flow()
            g = MaxFlowGraph(m + k + 2)
            for i, left in enumerate(net.sup):
                g.cap[g.add_edge(m + k, i, left) ^ 1] = sup[i] - left
            for j, left in enumerate(net.dem):
                g.cap[g.add_edge(m + j, m + k + 1, left) ^ 1] = dem[j] - left
            for i, j in np.argwhere(adm).tolist():
                moved = net.into[j].get(i, 0)
                g.cap[g.add_edge(i, m + j, sum(sup) - moved) ^ 1] = moved
            reach = MaxFlowGraph.source_side_cut(g, m + k)
            levels = net.level[0] + net.level[1] + [0]
            assert reach == {v for v in range(m + k + 1) if levels[v] >= 0}

    def test_integer_lex_min_coupling_bit_for_bit(self):
        # bit for bit wherever the max-flow routes all the supply
        rng = np.random.default_rng(1904)
        routed = []
        for _ in range(400):
            m, k = (int(v) for v in rng.integers(1, 6, 2))
            sup = rng.integers(0, 10, m).tolist()
            cuts = np.sort(rng.integers(0, sum(sup) + 1, k - 1))
            dem = np.diff(cuts, prepend=0, append=sum(sup)).tolist()
            allowed = rng.random((m, k)) < 0.3 + 0.7 * rng.random()
            routed.append(check_lex_min_coupling(sup, dem, allowed,
                                                 lex_min_coupling))
        assert routed.count(True) == 179  # the other 221 leave supply

    def test_float_lex_min_coupling_moves_within_1e_15(self):
        # the old float plan against the lifted one, divided back once per
        # cell: the same support, and every cell within 1e-15
        rng = np.random.default_rng(1905)
        moved = 0
        for _ in range(400):
            m, k = (int(v) for v in rng.integers(1, 6, 2))
            px, py = random_dist(rng, m), random_dist(rng, k)
            cost = _tie_heavy_cost(rng, m, k).as_array()
            tight = flow.transport_min_cost(px.mass, py.mass, cost)[4]
            sup, dem, den = flow._lift(px.mass, py.mass)
            got = np.array([[v / den for v in row] for row in
                            flow.lex_min_coupling(sup, dem, tight)])
            want = np.array(lex_min_coupling(px.mass, py.mass, tight), float)
            assert ((got > 0) == (want > 0)).all()
            assert got == pytest.approx(want, rel=0.0, abs=1e-15)
            moved += got.tobytes() != want.tobytes()
        assert moved == 257  # the rest are bit for bit


def _table_cases():
    rng = np.random.default_rng(1906)
    shapes = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4),
              (4, 3), (4, 4)]
    cases = []
    for i in range(80):
        m, k = shapes[i % len(shapes)]
        c = (_tie_heavy_cost(rng, m, k) if i % 2
             else random_cost(rng, m, k))
        cases.append((c, int(rng.integers(1, 13 if m * k < 12 else 8))))
    # past the vertex kernel: one min-cost flow per pair
    cases += [(random_cost(rng, 3, 5), n) for n in (1, 2, 3)]
    return cases


class TestInnerCostTable:
    @pytest.mark.parametrize("block", [None, 5])
    def test_bit_for_bit_as_the_blocked_fill(self, block, monkeypatch):
        if block is not None:  # several blocks, the last one partial
            monkeypatch.setattr(sys.modules[__name__], "_TABLE_BLOCK", block)
        for c, n in _table_cases():
            got = lattice._inner_cost_table.__wrapped__(c, n)
            want = _inner_cost_table.__wrapped__(c, n)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _dense_cases():
    rng = np.random.default_rng(1907)
    shapes = [(3, 3), (3, 4), (4, 3)]
    for i in range(90):
        m, k = shapes[i % 3]
        px, py = random_dist(rng, m), random_dist(rng, k)
        c = _tie_heavy_cost(rng, m, k) if i % 2 else random_cost(rng, m, k)
        n = int(rng.integers(1, 7))
        levels = np.unique(_inner_cost_table(c, n))
        # the table's own values (ties at the threshold), the ends, and
        # points between them
        alphas = list(rng.choice(levels, 4))
        alphas += [-1.0, float(levels.max()), float(rng.random() * c.max())]
        alphas.append(float(rng.uniform(levels.min(), levels.max())))
        for alpha in alphas:
            yield px, py, c, float(alpha), n


class TestDenseOuterSolve:
    def test_gn_tails_bit_for_bit(self):
        # the dense route now runs the exact flow on the integer type
        # masses and reads G and 1 - G off its value: 399 of the 720 calls
        # move from the float flow's witness on the float masses, G by at
        # most 2.9e-15 relative and 1 - G by at most 1.6e-15; a G of 0.0
        # stays 0.0
        count = moved = 0
        for px, py, c, alpha, n in _dense_cases():
            got = lattice.gn_tails(px, py, c, alpha, n)
            want = _dense_gn_tails(px, py, c, alpha, n)
            assert got == pytest.approx(want, rel=3e-15, abs=0.0)
            moved += got != want
            count += 1
        assert (count, moved) == (720, 399)


def _mdp_cases(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, k = (int(v) for v in rng.integers(2, 5, 2))
        dists = []
        for size in (m, k):
            w = rng.integers(0, 4, size).astype(float)
            if w.sum() == 0.0:
                w[rng.integers(size)] = 1.0
            dists.append(Dist.from_mass((w / w.sum()).tolist()))
        yield dists[0], dists[1], _tie_heavy_cost(rng, m, k)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


class TestFaceSpreads:
    def test_spreads_and_kernels_bit_for_bit(self):
        raised = 0
        for px, py, c in _mdp_cases(1908, 600):
            got = _outcome(mdp._face_spreads, px, py, c)
            want = _outcome(_face_spreads, px, py, c)
            if isinstance(want, str):
                assert got == want
                raised += 1
                continue
            assert [w.tobytes() for w in got] == [w.tobytes() for w in want]
            assert repr(mdp.mdp_rate_upper(px, py, c, 0.5)) == repr(
                0.25 * mdp._kernel(float(np.max(
                    np.linalg.norm(want[0], axis=1)
                    + np.linalg.norm(want[1], axis=1)))))
            assert repr(mdp.mdp_rate_lower(px, py, c, -0.5)) == repr(
                0.25 * mdp._kernel(mdp._max_spread_gap(*want)))
        assert raised < 60

    def test_support_has_no_zero_mass_symbol(self):
        for px, py, c in _mdp_cases(1909, 300):
            for i, j in support_of(px, py, c).cells:
                assert px.mass[i] > 0.0 and py.mass[j] > 0.0


def _clt_cases():
    params = [0.0, 5e-324, 1e-300, 1e-17, 1e-9, 0.01, 0.1, 0.2, 0.3,
              0.4999999999999999, 0.5]
    deltas = [0.0, -0.0, math.nan]
    for d in (5e-324, 1.5e-323, 1e-300, 1e-17, 1e-9, 1e-3, 0.01, 0.1, 0.5,
              1.0, 3.0, 40.0):
        deltas += [d, -d]
    deltas += np.linspace(-3.0, 3.0, 61).tolist()
    for i, a in enumerate(params):
        for b in params[i:]:
            for d in deltas:
                yield a, b, d
    rng = np.random.default_rng(1910)
    for _ in range(1350):
        a = float(rng.uniform(0.0, 0.5))
        yield a, a, float(rng.normal(0.0, 10.0 ** rng.uniform(-18, 1)))


class TestLambdaBinary:
    def test_bit_for_bit_as_the_equal_parameter_branch(self):
        count = 0
        for a, b, d in _clt_cases():
            count += 1
            if math.isnan(d):
                # a nan delta once read as a value; it now raises
                with pytest.raises(ValidationError):
                    clt.lambda_binary(a, b, d)
                continue
            got = clt.lambda_binary(a, b, d)
            if (a, b, d) == (0.0, 0.0, -5e-324):
                # the one value that moves: the old delta / 2 rounded to -0
                # and lost the sign; the supremum is 1 for every delta < 0
                assert got == 1.0 and lambda_binary(a, b, d) == 0.0
                continue
            assert repr(got) == repr(lambda_binary(a, b, d)), (a, b, d)
        assert count >= 7000

    def test_point_masses_read_as_the_grid_oracle(self):
        for d in (-1.0, -1e-300, -5e-324, -0.0, 0.0, 5e-324, 1.0):
            assert clt.lambda_binary(0.0, 0.0, d) == clt.lambda_dual_grid(
                0.0, 0.0, d)


def _grid_cases():
    """(a, b, delta, grid): random, a = 0, a = b, signed zeros and the
    smallest subnormals, and the cli-startup grids of seeds 1-20."""
    rng = np.random.default_rng(2323)
    tiny = (0.0, -0.0, 5e-324, -5e-324)
    for _ in range(150):
        a, b = sorted(float(v) for v in rng.uniform(0.0, 0.5, 2))
        yield a, b, float(rng.normal(0.0, 10.0 ** rng.uniform(-3, 1))), 2001
    for _ in range(40):
        b = float(rng.uniform(0.0, 0.5))
        yield 0.0, b, float(rng.normal(0.0, 2.0)), 2001
        yield b, b, float(rng.normal(0.0, 2.0)), 2001
        yield 0.0, b, float(rng.normal(0.0, 2.0)), int(rng.integers(1, 60))
        yield *sorted(float(v) for v in rng.uniform(0.0, 0.5, 2)), float(
            rng.normal(0.0, 2.0)), int(rng.integers(1, 60))
    for a, b in ((0.0, 0.3), (0.2, 0.2), (0.1, 0.5), (0.0, 0.0),
                 (5e-324, 0.4), (1e-17, 1e-9)):
        for d in tiny:
            yield a, b, d, 2001
    for seed in range(1, 21):
        grid_rng = np.random.default_rng(seed)
        a = float(grid_rng.integers(5, 30)) / 100.0
        b = float(grid_rng.integers(int(a * 100) + 10, 51)) / 100.0
        for d in cli._parse_grid("-3:3:41"):
            yield a, b, d, 2001


class TestLambdaDualGrid:
    def test_array_sweep_bit_for_bit(self):
        count = 0
        for a, b, d, grid in _grid_cases():
            got = clt.lambda_dual_grid(a, b, d, grid)
            assert type(got) is float, (a, b, d, grid)
            assert got.hex() == float(lambda_dual_grid(a, b, d, grid)).hex(), (
                a, b, d, grid)
            count += 1
        assert count >= 1100

    @pytest.mark.parametrize("a, b", [(0.2, 0.4), (0.3, 0.3), (0.0, 0.3)])
    def test_overflowing_delta_warns_nothing(self, a, b):
        # the scalar sweep overflows (a' + delta) / sigma_y in np.float64
        # and warns (a = 0 divides only by sqrt(2) sigma_y, which stays
        # finite); the array sweep and the polish reach the same values
        # quietly
        deltas = cli._parse_grid("0:1e308:3")
        with (pytest.warns(RuntimeWarning, match="overflow") if a > 0.0
              else warnings.catch_warnings()):
            want = [lambda_dual_grid(a, b, d) for d in deltas]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [clt.lambda_dual_grid(a, b, d) for d in deltas]
        assert [type(v) for v in got] == [float] * 3
        assert [v.hex() for v in got] == [float(v).hex() for v in want]


# ---------------------------------------------------------------------------
# measures: the tuple-of-floats JointDist, verbatim, with its entry-by-entry
# dust clamp.

MASS_ATOL = 1e-12


def _cleaned(values: Iterable[float]) -> tuple[float, ...]:
    """Clamp negative float dust (magnitude below 1e-12) to exact zero.

    Mixtures and conditional residuals legitimately produce -1e-17 noise;
    anything more negative is a real invariant violation and is kept so the
    constructor can reject it.
    """
    out = []
    for v in values:
        v = float(v)
        if -MASS_ATOL < v < 0.0:
            v = 0.0
        out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class JointDist:
    """A joint probability matrix indexed by (x, y)."""

    matrix: tuple

    def __post_init__(self) -> None:
        rows = []
        width = None
        for row in self.matrix:
            row = _cleaned(row)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValidationError("ragged joint matrix")
            rows.append(row)
        if not rows or width == 0:
            raise ValidationError("joint matrix must be nonempty")
        object.__setattr__(self, "matrix", tuple(rows))
        total = 0.0
        for row in self.matrix:
            for v in row:
                if not math.isfinite(v) or v < 0.0:
                    raise ValidationError(f"entry {v!r} is not a finite nonnegative real")
        total = math.fsum(v for row in self.matrix for v in row)
        if abs(total - 1.0) > MASS_ATOL:
            raise ValidationError(f"entries sum to {total!r}, not 1")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.matrix), len(self.matrix[0]))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "JointDist":
        return cls(tuple(tuple(float(v) for v in row) for row in np.asarray(arr, dtype=float)))

    @classmethod
    def product(cls, p: Dist, q: Dist) -> "JointDist":
        return cls.from_array(np.outer(p.as_array(), q.as_array()))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=float)

    def marginal_x(self) -> tuple[float, ...]:
        return tuple(math.fsum(row) for row in self.matrix)

    def marginal_y(self) -> tuple[float, ...]:
        k = self.shape[1]
        return tuple(math.fsum(row[j] for row in self.matrix) for j in range(k))


def _joint_cases():
    """(kind, input): random tables up to 40 x 40 as arrays, lists and
    tuples; dust, -0.0, negatives past the dust, nan and +-inf; totals at
    1 +- 1e-12 on both sides of the bound; ragged, empty, 0-, 1- and 3-D
    input; int and bool entries."""
    rng = np.random.default_rng(2525)
    forms = (lambda a: a, lambda a: a.tolist(),
             lambda a: tuple(map(tuple, a.tolist())), lambda a: list(a))

    def table(m=None, k=None):
        m = int(rng.integers(1, 41)) if m is None else m
        k = int(rng.integers(1, 41)) if k is None else k
        w = rng.random((m, k)) ** rng.integers(1, 8)
        w[rng.random((m, k)) < rng.random()] = 0.0
        w.flat[rng.integers(w.size)] += 1e-3
        return w / w.sum()

    def form(a):
        return forms[int(rng.integers(len(forms)))](a)

    for _ in range(500):
        yield "random", form(table())
    dust = (-1e-13, -5e-324, -0.0, np.nextafter(-1e-12, 0.0))
    for _ in range(200):
        a = table()
        for i in rng.integers(a.size, size=int(rng.integers(1, 6))):
            a.flat[i] = dust[int(rng.integers(len(dust)))]
        yield "dust", form(a)
    bad = (-1e-13, -5e-324, -0.0, np.nextafter(-1e-12, 0.0), -1e-12,
           -1e-11, -0.25, math.nan, math.inf, -math.inf)
    for _ in range(700):
        a = table()
        for _ in range(int(rng.integers(1, 4))):
            a.flat[rng.integers(a.size)] = bad[int(rng.integers(len(bad)))]
        yield "entries", form(a)
    for _ in range(400):
        a = table()
        side = 1.0 + float(rng.choice((-1e-12, 1e-12)))
        j = int(np.argmax(a))
        a.flat[j] += side - math.fsum(a.flat)
        a.flat[j] += int(rng.integers(-3, 4)) * np.spacing(a.flat[j])
        yield "total", form(a)
    for _ in range(100):
        m, k = (int(v) for v in rng.integers(2, 6, 2))
        rows = table(m, k).tolist()
        i = int(rng.integers(m))
        rows[i] = rows[i][:int(rng.integers(k))] if rng.random() < 0.5 \
            else rows[i] + [0.0]
        yield "ragged", rows
    yield from (("empty", v) for v in ([], [[]], [[], []], (), ((),),
                                       np.zeros((0, 3)), np.zeros((3, 0))))
    for _ in range(100):
        m, k = (int(v) for v in rng.integers(1, 5, 2))
        cube = table(m, k)[:, :, None]
        yield "3-D", cube if rng.random() < 0.5 else cube.tolist()
    yield from (("0-D, 1-D", v) for v in (
        1.0, np.float64(1.0), np.array(1.0), [1.0], [0.5, 0.5],
        np.array([0.25, 0.75]), (1.0,)))
    for _ in range(300):
        m, k = (int(v) for v in rng.integers(1, 4, 2))
        a = rng.integers(0, 2, (m, k))
        if rng.random() < 0.6:
            a[:] = 0
            a[int(rng.integers(m)), int(rng.integers(k))] = 1
        if rng.random() < 0.5:
            a = a.astype(bool)
        if rng.random() < 0.5:
            a = a.tolist()
            a[0][0] = [0, 0.0, False, 1, True][int(rng.integers(5))]
        yield "int, bool", a


def _joint_outcome(make, arg):
    """Accepted: ("ok", as_array, marginal_x, marginal_y) in float.hex;
    rejected: the ValidationError's message, or the other exception's type."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            j = make(arg)
        except ValidationError as exc:
            return ("ValidationError", str(exc))
        except Exception as exc:
            return ("other", type(exc).__name__)
    mat = j.as_array()
    assert mat.dtype == np.float64 and mat.ndim == 2 and mat.shape == j.shape
    mx, my = j.marginal_x(), j.marginal_y()
    assert all(type(v) is float for v in mx + my)
    return ("ok", j.shape, [v.hex() for v in mat.ravel().tolist()],
            [v.hex() for v in mx], [v.hex() for v in my])


class TestJointDist:
    def test_bulk_checks_bit_for_bit(self):
        # the same decision, message, array and marginals as the tuple
        # class, through both entry points; where the tuple class raised a
        # bare TypeError (0-, 1- and 3-D input) or ValueError (ragged input
        # to from_array), the array class raises ValidationError
        tally = Counter()
        for kind, arg in _joint_cases():
            for old, new in ((JointDist, measures.JointDist),
                             (JointDist.from_array, measures.JointDist.from_array)):
                want, got = _joint_outcome(old, arg), _joint_outcome(new, arg)
                tally[kind, want[0], got[0]] += 1
                if want[0] in ("ok", "ValidationError"):
                    assert got == want, (kind, arg)
                else:
                    assert got[0] == "ValidationError", (kind, arg)
                    assert got[1] in ("ragged joint matrix",
                                      "joint matrix must be nonempty")
        assert sum(tally.values()) >= 4000
        changed = {key: n for key, n in tally.items() if key[1] != key[2]}
        assert changed == {("0-D, 1-D", "other", "ValidationError"): 14,
                           ("3-D", "other", "ValidationError"): 200,
                           ("ragged", "other", "ValidationError"): 100}

    def test_matrix_is_one_read_only_copy(self):
        src = np.full((2, 3), 1 / 6)
        j = measures.JointDist(src)
        src[0, 0] = 7.0
        mat = j.as_array()
        assert mat is j.matrix and mat.dtype == np.float64 and mat[0, 0] == 1 / 6
        assert not mat.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mat[0, 0] = 0.5
        assert measures.JointDist.product(Dist.bernoulli(0.3),
                                          Dist.uniform(3)).matrix.flags.writeable is False

    def test_equality_is_identity(self):
        a = measures.JointDist([[0.5, 0.5]])
        b = measures.JointDist([[0.5, 0.5]])
        assert a == a and a != b and len({a, b}) == 2

    def test_every_producer_and_consumer_bit_for_bit(self):
        # each coupling built and read with the tuple class swapped in
        # against the array class: plans, the certificate's gap and the
        # lifted trips are the same bits
        def run(cls):
            with pytest.MonkeyPatch.context() as mp:
                for mod in (measures, transport, lattice):
                    mp.setattr(mod, "JointDist", cls)
                return list(_coupling_outputs(cls))

        want, got = run(JointDist), run(measures.JointDist)
        assert len(got) >= 2000
        assert got == want


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


def _coupling_outputs(cls):
    rng = np.random.default_rng(2526)
    for _ in range(300):
        m, k = (int(v) for v in rng.integers(1, 6, 2))
        px, py, qx, qy = (random_dist(rng, size) for size in (m, k, m, k))
        c = _tie_heavy_cost(rng, m, k) if rng.random() < 0.5 \
            else random_cost(rng, m, k)
        alpha = float(rng.uniform(0.0, c.max()))
        plan = transport.ot_cost(px, py, c)
        yield "ot_cost", _hex(plan.plan.as_array()), plan.objective.hex()
        yield "gap", float(transport.kantorovich_certificate(
            px, py, c, plan)[2]).hex()
        elsewhere = transport.TransportPlan(cls.product(px, py), 1.0)
        yield "gap elsewhere", float(transport.kantorovich_certificate(
            px, py, c, elsewhere)[2]).hex()
        yield "ecp", _hex(transport.ecp(px, py, c, alpha).plan.as_array())
        yield "product", _hex(cls.product(px, qy).as_array())
        yield "marginals", _hex(cls.product(px, qy).marginal_y())
        if m == k:
            qx = Dist(py.labels, qx.mass)
            yield "maximal", _hex(measures.maximal_coupling(py, qx)
                                  .as_array())
        moved = measures.coupling_transfer(cls.product(qx, qy), px, py)
        yield "transfer", _hex(moved.as_array())
    for px, py, c, n in (
            (Dist.bernoulli(0.3), Dist.bernoulli(0.6), CostMatrix.hamming(2), 9),
            (Dist.from_mass([0.37, 0.63]), Dist.from_mass([0.17, 0.29, 0.54]),
             CostMatrix.from_rows([[0.0, 0.6, 1.0], [0.8, 0.2, 0.5]]), 6),
            (Dist.from_mass([0.2, 0.3, 0.5]), Dist.from_mass([0.5, 0.1, 0.4]),
             CostMatrix.from_rows([[0, 1, 2], [1, 0, 1], [2, 1, 0]]), 3)):
        inst = lattice.nested_instance(px, py, c, n)
        for alpha in np.unique(inst.inner_cost)[::2]:
            pi = lattice.optimal_outer_plan(inst, float(alpha))
            yield "outer", _hex(pi.as_array())
            yield "trips", [(p.hex(), mat) for p, mat in
                            lattice.lift_coupling(pi, inst)._trips]
        for _ in range(20):
            a_set = {int(i) for i in rng.integers(len(inst.mu), size=3)}
            b_set = {int(j) for j in rng.integers(len(inst.nu), size=3)}
            yield "splitting", _hex(lattice.splitting_coupling(
                inst.mu, inst.nu, a_set, b_set).as_array())
