"""Network-flow kernels: max-flow and a transportation solver with duals.

These are written directly rather than taken from a library because the rest
of the package needs two things generic solvers do not expose:

* terminating node potentials that are dual-feasible on *every* cell,
  including cells incident to zero-supply nodes (the Kantorovich certificate
  depends on this), and
* an exact big-integer max-flow mode.  Every one-pair excess-cost solve
  (``transport.ecp``) runs in it; the float mode serves the type lattices
  and the product-space oracle, whose masses are already rounded.  The
  capacities alone pick the mode.

The Strassen witness is the source side of a minimum cut, read off the
level graph of Dinic's last search.

Graphs here are bipartite networks over alphabets or type lattices, up to
a few hundred nodes a side: Dinic for max-flow (on a residual graph built
in bulk from the admissible cells), successive shortest paths with
Dijkstra for min-cost flow, and a lexicographic max-flow for vertex
couplings.
"""
from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

#: Residual capacities at or below this are treated as saturated in float mode.
FLOW_EPS = 1e-15


class MaxFlowGraph:
    """An explicit residual graph, with Dinic's algorithm for max-flow.

    Capacities may be floats, ints or ``math.inf``; reverse residuals start
    at the int 0, so int graphs stay exact.  Edges are stored as parallel
    arrays with the reverse edge at ``index ^ 1``; the min-cost solver
    keeps its edge costs in one more array beside them.
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
        self.cap.append(0)
        return idx

    def flow_on(self, idx: int):
        """Flow pushed through the forward edge created as ``idx``."""
        return self.cap[idx ^ 1]

    @classmethod
    def from_edges(cls, n_nodes: int, tails, heads, caps) -> "MaxFlowGraph":
        """The graph ``add_edge`` builds from these edges in order, in bulk:
        edge ``idx`` belongs to node ``to[idx ^ 1]``, and a stable sort by
        owner lists each node's edges in creation order.  ``caps``: a list."""
        g = cls(n_nodes)
        owner = np.column_stack([tails, heads]).ravel()
        order = np.argsort(owner, kind="stable").tolist()
        ends = np.cumsum(np.bincount(owner, minlength=n_nodes)).tolist()
        g.adj = [order[a:b] for a, b in zip([0] + ends, ends)]
        g.to = owner.reshape(-1, 2)[:, ::-1].ravel().tolist()
        g.cap = [0] * len(g.to)
        g.cap[::2] = caps
        return g

    def _bfs(self, s: int, t: int) -> bool:
        # stops at t, for no other node at or past its level is on a
        # shortest path; a failed search levels all that s reaches
        adj, to, cap, eps = self.adj, self.to, self.cap, FLOW_EPS
        level = self.level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            up = level[u] + 1
            for e in adj[u]:
                v = to[e]
                if cap[e] > eps and level[v] < 0:
                    level[v] = up
                    if v == t:
                        return True
                    queue.append(v)
        return False

    def max_flow(self, s: int, t: int):
        """Dinic's algorithm, each search a depth-first walk on an explicit
        stack, so a path of any length fits (a staircase of m rows needs one
        through every row).  A node resumes at its current arc, a dead end
        advances its parent's, and a path pushes its least residual, so
        integer graphs stay exact."""
        adj, to, cap, eps = self.adj, self.to, self.cap, FLOW_EPS
        total = 0
        while self._bfs(s, t):
            level, it = self.level, [0] * self.n
            path, u = [], s
            while True:
                if u == t:
                    got = min([cap[e] for e in path])
                    for e in path:
                        cap[e] -= got
                        cap[e ^ 1] += got
                    total += got
                    path, u = [], s
                edges, up = adj[u], level[u] + 1
                for a in range(it[u], len(edges)):
                    e = edges[a]
                    if cap[e] > eps and level[to[e]] == up:
                        break
                else:
                    it[u] = len(edges)
                    if not path:
                        break
                    u = to[path.pop() ^ 1]
                    it[u] += 1
                    continue
                it[u] = a
                path.append(e)
                u = to[e]
        return total


def _bipartite_flow(supply, demand, admissible: np.ndarray, scale=1):
    """Max-flow from supplies to demands through the admissible cells.

    Returns ``(flow_value, flow_matrix, source_side_x)``; the flow matrix is
    divided by ``scale`` and ``source_side_x`` is the set of x indices on
    the source side of a minimum cut: the nodes that the last, failed
    search of ``max_flow`` levelled, for its walk never stops early.  The
    edges are the source's, the sink's, then the cells' in row-major order.
    """
    m, k = admissible.shape
    s, t = m + k, m + k + 1
    rows, cols = np.nonzero(admissible)
    g = MaxFlowGraph.from_edges(
        m + k + 2, np.concatenate([np.full(m, s), m + np.arange(k), rows]),
        np.concatenate([np.arange(m), np.full(k, t), m + cols]),
        [*supply, *demand] + [math.inf] * len(rows))
    value = g.max_flow(s, t)
    flow = np.zeros((m, k))
    flow[rows, cols] = [v / scale for v in g.cap[2 * (m + k) + 1::2]]
    witness = {i for i in range(m) if g.level[i] >= 0}
    return value, flow, witness


def bipartite_max_flow(supply: Sequence[float], demand: Sequence[float],
                       admissible: np.ndarray):
    """Max-flow from supplies to demands along admissible cells (floats).

    Returns ``(flow_value, flow_matrix, source_side_x)`` where
    ``source_side_x`` is the set of x indices on the source side of a minimum
    cut — a maximizing witness set for the Strassen dual.
    """
    return _bipartite_flow([float(v) for v in supply],
                           [float(v) for v in demand], admissible)


def bipartite_max_flow_exact(supply: Sequence[float], demand: Sequence[float],
                             admissible: np.ndarray):
    """Integer-arithmetic variant of :func:`bipartite_max_flow`.

    Returns ``(flow_fraction, unrouted_fraction, flow_matrix, witness)``:
    the flow value and the supply it leaves unrouted as exact
    :class:`fractions.Fraction` values, and the matrix already divided back
    to floats.  ``Fraction(float)`` is exact with a power-of-two
    denominator, so the masses lift to integers over their lcm unrounded.
    """
    sup, dem = [Fraction(v) for v in supply], [Fraction(v) for v in demand]
    den = math.lcm(*(f.denominator for f in sup + dem))
    sup, dem = ([f.numerator * (den // f.denominator) for f in lst]
                for lst in (sup, dem))
    value, flow, witness = _bipartite_flow(sup, dem, admissible, den)
    return Fraction(value, den), Fraction(sum(sup) - value, den), flow, witness


def lex_min_coupling(supply, demand, allowed: np.ndarray) -> list[list]:
    """The lexicographically least coupling on the allowed cells, as rows.

    In row-major order each cell carries the least mass it must: what the
    allowed cells after it cannot route, one max-flow.  The result is a
    vertex (no support cycle).  Python ints stay exact; a float need within
    ``FLOW_EPS`` of 0 or of its row's or column's remainder snaps there.
    """
    sup, dem = list(supply), list(demand)
    m, k = allowed.shape
    plan = [[0] * k for _ in range(m)]
    later = np.array(allowed, dtype=bool)
    for i, j in np.argwhere(allowed):
        later[i, j] = False
        routed, _, _ = _bipartite_flow(sup, dem, later)
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


def transport_min_cost(supply: Sequence[float], demand: Sequence[float],
                       cost: np.ndarray):
    """Balanced transportation problem by successive shortest paths.

    Returns ``(plan, f, g, objective)`` where ``f`` and ``g`` are dual
    potentials satisfying f(x) + g(y) <= c(x, y) on every cell (not just the
    support), derived from the terminating node potentials.

    Potential updates are capped at the sink distance, which keeps the duals
    feasible at nodes the last Dijkstra never reached — in particular at
    zero-supply symbols, which are deliberately retained.
    """
    m, k = cost.shape
    if len(supply) != m or len(demand) != k:
        raise ValueError("supply/demand lengths do not match the cost shape")
    n = m + k + 2
    s, t = m + k, m + k + 1
    graph = MaxFlowGraph(n)
    ecost: list[float] = []  # per edge, parallel to graph.to and graph.cap

    def add(u, v, cap, w):
        ecost.extend((float(w), -float(w)))
        return graph.add_edge(u, v, float(cap))

    for i in range(m):
        add(s, i, supply[i], 0.0)
    for j in range(k):
        add(m + j, t, demand[j], 0.0)
    cell_edge = np.empty((m, k), dtype=int)
    for i in range(m):
        for j in range(k):
            cell_edge[i, j] = add(i, m + j, math.inf, cost[i, j])
    adj, eto, ecap = graph.adj, graph.to, graph.cap

    pot = [0.0] * n
    while True:
        dist = [math.inf] * n
        dist[s] = 0.0
        par_edge = [-1] * n
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u] + 1e-15:
                continue
            for e in adj[u]:
                if ecap[e] <= FLOW_EPS:
                    continue
                v = eto[e]
                nd = d + ecost[e] + pot[u] - pot[v]
                if nd < dist[v] - 1e-15:
                    dist[v] = nd
                    par_edge[v] = e
                    heapq.heappush(heap, (nd, v))
        if not math.isfinite(dist[t]):
            break
        for v in range(n):
            pot[v] += min(dist[v], dist[t])
        # Bottleneck along the shortest path; Dijkstra crossed only edges
        # with more than FLOW_EPS left, so it exceeds FLOW_EPS.
        push = math.inf
        v = t
        while v != s:
            e = par_edge[v]
            push = min(push, ecap[e])
            v = eto[e ^ 1]
        v = t
        while v != s:
            e = par_edge[v]
            ecap[e] -= push
            ecap[e ^ 1] += push
            v = eto[e ^ 1]

    plan = np.zeros((m, k))
    for i in range(m):
        for j in range(k):
            plan[i, j] = graph.flow_on(cell_edge[i, j])
    f = np.array([-pot[i] for i in range(m)])
    g = np.array([pot[m + j] for j in range(k)])
    objective = float(np.sum(plan * cost))
    return plan, f, g, objective
