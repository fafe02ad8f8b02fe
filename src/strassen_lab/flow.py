"""Network-flow kernels: max-flow and a transportation solver with duals.

These are written directly rather than taken from a library because the rest
of the package needs two things generic solvers do not expose:

* terminating node potentials that are dual-feasible on *every* cell,
  including cells incident to zero-supply nodes (the Kantorovich certificate
  depends on this), and
* an exact big-integer max-flow mode used to pin down borderline cuts.

Graphs here are tiny bipartite networks (alphabets or type lattices), so the
implementations favor clarity over asymptotic heroics: Dinic for max-flow,
successive shortest paths with Dijkstra for min-cost flow, and a
lexicographic max-flow for vertex couplings.
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
    """Dinic's algorithm on an explicit residual graph.

    Capacities may be floats or Python ints; with ints every intermediate
    value stays exact.  Edges are stored as parallel arrays with the reverse
    edge at ``index ^ 1``.
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
        # Depth is at most 4 on the source/x/y/sink graphs used here, so
        # recursion is safe.
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

    Returns ``(flow_fraction, flow_matrix, witness)`` with the flow value as
    an exact :class:`fractions.Fraction` and the matrix already divided back
    to floats.
    """
    (sup, dem), den = exact_scaled_masses(supply, demand)
    value, flow, witness = _bipartite_flow(sup, dem, admissible,
                                           sum(sup) + 1, den)
    return Fraction(value, den), flow, witness


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
    # Adjacency as parallel edge arrays (reverse edge at idx ^ 1).
    eto: list[int] = []
    ecap: list[float] = []
    ecost: list[float] = []
    adj: list[list[int]] = [[] for _ in range(n)]

    def add(u, v, cap, w):
        idx = len(eto)
        eto.append(v); ecap.append(float(cap)); ecost.append(float(w))
        adj[u].append(idx)
        eto.append(u); ecap.append(0.0); ecost.append(-float(w))
        adj[v].append(idx + 1)
        return idx

    for i in range(m):
        add(s, i, supply[i], 0.0)
    for j in range(k):
        add(m + j, t, demand[j], 0.0)
    cell_edge = np.empty((m, k), dtype=int)
    for i in range(m):
        for j in range(k):
            cell_edge[i, j] = add(i, m + j, math.inf, cost[i, j])

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
        # Bottleneck along the shortest path.
        push = math.inf
        v = t
        while v != s:
            e = par_edge[v]
            push = min(push, ecap[e])
            v = eto[e ^ 1]
        if push <= FLOW_EPS:
            break
        v = t
        while v != s:
            e = par_edge[v]
            ecap[e] -= push
            ecap[e ^ 1] += push
            v = eto[e ^ 1]

    plan = np.zeros((m, k))
    for i in range(m):
        for j in range(k):
            plan[i, j] = ecap[cell_edge[i, j] ^ 1]
    f = np.array([-pot[i] for i in range(m)])
    g = np.array([pot[m + j] for j in range(k)])
    objective = float(np.sum(plan * cost))
    return plan, f, g, objective
