"""Network-flow kernels: max-flow and a transportation solver with duals.

These are written directly rather than taken from a library because the rest
of the package needs two things generic solvers do not expose:

* terminating node potentials that are dual-feasible on *every* cell,
  including cells incident to zero-supply nodes (the Kantorovich certificate
  depends on this), and
* exact flows.  Every flow runs on Python ints, masses lifted to integers
  over one common denominator (``_lift``) and each plan cell divided back
  once: every Strassen value, witness and coupling (``transport.ecp``, the
  type lattices' outer solves, the product-space oracle and ``sample``'s
  outer plan), the min-cost flow, ``ot_cost``'s vertex plan and the
  coupling samplers' joint types (on their counts).

The Strassen witness is the source side of a minimum cut, read off the
level graph of Dinic's last search.  ``bipartite_max_flow`` returns the
solved graph with its exact flow value (``BipartiteFlow``); the coupling
and the witness are built from it only when a caller reads them, so a
value-only caller on ints of any size meets no float.

Graphs here are bipartite networks over alphabets or type lattices, up to
a few hundred nodes a side, each built in bulk by one builder
(``_network``): Dinic for max-flow, successive shortest paths with Dijkstra
for min-cost flow, and a lexicographic max-flow for vertex couplings.  A
convex bipartite graph, whose columns each admit an interval of the rows,
needs no network: Glover's greedy sweep gives its max-flow value
(``convex_max_flow``).
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np


class MaxFlowGraph:
    """An explicit residual graph, with Dinic's algorithm for max-flow.

    Every capacity is an int, so every flow is exact; reverse residuals
    start at 0.  Edges are stored as parallel arrays with the reverse edge
    at ``index ^ 1``, the flow through a forward edge in its reverse
    residual; the min-cost solver keeps its edge costs in one more list
    beside them.
    """

    @classmethod
    def from_edges(cls, n_nodes: int, tails, heads, caps) -> "MaxFlowGraph":
        """The graph of these edges, in bulk: the i-th edge's residual at
        ``2 * i``, its reverse at ``2 * i + 1``.  Edge ``e`` belongs to node
        ``to[e ^ 1]``, and a stable sort by owner lists each node's edges in
        the given order.  ``caps``: a list."""
        g = cls()
        g.n = n_nodes
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
        adj, to, cap = self.adj, self.to, self.cap
        level = self.level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            up = level[u] + 1
            for e in adj[u]:
                v = to[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = up
                    if v == t:
                        return True
                    queue.append(v)
        return False

    def max_flow(self, s: int, t: int):
        """Dinic's algorithm, each search a depth-first walk on an explicit
        stack, so a path of any length fits (a staircase of m rows needs one
        through every row).  A node resumes at its current arc, a dead end
        advances its parent's, and a path pushes its least residual, an int
        like every capacity, so the flow is exact."""
        adj, to, cap = self.adj, self.to, self.cap
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
                    if cap[e] > 0 and level[to[e]] == up:
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


def _lift(supply, demand):
    """Masses as ints over one common denominator: ``(sup, dem, den)``.

    Ints and ``Fraction``s are taken as they are, anything else as a float,
    which is an exact binary rational.  The denominator is the lcm of them
    all, so nothing rounds.
    """
    ratios = [(v if isinstance(v, (int, Fraction)) else float(v))
              .as_integer_ratio() for v in [*supply, *demand]]
    den = math.lcm(*(d for _, d in ratios))
    lifted = [num * (den // d) for num, d in ratios]
    return lifted[:len(supply)], lifted[len(supply):], den


def _network(supply, demand, cells: np.ndarray) -> MaxFlowGraph:
    """The network source -> rows -> columns -> sink on int supplies and
    demands, with one edge per True cell.

    Rows are nodes ``0..m-1``, columns ``m..m+k-1``, the source ``m + k``
    and the sink ``m + k + 1``.  The edges are the source's, the sink's,
    then the cells' in row-major order, so the residuals of the first
    ``m + k`` edges are the supply and demand left unrouted, and a cell's
    flow is its reverse residual.  A cell never carries more than the total
    supply, so that is its capacity, an int like every other.
    """
    m, k = cells.shape
    rows, cols = np.nonzero(cells)
    return MaxFlowGraph.from_edges(
        m + k + 2, np.concatenate([np.full(m, m + k), m + np.arange(k), rows]),
        np.concatenate([np.arange(m), np.full(k, m + k + 1), m + cols]),
        [*supply, *demand] + [sum(supply)] * len(rows))


@dataclass(frozen=True, eq=False)
class BipartiteFlow:
    """A maximum flow of ``bipartite_max_flow``, in the lifted ints.

    ``routed`` is the flow and ``supply`` the total supply, both over the
    common denominator ``den`` (1 when the masses are ints); ``value`` and
    ``unrouted`` are the two as exact ``Fraction``s.  The completed
    ``plan`` and the min-cut ``witness`` are read off the solved graph on
    their first read.
    """

    graph: MaxFlowGraph
    admissible: np.ndarray
    routed: int
    supply: int
    den: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.routed, self.den)

    @property
    def unrouted(self) -> Fraction:
        return Fraction(self.supply - self.routed, self.den)

    @cached_property
    def plan(self) -> np.ndarray:
        """The flow plus the leftover supply and demand, routed in ints by
        the northwest-corner rule and each cell divided back once: floats,
        so ints beyond the float range overflow here.

        No cell with leftover on both sides is admissible (it would close
        an augmenting path), so the leftovers land off the admissible cells
        and the coupling is optimal for the excess-cost problem.
        """
        g, den = self.graph, self.den
        m, k = self.admissible.shape
        plan = np.zeros((m, k))
        cells = g.cap[2 * (m + k) + 1::2]
        plan[np.nonzero(self.admissible)] = [v / den for v in cells]
        left_x, left_y = g.cap[0:2 * m:2], g.cap[2 * m:2 * (m + k):2]
        i = j = 0
        while i < m and j < k:
            moved = min(left_x[i], left_y[j])
            if moved:  # an inadmissible cell, so it carries no flow yet
                plan[i, j] = moved / den
                left_x[i] -= moved
                left_y[j] -= moved
            if left_x[i]:
                j += 1
            else:
                i += 1
        return plan

    @cached_property
    def witness(self) -> set:
        """The x indices on the source side of a minimum cut, a maximizing
        witness set for the Strassen dual: the nodes that the last, failed
        search of ``max_flow`` levelled, for its walk never stops early."""
        level = self.graph.level
        return {i for i in range(len(self.admissible)) if level[i] >= 0}


def bipartite_max_flow(supply: Sequence[float], demand: Sequence[float],
                       admissible: np.ndarray) -> BipartiteFlow:
    """Max-flow from supplies to demands along admissible cells, exactly.

    The masses run lifted to integers (``_lift``), unrounded, and Dinic's
    algorithm runs at once; the returned ``BipartiteFlow`` builds the
    coupling it completes to and the min-cut witness only when they are
    read.  So ints of any size give their exact ``routed`` flow with no
    float in sight.
    """
    sup, dem, den = _lift(supply, demand)
    m, k = admissible.shape
    g = _network(sup, dem, admissible)
    return BipartiteFlow(g, admissible, g.max_flow(m + k, m + k + 1),
                         sum(sup), den)


def convex_max_flow(supply, demand, lo, hi) -> int:
    """The max-flow value of a convex bipartite graph, in ints: column j
    admits the rows ``lo[j]..hi[j]`` (int arrays), and none if
    ``lo[j] > hi[j]``.

    Glover's rule ("Maximum matching in a convex bipartite graph", 1967),
    with masses: the rows are swept in order, each column opens at its
    first row, and each row's supply goes to the open columns that close
    first.  ``supply`` is read once, in row order, so it may be a
    generator; ``demand`` is read into a list of ints, one per column.
    """
    starts = np.argsort(lo, kind="stable").tolist()
    lo, hi, left = lo.tolist(), hi.tolist(), list(demand)
    heap, routed, k = [], 0, 0
    for i, mass in enumerate(supply):
        while k < len(starts) and lo[starts[k]] <= i:
            j = starts[k]
            k += 1
            if hi[j] >= i and left[j]:
                heapq.heappush(heap, (hi[j], j))
        while mass and heap:
            end, j = heap[0]
            if end < i:  # closed before this row
                heapq.heappop(heap)
                continue
            moved = min(mass, left[j])
            mass -= moved
            left[j] -= moved
            routed += moved
            if not left[j]:
                heapq.heappop(heap)
    return routed


def lex_min_coupling(supply, demand, allowed: np.ndarray) -> list[list]:
    """The lexicographically least maximum flow on the allowed cells, as
    rows of ints; ``supply`` and ``demand`` are nonnegative ints.

    One max-flow on every allowed cell gives the mass ``left`` to route.
    In row-major order each cell then carries the least it must, what the
    allowed cells after it cannot route of ``left``: one more max-flow per
    cell, each on a bare network.  The result is a vertex (no support
    cycle), also when the supplies and demands differ in total.
    """
    sup, dem = list(supply), list(demand)
    m, k = allowed.shape
    s, t = m + k, m + k + 1
    plan = [[0] * k for _ in range(m)]
    later = np.array(allowed, dtype=bool)
    left = _network(sup, dem, later).max_flow(s, t)
    for i, j in np.argwhere(allowed):
        later[i, j] = False
        need = left - _network(sup, dem, later).max_flow(s, t)
        if need:
            plan[i][j] = need
            sup[i] -= need
            dem[j] -= need
            left -= need
    return plan


def transport_min_cost(supply: Sequence[float], demand: Sequence[float],
                       cost: np.ndarray):
    """Balanced transportation problem by successive shortest paths.

    Returns ``(plan, f, g, objective)`` where ``f`` and ``g`` are dual
    potentials satisfying f(x) + g(y) <= c(x, y) on every cell (not just the
    support), derived from the terminating node potentials.

    The flow runs on the masses lifted to integers (``_lift``) and the plan
    is divided back once per cell; the costs, distances and potentials are
    floats.  Potential updates are capped at the sink distance, which keeps
    the duals feasible at nodes the last Dijkstra never reached — in
    particular at zero-supply symbols, which are deliberately retained.
    """
    m, k = cost.shape
    if len(supply) != m or len(demand) != k:
        raise ValueError("supply/demand lengths do not match the cost shape")
    n = m + k + 2
    s, t = m + k, m + k + 1
    sup, dem, den = _lift(supply, demand)
    graph = _network(sup, dem, np.ones((m, k), dtype=bool))
    # per edge, parallel to graph.to and graph.cap: w forward, -w backward
    cell_w = np.asarray(cost, float).ravel().tolist()
    ecost = [x for w in [0.0] * (m + k) + cell_w for x in (w, -w)]
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
                if ecap[e] <= 0:
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
        # with a residual left, so it is a positive int.
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

    plan = np.array([v / den for v in ecap[2 * (m + k) + 1::2]]).reshape(m, k)
    f = np.array([-pot[i] for i in range(m)])
    g = np.array([pot[m + j] for j in range(k)])
    objective = float(np.sum(plan * cost))
    return plan, f, g, objective
