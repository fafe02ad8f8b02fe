"""The residual-graph Dinic that solved every bipartite max-flow: the
oracle of ``flow.BipartiteNetwork``, which keeps no residual graph.

Moved verbatim from ``strassen_lab.flow``, where the bipartite kernel
replaced its max-flow: ``MaxFlowGraph`` with ``from_edges``, ``_bfs`` and
the explicit-stack ``max_flow``, the ``_network`` it solved, the
``BipartiteFlow`` read off the solved graph, and ``bipartite_max_flow`` and
``lex_min_coupling`` on them.  ``_lift`` is the package's own.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from strassen_lab.flow import _lift


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
