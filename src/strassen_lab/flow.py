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
levels of Dinic's last, failed search.  ``bipartite_max_flow`` returns the
solved network with its exact flow value (``BipartiteFlow``); the coupling
and the witness are built from it only when a caller reads them, so a
value-only caller on ints of any size meets no float.

Networks here are bipartite, over alphabets or type lattices, up to a few
hundred nodes a side.  Max-flow has one kernel, ``BipartiteNetwork``:
Dinic's algorithm on source -> rows -> columns -> sink, whose cell edges
are unbounded, so it keeps no residual graph, only the supply and demand
left and the flow into each column; the lexicographic max-flow for vertex
couplings runs on it too.  The min-cost flow, successive shortest paths
with Dijkstra, runs on an explicit residual graph (``MaxFlowGraph``, built
by ``_network``).  A convex bipartite graph, whose columns each admit an
interval of the rows, needs no network: Glover's greedy sweep gives its
max-flow value (``convex_max_flow``).
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
    """An explicit residual graph on int capacities, the min-cost flow's:
    edges as parallel arrays with the reverse edge at ``index ^ 1``,
    reverse residuals starting at 0, so the flow through a forward edge is
    its reverse residual; the min-cost solver keeps its edge costs in one
    more list beside them.
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


class BipartiteNetwork:
    """The network source -> rows -> columns -> sink on int supplies and
    demands, one edge of unbounded capacity per admissible cell, with
    Dinic's algorithm for its max-flow.

    A cell edge never carries more than the total supply, so none
    saturates and none needs a residual.  The network keeps only the
    supply and demand left unrouted (``sup``, ``dem``), each row's
    admissible columns in column order (``cols``, read only), and the
    positive flows into each column as ``{row: flow}`` (``into``): a
    column's backward arcs are the rows that carry flow into it.
    """

    def __init__(self, supply, demand, cols: list[list[int]]):
        self.sup, self.dem, self.cols = list(supply), list(demand), cols
        self.into = [{} for _ in self.dem]

    @classmethod
    def on(cls, supply, demand, cells: np.ndarray) -> "BipartiteNetwork":
        """The network with an edge per True cell of the boolean table."""
        cols = np.nonzero(cells)[1].tolist()
        ends = np.cumsum(np.count_nonzero(cells, axis=1)).tolist()
        return cls(supply, demand,
                   [cols[a:b] for a, b in zip([0] + ends, ends)])

    def max_flow(self) -> int:
        """Dinic's algorithm: the flow it routes, exact.  ``level`` keeps
        the row and column levels of its last, failed search, which
        reaches the source side of a minimum cut."""
        routed = 0
        while True:
            lx, ly, top = self._levels()
            if top is None:
                self.level = lx, ly
                return routed
            routed += self._block(lx, ly, top)

    def _levels(self):
        """Breadth-first levels ``(lx, ly, top)`` from the source (level
        0), -1 where unreached: rows at odd levels, columns at even ones.
        The search stops at ``top``, the first level of columns with demand
        left, for no node past it is on a shortest path to the sink; when
        none is reached ``top`` is None and every node the source reaches
        is levelled."""
        sup, dem, cols, into = self.sup, self.dem, self.cols, self.into
        lx, ly = [-1] * len(sup), [-1] * len(dem)
        rows = [i for i, v in enumerate(sup) if v]
        for i in rows:
            lx[i] = 1
        up, seen = 2, 0
        while rows:
            found = []
            for i in rows:
                if seen + len(found) == len(dem):  # every column levelled
                    break
                for j in cols[i]:
                    if ly[j] < 0:
                        ly[j] = up
                        found.append(j)
            seen += len(found)
            if any(dem[j] for j in found):
                return lx, ly, up
            rows = []
            for j in found:
                for i in into[j]:
                    if lx[i] < 0:
                        lx[i] = up + 1
                        rows.append(i)
            up += 2
        return lx, ly, None

    def _block(self, lx, ly, top) -> int:
        """A blocking flow on the level graph, on an explicit stack, so a
        path of any length fits (a staircase of m rows needs one through
        every row).  The source tries its rows in order, a row its columns
        in column order, a column at ``top`` the sink and any other the
        rows that carry flow into it, in row order.  Each node lists its
        arcs at its first visit (a backward arc that gains flow in this
        phase runs down a level, so never fits) and resumes at its current
        arc; a dead end leaves the level graph.  A path pushes its least
        residual, and the walk resumes at the tail of its first saturated
        arc, where a walk from the source would return to.  Returns the
        flow pushed."""
        sup, dem, cols, into = self.sup, self.dem, self.cols, self.into
        for j, v in enumerate(ly):
            if v == top and not dem[j]:
                ly[j] = -1
        # a node's arcs still to try, the current one last
        ahead, behind = {}, {}
        routed = 0
        for s in range(len(sup)):
            xs, ys = [s], []  # the path: xs[t] -> ys[t] -> xs[t + 1]
            while sup[s] and lx[s] == 1:
                if len(xs) == len(ys):  # at a column below the sink's level
                    j = ys[-1]
                    flows = into[j]
                    arcs = behind.get(j)
                    if arcs is None:
                        up = ly[j] + 1
                        arcs = behind[j] = [i for i in sorted(flows)[::-1]
                                            if lx[i] == up]
                    while arcs and (arcs[-1] not in flows or lx[arcs[-1]] < 0):
                        arcs.pop()
                    if arcs:
                        xs.append(arcs[-1])
                    else:
                        ly[j] = -1
                        ys.pop()
                    continue
                i = xs[-1]  # at a row
                arcs = ahead.get(i)
                if arcs is None:
                    up = lx[i] + 1
                    arcs = ahead[i] = [j for j in cols[i][::-1] if ly[j] == up]
                while arcs and ly[arcs[-1]] < 0:
                    arcs.pop()
                if not arcs:
                    lx[i] = -1
                    xs.pop()
                    continue
                j = arcs[-1]
                if ly[j] < top:
                    ys.append(j)
                    continue
                backs = list(zip(ys, xs[1:]))
                got = min(sup[s], dem[j], *(into[y][x] for y, x in backs))
                sup[s] -= got
                dem[j] -= got
                routed += got
                if not dem[j]:
                    ly[j] = -1
                for x, y in zip(xs, ys + [j]):
                    into[y][x] = into[y].get(x, 0) + got
                cut = None
                for t, (y, x) in enumerate(backs):
                    into[y][x] -= got
                    if not into[y][x]:
                        del into[y][x]
                        cut = cut or t + 1
                if cut:  # back at the column whose arc saturated first
                    del xs[cut:], ys[cut:]
        return routed


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
    """The min-cost flow's residual graph: source -> rows -> columns ->
    sink on int supplies and demands, with one edge per True cell.

    Rows are nodes ``0..m-1``, columns ``m..m+k-1``, the source ``m + k``
    and the sink ``m + k + 1``.  The edges are the source's, the sink's,
    then the cells' in row-major order, so a cell's flow is its reverse
    residual.  A cell never carries more than the total supply, so that is
    its capacity, an int like every other.
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
    common denominator ``den`` (the caller's ``den`` when the masses are
    ints, 1 by default); ``value`` and ``unrouted`` are the two as exact
    ``Fraction``s.  The completed ``plan`` and the min-cut ``witness`` are
    read off the solved network on their first read.  A solved flow can
    start a solve on the same masses over more cells; that solve copies
    the network, so this one never changes.
    """

    network: BipartiteNetwork
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
        """The flow into each column plus the leftover supply and demand,
        routed in ints by the northwest-corner rule and each cell divided
        back once: floats, so ints beyond the float range overflow here.

        No cell with leftover on both sides is admissible (it would close
        an augmenting path), so the leftovers land off the admissible cells
        and the coupling is optimal for the excess-cost problem.
        """
        net, den = self.network, self.den
        m, k = self.admissible.shape
        plan = np.zeros((m, k))
        for j, flows in enumerate(net.into):
            for i, v in flows.items():
                plan[i, j] = v / den
        left_x, left_y = list(net.sup), list(net.dem)
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
        witness set for the Strassen dual: the rows that the last, failed
        search of ``max_flow`` levelled, for it never stops early."""
        return {i for i, v in enumerate(self.network.level[0]) if v >= 0}


def bipartite_max_flow(supply: Sequence[float], demand: Sequence[float],
                       admissible: np.ndarray,
                       start: BipartiteFlow | None = None,
                       den: int = 1) -> BipartiteFlow:
    """Max-flow from supplies to demands along admissible cells, exactly.

    The masses are ``supply[i] / den`` and ``demand[j] / den``; they run
    lifted to integers (``_lift``), unrounded, and Dinic's algorithm runs
    at once on their ``BipartiteNetwork``; the returned ``BipartiteFlow``
    builds the coupling it completes to and the min-cut witness only when
    they are read.  So ints of any size give their exact ``routed`` flow
    with no float in sight.

    ``start``, a solved flow on the same masses whose admissible cells are
    a subset of these, is a feasible flow here too: Dinic then continues
    from a copy of its leftovers and per-column flows (the warm start of
    parametric max-flow), and ``routed`` counts its flow plus what Dinic
    adds.  The maximum flow value is unique, so it is the cold solve's.
    """
    sup, dem, lifted = _lift(supply, demand)
    net = BipartiteNetwork.on(sup, dem, admissible)
    total, den = sum(sup), lifted * den
    routed = 0
    if start is not None:
        if ((start.supply, start.den) != (total, den)
                or start.admissible.shape != admissible.shape
                or (start.admissible > admissible).any()):
            raise ValueError("the start is not a flow on these masses "
                             "within these admissible cells")
        old = start.network
        net.sup, net.dem = list(old.sup), list(old.dem)
        net.into = [dict(flows) for flows in old.into]
        routed = start.routed
    return BipartiteFlow(net, admissible, routed + net.max_flow(), total, den)


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
    cell, each on a fresh ``BipartiteNetwork`` over the cells after it.
    The result is a vertex (no support cycle), also when the supplies and
    demands differ in total.
    """
    sup, dem = list(supply), list(demand)
    plan = [[0] * len(dem) for _ in sup]
    net = BipartiteNetwork.on(sup, dem, allowed)
    later, left = net.cols, net.max_flow()
    for i, row in enumerate(later):
        for a, j in enumerate(row):
            later[i] = row[a + 1:]
            need = left - BipartiteNetwork(sup, dem, later).max_flow()
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
