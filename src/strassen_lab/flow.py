"""Network-flow kernels on one exact max-flow kernel, ``BipartiteNetwork``.

They are written here rather than taken from a library because the rest of
the package needs two things generic solvers do not expose: dual
potentials feasible on *every* cell, including cells at zero-mass symbols
(the Kantorovich certificate depends on this), and exact flows.  Every
flow runs on Python ints, masses lifted to integers over one common
denominator (``_lift``), each plan cell divided back once.

Networks here are bipartite, over alphabets or type lattices, up to a few
hundred nodes a side.  ``BipartiteNetwork`` runs Dinic's algorithm on
source -> rows -> columns -> sink; its cell edges are unbounded, so it
keeps no residual graph, only the supply and demand left and the flow into
each column.  It serves max-flow, lexicographic couplings and min-cost
flow:

* ``bipartite_max_flow`` gives every Strassen value, witness and coupling
  (``transport.ecp``, the type lattices' outer solves, the product-space
  oracle and ``sample``'s outer plan).  It returns the solved network with
  its exact flow value (``BipartiteFlow``); the coupling and the min-cut
  witness, read off the levels of Dinic's last, failed search, are built
  only when read, so a value-only caller on ints of any size meets no
  float.
* ``lex_min_coupling`` runs one max-flow per cell for the vertex couplings
  of ``ot_cost`` and the coupling samplers' joint types.
* ``transport_min_cost`` is the primal-dual method: one max-flow per phase
  on the cells tight against int potentials.

A convex bipartite graph, whose columns each admit an interval of the rows,
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


def _scales(sx: int, sy: int) -> tuple[int, int, int]:
    """``(row scale, column scale, T)``: the factors that bring two int
    totals to their lcm T, so two powers of two add no bits to the larger."""
    g = math.gcd(sx, sy)
    return sy // g, sx // g, sx // g * sy


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


def _primal_dual(sup: list, dem: list, c: list) -> tuple:
    """The primal-dual method on int masses of one total and int costs
    (``c``, a list of rows): ``(net, f, g)``, the solved network and int
    potentials with f_i + g_j <= c_ij on every cell, equal where flow runs.

    Each phase runs the max-flow on the tight cells, continuing the flow so
    far.  While supply is left, the rows and columns its last, failed
    search reached are labelled, and the least reduced cost from a labelled
    row to an unlabelled column is added to f on the labelled rows and
    taken from g on the labelled columns; a column's flow comes from
    labelled rows, so every cell with flow stays tight.
    """
    m, k = len(sup), len(dem)
    f = [min(row) for row in c]
    g = [min(c[i][j] - f[i] for i in range(m)) for j in range(k)]
    net = BipartiteNetwork(sup, dem, [])
    left = sum(sup)
    while True:
        net.cols = [[j for j in range(k) if c[i][j] == f[i] + g[j]]
                    for i in range(m)]
        left -= net.max_flow()
        if not left:
            return net, f, g
        lx, ly = net.level
        step = min(c[i][j] - f[i] - g[j] for i in range(m) if lx[i] >= 0
                   for j in range(k) if ly[j] < 0)
        f = [v + step if lx[i] >= 0 else v for i, v in enumerate(f)]
        g = [v - step if ly[j] >= 0 else v for j, v in enumerate(g)]


def transport_min_cost(supply: Sequence[float], demand: Sequence[float],
                       cost: np.ndarray):
    """The transportation problem by the primal-dual method (Ford &
    Fulkerson, 1956; Kuhn's Hungarian method, 1955), exactly: masses and
    costs lifted to ints (``_lift``), each over its own denominator, so a
    cell is tight by an int equality (``_primal_dual``).

    Returns ``(plan, f, g, objective, tight)``, each float divided back
    once: potentials with f(x) + g(y) <= c(x, y) on every cell, also at
    zero-mass symbols, ``tight`` the cells where equality holds, and a
    least-cost plan routing min(sum supply, sum demand) on tight cells.
    When the sums differ, a cost-0 letter on the smaller side takes the
    excess.
    """
    m, k = cost.shape
    if len(supply) != m or len(demand) != k:
        raise ValueError("supply/demand lengths do not match the cost shape")
    sup, dem, den = _lift(supply, demand)
    flat, _, cden = _lift(np.ravel(cost).tolist(), ())
    c = [flat[i * k:(i + 1) * k] for i in range(m)]
    excess = sum(sup) - sum(dem)
    if excess > 0:
        dem, c = dem + [excess], [row + [0] for row in c]
    elif excess < 0:
        sup, c = sup + [-excess], c + [[0] * k]
    net, f, g = _primal_dual(sup, dem, c)
    plan, spent = np.zeros((m, k)), 0
    for j in range(k):
        for i, v in net.into[j].items():
            if i < m:
                plan[i, j] = v / den
                spent += v * c[i][j]
    tight = np.array([[c[i][j] == f[i] + g[j] for j in range(k)]
                      for i in range(m)])
    return (plan, np.array([v / cden for v in f[:m]]),
            np.array([v / cden for v in g[:k]]), spent / (den * cden), tight)
