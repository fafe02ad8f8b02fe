import heapq
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.optimize import linprog

from strassen_lab import flow
from strassen_lab.errors import (DimensionMismatchError, InfeasibleError,
                                 SizeGuardError, ValidationError)
from strassen_lab.lattice import (_optimal_joint_type, gn_tails,
                                  lift_coupling, nested_instance,
                                  optimal_outer_plan)
from strassen_lab.mdp import mdp_rate_upper, support_of
from strassen_lab.measures import Dist, JointDist, tv
from strassen_lab.transport import (
    CostMatrix,
    SupportSet,
    TransportPlan,
    admissible_mask,
    dual_vertices,
    ecp,
    ecp_dual_bruteforce,
    gamma_enlarge,
    kantorovich_certificate,
    optimal_support,
    ot_cost,
    ot_value,
)

from conftest import problem_st, random_cost, random_dist

HAMMING = CostMatrix.hamming(2)


def lp_transport_value(px, py, cost):
    """Independent transport optimum straight from the LP definition."""
    m, k = cost.shape
    a_eq = np.zeros((m + k, m * k))
    for i in range(m):
        a_eq[i, i * k:(i + 1) * k] = 1.0
    for j in range(k):
        a_eq[m + j, j::k] = 1.0
    res = linprog(cost.reshape(-1), A_eq=a_eq,
                  b_eq=np.concatenate([px, py]), bounds=(0, None),
                  method="highs")
    assert res.status == 0
    return float(res.fun)


class TestCostMatrix:
    def test_hamming(self):
        assert HAMMING.as_array().tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            CostMatrix.from_rows([[0.0, math.inf]])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            CostMatrix.from_rows([[0.0, -0.5]])

    def test_extremes(self):
        c = CostMatrix.from_rows([[0.25, 2.0], [1.0, 0.5]])
        assert c.min() == 0.25
        assert c.max() == 2.0


class TestSupportSet:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            SupportSet(frozenset())

    def test_contains(self):
        s = SupportSet(frozenset({(0, 0), (1, 1)}))
        assert (0, 0) in s and (0, 1) not in s
        assert len(s) == 2


class TestOtCost:
    def test_binary_hamming_is_marginal_gap(self):
        plan = ot_cost(Dist.bernoulli(0.1), Dist.bernoulli(0.5), HAMMING)
        assert plan.objective == pytest.approx(0.4, abs=1e-12)

    def test_identical_marginals_zero_diagonal(self):
        p = Dist.from_mass([0.2, 0.5, 0.3])
        c = CostMatrix.from_rows([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert ot_cost(p, p, c).objective == pytest.approx(0.0, abs=1e-12)

    def test_uniform_3x3_matches_birkhoff_vertices(self, rng):
        u = Dist.from_mass([1 / 3] * 3)
        for _ in range(10):
            c = random_cost(rng, 3, 3)
            best = min(
                sum(c.as_array()[i, p[i]] for i in range(3)) / 3.0
                for p in itertools.permutations(range(3))
            )
            assert ot_cost(u, u, c).objective == pytest.approx(best, abs=1e-9)

    def test_plan_marginals_and_objective_consistency(self, rng):
        for _ in range(25):
            px = random_dist(rng, int(rng.integers(2, 5)))
            py = random_dist(rng, int(rng.integers(2, 5)))
            c = random_cost(rng, len(px), len(py))
            plan = ot_cost(px, py, c)
            mat = plan.plan.as_array()
            assert np.allclose(mat.sum(axis=1), px.mass, atol=1e-9)
            assert np.allclose(mat.sum(axis=0), py.mass, atol=1e-9)
            assert plan.objective == pytest.approx(
                float((mat * c.as_array()).sum()), abs=1e-9)
            assert plan.objective == pytest.approx(
                lp_transport_value(px.as_array(), py.as_array(), c.as_array()),
                abs=1e-9)

    @given(problem_st())
    @settings(max_examples=120, deadline=None)
    def test_matches_lp_oracle(self, prob):
        px, py, c = prob
        got = ot_cost(px, py, c).objective
        want = lp_transport_value(px.as_array(), py.as_array(), c.as_array())
        assert got == pytest.approx(want, abs=1e-9)

    @given(problem_st(), problem_st())
    @settings(max_examples=80, deadline=None)
    def test_value_convex_in_marginals(self, prob_a, prob_b):
        px, py, c = prob_a
        qx_raw, qy_raw, _ = prob_b
        if len(qx_raw) != len(px) or len(qy_raw) != len(py):
            return
        lam = 0.375
        mx = [lam * a + (1 - lam) * b for a, b in zip(px.mass, qx_raw.mass)]
        my = [lam * a + (1 - lam) * b for a, b in zip(py.mass, qy_raw.mass)]
        carr = c.as_array()
        mixed = ot_value(np.asarray(mx), np.asarray(my), carr)
        split = (lam * ot_value(px.as_array(), py.as_array(), carr)
                 + (1 - lam) * ot_value(qx_raw.as_array(), qy_raw.as_array(),
                                        carr))
        assert mixed <= split + 1e-9


def _vertex_test_costs(rng, m, k):
    """Generic, tied, rank-one (every tree tight) and constant cost tables."""
    yield rng.random((m, k)) * 4.0
    yield rng.integers(0, 3, (m, k)).astype(float)
    yield rng.random(m)[:, None] + rng.random(k)[None, :]
    yield np.full((m, k), 0.7)


class TestDualVertices:
    """The dual-vertex value route against the SSP min-cost flow it replaces."""

    @pytest.mark.parametrize("m,k", itertools.product(range(1, 5), repeat=2))
    def test_ot_value_matches_ssp(self, m, k):
        rng = np.random.default_rng(100 * m + k)
        for cost in _vertex_test_costs(rng, m, k):
            for _ in range(40):
                px = random_dist(rng, m).as_array()
                py = random_dist(rng, k).as_array()
                want = flow.transport_min_cost(px, py, cost)[3]
                assert abs(ot_value(px, py, cost) - want) <= 1e-14

    @pytest.mark.parametrize("m,k", itertools.product(range(1, 5), repeat=2))
    def test_generic_cost_vertex_count_and_feasibility(self, m, k):
        # a generic m x k cost has C(m+k-2, m-1) dual vertices, each
        # feasible everywhere and tight on a spanning set of cells
        rng = np.random.default_rng(7 * m + k)
        cost = rng.random((m, k)) * 4.0
        f, g = dual_vertices(CostMatrix.from_rows(cost.tolist()))
        assert f.shape == (math.comb(m + k - 2, m - 1), m)
        assert g.shape == (len(f), k)
        assert np.all(f[:, 0] == 0.0)
        slack = cost - f[:, :, None] - g[:, None, :]
        assert slack.min() >= -1e-12
        assert np.all((np.abs(slack) <= 1e-12).sum(axis=(1, 2)) >= m + k - 1)

    def test_none_past_four_symbols_and_ot_value_falls_back(self, rng):
        c = CostMatrix.hamming(5)
        assert dual_vertices(c) is None
        px, py = random_dist(rng, 5).as_array(), random_dist(rng, 5).as_array()
        want = flow.transport_min_cost(px, py, c.as_array())[3]
        assert ot_value(px, py, c.as_array()) == want


# ---------------------------------------------------------------------------
# The cycle canceller that ``ot_cost`` used before the lexicographic
# max-flow, kept as its oracle: an SSP plan with every support cycle
# shifted away is an optimal vertex plan.


def cancel_cycles(plan: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    """Remove support cycles from a transportation plan.

    Any cycle in the bipartite support of an optimal plan is cost-neutral
    (otherwise one direction around it would improve the plan), so pushing
    mass around it until an edge empties keeps both feasibility and
    optimality while shrinking the support.
    """
    plan = plan.copy()
    while True:
        cycle = find_support_cycle(plan, tol)
        if cycle is None:
            return plan
        # cycle alternates row->col cells; shift mass around it.
        plus = cycle[0::2]
        minus = cycle[1::2]
        shift = min(plan[i, j] for i, j in minus)
        for i, j in plus:
            plan[i, j] += shift
        for i, j in minus:
            plan[i, j] -= shift
            if plan[i, j] < tol:
                plan[i, j] = 0.0


def find_support_cycle(plan: np.ndarray, tol: float):
    """A cycle in the bipartite support graph, as cells in cyclic edge order.

    Vertices are rows (0..m-1) and columns (m..m+k-1); each support cell is
    an undirected edge.  A depth-first search finds a back edge; the cycle is
    returned as the edge walk around it, so consecutive cells alternately
    share a column and a row.
    """
    m = plan.shape[0]
    adj: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for i, j in np.argwhere(plan > tol):
        u, v, cell = int(i), m + int(j), (int(i), int(j))
        adj.setdefault(u, []).append((v, cell))
        adj.setdefault(v, []).append((u, cell))
    color = dict.fromkeys(adj, 0)  # 0 = unseen, 1 = on the DFS path, 2 = done
    parent: dict[int, tuple] = {}
    for root in adj:
        if color[root]:
            continue
        color[root] = 1
        parent[root] = (None, None)
        frames = [(root, iter(adj[root]))]
        while frames:
            u, edges = frames[-1]
            advanced = False
            for v, cell in edges:
                if cell == parent[u][1]:
                    continue  # do not walk the entering edge backwards
                if color[v] == 1:
                    cells = [cell]
                    w = u
                    while w != v:
                        w, pc = parent[w]
                        cells.append(pc)
                    cells.reverse()
                    return cells
                if color[v] == 0:
                    color[v] = 1
                    parent[v] = (u, cell)
                    frames.append((v, iter(adj[v])))
                    advanced = True
                    break
            if not advanced:
                color[u] = 2
                frames.pop()
    return None


class TestLexMinCoupling:
    def test_northeast_corner_when_every_cell_is_allowed(self):
        plan = flow.lex_min_coupling([3, 2], [1, 2, 2], np.ones((2, 3), bool))
        assert plan == [[0, 1, 2], [1, 1, 0]]

    def test_big_integers_stay_exact(self):
        big = 10 ** 30
        sup, dem = [big + 1, big], [big, big, 1]
        allowed = np.array([[True, False, True], [True, True, True]])
        plan = flow.lex_min_coupling(sup, dem, allowed)
        assert all(type(v) is int for row in plan for v in row)
        assert [sum(row) for row in plan] == sup
        assert [sum(col) for col in zip(*plan)] == dem
        assert plan == [[big, 0, 1], [0, big, 0]]

    def test_floats_lift_to_the_exact_plan(self):
        allowed = np.array([[True, True], [False, True]])
        sup, dem, den = flow._lift([0.1, 0.9], [0.1, 0.9])
        plan = flow.lex_min_coupling(sup, dem, allowed)
        assert [[v / den for v in row] for row in plan] == [[0.1, 0], [0, 0.9]]

    def test_unequal_float_sums_keep_a_vertex(self):
        # the x masses sum to 1 + 4e-13, which Dist accepts; forcing every
        # cell to carry the excess left all four cells positive, a cycle
        plan = ot_cost(Dist.from_mass([0.5, 0.5 + 4e-13]),
                       Dist.from_mass([0.5, 0.5]),
                       CostMatrix.from_rows([[0, 0], [0, 0]])).plan.as_array()
        assert find_support_cycle(plan, 0.0) is None
        assert plan.tolist() == [[0.0, 0.4999999999996],
                                 [0.5, 4.000133557724439e-13]]

    def test_excess_supply_stays_unrouted(self):
        plan = flow.lex_min_coupling([2, 3], [2, 2], np.ones((2, 2), bool))
        assert plan == [[0, 1], [2, 1]]

    def test_infeasible_cells_carry_a_maximum_flow(self):
        allowed = np.array([[True, False], [True, False]])
        assert flow.lex_min_coupling([1, 1], [1, 1], allowed) == [[0, 0],
                                                                  [1, 0]]

    def test_plans_match_cancelled_ssp_plans(self):
        rng = np.random.default_rng(808)
        for trial in range(2000):
            m, k = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            px, py = random_dist(rng, m), random_dist(rng, k)
            if trial % 2:
                c = CostMatrix.from_rows(
                    rng.integers(0, 3, (m, k)).astype(float).tolist())
            else:
                c = random_cost(rng, m, k)
            cost = c.as_array()
            got = ot_cost(px, py, c)
            mat = got.plan.as_array()
            assert find_support_cycle(mat, 1e-13) is None
            assert np.abs(mat.sum(axis=1) - px.as_array()).max() <= 1e-12
            assert np.abs(mat.sum(axis=0) - py.as_array()).max() <= 1e-12
            ssp_plan = flow.transport_min_cost(px.mass, py.mass, cost)[0]
            want = float(np.sum(cancel_cycles(ssp_plan) * cost))
            scale = max(1.0, float(np.abs(cost).max()))
            assert abs(got.objective - want) <= 1e-15 * scale


def test_every_max_flow_runs_on_ints(rng, monkeypatch):
    # every network a flow builds, recorded where it is built: the
    # max-flows', the lexicographic couplings' and the min-cost flows'
    # supplies and demands
    graphs = []
    network = flow.BipartiteNetwork.__init__

    def record_network(net, supply, demand, cols):
        graphs.append([*supply, *demand])
        network(net, supply, demand, cols)

    monkeypatch.setattr(flow.BipartiteNetwork, "__init__", record_network)
    _optimal_joint_type.cache_clear()  # so lift_coupling solves its types
    px, py = random_dist(rng, 3), random_dist(rng, 3)
    c = random_cost(rng, 3, 3)
    alpha = ot_value(px.as_array(), py.as_array(), c.as_array())
    inst = nested_instance(px, py, c, 3)
    outer = optimal_outer_plan(inst, alpha)
    elsewhere = TransportPlan(plan=JointDist.product(px, py), objective=1.0)
    p5, q5 = random_dist(rng, 5).as_array(), random_dist(rng, 5).as_array()
    c5 = random_cost(rng, 5, 5).as_array()
    for run in (lambda: ot_cost(px, py, c),  # float marginals
                lambda: optimal_support(px, py, c),
                lambda: kantorovich_certificate(px, py, c, elsewhere),
                lambda: ecp(px, py, c, alpha),
                lambda: gn_tails(px, py, c, alpha, 3),  # the dense route
                lambda: optimal_outer_plan(inst, alpha),
                lambda: lift_coupling(outer, inst),  # the joint types
                lambda: ot_value(p5, q5, c5)):  # min-cost past VERTEX_MAX
        seen = len(graphs)
        run()
        assert len(graphs) > seen
    assert all(type(cap) is int for caps in graphs for cap in caps)


# The float flow's dust: a residual at or below it counts as none.
FLOW_EPS = 1e-15


# The successive-shortest-paths solver in its first form, edge arrays built
# per call, verbatim but for its name: the oracle whose objective the
# primal-dual must match.
def edge_array_transport_min_cost(supply: Sequence[float],
                                  demand: Sequence[float], cost: np.ndarray):
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


class TestTransportMinCost:
    def test_matches_the_old_ssp_with_an_exact_zero_gap(self, monkeypatch):
        # the objective against the old float SSP, and the int potentials
        # of the primal-dual it ran: feasible on every cell, flow on tight
        # cells only, every mass routed and primal equal to dual in ints.
        # The old SSP's potentials are not compared: where the optimal
        # dual is not unique, the two pick different ones.
        runs = []
        primal_dual = flow._primal_dual

        def record(sup, dem, c):
            runs.append((list(sup), list(dem), c, primal_dual(sup, dem, c)))
            return runs[-1][3]

        monkeypatch.setattr(flow, "_primal_dual", record)
        rng = np.random.default_rng(3201)
        for trial in range(3000):
            m, k = (int(v) for v in rng.integers(1, 21, 2))
            sides = []
            for size in (m, k):
                w = rng.random(size)
                if size > 1 and rng.random() < 0.2:  # zero-mass letters
                    w[rng.integers(size, size=int(rng.integers(1, size)))] = 0
                w = (w / w.sum()).tolist()
                if rng.random() < 0.3:  # a float sum off 1, as Dist lets
                    w[-1] += float(rng.uniform(-1e-12, 1e-12)) * w[-1]
                sides.append(w)
            px, py = sides
            kind = trial % 4
            if kind == 0:  # ties on the grid of quarters
                cost = rng.integers(0, 5, (m, k)) / 4.0
            elif kind == 1:  # few tied integer costs
                cost = rng.integers(0, 3, (m, k)).astype(float)
            elif kind == 2:
                cost = np.round(rng.random((m, k)) * 4.0, 3)
            else:
                cost = rng.random((m, k)) * 4.0
            plan, f, g, objective, tight = flow.transport_min_cost(px, py,
                                                                   cost)
            # the float SSP's plan cells and its sum of m * k products
            # each round
            want = edge_array_transport_min_cost(px, py, cost)[3]
            assert abs(objective - want) <= 1e-13 * want
            sup, dem, c, (net, fi, gi) = runs.pop()
            _, _, den = flow._lift(px, py)
            _, _, cden = flow._lift(cost.ravel().tolist(), ())
            assert f.tolist() == [v / cden for v in fi[:m]]
            assert g.tolist() == [v / cden for v in gi[:k]]
            red = [[cij - a - b for cij, b in zip(row, gi)]
                   for row, a in zip(c, fi)]
            assert min(min(row) for row in red) >= 0
            assert tight.tolist() == [[r == 0 for r in row[:k]]
                                      for row in red[:m]]
            flows = {(i, j): v for j, into in enumerate(net.into)
                     for i, v in into.items()}
            assert all(red[i][j] == 0 for i, j in flows)
            assert plan.tolist() == [[flows.get((i, j), 0) / den
                                      for j in range(k)] for i in range(m)]
            assert not any(net.sup) and not any(net.dem)
            primal = sum(v * c[i][j] for (i, j), v in flows.items())
            assert primal == (sum(a * b for a, b in zip(fi, sup))
                              + sum(a * b for a, b in zip(gi, dem)))
            assert objective == primal / (den * cden)
            if kind == 3:  # a power of two scales every int but cden
                scale = 2.0 ** int(rng.integers(-60, 40))
                got = flow.transport_min_cost(px, py, cost * scale)
                runs.pop()
                assert got[0].tolist() == plan.tolist()
                assert got[4].tolist() == tight.tolist()
                for a, b in zip(got[1:4], (f, g, objective)):
                    assert np.array_equal(a, b * scale)

    def test_costs_near_100_end(self):
        # the old SSP's Dijkstra compared reduced distances to 1e-15, below
        # their rounding at costs near 100, and never returned here
        px = Dist.from_mass([5 / 21, 8 / 21, 8 / 21])
        py = Dist.from_mass([3 / 11, 8 / 11])
        c = CostMatrix.from_rows([[61.93, 45.49], [42.84, 85.2],
                                  [13.78, 61.69]])
        made = ot_cost(px, py, c)
        want = lp_transport_value(px.as_array(), py.as_array(), c.as_array())
        assert made.objective == pytest.approx(want, rel=1e-9)
        assert abs(kantorovich_certificate(px, py, c, made)[2]) <= 1e-12

    def test_routes_a_letter_below_the_old_dust(self):
        # a residual up to 1e-15 once counted as none: row 0 went unrouted
        px = [2.0 ** -52, 0.5 - 2.0 ** -52, 0.5]
        cost = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        plan = flow.transport_min_cost(px, [0.25, 0.75], cost)[0]
        assert plan[0].tolist() == [2.0 ** -52, 0.0]
        assert plan.sum(axis=1).tolist() == px


def exact_law(p: Dist) -> list:
    """The law m_i / sum(m) that p's float masses define, exactly."""
    mass = [Fraction(v) for v in p.mass]
    return [v / sum(mass) for v in mass]


def exact_strassen_dual(px, py, adm: np.ndarray) -> Fraction:
    """max over subsets E of P_X(E) - P_Y(Gamma(E)), in exact rationals."""
    m = len(px)
    best = Fraction(0)
    for mask in range(1, 1 << m):
        rows = [i for i in range(m) if mask >> i & 1]
        cols = np.nonzero(adm[rows].any(axis=0))[0]
        val = (sum(Fraction(px[i]) for i in rows)
               - sum(Fraction(py[j]) for j in cols))
        best = max(best, val)
    return best


class TestEcp:
    def test_tv_case(self):
        res = ecp(Dist.bernoulli(0.1), Dist.bernoulli(0.5), HAMMING, 0.0)
        assert res.value == pytest.approx(0.4, abs=1e-12)
        assert res.value == pytest.approx(
            tv(Dist.bernoulli(0.1), Dist.bernoulli(0.5)), abs=1e-12)

    def test_alpha_above_max_cost(self):
        res = ecp(Dist.bernoulli(0.3), Dist.bernoulli(0.8), HAMMING, 1.0)
        assert res.value == 0.0
        assert res.complement == 1.0

    def test_alpha_below_min_cost(self):
        c = CostMatrix.from_rows([[0.5, 1.0], [1.0, 0.5]])
        res = ecp(Dist.bernoulli(0.3), Dist.bernoulli(0.8), c, 0.2)
        assert res.value == 1.0

    def test_witness_realizes_value(self, rng):
        for _ in range(25):
            px = random_dist(rng, int(rng.integers(2, 6)))
            py = random_dist(rng, int(rng.integers(2, 6)))
            c = random_cost(rng, len(px), len(py))
            alpha = float(rng.random() * c.max())
            res = ecp(px, py, c, alpha)
            gamma = gamma_enlarge(res.witness, c, alpha)
            direct = (sum(px.mass[i] for i in res.witness)
                      - sum(py.mass[j] for j in gamma))
            assert res.value == pytest.approx(direct, abs=1e-9)
            assert res.value + res.complement == pytest.approx(1.0, abs=1e-9)

    def test_plan_is_feasible_and_attains_value(self, rng):
        for _ in range(15):
            px = random_dist(rng, 3)
            py = random_dist(rng, 4)
            c = random_cost(rng, 3, 4)
            alpha = float(rng.random() * c.max())
            res = ecp(px, py, c, alpha)
            mat = res.plan.as_array()
            assert np.allclose(mat.sum(axis=1), px.mass, atol=1e-9)
            assert np.allclose(mat.sum(axis=0), py.mass, atol=1e-9)
            exceed = float(mat[c.as_array() > alpha + 1e-12].sum())
            assert exceed == pytest.approx(res.value, abs=1e-9)

    def test_value_is_the_rounded_exact_optimum(self):
        # G = max_E P_X(E) - P_Y(Gamma(E)) as an exact rational over the
        # laws the float masses define, and max-flow = 1 - G by duality
        rng = np.random.default_rng(1616)
        for _ in range(1000):
            m, k = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            px, py = random_dist(rng, m), random_dist(rng, k)
            c = CostMatrix.from_rows(
                np.round(rng.random((m, k)) * 4.0, 1).tolist())
            alpha = float(np.round(rng.random() * 4.0, 1))
            res = ecp(px, py, c, alpha)
            lx, ly = exact_law(px), exact_law(py)
            want = exact_strassen_dual(lx, ly, admissible_mask(c, alpha))
            assert res.value == float(want)
            assert res.complement == float(1 - want)
            gamma = gamma_enlarge(res.witness, c, alpha)
            assert (sum(lx[i] for i in res.witness)
                    - sum(ly[j] for j in gamma)) == want

    def test_reads_the_law_the_masses_define(self):
        # the x masses sum to 1 + 5e-13: read as given, G was twice as
        # large and the plan no coupling of them
        px = Dist.from_mass([0.5, 0.5 + 5e-13])
        res = ecp(px, Dist.from_mass([0.5, 0.5]), HAMMING, 0.0)
        lx = exact_law(px)
        assert res.value == float(Fraction(1, 2) - lx[0])
        assert res.value == 2.5002222514546025e-13
        assert res.complement == float(Fraction(1, 2) + lx[0])
        want = [[lx[0], 0], [lx[1] - Fraction(1, 2), Fraction(1, 2)]]
        assert res.plan.as_array().tolist() == [[float(v) for v in row]
                                                for row in want]

    def test_no_excess_above_every_cost(self):
        # the masses' float sums differ from 1; read as given, the excess
        # of one side over the other read as G = 5.6e-17
        res = ecp(Dist.from_mass([0.5, 0.1, 0.4]),
                  Dist.from_mass([0.1, 0.2, 0.7]),
                  CostMatrix.from_rows([[abs(i - j) for j in range(3)]
                                        for i in range(3)]), 2.0)
        assert (res.value, res.complement) == (0.0, 1.0)

    def test_tail_below_the_rounding_of_the_masses(self):
        # the masses sum to 1 - 5.6e-17, so one minus the flow would be
        # 6e-4 relative too high; G is P_X(0) - P_Y(0) on their laws
        px = Dist.from_mass([0.3, 0.7])
        py = Dist.from_mass([0.3 - 1e-13, 0.7 + 1e-13])
        value = ecp(px, py, HAMMING, 0.0).value
        assert value == float(exact_law(px)[0] - exact_law(py)[0])
        assert value == 9.999223671286472e-14

    def test_tail_below_the_other_mass(self):
        px, py = Dist.from_mass([1e-20, 1.0]), Dist.from_mass([0.5, 0.5])
        c = CostMatrix.from_rows([[1.0, 1.0], [0.0, 0.0]])
        res = ecp(px, py, c, 0.5)
        assert res.value == 1e-20 and res.witness == frozenset({0})
        assert res.complement == 1.0

    def test_value_capped_at_one(self):
        # the masses sum to 1 + 5e-13, inside Dist's tolerance, and with
        # nothing admissible the unrouted supply is all of their law
        px = Dist.from_mass([0.5, 0.5 + 5e-13])
        res = ecp(px, Dist.from_mass([0.5, 0.5]), HAMMING, -1.0)
        assert res.value == 1.0 and res.complement == 0.0
        assert res.witness == frozenset({0, 1})

    def test_tiny_mass_lifts_without_overflow(self):
        # a mass below about 2.5e-293 lifts the marginals past 2**1024, and
        # the infinite cell capacities raised OverflowError
        res = ecp(Dist.from_mass([1e-300, 1.0]), Dist.from_mass([0.5, 0.5]),
                  HAMMING, 0.5)
        assert (res.value, res.complement) == (0.5, 0.5)

    def test_plan_completes_a_letter_below_the_old_dust(self):
        # the float completion once skipped leftovers up to 1e-15: row 0
        # got no mass and the inadmissible cells read G - 2^-53
        px = Dist.from_mass([2.0 ** -53, 0.5 - 2.0 ** -53, 0.5])
        py = Dist.from_mass([0.25, 0.75])
        c = CostMatrix.from_rows([[2.0, 2.0], [0.0, 1.0], [1.0, 0.0]])
        res = ecp(px, py, c, 0.5)
        mat = res.plan.as_array()
        assert res.value == 0.25
        for row, mass in zip(mat, px.mass):
            assert sum(map(Fraction, row)) == Fraction(mass)
        for col, mass in zip(mat.T, py.mass):
            assert sum(map(Fraction, col)) == Fraction(mass)
        off = ~admissible_mask(c, 0.5)
        assert sum(map(Fraction, mat[off])) == Fraction(res.value)

    def test_alpha_monotone(self, rng):
        for _ in range(20):
            px = random_dist(rng, 3)
            py = random_dist(rng, 3)
            c = random_cost(rng, 3, 3)
            alphas = sorted(rng.random(3) * c.max())
            vals = [ecp(px, py, c, a).value for a in alphas]
            assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


class TestEcpDual:
    def test_binary_witness(self):
        val, e = ecp_dual_bruteforce(Dist.bernoulli(0.1), Dist.bernoulli(0.5),
                                     HAMMING, 0.0)
        assert val == pytest.approx(0.4, abs=1e-12)
        assert e == frozenset({1})

    def test_alpha_above_max(self):
        val, e = ecp_dual_bruteforce(Dist.bernoulli(0.2), Dist.bernoulli(0.9),
                                     HAMMING, 2.0)
        assert val == 0.0
        assert e == frozenset()

    def test_size_guard(self):
        k = 21
        p = Dist.from_mass([1.0 / k] * k)
        c = CostMatrix.from_rows([[0.0] * k] * k)
        with pytest.raises(SizeGuardError):
            ecp_dual_bruteforce(p, p, c, 0.0)


class TestGammaEnlarge:
    def test_empty(self):
        assert gamma_enlarge(frozenset(), HAMMING, 0.0) == frozenset()

    def test_everything_admissible(self):
        assert gamma_enlarge({0}, HAMMING, 1.0) == frozenset({0, 1})

    def test_diagonal_only(self):
        assert gamma_enlarge({0}, HAMMING, 0.0) == frozenset({0})


class TestKantorovichCertificate:
    def test_optimal_plan_has_tiny_gap(self, rng):
        for _ in range(10):
            px = random_dist(rng, 3)
            py = random_dist(rng, 4)
            c = random_cost(rng, 3, 4)
            plan = ot_cost(px, py, c)
            f, g, gap = kantorovich_certificate(px, py, c, plan)
            farr, garr = np.asarray(f), np.asarray(g)
            assert (farr[:, None] + garr[None, :] <= c.as_array() + 1e-12).all()
            assert abs(gap) <= 1e-9

    def test_zero_cost(self):
        p = Dist.bernoulli(0.4)
        c = CostMatrix.from_rows([[0.0, 0.0], [0.0, 0.0]])
        plan = ot_cost(p, p, c)
        f, g, gap = kantorovich_certificate(p, p, c, plan)
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_plan_without_potentials_solves_once(self, rng, monkeypatch):
        calls = []
        real = flow.transport_min_cost
        monkeypatch.setattr(flow, "transport_min_cost",
                            lambda *a: calls.append(1) or real(*a))
        for _ in range(10):
            px, py = random_dist(rng, 3), random_dist(rng, 4)
            c = random_cost(rng, 3, 4)
            made = ot_cost(px, py, c)
            bare = TransportPlan(plan=made.plan, objective=made.objective)
            calls.clear()
            _, _, gap = kantorovich_certificate(px, py, c, bare)
            assert len(calls) == 1 and abs(gap) <= 1e-12

    def test_product_coupling_gap_is_its_excess(self, rng):
        for _ in range(10):
            px, py = random_dist(rng, 3), random_dist(rng, 4)
            c = random_cost(rng, 3, 4)
            prod = JointDist.product(px, py)
            objective = float(np.sum(prod.as_array() * c.as_array()))
            plan = TransportPlan(plan=prod, objective=objective)
            _, _, gap = kantorovich_certificate(px, py, c, plan)
            want = objective - ot_cost(px, py, c).objective
            assert gap == pytest.approx(want, abs=1e-12)

    def test_bad_plans_raise(self):
        px, py = Dist.bernoulli(0.3), Dist.bernoulli(0.6)
        off = TransportPlan(plan=JointDist.product(py, py), objective=0.0)
        with pytest.raises(InfeasibleError):
            kantorovich_certificate(px, py, HAMMING, off)
        wide = TransportPlan(plan=JointDist.product(px, Dist.uniform(3)),
                             objective=0.0)
        with pytest.raises(DimensionMismatchError):
            kantorovich_certificate(px, py, HAMMING, wide)


class TestOptimalSupport:
    def test_binary_asymmetric(self):
        s = optimal_support(Dist.bernoulli(0.1), Dist.bernoulli(0.5), HAMMING)
        assert s.cells == frozenset({(0, 0), (1, 0), (1, 1)})

    def test_constant_cost_full(self):
        c = CostMatrix.from_rows([[1.0, 1.0], [1.0, 1.0]])
        s = optimal_support(Dist.bernoulli(0.3), Dist.bernoulli(0.6), c)
        assert s.cells == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})

    def test_tiny_plan_mass_counts(self):
        # the base plan carries 1e-9 on (0, 0); an absolute 1e-9 cut-off
        # dropped that cell and left the x = 0 row with no support at all
        px = Dist.from_mass([1e-9, 1 - 1e-9])
        s = optimal_support(px, Dist.bernoulli(0.5), HAMMING)
        assert s.cells == frozenset({(0, 0), (1, 0), (1, 1)})

    def test_letter_below_the_old_dust_counts(self):
        # the base plan carries 2^-52 on (0, 0), once cut off as dust
        px = Dist.from_mass([2.0 ** -52, 0.5 - 2.0 ** -52, 0.5])
        c = CostMatrix.from_rows([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        s = optimal_support(px, Dist.from_mass([0.25, 0.75]), c)
        assert s.cells == frozenset({(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)})

    def test_point_masses(self):
        px = Dist.from_mass([1.0, 0.0])
        py = Dist.from_mass([0.0, 1.0])
        s = optimal_support(px, py, HAMMING)
        assert s.cells == frozenset({(0, 1)})

    def test_small_costs_are_not_ties(self):
        # reduced costs of 2e-10 once fell under a tightness threshold, so
        # every cell counted as optimal, and the MDP kernels then found the
        # optimal dual face empty or unbounded
        half = Dist.from_mass([0.5, 0.5])
        small = CostMatrix.from_rows([[0.0, 1e-10], [1e-10, 0.0]])
        s = optimal_support(half, half, small)
        assert s.cells == frozenset({(0, 0), (1, 1)})
        assert s == optimal_support(half, half, HAMMING)
        q = Dist.from_mass([0.4, 0.6])
        support_of.cache_clear()
        assert mdp_rate_upper(q, q, small, 1e-10) == 0.5208333333333333
        assert mdp_rate_upper(q, q, HAMMING, 1.0) == 0.5208333333333333
