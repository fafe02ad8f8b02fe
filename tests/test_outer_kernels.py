"""Differential tests for the outer-solve kernels, and a brute-force
oracle for the dense route's deep tails and for the product-space oracle.

The bipartite max-flow once added its residual graph one cell at a time
and searched it with a recursive DFS, and each chain-DP step once built
every candidate mass of every run.  That code is kept here verbatim as
the oracle: the bulk-built graph with its iterative search, and the step
that computes only the masses its scores rank, must match it bit for bit.
The dense route has since moved from the float flow to the exact one, and
is held to the float flow's witness at a stated tolerance.  The
lexicographic coupling has since moved onto ints only, and matches the old
one bit for bit wherever the max-flow routes all the supply, as the old
one assumed.  The max-flow has since returned its flow completed to a
coupling in ints, and matches the old flow bit for bit on the admissible
cells.  The bulk-built residual graph and its Dinic have since given way
to a kernel that keeps only the flow on the cells; they are kept verbatim
in ``residual_dinic``, and the kernel must match them bit for bit.  The
dense route's alpha sweeps have since continued the instance's last flow,
and must give the cold calls' bits, which are the residual Dinic's; the
outer plan has since run on the lattices' ints over their total, and must
give the plan on ``Fraction`` masses byte for byte.
"""
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

from strassen_lab import flow, lattice
from strassen_lab.lattice import _counts_matrix, _inner_cost_table, gn_tails
from strassen_lab.measures import Dist
from strassen_lab.transport import ADMISS_EPS, CostMatrix, ot_value

import chain_dp
import residual_dinic
from chain_dp import (_LOG_HALF, _bounds, _chain_masks, _chain_members,
                      _lse, _signed_argmax, _witness_values, log_type_masses)
from conftest import random_dist
from test_lattice import B01, B05, DEEP_COST, DEEP_PX, DEEP_PY, HAMMING, _hex
from test_second_paths import (_masses, check_completed_flow,
                               check_lex_min_coupling)


# ---------------------------------------------------------------------------
# flow: the residual graph built one add_edge at a time and the recursive
# Dinic search, verbatim.

#: The float flows' dust: a residual, need or remainder at or below it
#: counts as none.
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


def _bipartite_flow(supply, demand, admissible: np.ndarray, scale=1):
    """Max-flow from supplies to demands through the admissible cells.

    Returns ``(flow_value, flow_matrix, source_side_x)``; the flow matrix is
    divided by ``scale`` and ``source_side_x`` is the set of x indices on
    the source side of a minimum cut: the nodes that the last, failed
    search of ``max_flow`` levelled, for its walk never stops early.
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
                cell_edges[(i, j)] = g.add_edge(i, m + j, math.inf)
    value = g.max_flow(s, t)
    flow = np.zeros((m, k))
    for (i, j), e in cell_edges.items():
        flow[i, j] = g.flow_on(e) / scale
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


# ---------------------------------------------------------------------------
# lattice: the chain-DP step that builds every candidate mass of every run,
# and the scores and end-state read over the stacked masses, verbatim.

def _scores(log_e, log_g, log_skip, log_gap):
    """The scores of the chains of the three runs, from their settled masses.

    Each argument stacks one of the four log-masses of ``_dp_chains``, one
    row per run, and row s of each feeds score s.  Returns the logs of the
    plus and minus parts of the scores, stacked in the same order:

    gain        mu(E) - nu(Gamma(E)), for chains with mu(E) <= 1/2.  Summed
                directly, the bulk masses of a chain with mu(E) > 1/2 carry
                the lattices' normalization error (in the float log masses)
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
    nothing = np.full_like(log_e[2], -np.inf)
    bulk = np.stack([log_e[0], log_skip[1], nothing]) > _LOG_HALF
    lpos = np.stack([log_e[0], log_gap[1], nothing])
    lneg = np.stack([log_g[0], log_skip[1],
                     np.logaddexp(log_g[2], log_skip[2])])
    return np.where(bulk, -np.inf, lpos), np.where(bulk, np.inf, lneg)


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
    masses alone.  As witness sets, all of them also hold the rows after i
    in E^c and the columns starting after row i in Gamma(E)^c; those masses
    are the same for every candidate, and added in, they would round away
    the differences at the tail's scale.

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
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        unsettled, steps = view.masses(lognu)
        for i, (cover, gap) in enumerate(steps):
            log_e, log_g, log_skip, log_gap = state[:, :, :i + 1]
            cand = np.stack([np.logaddexp(log_e, logmu_a[i]),
                             np.logaddexp(log_g, cover), log_skip,
                             np.logaddexp(log_gap, gap)])
            best = _signed_argmax(*_scores(*cand))
            parent[:, i] = best - 1
            state[:, :, i + 1] = cand[:, runs, best]
            np.logaddexp(log_skip, logmu_a[i], out=log_skip)
    state[3] = np.logaddexp(state[3], unsettled)
    return parent, state


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
    every = np.repeat(state.reshape(4, 1, -1), len(parent), axis=1)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        best = _signed_argmax(*_scores(*every))
    return [_witness_values(logmu, lognu, *_chain_masks(
                _chain_members(parent[run], slot - 1), view, len(logmu)))
            for run, slot in zip(*np.divmod(best, state.shape[2]))]



# ---------------------------------------------------------------------------

def _flow_instances(seed, count):
    """Random supplies, demands and admissible cells, up to 40 x 40."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, k = (int(v) for v in rng.integers(1, 41, 2))
        normalized = bool(rng.random() < 0.5)
        adm = rng.random((m, k)) < rng.random()
        yield _masses(rng, m, normalized), _masses(rng, k, normalized), adm


def _same_floats(got, want) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _staircase(m):
    """Rows x_i admit {y_i, y_(i+1)} for i < m and row x_m only y_0, every
    mass 1: the last unit of flow needs one path through every row."""
    adm = np.zeros((m + 1, m + 1), dtype=bool)
    rows = np.arange(m)
    adm[rows, rows] = adm[rows, rows + 1] = True
    adm[m, 0] = True
    return [1.0] * (m + 1), [1.0] * (m + 1), adm


def _kernel_instances(seed, count, size):
    """Int masses on tables up to ``size - 1`` a side at every density, one
    in ten full and one in ten empty.  The masses take one scale in three:
    0 to 9, with many ties; random 1,104-bit ints; and up to 2^62 shifted
    by up to 1,100 bits.  A fifth of them are 0."""
    rng = np.random.default_rng(seed)
    draw = (lambda: int(rng.integers(0, 10)),
            lambda: int.from_bytes(rng.bytes(138), "little"),
            lambda: int(rng.integers(1, 2 ** 62)) << int(rng.integers(0, 1100)))
    for trial in range(count):
        m, k = (int(v) for v in rng.integers(1, size, 2))
        mass = draw[trial % 3]
        sup, dem = ([0 if rng.random() < 0.2 else mass() for _ in range(n)]
                    for n in (m, k))
        adm = rng.random((m, k)) < rng.random()
        if trial % 10 in (3, 7):
            adm[:] = trial % 10 == 3
        yield sup, dem, adm


def lattice_dense_ops(seed):
    """The lattice-dense benchmark's calls at one seed, as (p_x, p_y, cost,
    alpha, n): 2 x 3 at n = 24 and 3 x 3 at n = 12, the seed moving each
    template cost by k / 100, each at its transport value and 8 alphas
    around it."""
    rng = np.random.default_rng(seed)
    templates = (
        ((0.4, 0.6), (0.2, 0.3, 0.5), ((0.0, 0.6, 1.0), (0.8, 0.2, 0.5)), 24),
        ((0.5, 0.3, 0.2), (0.3, 0.4, 0.3),
         ((0.0, 0.7, 1.3), (0.9, 0.1, 0.6), (1.4, 0.8, 0.2)), 12),
    )
    for mx, my, template, n in templates:
        px, py = Dist.from_mass(mx), Dist.from_mass(my)
        carr = np.maximum(np.array(template) + rng.integers(
            -5, 6, size=np.shape(template)) / 100.0, 0.0)
        base = ot_value(np.array(mx), np.array(my), carr)
        scale = (carr.max() - carr.min()) / math.sqrt(n)
        c = CostMatrix.from_rows(carr.tolist())
        for t in (0.0, *np.linspace(-1.2, 1.2, 8)):
            yield px, py, c, float(base + t * scale), n


def _dense_gn_tails(px, py, c, alpha, n):
    """The dense route of gn_tails on the recursive flow above."""
    adm = _inner_cost_table(c, n) <= alpha + ADMISS_EPS
    if not adm.any():
        return 1.0, 0.0
    logmu, lognu = log_type_masses(px, n), log_type_masses(py, n)
    _, _, witness = bipartite_max_flow(np.exp(logmu), np.exp(lognu), adm)
    in_e = np.zeros(len(logmu), dtype=bool)
    in_e[list(witness)] = True
    return _bounds([_witness_values(logmu, lognu, in_e,
                                    adm[in_e].any(axis=0))])


class TestFlow:
    def test_bulk_graph_is_the_add_edge_graph(self):
        rng = np.random.default_rng(2001)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            tails, heads = rng.integers(0, n, (2, int(rng.integers(0, 40))))
            caps = rng.random(len(tails)).tolist()
            want = MaxFlowGraph(n)
            for u, v, cap in zip(tails.tolist(), heads.tolist(), caps):
                want.add_edge(u, v, cap)
            got = flow.MaxFlowGraph.from_edges(n, tails, heads, caps)
            assert got.adj == want.adj and got.to == want.to
            assert repr(got.cap) == repr(want.cap)

    def test_exact_max_flow_bit_for_bit(self):
        for sup, dem, adm in _flow_instances(2003, 300):
            got = flow.bipartite_max_flow(sup, dem, adm)
            want = bipartite_max_flow_exact(sup, dem, adm)
            assert (got.value, got.unrouted) == want[:2]
            check_completed_flow(got.plan, sup, dem, adm, want[2])
            assert got.witness == want[3]

    def test_lex_min_coupling_bit_for_bit(self):
        # bit for bit wherever the max-flow routes all the supply; float
        # masses run lifted to integers, as ot_cost runs them
        rng = np.random.default_rng(2004)
        routed = []
        for trial in range(300):
            m, k = (int(v) for v in rng.integers(1, 9, 2))
            if trial % 2:
                sup = rng.integers(0, 10, m).tolist()
                cuts = np.sort(rng.integers(0, sum(sup) + 1, k - 1))
                dem = np.diff(cuts, prepend=0, append=sum(sup)).tolist()
            else:
                sup, dem, _ = flow._lift(random_dist(rng, m).mass,
                                         random_dist(rng, k).mass)
            allowed = rng.random((m, k)) < 0.3 + 0.7 * rng.random()
            routed.append(check_lex_min_coupling(sup, dem, allowed,
                                                 lex_min_coupling))
        assert routed.count(True) == 107  # 75 int, 32 lifted

    def test_one_augmenting_path_through_600_rows(self):
        # the recursive search raised RecursionError from about 500 rows
        sup, dem, adm = _staircase(600)
        solved = flow.bipartite_max_flow(sup, dem, adm)
        assert (solved.value, solved.unrouted) == (601, 0)
        mat = solved.plan
        assert (mat.sum(axis=0) == 1.0).all() and (mat.sum(axis=1) == 1.0).all()

    def test_bipartite_kernel_is_the_residual_dinic(self, monkeypatch):
        # the kernel that keeps no residual graph against the residual-graph
        # Dinic it replaced, kept verbatim in residual_dinic: the same routed
        # int, flow on every admissible cell, supply and demand left, levels
        # of the last search, plan bytes and witness
        tops, block = [], flow.BipartiteNetwork._block

        def spy(net, lx, ly, top):
            tops.append(top)
            return block(net, lx, ly, top)

        monkeypatch.setattr(flow.BipartiteNetwork, "_block", spy)
        stair = _staircase(600)
        seen = Counter()
        for sup, dem, adm in itertools.chain(
                _kernel_instances(2009, 3000, 13),
                [([int(v) for v in stair[0]], [int(v) for v in stair[1]],
                  stair[2])]):
            scale = max(sup + dem + [1])
            fsup, fdem = ([Fraction(v, scale) for v in side]
                          for side in (sup, dem))
            got = flow.bipartite_max_flow(fsup, fdem, adm)
            want = residual_dinic.bipartite_max_flow(fsup, fdem, adm)
            net, g = got.network, want.graph
            m, k = adm.shape
            assert (got.routed, got.supply, got.den) == (
                want.routed, want.supply, want.den)
            assert [net.into[j].get(i, 0) for i, j in np.argwhere(adm)] == (
                g.cap[2 * (m + k) + 1::2])
            assert net.sup + net.dem == g.cap[0:2 * (m + k):2]
            assert net.level[0] + net.level[1] == g.level[:m + k]
            assert got.plan.tobytes() == want.plan.tobytes()
            assert got.witness == want.witness
            seen["zero mass"] += 0 in sup + dem
            seen["over 1,000 bits"] += max(sup + dem).bit_length() > 1000
            seen["empty table"] += not adm.any()
            seen["full table"] += bool(adm.all())
            seen["supply left"] += got.routed < got.supply
            seen["paths through backward arcs"] += max(tops + [0]) > 2
            tops.clear()
        assert min(seen.values()) >= 200 and len(seen) == 6, seen

    def test_lex_min_coupling_is_the_residual_dinics(self):
        for sup, dem, adm in _kernel_instances(2010, 300, 7):
            assert repr(flow.lex_min_coupling(sup, dem, adm)) == repr(
                residual_dinic.lex_min_coupling(sup, dem, adm))

    def test_subnormal_mass_lifts_without_overflow(self):
        # 5e-324 lifts to 1 over 2**1074, so 1.0 lifts to 2**1074: pushed
        # through a cell of capacity math.inf, it raised OverflowError
        solved = flow.bipartite_max_flow(
            [5e-324, 1.0], [1.0, 5e-324, 0.5],
            np.array([[False, True, False], [True, False, False]]))
        assert solved.value == Fraction(2 ** 1074 + 1, 2 ** 1074)
        assert solved.unrouted == 0
        assert solved.plan.tolist() == [[0.0, 5e-324, 0.0], [1.0, 0.0, 0.0]]
        assert solved.witness == set()

    def test_lift_takes_ints_and_fractions_as_they_are(self):
        # over the lcm of the denominators, not the largest of them; a
        # float is its binary rational, an int past float range stays exact
        assert flow._lift([Fraction(1, 3), 2, 0.5],
                          [Fraction(5, 4), 10 ** 400]) == (
            [4, 24, 6], [15, 12 * 10 ** 400], 12)

    def test_greedy_is_the_max_flow_on_interval_graphs(self):
        # rows that admit nothing, columns that no row admits (lo > hi, or
        # past either end), zero masses and ends in any order; masses up
        # to 2^200, the supply read once from a generator
        rng = np.random.default_rng(2008)
        seen = Counter()
        for _ in range(500):
            m, k = (int(v) for v in rng.integers(1, 25, 2))
            scale = 2 ** int(rng.integers(0, 200))
            sup = [int(v) * scale for v in rng.integers(0, 10, m)]
            dem = [int(v) * scale for v in rng.integers(0, 10, k)]
            lo = rng.integers(-2, m + 2, k)
            hi = lo + rng.integers(-3, max(m // 2, 1), k)
            rows = np.arange(m)[:, None]
            adm = (rows >= lo) & (rows <= hi)
            got = flow.convex_max_flow(iter(sup), dem, lo, hi)
            assert type(got) is int
            assert got == flow.bipartite_max_flow(sup, dem, adm).value
            seen["empty row"] += not adm.any(axis=1).all()
            seen["empty column"] += not adm.any(axis=0).all()
            seen["zero mass"] += 0 in sup + dem
            seen["unsorted ends"] += bool((np.diff(lo) < 0).any()
                                          and (np.diff(hi) > 0).any())
        assert min(seen.values()) >= 100 and len(seen) == 4, seen

    def test_dense_route_on_the_benchmark_sweeps(self):
        # the exact flow on the integer type masses against the float
        # flow's witness on the float masses: 35 of the 45 calls move, G by
        # at most 4.4e-15 relative and 1 - G by at most 2.4e-15; G = 0.0
        # stays 0.0
        moved = 0
        for seed in range(1, 6):
            for px, py, c, alpha, n in lattice_dense_ops(seed):
                if c.shape == (3, 3):
                    got = gn_tails(px, py, c, alpha, n)
                    want = _dense_gn_tails(px, py, c, alpha, n)
                    assert got == pytest.approx(want, rel=5e-15, abs=0.0)
                    moved += got != want
        assert moved == 35


def _chain_route_cases():
    """(p_x, p_y, cost, alpha, n): the binary-tails benchmark's 11 calls,
    the lattice-dense benchmark's 2 x 3 calls at seeds 1-5, and the 2 x 3
    deep-tail instances of test_lattice in both orientations."""
    cases = [(B01, B05, HAMMING, alpha, n)
             for alpha in (0.2, 0.45) for n in (50, 100, 200)]
    cases += [(B01, B05, HAMMING, 0.4 + d / 10, 100)
              for d in (-1.5, -0.5, 0.0, 0.5, 1.5)]
    for seed in range(1, 6):
        cases += [op for op in lattice_dense_ops(seed) if op[2].shape == (2, 3)]
    px, py = Dist.from_mass(list(DEEP_PX)), Dist.from_mass(list(DEEP_PY))
    c = CostMatrix.from_rows(DEEP_COST)
    ct = CostMatrix.from_rows(c.as_array().T.tolist())
    for n, alpha in ((40, 0.5), (40, 0.55), (40, 0.6), (80, 0.5), (120, 0.5)):
        cases += [(px, py, c, alpha, n), (py, px, ct, alpha, n)]
    return cases


class TestChainDp:
    def test_bit_for_bit(self):
        cases = _chain_route_cases()
        for px, py, c, alpha, n in cases:
            carr, rows, cols = c.as_array(), px, py
            if c.shape[0] != 2:
                rows, cols, carr = py, px, carr.T
            view = chain_dp._chain_view(*lattice._line_view(carr, alpha, n), n)
            assert view is not None
            logmu = log_type_masses(rows, n)
            lognu = log_type_masses(cols, n)
            got = chain_dp._dp_chains(logmu, lognu, view)
            want = _dp_chains(logmu, lognu, view)
            assert _same_floats(got[0], want[0])
            assert _same_floats(got[1], want[1])
            assert _hex(chain_dp.chain_gn_tails(px, py, c, alpha, n)) == _hex(
                _bounds(_side_candidates(logmu, lognu, view)))
        assert len(cases) == 11 + 45 + 10

    # the largest relative differences of (G, 1 - G) per set of cases
    @pytest.mark.parametrize("part,worst", [
        (slice(0, 11), (2.6e-13, 5.9e-14)),
        (slice(11, 56), (2.3e-14, 2.2e-15)),
        (slice(56, None), (4.5e-14, 8.9e-15))],
        ids=["binary-tails", "lattice-dense", "deep-tails"])
    def test_exact_route_against_the_chain_dp(self, part, worst):
        # the greedy's exact values against the log-space chain DP's: every
        # one moves, by no more than the DP's rounding measured here
        for case in _chain_route_cases()[part]:
            got, want = gn_tails(*case), chain_dp.chain_gn_tails(*case)
            assert got != want
            for a, b, rel in zip(got, want, worst):
                assert a == pytest.approx(b, rel=rel, abs=0.0)


# ---------------------------------------------------------------------------
# gn_tails against a brute force over every witness set, for 3 x 3
# lattices at n <= 4 (at most 15 types a side), and for lattices with a
# 2-letter side.  Dyadic marginals sum to exactly 1, so the oracle never
# sees the rounding of the marginals' own sums; the admissible cells are
# the ones of the inner table.  A letter below 2^-53 cannot sit beside
# masses near 1/2 in an exact sum, so the oracle divides each law by its
# exact sum, the law gn_tails reads.  G and 1 - G are each the exact
# rational rounded once.

def exact_type_masses(mass, n):
    """The type-class masses of the law with these float masses, divided by
    their sum, exactly."""
    probs = [Fraction(v) for v in mass]
    probs = [q / sum(probs) for q in probs]
    out = []
    for counts in _counts_matrix(n, len(mass)).tolist():
        term = Fraction(math.factorial(n))
        for q, c in zip(probs, counts):
            term = term / math.factorial(c) * q ** c
        out.append(term)
    return out


def brute_force_gain(mu, nu, adm) -> Fraction:
    """max over row sets E of mu(E) - nu(Gamma(E)), in integers over the
    masses' common denominator.  Set s is set s - {i} plus its lowest row
    i, so each mass and neighbourhood is one step from a smaller set's."""
    den = math.lcm(*(f.denominator for f in mu + nu))
    mu, nu = ([int(f * den) for f in lst] for lst in (mu, nu))
    row_cols = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in adm]
    nu_of = [0] * (1 << len(nu))
    for cols in range(1, len(nu_of)):
        low = cols & -cols
        nu_of[cols] = nu_of[cols ^ low] + nu[low.bit_length() - 1]
    mu_of, gamma, best = [0] * (1 << len(mu)), [0] * (1 << len(mu)), 0
    for rows in range(1, len(mu_of)):
        low = rows & -rows
        i = low.bit_length() - 1
        mu_of[rows] = mu_of[rows ^ low] + mu[i]
        gamma[rows] = gamma[rows ^ low] | row_cols[i]
        best = max(best, mu_of[rows] - nu_of[gamma[rows]])
    return Fraction(best, den)


def _dyadic(rng):
    """Three masses 1 - 2^-a - 2^-b, 2^-a and 2^-b in random order."""
    tail = [2.0 ** -int(e) for e in rng.integers(1, 31, 2)]
    if sum(tail) >= 1.0:
        tail = [v / 2.0 for v in tail]
    mass = [1.0 - sum(tail), *tail]
    return [mass[i] for i in rng.permutation(3)]


def _dense_deep_tail_instances():
    """80 random instances: dyadic marginals, costs in hundredths, n = 1-4,
    alpha halfway between two adjacent entries of the inner table."""
    rng = np.random.default_rng(2005)
    out = []
    for _ in range(80):
        px, py = _dyadic(rng), _dyadic(rng)
        cost = (rng.integers(0, 100, (3, 3)) / 100.0).tolist()
        n = int(rng.integers(1, 5))
        levels = np.unique(_inner_cost_table(CostMatrix.from_rows(cost), n))
        j = int(rng.integers(0, max(len(levels) - 1, 1)))
        alpha = float((levels[j] + levels[min(j + 1, len(levels) - 1)]) / 2)
        out.append((px, py, cost, alpha, n))
    return out


def _check_against_brute_force(px, py, cost, alpha, n):
    assert math.fsum(px) == 1.0 and math.fsum(py) == 1.0
    c = CostMatrix.from_rows(cost)
    adm = _inner_cost_table(c, n) <= alpha + ADMISS_EPS
    g = brute_force_gain(exact_type_masses(px, n), exact_type_masses(py, n),
                         adm)
    got = gn_tails(Dist.from_mass(px), Dist.from_mass(py), c, alpha, n)
    assert got == (float(g), float(1 - g))
    return got


@pytest.mark.parametrize("case", range(80))
def test_dense_route_matches_brute_force(case):
    _check_against_brute_force(*_dense_deep_tail_instances()[case])


def test_dense_route_keeps_a_2_to_the_minus_104_tail():
    # the float flow left the witness set empty and gn_tails returned
    # (0.0, 1.0); a 15-row witness gives G = 2**-104
    _check_against_brute_force(
        [0.5, 0.25, 0.25], [1.0 - 2.0 ** -25, 2.0 ** -26, 2.0 ** -26],
        [[0.37, 0.92, 0.6], [0.09, 0.79, 0.32], [0.08, 0.84, 0.88]],
        0.6985000000000002, 4)


DEEP_TAIL_PY = [2.0 ** -9, 1.0 - 2.0 ** -9 - 2.0 ** -6, 2.0 ** -6]
DEEP_TAIL_COST = [[0.46, 0.43, 0.33], [0.43, 0.28, 0.73], [0.81, 0.73, 0.97]]


def test_dense_route_keeps_a_subnormal_tail():
    # a letter at 2^-263 makes the type (0, 0, 4) weigh 2^-1052, a
    # subnormal float, and that row admits no column, so G = 2^-1052.  On
    # the float type masses, which sum to 1 + 2.2e-16, the flow left
    # 1.6e-16 unrouted, its minimum cut took every row, and G read 0.0
    assert _check_against_brute_force(
        [0.5, 0.5, 2.0 ** -263], DEEP_TAIL_PY, DEEP_TAIL_COST, 0.66625,
        4) == (2.0 ** -1052, 1.0)


def test_dense_flow_runs_on_ints_beyond_float_range():
    # the same instance through the dense route's own call: its integer
    # type masses over T of 1,089 bits go to the max-flow as they are, and
    # only the routed int is read.  Building the plan on ints
    # first raised OverflowError; the min-cut witness certifies the value
    px, py = Dist.from_mass([0.5, 0.5, 2.0 ** -263]), Dist.from_mass(
        DEEP_TAIL_PY)
    c = CostMatrix.from_rows(DEEP_TAIL_COST)
    rows, cols, total = lattice._outer_masses(px, py, 4)
    assert total.bit_length() == 1089 and max(rows) > 2 ** 1024
    adm = _inner_cost_table(c, 4) <= 0.66625 + ADMISS_EPS
    solved = flow.bipartite_max_flow(rows, cols, adm)
    assert (solved.den, solved.supply) == (1, total)
    assert solved.unrouted == total - solved.routed
    assert (total - solved.routed) / total == 2.0 ** -1052
    assert gn_tails(px, py, c, 0.66625, 4) == (2.0 ** -1052, 1.0)
    witness = sorted(solved.witness)
    reached = np.flatnonzero(adm[witness].any(axis=0))
    assert (sum(rows[i] for i in witness) - sum(cols[j] for j in reached)
            == total - solved.routed)


@pytest.mark.parametrize("px,want", [
    ([0.5, 0.5, 2.0 ** -200], 2.0 ** -800),
    ([0.5, 0.5 - 2.0 ** -20, 2.0 ** -20], 2.0 ** -80)])
def test_dense_route_keeps_the_tail_below_the_float_masses(px, want):
    # the same lattice with the third letter at 2^-200, or with float
    # masses that sum to exactly 1: G = 2^-800 = 1.4997e-241 and
    # 2^-80 = 8.2718e-25, each read 0.0 on the float type masses
    assert _check_against_brute_force(
        px, DEEP_TAIL_PY, DEEP_TAIL_COST, 0.66625, 4) == (want, 1.0)


@pytest.mark.parametrize("px,py,c,alpha,n", [
    ([0.5, 0.5, 2.0 ** -263], DEEP_TAIL_PY, DEEP_TAIL_COST, 0.66625, 4),
    ([0.5, 0.5 - 2.0 ** -20, 2.0 ** -20], DEEP_TAIL_PY, DEEP_TAIL_COST,
     0.66625, 4),
    (B01.mass, B05.mass, [[0, 1], [1, 0]], 0.45, 40),
    (B01.mass, B05.mass, [[0, 1], [1, 0]], 0.45, 200),
    (B01.mass, B05.mass, [[0, 1], [1, 0]], 0.2, 200)],
    ids=["subnormal-tail", "letter-2^-20", "binary-40", "binary-200",
         "binary-200-lower"])
def test_outer_plan_realizes_gn(px, py, c, alpha, n):
    # sample's outer plan runs on the exact type laws, so the mass it
    # leaves off the admissible cells is G and the mass on them 1 - G, to
    # the bit; on the float log masses the two binary upper tails were
    # 3.4e-14 and 4.4e-13 relative off
    px, py = Dist.from_mass(list(px)), Dist.from_mass(list(py))
    c = CostMatrix.from_rows(c)
    inst = lattice.nested_instance(px, py, c, n)
    mat = lattice.optimal_outer_plan(inst, alpha).as_array()
    adm = inst.inner_cost <= alpha + ADMISS_EPS
    assert (math.fsum(mat[~adm]), math.fsum(mat[adm])) == gn_tails(
        px, py, c, alpha, n)


def _two_letter_case(rng, px):
    """A 2 x 2 or 2 x 3 instance with these letter masses on the 2-letter
    side: dyadic columns, costs in hundredths, n = 1-4, alpha halfway
    between two adjacent entries of the inner table."""
    ky = int(rng.integers(2, 4))
    py = _dyadic(rng) if ky == 3 else [0.75, 0.25]
    cost = (rng.integers(0, 100, (2, ky)) / 100.0).tolist()
    n = int(rng.integers(1, 5))
    levels = np.unique(_inner_cost_table(CostMatrix.from_rows(cost), n))
    j = int(rng.integers(0, max(len(levels) - 1, 1)))
    alpha = float((levels[j] + levels[min(j + 1, len(levels) - 1)]) / 2)
    return px, py, cost, alpha, n


@pytest.mark.parametrize("px", [[1.0, 0.0], [0.0, 1.0], [1.0, 5e-324],
                                [5e-324, 1.0]])
def test_line_route_with_a_letter_at_zero_or_subnormal_mass(px):
    # the ratio recurrence of the 2-letter side divides by its second
    # letter's numerator: 0 takes its own branch, and 5e-324 lifts to 1
    # beside 2^1074; both orientations
    rng = np.random.default_rng(2007)
    tails = []
    for _ in range(12):
        px, py, cost, alpha, n = _two_letter_case(rng, px)
        g = _check_against_brute_force(px, py, cost, alpha, n)
        assert _check_against_brute_force(
            py, px, np.array(cost).T.tolist(), alpha, n) == g
        tails.append(g[0])
    assert any(0.0 < v < 1.0 for v in tails)


def test_line_route_keeps_a_subnormal_letter():
    # only the letter at 5e-324 exceeds alpha, so G is the mass of the
    # types that use it: 2^-1074 at n = 1, 2^-1073 at n = 2
    for n, want in ((1, 5e-324), (2, 1e-323)):
        assert _check_against_brute_force(
            [1.0, 5e-324], [0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]], 0.4,
            n) == (want, 1.0)


# ---------------------------------------------------------------------------
# The product-space oracle against the same brute force, on sequences of
# dyadic letters short enough that every sequence mass is exact in floats.

def _sequences(k, n):
    return list(itertools.product(range(k), repeat=n))


def _oracle_brute_force(px, py, cost, alpha, n):
    """brute_force_gain over the product space, on the admissible cells
    direct_gn_oracle builds."""
    xs, ys = _sequences(len(px), n), _sequences(len(py), n)
    carr = np.array(cost)
    table = np.array([[sum(carr[a, b] for a, b in zip(sx, sy)) / n
                       for sy in ys] for sx in xs])
    mu, nu = ([math.prod(Fraction(mass[s]) for s in seq) for seq in seqs]
              for mass, seqs in ((px, xs), (py, ys)))
    return brute_force_gain(mu, nu, table <= alpha + ADMISS_EPS), table


def _short_dyadic(rng, k):
    """k masses 1 - (2^-a + ...), 2^-a, ... with a <= 8, so a product of
    three of them needs at most 24 bits."""
    tail = [2.0 ** -int(e) for e in rng.integers(2, 9, k - 1)]
    mass = [1.0 - sum(tail), *tail]
    return [mass[i] for i in rng.permutation(k)]


def _oracle_instances():
    """30 random 2 x 2 (n = 2, 3) and 2 x 3 (n = 2) instances, alpha halfway
    between two adjacent product-space costs."""
    rng = np.random.default_rng(2006)
    out = []
    for i in range(30):
        ky, n = ((2, 2), (2, 3), (3, 2))[i % 3]
        px, py = _short_dyadic(rng, 2), _short_dyadic(rng, ky)
        cost = (rng.integers(0, 100, (2, ky)) / 100.0).tolist()
        levels = np.unique(_oracle_brute_force(px, py, cost, 0.0, n)[1])
        j = int(rng.integers(0, len(levels) - 1))
        out.append((px, py, cost, float((levels[j] + levels[j + 1]) / 2), n))
    return out


def _check_oracle_against_brute_force(px, py, cost, alpha, n):
    g = _oracle_brute_force(px, py, cost, alpha, n)[0]
    got = lattice.direct_gn_oracle(Dist.from_mass(px), Dist.from_mass(py),
                                   CostMatrix.from_rows(cost), alpha, n)
    assert got == float(g)
    return got


def test_product_space_oracle_matches_brute_force():
    tails = [_check_oracle_against_brute_force(*case)
             for case in _oracle_instances()]
    assert any(0.0 < g < 1.0 for g in tails)


def test_product_space_oracle_keeps_a_tail_below_float_resolution():
    # 1 - (routed mass) in floats read 2^-52 here
    g = _check_oracle_against_brute_force(
        [1.0 - 2.0 ** -20, 2.0 ** -20],
        [1.0 - 2.0 ** -26, 2.0 ** -27, 2.0 ** -27],
        [[0.49, 0.77, 0.54], [0.17, 0.84, 0.0]], 0.51, 2)
    assert g == 2.0 ** -54


def _small_instances():
    """150 random instances with 2 or 3 letters a side and n = 1..3: masses
    from integer weights 0..9, costs and alpha in hundredths."""
    rng = np.random.default_rng(5)

    def dist(k):
        w = rng.integers(0, 10, k).astype(float)
        w[rng.integers(k)] += 1.0
        return Dist.from_mass((w / w.sum()).tolist())

    for _ in range(150):
        kx, ky = (int(v) for v in rng.integers(2, 4, 2))
        px, py = dist(kx), dist(ky)
        cost = rng.integers(0, 100, (kx, ky)) / 100.0
        yield (px, py, CostMatrix.from_rows(cost.tolist()),
               float(rng.integers(0, 100) / 100.0), int(rng.integers(1, 4)))


def test_product_space_oracle_is_gn_tails():
    # the oracle weighs each sequence by the exact product of its letters'
    # lifted masses, the law whose type masses gn_tails sums, so the two
    # agree to the bit.  On the rounded float products 65 of these 150
    # differed, 30 of them where G = 0; in the last case every pair is
    # admissible and the oracle read 2.38e-16
    cases = [*_small_instances(),
             (Dist.from_mass([0.8, 0.2]), Dist.from_mass([0.5, 0.5]),
              CostMatrix.from_rows([[0.11, 0.73], [0.41, 0.06]]), 0.8, 3)]
    for px, py, c, alpha, n in cases:
        assert lattice.direct_gn_oracle(px, py, c, alpha, n) == gn_tails(
            px, py, c, alpha, n)[0]
    assert lattice.direct_gn_oracle(*cases[-1]) == 0.0


# ---------------------------------------------------------------------------
# The dense route's warm start: an alpha sweep on one instance continues
# the last maximum flow while alpha does not drop.

def _clear_last_flows():
    lattice._last_flow.cache_clear()


def _warm_instances():
    """Random 3 x 3, 3 x 4 and 4 x 3 instances at n = 4-10, each with six
    thresholds, one of them twice: the transport value plus t (cmax - cmin)
    / sqrt(n) for t drawn in [-1.5, 1.5], where G moves the most."""
    rng = np.random.default_rng(3101)
    for kx, ky in [(3, 3), (3, 4), (4, 3)] * 3:
        px, py = random_dist(rng, kx), random_dist(rng, ky)
        carr = rng.integers(0, 100, (kx, ky)) / 100.0
        n = int(rng.integers(4, 11 if kx * ky == 9 else 8))
        base = ot_value(px.as_array(), py.as_array(), carr)
        scale = (carr.max() - carr.min()) / math.sqrt(n)
        alphas = [float(base + t * scale) for t in rng.uniform(-1.5, 1.5, 5)]
        yield px, py, CostMatrix.from_rows(carr.tolist()), n, [
            *alphas, alphas[2]]


def _alpha_orders(alphas, seed):
    """The thresholds ascending, descending, shuffled and with a repeat."""
    up = sorted(alphas)
    shuffled = list(alphas)
    np.random.default_rng(seed).shuffle(shuffled)
    return [up, up[::-1], shuffled, [up[1], up[1], up[0], up[0], up[3]]]


def _outer_network(px, py, c, alpha, n):
    rows, cols, total = lattice._outer_masses(px, py, n)
    return rows, cols, total, _inner_cost_table(c, n) <= alpha + ADMISS_EPS


def _int_marginals_and_cut(solved, rows, cols, total):
    """A solved network's flows and leftovers add up to the masses exactly,
    the flow runs on admissible cells only, and the min cut at the witness
    has capacity F: its rows' mass less their admissible columns' mass is
    T - F, in ints."""
    net, adm = solved.network, solved.admissible
    out = [0] * len(rows)
    for j, flows in enumerate(net.into):
        assert sum(flows.values()) + net.dem[j] == cols[j]
        for i, v in flows.items():
            assert v > 0 and adm[i, j]
            out[i] += v
    assert [a + b for a, b in zip(out, net.sup)] == list(rows)
    assert sum(out) == solved.routed
    witness = sorted(solved.witness)
    reached = np.flatnonzero(adm[witness].any(axis=0))
    assert (sum(rows[i] for i in witness) - sum(cols[j] for j in reached)
            == total - solved.routed)


class TestWarmStart:
    def test_warm_sweeps_are_the_cold_calls(self):
        # every order of every sweep gives the cold call's bits, and those
        # are the residual-graph Dinic's on the same ints, rounded once
        inside = 0
        for k, (px, py, c, n, alphas) in enumerate(_warm_instances()):
            want = {}
            for alpha in alphas:
                _clear_last_flows()
                want[alpha] = _hex(gn_tails(px, py, c, alpha, n))
                rows, cols, total, adm = _outer_network(px, py, c, alpha, n)
                routed = residual_dinic.bipartite_max_flow(
                    rows, cols, adm).routed
                assert want[alpha] == _hex(
                    ((total - routed) / total, routed / total))
                inside += 0 < routed < total
            for order in _alpha_orders(alphas, k):
                _clear_last_flows()
                assert [_hex(gn_tails(px, py, c, alpha, n))
                        for alpha in order] == [want[a] for a in order]
        assert inside >= 15  # of 54 calls, G strictly between 0 and 1

    def test_warm_started_flow_is_certified(self):
        # a start on a subset of the cells gives the cold flow value, its
        # coupling keeps the exact marginals, its witness certifies T - F
        # and is the cold flow's, and the start is left as it was
        for px, py, c, n, alphas in _warm_instances():
            lo, hi = min(alphas), max(alphas)
            rows, cols, total, adm_lo = _outer_network(px, py, c, lo, n)
            adm_hi = _outer_network(px, py, c, hi, n)[3]
            start = flow.bipartite_max_flow(rows, cols, adm_lo)
            before = (list(start.network.sup), list(start.network.dem),
                      [dict(f) for f in start.network.into], start.routed)
            warm = flow.bipartite_max_flow(rows, cols, adm_hi, start)
            cold = flow.bipartite_max_flow(rows, cols, adm_hi)
            assert (list(start.network.sup), list(start.network.dem),
                    [dict(f) for f in start.network.into],
                    start.routed) == before
            assert (warm.routed, warm.supply, warm.den) == (
                cold.routed, total, 1)
            _int_marginals_and_cut(warm, rows, cols, total)
            assert warm.witness == cold.witness
            over_t = flow.bipartite_max_flow(rows, cols, adm_lo, den=total)
            plan = flow.bipartite_max_flow(rows, cols, adm_hi, over_t,
                                           den=total).plan
            for j, flows in enumerate(warm.network.into):
                for i, v in flows.items():
                    assert plan[i, j] == v / total

    def test_ascending_sweep_runs_fewer_phases(self, monkeypatch):
        # THETA_INSTANCES[2] at n = 12 over the benchmark's nine thresholds:
        # the warm sweep runs fewer Dinic phases than nine cold calls, and
        # a threshold below the last one starts from zero flow
        from test_acceptance import THETA_INSTANCES
        px, py, c = THETA_INSTANCES[2]
        n, carr = 12, c.as_array()
        base = ot_value(px.as_array(), py.as_array(), carr)
        scale = (carr.max() - carr.min()) / math.sqrt(n)
        alphas = [float(base + t * scale)
                  for t in (-1.2, -0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9, 1.2)]
        phases, starts = [], []
        levels = flow.BipartiteNetwork._levels
        solve = flow.bipartite_max_flow

        def counting(net):
            phases.append(1)
            return levels(net)

        def recording(*args, **kwargs):
            starts.append(args[3] if len(args) > 3 else kwargs.get("start"))
            return solve(*args, **kwargs)
        monkeypatch.setattr(flow.BipartiteNetwork, "_levels", counting)
        monkeypatch.setattr(flow, "bipartite_max_flow", recording)
        cold = []
        for alpha in alphas:
            _clear_last_flows()
            cold.append(gn_tails(px, py, c, alpha, n))
        cold_phases = len(phases)
        assert starts == [None] * 9
        phases.clear()
        starts.clear()
        _clear_last_flows()
        assert [gn_tails(px, py, c, alpha, n) for alpha in alphas] == cold
        assert len(phases) < cold_phases
        assert starts[0] is None and all(s is not None for s in starts[1:])
        gn_tails(px, py, c, alphas[3], n)
        assert starts[-1] is None
        gn_tails(px, py, c, alphas[3], n)
        assert starts[-1] is not None

    def test_start_off_the_cells_raises(self):
        px, py, c, n, alphas = next(_warm_instances())
        lo, hi = min(alphas), max(alphas)
        rows, cols, total, adm_lo = _outer_network(px, py, c, lo, n)
        adm_hi = _outer_network(px, py, c, hi, n)[3]
        assert (adm_hi & ~adm_lo).any()
        start = flow.bipartite_max_flow(rows, cols, adm_hi)
        with pytest.raises(ValueError):
            flow.bipartite_max_flow(rows, cols, adm_lo, start)
        with pytest.raises(ValueError):  # other masses
            flow.bipartite_max_flow([2 * v for v in rows],
                                    [2 * v for v in cols], adm_hi, start)


@pytest.mark.parametrize("px,py,c,alpha,n", [
    (B01.mass, B05.mass, [[0, 1], [1, 0]], 0.45, 40),
    ((0.3, 0.7), (0.6, 0.4), [[0, 1], [1, 0]], 0.3, 120),
    ((0.4, 0.6), (0.2, 0.3, 0.5), [[0.0, 0.6, 1.0], [0.8, 0.2, 0.5]], 0.39, 8),
    ((0.2, 0.3, 0.5), (0.5, 0.1, 0.4), [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
     0.5, 6),
    ([0.5, 0.5, 2.0 ** -263], DEEP_TAIL_PY, DEEP_TAIL_COST, 0.66625, 4)],
    ids=["binary-40", "binary-120", "2x3", "3x3", "subnormal-tail"])
def test_outer_plan_is_the_fraction_plan(px, py, c, alpha, n):
    # the plan on the lattices' ints over T against the plan on each mass
    # reduced to a Fraction and lifted to the lcm of their denominators:
    # Dinic routes the uniformly scaled ints the same flow, so each cell is
    # the same rational, rounded once
    px, py = Dist.from_mass(list(px)), Dist.from_mass(list(py))
    inst = lattice.nested_instance(px, py, CostMatrix.from_rows(c), n)
    mu, nu = ([Fraction(v, tm.total) for v in tm.masses]
              for tm in (inst.mu, inst.nu))
    adm = inst.inner_cost <= alpha + ADMISS_EPS
    want = flow.bipartite_max_flow(mu, nu, adm).plan
    got = lattice.optimal_outer_plan(inst, alpha).as_array()
    assert got.tobytes() == want.tobytes()
