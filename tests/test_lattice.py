import itertools
import math
import random
from collections import Counter
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.special import gammaln, logsumexp

from strassen_lab import flow, lattice
from strassen_lab.curves import RateCurve
from strassen_lab.errors import SizeGuardError, ValidationError
from strassen_lab.lattice import (
    TypeMeasure,
    TypeVector,
    _banded_view,
    _counts_matrix,
    _inner_cost_table,
    _chain_masks,
    _chain_members,
    _dp_chains,
    _gain,
    _lattice_ecp_banded,
    _lattice_ecp_dense,
    _log_factorials,
    _loss,
    _lse,
    _signed_argmax,
    _witness_values,
    direct_gn_oracle,
    enum_types,
    exact_gn,
    exponent_series,
    gn_tails,
    lift_coupling,
    nested_instance,
    optimal_outer_plan,
    splitting_coupling,
    type_log_prob,
)
from strassen_lab.measures import Dist
from strassen_lab.transport import ADMISS_EPS, CostMatrix, ecp

from conftest import random_cost, random_dist

HAMMING = CostMatrix.hamming(2)
B01, B05 = Dist.bernoulli(0.1), Dist.bernoulli(0.5)


class TestTypes:
    def test_enum_count_is_stars_and_bars(self):
        for n, k in ((3, 2), (4, 3), (5, 4)):
            assert len(enum_types(n, k)) == math.comb(n + k - 1, k - 1)

    def test_enum_is_lexicographic(self):
        lat = enum_types(2, 3)
        counts = [t.counts for t in lat]
        assert counts == sorted(counts)

    def test_type_vector_induced(self):
        t = TypeVector((1, 3), 4)
        assert t.fractions() == (0.25, 0.75)
        assert t.induced().mass == (0.25, 0.75)

    def test_type_log_prob_multinomial(self):
        # P(type (1,2) under Bern(1/3)) = 3 * (1/3) * (2/3)^2
        t = TypeVector((1, 2), 3)
        want = math.log(3 * (1 / 3) * (2 / 3) ** 2)
        assert type_log_prob(t, Dist.bernoulli(1 / 3)) == pytest.approx(
            want, rel=1e-12)

    def test_type_log_prob_off_support(self):
        t = TypeVector((1, 2), 3)
        assert type_log_prob(t, Dist.from_mass([1.0, 0.0])) == -math.inf

    def test_type_measure_sums_to_one(self, rng):
        for _ in range(5):
            p = random_dist(rng, int(rng.integers(2, 4)), positive=True)
            tm = TypeMeasure.of(p, 6)
            assert tm.mass().sum() == pytest.approx(1.0, abs=1e-12)

    def test_type_measure_prob_subset(self):
        tm = TypeMeasure.of(B05, 3)
        # P(at most one head in 3 tosses) = 4/8 under Bern(0.5)
        assert tm.prob([0, 1]) == pytest.approx(0.5, abs=1e-12)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestScipyFreeKernels:
    """The numpy log-sum-exp and the lgam port against the scipy originals."""

    def test_log_factorials_match_gammaln_bit_for_bit(self):
        k = np.arange(200_001)
        assert _bits(_log_factorials(200_000)) == _bits(gammaln(k + 1))

    def test_lse_matches_logsumexp_bit_for_bit(self):
        rng = np.random.default_rng(20)
        cases = [np.full(5, -np.inf), np.array([-3.25]), np.array([700.0]),
                 np.array([-np.inf, 2.0, -np.inf])]
        for _ in range(3000):
            size = int(rng.integers(1, 80))
            spread = float(rng.choice([1.0, 30.0, 700.0]))
            a = rng.uniform(-spread, spread, size)
            if rng.random() < 0.5:
                a[rng.integers(0, size, int(rng.integers(1, size + 1)))] = a.max()
            if rng.random() < 0.5:
                a[rng.integers(0, size, int(rng.integers(1, size + 1)))] = -np.inf
            cases.append(a)
        for a in cases:
            assert _bits(_lse(a)) == _bits(logsumexp(a)), a

    def test_lse_of_nothing_is_minus_inf(self):
        assert _lse(np.empty(0)) == -math.inf


class TestNestedInstance:
    def test_inner_cost_is_scaled_transport(self):
        inst = nested_instance(Dist.bernoulli(0.3), Dist.bernoulli(0.6),
                               HAMMING, 4)
        # inner cost between types (k0, n-k0) is |k0/n - l0/n| for Hamming
        for i, tx in enumerate(inst.mu.lattice):
            for j, ty in enumerate(inst.nu.lattice):
                want = abs(tx.counts[0] - ty.counts[0]) / 4.0
                assert inst.inner_cost[i, j] == pytest.approx(want, abs=1e-12)

    def test_n1_reduces_to_single_pair_ecp(self):
        for alpha in (0.0, 0.4, 0.9):
            got = exact_gn(B01, B05, HAMMING, alpha, 1)
            want = ecp(B01, B05, HAMMING, alpha).value
            assert got == pytest.approx(want, abs=1e-12)


def _ssp_inner_cost_table(c: CostMatrix, n: int) -> np.ndarray:
    """The inner cost table as it was built before the dual-vertex kernel:
    one SSP min-cost flow per pair of types, then clipped at 0."""
    kx, ky = c.shape
    fx = _counts_matrix(n, kx) / n
    fy = _counts_matrix(n, ky) / n
    carr = c.as_array()
    table = np.empty((len(fx), len(fy)))
    for i in range(len(fx)):
        for j in range(len(fy)):
            _, _, _, table[i, j] = flow.transport_min_cost(fx[i], fy[j], carr)
    return np.maximum(table, 0.0)


class TestInnerCostTable:
    """The dual-vertex table against the per-pair SSP loop it replaced."""

    # the two dense benchmark templates at their sizes, a 2x2 Hamming
    # table, whose entries |k - l|/n all sit on admissibility ties, and a
    # 5x5 Hamming table, past the vertex kernel, solved pair by pair
    CASES = (
        ((0.4, 0.6), (0.2, 0.3, 0.5), ((0.0, 0.6, 1.0), (0.8, 0.2, 0.5)), 24),
        ((0.5, 0.3, 0.2), (0.3, 0.4, 0.3),
         ((0.0, 0.7, 1.3), (0.9, 0.1, 0.6), (1.4, 0.8, 0.2)), 12),
        ((0.1, 0.9), (0.5, 0.5), ((0.0, 1.0), (1.0, 0.0)), 50),
        ((0.2,) * 5, (0.1, 0.1, 0.2, 0.3, 0.3),
         CostMatrix.hamming(5).values, 3),
    )

    @pytest.mark.parametrize("mx,my,rows,n", CASES)
    def test_same_admissible_masks_as_ssp(self, mx, my, rows, n):
        c = CostMatrix.from_rows(rows)
        got = _inner_cost_table(c, n)
        want = _ssp_inner_cost_table(c, n)
        assert np.abs(got - want).max() <= 1e-14
        carr = c.as_array()
        _, _, _, base = flow.transport_min_cost(np.array(mx), np.array(my),
                                                carr)
        scale = (carr.max() - carr.min()) / math.sqrt(n)
        sweep = [base + t * scale for t in np.linspace(-1.2, 1.2, 8)]
        for alpha in [base, *sweep, *np.unique(want)]:
            assert np.array_equal(got <= alpha + ADMISS_EPS,
                                  want <= alpha + ADMISS_EPS)


class TestExactGn:
    def test_frozen_small_values(self):
        px, py = Dist.bernoulli(0.3), Dist.bernoulli(0.6)
        assert exact_gn(px, py, HAMMING, 0.0, 3) == pytest.approx(
            0.432, abs=1e-12)
        assert exact_gn(px, py, HAMMING, 0.4, 2) == pytest.approx(
            0.33, abs=1e-12)

    def test_matches_oracle_binary(self, rng):
        for _ in range(10):
            px = random_dist(rng, 2)
            py = random_dist(rng, 2)
            c = random_cost(rng, 2, 2)
            n = int(rng.integers(1, 5))
            alpha = float(rng.random() * c.max())
            got = exact_gn(px, py, c, alpha, n)
            want = direct_gn_oracle(px, py, c, alpha, n)
            assert got == pytest.approx(want, abs=1e-9)

    def test_matches_oracle_mixed_alphabets(self, rng):
        for _ in range(8):
            px = random_dist(rng, int(rng.integers(2, 4)))
            py = random_dist(rng, int(rng.integers(2, 4)))
            c = random_cost(rng, len(px), len(py))
            alpha = float(rng.random() * c.max())
            got = exact_gn(px, py, c, alpha, 3)
            want = direct_gn_oracle(px, py, c, alpha, 3)
            assert got == pytest.approx(want, abs=1e-9)

    def test_tails_sum_to_one(self, rng):
        for _ in range(6):
            px = random_dist(rng, 2, positive=True)
            py = random_dist(rng, 2, positive=True)
            alpha = float(rng.random())
            g, comp = gn_tails(px, py, HAMMING, alpha, 40)
            assert g + comp == pytest.approx(1.0, abs=1e-9)

    def test_nothing_admissible(self):
        c = CostMatrix.from_rows([[0.5, 1.0], [1.0, 0.5]])
        assert gn_tails(B01, B05, c, 0.1, 5) == (1.0, 0.0)

    def test_everything_admissible(self):
        g, comp = gn_tails(B01, B05, HAMMING, 1.0, 7)
        assert g == 0.0
        assert comp == 1.0

    def test_deep_tail_values_stay_exact(self):
        # the n=800 regression anchors: bulk-side witnesses must be summed
        # on the complement scale or these drown in float noise
        _, comp = gn_tails(B01, B05, HAMMING, 0.2, 800)
        assert comp == pytest.approx(7.754421e-12, rel=1e-5, abs=0.0)
        g, _ = gn_tails(B01, B05, HAMMING, 0.45, 800)
        assert g == pytest.approx(2.991638e-20, rel=1e-5, abs=0.0)
        # n=1600, inside the 400-digit flow/witness bracket of
        # perfbench/reference.binary_bracket at rtol 1e-9
        _, comp = gn_tails(B01, B05, HAMMING, 0.2, 1600)
        assert comp == pytest.approx(3.726549e-22, rel=1e-5, abs=0.0)
        g, _ = gn_tails(B01, B05, HAMMING, 0.45, 1600)
        assert g == pytest.approx(1.057712e-37, rel=1e-5, abs=0.0)
        # only the loss chain reaches this complement; the best gain
        # chain's own complement sum is 1.3e3 times larger
        _, comp = gn_tails(B01, B05, HAMMING, 0.01, 400)
        assert comp == pytest.approx(2.195307e-20, rel=1e-5, abs=0.0)

    @given(st.integers(1, 30), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_alpha_monotone(self, n, a1, a2):
        lo, hi = min(a1, a2), max(a1, a2)
        g_lo = exact_gn(B01, B05, HAMMING, lo, n)
        g_hi = exact_gn(B01, B05, HAMMING, hi, n)
        assert g_lo >= g_hi - 1e-12


def random_banded(gen, m, k, shift=0.0):
    """Log-masses and an admissible table whose rows are intervals with
    nondecreasing ends, every mass multiplied by exp(shift)."""
    lo = np.sort(gen.integers(0, k, m))
    hi = np.maximum(np.sort(gen.integers(0, k, m)), lo)
    cols = np.arange(k)
    adm = (cols >= lo[:, None]) & (cols <= hi[:, None])
    return (np.log(gen.dirichlet(np.ones(m))) + shift,
            np.log(gen.dirichlet(np.ones(k))) + shift, adm)


def banded_dense_instances(rng):
    """Random lattices of up to 3 letters, which are seldom banded, then
    random banded tables."""
    for _ in range(12):
        px = random_dist(rng, int(rng.integers(2, 4)), positive=True)
        py = random_dist(rng, int(rng.integers(2, 4)), positive=True)
        c = random_cost(rng, len(px), len(py))
        n = int(rng.integers(2, 7))
        inst = nested_instance(px, py, c, n)
        alpha = float(rng.random() * inst.inner_cost.max())
        adm = inst.inner_cost <= alpha + 1e-12
        if adm.any():
            yield inst.mu.logmass, inst.nu.logmass, adm
    for _ in range(12):
        yield random_banded(rng, int(rng.integers(2, 10)),
                            int(rng.integers(2, 10)))


class TestBandedAgainstDense:
    def test_both_routes_agree(self, rng):
        compared = 0
        for logmu, lognu, adm in banded_dense_instances(rng):
            banded = _lattice_ecp_banded(logmu, lognu, adm)
            if banded is None:
                continue
            dense = _lattice_ecp_dense(logmu, lognu, adm)
            assert banded[0] == pytest.approx(dense[0], abs=1e-9)
            assert banded[1] == pytest.approx(dense[1], abs=1e-9)
            compared += 1
        assert compared >= 12


# The two chain DPs that _dp_chains replaced, kept verbatim as the
# reference of the differential test below.

def _signed_sortkey(lpos: np.ndarray, lneg: np.ndarray) -> np.ndarray:
    """Total order on values exp(lpos) - exp(lneg) without leaving log space.

    Positive values map to their log magnitude (in [-inf, 0]), zeros to
    -1000, negatives to -2000 - log magnitude, so the usual argmax ranks by
    true signed value while every comparison retains relative precision.
    Plain subtraction would wipe out differences parked 200 orders of
    magnitude below the bulk masses.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        top = np.maximum(lpos, lneg)
        logabs = top + np.log1p(-np.exp(-np.abs(lpos - lneg)))
    logabs = np.where(np.isnan(logabs), -np.inf, logabs)
    return np.where(logabs == -np.inf, -1000.0,
                    np.where(lpos > lneg, logabs, -2000.0 - logabs))


def _maxdp_chains(logmu_a: np.ndarray, lognu: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> np.ndarray:
    """Parent pointers of best witness chains for mu(E) - nu(Gamma(E)).

    Chains are indexed by their last included row; a transition either
    merges with a previous chain (lo_i <= hi_j + 1, paying only the new
    nu-span hi_j+1..hi_i) or starts a disjoint interval.  Both sides of the
    score are accumulated as log-sums, so selection stays sharp even when
    the optimum is a difference of two tail masses near 1e-300.
    """
    m = len(logmu_a)
    llog = np.empty(m)
    glog = np.empty(m)
    parent = np.full(m, -1, dtype=np.int64)
    for i in range(m):
        hi_i, lo_i = int(hi[i]), int(lo[i])
        revacc = np.logaddexp.accumulate(lognu[hi_i::-1])
        span_full = revacc[hi_i - lo_i]
        fresh_l, fresh_g = logmu_a[i], span_full
        if i:
            idx = hi_i - hi[:i] - 1
            incr = np.where(hi[:i] >= lo_i - 1,
                            np.where(idx >= 0, revacc[np.maximum(idx, 0)],
                                     -np.inf),
                            span_full)
            lpos = np.logaddexp(llog[:i], logmu_a[i])
            lneg = np.logaddexp(glog[:i], incr)
            keys = _signed_sortkey(lpos, lneg)
            j = int(np.argmax(keys))
            if keys[j] > _signed_sortkey(np.array([fresh_l]),
                                         np.array([fresh_g]))[0]:
                parent[i] = j
                llog[i], glog[i] = lpos[j], lneg[j]
                continue
        llog[i], glog[i] = fresh_l, fresh_g
    return parent


def _mindp_chains(logmu_a: np.ndarray, lognu: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> np.ndarray:
    """Parent pointers of best chains for nu(Gamma(E)) + mu(rows left out).

    The score is a sum of nonnegative masses, so it accumulates as plain
    log-sums; the trailing skipped rows past the last included one are a
    common additive term per endpoint and are settled by the caller's exact
    re-evaluation.
    """
    m = len(logmu_a)
    glog = np.empty(m)
    slog = np.empty(m)
    parent = np.full(m, -1, dtype=np.int64)
    prefmu = np.concatenate(
        [[-np.inf], np.logaddexp.accumulate(logmu_a)])
    for i in range(m):
        hi_i, lo_i = int(hi[i]), int(lo[i])
        revacc = np.logaddexp.accumulate(lognu[hi_i::-1])
        span_full = revacc[hi_i - lo_i]
        fresh_g, fresh_s = span_full, prefmu[i]
        if i:
            idx = hi_i - hi[:i] - 1
            incr = np.where(hi[:i] >= lo_i - 1,
                            np.where(idx >= 0, revacc[np.maximum(idx, 0)],
                                     -np.inf),
                            span_full)
            revmu = np.logaddexp.accumulate(logmu_a[i - 1::-1])
            skip_idx = i - 2 - np.arange(i)
            skip = np.where(skip_idx >= 0, revmu[np.maximum(skip_idx, 0)],
                            -np.inf)
            gcand = np.logaddexp(glog[:i], incr)
            scand = np.logaddexp(slog[:i], skip)
            keys = np.logaddexp(gcand, scand)
            j = int(np.argmin(keys))
            if keys[j] < np.logaddexp(fresh_g, fresh_s):
                parent[i] = j
                glog[i], slog[i] = gcand[j], scand[j]
                continue
        glog[i], slog[i] = fresh_g, fresh_s
    return parent


def _reference_dp_chains(logmu, lognu, view, score):
    act, lo, hi, _ = view
    dp = _maxdp_chains if score is _gain else _mindp_chains
    return dp(logmu[act], lognu, lo, hi)


def _dp_parents(logmu, lognu, view, score):
    return _dp_chains(logmu, lognu, view, score)[0]


# The full evaluation of every DP chain that the readout of the DP's end
# state replaced, kept verbatim (with the DP as an argument) as the
# reference of the tests below.

def _side_candidates(logmu, lognu, adm, dp_chains):
    """(direct, complement-sum) of every DP chain of one orientation, or None."""
    view = _banded_view(adm)
    if view is None:
        return None
    chains = [[]]  # the empty-active-chain witness: only always-free rows
    for score in (_gain, _loss):
        parent = dp_chains(logmu, lognu, view, score)
        chains.extend(_chain_members(parent, i) for i in range(len(parent)))
    return [_witness_values(logmu, lognu,
                            *_chain_masks(chain, view, len(logmu), len(lognu)))
            for chain in chains]


def _every_chain_ecp_banded(logmu, lognu, adm, dp_chains):
    a = _side_candidates(logmu, lognu, adm, dp_chains)
    b = _side_candidates(lognu, logmu, adm.T, dp_chains)
    if a is None or b is None:
        return None
    g = max(0.0, max(direct for direct, _ in a + b))
    comp = min(1.0, min(comp_sum for _, comp_sum in a + b))
    return min(g, 1.0), max(comp, 0.0)


class TestChainDp:
    def binary_tail_instances(self):
        cases = [(n, alpha) for n in (50, 100, 200) for alpha in (0.2, 0.45)]
        cases += [(100, 0.4 + d / 10) for d in (-1.5, -0.5, 0.0, 0.5, 1.5)]
        for n, alpha in cases:
            inst = nested_instance(B01, B05, HAMMING, n)
            yield (inst.mu.logmass, inst.nu.logmass,
                   inst.inner_cost <= alpha + 1e-12)

    def instances(self, rng):
        return (list(self.binary_tail_instances())
                + list(banded_dense_instances(rng)))

    def test_same_results_as_the_two_replaced_dps(self, rng):
        # the chains of _dp_chains, every one evaluated, give exactly the
        # values of the chains of the two DPs it replaced
        compared = 0
        for inst in self.instances(rng):
            logmu, lognu, _ = inst
            # the replaced DPs mis-rank scores below exp(-1000)
            assert min(logmu.min(), lognu.min()) > -1000.0
            got = _every_chain_ecp_banded(*inst, _dp_parents)
            assert got == _every_chain_ecp_banded(*inst, _reference_dp_chains)
            compared += got is not None
        assert compared >= 23

    def test_end_state_readout_matches_every_chain_evaluated(self, rng):
        # the winners read off the end state are chains of the same DP, so
        # they can only lie inside the best of all chains, by rounding
        compared = 0
        for inst in self.instances(rng):
            ref = _every_chain_ecp_banded(*inst, _dp_parents)
            got = _lattice_ecp_banded(*inst)
            assert (got is None) == (ref is None)
            if got is None:
                continue
            assert got[0] <= ref[0]
            assert got[1] >= ref[1]
            assert got[0] == pytest.approx(ref[0], rel=1e-12, abs=0.0)
            assert got[1] == pytest.approx(ref[1], rel=1e-12, abs=0.0)
            compared += 1
        assert compared >= 23

    def test_only_the_winning_chains_are_evaluated(self, monkeypatch):
        # two winners per orientation: the G chain and the 1 - G chain
        calls = Counter()

        def counted(name):
            real = getattr(lattice, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(lattice, name, wrapper)

        counted("_chain_members")
        counted("_witness_values")
        gn_tails(B01, B05, HAMMING, 0.2, 200)
        assert calls == {"_chain_members": 4, "_witness_values": 4}

    @pytest.mark.parametrize("shift", [0.0, -1500.0])
    def test_gain_chain_reaches_subset_maximum(self, shift):
        # the best chain of each score must match brute force over all 2^9
        # subsets E, summed in decimal, also where every mass is below
        # exp(-1000), and the end state must hold that optimal value: the
        # maximal gain mu(E) - nu(Gamma(E)) and the minimal loss
        # nu(Gamma(E)) + mu(E^c)
        gen = np.random.default_rng(7)
        m = k = 9
        subsets = [[i for i in range(m) if mask >> i & 1]
                   for mask in range(1 << m)]
        with localcontext() as ctx:
            ctx.prec = 60
            for _ in range(20):
                logmu, lognu, adm = random_banded(gen, m, k, shift)
                mu = [Decimal(v).exp() for v in logmu]
                nu = [Decimal(v).exp() for v in lognu]

                def gain(rows):
                    cols = adm[list(rows)].any(axis=0) if rows else []
                    return (sum((mu[i] for i in rows), Decimal(0))
                            - sum((nu[j] for j in np.flatnonzero(cols)),
                                  Decimal(0)))

                def minus_loss(rows):
                    return gain(rows) - sum(mu, Decimal(0))

                view = _banded_view(adm)
                assert max(gain(rows) for rows in subsets) > 0
                for score, objective in ((_gain, gain), (_loss, minus_loss)):
                    brute = max(objective(rows) for rows in subsets)
                    tol = abs(brute) * Decimal("1e-9")
                    parent, state = _dp_chains(logmu, lognu, view, score)
                    best = max(
                        objective(list(view[0][_chain_members(parent, i)]))
                        for i in range(-1, m))
                    assert best >= brute - tol
                    with np.errstate(invalid="ignore", divide="ignore",
                                     over="ignore"):
                        lpos, lneg = np.broadcast_arrays(*score(*state))
                        read = _signed_argmax(lpos, lneg)
                    end_value = (Decimal(float(lpos[read])).exp()
                                 - Decimal(float(lneg[read])).exp())
                    assert abs(end_value - brute) <= tol


# ---------------------------------------------------------------------------
# The HiGHS LP ladder that built the inner joint types before the
# lexicographic max-flow, kept as its oracle: one LP for the optimum, then
# one per cell in row-major order, each minimizing that cell with the cells
# before it fixed.


def lp_ladder_joint_type(tx: tuple, ty: tuple, c: CostMatrix) -> tuple:
    m, k = len(tx), len(ty)
    carr = c.as_array().reshape(-1)
    a_eq = np.zeros((m + k, m * k))
    for i in range(m):
        a_eq[i, i * k:(i + 1) * k] = 1.0
    for j in range(k):
        a_eq[m + j, j::k] = 1.0
    b_eq = np.concatenate([np.array(tx, float), np.array(ty, float)])
    res = linprog(carr, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise ValidationError("inner type coupling LP failed")
    vstar = res.fun
    fixed: list[tuple[int, float]] = []
    values = []
    for cell in range(m * k):
        obj = np.zeros(m * k)
        obj[cell] = 1.0
        a_extra = np.zeros((len(fixed), m * k))
        for r, (cj, _) in enumerate(fixed):
            a_extra[r, cj] = 1.0
        a = np.vstack([a_eq, a_extra]) if fixed else a_eq
        b = np.concatenate([b_eq, np.array([v for _, v in fixed])]) if fixed else b_eq
        res = linprog(obj, A_ub=carr.reshape(1, -1), b_ub=[vstar + 1e-7],
                      A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        if res.status != 0:
            raise ValidationError("lexicographic tie-break LP failed")
        val = round(res.fun)
        fixed.append((cell, float(val)))
        values.append(int(val))
    return tuple(tuple(values[i * k + j] for j in range(k)) for i in range(m))


def enumerated_joint_type(tx: tuple, ty: tuple, c: CostMatrix) -> tuple:
    """The row-major least of the cheapest integer couplings, by enumeration."""
    carr = c.as_array()

    def couplings(i, rest):
        if i == len(tx):
            if not any(rest):
                yield ()
            return
        for row in itertools.product(*(range(v + 1) for v in rest)):
            if sum(row) == tx[i]:
                left = tuple(r - v for r, v in zip(rest, row))
                for tail in couplings(i + 1, left):
                    yield (row,) + tail

    every = [(float((np.array(mat) * carr).sum()), mat)
             for mat in couplings(0, tuple(ty))]
    best = min(cost for cost, _ in every)
    return min(mat for cost, mat in every if cost <= best + 1e-9)


class TestJointTypes:
    def test_match_lp_ladder(self):
        # half the draws have costs in {0, 1, 2}, so many optima are tied;
        # where HiGHS calls a ladder step infeasible, as on the pair below,
        # the enumeration stands in for the ladder
        rng = random.Random(2026)
        laddered = 0
        for trial in range(500):
            m, k, n = rng.randint(2, 4), rng.randint(2, 4), rng.randint(1, 8)
            tx = rng.choice(enum_types(n, m)).counts
            ty = rng.choice(enum_types(n, k)).counts
            if trial % 2:
                rows = [[float(rng.randint(0, 2)) for _ in range(k)]
                        for _ in range(m)]
            else:
                rows = [[round(rng.random() * 4, 3) for _ in range(k)]
                        for _ in range(m)]
            c = CostMatrix.from_rows(rows)
            got = lattice._optimal_joint_type(tx, ty, c)
            try:
                want = lp_ladder_joint_type(tx, ty, c)
                laddered += 1
            except ValidationError:
                want = enumerated_joint_type(tx, ty, c)
            assert got == want, (tx, ty, rows)
            if laddered == 400:
                break
        assert laddered == 400

    def test_pair_the_ladder_could_not_solve(self):
        # HiGHS reported the ladder's second step infeasible on this pair,
        # and `sample` on its instance exited with an error
        c = CostMatrix.from_rows([[1, 1], [0, 1], [0, 0], [2, 2]])
        tx, ty = (1, 1, 1, 0), (1, 2)
        with pytest.raises(ValidationError):
            lp_ladder_joint_type(tx, ty, c)
        want = ((0, 1), (1, 0), (0, 1), (0, 0))
        assert enumerated_joint_type(tx, ty, c) == want
        assert lattice._optimal_joint_type(tx, ty, c) == want


class TestCouplings:
    def test_outer_plan_marginals(self):
        inst = nested_instance(Dist.bernoulli(0.3), Dist.bernoulli(0.6),
                               HAMMING, 5)
        plan = optimal_outer_plan(inst, 0.2)
        assert np.allclose(plan.marginal_x(), inst.mu.mass(), atol=1e-9)
        assert np.allclose(plan.marginal_y(), inst.nu.mass(), atol=1e-9)

    def test_lifted_law_realizes_gn(self):
        px, py = Dist.bernoulli(0.3), Dist.bernoulli(0.6)
        for n, alpha in ((3, 0.0), (2, 0.4)):
            inst = nested_instance(px, py, HAMMING, n)
            sampler = lift_coupling(optimal_outer_plan(inst, alpha), inst)
            law = sampler.law()
            assert sum(law.values()) == pytest.approx(1.0, abs=1e-9)
            carr = HAMMING.as_array()
            event = sum(
                prob for (xs, ys), prob in law.items()
                if sum(carr[a, b] for a, b in zip(xs, ys)) / n > alpha + 1e-12
            )
            assert event == pytest.approx(
                exact_gn(px, py, HAMMING, alpha, n), abs=1e-9)

    def test_lifted_law_has_product_marginals(self):
        px, py = Dist.bernoulli(0.3), Dist.bernoulli(0.6)
        n = 3
        inst = nested_instance(px, py, HAMMING, n)
        sampler = lift_coupling(optimal_outer_plan(inst, 0.0), inst)
        law = sampler.law()
        x_marg = Counter()
        for (xs, _), prob in law.items():
            x_marg[xs] += prob
        for xs, prob in x_marg.items():
            want = math.prod(px.mass[s] for s in xs)
            assert prob == pytest.approx(want, abs=1e-9)

    def test_sampler_is_seed_deterministic(self):
        px, py = Dist.bernoulli(0.3), Dist.bernoulli(0.6)
        inst = nested_instance(px, py, HAMMING, 6)
        sampler = lift_coupling(optimal_outer_plan(inst, 0.2), inst)
        a = [sampler.sample(random.Random(5)) for _ in range(4)]
        b = [sampler.sample(random.Random(5)) for _ in range(4)]
        assert a == b

    def test_splitting_rectangle_mass(self):
        mu = TypeMeasure.of(Dist.bernoulli(0.3), 4)
        nu = TypeMeasure.of(Dist.bernoulli(0.6), 4)
        a_set, b_set = [0, 1, 2], [2, 3, 4]
        pa, pb = mu.prob(a_set), nu.prob(b_set)
        pi = splitting_coupling(mu, nu, a_set, b_set)
        mat = pi.as_array()
        assert np.allclose(pi.marginal_x(), mu.mass(), atol=1e-12)
        assert np.allclose(pi.marginal_y(), nu.mass(), atol=1e-12)
        rect = float(mat[np.ix_(a_set, b_set)].sum())
        assert rect == pytest.approx(min(pa, pb), abs=1e-12)

    def test_splitting_empty_target_is_product(self):
        mu = TypeMeasure.of(Dist.from_mass([1.0, 0.0]), 3)
        nu = TypeMeasure.of(Dist.bernoulli(0.5), 3)
        # A has zero mass under a point-mass law
        pi = splitting_coupling(mu, nu, [0], [0, 1, 2, 3])
        want = np.outer(mu.mass(), nu.mass())
        assert np.allclose(pi.as_array(), want, atol=1e-12)


class TestExponentSeries:
    def test_lower_tail_prefix(self):
        curve = exponent_series(B01, B05, HAMMING, lambda n: 0.2,
                                [50, 100, 200], "lower-tail")
        assert curve.values[0] == pytest.approx(0.0495392072303, abs=1e-9)
        assert curve.values[1] == pytest.approx(0.0419504116957, abs=1e-9)
        assert curve.values[2] == pytest.approx(0.0370241890919, abs=1e-9)
        assert curve.meta["kind"] == "exponent-series:lower-tail"

    def test_rejects_bad_mode(self):
        with pytest.raises(ValidationError):
            exponent_series(B01, B05, HAMMING, lambda n: 0.2, [10], "sideways")

    def test_rejects_unsorted_ns(self):
        with pytest.raises(ValidationError):
            exponent_series(B01, B05, HAMMING, lambda n: 0.2, [20, 10],
                            "lower-tail")

    def test_infinite_exponent_on_zero_tail(self):
        c = CostMatrix.from_rows([[0.5, 1.0], [1.0, 0.5]])
        curve = exponent_series(B01, B05, c, lambda n: 0.1, [3], "lower-tail")
        assert curve.values == (math.inf,)


class TestRateCurve:
    def test_rejects_unsorted_params(self):
        with pytest.raises(ValidationError):
            RateCurve(params=(2.0, 1.0), values=(0.1, 0.2), meta={})

    def test_allows_infinite_values(self):
        c = RateCurve(params=(1.0, 2.0), values=(math.inf, 0.5), meta={})
        assert c.values[0] == math.inf


class TestGuards:
    def test_direct_oracle_guard(self):
        with pytest.raises(SizeGuardError):
            direct_gn_oracle(B01, B05, HAMMING, 0.2, 12)
