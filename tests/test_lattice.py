import itertools
import math
import random
import sys
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from strassen_lab import flow, lattice, transport
from strassen_lab.curves import RateCurve
from strassen_lab.errors import SizeGuardError, ValidationError
from strassen_lab.lattice import (
    ENUM_GUARD,
    TypeMeasure,
    TypeVector,
    _counts_matrix,
    _inner_cost_table,
    _line_view,
    _type_masses,
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
from strassen_lab.measures import Dist, JointDist
from strassen_lab.transport import ADMISS_EPS, CostMatrix, ecp, ot_value

import chain_dp
from chain_dp import (_bounds, _chain_masks, _chain_members, _dp_chains,
                      _IntervalView, _lattice_ecp_dense, _lse, _scores,
                      _side_candidates, _signed_argmax, _witness_values,
                      chain_gn_tails, log_type_masses)
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

    @pytest.mark.parametrize("mass", [(0.9, 0.1), (0.5, 0.3, 0.2)])
    def test_type_log_prob_is_the_lattice_mass(self, mass):
        # the same exact int over the same total, rounded the same way, as
        # the masses of the type lattice
        p = Dist.from_mass(list(mass))
        for n in ((5, 30, 200, 1600) if len(mass) == 2 else (5, 30, 200)):
            tm = TypeMeasure.of(p, n)
            got = [type_log_prob(t, p) for t in tm.lattice]
            assert _bits(got) == _bits(tm.logmass)

    def test_type_measure_sums_to_one(self, rng):
        for _ in range(5):
            p = random_dist(rng, int(rng.integers(2, 4)), positive=True)
            tm = TypeMeasure.of(p, 6)
            assert tm.mass().sum() == pytest.approx(1.0, abs=1e-12)

    def test_type_measure_prob_subset(self):
        tm = TypeMeasure.of(B05, 3)
        # P(at most one head in 3 tosses) = 4/8 under Bern(0.5)
        assert tm.prob([0, 1]) == pytest.approx(0.5, abs=1e-12)

    # both laws of the 3 x 3 THETA instance at n = 12 and 45, Bern(0.1) at
    # n = 1000 and (0.2, 0.3, 0.5) at n = 60; the float log-factorial
    # pipeline that TypeMeasure replaced was off by up to 9.6, 63, 4,275
    # and 79 ulps on them
    @pytest.mark.parametrize("laws,n", [
        (((0.5, 0.3, 0.2), (0.3, 0.4, 0.3)), 12),
        (((0.5, 0.3, 0.2), (0.3, 0.4, 0.3)), 45),
        (((0.1, 0.9),), 1000),
        (((0.2, 0.3, 0.5),), 60)], ids=["3x3-12", "3x3-45", "bern-1000",
                                        "three-60"])
    def test_masses_against_the_exact_law(self, laws, n):
        # log masses within 1 ulp of a 60-digit decimal oracle, and masses
        # and probabilities each the exact rational rounded once
        rng = np.random.default_rng(n)
        for mass in laws:
            p = Dist.from_mass(list(mass))
            tm = TypeMeasure.of(p, n)
            nums, total = _exact_type_masses(p, n)
            assert tm.mass().tolist() == [v / total for v in nums]
            for got, t, v in zip(tm.logmass, tm.lattice, nums):
                assert _ulps(got, v, total) <= 1
                assert type_log_prob(t, p) == got
            for _ in range(5):
                idx = np.flatnonzero(rng.random(len(tm)) < rng.random())
                want = Fraction(sum(nums[i] for i in idx), total)
                assert tm.prob(idx) == float(want)

    @pytest.mark.parametrize("eps", [1e-3, 1e-200])
    def test_log_mass_near_one_keeps_its_digits(self, eps):
        # masses of 0.999 or 1 - 1e-200 are read off their distance from 1,
        # so their logs keep every digit (400 of them see 1e-200); the
        # float pipeline was 3.9 ulps off at 0.998001 and read log 1 = 0
        # for 1 - 2e-200
        p = Dist.from_mass([eps, 1.0 - eps])
        nums, total = _exact_type_masses(p, 2)
        for got, v in zip(TypeMeasure.of(p, 2).logmass, nums):
            assert _ulps(got, v, total, digits=400) <= 1


def _exact_type_masses(p: Dist, n: int):
    """Each type's mass under p, in lattice order, as ints over one total:
    n! / prod t_i! * prod m_i^t_i over (sum m)^n, for p's floats' exact
    ratios m_i / sum(m) over their least common denominator."""
    ratios = [Fraction(v) for v in p.mass]
    den = math.lcm(*(v.denominator for v in ratios))
    m = [int(v * den) for v in ratios]
    nums = [math.factorial(n) // math.prod(map(math.factorial, t.counts))
            * math.prod(mi ** ti for mi, ti in zip(m, t.counts))
            for t in enum_types(n, len(p))]
    return nums, sum(m) ** n


def _ulps(got: float, num: int, den: int, digits: int = 60) -> Decimal:
    """|got - log(num / den)| in ulps of the float nearest the log, by a
    decimal oracle carried to this many digits.  Each int is cut to its
    leading 4 * digits bits first, and the powers of 2 cut added back."""
    cut = [max(0, v.bit_length() - 4 * digits) for v in (num, den)]
    with localcontext() as ctx:
        ctx.prec = digits
        want = ((Decimal(num >> cut[0]) / Decimal(den >> cut[1])).ln()
                + (cut[0] - cut[1]) * Decimal(2).ln())
        return abs(Decimal(got) - want) / Decimal(math.ulp(float(want)))


# The recursive enumeration that _counts_matrix replaced, kept verbatim
# (apart from the name of enum_types) as the oracle of the tests below.

@lru_cache(maxsize=64)
def _recursive_enum_types(n: int, k: int) -> tuple[TypeVector, ...]:
    """All compositions of n into k nonnegative parts, lexicographic."""
    if n < 1 or k < 1:
        raise ValidationError("need n >= 1 and k >= 1")
    count = math.comb(n + k - 1, k - 1)
    if count > ENUM_GUARD:
        raise SizeGuardError(
            f"type lattice has {count} points, beyond the {ENUM_GUARD} guard"
        )
    return tuple(TypeVector(c, n) for c in _compositions(n, k))


def _compositions(n: int, k: int):
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _oracle_counts(n: int, k: int) -> np.ndarray:
    return np.array([t.counts for t in _recursive_enum_types(n, k)],
                    dtype=np.int64)


def _raised(fn, *args):
    with pytest.raises((ValidationError, SizeGuardError)) as info:
        fn(*args)
    return type(info.value), str(info.value)


class TestEnumeration:
    """The stars-and-bars counts matrix against the recursive enumeration."""

    SIZES = [(n, k) for n in range(1, 31) for k in range(1, 6)]
    SIZES += [(300, 3), (80, 4)]

    def test_counts_matrix_is_the_recursive_enumeration(self):
        for n, k in self.SIZES:
            got, want = _counts_matrix(n, k), _oracle_counts(n, k)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert np.array_equal(got, want), (n, k)

    def test_enum_types_is_the_recursive_enumeration(self):
        for n, k in self.SIZES[::7]:
            got = enum_types(n, k)
            assert got == _recursive_enum_types(n, k), (n, k)
            assert all(type(v) is int for t in got for v in t.counts)

    @pytest.mark.parametrize("n,k", [(0, 2), (-3, 2), (4, 0), (0, 0),
                                     (5000, 3)])
    def test_bad_sizes_raise_as_before(self, n, k):
        want = _raised(_recursive_enum_types, n, k)
        assert _raised(_counts_matrix, n, k) == want
        assert _raised(enum_types, n, k) == want

    def test_solves_build_no_type_vectors(self, monkeypatch):
        # every solve route reads only the counts matrix; start cold, so
        # no cached lattice of an earlier call can hide a TypeVector
        def refuse(self):
            raise AssertionError("a solve built a TypeVector")
        for fn in vars(lattice).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        monkeypatch.setattr(TypeVector, "__post_init__", refuse)
        g, comp = gn_tails(B01, B05, HAMMING, 0.45, 1600)
        assert 0.0 < g < 1e-30 and g + comp == pytest.approx(1.0, abs=1e-9)
        px, py, c, alphas = template_two_by_three(0)
        ct = CostMatrix.from_rows(c.as_array().T.tolist())
        assert gn_tails(px, py, c, alphas[0], 24) == gn_tails(
            py, px, ct, alphas[0], 24)
        mx, my, rows, n = TestInnerCostTable.CASES[1]
        c = CostMatrix.from_rows(rows)
        px, py = Dist.from_mass(list(mx)), Dist.from_mass(list(my))
        alpha = ot_value(np.array(mx), np.array(my), c.as_array())
        g, comp = gn_tails(px, py, c, alpha, n)
        assert 0.0 < g < 1.0 and g + comp == pytest.approx(1.0, abs=1e-9)

    def test_type_vectors_on_demand_are_the_recursive_ones(self):
        for p, n in ((B01, 7), (Dist.from_mass([0.2, 0.3, 0.5]), 6),
                     (Dist.from_mass([0.1, 0.2, 0.3, 0.4]), 4)):
            tm = TypeMeasure.of(p, n)
            want = _recursive_enum_types(n, len(p))
            assert len(tm) == len(want)
            assert tm.lattice == want
            assert tm.as_dist().labels == tuple(t.counts for t in want)

    def test_lifted_trips_are_the_recursive_ones(self):
        px, py = Dist.from_mass([0.37, 0.63]), Dist.from_mass([0.17, 0.29,
                                                               0.54])
        c = CostMatrix.from_rows([[0.0, 0.6, 1.0], [0.8, 0.2, 0.5]])
        inst = nested_instance(px, py, c, 6)
        mat = optimal_outer_plan(inst, 0.37).as_array()
        lx, ly = _recursive_enum_types(6, 2), _recursive_enum_types(6, 3)
        want = [(float(mat[i, j]),
                 lattice._optimal_joint_type(lx[i].counts, ly[j].counts, c))
                for i, j in np.argwhere(mat > 0.0)]
        got = lift_coupling(JointDist.from_array(mat), inst)._trips
        assert got == want and len(got) > 1


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


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
    one min-cost flow per pair of types, then clipped at 0."""
    kx, ky = c.shape
    fx = _counts_matrix(n, kx) / n
    fy = _counts_matrix(n, ky) / n
    carr = c.as_array()
    table = np.empty((len(fx), len(fy)))
    for i in range(len(fx)):
        for j in range(len(fy)):
            table[i, j] = flow.transport_min_cost(fx[i], fy[j], carr)[3]
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
        base = flow.transport_min_cost(np.array(mx), np.array(my), carr)[3]
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
        # complements at small alpha, the ends of binary_bracket(...,
        # digits=300), which agree to every digit shown; ranked with the
        # mass of the rows after them, which every candidate of a step
        # shares, the loss chains stop near 1e-29
        for n, alpha, want in ((800, 0.01, 3.8709695276185255e-39),
                               (800, 0.05, 5.0031981499379766e-32),
                               (1200, 0.01, 8.119674237928434e-58),
                               (1600, 0.01, 1.8694415223582315e-76),
                               (1600, 0.05, 2.518975194699562e-62)):
            _, comp = gn_tails(B01, B05, HAMMING, alpha, n)
            assert comp == pytest.approx(want, rel=1e-9, abs=0.0)
        # G whose witness sets are tails, also ends of binary_bracket(...,
        # digits=300); summed directly, the bulk sets carry the lattices'
        # normalization error, and if the gain run scored them too, they
        # would outrank these witnesses and G would read 0
        for p, q, alpha, n, want in ((0.1, 0.02, 0.25, 100,
                                      2.8057892542987618e-38),
                                     (0.5, 0.95, 0.565, 200,
                                      8.7748259040664744e-18)):
            g, _ = gn_tails(Dist.bernoulli(p), Dist.bernoulli(q), HAMMING,
                            alpha, n)
            assert g == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n,alpha,want", [
        (800, 0.2, (0.9999999999922455, 7.75442118180879e-12)),
        (800, 0.45, (2.9916379723813944e-20, 1.0)),
        (1600, 0.2, (1.0, 3.7265486276171007e-22)),
        (1600, 0.45, (1.057712186881946e-37, 1.0))])
    def test_binary_tails_are_the_400_digit_values(self, n, alpha, want):
        # both ends of perfbench/reference.binary_bracket(..., digits=400)
        # round to these floats; the chain DP read G at n = 1600,
        # alpha = 0.45 as 1.057712186880082e-37 and 1 - G as
        # 0.9999999999994404
        assert gn_tails(B01, B05, HAMMING, alpha, n) == want

    def test_type_masses_are_the_multinomials(self):
        # scale * multinomial(t) * prod m_i^t_i over the lattice, zero
        # masses on any letter among them
        for m in ([3], [5, 7], [0, 7], [5, 0], [2, 3, 5], [0, 3, 5],
                  [2, 0, 5], [2, 3, 0], [1, 2, 3, 4], [3, 0, 0, 4]):
            for n in (1, 2, 5, 9):
                want = [11 * math.factorial(n)
                        // math.prod(math.factorial(v) for v in t)
                        * math.prod(b ** v for b, v in zip(m, t))
                        for t in _counts_matrix(n, len(m)).tolist()]
                assert list(_type_masses(m, n, 11)) == want, (m, n)
                assert sum(want) == 11 * sum(m) ** n

    @given(st.integers(1, 30), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_alpha_monotone(self, n, a1, a2):
        lo, hi = min(a1, a2), max(a1, a2)
        g_lo = exact_gn(B01, B05, HAMMING, lo, n)
        g_hi = exact_gn(B01, B05, HAMMING, hi, n)
        assert g_lo >= g_hi - 1e-12


def _clear_program_caches():
    """Empty every lru_cache of the package's modules."""
    for name, mod in list(sys.modules.items()):
        if name == "strassen_lab" or name.startswith("strassen_lab."):
            for val in list(vars(mod).values()):
                if callable(getattr(val, "cache_clear", None)):
                    val.cache_clear()


_P23 = (Dist.from_mass([0.4, 0.6]), Dist.from_mass([0.2, 0.3, 0.5]))
_C23 = [[0.0, 0.6, 1.0], [0.8, 0.2, 0.5]]
#: (p_x, p_y, cost, n): 2 x 2, 2 x 3, its 3 x 2 transpose, and 3 x 3
CACHE_INSTANCES = {
    "2x2": (B01, B05, HAMMING, 60),
    "2x3": (*_P23, CostMatrix.from_rows(_C23), 24),
    "3x2": (*_P23[::-1], CostMatrix.from_rows(np.transpose(_C23).tolist()),
            24),
    "3x3": (Dist.from_mass([0.2, 0.3, 0.5]), Dist.from_mass([0.5, 0.1, 0.4]),
            CostMatrix.from_rows([[0, 1, 2], [1, 0, 1], [2, 1, 0]]), 8),
}


def _alpha_sweep(c: CostMatrix, seed: int) -> list:
    """Thresholds over the cost's range and past both ends, shuffled."""
    carr = c.as_array()
    alphas = [-0.1, *np.linspace(carr.min(), carr.max(), 13).tolist(),
              carr.max() + 0.1]
    random.Random(seed).shuffle(alphas)
    return alphas


class TestOuterMassCache:
    """``_outer_masses`` is one cache per (P_X, P_Y, n): warm and cold
    calls give the same bits, and a sweep builds the masses once."""

    @pytest.mark.parametrize("name", CACHE_INSTANCES)
    def test_warm_sweep_is_the_cold_calls(self, name):
        px, py, c, n = CACHE_INSTANCES[name]
        alphas = _alpha_sweep(c, 29)
        cold = []
        for alpha in alphas:
            _clear_program_caches()
            cold.append(_hex(gn_tails(px, py, c, alpha, n)))
        _clear_program_caches()
        warm = [_hex(gn_tails(px, py, c, alpha, n)) for alpha in alphas]
        assert warm == cold
        # and both are the table flow on Fractions, rounded once
        assert warm == [_hex(_table_flow_gn_tails(px, py, c, alpha, n))
                        for alpha in alphas]
        assert len(set(map(tuple, warm))) > 3

    def test_one_build_per_instance_per_sweep(self, monkeypatch):
        calls = []
        real = lattice._type_masses

        def counting(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(lattice, "_type_masses", counting)
        builds = {}
        for name, (px, py, c, n) in CACHE_INSTANCES.items():
            _clear_program_caches()
            gn_tails(px, py, c, 0.5, n)
            builds[name] = len(calls)
            calls.clear()
        # the recursion of 3-letter masses counts too, so a build is more
        # than two calls there
        assert builds["2x2"] == 2 and builds["2x3"] == builds["3x2"] > 2
        _clear_program_caches()
        for name, (px, py, c, n) in CACHE_INSTANCES.items():
            for alpha in _alpha_sweep(c, 31):
                gn_tails(px, py, c, alpha, n)
            want = 0 if name == "3x2" else builds[name]
            assert len(calls) == want, name
            calls.clear()

    def test_cache_is_bounded_by_bytes(self):
        # entry k holds k ints of about 1.1 kB each, none above its total;
        # before a build the least recently used entries go until the rest
        # hold at most 3,000 bytes, so the newest entry stays at any size
        big = 1 << 8500
        builds = []

        def build(k):
            builds.append(k)
            return (big,) * k, (), big
        cached = lattice._cached_by_bytes(3000)(build)
        for k in (1, 2, 1, 3, 1, 2, 5, 5, 1):
            assert cached(k) == build(k)
            builds.pop()
        assert builds == [1, 2, 3, 2, 5, 1]
        cached(1)
        cached.cache_clear()
        cached(1)
        assert builds == [1, 2, 3, 2, 5, 1, 1]
        assert callable(lattice._outer_masses.cache_clear)


# ---------------------------------------------------------------------------
# The interval route as it ran before the interval ends came from the cost:
# it read each column's interval off the admissible cells of the inner
# table, and a column whose cells had a hole sent the lattice to the dense
# flow.  Kept verbatim as the oracle of the line view, and as the views of
# the DP tests on random interval tables.

def _row_spans(adm: np.ndarray):
    """(admits, first, last) per row, or None if a row's admissible set has
    a hole; first and last are its first and last admissible column."""
    admits = adm.any(axis=1)
    first = np.argmax(adm, axis=1)
    last = adm.shape[1] - 1 - np.argmax(adm[:, ::-1], axis=1)
    if not np.array_equal(adm.sum(axis=1)[admits],
                          (last - first + 1)[admits]):
        return None
    return admits, first, last


def _interval_view(adm: np.ndarray):
    """Interval structure of an admissibility table's columns, if it has one.

    Returns an ``_IntervalView`` when every column's admissible rows are
    contiguous, which holds whenever the rows are the types of a 2-letter
    alphabet in line order: the inner cost is convex along that line.  The
    ends may move in any direction.  Otherwise, or with nothing admissible,
    None.
    """
    spans = _row_spans(adm.T)
    if spans is None:
        return None
    admits, first, last = spans
    any_row = adm.any(axis=1)
    act = np.flatnonzero(any_row)
    if act.size == 0:
        return None
    # every row inside a column's interval admits it, so is active
    rank = np.cumsum(any_row) - 1
    return _IntervalView(act, np.where(admits, rank[first], act.size),
                         np.where(admits, rank[last], -1),
                         np.flatnonzero(~any_row))


def _lattice_ecp_interval(logmu, lognu, adm):
    """The outer solve with E on the rows, when every column admits an
    interval of rows; None otherwise."""
    view = _interval_view(adm)
    if view is None:
        return None
    return _bounds(_side_candidates(logmu, lognu, view))


def _table_flow_gn_tails(p_x, p_y, c, alpha, n):
    """(G, 1 - G) through the inner cost table, of any shape, and the exact
    max-flow on its admissible cells between the integer type masses,
    as the dense route of gn_tails solves it."""
    adm = _inner_cost_table(c, n) <= alpha + ADMISS_EPS
    mx, my = (flow._lift(p.mass, ())[0] for p in (p_x, p_y))
    sx, sy = sum(mx) ** n, sum(my) ** n
    total = sx * sy
    solved = flow.bipartite_max_flow(
        [Fraction(v, total) for v in _type_masses(mx, n, sy)],
        [Fraction(v, total) for v in _type_masses(my, n, sx)], adm)
    return float(solved.unrouted), float(solved.value)


def _table_gn_tails(p_x, p_y, c, alpha, n):
    """gn_tails through the inner cost table and its interval view."""
    inst = nested_instance(p_x, p_y, c, n)
    adm = inst.inner_cost <= alpha + ADMISS_EPS
    if not adm.any():
        return 1.0, 0.0
    logmu, lognu = log_type_masses(p_x, n), log_type_masses(p_y, n)
    kx, ky = c.shape
    if kx == 2 or ky == 2:
        interval = (_lattice_ecp_interval(logmu, lognu, adm) if kx == 2
                    else _lattice_ecp_interval(lognu, logmu, adm.T))
        if interval is not None:
            return interval
    return _lattice_ecp_dense(logmu, lognu, adm)


# ---------------------------------------------------------------------------
# The banded route, which solved lattices whose rows admit intervals with
# nondecreasing ends in both orientations (binary Hamming among them)
# before the interval route took every lattice with a 2-letter side; kept
# as the oracle of the tests below.  Its view also records its column
# count, since ``covered`` takes the chain alone, as the interval view's does.

class _BandedView(NamedTuple):
    """Rows ``act`` admit the columns lo..hi, both ends nondecreasing; the
    rows ``empty`` admit none.  There are ``columns`` columns."""

    act: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    empty: np.ndarray
    columns: int

    def masses(self, lognu):
        """The column masses a chain DP over the rows needs.

        Returns the log nu of the columns still unsettled after each slot's
        last row (slot 0 is the empty chain, slot i + 1 the chain ending at
        active row i), and an iterator that yields, for each active row i,
        the log nu newly covered and newly left uncovered when row i
        follows the last row of each slot 0..i.  Because lo and hi are
        nondecreasing, after a chain whose span ends at hi_j, row i covers
        (max(hi_j, lo_i - 1), hi_i] and leaves the gap (hi_j, lo_i - 1].
        """
        nu_suffix = np.append(np.logaddexp.accumulate(lognu[::-1])[::-1],
                              -np.inf)
        last_hi = np.concatenate([[-1], self.hi])
        return nu_suffix[last_hi + 1], self._steps(lognu, last_hi)

    def _steps(self, lognu, last_hi):
        # span[t] = log nu(hi_i - t .. hi_i) and gap[t] = log nu(lo_i - 1 - t
        # .. lo_i - 1) at step i; index -1 reads the empty sum
        span = np.full(len(lognu) + 1, -np.inf)
        gap = np.full(len(lognu) + 1, -np.inf)
        for i in range(len(self.act)):
            lo_i, hi_i = int(self.lo[i]), int(self.hi[i])
            np.logaddexp.accumulate(lognu[lo_i:hi_i + 1][::-1],
                                    out=span[:hi_i - lo_i + 1])
            np.logaddexp.accumulate(lognu[:lo_i][::-1], out=gap[:lo_i])
            prev = last_hi[:i + 1]
            yield (span[np.minimum(hi_i - 1 - prev, hi_i - lo_i)],
                   gap[np.maximum(lo_i - 2 - prev, -1)])

    def covered(self, chain) -> np.ndarray:
        in_g = np.zeros(self.columns, dtype=bool)
        in_g[_span_indices(_merge_spans(chain, self.lo, self.hi))] = True
        return in_g


def _banded_view(adm: np.ndarray):
    """Interval structure of an admissibility table's rows, if it has one.

    Returns ``(active_rows, lo, hi, empty_rows)`` when every row's admissible
    set is a contiguous interval and the interval endpoints are nondecreasing
    over the active rows; otherwise None.  Both conditions together are what
    the cut DP needs to enumerate witness sets exactly.
    """
    spans = _row_spans(adm)
    if spans is None:
        return None
    admits, first, last = spans
    act = np.flatnonzero(admits)
    if act.size == 0:
        return None
    first, last = first[act], last[act]
    if np.any(np.diff(first) < 0) or np.any(np.diff(last) < 0):
        return None
    return _BandedView(act, first, last, np.flatnonzero(~admits),
                       adm.shape[1])


def _merge_spans(chain, lo, hi):
    spans = []
    for i in chain:
        if spans and lo[i] <= spans[-1][1] + 1:
            spans[-1][1] = max(spans[-1][1], hi[i])
        else:
            spans.append([int(lo[i]), int(hi[i])])
    return spans


def _span_indices(spans) -> np.ndarray:
    if not spans:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([np.arange(a, b + 1) for a, b in spans])


def _lattice_ecp_banded(logmu, lognu, adm):
    view_a, view_b = _banded_view(adm), _banded_view(adm.T)
    if view_a is None or view_b is None:
        return None
    return _bounds(_side_candidates(logmu, lognu, view_a)
                   + _side_candidates(lognu, logmu, view_b))


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
            yield log_type_masses(px, n), log_type_masses(py, n), adm
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


def binary_tail_instances():
    """The binary-tails benchmark's lattices: Bern(0.1) and Bern(0.5) under
    Hamming cost at n = 50, 100 and 200, and the root-n window at 100."""
    cases = [(n, alpha) for n in (50, 100, 200) for alpha in (0.2, 0.45)]
    cases += [(100, 0.4 + d / 10) for d in (-1.5, -0.5, 0.0, 0.5, 1.5)]
    for n, alpha in cases:
        inst = nested_instance(B01, B05, HAMMING, n)
        yield (log_type_masses(B01, n), log_type_masses(B05, n),
               inst.inner_cost <= alpha + 1e-12)


def two_letter_instances(gen, count, kmax=4):
    """Random 2 x k and k x 2 instances, k = 2..kmax, as (p_x, p_y, nested
    instance, alpha): integer costs in {0, 1, 2}, so many costs tie, masses from
    integer weights that are sometimes 0, and alpha on a cost of the
    inner table, so cells tie with the threshold too."""
    def dist(k):
        w = gen.integers(0, 4, size=k).astype(float)
        w[gen.integers(k)] += 1.0
        return Dist.from_mass((w / w.sum()).tolist())

    for _ in range(count):
        k = int(gen.integers(2, kmax + 1))
        shape = (2, k) if gen.random() < 0.5 else (k, 2)
        c = CostMatrix.from_rows(gen.integers(0, 3, size=shape).tolist())
        px, py = dist(shape[0]), dist(shape[1])
        inst = nested_instance(px, py, c, int(gen.integers(1, 9)))
        yield px, py, inst, float(gen.choice(np.unique(inst.inner_cost)))


def two_letter_lattices(gen, count):
    """The lattices of ``two_letter_instances`` as (shape, logmu, lognu,
    adm)."""
    return [(inst.cost.shape, log_type_masses(px, inst.n),
             log_type_masses(py, inst.n),
             inst.inner_cost <= alpha + ADMISS_EPS)
            for px, py, inst, alpha in two_letter_instances(gen, count)]


def random_intervals(gen, m, k, shift=0.0):
    """Log-masses and an m x k table whose columns admit intervals of rows,
    with ends in no particular order; some columns and rows admit nothing."""
    lo = gen.integers(0, m, k)
    hi = np.minimum(lo + gen.integers(0, 4, k), m - 1)
    hi[gen.random(k) < 0.15] = -1
    rows = np.arange(m)[:, None]
    adm = (rows >= lo) & (rows <= hi)
    return (np.log(gen.dirichlet(np.ones(m))) + shift,
            np.log(gen.dirichlet(np.ones(k))) + shift, adm)


# The rows of _scores and of the DP's state, one per run.
GAIN, COMPLEMENT, LOSS = range(3)


def _best_and_end_value(logmu, lognu, view, runs, objective):
    """The best objective over every chain of the ``runs``, and the best
    value read off their end states, in decimal."""
    parent, (log_e, log_g, log_skip, log_gap) = _dp_chains(logmu, lognu, view)
    lpos, lneg = np.empty((2, *log_e.shape))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        _scores(log_e[GAIN], log_g[GAIN], log_skip[COMPLEMENT],
                log_gap[COMPLEMENT], log_g[LOSS], log_skip[LOSS], lpos, lneg)
        read = _signed_argmax(lpos, lneg)
    best = end_value = Decimal("-Infinity")
    for s in runs:
        best = max(best, *(objective(_chain_members(parent[s], i))
                           for i in range(-1, len(view.act))))
        end_value = max(end_value, Decimal(float(lpos[s, read[s]])).exp()
                        - Decimal(float(lneg[s, read[s]])).exp())
    return best, end_value


# An exact oracle for lattices with a 2-letter side: the chain DP over the
# interval table, in decimal, with the type masses of the decimal laws.

DEEP_PX, DEEP_PY = (0.9, 0.1), (0.5, 0.45, 0.05)
DEEP_COST = ((0, 1, 1), (1, 0, 1))


def decimal_type_masses(mass, n):
    """Multinomial type-class masses of the law with the printed ``mass``.

    Built from Decimal(str(p)), which sums to 1: the floats 0.9 and 0.1
    sum to 1 + 2.8e-17, which would offset every value by about 8e-16.
    """
    probs = [Decimal(str(v)) for v in mass]
    out = []
    for t in enum_types(n, len(mass)):
        term = Decimal(math.factorial(n))
        for q, c in zip(probs, t.counts):
            term = term / math.factorial(c) * q ** c
        out.append(term)
    return out


def decimal_interval_gain(mu, nu, adm):
    """max over sets E of rows of mu(E) - nu(Gamma(E)), for a table whose
    columns admit intervals of rows.

    best[j + 1] is the best value of a set whose last row is j; row i
    after row j newly covers the columns with j < lo_y <= i <= hi_y.
    """
    m = len(mu)
    by_start = [[] for _ in range(m)]
    for y, col in enumerate(adm.T):
        rows = np.flatnonzero(col)
        if rows.size:
            assert rows[-1] - rows[0] + 1 == rows.size
            by_start[rows[0]].append((rows[-1], nu[y]))
    best = [Decimal(0)]
    for i in range(m):
        value, cover = None, Decimal(0)
        for j in range(i - 1, -2, -1):
            cover += sum((mass for last, mass in by_start[j + 1] if last >= i),
                         Decimal(0))
            cand = best[j + 1] + mu[i] - cover
            value = cand if value is None else max(value, cand)
        best.append(value)
    return max(best)


def deep_tail_instance(n, alpha):
    px, py = Dist.from_mass(list(DEEP_PX)), Dist.from_mass(list(DEEP_PY))
    c = CostMatrix.from_rows(DEEP_COST)
    return px, py, c, nested_instance(px, py, c, n).inner_cost <= alpha + ADMISS_EPS


class TestIntervalRoute:
    """The chain DP on lattices with a 2-letter side, whose columns each
    admit an interval of the 2-letter types."""

    @pytest.mark.parametrize("n", [10, 14])
    def test_decimal_oracle_is_the_subset_maximum(self, n):
        _, _, _, adm = deep_tail_instance(n, 0.5)
        cols = [int("".join("1" if v else "0" for v in row[::-1]), 2)
                for row in adm]
        with localcontext() as ctx:
            ctx.prec = 60
            mu = decimal_type_masses(DEEP_PX, n)
            nu = decimal_type_masses(DEEP_PY, n)
            brute = Decimal(0)
            for mask in range(1, 1 << len(mu)):
                rows = [i for i in range(len(mu)) if mask >> i & 1]
                hit = 0
                for i in rows:
                    hit |= cols[i]
                brute = max(brute, sum(mu[i] for i in rows) - sum(
                    (nu[y] for y in range(len(nu)) if hit >> y & 1),
                    Decimal(0)))
            assert brute > 0
            got = decimal_interval_gain(mu, nu, adm)
            assert abs(got - brute) <= brute * Decimal("1e-40")

    @pytest.mark.parametrize("n,alpha", [(40, 0.5), (40, 0.55), (40, 0.6),
                                         (80, 0.5), (120, 0.5)])
    def test_deep_tails_match_decimal_oracle(self, n, alpha):
        # G runs from 2.5e-17 down to 2.1e-46 here; without the complement
        # run, chains of E on the 2-letter side give it 0.67% low, or 0.0
        px, py, c, adm = deep_tail_instance(n, alpha)
        with localcontext() as ctx:
            ctx.prec = 120
            g = decimal_interval_gain(decimal_type_masses(DEEP_PX, n),
                                      decimal_type_masses(DEEP_PY, n), adm)
            want = (float(g), float(1 - g))
        ct = CostMatrix.from_rows(c.as_array().T.tolist())
        for got in (gn_tails(px, py, c, alpha, n),
                    gn_tails(py, px, ct, alpha, n)):
            assert got[0] == pytest.approx(want[0], rel=1e-9, abs=0.0)
            assert got[1] == pytest.approx(want[1], rel=1e-9, abs=0.0)

    def test_agrees_with_the_banded_route_on_binary_tails(self):
        for logmu, lognu, adm in binary_tail_instances():
            got = _lattice_ecp_interval(logmu, lognu, adm)
            want = _lattice_ecp_banded(logmu, lognu, adm)
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
            assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0.0)

    def test_agrees_with_dense_flow(self):
        gen = np.random.default_rng(31)
        shapes = set()
        for shape, logmu, lognu, adm in two_letter_lattices(gen, 160):
            if shape[0] == 2:
                got = _lattice_ecp_interval(logmu, lognu, adm)
            else:
                got = _lattice_ecp_interval(lognu, logmu, adm.T)
            assert got is not None
            want = _lattice_ecp_dense(logmu, lognu, adm)
            assert got[0] == pytest.approx(want[0], rel=0.0, abs=1e-12)
            assert got[1] == pytest.approx(want[1], rel=0.0, abs=1e-12)
            assert abs(got[0] + got[1] - 1.0) <= 1e-9
            if _lattice_ecp_banded(logmu, lognu, adm) is None:
                shapes.add(shape)
        # both orientations, every k, past the banded route
        assert shapes == {(2, 2), (2, 3), (2, 4), (3, 2), (4, 2)}

    def test_gn_tails_makes_no_flow_on_two_letter_sides(self, monkeypatch):
        def no_flow(*args):
            raise AssertionError("dense flow on a 2-letter lattice")
        monkeypatch.setattr(flow, "bipartite_max_flow", no_flow)
        px, py = Dist.from_mass([0.4, 0.6]), Dist.from_mass([0.2, 0.3, 0.5])
        c = CostMatrix.from_rows([[0.0, 0.6, 1.0], [0.8, 0.2, 0.5]])
        ct = CostMatrix.from_rows(c.as_array().T.tolist())
        for alpha in (0.2, 0.3, 0.35, 0.4):
            g, comp = gn_tails(px, py, c, alpha, 20)
            assert (g, comp) == gn_tails(py, px, ct, alpha, 20)
            assert 0.0 < g < 1.0
        # 2 x 2 takes the same route
        for n in (50, 200):
            for alpha in (0.2, 0.45):
                g, comp = gn_tails(B01, B05, HAMMING, alpha, n)
                assert 0.0 < g < 1.0

    @pytest.mark.parametrize("shift", [0.0, -1500.0])
    @pytest.mark.parametrize("runs", [(GAIN, COMPLEMENT), (LOSS,)],
                             ids=["_gain", "_loss"])
    def test_chain_reaches_subset_maximum(self, runs, shift):
        # brute force over all subsets E of the rows, summed in decimal,
        # also with every mass below exp(-1000): the best chain and the end
        # state both reach the maximal gain mu(E) - nu(Gamma(E)), over the
        # gain and complement runs, which split the sets E at mu(E) = 1/2,
        # or the minimal loss nu(Gamma(E)) + mu(E^c)
        gen = np.random.default_rng(11)
        m, k = 11, 12
        banded = 0
        with localcontext() as ctx:
            ctx.prec = 60
            for _ in range(12):
                logmu, lognu, adm = random_intervals(gen, m, k, shift)
                mu = [Decimal(v).exp() for v in logmu]
                nu = [Decimal(v).exp() for v in lognu]
                cols = [int("".join("1" if v else "0" for v in row[::-1]), 2)
                        for row in adm]
                total = sum(mu, Decimal(0))

                def objective(rows):
                    hit = 0
                    for i in rows:
                        hit |= cols[i]
                    gain = (sum((mu[i] for i in rows), Decimal(0))
                            - sum((nu[j] for j in range(k) if hit >> j & 1),
                                  Decimal(0)))
                    return gain if LOSS not in runs else gain - total

                view = _interval_view(adm)
                assert view is not None
                banded += _banded_view(adm.T) is not None
                brute = max(objective([i for i in range(m) if mask >> i & 1])
                            for mask in range(1 << m))
                tol = abs(brute) * Decimal("1e-9")
                best, end_value = _best_and_end_value(
                    logmu, lognu, view, runs,
                    lambda chain: objective(list(view.act[chain])
                                            + list(view.empty)))
                assert best >= brute - tol
                assert abs(end_value - brute) <= tol
        assert banded < 12

    def test_two_letter_sides_build_no_table(self, monkeypatch):
        # the interval ends come from the cost, so a 2-letter side needs
        # neither the inner table nor the nested instance nor a flow
        px, py, c, _ = deep_tail_instance(40, 0.5)
        ct = CostMatrix.from_rows(c.as_array().T.tolist())
        want = _table_flow_gn_tails(px, py, c, 0.5, 40)

        def refuse(*args):
            raise AssertionError("a 2-letter lattice reached the table route")
        for owner, name in ((lattice, "_inner_cost_table"),
                            (lattice, "nested_instance"),
                            (flow, "bipartite_max_flow")):
            monkeypatch.setattr(owner, name, refuse)
        assert gn_tails(px, py, c, 0.5, 40) == want
        assert gn_tails(py, px, ct, 0.5, 40) == want
        g, comp = gn_tails(B01, B05, HAMMING, 0.45, 1600)
        assert g == pytest.approx(1.057712e-37, rel=1e-5, abs=0.0)
        assert g + comp == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("sizes,shape", [((2, 3), (2, 2)),
                                             ((3, 3), (3, 2)),
                                             ((3, 4), (3, 3))],
                             ids=["line", "line-transposed", "dense"])
    def test_mismatched_marginal_sizes_raise(self, sizes, shape):
        px, py = (Dist.from_mass([1.0 / k] * k) for k in sizes)
        c = CostMatrix.from_rows(np.ones(shape).tolist())
        with pytest.raises(ValidationError):
            gn_tails(px, py, c, 0.5, 4)


def template_two_by_three(seed):
    """The lattice-dense benchmark's 2 x 3 instance at one seed, with its
    alpha sweep around the base cost at n = 24."""
    rng = np.random.default_rng(seed)
    template = np.array([[0.0, 0.6, 1.0], [0.8, 0.2, 0.5]])
    carr = np.maximum(template + rng.integers(-5, 6, size=(2, 3)) / 100.0,
                      0.0)
    px, py = Dist.from_mass([0.4, 0.6]), Dist.from_mass([0.2, 0.3, 0.5])
    base = ot_value(np.array(px.mass), np.array(py.mass), carr)
    scale = (carr.max() - carr.min()) / math.sqrt(24)
    alphas = [float(base + t * scale)
              for t in (0.0, *np.linspace(-1.2, 1.2, 8))]
    return px, py, CostMatrix.from_rows(carr.tolist()), alphas


def _hex(pair) -> list:
    return [float(v).hex() for v in pair]


class TestLineView:
    """The interval ends read off the cost against the admissible cells of
    the inner table, which the interval route read them from before."""

    @staticmethod
    def same_as_table(c, alpha, n, table=None):
        # the rows between each column's ends are exactly its admissible
        # cells, and a column with lo > hi has none
        if table is None:
            table = _inner_cost_table(c, n)
        adm = table <= alpha + ADMISS_EPS
        carr = c.as_array()
        if c.shape[0] == 2:
            lo, hi = _line_view(carr, alpha, n)
        else:
            (lo, hi), adm = _line_view(carr.T, alpha, n), adm.T
        rows = np.arange(n + 1)[:, None]
        return np.array_equal((rows >= lo) & (rows <= hi), adm)

    def test_ends_match_the_table(self):
        compared = 0
        for n in (50, 100, 200):
            for alpha in (0.01, 0.2, 0.25, 0.35, 0.4, 0.45, 0.55):
                assert self.same_as_table(HAMMING, alpha, n)
                compared += 1
        for seed in range(60):
            _, _, c, alphas = template_two_by_three(seed)
            for alpha in alphas:
                assert self.same_as_table(c, alpha, 24)
                compared += 1
        # ties: integer costs, and alpha on an entry of the table
        for _, _, inst, alpha in two_letter_instances(
                np.random.default_rng(8), 150):
            assert self.same_as_table(inst.cost, alpha, inst.n,
                                      inst.inner_cost)
            compared += 1
        # costs up to 100 times larger, and alpha anywhere
        gen = np.random.default_rng(9)
        for _ in range(150):
            k = int(gen.integers(2, 5))
            shape = (2, k) if gen.random() < 0.5 else (k, 2)
            scale = float(gen.choice([1.0, 7.3, 100.0]))
            c = CostMatrix.from_rows((np.round(gen.random(shape) * 4, 3)
                                      * scale).tolist())
            n = int(gen.integers(1, 30))
            table = _inner_cost_table(c, n)
            alpha = (float(gen.choice(np.unique(table))) if gen.random() < 0.5
                     else float(gen.random() * table.max()))
            assert self.same_as_table(c, alpha, n, table)
            compared += 1
        assert compared == 21 + 540 + 300

    def test_ends_match_the_ssp_table_past_the_vertex_kernel(self):
        # 2 x 5 and 2 x 6 costs, whose tables have no dual-vertex kernel:
        # the per-pair SSP table
        gen = np.random.default_rng(10)
        for _ in range(24):
            k = int(gen.integers(5, 7))
            shape = (2, k) if gen.random() < 0.5 else (k, 2)
            values = (gen.integers(0, 3, size=shape) if gen.random() < 0.5
                      else np.round(gen.random(shape) * 4, 3))
            c = CostMatrix.from_rows(values.tolist())
            n = int(gen.integers(1, 5))
            table = _ssp_inner_cost_table(c, n)
            alpha = float(gen.choice(np.unique(table)))
            assert self.same_as_table(c, alpha, n, table)

    def test_gn_tails_bit_for_bit_as_the_table_route(self):
        cases = [(B01, B05, HAMMING, alpha, n) for n in (100, 400)
                 for alpha in (0.01, 0.05, 0.2, 0.45)]
        cases += [(B01, B05, HAMMING, 0.01, 800)]
        for n in (40, 80):
            for alpha in (0.5, 0.55, 0.6):
                px, py, c, _ = deep_tail_instance(n, alpha)
                ct = CostMatrix.from_rows(c.as_array().T.tolist())
                cases += [(px, py, c, alpha, n), (py, px, ct, alpha, n)]
        for seed in range(4):
            px, py, c, alphas = template_two_by_three(seed)
            cases += [(px, py, c, alpha, 24) for alpha in alphas]
        # zero masses and ties, up to 2 x 5 and 5 x 2
        cases += [(px, py, inst.cost, alpha, inst.n)
                  for px, py, inst, alpha in two_letter_instances(
                      np.random.default_rng(13), 40, kmax=5)]
        # the greedy on the line view against the exact max-flow on the
        # table's admissible cells, between the same integer masses
        for case in cases:
            assert _hex(gn_tails(*case)) == _hex(_table_flow_gn_tails(*case))

    def test_past_the_old_table_guard(self, monkeypatch):
        # 2 x 3 at n = 160 and 2 x 4 at n = 60, each just past the size at
        # which PAIR_GUARD refuses the table; lifted for the oracle only
        px = Dist.from_mass([0.4, 0.6])
        cases = []
        for py, rows, n in (((0.2, 0.3, 0.5),
                             ((0.0, 0.6, 1.0), (0.8, 0.2, 0.5)), 160),
                            ((0.1, 0.2, 0.3, 0.4),
                             ((0.0, 0.6, 1.0, 0.3), (0.8, 0.2, 0.5, 0.9)), 60)):
            py, c = Dist.from_mass(list(py)), CostMatrix.from_rows(rows)
            ct = CostMatrix.from_rows(c.as_array().T.tolist())
            for alpha in (0.3, 0.45):
                cases += [(px, py, c, alpha, n), (py, px, ct, alpha, n)]
        got = [gn_tails(*case) for case in cases]
        assert all(0.0 < g < 1.0 for g, _ in got)
        # the chain DP's tables differ from the exact values by up to
        # 5.2e-14 relative
        monkeypatch.setattr(lattice, "PAIR_GUARD", 10 * lattice.PAIR_GUARD)
        try:
            for pair, case in zip(got, cases):
                assert pair == pytest.approx(_table_gn_tails(*case),
                                             rel=1e-13, abs=0.0)
        finally:
            _inner_cost_table.cache_clear()


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


def _reference_dp_chains(logmu, lognu, view):
    """Parent pointers per run: the max-DP stands in for the gain and
    complement runs, the min-DP for the loss run."""
    act, lo, hi = view[:3]
    gain = _maxdp_chains(logmu[act], lognu, lo, hi)
    return gain, gain, _mindp_chains(logmu[act], lognu, lo, hi)


def _dp_parents(logmu, lognu, view):
    return _dp_chains(logmu, lognu, view)[0]


# The full evaluation of every DP chain that the readout of the DP's end
# state replaced, kept verbatim (with the DP as an argument) as the
# reference of the tests below.

def _every_chain_candidate(logmu, lognu, adm, dp_chains):
    """(direct, complement-sum) of every DP chain of one orientation, or None."""
    view = _banded_view(adm)
    if view is None:
        return None
    chains = [[]]  # the empty-active-chain witness: only always-free rows
    for parent in dp_chains(logmu, lognu, view):
        chains.extend(_chain_members(parent, i) for i in range(len(parent)))
    return [_witness_values(logmu, lognu,
                            *_chain_masks(chain, view, len(logmu)))
            for chain in chains]


def _every_chain_ecp_banded(logmu, lognu, adm, dp_chains):
    a = _every_chain_candidate(logmu, lognu, adm, dp_chains)
    b = _every_chain_candidate(lognu, logmu, adm.T, dp_chains)
    if a is None or b is None:
        return None
    g = max(0.0, max(direct for direct, _ in a + b))
    comp = min(1.0, min(comp_sum for _, comp_sum in a + b))
    return min(g, 1.0), max(comp, 0.0)


# The three chain DP runs, one per score, that the one pass of _dp_chains
# replaced, and the readout that glued their end states together, kept
# verbatim as the reference of the differential test below.

_LOG_HALF = math.log(0.5)


def _gain(log_e, log_g, log_skip, log_gap):
    """Score mu(E) - nu(Gamma(E)) of a chain with mu(E) <= 1/2.

    Summed directly, the bulk masses of a chain with mu(E) > 1/2 carry the
    lattices' normalization error (in the float log masses) and would
    outrank every deep-tail witness; ``_complement`` scores those chains.
    """
    bulk = log_e > _LOG_HALF
    return np.where(bulk, -np.inf, log_e), np.where(bulk, np.inf, log_g)


def _complement(log_e, log_g, log_skip, log_gap):
    """Score nu(F(D)) - mu(D) of the skipped rows D = E^c, mu(D) <= 1/2.

    F(D), the columns whose whole row interval lies inside D plus those no
    row admits, is Gamma(E)^c, so at the end this is the gain of E summed
    from the smaller masses.  Past mu(D) = 1/2 the chain is left to
    ``_gain``: D = all rows would win on the normalization error alone.
    """
    bulk = log_skip > _LOG_HALF
    return np.where(bulk, -np.inf, log_gap), np.where(bulk, np.inf, log_skip)


def _loss(log_e, log_g, log_skip, log_gap):
    """Score -(nu(Gamma(E)) + mu(E^c)), the chain's bound on 1 - G."""
    return -np.inf, np.logaddexp(log_g, log_skip)


def _signed_argmax_1d(lpos, lneg) -> int:
    """First index of the largest exp(lpos) - exp(lneg), compared exactly.

    Values are ranked by the pair (sign, sign * log|value|) in
    lexicographic order, so no offset ever mixes the sign into the
    magnitude and relative precision survives at any depth.  The caller
    silences the warnings of -inf - -inf (a zero value) and of the terms
    outside the winning sign class, which are masked out.
    """
    diff = lpos - lneg
    pos = diff > 0.0
    if pos.any():
        logabs = lpos + np.log(-np.expm1(-diff))
        return int(np.argmax(np.where(pos, logabs, -np.inf)))
    zero = ~(diff < 0.0)
    if zero.any():
        return int(np.argmax(zero))
    return int(np.argmin(lneg + np.log(-np.expm1(diff))))


def _score_dp_chains(logmu: np.ndarray, lognu: np.ndarray, view,
                     score) -> tuple[np.ndarray, tuple]:
    """Best witness chain ending at each active row, and its end state.

    A chain is a set E of active rows, plus the always-free rows.  Every
    chain carries the same log-sum state over the rows up to its end and
    the columns it has settled: mu(E), nu(Gamma(E)), mu of the rows it
    skipped and nu of the columns it left uncovered for good.  Appending
    row i to the chain ending at row j adds mu_i to the first, and the
    view's newly covered and gap masses for (j, i) to the second and the
    last (``view.masses``); every chain that does not take row i adds mu_i
    to its skipped mass.  Slot 0 is the empty chain, so starting fresh is
    one more candidate and wins ties, ahead of the chains in row order.
    ``score(log_e, log_g, log_skip, log_gap)`` ranks the candidates of
    step i on these four masses alone.  As witness sets, all of them also
    hold the rows after i in E^c and the columns starting after row i in
    Gamma(E)^c; those masses are the same for every candidate, and added
    in, they would round away the differences at the tail's scale.

    Returns the parent pointers (the row before row i in its chain, or
    -1) and the end state: the four log-masses above for slot 0 and for
    the chain ending at each active row.  At the end every
    row after a chain's last one is skipped, and every column it has not
    settled is uncovered, so the state holds E^c and Gamma(E)^c whole, each
    summed from same-sign terms.  G and 1 - G are read off this state;
    only the winning witness sets are then evaluated exactly.
    """
    logmu_a = logmu[view.act]
    m = len(logmu_a)
    log_e = np.full(m + 1, -np.inf)
    log_e[0] = _lse(logmu[view.empty])
    log_g = np.full(m + 1, -np.inf)
    log_skip = np.full(m + 1, -np.inf)
    log_gap = np.full(m + 1, -np.inf)
    parent = np.full(m, -1, dtype=np.int64)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        unsettled, steps = view.masses(lognu)
        for i, (cover, gap) in enumerate(steps):
            skip = log_skip[:i + 1]
            cand_e = np.logaddexp(log_e[:i + 1], logmu_a[i])
            cand_g = np.logaddexp(log_g[:i + 1], cover)
            cand_gap = np.logaddexp(log_gap[:i + 1], gap)
            best = _signed_argmax_1d(*score(cand_e, cand_g, skip, cand_gap))
            parent[i] = best - 1
            log_e[i + 1], log_g[i + 1] = cand_e[best], cand_g[best]
            log_skip[i + 1], log_gap[i + 1] = skip[best], cand_gap[best]
            log_skip[:i + 1] = np.logaddexp(skip, logmu_a[i])
    log_gc = np.logaddexp(log_gap, unsettled)
    return parent, (log_e, log_g, log_skip, log_gc)


def _three_run_side_candidates(logmu, lognu, view):
    """(direct, complement-sum) of the best chain of each score.

    The best G chain is the better of the ``_gain`` and ``_complement``
    winners, the best 1 - G chain the ``_loss`` winner.  Every DP run ends
    with every chain's four masses, so each winner is picked from the
    state of all runs, and only the winners' witness sets are evaluated.
    """
    scores = (_gain, _complement, _loss)
    runs = [_score_dp_chains(logmu, lognu, view, score) for score in scores]
    state = np.concatenate([end for _, end in runs], axis=1)
    slots = state.shape[1] // len(runs)
    out = []
    for score in scores:
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            best = _signed_argmax_1d(*score(*state))
        chain = _chain_members(runs[best // slots][0], best % slots - 1)
        out.append(_witness_values(
            logmu, lognu, *_chain_masks(chain, view, len(logmu))))
    return out


def _views(logmu, lognu, adm):
    """(logmu, lognu, view) for each orientation of a table and each of
    the interval and banded views it has."""
    for a, b, table in ((logmu, lognu, adm), (lognu, logmu, adm.T)):
        for view in (_interval_view(table), _banded_view(table)):
            if view is not None:
                yield a, b, view


class TestChainDp:
    def instances(self, rng):
        return (list(binary_tail_instances())
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
        # one winner per score, over the one orientation the interval
        # route runs: two G chains (gain, complement) and the 1 - G chain
        calls = Counter()

        def counted(name):
            real = getattr(chain_dp, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(chain_dp, name, wrapper)

        counted("_chain_members")
        counted("_witness_values")
        chain_gn_tails(B01, B05, HAMMING, 0.2, 200)
        assert calls == {"_chain_members": 3, "_witness_values": 3}

    def test_one_walk_over_the_steps(self, monkeypatch):
        # the three runs share one call of view.masses and consume each of
        # its steps once
        calls = Counter()
        real = _IntervalView.masses

        def counted(view, lognu):
            calls["masses"] += 1
            unsettled, steps = real(view, lognu)

            def walk():
                for step in steps:
                    calls["steps"] += 1
                    yield step
            calls["rows"] += len(view.act)
            return unsettled, walk()
        monkeypatch.setattr(_IntervalView, "masses", counted)
        for n in (50, 200):
            for alpha in (0.2, 0.45):
                calls.clear()
                chain_gn_tails(B01, B05, HAMMING, alpha, n)
                assert calls["masses"] == 1
                assert calls["steps"] == calls["rows"] > 0

    def test_one_pass_matches_the_three_runs(self, rng):
        # the parents and all four end-state masses of each run equal those
        # of its own per-score run, bit for bit, in both orientations and
        # on interval and banded views, also with every mass below
        # exp(-1000), and so do the witness values read off the end state.
        # The lattices are those of test_agrees_with_dense_flow: on one of
        # them a chain of the gain run ties the complement run's winner
        lattices = two_letter_lattices(np.random.default_rng(31), 160)
        gen = np.random.default_rng(12)
        instances = (self.instances(rng) + [inst[1:] for inst in lattices]
                     + [random_intervals(gen, int(gen.integers(2, 14)),
                                         int(gen.integers(2, 14)), shift)
                        for shift in (0.0, -1500.0) for _ in range(200)])
        compared = 0
        for inst in instances:
            for logmu, lognu, view in _views(*inst):
                parent, state = _dp_chains(logmu, lognu, view)
                assert parent.shape == (3, len(view.act))
                assert state.shape == (4, 3, len(view.act) + 1)
                for s, score in enumerate((_gain, _complement, _loss)):
                    want_parent, want_state = _score_dp_chains(
                        logmu, lognu, view, score)
                    assert np.array_equal(parent[s], want_parent)
                    for got, want in zip(state[:, s], want_state):
                        assert np.array_equal(got, want)
                # each score still reads its winner off all three runs
                assert _side_candidates(logmu, lognu, view) == (
                    _three_run_side_candidates(logmu, lognu, view))
                compared += 1
        assert compared >= 800

    def test_signed_argmax_ranks_rows_as_decimal(self):
        # crafted rows, one (lpos, lneg) pair per entry, ranked row by row
        # against exact decimal values; the first of tied values wins
        inf, deep = np.inf, -1500.0
        rows = [
            # ties: the first of equal largest values, positive or negative
            [(-1.0, -2.0), (-0.5, -3.0), (-1.0, -2.0), (-0.5, -3.0)],
            [(-3.0, -1.0), (-4.0, -2.0), (-4.0, -2.0), (-3.0, -1.0)],
            # zeros, as equal masses or as -inf - -inf, beat negatives
            [(-2.0, -1.0), (-inf, -inf), (-3.0, -3.0), (-inf, -inf)],
            [(-2.0, -1.0), (-4.0, -4.0), (-inf, -inf), (-inf, -3.0)],
            [(-inf, -inf), (-inf, -inf), (-inf, -inf), (-inf, -inf)],
            # all negative: the smallest magnitude wins
            [(-5.0, -1.0), (-inf, -2.0), (-3.0, -2.5), (-inf, -10.0)],
            [(-inf, -0.1), (-7.0, -6.9), (-inf, -30.0), (-2.0, -0.5)],
            # bulk-masked entries lose to everything but each other
            [(-inf, inf), (-inf, inf), (-inf, inf), (-inf, inf)],
            [(-inf, inf), (-inf, -50.0), (-inf, inf), (-9.0, -1.0)],
            [(-inf, inf), (-inf, inf), (-inf, -inf), (-inf, inf)],
            [(-inf, inf), (-60.0, -70.0), (-inf, inf), (-61.0, -62.0)],
            # magnitudes below exp(-1000), where a plain difference is 0
            [(deep, deep - 1e-12), (deep, deep - 2e-12), (deep - 1.0, -inf),
             (deep, deep)],
            [(deep - 1e-12, deep), (deep - 2e-12, deep), (-inf, deep - 5.0),
             (-inf, inf)],
            [(deep, deep - 0.5), (deep + 1e-9, deep - 0.5), (-inf, inf),
             (deep + 1e-9, deep - 0.5)],
        ]
        gen = np.random.default_rng(3)
        for _ in range(60):
            lpos = gen.choice([0.0, -5.0, deep], 4) + gen.uniform(-3, 0, 4)
            lneg = lpos + gen.choice([-1e-10, 1e-10, -2.0, 2.0], 4)
            lneg[gen.random(4) < 0.2] = -inf
            lpos[gen.random(4) < 0.2] = -inf
            masked = gen.random(4) < 0.2
            lpos[masked], lneg[masked] = -inf, inf
            rows.append(list(zip(lpos, lneg)))
        lpos, lneg = np.array(rows).transpose(2, 0, 1)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            got = _signed_argmax(lpos, lneg)
            assert got.shape == (len(rows),)
            with localcontext() as ctx:
                ctx.prec = 60
                for r, row in enumerate(rows):
                    values = [Decimal(float(a)).exp() - Decimal(float(b)).exp()
                              for a, b in row]
                    assert got[r] == values.index(max(values)), row
                    assert got[r] == _signed_argmax_1d(lpos[r], lneg[r])

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
                for runs, objective in (((GAIN, COMPLEMENT), gain),
                                        ((LOSS,), minus_loss)):
                    brute = max(objective(rows) for rows in subsets)
                    tol = abs(brute) * Decimal("1e-9")
                    best, end_value = _best_and_end_value(
                        logmu, lognu, view, runs,
                        lambda chain: objective(list(view[0][chain])))
                    assert best >= brute - tol
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

    def test_lift_refuses_a_coupling_of_other_laws(self):
        inst = nested_instance(Dist.bernoulli(0.3), Dist.bernoulli(0.6),
                               HAMMING, 3)
        with pytest.raises(ValidationError, match=r"coupling is \(3, 4\)"):
            lift_coupling(JointDist.from_array(np.full((3, 4), 1 / 12)), inst)
        with pytest.raises(ValidationError, match="marginals do not match"):
            lift_coupling(JointDist.from_array(np.full((4, 4), 1 / 16)), inst)

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

    @pytest.mark.parametrize("px, py, c, n, alpha", [
        (Dist.bernoulli(0.3), Dist.bernoulli(0.6), HAMMING, 8, 0.2),
        (Dist.from_mass([0.37, 0.63]), Dist.from_mass([0.17, 0.29, 0.54]),
         CostMatrix.from_rows([[0.0, 0.6, 1.0], [0.8, 0.2, 0.5]]), 6, 0.37),
    ], ids=["binary-8", "2x3-6"])
    def test_outer_plan_builds_no_one_pair_problem(self, px, py, c, n,
                                                   alpha, monkeypatch):
        # sample's route: the lattice's own float flow, with neither the
        # one-pair solver nor a CostMatrix over the inner table
        inst = nested_instance(px, py, c, n)

        def refuse(*args, **kwargs):
            raise AssertionError("outer plan built a one-pair problem")

        monkeypatch.setattr(transport, "ecp", refuse)
        monkeypatch.setattr(CostMatrix, "__post_init__", refuse)
        plan = optimal_outer_plan(inst, alpha)
        sampler = lift_coupling(plan, inst)
        sampler.sample(random.Random(1))
        mat = plan.as_array()
        exceed = mat[inst.inner_cost > alpha + ADMISS_EPS].sum()
        assert exceed == pytest.approx(gn_tails(px, py, c, alpha, n)[0],
                                       abs=1e-12)

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

    def test_binary_table_guard(self):
        # 1415^2 = 2,002,225 entries is past PAIR_GUARD, 1414^2 is not;
        # binary tables get no exemption
        with pytest.raises(SizeGuardError, match="2002225 entries"):
            nested_instance(B01, B05, HAMMING, 1414)
        try:
            inst = nested_instance(B01, B05, HAMMING, 1413)
            assert inst.inner_cost.shape == (1414, 1414)
        finally:
            _inner_cost_table.cache_clear()
