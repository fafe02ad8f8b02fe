import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strassen_lab.errors import (
    AlphabetMismatchError,
    DimensionMismatchError,
    ValidationError,
)
from strassen_lab.measures import (
    Dist,
    JointDist,
    SignedVec,
    chi2_half,
    coupling_transfer,
    kl,
    maximal_coupling,
    tv,
)

from conftest import dist_pair_st, dist_st


class TestDist:
    def test_bernoulli_puts_p_on_label_zero(self):
        d = Dist.bernoulli(0.1)
        assert d.labels == (0, 1)
        assert d.mass == (0.1, 0.9)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValidationError):
            Dist.from_mass([0.6, 0.5, -0.1])

    def test_rejects_bad_total(self):
        with pytest.raises(ValidationError):
            Dist.from_mass([0.3, 0.3])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError):
            Dist(("a", "a"), (0.5, 0.5))

    @pytest.mark.parametrize("labels", [([0], [1]), ({"a": 1}, {"b": 2}),
                                        (0, (1, [2]))])
    def test_rejects_unhashable_labels(self, labels):
        # once a bare TypeError out of the uniqueness check
        with pytest.raises(ValidationError, match="labels must be hashable"):
            Dist(labels, (0.5, 0.5))

    def test_float_dust_clamped(self):
        d = Dist.from_mass([1.0 + 1e-17, -1e-17])
        assert d.mass[1] == 0.0

    def test_support(self):
        assert Dist.from_mass([0.5, 0.0, 0.5]).support() == (0, 2)


class TestSignedVec:
    def test_rejects_nonzero_sum(self):
        with pytest.raises(ValidationError):
            SignedVec((0.2, 0.1))

    def test_from_difference_scales(self):
        q, p = Dist.bernoulli(0.3), Dist.bernoulli(0.1)
        beta = SignedVec.from_difference(q, p, scale=0.5)
        assert beta.mass[0] == pytest.approx(0.4, abs=1e-12)
        assert math.fsum(beta.mass) == pytest.approx(0.0, abs=1e-15)

    def test_from_difference_alphabet_guard(self):
        with pytest.raises(AlphabetMismatchError):
            SignedVec.from_difference(Dist.bernoulli(0.3),
                                      Dist(("a", "b"), (0.1, 0.9)))

    def test_scaled(self):
        assert SignedVec((0.25, -0.25)).scaled(2.0).mass == (0.5, -0.5)


class TestJointDist:
    def test_marginals(self):
        j = JointDist(((0.1, 0.2), (0.3, 0.4)))
        assert j.marginal_x() == pytest.approx((0.3, 0.7))
        assert j.marginal_y() == pytest.approx((0.4, 0.6))

    def test_product(self):
        j = JointDist.product(Dist.bernoulli(0.3), Dist.bernoulli(0.6))
        assert j.matrix[0][0] == pytest.approx(0.18)

    def test_rejects_ragged(self):
        with pytest.raises(ValidationError):
            JointDist(((0.5,), (0.25, 0.25)))


class TestDivergences:
    def test_kl_known_value(self):
        # D(Bern(0.5) || Bern(0.25)) = 0.5 log 2 + 0.5 log (2/3)
        want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        got = kl(Dist.bernoulli(0.5), Dist.bernoulli(0.25))
        assert got == pytest.approx(want, rel=1e-12)

    def test_kl_absolute_continuity(self):
        q = Dist.from_mass([0.5, 0.5])
        p = Dist.from_mass([1.0, 0.0])
        assert kl(q, p) == math.inf
        assert kl(p, q) < math.inf

    def test_kl_alphabet_guard(self):
        with pytest.raises(AlphabetMismatchError):
            kl(Dist.bernoulli(0.5), Dist(("x", "y"), (0.5, 0.5)))

    @given(dist_pair_st(positive=False))
    @settings(max_examples=200, deadline=None)
    def test_kl_nonnegative_and_identity(self, pair):
        q, p = pair
        assert kl(q, p) >= 0.0
        assert kl(q, q) == 0.0

    @given(dist_pair_st(positive=False))
    @settings(max_examples=200, deadline=None)
    def test_tv_metric_shape(self, pair):
        p, q = pair
        d = tv(p, q)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(tv(q, p), abs=1e-15)
        assert tv(p, p) == 0.0

    @given(dist_pair_st(positive=False))
    @settings(max_examples=200, deadline=None)
    def test_pinsker(self, pair):
        q, p = pair
        assert kl(q, p) >= 2.0 * tv(q, p) ** 2 - 1e-12

    def test_tv_hand_value(self):
        assert tv(Dist.bernoulli(0.1), Dist.bernoulli(0.5)) == pytest.approx(0.4)


class TestChi2Half:
    def test_zero_perturbation(self):
        assert chi2_half(SignedVec((0.0, 0.0)), Dist.bernoulli(0.3)) == 0.0

    def test_hand_value(self):
        # (1/2)(0.01/0.1 + 0.01/0.9)
        got = chi2_half(SignedVec((0.1, -0.1)), Dist.bernoulli(0.1))
        assert got == pytest.approx(0.5 * (0.1 + 0.01 / 0.9), rel=1e-12)

    def test_off_face_is_infinite(self):
        p = Dist.from_mass([1.0, 0.0])
        assert chi2_half(SignedVec((-0.1, 0.1)), p) == math.inf
        assert chi2_half(SignedVec((0.0, 0.0)), p) == 0.0

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatchError):
            chi2_half(SignedVec((0.1, -0.1, 0.0)), Dist.bernoulli(0.4))


class TestCouplings:
    @given(dist_pair_st(positive=False))
    @settings(max_examples=200, deadline=None)
    def test_maximal_coupling_is_tv_optimal(self, pair):
        p, q = pair
        j = maximal_coupling(p, q)
        assert np.allclose(j.marginal_x(), p.mass, atol=1e-12)
        assert np.allclose(j.marginal_y(), q.mass, atol=1e-12)
        mat = j.as_array()
        off_diag = mat.sum() - np.trace(mat)
        assert off_diag == pytest.approx(tv(p, q), abs=1e-12)

    @given(dist_pair_st(k_min=2, k_max=3), dist_pair_st(k_min=2, k_max=3))
    @settings(max_examples=150, deadline=None)
    def test_coupling_transfer_marginals_and_bound(self, pair_x, pair_y):
        qx, px = pair_x
        qy, py = pair_y
        base = JointDist.product(qx, qy)
        moved = coupling_transfer(base, px, py)
        assert np.allclose(moved.marginal_x(), px.mass, atol=1e-9)
        assert np.allclose(moved.marginal_y(), py.mass, atol=1e-9)
        joint_tv = 0.5 * np.abs(moved.as_array() - base.as_array()).sum()
        assert joint_tv <= tv(px, qx) + tv(py, qy) + 1e-9
