"""Probability vectors, signed perturbations, couplings, and divergences.

Everything here is an immutable value: construct once, validate once, then
share freely across threads.  Divergences use natural logarithms (rates are
in nats) and return ``math.inf`` rather than raising when they genuinely
diverge.  Equality checks on masses use absolute tolerance 1e-12.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AlphabetMismatchError,
    DimensionMismatchError,
    ValidationError,
)

MASS_ATOL = 1e-12


@dataclass(frozen=True)
class Dist:
    """A probability mass function over a finite labeled alphabet."""

    labels: tuple
    mass: tuple

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        # Mixtures and residuals leave -1e-17 noise: negative dust above
        # -MASS_ATOL is zero, anything more negative is rejected below.
        mass = tuple(0.0 if -MASS_ATOL < v < 0.0 else v
                     for v in map(float, self.mass))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "mass", mass)
        if len(labels) != len(mass):
            raise ValidationError(
                f"{len(labels)} labels but {len(mass)} mass entries"
            )
        if not labels:
            raise ValidationError("alphabet must be nonempty")
        try:
            if len(set(labels)) != len(labels):
                raise ValidationError("labels must be unique")
        except TypeError:
            raise ValidationError("labels must be hashable") from None
        for m in mass:
            if not math.isfinite(m) or m < 0.0:
                raise ValidationError(f"mass {m!r} is not a finite nonnegative real")
        total = math.fsum(mass)
        if abs(total - 1.0) > MASS_ATOL:
            raise ValidationError(f"masses sum to {total!r}, not 1")

    def __len__(self) -> int:
        return len(self.mass)

    @classmethod
    def from_mass(cls, mass: Sequence[float], labels: Sequence | None = None) -> "Dist":
        if labels is None:
            labels = range(len(mass))
        return cls(tuple(labels), tuple(mass))

    @classmethod
    def bernoulli(cls, p: float) -> "Dist":
        """Binary distribution with mass ``p`` on label 0 and ``1-p`` on label 1."""
        return cls((0, 1), (p, 1.0 - p))

    @classmethod
    def uniform(cls, k: int) -> "Dist":
        return cls(tuple(range(k)), (1.0 / k,) * k)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.mass, dtype=float)

    def support(self) -> tuple[int, ...]:
        """Indices carrying positive mass."""
        return tuple(i for i, m in enumerate(self.mass) if m > 0.0)

    def to_dict(self) -> dict:
        return {"labels": list(self.labels), "mass": list(self.mass)}


@dataclass(frozen=True)
class SignedVec:
    """A zero-sum perturbation vector aligned with an alphabet."""

    mass: tuple

    def __post_init__(self) -> None:
        mass = tuple(float(v) for v in self.mass)
        object.__setattr__(self, "mass", mass)
        if not mass:
            raise ValidationError("perturbation must be nonempty")
        for v in mass:
            if not math.isfinite(v):
                raise ValidationError(f"coordinate {v!r} is not finite")
        total = math.fsum(mass)
        if abs(total) > MASS_ATOL:
            raise ValidationError(f"coordinates sum to {total!r}, not 0")

    def __len__(self) -> int:
        return len(self.mass)

    @classmethod
    def zero(cls, k: int) -> "SignedVec":
        return cls((0.0,) * k)

    @classmethod
    def from_difference(cls, q: Dist, p: Dist, scale: float = 1.0) -> "SignedVec":
        """(q - p)/scale, recentered to remove float dust from the zero sum.

        The recentering shifts every coordinate by residue/k, a change of
        order 1e-16/scale, so callers dividing by a small ``scale`` still get
        a valid zero-sum vector.
        """
        if q.labels != p.labels:
            raise AlphabetMismatchError("difference of distributions on different alphabets")
        d = [(qm - pm) / scale for qm, pm in zip(q.mass, p.mass)]
        shift = math.fsum(d) / len(d)
        return cls(tuple(v - shift for v in d))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.mass, dtype=float)

    def scaled(self, t: float) -> "SignedVec":
        return SignedVec(tuple(t * v for v in self.mass))


@dataclass(frozen=True, eq=False)
class JointDist:
    """A joint probability matrix indexed by (x, y): one read-only 2-D
    float64 array, copied once from any array-like and checked in bulk by
    ``Dist``'s rules (dust clamp, first bad entry in row-major order, fsum
    total).  ``as_array()`` returns it without a copy; equality is identity.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        try:
            mat = np.array(self.matrix, dtype=float)
        except ValueError:
            raise ValidationError("ragged joint matrix") from None
        if mat.size == 0:
            raise ValidationError("joint matrix must be nonempty")
        if mat.ndim != 2:
            raise ValidationError("ragged joint matrix")
        mat[(-MASS_ATOL < mat) & (mat < 0.0)] = 0.0
        bad = np.flatnonzero(~np.isfinite(mat) | (mat < 0.0))
        if bad.size:
            v = float(mat.flat[bad[0]])
            raise ValidationError(f"entry {v!r} is not a finite nonnegative real")
        total = math.fsum(mat.flat)
        if abs(total - 1.0) > MASS_ATOL:
            raise ValidationError(f"entries sum to {total!r}, not 1")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @classmethod
    def from_array(cls, arr) -> "JointDist":
        return cls(arr)

    @classmethod
    def product(cls, p: Dist, q: Dist) -> "JointDist":
        return cls(np.outer(p.as_array(), q.as_array()))

    def as_array(self) -> np.ndarray:
        return self.matrix

    def marginal_x(self) -> tuple[float, ...]:
        return tuple(math.fsum(row) for row in self.matrix)

    def marginal_y(self) -> tuple[float, ...]:
        return tuple(math.fsum(col) for col in self.matrix.T)


def _check_same_alphabet(p: Dist, q: Dist) -> None:
    if p.labels != q.labels:
        raise AlphabetMismatchError(f"alphabets differ: {p.labels!r} vs {q.labels!r}")


def kl(q: Dist, p: Dist) -> float:
    """Relative entropy D(q || p) in nats; +inf off absolute continuity.

    Conventions: 0*log(0/x) = 0, and q(x) > 0 with p(x) = 0 gives +inf.
    """
    _check_same_alphabet(q, p)
    return relative_entropy(q.mass, p.mass)


def relative_entropy(q: Sequence[float], p: Sequence[float]) -> float:
    """kl on two checked mass sequences over one alphabet."""
    terms = []
    for qm, pm in zip(q, p):
        if qm == 0.0:
            continue
        if pm == 0.0:
            return math.inf
        terms.append(qm * math.log(qm / pm))
    return max(0.0, math.fsum(terms))


def tv(p: Dist, q: Dist) -> float:
    """Total variation distance: sup_A p(A) - q(A) = half the L1 norm."""
    _check_same_alphabet(p, q)
    return 0.5 * math.fsum(abs(pm - qm) for pm, qm in zip(p.mass, q.mass))


def chi2_half(beta: SignedVec, p: Dist) -> float:
    """Half chi-square energy of a perturbation: (1/2) sum beta(x)^2 / p(x).

    A zero p-coordinate contributes 0 when beta vanishes there and makes the
    whole value +inf otherwise (the perturbation leaves the simplex face).
    """
    if len(beta) != len(p):
        raise DimensionMismatchError(f"perturbation length {len(beta)} vs alphabet size {len(p)}")
    terms = []
    for b, pm in zip(beta.mass, p.mass):
        if pm == 0.0:
            if b != 0.0:
                return math.inf
            continue
        terms.append(b * b / pm)
    return 0.5 * math.fsum(terms)


def maximal_coupling(p: Dist, q: Dist) -> JointDist:
    """The TV-optimal coupling of p and q.

    Puts min(p, q) on the diagonal and couples the leftovers independently,
    so P{X != Y} = tv(p, q) exactly.
    """
    _check_same_alphabet(p, q)
    pa, qa = p.as_array(), q.as_array()
    diag = np.minimum(pa, qa)
    slack = 1.0 - math.fsum(diag)
    m = np.diag(diag)
    if slack > MASS_ATOL:
        m = m + np.outer(pa - diag, qa - diag) / slack
    return JointDist.from_array(m)


def coupling_transfer(q_xy: JointDist, p_x: Dist, p_y: Dist) -> JointDist:
    """Re-marginalize a coupling onto new marginals through TV-optimal couplings.

    Chains X ~ p_x through a maximal coupling onto Q_X, then through the
    conditional law of q_xy, then through a maximal coupling from Q_Y onto
    p_y.  The output is an exact coupling of (p_x, p_y) whose TV distance to
    q_xy is at most tv(p_x, Q_X) + tv(p_y, Q_Y).
    """
    m, k = q_xy.shape
    if len(p_x) != m or len(p_y) != k:
        raise DimensionMismatchError(
            f"coupling is {m}x{k} but targets have sizes {len(p_x)} and {len(p_y)}"
        )
    q = q_xy.as_array()
    mx, my = q_xy.marginal_x(), q_xy.marginal_y()
    sx, sy = math.fsum(mx), math.fsum(my)
    qx = Dist.from_mass([v / sx for v in mx], labels=p_x.labels)
    qy = Dist.from_mass([v / sy for v in my], labels=p_y.labels)
    m1 = maximal_coupling(p_x, qx).as_array()          # (x, x')
    m2 = maximal_coupling(qy, p_y).as_array()          # (y', y)
    qx_arr, qy_arr = qx.as_array(), qy.as_array()
    cond_xy = np.divide(q, qx_arr[:, None], out=np.zeros_like(q), where=qx_arr[:, None] > 0)
    cond_y = np.divide(m2, qy_arr[:, None], out=np.zeros_like(m2), where=qy_arr[:, None] > 0)
    out = m1 @ cond_xy @ cond_y
    # Rows with q_x(x') = 0 are never reached (the maximal coupling gives x'
    # marginal q_x), so the zeroed conditionals lose no mass.
    return JointDist.from_array(out)
