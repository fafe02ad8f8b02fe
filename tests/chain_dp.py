"""The chain DP that solved the outer problem of a lattice with a 2-letter
side in log space, and the dense route's witness evaluation on the float
type masses: the oracle of the exact outer solve of ``lattice.gn_tails``.

Moved verbatim from ``strassen_lab.lattice``, where the exact integer
greedy replaced it, with three exceptions: the rank compression of the
active rows, which ``lattice._line_view`` no longer does, is here
``_chain_view`` over the ends that ``_line_view`` returns; the 2 x k
route of ``gn_tails`` is here ``chain_gn_tails``; and the float log type
masses, which ``TypeMeasure`` no longer keeps, are here
``log_type_masses``, with scipy's ``gammaln`` and ``logsumexp`` in place
of the ports that matched them bit for bit.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, logsumexp

from strassen_lab import flow
from strassen_lab.errors import SizeGuardError
from strassen_lab.lattice import (DENSE_GUARD, _check_sizes, _counts_matrix,
                                  _line_view)


def log_type_masses(p, n: int) -> np.ndarray:
    """log of the product-law probability of each type class of n letters
    under p, one per row of ``_counts_matrix``, in floats: log n! minus the
    log-factorials of the counts plus sum t_i log p_i."""
    counts = _counts_matrix(n, len(p))
    mass = p.as_array()
    logp = np.where(mass > 0.0, np.log(np.where(mass > 0.0, mass, 1.0)),
                    -math.inf)
    with np.errstate(invalid="ignore"):
        # 0 * (-inf) appears on zero-count coordinates and is discarded
        contrib = np.where(counts > 0, counts * logp[None, :], 0.0)
    log_fact = gammaln(np.arange(n + 1) + 1)
    return log_fact[n] - log_fact[counts].sum(axis=1) + contrib.sum(axis=1)


def _lse(logs: np.ndarray) -> float:
    """log(sum(exp(logs))), -inf for no terms."""
    return float(logsumexp(logs))


class _IntervalView(NamedTuple):
    """Column y is admitted by the active rows lo_y..hi_y, in any order of
    the ends; ``act`` holds the rows that admit something, ``empty`` the
    rest.  A column that no row admits has lo = len(act) and hi = -1."""

    act: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    empty: np.ndarray

    def masses(self, lognu):
        """The column masses a chain DP over the rows needs.

        Returns the log nu of the columns still unsettled after each slot's
        last row (slot 0 is the empty chain, slot j + 1 the chain ending at
        active row j), and an iterator that yields, for each active row i,
        the log nu newly covered and newly left uncovered for good when
        row i follows the last row of each slot 0..i.  After a chain whose
        last row is j, row i newly covers the columns with
        j < lo_y <= i <= hi_y and leaves uncovered for good those with
        j < lo_y <= hi_y < i; the columns with lo_y > j are unsettled.  With
        the columns sorted by lo, those with j < lo_y <= i are a run, so
        both masses of step i are suffix sums over the columns starting by
        row i: of those that row i admits, and of the rest.
        """
        order = np.argsort(self.lo, kind="stable")
        lo, hi, nu = self.lo[order], self.hi[order], lognu[order]
        # start[s]: the columns whose rows begin before active row s
        start = np.searchsorted(lo, np.arange(len(self.act) + 1))
        suffix = np.append(np.logaddexp.accumulate(nu[::-1])[::-1], -np.inf)
        return suffix[start], self._steps(hi, nu, start)

    @staticmethod
    def _steps(hi, nu, start):
        # at step i, cover[t] and gap[t] sum the t + 1 columns before
        # start[i + 1]; index -1 reads the empty sum
        cover = np.full(len(nu) + 1, -np.inf)
        gap = np.full(len(nu) + 1, -np.inf)
        for i in range(len(start) - 1):
            p = start[i + 1]
            admitted = hi[:p] >= i
            np.logaddexp.accumulate(np.where(admitted, nu[:p], -np.inf)[::-1],
                                    out=cover[:p])
            np.logaddexp.accumulate(np.where(admitted, -np.inf, nu[:p])[::-1],
                                    out=gap[:p])
            at = p - 1 - start[:i + 1]
            yield cover[at], gap[at]

    def covered(self, chain) -> np.ndarray:
        # the first chain row at or after lo_y, or the sentinel len(act)
        rows = np.append(np.asarray(chain, dtype=np.int64), len(self.act))
        return rows[np.searchsorted(rows, self.lo)] <= self.hi


def _chain_view(lo: np.ndarray, hi: np.ndarray, n: int):
    """The ``_IntervalView`` of the row intervals of ``lattice._line_view``:
    the rows that admit something ranked in order; None if no pair of
    types is admissible."""
    admits = lo <= hi
    if not admits.any():
        return None
    lo = lo[admits]
    hi = hi[admits]
    # every row inside a column's interval admits it, so is active
    any_row = np.cumsum(np.bincount(lo, minlength=n + 2)
                        - np.bincount(hi + 1, minlength=n + 2))[:n + 1] > 0
    act = np.flatnonzero(any_row)
    rank = np.cumsum(any_row) - 1
    first = np.full(len(admits), act.size)
    last = np.full(len(admits), -1)
    first[admits], last[admits] = rank[lo], rank[hi]
    return _IntervalView(act, first, last, np.flatnonzero(~any_row))


_LOG_HALF = math.log(0.5)


def _scores(log_e, log_g, log_skip, log_gap, loss_g, loss_skip, lpos, lneg):
    """Write the logs of the plus and minus parts of the three scores into
    rows 0-2 of lpos and lneg, from the only masses they read: the gain
    run's mu(E) and nu(Gamma(E)), the complement run's skipped and gap
    masses, and the loss run's nu(Gamma(E)) and skipped mass.

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
    bulk = np.greater([log_e, log_skip], _LOG_HALF)
    lpos[0], lpos[1], lpos[2] = log_e, log_gap, -np.inf
    lneg[0], lneg[1] = log_g, log_skip
    np.logaddexp(loss_g, loss_skip, out=lneg[2])
    np.copyto(lpos[:2], -np.inf, where=bulk)
    np.copyto(lneg[:2], np.inf, where=bulk)


def _signed_argmax(lpos, lneg) -> np.ndarray:
    """First index of the largest exp(lpos) - exp(lneg) along the last
    axis, compared exactly.

    Values are ranked by the pair (sign, sign * log|value|) in
    lexicographic order, so no offset ever mixes the sign into the
    magnitude and relative precision survives at any depth.  -inf - -inf is
    a zero.  The caller silences the warnings of that difference and of the
    magnitudes of the zeros, which are not used.
    """
    diff = lpos - lneg
    pos, neg = diff > 0.0, diff < 0.0
    sign = np.subtract(pos, neg, dtype=np.int8)
    logabs = np.maximum(lpos, lneg) + np.log(-np.expm1(-np.abs(diff)))
    key = np.where(pos, logabs, np.where(neg, -logabs, 0.0))
    top = sign.max(axis=-1, keepdims=True)
    return np.argmax(np.where(sign == top, key, -np.inf), axis=-1)


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
    masses alone.  A step computes only the two masses per run that its
    score reads, and then the four masses of each run's winning slot: the
    losers are dropped, so any other mass of theirs would be wasted work.
    As witness sets, all of them also hold the rows after i in E^c and the
    columns starting after row i in Gamma(E)^c; those masses are the same
    for every candidate, and added in, they would round away the
    differences at the tail's scale.

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
    lpos, lneg = np.empty((2, 3, m + 1))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        unsettled, steps = view.masses(lognu)
        for i, (cover, gap) in enumerate(steps):
            log_e, log_g, log_skip, log_gap = state[:, :, :i + 1]
            covered = np.logaddexp(log_g[::2], cover)  # the gain and loss runs
            _scores(np.logaddexp(log_e[0], logmu_a[i]), covered[0],
                    log_skip[1], np.logaddexp(log_gap[1], gap), covered[1],
                    log_skip[2], lpos[:, :i + 1], lneg[:, :i + 1])
            best = _signed_argmax(lpos[:, :i + 1], lneg[:, :i + 1])
            parent[:, i] = best - 1
            won = state[:, runs, best]
            np.logaddexp(won[0], logmu_a[i], out=won[0])
            np.logaddexp(won[1], cover[best], out=won[1])
            np.logaddexp(won[3], gap[best], out=won[3])
            state[:, :, i + 1] = won
            np.logaddexp(log_skip, logmu_a[i], out=log_skip)
    state[3] = np.logaddexp(state[3], unsettled)
    return parent, state


def _chain_members(parent: np.ndarray, i: int) -> list[int]:
    out = []
    while i >= 0:
        out.append(i)
        i = parent[i]
    out.reverse()
    return out


def _chain_masks(chain, view, size_mu: int):
    """Masks of the witness set E of one chain and of its enlargement."""
    in_e = np.zeros(size_mu, dtype=bool)
    in_e[view.act[chain]] = True
    in_e[view.empty] = True
    return in_e, view.covered(chain)


def _witness_values(logmu, lognu, in_e, in_g):
    """Exact (direct, complement-sum) values of a witness set E.

    direct   = mu(E) - nu(Gamma(E)), evaluated through whichever of the two
               algebraically equal forms sums the smaller masses;
    comp_sum = mu(E^c) + nu(Gamma(E)), the matching bound on 1 - G
               (a sum of same-sign terms, so it never cancels).
    """
    l_e, l_ec = _lse(logmu[in_e]), _lse(logmu[~in_e])
    l_g, l_gc = _lse(lognu[in_g]), _lse(lognu[~in_g])
    mass_e = math.exp(l_e)
    if mass_e > 0.5:
        direct = math.exp(l_gc) - math.exp(l_ec)
    else:
        direct = mass_e - math.exp(l_g)
    return direct, math.exp(l_ec) + math.exp(l_g)


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
    log_e, log_g, log_skip, log_gap = state.reshape(4, -1)
    lpos, lneg = np.empty((2, 3, log_e.size))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        _scores(log_e, log_g, log_skip, log_gap, log_g, log_skip, lpos, lneg)
        best = _signed_argmax(lpos, lneg)
    return [_witness_values(logmu, lognu, *_chain_masks(
                _chain_members(parent[run], slot - 1), view, len(logmu)))
            for run, slot in zip(*np.divmod(best, state.shape[2]))]


def _bounds(candidates) -> tuple[float, float]:
    """(G, 1 - G) from the (direct, complement-sum) pairs of witness sets."""
    g = max(0.0, max(direct for direct, _ in candidates))
    comp = min(1.0, min(comp_sum for _, comp_sum in candidates))
    return min(g, 1.0), max(comp, 0.0)


def _lattice_ecp_dense(logmu, lognu, adm):
    if adm.size > DENSE_GUARD:
        raise SizeGuardError(f"dense outer flow needs {adm.size} cells")
    witness = flow.bipartite_max_flow(np.exp(logmu), np.exp(lognu),
                                      adm).witness
    in_e = np.zeros(len(logmu), dtype=bool)
    in_e[list(witness)] = True
    in_g = adm[in_e].any(axis=0)
    return _bounds([_witness_values(logmu, lognu, in_e, in_g)])


def chain_gn_tails(p_x, p_y, c, alpha: float, n: int) -> tuple[float, float]:
    """(G, 1-G) for the n-fold product problem on a lattice with a 2-letter
    side, each summed on its own scale, through the chain DP."""
    kx, ky = c.shape
    _check_sizes(p_x, p_y, c)
    # the types of a 2-letter side lie on a line, so the chain runs there
    carr = c.as_array()
    if kx != 2:
        p_x, p_y, carr = p_y, p_x, carr.T
    view = _chain_view(*_line_view(carr, alpha, n), n)
    if view is None:
        return 1.0, 0.0
    return _bounds(_side_candidates(log_type_masses(p_x, n),
                                    log_type_masses(p_y, n), view))
