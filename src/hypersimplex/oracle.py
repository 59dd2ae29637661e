"""Slow reference oracles used to certify the fast solvers.

Everything here trades speed for independence: the projection oracle
enumerates all 3^n boundary patterns instead of sorting, the top-k oracle
tries every k-subset, and the Jacobian oracle uses finite differences.
None of them share solver code with the production paths, so agreement
between the two is strong evidence of correctness. Test-only; never
imported by the fast paths.

The projection oracle scores the patterns coordinate-major, in aligned
blocks of 3^_LOW consecutive codes: (n, block) work arrays whose row i is
coordinate i. The low min(n, _LOW) digits of a block run through the
same combinations every time, so their table (`_low_block`) is built on
first use per digit count and kept: 1.3 MB at 8 digits, nothing at
import. The high digits are scalars per block, read from the table of
n - _LOW digits. Each call sums u over the interior set of every
low-digit pattern once, and each block adds its high interior
coordinates to those sums, so no 3^n-long array is built.

The block loop is an exact branch and bound. It scores in full the block
of a bisected approximate threshold's pattern (`_seed_block`), then filters
by intervals. A pattern can beat or tie the best total B so far only if
each of its breaches is at most B, since a sum of non-negative floats is at
least each term; so only if its theta lies within B of its free interval,
the thetas at which none of its digits breaches (`_free_intervals`, per
call for the low digits and for every block's high digits). A block whose
high digits alone leave no such theta is skipped before its theta is
computed; in the others only the columns whose theta passes are scored. A
rounding slack widens every interval, so the filter keeps every pattern
that can win and the certificate is the full enumeration's.
"""

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .projection import (
    HypersimplexSpec,
    _as_cardinality,
    _as_score_vector,
    _check_running_sums,
    project,
)

# 3^n patterns are enumerated; beyond this n the oracle refuses to run.
MAX_ORACLE_N = 12

# Low digits per block of brute_force_project: at n = 12 each (n, 3^8)
# float64 work array is 0.6 MB.
_LOW = 8

_ZERO, _ACTIVE, _ONE = 0, 1, 2
# Each pattern digit confines d = u - theta to an interval: y = 0 needs
# d <= 0, an interior coordinate 0 <= d <= 1, and y = 1 needs d >= 1.
_LO = np.array([-np.inf, 0.0, 1.0])
_HI = np.array([0.0, 1.0, np.inf])


@dataclass
class KKTCertificate:
    """Candidate minimizer plus the worst breach of its optimality conditions.

    theta is the clip threshold of the winning boundary pattern;
    max_violation is the largest residual across the per-coordinate
    stationarity / sign conditions and the sum constraint. The certificate
    attests a true minimizer only when max_violation <= 1e-8.
    """

    y: np.ndarray
    theta: float
    max_violation: float


class _LowBlock(NamedTuple):
    """The low digits of every pattern in a block, one column per code.

    Column c holds the base-3 digits of code c, least significant first
    (0 zero, 1 interior, 2 one), as int8; m and n_one count each column's
    interior and one digits. lo, hi and interior are the digits' _LO and
    _HI bounds and their interior mask (1.0 or 0.0), as float64; free
    lists the columns without an interior digit.
    """

    digits: np.ndarray
    m: np.ndarray
    n_one: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    interior: np.ndarray
    free: np.ndarray


@functools.lru_cache(maxsize=_LOW + 1)
def _low_block(low):
    """The block table of `low` digits, shared and so read-only."""
    codes = np.arange(3**low)
    digits = np.empty((low, codes.size), dtype=np.int8)
    for i in range(low):
        digits[i] = codes // 3**i % 3
    m = np.count_nonzero(digits == _ACTIVE, axis=0).astype(np.int8)
    block = _LowBlock(
        digits=digits,
        m=m,
        n_one=np.count_nonzero(digits == _ONE, axis=0).astype(np.int8),
        lo=_LO[digits],
        hi=_HI[digits],
        interior=(digits == _ACTIVE).astype(np.float64),
        free=np.flatnonzero(m == 0),
    )
    for a in block:
        a.flags.writeable = False
    return block


def _active_sums(u):
    """Sum of u over the interior coordinates of every pattern, in code order,
    accumulated coordinate by coordinate."""
    s = np.zeros(1)
    for ui in u.tolist():
        # an interior digit adds ui; the others keep s (never -0.0, so 0.0 + s is s)
        s = np.concatenate((s, ui + s, s))
    return s


def _seed_block(u, k, low):
    """The block of the pattern at an approximate threshold, found by bisection
    on sum(clip(u - theta, 0, 1)) = k over the list u. It only picks the
    block scored first, so it sets the speed, not the certificate."""
    lo, hi = min(u) - 1.0, max(u)
    for _ in range(40):
        theta = 0.5 * (lo + hi)
        # the clip as comparisons: no builtin call per term
        clipped = [0.0 if v <= theta else 1.0 if v - theta >= 1.0 else v - theta for v in u]
        lo, hi = (theta, hi) if sum(clipped) > k else (lo, theta)
    return sum((_ZERO if v <= theta else _ONE if v - theta >= 1.0 else _ACTIVE) * 3**i
               for i, v in enumerate(u[low:]))


def _free_intervals(u):
    """The theta interval in which no digit breaches, for every pattern of
    the coordinates u in code order: d = u - theta must be <= 0 at a zero,
    in [0, 1] at an interior digit and >= 1 at a one."""
    lo, hi = np.array([-np.inf]), np.array([np.inf])
    for ui in u.tolist():
        lo = np.concatenate((np.maximum(lo, ui), np.maximum(lo, ui - 1.0), lo))
        hi = np.concatenate((hi, np.minimum(hi, ui), np.minimum(hi, ui - 1.0)))
    return lo, hi


def _midpoints(lo, hi):
    # theta of patterns without an interior coordinate: any theta in their
    # free interval [lo, hi] = [max_zero u, min_one u - 1] works
    lo_finite = np.isfinite(lo)
    both = lo_finite & np.isfinite(hi)
    return np.where(both, 0.5 * (lo + hi), np.where(lo_finite, lo, hi))


def brute_force_project(x, spec):
    """Projection by exhaustive search over all 3^n boundary patterns.

    For every assignment of coordinates to {zero, interior, one} the
    threshold is solved in closed form and the optimality conditions are
    scored: each pattern's total is its per-coordinate breaches, summed in
    coordinate order, plus its sum-constraint gap. The least total wins,
    the smallest pattern code on ties, so the result is deterministic. A
    pattern one of whose breaches exceeds the best total so far cannot
    win, since its total is at least that breach. So after the first
    block only the patterns whose theta lies within the best total, plus
    a rounding slack, of their free interval are scored, and blocks whose
    high digits leave no such theta are skipped; the filter keeps every
    pattern that can win, so the block scored first sets only how many
    are scored, never the result. The certificate's theta and
    max_violation are the winner's values from that scoring, and y is
    built from its digits and theta. Refuses n > MAX_ORACLE_N, x / tau
    whose running sums overflow float64, and |x / tau| >= 2^53.
    """
    if not isinstance(spec, HypersimplexSpec):
        raise TypeError("spec must be a HypersimplexSpec")
    if spec.n > MAX_ORACLE_N:
        raise ValueError(
            f"oracle enumerates 3^n patterns; n={spec.n} exceeds the cap of {MAX_ORACLE_N}"
        )
    x = _as_score_vector(x, spec)
    u = x / spec.tau
    # every pattern sums u over its interior set, so reject u whose sums
    # overflow, at every k, with project's ValueError
    _check_running_sums(u)
    # from 2^53 on, u - 1 rounds to u, so patterns tie and the least
    # violating one can be wrong
    u_max = float(np.max(np.abs(u)))
    if u_max >= 2.0**53:
        raise ValueError("the oracle needs |x / tau| < 2^53, where u - 1 != u")
    k = float(spec.k)
    n = spec.n
    low = min(n, _LOW)
    tab, high_tab = _low_block(low), _low_block(n - low)
    size = tab.m.shape[0]
    s_low = _active_sums(u[:low])
    u_col, u_list = u[:, None], u.tolist()
    # the free intervals of the low digits' columns and of the blocks' high digits
    (lo_low, hi_low), (lo_high, hi_high) = _free_intervals(u[:low]), _free_intervals(u[low:])

    # row i of the work arrays is coordinate i; the counts are float64, so
    # that theta's passes do not convert int8
    (d, work), (s_act, m, n_one, theta) = np.empty((2, n, size)), np.empty((4, size))
    best_total, best_code = np.inf, -1
    seed = _seed_block(u_list, k, low) if n > low else 0
    for block in itertools.chain((seed,), range(seed), range(seed + 1, 3 ** (n - low))):
        # A pattern that can still win has every breach at most the best
        # total B (its total, a sum of non-negative floats, is at least each
        # term), so its theta lies within B of its free interval. Near the
        # interval's ends |theta| <= max|u| + B + 1, and there the rounding
        # of d = u - theta, 1 - d, d - 1, u - 1 and of the widened bounds
        # errs by a few ulps of max|u| + B + 2; the slack adds 2^12 such
        # ulps to B. While B is infinite (the seed block, scored first)
        # nothing is filtered.
        slack = best_total + 2.0**-40 * (u_max + best_total + 2.0)
        lo_b, hi_b = lo_high[block] - slack, hi_high[block] + slack
        if lo_b > hi_b:  # the high digits alone leave no theta
            continue
        m_high = int(high_tab.m[block])
        np.add(tab.m, m_high, out=m)
        np.add(tab.n_one, int(high_tab.n_one[block]), out=n_one)
        # the high interior coordinates come after the low ones, and each
        # adds as _active_sums adds it
        s = s_low
        for g, v in zip(high_tab.digits[:, block].tolist(), u_list[low:]):
            if g == _ACTIVE:
                s = np.add(v, s, out=s_act)
        np.add(n_one, s, out=theta)
        theta -= k
        with np.errstate(divide="ignore", invalid="ignore"):  # m = 0 at `tab.free`
            theta /= m
        if m_high == 0:
            theta[tab.free] = _midpoints(np.maximum(lo_low[tab.free], lo_high[block]),
                                         np.minimum(hi_low[tab.free], hi_high[block]))
        cols = slice(None)
        if best_total < np.inf:
            cols = np.flatnonzero((theta >= np.maximum(lo_low - slack, lo_b))
                                  & (theta <= np.minimum(hi_low + slack, hi_b)))
            if not cols.size:
                continue
            # one column would be summed pairwise, not row after row
            cols = np.repeat(cols, 1 + (cols.size == 1))
        th = theta[cols]
        dv, wv = d[:, :th.size], work[:, :th.size]
        np.subtract(u_col, th, out=dv)
        # sum(y) - k first: interior y is d, the rest contribute +-0.0
        np.multiply(dv[:low], tab.interior[:, cols], out=wv[:low])
        np.multiply(dv[low:], high_tab.interior[:, block, None], out=wv[low:])
        gap = np.abs(n_one[cols] + wv.sum(axis=0) - k)
        np.subtract(tab.lo[:, cols], dv[:low], out=wv[:low])
        np.subtract(high_tab.lo[:, block, None], dv[low:], out=wv[low:])
        np.maximum(wv, 0.0, out=wv)
        np.subtract(dv[:low], tab.hi[:, cols], out=dv[:low])
        np.subtract(dv[low:], high_tab.hi[:, block, None], out=dv[low:])
        np.maximum(dv, 0.0, out=dv)
        wv += dv
        # a reduction over the leading axis adds row after row: coordinate order
        total = wv.sum(axis=0)
        total += gap
        i = int(total.argmin())  # first index wins ties within the block
        code = block * size + (i if isinstance(cols, slice) else int(cols[i]))
        if total[i] < best_total or (total[i] == best_total and code < best_code):
            best_total = float(total[i])
            best_code = code
            best_theta = float(th[i])
            # wv holds the per-coordinate breaches
            best_violation = max(float(wv[:, i].max()), float(gap[i]))

    code = np.array([best_code // 3**i % 3 for i in range(n)])
    y = np.where(code == _ONE, 1.0, 0.0)
    y[code == _ACTIVE] = u[code == _ACTIVE] - best_theta
    return KKTCertificate(y=y, theta=best_theta, max_violation=best_violation)


def exhaustive_topk(x, k):
    """Top-k indicator by trying every k-subset of the coordinates.

    Among maximum-sum subsets the lexicographically first index tuple is
    kept, which admits threshold ties in ascending index order.
    """
    x = _as_score_vector(x)
    n = x.size
    if n > 16:
        raise ValueError(f"exhaustive top-k tries C(n, k) subsets; n={n} exceeds the cap of 16")
    k = _as_cardinality(k, n)
    best = None
    best_sum = -np.inf
    for combo in itertools.combinations(range(n), k):
        s = float(x[list(combo)].sum()) if combo else 0.0
        if s > best_sum:
            best_sum = s
            best = combo
    out = np.zeros(n, dtype=np.int64)
    out[list(best)] = 1
    return out


def fd_jacobian(x, spec):
    """Central-difference Jacobian of the projection with respect to x.

    J[i, j] ~ (project(x + h e_j).y - project(x - h e_j).y)_i / (2 h).
    Meaningful only when x sits at least ~1e-3 away from any active-set
    change (the map has kinks there); callers screen for that. Note this
    differentiates with respect to x, so it carries the 1/tau factor that
    the analytic jvp (which differentiates with respect to x/tau) omits.
    """
    x = _as_score_vector(x, spec)
    h = 1e-6  # step in x units
    J = np.empty((spec.n, spec.n))
    for j in range(spec.n):
        step = np.zeros_like(x)
        step[j] = h
        yp = project(x + step, spec).y
        ym = project(x - step, spec).y
        J[:, j] = (yp - ym) / (2.0 * h)
    return J
