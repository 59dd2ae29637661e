"""Slow reference oracles used to certify the fast solvers.

Everything here trades speed for independence: the projection oracle
searches all 3^n boundary patterns instead of sorting, the top-k oracle
tries every k-subset, and the Jacobian oracle uses finite differences.
None of them share solver code with the production paths, so agreement
between the two is strong evidence of correctness. The tests, the verify
command and the benchmark import them; the fast paths never do.

The projection oracle is an exact branch and bound on Python floats. It
scores first the pattern at a threshold where g(theta) = sum(clip(u - theta,
0, 1)) crosses k, then visits digit prefixes depth first from the highest
coordinate down, so that the leaves come in increasing code order. A pattern
can beat or tie the best total B so far only if each of its breaches is at
most B, since a sum of non-negative floats is at least each term: so only if
its theta lies within B of its free interval (the thetas at which none of its
digits breaches), and only if g(theta) lies within B of k. A prefix's free
interval holds those of its completions, so a prefix is cut when that
interval, widened by a rounding slack, misses the window where g is that
close to k. Once B is 0 nothing beats it, and ties go to the smaller code, so
every prefix after the best code is cut too. The seed's threshold and the
window's ends come from brackets of g's crossings, found among g's 2n
breakpoints, sorted once per call, and then inside the linear piece between
two of them.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .projection import (
    _as_cardinality,
    _as_scaled,
    _as_score_vector,
    _as_spec,
    _prefix_sums,
    _sort_desc,
    project,
)

# 3^n patterns are searched; beyond this n the oracle refuses to run.
MAX_ORACLE_N = 12

_ZERO, _ACTIVE, _ONE = 0, 1, 2
# Each pattern digit confines d = u - theta to [_LO, _HI]: y = 0 needs
# d <= 0, an interior coordinate 0 <= d <= 1, and y = 1 needs d >= 1.
_LO = (-math.inf, 0.0, 1.0)
_HI = (0.0, 1.0, math.inf)


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


def _clip_sum(u, theta):
    """g(theta) over the list u, clipped by comparisons, not builtin calls. Each
    term is nonincreasing in theta, and fsum rounds their sum once, so g is too."""
    return math.fsum([0.0 if v <= theta else 1.0 if v - theta >= 1.0 else v - theta for v in u])


def _breakpoints(u):
    """g's 2n breakpoints u_i and u_i - 1, sorted, between an end where g = n
    and one where g = 0."""
    return [min(u) - 2.0, *sorted(u + [v - 1.0 for v in u]), max(u) + 1.0]


def _crossing(u, points, level):
    """(lo, hi) with g(lo) > level >= g(hi), for 0 <= level < n. A binary
    search finds the adjacent breakpoints in `points` that bracket level.
    Between them g is linear, so a secant step lands within a few ulps of the
    crossing. Up to two such steps, each followed by the float next to it
    towards the far end, tighten the bracket, often to adjacent floats."""
    i, j, g_lo, g_hi = 0, len(points) - 1, len(u), 0.0
    while j - i > 1:
        mid = (i + j) // 2
        g = _clip_sum(u, points[mid])
        i, g_lo, j, g_hi = (mid, g, j, g_hi) if g > level else (i, g_lo, mid, g)
    lo, hi = points[i], points[j]
    for step in range(4):
        if step % 2 == 0:  # a secant step, kept strictly inside the bracket
            t = lo + (g_lo - level) / (g_lo - g_hi) * (hi - lo)
            t = min(max(t, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        else:  # the float next to the last step, towards the far end
            t = math.nextafter(lo, hi) if t == lo else math.nextafter(hi, lo)
        if not lo < t < hi:  # lo and hi are adjacent floats
            break
        g = _clip_sum(u, t)
        lo, g_lo, hi, g_hi = (t, g, hi, g_hi) if g > level else (lo, g_lo, t, g)
    return lo, hi


def _theta_window(u, points, k, r):
    """An open interval holding every theta with |g(theta) - k| <= r."""
    # g <= k + r only above a theta where g > k + r, and g >= k - r only
    # below one where g is at most the float below k - r
    return (_crossing(u, points, k + r)[0] if k + r < len(u) else -math.inf,
            _crossing(u, points, math.nextafter(k - r, 0.0))[1] if k - r > 0.0 else math.inf)


def _seed(u, points, k):
    """The digits at a threshold where g crosses k, within a few ulps; at
    k = n, below every breakpoint. They only pick the pattern scored first,
    so they set the speed, not the result."""
    theta = _crossing(u, points, k)[1] if k < len(u) else points[0]
    return [_ZERO if v <= theta else _ONE if v - theta >= 1.0 else _ACTIVE for v in u]


def _score(u, digits, k, lo, hi, slack, window):
    """(total, theta, max_violation) of the pattern `digits` with free
    interval [lo, hi], each summed in coordinate order as the plain
    enumeration sums them; None when theta lies farther than slack from
    [lo, hi] or outside the open window."""
    interior = [v for v, g in zip(u, digits) if g == _ACTIVE]
    n_one = digits.count(_ONE)
    *_, s = itertools.accumulate(interior, initial=0.0)  # left to right, unlike sum in 3.12+
    if interior:
        theta = (n_one + s - k) / len(interior)
    else:  # any theta in [lo, hi] works
        theta = 0.5 * (lo + hi) if math.isfinite(lo + hi) else lo if hi == math.inf else hi
    if not (lo - slack <= theta <= hi + slack and window[0] < theta < window[1]):
        return None
    total = worst = s = 0.0
    for v, g in zip(u, digits):
        # the breach max(_LO[g] - d, 0) + max(d - _HI[g], 0), by comparisons
        d = v - theta
        if g == _ACTIVE:
            s += d
            breach = -d if d < 0.0 else d - 1.0 if d > 1.0 else 0.0
        else:
            breach = (d if d > 0.0 else 0.0) if g == _ZERO else (1.0 - d if d < 1.0 else 0.0)
        total += breach
        worst = max(worst, breach)
    gap = abs(n_one + s - k)
    return total + gap, theta, max(worst, gap)


def brute_force_project(x, spec):
    """Projection by exhaustive search over all 3^n boundary patterns.

    For every assignment of coordinates to {zero, interior, one} the threshold
    is solved in closed form and the optimality conditions are scored: each
    pattern's total is its per-coordinate breaches, summed in coordinate
    order, plus its sum-constraint gap. The least total wins, the smallest
    pattern code on ties, so the result is deterministic. The module
    docstring's cuts keep every pattern that can win, so the seed sets only
    how many patterns are scored, never the result. y is built from the
    winner's digits and theta. Refuses n > MAX_ORACLE_N, x / tau whose running
    sums overflow float64, and |x / tau| >= 2^53.
    """
    if _as_spec(spec).n > MAX_ORACLE_N:
        raise ValueError(
            f"oracle enumerates 3^n patterns; n={spec.n} exceeds the cap of {MAX_ORACLE_N}"
        )
    u = _as_scaled(x, spec)[1]
    # every pattern sums u over its interior set, so reject u whose sums
    # overflow, at every k, with project's ValueError
    _prefix_sums(_sort_desc(u))
    # from 2^53 on, u - 1 rounds to u, so patterns tie and the least
    # violating one can be wrong
    u_max = float(np.max(np.abs(u)))
    if u_max >= 2.0**53:
        raise ValueError("the oracle needs |x / tau| < 2^53, where u - 1 != u")
    u, k, n = u.tolist(), float(spec.k), spec.n
    best_total, best_code, best = math.inf, -1, None
    slack, window = math.inf, (-math.inf, math.inf)

    def keep(code, lo, hi):
        nonlocal best_total, best_code, best, slack, window
        scored = _score(u, digits, k, lo, hi, slack, window)
        if scored is None or (scored[0], code) > (best_total, best_code):
            return
        if scored[0] < best_total:
            b = scored[0]
            # A pattern that can still win has its theta within b of its free
            # interval. Near the interval's ends |theta| <= max|u| + b + 1, and
            # there the rounding of d = u - theta, 1 - d, d - 1, u - 1 and of the
            # widened bounds errs by a few ulps of max|u| + b + 2; the slack
            # adds 2^12 such ulps to b.
            slack = b + 2.0**-40 * (u_max + b + 2.0)
            # Its y_i is within its i-th breach of clip(d_i, 0, 1), with the same
            # rounded d_i in g, so |g(theta) - k| <= b in exact arithmetic. Rounding
            # adds at most (n + 2) b 2^-53 in the breaches and their sum, n (n + 1)
            # (1 + b) 2^-53 in the gap (an interior |d| is at most 1 + b), n 2^-53
            # in fsum and (2n + 2b + 2r) 2^-53 in k +- r; r's second term bounds that.
            window = _theta_window(u, points, k, b + 2.0**-52 * (n + 2) ** 2 * (b + 3.0))
        best_total, best_code, best = scored[0], code, scored

    def visit(i, lo, hi, code):
        # digits i.. are fixed; [lo, hi] is their free interval, code their least completion's
        if (lo - slack > hi + slack or hi + slack <= window[0] or lo - slack >= window[1]
                or (best_total == 0.0 and code > best_code)):
            return
        if i == 0:
            return keep(code, lo, hi)
        v, place = u[i - 1], 3 ** (i - 1)
        for g in (_ZERO, _ACTIVE, _ONE):
            digits[i - 1] = g
            visit(i - 1, max(lo, v - _HI[g]), min(hi, v - _LO[g]), code + g * place)

    points = _breakpoints(u)
    digits, lo, hi = _seed(u, points, k), -math.inf, math.inf
    for v, g in zip(reversed(u), reversed(digits)):  # folded as visit folds them
        lo, hi = max(lo, v - _HI[g]), min(hi, v - _LO[g])
    keep(sum(g * 3**i for i, g in enumerate(digits)), lo, hi)
    visit(n, -math.inf, math.inf, 0)

    _, theta, violation = best
    digits = [best_code // 3**i % 3 for i in range(n)]
    y = np.array([v - theta if g == _ACTIVE else float(g == _ONE) for v, g in zip(u, digits)])
    return KKTCertificate(y=y, theta=theta, max_violation=violation)


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
    x = _as_scaled(x, spec)[0]
    h = 1e-6  # step in x units
    J = np.empty((spec.n, spec.n))
    for j in range(spec.n):
        step = np.zeros_like(x)
        step[j] = h
        yp = project(x + step, spec).y
        ym = project(x - step, spec).y
        J[:, j] = (yp - ym) / (2.0 * h)
    return J
