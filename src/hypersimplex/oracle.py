"""Slow reference oracles used to certify the fast solvers.

Everything here trades speed for independence: the projection oracle
enumerates all 3^n boundary patterns instead of sorting, the top-k oracle
tries every k-subset, and the Jacobian oracle uses finite differences.
None of them share solver code with the production paths, so agreement
between the two is strong evidence of correctness. Test-only; never
imported by the fast paths.

The pattern table the projection oracle enumerates depends on n alone, so
it is built on the first call for each n and kept (`_patterns`): one int8
digit per coordinate and pattern plus two int8 counts per pattern, 7.4 MB
at n = 12 (6.4 MB of digits) and about 11 MB over every n up to
MAX_ORACLE_N. Nothing is built at import. Each call then only sums u over
every pattern's interior set and scores the patterns chunk by chunk.
"""

import functools
import itertools
from dataclasses import dataclass

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

# Patterns scored per vectorised step of brute_force_project; at n = 12 each
# float64 work array is then 0.8 MB, and 3^12 patterns score ~25% faster
# than with 65536 per step (6.3 MB arrays) on a 2-CPU Xeon VM.
_CHUNK = 8192

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


@functools.lru_cache(maxsize=MAX_ORACLE_N)
def _patterns(n):
    """Every boundary pattern of n coordinates, in code order.

    Row c holds the base-3 digits of code c, least significant first
    (0 zero, 1 interior, 2 one), as int8; m and n_one count each row's
    interior and one digits. The arrays are shared, so they are read-only.
    """
    digits = np.empty((3**n, n), dtype=np.int8)
    for i in range(n):
        digits[:, i] = np.tile(np.repeat(np.arange(3, dtype=np.int8), 3**i), 3 ** (n - 1 - i))
    m = np.count_nonzero(digits == _ACTIVE, axis=1).astype(np.int8)
    n_one = np.count_nonzero(digits == _ONE, axis=1).astype(np.int8)
    for a in (digits, m, n_one):
        a.flags.writeable = False
    return digits, m, n_one


def _active_sums(u):
    """Sum of u over the interior coordinates of every pattern, in code order,
    accumulated coordinate by coordinate."""
    s = np.zeros(1)
    for ui in u:
        s = (np.array([0.0, ui, 0.0])[:, None] + s[None, :]).ravel()
    return s


def _theta_for_patterns(u, k, digits, m, n_one, s_act):
    """Best threshold per pattern row; interior coordinates pin it exactly."""
    theta = np.empty(m.shape[0])
    has_act = m > 0
    theta[has_act] = (n_one[has_act] + s_act[has_act] - k) / m[has_act]
    if not np.all(has_act):
        # no interior coordinate: any theta in [max_zero u, min_one u - 1] works
        rows = digits[~has_act]
        lo = np.max(np.where(rows == _ZERO, u, -np.inf), axis=1)
        hi = np.min(np.where(rows == _ONE, u, np.inf), axis=1) - 1.0
        both = np.isfinite(lo) & np.isfinite(hi)
        theta[~has_act] = np.where(both, 0.5 * (lo + hi), np.where(np.isfinite(lo), lo, hi))
    return theta


def _pattern_violations(u, k, theta, digits, n_one):
    """Per-coordinate optimality breach and sum-constraint gap per pattern row.

    A coordinate's breach is the distance from d = u - theta to its digit's
    interval [_LO, _HI]; the gap is |sum(y) - k|.
    """
    d = u[None, :] - theta[:, None]
    per_coord = _LO[digits]
    np.subtract(per_coord, d, out=per_coord)
    np.maximum(per_coord, 0.0, out=per_coord)
    over = _HI[digits]
    np.subtract(d, over, out=over)
    np.maximum(over, 0.0, out=over)
    per_coord += over
    # interior y is d, the rest contribute 0 (d * False is +-0.0, which adds exactly)
    np.multiply(d, digits == _ACTIVE, out=d)
    gap = np.abs(n_one + d.sum(axis=1) - k)
    return per_coord, gap


def brute_force_project(x, spec):
    """Projection by exhaustive search over all 3^n boundary patterns.

    For every assignment of coordinates to {zero, interior, one} the
    threshold is solved in closed form and the optimality conditions are
    scored; the least-violating pattern wins (smallest pattern code on
    ties, so the result is deterministic). Refuses n > MAX_ORACLE_N, x / tau
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
    if float(np.max(np.abs(u))) >= 2.0**53:
        raise ValueError("the oracle needs |x / tau| < 2^53, where u - 1 != u")
    k = float(spec.k)
    digits, m, n_one = _patterns(spec.n)
    s_act = _active_sums(u)

    best_total = np.inf
    best_code = -1
    for start in range(0, digits.shape[0], _CHUNK):
        rows = slice(start, start + _CHUNK)
        theta = _theta_for_patterns(u, k, digits[rows], m[rows], n_one[rows], s_act[rows])
        per_coord, gap = _pattern_violations(u, k, theta, digits[rows], n_one[rows])
        total = per_coord.sum(axis=1) + gap
        i = int(np.argmin(total))  # first index wins ties within the chunk
        if total[i] < best_total:
            best_total = float(total[i])
            best_code = start + i

    rows = slice(best_code, best_code + 1)
    theta = _theta_for_patterns(u, k, digits[rows], m[rows], n_one[rows], s_act[rows])
    per_coord, gap = _pattern_violations(u, k, theta, digits[rows], n_one[rows])
    worst = max(float(per_coord.max()), float(gap[0]))

    best = digits[best_code]
    y = np.where(best == _ONE, 1.0, 0.0)
    y[best == _ACTIVE] = u[best == _ACTIVE] - theta[0]
    return KKTCertificate(y=y, theta=float(theta[0]), max_violation=worst)


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
