"""Hot numeric kernels of the hypersimplex projection.

The clip threshold has two solvers with bit-identical results:
``_theta_from_sorted_py``, a scalar breakpoint walk that ``projection``
runs on Python floats for small n, and ``_theta_from_sorted_numpy``, a
bracketed search for large n. ``_center_on_active_numpy`` applies the
Jacobian, and ``_pav_decreasing`` is the pool-adjacent-violators loop
behind the isotonic route.
"""

import math
from types import SimpleNamespace

import numpy as np


# ---------------------------------------------------------------------------
# Threshold solve for the box-constrained sum-k projection.
#
# Given u sorted descending, find theta with sum_i clip(u_i - theta, 0, 1) = k.
# The clip sum is piecewise linear and nonincreasing in theta; its breakpoints
# are the events u_i (coordinate i activates) and u_i - 1 (coordinate i hits
# one). Walked in decreasing order, activations ahead of saturations at equal
# value, each event t sees a composition: a coordinates at one, [a, b) active.
# Then g = a + (P[b] - P[a]) - (b - a) * t is the clip sum at t, exact from the
# prefix sums P, and the first event where g reaches k yields theta in closed
# form. The scalar walk ``_theta_from_sorted_py`` does exactly that.
#
# The numpy kernel finds the same event without merging the two sequences.
# Each kind is already in order, and g is nondecreasing along each, so a
# 128-way search brackets a kind's first event that reaches k and one
# vectorised pass over the 128 events below the bracket finds it; below
# n = 128 the pass covers the whole sequence. Saturation j sees a = j, and
# b, the activations at or above u_j - 1, is one searchsorted. So the
# saturations are searched first. The activations that sit between
# saturations j - 1 and j in the walk's order all see a = j, and only they
# can come ahead of the first saturation j that reaches k. They are searched
# second, with a fixed; their first hit, if any, is the walk's event, and
# saturation j otherwise.
#
# Rounding makes g nondecreasing only to within ``tol``: the sequential prefix
# sums are off by at most n * eps * sum|u| each, the per-event arithmetic by a
# few eps * n * max|u|, and rounding u_j - 1 shifts g by eps * (max|u| + 1) per
# saturation. So an event whose g lies more than tol below k proves that no
# earlier event reaches k; a window widens until its first event does.
# ---------------------------------------------------------------------------

_WINDOW = 128
# a Python float, so that tol and k - tol stay Python floats
_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2


def _theta_from_sorted_numpy(u_sorted, prefix, k):
    """Bracketed breakpoint scan.

    Every event's g is formed with the same arithmetic as the scalar walk,
    and the window check is exact, so kernel and walk take the same branch
    even when the clip sum plateaus exactly at k and theta is a whole
    interval.
    """
    n = u_sorted.shape[0]
    act_asc = np.ascontiguousarray(u_sorted[::-1])
    # twice the rounding error of g plus its drift; see the comment above
    big = max(abs(float(act_asc[0])), abs(float(act_asc[-1])))
    tol = 8.0 * _UNIT_ROUNDOFF * (n + 2) ** 2 * (big + 1.0)

    def sat_g(idx):
        # saturations j = idx, with b activations at or above t = u_j - 1
        t = u_sorted[idx] - 1.0
        b = n - act_asc.searchsorted(t, "left")
        m = b - idx
        base = idx + (prefix[b] - prefix[idx])
        return base - m * t, (base, m, t)

    j, g, sat, start = _first_hit(sat_g, 0, n, k, tol)
    m_sat = sat[1]  # saturation j' sees b = j' + m activations
    # only activations ahead of saturation j (all, if none reaches k) can
    # come first in the walk
    hi = j + int(m_sat[j - start]) if j < n else n
    e = j - 1 - start
    if j == 0 or g[e] < k - tol:
        # nothing ahead of saturation j - 1 reaches k either; the activations
        # between it and saturation j all see a = j
        lo = j - 1 + int(m_sat[e]) if j > 0 else 0
        sat_asc = None
    else:
        # saturation j - 1 misses k by less than rounding: search them all
        lo = 0
        sat_asc = u_sorted[:j][::-1] - 1.0

    def act_g(idx):
        # activations i = idx, with a saturations strictly above t = u_i
        t = u_sorted[idx]
        a = j if sat_asc is None else j - sat_asc.searchsorted(t, "right")
        m = idx - a
        base = a + (prefix[idx] - prefix[a])
        return base - m * t, (base, m, t)

    if lo < hi:
        i, _, act, start_a = _first_hit(act_g, lo, hi, k, tol)
        if i < hi:
            return _theta_at(act, i - start_a, k)
    if j < n:
        return _theta_at(sat, j - start, k)
    # rounding can leave g just under k = n at the final event
    return float(u_sorted[n - 1] - 1.0)


def _first_hit(g_at, floor, hi, k, tol):
    """First index in [floor, hi) whose event reaches k, or hi if none.

    g_at(idx) gives the clip sums and compositions of one kind's events at
    the indices idx; no event before floor reaches k. Also returns g and the
    compositions on a window starting at ``start`` that holds the result
    and, above floor, the index before it.
    """
    lo, end = floor, hi
    while end - lo > _WINDOW:
        # the probe at end reached k (end == hi: none did), lo - 1 missed
        idx = np.linspace(lo, end - 1, _WINDOW).astype(np.int64)
        hit = g_at(idx)[0] >= k
        j = int(hit.argmax())
        if hit[j]:
            end = int(idx[j])
        else:
            j = _WINDOW
        if j > 0:
            lo = int(idx[j - 1]) + 1
    start = max(end - _WINDOW, floor)
    while True:
        g, comp = g_at(np.arange(start, min(end + 1, hi)))
        if start == floor or g[0] < k - tol:
            break
        start = max(2 * start - end, floor)
    hit = g >= k
    i = int(hit.argmax())
    return (start + i if hit[i] else hi), g, comp, start


def _theta_at(comp, e, k):
    # theta = (base - k) / m in closed form, base = a + (P[b] - P[a]), on the
    # segment that event e of a window opens; Python floats round as numpy's do
    base, m, t = comp
    m_e = int(m[e])
    if m_e > 0:
        return float((float(base[e]) - k) / m_e)
    return float(t[e]) + 0.0  # see _theta_from_sorted_py


def _center_on_active_numpy(v, active_idx, n):
    out = np.zeros(n, dtype=np.float64)
    if active_idx.shape[0] > 0:
        va = v[active_idx]
        # the pairwise sum and division of va.mean(), without its wrapper
        va -= va.sum() / va.shape[0]
        out[active_idx] = va
    return out


# Scalar walks. The tests compare the numpy kernels against them, so each
# does the same arithmetic in the same order as its kernel.
# ``_theta_from_sorted_py`` is also the small-n threshold solve: on the
# lists of ``ndarray.tolist()`` it skips numpy's fixed cost per call, and
# on arrays it returns the same value.
def _theta_from_sorted_py(u_sorted, prefix, k):
    # Two-pointer walk over breakpoints; a = coords pinned at one, [a, b) active.
    n = len(u_sorted)
    a = 0
    b = 0
    while a < n or b < n:
        t_act = u_sorted[b] if b < n else -math.inf
        t_sat = u_sorted[a] - 1.0 if a < n else -math.inf
        t = t_act if t_act >= t_sat else t_sat
        s_act = prefix[b] - prefix[a]
        m = b - a
        g = a + s_act - m * t
        if g >= k:
            if m > 0:
                return (a + s_act - k) / m
            # theta is the value u_b; + 0.0 turns a -0.0 into 0.0, so the
            # sign does not depend on how the sort ordered tied zeros
            return t + 0.0
        if t_act >= t_sat:
            b += 1
        else:
            a += 1
    return u_sorted[n - 1] - 1.0  # unreachable for 0 < k < n


def _center_on_active_py(v, active_idx, n):
    out = np.zeros(n, dtype=np.float64)
    m = active_idx.shape[0]
    if m == 0:
        return out
    s = 0.0
    for j in range(m):
        s += v[active_idx[j]]
    mean = s / m
    for j in range(m):
        i = active_idx[j]
        out[i] = v[i] - mean
    return out


def _pav_decreasing(v):
    # Stack of blocks as (running sum, count, start); merge while a block mean
    # rises above its left neighbor, which violates the nonincreasing fit.
    sums, counts, starts = [], [], []
    for i, value in enumerate(v.tolist()):
        sums.append(value)
        counts.append(1)
        starts.append(i)
        while len(sums) > 1 and sums[-2] / counts[-2] < sums[-1] / counts[-1]:
            total, count = sums.pop(), counts.pop()
            starts.pop()
            sums[-1] += total
            counts[-1] += count
    means = np.array(sums, dtype=np.float64) / np.array(counts, dtype=np.int64)
    return np.repeat(means, counts), np.array(starts, dtype=np.int64), means


_NUMPY = SimpleNamespace(name="numpy")


def get_backend():
    """The kernel implementation in use: an object whose ``name`` is "numpy".

    There is only one implementation. This exists because the benchmark
    records the name in the metadata of every run.
    """
    return _NUMPY
