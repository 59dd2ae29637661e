"""Hot numeric kernels, in two interchangeable flavors.

The numba flavor JIT-compiles the inner loops; the numpy flavor is a
vectorized fallback with identical semantics. The active flavor is chosen
at import time from the HYPERSIMPLEX_BACKEND environment variable
("numba" or "numpy", default numba when importable). Both stay accessible
through ``get_backend`` so benchmarks can compare them in one process.
"""

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # numba is optional (the "numba" extra)
    HAVE_NUMBA = False

ENV_FLAG = "HYPERSIMPLEX_BACKEND"


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
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _theta_from_sorted_numpy(u_sorted, prefix, k):
    """Bracketed breakpoint scan.

    Every event's g is formed with the same arithmetic as the scalar walk,
    and the window check is exact, so both backends take the same branch
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
        s = prefix[b] - prefix[idx]
        m = b - idx
        return idx + s - m * t, (idx, s, m, t)

    j, g, sat, start = _first_hit(sat_g, 0, n, k, tol)
    m_sat = sat[2]  # saturation j' sees b = j' + m activations
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
        s = prefix[idx] - prefix[a]
        m = idx - a
        return a + s - m * t, (a, s, m, t)

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
    i = int((g >= k).argmax())
    return (start + i if g[i] >= k else hi), g, comp, start


def _theta_at(comp, e, k):
    # theta in closed form on the segment that event e of a window opens
    a, s, m, t = comp
    if m[e] > 0:
        return float(((a[e] if np.ndim(a) else a) + s[e] - k) / m[e])
    return float(t[e])


def _theta_from_sorted_py(u_sorted, prefix, k):
    # Two-pointer walk over breakpoints; a = coords pinned at one, [a, b) active.
    n = u_sorted.shape[0]
    a = 0
    b = 0
    while a < n or b < n:
        t_act = u_sorted[b] if b < n else -np.inf
        t_sat = u_sorted[a] - 1.0 if a < n else -np.inf
        t = t_act if t_act >= t_sat else t_sat
        s_act = prefix[b] - prefix[a]
        m = b - a
        g = a + s_act - m * t
        if g >= k:
            if m > 0:
                return (a + s_act - k) / m
            return t
        if t_act >= t_sat:
            b += 1
        else:
            a += 1
    return u_sorted[n - 1] - 1.0  # unreachable for 0 < k < n


def _center_on_active_numpy(v, active_idx, n):
    out = np.zeros(n, dtype=np.float64)
    if active_idx.shape[0] > 0:
        va = v[active_idx]
        va -= va.mean()
        out[active_idx] = va
    return out


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


def _pav_decreasing_py(v):
    # Stack of blocks as (running sum, count, start); merge while a block mean
    # rises above its left neighbor, which violates the nonincreasing fit.
    n = v.shape[0]
    sums = np.empty(n, dtype=np.float64)
    counts = np.empty(n, dtype=np.int64)
    starts = np.empty(n, dtype=np.int64)
    nb = 0
    for i in range(n):
        sums[nb] = v[i]
        counts[nb] = 1
        starts[nb] = i
        nb += 1
        while nb > 1 and sums[nb - 2] / counts[nb - 2] < sums[nb - 1] / counts[nb - 1]:
            sums[nb - 2] += sums[nb - 1]
            counts[nb - 2] += counts[nb - 1]
            nb -= 1
    fitted = np.empty(n, dtype=np.float64)
    means = np.empty(nb, dtype=np.float64)
    pos = 0
    for j in range(nb):
        mean = sums[j] / counts[j]
        means[j] = mean
        for _ in range(counts[j]):
            fitted[pos] = mean
            pos += 1
    return fitted, starts[:nb].copy(), means


if HAVE_NUMBA:
    _theta_from_sorted_numba = njit(cache=True)(_theta_from_sorted_py)
    _center_on_active_numba = njit(cache=True)(_center_on_active_py)
    _pav_decreasing_numba = njit(cache=True)(_pav_decreasing_py)


class Backend:
    """Bundle of kernel implementations sharing one calling convention."""

    def __init__(self, name, theta_from_sorted, center_on_active, pav_decreasing):
        self.name = name
        self.theta_from_sorted = theta_from_sorted
        self.center_on_active = center_on_active
        self.pav_decreasing = pav_decreasing

    def __repr__(self):
        return f"Backend({self.name!r})"


_BACKENDS = {
    "numpy": Backend(
        "numpy", _theta_from_sorted_numpy, _center_on_active_numpy, _pav_decreasing_py
    )
}
if HAVE_NUMBA:
    _BACKENDS["numba"] = Backend(
        "numba", _theta_from_sorted_numba, _center_on_active_numba, _pav_decreasing_numba
    )


def available_backends():
    return tuple(sorted(_BACKENDS))


def get_backend(name=None):
    """Resolve a backend by name; None means the active (env-selected) one."""
    if name is None:
        return ACTIVE
    if isinstance(name, Backend):
        return name
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        )
    return _BACKENDS[name]


def _select_active():
    requested = os.environ.get(ENV_FLAG, "").strip().lower()
    if requested in ("", "auto"):
        return _BACKENDS["numba"] if HAVE_NUMBA else _BACKENDS["numpy"]
    if requested not in _BACKENDS:
        raise ValueError(
            f"{ENV_FLAG}={requested!r} not recognized; "
            f"available: {', '.join(available_backends())}"
        )
    return _BACKENDS[requested]


ACTIVE = _select_active()


def warmup():
    """Trigger JIT compilation of the numba kernels (no-op for numpy)."""
    if not HAVE_NUMBA:
        return
    u = np.array([2.0, 1.0, 0.0])
    prefix = np.array([0.0, 2.0, 3.0, 3.0])
    be = _BACKENDS["numba"]
    be.theta_from_sorted(u, prefix, 1.0)
    be.center_on_active(u, np.array([0, 1], dtype=np.int64), 3)
    be.pav_decreasing(u)
