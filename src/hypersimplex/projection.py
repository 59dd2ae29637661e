"""Hard top-k selection and Euclidean projection onto the (n, k)-hypersimplex.

The hypersimplex is the polytope {y in [0,1]^n : sum(y) = k}. Projecting
x / tau onto it gives a temperature-scaled, differentiable relaxation of
the indicator of the k largest entries of x: the solution has the closed
form y_i = clip(x_i / tau - theta, 0, 1) with theta chosen so the
coordinates sum to k. ``project`` finds theta by an O(n log n) search over
the breakpoints of the sorted scores; ``project_bisect`` is an independent
bisection solver kept for cross-checking.
"""

import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

# Coordinates within this distance of 0 or 1 are classified as saturated.
BOUNDARY_TOL = 1e-12


def _as_cardinality(k, n):
    """k as a Python int in [0, n]; bools and non-integers are rejected."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    k = int(k)
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    return k


def _as_temperature(tau):
    """tau as a Python float; zero, negative, infinite and NaN are rejected."""
    tau = float(tau)
    if not (tau > 0.0 and math.isfinite(tau)):  # also rejects NaN
        raise ValueError(f"tau must be positive and finite, got {tau}")
    return tau


@dataclass(frozen=True)
class HypersimplexSpec:
    """Dimension n, target cardinality k and temperature tau of a projection.

    tau > 0 scales the input; small tau drives the projection toward the
    hard top-k vertex, large tau toward the uniform point k/n. theta values
    reported by the solvers are the clip offset (half the equality-constraint
    multiplier of the underlying quadratic program, not the multiplier
    itself).
    """

    n: int
    k: int
    tau: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        object.__setattr__(self, "k", _as_cardinality(self.k, self.n))
        object.__setattr__(self, "tau", _as_temperature(self.tau))


@dataclass
class ProjectionResult:
    """Projected vector plus the index partition and threshold.

    y sums to k with every entry clamped to [0, 1]. active / at_one /
    at_zero partition range(n) (0-based): at_one and at_zero collect the
    coordinates within BOUNDARY_TOL of the bounds, active the strictly
    interior ones where y_i = x_i / tau - theta.
    """

    y: np.ndarray
    active: np.ndarray
    at_one: np.ndarray
    at_zero: np.ndarray
    theta: float
    spec: HypersimplexSpec

    @property
    def is_degenerate_saturated(self):
        """True when 0 < k < n but no coordinate is strictly interior.

        Happens only with duplicated inputs; downstream gradients are zero
        there and callers may want to surface the event.
        """
        return self.active.size == 0 and 0 < self.spec.k < self.spec.n


def _as_score_vector(x, spec=None):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D score vector, got shape {x.shape}")
    if x.size == 0:
        raise ValueError("score vector must be non-empty")
    # min and max are NaN if any entry is, and infinite if any entry is;
    # the reduce ufuncs skip ndarray.min/max's Python wrappers
    lo, hi = float(np.minimum.reduce(x)), float(np.maximum.reduce(x))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("score vector contains NaN or Inf")
    if spec is not None and x.size != spec.n:
        raise ValueError(f"score vector has length {x.size}, spec.n is {spec.n}")
    # x / tau (tau > 0) is monotone and correctly rounded, so it overflows
    # iff max|x| / tau does; Python floats divide without numpy's warning
    if spec is not None and not math.isfinite(max(hi, -lo) / spec.tau):
        raise ValueError("x / tau overflows float64; raise tau or rescale x")
    return x


def hard_topk(x, k):
    """0/1 indicator of the k largest entries of x.

    Entries tied at the k-th largest value are admitted in ascending index
    order until exactly k are selected, so the result is deterministic.
    """
    x = _as_score_vector(x)
    n = x.size
    k = _as_cardinality(k, n)
    out = np.zeros(n, dtype=np.int64)
    if k > 0:
        # stable argsort of -x keeps ascending index order among ties
        out[np.argsort(-x, kind="stable")[:k]] = 1
    return out


_RUNNING_SUM_OVERFLOW = "running sums of x / tau overflow float64; raise tau or rescale x"


def _prefix_sums(v):
    """[0, v_0, v_0 + v_1, ...]: the n + 1 running sums the threshold solve
    reads, accumulated left to right.

    v is sorted, so its ends bound |v|. Raises ValueError if a running sum
    overflows float64.
    """
    n = v.shape[0]
    prefix = np.empty(n + 1)
    prefix[0] = 0.0
    # |each running sum| <= n * max|v| up to rounding, so numpy can warn of
    # an overflow only when that bound (doubled for the rounding) overflows
    big = max(abs(float(v[0])), abs(float(v[-1])))
    if math.isfinite(2.0 * n * big):
        np.add.accumulate(v, out=prefix[1:])  # the ufunc np.cumsum wraps
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.accumulate(v, out=prefix[1:])
    # inf and NaN propagate, so the last sum is finite iff every one is
    if not math.isfinite(prefix[-1]):
        raise ValueError(_RUNNING_SUM_OVERFLOW)
    return prefix


def _check_running_sums(u):
    """Raise project's ValueError when the running sums of u sorted
    descending overflow float64: the inputs project rejects, for the
    solvers that never form those sums."""
    _prefix_sums(np.sort(u)[::-1])


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


# The scalar walk does the arithmetic of the numpy kernel in the same
# order, so the tests compare the kernel against it. It is also the small-n
# threshold solve: on the lists of ``ndarray.tolist()`` it skips numpy's
# fixed cost per call, and on arrays it returns the same value.
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


# Largest n whose threshold the scalar walk solves: its loop on Python
# floats beats the fixed cost of the numpy kernel's ~27 numpy calls up to
# here, and loses above it once k nears n.
_WALK_MAX_N = 64


def _sort_desc(u):
    """u sorted descending: a list of Python floats up to _WALK_MAX_N, a
    reversed view of numpy's sorted copy above."""
    if u.shape[0] <= _WALK_MAX_N:
        return sorted(u.tolist(), reverse=True)
    # np.sort(u)[::-1] without np.sort's wrapper: the same copy and sort
    u_sorted = u.copy()
    u_sorted.sort()
    return u_sorted[::-1]


def _solve_theta(u_sorted, k):
    """theta with sum(clip(u - theta, 0, 1)) = k, at the first breakpoint
    of the walk over u_sorted, as ``_sort_desc`` returns it, that reaches k.

    Up to _WALK_MAX_N the running sums and the walk run on Python floats,
    which skips numpy's fixed cost per call; above it numpy sums and the
    bracketed kernel solves. Both give the same bits: the sorted values and
    the left-to-right sums are the same, and both solvers return a zero
    theta as 0.0, whichever signed zero a sort put first. Raises ValueError
    if a running sum overflows.
    """
    if len(u_sorted) <= _WALK_MAX_N:
        prefix = [0.0, *itertools.accumulate(u_sorted)]
        # the addends are finite, so the last sum is finite iff every one is
        if not math.isfinite(prefix[-1]):
            raise ValueError(_RUNNING_SUM_OVERFLOW)
        return _theta_from_sorted_py(u_sorted, prefix, k)
    return _theta_from_sorted_numpy(u_sorted, _prefix_sums(u_sorted), k)


def _classify(y, theta, spec):
    at_one = y >= 1.0 - BOUNDARY_TOL
    at_zero = y <= BOUNDARY_TOL
    # the two masks are disjoint, so they agree exactly where both are False
    active = at_one == at_zero
    return ProjectionResult(
        y=y,
        active=active.nonzero()[0],
        at_one=at_one.nonzero()[0],
        at_zero=at_zero.nonzero()[0],
        theta=float(theta),
        spec=spec,
    )


def _degenerate(u, spec):
    # k = 0 and k = n are hypersimplex "corners" with an exact answer.
    if spec.k == 0:
        return _classify(np.zeros(spec.n), np.max(u), spec)
    return _classify(np.ones(spec.n), np.min(u) - 1.0, spec)


def project(x, spec):
    """Euclidean projection of x / tau onto {y in [0,1]^n : sum(y) = k}.

    Returns the unique minimizer of ||y - x/tau||^2 over the hypersimplex,
    computed by sorting the values of x / tau and finding the first
    breakpoint of the piecewise-linear map
    theta -> sum(clip(x_i/tau - theta, 0, 1)) where it reaches k. Up to
    n = 64 the sort and a scalar walk over the breakpoints run on Python
    floats; above that a 128-way search brackets it and one vectorised pass
    over a window of about 128 breakpoints pins it, without building the
    merged list of all 2n breakpoints. Both give the same theta to the bit.
    O(n log n) total, dominated by the value sort. Raises ValueError if
    x / tau or its running sums overflow float64.
    """
    x = _as_score_vector(x, spec)
    u = x / spec.tau
    if spec.k == 0 or spec.k == spec.n:
        return _degenerate(u, spec)
    # u_sorted is not read after the solve, but it lives until project
    # returns: freed before _classify allocates, its pages go back to the
    # system and fault in again; at n = 2^20 on a 2-CPU Xeon VM that raised
    # the minor faults per call from ~2,300 to 3,300-4,300
    u_sorted = _sort_desc(u)
    theta = _solve_theta(u_sorted, float(spec.k))
    # u is ours: clip y into its buffer. ndarray.clip is the clip ufunc,
    # which keeps -0.0; np.maximum/np.minimum would turn it into +0.0
    y = np.subtract(u, theta, out=u).clip(0.0, 1.0, out=u)
    return _classify(y, theta, spec)


_BISECT_TOL = 1e-12


def project_bisect(x, spec):
    """Same minimizer as ``project``, found by bisection on the threshold.

    Bisects theta over [min(u) - 1, max(u)] using the monotone clip-sum map,
    stops once |sum(y) - k| <= _BISECT_TOL, then snaps theta to the exact
    solution of the bracketing segment. Shares no solver code with
    ``project``; used as an independent cross-check. Rejects the inputs
    ``project`` rejects, with the same ValueError.
    """
    x = _as_score_vector(x, spec)
    u = x / spec.tau
    if spec.k == 0 or spec.k == spec.n:
        return _degenerate(u, spec)
    _check_running_sums(u)
    k = float(spec.k)
    lo = float(np.min(u)) - 1.0  # clip sum = n here
    hi = float(np.max(u))  # clip sum = 0 here
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g = float(np.sum(np.clip(u - mid, 0.0, 1.0)))
        if abs(g - k) <= _BISECT_TOL:
            break
        if g > k:
            lo = mid
        else:
            hi = mid

    # snap: solve theta exactly on the active composition found at mid
    d = u - mid
    act = (d > 0.0) & (d < 1.0)
    m = int(np.count_nonzero(act))
    if m > 0:
        n_one = int(np.count_nonzero(d >= 1.0))
        theta = (n_one + float(np.sum(u[act])) - k) / m
        # fall back to the bisection iterate if snapping misjudged the segment
        if abs(np.sum(np.clip(u - theta, 0.0, 1.0)) - k) > abs(
            np.sum(np.clip(u - mid, 0.0, 1.0)) - k
        ):
            theta = mid
    else:
        theta = mid
    y = np.clip(u - theta, 0.0, 1.0)
    return _classify(y, theta, spec)


_NUMPY = SimpleNamespace(name="numpy")


def get_backend():
    """The kernel implementation in use: an object whose ``name`` is "numpy".

    There is only one implementation. This exists because the benchmark
    records the name in the metadata of every run.
    """
    return _NUMPY
