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

_DBL_MAX = float(np.finfo(np.float64).max)


def _is_integer(value):
    """True for a Python or numpy integer; bools are not integers here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value):
    """True for a Python or numpy float, or an int in float64's range; not a bool."""
    if isinstance(value, (float, np.floating)):
        return True
    return _is_integer(value) and -_DBL_MAX <= value <= _DBL_MAX


def _as_cardinality(k, n):
    """k as a Python int in [0, n]; bools and non-integers are rejected."""
    if not _is_integer(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    k = int(k)
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    return k


def _as_positive(value, name):
    """value as a Python float; anything but a positive finite real number
    (bools and strings included) is rejected with name in the message."""
    if not (_is_real(value) and value > 0 and math.isfinite(value)):  # NaN fails both
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def _as_finite(value, name):
    """value as a Python float, if it is a finite real number (not a bool)."""
    if not (_is_real(value) and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _as_count(value, name, least):
    """value as a Python int; anything but an integer >= least (bools, floats,
    strings and None included) is rejected with name in the message."""
    if not (_is_integer(value) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _as_float64(a, name):
    """a as a float64 array: the one cast of an array argument. TypeError,
    naming name and the dtype, for a complex array or a sequence numpy reads
    as one, where the cast would drop the imaginary part with a warning."""
    dtype = a.dtype if isinstance(a, np.ndarray) else np.asarray(a).dtype
    if dtype.kind == "c":
        raise TypeError(f"{name} must be real, got dtype {dtype}")
    return np.asarray(a, dtype=np.float64)


def _all_finite(a):
    """True unless an entry of the array a is NaN or infinite (an empty a
    passes); each caller raises its own "... NaN or Inf" message."""
    return np.isfinite(a).all()


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
        object.__setattr__(self, "n", _as_count(self.n, "n", 1))
        object.__setattr__(self, "k", _as_cardinality(self.k, self.n))
        object.__setattr__(self, "tau", _as_positive(self.tau, "tau"))


def _as_spec(spec):
    """spec itself, if it is a HypersimplexSpec (checked when built)."""
    if not isinstance(spec, HypersimplexSpec):
        raise TypeError("spec must be a HypersimplexSpec")
    return spec


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


def _as_score_vector(x):
    """x as a float64 array, if it is 1-D, non-empty and finite."""
    x = _as_float64(x, "score vector")
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D score vector, got shape {x.shape}")
    if x.size == 0:
        raise ValueError("score vector must be non-empty")
    if not _all_finite(x):
        raise ValueError("score vector contains NaN or Inf")
    return x


def _as_scaled(x, spec):
    """(x, x / spec.tau) for an entry point that takes a spec: TypeError unless spec is a
    HypersimplexSpec, then ValueError unless x is a length-n score vector with finite x / tau."""
    tau = _as_spec(spec).tau
    x = _as_score_vector(x)
    if x.size != spec.n:
        raise ValueError(f"score vector has length {x.size}, spec.n is {spec.n}")
    # x / tau (tau > 0) is monotone and correctly rounded, so it overflows
    # iff max|x| / tau does; Python floats divide without numpy's warning
    if not math.isfinite(float(np.maximum.reduce(np.abs(x))) / tau):
        raise ValueError("x / tau overflows float64; raise tau or rescale x")
    return x, x / tau


def hard_topk(x, k):
    """0/1 indicator of the k largest entries of x.

    Entries tied at the k-th largest value are admitted in ascending index
    order until exactly k are selected, so the result is deterministic.
    """
    x = _as_score_vector(x)
    n = x.size
    k = _as_cardinality(k, n)
    if k == 0:
        return np.zeros(n, dtype=np.int64)
    # every entry above the k-th largest value, then the ties at it in
    # ascending index order: a stable argsort's pick, in O(n)
    kth = np.partition(x, n - k)[n - k]
    above = x > kth
    out = above.astype(np.int64)
    out[np.flatnonzero(x == kth)[: k - np.count_nonzero(above)]] = 1
    return out


_RUNNING_SUM_OVERFLOW = "running sums of x / tau overflow float64; raise tau or rescale x"


def _prefix_sums(v):
    """[0, v_0, v_0 + v_1, ...]: the n + 1 running sums the threshold solve
    reads, accumulated left to right.

    Raises ValueError if the last running sum is not finite: a running sum
    overflows float64, or v holds NaN or Inf.
    """
    prefix = np.empty(v.shape[0] + 1)
    prefix[0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.accumulate(v, out=prefix[1:])  # the ufunc np.cumsum wraps
    # inf and NaN propagate, so the last sum is finite iff every one is
    if not math.isfinite(prefix[-1]):
        raise ValueError(_RUNNING_SUM_OVERFLOW)
    return prefix


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
# order and returns the same bits, so the tests compare the kernel against
# it. It is also project's threshold solve up to _WALK_MAX_N, where on a
# list of Python floats it skips numpy's fixed cost per call.
def _theta_from_sorted_py(u_sorted, prefix, k):
    # Two-pointer walk over breakpoints; a = coords pinned at one, [a, b) active.
    n = len(u_sorted)
    a = 0
    b = 0
    # g <= b up to rounding, and the kernel's tol bounds that rounding; when
    # tol < 1 no event before the one that activates u_(k-1) reaches k, so
    # the walk may start there: b = k, and the a saturations that the walk
    # takes strictly ahead of that activation
    kb = int(k)
    big = max(abs(u_sorted[0]), abs(u_sorted[-1]))
    if 0 < kb < n and 8.0 * _UNIT_ROUNDOFF * (n + 2) ** 2 * (big + 1.0) < 1.0:
        b = kb
        t = u_sorted[kb - 1]
        while u_sorted[a] - 1.0 > t:
            a += 1
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
    """u sorted descending, as project's numpy route sorts it: a reversed
    view of numpy's sorted copy."""
    # np.sort(u)[::-1] without np.sort's wrapper: the same copy and sort
    u_sorted = u.copy()
    u_sorted.sort()
    return u_sorted[::-1]


def _clip_shifted(u, theta, out=None):
    """clip(u - theta, 0, 1) for finite u, written into out if given. As
    |u - theta| <= DBL_MAX + |theta|, it rounds to a finite float unless
    |theta| reaches 2^970, half an ulp of DBL_MAX; then it may overflow, but
    only to an infinity that the clip maps to the bound it should. That O(1)
    test gates the errstate that silences numpy's warning."""
    if abs(theta) < 2.0**970:
        d = np.subtract(u, theta, out=out)
    else:
        with np.errstate(over="ignore"):
            d = np.subtract(u, theta, out=out)
    # ndarray.clip is the clip ufunc, which keeps -0.0; np.maximum and
    # np.minimum would turn it into +0.0
    return d.clip(0.0, 1.0, out=d)


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
    n = 64 the sort, running sums and a scalar walk run on Python floats;
    above it numpy's sort and sums feed a 128-way search that brackets the
    breakpoint and one vectorised pass over about 128 breakpoints that pins
    it. That split is the only solver choice, and both give the same theta
    to the bit. O(n log n) total, dominated by the value sort.

    Raises TypeError if spec is not a HypersimplexSpec, and ValueError for
    a score vector that is not 1-D of length n, holds NaN or Inf, or whose
    x / tau or running sums overflow float64. The spec and the shape are
    checked up front. For 0 < k < n the other checks ride on the solve: the
    last running sum of the sorted x / tau is non-finite exactly when one
    of them fails, and only then does ``_as_scaled`` run, so the
    messages and their order are those of every other entry point.
    """
    n, k, tau = _as_spec(spec).n, spec.k, spec.tau
    x = _as_float64(x, "score vector")
    if x.shape != (n,) or k == 0 or k == n:
        # a wrong shape always fails these checks; the corners read no
        # running sum, so they need all of them
        return _degenerate(_as_scaled(x, spec)[1], spec)
    try:
        if n <= _WALK_MAX_N:
            # one list of Python floats, which divide without numpy's
            # overflow warning; x / 1.0 is x to the bit
            u_sorted = x.tolist()
            if tau != 1.0:
                u_sorted = [v / tau for v in u_sorted]
            u_sorted.sort(reverse=True)
            prefix = [0.0, *itertools.accumulate(u_sorted)]
            # inf and NaN propagate, so the last sum is finite iff every
            # addend and every running sum is
            if not math.isfinite(prefix[-1]):
                raise ValueError(_RUNNING_SUM_OVERFLOW)
            theta = _theta_from_sorted_py(u_sorted, prefix, float(k))
            u = x if tau == 1.0 else x / tau  # finite, as its running sums are
        else:
            with np.errstate(over="ignore"):  # reported below
                u = x / tau
            # u_sorted lives until project returns: freed before _classify
            # allocates, its pages go back to the system and fault in
            # again; at n = 2^20 on a 2-CPU Xeon VM that raised the minor
            # faults per call from ~2,300 to 3,300-4,300
            u_sorted = _sort_desc(u)
            theta = _theta_from_sorted_numpy(u_sorted, _prefix_sums(u_sorted), float(k))
    except ValueError:
        # the last running sum is not finite. NaN or Inf in x and an
        # overflowing x / tau raise their own messages here; otherwise a
        # running sum overflowed
        _as_scaled(x, spec)
        raise
    # y goes into u's buffer, unless u is the caller's x
    return _classify(_clip_shifted(u, theta, None if u is x else u), theta, spec)


_BISECT_TOL = 1e-12


def project_bisect(x, spec):
    """Same minimizer as ``project``, found by bisection on the threshold.

    Bisects theta over [min(u) - 1, max(u)] using the monotone clip-sum map,
    stops once |sum(y) - k| <= _BISECT_TOL, then snaps theta to the exact
    solution of the bracketing segment. Shares no solver code with
    ``project``; used as an independent cross-check. Rejects the inputs
    ``project`` rejects, with the same ValueError.
    """
    u = _as_scaled(x, spec)[1]
    if spec.k == 0 or spec.k == spec.n:
        return _degenerate(u, spec)
    _prefix_sums(_sort_desc(u))  # project's ValueError if a running sum overflows
    k = float(spec.k)
    lo = float(np.min(u)) - 1.0  # clip sum = n here
    hi = float(np.max(u))  # clip sum = 0 here
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g = float(np.sum(_clip_shifted(u, mid)))
        if abs(g - k) <= _BISECT_TOL:
            break
        if g > k:
            lo = mid
        else:
            hi = mid

    # snap: solve theta exactly on the active composition found at mid
    y_mid = _clip_shifted(u, mid)
    act = (y_mid > 0.0) & (y_mid < 1.0)
    m = int(np.count_nonzero(act))
    if m > 0:
        n_one = int(np.count_nonzero(y_mid >= 1.0))
        theta = (n_one + float(np.sum(u[act])) - k) / m
        # fall back to the bisection iterate if snapping misjudged the segment
        if abs(np.sum(_clip_shifted(u, theta)) - k) > abs(np.sum(y_mid) - k):
            theta = mid
    else:
        theta = mid
    return _classify(_clip_shifted(u, theta), theta, spec)


_NUMPY = SimpleNamespace(name="numpy")


def get_backend():
    """The kernel implementation in use: an object whose ``name`` is "numpy".

    There is only one implementation. This exists because the benchmark
    records the name in the metadata of every run.
    """
    return _NUMPY
