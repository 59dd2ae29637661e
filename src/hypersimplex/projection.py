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

import numpy as np

from . import _kernels

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


# Largest n whose threshold the scalar walk solves: its loop on Python
# floats beats the fixed cost of the numpy kernel's ~27 numpy calls up to
# here, and loses above it once k nears n.
_WALK_MAX_N = 64


def _solve_theta(u, k):
    """theta with sum(clip(u - theta, 0, 1)) = k, at the first breakpoint
    of the walk over u sorted descending that reaches k, and u so sorted
    (a list up to _WALK_MAX_N, an array above).

    Up to _WALK_MAX_N the sort, the running sums and the walk run on Python
    floats, which skips numpy's fixed cost per call; above it numpy sorts
    and sums and the bracketed kernel solves. Both give the same bits: the
    sorted values and the left-to-right sums are the same, and both solvers
    return a zero theta as 0.0, whichever signed zero a sort put first.
    Raises ValueError if a running sum overflows.
    """
    if u.shape[0] <= _WALK_MAX_N:
        u_sorted = sorted(u.tolist(), reverse=True)
        prefix = [0.0, *itertools.accumulate(u_sorted)]
        # the addends are finite, so the last sum is finite iff every one is
        if not math.isfinite(prefix[-1]):
            raise ValueError(_RUNNING_SUM_OVERFLOW)
        return _kernels._theta_from_sorted_py(u_sorted, prefix, k), u_sorted
    # np.sort(u)[::-1] without np.sort's wrapper: the same copy and sort
    u_sorted = u.copy()
    u_sorted.sort()
    u_sorted = u_sorted[::-1]
    return _kernels._theta_from_sorted_numpy(u_sorted, _prefix_sums(u_sorted), k), u_sorted


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
    # u_sorted is not read again, but it is held until project returns:
    # freed before _classify allocates, its pages go back to the system and
    # fault in again; at n = 2^20 on a 2-CPU Xeon VM that raised the minor
    # faults per call from ~2,300 to 3,300-4,300
    theta, u_sorted = _solve_theta(u, float(spec.k))
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

