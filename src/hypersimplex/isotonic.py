"""Isotonic regression (nonincreasing) via pool-adjacent-violators.

PAV solves min ||v - w||^2 over nonincreasing w by sweeping once and
pooling adjacent blocks whose means violate the order, O(n) amortized.
``project_sorted_via_isotonic`` is the hypersimplex projection of input
already sorted nonincreasing: the monotonicity constraint is inactive
there, so it solves on its input with ``project``'s own kernel, with no
sort and no fit, and checks that reduction, not the kernel.
"""

from dataclasses import dataclass

import numpy as np

from .projection import _as_scaled, _as_score_vector, _clip_shifted, _degenerate, _prefix_sums
from .projection import _theta_from_sorted_numpy


@dataclass
class IsotonicFit:
    """Nonincreasing least-squares fit plus its pooled-block structure.

    blocks is a list of (start, end, mean) with half-open 0-based index
    ranges tiling range(n); within a block every fitted value equals the
    block mean of the input.
    """

    fitted: np.ndarray
    blocks: list


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


def pav_decreasing(v):
    """Nonincreasing isotonic regression of v.

    Returns the unique minimizer of ||v - w||^2 over nonincreasing w,
    computed by stack-based pooling in one pass.
    """
    v = _as_score_vector(v)
    fitted, starts, means = _pav_decreasing(v)
    ends = np.append(starts[1:], v.size)
    blocks = [(int(s), int(e), float(m)) for s, e, m in zip(starts, ends, means)]
    return IsotonicFit(fitted=fitted, blocks=blocks)


def project_sorted_via_isotonic(x_sorted_desc, spec):
    """Hypersimplex projection of an already-sorted (nonincreasing) vector.

    Solves min ||x/tau - y||^2 over {y in [0,1]^n, sum(y) = k, y
    nonincreasing}, the theta-shifted clip of the isotonic fit of x/tau.
    No fit is run: PAV merges a block only when its mean rises above its
    left neighbour's, which never happens on a nonincreasing vector, so
    the fit is x/tau itself, bit for bit. Equals the general projection on
    sorted input. Rejects unsorted input.
    """
    x, u = _as_scaled(x_sorted_desc, spec)
    if np.any(x[1:] > x[:-1]):  # compared, since differences of finite x can overflow
        raise ValueError("input must be sorted nonincreasing")
    if spec.k == 0 or spec.k == spec.n:
        return _degenerate(u, spec).y
    # u is sorted already; at every n the bisected walk gives project's bits
    theta = _theta_from_sorted_numpy(u, _prefix_sums(u), float(spec.k))
    return _clip_shifted(u, theta)
