"""Analytic derivatives of the hypersimplex projection.

On the active set A the projection acts locally as centering: its
Jacobian with respect to the scaled input u = x/tau is I - (1/|A|)11^T
restricted to A and zero elsewhere. The operator is symmetric and
idempotent, so jvp and vjp coincide and both run in O(n). The 1/tau
chain-rule factor is applied only in ``loss_grad_from_residual``, keeping
the Jacobian itself a pure combinatorial object.
"""

import numpy as np

from .projection import ProjectionResult, _all_finite, _as_float64


def _as_tangent(v, n):
    v = _as_float64(v, "tangent")
    if v.shape != (n,):
        raise ValueError(f"tangent has shape {v.shape}, expected ({n},)")
    if not _all_finite(v):
        raise ValueError("tangent contains NaN or Inf")
    return v


def _center_on_active(v, active_idx, out):
    """Write v centred over the active set into out[active_idx] and return
    out; the caller zeroes out, the Jacobian's rows off the active set."""
    if active_idx.shape[0] > 0:
        va = v[active_idx]
        # the pairwise sum and division of va.mean(), without its wrappers:
        # np.add.reduce is the reduce that ndarray.sum calls
        va -= np.add.reduce(va) / va.shape[0]
        out[active_idx] = va
    return out


def jvp(result, v):
    """Jacobian-vector product (d y / d u) v at a computed projection.

    Active coordinates receive v centered over the active set; saturated
    coordinates receive 0. An empty active set (k = 0, k = n, or a fully
    saturated solve) yields the zero vector, the chosen subgradient there.
    """
    if not isinstance(result, ProjectionResult):
        raise TypeError("result must come from a projection solve")
    v = _as_tangent(v, result.spec.n)
    return _center_on_active(v, result.active, np.zeros(result.spec.n))


def vjp(result, u):
    """Vector-Jacobian product u^T (d y / d u); equals jvp since J = J^T."""
    return jvp(result, u)


def loss_grad_from_residual(result, residual):
    """Gradient of (1/2)||y_hat - target||^2 with respect to the raw scores x.

    residual is y_hat - target. Chains the squared-loss gradient through
    the projection and the 1/tau input scaling, tau = result.spec.tau:
    (1/tau) J residual. At boundary points this is the one-sided
    subgradient that treats saturated coordinates as constant.
    """
    g = jvp(result, residual)  # a fresh array: divide in place
    g /= result.spec.tau
    return g
