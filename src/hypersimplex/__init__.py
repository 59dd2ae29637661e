"""Differentiable top-k selection via hypersimplex projection.

The core operator projects a temperature-scaled score vector onto
{y in [0,1]^n : sum(y) = k}, giving a Lipschitz, almost-everywhere
differentiable relaxation of hard top-k selection. Around it: analytic
Jacobian products, the induced classification loss with baselines,
brute-force verification oracles, isotonic regression, a desk-scale
training harness and benchmarks, all behind the ``hypersimplex`` CLI.
"""

from ._kernels import get_backend
from .backward import jvp, loss_grad_from_residual, vjp
from .isotonic import IsotonicFit, pav_decreasing, project_sorted_via_isotonic
from .losses import (
    ClassBatch,
    LossEval,
    cross_entropy_loss,
    hinge_loss,
    hypersimplex_loss,
    hypersimplex_loss_multiclass,
    squared_loss,
    zero_one_loss,
)
from .projection import (
    BOUNDARY_TOL,
    HypersimplexSpec,
    ProjectionResult,
    hard_topk,
    project,
    project_bisect,
    project_rows,
)
from .trainer import (
    Dataset,
    MlpModel,
    RunRecord,
    SweepConfig,
    TTestResult,
    load_fashion_mnist,
    load_idx,
    make_synthetic,
    paired_t_test,
    sweep,
    train_one,
)

__version__ = "1.0.0"

__all__ = [
    "BOUNDARY_TOL",
    "ClassBatch",
    "Dataset",
    "HypersimplexSpec",
    "IsotonicFit",
    "LossEval",
    "MlpModel",
    "ProjectionResult",
    "RunRecord",
    "SweepConfig",
    "TTestResult",
    "cross_entropy_loss",
    "get_backend",
    "hard_topk",
    "hinge_loss",
    "hypersimplex_loss",
    "hypersimplex_loss_multiclass",
    "jvp",
    "load_fashion_mnist",
    "load_idx",
    "loss_grad_from_residual",
    "make_synthetic",
    "paired_t_test",
    "pav_decreasing",
    "project",
    "project_bisect",
    "project_rows",
    "project_sorted_via_isotonic",
    "squared_loss",
    "sweep",
    "train_one",
    "vjp",
    "zero_one_loss",
]
