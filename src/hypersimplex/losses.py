"""Classification losses: hypersimplex surrogate plus standard baselines.

The hypersimplex loss scores a logit vector by half the squared distance
between its projection onto {y in [0,1]^n : sum(y) = k} and a binary
target; because the projection lands in the box, the loss is bounded,
unlike the raw squared loss. The baselines (zero-one, squared,
cross-entropy, hinge) follow the usual mean-reduced conventions and all
return analytic gradients.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .backward import _center_on_active, loss_grad_from_residual
from .projection import HypersimplexSpec, _as_temperature, project


@dataclass
class LossEval:
    """Scalar loss value and its gradient with respect to the input scores."""

    value: float
    grad: np.ndarray


def _as_scores_labels(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"scores must be an n x C matrix, got shape {scores.shape}")
    n, C = scores.shape
    if n < 1:
        raise ValueError("need at least one sample, got an empty batch")
    if C < 2:
        raise ValueError(f"need at least 2 classes, got {C}")
    if not np.isfinite(scores).all():
        raise ValueError("scores contain NaN or Inf")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels have shape {labels.shape}, expected ({n},)")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    lo, hi = np.minimum.reduce(labels), np.maximum.reduce(labels)
    if lo < 0 or hi >= C:
        raise ValueError(f"labels must lie in [0, {C}), got range [{lo}, {hi}]")
    return scores, labels.astype(np.int64), n, C


def _one_hot(labels, num_classes):
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def zero_one_loss(scores, labels):
    """Fraction of samples whose argmax class (ties to the smallest index)
    differs from the label."""
    scores, labels, n, _ = _as_scores_labels(scores, labels)
    return float(np.mean(np.argmax(scores, axis=1) != labels))


def squared_loss(scores, labels):
    """Mean squared deviation of the scores from the one-hot targets."""
    scores, labels, n, C = _as_scores_labels(scores, labels)
    resid = scores - _one_hot(labels, C)
    return LossEval(value=float(np.sum(resid**2)) / n, grad=2.0 * resid / n)


def cross_entropy_loss(scores, labels):
    """Mean negative log-softmax of the true class, max-shifted for stability."""
    scores, labels, n, C = _as_scores_labels(scores, labels)
    z = scores - scores.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    logp = z - lse
    value = -float(np.mean(logp[np.arange(n), labels]))
    grad = (np.exp(logp) - _one_hot(labels, C)) / n
    return LossEval(value=value, grad=grad)


def hinge_loss(scores, labels):
    """Mean multiclass margin loss: sum over wrong classes of
    max(0, 1 + s_c - s_true)."""
    scores, labels, n, C = _as_scores_labels(scores, labels)
    rows = np.arange(n)
    margins = 1.0 + scores - scores[rows, labels][:, None]
    margins[rows, labels] = 0.0
    violating = margins > 0.0
    value = float(np.sum(np.where(violating, margins, 0.0))) / n
    grad = violating.astype(np.float64)
    grad[rows, labels] = -violating.sum(axis=1)
    return LossEval(value=value, grad=grad / n)


def _as_binary_target(y, n):
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError(f"target has shape {y.shape}, expected ({n},)")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("target must be a binary 0/1 vector")
    return y


def hypersimplex_loss(x, y, spec):
    """Half squared distance between the projection of x/tau and binary y.

    Value is (1/2)||y_hat - y||^2 with y_hat the hypersimplex projection;
    the gradient chains the residual through the projection Jacobian and
    the 1/tau scaling. Bounded by n/2 since both y_hat and y live in the
    unit box. spec.k is the caller's choice, typically sum(y).
    """
    result = project(x, spec)
    y = _as_binary_target(y, spec.n)
    resid = result.y - y
    return LossEval(
        value=0.5 * float(np.dot(resid, resid)),
        grad=loss_grad_from_residual(result, resid),
    )


@dataclass(frozen=True)
class ClassBatch:
    """One batch of the multiclass loss: n x C logits (column c holds the
    class-c scores of all n samples), n integer labels and one temperature.

    Checked once, at construction: logits and labels by the contract of
    every other loss (finite, C >= 2, labels in [0, C)), tau positive and
    finite.
    """

    logits: np.ndarray
    labels: np.ndarray
    tau: float = 1.0

    def __post_init__(self):
        logits, labels, _, _ = _as_scores_labels(self.logits, self.labels)
        object.__setattr__(self, "logits", logits)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "tau", _as_temperature(self.tau))

    @classmethod
    def from_labels(cls, logits, labels, tau=1.0):
        """Same as ClassBatch(logits, labels, tau); kept as the name the
        benchmark's traced run patches."""
        return cls(logits, labels, tau)


@functools.lru_cache(maxsize=1024)
def _spec(n, k, tau):
    """HypersimplexSpec(n, k, tau), checked and built once per triple; a
    spec is frozen, so every call shares it."""
    return HypersimplexSpec(n, k, tau)


def hypersimplex_loss_multiclass(batch):
    """Mean over samples of the binary hypersimplex loss summed over classes.

    Value is (1/2n) sum_c ||p_c - y_c||^2 where p_c projects logit column c
    onto the (n, k_c)-hypersimplex at the batch temperature tau, k_c is the
    count of label c in the batch and y_c is its indicator; grad column c
    is the corresponding chained residual over n. A class absent from the
    batch (k_c = 0) contributes nothing, but its column is still projected:
    one ``project`` call per class column.

    The residuals live in (C, n) layout, so each class's dot product and
    centring read a contiguous row; ``jvp``'s centring writes each row's
    centred active residual into its column of a zeroed C-contiguous (n, C)
    gradient, which is divided by tau and then by n once. Per element these
    are the operations of ``hypersimplex_loss`` over n, in the same order,
    so the bits are the same.
    """
    if not isinstance(batch, ClassBatch):
        raise TypeError("batch must be a ClassBatch")
    n, C = batch.logits.shape
    scores = batch.logits.T  # row c: the class-c logits of every sample
    targets = batch.labels == np.arange(C)[:, None]  # row c: label == c
    resid = np.empty((C, n))
    grad = np.zeros((n, C))
    value = 0.0
    for c, k in enumerate(np.bincount(batch.labels, minlength=C).tolist()):
        result = project(scores[c], _spec(n, k, batch.tau))
        r = np.subtract(result.y, targets[c], out=resid[c])
        value += 0.5 * float(np.dot(r, r))
        _center_on_active(r, result.active, grad[:, c])
    grad /= batch.tau
    grad /= n
    return LossEval(value=value / n, grad=grad)
