"""Argument contracts of the public entry points.

One table lists each entry point with a valid call; one list holds
malformed values. Each value goes into each argument slot of each call in
turn, and the call must return, or raise ValueError or TypeError, with
RuntimeWarnings raised as errors. An AttributeError, an OverflowError or a
RuntimeWarning means a check is missing at the owner of that argument.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest

from hypersimplex import (
    ClassBatch,
    Dataset,
    HypersimplexSpec,
    SweepConfig,
    cross_entropy_loss,
    hard_topk,
    hinge_loss,
    hypersimplex_loss,
    hypersimplex_loss_multiclass,
    jvp,
    loss_grad_from_residual,
    make_synthetic,
    paired_t_test,
    pav_decreasing,
    project,
    project_bisect,
    project_sorted_via_isotonic,
    squared_loss,
    sweep,
    train_one,
    vjp,
    zero_one_loss,
)
from hypersimplex.bench import bench_jvp, run_bench
from hypersimplex.oracle import brute_force_project, exhaustive_topk, fd_jacobian
from hypersimplex.trainer import loss_layer
from hypersimplex.verify import run_gradcheck, run_verify

MALFORMED = {
    "none": None,
    "true": True,
    "false": False,
    "str": "abc",
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "mixed-list": [1.0, "a", None],
    "tuple": (1.0, 2.0),
    "0d-array": np.array(1.0),
    "str-array": np.array(["a", "b"]),
    "object-array": np.array([1.0, None], dtype=object),
    "complex": 1 + 2j,
    "2**70": 2**70,
    "1e308": 1e308,
    "empty-array": np.array([]),
    "-1": -1,
    "0": 0,
    "0.5": 0.5,
}

_X = np.array([4.0, 3.0, 2.0, 1.0])
_SPEC = HypersimplexSpec(4, 2, 1.0)
_RESULT = project(_X, _SPEC)
_SCORES = np.array([[2.0, 0.5, -1.0], [0.0, 1.0, 0.5], [1.5, -0.5, 0.0], [0.0, 0.0, 2.0]])
_LABELS = np.array([0, 1, 0, 2])
_DATASET = make_synthetic(3, 40, 4, 2.0, 0)
_TINY_SWEEP = SweepConfig(losses=("ce",), batches=(8,), seeds=1, epochs=1, hidden=4,
                          m_train=16, m_test=8, classes=2, dims=2)

# (entry point, function, valid keyword arguments); every call returns
ENTRY_POINTS = [
    ("project", project, dict(x=_X, spec=_SPEC)),
    ("project_bisect", project_bisect, dict(x=_X, spec=_SPEC)),
    ("project_sorted_via_isotonic", project_sorted_via_isotonic,
     dict(x_sorted_desc=_X, spec=_SPEC)),
    ("brute_force_project", brute_force_project, dict(x=_X, spec=_SPEC)),
    ("fd_jacobian", fd_jacobian, dict(x=_X, spec=_SPEC)),
    ("hard_topk", hard_topk, dict(x=_X, k=2)),
    ("exhaustive_topk", exhaustive_topk, dict(x=_X, k=2)),
    ("pav_decreasing", pav_decreasing, dict(v=_X)),
    ("HypersimplexSpec", HypersimplexSpec, dict(n=4, k=2, tau=1.0)),
    ("jvp", jvp, dict(result=_RESULT, v=_X)),
    ("vjp", vjp, dict(result=_RESULT, u=_X)),
    ("loss_grad_from_residual", loss_grad_from_residual, dict(result=_RESULT, residual=_X)),
    ("hypersimplex_loss", hypersimplex_loss,
     dict(x=_X, y=np.array([1.0, 1.0, 0.0, 0.0]), spec=_SPEC)),
    ("ClassBatch", ClassBatch, dict(logits=_SCORES, labels=_LABELS, tau=1.0)),
    ("hypersimplex_loss_multiclass", hypersimplex_loss_multiclass,
     dict(batch=ClassBatch(_SCORES, _LABELS))),
    ("cross_entropy_loss", cross_entropy_loss, dict(scores=_SCORES, labels=_LABELS)),
    ("hinge_loss", hinge_loss, dict(scores=_SCORES, labels=_LABELS)),
    ("squared_loss", squared_loss, dict(scores=_SCORES, labels=_LABELS)),
    ("zero_one_loss", zero_one_loss, dict(scores=_SCORES, labels=_LABELS)),
    ("loss_layer", loss_layer, dict(name="hypersimplex", scores=_SCORES, labels=_LABELS, tau=1.0)),
    ("make_synthetic", make_synthetic,
     dict(num_classes=3, m=40, d=4, separation=2.0, seed=0, m_train=30)),
    ("train_one", train_one,
     dict(seed=0, dataset=_DATASET, loss_name="hypersimplex", batch_size=8, tau=1.0, lr=0.1,
          epochs=1, hidden=4)),
    ("paired_t_test", paired_t_test, dict(a=np.array([0.5, 0.6, 0.7]), b=np.array([0.6, 0.6, 0.9]))),
    ("Dataset", Dataset,
     dict(name="d", features=np.zeros((4, 2)), labels=np.array([0, 1, 0, 1]), num_classes=2,
          train_idx=np.array([0, 1, 2]), test_idx=np.array([3]))),
    ("SweepConfig", SweepConfig,
     {f.name: f.default for f in dataclasses.fields(SweepConfig)}),
    ("sweep", sweep, dict(config=_TINY_SWEEP)),
    ("run_gradcheck", run_gradcheck, dict(num=2, seed=0, tol=1e-5)),
    ("run_verify", run_verify,
     dict(num_oracle=1, num_vectors=1, num_aux=1, seed=0, n_max=4, project_fn=project)),
    ("bench_jvp", bench_jvp, dict(sizes=[8], reps=1, seed=0)),
    ("run_bench", run_bench, dict(sizes=[8], reps=1, seed=0, ops=("project", "jvp"))),
]

# Values that start unbounded work: each is a request the entry point may
# accept, and would then run or allocate without end. They are never called.
UNBOUNDED = {
    ("train_one", "epochs", "2**70"): "trains for 2^70 epochs",
    ("run_gradcheck", "num", "2**70"): "checks 2^70 points",
    ("run_verify", "num_oracle", "2**70"): "draws 2^70 oracle instances",
    ("run_verify", "num_vectors", "2**70"): "draws 2^70 vectors per check",
    ("run_verify", "num_aux", "2**70"): "draws 2^70 vectors per check",
    ("bench_jvp", "reps", "2**70"): "times 2^70 repetitions",
    ("run_bench", "reps", "2**70"): "times 2^70 repetitions",
}

_ENTRIES = {name: (fn, kwargs) for name, fn, kwargs in ENTRY_POINTS}
_CASES = [
    pytest.param(name, slot, value_id, id=f"{name}-{slot}-{value_id}")
    for name, _, kwargs in ENTRY_POINTS
    for slot in kwargs
    for value_id in MALFORMED
    if (name, slot, value_id) not in UNBOUNDED
]


def _call(name, **overrides):
    fn, kwargs = _ENTRIES[name]
    # a fresh copy per call, so that no call sees what another did to its arguments
    return fn(**copy.deepcopy({**kwargs, **overrides}))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(_ENTRIES))
def test_valid_call_returns(name):
    # the base of every malformed call, so that its refusals come from the value
    assert _call(name) is not None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name,slot,value_id", _CASES)
def test_malformed_value_returns_or_raises_value_or_type_error(name, slot, value_id):
    try:
        _call(name, **{slot: MALFORMED[value_id]})
    except (ValueError, TypeError):
        pass


def test_every_exemption_names_a_slot_and_a_value():
    for name, slot, value_id in UNBOUNDED:
        assert slot in _ENTRIES[name][1] and value_id in MALFORMED
