"""Desk-scale training harness for the batch-size generalization study.

Trains a two-layer MLP under interchangeable loss layers across a grid of
batch sizes and seeds, recording the best test accuracy per run, and
compares losses with a paired t-test whose p-value is computed from
scratch (the closed-form Student-t tail for integer degrees of freedom,
Abramowitz & Stegun 26.7.3/26.7.4). Every run is deterministic given
its seed: one generator drives init and shuffling, and no parallelism
touches the arithmetic.
"""

import csv
import gzip
import math
import os
import struct
import sys
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .losses import (
    ClassBatch,
    _as_labels,
    cross_entropy_loss,
    hinge_loss,
    hypersimplex_loss_multiclass,
    squared_loss,
    zero_one_loss,
)
from .projection import _all_finite, _as_count, _as_finite, _as_float64, _as_positive, _is_integer

LOSS_NAMES = ("ce", "hinge", "mse", "hypersimplex")


def _as_loss_name(name):
    """name if it is one of LOSS_NAMES, else ValueError("unknown loss ...")."""
    if name not in LOSS_NAMES:
        raise ValueError(f"unknown loss {name!r}; expected one of {LOSS_NAMES}")
    return name


class IdxFormatError(ValueError):
    """Raised on malformed IDX files; the message carries a byte offset."""


@dataclass
class Dataset:
    """Finite real m x d features, stored as float64, labels as a loss checks
    them (integers in [0, num_classes)) and an integer train/test index split;
    checked when built. features, train_idx and test_idx must be numpy arrays
    and the features not complex (TypeError otherwise)."""

    name: str
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    train_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        for name in ("features", "train_idx", "test_idx"):
            value = getattr(self, name)
            if not isinstance(value, (np.ndarray, np.generic)):  # a numpy scalar fails below
                raise TypeError(f"{name} must be a numpy array, got {type(value).__name__}")
        self.num_classes = _as_count(self.num_classes, "num_classes", 0)
        self.features = _as_float64(self.features, "features")
        if self.features.ndim != 2:
            raise ValueError(f"features must be an m x d matrix, got shape {self.features.shape}")
        m = self.features.shape[0]
        _as_labels(self.labels, m, self.num_classes)
        if not _all_finite(self.features):
            raise ValueError("features contain NaN or Inf")
        for name, idx in (("train_idx", self.train_idx), ("test_idx", self.test_idx)):
            if idx.dtype.kind not in "iu":
                raise ValueError(f"{name} must have an integer dtype, got {idx.dtype}")
        combined = np.concatenate((self.train_idx, self.test_idx))
        if np.unique(combined).size != combined.size:
            raise ValueError("train and test splits overlap")
        if not np.array_equal(np.sort(combined), np.arange(m)):
            raise ValueError("train and test splits must cover all examples")

    @property
    def m_train(self):
        return self.train_idx.size

    @property
    def m_test(self):
        return self.test_idx.size


@dataclass
class MlpModel:
    """Two-layer rectifier network d -> h -> C with hand-coded backprop."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        d, h = self.W1.shape
        h2, C = self.W2.shape
        if h2 != h or self.b1.shape != (h,) or self.b2.shape != (C,):
            raise ValueError("layer dimensions do not chain")

    @classmethod
    def init(cls, d, h, C, rng):
        # He-scaled Gaussians suit the rectifier; biases start at zero
        return cls(
            W1=rng.standard_normal((d, h)) * math.sqrt(2.0 / d),
            b1=np.zeros(h),
            W2=rng.standard_normal((h, C)) * math.sqrt(2.0 / h),
            b2=np.zeros(C),
        )

    def forward(self, X):
        """Scores plus the activations needed by backward."""
        Z1 = X @ self.W1 + self.b1
        H = np.maximum(Z1, 0.0)
        scores = H @ self.W2 + self.b2
        return scores, (X, Z1, H)

    def scores(self, X):
        return self.forward(X)[0]

    def backward(self, cache, G):
        """Parameter gradients given dL/dscores; zero subgradient at the
        rectifier kink."""
        X, Z1, H = cache
        dW2 = H.T @ G
        db2 = G.sum(axis=0)
        dZ1 = (G @ self.W2.T) * (Z1 > 0.0)
        return (X.T @ dZ1, dZ1.sum(axis=0), dW2, db2)

    def sgd_step(self, grads, lr):
        dW1, db1, dW2, db2 = grads
        self.W1 -= lr * dW1
        self.b1 -= lr * db1
        self.W2 -= lr * dW2
        self.b2 -= lr * db2

    def params_finite(self):
        return all(map(_all_finite, (self.W1, self.b1, self.W2, self.b2)))


def loss_layer(name, scores, labels, tau):
    """Mean-reduced loss value and dL/dscores for one batch.

    The hypersimplex layer projects each class column over the batch with
    k_c taken from the batch's own label counts; tau applies to it alone.
    """
    name = _as_loss_name(name)
    if name == "ce":
        return cross_entropy_loss(scores, labels)
    if name == "hinge":
        return hinge_loss(scores, labels)
    if name == "mse":
        return squared_loss(scores, labels)
    return hypersimplex_loss_multiclass(ClassBatch.from_labels(scores, labels, tau=tau))


@dataclass
class RunRecord:
    """Metrics of one trained (loss, batch, seed) cell.

    Loss values are mean-reduced per sample for every loss; best_test_acc is
    the maximum test accuracy over all epoch boundaries including the
    untrained model. A diverged run keeps the accuracies seen before the
    divergence and stores NaN as final_train_loss, which is what failed
    reads; it is not stored, neither here nor as a CSV column.
    """

    dataset: str
    loss: str
    batch: int
    seed: int
    tau: float
    lr: float
    epochs: int
    best_test_acc: float
    final_train_loss: float

    @property
    def failed(self):
        return math.isnan(self.final_train_loss)


# The records CSV has one column per RunRecord field, in field order.
_RECORD_FIELDS = fields(RunRecord)

CSV_HEADER = ",".join(f.name for f in _RECORD_FIELDS)


def write_records_csv(records, path):
    """Write records under the fixed header; floats use repr so output is
    byte-stable."""
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            values = (getattr(r, f.name) for f in _RECORD_FIELDS)
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in values) + "\n")


def read_records_csv(path):
    """Parse a records CSV back; raises ValueError with the offending line
    number on malformed input."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty CSV: missing header line") from None
        if header != CSV_HEADER.split(","):
            raise ValueError(f"line 1: bad header {','.join(header)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_RECORD_FIELDS):
                raise ValueError(f"line {lineno}: expected {len(_RECORD_FIELDS)} fields, "
                                 f"got {len(row)}")
            try:
                rec = RunRecord(*(f.type(v) for f, v in zip(_RECORD_FIELDS, row)))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            records.append(rec)
    return records


# ---------------------------------------------------------------------------
# Data loading
# ---------------------------------------------------------------------------


def _read_idx(path, expected_magic, expected_ndim):
    """Decode one IDX file (optionally gzipped) into a uint8 array."""
    with open(path, "rb") as raw:
        head = raw.read(2)
        raw.seek(0)
        if head == b"\x1f\x8b":
            with gzip.open(raw) as gz:
                data = gz.read()
        else:
            data = raw.read()
    if len(data) < 4:
        raise IdxFormatError(f"{path}: truncated magic at byte offset {len(data)}")
    (magic,) = struct.unpack(">I", data[:4])
    if magic != expected_magic:
        raise IdxFormatError(
            f"{path}: bad magic 0x{magic:08x} at byte offset 0, expected 0x{expected_magic:08x}"
        )
    header_end = 4 + 4 * expected_ndim
    if len(data) < header_end:
        raise IdxFormatError(f"{path}: truncated dimension header at byte offset {len(data)}")
    dims = struct.unpack(f">{expected_ndim}I", data[4:header_end])
    count = int(np.prod(dims))
    if len(data) - header_end < count:
        raise IdxFormatError(
            f"{path}: payload truncated at byte offset {len(data)}, "
            f"expected {header_end + count} bytes"
        )
    return np.frombuffer(data, dtype=np.uint8, count=count, offset=header_end).reshape(dims)


def load_idx(images_path, labels_path, limit=None, num_classes=None, name="idx"):
    """Load an IDX image/label file pair as a Dataset (all examples in the
    train split).

    Pixels are scaled to [0, 1] and flattened; limit keeps the first
    `limit` examples, a deterministic slice. Gzipped files are detected by
    signature. limit is None or an integer >= 0.
    """
    if limit is not None:
        limit = _as_count(limit, "limit", 0)
    images = _read_idx(images_path, 0x00000803, 3)
    labels = _read_idx(labels_path, 0x00000801, 1)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"{images_path}: {images.shape[0]} images but {labels.shape[0]} labels"
        )
    images, labels = images[:limit], labels[:limit]
    m, rows, cols = images.shape  # reshape(0, -1) cannot infer a width
    features = images.reshape(m, rows * cols).astype(np.float64) / 255.0
    labels = labels.astype(np.int64)
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if m else 0
    return Dataset(
        name=name,
        features=features,
        labels=labels,
        num_classes=num_classes,
        train_idx=np.arange(m),
        test_idx=np.arange(0),
    )


def load_fashion_mnist(data_dir, m_train=6000, m_test=1000):
    """Subsampled Fashion-MNIST from user-supplied IDX files in data_dir.

    Expects the standard file names (train-images-idx3-ubyte,
    train-labels-idx1-ubyte, t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte),
    each optionally with a .gz suffix. Keeps the first m_train training and
    first m_test test examples.
    """

    def find(stem):
        for suffix in ("", ".gz"):
            candidate = os.path.join(data_dir, stem + suffix)
            if os.path.exists(candidate):
                return candidate
        raise FileNotFoundError(f"{stem}[.gz] not found in {data_dir}")

    train = load_idx(
        find("train-images-idx3-ubyte"), find("train-labels-idx1-ubyte"),
        limit=m_train, num_classes=10,
    )
    test = load_idx(
        find("t10k-images-idx3-ubyte"), find("t10k-labels-idx1-ubyte"),
        limit=m_test, num_classes=10,
    )
    return Dataset(
        name="fashion_mnist",
        features=np.vstack((train.features, test.features)),
        labels=np.concatenate((train.labels, test.labels)),
        num_classes=10,
        train_idx=np.arange(train.labels.size),
        test_idx=np.arange(train.labels.size, train.labels.size + test.labels.size),
    )


def make_synthetic(num_classes, m, d, separation, seed, m_train=None):
    """Gaussian blobs: class means at separation * random unit directions,
    unit covariance; deterministic per seed. The first m_train examples
    (default 80%) form the train split. separation must be a finite real
    number (not a bool); nothing is drawn before every argument passes."""
    num_classes = _as_count(num_classes, "num_classes", 2)
    m = _as_count(m, "m", 1)
    d = _as_count(d, "d", 1)
    rng = np.random.default_rng(_as_count(seed, "seed", 0))
    if m_train is None:
        m_train = int(0.8 * m)
    if not (_is_integer(m_train) and 0 < m_train <= m):
        raise ValueError(f"m_train must lie in (0, {m}], got {m_train}")
    separation = _as_finite(separation, "separation")
    dirs = rng.standard_normal((num_classes, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    labels = rng.integers(0, num_classes, size=m)
    features = separation * dirs[labels] + rng.standard_normal((m, d))
    return Dataset(
        name="synthetic",
        features=features,
        labels=labels,
        num_classes=num_classes,
        train_idx=np.arange(m_train),
        test_idx=np.arange(m_train, m),
    )


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _as_batch_size(batch, m_train):
    """batch as an int in [1, m_train], else ValueError("batch_size must lie in ...")."""
    if not (_is_integer(batch) and 1 <= batch <= m_train):
        raise ValueError(f"batch_size must lie in [1, {m_train}], got {batch}")
    return int(batch)


def _sgd_step(model, X, y, loss_name, tau, lr):
    """One SGD step of model on the batch (X, y); False, with the step cut
    short, when the scores, the loss or the updated parameters are not finite."""
    scores, cache = model.forward(X)
    if not _all_finite(scores):
        return False
    ev = loss_layer(loss_name, scores, y, tau)
    if not math.isfinite(ev.value):
        return False
    model.sgd_step(model.backward(cache, ev.grad), lr)
    return model.params_finite()


def train_one(seed, dataset, loss_name, batch_size, tau, lr, epochs, hidden=32):
    """Train one (loss, batch, seed) cell by plain SGD and record its metrics.

    Test accuracy is evaluated before training and after every epoch; the
    best value is kept. The shuffle and the init share one seeded
    generator, so identical arguments reproduce the record exactly. A
    non-finite loss or parameter marks the run failed and stops it instead
    of raising. dataset must be a Dataset (TypeError). tau and lr must be
    positive, finite real numbers (not bools), for every loss; they are
    checked before the model is built.
    """
    if not isinstance(dataset, Dataset):
        raise TypeError("dataset must be a Dataset")
    loss_name = _as_loss_name(loss_name)
    batch_size = _as_batch_size(batch_size, dataset.m_train)
    seed = _as_count(seed, "seed", 0)
    epochs = _as_count(epochs, "epochs", 0)
    hidden = _as_count(hidden, "hidden", 1)
    if dataset.m_test < 1:
        raise ValueError("dataset has an empty test split")
    tau, lr = _as_positive(tau, "tau"), _as_positive(lr, "lr")
    rng = np.random.default_rng(seed)
    X_train = dataset.features[dataset.train_idx]
    y_train = dataset.labels[dataset.train_idx]
    X_test = dataset.features[dataset.test_idx]
    y_test = dataset.labels[dataset.test_idx]
    model = MlpModel.init(X_train.shape[1], hidden, dataset.num_classes, rng)

    best_acc = 1.0 - zero_one_loss(model.scores(X_test), y_test)
    final_train_loss = float("nan")
    # divergence is detected below via _all_finite checks, so FP overflow along
    # the way is expected and must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            perm = rng.permutation(dataset.m_train)
            batches = (perm[start : start + batch_size]
                       for start in range(0, dataset.m_train, batch_size))
            if not all(_sgd_step(model, X_train[idx], y_train[idx], loss_name, tau, lr)
                       for idx in batches):
                break
            # finite params can still overflow the forward, so guard the eval
            test_scores = model.scores(X_test)
            if not _all_finite(test_scores):
                break
            best_acc = max(best_acc, 1.0 - zero_one_loss(test_scores, y_test))
        else:
            # finite parameters can still overflow the forward over the whole train split
            final_scores = model.scores(X_train)
            if _all_finite(final_scores):
                value = loss_layer(loss_name, final_scores, y_train, tau).value
                if math.isfinite(value):
                    final_train_loss = value
    return RunRecord(
        dataset=dataset.name,
        loss=loss_name,
        batch=batch_size,
        seed=seed,
        tau=tau,
        lr=lr,
        epochs=epochs,
        best_test_acc=float(best_acc),
        final_train_loss=float(final_train_loss),
    )


@dataclass
class SweepConfig:
    """Grid definition for a sweep; unknown keys are rejected up front."""

    dataset: str = "synthetic"
    losses: tuple = ("ce", "hypersimplex", "mse")
    batches: tuple = (32, 64, 128, 256, 512, 1024, 2048)
    seeds: tuple = (0, 1, 2, 3, 4)
    tau: float = 1.0
    lr: float = 0.15
    epochs: int = 40
    hidden: int = 32
    m_train: int = 4096
    m_test: int = 1000
    classes: int = 5
    dims: int = 20
    separation: float = 2.0
    data_seed: int = 0
    data_dir: str = "."
    out_csv: str = "runs.csv"

    def __post_init__(self):
        if self.dataset not in ("synthetic", "fashion_mnist"):
            raise ValueError(f"unknown dataset {self.dataset!r}")
        if _is_integer(self.seeds):
            if self.seeds > sys.maxsize:  # tuple() needs range's length as a C ssize_t
                raise ValueError(f"seeds must be a count of at most {sys.maxsize}, got {self.seeds}")
            self.seeds = range(self.seeds)
        for name, what in (("losses", "loss names"), ("batches", "integers"), ("seeds", "integers")):
            values = getattr(self, name)
            if isinstance(values, str) or not isinstance(values, (Sequence, np.ndarray)):
                raise ValueError(f"{name} must be a list of {what}, got {values!r}")
            setattr(self, name, tuple(values))
        for name in self.losses:
            _as_loss_name(name)
        for value in self.batches:
            if not _is_integer(value):
                raise ValueError(f"batches must be integers, got {value!r}")
        self.batches = tuple(int(v) for v in self.batches)
        self.seeds = tuple(_as_count(v, "seeds", 0) for v in self.seeds)
        if not self.seeds:
            raise ValueError("need at least one seed")
        self.tau = _as_positive(self.tau, "tau")
        self.lr = _as_positive(self.lr, "lr")
        self.separation = _as_finite(self.separation, "separation")
        for name in ("data_dir", "out_csv"):
            if not isinstance(getattr(self, name), (str, os.PathLike)):
                raise ValueError(f"{name} must be a path string, got {getattr(self, name)!r}")
        for name, least in (("epochs", 1), ("hidden", 1), ("dims", 1), ("m_train", 1),
                            ("m_test", 1), ("classes", 2), ("data_seed", 0)):
            setattr(self, name, _as_count(getattr(self, name), name, least))

    @classmethod
    def from_dict(cls, d):
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**d)


def _build_dataset(config):
    if config.dataset == "synthetic":
        return make_synthetic(
            config.classes,
            config.m_train + config.m_test,
            config.dims,
            config.separation,
            config.data_seed,
            m_train=config.m_train,
        )
    return load_fashion_mnist(config.data_dir, config.m_train, config.m_test)


def sweep(config):
    """Run the full loss x batch x seed grid on one shared dataset.

    Cells are independent (each owns its RNG via its seed) so they could
    run in parallel; this loop runs them in deterministic grid order and
    the returned list is sorted the same way regardless. config must be a
    SweepConfig.
    """
    if not isinstance(config, SweepConfig):
        raise TypeError("config must be a SweepConfig")
    dataset = _build_dataset(config)
    for batch in config.batches:  # fail before the first cell trains
        _as_batch_size(batch, dataset.m_train)
    records = []
    for loss_name in config.losses:
        for batch in config.batches:
            for seed in config.seeds:
                records.append(
                    train_one(
                        seed,
                        dataset,
                        loss_name,
                        batch,
                        config.tau,
                        config.lr,
                        config.epochs,
                        hidden=config.hidden,
                    )
                )
    return records


# ---------------------------------------------------------------------------
# Paired t-test
# ---------------------------------------------------------------------------


@dataclass
class TTestResult:
    """Paired-samples t-test summary; degenerate marks zero-variance input."""

    mean_delta: float
    t_stat: float
    p_value: float
    significant_at_10pct: bool
    degenerate: bool = False


def _t_two_sided_p(t, df):
    """P(|T| >= |t|) for Student's t with integer df >= 1: the finite sums of
    Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df)."""
    theta = math.atan(abs(t) / math.sqrt(df))
    sin, cos = math.sin(theta), math.cos(theta)
    odd = df % 2
    term, total = 1.0, 0.0
    for j in range(df // 2):
        total += term
        term *= cos * cos * (2 * j + 1 + odd) / (2 * j + 2 + odd)
    a = 2.0 / math.pi * (theta + sin * cos * total) if odd else sin * total
    return max(0.0, 1.0 - a)  # a = P(|T| < |t|) can round just above 1


def paired_t_test(a, b):
    """Paired-samples t-test of b against a on per-seed differences b - a.

    Uses n-1 degrees of freedom and a two-sided p-value from the closed-form
    t tail for integer df (``_t_two_sided_p``). NaN or Inf samples, or an
    overflowing mean or spread of b - a, raise ValueError. Zero-variance
    differences make t undefined; that branch reports p = 0 when the mean
    difference is nonzero (the runs differ identically on every seed) or
    p = 1 when it is zero, and flags the result degenerate.
    """
    a = _as_float64(a, "paired samples")
    b = _as_float64(b, "paired samples")
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be two equal-length 1-D arrays")
    n = a.size
    if n < 2:
        raise ValueError(f"need at least 2 pairs, got {n}")
    with np.errstate(all="ignore"):  # NaN, Inf and overflow are rejected below
        diff = b - a
        mean, sd = float(diff.mean()), float(diff.std(ddof=1))
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise ValueError("paired samples must be finite, with a finite mean and spread of b - a")
    if sd == 0.0:
        p = 1.0 if mean == 0.0 else 0.0
        t = 0.0 if mean == 0.0 else math.copysign(math.inf, mean)
        return TTestResult(mean, t, p, p < 0.1, degenerate=True)
    t = mean / (sd / math.sqrt(n))
    p = _t_two_sided_p(t, n - 1)
    return TTestResult(mean, float(t), p, p < 0.1)
