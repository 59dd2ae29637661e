import gzip
import math
import struct
import sys
import warnings

import numpy as np
import pytest
import scipy.stats

from hypersimplex import ClassBatch, trainer
from hypersimplex.trainer import (
    CSV_HEADER,
    LOSS_NAMES,
    Dataset,
    IdxFormatError,
    MlpModel,
    RunRecord,
    SweepConfig,
    _t_two_sided_p,
    load_fashion_mnist,
    load_idx,
    loss_layer,
    make_synthetic,
    paired_t_test,
    read_records_csv,
    sweep,
    train_one,
    write_records_csv,
)


def idx3_bytes(images):
    images = np.asarray(images, dtype=np.uint8)
    m, rows, cols = images.shape
    return struct.pack(">IIII", 0x00000803, m, rows, cols) + images.tobytes()


def idx1_bytes(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, labels.size) + labels.tobytes()


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(90)
    images = rng.integers(0, 256, (5, 2, 3)).astype(np.uint8)
    labels = np.array([0, 2, 1, 2, 0], dtype=np.uint8)
    img_path = tmp_path / "imgs-idx3-ubyte"
    lab_path = tmp_path / "labs-idx1-ubyte"
    img_path.write_bytes(idx3_bytes(images))
    lab_path.write_bytes(idx1_bytes(labels))
    return img_path, lab_path, images, labels


class TestLoadIdx:
    def test_decodes_scales_and_flattens(self, idx_pair):
        img_path, lab_path, images, labels = idx_pair
        ds = load_idx(img_path, lab_path, name="toy")
        assert ds.name == "toy"
        assert ds.features.shape == (5, 6)
        np.testing.assert_allclose(
            ds.features, images.reshape(5, 6).astype(np.float64) / 255.0
        )
        np.testing.assert_array_equal(ds.labels, labels)
        assert ds.num_classes == 3
        assert ds.m_train == 5 and ds.m_test == 0

    def test_gzip_detected_by_signature(self, tmp_path, idx_pair):
        img_path, lab_path, images, labels = idx_pair
        gz_img = tmp_path / "imgs.gz"
        gz_img.write_bytes(gzip.compress(img_path.read_bytes()))
        ds = load_idx(gz_img, lab_path)
        np.testing.assert_allclose(
            ds.features, images.reshape(5, 6).astype(np.float64) / 255.0
        )

    def test_limit_keeps_first_examples(self, idx_pair):
        img_path, lab_path, images, labels = idx_pair
        ds = load_idx(img_path, lab_path, limit=2)
        assert ds.features.shape == (2, 6)
        np.testing.assert_array_equal(ds.labels, labels[:2])

    def test_limit_zero_gives_an_empty_dataset(self, idx_pair):
        # no labels to range-check and no features to find non-finite
        img_path, lab_path, _, _ = idx_pair
        ds = load_idx(img_path, lab_path, limit=0)
        assert ds.features.shape == (0, 6) and ds.labels.shape == (0,)
        assert ds.num_classes == 0 and ds.m_train == 0 and ds.m_test == 0

    @pytest.mark.parametrize("limit", [-1, 2.5, True, "2"])
    def test_rejects_limit_that_is_not_a_count(self, idx_pair, limit):
        img_path, lab_path, _, _ = idx_pair
        with pytest.raises(ValueError) as exc:
            load_idx(img_path, lab_path, limit=limit)
        assert str(exc.value) == f"limit must be an integer >= 0, got {limit!r}"

    def test_explicit_num_classes(self, idx_pair):
        img_path, lab_path, _, _ = idx_pair
        assert load_idx(img_path, lab_path, num_classes=10).num_classes == 10

    def test_bad_magic_reports_offset(self, tmp_path, idx_pair):
        _, lab_path, images, _ = idx_pair
        bad = tmp_path / "bad"
        bad.write_bytes(struct.pack(">I", 0xDEADBEEF) + idx3_bytes(images)[4:])
        with pytest.raises(IdxFormatError, match="bad magic 0xdeadbeef at byte offset 0"):
            load_idx(bad, lab_path)

    def test_truncated_magic(self, tmp_path, idx_pair):
        _, lab_path, _, _ = idx_pair
        bad = tmp_path / "bad"
        bad.write_bytes(b"\x00\x00")
        with pytest.raises(IdxFormatError, match="truncated magic at byte offset 2"):
            load_idx(bad, lab_path)

    def test_truncated_dimension_header(self, tmp_path, idx_pair):
        _, lab_path, images, _ = idx_pair
        bad = tmp_path / "bad"
        bad.write_bytes(idx3_bytes(images)[:10])
        with pytest.raises(IdxFormatError, match="truncated dimension header at byte offset 10"):
            load_idx(bad, lab_path)

    def test_truncated_payload(self, tmp_path, idx_pair):
        _, lab_path, images, _ = idx_pair
        bad = tmp_path / "bad"
        full = idx3_bytes(images)
        bad.write_bytes(full[:-4])
        with pytest.raises(IdxFormatError, match="payload truncated"):
            load_idx(bad, lab_path)

    def test_image_label_count_mismatch(self, tmp_path, idx_pair):
        img_path, _, _, _ = idx_pair
        short = tmp_path / "short-labels"
        short.write_bytes(idx1_bytes(np.array([0, 1], dtype=np.uint8)))
        with pytest.raises(IdxFormatError, match="5 images but 2 labels"):
            load_idx(img_path, short)


class TestLoadFashionMnist:
    def test_assembles_standard_files(self, tmp_path):
        rng = np.random.default_rng(91)

        def write_pair(img_stem, lab_stem, m, gz):
            images = rng.integers(0, 256, (m, 4, 4)).astype(np.uint8)
            labels = rng.integers(0, 10, m).astype(np.uint8)
            for stem, payload in ((img_stem, idx3_bytes(images)),
                                  (lab_stem, idx1_bytes(labels))):
                if gz:
                    (tmp_path / (stem + ".gz")).write_bytes(gzip.compress(payload))
                else:
                    (tmp_path / stem).write_bytes(payload)

        write_pair("train-images-idx3-ubyte", "train-labels-idx1-ubyte", 8, gz=False)
        write_pair("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte", 6, gz=True)
        ds = load_fashion_mnist(tmp_path, m_train=5, m_test=4)
        assert ds.name == "fashion_mnist"
        assert ds.num_classes == 10
        assert ds.m_train == 5 and ds.m_test == 4
        assert ds.features.shape == (9, 16)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="train-images-idx3-ubyte"):
            load_fashion_mnist(tmp_path)


class TestDataset:
    def base_kwargs(self):
        return dict(
            name="d",
            features=np.zeros((4, 2)),
            labels=np.array([0, 1, 0, 1]),
            num_classes=2,
        )

    def test_rejects_overlapping_splits(self):
        with pytest.raises(ValueError, match="overlap"):
            Dataset(**self.base_kwargs(), train_idx=np.array([0, 1, 2]),
                    test_idx=np.array([2, 3]))

    def test_rejects_non_covering_splits(self):
        with pytest.raises(ValueError, match="cover"):
            Dataset(**self.base_kwargs(), train_idx=np.array([0, 1]),
                    test_idx=np.array([3]))

    def test_rejects_out_of_range_labels(self):
        kwargs = self.base_kwargs()
        kwargs["labels"] = np.array([0, 1, 2, 1])
        with pytest.raises(ValueError, match="labels must lie"):
            Dataset(**kwargs, train_idx=np.arange(3), test_idx=np.array([3]))

    @pytest.mark.parametrize("labels", [np.array([0, 1, 0]), np.array([[0, 1, 0, 1]]),
                                        np.zeros((4, 1), dtype=np.int64)])
    def test_rejects_labels_of_the_wrong_shape(self, labels):
        kwargs = {**self.base_kwargs(), "labels": labels}
        with pytest.raises(ValueError) as exc:
            Dataset(**kwargs, train_idx=np.arange(3), test_idx=np.array([3]))
        assert str(exc.value) == f"labels have shape {labels.shape}, expected (4,)"

    @pytest.mark.parametrize("num_classes", [2.5, True, "3", -1])
    def test_rejects_num_classes_that_is_not_a_count(self, num_classes):
        kwargs = {**self.base_kwargs(), "num_classes": num_classes}
        with pytest.raises(ValueError) as exc:
            Dataset(**kwargs, train_idx=np.arange(3), test_idx=np.array([3]))
        assert str(exc.value) == f"num_classes must be an integer >= 0, got {num_classes!r}"

    @pytest.mark.parametrize("labels, feature, message", [
        (np.array([0.0, 1.5] * 20), 0.0, "labels must be integers, got dtype float64"),
        *((np.array([0, 1] * 20), bad, "features contain NaN or Inf")
          for bad in (math.nan, math.inf, -math.inf)),
    ])
    def test_rejects_float_labels_and_non_finite_features_before_building_a_model(
            self, monkeypatch, labels, feature, message):
        def build(*args):
            pytest.fail("the model was built")

        monkeypatch.setattr(MlpModel, "init", build)
        features = np.zeros((40, 3))
        features[17, 2] = feature
        with pytest.raises(ValueError) as exc:
            ds = Dataset("d", features, labels, 2, np.arange(32), np.arange(32, 40))
            train_one(0, ds, "ce", 8, 1.0, 0.1, 1)
        assert str(exc.value) == message

    @pytest.mark.parametrize("labels", [
        np.array([0, 1, 0]),  # wrong shape
        np.array([0.0, 1.0, 0.0, 1.0]),  # float dtype
        np.array([0, 1, 2, 1]),  # out of range
        np.array([0, -1, 1, 1]),
    ])
    def test_rejects_bad_labels_with_the_message_of_the_losses(self, labels):
        with pytest.raises(ValueError) as batch_exc:
            ClassBatch(np.zeros((4, 2)), labels)
        with pytest.raises(ValueError) as dataset_exc:
            Dataset(**{**self.base_kwargs(), "labels": labels},
                    train_idx=np.arange(3), test_idx=np.array([3]))
        assert str(dataset_exc.value) == str(batch_exc.value)

    @pytest.mark.parametrize("features", [np.zeros(40), np.zeros((40, 3, 1)), np.float64(0.0)],
                             ids=["1-D", "3-D", "0-D"])
    def test_rejects_features_that_are_not_a_matrix(self, features):
        with pytest.raises(ValueError) as exc:
            Dataset("d", features, np.zeros(40, dtype=np.int64), 2,
                    np.arange(32), np.arange(32, 40))
        assert str(exc.value) == f"features must be an m x d matrix, got shape {features.shape}"

    @pytest.mark.parametrize("train_idx, test_idx, message", [
        (np.arange(32.0), np.arange(32.0, 40.0), "train_idx must have an integer dtype, got float64"),
        (np.arange(32), np.arange(32.0, 40.0), "test_idx must have an integer dtype, got float64"),
        (np.arange(40) < 32, np.arange(40) >= 32, "train_idx must have an integer dtype, got bool"),
    ], ids=["float", "float-test", "bool-masks"])
    def test_rejects_split_indices_without_an_integer_dtype(self, train_idx, test_idx, message):
        with pytest.raises(ValueError) as exc:
            Dataset("d", np.zeros((40, 3)), np.zeros(40, dtype=np.int64), 2, train_idx, test_idx)
        assert str(exc.value) == message

    @pytest.mark.parametrize("field, value", [
        ("features", [[0.0, 1.0]] * 4),
        ("features", None),
        ("train_idx", [0, 1, 2]),
        ("test_idx", (3,)),
    ], ids=["features-list", "features-none", "train_idx-list", "test_idx-tuple"])
    def test_rejects_array_fields_that_are_not_numpy_arrays(self, field, value):
        kwargs = {**self.base_kwargs(), "train_idx": np.arange(3), "test_idx": np.array([3]),
                  field: value}
        with pytest.raises(TypeError) as exc:
            Dataset(**kwargs)
        assert str(exc.value) == f"{field} must be a numpy array, got {type(value).__name__}"

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_rejects_complex_features_with_a_type_error_that_names_them(self, dtype):
        kwargs = {**self.base_kwargs(), "features": np.zeros((4, 2), dtype=dtype),
                  "train_idx": np.arange(3), "test_idx": np.array([3])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's ComplexWarning among them
            with pytest.raises(TypeError) as exc:
                Dataset(**kwargs)
        assert str(exc.value) == f"features must be real, got dtype {np.dtype(dtype)}"

    def test_stores_real_features_as_float64(self):
        features = np.arange(8, dtype=np.uint8).reshape(4, 2)
        ds = Dataset(**{**self.base_kwargs(), "features": features},
                     train_idx=np.arange(3), test_idx=np.array([3]))
        assert ds.features.dtype == np.float64
        assert ds.features.tolist() == features.tolist()

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.intp])
    def test_accepts_split_indices_of_any_integer_dtype(self, dtype):
        ds = Dataset("d", np.zeros((40, 3)), np.zeros(40, dtype=np.int64), 2,
                     np.arange(32, dtype=dtype), np.arange(32, 40, dtype=dtype))
        assert (ds.m_train, ds.m_test) == (32, 8)


class TestMakeSynthetic:
    def test_deterministic_per_seed(self):
        a = make_synthetic(3, 100, 5, 2.0, seed=7)
        b = make_synthetic(3, 100, 5, 2.0, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = make_synthetic(3, 100, 5, 2.0, seed=8)
        assert not np.array_equal(a.features, c.features)

    def test_default_split_is_80_20(self):
        ds = make_synthetic(3, 100, 5, 2.0, seed=0)
        assert ds.m_train == 80 and ds.m_test == 20

    def test_m_train_override(self):
        ds = make_synthetic(3, 100, 5, 2.0, seed=0, m_train=90)
        assert ds.m_train == 90 and ds.m_test == 10

    def test_rejects_bad_m_train(self):
        with pytest.raises(ValueError, match="m_train"):
            make_synthetic(3, 100, 5, 2.0, seed=0, m_train=0)
        with pytest.raises(ValueError, match="m_train"):
            make_synthetic(3, 100, 5, 2.0, seed=0, m_train=101)
        with pytest.raises(ValueError, match="m_train"):
            make_synthetic(3, 100, 5, 2.0, seed=0, m_train=50.5)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="num_classes must be an integer >= 2, got 1"):
            make_synthetic(1, 100, 5, 2.0, seed=0)

    @pytest.mark.parametrize("args, message", [
        ((2.5, 100, 5, 2.0, 0), "num_classes must be an integer >= 2, got 2.5"),
        ((3, True, 5, 2.0, 0), "m must be an integer >= 1, got True"),
        ((3, 100, 0, 2.0, 0), "d must be an integer >= 1, got 0"),
        ((3, 100, 5, 2.0, -1), "seed must be an integer >= 0, got -1"),
    ])
    def test_rejects_sizes_that_are_not_counts(self, args, message):
        with pytest.raises(ValueError) as exc:
            make_synthetic(*args)
        assert str(exc.value) == message

    @pytest.mark.parametrize("separation", [math.nan, math.inf, -math.inf, True, "x", None,
                                            -2**1024])
    def test_rejects_separation_that_is_not_a_finite_number(self, separation):
        with pytest.raises(ValueError) as exc:
            make_synthetic(3, 100, 5, separation, 0)
        assert str(exc.value) == f"separation must be a finite number, got {separation!r}"

    def test_checks_m_train_before_separation(self):
        with pytest.raises(ValueError, match="m_train must lie in"):
            make_synthetic(3, 100, 5, math.nan, 0, m_train=0)

    @pytest.mark.parametrize("separation", [2, np.float32(1.5), np.int64(-3)])
    def test_separation_of_any_real_type_gives_the_float_features(self, separation):
        ref = make_synthetic(3, 100, 5, float(separation), 0)
        ds = make_synthetic(3, 100, 5, separation, 0)
        assert ds.features.tobytes() == ref.features.tobytes()

    def centroid_accuracy(self, ds):
        Xtr, ytr = ds.features[ds.train_idx], ds.labels[ds.train_idx]
        Xte, yte = ds.features[ds.test_idx], ds.labels[ds.test_idx]
        means = np.stack([Xtr[ytr == c].mean(axis=0) for c in range(ds.num_classes)])
        pred = np.argmin(((Xte[:, None, :] - means[None]) ** 2).sum(-1), axis=1)
        return float(np.mean(pred == yte))

    def test_wide_separation_is_linearly_separable(self):
        assert self.centroid_accuracy(make_synthetic(4, 2000, 12, 8.0, seed=3)) >= 0.99

    def test_zero_separation_is_chance(self):
        acc = self.centroid_accuracy(make_synthetic(4, 2000, 12, 0.0, seed=3))
        assert abs(acc - 0.25) < 0.1


class TestMlpModel:
    def test_init_shapes(self):
        m = MlpModel.init(7, 4, 3, np.random.default_rng(0))
        assert m.W1.shape == (7, 4) and m.b1.shape == (4,)
        assert m.W2.shape == (4, 3) and m.b2.shape == (3,)
        np.testing.assert_array_equal(m.b1, 0.0)

    def test_rejects_mismatched_layers(self):
        with pytest.raises(ValueError, match="chain"):
            MlpModel(np.zeros((3, 4)), np.zeros(4), np.zeros((5, 2)), np.zeros(2))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(92)
        model = MlpModel.init(4, 3, 2, rng)
        X = rng.normal(0, 1, (5, 4))
        labels = rng.integers(0, 2, 5)
        _, Z1, _ = model.forward(X)[1]
        assert np.min(np.abs(Z1)) > 1e-3  # seed keeps us off the rectifier kink

        scores, cache = model.forward(X)
        ev = loss_layer("ce", scores, labels, 1.0)
        grads = model.backward(cache, ev.grad)

        h = 1e-6
        params = [model.W1, model.b1, model.W2, model.b2]
        for p, g in zip(params, grads):
            fd = np.zeros_like(p)
            for idx in np.ndindex(p.shape):
                orig = p[idx]
                p[idx] = orig + h
                up = loss_layer("ce", model.scores(X), labels, 1.0).value
                p[idx] = orig - h
                down = loss_layer("ce", model.scores(X), labels, 1.0).value
                p[idx] = orig
                fd[idx] = (up - down) / (2 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("name", ["W1", "b1", "W2", "b2"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_params_finite_sees_one_bad_entry(self, name, bad):
        m = MlpModel.init(7, 4, 3, np.random.default_rng(0))
        assert m.params_finite()
        p = getattr(m, name)
        p[(p.ndim - 1) * (1,) + (2,)] = bad  # inside a 2-D array, not its first row
        assert not m.params_finite()

    def test_params_finite_accepts_the_largest_magnitudes(self):
        # entries of +-1e308: their sum overflows, their min and max do not
        rng = np.random.default_rng(1)
        m = MlpModel.init(7, 4, 3, rng)
        for name in ("W1", "b1", "W2", "b2"):
            p = getattr(m, name)
            p[...] = rng.choice([-1e308, 1e308], p.shape)
        assert m.params_finite()


class TestLossLayer:
    def test_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown loss"):
            loss_layer("focal", np.zeros((2, 2)), np.array([0, 1]), 1.0)

    def test_every_entry_point_names_an_unknown_loss_alike(self):
        ds = make_synthetic(2, 40, 3, 2.0, seed=0)
        calls = (lambda: loss_layer("focal", np.zeros((2, 2)), np.array([0, 1]), 1.0),
                 lambda: train_one(0, ds, "focal", 8, 1.0, 0.1, 1),
                 lambda: SweepConfig(losses=("ce", "focal")))
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == ("unknown loss 'focal'; expected one of "
                                      "('ce', 'hinge', 'mse', 'hypersimplex')")

    def test_all_names_produce_grad_of_score_shape(self):
        rng = np.random.default_rng(93)
        scores = rng.normal(0, 1, (6, 3))
        labels = rng.integers(0, 3, 6)
        for name in LOSS_NAMES:
            ev = loss_layer(name, scores, labels, 1.0)
            assert math.isfinite(ev.value)
            assert ev.grad.shape == scores.shape

    def test_hypersimplex_layer_is_mean_reduced(self):
        from hypersimplex import HypersimplexSpec, loss_grad_from_residual, project

        rng = np.random.default_rng(94)
        scores = rng.normal(0, 1, (8, 3))
        labels = rng.integers(0, 3, 8)
        ev = loss_layer("hypersimplex", scores, labels, 2.0)
        total = 0.0
        ref = np.empty((8, 3))
        for c in range(3):
            res = project(scores[:, c], HypersimplexSpec(8, int(np.sum(labels == c)), 2.0))
            resid = res.y - (labels == c)
            total += 0.5 * float(np.dot(resid, resid))
            ref[:, c] = loss_grad_from_residual(res, resid)
        assert ev.value == total / 8
        assert ev.grad.tobytes() == (ref / 8).tobytes()

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_duplicated_batch_keeps_the_mean(self, name):
        # every loss is a per-sample mean: the batch stacked twice gives the
        # same value and half the gradient on each copy
        rng = np.random.default_rng(95)
        for _ in range(40):
            n, C = int(rng.integers(2, 80)), int(rng.integers(2, 6))
            scores = rng.normal(0, 2, (n, C))
            labels = rng.integers(0, C, n)
            tau = float(rng.choice([0.5, 1.0, 2.0]))
            ev = loss_layer(name, scores, labels, tau)
            twice = loss_layer(name, np.vstack([scores, scores]),
                               np.concatenate([labels, labels]), tau)
            assert twice.value == pytest.approx(ev.value, rel=1e-12, abs=1e-15)
            for half in (twice.grad[:n], twice.grad[n:]):
                np.testing.assert_allclose(half, ev.grad / 2, rtol=1e-12, atol=1e-15)


@pytest.fixture(scope="module")
def sanity_dataset():
    # wide blobs: any sensible training run should separate these
    return make_synthetic(3, 1200, 10, 8.0, seed=1)


# per-loss settings that reach high accuracy on the sanity blobs; the
# hypersimplex loss needs a large temperature here because a small one lets
# per-class score offsets drift (its column-wise form never compares classes
# against each other within one sample)
SANITY_RUNS = {
    "ce": (1.0, 0.01, 25),
    "hinge": (1.0, 0.01, 25),
    "mse": (1.0, 0.01, 25),
    "hypersimplex": (8.0, 0.3, 40),
}


class TestTrainOne:
    def test_identical_arguments_reproduce_the_record(self, sanity_dataset):
        a = train_one(3, sanity_dataset, "ce", 64, 1.0, 0.05, 2)
        b = train_one(3, sanity_dataset, "ce", 64, 1.0, 0.05, 2)
        assert a == b

    def test_untrained_model_sits_near_chance(self):
        ds = make_synthetic(5, 2000, 20, 2.0, seed=0)
        for seed in range(3):
            rec = train_one(seed, ds, "ce", 64, 1.0, 0.1, 0)
            assert abs(rec.best_test_acc - 0.2) < 0.1
            assert rec.final_train_loss > 0.0
            assert not rec.failed

    @pytest.mark.parametrize("loss_name", LOSS_NAMES)
    def test_separable_data_reaches_high_accuracy(self, sanity_dataset, loss_name):
        tau, lr, epochs = SANITY_RUNS[loss_name]
        rec = train_one(0, sanity_dataset, loss_name, 32, tau, lr, epochs)
        assert not rec.failed
        assert rec.best_test_acc >= 0.99

    @pytest.mark.parametrize("loss_name", LOSS_NAMES)
    def test_training_loss_decreases_over_early_epochs(self, sanity_dataset, loss_name):
        # same seed means the shorter runs are prefixes of the longer one
        losses = [
            train_one(0, sanity_dataset, loss_name, 32, 0.5, 0.01, e).final_train_loss
            for e in (0, 5, 10)
        ]
        assert losses[2] < losses[1] < losses[0]

    def test_divergence_marks_failed_and_keeps_accuracy(self):
        ds = make_synthetic(5, 500, 20, 2.0, seed=0)
        rec = train_one(0, ds, "mse", 64, 1.0, 1e6, 3)
        assert rec.failed
        assert math.isnan(rec.final_train_loss)
        assert 0.0 <= rec.best_test_acc <= 1.0

    def test_divergence_surfacing_only_at_an_eval_is_flagged_not_raised(self):
        # parameters stay finite through the last sgd_step but overflow the
        # next forward, so only the epoch-boundary and final evals see it
        ds = make_synthetic(3, 144, 5, 3.0, seed=0, m_train=96)
        rec = train_one(0, ds, "mse", 16, 1.0, 0.15, 2)
        assert rec.failed
        assert math.isnan(rec.final_train_loss)

    def test_rejects_unknown_loss(self, sanity_dataset):
        with pytest.raises(ValueError, match="unknown loss"):
            train_one(0, sanity_dataset, "focal", 32, 1.0, 0.1, 1)

    @pytest.mark.parametrize("dataset", [None, "synthetic", {"m_train": 32}])
    def test_rejects_what_is_not_a_dataset(self, dataset):
        with pytest.raises(TypeError) as exc:
            train_one(0, dataset, "ce", 32, 1.0, 0.1, 1)
        assert str(exc.value) == "dataset must be a Dataset"

    def test_rejects_bad_batch_size(self, sanity_dataset):
        with pytest.raises(ValueError, match="batch_size"):
            train_one(0, sanity_dataset, "ce", 0, 1.0, 0.1, 1)
        with pytest.raises(ValueError, match="batch_size"):
            train_one(0, sanity_dataset, "ce", sanity_dataset.m_train + 1, 1.0, 0.1, 1)
        for batch_size in (True, 2.5):
            with pytest.raises(ValueError, match="batch_size must lie in"):
                train_one(0, sanity_dataset, "ce", batch_size, 1.0, 0.1, 1)

    @pytest.mark.parametrize("seed, epochs, hidden, message", [
        (0, -1, 32, "epochs must be an integer >= 0, got -1"),
        (0, 1.5, 32, "epochs must be an integer >= 0, got 1.5"),
        (0, 1, 0, "hidden must be an integer >= 1, got 0"),
        (-1, 1, 32, "seed must be an integer >= 0, got -1"),
    ])
    def test_rejects_counts_before_training(self, sanity_dataset, seed, epochs, hidden,
                                            message):
        with pytest.raises(ValueError) as exc:
            train_one(seed, sanity_dataset, "ce", 32, 1.0, 0.1, epochs, hidden=hidden)
        assert str(exc.value) == message

    @pytest.mark.parametrize("loss_name", LOSS_NAMES)
    @pytest.mark.parametrize("name", ["tau", "lr"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1, 0, True, "x", None])
    def test_rejects_tau_and_lr_before_building_the_model(
            self, sanity_dataset, monkeypatch, loss_name, name, bad):
        def build(*args):
            pytest.fail("the model was built")

        monkeypatch.setattr(MlpModel, "init", build)
        kwargs = {"tau": 1.0, "lr": 0.1, name: bad}
        with pytest.raises(ValueError) as exc:
            train_one(0, sanity_dataset, loss_name, 32, epochs=1, **kwargs)
        assert str(exc.value) == f"{name} must be positive and finite, got {bad!r}"

    def test_checks_counts_before_tau_and_lr(self, sanity_dataset):
        with pytest.raises(ValueError, match="epochs must be an integer"):
            train_one(0, sanity_dataset, "ce", 32, math.nan, -1.0, -1)

    def test_rejects_empty_test_split(self):
        ds = make_synthetic(3, 100, 5, 2.0, seed=0, m_train=100)
        with pytest.raises(ValueError, match="empty test split"):
            train_one(0, ds, "ce", 10, 1.0, 0.1, 1)


class _Deadline(Exception):
    """Raised by a patched step, as a timer that stops a run would."""


class TestSgdStepSeam:
    """train_one runs every step through the module global trainer._sgd_step,
    so a wrapper patched in there sees each step and can end the run."""

    # 960 train examples in batches of 100: nine full batches and one of 60;
    # at this lr the best test accuracy differs after each of epochs 0-3
    BATCH, EPOCHS = 100, 3
    STEPS = math.ceil(960 / BATCH)

    def run(self, dataset, epochs=EPOCHS):
        return train_one(0, dataset, "ce", self.BATCH, 1.0, 0.005, epochs)

    def patch_step(self, monkeypatch, on_call):
        """Route step j (from 0) to on_call(j, real_step, args); returns the
        list of j seen."""
        real, seen = trainer._sgd_step, []

        def wrapper(*args):
            seen.append(len(seen))
            return on_call(seen[-1], real, args)

        monkeypatch.setattr(trainer, "_sgd_step", wrapper)
        return seen

    def test_sgd_step_reports_a_non_finite_forward_and_leaves_the_model(self):
        rng = np.random.default_rng(0)
        model = MlpModel.init(4, 3, 2, rng)
        X, y = rng.standard_normal((5, 4)), np.array([0, 1, 0, 1, 1])
        model.W2[:] = np.inf
        before = [p.copy() for p in (model.W1, model.b1, model.W2, model.b2)]
        with np.errstate(invalid="ignore"):  # inf * 0 in the forward, as train_one allows
            assert trainer._sgd_step(model, X, y, "ce", 1.0, 0.1) is False
        for old, new in zip(before, (model.W1, model.b1, model.W2, model.b2)):
            assert np.array_equal(old, new)

    def test_a_counting_wrapper_sees_every_step_and_changes_nothing(
            self, sanity_dataset, monkeypatch):
        plain = self.run(sanity_dataset)
        seen = self.patch_step(monkeypatch, lambda j, real, args: real(*args))
        rec = self.run(sanity_dataset)
        assert len(seen) == self.EPOCHS * math.ceil(sanity_dataset.m_train / self.BATCH)
        assert not rec.failed
        assert rec.best_test_acc.hex() == plain.best_test_acc.hex()
        assert rec.final_train_loss.hex() == plain.final_train_loss.hex()

    @pytest.mark.parametrize("epoch, offset", [(0, 0), (2, 0), (1, 4)])
    def test_a_step_that_fails_ends_the_run_with_the_accuracy_seen_so_far(
            self, sanity_dataset, monkeypatch, epoch, offset):
        j = epoch * self.STEPS + offset
        shorter = self.run(sanity_dataset, epochs=j // self.STEPS)
        seen = self.patch_step(monkeypatch,
                               lambda i, real, args: False if i == j else real(*args))
        rec = self.run(sanity_dataset)
        assert len(seen) == j + 1
        assert rec.failed and math.isnan(rec.final_train_loss)
        assert rec.best_test_acc.hex() == shorter.best_test_acc.hex()

    def test_finite_parameters_that_overflow_the_eval_end_the_run(
            self, sanity_dataset, monkeypatch):
        untrained = self.run(sanity_dataset, epochs=0)

        def on_call(i, real, args):
            ok = real(*args)
            if i == self.STEPS - 1:  # after epoch 0's last step has passed its checks
                args[0].W2[:] = np.finfo(np.float64).max
            return ok

        seen = self.patch_step(monkeypatch, on_call)
        rec = self.run(sanity_dataset)
        assert len(seen) == self.STEPS
        assert rec.failed and math.isnan(rec.final_train_loss)
        assert rec.best_test_acc.hex() == untrained.best_test_acc.hex()

    def test_an_exception_from_a_step_propagates_and_restores_the_error_state(
            self, sanity_dataset, monkeypatch):
        j = self.STEPS + 4

        def on_call(i, real, args):
            if i == j:
                raise _Deadline
            return real(*args)

        seen = self.patch_step(monkeypatch, on_call)
        before = np.geterr()
        with pytest.raises(_Deadline):
            self.run(sanity_dataset)
        assert len(seen) == j + 1
        assert np.geterr() == before


class TestRecordsCsv:
    def sample_records(self):
        return [
            RunRecord("synthetic", "ce", 32, 0, 1.0, 0.1, 3, 0.9125, 0.4052512358),
            RunRecord("synthetic", "hypersimplex", 2048, 4, 0.5, 0.15, 40,
                      0.1 + 0.2, 1e-17),
            RunRecord("fashion_mnist", "mse", 64, 1, 2.0, 1e6, 2, 0.25,
                      float("nan")),
        ]

    def test_roundtrip_preserves_every_field(self, tmp_path):
        path = tmp_path / "runs.csv"
        records = self.sample_records()
        write_records_csv(records, path)
        back = read_records_csv(path)
        assert len(back) == len(records)
        for orig, got in zip(records, back):
            assert got.failed == orig.failed
            for name in ("dataset", "loss", "batch", "seed", "tau", "lr",
                         "epochs", "best_test_acc"):
                assert getattr(got, name) == getattr(orig, name)
            if orig.failed:
                assert math.isnan(got.final_train_loss)
            else:
                assert got.final_train_loss == orig.final_train_loss

    def test_write_is_byte_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(self.sample_records(), p1)
        write_records_csv(self.sample_records(), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == CSV_HEADER

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("dataset,loss\nsynthetic,ce\n")
        with pytest.raises(ValueError, match="line 1: bad header"):
            read_records_csv(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="missing header"):
            read_records_csv(path)

    def test_rejects_wrong_field_count(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(CSV_HEADER + "\nsynthetic,ce,32,0\n")
        with pytest.raises(ValueError, match="line 2: expected 9 fields, got 4"):
            read_records_csv(path)

    def test_rejects_non_numeric_field_with_line_number(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(
            CSV_HEADER + "\n"
            "synthetic,ce,32,0,1.0,0.1,3,0.9,0.5\n"
            "synthetic,ce,oops,0,1.0,0.1,3,0.9,0.5\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            read_records_csv(path)

    def test_failed_is_derived_from_the_nan_loss(self):
        records = self.sample_records()
        assert [r.failed for r in records] == [False, False, True]
        with pytest.raises(AttributeError):
            records[0].failed = True

    def test_failed_flag_derived_from_nan(self, tmp_path):
        path = tmp_path / "runs.csv"
        write_records_csv(self.sample_records(), path)
        back = read_records_csv(path)
        assert [r.failed for r in back] == [False, False, True]


class TestSweepConfig:
    def test_defaults_are_valid(self):
        cfg = SweepConfig()
        assert cfg.dataset == "synthetic"
        assert "hypersimplex" in cfg.losses

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys: optimiser"):
            SweepConfig.from_dict({"optimiser": "adam"})

    def test_seed_count_expands_to_range(self):
        assert SweepConfig(seeds=3).seeds == (0, 1, 2)
        assert SweepConfig(seeds=np.int64(2)).seeds == (0, 1)

    def test_explicit_seed_tuple_kept(self):
        assert SweepConfig(seeds=[5, 7]).seeds == (5, 7)

    def test_rejects_unknown_dataset_and_loss(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            SweepConfig(dataset="cifar10")
        with pytest.raises(ValueError, match="unknown loss"):
            SweepConfig(losses=("ce", "focal"))

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError, match="at least one seed"):
            SweepConfig(seeds=())

    def test_rejects_a_seed_count_too_large_to_list(self):
        with pytest.raises(ValueError) as exc:
            SweepConfig(seeds=2**70)
        assert str(exc.value) == f"seeds must be a count of at most {sys.maxsize}, got {2**70}"

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            SweepConfig(tau=tau)

    @pytest.mark.parametrize("name, value", [
        ("epochs", 0), ("epochs", -1), ("epochs", "2"), ("epochs", 2.0), ("epochs", True),
        ("hidden", 0), ("dims", 0), ("m_train", 0), ("m_test", 0), ("classes", 1),
    ])
    def test_rejects_bad_sizes(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
            SweepConfig(**{name: value})

    @pytest.mark.parametrize("name, value, message", [
        ("lr", "abc", "lr must be positive and finite, got 'abc'"),
        ("lr", -0.5, "lr must be positive and finite, got -0.5"),
        ("lr", 0.0, "lr must be positive and finite, got 0.0"),
        ("lr", math.nan, "lr must be positive and finite, got nan"),
        ("lr", math.inf, "lr must be positive and finite, got inf"),
        ("lr", True, "lr must be positive and finite, got True"),
        ("batches", [32.9], "batches must be integers, got 32.9"),
        ("batches", [32, True], "batches must be integers, got True"),
        ("batches", 32, "batches must be a list of integers, got 32"),
        ("batches", "32", "batches must be a list of integers, got '32'"),
        ("seeds", {0: 1}, "seeds must be a list of integers, got {0: 1}"),
        ("seeds", True, "seeds must be a list of integers, got True"),
        ("separation", "abc", "separation must be a finite number, got 'abc'"),
        ("separation", math.nan, "separation must be a finite number, got nan"),
        ("separation", -math.inf, "separation must be a finite number, got -inf"),
        ("separation", True, "separation must be a finite number, got True"),
        ("separation", None, "separation must be a finite number, got None"),
        ("seeds", [0.5, 1.7], "seeds must be an integer >= 0, got 0.5"),
        ("data_seed", "x", "data_seed must be an integer >= 0, got 'x'"),
        ("data_seed", -1, "data_seed must be an integer >= 0, got -1"),
        ("data_seed", 1.0, "data_seed must be an integer >= 0, got 1.0"),
        ("data_seed", False, "data_seed must be an integer >= 0, got False"),
        ("tau", None, "tau must be positive and finite, got None"),
        ("tau", True, "tau must be positive and finite, got True"),
        ("tau", "2", "tau must be positive and finite, got '2'"),
        ("tau", [1], "tau must be positive and finite, got [1]"),
        # ints beyond float64, which float() and math.isfinite cannot take
        pytest.param("tau", 2**1024, f"tau must be positive and finite, got {2**1024}",
                     id="tau-2**1024"),
        pytest.param("lr", 2**1024, f"lr must be positive and finite, got {2**1024}",
                     id="lr-2**1024"),
        pytest.param("separation", -2**1024, f"separation must be a finite number, got {-2**1024}",
                     id="separation--2**1024"),
        ("losses", "ce", "losses must be a list of loss names, got 'ce'"),
        ("losses", None, "losses must be a list of loss names, got None"),
        ("losses", 5, "losses must be a list of loss names, got 5"),
        ("out_csv", None, "out_csv must be a path string, got None"),
        ("out_csv", 2.5, "out_csv must be a path string, got 2.5"),
        ("data_dir", None, "data_dir must be a path string, got None"),
        ("data_dir", 2.5, "data_dir must be a path string, got 2.5"),
        ("seeds", [0, -1], "seeds must be an integer >= 0, got -1"),
    ])
    def test_rejects_values_it_would_truncate_or_never_check(self, name, value, message):
        # int() would have run a sweep over batch 32 and seeds 0, 1
        with pytest.raises(ValueError) as exc:
            SweepConfig(**{name: value})
        assert str(exc.value) == message

    def test_accepts_smallest_sizes(self):
        SweepConfig(epochs=1, hidden=1, dims=1, m_train=1, m_test=1, classes=2, data_seed=0)

    @pytest.mark.parametrize("separation", [-2.5, 0, 3, np.float32(1.5)])
    def test_accepts_any_finite_separation(self, separation):
        assert SweepConfig(separation=separation).separation == separation

    def test_accepts_batch_sequences(self):
        assert SweepConfig(batches=range(16, 48, 16)).batches == (16, 32)
        assert SweepConfig(batches=np.array([8, 4])).batches == (8, 4)


class TestSweep:
    @pytest.mark.parametrize("config", [{"losses": ["ce"]}, None, "runs.json"])
    def test_rejects_what_is_not_a_sweep_config(self, config):
        with pytest.raises(TypeError) as exc:
            sweep(config)
        assert str(exc.value) == "config must be a SweepConfig"

    def test_runs_grid_in_deterministic_order(self):
        cfg = SweepConfig(
            losses=("ce", "mse"), batches=(16, 32), seeds=(0, 1),
            epochs=1, m_train=64, m_test=32, classes=3, dims=5,
            separation=3.0,
        )
        records = sweep(cfg)
        cells = [(r.loss, r.batch, r.seed) for r in records]
        assert cells == [
            (l, b, s) for l in ("ce", "mse") for b in (16, 32) for s in (0, 1)
        ]
        assert all(r.dataset == "synthetic" for r in records)
        assert all(r.epochs == 1 and r.lr == cfg.lr for r in records)


class TestPairedTTest:
    def test_worked_example(self):
        res = paired_t_test([0.1, 0.2, 0.3], [0.2, 0.3, 0.5])
        assert res.mean_delta == pytest.approx(0.13333333, abs=1e-8)
        assert res.t_stat == pytest.approx(4.0, abs=1e-12)
        assert res.p_value == pytest.approx(0.0572, abs=1e-4)
        assert res.significant_at_10pct
        assert not res.degenerate

    def test_identical_arrays_not_significant(self):
        res = paired_t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
        assert res.mean_delta == 0.0
        assert res.t_stat == 0.0
        assert res.p_value == 1.0
        assert not res.significant_at_10pct
        assert res.degenerate

    def test_constant_shift_hits_degenerate_branch(self):
        # shift by a power of two so the differences are exactly constant
        a = [0.25, 0.5, 0.75]
        res = paired_t_test(a, [x + 0.03125 for x in a])
        assert res.degenerate
        assert res.p_value == 0.0
        assert res.t_stat == math.inf
        assert res.significant_at_10pct
        down = paired_t_test(a, [x - 0.03125 for x in a])
        assert down.t_stat == -math.inf

    def test_matches_scipy_on_random_pairs(self):
        rng = np.random.default_rng(95)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            a = rng.normal(0, 1, n)
            b = a + rng.normal(0.1, 0.5, n)
            if np.std(b - a, ddof=1) == 0.0:
                continue
            res = paired_t_test(a, b)
            ref = scipy.stats.ttest_rel(b, a)
            assert res.t_stat == pytest.approx(ref.statistic, abs=1e-10)
            assert res.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="at least 2 pairs"):
            paired_t_test([1.0], [2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        with pytest.raises(ValueError, match="finite"):
            paired_t_test([0.5, bad, 0.7], [0.6, 0.6, 0.8])
        with pytest.raises(ValueError, match="finite"):
            paired_t_test([0.5, 0.6, 0.7], [0.6, bad, 0.8])

    def test_rejects_overflowing_mean(self):
        # finite samples whose mean overflows would give t = NaN, and a
        # NaN t must not come out as p = 0
        with pytest.raises(ValueError, match="finite mean and spread"):
            paired_t_test([0.0, 0.0, 0.0], [1.7e308, 1.7e308, 1.6e308])

    @pytest.mark.parametrize("df", [*range(1, 11), 28, 99, 999])
    def test_closed_form_p_matches_scipy(self, df):
        # Student-t with 1 df is the Cauchy law; scipy's t.sf itself is off by
        # 2.8e-11 there at t = 1e-6, while cauchy.sf evaluates the arctangent
        dist = scipy.stats.cauchy() if df == 1 else scipy.stats.t(df)
        for t in (0.0, *np.logspace(-6, 6, 61)):
            p = _t_two_sided_p(t, df)
            assert 0.0 <= p <= 1.0
            assert abs(p - 2.0 * dist.sf(t)) <= 1e-12, (df, t, p)
            assert _t_two_sided_p(-t, df) == p
