import gzip
import re
import struct

import numpy as np
import pytest

from privlin import (
    IdxFormatError,
    LabeledDataset,
    MechanismSpec,
    PrivacySpec,
    RawDataset,
    RngStream,
    answer_queries,
    filter_classes,
    fit_predictor,
    load_csv,
    load_idx,
    normalize_unit_ball,
    one_hot,
    pca_fit,
    preprocess_pair,
    subsample_train,
    synth_blob_pair,
    synth_blobs,
    synth_blobs_raw,
    train_test_split,
    unit_ball_scale,
)
from privlin.data import check_rows


def write_idx_images(path, images):
    """Independent IDX writer: big-endian header then raw ubyte pixels."""
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(path, "wb") as handle:
        handle.write(struct.pack(">BBBB", 0, 0, 0x08, 3))
        handle.write(struct.pack(">III", n, rows, cols))
        handle.write(images.tobytes())


def write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as handle:
        handle.write(struct.pack(">BBBB", 0, 0, 0x08, 1))
        handle.write(struct.pack(">I", labels.size))
        handle.write(labels.tobytes())


class TestLoadIdx:
    def test_handcrafted_fixture(self, tmp_path):
        images = np.array([
            [[0, 51], [102, 255]],
            [[255, 0], [25, 76]],
        ], dtype=np.uint8)
        labels = np.array([3, 1], dtype=np.uint8)
        img_path, lab_path = tmp_path / "imgs.idx", tmp_path / "labs.idx"
        write_idx_images(img_path, images)
        write_idx_labels(lab_path, labels)
        ds = load_idx(img_path, lab_path)
        expected = np.array([
            [0.0, 51 / 255, 102 / 255, 1.0],
            [1.0, 0.0, 25 / 255, 76 / 255],
        ])
        np.testing.assert_allclose(ds.features, expected, atol=1e-15)
        np.testing.assert_array_equal(ds.labels, [3, 1])

    def test_gzipped_files(self, tmp_path):
        images = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        labels = np.array([0, 1], dtype=np.uint8)
        write_idx_images(tmp_path / "i.idx", images)
        write_idx_labels(tmp_path / "l.idx", labels)
        for name in ("i.idx", "l.idx"):
            with open(tmp_path / name, "rb") as src:
                with gzip.open(tmp_path / f"{name}.gz", "wb") as dst:
                    dst.write(src.read())
        plain = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        zipped = load_idx(tmp_path / "i.idx.gz", tmp_path / "l.idx.gz")
        np.testing.assert_array_equal(plain.features, zipped.features)

    def test_zero_count_header(self, tmp_path):
        path = tmp_path / "empty.idx"
        with open(path, "wb") as handle:
            handle.write(struct.pack(">BBBB", 0, 0, 0x08, 3))
            handle.write(struct.pack(">III", 0, 2, 2))
        with pytest.raises(IdxFormatError):
            load_idx(path, path)

    def test_count_mismatch(self, tmp_path):
        write_idx_images(tmp_path / "i.idx", np.zeros((3, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "l.idx", np.zeros(2, dtype=np.uint8))
        with pytest.raises(IdxFormatError):
            load_idx(tmp_path / "i.idx", tmp_path / "l.idx")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x01\x00\x08\x01" + struct.pack(">I", 1) + b"\x00")
        with pytest.raises(IdxFormatError):
            load_idx(path, path)

    def test_float_labels_rejected(self, tmp_path):
        write_idx_images(tmp_path / "i.idx", np.zeros((2, 2, 2), dtype=np.uint8))
        with open(tmp_path / "l.idx", "wb") as handle:
            handle.write(struct.pack(">BBBB", 0, 0, 0x0D, 1))
            handle.write(struct.pack(">I", 2))
            handle.write(np.array([0.0, 1.5], dtype=">f4").tobytes())
        with pytest.raises(ValueError, match="labels must be integers"):
            load_idx(tmp_path / "i.idx", tmp_path / "l.idx")

    @pytest.mark.parametrize("raw, message", [
        (b"\x00\x00\x08", "truncated header at byte offset 3"),
        (b"\x00\x00\x07\x01" + struct.pack(">I", 1) + b"\x00",
         "unknown type code 0x07 at byte offset 2"),
        (b"\x00\x00\x08\x00", "invalid rank 0 at byte offset 3"),
        (b"\x00\x00\x08\x03" + struct.pack(">I", 2), "truncated dimensions at byte offset 8"),
    ])
    def test_malformed_header_is_refused(self, tmp_path, raw, message):
        path = tmp_path / "bad.idx"
        path.write_bytes(raw)
        with pytest.raises(IdxFormatError, match=message):
            load_idx(path, path)

    def test_ranks_are_checked(self, tmp_path):
        write_idx_images(tmp_path / "i.idx", np.zeros((2, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "l.idx", np.zeros(2, dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="image file must have rank >= 2"):
            load_idx(tmp_path / "l.idx", tmp_path / "l.idx")
        with pytest.raises(IdxFormatError, match="label file must have rank 1"):
            load_idx(tmp_path / "i.idx", tmp_path / "i.idx")

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "trunc.idx"
        with open(path, "wb") as handle:
            handle.write(struct.pack(">BBBB", 0, 0, 0x08, 1))
            handle.write(struct.pack(">I", 10))
            handle.write(b"\x00" * 4)  # 6 bytes short
        with pytest.raises(IdxFormatError, match="byte offset"):
            load_idx(path, path)


class TestLoadCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,f1,label\n0.5,1.5,0\n-0.25,2.0,1\n")
        ds = load_csv(path)
        np.testing.assert_allclose(ds.features, [[0.5, 1.5], [-0.25, 2.0]])
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_non_integer_labels_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,label\n0.1,0.7\n0.2,1.9\n0.3,2\n")
        with pytest.raises(ValueError, match="labels must be integers"):
            load_csv(path)

    def test_missing_label_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1\n1,2\n")
        with pytest.raises(ValueError):
            load_csv(path)

    def test_header_without_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f0,f1,label\n\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)


class TestRawDatasetValidation:
    @pytest.mark.parametrize("features, labels, n_classes, message", [
        (np.zeros(3), [0, 0, 0], 0, "features must be a 2-D array"),
        (np.zeros((3, 2)), [0, 1], 0, "labels must be a 1-D array matching the feature rows"),
        (np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 0,
         "dataset must contain at least one example"),
        (np.zeros((2, 2)), [0, -1], 0, "labels must be nonnegative"),
        (np.zeros((2, 2)), [0, 3], 3, "label 3 out of range for 3 classes"),
    ])
    def test_rejects_malformed_input(self, features, labels, n_classes, message):
        with pytest.raises(ValueError, match=message):
            RawDataset(features=features, labels=labels, n_classes=n_classes)


class TestUnitBall:
    def test_single_row_scaled_to_unit(self):
        ds = RawDataset(features=np.array([[0.0, 2.0]]), labels=np.array([0]),
                        n_classes=2)
        out = normalize_unit_ball(ds)
        assert np.linalg.norm(out.features[0]) == pytest.approx(1.0)

    def test_idempotent_at_unit_scale(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(20, 4))
        feats /= np.linalg.norm(feats, axis=1).max()
        assert unit_ball_scale(feats) == pytest.approx(1.0)
        out = normalize_unit_ball(RawDataset(features=feats, labels=np.arange(20) % 2))
        np.testing.assert_allclose(out.features, feats, atol=1e-12)

    def test_test_rows_hard_projected(self):
        raw_train = RawDataset(features=np.array([[1.0, 0.0]]), labels=[0], n_classes=2)
        raw_test = RawDataset(features=np.array([[3.0, 4.0]]), labels=[1], n_classes=2)
        _, test, _, scale = preprocess_pair(raw_train, raw_test)
        assert scale == 1.0
        np.testing.assert_allclose(test.features, [[0.6, 0.8]], atol=1e-15)

    def test_all_zero_dataset(self):
        with pytest.raises(ValueError):
            unit_ball_scale(np.zeros((5, 3)))


class TestPca:
    def test_complete_basis_reconstructs(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(40, 5))
        model = pca_fit(feats, 5)
        centered = feats - model.mean
        projected = centered @ model.components
        np.testing.assert_allclose(projected @ model.components.T, centered, atol=1e-10)

    def test_mean_maps_to_origin(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(30, 4)) + 7.0
        model = pca_fit(feats, 2)
        np.testing.assert_allclose(model.transform(model.mean[None, :]), 0.0, atol=1e-12)

    def test_matches_svd_oracle_up_to_sign(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(5, 3))
        model = pca_fit(feats, 2)
        centered = feats - feats.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        for j in range(2):
            dot = abs(float(model.components[:, j] @ vt[j]))
            assert dot == pytest.approx(1.0, abs=1e-8)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(4)
        model = pca_fit(rng.normal(size=(50, 8)), 5)
        gram = model.components.T @ model.components
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-6)

    def test_target_dim_out_of_range(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            pca_fit(rng.normal(size=(10, 4)), 5)


class TestFilterClasses:
    def test_identity_when_keeping_all(self):
        ds = synth_blobs_raw(20, 4, 5, 2.0, RngStream(7))
        out = filter_classes(ds, 4)
        np.testing.assert_array_equal(out.features, ds.features)
        np.testing.assert_array_equal(out.labels, ds.labels)

    def test_counts(self):
        ds = synth_blobs_raw(100, 10, 5, 2.0, RngStream(8))
        out = filter_classes(ds, 2)
        assert out.n_examples == 200
        assert set(out.labels.tolist()) == {0, 1}
        counts_before = np.bincount(ds.labels, minlength=10)
        counts_after = np.bincount(out.labels, minlength=2)
        np.testing.assert_array_equal(counts_after, counts_before[:2])

    def test_empty_class_is_error(self):
        ds = RawDataset(features=np.zeros((4, 2)) + 0.1,
                        labels=np.array([0, 0, 2, 2]), n_classes=3)
        with pytest.raises(ValueError):
            filter_classes(ds, 2)

    def test_degenerate_keep(self):
        ds = synth_blobs_raw(10, 3, 4, 1.0, RngStream(10))
        with pytest.raises(ValueError):
            filter_classes(ds, 1)


class TestSubsample:
    def test_full_size_is_permutation(self):
        ds = synth_blobs_raw(10, 3, 4, 1.0, RngStream(11))
        out = subsample_train(ds, ds.n_examples, RngStream(12))
        assert sorted(map(tuple, out.features.tolist())) == sorted(
            map(tuple, ds.features.tolist()))

    def test_single_example(self):
        ds = synth_blobs_raw(10, 3, 4, 1.0, RngStream(13))
        out = subsample_train(ds, 1, RngStream(14))
        assert out.n_examples == 1

    def test_deterministic(self):
        ds = synth_blobs_raw(10, 3, 4, 1.0, RngStream(15))
        a = subsample_train(ds, 7, RngStream(16))
        b = subsample_train(ds, 7, RngStream(16))
        np.testing.assert_array_equal(a.features, b.features)

    def test_oversample_is_error(self):
        ds = synth_blobs_raw(5, 2, 3, 1.0, RngStream(17))
        with pytest.raises(ValueError):
            subsample_train(ds, ds.n_examples + 1, RngStream(18))


class TestSynthBlobs:
    def test_unit_ball_invariant(self):
        ds = synth_blobs(50, 4, 6, 5.0, RngStream(19))
        assert np.linalg.norm(ds.features, axis=1).max() <= 1.0 + 1e-9

    def test_huge_separation_is_separable(self):
        ds = synth_blobs(40, 3, 6, 50.0, RngStream(20))
        spec = MechanismSpec(kind="nonprivate", privacy=PrivacySpec(1.0), lam=1e-4,
                             grad_tolerance=1e-8)
        predictor = fit_predictor(ds, spec, 0)
        train_acc = float(np.mean(answer_queries(predictor, ds.features)
                                  == ds.label_ints()))
        assert train_acc == 1.0

    def test_zero_separation_is_chance(self):
        raw_train, raw_test = synth_blob_pair(150, 150, 3, 6, 0.0, RngStream(21))
        train, test, _, _ = preprocess_pair(raw_train, raw_test)
        spec = MechanismSpec(kind="nonprivate", privacy=PrivacySpec(1.0), lam=0.01,
                             grad_tolerance=1e-8)
        predictor = fit_predictor(train, spec, 0)
        acc = float(np.mean(answer_queries(predictor, test.features)
                            == test.label_ints()))
        assert abs(acc - 1 / 3) < 0.12

    @pytest.mark.parametrize("counts, separation, message", [
        ((0, 3, 4), 1.0, "synth n_per_class must be a whole number >= 1, got 0"),
        ((5, 0, 4), 1.0, "synth n_classes must be a whole number >= 1, got 0"),
        ((5, 3, 0), 1.0, "synth dim must be a whole number >= 1, got 0"),
        ((5, 3, 4), -1.0, "separation must be nonnegative"),
    ])
    def test_rejects_bad_settings(self, counts, separation, message):
        with pytest.raises(ValueError, match=message):
            synth_blobs_raw(*counts, separation, RngStream(22))

    def test_reproducible(self):
        a = synth_blobs(20, 3, 4, 2.0, RngStream(22))
        b = synth_blobs(20, 3, 4, 2.0, RngStream(22))
        np.testing.assert_array_equal(a.features, b.features)

    def test_pair_shares_anchors(self):
        raw_train, raw_test = synth_blob_pair(100, 50, 3, 6, 4.0, RngStream(23))
        train, test, _, _ = preprocess_pair(raw_train, raw_test)
        spec = MechanismSpec(kind="nonprivate", privacy=PrivacySpec(1.0), lam=0.01,
                             grad_tolerance=1e-8)
        predictor = fit_predictor(train, spec, 0)
        acc = float(np.mean(answer_queries(predictor, test.features)
                            == test.label_ints()))
        assert acc > 0.9


class TestSplitsAndLeakage:
    def test_train_test_split_partition(self):
        ds = synth_blobs_raw(40, 3, 5, 2.0, RngStream(24))
        train, test = train_test_split(ds, 0.25, RngStream(25))
        assert train.n_examples + test.n_examples == ds.n_examples
        assert test.n_examples == 30

    def test_split_bounds(self):
        ds = synth_blobs_raw(5, 2, 3, 1.0, RngStream(29))
        for fraction in (0.0, 1.0):
            with pytest.raises(ValueError, match=r"test_fraction must lie in \(0, 1\)"):
                train_test_split(ds, fraction, RngStream(30))
        single = RawDataset(features=np.ones((1, 3)), labels=[0])
        with pytest.raises(ValueError, match="split would leave no training examples"):
            train_test_split(single, 0.5, RngStream(31))

    @pytest.mark.parametrize("fraction", ["0.25", True, None])
    def test_split_refuses_a_fraction_that_is_no_number(self, fraction):
        # "0.25" and None used to raise TypeError from the comparison.
        ds = synth_blobs_raw(5, 2, 3, 1.0, RngStream(29))
        with pytest.raises(ValueError, match=r"test_fraction must lie in \(0, 1\)"):
            train_test_split(ds, fraction, RngStream(30))

    def test_splits_must_share_a_label_space(self):
        raw_train, raw_test = synth_blob_pair(5, 5, 3, 4, 3.0, RngStream(32))
        raw_test.n_classes = 4
        with pytest.raises(ValueError, match="train and test must share a label space"):
            preprocess_pair(raw_train, raw_test)

    def test_transforms_fit_on_train_only(self):
        raw_train, raw_test_a = synth_blob_pair(50, 25, 3, 8, 3.0, RngStream(26))
        _, raw_test_b = synth_blob_pair(50, 25, 3, 8, 3.0, RngStream(27))
        _, _, pca_a, scale_a = preprocess_pair(raw_train, raw_test_a, target_dim=4)
        _, _, pca_b, scale_b = preprocess_pair(raw_train, raw_test_b, target_dim=4)
        np.testing.assert_array_equal(pca_a.components, pca_b.components)
        np.testing.assert_array_equal(pca_a.mean, pca_b.mean)
        assert scale_a == scale_b

    def test_pipeline_output_satisfies_unit_ball(self):
        raw_train, raw_test = synth_blob_pair(60, 30, 4, 10, 3.0, RngStream(28))
        train, test, _, _ = preprocess_pair(raw_train, raw_test, target_dim=5)
        for split in (train, test):
            assert np.linalg.norm(split.features, axis=1).max() <= 1.0 + 1e-9


class TestLabeledDatasetValidation:
    def test_rejects_norm_violation(self):
        with pytest.raises(ValueError):
            LabeledDataset(features=np.array([[2.0, 0.0]]), labels=np.array([[1.0, 0.0]]))

    @pytest.mark.filterwarnings("error")
    def test_norm_violation_reports_the_max_norm(self):
        for scale in (1.0, 1e200):  # the squared norm of 5e200 overflows, silently
            message = re.escape(f"features must lie in the unit L2 ball; max norm {5 * scale:.6g}")
            with pytest.raises(ValueError, match=message):
                LabeledDataset(features=np.array([[0.6, 0.0], [3.0, 4.0]]) * scale,
                               labels=one_hot([0, 1], 2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e200, -1e200])
    def test_reported_norm_matches_linalg_norm(self, scale):
        """The refusal's norm equals the largest row norm to its six printed digits; rows
        near 1e200, whose squared norms overflow, are compared on a copy scaled by 1e-200."""
        rows = np.random.default_rng(5).standard_normal((40, 300)) * scale
        rows[7, :3] = np.array([2e3, -1e3, 5e2]) * scale
        down = 1e-200 if abs(scale) > 1e100 else 1.0
        expected = np.linalg.norm(rows * down, axis=1).max() / down
        with pytest.raises(ValueError, match=re.escape(f"max norm {expected:.6g}")):
            check_rows(rows, True, "rows")

    @pytest.mark.parametrize("features, labels, message", [
        (np.zeros(2), np.eye(2), "features and labels must be 2-D arrays"),
        (np.zeros((2, 2)), np.eye(2)[0], "features and labels must be 2-D arrays"),
        (np.zeros((3, 2)), np.eye(2), "features and labels must have the same number of rows"),
        (np.zeros((0, 2)), np.zeros((0, 2)), "dataset must contain at least one example"),
    ])
    def test_rejects_malformed_arrays(self, features, labels, message):
        with pytest.raises(ValueError, match=message):
            LabeledDataset(features=features, labels=labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_features(self, bad):
        # One non-finite entry in an otherwise valid dataset.
        features = np.full((4, 3), 0.1)
        features[2, 1] = bad
        with pytest.raises(ValueError, match="features must be finite"):
            LabeledDataset(features=features, labels=one_hot([0, 1, 0, 1], 2))

    def test_rejects_soft_labels(self):
        with pytest.raises(ValueError):
            LabeledDataset(features=np.array([[0.5, 0.0]]),
                           labels=np.array([[0.5, 0.5]]))

    def test_one_hot_range_check(self):
        with pytest.raises(ValueError):
            one_hot([0, 3], 3)

    def test_one_hot_rejects_fractional_and_empty_labels(self):
        with pytest.raises(ValueError, match="labels must be integers"):
            one_hot([0.7, 1.2], 3)
        with pytest.raises(ValueError, match="labels must be nonempty"):
            one_hot(np.array([], dtype=np.int64), 3)
        np.testing.assert_array_equal(one_hot([2.0, 0.0], 3), [[0, 0, 1], [1, 0, 0]])
