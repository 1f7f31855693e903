"""Dataset ingestion, the preprocessing transforms behind the sweeps, and a
synthetic blob generator for desk-scale experiments."""

from __future__ import annotations

import csv
import gzip
import struct
from dataclasses import dataclass

import numpy as np

from .noise import as_generator

NORM_TOLERANCE = 1e-9


def check_rows(rows: np.ndarray, in_ball: bool, name: str) -> np.ndarray:
    """rows, if each (k, D) row is finite and, with in_ball, of squared L2 norm at most
    (1 + NORM_TOLERANCE)^2: the one unit-ball rule of training rows and queries. A NaN or
    inf entry fails that test, so only a failed or skipped one checks finiteness."""
    max_sq = (rows * rows).sum(axis=1).max(initial=0.0) if in_ball else np.inf
    if max_sq <= (1.0 + NORM_TOLERANCE) ** 2:
        return rows
    if not np.isfinite(rows).all():
        raise ValueError(f"{name} must be finite")
    if in_ball:
        max_norm = np.hypot.reduce(rows, axis=1).max()  # max_sq may have overflowed
        raise ValueError(f"{name} must lie in the unit L2 ball; max norm {max_norm:.6g}")
    return rows


class IdxFormatError(ValueError):
    """The file is not a well-formed IDX payload."""


def _integer_labels(labels) -> np.ndarray:
    """labels as int64; ValueError unless every label is an integer."""
    given = np.asarray(labels)
    as_int = given.astype(np.int64, copy=False)
    if not np.array_equal(as_int, given):
        raise ValueError("labels must be integers")
    return as_int


@dataclass
class RawDataset:
    """Feature rows with integer labels, before any privacy-related preprocessing."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int = 0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = _integer_labels(self.labels)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be a 1-D array matching the feature rows")
        if self.features.shape[0] < 1:
            raise ValueError("dataset must contain at least one example")
        if self.labels.min() < 0:
            raise ValueError("labels must be nonnegative")
        if self.n_classes == 0:
            self.n_classes = int(self.labels.max()) + 1
        elif self.labels.max() >= self.n_classes:
            raise ValueError(f"label {self.labels.max()} out of range for "
                             f"{self.n_classes} classes")

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def one_hot(labels, n_classes: int) -> np.ndarray:
    labels = _integer_labels(labels)
    if labels.size == 0:
        raise ValueError("labels must be nonempty")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("labels out of range")
    return np.eye(n_classes)[labels]


@dataclass
class LabeledDataset:
    """Training-ready examples: one-hot labels and rows that pass check_rows."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.features.ndim != 2 or self.labels.ndim != 2:
            raise ValueError("features and labels must be 2-D arrays")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels must have the same number of rows")
        if self.features.shape[0] < 1:
            raise ValueError("dataset must contain at least one example")
        check_rows(self.features, True, "features")
        is_unit = (self.labels == 1.0).sum(axis=1) == 1
        is_zero_elsewhere = (self.labels != 0.0).sum(axis=1) == 1
        if not (np.all(is_unit) and np.all(is_zero_elsewhere)):
            raise ValueError("labels must be exact one-hot rows")

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return self.labels.shape[1]

    def label_ints(self) -> np.ndarray:
        return self.labels.argmax(axis=1)


# ---------------------------------------------------------------------------
# IDX and CSV readers
# ---------------------------------------------------------------------------

_IDX_DTYPES = {
    0x08: np.dtype(">u1"),
    0x09: np.dtype(">i1"),
    0x0B: np.dtype(">i2"),
    0x0C: np.dtype(">i4"),
    0x0D: np.dtype(">f4"),
    0x0E: np.dtype(">f8"),
}


def _read_idx(path) -> np.ndarray:
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as handle:
        raw = handle.read()

    if len(raw) < 4:
        raise IdxFormatError(f"{path}: truncated header at byte offset {len(raw)}")
    zero1, zero2, type_code, rank = struct.unpack(">BBBB", raw[:4])
    if zero1 != 0 or zero2 != 0:
        raise IdxFormatError(f"{path}: bad magic bytes at byte offset 0")
    if type_code not in _IDX_DTYPES:
        raise IdxFormatError(f"{path}: unknown type code 0x{type_code:02x} at byte offset 2")
    if rank < 1:
        raise IdxFormatError(f"{path}: invalid rank {rank} at byte offset 3")

    header_end = 4 + 4 * rank
    if len(raw) < header_end:
        raise IdxFormatError(f"{path}: truncated dimensions at byte offset {len(raw)}")
    dims = struct.unpack(f">{rank}I", raw[4:header_end])
    if any(d == 0 for d in dims):
        raise IdxFormatError(f"{path}: empty payload, dimensions {dims}")

    dtype = _IDX_DTYPES[type_code]
    count = int(np.prod(dims))
    expected = header_end + count * dtype.itemsize
    if len(raw) < expected:
        raise IdxFormatError(
            f"{path}: payload ends at byte offset {len(raw)}, expected {expected}")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=header_end)
    return data.reshape(dims)


def load_idx(images_path, labels_path) -> RawDataset:
    """Read an IDX image/label file pair (optionally gzipped) into a RawDataset.

    Pixel bytes are mapped to [0, 1]; images are flattened to feature rows.
    """
    images = _read_idx(images_path)
    labels = _read_idx(labels_path)
    if images.ndim < 2:
        raise IdxFormatError(f"{images_path}: image file must have rank >= 2")
    if labels.ndim != 1:
        raise IdxFormatError(f"{labels_path}: label file must have rank 1")
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"image count {images.shape[0]} does not match label count {labels.shape[0]}")
    features = images.reshape(images.shape[0], -1).astype(np.float64)
    if images.dtype == np.dtype(">u1"):
        features /= 255.0
    return RawDataset(features=features, labels=labels)


def load_csv(path) -> RawDataset:
    """Read a feature CSV with header f0,...,fD-1,label into a RawDataset."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or header[-1] != "label":
            raise ValueError(f"{path}: expected header ending in 'label'")
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=np.float64)
    return RawDataset(features=table[:, :-1], labels=table[:, -1])


# ---------------------------------------------------------------------------
# Preprocessing transforms (fit on train, applied to test)
# ---------------------------------------------------------------------------

def unit_ball_scale(features) -> float:
    """The one global scale fit on a training split: 1 / max ||x||_2."""
    max_norm = float(np.linalg.norm(np.asarray(features, dtype=np.float64), axis=1).max())
    if max_norm == 0.0:
        raise ValueError("cannot normalize an all-zero dataset")
    return 1.0 / max_norm


def project_to_unit_ball(rows: np.ndarray) -> np.ndarray:
    """Divide, in place, every row of norm above 1 by its norm; returns rows.

    Every sensitivity bound assumes ||x||_2 <= 1 for training rows and for
    prediction-side queries, so rows a fitted scale leaves outside the ball
    (test rows, queries) are hard-projected onto the sphere.
    """
    norms = np.linalg.norm(rows, axis=1)
    excess = norms > 1.0
    if np.any(excess):
        rows[excess] /= norms[excess, None]
    return rows


def _labeled(features: np.ndarray, raw: RawDataset) -> LabeledDataset:
    """Scaled feature rows projected into the unit ball, with raw's one-hot labels."""
    return LabeledDataset(features=project_to_unit_ball(features),
                          labels=one_hot(raw.labels, raw.n_classes))


def normalize_unit_ball(data: RawDataset) -> LabeledDataset:
    """Scale a raw dataset into the unit ball and attach one-hot labels."""
    return _labeled(data.features * unit_ball_scale(data.features), data)


@dataclass
class PcaModel:
    """Mean and orthonormal projection directions; transform returns the centred
    projection, which preprocess_pair scales by its one unit_ball_scale."""

    mean: np.ndarray
    components: np.ndarray  # (D_raw, D), orthonormal columns

    def transform(self, features) -> np.ndarray:
        return (np.asarray(features, dtype=np.float64) - self.mean) @ self.components


def pca_fit(features, target_dim: int) -> PcaModel:
    """Top principal directions of the (mean-centered) features.

    Directions come from an eigendecomposition of the D x D covariance; each
    direction's largest-magnitude entry is made positive to fix signs.
    """
    features = np.asarray(features, dtype=np.float64)
    n, d_raw = features.shape
    if not 1 <= target_dim <= min(n, d_raw):
        raise ValueError(f"target_dim must lie in [1, {min(n, d_raw)}], got {target_dim}")
    mean = features.mean(axis=0)
    centered = features - mean
    cov = centered.T @ centered / max(n - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    components = eigvecs[:, ::-1][:, :target_dim]
    anchor = np.abs(components).argmax(axis=0)
    signs = np.sign(components[anchor, np.arange(target_dim)])
    signs[signs == 0] = 1.0
    return PcaModel(mean=mean, components=components * signs)


# ---------------------------------------------------------------------------
# Subset operations
# ---------------------------------------------------------------------------

def _take(data: RawDataset, index) -> RawDataset:
    return RawDataset(features=data.features[index], labels=data.labels[index],
                      n_classes=data.n_classes)


def filter_classes(data: RawDataset, keep_classes: int) -> RawDataset:
    """Retain the examples of the first keep_classes labels (relabeled space)."""
    if not 1 < keep_classes <= data.n_classes:
        raise ValueError(f"keep_classes must lie in (1, {data.n_classes}], got {keep_classes}")
    mask = data.labels < keep_classes
    if np.any(np.bincount(data.labels[mask], minlength=keep_classes) == 0):
        raise ValueError(f"class filter to {keep_classes} classes leaves an empty class")
    return RawDataset(features=data.features[mask], labels=data.labels[mask],
                      n_classes=keep_classes)


def subsample_train(data: RawDataset, target_n: int, rng) -> RawDataset:
    """Uniform without-replacement subset of size target_n (seeded)."""
    if not 1 <= target_n <= data.n_examples:
        raise ValueError(f"target_n must lie in [1, {data.n_examples}], got {target_n}")
    rng = as_generator(rng)
    index = rng.choice(data.n_examples, size=target_n, replace=False)
    return _take(data, index)


def train_test_split(data: RawDataset, test_fraction: float, rng) -> tuple[RawDataset, RawDataset]:
    """Seeded shuffle-and-split; returns (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    rng = as_generator(rng)
    n = data.n_examples
    n_test = max(1, int(round(n * test_fraction)))
    if n_test >= n:
        raise ValueError("split would leave no training examples")
    perm = rng.permutation(n)
    return _take(data, perm[n_test:]), _take(data, perm[:n_test])


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

def synth_blobs_raw(n_per_class: int, n_classes: int, dim: int, separation: float,
                    rng) -> RawDataset:
    """Gaussian clusters at separation-scaled anchor directions, unnormalized.

    Anchors are orthonormal when dim >= n_classes (so clusters are symmetric),
    random unit directions otherwise. separation = 0 collapses all classes
    onto one cluster.
    """
    if min(n_per_class, n_classes, dim) < 1:
        raise ValueError("n_per_class, n_classes, and dim must be positive")
    if separation < 0:
        raise ValueError("separation must be nonnegative")
    rng = as_generator(rng)
    if dim >= n_classes:
        q, _ = np.linalg.qr(rng.standard_normal((dim, n_classes)))
        anchors = q.T
    else:
        anchors = rng.standard_normal((n_classes, dim))
        anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    labels = np.repeat(np.arange(n_classes), n_per_class)
    features = separation * anchors[labels] + rng.standard_normal((labels.size, dim))
    return RawDataset(features=features, labels=labels, n_classes=n_classes)


def synth_blobs(n_per_class: int, n_classes: int, dim: int, separation: float,
                rng) -> LabeledDataset:
    """Unit-ball-normalized Gaussian blobs, ready for training."""
    return normalize_unit_ball(synth_blobs_raw(n_per_class, n_classes, dim, separation, rng))


def synth_blob_pair(n_train_per_class: int, n_test_per_class: int, n_classes: int,
                    dim: int, separation: float, rng) -> tuple[RawDataset, RawDataset]:
    """Train and test blobs drawn around the same anchors (one rng stream)."""
    pool = synth_blobs_raw(n_train_per_class + n_test_per_class, n_classes, dim,
                           separation, rng)
    per_class = n_train_per_class + n_test_per_class
    offsets = np.arange(n_classes) * per_class
    train_index = (offsets[:, None] + np.arange(n_train_per_class)).ravel()
    test_index = (offsets[:, None] + n_train_per_class + np.arange(n_test_per_class)).ravel()
    return _take(pool, train_index), _take(pool, test_index)


def preprocess_pair(raw_train: RawDataset, raw_test: RawDataset,
                    target_dim: int | None = None):
    """Fit PCA (optional) and the unit-ball scale on train; apply both to test.

    Returns (train, test, pca_model, scale) with LabeledDataset splits. All
    statistics come from the training split only.
    """
    if raw_train.n_classes != raw_test.n_classes:
        raise ValueError("train and test must share a label space")
    train_feats, test_feats = raw_train.features, raw_test.features
    pca = None
    if target_dim is not None and target_dim != raw_train.n_features:
        pca = pca_fit(train_feats, target_dim)
        train_feats = pca.transform(train_feats)
        test_feats = pca.transform(test_feats)
    scale = unit_ball_scale(train_feats)
    return (_labeled(train_feats * scale, raw_train), _labeled(test_feats * scale, raw_test),
            pca, scale)
