"""Dataset ingestion, synthesis, preprocessing and stratification.

Binary-classification tabular data only: an (m, d) float feature matrix
with {0, 1} labels. Preprocessing centres every feature and scales it to
unit standard deviation; the pre-standardisation variances are kept so
that later feature selection can still order columns by decreasing raw
variance (after standardisation all variances are 1 and the ordering
would be meaningless).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .statevector import ConfigurationError

_ZERO_VARIANCE = 1e-12


@dataclass
class Dataset:
    """Feature matrix, binary labels and preprocessing provenance."""

    features: np.ndarray
    labels: np.ndarray
    dataset_id: str = "dataset"
    feature_variances: np.ndarray | None = None  # pre-standardisation, per column
    preprocessing: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got {self.features.ndim}-D")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must have one entry per row")

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> dict[int, int]:
        values, counts = np.unique(self.labels, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def describe(self) -> dict:
        return {
            "id": self.dataset_id,
            "m": self.m,
            "n_features": self.n_features,
            "class_counts": self.class_counts(),
            "preprocessing": dict(self.preprocessing),
        }


def load_csv(path, label_column: str) -> Dataset:
    """Load a headered CSV with numeric features and a binary label column.

    Non-numeric binary labels are mapped to {0, 1} in sorted order.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        rows = [row for row in reader if row]
    if label_column not in header:
        raise ValueError(
            f"{path}: label column {label_column!r} not found in header {header}"
        )
    label_idx = header.index(label_column)
    feature_names = [h for i, h in enumerate(header) if i != label_idx]
    raw_labels: list[str] = []
    values: list[list[float]] = []
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row {r + 2} has {len(row)} fields, expected {len(header)}"
            )
        raw_labels.append(row.pop(label_idx).strip())
        try:
            values.append(list(map(float, row)))
        except ValueError:
            # only the per-cell loop can name the cell that float() refuses
            for name, cell in zip(feature_names, row):
                try:
                    float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: row {r + 2}, column {name!r}: "
                        f"cannot parse {cell!r} as a number"
                    ) from None
    features = np.array(values, dtype=float).reshape(len(rows), len(feature_names))
    if not np.all(np.isfinite(features)):
        raise ValueError(f"{path}: features contain NaN or infinite values")
    classes = sorted(set(raw_labels))
    if len(classes) != 2:
        raise ValueError(
            f"{path}: expected exactly 2 label classes, got {classes}"
        )
    mapping = {classes[0]: 0, classes[1]: 1}
    labels = np.array([mapping[lab] for lab in raw_labels], dtype=int)
    return Dataset(features=features, labels=labels, dataset_id=str(path))


def generate_twonorm(m: int, n_features: int = 20, seed: int = 0) -> Dataset:
    """Synthetic two-Gaussian benchmark: class c is drawn from a unit
    covariance normal centred at +-(a, ..., a) with a = 2 / sqrt(d)."""
    if m % 2 != 0:
        raise ConfigurationError(f"m must be even for balanced classes, got {m}")
    rng = np.random.default_rng(seed)
    centre = 2.0 / np.sqrt(n_features)
    half = m // 2
    features = np.vstack(
        [
            rng.normal(-centre, 1.0, size=(half, n_features)),
            rng.normal(+centre, 1.0, size=(half, n_features)),
        ]
    )
    labels = np.array([0] * half + [1] * half)
    order = rng.permutation(m)
    return Dataset(
        features=features[order],
        labels=labels[order],
        dataset_id=f"twonorm(m={m},d={n_features},seed={seed})",
    )


def generate_random_angles(m: int, n_features: int, seed: int = 0) -> Dataset:
    """Uniform random angle vectors in [0, 2 pi) (labels alternate and carry
    no signal); useful as a scrambling, Haar-like input for embedding
    diagnostics."""
    rng = np.random.default_rng(seed)
    features = rng.uniform(0.0, 2.0 * np.pi, size=(m, n_features))
    labels = np.arange(m) % 2
    return Dataset(
        features=features,
        labels=labels,
        dataset_id=f"random_angles(m={m},d={n_features},seed={seed})",
        preprocessing={"raw_angles": True},
    )


def preprocess(dataset: Dataset) -> Dataset:
    """Centre each feature and scale it to unit standard deviation.

    Zero-variance columns are dropped with a warning; the pre-scaling
    variances of the kept columns are stored for feature ordering.
    Idempotent up to floating rounding.
    """
    if dataset.m < 2:
        raise ValueError("need at least 2 points to standardise")
    variances = dataset.features.var(axis=0)
    keep = variances > _ZERO_VARIANCE
    if not np.any(keep):
        raise ValueError("all features have zero variance")
    if not np.all(keep):
        dropped = int(np.sum(~keep))
        warnings.warn(
            f"dropping {dropped} zero-variance feature(s)",
            RuntimeWarning,
            stacklevel=2,
        )
    kept = dataset.features[:, keep]
    centred = kept - kept.mean(axis=0)
    scaled = centred / kept.std(axis=0)
    prior = dataset.feature_variances
    source_variance = (
        prior[keep] if prior is not None else variances[keep]
    )
    return Dataset(
        features=scaled,
        labels=dataset.labels.copy(),
        dataset_id=dataset.dataset_id,
        feature_variances=np.asarray(source_variance, dtype=float),
        preprocessing={
            **dataset.preprocessing,
            "centered": True,
            "standardized": True,
        },
    )


def select_features(dataset: Dataset, n: int) -> Dataset:
    """Keep the first ``n`` features by descending pre-standardisation
    variance, ties broken by original column index."""
    if not 1 <= n <= dataset.n_features:
        raise ConfigurationError(
            f"n must be in [1, {dataset.n_features}], got {n}"
        )
    variances = (
        dataset.feature_variances
        if dataset.feature_variances is not None
        else dataset.features.var(axis=0)
    )
    order = np.argsort(-np.asarray(variances), kind="stable")[:n]
    return replace(
        dataset,
        features=dataset.features[:, order],
        labels=dataset.labels.copy(),
        feature_variances=np.asarray(variances)[order],
        preprocessing={**dataset.preprocessing, "selected_features": n},
    )


def stratify(dataset: Dataset, subset_size: int, seed: int = 0) -> list[Dataset]:
    """Split into disjoint class-balanced subsets covering the dataset.

    Rows are shuffled within each class under the seed; a remainder that
    cannot fill a full balanced subset is dropped with a warning.
    """
    if subset_size % 2 != 0 or subset_size < 2:
        raise ConfigurationError(
            f"subset_size must be a positive even number, got {subset_size}"
        )
    half = subset_size // 2
    rng = np.random.default_rng(seed)
    by_class = []
    for label in (0, 1):
        idx = np.nonzero(dataset.labels == label)[0]
        if idx.size < half:
            raise ValueError(
                f"class {label} has {idx.size} points, need at least {half} "
                f"per subset"
            )
        rng.shuffle(idx)
        by_class.append(idx)
    n_subsets = min(len(by_class[0]), len(by_class[1])) // half
    leftover = dataset.m - n_subsets * subset_size
    if leftover:
        warnings.warn(
            f"dropping {leftover} point(s) that do not fill a balanced subset",
            RuntimeWarning,
            stacklevel=2,
        )
    subsets = []
    for j in range(n_subsets):
        rows = np.concatenate(
            [by_class[0][j * half : (j + 1) * half],
             by_class[1][j * half : (j + 1) * half]]
        )
        subsets.append(
            replace(
                dataset,
                features=dataset.features[rows],
                labels=dataset.labels[rows],
                dataset_id=f"{dataset.dataset_id}#subset{j}",
                preprocessing=dict(dataset.preprocessing),
            )
        )
    return subsets
