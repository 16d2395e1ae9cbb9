"""Synthetic imbalanced classification data, priors, label noise, batching.

Stands in for externally supplied data: Gaussian clusters on a circle give
a controllable-difficulty feature space, synthesized priors imitate an
external classifier of adjustable quality, and corrupt_labels injects exact
amounts of reference-label noise.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .kelly import clamp_probability_rows


@dataclass
class Dataset:
    features: np.ndarray  # (M, D)
    true_labels: np.ndarray  # (M,)
    reference_labels: np.ndarray  # (M,) possibly corrupted
    priors: np.ndarray  # (M, K) rows on the open simplex
    class_frequencies: np.ndarray  # (K,) realized frequencies, sum 1

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return self.priors.shape[1]


def class_counts(n_samples: int, frequencies) -> np.ndarray:
    """Largest-remainder rounding of n_samples * frequencies to integer counts."""
    f = np.asarray(frequencies, dtype=float)
    raw = n_samples * f
    counts = np.floor(raw).astype(int)
    short = n_samples - counts.sum()
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[:short]] += 1
    return counts


def _validate_frequencies(frequencies, n_classes: int) -> np.ndarray:
    f = np.asarray(frequencies, dtype=float)
    if f.shape != (n_classes,) or not np.all(np.isfinite(f)) or np.any(f < 0.0) or abs(f.sum() - 1.0) > 1e-6:
        raise ValueError("frequencies must be finite and nonnegative, one per class, summing to 1")
    return f / f.sum()


def generate(n_classes, n_features, n_samples, frequencies, cluster_separation, seed) -> Dataset:
    """Gaussian clusters, one per class, with a prescribed class imbalance.

    Cluster means sit equally spaced on a circle of radius
    ``cluster_separation`` in the first two feature dimensions (zeros
    elsewhere); covariance is the identity.  Per-class counts follow the
    largest-remainder rule, rows are shuffled, priors start uniform, and
    reference labels start clean.
    """
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    f = _validate_frequencies(frequencies, n_classes)
    if n_samples < n_classes:
        raise ValueError("need at least one sample per class")
    if n_samples > 2**53:  # past it, n_samples * frequency misses whole samples or leaves numpy's integers
        raise ValueError("need at most 2**53 samples")
    if n_features < 2:
        raise ValueError("cluster geometry needs at least 2 features")
    if not np.isfinite(cluster_separation):
        raise ValueError("cluster_separation must be finite")
    counts = class_counts(n_samples, f)
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    means = np.zeros((n_classes, n_features))
    means[:, 0] = cluster_separation * np.cos(angles)
    means[:, 1] = cluster_separation * np.sin(angles)

    rng = np.random.default_rng(seed)
    features = np.vstack(
        [means[c] + rng.standard_normal((counts[c], n_features)) for c in range(n_classes)]
    )
    labels = np.repeat(np.arange(n_classes), counts)
    perm = rng.permutation(n_samples)
    features = features[perm]
    labels = labels[perm]
    return Dataset(
        features=features,
        true_labels=labels,
        reference_labels=labels.copy(),
        priors=np.full((n_samples, n_classes), 1.0 / n_classes),
        class_frequencies=counts / n_samples,
    )


def synthesize_priors(true_labels, n_classes: int, prior_noise: float) -> np.ndarray:
    """Per-sample priors (1 - eps) * one_hot(true label) + eps * uniform.

    eps = 1 yields exactly uniform rows.  Rows are clamped to the open
    simplex and renormalized by ``kelly.clamp_probability_rows``.  The
    mixture is deterministic.
    """
    if not 0.0 <= prior_noise <= 1.0:
        raise ValueError("prior_noise must lie in [0, 1]")
    labels = np.asarray(true_labels, dtype=int)
    rows = np.full((labels.size, n_classes), prior_noise / n_classes)
    rows[np.arange(labels.size), labels] += 1.0 - prior_noise
    return clamp_probability_rows(rows)


def corrupt_labels(true_labels, flip_fraction: float, n_classes: int, seed: int) -> np.ndarray:
    """Reassign a uniformly chosen floor(flip_fraction * M) subset of labels.

    Each flipped label moves uniformly to one of the other classes, so the
    number of rows differing from the input is exact.
    """
    if not 0.0 <= flip_fraction < 1.0:
        raise ValueError("flip_fraction must lie in [0, 1)")
    labels = np.asarray(true_labels, dtype=int).copy()
    n_flip = int(np.floor(flip_fraction * labels.size))
    if n_flip == 0:
        return labels
    rng = np.random.default_rng(seed)
    idx = rng.choice(labels.size, size=n_flip, replace=False)
    offsets = rng.integers(0, n_classes - 1, size=n_flip)
    labels[idx] = np.where(offsets >= labels[idx], offsets + 1, offsets)
    return labels


def batches(dataset: Dataset, batch_size: int, epoch_seed: int) -> list[np.ndarray]:
    """Freshly shuffled disjoint index batches covering the whole dataset.

    The final short batch is retained.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    perm = np.random.default_rng(epoch_seed).permutation(len(dataset))
    return [perm[i : i + batch_size] for i in range(0, len(dataset), batch_size)]


def with_synthesized_priors(dataset: Dataset, prior_noise: float) -> Dataset:
    return replace(
        dataset, priors=synthesize_priors(dataset.true_labels, dataset.n_classes, prior_noise)
    )


def with_corrupt_labels(dataset: Dataset, flip_fraction: float, seed: int) -> Dataset:
    return replace(
        dataset,
        reference_labels=corrupt_labels(
            dataset.true_labels, flip_fraction, dataset.n_classes, seed
        ),
    )


def save_dataset(dataset: Dataset, path) -> None:
    """Write the dataset as CSV with 17 significant digits for reals."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_header(dataset.n_features, dataset.n_classes))
        for j in range(len(dataset)):
            row = [f"{x:.17g}" for x in dataset.features[j]]
            row.append(str(int(dataset.reference_labels[j])))
            row.append(str(int(dataset.true_labels[j])))
            row.extend(f"{x:.17g}" for x in dataset.priors[j])
            writer.writerow(row)


def _header(d: int, k: int) -> list[str]:
    """The CSV header of a dataset with d features and k classes."""
    return [f"f{i}" for i in range(d)] + ["label", "true_label"] + [f"prior_{c}" for c in range(k)]


class DatasetFormatError(ValueError):
    """A dataset CSV that load_dataset cannot accept; the message names the file and line."""


def load_dataset(path) -> Dataset:
    """Read a CSV written by save_dataset.

    Rejects, with a DatasetFormatError naming the file and the line, a
    header that is not save_dataset's, a file without rows, a row with the
    wrong number of fields, a field that does not parse, a non-finite
    feature or prior, a prior outside [0, 1], a prior row whose sum is more
    than 1e-6 from 1, a label outside 0..K-1 and a line the csv module
    rejects; a file that is not UTF-8 is named without a line.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            d = sum(1 for name in header if name.startswith("f"))
            k = sum(1 for name in header if name.startswith("prior_"))
            if header != _header(d, k) or k < 2 or d < 1:
                raise DatasetFormatError(f"{path}:1: unexpected dataset header {header!r}")
            features, labels, true_labels, priors, lines = [], [], [], [], []
            for row in reader:
                line = reader.line_num
                if len(row) != len(header):
                    raise DatasetFormatError(f"{path}:{line}: expected {len(header)} fields, got {len(row)}")
                try:
                    features.append([float(x) for x in row[:d]])
                    # clipped into [-1, K], a label past numpy's integers is still out of range below
                    labels.append(min(max(int(row[d]), -1), k))
                    true_labels.append(min(max(int(row[d + 1]), -1), k))
                    priors.append([float(x) for x in row[d + 2 :]])
                except ValueError as exc:
                    raise DatasetFormatError(f"{path}:{line}: {exc}") from None
                lines.append(line)
    except UnicodeDecodeError:
        raise DatasetFormatError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise DatasetFormatError(f"{path}:{reader.line_num}: {exc}") from None
    if not lines:
        raise DatasetFormatError(f"{path}: no data rows")
    features = np.asarray(features, dtype=float)
    reference = np.asarray(labels, dtype=int)
    true = np.asarray(true_labels, dtype=int)
    priors = np.asarray(priors, dtype=float)
    for bad, what in (
        (~np.isfinite(features).all(axis=1), "non-finite feature"),
        ((reference < 0) | (reference >= k), f"label outside 0..{k - 1}"),
        ((true < 0) | (true >= k), f"true_label outside 0..{k - 1}"),
        (~np.isfinite(priors).all(axis=1), "non-finite prior"),
        (~((priors >= 0.0) & (priors <= 1.0)).all(axis=1), "prior outside [0, 1]"),
        (np.abs(priors.sum(axis=1) - 1.0) > 1e-6, "prior row does not sum to 1"),
    ):
        if bad.any():
            raise DatasetFormatError(f"{path}:{lines[int(np.argmax(bad))]}: {what}")
    return Dataset(
        features=features,
        true_labels=true,
        reference_labels=reference,
        priors=priors,
        class_frequencies=np.bincount(true, minlength=k) / len(true),
    )
