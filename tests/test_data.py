"""Synthetic data generation, priors, label corruption, batching, CSV I/O."""

import csv
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellyfe.data import (
    Dataset,
    DatasetFormatError,
    batches,
    class_counts,
    corrupt_labels,
    generate,
    load_dataset,
    save_dataset,
    synthesize_priors,
    with_corrupt_labels,
    with_synthesized_priors,
)


class TestGenerate:
    def test_largest_remainder_counts(self):
        np.testing.assert_array_equal(class_counts(1000, [0.90, 0.09, 0.01]), [900, 90, 10])
        ds = generate(3, 2, 1000, [0.90, 0.09, 0.01], 3.0, seed=0)
        np.testing.assert_array_equal(np.bincount(ds.true_labels), [900, 90, 10])

    def test_remainder_distribution(self):
        counts = class_counts(10, [1 / 3, 1 / 3, 1 / 3])
        assert counts.sum() == 10
        assert sorted(counts.tolist()) == [3, 3, 4]

    def test_zero_separation_collapses_clusters(self):
        ds = generate(3, 2, 3000, [1 / 3, 1 / 3, 1 / 3], 0.0, seed=1)
        for c in range(3):
            mean = ds.features[ds.true_labels == c].mean(axis=0)
            np.testing.assert_allclose(mean, [0.0, 0.0], atol=0.15)

    def test_same_seed_is_identical(self):
        a = generate(2, 3, 100, [0.5, 0.5], 2.0, seed=7)
        b = generate(2, 3, 100, [0.5, 0.5], 2.0, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.true_labels, b.true_labels)

    def test_invalid_frequencies(self):
        with pytest.raises(ValueError):
            generate(2, 2, 10, [0.5, 0.6], 1.0, seed=0)
        with pytest.raises(ValueError):
            generate(3, 2, 10, [0.5, 0.5], 1.0, seed=0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="frequencies must be finite"):
                generate(3, 2, 10, [bad, 0.5, 0.5], 1.0, seed=0)

    @pytest.mark.parametrize("separation", [np.nan, np.inf, -np.inf])
    def test_non_finite_separation_rejected(self, separation):
        with pytest.raises(ValueError, match="cluster_separation must be finite"):
            generate(2, 2, 10, [0.5, 0.5], separation, seed=0)

    def test_separated_clusters_are_distinguishable(self):
        ds = generate(2, 2, 400, [0.5, 0.5], 6.0, seed=2)
        m0 = ds.features[ds.true_labels == 0].mean(axis=0)
        m1 = ds.features[ds.true_labels == 1].mean(axis=0)
        assert np.linalg.norm(m0 - m1) > 10.0


class TestSynthesizePriors:
    def test_full_noise_is_uniform(self):
        priors = synthesize_priors([0, 1, 2], 3, 1.0)
        np.testing.assert_allclose(priors, np.full((3, 3), 1 / 3), atol=1e-12)

    def test_small_noise_mixture(self):
        priors = synthesize_priors([0], 2, 0.1)
        np.testing.assert_allclose(priors, [[0.95, 0.05]], atol=1e-9)

    def test_zero_noise_clamps_to_open_simplex(self):
        priors = synthesize_priors([1], 2, 0.0)
        assert np.all(priors > 0.0) and np.all(priors < 1.0)
        np.testing.assert_allclose(priors[0, 1], 1.0, atol=1e-7)
        np.testing.assert_allclose(priors.sum(axis=1), 1.0, atol=1e-12)

    def test_rows_are_valid_probability_vectors(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 4, 200)
        for eps in (0.0, 0.3, 1.0):
            priors = synthesize_priors(labels, 4, eps)
            assert np.all(priors > 0.0) and np.all(priors < 1.0)
            np.testing.assert_allclose(priors.sum(axis=1), 1.0, atol=1e-9)


class TestCorruptLabels:
    def test_zero_fraction_is_identity(self):
        labels = np.array([0, 1, 2, 0])
        np.testing.assert_array_equal(corrupt_labels(labels, 0.0, 3, seed=0), labels)

    def test_exact_flip_count(self):
        labels = np.zeros(100, dtype=int)
        flipped = corrupt_labels(labels, 0.2, 4, seed=1)
        assert int((flipped != labels).sum()) == 20

    def test_binary_flips_are_complements(self):
        labels = np.random.default_rng(2).integers(0, 2, 50)
        flipped = corrupt_labels(labels, 0.5, 2, seed=3)
        changed = flipped != labels
        assert int(changed.sum()) == 25
        np.testing.assert_array_equal(flipped[changed], 1 - labels[changed])

    def test_flipped_labels_stay_in_range(self):
        labels = np.random.default_rng(4).integers(0, 5, 300)
        flipped = corrupt_labels(labels, 0.3, 5, seed=5)
        assert flipped.min() >= 0 and flipped.max() < 5


class TestBatches:
    def test_sizes_with_short_tail(self):
        ds = generate(2, 2, 10, [0.5, 0.5], 1.0, seed=0)
        idx = batches(ds, 4, epoch_seed=0)
        assert [len(b) for b in idx] == [4, 4, 2]

    def test_partition_property(self):
        ds = generate(2, 2, 37, [0.5, 0.5], 1.0, seed=0)
        idx = batches(ds, 5, epoch_seed=1)
        combined = np.sort(np.concatenate(idx))
        np.testing.assert_array_equal(combined, np.arange(37))

    def test_different_epoch_seeds_shuffle_differently(self):
        ds = generate(2, 2, 64, [0.5, 0.5], 1.0, seed=0)
        a = np.concatenate(batches(ds, 16, epoch_seed=0))
        b = np.concatenate(batches(ds, 16, epoch_seed=1))
        assert not np.array_equal(a, b)

    def test_oversized_batch(self):
        ds = generate(2, 2, 8, [0.5, 0.5], 1.0, seed=0)
        idx = batches(ds, 100, epoch_seed=2)
        assert len(idx) == 1 and len(idx[0]) == 8


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        ds = generate(3, 4, 50, [0.6, 0.3, 0.1], 2.0, seed=9)
        ds = with_synthesized_priors(ds, 0.2)
        ds = with_corrupt_labels(ds, 0.1, seed=10)
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.true_labels, ds.true_labels)
        np.testing.assert_array_equal(loaded.reference_labels, ds.reference_labels)
        np.testing.assert_array_equal(loaded.priors, ds.priors)

    def test_header_layout(self, tmp_path):
        ds = generate(2, 3, 5, [0.5, 0.5], 1.0, seed=0)
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        header = path.read_text().splitlines()[0]
        assert header == "f0,f1,f2,label,true_label,prior_0,prior_1"

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_dataset(path)

    @pytest.mark.parametrize(
        "priors, message",
        [
            pytest.param(["-5"], "prior outside [0, 1]", id="-5"),
            pytest.param(["1.5"], "prior outside [0, 1]", id="1.5"),
            pytest.param(["-1e-300"], "prior outside [0, 1]", id="-1e-300"),
            pytest.param(["0", "0"], "prior row does not sum to 1", id="all-zero-row"),
            pytest.param(["1", "1"], "prior row does not sum to 1", id="all-one-row"),
        ],
    )
    def test_rejects_prior_outside_the_unit_interval(self, tmp_path, priors, message):
        path = tmp_path / "data.csv"
        save_dataset(generate(2, 2, 6, [0.5, 0.5], 1.0, seed=0), path)
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")  # line 4; columns f0,f1,label,true_label,prior_0,prior_1
        cells[4 : 4 + len(priors)] = priors
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=rf"^{re.escape(str(path))}:4: {re.escape(message)}$"):
            load_dataset(path)

    def test_byte_order_mark_is_named(self, tmp_path):
        path = tmp_path / "bom.csv"
        save_dataset(generate(2, 2, 6, [0.5, 0.5], 1.0, seed=0), path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        message = "starts with a byte-order mark (U+FEFF); save it as UTF-8 without one"
        with pytest.raises(DatasetFormatError, match=rf"^{re.escape(str(path))}:1: {re.escape(message)}$"):
            load_dataset(path)


def reference_save_dataset(dataset: Dataset, path) -> None:
    """save_dataset cell by cell: one f-string per real, csv.writer for every row."""
    d, k = dataset.n_features, dataset.n_classes
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(d)] + ["label", "true_label"] + [f"prior_{c}" for c in range(k)])
        for j in range(len(dataset)):
            row = [f"{x:.17g}" for x in dataset.features[j]]
            row.append(str(int(dataset.reference_labels[j])))
            row.append(str(int(dataset.true_labels[j])))
            row.extend(f"{x:.17g}" for x in dataset.priors[j])
            writer.writerow(row)


# reals whose text is easy to get wrong: signed zeros, subnormals, the ends of the float range and
# values with an integer value; a prior edge value goes into a one-hot row, which stays on the simplex
_EDGE_FEATURES = [-0.0, 0.0, 5e-324, -5e-324, -1e-308, 1e308, -1e308, 1.7976931348623157e308, 2.0, -3.0, 2.0**53, 0.1, math.pi]
_EDGE_PRIORS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-300]


@st.composite
def _datasets(draw, rows):
    d, k, n = draw(st.integers(1, 4)), draw(st.integers(2, 20)), draw(rows)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-5, 6, size=(n, 1))
    for value in draw(st.lists(st.sampled_from(_EDGE_FEATURES) | st.floats(allow_nan=False, allow_infinity=False), max_size=12)):
        features[rng.integers(n), rng.integers(d)] = value
    priors = rng.dirichlet(np.ones(k), size=n)
    for value in draw(st.lists(st.sampled_from(_EDGE_PRIORS), max_size=6)):
        row, hot = rng.integers(n), rng.integers(k)
        priors[row] = 0.0
        priors[row, hot] = 1.0
        priors[row, (hot + 1) % k] = value
    labels = rng.integers(0, k, size=(2, n))
    labels[:, 0] = k - 1
    return Dataset(features=features, true_labels=labels[0], reference_labels=labels[1], priors=priors)


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


# one row, one below and one above save_dataset's 1024-row block, and a drawn count up to 3000
@pytest.mark.parametrize("rows", [st.just(1), st.just(1023), st.just(1025), st.integers(1, 3000)], ids=["1", "1023", "1025", "drawn"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(case=st.data())
def test_save_dataset_writes_the_reference_bytes(csv_dir, rows, case):
    dataset = case.draw(_datasets(rows))
    save_dataset(dataset, csv_dir / "blocks.csv")
    reference_save_dataset(dataset, csv_dir / "cells.csv")
    assert (csv_dir / "blocks.csv").read_bytes() == (csv_dir / "cells.csv").read_bytes()
    loaded = load_dataset(csv_dir / "blocks.csv")
    assert loaded.features.tobytes() == dataset.features.tobytes()
    assert loaded.priors.tobytes() == dataset.priors.tobytes()
    np.testing.assert_array_equal(loaded.reference_labels, dataset.reference_labels)
    np.testing.assert_array_equal(loaded.true_labels, dataset.true_labels)
