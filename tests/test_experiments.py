"""The recipe of the paper's two experiments, pinned by the datasets it makes."""

import numpy as np

from kellyfe import experiments


def test_recipe_datasets():
    clean, val_set = experiments.datasets(seed=0)
    flipped, flipped_val = experiments.datasets(seed=0, flip=experiments.LABEL_FLIP)
    assert len(clean) == len(val_set) == 2000
    for dataset in (clean, val_set):
        np.testing.assert_array_equal(np.bincount(dataset.true_labels), [1800, 180, 20])
        np.testing.assert_array_equal(dataset.reference_labels, dataset.true_labels)
    assert int((flipped.reference_labels != flipped.true_labels).sum()) == 400
    np.testing.assert_array_equal(flipped.features, clean.features)
    np.testing.assert_array_equal(flipped_val.features, val_set.features)
    assert not np.isin(val_set.features, clean.features).any()
