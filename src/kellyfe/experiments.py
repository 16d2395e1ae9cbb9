"""The paper's two experiments, defined once; acceptance criteria 09 and 10 and demos 03 and 04 run them.

Training and validation sets of 3 Gaussian classes split 90/9/1, each from its own seed, with priors
synthesized from the true labels; criterion 10 also flips LABEL_FLIP of the training reference labels.
"""

from . import data, trainer

FREQUENCIES = (0.90, 0.09, 0.01)
SAMPLES = 2000
SEPARATION = 3.0
PRIOR_NOISE = 0.1
LABEL_FLIP = 0.2
VAL_SEED_OFFSET = 5000
FLIP_SEED_OFFSET = 7000


def datasets(seed: int, flip: float = 0.0) -> tuple[data.Dataset, data.Dataset]:
    """(train, val) of ``seed``; ``flip`` of the training reference labels are flipped."""
    train_set, val_set = (
        data.with_synthesized_priors(data.generate(3, 2, SAMPLES, FREQUENCIES, SEPARATION, seed=s), PRIOR_NOISE)
        for s in (seed, seed + VAL_SEED_OFFSET)
    )
    return data.with_corrupt_labels(train_set, flip, seed=seed + FLIP_SEED_OFFSET), val_set


def run(loss: str, mode: str, seed: int, flip: float = 0.0) -> tuple[trainer.MetricsReport, list[trainer.HistoryRecord]]:
    """Train ``loss`` in ``mode`` at ``seed``; the validation metrics and the history."""
    train_set, val_set = datasets(seed, flip)
    config = trainer.TrainConfig(loss, mode, hidden_widths=(16,), max_iterations=3000, patience=100, seed=seed)
    params, history = trainer.train(config, train_set, val_set)
    return trainer.evaluate(params, val_set), history
