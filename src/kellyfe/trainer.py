"""Mini-batch training loop and one-vs-rest evaluation.

Wires the network, the losses, the Adam optimizer, and the per-iteration
candidate-label sweep together under four supervision modes:

    grpr  reference labels + priors
    grnp  reference labels only (uniform priors substituted)
    ngpr  priors only (uniform label rows substituted)
    ngnp  neither (uniform both)

Early stopping tracks an exponential moving average of the validation loss
and returns the parameters from the best-EMA iteration.
"""

from __future__ import annotations

import copy
import itertools
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import losses
from .data import Dataset, batches
from .kelly import _sweep, _sweep_state, _transposed, clamp_probability_rows
from .network import LayerSpec, NetworkParams, _inference, _inference_buffers, backward, forward, init_he
from .optimizer import DEFAULT_ALPHA_LR, DEFAULT_BETA_FM, DEFAULT_BETA_SM, adam_step, init_adam

LOSS_NAMES = tuple(losses.LOSSES)
MODE_NAMES = ("grpr", "grnp", "ngpr", "ngnp")


class IncompatibleConfigError(ValueError):
    """Loss and supervision mode cannot be combined."""


class NonFiniteError(ValueError):
    """A training step or validation pass produced a non-finite number."""


def _non_finite(iteration: int, phase: str) -> NonFiniteError:
    return NonFiniteError(f"the {phase} went non-finite at iteration {iteration}")


@dataclass
class TrainConfig:
    loss: str = "efe"
    mode: str = "grpr"
    hidden_widths: tuple[int, ...] = (16,)
    dropout_retention: float = 1.0
    gamma_mod: float = 2.0
    class_weights: tuple[float, ...] | None = None
    alpha_lr: float = DEFAULT_ALPHA_LR
    beta_fm: float = DEFAULT_BETA_FM
    beta_sm: float = DEFAULT_BETA_SM
    batch_size: int = 32
    max_iterations: int = 15000
    patience: int = 100
    ema_decay: float = 0.9
    seed: int = 0

    def __post_init__(self):
        counts = [(name, [getattr(self, name)]) for name in ("seed", "batch_size", "max_iterations", "patience")]
        for name, values in [*counts, ("hidden_widths", self.hidden_widths)]:
            if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in values):
                raise ValueError(f"{name} must be {'integers' if name == 'hidden_widths' else 'an integer'}")
        scalars = ("dropout_retention", "gamma_mod", "alpha_lr", "beta_fm", "beta_sm", "ema_decay")
        reals = [(name, [getattr(self, name)]) for name in scalars]
        for name, values in [*reals, ("class_weights", self.class_weights or ())]:
            if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values):
                raise ValueError(f"{name} must be a number")
        if self.loss not in LOSS_NAMES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.mode not in MODE_NAMES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 < self.alpha_lr < np.inf:
            raise ValueError("alpha_lr must be finite and > 0")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden_widths must all be >= 1")
        if not 0.0 < self.dropout_retention <= 1.0:
            raise ValueError("dropout_retention must lie in (0, 1]")
        for name in ("beta_fm", "beta_sm", "ema_decay"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not 0.0 <= self.gamma_mod < np.inf:
            raise ValueError("gamma_mod must be finite and >= 0")
        if self.class_weights is not None and not all(0.0 < w < np.inf for w in self.class_weights):
            raise ValueError("class_weights must all be finite and > 0")


@dataclass
class HistoryRecord:
    iteration: int
    train_loss: float
    val_loss: float
    val_loss_ema: float
    uncertainty_term: float | None = None
    expected_complexity_term: float | None = None


@dataclass
class MetricsReport:
    precision: np.ndarray
    recall: np.ndarray
    dice: np.ndarray
    jaccard: np.ndarray
    f1: np.ndarray
    precision_defined: np.ndarray
    recall_defined: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_dice: float
    macro_jaccard: float
    macro_f1: float
    confusion: np.ndarray

    def to_dict(self) -> dict:
        """The fields in their order, as metrics.json writes them."""
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}


def supervised(mode: str) -> bool:
    return mode in ("grpr", "grnp")


def check_compatibility(config: TrainConfig, train_set: Dataset, val_set: Dataset) -> None:
    """A loss that needs reference labels needs a gr* mode (IncompatibleConfigError); the
    sets agree in features and classes, and ``class_weights`` has one entry per class (ValueError)."""
    if losses.LOSSES[config.loss].needs_reference and not supervised(config.mode):
        raise IncompatibleConfigError(
            f"loss {config.loss!r} needs reference labels; mode {config.mode!r} has none"
        )
    if (train_set.n_features, train_set.n_classes) != (val_set.n_features, val_set.n_classes):
        raise ValueError(
            f"the training set has {train_set.n_features} features and {train_set.n_classes} classes, "
            f"the validation set has {val_set.n_features} and {val_set.n_classes}"
        )
    if config.class_weights is not None and len(config.class_weights) != train_set.n_classes:
        raise ValueError(f"class_weights has {len(config.class_weights)} entries for {train_set.n_classes} classes")


def _derived_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def _loss_rows(dataset: Dataset, config: TrainConfig) -> tuple[np.ndarray, ...]:
    """batch_loss's arrays after the logits: the mode's label rows (one-hot in
    gr* modes, uniform otherwise) and, for a loss that uses candidate sets,
    its prior rows (uniform in *np modes) clamped once and the (N,)
    reference labels.  Rows are class-major (K, N), C-ordered, with
    the samples on the last axis, so ``r[..., idx]`` of each is a batch's."""
    n, k = len(dataset), dataset.n_classes
    labels = np.full((k, n), 0.0 if supervised(config.mode) else 1.0 / k)
    if supervised(config.mode):
        labels[dataset.reference_labels, np.arange(n)] = 1.0
    if not losses.LOSSES[config.loss].uses_candidates:
        return (labels,)
    priors = dataset.priors if config.mode in ("grpr", "ngpr") else np.full((n, k), 1.0 / k)
    return labels, _transposed(clamp_probability_rows(priors)), dataset.reference_labels


def batch_loss(
    config: TrainConfig,
    logits: np.ndarray,
    labels: np.ndarray,
    priors: np.ndarray | None = None,
    reference_labels: np.ndarray | None = None,
    grad: bool = True,
    *,
    held: tuple | None = None,
) -> losses.LossEvaluation:
    """The configured loss of one batch of (N, K) logits.

    The other arrays are the class-major (K, N) rows of ``_loss_rows``.
    One log-softmax reads the logits class-major (``forward``'s need no
    copy); a loss that uses candidate sets hands its unclamped posteriors
    to the mask-only sweep, whose empty rows fall back to the reference
    label in gr* modes and, in ng* modes, to their argmax posterior,
    taken on those rows alone.  The
    loss's table kernel then takes ``(ln p, p)`` and the rows, as for
    every loss, and its gradient comes back as a C-ordered (N, K) array
    for ``backward``.  ``held`` is a caller's ``(carried, ln_priors)`` for
    a loss that uses candidates: the sweep's carried state, rewritten in
    place (``kelly._sweep``), and the priors' logarithms (see
    ``_validation_pass``).  The weighted losses take the config's
    ``class_weights``, else they count ``labels``.  ``grad=False`` gives the
    value alone; neither keyword changes a bit of the result.
    """
    entry = losses.LOSSES[config.loss]
    ln_p, p = losses._log_softmax(_transposed(logits))
    mask = ln_priors = None
    if entry.uses_candidates:
        carried, ln_priors = held or (None, None)
        fallback = reference_labels if supervised(config.mode) else (lambda empty: p[:, empty].argmax(axis=0))
        mask = _sweep(priors, p, fallback, mask_only=True, carried=carried)
    ev = entry.kernel(ln_p, p, labels, priors, ln_priors, mask, config.class_weights, config.gamma_mod, grad)
    return losses._transposed_grad(ev)


def _scored(config: TrainConfig, iteration: int, phase: str, *batch, **options) -> losses.LossEvaluation:
    """batch_loss, with non-finite logits reported as the iteration's NonFiniteError."""
    try:
        return batch_loss(config, *batch, **options)
    except losses.NonFiniteLogitsError:
        raise _non_finite(iteration, phase) from None


def _network_specs(config: TrainConfig, n_features: int, n_classes: int) -> tuple[LayerSpec, ...]:
    widths = [n_features, *config.hidden_widths, n_classes]
    specs = []
    for i, (w_in, w_out) in enumerate(zip(widths[:-1], widths[1:])):
        last = i == len(widths) - 2
        specs.append(
            LayerSpec(
                input_width=w_in,
                output_width=w_out,
                activation="linear" if last else "prelu",
                dropout_retention=1.0 if last else config.dropout_retention,
            )
        )
    return tuple(specs)


def _validation_pass(config: TrainConfig, specs: tuple[LayerSpec, ...], val_set: Dataset):
    """A run's validation pass, ``score(params, iteration)``, and the state it holds, all allocated here.

    The state: the set's loss rows; its features as ``forward`` reads them,
    the (N, d) array's transpose, not a copy (the bits of ``weights @ h``
    follow its memory order); the inference forward's buffers; and, for a
    loss that uses candidates, the sweep's carried state
    (``kelly._sweep_state``, in the class order at first) and the priors'
    logarithms.  So a pass allocates no (width, N) forward array and
    re-gathers and re-sums the priors only of samples whose order changed.
    Each pass has the bits of a fresh ``forward`` and value-only
    ``batch_loss``.
    """
    rows = _loss_rows(val_set, config)
    features = np.asarray(val_set.features, dtype=float).T
    buffers = _inference_buffers(specs, len(val_set))
    held = (_sweep_state(rows[1]), np.log(rows[1])) if len(rows) > 1 else None

    def score(params: NetworkParams, iteration: int) -> losses.LossEvaluation:
        logits = _inference(params, features, buffers)
        return _scored(config, iteration, "validation pass", logits, *rows, grad=False, held=held)

    return score


# an underflowed posterior sweeps as prior/0 = +inf; non-finite results raise NonFiniteError
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(config: TrainConfig, train_set: Dataset, val_set: Dataset):
    """Optimize a fresh network on train_set; returns (params, history).

    Each iteration consumes one shuffled mini-batch, updates the parameters
    with Adam, and scores the configured loss on the full validation set in
    inference mode.  The validation pass is value-only: no gradient is
    built for it.  Training stops when the validation-loss EMA has not
    improved on its best value for ``patience`` iterations, or at
    ``max_iterations``; the returned parameters are a snapshot from the
    best-EMA iteration.  Candidate sets for the expected-free-energy loss
    are recomputed from fresh posteriors every iteration; the training step
    sorts its batch afresh.  The validation pass holds one state for the
    run, made before the first iteration (``_validation_pass``): its
    forward buffers and, for EFE, the sweep's sort order, the priors
    gathered in it and their rest sums, updated only where the order
    changed, and the priors' logarithms, with the bits of fresh calls.  A
    non-finite logit or parameter raises NonFiniteError naming the
    iteration and whether the training step or the validation pass
    produced it.

    The train and validation priors are clamped (kelly.clamp_probability_rows)
    once per run; no posterior is clamped.  The loss rows are kept
    class-major (K, N), and a batch's rows are gathered by its indices from
    the training set's.  The parameter and gradient views are made once per
    run too: Adam steps the parameters in place.
    """
    check_compatibility(config, train_set, val_set)

    specs = _network_specs(config, train_set.n_features, train_set.n_classes)
    params = init_he(specs, seed=_derived_seed(config.seed, 0))
    grads = NetworkParams(specs, np.zeros_like(params.vector))
    state = init_adam(params.vector.size, config.alpha_lr, config.beta_fm, config.beta_sm)

    train_rows = _loss_rows(train_set, config)
    validation = _validation_pass(config, specs, val_set)

    history: list[HistoryRecord] = []
    best_ema = np.inf
    best_iteration = 0
    best_vector = params.vector.copy()
    ema = None
    epochs = (batches(train_set, config.batch_size, _derived_seed(config.seed, 1, epoch)) for epoch in itertools.count())
    for iteration, idx in enumerate(itertools.chain.from_iterable(epochs), start=1):
        dropout_seed = _derived_seed(config.seed, 2, iteration) if config.dropout_retention < 1.0 else 0
        logits, cache = forward(params, train_set.features[idx], training=True, seed=dropout_seed)
        ev = _scored(config, iteration, "training step", logits, *(r[..., idx] for r in train_rows))
        adam_step(state, params.vector, backward(params, cache, ev.grad_logits, out=grads))
        if not np.isfinite(params.vector).all():
            raise _non_finite(iteration, "training step")

        val_ev = validation(params, iteration)
        if ema is None:
            ema = val_ev.value
        else:
            ema = config.ema_decay * ema + (1.0 - config.ema_decay) * val_ev.value
        history.append(
            HistoryRecord(
                iteration=iteration,
                train_loss=ev.value,
                val_loss=val_ev.value,
                val_loss_ema=ema,
                uncertainty_term=ev.uncertainty,
                expected_complexity_term=ev.expected_complexity,
            )
        )
        if ema < best_ema:
            best_ema = ema
            best_iteration = iteration
            np.copyto(best_vector, params.vector)
        if iteration - best_iteration >= config.patience or iteration >= config.max_iterations:
            break
    return NetworkParams(specs, best_vector), history


def evaluate(params: NetworkParams, test_set: Dataset) -> MetricsReport:
    """One-vs-rest metrics of the argmax predictions against the true labels.

    Ties go to the lowest class index.  Zero-denominator precision/recall
    are reported as 0 with the matching *_defined flag cleared; a class
    absent from both truth and predictions scores Dice and Jaccard 1.  A
    network whose output width is not the set's class count raises
    ValueError.
    """
    k = test_set.n_classes
    if params.specs[-1].output_width != k:
        raise ValueError(f"the network predicts {params.specs[-1].output_width} classes, the test set has {k}")
    logits, _ = forward(params, test_set.features, training=False)
    predictions = logits.argmax(axis=1)
    confusion = np.zeros((k, k), dtype=int)
    np.add.at(confusion, (test_set.true_labels, predictions), 1)

    tp = np.diag(confusion).astype(float)
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp

    prec_den = tp + fp
    rec_den = tp + fn
    precision_defined = prec_den > 0
    recall_defined = rec_den > 0
    precision = np.divide(tp, prec_den, out=np.zeros(k), where=precision_defined)
    recall = np.divide(tp, rec_den, out=np.zeros(k), where=recall_defined)

    overlap = 2.0 * tp + fp + fn
    dice = np.divide(2.0 * tp, overlap, out=np.ones(k), where=overlap > 0)
    union = tp + fp + fn
    jaccard = np.divide(tp, union, out=np.ones(k), where=union > 0)
    pr_sum = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr_sum, out=np.zeros(k), where=pr_sum > 0)

    return MetricsReport(
        precision=precision,
        recall=recall,
        dice=dice,
        jaccard=jaccard,
        f1=f1,
        precision_defined=precision_defined,
        recall_defined=recall_defined,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_dice=float(dice.mean()),
        macro_jaccard=float(jaccard.mean()),
        macro_f1=float(f1.mean()),
        confusion=confusion,
    )


HISTORY_COLUMNS = tuple(f.name for f in fields(HistoryRecord))


def write_history(history: list[HistoryRecord], path) -> None:
    """History CSV with shortest-round-trip float formatting (deterministic)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(HISTORY_COLUMNS) + "\n")
        for rec in history:
            cells = [str(rec.iteration)]
            for name in HISTORY_COLUMNS[1:]:
                value = getattr(rec, name)
                cells.append("" if value is None else repr(float(value)))
            fh.write(",".join(cells) + "\n")


def read_history(path) -> list[HistoryRecord]:
    records = []
    # an empty cell reads as None in an optional column; float('') raises in the others
    columns = fields(HistoryRecord)[1:]
    with open(path, newline="", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if tuple(header.split(",")) != HISTORY_COLUMNS:
            raise ValueError(f"unexpected history header {header!r}")
        for line in fh:
            iteration, *cells = line.rstrip("\n").split(",")
            terms = [float(c) if c or f.default is not None else None for f, c in zip(columns, cells, strict=True)]
            records.append(HistoryRecord(int(iteration), *terms))
    return records


def config_from_dict(doc: dict) -> TrainConfig:
    """Build a TrainConfig from a plain dict, rejecting unknown keys and a list field that is not a list."""
    known = {f.name for f in fields(TrainConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    doc = copy.deepcopy(doc)
    for name in ("hidden_widths", "class_weights"):
        if name in doc and not (name == "class_weights" and doc[name] is None):
            if not isinstance(doc[name], (list, tuple)):
                raise ValueError(f"{name} must be a list of numbers")
            doc[name] = tuple(doc[name])
    return TrainConfig(**doc)
