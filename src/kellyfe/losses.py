"""Classification objectives evaluated as value plus gradient in the logits.

Every loss takes an (N, K) matrix of softmax posteriors and an (N, K) label
matrix whose rows are one-hot (supervised) or uniform 1/K (label-free), and
returns a LossEvaluation holding the scalar value and the analytic gradient
with respect to the pre-softmax outputs.  Gradients are derived in the
posteriors and chained through the softmax Jacobian, which makes every
gradient row sum to zero.  Each loss computes its value first and its
gradient only when asked: with ``grad=False`` the evaluation carries the
same value bit for bit and no gradient, which is how the trainer scores
its validation set.

The cross-entropy family (plain, class-weighted, focal, weighted focal) is
one weighted-focal kernel: cross entropy is its unit-weight, gamma_mod = 0
case.  It normalizes by 1/(K*N) and returns nonnegative values.  The Dice
similarity is returned as the quantity to *maximize*; the loss table
minimizes 1 - value with the negated gradient.  The Lovasz-Softmax loss is
the convex closure of the per-class Jaccard distance over sorted
mispredictions.  The expected-free-energy loss combines a label-weighted
posterior-entropy term with the coarsened prior/posterior divergence over
per-sample candidate outcome sets from the kelly module, which are held
constant under differentiation.  ``efe_loss`` clamps its raw posteriors
and priors once and calls the private kernel ``_efe``; the trainer, which
already holds clamped rows (see ``kelly.clamp_probability_rows``), calls
the kernel directly, so no array is clamped twice.

Sums over the short class axis (the softmax normalization, the softmax
Jacobian and the EFE rest masses) go through ``kelly.row_sums``, which
gives the bits of numpy's row sum from column slices at a fraction of its
cost.

LOSSES maps each trainable loss name to one evaluate call plus whether it
needs reference labels and whether it uses the candidate sets; the trainer,
the verify suites and the command line all read it.

vfe_decompose / efe_decompose are single-distribution diagnostics for the
free-energy identities; they do not produce gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .kelly import clamp_probabilities, clamp_probability_rows, row_sums

LN_EPS = 1e-12


class LabelsNotOneHotError(ValueError):
    """A supervised-only loss received rows that are not one-hot."""


@dataclass
class LossEvaluation:
    """Scalar loss value (nats) and its gradient in the logits.

    ``grad_logits`` is None for a value-only evaluation.  The
    expected-free-energy loss additionally reports its two terms for
    diagnostics; they are None for every other loss.
    """

    value: float
    grad_logits: np.ndarray | None
    uncertainty: float | None = None
    expected_complexity: float | None = None


def softmax(logits) -> np.ndarray:
    """Row-wise softmax with max-subtraction for overflow safety.

    The row maximum is a running maximum over the columns and the row sum
    is ``kelly.row_sums``: both give the bits of numpy's row reductions
    and, on the short class axis, cost much less.
    """
    z = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    top = z[..., 0].copy()
    for c in range(1, z.shape[-1]):
        np.maximum(top, z[..., c], out=top)
    z = z - top[..., None]
    e = np.exp(z)
    return e / row_sums(e)[..., None]


def _check_pair(posteriors, labels) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(posteriors, dtype=float)
    l = np.asarray(labels, dtype=float)
    if p.ndim != 2 or p.shape != l.shape:
        raise ValueError(f"posteriors {p.shape} and labels {l.shape} must be equal 2-d shapes")
    return p, l


def _chain_softmax(posteriors: np.ndarray, grad_posteriors: np.ndarray) -> np.ndarray:
    """Pull a posterior-space gradient back through the softmax Jacobian."""
    inner = row_sums(grad_posteriors * posteriors)[:, None]
    return posteriors * (grad_posteriors - inner)


def _onehot_required(labels: np.ndarray) -> None:
    binary = np.all((labels == 0.0) | (labels == 1.0))
    if not binary or not np.all(labels.sum(axis=1) == 1.0):
        raise LabelsNotOneHotError("labels must be exactly one-hot rows")


# ---------------------------------------------------------------------------
# cross-entropy family
# ---------------------------------------------------------------------------

def _weighted_focal(
    posteriors, labels, class_weights: np.ndarray | None, gamma_mod: float, grad: bool = True
) -> LossEvaluation:
    """The whole family: -1/(K*N) * sum w * (1 - p)^gamma_mod * l * ln p.

    ``class_weights`` None means unit weights.  Unit weights enter as an
    exact 1.0 and gamma_mod = 0 drops the modulation factor, so
    cross_entropy, focal at gamma_mod = 0 and unit-weight variants agree
    bit for bit.
    """
    if gamma_mod < 0.0:
        raise ValueError("gamma_mod must be >= 0")
    p, l = _check_pair(posteriors, labels)
    n, k = p.shape
    w = 1.0 if class_weights is None else class_weights[None, :]
    scale = 1.0 / (k * n)
    pc = np.maximum(p, LN_EPS)
    ln_p = np.log(pc)
    if gamma_mod == 0.0:
        value = -scale * float((w * l * ln_p).sum())
        if not grad:
            return LossEvaluation(value, None)
        grad_post = -scale * w * l / pc
    else:
        one_minus = 1.0 - p
        mod = one_minus**gamma_mod
        value = -scale * float((w * mod * l * ln_p).sum())
        if not grad:
            return LossEvaluation(value, None)
        dmod = -gamma_mod * one_minus ** (gamma_mod - 1.0)
        grad_post = -scale * w * l * (dmod * ln_p + mod / pc)
    return LossEvaluation(value, _chain_softmax(p, grad_post))


def _class_weights(class_weights, class_counts, k: int) -> np.ndarray:
    if class_weights is not None:
        w = np.asarray(class_weights, dtype=float)
        if w.shape != (k,):
            raise ValueError("class_weights must have one entry per class")
        if np.any(w <= 0.0):
            raise ValueError("class_weights must be positive")
        return w
    counts = np.asarray(class_counts, dtype=float)
    if counts.shape != (k,):
        raise ValueError("class_counts must have one entry per class")
    return counts.sum() / (counts + 1e-8)


def cross_entropy(posteriors, labels, *, grad: bool = True) -> LossEvaluation:
    """Softmax cross entropy, normalized by 1/(K*N)."""
    return _weighted_focal(posteriors, labels, None, 0.0, grad)


def weighted_cross_entropy(posteriors, labels, class_weights, class_counts, *, grad: bool = True) -> LossEvaluation:
    """Cross entropy with per-class weights.

    ``class_weights``, when given, is used as is; otherwise the weight of
    class c is (sum of batch counts) / (count_c + 1e-8), which despite its
    name exceeds 1 for any non-dominant class.
    """
    w = _class_weights(class_weights, class_counts, np.shape(labels)[-1])
    return _weighted_focal(posteriors, labels, w, 0.0, grad)


def focal(posteriors, labels, gamma_mod: float, *, grad: bool = True) -> LossEvaluation:
    """Cross entropy modulated by (1 - posterior)^gamma_mod.

    gamma_mod = 0 reduces exactly to cross_entropy, value and gradient.
    """
    return _weighted_focal(posteriors, labels, None, gamma_mod, grad)


def weighted_focal(
    posteriors, labels, class_weights, class_counts, gamma_mod: float, *, grad: bool = True
) -> LossEvaluation:
    """Focal loss with the same per-class weights as weighted_cross_entropy."""
    w = _class_weights(class_weights, class_counts, np.shape(labels)[-1])
    return _weighted_focal(posteriors, labels, w, gamma_mod, grad)


# ---------------------------------------------------------------------------
# metric-based losses
# ---------------------------------------------------------------------------

def dice_similarity(posteriors, labels, *, grad: bool = True) -> LossEvaluation:
    """Soft Dice similarity (2/K) * sum_c intersection_c / mass_c.

    A class absent from both labels and posteriors counts as perfectly
    matched (per-class Dice 1, i.e. bracket 1/2).  This is a similarity to
    maximize; a minimizing trainer should target 1 - value with the negated
    gradient.
    """
    p, l = _check_pair(posteriors, labels)
    n, k = p.shape
    num = (l * p).sum(axis=0)
    den = (l * l + p * p).sum(axis=0)
    empty = den == 0.0
    safe_den = np.where(empty, 1.0, den)
    brackets = np.where(empty, 0.5, num / safe_den)
    value = (2.0 / k) * float(brackets.sum())
    if not grad:
        return LossEvaluation(value, None)
    grad_post = (2.0 / k) * (l * safe_den - 2.0 * p * num) / safe_den**2
    grad_post[:, empty] = 0.0
    return LossEvaluation(value, _chain_softmax(p, grad_post))


def jaccard_distance_set(mispredictions, ground_truth, predictions) -> float:
    """Jaccard distance |mispredictions| / |ground_truth OR predictions|.

    ``mispredictions`` must be the XOR of the two masks.  Returns 0 when
    ground truth and predictions are both empty.
    """
    m = np.asarray(mispredictions, dtype=bool)
    gt = np.asarray(ground_truth, dtype=bool)
    pred = np.asarray(predictions, dtype=bool)
    union = int(np.count_nonzero(gt | pred))
    if union == 0:
        return 0.0
    return float(np.count_nonzero(m)) / union


def lovasz_grad(sorted_gt) -> np.ndarray:
    """First differences of the Jaccard distance over growing error prefixes.

    ``sorted_gt`` is the ground-truth indicator already permuted by
    descending misprediction.  Runs in O(N) by tracking the cumulative
    intersection and union.
    """
    gt = np.asarray(sorted_gt, dtype=float)
    if gt.size == 0:
        return np.zeros(0)
    gts = gt.sum()
    intersection = gts - np.cumsum(gt)
    union = gts + np.cumsum(1.0 - gt)
    jd = 1.0 - intersection / union
    return np.diff(jd, prepend=0.0)


def lovasz_extension(mispredictions, ground_truth) -> float:
    """Convex closure of the Jaccard distance at a nonnegative error vector.

    Coincides with jaccard_distance_set on binary inputs and interpolates
    convexly elsewhere.  Sorting is stable with ties broken by ascending
    sample index.
    """
    m = np.asarray(mispredictions, dtype=float)
    gt = np.asarray(ground_truth, dtype=float)
    order = np.argsort(-m, kind="stable")
    return float(m[order] @ lovasz_grad(gt[order]))


def lovasz_softmax(posteriors, labels, *, grad: bool = True) -> LossEvaluation:
    """Per-class Lovasz extension of the Jaccard distance, averaged by 1/(K*N).

    Supervised only: labels must be one-hot.  The misprediction for the
    labeled class is 1 - posterior and the posterior itself elsewhere.  The
    gradient in the mispredictions is the prefix-difference vector scattered
    back through the per-class sort (the extension is piecewise linear).
    """
    p, l = _check_pair(posteriors, labels)
    _onehot_required(l)
    n, k = p.shape
    m = np.where(l == 1.0, 1.0 - p, p)
    scale = 1.0 / (k * n)
    value = 0.0
    grad_m = np.zeros_like(p)
    for c in range(k):
        order = np.argsort(-m[:, c], kind="stable")
        g = lovasz_grad(l[order, c])
        value += float(m[order, c] @ g)
        grad_m[order, c] = g
    if not grad:
        return LossEvaluation(scale * value, None)
    sign = np.where(l == 1.0, -1.0, 1.0)
    grad_post = scale * sign * grad_m
    return LossEvaluation(scale * value, _chain_softmax(p, grad_post))


# ---------------------------------------------------------------------------
# expected-free-energy loss and decomposition diagnostics
# ---------------------------------------------------------------------------

def _candidate_mask(candidate_sets, n: int, k: int) -> np.ndarray:
    if isinstance(candidate_sets, np.ndarray) and candidate_sets.dtype == bool:
        if candidate_sets.shape != (n, k):
            raise ValueError("candidate mask shape must match posteriors")
        return candidate_sets
    sets: Sequence = list(candidate_sets)
    if len(sets) != n:
        raise ValueError(f"expected {n} candidate sets, got {len(sets)}")
    mask = np.zeros((n, k), dtype=bool)
    for j, cand in enumerate(sets):
        idx = sorted(getattr(cand, "candidates", cand))
        mask[j, idx] = True
    return mask


def efe_loss(posteriors, labels, priors, candidate_sets, *, grad: bool = True) -> LossEvaluation:
    """Expected free energy: label-weighted uncertainty plus expected complexity.

    uncertainty        = -1/(K*N) * sum l * p * ln p
    expected_complexity = 1/(K*N) * sum_j [ sum_{c in cand_j} a ln(a/p)
                                            + rest_a * ln(rest_a / rest_p) ]

    ``candidate_sets`` is one candidate collection per sample (KellySolution
    instances, index sets, or an (N, K) boolean mask).  The sets come from a
    discrete pre-minimization and are treated as constants: the gradient
    flows only through the posteriors.  Both terms are reported on the
    returned evaluation.  Posteriors and priors are clamped here, once.
    """
    p_raw, l = _check_pair(posteriors, labels)
    n, k = p_raw.shape
    a = clamp_probability_rows(priors)
    if a.shape != (n, k):
        raise ValueError("priors shape must match posteriors")
    p = clamp_probability_rows(p_raw)
    return _efe(p, l, a, np.log(a), _candidate_mask(candidate_sets, n, k), grad)


def _efe(p: np.ndarray, l: np.ndarray, a: np.ndarray, ln_a: np.ndarray, mask: np.ndarray, grad: bool) -> LossEvaluation:
    """efe_loss on clamped posteriors ``p`` and priors ``a`` (with ``ln_a = log a``)."""
    n, k = p.shape
    scale = 1.0 / (k * n)
    ln_p = np.log(p)
    uncertainty = -scale * float((l * p * ln_p).sum())

    rest_a = row_sums(np.where(mask, 0.0, a))
    rest_p = row_sums(np.where(mask, 0.0, p))
    cand_terms = row_sums(np.where(mask, a * (ln_a - ln_p), 0.0))
    rest_terms = np.where(rest_a > 0.0, rest_a * np.log(np.maximum(rest_a, LN_EPS) / np.maximum(rest_p, LN_EPS)), 0.0)
    complexity = scale * float((cand_terms + rest_terms).sum())
    if not grad:
        return LossEvaluation(uncertainty + complexity, None, uncertainty, complexity)

    grad_unc = -scale * l * (ln_p + 1.0)
    ratio = np.where(rest_p > 0.0, rest_a / np.maximum(rest_p, LN_EPS), 0.0)
    grad_cmp = scale * np.where(mask, -a / p, -ratio[:, None])
    grad_post = grad_unc + grad_cmp
    return LossEvaluation(
        value=uncertainty + complexity,
        grad_logits=_chain_softmax(p, grad_post),
        uncertainty=uncertainty,
        expected_complexity=complexity,
    )


# ---------------------------------------------------------------------------
# loss table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossEntry:
    """One trainable loss.

    ``evaluate(posteriors, labels, priors, mask, class_weights, gamma_mod,
    grad=True)`` returns the value to minimize and, unless ``grad`` is
    False, its gradient; each loss reads only the arguments it needs.
    Posteriors and priors are raw rows.  ``mask`` is the candidate mask of
    the sweep, given to losses that set ``uses_candidates`` and None
    otherwise.  ``needs_reference`` losses are undefined without reference
    labels.
    """

    evaluate: Callable[..., LossEvaluation]
    needs_reference: bool = True
    uses_candidates: bool = False


def _dice_loss(posteriors, labels, grad: bool) -> LossEvaluation:
    ev = dice_similarity(posteriors, labels, grad=grad)
    return LossEvaluation(1.0 - ev.value, None if ev.grad_logits is None else -ev.grad_logits)


# The entries look their functions up at call time, so a rebinding of a
# module-level name (a profiler's wrapper, say) is seen through the table.
LOSSES: dict[str, LossEntry] = {
    "efe": LossEntry(
        lambda p, l, a, mask, w, g, grad=True: efe_loss(p, l, a, mask, grad=grad),
        needs_reference=False,
        uses_candidates=True,
    ),
    "ce": LossEntry(lambda p, l, a, mask, w, g, grad=True: cross_entropy(p, l, grad=grad)),
    "wce": LossEntry(
        lambda p, l, a, mask, w, g, grad=True: weighted_cross_entropy(p, l, w, l.sum(axis=0), grad=grad)
    ),
    "focal": LossEntry(lambda p, l, a, mask, w, g, grad=True: focal(p, l, g, grad=grad)),
    "wfocal": LossEntry(
        lambda p, l, a, mask, w, g, grad=True: weighted_focal(p, l, w, l.sum(axis=0), g, grad=grad)
    ),
    "dice": LossEntry(lambda p, l, a, mask, w, g, grad=True: _dice_loss(p, l, grad)),
    "lovasz": LossEntry(lambda p, l, a, mask, w, g, grad=True: lovasz_softmax(p, l, grad=grad)),
}


class VfeDecomposition(NamedTuple):
    complexity: float
    accuracy: float
    entropy: float
    cross_entropy: float


def vfe_decompose(state_dist, approx_state_dist, approx_likelihood) -> VfeDecomposition:
    """Variational free energy split two ways.

    complexity - accuracy and cross_entropy - entropy are the same quantity
    by construction; both decompositions are returned so the identity can be
    checked numerically.
    """
    p = clamp_probabilities(state_dist)
    q = clamp_probabilities(approx_state_dist)
    lh = np.asarray(approx_likelihood, dtype=float)
    if lh.shape != p.shape:
        raise ValueError("likelihood length must match the state distribution")
    if np.any(lh <= 0.0) or np.any(lh > 1.0):
        raise ValueError("likelihood entries must lie in (0, 1]")
    complexity = float(np.sum(p * (np.log(p) - np.log(q))))
    accuracy = float(np.sum(p * np.log(lh)))
    entropy = -float(np.sum(p * np.log(p)))
    cross_entropy = -float(np.sum(p * np.log(q * lh)))
    return VfeDecomposition(complexity, accuracy, entropy, cross_entropy)


class EfeDecomposition(NamedTuple):
    expected_complexity: float
    uncertainty: float


def efe_decompose(preferred_obs, predicted_obs, state_dist) -> EfeDecomposition:
    """Expected free energy terms for one preferred/predicted observation pair."""
    p = clamp_probabilities(preferred_obs)
    q = clamp_probabilities(predicted_obs)
    s = clamp_probabilities(state_dist)
    expected_complexity = float(np.sum(p * (np.log(p) - np.log(q))))
    uncertainty = float(s.sum() * -np.sum(q * np.log(q)))
    return EfeDecomposition(expected_complexity, uncertainty)
