"""Classification objectives evaluated as value plus gradient in the logits.

Every trainable loss takes a matrix of logits and a label matrix whose
samples are one-hot (supervised) or uniform 1/K (label-free), and
returns a LossEvaluation holding the scalar value and the analytic gradient
with respect to the logits; every sample's gradient sums to zero.  Each loss
computes its value first and its gradient only when asked: with
``grad=False`` the evaluation carries the same value bit for bit and no
gradient, which is how the trainer scores its validation set.

LOSSES is the one way to reach a trainable loss.  It maps each loss name to
its kernel plus whether it needs reference labels and whether it uses the
candidate sets.  Every kernel reads the class-major (K, N) ``(ln p, p)`` of
one ``_log_softmax`` call made by its caller, which holds the only
finiteness check of the logits, with the labels, the clamped priors and the
candidate mask in the same layout; it derives whatever else it needs (the
prior logarithms, the counted class weights) from these.  The trainer calls
the kernels on its own rows; ``LossEntry.evaluate`` checks (N, K) inputs,
one row per sample, clamps the priors (``kelly.clamp_probability_rows``)
and calls the same kernel, for the verify suites, the tests and the demos;
the command line reads the names.

No posterior is clamped: ln p is the shifted logit less the log of the row
sum, finite and exact where p underflows to 0.  The cross-entropy family
(plain, class-weighted, focal, weighted focal) is one weighted-focal kernel
with its gradient formed in the logits: cross entropy is its unit-weight,
gamma_mod = 0 case.  It normalizes by 1/(K*N) and returns nonnegative
values.  The expected-free-energy loss combines a label-weighted
posterior-entropy term with the coarsened prior/posterior divergence over
per-sample candidate outcome sets from the kelly module, which are held
constant under differentiation.

The Dice loss (1 - the soft Dice similarity) and the Lovasz-Softmax loss
are defined on posteriors; their gradients are chained through the softmax
Jacobian by ``_softmax_chain``, as is the EFE uncertainty gradient.  The
Lovasz-Softmax loss is the convex closure of the per-class Jaccard distance
over sorted mispredictions; ``lovasz_softmax`` is its (N, K) form on
posteriors, which may sit at exact 0/1 vertices.  vfe_decompose is a
single-distribution diagnostic for the free-energy identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .kelly import _transposed, clamp_probability_rows


class LabelsNotOneHotError(ValueError):
    """A supervised-only loss received rows that are not one-hot."""


class NonFiniteLogitsError(ValueError):
    """A logit, or the spread of a row of logits, is not finite."""


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
    """The posteriors of each (N, K) row of logits (see ``_log_softmax``)."""
    return _transposed(_log_softmax(_transposed(logits))[1])


def _log_softmax(z) -> tuple[np.ndarray, np.ndarray]:
    """``(ln p, p)`` of class-major (K, N) logits, shifted by each sample's maximum.

    Raises NonFiniteLogitsError unless every shifted logit is finite, which
    rejects non-finite logits and samples whose spread overflows.
    """
    z = np.asarray(z, dtype=float)
    top = z.max(axis=0)
    with np.errstate(invalid="ignore", over="ignore"):
        z = z - top
    # a shifted logit is NaN or at most 0, so the minimum is finite exactly when all are
    if z.size and not np.isfinite(z.min()):
        raise NonFiniteLogitsError("logits must be finite")
    e = np.exp(z)
    total = e.sum(axis=0)
    return z - np.log(total), e / total


def _transposed_grad(ev: LossEvaluation) -> LossEvaluation:
    """``ev`` with its gradient moved to the other layout."""
    if ev.grad_logits is not None:
        ev.grad_logits = _transposed(ev.grad_logits)
    return ev


def _check_pair(values, labels) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(values, dtype=float)
    l = np.asarray(labels, dtype=float)
    if x.ndim != 2 or x.shape != l.shape:
        raise ValueError(f"inputs {x.shape} and labels {l.shape} must be equal 2-d shapes")
    return x, l


def _softmax_chain(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pull a class-major (K, N) gradient ``g`` in the posteriors ``p`` back through the softmax Jacobian."""
    return p * (g - (g * p).sum(axis=0))


# ---------------------------------------------------------------------------
# cross-entropy family
# ---------------------------------------------------------------------------

def _weighted_focal(
    ln_p: np.ndarray, p: np.ndarray, l: np.ndarray, class_weights: np.ndarray | None, gamma_mod: float, grad: bool
) -> LossEvaluation:
    """The whole family: -1/(K*N) * sum w * (1 - p)^gamma_mod * l * ln p.

    Takes class-major (K, N) ``(ln p, p)`` and labels and (K, 1) class
    weights, or None for unit weights, which enter as an exact 1.0;
    gamma_mod = 0 drops the modulation factor, so ce, focal at gamma_mod = 0
    and the unit-weight variants agree bit for bit.  The (K, N) gradient in the
    logits is scale * (p * sum(u) - u) with u = w * l * ((1 - p)^g -
    g * (1 - p)^(g - 1) * p * ln p) for g = gamma_mod; the second term is
    taken as 0 where 1 - p == 0, its limit for every g > 0.
    """
    if not 0.0 <= gamma_mod < np.inf:
        raise ValueError("gamma_mod must be finite and >= 0")
    k, n = ln_p.shape
    w = 1.0 if class_weights is None else class_weights
    scale = 1.0 / (k * n)
    if gamma_mod == 0.0:
        # a product with unit weights is exact, so they skip it
        u = l if class_weights is None else w * l
        value = -scale * float(np.vdot(u, ln_p))
        if not grad:
            return LossEvaluation(value, None)
    else:
        one_minus = 1.0 - p
        mod = one_minus**gamma_mod
        value = -scale * float(np.vdot(w * mod * l, ln_p))
        if not grad:
            return LossEvaluation(value, None)
        slope = np.power(one_minus, gamma_mod - 1.0, out=np.zeros_like(p), where=one_minus > 0.0)
        u = w * l * (mod - gamma_mod * slope * p * ln_p)
    return LossEvaluation(value, scale * (p * u.sum(axis=0) - u))


def _weight_column(class_weights, l: np.ndarray) -> np.ndarray:
    """The (K, 1) weights of the weighted losses for class-major (K, N) labels ``l``.

    ``class_weights``, when given, is checked and used as is; otherwise
    the weight of class c is (sum of counts) / (count_c + 1e-8), counted
    from ``l``, which despite its name exceeds 1 for any non-dominant class.
    """
    if class_weights is None:
        counts = l.sum(axis=1)
        return (counts.sum() / (counts + 1e-8))[:, None]
    w = np.asarray(class_weights, dtype=float)
    if w.shape != (l.shape[0],):
        raise ValueError("class_weights must have one entry per class")
    if not np.all((w > 0.0) & (w < np.inf)):
        raise ValueError("class_weights must be finite and positive")
    return w[:, None]


# ---------------------------------------------------------------------------
# metric-based losses
# ---------------------------------------------------------------------------

def _dice(p: np.ndarray, l: np.ndarray, grad: bool) -> LossEvaluation:
    """1 - the soft Dice similarity (2/K) * sum_c intersection_c / mass_c, of class-major (K, N) posteriors.

    A class absent from both labels and posteriors counts as perfectly
    matched (per-class Dice 1, i.e. bracket 1/2).
    """
    k = p.shape[0]
    num = (l * p).sum(axis=1, keepdims=True)
    den = (l * l + p * p).sum(axis=1, keepdims=True)
    empty = den == 0.0
    safe_den = np.where(empty, 1.0, den)
    brackets = np.where(empty, 0.5, num / safe_den)
    value = 1.0 - (2.0 / k) * float(brackets.sum())
    if not grad:
        return LossEvaluation(value, None)
    grad_post = (2.0 / k) * (l * safe_den - 2.0 * p * num) / safe_den**2
    grad_post[empty[:, 0]] = 0.0
    return LossEvaluation(value, -_softmax_chain(p, grad_post))


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
    # the bits of np.diff(jd, prepend=0.0), without its concatenated copy
    grad = np.empty_like(jd)
    grad[0] = jd[0]
    np.subtract(jd[1:], jd[:-1], out=grad[1:])
    return grad


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
    """``_lovasz`` of (N, K) posteriors and labels, with the (N, K) gradient in the logits."""
    return _transposed_grad(_lovasz(*_check_pair(_transposed(posteriors), _transposed(labels)), grad))


def _lovasz(p: np.ndarray, l: np.ndarray, grad: bool) -> LossEvaluation:
    """Per-class Lovasz extension of the Jaccard distance of class-major (K, N) posteriors, averaged by 1/(K*N).

    Supervised only: labels must be one-hot.  The misprediction for the
    labeled class is 1 - posterior and the posterior itself elsewhere.  The
    gradient in the mispredictions is the prefix-difference vector scattered
    back through the per-class sort (the extension is piecewise linear),
    then chained through the softmax Jacobian.
    """
    if not np.all((l == 0.0) | (l == 1.0)) or not np.all(l.sum(axis=0) == 1.0):
        raise LabelsNotOneHotError("labels must be exactly one-hot rows")
    k, n = p.shape
    m = np.where(l == 1.0, 1.0 - p, p)
    scale = 1.0 / (k * n)
    value = 0.0
    grad_m = np.zeros_like(p)
    for c in range(k):
        order = np.argsort(-m[c], kind="stable")
        g = lovasz_grad(l[c, order])
        value += float(m[c, order] @ g)
        grad_m[c, order] = g
    if not grad:
        return LossEvaluation(scale * value, None)
    sign = np.where(l == 1.0, -1.0, 1.0)
    return LossEvaluation(scale * value, _softmax_chain(p, scale * sign * grad_m))


# ---------------------------------------------------------------------------
# expected-free-energy loss and decomposition diagnostics
# ---------------------------------------------------------------------------

def _efe(ln_p: np.ndarray, p: np.ndarray, l: np.ndarray, a: np.ndarray, mask: np.ndarray, grad: bool) -> LossEvaluation:
    """Expected free energy: label-weighted uncertainty plus expected complexity.

    uncertainty        = -1/(K*N) * sum l * p * ln p
    expected_complexity = 1/(K*N) * sum_j [ sum_{c in cand_j} a (ln a - ln p)
                                            + rest_a * ln(rest_a / rest_p) ]

    Takes ``(ln p, p)`` of ``_log_softmax``, the clamped priors ``a``, whose
    logarithms it takes itself, and the candidate mask, all class-major
    (K, N) like the gradient.  The mask is held constant under
    differentiation.  The complexity gradient in the logits is
    scale * (p * sum(a) - target), with target = a on the candidates and
    rest_a * p / rest_p off them.
    For a mask of the sweep the rest holds at least as much posterior as
    prior mass, so rest_p > 0 and rest_a / rest_p <= 1 up to rounding.  A
    row without a rest has no rest term.
    """
    k, n = p.shape
    scale = 1.0 / (k * n)
    uncertainty = -scale * float(np.vdot(l * p, ln_p))

    rest_a = np.where(mask, 0.0, a).sum(axis=0)
    level = np.divide(rest_a, np.where(mask, 0.0, p).sum(axis=0), out=np.ones(n), where=rest_a > 0.0)
    cand_terms = np.where(mask, a * (np.log(a) - ln_p), 0.0).sum(axis=0)
    complexity = scale * float((cand_terms + rest_a * np.log(level)).sum())
    if not grad:
        return LossEvaluation(uncertainty + complexity, None, uncertainty, complexity)

    grad_unc = _softmax_chain(p, -scale * l * (ln_p + 1.0))
    target = np.where(mask, a, p * level)
    grad_cmp = scale * (p * a.sum(axis=0) - target)
    return LossEvaluation(
        value=uncertainty + complexity,
        grad_logits=grad_unc + grad_cmp,
        uncertainty=uncertainty,
        expected_complexity=complexity,
    )


# ---------------------------------------------------------------------------
# loss table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossEntry:
    """One trainable loss.

    ``kernel(ln_p, p, labels, priors, mask, class_weights, gamma_mod, grad)``
    takes the class-major (K, N) ``(ln p, p)`` of one ``_log_softmax`` call
    made by its caller, the labels, the clamped priors and the boolean
    candidate mask of the sweep, all (K, N).  It returns the value to
    minimize and, unless ``grad`` is False, its (K, N) gradient in the
    logits.  Each loss reads only the arguments it needs: priors and mask
    only if it ``uses_candidates``.  Without ``class_weights`` the weighted
    losses count the (one-hot) labels on every call.
    ``needs_reference`` losses are undefined without reference labels.

    The trainer calls the kernel on its own rows.  ``evaluate`` is the same
    loss on (N, K) arrays with raw priors.  It raises ValueError unless the
    logits and labels are equal 2-d shapes and, for a loss that uses
    candidates, the priors match them and the mask is a boolean array of
    their shape; and for a sample whose rest (positive prior mass, once
    clamped) holds only posteriors that underflowed to 0, whose rest term
    would be infinite.
    """

    kernel: Callable[..., LossEvaluation]
    needs_reference: bool = True
    uses_candidates: bool = False

    def evaluate(self, logits, labels, priors=None, mask=None, class_weights=None, gamma_mod=2.0, grad=True):
        z, l = _check_pair(_transposed(logits), _transposed(labels))
        a = None
        if self.uses_candidates:
            a, mask = _transposed(clamp_probability_rows(priors)), _transposed(mask)
            if a.shape != z.shape:
                raise ValueError("priors shape must match the logits")
            if mask.dtype != bool or mask.shape != z.shape:
                raise ValueError("the candidate mask must be a boolean array shaped like the logits")
        ln_p, p = _log_softmax(z)
        if self.uses_candidates:
            stranded = np.flatnonzero(~mask.all(axis=0) & ~np.any(~mask & (p > 0.0), axis=0))
            if stranded.size:
                raise ValueError(
                    f"row {stranded[0]}: the candidate set leaves prior mass on outcomes whose posteriors are all 0"
                )
        return _transposed_grad(self.kernel(ln_p, p, l, a, mask, class_weights, gamma_mod, grad))


# The kernels look their functions up at call time, so a rebinding of a
# module-level name (a profiler's wrapper, say) is seen through the table.
LOSSES: dict[str, LossEntry] = {
    "efe": LossEntry(
        lambda ln_p, p, l, a, m, w, g, grad: _efe(ln_p, p, l, a, m, grad),
        needs_reference=False,
        uses_candidates=True,
    ),
    "ce": LossEntry(lambda ln_p, p, l, a, m, w, g, grad: _weighted_focal(ln_p, p, l, None, 0.0, grad)),
    "wce": LossEntry(lambda ln_p, p, l, a, m, w, g, grad: _weighted_focal(ln_p, p, l, _weight_column(w, l), 0.0, grad)),
    "focal": LossEntry(lambda ln_p, p, l, a, m, w, g, grad: _weighted_focal(ln_p, p, l, None, g, grad)),
    "wfocal": LossEntry(lambda ln_p, p, l, a, m, w, g, grad: _weighted_focal(ln_p, p, l, _weight_column(w, l), g, grad)),
    "dice": LossEntry(lambda ln_p, p, l, a, m, w, g, grad: _dice(p, l, grad)),
    "lovasz": LossEntry(lambda ln_p, p, l, a, m, w, g, grad: _lovasz(p, l, grad)),
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
    checked numerically.  Every likelihood entry must lie in (0, 1].
    """
    p, q = clamp_probability_rows([state_dist, approx_state_dist])
    lh = np.asarray(approx_likelihood, dtype=float)
    if lh.shape != p.shape:
        raise ValueError("likelihood length must match the state distribution")
    if not np.all((lh > 0.0) & (lh <= 1.0)):
        raise ValueError("likelihood entries must lie in (0, 1]")
    complexity = float(np.sum(p * (np.log(p) - np.log(q))))
    accuracy = float(np.sum(p * np.log(lh)))
    entropy = -float(np.sum(p * np.log(p)))
    cross_entropy = -float(np.sum(p * np.log(q * lh)))
    return VfeDecomposition(complexity, accuracy, entropy, cross_entropy)
