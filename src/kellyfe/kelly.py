"""Closed-form generalized Kelly betting over mutually exclusive outcomes.

A unit bankroll is split between K mutually exclusive outcomes.  Outcome c
has a win probability ``prior[c]`` and a market belief ``posterior[c]``; a
bet of fraction ``g[c]`` pays ``g[c] / posterior[c]`` when c wins.  The
log-growth of the bankroll,

    G(g) = sum_c prior[c] * ln(1 - sum_k g[k] + g[c] / posterior[c]),

is strictly concave, and its maximizer over {g >= 0, sum(g) < 1} has a
closed form: a descending sweep over the ratios q[c] = prior[c]/posterior[c]
admits outcomes while q stays above the "unspent" ratio

    s = (non-candidate prior mass) / (non-candidate posterior mass),

after which g[c] = prior[c] - posterior[c] * s for admitted outcomes and 0
for the rest.  ``candidate_labels_batch`` implements that sweep and
``candidate_labels`` is its one-row form; ``brute_force_oracle``
independently maximizes G over an exhaustive grid, by a dynamic program
over the total of allocated grid units, so the closed form can be checked
rather than trusted, and ``kelly_objective_value`` evaluates the
coarsened-KL form of the optimum.

Everything here is pure and operates on plain numpy arrays.  The public
functions take (N, K) rows, one per sample; the private sweep works on
class-major (K, N) arrays, one row per class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

PROB_CLAMP = 1e-8
MAX_GRID_CLASSES = 4


class InfeasibleFractionsError(ValueError):
    """Allocation fractions leave the feasible betting set."""


class MissingReferenceLabelError(ValueError):
    """Empty candidate set and no reference label to fall back on."""


class GridDimensionError(ValueError):
    """Exhaustive grid search requested for too many classes."""


def _transposed(x) -> np.ndarray:
    """A C-ordered copy of ``x.T``: moves an array between the (N, K) and (K, N) layouts."""
    return np.ascontiguousarray(np.transpose(x))


def clamp_probability_rows(rows) -> np.ndarray:
    """Clamp an (N, K) matrix to [1e-8, 1 - 1e-8] and renormalize each row.

    Keeps vectors on the open simplex so ratios and logarithms stay finite
    even when a softmax underflows.  Rows are summed by numpy, each on its
    own, so a prior and posterior clamped as the two rows of one call get
    the bits of two one-row calls.  The public sweep and ``log_growth``
    clamp what they are given; the private sweep does not clamp.
    """
    p = np.asarray(rows, dtype=float)
    if p.ndim != 2 or p.shape[1] < 2:
        raise ValueError("expected an (N, K) matrix with K >= 2")
    if not np.all(np.isfinite(p)):
        raise ValueError("probability rows have non-finite entries")
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return p / p.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class KellySolution:
    """Optimal bet for one prior/posterior pair.

    ``candidates`` are the outcomes the sweep admitted (or the fallback
    label when it admits nothing), ``fractions`` the per-outcome bet
    sizes, ``unspent`` the bankroll kept out of play, and ``log_growth``
    the achieved objective value in nats.  An admitted outcome's stake is
    positive, except that one whose ratio equals the unspent ratio up to
    rounding may be admitted with a stake of 0 or down to about -1e-16.
    """

    candidates: frozenset[int]
    fractions: np.ndarray
    unspent: float
    log_growth: float


def log_growth(fractions, prior, posterior) -> float:
    """Expected log bankroll multiplier for the given allocation.

    Raises InfeasibleFractionsError when the allocation leaves the feasible
    set (negative entries, total >= 1, or a non-positive payout bracket).
    """
    return _log_growth(fractions, *clamp_probability_rows([prior, posterior]))


def _log_growth(fractions, a: np.ndarray, p: np.ndarray) -> float:
    """``log_growth`` of a clamped prior ``a`` and posterior ``p``."""
    g = np.asarray(fractions, dtype=float)
    if g.shape != a.shape:
        raise ValueError("fractions and probabilities differ in length")
    total = g.sum()
    if np.any(g < 0.0) or total >= 1.0:
        raise InfeasibleFractionsError("fractions must be >= 0 with sum < 1")
    brackets = 1.0 - total + g / p
    if np.any(brackets <= 0.0):
        raise InfeasibleFractionsError("non-positive payout bracket")
    return float(a @ np.log(brackets))


def candidate_labels(prior, posterior, reference_label: int | None = None) -> KellySolution:
    """Determine the candidate outcome set and its optimal allocation.

    The one-row case of candidate_labels_batch, which describes the sweep,
    on a pair clamped once for the sweep and the log-growth.  When nothing
    is admitted (exactly when prior equals posterior entrywise) the
    ``reference_label`` is inserted instead, with the all-zero allocation;
    without one, MissingReferenceLabelError is raised.  A reference label
    that is not an integer in 0..K-1 raises ValueError.
    """
    if np.shape(prior) != np.shape(posterior):
        raise ValueError("priors and posteriors differ in shape")
    a, p = clamp_probability_rows([prior, posterior])
    fallback = None if reference_label is None else _checked_labels([reference_label], (a.size, 1))
    mask, fractions, unspent = _sweep(a[:, None], p[:, None], fallback)
    return KellySolution(
        candidates=frozenset(int(c) for c in np.flatnonzero(mask)),
        fractions=fractions[:, 0],
        unspent=float(unspent[0]),
        log_growth=_log_growth(fractions[:, 0], a, p),
    )


def candidate_labels_batch(
    priors, posteriors, fallback_labels=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate sweep over the rows of a batch.

    Per row, sorts q = prior/posterior descending (ties broken by ascending
    index) and admits outcomes while q exceeds the current unspent ratio s,
    which is recomputed over the not-yet-admitted outcomes after every
    admission.  Admission requires q > s strictly; the sweep therefore never
    admits all K outcomes (the last one always has q equal to the remaining
    s).  An outcome whose q equals the unspent ratio up to rounding may
    still be admitted, with a stake of 0 or down to about -1e-16.  Returns
    (candidate mask (N, K) bool, fractions (N, K), unspent (N,)).
    Rows that admit nothing get their fallback label marked in the mask with
    an all-zero allocation; if ``fallback_labels`` is None such rows raise
    MissingReferenceLabelError.  Fallback labels that are not integers in
    0..K-1, one per row, raise ValueError.
    """
    a = clamp_probability_rows(priors)
    p = clamp_probability_rows(posteriors)
    if a.shape != p.shape:
        raise ValueError("priors and posteriors differ in shape")
    a, p = _transposed(a), _transposed(p)
    fallback = None if fallback_labels is None else _checked_labels(fallback_labels, a.shape)
    mask, fractions, unspent = _sweep(a, p, fallback)
    return _transposed(mask), _transposed(fractions), unspent


def _checked_labels(labels, shape: tuple[int, int]) -> np.ndarray:
    """``labels`` as an (N,) integer array for (K, N) rows of ``shape``; ValueError unless they are integers in 0..K-1, one per row."""
    k, n = shape
    fb = np.asarray(labels)
    if fb.shape != (n,) or fb.dtype.kind not in "iu" or not np.all((fb >= 0) & (fb < k)):
        raise ValueError(f"fallback labels must be integers in 0..{k - 1}, one per row, {n} in all")
    return fb


def _rest_sums(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``rest[t - 1] = x[t] + ... + x[K - 1]`` of (K, N) rows for t = K-1 down to 1, in ``out`` if given.

    The rows are added one at a time from the last up, as the sweep's
    levels need them; an axis-0 accumulate would add in the same order but
    takes several times as long.
    """
    rest = np.empty((x.shape[0] - 1, x.shape[1])) if out is None else out
    rest[-1] = x[-1]
    for t in range(x.shape[0] - 3, -1, -1):
        np.add(rest[t + 1], x[t + 1], out=rest[t])
    return rest


def _sweep(a: np.ndarray, p: np.ndarray, fallback_labels, mask_only: bool = False, order: np.ndarray | None = None):
    """The sweep of candidate_labels_batch on class-major (K, N) arrays it does not clamp.

    The mask and the fractions come back (K, N) too, the unspent ratios
    (N,).  The priors ``a`` must be positive.  A posterior of 0 then gives
    q = +inf, which sorts first and is admitted, and every level stays
    finite, as the lowest-q outcome has a positive posterior.  With
    ``mask_only`` the mask alone comes back.  A sample that admits nothing
    gets its ``fallback_labels`` entry marked; these are (N,) labels, or a
    function that takes the indices of those samples and returns their
    labels, so a caller can derive them for those samples alone.

    ``order[t, j]`` is the raveled (K, N) index of the t-th largest ratio
    q = a / p of sample j, in the stable descending order (ties by
    ascending class).  Without one, every sample is sorted.  A caller may
    pass its own (K, N) integer array, each of whose columns must be a
    permutation of that sample's raveled indices: the samples whose
    gathered ratios descend strictly are then already in the stable order,
    which is unique, and only the others, ties included, are sorted again.
    The array is rewritten in place to the stable order, so a caller that
    carries it across calls on slowly moving ratios saves most sorts.
    Either way the result has the bits of a fresh sort.
    """
    k, n = a.shape
    if order is None:
        order = np.argsort(-(a / p), axis=0, kind="stable") * n + np.arange(n)
    a_sorted, p_sorted = a.ravel()[order], p.ravel()[order]
    q_sorted = a_sorted / p_sorted
    stale = np.flatnonzero(~np.logical_and.reduce(q_sorted[:-1] > q_sorted[1:], axis=0))
    if stale.size:
        cols = order[:, stale] = np.argsort(-(a[:, stale] / p[:, stale]), axis=0, kind="stable") * n + stale
        a_sorted[:, stale], p_sorted[:, stale] = a.ravel()[cols], p.ravel()[cols]
        q_sorted[:, stale] = a_sorted[:, stale] / p_sorted[:, stale]
    rest_a = _rest_sums(a_sorted)
    # levels[t] = unspent ratio of the K - t not-yet-admitted outcomes
    levels = np.empty((k, n))
    levels[0] = 1.0
    np.divide(rest_a, _rest_sums(p_sorted, out=levels[1:]), out=levels[1:])
    # the sweep admits the leading run of sorted outcomes with q > level
    admitted = q_sorted > levels
    for t in range(1, k):
        np.logical_and(admitted[t], admitted[t - 1], out=admitted[t])

    mask = np.zeros(k * n, dtype=bool)
    mask[order] = admitted
    mask = mask.reshape(k, n)
    if not mask_only:
        # the lowest-q outcome always has q equal to the last level, so at
        # most K - 1 outcomes are admitted and the level index is in range
        unspent = levels[admitted.sum(axis=0), np.arange(n)]
        fractions = np.where(mask, a - p * unspent, 0.0)

    if not admitted[0].all():
        empty = np.flatnonzero(~admitted[0])
        if fallback_labels is None:
            raise MissingReferenceLabelError(
                "empty candidate set and no fallback labels supplied"
            )
        if callable(fallback_labels):
            mask[fallback_labels(empty), empty] = True
        else:
            mask[np.asarray(fallback_labels, dtype=int)[empty], empty] = True
    return mask if mask_only else (mask, fractions, unspent)


def kelly_objective_value(solution: KellySolution, prior, posterior) -> float:
    """Optimal objective in coarsened-KL form.

    Equals ``log_growth(solution.fractions, prior, posterior)``: candidate
    outcomes contribute prior * ln(prior/posterior) and the non-candidates
    contribute through their pooled masses.  Always >= 0, being a KL
    divergence between the prior and posterior coarsened onto the
    candidate / non-candidate partition.
    """
    a, p = clamp_probability_rows([prior, posterior])
    mask = np.zeros(a.size, dtype=bool)
    mask[list(solution.candidates)] = True
    value = float(np.sum(a[mask] * (np.log(a[mask]) - np.log(p[mask]))))
    rest_a = a[~mask].sum()
    rest_p = p[~mask].sum()
    if rest_a > 0.0:
        value += float(rest_a * np.log(rest_a / rest_p))
    return value


def _max_units(grid_step: float) -> int:
    # largest m with m * grid_step < 1
    return int((1.0 - 1e-12) // grid_step)


def brute_force_oracle(prior, posterior, grid_step: float) -> tuple[np.ndarray, float]:
    """Maximize log_growth over the exhaustive grid {g >= 0, sum(g) < 1}.

    Every grid point g = grid_step * x with integer x >= 0 and
    sum(x) * grid_step < 1 is covered.  The maximum is found exactly by
    dynamic programming over the total number m of allocated grid units:
    for a fixed m the objective is a sum of per-class tables, so the best
    split is composed class by class and the overall maximizer recovered by
    backtracking.  This evaluates the same finite search space as direct
    enumeration (against which it is tested) at a fraction of the cost.

    With M the largest total, each class has a table of M + 1 rows, one
    per total m, whose column i holds its value at M - i units (class 0's
    at i units).  The composed prefix ``acc[m, y]`` is the best value of
    the classes so far at y <= m units in all, -inf above the diagonal.  A
    middle class is composed once per partial total y, for every m >= y in
    one op: ``acc[y:, :y+1] + v[y:, M-y:]`` holds the sums at first share
    j <= y, one row per total, and each row keeps its first maximum, so
    ties go to the smaller share of the prefix.  Running y downwards lets
    column y of ``acc`` be overwritten in place; the first shares are kept
    in one (M + 1, M + 1) table per middle class for the backtrack.  The
    last class joins every total at once as ``acc[m, j] + last[m, m - j]``,
    read through a skewed view of its flattened table, and a scan of the
    per-total maxima in ascending m keeps a later total only when it is
    better by more than 1e-12; only the chosen total is backtracked.  At
    the default step of 0.005 (M = 199) each table takes 0.32 MB, and a
    4-class call peaks at about 2.0 MB.

    Only the grid granularity is shared with the closed form; no ordering,
    admission, or unspent-ratio logic is reused.
    """
    a, p = clamp_probability_rows([prior, posterior])
    k = a.size
    if k > MAX_GRID_CLASSES:
        raise GridDimensionError(f"exhaustive grid supports at most {MAX_GRID_CLASSES} classes")
    if not 0.0 < grid_step <= 0.1:
        raise ValueError("grid_step must lie in (0, 0.1]")

    h = float(grid_step)
    m_max = _max_units(h)
    units = np.arange(m_max + 1)
    totals = 1.0 - units * h  # 1 - m*h, strictly positive by construction

    def table(c: int, x: np.ndarray) -> np.ndarray:
        # table(c, x)[m, i] = a_c * ln(1 - m*h + x[i]*h / p_c), made in place
        t = totals[:, None] + x * (h / p[c])
        np.log(t, out=t)
        t *= a[c]
        return t

    # acc[m, j]: class 0 at j units, -inf for j > m (no split of m units)
    acc = table(0, units)
    np.copyto(acc, -np.inf, where=~np.tri(m_max + 1, dtype=bool))
    args = np.empty((k - 2, m_max + 1, m_max + 1), dtype=np.intp)
    for c in range(1, k - 1):
        v = table(c, units[::-1])  # v[m, m_max - x]: the class at x units
        for y in range(m_max, -1, -1):
            # sums[m - y, j] = acc[m, j] + (class c at y - j units), every m >= y
            sums = acc[y:, : y + 1] + v[y:, m_max - y :]
            arg = args[c - 1, y:, y] = sums.argmax(axis=1)
            acc[y:, y] = sums[units[: m_max + 1 - y], arg]
    # row m of the flat reversed last table from m_max - m on: the last
    # class at m - j units in column j <= m, (finite) spill after it
    last = sliding_window_view(table(k - 1, units[::-1]).ravel(), m_max + 1)[m_max::m_max]
    final = acc + last
    splits = final.argmax(axis=1)
    values = final[units, splits].tolist()

    # The objective is exactly invariant along g -> g + eps * posterior, so
    # grid maximizers form a ridge; requiring improvement beyond float noise
    # keeps the first (minimal-allocation) point of that ridge.
    tie_tol = 1e-12
    best_m, best_value = 0, values[0]
    for m, value in enumerate(values):
        if value > best_value + tie_tol:
            best_m, best_value = m, value
    alloc = np.zeros(k, dtype=int)
    y = int(splits[best_m])
    alloc[k - 1] = best_m - y
    for c in range(k - 2, 0, -1):
        split = int(args[c - 1, best_m, y])
        alloc[c] = y - split
        y = split
    alloc[0] = y
    return alloc * h, best_value
