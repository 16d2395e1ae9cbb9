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
for the rest.  ``candidate_labels`` implements that sweep;
``brute_force_oracle`` independently maximizes G over an exhaustive grid,
by a dynamic program over the total of allocated grid units taken in
chunks of totals, so the closed form can be checked rather than trusted;
``kelly_objective_value`` evaluates the coarsened-KL form of the optimum.

Everything here is pure and operates on plain numpy arrays.  Each public
routine but ``log_growth`` takes one pair as two (K,) vectors or N pairs
as two (N, K) arrays, one row per sample.  A one-pair call returns a float
for each per-pair value, a call on rows an (N,) array, and every row gets
the bits of its own one-pair call.  ``log_growth`` takes one pair.  The
private sweep works on class-major (K, N) arrays, one row per class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_CLAMP = 1e-8
MAX_GRID_CLASSES = 4


class InfeasibleFractionsError(ValueError):
    """Allocation fractions leave the feasible betting set."""


class MissingReferenceLabelError(ValueError):
    """Empty candidate set and no reference label to fall back on."""


class GridDimensionError(ValueError):
    """Exhaustive grid search requested for too many classes."""


def _transposed(x) -> np.ndarray:
    """A C-ordered copy of ``x`` with its last two axes swapped: moves an array between the (..., N, K) and (..., K, N) layouts.

    An array of fewer than two axes is copied as it is.
    """
    x = np.asarray(x)
    return np.ascontiguousarray(x.swapaxes(-1, -2) if x.ndim > 1 else x)


def clamp_probability_rows(rows) -> np.ndarray:
    """Clamp an (N, K) matrix to [1e-8, 1 - 1e-8] and renormalize each row.

    Keeps vectors on the open simplex so ratios and logarithms stay finite
    even when a softmax underflows.  Rows are summed by numpy, each on its
    own, so a prior and posterior clamped as the two rows of one call get
    the bits of two one-row calls.  The public routines clamp what they are
    given, priors and posteriors in one call; the private sweep does not
    clamp.
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
    """Optimal bets for one prior/posterior pair, or for (N, K) rows of pairs.

    ``mask`` marks the outcomes the sweep admitted (or the fallback label
    where it admits nothing) and has the shape of the prior, ``fractions``
    the per-outcome bet sizes, of the same shape, ``unspent`` the bankroll
    kept out of play and ``log_growth`` the achieved objective value in
    nats: floats for one pair, (N,) arrays for rows.  An admitted outcome's
    stake is positive, except that one whose ratio equals the unspent ratio
    up to rounding may be admitted with a stake of 0 or down to about
    -1e-16.
    """

    mask: np.ndarray
    fractions: np.ndarray
    unspent: float | np.ndarray
    log_growth: float | np.ndarray

    @property
    def candidates(self) -> frozenset[int]:
        """The admitted outcomes of a one-pair solution; ValueError for rows, which are read through ``mask``."""
        if self.mask.ndim != 1:
            raise ValueError(f"candidates is defined for one pair; read mask for {self.mask.shape} rows")
        return frozenset(np.flatnonzero(self.mask).tolist())


def _clamped_pair(prior, posterior) -> tuple[np.ndarray, np.ndarray]:
    """A prior and a posterior of one shape, (K,) or (N, K), clamped row by row in one call and returned in that shape."""
    if np.shape(prior) != np.shape(posterior):
        raise ValueError("priors and posteriors differ in shape")
    pair = np.asarray([prior, posterior], dtype=float)
    a, p = clamp_probability_rows(np.concatenate(pair) if pair.ndim > 2 else pair).reshape(pair.shape)
    return a, p


def log_growth(fractions, prior, posterior) -> float:
    """Expected log bankroll multiplier for the given allocation of one pair.

    Raises InfeasibleFractionsError when the allocation leaves the feasible
    set (negative entries, total >= 1, or a non-positive payout bracket),
    and ValueError when the prior, posterior and fractions differ in shape.
    """
    a, p = _clamped_pair(prior, posterior)
    if a.ndim != 1:
        raise ValueError(f"log_growth takes one (K,) pair, not {a.shape} rows")
    g = np.asarray(fractions, dtype=float)
    if g.shape != a.shape:
        raise ValueError("fractions and probabilities differ in length")
    if np.any(g < 0.0) or g.sum() >= 1.0:
        raise InfeasibleFractionsError("fractions must be >= 0 with sum < 1")
    if np.any(1.0 - g.sum() + g / p <= 0.0):
        raise InfeasibleFractionsError("non-positive payout bracket")
    return float(_log_growth(g, a, p))


def _log_growth(g: np.ndarray, a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``log_growth`` of (..., K) fractions on clamped priors ``a`` and posteriors ``p``, per row and unchecked.

    The dot is the BLAS ``ddot`` of a one-row ``a @ log(brackets)``, so a
    row gets the bits of its own call.
    """
    brackets = 1.0 - g.sum(axis=-1, keepdims=True) + g / p
    return np.matmul(a[..., None, :], np.log(brackets)[..., :, None])[..., 0, 0]


def candidate_labels(prior, posterior, reference_label=None) -> KellySolution:
    """The candidate outcome sets and their optimal allocations, of one pair (K,) or of (N, K) rows.

    Per row, sorts q = prior/posterior descending (ties broken by ascending
    index) and admits outcomes while q exceeds the current unspent ratio s,
    which is recomputed over the not-yet-admitted outcomes after every
    admission.  Admission requires q > s strictly; the sweep therefore never
    admits all K outcomes (the last one always has q equal to the remaining
    s).  An outcome whose q equals the unspent ratio up to rounding may
    still be admitted, with a stake of 0 or down to about -1e-16; the
    log-growth is computed without a feasibility check, so such a row is
    returned as it is.

    The priors and posteriors are clamped together in one call, so every
    row gets the bits of a one-pair call.  When a row admits nothing
    (exactly when its prior equals its posterior entrywise) its
    ``reference_label`` is marked instead, with the all-zero allocation;
    without one, MissingReferenceLabelError is raised.  The reference label
    is an integer in 0..K-1 for one pair and (N,) such integers for rows;
    anything else raises ValueError.
    """
    a, p = _clamped_pair(prior, posterior)
    k = a.shape[-1]
    rows_a, rows_p = _transposed(a.reshape(-1, k)), _transposed(p.reshape(-1, k))
    labels = [reference_label] if a.ndim == 1 else reference_label
    fallback = None if reference_label is None else _checked_labels(labels, rows_a.shape)
    mask, fractions, unspent = _sweep(rows_a, rows_p, fallback)
    mask, fractions = _transposed(mask).reshape(a.shape), _transposed(fractions).reshape(a.shape)
    growth = _log_growth(fractions, a, p)
    if a.ndim == 1:
        return KellySolution(mask, fractions, float(unspent[0]), float(growth))
    return KellySolution(mask, fractions, unspent, growth)


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


def _sweep_state(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A carried state of ``_sweep`` for class-major (K, N) priors ``a``: the class order, ``a`` gathered in it and its rest sums."""
    order = np.arange(a.size).reshape(a.shape)
    a_sorted = a.ravel()[order]
    return order, a_sorted, _rest_sums(a_sorted)


def _sweep(a: np.ndarray, p: np.ndarray, fallback_labels, mask_only: bool = False, carried=None):
    """The sweep of candidate_labels on class-major (K, N) arrays it does not clamp.

    The mask and the fractions come back (K, N) too, the unspent ratios
    (N,).  The priors ``a`` must be positive.  A posterior of 0 then gives
    q = +inf, which sorts first and is admitted, and every level stays
    finite, as the lowest-q outcome has a positive posterior.  With
    ``mask_only`` the mask alone comes back.  A sample that admits nothing
    gets its ``fallback_labels`` entry marked; these are (N,) labels, or a
    function that takes the indices of those samples and returns their
    labels, so a caller can derive them for those samples alone.

    Outcomes are taken in the stable descending order of q = a / p (ties
    by ascending class).  Without ``carried`` every sample is sorted, and
    a fresh stable sort needs no check.  A caller that sweeps the same
    priors again may carry ``(order, a_sorted, rest_a)`` across calls
    (``_sweep_state`` makes one): ``order[t, j]`` is the raveled index of
    sample j's t-th outcome, each column a permutation of the sample's
    indices, ``a_sorted`` is ``a.ravel()[order]`` and ``rest_a`` its
    ``_rest_sums``.  A sample whose gathered ratios descend strictly is
    then already in the unique stable order; only the others, ties
    included, are sorted, gathered and summed again, in place, column by
    column.  Either way the result has the bits of a fresh sort and sum.
    """
    k, n = a.shape
    if carried is None:
        order = np.argsort(-(a / p), axis=0, kind="stable") * n + np.arange(n)
        a_sorted = a.ravel()[order]
        rest_a = _rest_sums(a_sorted)
    else:
        order, a_sorted, rest_a = carried
    p_sorted = p.ravel()[order]
    q_sorted = a_sorted / p_sorted
    if carried is not None:
        stale = np.flatnonzero(~np.logical_and.reduce(q_sorted[:-1] > q_sorted[1:], axis=0))
        if stale.size:
            cols = order[:, stale] = np.argsort(-(a[:, stale] / p[:, stale]), axis=0, kind="stable") * n + stale
            a_sorted[:, stale], p_sorted[:, stale] = a.ravel()[cols], p.ravel()[cols]
            rest_a[:, stale] = _rest_sums(a_sorted[:, stale])
            q_sorted[:, stale] = a_sorted[:, stale] / p_sorted[:, stale]
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


def kelly_objective_value(solution: KellySolution, prior, posterior) -> float | np.ndarray:
    """Optimal objective in coarsened-KL form, a float for one pair and (N,) for rows.

    Equals the achieved log-growth of ``solution``: candidate outcomes
    (``solution.mask``) contribute prior * ln(prior/posterior) and the
    non-candidates contribute through their pooled masses.  A KL
    divergence between the prior and posterior coarsened onto the
    candidate / non-candidate partition, it is >= 0 up to rounding: where
    every ratio prior/posterior is one value up to rounding, it can read
    down to about -4e-16, and it is not clamped, as it equals the
    log-growth.  A mask of another shape than the pair raises ValueError.
    """
    a, p = _clamped_pair(prior, posterior)
    mask = solution.mask
    if np.shape(mask) != a.shape:
        raise ValueError(f"solution mask of shape {np.shape(mask)} does not match the pair's shape {a.shape}")
    value = np.where(mask, a * (np.log(a) - np.log(p)), 0.0).sum(axis=-1)
    rest_a = np.where(mask, 0.0, a).sum(axis=-1)
    rest_p = np.where(mask, 0.0, p).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = value + np.where(rest_a > 0.0, rest_a * np.log(rest_a / rest_p), 0.0)
    return float(value) if a.ndim == 1 else value


def _max_units(grid_step: float) -> int:
    # largest m with m * grid_step < 1
    return int((1.0 - 1e-12) // grid_step)


# cells of the largest op of brute_force_oracle, (M + 1) units x totals x
# rows: sets how many totals a chunk holds and how many rows a block holds
_CHUNK_CELLS = 2**16


def brute_force_oracle(prior, posterior, grid_step: float) -> tuple[np.ndarray, float | np.ndarray]:
    """Maximize log_growth over the exhaustive grid {g >= 0, sum(g) < 1}, for one pair (K,) or (T, K) rows.

    Every grid point g = grid_step * x with integer x >= 0 and
    sum(x) * grid_step < 1 is covered.  The maximum is found exactly by
    dynamic programming over the total number m of allocated grid units:
    for a fixed m the objective is a sum of per-class tables, so the best
    split is composed class by class and the overall maximizer recovered by
    backtracking.  This evaluates the same finite search space as direct
    enumeration (against which it is tested) at a fraction of the cost.
    Returns the maximizing fractions and their values: (K,) and a float
    for one pair, (T, K) and (T,) for rows, each row with the bits of its
    one-pair call.

    With M the largest total, the rows are taken in blocks of at most
    ``_CHUNK_CELLS // (M + 1)`` (one row if M + 1 is larger), every row of
    a block at once on the innermost axis.  Totals never interact, so a
    block takes them in chunks of w consecutive totals, w chosen so a
    chunk's class tables stay within ``_CHUNK_CELLS`` cells: they are
    (top + 1, w, rows), top the chunk's largest total, and entry [i, m]
    holds the class at i units and total m (class 0's), or at top - i units
    (the later classes').  The composed prefix ``acc[j, m]`` is the best
    value of the classes so far at j <= m units in all.  A middle class is
    composed once per partial total y for every total m >= y of the chunk
    in one op, ``np.maximum.reduce(acc[:y+1] + v[top-y:], axis=0)`` over the
    prefix's share j <= y, y running down so that row y of ``acc`` is
    overwritten in place.  Entries with j > m are never read, so none is
    masked.  The last class joins each total m as ``acc[j, m]`` plus the
    class at m - j units, first maximum over j, and a scan of each row's
    per-total maxima in ascending m keeps a later total only when it is
    better by more than 1e-12.  The backtrack recomputes, for all rows of
    the block at once, the prefixes at each row's chosen total, and takes
    each middle class's first maximizing share from them.  By tracemalloc,
    a 4-class batch of 34 rows at the default step of 0.005 (M = 199)
    peaks at about 1.7 MB, one pair at about 0.9 MB, and no batch at much
    more.  One pair runs the same program as a block of one row.

    Only the grid granularity is shared with the closed form; no ordering,
    admission, or unspent-ratio logic is reused.  A prior and posterior of
    different shapes, of neither one nor two axes or with no rows, or a
    step outside (0, 0.1], raise ValueError; K > 4 raises
    GridDimensionError.
    """
    a, p = _clamped_pair(prior, posterior)
    k = a.shape[-1]
    rows_a, rows_p = a.reshape(-1, k), p.reshape(-1, k)
    n = len(rows_a)
    if n == 0:
        raise ValueError("expected at least one row")
    if k > MAX_GRID_CLASSES:
        raise GridDimensionError(f"exhaustive grid supports at most {MAX_GRID_CLASSES} classes")
    if not 0.0 < grid_step <= 0.1:
        raise ValueError("grid_step must lie in (0, 0.1]")

    h = float(grid_step)
    m_max = _max_units(h)
    alloc = np.empty((n, k), dtype=int)
    values = np.empty(n)
    for rows in np.array_split(np.arange(n), min(n, -(-n * (m_max + 1) // _CHUNK_CELLS))):
        alloc[rows], values[rows] = _grid_rows(_transposed(rows_a[rows]), _transposed(rows_p[rows]), h, m_max)
    if a.ndim == 1:
        return alloc[0] * h, float(values[0])
    return alloc * h, values


def _grid_rows(a: np.ndarray, p: np.ndarray, h: float, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid maximizers (n, K) in units, and their values (n,), of class-major (K, n) rows."""
    k, n = a.shape
    units = np.arange(m_max + 1)
    totals = 1.0 - units * h  # 1 - m*h, strictly positive by construction
    rows = np.arange(n)

    def table(c: int, x: np.ndarray, tot: np.ndarray) -> np.ndarray:
        # table[i, m, r] = a_c * ln(tot[m] + x[i]*h / p_c) of row r, made in place
        t = tot + x[:, None, None] * (h / p[c])
        np.log(t, out=t)
        t *= a[c]
        return t

    def compose(acc: np.ndarray, c: int, tot: np.ndarray, first: int) -> None:
        # acc[y, m] = max over j <= y of acc[j, m] + class c at y - j units,
        # for the totals m >= y of a chunk whose column 0 is total ``first``
        top = acc.shape[0] - 1
        v = table(c, units[top::-1], tot)
        for y in range(top, -1, -1):
            lo = max(0, y - first)
            acc[y, lo:] = np.maximum.reduce(acc[: y + 1, lo:] + v[top - y :, lo:], axis=0)

    values = np.empty((m_max + 1, n))
    splits = np.empty((m_max + 1, n), dtype=np.intp)
    width = max(1, _CHUNK_CELLS // ((m_max + 1) * n))
    for first in range(0, m_max + 1, width):
        top = min(first + width, m_max + 1) - 1
        tot = totals[first : top + 1, None]
        acc = table(0, units[: top + 1], tot)
        for c in range(1, k - 1):
            compose(acc, c, tot, first)
        last = table(k - 1, units[top::-1], tot)
        for m in range(first, top + 1):
            # final[j] = prefix at j units + the last class at m - j units
            final = acc[: m + 1, m - first] + last[top - m :, m - first]
            split = splits[m] = final.argmax(axis=0)
            values[m] = final[split, rows]
        del acc, last  # before the next chunk's tables are made

    # The objective is exactly invariant along g -> g + eps * posterior, so
    # grid maximizers form a ridge; requiring improvement beyond float noise
    # keeps the first (minimal-allocation) point of that ridge.
    tie_tol = 1e-12
    best_m = np.zeros(n, dtype=np.intp)
    best_values = np.empty(n)
    for r in range(n):
        column = values[:, r].tolist()
        best_value = column[0]
        for m, value in enumerate(column):
            if value > best_value + tie_tol:
                best_m[r], best_value = m, value
        best_values[r] = best_value

    alloc = np.empty((n, k), dtype=int)
    y = splits[best_m, rows]
    alloc[:, k - 1] = best_m - y
    if k > 2:
        # one column of totals, each row's chosen one: prefixes[c][j, 0, r]
        # is the best of classes 0..c at j units, composed as if at the
        # largest chosen total and read only for j <= best_m[r]
        top = int(best_m.max())
        tot = totals[best_m][None, :]
        prefixes = [table(0, units[: top + 1], tot)]
        for c in range(1, k - 2):
            prefixes.append(prefixes[-1].copy())
            compose(prefixes[-1], c, tot, top)
        for c in range(k - 2, 0, -1):
            v = table(c, units[top::-1], tot)[:, 0]
            shares = prefixes[c - 1][:, 0]
            for r in range(n):
                yr = int(y[r])
                split = int((shares[: yr + 1, r] + v[top - yr :, r]).argmax())
                alloc[r, c] = yr - split
                y[r] = split
    alloc[:, 0] = y
    return alloc, best_values
