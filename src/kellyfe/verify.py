"""Brute-force and finite-difference verification suites.

Each suite replays the closed-form math against an independent oracle and
reports one PropertyResult per property: the exhaustive grid maximum versus
the candidate sweep, separation/conservation/identity checks on the sweep's
output, central finite differences against every analytic loss gradient
composed with a two-layer network, and the vertex/submodularity/convexity
properties of the Jaccard-distance extension.  The cli ``verify`` command
prints these results; the acceptance tests assert them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import losses
from .kelly import brute_force_oracle, candidate_labels, clamp_probability_rows, kelly_objective_value
from .network import LayerSpec, NetworkParams, backward, forward, init_he

PAIR_FLOOR = 0.05


@dataclass
class PropertyResult:
    name: str
    passed: bool
    worst_error: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status} {self.name}: worst error {self.worst_error:.3e} (tolerance {self.tolerance:.0e})"
        if self.detail:
            text += f" [{self.detail}]"
        return text


def finite_difference_gradient(func, x0, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (func(xp) - func(xm)) / (2.0 * h)
    return grad


def relative_gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max absolute deviation scaled by the gradient magnitude (floored at 1)."""
    scale = max(1.0, float(np.abs(analytic).max(initial=0.0)))
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def draw_probability_pair(rng: np.random.Generator, k: int, floor: float = PAIR_FLOOR):
    """A random (prior, posterior) pair with entries bounded away from 0.

    The floor keeps the objective's curvature bounded so a fixed-step grid
    search is a meaningful oracle; near the simplex boundary the grid's own
    resolution error would dominate any closed-form discrepancy.
    """
    draws = []
    for _ in range(2):
        v = rng.dirichlet(np.ones(k))
        v = np.clip(v, floor, None)
        draws.append(v / v.sum())
    return draws[0], draws[1]


# ---------------------------------------------------------------------------
# Kelly suite
# ---------------------------------------------------------------------------

def kelly_suite(trials: int = 1000, seed: int = 0, grid_step: float = 0.005) -> list[PropertyResult]:
    """Closed form vs exhaustive grid plus the optimality-condition checks.

    Every pair is drawn first, trial t with K = 2 + t % 3 from
    ``SeedSequence([seed, t])``.  Each class count then takes one
    ``brute_force_oracle``, one ``candidate_labels`` and one
    ``kelly_objective_value`` call on all of its pairs stacked as rows, and
    every property is checked on their arrays; each row has the bits of
    its own one-pair call.
    """
    gap_tol, below_tol, cons_tol, ident_tol = 1e-3, 1e-9, 1e-9, 1e-12
    worst_gap = worst_below = worst_cons = worst_ident = 0.0
    kkt_ok = True
    card_ok = True
    min_objective = np.inf
    pairs = [
        draw_probability_pair(np.random.default_rng(np.random.SeedSequence([seed, trial])), (2, 3, 4)[trial % 3])
        for trial in range(trials)
    ]
    for first in range(min(3, trials)):
        priors, posteriors = (np.array(rows) for rows in zip(*pairs[first::3]))
        k = priors.shape[1]
        _, grid_values = brute_force_oracle(priors, posteriors, grid_step)
        sol = candidate_labels(priors, posteriors)
        objective = kelly_objective_value(sol, priors, posteriors)
        worst_gap = max(worst_gap, float(np.abs(sol.log_growth - grid_values).max()))
        worst_below = max(worst_below, float((grid_values - sol.log_growth).max()))
        worst_cons = max(worst_cons, float(np.abs(sol.fractions.sum(axis=-1) + sol.unspent - 1.0).max()))
        worst_ident = max(worst_ident, float(np.abs(objective - sol.log_growth).max()))
        min_objective = min(min_objective, float(objective.min()))

        q = clamp_probability_rows(priors) / clamp_probability_rows(posteriors)
        strict = np.where(sol.mask, q, np.inf).min(axis=-1) > sol.unspent
        weak = np.where(sol.mask, -np.inf, q).max(axis=-1) <= sol.unspent
        kkt_ok = kkt_ok and bool(np.all(strict & weak))
        card_ok = card_ok and bool(np.all(sol.mask.sum(axis=-1) <= k - 1))

    return [
        PropertyResult(
            "kelly-closed-form-vs-grid", worst_gap <= gap_tol, worst_gap, gap_tol,
            f"{trials} pairs, grid step {grid_step}",
        ),
        PropertyResult(
            "kelly-never-below-grid", worst_below <= below_tol, worst_below, below_tol,
        ),
        PropertyResult(
            "kelly-kkt-separation", kkt_ok, 0.0 if kkt_ok else 1.0, 0.0,
            "strict on candidates, non-strict on the rest",
        ),
        PropertyResult("kelly-conservation", worst_cons <= cons_tol, worst_cons, cons_tol),
        PropertyResult(
            "kelly-objective-identity", worst_ident <= ident_tol, worst_ident, ident_tol,
            "coarsened-KL form equals achieved log-growth",
        ),
        PropertyResult(
            "kelly-objective-nonnegative", min_objective >= 0.0, max(0.0, -min_objective), 0.0,
        ),
        PropertyResult(
            "kelly-cardinality", card_ok, 0.0 if card_ok else 1.0, 0.0,
            "at most K-1 candidates before fallback",
        ),
    ]


# ---------------------------------------------------------------------------
# gradient suite
# ---------------------------------------------------------------------------

# (property name, loss, gamma_mod); focal is also checked at gamma 0, where
# it must reduce to cross entropy
_GAMMAS = {"focal": (0.0, 2.0)}
GRADIENT_LOSSES = tuple(
    (f"{name}-g{gamma:g}" if name in _GAMMAS else name, name, gamma)
    for name in losses.LOSSES
    for gamma in _GAMMAS.get(name, (2.0,))
)


def _gradient_instance(rng: np.random.Generator, k: int, n: int, h: float):
    """A two-layer network and a batch whose PReLU kinks lie out of reach of ``h``.

    Moving one first-layer weight by h moves a pre-activation z by at most
    h * max|x|, and one bias by h, so no single parameter step of size h
    moves z by more than h * max(1, max|x|).  The features are redrawn from
    ``rng`` while any |z| <= 2 * h * max(1, max|x|), so central differences
    never straddle the kink, where the gradient is one-sided.  An instance
    with no such z takes the same draws as without the rule.
    """
    d, hidden = 3, 4
    specs = (
        LayerSpec(d, hidden, activation="prelu"),
        LayerSpec(hidden, k, activation="linear"),
    )
    params = init_he(specs, seed=int(rng.integers(2**31)))
    first = params.layers[0]
    while True:
        features = rng.standard_normal((n, d))
        reach = 2.0 * h * max(1.0, float(np.abs(features).max()))
        if np.abs(features @ first.weights.T + first.biases).min() > reach:
            break
    labels = np.zeros((n, k))
    labels[np.arange(n), rng.integers(0, k, n)] = 1.0
    priors = np.vstack([rng.dirichlet(np.ones(k)) for _ in range(n)])
    return specs, params, features, labels, priors


def gradient_suite(trials: int = 100, seed: int = 0, h: float = 1e-6, tol: float = 1e-5) -> list[PropertyResult]:
    """Central finite differences vs every analytic loss gradient.

    Each instance composes the loss with a two-layer network and perturbs
    the parameter vector.  Candidate sets for the expected-free-energy
    loss are frozen at the unperturbed posteriors, matching the loss's
    stop-gradient semantics.  No first-layer pre-activation lies within
    reach of a step of ``h`` (see ``_gradient_instance``), so the
    differences never cross a PReLU kink.  Also tracks the softmax
    null-direction property (gradient rows sum to zero).
    """
    rowsum_tol = 1e-7
    worst = {prop: 0.0 for prop, _, _ in GRADIENT_LOSSES}
    worst_rowsum = 0.0
    for i in range(trials):
        k = (2, 3, 4)[i % 3]
        n = (1, 2, 8)[(i // 3) % 3]
        rng = np.random.default_rng(np.random.SeedSequence([seed, 77, i]))
        specs, params, features, labels, priors = _gradient_instance(rng, k, n, h)

        logits0, _ = forward(params, features, training=False)
        post0 = losses.softmax(logits0)
        mask = candidate_labels(priors, post0, reference_label=labels.argmax(axis=1)).mask

        for prop, name, gamma in GRADIENT_LOSSES:
            evaluate = losses.LOSSES[name].evaluate

            def value_at(theta, evaluate=evaluate, gamma=gamma):
                p = NetworkParams(specs, theta)
                logits, _ = forward(p, features, training=False)
                return evaluate(logits, labels, priors, mask, None, gamma, grad=False).value

            logits, cache = forward(params, features, training=True)
            ev = evaluate(logits, labels, priors, mask, None, gamma)
            worst_rowsum = max(worst_rowsum, float(np.abs(ev.grad_logits.sum(axis=1)).max()))
            analytic = backward(params, cache, ev.grad_logits)
            numeric = finite_difference_gradient(value_at, params.vector, h)
            worst[prop] = max(worst[prop], relative_gradient_error(analytic, numeric))

    results = [
        PropertyResult(
            f"gradient-{prop}", worst[prop] <= tol, worst[prop], tol,
            f"{trials} instances, h={h:g}",
        )
        for prop in worst
    ]
    results.append(
        PropertyResult("gradient-zero-row-sums", worst_rowsum <= rowsum_tol, worst_rowsum, rowsum_tol)
    )
    return results


# ---------------------------------------------------------------------------
# Lovasz suite
# ---------------------------------------------------------------------------

def _bit_vectors(n: int) -> np.ndarray:
    """Every 0/1 vector of length n, one per row, in the order of ``itertools.product``."""
    return np.array(list(itertools.product((0.0, 1.0), repeat=n)))


def lovasz_suite(trials: int = 500, seed: int = 0) -> list[PropertyResult]:
    """Vertex agreement, prefix consistency, submodularity, and convexity.

    Each property makes one call of the Lovasz functions per problem size,
    on all of that size's problems stacked on a leading axis; every problem
    gets the bits of its own call.  The convexity pairs are all drawn
    first, trial t of size 1 + t % 8 from ``SeedSequence([seed, 101])``, in
    trial order.
    """
    tol = 1e-12

    worst_vertex = 0.0
    for n in range(1, 5):
        # every (ground truth, prediction) pair of K=2 vertices, one problem each
        bits = _bit_vectors(n)
        gt_col = np.repeat(bits, len(bits), axis=0)
        pred_col = np.tile(bits, (len(bits), 1))
        labels = np.stack([gt_col, 1.0 - gt_col], axis=-1)
        posteriors = np.stack([pred_col, 1.0 - pred_col], axis=-1)
        value = losses.lovasz_softmax(posteriors, labels, grad=False).value
        expected = 0.0
        for c in range(2):
            gt = labels[..., c].astype(bool)
            pred = posteriors[..., c].astype(bool)
            expected = expected + losses.jaccard_distance_set(gt ^ pred, gt, pred)
        expected = expected / (2.0 * n)
        worst_vertex = max(worst_vertex, float(np.abs(value - expected).max()))

    worst_prefix = 0.0
    for n in range(1, 7):
        gt = _bit_vectors(n)
        prefix_jd = np.cumsum(losses.lovasz_grad(gt), axis=-1)
        # direct[g, j - 1] is the distance of ground truth g when its first j samples are wrong
        shape = (len(gt), n, n)
        m = np.broadcast_to(np.tri(n, dtype=bool), shape)
        gtb = np.broadcast_to(gt.astype(bool)[:, None, :], shape)
        direct = losses.jaccard_distance_set(m, gtb, gtb ^ m)
        worst_prefix = max(worst_prefix, float(np.abs(prefix_jd - direct).max()))

    # Jaccard distance of every mask, indexed by the mask's bits, so that
    # the union and intersection of two masks index by | and &
    worst_submod = 0.0
    for n in range(1, 5):
        sets = _bit_vectors(n).astype(bool)
        i, j = np.divmod(np.arange(len(sets) ** 2), len(sets))
        shape = (len(sets), len(sets), n)
        m = np.broadcast_to(sets, shape)
        gtb = np.broadcast_to(sets[:, None, :], shape)
        jd = losses.jaccard_distance_set(m, gtb, gtb ^ m)
        violation = jd[:, i | j] + jd[:, i & j] - jd[:, i] - jd[:, j]
        worst_submod = max(worst_submod, float(violation.max()))

    worst_convex = 0.0
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    # draws[n][:, t]: the ground truth and the two error vectors of the t-th pair of n samples
    draws = {n: np.empty((3, (trials - n) // 8 + 1, n)) for n in range(1, min(trials, 8) + 1)}
    for i in range(trials):
        gt, m1, m2 = draws[1 + i % 8][:, i // 8]
        gt[:] = rng.random(gt.size) < 0.5
        rng.random(out=m1)
        rng.random(out=m2)
    for gt, m1, m2 in draws.values():
        mid = losses.lovasz_extension(0.5 * (m1 + m2), gt)
        avg = 0.5 * (losses.lovasz_extension(m1, gt) + losses.lovasz_extension(m2, gt))
        worst_convex = max(worst_convex, float((mid - avg).max()))

    return [
        PropertyResult(
            "lovasz-vertex-agreement", worst_vertex <= tol, worst_vertex, tol,
            "exhaustive, N<=4, K=2",
        ),
        PropertyResult(
            "lovasz-grad-prefix-sums", worst_prefix <= tol, worst_prefix, tol,
            "exhaustive, N<=6",
        ),
        PropertyResult(
            "jaccard-submodularity", worst_submod <= tol, worst_submod, tol,
            "exhaustive set pairs, N<=4",
        ),
        PropertyResult(
            "lovasz-extension-convexity", worst_convex <= tol, worst_convex, tol,
            f"{trials} random midpoint pairs, N<=8",
        ),
    ]


SUITES = {"kelly": kelly_suite, "gradients": gradient_suite, "lovasz": lovasz_suite}
