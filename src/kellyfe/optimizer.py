"""The Adam parameter update.

It acts on the flat float64 parameter vector (network.NetworkParams.vector)
in place: ``adam_step`` updates the moment estimates, the step counter and
the parameters it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ADAM_EPS = 1e-8
DEFAULT_ALPHA_LR = 0.001
DEFAULT_BETA_FM = 0.90
DEFAULT_BETA_SM = 0.99


@dataclass
class AdamState:
    """Exponential moment estimates plus the step counter, updated in place.

    ``step`` counts completed updates; bias correction uses the
    post-increment index, so the first update divides by 1 - beta.
    """

    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0
    alpha_lr: float = DEFAULT_ALPHA_LR
    beta_fm: float = DEFAULT_BETA_FM
    beta_sm: float = DEFAULT_BETA_SM


def init_adam(
    n_params: int,
    alpha_lr: float = DEFAULT_ALPHA_LR,
    beta_fm: float = DEFAULT_BETA_FM,
    beta_sm: float = DEFAULT_BETA_SM,
) -> AdamState:
    if not 0.0 < alpha_lr < np.inf:
        raise ValueError("alpha_lr must be finite and > 0")
    if not 0.0 <= beta_fm < 1.0 or not 0.0 <= beta_sm < 1.0:
        raise ValueError("moment rates must lie in [0, 1)")
    return AdamState(np.zeros(n_params), np.zeros(n_params), 0, alpha_lr, beta_fm, beta_sm)


def adam_step(state: AdamState, params: np.ndarray, grads) -> tuple[AdamState, np.ndarray]:
    """One Adam update with bias-corrected moments, in place; returns ``(state, params)``.

    delta = m_hat / (sqrt(v_hat) + 1e-8), with the epsilon added after the
    square root.  The first step has |delta| <= 1 regardless of gradient
    scale.  ``params`` must be a float64 array; it and ``state`` are
    updated and returned, with the bits of ``m = beta_fm * m + (1 - beta_fm)
    * g`` and so on: the same operations in the same order.
    """
    g = np.asarray(grads, dtype=float)
    if not isinstance(params, np.ndarray) or params.dtype != np.float64:
        raise TypeError("params must be a float64 array, which is updated in place")
    if params.shape != g.shape or params.shape != state.first_moment.shape:
        raise ValueError("params, grads and moment shapes differ")
    i = state.step + 1
    m, v = state.first_moment, state.second_moment
    m *= state.beta_fm
    m += (1.0 - state.beta_fm) * g
    v *= state.beta_sm
    v += (1.0 - state.beta_sm) * g * g
    params -= m / (1.0 - state.beta_fm**i) / (np.sqrt(v / (1.0 - state.beta_sm**i)) + ADAM_EPS) * state.alpha_lr
    state.step = i
    return state, params
