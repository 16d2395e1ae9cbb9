"""The Adam parameter update.

It acts on the flat float64 parameter vector (network.NetworkParams.vector)
and is purely functional: it returns an updated copy instead of mutating.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

ADAM_EPS = 1e-8
DEFAULT_ALPHA_LR = 0.001
DEFAULT_BETA_FM = 0.90
DEFAULT_BETA_SM = 0.99


@dataclass(frozen=True)
class AdamState:
    """Exponential moment estimates plus the step counter.

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
    if not 0.0 <= beta_fm < 1.0 or not 0.0 <= beta_sm < 1.0:
        raise ValueError("moment rates must lie in [0, 1)")
    return AdamState(
        first_moment=np.zeros(n_params),
        second_moment=np.zeros(n_params),
        step=0,
        alpha_lr=alpha_lr,
        beta_fm=beta_fm,
        beta_sm=beta_sm,
    )


def adam_step(state: AdamState, params, grads) -> tuple[AdamState, np.ndarray]:
    """One Adam update with bias-corrected moments.

    delta = m_hat / (sqrt(v_hat) + 1e-8), with the epsilon added after the
    square root.  The first step has |delta| <= 1 regardless of gradient
    scale.
    """
    p = np.asarray(params, dtype=float)
    g = np.asarray(grads, dtype=float)
    if p.shape != g.shape:
        raise ValueError("params and grads shapes differ")
    i = state.step + 1
    m = state.beta_fm * state.first_moment + (1.0 - state.beta_fm) * g
    v = state.beta_sm * state.second_moment + (1.0 - state.beta_sm) * g * g
    m_hat = m / (1.0 - state.beta_fm**i)
    v_hat = v / (1.0 - state.beta_sm**i)
    delta = m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    new_state = replace(state, first_moment=m, second_moment=v, step=i)
    return new_state, p - state.alpha_lr * delta
