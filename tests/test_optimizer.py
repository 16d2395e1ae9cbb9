"""The Adam update rule against hand evaluation."""

import numpy as np
import pytest

from kellyfe.optimizer import AdamState, adam_step, init_adam


class TestAdamStep:
    def test_first_step_hand_evaluation(self):
        state = init_adam(1)
        new_state, params = adam_step(state, np.array([1.0]), np.array([1.0]))
        # m_hat = 0.1/0.1 = 1, v_hat = 0.01/0.01 = 1, delta ~ 1
        np.testing.assert_allclose(new_state.first_moment, [0.1], atol=1e-15)
        np.testing.assert_allclose(new_state.second_moment, [0.01], atol=1e-15)
        assert new_state.step == 1
        np.testing.assert_allclose(params, [1.0 - 0.001 / (1.0 + 1e-8)], atol=1e-15)

    def test_first_step_scale_invariance(self):
        for scale in (1e-4, 1e-2, 1.0, 1e2, 1e4):
            state = init_adam(1)
            _, params = adam_step(state, np.array([0.0]), np.array([scale]))
            delta = -params[0] / 0.001
            assert abs(delta) <= 1.0 + 1e-6
            np.testing.assert_allclose(delta, 1.0, rtol=1e-3)

    def test_zero_gradients_never_move_params(self):
        state = init_adam(3)
        params = np.array([1.0, 2.0, 3.0])
        for _ in range(10):
            state, params = adam_step(state, params, np.zeros(3))
        np.testing.assert_array_equal(params, [1.0, 2.0, 3.0])

    def test_constant_gradient_bias_correction(self):
        # with constant g, the bias-corrected first moment equals g exactly
        g = np.array([0.37, -2.5])
        state = init_adam(2)
        params = np.zeros(2)
        for _ in range(50):
            state, params = adam_step(state, params, g)
            m_hat = state.first_moment / (1.0 - state.beta_fm**state.step)
            np.testing.assert_allclose(m_hat, g, atol=1e-12)

    def test_defaults_match_fixed_values(self):
        state = init_adam(4)
        assert state.alpha_lr == 0.001
        assert state.beta_fm == 0.90
        assert state.beta_sm == 0.99
        assert state.step == 0
        np.testing.assert_array_equal(state.first_moment, np.zeros(4))
        np.testing.assert_array_equal(state.second_moment, np.zeros(4))

    def test_epsilon_sits_outside_the_square_root(self):
        state = AdamState(
            first_moment=np.array([0.1]),
            second_moment=np.array([0.01]),
            step=1,
        )
        _, params = adam_step(state, np.array([0.0]), np.array([0.5]))
        m = 0.9 * 0.1 + 0.1 * 0.5
        v = 0.99 * 0.01 + 0.01 * 0.25
        m_hat = m / (1.0 - 0.9**2)
        v_hat = v / (1.0 - 0.99**2)
        expected = -0.001 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(params, [expected], atol=1e-15)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            init_adam(1, beta_fm=1.0)

    @pytest.mark.parametrize("alpha_lr", [float("nan"), 0.0, -1e-3, float("inf")], ids=["nan", "zero", "negative", "inf"])
    def test_invalid_learning_rate_rejected(self, alpha_lr):
        with pytest.raises(ValueError, match=r"^alpha_lr must be finite and > 0$"):
            init_adam(1, alpha_lr=alpha_lr)

    def test_in_place_update_equals_the_written_formula_bitwise(self):
        rng = np.random.default_rng(11)
        state = init_adam(40, alpha_lr=0.003, beta_fm=0.8, beta_sm=0.95)
        params = rng.standard_normal(40)
        m, v, theta = np.zeros(40), np.zeros(40), params.copy()
        for i in range(1, 51):
            g = rng.standard_normal(40) * 10.0 ** rng.integers(-6, 4)
            m = 0.8 * m + (1.0 - 0.8) * g
            v = 0.95 * v + (1.0 - 0.95) * g * g
            m_hat = m / (1.0 - 0.8**i)
            v_hat = v / (1.0 - 0.95**i)
            theta = theta - 0.003 * (m_hat / (np.sqrt(v_hat) + 1e-8))
            same_state, same_params = adam_step(state, params, g)
            assert same_state is state and same_params is params
            assert state.step == i
            assert params.tobytes() == theta.tobytes()
            assert state.first_moment.tobytes() == m.tobytes()
            assert state.second_moment.tobytes() == v.tobytes()

    def test_params_must_be_a_float_array(self):
        with pytest.raises(TypeError, match="in place"):
            adam_step(init_adam(2), [0.0, 1.0], np.zeros(2))
        with pytest.raises(ValueError, match="shapes differ"):
            adam_step(init_adam(2), np.zeros(3), np.zeros(3))
