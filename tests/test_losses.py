"""Loss values against hand-computed cases, reductions, and FD gradients."""

import argparse
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellyfe import cli, data, losses, trainer, verify
from kellyfe.kelly import (
    _sweep,
    candidate_labels,
    clamp_probability_rows,
    kelly_objective_value,
)
from kellyfe.verify import finite_difference_gradient, relative_gradient_error

PRIOR3 = [0.6, 0.3, 0.1]
POST3 = [0.2, 0.3, 0.5]
G3 = 0.6 * np.log(3.0) + 0.1 * np.log(0.2)


def _random_instance(rng, n, k, uniform_labels=False):
    logits = rng.standard_normal((n, k)) * 2.0
    posteriors = losses.softmax(logits)
    if uniform_labels:
        labels = np.full((n, k), 1.0 / k)
    else:
        labels = np.zeros((n, k))
        labels[np.arange(n), rng.integers(0, k, n)] = 1.0
    return logits, posteriors, labels


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(losses.softmax([[0.0, 0.0, 0.0]]), [[1 / 3] * 3], atol=1e-12)

    def test_ln2_case(self):
        np.testing.assert_allclose(losses.softmax([[np.log(2.0), 0.0]]), [[2 / 3, 1 / 3]], atol=1e-12)

    def test_large_logits_do_not_overflow(self):
        out = losses.softmax([[1000.0, 0.0]])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_monotone_and_normalized(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((20, 5)) * 3.0
        p = losses.softmax(z)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p > 0.0)
        np.testing.assert_array_equal(np.argsort(z, axis=1), np.argsort(p, axis=1))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            losses.softmax([[np.inf, 0.0]])

    def test_stacked_rows_equal_one_batch_calls(self):
        z = np.random.default_rng(3).standard_normal((4, 5, 6, 3)) * 5.0
        p = losses.softmax(z)
        for idx in np.ndindex(4, 5):
            assert p[idx].tobytes() == losses.softmax(z[idx]).tobytes()

    @pytest.mark.parametrize("shape", [(50, 2), (50, 3), (50, 20), (50, 64), (7,), (50, 8), (50, 9), (50, 129)])
    def test_bitwise_equal_to_row_max_form(self, shape):
        """The class-major softmax against the row-max form on (N, K) rows, to 1e-12 relative."""
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        z = rng.standard_normal(shape) * 5.0
        z.flat[::7] = 0.0  # exact ties with the row maximum
        shifted = z - z.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        expected = e / e.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(losses.softmax(z), expected, rtol=1e-12, atol=0.0)


def _loss(name, logits, labels, priors=None, mask=None, class_weights=None, gamma=2.0, grad=True):
    """The table's (N, K) evaluation of one loss."""
    return losses.LOSSES[name].evaluate(logits, labels, priors, mask, class_weights, gamma, grad)


def _mask(candidate_sets, k):
    """The (N, K) boolean mask of one collection of candidate indices per sample."""
    mask = np.zeros((len(candidate_sets), k), dtype=bool)
    for j, cand in enumerate(candidate_sets):
        mask[j, sorted(getattr(cand, "candidates", cand))] = True
    return mask


class TestCrossEntropy:
    def test_perfect_prediction_is_almost_zero(self):
        labels = np.eye(3)
        posteriors = np.vstack([clamp_probability_rows([row])[0] for row in labels])
        ev = _loss("ce", np.log(posteriors), labels)
        expected = -np.log(posteriors[0, 0]) / 3.0
        np.testing.assert_allclose(ev.value, expected, rtol=1e-6)
        assert 0.0 < ev.value < 1e-7

    def test_single_sample_value(self):
        ev = _loss("ce", np.log([[0.5, 0.5]]), [[1.0, 0.0]])
        np.testing.assert_allclose(ev.value, -0.5 * np.log(0.5), atol=1e-12)
        np.testing.assert_allclose(ev.value, 0.3466, atol=5e-5)

    def test_uniform_labels_value(self):
        rng = np.random.default_rng(1)
        logits, posteriors, labels = _random_instance(rng, 4, 3, uniform_labels=True)
        ev = _loss("ce", logits, labels)
        manual = -(labels * np.log(posteriors)).sum() / 12.0
        np.testing.assert_allclose(ev.value, manual, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            _loss("ce", [[0.5, 0.5]], [[1.0, 0.0, 0.0]])

    @pytest.mark.parametrize("name", list(losses.LOSSES))
    def test_table_rejects_stacked_inputs(self, name):
        # only the Lovasz functions take stacked problems; the table takes one (N, K) batch
        logits, labels = np.zeros((2, 3, 2)), np.tile(np.eye(2)[[0, 1, 0]], (2, 1, 1))
        with pytest.raises(ValueError, match=r"logits \(2, 3, 2\) must be 2-d"):
            _loss(name, logits, labels, np.full((2, 3, 2), 0.5), np.ones((2, 3, 2), bool))


class TestWeightedCrossEntropy:
    def test_imbalanced_counts_weighting(self):
        # class weights (100/90, 10), counted from 90 and 10 labels
        posteriors = np.full((100, 2), 0.5)
        labels = np.eye(2)[[0] * 90 + [1] * 10]
        ev = _loss("wce", np.log(posteriors), labels)
        w0, w1 = 100.0 / (90.0 + 1e-8), 100.0 / (10.0 + 1e-8)
        np.testing.assert_allclose(w0, 1.111, atol=5e-4)
        np.testing.assert_allclose(w1, 10.0, rtol=1e-8)
        expected = -(90.0 * w0 + 10.0 * w1) * np.log(0.5) / 200.0
        np.testing.assert_allclose(ev.value, expected, atol=1e-12)

    def test_equal_counts_scale_cross_entropy(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((6, 3)) * 2.0
        labels = np.eye(3)[[0, 1, 2, 2, 1, 0]]
        ev_w = _loss("wce", logits, labels)
        ev = _loss("ce", logits, labels)
        w = 6.0 / (2.0 + 1e-8)
        np.testing.assert_allclose(ev_w.value, w * ev.value, rtol=1e-12)
        np.testing.assert_allclose(ev_w.grad_logits, w * ev.grad_logits, rtol=1e-10)

    def test_unit_weights_reduce_to_cross_entropy_bitwise(self):
        rng = np.random.default_rng(3)
        logits, _, labels = _random_instance(rng, 5, 4)
        ev_w = _loss("wce", logits, labels, class_weights=np.ones(4))
        ev = _loss("ce", logits, labels)
        assert ev_w.value == ev.value
        np.testing.assert_array_equal(ev_w.grad_logits, ev.grad_logits)


class TestFocal:
    def test_gamma_zero_is_cross_entropy_bitwise(self):
        rng = np.random.default_rng(4)
        logits, _, labels = _random_instance(rng, 7, 3)
        ev_f = _loss("focal", logits, labels, gamma=0.0)
        ev = _loss("ce", logits, labels)
        assert ev_f.value == ev.value
        np.testing.assert_array_equal(ev_f.grad_logits, ev.grad_logits)

    def test_single_sample_gamma_two(self):
        ev = _loss("focal", np.log([[0.5, 0.5]]), [[1.0, 0.0]], gamma=2.0)
        np.testing.assert_allclose(ev.value, -0.5 * 0.25 * np.log(0.5), atol=1e-12)
        np.testing.assert_allclose(ev.value, 0.0866, atol=5e-5)

    def test_confident_prediction_decays_faster_than_ce(self):
        logits = np.log([[0.99, 0.01]])
        labels = np.array([[1.0, 0.0]])
        focal_value = _loss("focal", logits, labels, gamma=2.0).value
        ce_value = _loss("ce", logits, labels).value
        assert focal_value < 1e-3 * ce_value

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            _loss("focal", [[0.5, 0.5]], [[1.0, 0.0]], gamma=-1.0)

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.9])
    def test_saturated_row_has_finite_gradient(self, gamma):
        # 1 - p == 0 on the labeled class, where (1 - p)^(gamma - 1) is infinite
        logits = np.array([[40.0, 0.0, 0.0]])
        ev = _loss("focal", logits, [[1.0, 0.0, 0.0]], gamma=gamma)
        assert np.all(np.isfinite(ev.grad_logits))
        numeric = finite_difference_gradient(
            lambda flat: _loss("focal", flat.reshape(1, 3), [[1.0, 0.0, 0.0]], gamma=gamma).value, logits.ravel()
        )
        assert relative_gradient_error(ev.grad_logits.ravel(), numeric) <= 1e-5


class TestWeightedFocal:
    def test_unit_weights_equal_focal_bitwise(self):
        rng = np.random.default_rng(5)
        logits, _, labels = _random_instance(rng, 6, 3)
        ev_w = _loss("wfocal", logits, labels, class_weights=np.ones(3), gamma=2.0)
        ev = _loss("focal", logits, labels, gamma=2.0)
        assert ev_w.value == ev.value
        np.testing.assert_array_equal(ev_w.grad_logits, ev.grad_logits)

    def test_count_weights_scale_the_focal_term(self):
        # every sample has the same focal term, weighted 100/90 or 100/10 by its label's count
        logits = np.log(np.full((100, 2), 0.5))
        labels = np.eye(2)[[0] * 90 + [1] * 10]
        ev_w = _loss("wfocal", logits, labels, gamma=2.0)
        ev = _loss("focal", logits, labels, gamma=2.0)
        mean_weight = (90.0 * 100.0 / (90.0 + 1e-8) + 10.0 * 100.0 / (10.0 + 1e-8)) / 100.0
        np.testing.assert_allclose(ev_w.value, mean_weight * ev.value, rtol=1e-9)

    def test_gamma_zero_unit_weights_equal_cross_entropy(self):
        rng = np.random.default_rng(6)
        logits, _, labels = _random_instance(rng, 4, 2)
        ev_w = _loss("wfocal", logits, labels, class_weights=np.ones(2), gamma=0.0)
        ev = _loss("ce", logits, labels)
        assert ev_w.value == ev.value
        np.testing.assert_array_equal(ev_w.grad_logits, ev.grad_logits)


class TestDiceSimilarity:
    """The dice loss is 1 - the soft Dice similarity of softmax(logits)."""

    def test_perfect_match_is_one(self):
        # logits 1000 apart give exact one-hot posteriors
        labels = np.zeros((5, 3))
        labels[np.arange(5), [0, 1, 2, 0, 1]] = 1.0
        ev = _loss("dice", 1000.0 * labels, labels)
        np.testing.assert_allclose(1.0 - ev.value, 1.0, atol=1e-12)

    def test_single_sample_value(self):
        # per class: 0.5 / (1 + 0.25) and 0 / 0.25
        ev = _loss("dice", [[0.0, 0.0]], [[1.0, 0.0]])
        np.testing.assert_allclose(1.0 - ev.value, 0.4, atol=1e-12)

    def test_absent_class_convention(self):
        labels = np.zeros((4, 3))
        labels[:, 0] = 1.0
        ev = _loss("dice", 1000.0 * labels, labels)
        np.testing.assert_allclose(1.0 - ev.value, 1.0, atol=1e-12)
        assert np.all(ev.grad_logits == 0.0)


class TestEfeLoss:
    def test_matched_prior_posterior_fallback(self):
        ev = _loss("efe", np.log([[0.5, 0.5]]), [[1.0, 0.0]], [[0.5, 0.5]], _mask([{0}], 2))
        assert ev.expected_complexity == 0.0
        np.testing.assert_allclose(ev.uncertainty, -0.5 * 0.5 * np.log(0.5), atol=1e-12)
        np.testing.assert_allclose(ev.uncertainty, 0.1733, atol=5e-5)
        np.testing.assert_allclose(ev.value, ev.uncertainty + ev.expected_complexity, atol=1e-15)

    def test_complexity_equals_kelly_objective(self):
        sol = candidate_labels(PRIOR3, POST3)
        ev = _loss("efe", np.log([POST3]), [[1.0, 0.0, 0.0]], [PRIOR3], _mask([sol], 3))
        np.testing.assert_allclose(ev.expected_complexity, G3 / 3.0, atol=1e-12)
        np.testing.assert_allclose(ev.expected_complexity, 0.1661, atol=5e-5)

    def test_complexity_matches_per_sample_objective_on_batches(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, k = 5, int(rng.integers(2, 5))
            logits = rng.standard_normal((n, k))
            posteriors = losses.softmax(logits)
            priors = np.vstack([rng.dirichlet(np.ones(k)) for _ in range(n)])
            labels = np.full((n, k), 1.0 / k)
            sols = [candidate_labels(priors[j], posteriors[j], reference_label=0) for j in range(n)]
            ev = _loss("efe", logits, labels, priors, _mask(sols, k))
            total = sum(kelly_objective_value(s, priors[j], posteriors[j]) for j, s in enumerate(sols))
            np.testing.assert_allclose(ev.expected_complexity, total / (k * n), atol=1e-12)
            assert ev.expected_complexity >= 0.0

    def test_gradient_against_finite_differences(self):
        worst = 0.0
        for i in range(100):
            k = (3, 4)[i % 2]
            n = 2
            rng = np.random.default_rng(np.random.SeedSequence([99, i]))
            logits = rng.standard_normal((n, k)) * 2.0
            posteriors = losses.softmax(logits)
            priors = np.vstack([rng.dirichlet(np.ones(k)) for _ in range(n)])
            labels = np.zeros((n, k))
            labels[np.arange(n), rng.integers(0, k, n)] = 1.0
            mask = candidate_labels(priors, posteriors, reference_label=labels.argmax(axis=1)).mask

            def value_at(flat):
                return _loss("efe", flat.reshape(n, k), labels, priors, mask).value

            ev = _loss("efe", logits, labels, priors, mask)
            numeric = finite_difference_gradient(value_at, logits.ravel(), 1e-6)
            worst = max(worst, relative_gradient_error(ev.grad_logits.ravel(), numeric))
        assert worst <= 1e-5

    def test_candidate_count_mismatch(self):
        with pytest.raises(ValueError, match="candidate mask"):
            _loss("efe", [[0.5, 0.5]], [[1.0, 0.0]], [[0.5, 0.5]], _mask([{0}, {1}], 2))
        # only a boolean mask is accepted, not index sets
        with pytest.raises(ValueError, match="candidate mask"):
            _loss("efe", [[0.5, 0.5]], [[1.0, 0.0]], [[0.5, 0.5]], [{0}])
        with pytest.raises(ValueError, match="priors shape"):
            _loss("efe", [[0.5, 0.5]], [[1.0, 0.0]], [[0.5, 0.5]] * 2, _mask([{0}], 2))

    def test_rest_with_underflowed_posteriors_is_rejected(self):
        # the rest {1, 2} holds prior mass .8 and posteriors exp(-800) == 0
        with pytest.raises(ValueError, match="^row 0: the candidate set leaves prior mass on outcomes whose posteriors are all 0$"):
            _loss("efe", [[0, -800, -800]], [[1, 0, 0]], [[0.2, 0.5, 0.3]], _mask([{0}], 3))
        with pytest.raises(ValueError, match="^row 1: "):
            _loss("efe", [[0, 0, 0], [0, -800, -800]], [[1, 0, 0]] * 2, [[0.2, 0.5, 0.3]] * 2, _mask([{0}, {0}], 3))
        # a rest with one positive posterior is finite
        ev = _loss("efe", [[0, -800, -30]], [[1, 0, 0]], [[0.2, 0.5, 0.3]], _mask([{0}], 3))
        assert np.isfinite(ev.value) and np.all(np.isfinite(ev.grad_logits))


class TestDecompositions:
    def test_vfe_zero_complexity_for_identical_distributions(self):
        dec = losses.vfe_decompose([0.3, 0.7], [0.3, 0.7], [0.5, 0.5])
        np.testing.assert_allclose(dec.complexity, 0.0, atol=1e-12)

    def test_vfe_complexity_value(self):
        dec = losses.vfe_decompose([0.5, 0.5], [0.25, 0.75], [0.5, 0.5])
        expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
        np.testing.assert_allclose(dec.complexity, expected, atol=1e-9)
        np.testing.assert_allclose(dec.complexity, 0.1438, atol=5e-5)

    def test_vfe_identity_on_random_triples(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            lh = rng.uniform(0.05, 1.0, k)
            dec = losses.vfe_decompose(p, q, lh)
            lhs = dec.complexity - dec.accuracy
            rhs = dec.cross_entropy - dec.entropy
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_vfe_rejects_bad_likelihood(self):
        with pytest.raises(ValueError):
            losses.vfe_decompose([0.5, 0.5], [0.5, 0.5], [0.0, 1.0])
        with pytest.raises(ValueError):
            losses.vfe_decompose([0.5, 0.5], [0.5, 0.5], [0.5, 1.5])

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
    def test_vfe_rejects_non_finite_likelihood(self, bad):
        with pytest.raises(ValueError, match=r"likelihood entries must lie in \(0, 1\]"):
            losses.vfe_decompose([0.5, 0.5], [0.5, 0.5], [bad, 0.5])


class TestGradientStructure:
    @pytest.mark.parametrize("name", list(losses.LOSSES))
    def test_zero_row_sums(self, name):
        rng = np.random.default_rng(9)
        logits, posteriors, labels = _random_instance(rng, 8, 4)
        priors = np.vstack([rng.dirichlet(np.ones(4)) for _ in range(8)])
        entry = losses.LOSSES[name]
        mask = None
        if entry.uses_candidates:
            mask = candidate_labels(priors, posteriors, reference_label=labels.argmax(axis=1)).mask
        ev = entry.evaluate(logits, labels, priors, mask, None, 2.0)
        np.testing.assert_allclose(ev.grad_logits.sum(axis=1), 0.0, atol=1e-7)


def _transposed(x):
    """x in the other layout; None stays None."""
    return None if x is None else np.ascontiguousarray(np.transpose(x))


def _trainer_mask(logits, priors, labels):
    """The candidate mask the trainer sweeps: clamped priors, unclamped posteriors."""
    a, p = _transposed(clamp_probability_rows(priors)), _transposed(losses.softmax(logits))
    mask = _sweep(a, p, labels.argmax(axis=1), mask_only=True)
    return _transposed(mask)


def _fd_error(name, logits, labels, priors, gamma):
    entry = losses.LOSSES[name]
    mask = _trainer_mask(logits, priors, labels) if entry.uses_candidates else None
    ev = entry.evaluate(logits, labels, priors, mask, None, gamma)

    def value_at(flat):
        return entry.evaluate(flat.reshape(logits.shape), labels, priors, mask, None, gamma).value

    numeric = finite_difference_gradient(value_at, logits.ravel(), 1e-6)
    return relative_gradient_error(ev.grad_logits.ravel(), numeric)


class TestSaturatedLogits:
    @pytest.mark.parametrize("s", [15.0, 20.0, 30.0, 50.0])
    @pytest.mark.parametrize("name", ["efe", "ce"])
    def test_spread_row_matches_finite_differences(self, name, s):
        # logits [s, 0, -s], label 1, prior [.2, .5, .3]: the posterior of
        # class 2 is far below 1e-8, where a clamped loss goes flat
        logits = np.array([[s, 0.0, -s]])
        error = _fd_error(name, logits, np.array([[0.0, 1.0, 0.0]]), np.array([[0.2, 0.5, 0.3]]), 2.0)
        assert error <= 1e-5

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(list(losses.LOSSES)),
        gamma=st.sampled_from([0.0, 0.5, 2.0]),
        spread=st.floats(0.0, 50.0),
        data=st.data(),
    )
    def test_every_loss_matches_finite_differences(self, name, gamma, spread, data):
        k = data.draw(st.integers(2, 64), label="k")
        unit = data.draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k), label="unit")
        prior = data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k), label="prior")
        label = data.draw(st.integers(0, k - 1), label="label")
        labels = np.zeros((1, k))
        labels[0, label] = 1.0
        logits = spread * np.array([unit])
        priors = np.array([prior]) / sum(prior)
        assert _fd_error(name, logits, labels, priors, gamma) <= 1e-5


def _mode_inputs(rng, mode, n, k):
    """Logits, raw posteriors, labels and priors of a supervision mode,
    with fallback rows (prior equal to posterior) among them."""
    logits = rng.standard_normal((n, k)) * 3.0
    logits[::5] = 0.0
    posteriors = losses.softmax(logits)
    reference = rng.integers(0, k, n)
    if trainer.supervised(mode):
        labels = np.zeros((n, k))
        labels[np.arange(n), reference] = 1.0
    else:
        labels = np.full((n, k), 1.0 / k)
    if mode in ("grpr", "ngpr"):
        priors = np.vstack([rng.dirichlet(np.ones(k)) for _ in range(n)])
        priors[1::5] = posteriors[1::5]
    else:
        priors = np.full((n, k), 1.0 / k)
    return logits, posteriors, labels, priors, reference


def _allowed(name):
    return [m for m in trainer.MODE_NAMES if trainer.supervised(m) or not losses.LOSSES[name].needs_reference]


class TestValueOnly:
    @pytest.mark.parametrize("name", list(losses.LOSSES))
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_value_only_equals_full_value_bitwise(self, name, k):
        rng = np.random.default_rng(k)
        for mode in _allowed(name):
            logits, posteriors, labels, priors, reference = _mode_inputs(rng, mode, 40, k)
            config = trainer.TrainConfig(loss=name, mode=mode, gamma_mod=2.0)
            a = _transposed(clamp_probability_rows(priors))
            args = (config, logits, _transposed(labels), a, np.log(a), reference)
            full = trainer.batch_loss(*args)
            value_only = trainer.batch_loss(*args, grad=False)
            assert value_only.grad_logits is None and full.grad_logits is not None
            assert value_only.value.hex() == full.value.hex(), (name, mode)
            assert value_only.uncertainty == full.uncertainty
            assert value_only.expected_complexity == full.expected_complexity

            entry = losses.LOSSES[name]
            mask = None
            if entry.uses_candidates:
                fallback = reference if trainer.supervised(mode) else posteriors.argmax(axis=1)
                fractions = candidate_labels(priors, posteriors, reference_label=fallback).fractions
                assert (~fractions.any(axis=1)).sum() >= 8  # the fallback rows are there
                # the trainer sweeps its clamped priors against unclamped posteriors
                mask = _sweep(a, _transposed(posteriors), fallback, mask_only=True)
                mask = _transposed(mask)
            table_full = entry.evaluate(logits, labels, priors, mask, None, 2.0)
            table_value = entry.evaluate(logits, labels, priors, mask, None, 2.0, grad=False)
            assert table_value.grad_logits is None
            assert table_value.value.hex() == table_full.value.hex()
            # the trainer's path gives the table's bits
            assert full.value.hex() == table_full.value.hex()
            assert full.grad_logits.tobytes() == table_full.grad_logits.tobytes()
            assert full.grad_logits.flags.c_contiguous


def _reference_log_softmax(z):
    """``(ln p, p)`` of (N, K) logits with numpy's row reductions."""
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    return shifted - np.log(total), e / total


def _reference_chain(p, grad_post):
    """An (N, K) posterior-space gradient pulled back through the softmax Jacobian."""
    return p * (grad_post - (grad_post * p).sum(axis=1, keepdims=True))


def _reference_focal(logits, labels, gamma, weighted):
    """The weighted-focal family on (N, K) rows, with weights counted from the labels."""
    ln_p, p = _reference_log_softmax(logits)
    n, k = logits.shape
    scale = 1.0 / (k * n)
    counts = labels.sum(axis=0)
    w = counts.sum() / (counts + 1e-8) if weighted else 1.0
    if gamma == 0.0:
        u = w * labels if weighted else labels
        return -scale * float((u * ln_p).sum()), scale * (p * u.sum(axis=1, keepdims=True) - u)
    mod = (1.0 - p) ** gamma
    value = -scale * float((w * mod * labels * ln_p).sum())
    slope = np.power(1.0 - p, gamma - 1.0, out=np.zeros_like(p), where=1.0 - p > 0.0)
    u = w * labels * (mod - gamma * slope * p * ln_p)
    return value, scale * (p * u.sum(axis=1, keepdims=True) - u)


def _reference_efe(logits, labels, priors, mask):
    """The expected free energy on (N, K) rows, with clamped priors."""
    ln_p, p = _reference_log_softmax(logits)
    a = clamp_probability_rows(priors)
    n, k = logits.shape
    scale = 1.0 / (k * n)
    uncertainty = -scale * float((labels * p * ln_p).sum())
    rest_a = np.where(mask, 0.0, a).sum(axis=1)
    level = np.divide(rest_a, np.where(mask, 0.0, p).sum(axis=1), out=np.ones(n), where=rest_a > 0.0)
    cand_terms = np.where(mask, a * (np.log(a) - ln_p), 0.0).sum(axis=1)
    complexity = scale * float((cand_terms + rest_a * np.log(level)).sum())
    grad_unc = _reference_chain(p, -scale * labels * (ln_p + 1.0))
    grad_cmp = scale * (p * a.sum(axis=1, keepdims=True) - np.where(mask, a, p * level[:, None]))
    return uncertainty + complexity, grad_unc + grad_cmp


def _reference_dice_similarity(posteriors, labels):
    """Soft Dice similarity (2/K) * sum_c intersection_c / mass_c of (N, K) rows, and its gradient in the logits."""
    p, l = posteriors, labels
    n, k = p.shape
    num = (l * p).sum(axis=0)
    den = (l * l + p * p).sum(axis=0)
    empty = den == 0.0
    safe_den = np.where(empty, 1.0, den)
    brackets = np.where(empty, 0.5, num / safe_den)
    grad_post = (2.0 / k) * (l * safe_den - 2.0 * p * num) / safe_den**2
    grad_post[:, empty] = 0.0
    return (2.0 / k) * float(brackets.sum()), _reference_chain(p, grad_post)


def _reference_lovasz_softmax(posteriors, labels):
    """The per-class Lovasz extension of (N, K) rows, averaged by 1/(K*N), and its gradient in the logits."""
    p, l = posteriors, labels
    n, k = p.shape
    m = np.where(l == 1.0, 1.0 - p, p)
    scale = 1.0 / (k * n)
    value = 0.0
    grad_m = np.zeros_like(p)
    for c in range(k):
        order = np.argsort(-m[:, c], kind="stable")
        g = losses.lovasz_grad(l[order, c])
        value += float(m[order, c] @ g)
        grad_m[order, c] = g
    sign = np.where(l == 1.0, -1.0, 1.0)
    return scale * value, _reference_chain(p, scale * sign * grad_m)


def _reference_evaluation(name, logits, labels, priors, mask, gamma):
    """A table entry written on (N, K) rows with numpy's reductions: (value, gradient)."""
    if name == "efe":
        return _reference_efe(logits, labels, priors, mask)
    if name == "dice":
        similarity, grad = _reference_dice_similarity(_reference_log_softmax(logits)[1], labels)
        return 1.0 - similarity, -grad
    if name == "lovasz":
        return _reference_lovasz_softmax(_reference_log_softmax(logits)[1], labels)
    return _reference_focal(logits, labels, 0.0 if name in ("ce", "wce") else gamma, name.startswith("w"))


class TestLayouts:
    @pytest.mark.parametrize("n", [1, 32, 2000])
    @pytest.mark.parametrize("k", [2, 3, 20])
    @pytest.mark.parametrize("name", list(losses.LOSSES))
    def test_kernel_equals_public_function_bitwise(self, name, k, n):
        """The class-major kernel against the loss written on (N, K) rows (``_reference_evaluation``), to 1e-12 relative."""
        rng = np.random.default_rng(k * 10000 + n)
        logits, posteriors, labels = _random_instance(rng, n, k)
        priors = rng.dirichlet(np.ones(k), n)
        mask = candidate_labels(priors, posteriors, reference_label=labels.argmax(axis=1)).mask
        value, grad = _reference_evaluation(name, logits, labels, priors, mask, 2.0)
        z, l, a, m = map(_transposed, (logits, labels, clamp_probability_rows(priors), mask))
        ev = losses.LOSSES[name].kernel(*losses._log_softmax(z), l, a, np.log(a), m, None, 2.0, True)
        np.testing.assert_allclose(ev.value, value, rtol=1e-12, atol=0.0)
        assert ev.grad_logits.shape == (k, n) and ev.grad_logits.flags.c_contiguous
        # entries that cancel to near 0 are compared at the scale of the whole gradient
        np.testing.assert_allclose(_transposed(ev.grad_logits), grad, rtol=1e-12, atol=1e-12 * np.abs(grad).max())

    @pytest.mark.parametrize("n", [1, 32, 2000])
    @pytest.mark.parametrize("k", [2, 3, 20])
    def test_efe_kernel_with_held_prior_logs_keeps_its_bits(self, k, n):
        rng = np.random.default_rng([k, n, 3])
        logits, posteriors, labels = _random_instance(rng, n, k)
        priors = rng.dirichlet(np.ones(k), n)
        mask = candidate_labels(priors, posteriors, reference_label=labels.argmax(axis=1)).mask
        z, l, a, m = map(_transposed, (logits, labels, clamp_probability_rows(priors), mask))
        ln_p, p = losses._log_softmax(z)
        kernel = losses.LOSSES["efe"].kernel
        # taken once and read by every call, as the trainer holds them
        ln_a = np.log(a)
        before = ln_a.tobytes()
        for grad in (False, True):
            held = kernel(ln_p, p, l, a, ln_a, m, None, 2.0, grad)
            fresh = kernel(ln_p, p, l, a, np.log(a.copy()), m, None, 2.0, grad)
            assert held.value.hex() == fresh.value.hex()
            assert held.expected_complexity.hex() == fresh.expected_complexity.hex()
            if grad:
                assert held.grad_logits.tobytes() == fresh.grad_logits.tobytes()
        assert ln_a.tobytes() == before

    @pytest.mark.parametrize("k", [2, 3, 20])
    def test_public_lovasz_softmax_equals_its_kernel_bitwise(self, k):
        rng = np.random.default_rng(k)
        _, posteriors, labels = _random_instance(rng, 50, k)
        posteriors[::4] = labels[::4]  # exact 0/1 vertices
        value, grad = _reference_lovasz_softmax(posteriors, labels)
        ev = losses.lovasz_softmax(posteriors, labels)
        np.testing.assert_allclose(ev.value, value, rtol=1e-12, atol=0.0)
        assert ev.grad_logits.flags.c_contiguous
        np.testing.assert_allclose(ev.grad_logits, grad, rtol=1e-12, atol=1e-12 * np.abs(grad).max())


class TestLossTable:
    def test_every_surface_reads_the_table(self):
        names = set(losses.LOSSES)
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        loss_flag = next(a for a in subparsers.choices["train"]._actions if a.dest == "loss")
        assert set(loss_flag.choices) == names
        assert set(trainer.LOSS_NAMES) == names
        for name in names:
            assert trainer.TrainConfig(loss=name).loss == name
        with pytest.raises(ValueError):
            trainer.TrainConfig(loss="not-a-loss")
        properties = {r.name for r in verify.gradient_suite(trials=1)} - {"gradient-zero-row-sums"}
        assert {re.sub(r"^gradient-|-g[0-9.]+$", "", prop) for prop in properties} == names
        assert {"gradient-focal-g0", "gradient-focal-g2"} <= properties

        sets = (data.generate(3, 2, 12, [0.5, 0.25, 0.25], 3.0, seed=0),) * 2
        for name, entry in losses.LOSSES.items():
            for mode in ("ngpr", "ngnp"):
                config = trainer.TrainConfig(loss=name, mode=mode)
                if entry.needs_reference:
                    with pytest.raises(trainer.IncompatibleConfigError):
                        trainer.check_compatibility(config, *sets)
                else:
                    trainer.check_compatibility(config, *sets)
        assert not losses.LOSSES["efe"].needs_reference
