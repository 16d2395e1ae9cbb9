"""Jaccard distance, its prefix-difference gradient, and the convex closure."""

import itertools

import numpy as np
import pytest

from kellyfe import losses


def _jd(mispredictions, gt):
    gt = np.asarray(gt, dtype=bool)
    m = np.asarray(mispredictions, dtype=bool)
    return losses.jaccard_distance_set(m, gt, gt ^ m)


class TestJaccardDistanceSet:
    def test_agreement_is_zero(self):
        gt = np.array([1, 0, 1, 0], dtype=bool)
        assert losses.jaccard_distance_set(np.zeros(4, bool), gt, gt) == 0.0

    def test_partial_overlap(self):
        gt = np.array([1, 1, 0, 0], dtype=bool)
        pred = np.array([1, 0, 1, 0], dtype=bool)
        assert losses.jaccard_distance_set(gt ^ pred, gt, pred) == pytest.approx(2.0 / 3.0)

    def test_both_empty_convention(self):
        empty = np.zeros(3, bool)
        assert losses.jaccard_distance_set(empty, empty, empty) == 0.0


class TestLovaszGrad:
    def test_single_element(self):
        np.testing.assert_array_equal(losses.lovasz_grad([1.0]), [1.0])
        # verified against the set function: the lone error on a 1-element
        # ground truth jumps the distance from 0 to 1
        assert _jd([True], [1.0]) == 1.0

    def test_two_element_case_matches_prefix_differences(self):
        gt = np.array([1.0, 0.0])
        grad = losses.lovasz_grad(gt)
        prefix = [_jd([True, False], gt), _jd([True, True], gt)]
        np.testing.assert_allclose(grad, np.diff(prefix, prepend=0.0), atol=1e-12)

    def test_exhaustive_prefix_sums_up_to_length_six(self):
        for n in range(1, 7):
            for bits in itertools.product((0.0, 1.0), repeat=n):
                gt = np.array(bits)
                cumulative = np.cumsum(losses.lovasz_grad(gt))
                for j in range(1, n + 1):
                    m = np.zeros(n, dtype=bool)
                    m[:j] = True
                    np.testing.assert_allclose(cumulative[j - 1], _jd(m, gt), atol=1e-12)

    @pytest.mark.parametrize("kind", ["random", "all-0", "all-1", "length-1", "empty"])
    def test_bit_identical_to_prepended_diff(self, kind):
        rng = np.random.default_rng(41)
        vectors = {
            "random": [rng.integers(0, 2, rng.integers(1, 9)).astype(float) for _ in range(2000)],
            "all-0": [np.zeros(7)],
            "all-1": [np.ones(7)],
            "length-1": [np.zeros(1), np.ones(1)],
            "empty": [np.zeros(0)],
        }[kind]
        for gt in vectors:
            # the first differences as np.diff takes them, from a prepended 0
            jd = 1.0 - (gt.sum() - np.cumsum(gt)) / (gt.sum() + np.cumsum(1.0 - gt))
            expected = np.diff(jd, prepend=0.0)
            got = losses.lovasz_grad(gt)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


class TestLovaszSoftmax:
    def test_perfect_prediction_is_zero(self):
        labels = np.zeros((4, 2))
        labels[np.arange(4), [0, 1, 0, 1]] = 1.0
        ev = losses.lovasz_softmax(labels, labels)
        assert ev.value == 0.0

    def test_two_sample_value_two_ways(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        posteriors = np.array([[0.6, 0.4], [0.6, 0.4]])
        ev = losses.lovasz_softmax(posteriors, labels)
        # prefix-difference oracle, per class
        expected = 0.0
        m = np.where(labels == 1.0, 1.0 - posteriors, posteriors)
        for c in range(2):
            order = np.argsort(-m[:, c], kind="stable")
            prefix = []
            for j in range(1, 3):
                mask = np.zeros(2, dtype=bool)
                mask[order[:j]] = True
                prefix.append(_jd(mask, labels[:, c]))
            grads = np.diff(prefix, prepend=0.0)
            expected += float(m[order, c] @ grads)
        expected /= 4.0
        np.testing.assert_allclose(ev.value, expected, atol=1e-12)
        np.testing.assert_allclose(ev.value, 0.275, atol=1e-12)

    def test_vertex_agreement_small_exhaustive(self):
        for n in (1, 2, 3):
            for gt_bits in itertools.product((0.0, 1.0), repeat=n):
                labels = np.column_stack([gt_bits, 1.0 - np.array(gt_bits)])
                for pred_bits in itertools.product((0.0, 1.0), repeat=n):
                    posteriors = np.column_stack([pred_bits, 1.0 - np.array(pred_bits)])
                    value = losses.lovasz_softmax(posteriors, labels).value
                    expected = sum(
                        losses.jaccard_distance_set(
                            labels[:, c].astype(bool) ^ posteriors[:, c].astype(bool),
                            labels[:, c].astype(bool),
                            posteriors[:, c].astype(bool),
                        )
                        for c in range(2)
                    ) / (2.0 * n)
                    np.testing.assert_allclose(value, expected, atol=1e-12)

    def test_rejects_non_onehot_labels(self):
        with pytest.raises(losses.LabelsNotOneHotError):
            losses.lovasz_softmax([[0.5, 0.5]], [[0.5, 0.5]])

    def test_gradient_against_finite_differences(self):
        from kellyfe.verify import finite_difference_gradient, relative_gradient_error

        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(50):
            n, k = 6, 3
            logits = rng.standard_normal((n, k)) * 1.5
            labels = np.zeros((n, k))
            labels[np.arange(n), rng.integers(0, k, n)] = 1.0

            def value_at(flat):
                return losses.lovasz_softmax(losses.softmax(flat.reshape(n, k)), labels).value

            ev = losses.lovasz_softmax(losses.softmax(logits), labels)
            numeric = finite_difference_gradient(value_at, logits.ravel(), 1e-6)
            worst = max(worst, relative_gradient_error(ev.grad_logits.ravel(), numeric))
        assert worst <= 1e-5


class TestSubmodularityAndConvexity:
    def test_submodular_inequality_exhaustive(self):
        for n in range(1, 5):
            vectors = [np.array(b, dtype=bool) for b in itertools.product((0, 1), repeat=n)]
            for gt in vectors:
                for m1, m2 in itertools.product(vectors, repeat=2):
                    lhs = _jd(m1, gt) + _jd(m2, gt)
                    rhs = _jd(m1 | m2, gt) + _jd(m1 & m2, gt)
                    assert lhs >= rhs - 1e-12

    def test_suite_worst_violation_equals_pairwise_loop(self):
        # lovasz_suite tabulates the distance of every mask once; its worst
        # violation must have the bits of the plain loop over all mask pairs
        from kellyfe.verify import lovasz_suite

        worst = 0.0
        for n in range(1, 5):
            vectors = [np.array(b, dtype=bool) for b in itertools.product((0, 1), repeat=n)]
            for gt in vectors:
                for m1, m2 in itertools.product(vectors, repeat=2):
                    violation = _jd(m1 | m2, gt) + _jd(m1 & m2, gt) - _jd(m1, gt) - _jd(m2, gt)
                    worst = max(worst, violation)
        suite = {r.name: r for r in lovasz_suite(trials=1)}["jaccard-submodularity"]
        assert suite.worst_error.hex() == worst.hex()
        assert suite.passed

    def test_extension_midpoint_convexity(self):
        rng = np.random.default_rng(13)
        for i in range(200):
            n = 1 + i % 8
            gt = (rng.random(n) < 0.5).astype(float)
            m1, m2 = rng.random(n), rng.random(n)
            mid = losses.lovasz_extension(0.5 * (m1 + m2), gt)
            avg = 0.5 * (losses.lovasz_extension(m1, gt) + losses.lovasz_extension(m2, gt))
            assert mid <= avg + 1e-12

    def test_extension_agrees_with_set_function_on_vertices(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            gt = (rng.random(n) < 0.5).astype(float)
            m = (rng.random(n) < 0.5).astype(float)
            np.testing.assert_allclose(
                losses.lovasz_extension(m, gt), _jd(m.astype(bool), gt), atol=1e-12
            )
