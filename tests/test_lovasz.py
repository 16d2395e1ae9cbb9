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


def _reference_lovasz_suite(trials, seed):
    """The worst errors of ``verify.lovasz_suite`` as a loop of one-problem calls, one problem at a time."""
    bit_vectors = lambda n: [np.array(bits, dtype=float) for bits in itertools.product((0.0, 1.0), repeat=n)]
    worst_vertex = 0.0
    for n in range(1, 5):
        for gt_col in bit_vectors(n):
            labels = np.column_stack([gt_col, 1.0 - gt_col])
            for pred_col in bit_vectors(n):
                posteriors = np.column_stack([pred_col, 1.0 - pred_col])
                value = losses.lovasz_softmax(posteriors, labels).value
                expected = 0.0
                for c in range(2):
                    gt = labels[:, c].astype(bool)
                    pred = posteriors[:, c].astype(bool)
                    expected += losses.jaccard_distance_set(gt ^ pred, gt, pred)
                expected /= 2.0 * n
                worst_vertex = max(worst_vertex, abs(value - expected))

    worst_prefix = 0.0
    for n in range(1, 7):
        for gt in bit_vectors(n):
            prefix_jd = np.cumsum(losses.lovasz_grad(gt))
            for j in range(1, n + 1):
                m = np.zeros(n, dtype=bool)
                m[:j] = True
                direct = losses.jaccard_distance_set(m, gt.astype(bool), gt.astype(bool) ^ m)
                worst_prefix = max(worst_prefix, abs(prefix_jd[j - 1] - direct))

    worst_submod = 0.0
    for n in range(1, 5):
        sets = [m.astype(bool) for m in bit_vectors(n)]
        i, j = np.divmod(np.arange(len(sets) ** 2), len(sets))
        for gtb in sets:
            jd = np.array([losses.jaccard_distance_set(m, gtb, gtb ^ m) for m in sets])
            violation = jd[i | j] + jd[i & j] - jd[i] - jd[j]
            worst_submod = max(worst_submod, float(violation.max()))

    worst_convex = 0.0
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    for i in range(trials):
        n = 1 + i % 8
        gt = (rng.random(n) < 0.5).astype(float)
        m1 = rng.random(n)
        m2 = rng.random(n)
        mid = losses.lovasz_extension(0.5 * (m1 + m2), gt)
        avg = 0.5 * (losses.lovasz_extension(m1, gt) + losses.lovasz_extension(m2, gt))
        worst_convex = max(worst_convex, mid - avg)
    return [float(w) for w in (worst_vertex, worst_prefix, worst_submod, worst_convex)]


def _stacked_problems(rng, shape, n):
    """Random mispredictions of ``shape`` + (n,), a tenth place apart (many ties), and 0/1 ground truth.

    The first problem's ground truth is all 0 and the second's, if there is one, all 1.
    """
    m = np.round(rng.random((*shape, n)), 1)
    gt = (rng.random((*shape, n)) < 0.5).astype(float)
    flat = gt.reshape(-1, n)
    flat[:1], flat[1:2] = 0.0, 1.0
    return m, gt


class TestStackedRows:
    """Leading axes stack problems; each gets the bits of its own one-problem call."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_lovasz_grad_and_extension_equal_one_row_calls(self, n):
        rng = np.random.default_rng(n)
        for shape in [(1,), (40,), (3, 5)]:
            m, gt = _stacked_problems(rng, shape, n)
            grads, values = losses.lovasz_grad(gt), losses.lovasz_extension(m, gt)
            assert grads.shape == gt.shape and values.shape == shape
            for idx in np.ndindex(*shape):
                assert grads[idx].tobytes() == losses.lovasz_grad(gt[idx]).tobytes()
                one = losses.lovasz_extension(m[idx], gt[idx])
                assert type(one) is float and values[idx].hex() == one.hex()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_jaccard_distance_set_equals_one_row_calls(self, n):
        rng = np.random.default_rng(100 + n)
        for shape in [(1,), (40,), (3, 5)]:
            pred, gt = (_stacked_problems(rng, shape, n)[1] > 0.5 for _ in range(2))
            pred.reshape(-1, n)[:2] = False  # both masks empty, then only the ground truth
            values = losses.jaccard_distance_set(gt ^ pred, gt, pred)
            assert values.shape == shape
            for idx in np.ndindex(*shape):
                one = losses.jaccard_distance_set(gt[idx] ^ pred[idx], gt[idx], pred[idx])
                assert type(one) is float and values[idx].hex() == one.hex()

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("k", [2, 3, 20])
    def test_lovasz_softmax_equals_one_row_calls(self, k, n):
        rng = np.random.default_rng(1000 * k + n)
        for shape in [(1,), (30,), (2, 3)]:
            posteriors = np.round(rng.dirichlet(np.ones(k), (*shape, n)), 1)
            labels = np.zeros((*shape, n, k))
            np.put_along_axis(labels, rng.integers(0, k, (*shape, n, 1)), 1.0, axis=-1)
            flat_p, flat_l = posteriors.reshape(-1, n, k), labels.reshape(-1, n, k)
            # every sample of class 0 (its ground truth all 1, the others' all 0), then exact vertices
            flat_l[:1] = 0.0
            flat_l[:1, :, 0] = 1.0
            flat_p[1:2] = flat_l[1:2]
            ev = losses.lovasz_softmax(posteriors, labels)
            value_only = losses.lovasz_softmax(posteriors, labels, grad=False)
            assert ev.value.shape == shape and ev.grad_logits.shape == posteriors.shape
            assert ev.grad_logits.flags.c_contiguous and value_only.grad_logits is None
            for idx in np.ndindex(*shape):
                one = losses.lovasz_softmax(posteriors[idx], labels[idx])
                assert type(one.value) is float
                assert ev.value[idx].hex() == value_only.value[idx].hex() == one.value.hex()
                assert np.array_equal(ev.grad_logits[idx], one.grad_logits)
                assert ev.grad_logits[idx].tobytes() == one.grad_logits.tobytes()

    @pytest.mark.parametrize("seed", [0, 7919])
    @pytest.mark.parametrize("trials", [1, 3, 500])
    def test_suite_equals_a_loop_of_one_problem_calls(self, trials, seed):
        from kellyfe.verify import lovasz_suite

        results = lovasz_suite(trials=trials, seed=seed)
        assert [r.worst_error.hex() for r in results] == [w.hex() for w in _reference_lovasz_suite(trials, seed)]
        assert all(r.passed for r in results)


class TestShapeErrors:
    """Mismatched shapes raise a one-line ValueError that names them, where they once broadcast, misread or raised IndexError."""

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: losses.lovasz_extension([0.1, 0.2], [1, 0, 1]), r"\(2,\) and ground_truth \(3,\)"),
            (lambda: losses.lovasz_extension([0.1, 0.2, 0.3], [1, 0]), r"\(3,\) and ground_truth \(2,\)"),
            (lambda: losses.lovasz_extension(np.full((2, 3), 0.5), np.ones((1, 3))), r"\(2, 3\) and ground_truth \(1, 3\)"),
            (lambda: losses.jaccard_distance_set([True, False], [True], [False, True]), r"ground_truth \(1,\)"),
            (lambda: losses.jaccard_distance_set([True] * 3, [True, False], [False, True]), r"mispredictions \(3,\)"),
            (
                lambda: losses.jaccard_distance_set(np.ones((2, 3), bool), np.ones(3, bool), np.ones((2, 3), bool)),
                r"ground_truth \(3,\)",
            ),
            # the shapes as given, (..., N, K), where the message once named them transposed
            (lambda: losses.lovasz_softmax(np.full((2, 2), 0.5), np.eye(3)[[0, 1]]), r"inputs \(2, 2\) and labels \(2, 3\)"),
            (
                lambda: losses.lovasz_softmax(np.full((2, 3, 2), 0.5), np.ones((3, 3, 2))),
                r"inputs \(2, 3, 2\) and labels \(3, 3, 2\)",
            ),
        ],
    )
    def test_mismatched_shapes_raise_one_line_value_error(self, call, match):
        with pytest.raises(ValueError, match=match) as excinfo:
            call()
        assert type(excinfo.value) is ValueError and "\n" not in str(excinfo.value)
