"""Closed-form betting solver vs hand traces and the exhaustive grid."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from kellyfe import kelly
from kellyfe.kelly import (
    GridDimensionError,
    InfeasibleFractionsError,
    KellySolution,
    MissingReferenceLabelError,
    PROB_CLAMP,
    _max_units,
    _rest_sums,
    _sweep,
    _sweep_state,
    _transposed,
    brute_force_oracle,
    candidate_labels,
    clamp_probability_rows,
    kelly_objective_value,
    log_growth,
)
from kellyfe.losses import vfe_decompose
from kellyfe.verify import PAIR_FLOOR, PropertyResult, draw_probability_pair, kelly_suite

PRIOR3 = [0.6, 0.3, 0.1]
POST3 = [0.2, 0.3, 0.5]
G3 = 0.6 * np.log(3.0) + 0.1 * np.log(0.2)  # 0.49822...


def reference_candidate_labels(prior, posterior, reference_label=None) -> KellySolution:
    """The sweep as a plain loop, one admission at a time: the reference
    that the batched sweep in the library is checked against.
    """
    a = clamp_probability_rows([prior])[0]
    p = clamp_probability_rows([posterior])[0]
    if a.shape != p.shape:
        raise ValueError("prior and posterior differ in length")

    q = a / p
    order = np.argsort(-q, kind="stable")
    remaining = np.ones(a.size, dtype=bool)
    admitted: list[int] = []
    s = 1.0
    for idx in order:
        if q[idx] > s:
            admitted.append(int(idx))
            remaining[idx] = False
            s = a[remaining].sum() / p[remaining].sum()
        else:
            break

    fractions = np.zeros_like(a)
    mask = np.zeros(a.size, dtype=bool)
    if admitted:
        cand = np.array(admitted)
        fractions[cand] = a[cand] - p[cand] * s
        mask[cand] = True
    elif reference_label is not None:
        mask[int(reference_label)] = True
    else:
        raise MissingReferenceLabelError(
            "empty candidate set and no reference label supplied"
        )
    return KellySolution(
        mask=mask,
        fractions=fractions,
        unspent=float(s),
        log_growth=log_growth(fractions, a, p),
    )


def _combine_full(left: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best split of y units between a combined prefix and one more class.

    Returns (best[y], arg[y]) where best[y] = max_j left[j] + values[y - j]
    for y = 0..n-1 (first j on ties), down the columns of a fresh
    anti-diagonal table.
    """
    n = left.size
    if n == 1:
        return left + values, np.zeros(1, dtype=np.intp)
    padded = np.concatenate([np.full(n - 1, -np.inf), values])
    windows = sliding_window_view(padded, n)[::-1]  # windows[j, y] = values[y - j]
    table = left[:, None] + windows
    arg = table.argmax(axis=0)
    return table[arg, np.arange(n)], arg


def reference_oracle(prior, posterior, grid_step: float) -> tuple[np.ndarray, float]:
    """The grid DP as one column-major combine per total and class: the
    reference that ``brute_force_oracle``'s grid DP must match bit for
    bit.  Returns (grid units, value).
    """
    a = clamp_probability_rows([prior])[0]
    p = clamp_probability_rows([posterior])[0]
    k = a.size
    h = float(grid_step)
    m_max = _max_units(h)
    units = np.arange(m_max + 1)
    totals = 1.0 - units * h
    tables = [a[c] * np.log(totals[:, None] + units[None, :] * (h / p[c])) for c in range(k)]
    best_value, best_units = -np.inf, None
    for m in range(m_max + 1):
        rows = [t[m, : m + 1] for t in tables]
        acc = rows[0]
        args = []
        for c in range(1, k - 1):
            acc, arg = _combine_full(acc, rows[c])
            args.append(arg)
        final = acc + rows[k - 1][::-1]
        j = int(final.argmax())
        value = float(final[j])
        if value > best_value + 1e-12:
            best_value = value
            alloc = np.zeros(k, dtype=int)
            alloc[k - 1] = m - j
            y = j
            for c in range(k - 2, 0, -1):
                split = int(args[c - 1][y])
                alloc[c] = y - split
                y = split
            alloc[0] = y
            best_units = alloc
    return best_units, best_value


class TestClampProbabilities:
    def test_preserves_interior_vectors(self):
        p = clamp_probability_rows([[0.2, 0.3, 0.5]])[0]
        np.testing.assert_allclose(p, [0.2, 0.3, 0.5], atol=1e-12)
        assert abs(p.sum() - 1.0) < 1e-9

    def test_pulls_vertices_into_open_simplex(self):
        p = clamp_probability_rows([[1.0, 0.0, 0.0]])[0]
        assert np.all(p > 0.0) and np.all(p < 1.0)
        assert abs(p.sum() - 1.0) < 1e-9

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            clamp_probability_rows([[0.5]])
        with pytest.raises(ValueError):
            clamp_probability_rows([[np.nan, 0.5]])

    @pytest.mark.parametrize("k", [2, 3, 7, 8, 9, 20, 129])
    def test_bitwise_equal_to_numpy_row_sum_form(self, k):
        rng = np.random.default_rng(k)
        rows = rng.dirichlet(np.ones(k), 50)
        rows[::5, 0] = 0.0  # rows with an entry pulled up to the floor
        clipped = np.clip(rows, PROB_CLAMP, 1.0 - PROB_CLAMP)
        expected = clipped / clipped.sum(axis=1, keepdims=True)
        assert clamp_probability_rows(rows).tobytes() == expected.tobytes()


class TestLogGrowth:
    def test_empty_bet_is_zero(self):
        assert log_growth([0.0, 0.0], [0.7, 0.3], [0.4, 0.6]) == 0.0

    def test_two_outcome_value(self):
        value = log_growth([0.8, 0.0], [0.9, 0.1], [0.5, 0.5])
        expected = 0.9 * np.log(1.8) + 0.1 * np.log(0.2)
        np.testing.assert_allclose(value, expected, atol=1e-12)
        np.testing.assert_allclose(value, 0.3681, atol=5e-5)

    def test_two_outcome_value_is_grid_maximum(self):
        # confirm (0.8, 0) is the constrained maximum by grid search
        best = max(
            log_growth([g0 * 0.001, g1 * 0.001], [0.9, 0.1], [0.5, 0.5])
            for g0 in range(1000)
            for g1 in range(0, 1000 - g0, 25)
        )
        value = log_growth([0.8, 0.0], [0.9, 0.1], [0.5, 0.5])
        assert value >= best - 1e-12

    def test_three_outcome_value(self):
        value = log_growth([0.56, 0.24, 0.0], PRIOR3, POST3)
        np.testing.assert_allclose(value, G3, atol=1e-12)
        np.testing.assert_allclose(value, 0.4982, atol=5e-5)

    def test_infeasible_inputs(self):
        with pytest.raises(InfeasibleFractionsError):
            log_growth([0.6, 0.5], [0.5, 0.5], [0.5, 0.5])  # sum >= 1
        with pytest.raises(InfeasibleFractionsError):
            log_growth([-0.1, 0.0], [0.5, 0.5], [0.5, 0.5])

    @pytest.mark.parametrize(
        "fractions, prior, posterior, message",
        [
            ([0.1, 0.1], [0.5, 0.5], [0.2, 0.3, 0.5], "^priors and posteriors differ in shape$"),
            ([0.1, 0.1, 0.1], [0.2, 0.3, 0.5], [0.5, 0.5], "^priors and posteriors differ in shape$"),
            ([0.1, 0.1], [0.2, 0.3, 0.5], [0.2, 0.3, 0.5], "^fractions and probabilities differ in length$"),
            ([[0.1, 0.1]], [[0.5, 0.5]], [[0.4, 0.6]], "^log_growth takes one \\(K,\\) pair, not \\(1, 2\\) rows$"),
        ],
        ids=["posterior-longer", "prior-longer", "fractions-shorter", "rows"],
    )
    def test_mismatched_shapes_raise_one_line_value_error(self, fractions, prior, posterior, message):
        with pytest.raises(ValueError, match=message):
            log_growth(fractions, prior, posterior)


class TestCandidateLabels:
    def test_matched_beliefs_fall_back_to_reference(self):
        sol = candidate_labels([1 / 3] * 3, [1 / 3] * 3, reference_label=2)
        assert sol.candidates == {2}
        np.testing.assert_array_equal(sol.fractions, np.zeros(3))
        assert sol.unspent == 1.0
        assert sol.log_growth == 0.0

    @pytest.mark.parametrize(
        "batch, label",
        [(False, -1), (False, 1.7), (False, 3), (True, [0, 1]), (True, 0), (False, [0])],
        ids=["negative", "fractional", "past-k", "wrong-length", "int-for-rows", "list-for-one-pair"],
    )
    def test_malformed_fallback_labels_rejected(self, batch, label):
        prior = [0.5, 0.3, 0.2]
        with pytest.raises(ValueError, match="fallback labels must be integers in 0..2"):
            if batch:
                candidate_labels([prior] * 3, [prior] * 3, reference_label=label)
            else:
                candidate_labels(prior, prior, reference_label=label)

    def test_matched_beliefs_without_reference_raise(self):
        with pytest.raises(MissingReferenceLabelError):
            candidate_labels([0.25] * 4, [0.25] * 4)

    def test_three_outcome_hand_trace(self):
        # q = (3.0, 1.0, 0.2); s walks 1 -> 0.5 -> 0.2
        sol = candidate_labels(PRIOR3, POST3)
        assert sol.candidates == {0, 1}
        np.testing.assert_allclose(sol.fractions, [0.56, 0.24, 0.0], atol=1e-12)
        np.testing.assert_allclose(sol.unspent, 0.2, atol=1e-12)
        np.testing.assert_allclose(sol.log_growth, G3, atol=1e-12)

    def test_two_outcome_hand_trace(self):
        # q = (1.8, 0.2); after admitting outcome 0, s = 0.2 and 0.2 is not > 0.2
        sol = candidate_labels([0.9, 0.1], [0.5, 0.5])
        assert sol.candidates == {0}
        np.testing.assert_allclose(sol.fractions, [0.8, 0.0], atol=1e-12)
        np.testing.assert_allclose(sol.unspent, 0.2, atol=1e-12)

    def test_conservation_and_kkt_on_random_pairs(self):
        for trial in range(200):
            k = (2, 3, 4)[trial % 3]
            rng = np.random.default_rng(np.random.SeedSequence([11, trial]))
            prior, posterior = draw_probability_pair(rng, k)
            sol = candidate_labels(prior, posterior)
            assert abs(sol.fractions.sum() + sol.unspent - 1.0) <= 1e-9
            assert 1 <= len(sol.candidates) <= k - 1
            a, p = clamp_probability_rows([prior])[0], clamp_probability_rows([posterior])[0]
            q = a / p
            cand = sorted(sol.candidates)
            rest = sorted(set(range(k)) - sol.candidates)
            assert q[cand].min() > sol.unspent
            assert q[rest].max() <= sol.unspent
            assert np.all(sol.fractions[cand] > 0.0)
            assert np.all(sol.fractions[rest] == 0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            prior, posterior = draw_probability_pair(rng, k)
            perm = rng.permutation(k)
            sol = candidate_labels(prior, posterior)
            sol_p = candidate_labels(np.asarray(prior)[perm], np.asarray(posterior)[perm])
            inverse = np.argsort(perm)
            assert sol_p.candidates == {int(np.where(perm == c)[0][0]) for c in sol.candidates}
            np.testing.assert_allclose(sol_p.fractions, sol.fractions[perm], atol=1e-12)

    def test_empty_only_when_prior_equals_posterior(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            prior, posterior = draw_probability_pair(rng, k)
            # distinct vectors always admit something
            sol = candidate_labels(prior, posterior)
            assert len(sol.candidates) >= 1
            a = clamp_probability_rows([prior])[0]
            p = clamp_probability_rows([posterior])[0]
            assert (a / p).max() > 1.0


class TestOneClamp:
    """candidate_labels clamps its pair once, for the sweep and the log-growth alike."""

    @staticmethod
    def batch_composition(prior, posterior, reference_label=None) -> KellySolution:
        # the sweep of a batch of one row, then log_growth clamping the pair again
        fallback = None if reference_label is None else [reference_label]
        rows = candidate_labels([prior], [posterior], fallback)
        return KellySolution(
            mask=rows.mask[0],
            fractions=rows.fractions[0],
            unspent=float(rows.unspent[0]),
            log_growth=log_growth(rows.fractions[0], prior, posterior),
        )

    def test_one_clamp_call(self, monkeypatch):
        calls = []

        def counting(rows):
            calls.append(np.shape(rows))
            return clamp_probability_rows(rows)

        monkeypatch.setattr(kelly, "clamp_probability_rows", counting)
        candidate_labels(PRIOR3, POST3)
        candidate_labels([0.5, 0.5], [0.5, 0.5], reference_label=1)
        assert calls == [(2, 3), (2, 2)]

    def test_bits_of_the_batch_composition(self):
        rng = np.random.default_rng(47)
        pairs = [(*draw_probability_pair(rng, k), 0) for k in (2, 3, 4, 8, 20) for _ in range(40)]
        for k in (3, 4):
            pairs += [(a, p, k - 1) for a, p in zip(*_tied_floor_rows(rng, k, 40))]
            uniform = np.full(k, 1.0 / k)
            pairs.append((uniform, uniform, k - 1))
        pairs.append(([0.3, 0.3, 0.4], [0.3, 0.3, 0.4], None))
        for prior, posterior, label in pairs:
            try:
                expected = self.batch_composition(prior, posterior, label)
            except MissingReferenceLabelError:
                with pytest.raises(MissingReferenceLabelError):
                    candidate_labels(prior, posterior, label)
                continue
            sol = candidate_labels(prior, posterior, label)
            assert sol.candidates == expected.candidates
            assert sol.fractions.tobytes() == expected.fractions.tobytes()
            assert np.float64(sol.unspent).tobytes() == np.float64(expected.unspent).tobytes()
            assert np.float64(sol.log_growth).tobytes() == np.float64(expected.log_growth).tobytes()

    @pytest.mark.parametrize(
        "prior, posterior, message",
        [
            ([0.5, 0.5], [0.2, 0.3, 0.5], "^priors and posteriors differ in shape$"),
            ([0.5, 0.5, 0.0], [0.5, 0.5], "^priors and posteriors differ in shape$"),
            ([1.0], [1.0], "^expected an \\(N, K\\) matrix with K >= 2$"),
            ([[[0.5, 0.5]]], [[[0.5, 0.5]]], "^expected an \\(N, K\\) matrix with K >= 2$"),
            ([np.nan, 1.0], [0.5, 0.5], "^probability rows have non-finite entries$"),
            ([0.5, 0.5], [0.5, np.inf], "^probability rows have non-finite entries$"),
        ],
    )
    def test_error_messages_kept(self, prior, posterior, message):
        for solve in (candidate_labels, self.batch_composition):
            with pytest.raises(ValueError, match=message):
                solve(prior, posterior, 0)


class TestKellyObjectiveValue:
    def test_three_outcome_value(self):
        sol = candidate_labels(PRIOR3, POST3)
        value = kelly_objective_value(sol, PRIOR3, POST3)
        np.testing.assert_allclose(value, G3, atol=1e-12)

    def test_zero_at_matched_beliefs(self):
        sol = candidate_labels([0.4, 0.6], [0.4, 0.6], reference_label=1)
        assert kelly_objective_value(sol, [0.4, 0.6], [0.4, 0.6]) == 0.0

    def test_identity_and_nonnegativity_on_random_pairs(self):
        for trial in range(1000):
            k = (2, 3, 4)[trial % 3]
            rng = np.random.default_rng(np.random.SeedSequence([23, trial]))
            prior, posterior = draw_probability_pair(rng, k)
            sol = candidate_labels(prior, posterior)
            value = kelly_objective_value(sol, prior, posterior)
            assert value >= 0.0
            assert abs(value - sol.log_growth) <= 1e-12

    def test_rounding_below_zero_is_bounded(self):
        """Not clamped at 0 (it equals the log-growth): on tied rows it rounds
        below 0 by a few ulps of 1, never below -1e-15."""
        values = []
        for seed in range(300):
            for k in (3, 5, 8, 9, 20):
                rng = np.random.default_rng([seed, k])
                priors, posteriors, _ = _tied_pairs(rng, k, 40)
                rows = candidate_labels(priors, posteriors, reference_label=rng.integers(0, k, 40))
                values.append(kelly_objective_value(rows, priors, posteriors))
        values = np.concatenate(values)
        assert -1e-15 <= values.min() < 0.0

    @pytest.mark.parametrize(
        "solution_pair, pair",
        [
            ((PRIOR3, POST3), ([0.6, 0.4], [0.3, 0.7])),
            (([0.6, 0.4], [0.3, 0.7]), (PRIOR3, POST3)),
            (([PRIOR3] * 2, [POST3] * 2), ([PRIOR3] * 3, [POST3] * 3)),
            (([PRIOR3], [POST3]), (PRIOR3, POST3)),
        ],
        ids=["three-class-solution", "two-class-solution", "other-row-count", "rows-solution-one-pair"],
    )
    def test_mask_of_another_shape_raises_one_line_value_error(self, solution_pair, pair):
        # the first case returned 0.0204, reading only the candidate indices
        solution = candidate_labels(*solution_pair)
        with pytest.raises(ValueError, match="^solution mask of shape .* does not match the pair's shape .*$") as info:
            kelly_objective_value(solution, *pair)
        assert "\n" not in str(info.value)


class TestBruteForceOracle:
    def test_two_outcome_maximizer(self):
        fractions, value = brute_force_oracle([0.9, 0.1], [0.5, 0.5], 0.001)
        np.testing.assert_allclose(fractions, [0.8, 0.0], atol=0.002)
        np.testing.assert_allclose(value, 0.9 * np.log(1.8) + 0.1 * np.log(0.2), atol=1e-6)

    def test_matched_beliefs_have_no_edge(self):
        for k in (2, 3, 4):
            uniform = np.full(k, 1.0 / k)
            fractions, value = brute_force_oracle(uniform, uniform, 0.01)
            assert abs(value) <= 1e-4
            np.testing.assert_allclose(fractions, np.zeros(k), atol=0.02)

    def test_three_outcome_value_matches_closed_form(self):
        _, value = brute_force_oracle(PRIOR3, POST3, 0.005)
        np.testing.assert_allclose(value, 0.4982, atol=1e-3)
        np.testing.assert_allclose(value, G3, atol=1e-3)

    def test_rejects_large_dimension_and_bad_step(self):
        uniform5 = [0.2] * 5
        with pytest.raises(GridDimensionError):
            brute_force_oracle(uniform5, uniform5, 0.01)
        with pytest.raises(ValueError):
            brute_force_oracle([0.5, 0.5], [0.5, 0.5], 0.2)

    def test_dynamic_program_equals_direct_enumeration(self):
        # the DP must reproduce the plain nested-loop grid search exactly
        for k, step in ((2, 0.05), (3, 0.05), (4, 0.1)):
            for trial in range(5):
                rng = np.random.default_rng(np.random.SeedSequence([31, trial]))
                self._assert_equals_enumeration(*draw_probability_pair(rng, k), step)

    @staticmethod
    def _assert_equals_enumeration(prior, posterior, step):
        m_max = int((1 - 1e-12) // step)
        best, best_g = -np.inf, None
        for units in itertools.product(range(m_max + 1), repeat=len(prior)):
            if sum(units) > m_max:
                continue
            g = np.array(units) * step
            value = log_growth(g, prior, posterior)
            if value > best + 1e-12:
                best, best_g = value, g
        fractions, value = brute_force_oracle(prior, posterior, step)
        np.testing.assert_allclose(value, best, atol=1e-12)
        np.testing.assert_array_equal(fractions, best_g)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("step", [0.005, 0.007, 0.033, 0.1])
    def test_bit_identical_to_column_major_dp(self, k, step):
        rng = np.random.default_rng(np.random.SeedSequence([37, k, int(step * 1000)]))
        pairs = [draw_probability_pair(rng, k) for _ in range(4)]
        pairs += [(rng.dirichlet(np.ones(k)),) * 2, (np.full(k, 1.0 / k),) * 2]
        pairs += list(zip(*_tied_floor_rows(rng, k, 3)))
        pairs += _twin_rows(rng, k, 4)
        for prior, posterior in pairs:
            expected_units, expected_value = reference_oracle(prior, posterior, step)
            fractions, value = brute_force_oracle(prior, posterior, step)
            assert fractions.tobytes() == (expected_units * step).tobytes()
            assert value.hex() == expected_value.hex()

    def test_four_class_call_at_default_step_peaks_at_most_2_70_mb(self):
        # about 0.9 MB: the prefix and two class tables of one chunk of
        # every total, 0.32 MB each at M = 199
        prior, posterior = draw_probability_pair(np.random.default_rng(43), 4)
        brute_force_oracle(prior, posterior, 0.005)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            brute_force_oracle(prior, posterior, 0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 2.70e6

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("step", [0.005, 0.007, 0.033, 0.1])
    def test_batch_rows_bit_identical_to_one_row_calls_and_reference(self, monkeypatch, k, step):
        # 34 rows, the last ten with exactly tied ratios or twin outcomes
        rng = np.random.default_rng(np.random.SeedSequence([41, k, int(step * 1000)]))
        pairs = [draw_probability_pair(rng, k) for _ in range(24)]
        pairs += list(zip(*_tied_floor_rows(rng, k, 5)))
        pairs += _twin_rows(rng, k, 5)
        expected = [reference_oracle(prior, posterior, step) for prior, posterior in pairs]
        one_row = [brute_force_oracle(prior, posterior, step) for prior, posterior in pairs]

        def check(batch):
            fractions, values = brute_force_oracle(
                [pairs[i][0] for i in batch], [pairs[i][1] for i in batch], step
            )
            assert fractions.shape == (len(batch), k) and values.shape == (len(batch),)
            for row, i in enumerate(batch):
                units, value = expected[i]
                assert fractions[row].tobytes() == one_row[i][0].tobytes() == (units * step).tobytes()
                assert values[row].hex() == one_row[i][1].hex() == value.hex()

        for batch in ([0], [24], [30, 29], range(34)):
            check(batch)
        # with a cell budget of R rows of M + 1 cells, 1 and 2 rows take
        # several totals per chunk, R - 1 and R rows one total per chunk,
        # and R + 1 rows split into two row blocks
        blocked = 8
        monkeypatch.setattr(kelly, "_CHUNK_CELLS", blocked * (_max_units(step) + 1))
        for rows in (1, 2, blocked - 1, blocked, blocked + 1):
            check(range(34 - rows, 34))

    def test_four_class_batch_of_34_rows_at_default_step_peaks_at_most_2_70_mb(self):
        # about 1.7 MB: a chunk of 9 totals holds the prefix, a class
        # table and their sums, 0.49 MB each at M = 199
        pairs = [draw_probability_pair(np.random.default_rng([43, i]), 4) for i in range(34)]
        priors, posteriors = np.array(pairs).transpose(1, 0, 2)
        brute_force_oracle(priors, posteriors, 0.005)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            brute_force_oracle(priors, posteriors, 0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 2.70e6

    @pytest.mark.parametrize(
        "priors, posteriors, step, error",
        [
            ([[0.5, 0.5]], [[0.3, 0.3, 0.4]], 0.01, ValueError),
            ([[0.5, 0.5]] * 2, [[0.5, 0.5]] * 3, 0.01, ValueError),
            ([[[0.5, 0.5]]], [[[0.5, 0.5]]], 0.01, ValueError),
            (np.empty((0, 3)), np.empty((0, 3)), 0.01, ValueError),
            ([[0.5, 0.5]], [[0.5, 0.5]], 0.2, ValueError),
            ([[0.5, 0.5]], [[0.5, 0.5]], 0.0, ValueError),
            ([[0.2] * 5], [[0.2] * 5], 0.01, GridDimensionError),
        ],
        ids=["classes-differ", "rows-differ", "three-dimensional", "no-rows", "step-too-large", "step-zero", "five-classes"],
    )
    def test_batch_rejects_malformed_input(self, priors, posteriors, step, error):
        with pytest.raises(error):
            brute_force_oracle(priors, posteriors, step)

    def test_suite_matches_a_loop_of_one_row_oracle_calls(self):
        # the suite's grid lines, rebuilt from one brute_force_oracle call per trial
        worst_gap = worst_below = 0.0
        for trial in range(7):
            rng = np.random.default_rng(np.random.SeedSequence([3, trial]))
            prior, posterior = draw_probability_pair(rng, (2, 3, 4)[trial % 3])
            growth = candidate_labels(prior, posterior).log_growth
            _, grid_value = brute_force_oracle(prior, posterior, 0.005)
            worst_gap = max(worst_gap, abs(growth - grid_value))
            worst_below = max(worst_below, grid_value - growth)
        results = kelly_suite(trials=7, seed=3)
        assert [r.line() for r in results[:2]] == [
            PropertyResult(
                "kelly-closed-form-vs-grid", worst_gap <= 1e-3, worst_gap, 1e-3, "7 pairs, grid step 0.005"
            ).line(),
            PropertyResult("kelly-never-below-grid", worst_below <= 1e-9, worst_below, 1e-9).line(),
        ]
        assert all(r.passed for r in results)


def _tied_floor_rows(rng, k: int, rows: int):
    """Pairs whose first two entries (then permuted) sit at the same clipped
    floor in both prior and posterior, as draw_probability_pair makes them,
    so their ratios tie exactly.
    """
    priors, posteriors = [], []
    for _ in range(rows):
        perm = rng.permutation(k)
        pair = []
        for _ in range(2):
            v = rng.dirichlet(np.ones(k))
            v[:2] = 0.0
            v = np.clip(v, PAIR_FLOOR, None)
            pair.append((v / v.sum())[perm])
        priors.append(pair[0])
        posteriors.append(pair[1])
    return np.array(priors), np.array(posteriors)


def _twin_rows(rng, k: int, rows: int):
    """Pairs whose first two outcomes are equal in both prior and posterior
    and, for K > 2, worth betting on, so that splitting units between them
    ties exactly and the DP's first-index rule decides the allocation.
    """
    pairs = []
    for _ in range(rows):
        twin_a, twin_p = rng.uniform(0.25, 0.4), rng.uniform(0.05, 0.2)
        rest = rng.dirichlet(np.ones(k - 2)) if k > 2 else np.zeros(0)
        pairs.append((
            np.concatenate([[twin_a, twin_a], (1.0 - 2.0 * twin_a) * rest]),
            np.concatenate([[twin_p, twin_p], (1.0 - 2.0 * twin_p) * rest]),
        ))
    return pairs


class TestBatchSweep:
    def _assert_matches_reference(self, priors, posteriors, fallback):
        rows = candidate_labels(priors, posteriors, reference_label=fallback)
        mask, fractions, unspent = rows.mask, rows.fractions, rows.unspent
        for j in range(len(priors)):
            ref = reference_candidate_labels(priors[j], posteriors[j], reference_label=fallback[j])
            sol = candidate_labels(priors[j], posteriors[j], reference_label=fallback[j])
            assert set(np.flatnonzero(mask[j])) == ref.candidates == sol.candidates
            for got_fractions, got_unspent in ((fractions[j], unspent[j]), (sol.fractions, sol.unspent)):
                np.testing.assert_allclose(got_fractions, ref.fractions, atol=1e-12)
                np.testing.assert_allclose(got_unspent, ref.unspent, atol=1e-12)
            np.testing.assert_allclose(sol.log_growth, ref.log_growth, atol=1e-12)

    def test_matches_per_sample_solver(self):
        rng = np.random.default_rng(41)
        for k in (2, 3, 4, 8, 20, 64):
            priors = np.vstack([rng.dirichlet(np.ones(k)) for _ in range(64)])
            posteriors = np.vstack([rng.dirichlet(np.ones(k)) for _ in range(64)])
            self._assert_matches_reference(priors, posteriors, np.zeros(64, dtype=int))

    def test_matches_reference_on_tied_floors_and_fallback(self):
        rng = np.random.default_rng(43)
        for k in (3, 4):
            priors, posteriors = _tied_floor_rows(rng, k, 64)
            uniform = np.full((1, k), 1.0 / k)
            priors = np.vstack([priors, uniform])
            posteriors = np.vstack([posteriors, uniform])
            fallback = np.full(65, k - 1)
            self._assert_matches_reference(priors, posteriors, fallback)
            assert candidate_labels(uniform[0], uniform[0], reference_label=k - 1).candidates == {k - 1}

    def test_verify_seed0_trial5_strict_kkt(self):
        # a clamped-twice sweep broke strict separation here (K=4)
        rng = np.random.default_rng(np.random.SeedSequence([0, 5]))
        prior, posterior = draw_probability_pair(rng, 4)
        sol = candidate_labels(prior, posterior)
        q = clamp_probability_rows([prior])[0] / clamp_probability_rows([posterior])[0]
        cand = sorted(sol.candidates)
        rest = sorted(set(range(4)) - sol.candidates)
        assert q[rest].max() <= sol.unspent < q[cand].min()

    def test_fallback_rows(self):
        priors = np.array([[0.5, 0.5], [0.9, 0.1]])
        posteriors = np.array([[0.5, 0.5], [0.5, 0.5]])
        rows = candidate_labels(priors, posteriors, reference_label=[1, 0])
        assert rows.mask[0].tolist() == [False, True]
        assert rows.fractions[0].tolist() == [0.0, 0.0]
        assert rows.unspent[0] == 1.0
        assert rows.mask[1].tolist() == [True, False]
        with pytest.raises(MissingReferenceLabelError):
            candidate_labels(priors, posteriors)

    def test_fallback_function_sees_only_the_empty_rows(self):
        rng = np.random.default_rng(47)
        priors, posteriors, _ = _tied_pairs(rng, 4, 60)
        a, p = _transposed(clamp_probability_rows(priors)), _transposed(posteriors)
        labels = rng.integers(0, 4, 60)
        seen = []

        def fallback(empty):
            seen.append(empty.copy())
            return labels[empty]

        expected = _sweep(a, p, labels)
        got = _sweep(a, p, fallback)
        for want, have in zip(expected, got):
            assert have.tobytes() == want.tobytes()
        assert seen[0].tolist() == np.flatnonzero(~expected[1].any(axis=0)).tolist() != []
        assert _sweep(a, p, fallback, mask_only=True).tobytes() == expected[0].tobytes()



def _reference_kelly_suite(trials: int, seed: int, grid_step: float = 0.005) -> list[PropertyResult]:
    """The kelly suite as a loop of one-pair calls over the trials, with the
    grid values of one oracle call per class count: the results the
    stacked suite must reproduce in ``.hex()``.
    """
    worst_gap = worst_below = worst_cons = worst_ident = 0.0
    kkt_ok = card_ok = True
    min_objective = np.inf
    pairs = [
        draw_probability_pair(np.random.default_rng(np.random.SeedSequence([seed, trial])), (2, 3, 4)[trial % 3])
        for trial in range(trials)
    ]
    grid_values = [0.0] * trials
    for first in range(min(3, trials)):
        priors, posteriors = zip(*pairs[first::3])
        grid_values[first::3] = brute_force_oracle(np.array(priors), np.array(posteriors), grid_step)[1].tolist()
    for (prior, posterior), grid_value in zip(pairs, grid_values):
        k = prior.size
        sol = candidate_labels(prior, posterior)
        worst_gap = max(worst_gap, abs(sol.log_growth - grid_value))
        worst_below = max(worst_below, grid_value - sol.log_growth)
        worst_cons = max(worst_cons, abs(sol.fractions.sum() + sol.unspent - 1.0))
        objective = kelly_objective_value(sol, prior, posterior)
        worst_ident = max(worst_ident, abs(objective - sol.log_growth))
        min_objective = min(min_objective, objective)
        a, p = clamp_probability_rows([prior, posterior])
        q = a / p
        cand = sorted(sol.candidates)
        rest = sorted(set(range(k)) - sol.candidates)
        if cand and q[cand].min() <= sol.unspent:
            kkt_ok = False
        if rest and q[rest].max() > sol.unspent:
            kkt_ok = False
        if len(sol.candidates) > k - 1:
            card_ok = False
    return [
        PropertyResult("kelly-closed-form-vs-grid", worst_gap <= 1e-3, worst_gap, 1e-3),
        PropertyResult("kelly-never-below-grid", worst_below <= 1e-9, worst_below, 1e-9),
        PropertyResult("kelly-kkt-separation", kkt_ok, 0.0 if kkt_ok else 1.0, 0.0),
        PropertyResult("kelly-conservation", worst_cons <= 1e-9, worst_cons, 1e-9),
        PropertyResult("kelly-objective-identity", worst_ident <= 1e-12, worst_ident, 1e-12),
        PropertyResult("kelly-objective-nonnegative", min_objective >= 0.0, max(0.0, -min_objective), 0.0),
        PropertyResult("kelly-cardinality", card_ok, 0.0 if card_ok else 1.0, 0.0),
    ]


class TestRows:
    """(N, K) rows and one (K,) pair take one code path: every row has the bits of its one-pair call."""

    @pytest.mark.parametrize("k", [2, 3, 4, 8, 9, 20, 64])
    def test_rows_equal_one_pair_calls(self, k):
        rng = np.random.default_rng([53, k])
        priors, posteriors, _ = _tied_pairs(rng, k, 60)
        draws = np.array([draw_probability_pair(rng, k) for _ in range(20)])
        priors, posteriors = np.vstack([priors, draws[:, 0]]), np.vstack([posteriors, draws[:, 1]])
        labels = rng.integers(0, k, len(priors))
        rows = candidate_labels(priors, posteriors, reference_label=labels)
        objectives = kelly_objective_value(rows, priors, posteriors)
        assert rows.mask.shape == rows.fractions.shape == priors.shape and rows.mask.dtype == bool
        assert rows.unspent.shape == rows.log_growth.shape == objectives.shape == (len(priors),)
        for r in range(len(priors)):
            one = candidate_labels(priors[r], posteriors[r], int(labels[r]))
            assert isinstance(one.unspent, float) and isinstance(one.log_growth, float)
            assert one.mask.tobytes() == rows.mask[r].tobytes()
            assert one.candidates == set(np.flatnonzero(rows.mask[r]).tolist())
            assert one.fractions.tobytes() == rows.fractions[r].tobytes()
            assert one.unspent.hex() == float(rows.unspent[r]).hex()
            assert one.log_growth.hex() == float(rows.log_growth[r]).hex()
            objective = kelly_objective_value(one, priors[r], posteriors[r])
            assert isinstance(objective, float) and objective.hex() == float(objectives[r]).hex()

    def test_rows_the_feasibility_check_refused_get_a_solution(self):
        # a tied outcome admitted at a stake of about -1e-16 made the
        # one-pair call's feasibility check raise InfeasibleFractionsError
        # on 26 of these 12,000 rows; the stacked log-growth has no check
        refused = 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            k = 2 + seed % 7
            priors, posteriors, _ = _tied_pairs(rng, k, 40)
            labels = rng.integers(0, k, 40)
            rows = candidate_labels(priors, posteriors, reference_label=labels)
            for r in np.flatnonzero((rows.fractions < 0.0).any(axis=1)):
                refused += 1
                one = candidate_labels(priors[r], posteriors[r], int(labels[r]))
                assert one.fractions.tobytes() == rows.fractions[r].tobytes()
                assert one.log_growth.hex() == float(rows.log_growth[r]).hex()
                assert -1e-15 <= one.fractions.min() < 0.0
                assert abs(one.log_growth - kelly_objective_value(one, priors[r], posteriors[r])) <= 1e-12
        assert refused == 26

    def test_candidates_of_rows_raise_one_line_value_error(self):
        rows = candidate_labels([PRIOR3] * 2, [POST3] * 2)
        assert rows.mask.tolist() == [[True, True, False]] * 2
        with pytest.raises(ValueError, match="^candidates is defined for one pair; read mask for \\(2, 3\\) rows$"):
            rows.candidates

    @pytest.mark.parametrize("seed", [0, 7919])
    @pytest.mark.parametrize("trials", [1, 2, 3, 100])
    def test_kelly_suite_equals_a_loop_of_one_pair_calls(self, trials, seed):
        got = kelly_suite(trials=trials, seed=seed)
        want = _reference_kelly_suite(trials, seed)
        assert [(r.name, r.passed, float(r.worst_error).hex(), r.tolerance) for r in got] == [
            (r.name, r.passed, float(r.worst_error).hex(), r.tolerance) for r in want
        ]

def reference_sweep(a, p, fallback_labels):
    """The class-major sweep with a fresh stable sort per call and its suffix
    sums added in a loop from the last sorted row up: the bits a sweep
    given any sort order must reproduce.
    """
    k, n = a.shape
    q = a / p
    flat = np.argsort(-q, axis=0, kind="stable") * n + np.arange(n)
    q_sorted, a_sorted, p_sorted = q.ravel()[flat], a.ravel()[flat], p.ravel()[flat]
    levels = np.ones((k, n))
    rest_a, rest_p = a_sorted[k - 1], p_sorted[k - 1]
    levels[k - 1] = rest_a / rest_p
    for t in range(k - 2, 0, -1):
        rest_a = rest_a + a_sorted[t]
        rest_p = rest_p + p_sorted[t]
        levels[t] = rest_a / rest_p
    admitted = q_sorted > levels
    for t in range(1, k):
        admitted[t] &= admitted[t - 1]
    mask = np.zeros(k * n, dtype=bool)
    mask[flat] = admitted
    mask = mask.reshape(k, n)
    unspent = levels[admitted.sum(axis=0), np.arange(n)]
    fractions = np.where(mask, a - p * unspent, 0.0)
    empty = ~admitted[0]
    mask[np.asarray(fallback_labels)[empty], empty] = True
    return flat, mask, fractions, unspent


def _drifting_posteriors(rng, a, steps: int, spread: float):
    """Class-major posteriors of logits that drift a little per step, with
    columns edited into exact ratio ties, ties one ulp apart, posteriors
    equal to the priors (all ratios 1: the fallback), posteriors
    underflowed to 0 (ratio +inf) and a random set of classes whose ratios
    all round to one value r or next to it, on a fresh choice of columns
    each step.  The sweep stops only at a rest of equal ratios, so the last
    kind leaves rests of several outcomes, whose sums depend on the order
    of their additions.  ``a`` must hold a twin pair, rows 0 and 1, in its
    even columns.
    """
    k, n = a.shape
    z = spread * rng.standard_normal((k, n))
    for _ in range(steps):
        z = z + 0.05 * spread * rng.standard_normal((k, n))
        e = np.exp(z - z.max(axis=0))
        p = e / e.sum(axis=0)
        kind = rng.integers(0, 8, n)
        even = np.arange(n) % 2 == 0
        tie = (kind == 0) & even
        p[1, tie] = p[0, tie]
        ulp = (kind == 1) & even
        p[1, ulp] = np.nextafter(p[0, ulp], 1.0)
        p[:, kind == 2] = a[:, kind == 2]
        # zeros in all rows but the last: at least one posterior stays positive
        zero = (kind == 3)[None, :] & (rng.random((k, n)) < 0.5)
        zero[-1] = False
        p[zero] = 0.0
        near = (kind == 4)[None, :] & (rng.random((k, n)) < 0.5)
        p[near] = (a / rng.uniform(0.5, 2.0, n))[near]
        yield p


class TestSweepOrder:
    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(2, 64),
        n=st.integers(1, 300),
        steps=st.integers(1, 6),
        spread=st.sampled_from([0.5, 3.0, 800.0]),
        seed=st.integers(0, 2**32 - 1),
        shuffled=st.booleans(),
    )
    def test_carried_order_equals_fresh_sweep_bitwise(self, k, n, steps, spread, seed, shuffled):
        rng = np.random.default_rng(seed)
        a = np.ascontiguousarray(clamp_probability_rows(rng.dirichlet(np.ones(k), n)).T)
        a[1, ::2] = a[0, ::2]
        fallback = rng.integers(0, k, n)
        # the trainer's start, the class order, or a random permutation of each column
        start = np.argsort(rng.random((k, n)), axis=0) if shuffled else np.arange(k)[:, None]
        order = start * n + np.arange(n)
        state = (order, a.ravel()[order], _rest_sums(a.ravel()[order]))
        for p in _drifting_posteriors(rng, a, steps, spread):
            # a posterior of 0, or a denormal one, makes an infinite ratio or
            # level, and a fraction off the mask may then be 0 * inf
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                flat, *expected = reference_sweep(a, p, fallback)
                carried = _sweep(a, p, fallback, carried=state)
                fresh = _sweep(a, p, fallback)
                mask = _sweep(a, p, fallback, mask_only=True, carried=state)
            assert order.tobytes() == flat.tobytes()
            # the held priors and rest sums are a fresh gather and sum in the new order
            assert state[1].tobytes() == a.ravel()[order].tobytes()
            assert state[2].tobytes() == _rest_sums(a.ravel()[order]).tobytes()
            for got, again, want in zip(carried, fresh, expected):
                assert got.tobytes() == again.tobytes() == want.tobytes()
            assert mask.tobytes() == expected[0].tobytes()

    @pytest.mark.parametrize("n", [1, 32, 2000])
    @pytest.mark.parametrize("k", [2, 3, 20])
    def test_carried_state_gives_the_masks_of_fresh_sweeps(self, k, n):
        """The trainer's carried state, from ``_sweep_state``, over 30 drifting posterior
        sets with exact ratio ties, one of them in a column that goes stale on every call."""
        rng = np.random.default_rng([61, k, n])
        a = np.ascontiguousarray(clamp_probability_rows(rng.dirichlet(np.ones(k), n)).T)
        a[1, ::2] = a[0, ::2]
        fallback = rng.integers(0, k, n)
        state = _sweep_state(a)
        assert state[0].tolist() == np.arange(k * n).reshape(k, n).tolist()
        for p in _drifting_posteriors(rng, a, 30, 3.0):
            p[1, 0] = p[0, 0]  # twin priors: a tie in column 0, stale on every call
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                carried = _sweep(a, p, fallback, mask_only=True, carried=state)
                fresh = _sweep(a, p, fallback, mask_only=True)
            assert carried.tobytes() == fresh.tobytes()
            assert state[1].tobytes() == a.ravel()[state[0]].tobytes()
            assert state[2].tobytes() == _rest_sums(a.ravel()[state[0]]).tobytes()


def _tied_pairs(rng, k: int, n: int):
    """(N, K) prior and posterior rows of five kinds, one per row in turn:
    random pairs, a pair of outcomes whose ratios tie exactly, a pair one
    ulp apart, posteriors equal to the priors (nothing is admitted: the
    fallback) and pairs whose ratios on a random set R of outcomes all
    equal one value s (prior = s * posterior there) below those off it.
    The last kind is returned as a row mask.
    """
    priors = rng.dirichlet(np.ones(k), n)
    posteriors = rng.dirichlet(np.ones(k), n)
    kind = np.arange(n) % 5
    i, j = rng.integers(0, k, n), rng.integers(0, k, n)
    rows = np.flatnonzero((kind == 1) | (kind == 2))
    priors[rows, j[rows]] = priors[rows, i[rows]]
    posteriors[rows, j[rows]] = posteriors[rows, i[rows]]
    rows = np.flatnonzero((kind == 2) & (i != j))
    posteriors[rows, j[rows]] = np.nextafter(posteriors[rows, i[rows]], 1.0)
    priors[kind == 3] = posteriors[kind == 3]
    level_rows = kind == 4
    for row in np.flatnonzero(level_rows):
        rest = rng.random(k) < 0.5
        rest[rng.integers(0, k)] = True
        s = rng.uniform(0.05, 0.45)
        priors[row, rest] = s * posteriors[row, rest]
        # the others share the prior mass left over at ratios of at least 1/2 > s
        spread = posteriors[row, ~rest] * rng.uniform(1.0, 2.0, (~rest).sum())
        priors[row, ~rest] = (1.0 - priors[row, rest].sum()) * spread / spread.sum()
    return priors, posteriors, level_rows


class TestSweepProperties:
    """The public sweep's optimality conditions and the bound claim, for K from 2 to 64 with near-ties."""

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(2, 64), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_kkt_conservation_cardinality_and_the_kl_bound(self, k, n, seed):
        rng = np.random.default_rng(seed)
        priors, posteriors, level_rows = _tied_pairs(rng, k, n)
        fallback = rng.integers(0, k, n)
        rows = candidate_labels(priors, posteriors, reference_label=fallback)
        mask, fractions, unspent = rows.mask, rows.fractions, rows.unspent
        objectives = kelly_objective_value(rows, priors, posteriors)
        a, p = clamp_probability_rows(priors), clamp_probability_rows(posteriors)
        q = a / p
        for row in range(n):
            cand, rest = mask[row], ~mask[row]
            assert abs(fractions[row].sum() + unspent[row] - 1.0) <= 1e-12
            assert 1 <= cand.sum() <= k - 1
            if q[row].max() <= 1.0:
                # nothing admitted: the fallback label with no stake
                assert np.flatnonzero(cand).tolist() == [fallback[row]]
                assert unspent[row] == 1.0 and not fractions[row].any()
            else:
                if level_rows[row]:
                    # ratios equal to s up to rounding sit on both sides of
                    # the level the sweep forms, which admits some of them:
                    # strict separation holds here only up to rounding
                    assert q[row, cand].min() >= unspent[row] * (1.0 - 1e-12)
                else:
                    assert q[row, cand].min() > unspent[row]
                assert q[row, rest].max() <= unspent[row]
                assert fractions[row, cand].min() >= -1e-15
                assert np.all(fractions[row, rest] == 0.0)
            objective = objectives[row]
            kl = vfe_decompose(priors[row], posteriors[row], np.ones(k)).complexity
            assert objective <= kl + 1e-12
            if q[row, rest].min() >= unspent[row] * (1.0 - 1e-12):
                # every outcome off the candidates has ratio s: the bound is tight
                assert abs(objective - kl) <= 1e-12
