"""Training loop behaviour, supervision modes, early stopping, and metrics."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellyfe import data, losses, trainer
from kellyfe.kelly import _sweep_state
from kellyfe.network import LayerSpec, forward, init_he, load_params, save_params


def _separable_sets(seed=0):
    train_set = data.with_synthesized_priors(
        data.generate(2, 2, 200, [0.5, 0.5], 6.0, seed=seed), 0.1
    )
    val_set = data.with_synthesized_priors(
        data.generate(2, 2, 100, [0.5, 0.5], 6.0, seed=seed + 1), 0.1
    )
    return train_set, val_set


class TestTrain:
    def test_cross_entropy_on_separable_data(self):
        train_set, val_set = _separable_sets()
        cfg = trainer.TrainConfig(loss="ce", mode="grnp", max_iterations=600, seed=3)
        params, history = trainer.train(cfg, train_set, val_set)
        emas = np.array([h.val_loss_ema for h in history])
        assert np.all(np.diff(emas) <= 1e-9)  # monotone EMA on this geometry
        report = trainer.evaluate(params, train_set)
        assert np.trace(report.confusion) == report.confusion.sum()  # accuracy 1.0

    def test_efe_fully_unsupervised_terminates_finite(self):
        train_set, val_set = _separable_sets(seed=5)
        cfg = trainer.TrainConfig(loss="efe", mode="ngnp", max_iterations=200, patience=200, seed=0)
        _, history = trainer.train(cfg, train_set, val_set)
        assert len(history) == 200
        assert all(np.isfinite(h.train_loss) and np.isfinite(h.val_loss) for h in history)
        assert all(h.expected_complexity_term >= 0.0 for h in history)

    def test_grnp_uniform_priors_stay_finite(self):
        train_set, val_set = _separable_sets(seed=6)
        cfg = trainer.TrainConfig(loss="efe", mode="grnp", max_iterations=200, patience=200, seed=1)
        _, history = trainer.train(cfg, train_set, val_set)
        assert len(history) == 200
        assert all(np.isfinite(h.train_loss) for h in history)

    def test_patience_stops_after_flat_ema(self):
        # zero features force uniform posteriors; the expected-free-energy
        # gradient then vanishes identically and nothing ever improves
        base = data.generate(2, 2, 40, [0.5, 0.5], 0.0, seed=7)
        frozen = dataclasses.replace(base, features=np.zeros_like(base.features))
        cfg = trainer.TrainConfig(
            loss="efe", mode="ngnp", patience=1, max_iterations=100, batch_size=40, seed=0
        )
        _, history = trainer.train(cfg, frozen, frozen)
        assert len(history) == 2  # patience + 1
        assert history[0].train_loss == history[1].train_loss

    def test_max_iterations_bound(self):
        train_set, val_set = _separable_sets(seed=8)
        cfg = trainer.TrainConfig(loss="ce", mode="grnp", max_iterations=17, seed=0)
        _, history = trainer.train(cfg, train_set, val_set)
        assert len(history) == 17
        assert [h.iteration for h in history] == list(range(1, 18))

    @pytest.mark.parametrize("loss, mode", [("efe", "grpr"), ("ce", "grnp")])
    def test_best_snapshot_survives_later_steps(self, loss, mode):
        # a large step size makes the validation EMA turn up, so the run
        # stops on patience after its best iteration; the parameters are
        # stepped in place, and the snapshot must not follow them
        train_set = data.with_synthesized_priors(data.generate(3, 2, 200, [0.6, 0.3, 0.1], 1.0, seed=3), 0.3)
        val_set = data.with_synthesized_priors(data.generate(3, 2, 100, [0.6, 0.3, 0.1], 1.0, seed=4), 0.3)
        cfg = trainer.TrainConfig(loss=loss, mode=mode, patience=5, max_iterations=300, seed=2, alpha_lr=0.05)
        params, history = trainer.train(cfg, train_set, val_set)
        best = 1 + int(np.argmin([h.val_loss_ema for h in history]))
        assert best < len(history) < 300
        capped, _ = trainer.train(dataclasses.replace(cfg, max_iterations=best), train_set, val_set)
        assert params.vector.tobytes() == capped.vector.tobytes()
        assert [lp.weights.base is params.vector for lp in params.layers] == [True] * len(params.layers)

    def test_determinism_bitwise(self):
        train_set, val_set = _separable_sets(seed=9)
        cfg = trainer.TrainConfig(loss="efe", mode="grpr", max_iterations=60, seed=11)
        params_a, history_a = trainer.train(cfg, train_set, val_set)
        params_b, history_b = trainer.train(cfg, train_set, val_set)
        assert history_a == history_b
        for la, lb in zip(params_a.layers, params_b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)

    def test_best_snapshot_equals_a_run_capped_at_its_iteration(self):
        # the returned parameters are a reference to the best iteration's
        # vector, so later updates must leave them untouched
        train_set = data.with_synthesized_priors(
            data.generate(2, 2, 200, [0.5, 0.5], 1.0, seed=3), 0.1
        )
        val_set = data.with_synthesized_priors(
            data.generate(2, 2, 100, [0.5, 0.5], 1.0, seed=4), 0.1
        )
        cfg = trainer.TrainConfig(
            loss="ce", mode="grnp", alpha_lr=0.05, max_iterations=200, patience=200, seed=4
        )
        params_long, history_long = trainer.train(cfg, train_set, val_set)
        best = int(np.argmin([h.val_loss_ema for h in history_long])) + 1
        assert 1 < best < len(history_long) - 50
        capped = dataclasses.replace(cfg, max_iterations=best)
        params_capped, history_capped = trainer.train(capped, train_set, val_set)
        assert history_capped == history_long[:best]
        assert params_long.vector.tobytes() == params_capped.vector.tobytes()

    def test_non_finite_validation_pass_names_iteration(self):
        train_set, val_set = _separable_sets(seed=15)
        cfg = trainer.TrainConfig(loss="efe", mode="grpr", alpha_lr=1e300, max_iterations=5)
        with pytest.raises(trainer.NonFiniteError, match="validation pass went non-finite at iteration 1$"):
            trainer.train(cfg, train_set, val_set)

    def test_non_finite_training_step_names_iteration(self):
        train_set, val_set = _separable_sets(seed=16)
        huge = dataclasses.replace(train_set, features=np.full_like(train_set.features, 1e308))
        cfg = trainer.TrainConfig(loss="ce", mode="grnp", max_iterations=5)
        with pytest.raises(trainer.NonFiniteError, match="training step went non-finite at iteration 1$"):
            trainer.train(cfg, huge, val_set)

    def test_incompatible_loss_mode(self):
        train_set, val_set = _separable_sets(seed=10)
        for loss in ("ce", "wce", "focal", "wfocal", "dice", "lovasz"):
            for mode in ("ngpr", "ngnp"):
                cfg = trainer.TrainConfig(loss=loss, mode=mode, max_iterations=5)
                with pytest.raises(trainer.IncompatibleConfigError):
                    trainer.train(cfg, train_set, val_set)

    def test_every_supervised_loss_runs(self):
        train_set, val_set = _separable_sets(seed=12)
        for loss in ("wce", "focal", "wfocal", "dice", "lovasz"):
            cfg = trainer.TrainConfig(loss=loss, mode="grnp", max_iterations=25, seed=2)
            _, history = trainer.train(cfg, train_set, val_set)
            assert len(history) == 25
            assert all(np.isfinite(h.train_loss) for h in history)
            assert all(h.uncertainty_term is None for h in history)

    def test_mismatched_sets_rejected(self):
        train_set, _ = _separable_sets(seed=13)
        other = data.with_synthesized_priors(
            data.generate(3, 2, 60, [0.4, 0.3, 0.3], 2.0, seed=0), 0.5
        )
        cfg = trainer.TrainConfig(loss="ce", mode="grnp", max_iterations=5)
        with pytest.raises(ValueError):
            trainer.train(cfg, train_set, other)


class TestValidationState:
    """The per-run state of the validation pass changes no bit of its loss."""

    @pytest.mark.parametrize("mode", trainer.MODE_NAMES)
    def test_carried_sweep_order_gives_the_same_loss(self, mode):
        val_set = data.with_synthesized_priors(data.generate(4, 2, 300, [0.4, 0.3, 0.2, 0.1], 1.0, seed=3), 0.2)
        config = trainer.TrainConfig(loss="efe", mode=mode)
        rows = trainer._loss_rows(val_set, config)
        held = (_sweep_state(rows[1]), np.log(rows[1]))
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((300, 4))
        for _ in range(6):
            logits = logits + 0.1 * rng.standard_normal((300, 4))
            for grad in (False, True):
                carried = trainer.batch_loss(config, logits, *rows, grad=grad, held=held)
                fresh = trainer.batch_loss(config, logits, *rows, grad=grad)
                assert carried.value.hex() == fresh.value.hex()
                assert carried.expected_complexity.hex() == fresh.expected_complexity.hex()
                if grad:
                    assert carried.grad_logits.tobytes() == fresh.grad_logits.tobytes()

    @pytest.mark.parametrize("loss, mode", [("efe", "grpr"), ("efe", "ngpr"), ("efe", "grnp"), ("wfocal", "grnp")])
    def test_every_validation_pass_has_the_bits_of_fresh_calls(self, monkeypatch, loss, mode):
        """Each pass's logits are a fresh inference ``forward``'s, and its value is a fresh
        ``batch_loss``'s on them, with no carried order or held state."""
        train_set = data.with_synthesized_priors(data.generate(3, 2, 200, [0.6, 0.3, 0.1], 1.0, seed=21), 0.3)
        val_set = data.with_synthesized_priors(data.generate(3, 2, 300, [0.6, 0.3, 0.1], 1.0, seed=22), 0.3)
        config = trainer.TrainConfig(loss=loss, mode=mode, max_iterations=25, seed=4)
        passes = []
        inference, batch_loss = trainer._inference, trainer.batch_loss

        def recorded_inference(params, h, buffers):
            logits = inference(params, h, buffers)
            fresh, _ = forward(params, val_set.features, training=False)
            assert logits.tobytes() == fresh.tobytes()
            passes.append([logits.copy()])
            return logits

        def recorded_loss(config, logits, *rows, **options):
            ev = batch_loss(config, logits, *rows, **options)
            if rows[0].shape[1] == len(val_set):  # the validation pass, not a training step
                passes[-1].append(ev.value)
            return ev

        monkeypatch.setattr(trainer, "_inference", recorded_inference)
        monkeypatch.setattr(trainer, "batch_loss", recorded_loss)
        _, history = trainer.train(config, train_set, val_set)
        monkeypatch.undo()
        rows = trainer._loss_rows(val_set, config)
        assert len(passes) == len(history) == 25
        for (logits, value), record in zip(passes, history):
            assert value.hex() == record.val_loss.hex()
            assert value.hex() == trainer.batch_loss(config, logits, *rows, grad=False).value.hex()

    def test_given_weights_are_not_recounted(self):
        class Uncountable(np.ndarray):
            def sum(self, *args, **kwargs):
                raise AssertionError("labels counted")

        labels = np.eye(3)[[0, 1, 2, 0]].T.copy().view(Uncountable)
        weights = losses._weight_column(np.array([1.0, 2.0, 3.0]), labels)
        assert weights.tolist() == [[1.0], [2.0], [3.0]]

    def test_every_step_and_validation_pass_counts_its_labels(self, monkeypatch):
        calls = []
        weights = losses._weight_column

        def counting(class_weights, l):
            if class_weights is None:
                calls.append(l.shape[1])
            return weights(class_weights, l)

        monkeypatch.setattr(losses, "_weight_column", counting)
        train_set, val_set = _separable_sets(seed=2)
        cfg = trainer.TrainConfig(loss="wfocal", mode="grnp", max_iterations=7, batch_size=50, seed=0)
        trainer.train(cfg, train_set, val_set)
        assert calls == [50, 100] * 7


class TestBatchStream:
    """A training batch takes its rows by index from the run's rows, and its indices from one stream of epochs."""

    @pytest.mark.parametrize("loss, mode", [*(("efe", mode) for mode in trainer.MODE_NAMES), ("wfocal", "grnp")])
    def test_batch_rows_are_the_rows_of_that_batch(self, loss, mode):
        ds = data.with_synthesized_priors(data.generate(4, 2, 50, [0.4, 0.3, 0.2, 0.1], 1.0, seed=11), 0.3)
        # one-hot and zero priors, so that the clamp moves and renormalizes rows
        ds.priors[:5] = np.eye(4)[[0, 1, 2, 3, 0]]
        ds.priors[5] = [0.5, 0.5, 0.0, 0.0]
        cfg = trainer.TrainConfig(loss=loss, mode=mode)
        rows = trainer._loss_rows(ds, cfg)
        rng = np.random.default_rng(11)
        for idx in (rng.permutation(50)[:32], rng.integers(0, 50, 40), np.array([5, 5, 0, 5]), np.array([13])):
            alone = data.Dataset(*(getattr(ds, f.name)[idx] for f in dataclasses.fields(ds)))
            expected = trainer._loss_rows(alone, cfg)
            gathered = tuple(r[..., idx] for r in rows)
            assert len(gathered) == len(expected) == (1 if loss == "wfocal" else 3)
            for g, e in zip(gathered, expected):
                assert (g.shape, g.dtype, g.tobytes()) == (e.shape, e.dtype, e.tobytes())

    def test_the_batch_stream_crosses_epochs(self, monkeypatch):
        calls = []

        def recording(dataset, batch_size, epoch_seed):
            calls.append((batch_size, epoch_seed))
            return data.batches(dataset, batch_size, epoch_seed)

        monkeypatch.setattr(trainer, "batches", recording)
        train_set = data.with_synthesized_priors(data.generate(2, 2, 100, [0.5, 0.5], 6.0, seed=4), 0.1)
        cfg = trainer.TrainConfig(batch_size=30, max_iterations=10, patience=100, seed=9)
        _, history = trainer.train(cfg, train_set, train_set)
        # 30 + 30 + 30 + 10 rows an epoch: epochs 0 and 1 whole, two batches of epoch 2
        assert calls == [(30, trainer._derived_seed(9, 1, epoch)) for epoch in range(3)]
        assert [h.iteration for h in history] == list(range(1, 11))


class TestLossTable:
    @pytest.mark.parametrize("name", list(losses.LOSSES))
    def test_batch_loss_calls_the_table_kernel_once(self, monkeypatch, name):
        entry = losses.LOSSES[name]
        calls = []

        def counting(*args):
            calls.append(args[-1])
            return entry.kernel(*args)

        monkeypatch.setitem(losses.LOSSES, name, dataclasses.replace(entry, kernel=counting))
        val_set = data.with_synthesized_priors(data.generate(3, 2, 40, [0.5, 0.3, 0.2], 1.0, seed=9), 0.2)
        config = trainer.TrainConfig(loss=name, mode="grpr")
        rows = trainer._loss_rows(val_set, config)
        logits = np.random.default_rng(9).standard_normal((40, 3))
        for grad in (True, False):
            calls.clear()
            ev = trainer.batch_loss(config, logits, *rows, grad=grad)
            assert calls == [grad] and (ev.grad_logits is not None) == grad


class TestEvaluate:
    def _all_zero_params(self, n_features, n_classes):
        params = init_he([LayerSpec(n_features, n_classes, activation="linear")], seed=0)
        params.layers[0].weights[...] = 0.0
        return params

    def test_all_one_class_predictor(self):
        # logits all zero -> argmax ties resolve to class 0
        ds = data.generate(2, 2, 100, [0.9, 0.1], 3.0, seed=1)
        params = self._all_zero_params(2, 2)
        report = trainer.evaluate(params, ds)
        np.testing.assert_allclose(report.recall, [1.0, 0.0])
        np.testing.assert_allclose(report.precision, [0.9, 0.0])
        assert report.precision_defined.tolist() == [True, False]
        assert report.recall_defined.tolist() == [True, True]

    @pytest.mark.parametrize("width", [2, 4])
    def test_network_of_other_class_count_rejected(self, width):
        ds = data.generate(3, 2, 30, [0.5, 0.3, 0.2], 2.0, seed=2)
        with pytest.raises(ValueError, match=f"the network predicts {width} classes, the test set has 3"):
            trainer.evaluate(self._all_zero_params(2, width), ds)

    def test_confusion_rows_are_class_counts(self):
        ds = data.generate(3, 2, 300, [0.5, 0.3, 0.2], 2.0, seed=2)
        params = init_he(
            [LayerSpec(2, 8), LayerSpec(8, 3, activation="linear")], seed=3
        )
        report = trainer.evaluate(params, ds)
        np.testing.assert_array_equal(
            report.confusion.sum(axis=1), np.bincount(ds.true_labels, minlength=3)
        )

    def test_perfect_predictor_metrics(self):
        train_set, val_set = _separable_sets(seed=14)
        cfg = trainer.TrainConfig(loss="ce", mode="grnp", max_iterations=500, seed=4)
        params, _ = trainer.train(cfg, train_set, val_set)
        report = trainer.evaluate(params, val_set)
        if np.trace(report.confusion) == report.confusion.sum():
            np.testing.assert_allclose(report.precision, 1.0)
            np.testing.assert_allclose(report.recall, 1.0)
            np.testing.assert_allclose(report.dice, 1.0)
            np.testing.assert_allclose(report.jaccard, 1.0)
            assert report.macro_f1 == 1.0

    def test_report_serializes(self):
        import json

        ds = data.generate(2, 2, 50, [0.5, 0.5], 2.0, seed=5)
        params = self._all_zero_params(2, 2)
        report = trainer.evaluate(params, ds)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["confusion"][0][0] == report.confusion[0, 0]
        assert list(doc) == [
            "precision",
            "recall",
            "dice",
            "jaccard",
            "f1",
            "precision_defined",
            "recall_defined",
            "macro_precision",
            "macro_recall",
            "macro_dice",
            "macro_jaccard",
            "macro_f1",
            "confusion",
        ]
        assert type(doc["macro_f1"]) is float and type(doc["precision_defined"][0]) is bool


class TestHistoryIO:
    def test_round_trip(self, tmp_path):
        train_set, val_set = _separable_sets(seed=15)
        cfg = trainer.TrainConfig(loss="efe", mode="grpr", max_iterations=12, seed=6)
        _, history = trainer.train(cfg, train_set, val_set)
        path = tmp_path / "history.csv"
        trainer.write_history(history, path)
        assert trainer.read_history(path) == history

    def test_non_efe_terms_empty(self, tmp_path):
        train_set, val_set = _separable_sets(seed=16)
        cfg = trainer.TrainConfig(loss="ce", mode="grnp", max_iterations=3, seed=7)
        _, history = trainer.train(cfg, train_set, val_set)
        path = tmp_path / "history.csv"
        trainer.write_history(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,train_loss,val_loss,val_loss_ema,uncertainty_term,expected_complexity_term"
        assert all(line.endswith(",,") for line in lines[1:])

    @pytest.mark.parametrize(
        "row", ["1,,0.25,0.125,,", "1,0.5,,0.125,,", "1,0.5,0.25,,,", "1,0.5,0.25,0.125", "1,0.5,0.25,0.125,,,"]
    )
    def test_empty_loss_cell_or_ragged_row_rejected(self, tmp_path, row):
        path = tmp_path / "history.csv"
        path.write_text(",".join(trainer.HISTORY_COLUMNS) + "\n" + row + "\n")
        with pytest.raises(ValueError):
            trainer.read_history(path)


def reference_write_history(history, path) -> None:
    """write_history cell by cell: repr(float(value)) per real, an empty cell for None."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(trainer.HISTORY_COLUMNS) + "\n")
        for rec in history:
            cells = [str(rec.iteration)]
            for name in trainer.HISTORY_COLUMNS[1:]:
                value = getattr(rec, name)
                cells.append("" if value is None else repr(float(value)))
            fh.write(",".join(cells) + "\n")


# signed zeros, subnormals, the ends of the float range and values with an integer value
_HISTORY_EDGES = [-0.0, 5e-324, -1e-308, 1e308, -1e308, 2.0, 0.1]


@st.composite
def _histories(draw):
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = (rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-20, 21, size=(n, 5))).tolist()
    for value in draw(st.lists(st.sampled_from(_HISTORY_EDGES) | st.floats(allow_nan=False, allow_infinity=False), max_size=8)):
        if n:
            values[rng.integers(n)][rng.integers(5)] = value
    history = []
    for i, row in enumerate(values):
        # numpy 2's repr of np.float64(0.5) is "np.float64(0.5)", not "0.5"
        row = [np.float64(x) for x in row] if rng.random() < 0.5 else row
        # both EFE terms, neither (the other losses) or one of them
        efe = [(True, True), (False, False), (True, False), (False, True)][rng.integers(4)]
        history.append(trainer.HistoryRecord(i + 1, *row[:3], *(x if kept else None for x, kept in zip(row[3:], efe))))
    return history


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("history")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(history=_histories())
def test_write_history_writes_the_reference_bytes(csv_dir, history):
    trainer.write_history(history, csv_dir / "history.csv")
    reference_write_history(history, csv_dir / "reference.csv")
    assert (csv_dir / "history.csv").read_bytes() == (csv_dir / "reference.csv").read_bytes()
    assert trainer.read_history(csv_dir / "history.csv") == history


class TestConfig:
    def test_defaults_match_fixed_values(self):
        cfg = trainer.TrainConfig()
        assert cfg.gamma_mod == 2.0
        assert cfg.alpha_lr == 0.001
        assert cfg.beta_fm == 0.90
        assert cfg.beta_sm == 0.99
        assert cfg.max_iterations == 15000
        assert cfg.patience == 100
        assert cfg.ema_decay == 0.9

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            trainer.TrainConfig(loss="mse")
        with pytest.raises(ValueError):
            trainer.TrainConfig(mode="full")
        with pytest.raises(ValueError):
            trainer.TrainConfig(patience=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("alpha_lr", 0.0, "alpha_lr"),
            ("alpha_lr", -1e-3, "alpha_lr"),
            ("alpha_lr", float("nan"), "alpha_lr"),
            ("hidden_widths", (16, 0), "hidden_widths"),
            ("dropout_retention", 0.0, "dropout_retention"),
            ("dropout_retention", 1.5, "dropout_retention"),
            ("gamma_mod", -1.0, "gamma_mod"),
            ("gamma_mod", float("nan"), "gamma_mod"),
            ("gamma_mod", float("inf"), "gamma_mod"),
            ("class_weights", (1.0, 0.0, 1.0), "class_weights"),
            ("class_weights", (1.0, float("nan"), 1.0), "class_weights"),
            ("class_weights", (1.0, float("inf")), "class_weights"),
            ("seed", -1, "seed must be >= 0"),
            ("alpha_lr", True, "^alpha_lr must be a number$"),
            ("alpha_lr", "0.1", "^alpha_lr must be a number$"),
            ("gamma_mod", "2", "^gamma_mod must be a number$"),
            ("dropout_retention", True, "^dropout_retention must be a number$"),
            ("beta_fm", "0.9", "^beta_fm must be a number$"),
            ("beta_sm", None, "^beta_sm must be a number$"),
            ("ema_decay", False, "^ema_decay must be a number$"),
            ("class_weights", ("2", 1.0, 1.0), "^class_weights must be a number$"),
            ("class_weights", (1.0, True, 1.0), "^class_weights must be a number$"),
        ],
    )
    def test_rejects_bad_numeric_fields(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            trainer.TrainConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("beta_fm", 1.0),
            ("beta_fm", 1.5),
            ("beta_fm", -0.1),
            ("beta_fm", float("nan")),
            ("beta_sm", 1.0),
            ("beta_sm", -0.1),
            ("beta_sm", float("nan")),
        ],
    )
    def test_rejects_moment_rates_outside_the_unit_interval(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must lie in \[0, 1\)$"):
            trainer.TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_rejects_infinite_learning_rate(self, value):
        with pytest.raises(ValueError, match="^alpha_lr must be finite and > 0$"):
            trainer.TrainConfig(alpha_lr=value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", 1.5),
            ("seed", 2.0),
            ("seed", True),
            ("batch_size", 1.5),
            ("max_iterations", 3.5),
            ("patience", 2.5),
            ("patience", False),
            ("hidden_widths", (2.7,)),
            ("hidden_widths", (8, True)),
        ],
    )
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must .*be .*integers?"):
            trainer.TrainConfig(**{field: value})

    def test_accepts_integer_and_numpy_reals(self):
        cfg = trainer.TrainConfig(alpha_lr=np.float64(0.01), gamma_mod=1, class_weights=(1, np.float32(2.0), 3.5))
        assert cfg.gamma_mod == 1 and cfg.class_weights == (1, 2.0, 3.5)

    def test_accepts_numpy_integers(self):
        cfg = trainer.TrainConfig(seed=np.int64(3), hidden_widths=(np.int32(4),))
        assert cfg.seed == 3 and cfg.hidden_widths == (4,)

    def test_a_model_of_numpy_scalars_round_trips(self, tmp_path):
        train_set, val_set = _separable_sets(seed=3)
        cfg = trainer.TrainConfig(hidden_widths=(np.int32(4),), dropout_retention=np.float32(0.8), max_iterations=5)
        params, _ = trainer.train(cfg, train_set, val_set)
        save_params(params, tmp_path / "model.json")
        loaded = load_params(tmp_path / "model.json")
        assert loaded.specs == params.specs
        assert loaded.vector.tobytes() == params.vector.tobytes()

    def test_config_from_dict_keeps_width_types(self):
        with pytest.raises(ValueError, match="hidden_widths must be integers"):
            trainer.config_from_dict({"hidden_widths": [2.7]})
        assert trainer.config_from_dict({"hidden_widths": [4, 2]}).hidden_widths == (4, 2)

    def test_accepts_edge_values(self):
        cfg = trainer.TrainConfig(hidden_widths=(), dropout_retention=1.0, alpha_lr=1e-9)
        assert cfg.hidden_widths == ()

    def test_config_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            trainer.config_from_dict({"loss": "ce", "learning_rate": 0.1})
        cfg = trainer.config_from_dict({"loss": "ce", "hidden_widths": [4, 4]})
        assert cfg.hidden_widths == (4, 4)
