"""Forward/backward correctness, dropout behaviour, and exact persistence."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from kellyfe import losses
from kellyfe.network import (
    ForwardCache,
    LayerSpec,
    NetworkParams,
    StaleCacheError,
    _LayerCache,
    _inference,
    _inference_buffers,
    _prelu,
    backward,
    forward,
    from_json,
    init_he,
    load_params,
    save_params,
    to_json,
)
from kellyfe.optimizer import adam_step, init_adam
from kellyfe.verify import finite_difference_gradient, relative_gradient_error


class TestInitHe:
    def test_weight_scale_for_wide_fan_in(self):
        params = init_he([LayerSpec(2000, 8)], seed=3)
        std = params.layers[0].weights.std()
        np.testing.assert_allclose(std, np.sqrt(2.0 / 2000.0), rtol=0.03)
        np.testing.assert_allclose(std, 0.0316, atol=2e-3)

    def test_biases_zero_and_leakage_initial(self):
        params = init_he([LayerSpec(4, 6), LayerSpec(6, 2)], seed=0)
        for lp in params.layers:
            assert np.all(lp.biases == 0.0)
            assert lp.prelu_leakage == 0.15

    def test_same_seed_is_bit_identical(self):
        specs = [LayerSpec(3, 5), LayerSpec(5, 2)]
        a = init_he(specs, seed=11)
        b = init_he(specs, seed=11)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_rejects_unchained_widths(self):
        with pytest.raises(ValueError):
            init_he([LayerSpec(3, 5), LayerSpec(4, 2)], seed=0)


class TestForward:
    def test_identity_linear_layer(self):
        params = init_he([LayerSpec(3, 3, activation="linear")], seed=0)
        params.layers[0].weights[...] = np.eye(3)
        x = np.random.default_rng(0).standard_normal((4, 3))
        logits, _ = forward(params, x)
        np.testing.assert_array_equal(logits, x)

    def test_prelu_negative_leakage(self):
        params = init_he([LayerSpec(1, 1)], seed=0)
        params.layers[0].weights[...] = np.array([[1.0]])
        logits, _ = forward(params, [[-2.0]])
        np.testing.assert_allclose(logits, [[-0.3]], atol=1e-12)

    def test_full_retention_training_equals_inference(self):
        params = init_he([LayerSpec(3, 4, dropout_retention=1.0), LayerSpec(4, 2)], seed=1)
        x = np.random.default_rng(1).standard_normal((5, 3))
        train_logits, _ = forward(params, x, training=True, seed=7)
        infer_logits, cache = forward(params, x, training=False)
        assert train_logits.tobytes() == infer_logits.tobytes()
        assert cache is None

    def test_full_retention_training_builds_no_generator(self, monkeypatch):
        params = init_he([LayerSpec(3, 4), LayerSpec(4, 4), LayerSpec(4, 2, activation="linear")], seed=1)

        def no_generator(*args, **kwargs):
            raise AssertionError("a dropout-free forward pass built a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        logits, cache = forward(params, np.ones((5, 3)), training=True, seed=7)
        assert logits.shape == (5, 2)
        assert all(lc.mask is None for lc in cache.layers)

    def test_dropout_reproducible_and_scale_preserving(self):
        retention = 0.7
        params = init_he([LayerSpec(2, 1, activation="linear", dropout_retention=retention)], seed=2)
        params.layers[0].weights[...] = np.array([[1.0, 1.0]])
        x = np.ones((10000, 2))
        a, _ = forward(params, x, training=True, seed=123)
        b, _ = forward(params, x, training=True, seed=123)
        np.testing.assert_array_equal(a, b)
        # inverted dropout keeps the expected activation scale
        np.testing.assert_allclose(a.mean(), 2.0, rtol=0.05)
        kept = a != 0.0
        np.testing.assert_allclose(kept.mean(), retention, rtol=0.05)

    def test_shape_mismatch(self):
        params = init_he([LayerSpec(3, 2)], seed=0)
        with pytest.raises(ValueError):
            forward(params, np.zeros((4, 5)))

    def test_inference_peaks_at_two_hidden_arrays(self):
        params = init_he([LayerSpec(2, 16), LayerSpec(16, 3, activation="linear")], seed=0)
        x = np.random.default_rng(0).standard_normal((2000, 2))
        hidden_bytes = 2000 * 16 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            logits, _ = forward(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert logits.shape == (2000, 3)
        # the pre-activation and one leakage * z temporary
        assert peak - base <= 2.1 * hidden_bytes

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("n", [1, 32, 300, 2000])
    def test_logits_are_class_major_with_the_bits_of_a_row_bias_add(self, n, training):
        # the reference is the feature-major pass: W @ h on (width, N) arrays,
        # each bias added along its row; at N = 300 and width 16 or K = 20 a
        # sample-major x @ W.T rounds differently
        x = np.random.default_rng(n).standard_normal((n, 2))
        for widths in ([2, 16, 3], [2, 8, 8, 3], [2, 16, 20]):
            params = init_he(_specs(widths), seed=0)
            params.vector[:] = np.random.default_rng(1).standard_normal(params.vector.size)
            h = x.T
            for spec, lp in zip(params.specs, params.layers):
                z = lp.weights @ h
                z += lp.biases[:, None]
                h = where_prelu(z, lp.prelu_leakage) if spec.activation == "prelu" else z
            logits, _ = forward(params, x, training=training)
            assert logits.T.flags.c_contiguous
            assert logits.tobytes() == h.T.tobytes()
            if not training:
                # buffers held across passes, as the trainer's validation pass holds them
                buffers = _inference_buffers(params.specs, n)
                for fill in (np.nan, -np.inf):
                    for pair in buffers:
                        for buffer in pair:
                            if buffer is not None:
                                buffer.fill(fill)
                    held = _inference(params, x.T, buffers)
                    assert held.T.flags.c_contiguous and held.tobytes() == h.T.tobytes()

    def test_dropout_masks_are_drawn_sample_major_layer_by_layer(self):
        retention = 0.7
        params = init_he(_specs([3, 8, 5, 2], retention), seed=3)
        x = np.random.default_rng(3).standard_normal((40, 3))
        _, cache = forward(params, x, training=True, seed=11)
        rng = np.random.default_rng(11)
        for spec, lc in zip(params.specs[:-1], cache.layers):
            expected = (rng.random((40, spec.output_width)) < retention) / retention
            assert lc.mask.shape == expected.shape
            assert lc.mask.tobytes() == expected.tobytes()
        assert cache.layers[-1].mask is None


def _specs(widths, retention=1.0):
    """PReLU hidden layers of the given widths, then a linear output layer."""
    hidden = [LayerSpec(a, b, dropout_retention=retention) for a, b in zip(widths[:-2], widths[1:-1])]
    return [*hidden, LayerSpec(widths[-2], widths[-1], activation="linear")]


LEAKAGES = (-2.0, -0.5, -0.0, 0.0, 0.15, 1.0, np.nextafter(1.0, 2.0), 1.5, 3.0)
# leakage * 1e300 overflows to +-inf for |leakage| > 1
PRE_ACTIVATIONS = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, 0.3, -0.3, 2.5, -7.0]
)


def where_prelu(z, leakage):
    return np.where(z > 0.0, z, leakage * z)


class TestPrelu:
    @pytest.mark.parametrize("leakage", LEAKAGES)
    def test_max_min_form_has_the_bits_of_where(self, leakage):
        leak = np.array(leakage)
        # 9 rows: numpy's vector loops and their scalar tails
        z = np.tile(PRE_ACTIVATIONS, (9, 1))
        expected = where_prelu(z, leak).tobytes()
        with np.errstate(over="ignore"):
            assert _prelu(z, leak).tobytes() == expected
            in_place = z.copy()
            assert _prelu(in_place, leak, out=in_place) is in_place
        assert in_place.tobytes() == expected

    @pytest.mark.parametrize("leakage", LEAKAGES)
    def test_forward_has_the_bits_of_where_in_both_modes(self, leakage):
        # weights 0 and input 1 make the pre-activations equal the biases;
        # a matmul's zero is +0.0, so -0.0 cannot reach a pre-activation here
        values = PRE_ACTIVATIONS[(PRE_ACTIVATIONS != 0.0) | ~np.signbit(PRE_ACTIVATIONS)]
        params = init_he([LayerSpec(1, values.size)], seed=0)
        layer = params.layers[0]
        layer.weights[...] = 0.0
        layer.biases[...] = values
        layer.prelu_leakage[...] = leakage
        x = np.ones((9, 1))
        z = np.tile(values, (9, 1))
        with np.errstate(over="ignore"):
            expected = where_prelu(z, layer.prelu_leakage).tobytes()
            infer, _ = forward(params, x, training=False)
            train, cache = forward(params, x, training=True)
        assert cache.layers[0].pre_activation.tobytes() == z.tobytes()
        assert infer.tobytes() == expected
        assert train.tobytes() == expected


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        params = init_he([LayerSpec(3, 4), LayerSpec(4, 2)], seed=4)
        x = np.random.default_rng(4).standard_normal((6, 3))
        logits, cache = forward(params, x, training=True)
        grad = backward(params, cache, np.zeros_like(logits))
        assert grad.shape == params.vector.shape
        assert np.all(grad == 0.0)

    def test_single_linear_layer_outer_product(self):
        params = init_he([LayerSpec(3, 2, activation="linear")], seed=5)
        x = np.array([[1.0, -2.0, 0.5]])
        logits, cache = forward(params, x, training=True)
        upstream = np.array([[0.3, -0.7]])
        grad = backward(params, cache, upstream)
        # layout: 2x3 weights row-major, 2 biases, the leakage
        np.testing.assert_allclose(grad[:6].reshape(2, 3), np.outer(upstream[0], x[0]), atol=1e-12)
        np.testing.assert_allclose(grad[6:8], upstream[0], atol=1e-12)
        assert grad[8] == 0.0

    def test_two_layer_gradient_against_finite_differences(self):
        specs = (LayerSpec(3, 4), LayerSpec(4, 3, activation="linear"))
        rng = np.random.default_rng(6)
        params = init_he(specs, seed=6)
        x = rng.standard_normal((2, 3))
        labels = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

        def value_at(theta):
            p = NetworkParams(specs, theta)
            logits, _ = forward(p, x)
            return losses.LOSSES["ce"].evaluate(logits, labels).value

        logits, cache = forward(params, x, training=True)
        ev = losses.LOSSES["ce"].evaluate(logits, labels)
        analytic = backward(params, cache, ev.grad_logits)
        numeric = finite_difference_gradient(value_at, params.vector, 1e-6)
        assert relative_gradient_error(analytic, numeric) <= 1e-5

    def test_gradient_with_active_dropout_mask(self):
        # a fixed dropout seed makes the training pass a deterministic
        # function of the parameters, so finite differences still apply
        specs = (LayerSpec(3, 8, dropout_retention=0.6), LayerSpec(8, 2, activation="linear"))
        params = init_he(specs, seed=7)
        x = np.random.default_rng(7).standard_normal((4, 3))
        labels = np.tile([[1.0, 0.0]], (4, 1))

        def value_at(theta):
            p = NetworkParams(specs, theta)
            logits, _ = forward(p, x, training=True, seed=99)
            return losses.LOSSES["ce"].evaluate(logits, labels).value

        logits, cache = forward(params, x, training=True, seed=99)
        ev = losses.LOSSES["ce"].evaluate(logits, labels)
        analytic = backward(params, cache, ev.grad_logits)
        numeric = finite_difference_gradient(value_at, params.vector, 1e-6)
        assert relative_gradient_error(analytic, numeric) <= 1e-5

    def test_prelu_leakage_gradient(self):
        spec = (LayerSpec(1, 1),)
        params = init_he(spec, seed=8)
        params.layers[0].weights[...] = np.array([[1.0]])
        x = np.array([[-3.0]])
        logits, cache = forward(params, x, training=True)
        grad = backward(params, cache, np.array([[2.0]]))
        # d(a * x)/da * upstream = x * upstream at negative pre-activations;
        # the leakage follows the weight and the bias
        assert grad[2] == -6.0

    @pytest.mark.parametrize("kink", [0.0, -0.0])
    def test_exact_kink_takes_the_leakage_side(self, kink):
        # a matmul never yields -0.0, so the cache is built by hand
        params = init_he([LayerSpec(1, 1)], seed=8)
        x = np.array([[1.0]])
        z = np.array([[kink]])
        cache = ForwardCache(params, [_LayerCache(inputs=x, pre_activation=z, mask=None)])
        grad = backward(params, cache, np.array([[2.0]]))
        scaled = 2.0 * float(params.layers[0].prelu_leakage)
        # layout: weight, bias, leakage
        assert grad[0] == scaled
        assert grad[1] == scaled
        assert grad[2] == 0.0

    @pytest.mark.parametrize("n", [1, 32, 300, 2000])
    @pytest.mark.parametrize("retention", [1.0, 0.7])
    def test_transposed_views_give_the_bits_of_c_ordered_copies(self, n, retention):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 3))
        for widths in ([3, 16, 3], [3, 8, 8, 3], [3, 16, 20]):
            params = init_he(_specs(widths, retention), seed=4)
            params.vector[:] = 0.5 * rng.standard_normal(params.vector.size)
            logits, cache = forward(params, x, training=True, seed=5)
            copies = ForwardCache(params, [
                _LayerCache(*(None if a is None else np.ascontiguousarray(a) for a in vars(lc).values()))
                for lc in cache.layers
            ])
            assert n == 1 or not any(lc.pre_activation.flags.c_contiguous for lc in cache.layers)
            # C-ordered, as batch_loss hands it over
            upstream = rng.standard_normal(logits.shape)
            assert backward(params, cache, upstream).tobytes() == backward(params, copies, upstream).tobytes()

    def test_inference_cache_rejected(self):
        params = init_he([LayerSpec(2, 2)], seed=9)
        _, cache = forward(params, np.zeros((1, 2)), training=False)
        with pytest.raises(StaleCacheError, match="^backward needs the cache of a training=True forward pass$"):
            backward(params, cache, np.zeros((1, 2)))

    def test_stale_cache_rejected(self):
        params = init_he([LayerSpec(2, 2)], seed=9)
        other = init_he([LayerSpec(2, 2)], seed=10)
        _, cache = forward(params, np.zeros((1, 2)), training=True)
        with pytest.raises(StaleCacheError):
            backward(other, cache, np.zeros((1, 2)))
        # an in-place Adam step keeps the parameter object but changes its vector
        adam_step(init_adam(params.vector.size), params.vector, np.ones_like(params.vector))
        with pytest.raises(StaleCacheError, match="^cache predates a change to the parameters$"):
            backward(params, cache, np.zeros((1, 2)))
        _, cache = forward(params, np.zeros((1, 2)), training=True)
        backward(params, cache, np.zeros((1, 2)))

    @pytest.mark.parametrize("retention", [1.0, 0.7])
    def test_out_is_filled_like_a_fresh_gradient(self, retention):
        specs = (
            LayerSpec(3, 5, dropout_retention=retention),
            LayerSpec(5, 4, dropout_retention=retention),
            LayerSpec(4, 3, activation="linear"),
        )
        params = init_he(specs, seed=12)
        rng = np.random.default_rng(12)
        out = NetworkParams(specs, np.full_like(params.vector, np.nan))
        for step in range(3):
            x = rng.standard_normal((7, 3))
            logits, cache = forward(params, x, training=True, seed=step)
            upstream = rng.standard_normal(logits.shape)
            fresh = backward(params, cache, upstream)
            # a NaN-filled, then a reused out: no entry may keep an old value
            filled = backward(params, cache, upstream, out=out)
            assert filled is out.vector
            assert filled.tobytes() == fresh.tobytes()
            params.vector[...] += 0.01 * fresh

    def test_out_of_other_specs_rejected(self):
        params = init_he([LayerSpec(2, 2)], seed=9)
        _, cache = forward(params, np.zeros((1, 2)), training=True)
        other = init_he([LayerSpec(2, 3)], seed=9)
        with pytest.raises(ValueError, match="layout"):
            backward(params, cache, np.zeros((1, 2)), out=other)


class TestPersistence:
    def test_round_trip_is_exact(self, tmp_path):
        params = init_he(
            [LayerSpec(3, 5, dropout_retention=0.8), LayerSpec(5, 2, activation="linear")],
            seed=12,
        )
        path = tmp_path / "model.json"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.specs == params.specs
        for la, lb in zip(params.layers, loaded.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)
            assert la.prelu_leakage == lb.prelu_leakage

    def test_numpy_scalar_specs_round_trip(self, tmp_path):
        specs = [LayerSpec(np.int64(2), 3, dropout_retention=np.float32(0.8)), LayerSpec(3, np.int32(2), activation="linear")]
        assert [type(v) for v in dataclasses.astuple(specs[0])] == [int, int, str, float]
        params = init_he(specs, seed=13)
        save_params(params, tmp_path / "model.json")
        loaded = load_params(tmp_path / "model.json")
        assert loaded.specs == params.specs
        assert loaded.vector.tobytes() == params.vector.tobytes()

    def test_layer_key_order(self):
        params = init_he([LayerSpec(2, 3), LayerSpec(3, 2, activation="linear")], seed=0)
        doc = json.loads(to_json(params))
        assert list(doc) == ["format_version", "layers"]
        for layer in doc["layers"]:
            assert list(layer) == [
                "input_width",
                "output_width",
                "activation",
                "dropout_retention",
                "weights",
                "biases",
                "prelu_leakage",
            ]
            assert type(layer["prelu_leakage"]) is float

    def test_rejects_unknown_version(self):
        params = init_he([LayerSpec(2, 2)], seed=0)
        text = to_json(params).replace('"format_version": 1', '"format_version": 99')
        with pytest.raises(ValueError):
            from_json(text)

    @pytest.mark.parametrize("name", ["weights", "biases", "prelu_leakage"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_from_json_rejects_non_finite_values(self, name, bad):
        params = init_he([LayerSpec(2, 3), LayerSpec(3, 2)], seed=0)
        doc = json.loads(to_json(params))
        if name == "prelu_leakage":
            doc["layers"][1][name] = bad
        else:
            doc["layers"][1][name] = np.full(np.shape(doc["layers"][1][name]), bad).tolist()
        with pytest.raises(ValueError, match=f"^layer 1 {name} holds a non-finite value$"):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "defect, message",
        [
            (lambda d: d["layers"][1].update(input_width=2.0), "^layer widths must be integers$"),
            (lambda d: d["layers"][1].update(output_width=2.5), "^layer widths must be integers$"),
            (lambda d: d["layers"][0].update(input_width=True), "^layer widths must be integers$"),
            (lambda d: d["layers"][0].update(dropout_retention="1"), r"^dropout_retention must lie in \(0, 1\]$"),
            (lambda d: d["layers"][1].pop("biases"), "^layer 1 has no 'biases'$"),
            (lambda d: d.pop("layers"), "^the model document has no list of 'layers'$"),
            (lambda d: d["layers"].clear(), "^the model document has no list of 'layers'$"),
            (lambda d: d["layers"][0].update(weights={}), "^layer 0 weights is not an array of numbers$"),
            (lambda d: d["layers"][1].update(biases=[[1.0], 2.0]), "^layer 1 biases is not an array of numbers$"),
            (lambda d: d["layers"].insert(0, 3), "^layer 0 is not a JSON object$"),
            (lambda d: d.clear(), "^the model document is not a JSON object$"),
        ],
        ids=["float-width", "fractional-width", "bool-width", "string-retention", "no-biases", "no-layers",
             "empty-layers", "object-weights", "ragged-biases", "number-layer", "list-document"],
    )
    def test_from_json_rejects_a_malformed_document(self, defect, message):
        doc = json.loads(to_json(init_he([LayerSpec(2, 3), LayerSpec(3, 2)], seed=0)))
        defect(doc)
        with pytest.raises(ValueError, match=message):
            from_json(json.dumps(doc or []))  # the emptied document stands for a list

    def test_vector_length_must_match_specs(self):
        specs = (LayerSpec(3, 4), LayerSpec(4, 2))
        vector = init_he(specs, seed=13).vector
        assert vector.shape == (4 * 3 + 4 + 1 + 2 * 4 + 2 + 1,)
        for wrong in (vector[:-1], np.append(vector, 0.0)):
            with pytest.raises(ValueError):
                NetworkParams(specs, wrong)


class TestFlatVector:
    def test_layers_are_views_in_vector_layout(self):
        specs = (LayerSpec(3, 4), LayerSpec(4, 2, activation="linear"))
        params = init_he(specs, seed=14)
        parts = [
            np.concatenate([lp.weights.ravel(), lp.biases, [lp.prelu_leakage]])
            for lp in params.layers
        ]
        np.testing.assert_array_equal(np.concatenate(parts), params.vector)
        for lp in params.layers:
            for view in vars(lp).values():
                assert np.shares_memory(view, params.vector)

    def test_writes_through_views_reach_the_vector(self):
        params = init_he([LayerSpec(2, 2)], seed=15)
        params.layers[0].weights[...] = [[1.0, 2.0], [3.0, 4.0]]
        params.layers[0].biases[...] = [5.0, 6.0]
        params.layers[0].prelu_leakage[...] = 7.0
        np.testing.assert_array_equal(params.vector, np.arange(1.0, 8.0))

    def test_views_cannot_be_rebound(self):
        params = init_he([LayerSpec(2, 2)], seed=16)
        with pytest.raises(AttributeError):
            params.layers[0].weights = np.zeros((2, 2))
        with pytest.raises(AttributeError):
            params.vector = np.zeros(7)

    def test_from_json_rejects_a_misshapen_layer(self):
        params = init_he([LayerSpec(2, 3)], seed=17)
        doc = json.loads(to_json(params))
        doc["layers"][0]["weights"] = np.zeros((2, 3)).tolist()  # transposed
        with pytest.raises(ValueError, match="weights has shape"):
            from_json(json.dumps(doc))
