"""Minimal fully connected classifier with hand-written forward/backward.

Layers are affine maps followed by a PReLU (or identity) activation and
optional inverted dropout.  Everything is float64 numpy.  ``forward`` runs
feature-major, on (width, N) arrays; ``backward`` reads its cache as
(N, width) views.  The parameters are one flat vector with per-layer views
into it, so the optimizer, gradient checking and exact JSON round-tripping
all work on the same array, and the gradient comes back in the same layout.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

FORMAT_VERSION = 1
PRELU_INIT = 0.15


class StaleCacheError(ValueError):
    """backward() received no cache, or one from another forward pass or from before a parameter change."""


@dataclass(frozen=True)
class LayerSpec:
    input_width: int
    output_width: int
    activation: str = "prelu"  # "prelu" or "linear"
    dropout_retention: float = 1.0

    def __post_init__(self):
        widths = (self.input_width, self.output_width)
        if not all(isinstance(w, numbers.Integral) and not isinstance(w, bool) for w in widths):
            raise ValueError("layer widths must be integers")
        if min(widths) < 1:
            raise ValueError("layer widths must be >= 1")
        if self.activation not in ("prelu", "linear"):
            raise ValueError(f"unknown activation {self.activation!r}")
        retention = self.dropout_retention
        if isinstance(retention, bool) or not (isinstance(retention, numbers.Real) and 0.0 < retention <= 1.0):
            raise ValueError("dropout_retention must lie in (0, 1]")
        # numpy scalars (a TrainConfig takes them) are stored as the Python numbers that to_json can write
        for name in ("input_width", "output_width", "dropout_retention"):
            if isinstance(value := getattr(self, name), np.generic):
                object.__setattr__(self, name, value.item())


@dataclass(frozen=True)
class LayerParams:
    """Views of one layer's slice of the parameter vector, in its order.

    Weights (out, in) row-major, biases (out,) and the PReLU leakage (0-d).
    Write through the views: ``weights[...] = w``.
    """

    weights: np.ndarray
    biases: np.ndarray
    prelu_leakage: np.ndarray


def _vector_size(specs) -> int:
    return sum(s.output_width * (s.input_width + 1) + 1 for s in specs)


def _layer_views(vector: np.ndarray, specs) -> list[LayerParams]:
    expected = _vector_size(specs)
    if vector.shape != (expected,):
        raise ValueError(f"vector shape {vector.shape} does not match the layer specs ({expected},)")
    layers = []
    offset = 0
    for s in specs:
        nw = s.output_width * s.input_width
        w = vector[offset : offset + nw].reshape(s.output_width, s.input_width)
        b = vector[offset + nw : offset + nw + s.output_width]
        offset += nw + s.output_width
        layers.append(LayerParams(weights=w, biases=b, prelu_leakage=vector[offset, ...]))
        offset += 1
    return layers


@dataclass(frozen=True)
class NetworkParams:
    """One flat float64 parameter vector and per-layer views into it."""

    specs: tuple[LayerSpec, ...]
    vector: np.ndarray
    layers: list[LayerParams] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", _layer_views(self.vector, self.specs))


@dataclass
class _LayerCache:
    inputs: np.ndarray
    pre_activation: np.ndarray
    mask: np.ndarray | None


@dataclass
class ForwardCache:
    """The layers of one training=True forward pass and the bytes of the parameter vector it ran on."""

    params: NetworkParams
    layers: list[_LayerCache] = field(default_factory=list)
    vector: bytes = field(init=False)

    def __post_init__(self):
        self.vector = self.params.vector.tobytes()


def init_he(specs, seed: int) -> NetworkParams:
    """He initialization: weights ~ N(0, 2/fan_in), zero biases, leakage 0.15."""
    specs = tuple(specs)
    for prev, nxt in zip(specs, specs[1:]):
        if prev.output_width != nxt.input_width:
            raise ValueError("adjacent layer widths do not chain")
    rng = np.random.default_rng(seed)
    try:  # numpy refuses a size past its limit before allocating; one the host refuses is a MemoryError
        vector = np.zeros(_vector_size(specs))
    except ValueError as exc:
        raise MemoryError(f"{_vector_size(specs)} parameters: {exc}") from None
    params = NetworkParams(specs, vector)
    for s, lp in zip(specs, params.layers):
        lp.weights[...] = rng.normal(0.0, np.sqrt(2.0 / s.input_width), (s.output_width, s.input_width))
        lp.prelu_leakage[...] = PRELU_INIT
    return params


def _prelu(z: np.ndarray, leakage, out=None) -> np.ndarray:
    """PReLU by max/min in one array and with ``z`` kept; see ``forward``.

    ``leakage * z`` goes into ``out`` (a new array if None), and the max/min
    of ``z`` and it is written over it.  A NaN leakage would give NaN at
    every positive z, where ``where`` gives z, so ``from_json`` rejects one.
    """
    pick = np.maximum if leakage <= 1.0 else np.minimum
    product = np.multiply(leakage, z, out=out)
    return pick(z, product, out=product)


def _inference_buffers(specs, n: int) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Per layer, (width, n) arrays for ``_run_layers``: the pre-activation and, for a PReLU layer, the activation."""
    return [
        (np.empty((s.output_width, n)), np.empty((s.output_width, n)) if s.activation == "prelu" else None) for s in specs
    ]


def _run_layers(params: NetworkParams, h: np.ndarray, buffers=None, cache: ForwardCache | None = None, seed: int = 0):
    """The (N, K) logits of the (d, N) transposed features ``h``: the one layer loop of every forward pass.

    Each layer computes ``weights @ h`` into a (width, N) pre-activation,
    adds its biases and activates into a second array (``_prelu``), so the
    pre-activation survives.  Given a ``ForwardCache`` the pass is a
    training one: it applies dropout and appends each layer's (N, width)
    views to the cache.  Given ``_inference_buffers`` of these specs and N,
    both arrays of each layer are written into them by the same operations
    on the same operands, so the logits keep their bits; they are then a
    view of the last buffer, valid until its next use.
    """
    rng = None
    for spec, lp, (z, act) in zip(params.specs, params.layers, buffers or [(None, None)] * len(params.specs)):
        z = np.matmul(lp.weights, h, out=z)
        z += lp.biases[:, None]
        act = _prelu(z, lp.prelu_leakage, out=act) if spec.activation == "prelu" else z
        if cache is not None:
            mask = None
            if spec.dropout_retention < 1.0:
                rng = rng or np.random.default_rng(seed)
                mask = (rng.random(act.shape[::-1]) < spec.dropout_retention) / spec.dropout_retention
                act = act * mask.T
            cache.layers.append(_LayerCache(inputs=h.T, pre_activation=z.T, mask=mask))
        h = act
    return h.T


def forward(params: NetworkParams, batch_features, training: bool = False, seed: int = 0):
    """Run a batch through the network; returns (logits, cache).

    The pass is feature-major (``_run_layers``): each layer computes
    ``weights @ h`` on the transposed (N, d) features or the previous
    (width, N) activation into a C-ordered (width, N) array, then adds its
    biases as a column.  The (N, K) logits are the transpose of the last
    one, which the loss kernels read without a copy.  Only a
    ``training=True`` pass builds the cache that ``backward`` needs, of
    (N, width) transposed views; an inference pass returns
    ``(logits, None)``.  Both modes run the same loop on the same operands.

    PReLU is ``max(z, a*z)`` for a leakage ``a <= 1`` and ``min(z, a*z)``
    above 1 (``_prelu``).  That has the bits of ``where(z > 0, z, a*z)`` for
    every finite leakage and finite pre-activation, signed zeros and an
    ``a*z`` that overflows to +-inf included; only z = +-inf with a = +-0
    differs (0*inf is NaN), and such logits are non-finite either way.

    During training, dropout keeps each activation with its layer's
    retention probability and rescales survivors by 1/retention, so
    inference needs no weight rescaling; each mask is drawn (N, width).
    Retention 1.0 draws no mask and makes the training pass compute the
    inference logits; a network whose layers all have retention 1.0 builds
    no random generator at all.
    """
    h = np.asarray(batch_features, dtype=float).T
    if h.ndim != 2 or h.shape[0] != params.specs[0].input_width:
        raise ValueError(f"features with {h.T.shape} do not match input width {params.specs[0].input_width}")
    cache = ForwardCache(params=params) if training else None
    return _run_layers(params, h, cache=cache, seed=seed), cache


def backward(params: NetworkParams, cache: ForwardCache, grad_logits, out: NetworkParams | None = None) -> np.ndarray:
    """Backpropagate a logits gradient; returns the parameter gradient.

    ``cache`` comes from a ``training=True`` forward pass on ``params``,
    made since their vector last changed.
    The gradient is one vector in the layout of ``params.vector``, written
    over ``out.vector`` when ``out`` (a ``NetworkParams`` of the same specs)
    is given.  The leakage gradient collects pre-activation * upstream over
    the non-positive-input positions: at an exact kink (z = +-0) the
    leakage side is taken.
    """
    if cache is None:
        raise StaleCacheError("backward needs the cache of a training=True forward pass")
    if cache.params is not params:
        raise StaleCacheError("cache does not belong to these parameters")
    if cache.vector != params.vector.tobytes():
        raise StaleCacheError("cache predates a change to the parameters")
    if out is None:
        out = NetworkParams(params.specs, np.zeros_like(params.vector))
    elif out.specs != params.specs:
        raise ValueError("out does not have the layout of params")
    d = np.asarray(grad_logits, dtype=float)
    layers = enumerate(zip(params.specs, params.layers, out.layers, cache.layers))
    for i, (spec, lp, gl, lc) in reversed(list(layers)):
        if d.shape != (lc.inputs.shape[0], spec.output_width):
            raise ValueError("upstream gradient shape mismatch")
        if lc.mask is not None:
            d = d * lc.mask
        if spec.activation == "prelu":
            negative = lc.pre_activation <= 0.0
            gl.prelu_leakage[...] = (lc.pre_activation * d)[negative].sum()
            d = d * np.where(negative, lp.prelu_leakage, 1.0)
        else:
            gl.prelu_leakage[...] = 0.0
        gl.weights[...] = d.T @ lc.inputs
        gl.biases[...] = d.sum(axis=0)
        if i:
            d = d @ lp.weights
    return out.vector


def to_json(params: NetworkParams) -> str:
    """Each layer's spec fields, then its parameters in their vector order."""
    doc = {
        "format_version": FORMAT_VERSION,
        "layers": [
            {**asdict(s), **{name: view.tolist() for name, view in vars(lp).items()}}
            for s, lp in zip(params.specs, params.layers)
        ],
    }
    return json.dumps(doc, indent=1)


def from_json(text: str) -> NetworkParams:
    """The network of a ``to_json`` document; a malformed one raises ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("the model document is not a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    if not isinstance(doc.get("layers"), list) or not doc["layers"]:
        raise ValueError("the model document has no list of 'layers'")
    keys = [f.name for f in (*fields(LayerSpec), *fields(LayerParams))]
    for i, entry in enumerate(doc["layers"]):
        if not isinstance(entry, dict):
            raise ValueError(f"layer {i} is not a JSON object")
        if missing := [key for key in keys if key not in entry]:
            raise ValueError(f"layer {i} has no {missing[0]!r}")
    specs = tuple(LayerSpec(**{f.name: entry[f.name] for f in fields(LayerSpec)}) for entry in doc["layers"])
    params = NetworkParams(specs, np.zeros(_vector_size(specs)))
    for i, (entry, lp) in enumerate(zip(doc["layers"], params.layers)):
        for name, view in vars(lp).items():
            try:
                value = np.asarray(entry[name], dtype=float)
            except (TypeError, ValueError):  # an object, a string or a ragged list
                raise ValueError(f"layer {i} {name} is not an array of numbers") from None
            if value.shape != view.shape:
                raise ValueError(f"layer {i} {name} has shape {value.shape}, expected {view.shape}")
            # json reads NaN and Infinity; the max/min PReLU needs a non-NaN leakage
            if not np.isfinite(value).all():
                raise ValueError(f"layer {i} {name} holds a non-finite value")
            view[...] = value
    return params


def save_params(params: NetworkParams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(params))
        fh.write("\n")


def load_params(path) -> NetworkParams:
    with open(path, encoding="utf-8") as fh:
        return from_json(fh.read())
