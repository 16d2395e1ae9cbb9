"""Generalized-Kelly candidate labels and free-energy classification losses.

The kelly module solves the multi-outcome optimal-betting problem in closed
form and carries its own brute-force grid oracle; losses provides the
expected-free-energy objective together with the cross-entropy family, the
Dice surrogate, and the Lovasz-Softmax loss, all with analytic gradients in
the logits and all reached through the ``LOSSES`` table;
network/optimizer/data/trainer form a desk-scale training harness around
them, and verify replays the math against independent oracles.
"""

from .kelly import (
    KellySolution,
    brute_force_oracle,
    candidate_labels,
    kelly_objective_value,
    log_growth,
)
from .losses import (
    LOSSES,
    LossEntry,
    LossEvaluation,
    jaccard_distance_set,
    lovasz_extension,
    lovasz_grad,
    lovasz_softmax,
    softmax,
    vfe_decompose,
)
from .network import LayerSpec, NetworkParams, backward, forward, init_he, load_params, save_params
from .optimizer import AdamState, adam_step, init_adam
from .data import Dataset, batches, corrupt_labels, generate, load_dataset, save_dataset, synthesize_priors
from .trainer import MetricsReport, TrainConfig, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "Dataset",
    "KellySolution",
    "LOSSES",
    "LayerSpec",
    "LossEntry",
    "LossEvaluation",
    "MetricsReport",
    "NetworkParams",
    "TrainConfig",
    "adam_step",
    "backward",
    "batches",
    "brute_force_oracle",
    "candidate_labels",
    "corrupt_labels",
    "evaluate",
    "forward",
    "generate",
    "init_adam",
    "init_he",
    "jaccard_distance_set",
    "kelly_objective_value",
    "load_dataset",
    "load_params",
    "log_growth",
    "lovasz_extension",
    "lovasz_grad",
    "lovasz_softmax",
    "save_dataset",
    "save_params",
    "softmax",
    "synthesize_priors",
    "train",
    "vfe_decompose",
]
