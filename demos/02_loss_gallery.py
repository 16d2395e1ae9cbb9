"""Every classification objective evaluated on one small labeled batch.

Each trainable loss maps (logits, labels) to a scalar plus an analytic
gradient in the logits; the Dice similarity and the Lovasz extension are
defined on the posteriors softmax(logits).  The finite-difference probe at
the end shows why the gradients can be trusted.
"""

import numpy as np

from kellyfe import (
    candidate_labels_batch,
    cross_entropy,
    dice_similarity,
    efe_loss,
    focal,
    lovasz_softmax,
    softmax,
    weighted_cross_entropy,
    weighted_focal,
)
from kellyfe.verify import finite_difference_gradient, relative_gradient_error

rng = np.random.default_rng(0)
n, k = 6, 3

logits = rng.standard_normal((n, k)) * 1.5
posteriors = softmax(logits)
labels = np.zeros((n, k))
labels[np.arange(n), rng.integers(0, k, n)] = 1.0
counts = labels.sum(axis=0)
priors = np.vstack([rng.dirichlet(np.ones(k)) for _ in range(n)])

print("batch class counts:", counts)

evaluations = {
    "cross entropy": cross_entropy(logits, labels),
    "weighted ce": weighted_cross_entropy(logits, labels, None, counts),
    "focal (gamma=2)": focal(logits, labels, 2.0),
    "weighted focal": weighted_focal(logits, labels, None, counts, 2.0),
    "dice similarity": dice_similarity(posteriors, labels),
    "lovasz-softmax": lovasz_softmax(posteriors, labels),
}

# The expected-free-energy loss also needs per-sample candidate sets.
mask, _, _ = candidate_labels_batch(priors, posteriors, fallback_labels=labels.argmax(axis=1))
efe = efe_loss(logits, labels, priors, mask)
evaluations["expected free energy"] = efe

for name, ev in evaluations.items():
    print(f"{name:22s} value {ev.value:+.4f}   |grad| {np.abs(ev.grad_logits).max():.4f}")
print(f"  efe terms: uncertainty {efe.uncertainty:.4f} + complexity {efe.expected_complexity:.4f}")

# gamma = 0 switches the focal modulation off entirely:
assert focal(logits, labels, 0.0).value == cross_entropy(logits, labels).value

# unit class weights make the weighted variants collapse onto the plain ones:
assert weighted_cross_entropy(logits, labels, np.ones(k), counts).value == cross_entropy(logits, labels).value

# and every analytic gradient agrees with central finite differences:
print("\nfinite-difference check (relative error):")
for name, builder in [
    ("cross entropy", lambda z: cross_entropy(z, labels)),
    ("lovasz-softmax", lambda z: lovasz_softmax(softmax(z), labels)),
    ("expected free energy", lambda z: efe_loss(z, labels, priors, mask)),
]:
    numeric = finite_difference_gradient(lambda flat: builder(flat.reshape(n, k)).value, logits.ravel())
    analytic = builder(logits).grad_logits.ravel()
    print(f"{name:22s} {relative_gradient_error(analytic, numeric):.2e}")
