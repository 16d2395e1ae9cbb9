"""Every classification objective evaluated on one small labeled batch.

Each trainable loss is an entry of the LOSSES table; its ``evaluate`` maps
(N, K) logits and labels (plus priors and a candidate mask for the
expected-free-energy loss) to a scalar plus an analytic gradient in the
logits.  The Dice and Lovasz-Softmax losses are defined on the posteriors
softmax(logits).  The finite-difference probe at the end shows why the
gradients can be trusted.
"""

import numpy as np

from kellyfe import LOSSES, candidate_labels, softmax
from kellyfe.verify import finite_difference_gradient, relative_gradient_error

rng = np.random.default_rng(0)
n, k = 6, 3

logits = rng.standard_normal((n, k)) * 1.5
posteriors = softmax(logits)
labels = np.zeros((n, k))
labels[np.arange(n), rng.integers(0, k, n)] = 1.0
priors = np.vstack([rng.dirichlet(np.ones(k)) for _ in range(n)])

# The weighted losses weight each class by (batch size) / (class count).
print("batch class counts:", labels.sum(axis=0))

# The expected-free-energy loss also needs per-sample candidate sets.
mask = candidate_labels(priors, posteriors, reference_label=labels.argmax(axis=1)).mask

evaluations = {name: entry.evaluate(logits, labels, priors, mask, gamma_mod=2.0) for name, entry in LOSSES.items()}
for name, ev in evaluations.items():
    print(f"{name:8s} value {ev.value:+.4f}   |grad| {np.abs(ev.grad_logits).max():.4f}")
efe = evaluations["efe"]
print(f"  efe terms: uncertainty {efe.uncertainty:.4f} + complexity {efe.expected_complexity:.4f}")

# gamma = 0 switches the focal modulation off entirely, bit for bit:
ce = LOSSES["ce"].evaluate(logits, labels)
focal0 = LOSSES["focal"].evaluate(logits, labels, gamma_mod=0.0)
assert focal0.value == ce.value and focal0.grad_logits.tobytes() == ce.grad_logits.tobytes()

# unit class weights make the weighted variants collapse onto the plain ones:
assert LOSSES["wce"].evaluate(logits, labels, class_weights=np.ones(k)).value == ce.value

# and every analytic gradient agrees with central finite differences:
print("\nfinite-difference check (relative error):")
for name in ("ce", "lovasz", "efe"):
    def value_at(flat, entry=LOSSES[name]):
        return entry.evaluate(flat.reshape(n, k), labels, priors, mask).value

    numeric = finite_difference_gradient(value_at, logits.ravel())
    analytic = evaluations[name].grad_logits.ravel()
    print(f"{name:8s} {relative_gradient_error(analytic, numeric):.2e}")
