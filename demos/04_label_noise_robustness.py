"""What 20% wrong reference labels do to different objectives.

The candidate-label machinery never trusts the reference label alone: the
loss couples posteriors to priors, so flipped labels barely move it.  A
purely label-driven loss (weighted focal) has no such anchor.  These are
the seed-0 runs of acceptance criterion 10 (kellyfe.experiments).
"""

from kellyfe import experiments

noisy, _ = experiments.datasets(seed=0, flip=experiments.LABEL_FLIP)
print("labels flipped:", int((noisy.reference_labels != noisy.true_labels).sum()), "of", len(noisy))

for loss, mode in (("efe", "grpr"), ("wfocal", "grnp")):
    f1_clean = experiments.run(loss, mode, seed=0)[0].macro_f1
    f1_noisy = experiments.run(loss, mode, seed=0, flip=experiments.LABEL_FLIP)[0].macro_f1
    print(f"{loss}-{mode}: clean {f1_clean:.3f} -> flipped {f1_noisy:.3f}  (degradation {f1_clean - f1_noisy:+.3f})")

# Typical outcome: the prior-anchored objective loses almost nothing while
# the label-only objective drops by a large margin -- the flipped labels
# actively teach it the wrong class regions.
