"""Segment a noisy synthetic image and export an entropy uncertainty
heatmap as a PGM file.

Run from the repository root:

    python3 demos/02_uncertainty_heatmap.py

Outputs demo_segmentation.pgm and demo_uncertainty.pgm in the working
directory; uncertainty concentrates along the object boundary.
"""
import numpy as np

import perturbmpm as pm
from perturbmpm.tensorio import entropy_heatmap_image

SIZE = 48

rng = np.random.default_rng(0)
yy, xx = np.mgrid[0:SIZE, 0:SIZE]
disk = ((yy - SIZE // 2) ** 2 + (xx - SIZE // 2) ** 2 <= (SIZE // 3) ** 2)

# Noisy foreground probability: confident inside/outside, ambiguous at the rim.
p1 = np.clip(0.15 + 0.7 * disk + rng.normal(0.0, 0.2, (SIZE, SIZE)),
             0.02, 0.98).ravel()
probs = np.stack([1.0 - p1, p1], axis=1)
model = pm.build_grid_model((SIZE, SIZE), 2,
                            pm.unaries_from_probabilities(probs),
                            [(1.0, 1.5)])

# The exact backend factors the grid kernel per axis, which at 48x48 is
# faster than the approximate lattice filter.
cfg = pm.SamplingConfig(
    n_samples=200, seed=0,
    inference=pm.InferenceConfig(backend="exact"))
samples = pm.perturb_and_mpm(model, cfg)
marginals = pm.empirical_marginals(samples)
labels = pm.mpm_decode(marginals)
entropy = pm.entropy_map(marginals)

pm.write_pgm("demo_segmentation.pgm", labels.reshape(SIZE, SIZE) * 255)
pm.write_pgm("demo_uncertainty.pgm",
             entropy_heatmap_image(entropy, 2, (SIZE, SIZE)))

flagged = entropy > 0.1
accuracy = np.mean(labels == disk.ravel())
print(f"{len(samples)} samples on a {SIZE}x{SIZE} grid")
print(f"segmentation accuracy vs clean disk: {accuracy:.3f}")
print(f"voxels flagged uncertain (entropy > 0.1 bits): {flagged.sum()}")
print("wrote demo_segmentation.pgm and demo_uncertainty.pgm")
