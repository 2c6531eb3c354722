"""Synthetic three-label tumour phantoms with noisy classifier maps.

Label 0 is background, 1 tumour, 2 the tumour's core.  Each border is a
circle whose radius is modulated by a few random angular harmonics, so
the outlines are irregular.  The classifier's per-label logits are the
one-hot truth scaled by ``SIGNAL`` plus spatially smoothed Gaussian
noise; their softmax, quantised to 8-bit maps with a floor of 1/255,
becomes the model's prob_map input.
"""
from __future__ import annotations

import numpy as np

from reference import axis_kernels, separable_filter

N_LABELS = 3
SIGNAL = 2.0          # logit margin of the true label
NOISE_STD = 1.3       # std of the smoothed logit noise
NOISE_SIGMA = 1.0     # correlation length of the noise, in voxels
TUMOUR_RADIUS = 0.27  # mean tumour radius, as a share of the grid side
CORE_RADIUS = 0.45    # mean core radius, as a share of the tumour radius


def _irregular_disc(rng, size, centre, radius) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    theta = np.arctan2(yy - centre[0], xx - centre[1])
    rho = np.hypot(yy - centre[0], xx - centre[1])
    r = np.ones_like(theta)
    for k in range(2, 7):
        r += rng.uniform(0.0, 0.3 / k) * np.cos(k * theta
                                                  + rng.uniform(0, 2 * np.pi))
    return rho < radius * r


def make_phantom(size: int, seed: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """(truth, maps): a (size, size) label image and one uint8 map per label."""
    rng = np.random.default_rng(seed)
    centre = size / 2 + rng.uniform(-0.06, 0.06, 2) * size
    radius = TUMOUR_RADIUS * size
    truth = np.zeros((size, size), dtype=np.int64)
    truth[_irregular_disc(rng, size, centre, radius)] = 1
    core_centre = centre + rng.uniform(-0.15, 0.15, 2) * radius
    truth[_irregular_disc(rng, size, core_centre, CORE_RADIUS * radius)
          & (truth == 1)] = 2

    factors = axis_kernels((size, size), (NOISE_SIGMA, NOISE_SIGMA))
    noise = separable_filter(rng.standard_normal((size * size, N_LABELS)),
                             (size, size), factors)
    noise *= NOISE_STD / noise.std()
    logits = SIGNAL * np.eye(N_LABELS)[truth.ravel()] + noise
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    pixels = np.clip(np.rint(255.0 * p), 1, 255).astype(np.uint8)
    maps = [pixels[:, l].reshape(size, size) for l in range(N_LABELS)]
    return truth, maps
