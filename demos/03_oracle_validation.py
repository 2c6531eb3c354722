"""Validate the samplers against the exact enumeration oracle and print
the error-versus-sample-count curve behind the synthetic experiment.

Run from the repository root (takes a few seconds):

    python3 demos/03_oracle_validation.py
"""
import numpy as np

import perturbmpm as pm
from perturbmpm.evaluation import random_grid_model

model = random_grid_model(9, seed=0, kernel_weight=2.0)
dist = pm.enumerate_gibbs(model)
exact = pm.exact_marginals(dist)

# Every sampler takes an integer seed. Draw t of a seed is the fixed
# counter block t of a Philox generator keyed by that seed, so any draw can
# be reproduced on its own: pm.iteration_noise(0, t, shape) is the noise
# that draw t of seed 0 perturbs with.

# Full-order perturbation (one Gumbel per labeling) is exact Gibbs sampling;
# it anchors the comparison.
draws = pm.perturb_and_map_full_order_many(model, 0, 20000)
tv_full = pm.total_variation(
    pm.empirical_marginals(pm.SampleSet(draws, 2)), exact)
print(f"full-order perturbation, 20000 draws: TV to exact = {tv_full:.4f}")

# Order-1 perturbation + mean-field MPM decoding is the fast approximation.
run = pm.perturb_and_mpm(model, pm.SamplingConfig(20000, seed=0))
tv_mpm = pm.total_variation(pm.empirical_marginals(run), exact)
print(f"perturbed MPM, 20000 draws:           TV to exact = {tv_mpm:.4f}")

q, _ = pm.mean_field_infer(model)
print(f"plain mean field:                     TV to exact = "
      f"{pm.total_variation(q, exact):.4f}")

# The error curve over sample counts, averaged over random unary draws.
print()
cfg = pm.SyntheticExperimentConfig(
    grid_sizes=(9,), sample_counts=(10, 100, 1000, 10000), n_inits=10)
curve = pm.run_synthetic_experiment(cfg)
print("samples   sampled-marginal error   mean-field error")
for row in curve.rows:
    print(f"{row.n_samples:7d}   {row.sampled_error:.4f}"
          f"                   {row.mean_field_error:.4f}")
