"""Approximate sampling from dense multi-label CRFs: Gumbel perturbation
of the unary potentials followed by mean-field MPM decoding, with exact
enumeration oracles, uncertainty maps, and concentration bounds.
"""

__version__ = "1.0.0"

from .config import RunConfig, load_model, parse_config, unaries_from_pgm_maps
from .errors import (CapacityError, ConfigError, FormatError, ModelShapeError,
                     PerturbMpmError)
from .evaluation import (BiomarkerReport, ErrorCurve, ErrorCurveRow,
                         SyntheticExperimentConfig, UncertaintyConfusion,
                         compute_eor, corrected_label_volume, label_volume,
                         random_grid_model, run_biomarker_experiment,
                         run_synthetic_experiment, uncertainty_confusion)
from .gumbel import (EULER_GAMMA, SampleSet, SamplingConfig,
                     empirical_marginals, gumbel_max_select_many,
                     iteration_noise, perturb_and_mpm)
from .lattice import PermutohedralLattice
from .meanfield import InferenceConfig, MeanField, mean_field_infer, mpm_decode
from .metrics import (binary_entropy, entropy_error_bound, entropy_map,
                      hamming_loss, monte_carlo_tv, required_sample_size,
                      total_variation, voxelwise_total_variation)
from .model import (DenseCrfModel, GaussianKernel, build_grid_model, energy,
                    grid_coordinates, kernel_matrix, kernel_weight,
                    pairwise_matrix, unaries_from_probabilities)
from .oracle import (ExactDistribution, decode_labeling, enumerate_gibbs,
                     exact_map, exact_marginals, kl_product_vs_exact, n_states,
                     perturb_and_map_full_order_many,
                     perturb_and_map_order1_many)
from .tensorio import (read_pgm, read_tensor, write_manifest, write_pgm,
                       write_tensor)

__all__ = [name for name in dir() if not name.startswith("_")]
