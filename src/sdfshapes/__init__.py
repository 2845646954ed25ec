"""Shape families as latent-conditioned neural signed distance fields.

Train an auto-decoder field on surface samples of a mesh collection,
reconstruct shapes by marching cubes on the learned field, and generate
novel shapes by convex combination of the learned latent codes.
"""

from .field import (Architecture, FieldParams, LossBreakdown, forward,
                    init_params, loss_gradients, shape_loss, spatial_gradient)
from .mesh import (NormalizationTransform, SurfaceSampleSet, TriangleMesh,
                   load_mesh, load_sample_set, normalize_unit_ball,
                   sample_surface, save_mesh, save_sample_set)
from .training import (Checkpoint, OptimizerState, TrainConfig, adam_step,
                       learning_rate_at, local_sigmas, sample_off_surface,
                       train)
from .isosurface import ScalarGrid, eval_grid, marching_cubes, reconstruct_shape
from .cohort import (CohortManifest, CombinationWeights, DistanceReport,
                     chamfer_distance, combine_codes, generate_cohort,
                     pairwise_report, reconstruction_report)
from .checkpoint_io import load_checkpoint, save_checkpoint
from .config import RunSettings, parse_config, render_config

__version__ = "0.1.0"
