"""Magnitude, weight vectors, and per-point zeroth moments of finite
Euclidean point clouds, with moment-based convex hull approximation."""

from .datagen import DatasetSpec, generate
from .errors import (
    DuplicatePoints,
    FactorizationFailure,
    InvalidSpec,
    MagnitudeError,
    NonFinite,
    NonRepresentable,
    OverlapAmbiguity,
    QuadratureDivergence,
)
from .experiments import (
    ExperimentConfig,
    TrialRecord,
    run_prefix_curves,
    run_table1,
    run_trial,
    trial_seed,
)
from .geometry import (
    DUPLICATE_TOL,
    PointCloud,
    SimilarityMatrix,
    build_similarity,
    pairwise_distances,
)
from .hull_exact import HullResult, convex_hull, hull_volume, unit_ball_volume
from .hull_filter import (
    FilterReport,
    approximate_hull,
    filter_by_moment,
    moment_prefix_curve,
)
from .magnitude import (
    WeightVector,
    log_weight_coloring,
    magnitude_function,
    solve_weights,
    weights_at_scale,
)
from .moments import (
    MomentVector,
    QuadratureRule,
    gauss_laguerre_rule,
    higher_moments,
    laplace_moment,
    log_trapezoid_rule,
    magnitude_moment,
    zeroth_moments,
)
from .schur import (
    IndexSplit,
    SchurComplement,
    restricted_magnitude,
    restriction_bounds,
    schur_complement,
    union_cloud,
    union_weights,
)

__version__ = "0.1.1"
