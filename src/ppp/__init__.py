"""Feature clustering by recursive bisection with posterior validation.

The pipeline: quantize the instance rows with a self-organizing map, fit a
Gaussian mixture on the codebook-matched rows, bisect the feature columns
with two-cluster k-means, fit one mixture per candidate feature group, and
keep the split whose child posteriors best agree with the parent's
high-density instances. Applied recursively this yields a binary tree of
feature clusters. On planted inputs its depth-1 split repeats across random
initializations; its leaves mostly do not (the pairwise leaf ARI across
master seeds has a median of about 0.42 on planted 200×16 inputs and 0.03
on null ones).
"""

from ._version import __version__
from .data import DesignMatrix, IndexSet, as_matrix, derive_seed, submatrix
from .engine import (
    PppConfig,
    PppNode,
    PppTree,
    SplitEvaluation,
    accepted_posterior_by_depth,
    build_tree,
    child_posteriors,
    cluster_labels,
    cut_tree,
    evaluate_split,
    gamma_set,
    grow_node,
    overlap_fraction,
    split_objective,
)
from .errors import (
    ConfigError,
    DegenerateModel,
    DegenerateSelection,
    DegenerateSplit,
    DimensionError,
    FormatError,
    IndexOutOfBounds,
    ParseError,
    PppError,
    SingularCovariance,
    ValidationError,
)
from .gmm import (
    GaussianMixture,
    fit_em,
    init_gmm_from_codebook,
    mixture_log_density,
    mixture_scores,
    responsibilities,
)
from .kmeans import KmeansResult, kmeans_bisect
from .som import (
    CodebookMatchSet,
    SomConfig,
    SomModel,
    codebook_match,
    default_grid,
    default_som_config,
    init_som,
    train_som,
)
from .synth import (
    PlantedData,
    PlantedSpec,
    StabilityReport,
    adjusted_rand_index,
    generate_planted,
    repeatability_trial,
)

__all__ = [
    "__version__",
    "DesignMatrix", "IndexSet", "as_matrix", "derive_seed", "submatrix",
    "PppConfig", "PppNode", "PppTree", "SplitEvaluation",
    "accepted_posterior_by_depth", "build_tree", "child_posteriors", "cluster_labels",
    "cut_tree", "evaluate_split", "gamma_set", "grow_node", "overlap_fraction",
    "split_objective",
    "PppError", "ConfigError", "DimensionError", "DegenerateSelection", "IndexOutOfBounds",
    "DegenerateModel", "SingularCovariance", "DegenerateSplit", "ParseError", "FormatError",
    "ValidationError",
    "GaussianMixture", "fit_em", "init_gmm_from_codebook",
    "mixture_log_density", "mixture_scores", "responsibilities",
    "KmeansResult", "kmeans_bisect",
    "CodebookMatchSet", "SomConfig", "SomModel", "codebook_match",
    "default_grid", "default_som_config", "init_som", "train_som",
    "PlantedData", "PlantedSpec", "StabilityReport", "adjusted_rand_index",
    "generate_planted", "repeatability_trial",
]
