"""Two-sample closeness evaluation via equal-mass discretization and the
Hellinger distance, with a Bayes-error-rate-derived threshold."""

from hellfit.dataset import Dataset, RngStream, UsageError, load_dataset, save_dataset
from hellfit.models import MultivariateNormal, UniformCube, ar_covariance
from hellfit.divergence import (
    DivergenceGenerator,
    alpha_generator,
    dual_generator,
    f_divergence,
    generator_by_name,
    hellinger,
)
from hellfit.partition import (
    CapacityError,
    DegeneratePartitionError,
    PartitionSpec,
    PartitionTree,
    build_moving_partition,
    pairwise_partitions,
)
from hellfit.bayes_threshold import (
    a_set_infimum,
    alpha_of_delta,
    capital_delta_star,
    delta_star_hellinger,
    hellinger_alpha_approx,
)
from hellfit.criterion import (
    FitnessReport,
    bias_correction,
    evaluate_fitness,
    implied_epsilon,
    ks_two_sample,
    pairwise_marginal_scan,
    score_fitness,
)

__all__ = [
    "Dataset",
    "RngStream",
    "UsageError",
    "ar_covariance",
    "load_dataset",
    "save_dataset",
    "MultivariateNormal",
    "UniformCube",
    "DivergenceGenerator",
    "alpha_generator",
    "dual_generator",
    "f_divergence",
    "generator_by_name",
    "hellinger",
    "CapacityError",
    "DegeneratePartitionError",
    "PartitionSpec",
    "PartitionTree",
    "build_moving_partition",
    "pairwise_partitions",
    "a_set_infimum",
    "alpha_of_delta",
    "capital_delta_star",
    "delta_star_hellinger",
    "hellinger_alpha_approx",
    "FitnessReport",
    "bias_correction",
    "evaluate_fitness",
    "implied_epsilon",
    "ks_two_sample",
    "pairwise_marginal_scan",
    "score_fitness",
]

__version__ = "0.1.0"
