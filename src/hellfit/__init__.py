"""Two-sample closeness evaluation via equal-mass discretization and the
Hellinger distance, with a Bayes-error-rate-derived threshold."""

from hellfit.dataset import Dataset, RngStream, ar_covariance, load_dataset, sample_mvn
from hellfit.divergence import (
    DivergenceGenerator,
    alpha_generator,
    dual_generator,
    f_divergence,
    generator_by_name,
    hellinger,
    symmetrized_alpha,
)
from hellfit.partition import (
    PartitionSpec,
    PartitionTree,
    build_fixed_partition,
    build_moving_partition,
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
    pairwise_partitions,
    score_fitness,
)

__all__ = [
    "Dataset",
    "RngStream",
    "ar_covariance",
    "load_dataset",
    "sample_mvn",
    "DivergenceGenerator",
    "alpha_generator",
    "dual_generator",
    "f_divergence",
    "generator_by_name",
    "hellinger",
    "symmetrized_alpha",
    "PartitionSpec",
    "PartitionTree",
    "build_fixed_partition",
    "build_moving_partition",
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
    "pairwise_partitions",
    "score_fitness",
]

__version__ = "0.1.0"
