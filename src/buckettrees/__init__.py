"""Bucket increasing trees: growth processes, exact enumeration, structure
checks, and the urn reduction of the descendants statistic."""

from .enumeration import (DEFAULT_SIZE_LIMIT, EnumerationLimitError,
                          OdeCheckReport, check_ode_recurrence,
                          closed_form_total_weight, enumerate_shapes,
                          shape_count, total_weight, total_weights)
from .evolve import (TreeDistribution, exact_distribution, exact_laws,
                     growth_options, pushforward_strip, sample_counts,
                     sample_encoding, sample_encodings, sample_tree,
                     strip_labels)
from .rng import SplitMix64
from .trees import (BucketNode, BucketTree, EncodingError, InvalidTreeError,
                    bucket, count_descendants, count_labellings, decode_tree,
                    encode_tree, insertion_load, node_profile, shape_bucket,
                    single_bucket_tree, subtree_of_label, tree_weight)
from .urn import (DescendantSample, UrnState, binomial_moment,
                  descendants_direct, descendants_law_from_trees,
                  descendants_law_from_urn, descendants_via_urn,
                  insertion_load_law, urn_distribution_exact, urn_from,
                  urn_moment_exact, urn_run)
from .verify import (AffineRatioReport, BalanceReport, NotGrown,
                     ScalingReport, UndefinedRatioError, balance_value,
                     check_affine_ratio, check_balance, check_scaling,
                     classify_family)
from .stats import (BetaCell, BetaConvergenceReport, GofReport,
                    SecondOrderReport, beta_moment, check_beta_convergence,
                    chi_square_gof, sampled_fit, sampler_gof, second_order_diagnostic)
from .weights import (AffineDegreeWeights, BucketRecursive, DAryIncreasing,
                      DegreeWeights, ExplicitDegreeWeights, FamilySpec,
                      InvalidWeightsError, PlaneOriented, WeightModel,
                      to_fraction, weights_of)

__version__ = "0.33.0"

__all__ = [
    "BucketNode", "BucketTree", "bucket", "shape_bucket", "single_bucket_tree",
    "encode_tree", "decode_tree", "tree_weight", "count_labellings",
    "node_profile", "subtree_of_label", "insertion_load", "count_descendants",
    "InvalidTreeError", "EncodingError",
    "DegreeWeights", "ExplicitDegreeWeights", "AffineDegreeWeights",
    "WeightModel", "FamilySpec", "BucketRecursive",
    "DAryIncreasing", "PlaneOriented", "weights_of", "to_fraction",
    "InvalidWeightsError",
    "enumerate_shapes", "shape_count", "total_weight", "total_weights",
    "closed_form_total_weight", "check_ode_recurrence", "OdeCheckReport",
    "EnumerationLimitError", "DEFAULT_SIZE_LIMIT",
    "growth_options", "sample_tree", "sample_encoding", "sample_encodings",
    "sample_counts", "TreeDistribution",
    "exact_distribution", "exact_laws",
    "strip_labels", "pushforward_strip",
    "balance_value", "check_balance", "BalanceReport", "check_affine_ratio",
    "AffineRatioReport", "check_scaling", "ScalingReport", "classify_family",
    "NotGrown", "UndefinedRatioError",
    "UrnState", "urn_from", "urn_run", "urn_distribution_exact",
    "urn_moment_exact", "binomial_moment", "DescendantSample",
    "descendants_direct", "descendants_via_urn",
    "insertion_load_law", "descendants_law_from_trees",
    "descendants_law_from_urn",
    "chi_square_gof", "GofReport", "sampled_fit", "sampler_gof", "beta_moment",
    "check_beta_convergence", "BetaCell", "BetaConvergenceReport",
    "second_order_diagnostic", "SecondOrderReport",
    "SplitMix64",
]
