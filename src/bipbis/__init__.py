"""bipbis: balanced independent sets in sparse random bipartite graphs.

Library and CLI for the 1-local and degree-1 algorithms, exact small-instance
solvers, interpolation-path stability probes, and phase-diagram analysis.
"""

__version__ = "0.1.0"

from .analysis import (PhasePoint, PhaseRegion, Sign, algorithmic_threshold,
                       classify_phase, existence_threshold,
                       first_moment_exponent, negativity_onset_d,
                       optimal_local_threshold, predicted_easy_point)
from .balance import (EMPTY_SUBSET, VertexSubset, independence_violation,
                      is_gamma_balanced, is_independent, max_balanced_pair)
from .errors import (BipbisError, CapacityError, CompatibilityViolation,
                     ParameterError)
from .exact import (ParetoProfile, enumerate_max_gamma_balanced,
                    max_gamma_balanced_is, max_joint_intersection,
                    pareto_profile)
from .graph import (BipartiteGraph, Neighborhood, Side, VertexId,
                    edge_index_to_pair, graph_from_text, graph_to_text,
                    neighborhood, pair_to_edge_index, read_graph_text,
                    sample_bipartite_graph, validate_graph, write_graph_text)
from .local import (GaltonWatsonTree, LocalFunctionPair, VertexLabels,
                    apply_local_pair, concentration_probe, constant_pair,
                    draw_labels, estimate_gw_expectation, gamma_balanced_value,
                    gamma_trim, pair_decisions, random_threshold_pair)
from .lowdeg import (LeftIndicatorPolynomial, LinearBlockingPolynomial,
                     OptimizationReport, RoundingOutcome, check_optimization,
                     left_indicator_polynomial, linear_blocking_polynomial,
                     norm_second_moment, round_polynomial)
from .ogp import (GreedyChainResult, InterpolationPath, LocalPairVectorFunction,
                  OverlapChainParams, OverlapChainReport, StabilityConfig,
                  StabilityReport, balance_inequality_probe,
                  build_interpolation_path, check_overlap_chain,
                  coordinate_at_step, detect_bad_steps, greedy_overlap_chain,
                  profile_violates_balance_inequality, stability_trial,
                  walk_rounded_subsets)
from .rng import RandomSeed
