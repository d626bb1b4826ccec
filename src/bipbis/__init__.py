"""bipbis: balanced independent sets in sparse random bipartite graphs.

Library and CLI for the 1-local and degree-1 algorithms, the exact
small-instance solver, interpolation-path stability probes, and
phase-diagram analysis.
"""

__version__ = "0.1.0"

from .analysis import (PhasePoint, PhaseRegion, Sign, algorithmic_threshold,
                       classify_phase, existence_threshold, first_moment_exponent,
                       optimal_local_threshold, predicted_easy_point)
from .balance import (EMPTY_SUBSET, VertexSubset, independence_violation,
                      is_gamma_balanced, is_independent, max_balanced_pair)
from .errors import (BipbisError, CapacityError, CompatibilityViolation,
                     ParameterError)
from .exact import max_gamma_balanced_is
from .graph import (BipartiteGraph, graph_from_text, graph_to_text, read_graph_text,
                    sample_bipartite_graph, validate_graph)
from .local import (LocalFunctionPair, VertexLabels, apply_local_pair, constant_pair,
                    draw_labels, gamma_trim, pair_decisions, random_threshold_pair)
from .lowdeg import (LeftIndicatorPolynomial, LinearBlockingPolynomial,
                     OptimizationReport, RoundingOutcome, check_optimization,
                     left_indicator_polynomial, linear_blocking_polynomial,
                     norm_second_moment, round_polynomial)
from .ogp import (GreedyChainResult, InterpolationPath, LocalPairVectorFunction,
                  OverlapChainParams, OverlapChainReport, StabilityConfig,
                  StabilityReport, build_interpolation_path, check_overlap_chain,
                  detect_bad_steps, greedy_chain_over_segments, greedy_overlap_chain,
                  stability_trial, walk_rounded_subsets)
from .rng import RandomSeed
