"""Exact computation and verification engine for domination cover pebbling
and its omega-subversion generalization.

Brute-force oracles for the domination cover pebbling number psi, the cover
pebbling number lambda and the subversion numbers Omega_omega; constructive
certificate-producing solvers for the diameter-2, diameter-d and subversion
regimes; generators for the extremal families; and a sweep harness that
checks every proven bound and probes the open conjectures on small graphs.
"""

from .graphs import (
    DisconnectedGraphError, Graph, Graph6FormatError, GraphError,
    build_graph, dominated_vertices, emit_edge_list, emit_graph6,
    parse_edge_list, parse_graph6, undominated_components,
)
from .pebbling import (
    DOMINATION, FULL_COVER, Certificate, Configuration, Goal,
    PebblingError, PebblingMove, apply_move, clumping_number,
    format_configuration, pairing_number, parse_configuration, satisfies,
    subversion, support,
)
from .solver import (
    NumberReport, SolveResult, configurations, is_solvable,
    lambda_stacking, pebbling_value, pebbling_values, stacking_value,
)
from .constructive import (
    CoverPartition, InvariantViolation, PreconditionError, SolverState,
    VerificationResult, check_solver_state, partition_covered,
    solve_diameter2, solve_diameter_d, solve_subversion_diameter2,
    spread_diameter2, verify_certificate,
)
from .families import (
    FamilySpec, apex_pendant_clique, apex_pendant_clique_witness,
    binary_tree, complete, complete_multipartite, cycle, generate,
    omega_formula, path, psi_upper_bound, random_configuration,
    random_connected_graph, star, star_with_leaf_path,
    star_with_leaf_path_witness, subversion_bounds, tail_clique,
    tail_clique_far_end, tail_clique_psi_lower_bound, tail_clique_witness,
    wheel,
)
from .fixtures import (
    CONNECTED_COUNTS, connected_graph6_lines, connected_graphs,
)
from .harness import SweepRecord, analyze_graph, run_sweep, sweep_exit_code

__version__ = "0.1.0"

__all__ = [
    # graphs
    "DisconnectedGraphError", "Graph", "Graph6FormatError", "GraphError",
    "build_graph", "dominated_vertices", "emit_edge_list", "emit_graph6",
    "parse_edge_list", "parse_graph6", "undominated_components",
    # pebbling
    "DOMINATION", "FULL_COVER", "Certificate", "Configuration", "Goal",
    "PebblingError", "PebblingMove", "apply_move", "clumping_number",
    "format_configuration", "pairing_number", "parse_configuration",
    "satisfies", "subversion", "support",
    # solver
    "NumberReport", "SolveResult", "configurations", "is_solvable",
    "lambda_stacking", "pebbling_value", "pebbling_values", "stacking_value",
    # constructive
    "CoverPartition", "InvariantViolation", "PreconditionError",
    "SolverState", "VerificationResult", "check_solver_state",
    "partition_covered", "solve_diameter2", "solve_diameter_d",
    "solve_subversion_diameter2", "spread_diameter2", "verify_certificate",
    # families
    "FamilySpec", "apex_pendant_clique", "apex_pendant_clique_witness",
    "binary_tree", "complete", "complete_multipartite", "cycle", "generate",
    "omega_formula", "path", "psi_upper_bound", "random_configuration",
    "random_connected_graph", "star", "star_with_leaf_path",
    "star_with_leaf_path_witness", "subversion_bounds", "tail_clique",
    "tail_clique_far_end", "tail_clique_psi_lower_bound",
    "tail_clique_witness", "wheel",
    # fixtures
    "CONNECTED_COUNTS", "connected_graph6_lines", "connected_graphs",
    # harness
    "SweepRecord", "analyze_graph", "run_sweep", "sweep_exit_code",
]
