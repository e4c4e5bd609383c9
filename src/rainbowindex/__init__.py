"""Constructive upper bounds for the k-rainbow index of a graph.

The package decomposes a graph into edge-disjoint spanning subgraphs with
guaranteed minimum degrees, builds connected dominating cores from them,
emits explicit rainbow edge colorings whose color counts certify upper
bounds, and verifies everything against exhaustive ground truth, including
an exact solver for small instances.
"""

from .graph import (
    Edge,
    GenerationError,
    Graph,
    InvariantViolation,
    ParseError,
    TreeWitness,
    bfs_tree_edges,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    distance,
    edge,
    format_edge_list,
    generate,
    gnp_connected_graph,
    induced_subgraph,
    k_step_neighborhood,
    parse_edge_list,
    path_graph,
    petersen_graph,
    read_edge_list,
    steiner_distance,
    steiner_diameter,
)
from .decompose import SpanningSplit, split_k, split_two
from .dominate import (
    DominationCertificate,
    connect_two_step,
    greedy_connected_k_dominating,
    greedy_two_step_dominating,
    is_k_dominating,
    is_k_step_dominating,
    union_connect,
)
from .coloring import (
    EdgeColoring,
    Km1Trace,
    PipelineTrace,
    all_distinct_coloring,
    color_kdom,
    color_km1dom,
    color_pipeline,
    format_coloring,
    parse_coloring,
    read_coloring,
    spanning_tree_coloring,
)
from .verify import (
    BoundEntry,
    BoundsReport,
    ExactResult,
    RainbowVerdict,
    SearchBudgetExceeded,
    bounds_report,
    exact_rx_k,
    exists_rainbow_stree,
    is_k_rainbow_connected,
    min_degree_upper_bound,
)

__version__ = "0.1.0"
