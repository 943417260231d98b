"""Dense Gaussian networks: node-independent spanning trees, routing, simulation."""

from .core import (
    DIRECTIONS,
    GaussInt,
    Network,
    Region,
    RegionClass,
    ZERO,
    alpha,
    bfs_distance,
    classify,
    diamond_nodes,
    distances_from,
    format_node,
    neighbors,
    network,
    node_count,
    norm,
    parse_node,
    reduce,
    rho,
    translate,
)
from .router import (
    CONSUME,
    Packet,
    RoutingDecision,
    RoutingError,
    broadcast,
    decide,
    route,
    secure_split,
    start_route,
    table_decision,
)
from .simulator import (
    SimConfig,
    SimRun,
    SimulationError,
    SweepStats,
    reachability_report,
    run,
    sweep,
    region_resolution_check,
)
from .trees import (
    PathWord,
    SpanningTree,
    build_tree,
    build_tree1,
    expand_word,
    parent_child_spec,
    path_word,
    tree_path,
    verify_independence,
)

__version__ = "0.1.0"
