"""Walk-based graph convexity toolkit.

Computes weakly toll, semi weakly toll, toll, monophonic and geodesic
intervals on small graphs and on four graph products, finds exact interval
and hull numbers, and checks the closed-form product formulas against a
definition-literal walk oracle.
"""

from .convexity import (
    InfeasibleSearchError,
    IntervalReport,
    check_max_interval_decomposition,
    check_wtn_exceeds_two_criterion,
    hull,
    is_convex,
    maximum_interval_pairs,
    wth,
    wtn,
)
from .graphs import (
    CompleteGraphError,
    DisconnectedGraphError,
    Graph,
    Graph6FormatError,
    TrivialGraphError,
    VertexSet,
    complete_graph,
    cycle_graph,
    encode_edge_list,
    encode_graph6,
    parse_edge_list,
    parse_graph6,
    path_graph,
    random_connected_graph,
    random_tree,
    star_graph,
    two_clique_bridge,
)
from .intervals import (
    IntervalKind,
    geodesic_interval,
    interval,
    interval_closure,
    is_weakly_toll_set,
    monophonic_interval,
    semi_weakly_toll_interval,
    toll_interval,
    weakly_toll_interval,
)
from .oracle import oracle_interval, witness_lengths
from .products import (
    ProductGraph,
    ProductKind,
    build,
    cartesian,
    corona,
    generalized_corona,
    lexicographic,
    strong,
    to_dot,
)

__version__ = "0.1.0"
