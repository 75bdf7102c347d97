"""Graph substrate: ownership-aware digraphs and vectorised algorithms.

Everything the game engine needs from graph theory lives here, built
from scratch on numpy: the :class:`~repro.graphs.digraph.OwnedDigraph`
realization type, CSR adjacencies, frontier-vectorised BFS, distance
aggregates under the paper's ``Cinf`` convention, exact vertex
connectivity, and instance generators.
"""

from .bfs import (
    UNREACHABLE,
    all_pairs_distances,
    bfs_distances,
    bfs_layers,
    bfs_parents,
    distances_from_sources,
    multi_source_bfs,
)
from .connectivity import (
    articulation_points,
    connected_components,
    is_connected,
    is_k_connected,
    local_vertex_connectivity,
    menger_paths,
    num_components,
    vertex_connectivity,
)
from .csr import CSRAdjacency, build_csr, csr_without_vertex
from .digraph import OwnedDigraph
from .engine import DistanceEngine, LazyRowGather
from .query import (
    QueryStats,
    batched_pair_distances,
    multi_source_distances,
    point_to_point,
    single_source_distances,
)
from .distances import (
    cinf,
    diameter,
    distance_matrix,
    distance_to_set,
    eccentricities,
    local_diameter,
    pairwise_distance,
    radius,
    sum_distances,
)
from .generators import (
    cycle_realization,
    path_realization,
    random_budgets_with_sum,
    random_connected_realization,
    random_positive_budgets,
    random_realization,
    random_tree_realization,
    star_realization,
    uniform_budgets,
    unit_budgets,
)
from .render import adjacency_table, degree_summary, to_dot
from .properties import (
    distance_to_cycle,
    find_cycle,
    functional_cycle,
    is_forest,
    is_tree,
    is_unicyclic,
    tree_center,
    tree_longest_path,
    unique_cycle,
)

__all__ = [
    "UNREACHABLE",
    "CSRAdjacency",
    "DistanceEngine",
    "LazyRowGather",
    "OwnedDigraph",
    "QueryStats",
    "adjacency_table",
    "all_pairs_distances",
    "articulation_points",
    "degree_summary",
    "to_dot",
    "bfs_distances",
    "bfs_layers",
    "bfs_parents",
    "build_csr",
    "cinf",
    "connected_components",
    "csr_without_vertex",
    "cycle_realization",
    "diameter",
    "distance_matrix",
    "distance_to_cycle",
    "distance_to_set",
    "distances_from_sources",
    "eccentricities",
    "find_cycle",
    "functional_cycle",
    "is_connected",
    "is_forest",
    "is_k_connected",
    "is_tree",
    "is_unicyclic",
    "local_diameter",
    "local_vertex_connectivity",
    "menger_paths",
    "multi_source_bfs",
    "multi_source_distances",
    "num_components",
    "pairwise_distance",
    "batched_pair_distances",
    "point_to_point",
    "single_source_distances",
    "path_realization",
    "radius",
    "random_budgets_with_sum",
    "random_connected_realization",
    "random_positive_budgets",
    "random_realization",
    "random_tree_realization",
    "star_realization",
    "sum_distances",
    "tree_center",
    "tree_longest_path",
    "uniform_budgets",
    "unique_cycle",
    "unit_budgets",
    "vertex_connectivity",
]
