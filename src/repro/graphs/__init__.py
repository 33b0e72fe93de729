"""Graph substrates: H(n, d), the small-world overlay G = H ∪ L, and tools.

Public surface:

* :func:`generate_hgraph` / :class:`HGraph` — the random regular multigraph
  (union of ``d/2`` Hamiltonian cycles, Section 2.1 / Appendix A).
* :func:`build_small_world` / :class:`SmallWorldNetwork` — ``G = H ∪ L``.
* :mod:`repro.graphs.balls` — ``B(v, r)`` / ``Bd(v, r)`` BFS utilities.
* :mod:`repro.graphs.properties` — expansion, clustering, diameter.
* :mod:`repro.graphs.classification` — Definition 9 node sets.
* :func:`generate_watts_strogatz` — the comparison model.
"""

from .balls import (
    ball,
    ball_sizes,
    bfs_distances,
    connected_components,
    distances_to_set,
    eccentricity,
    gather_neighbors,
    largest_component_mask,
    sphere,
)
from .classification import (
    NodeSets,
    classify_nodes,
    full_tree_ball_size,
    is_locally_tree_like,
    ltl_mask,
    tree_radius,
)
from .delta import AppliedDelta, ResidentGraph
from .hgraph import HGraph, generate_hgraph, hgraph_from_cycles
from .properties import (
    DegreeStats,
    SpectralReport,
    average_clustering,
    cut_expansion,
    degree_stats,
    diameter,
    eccentricity_sample,
    edge_expansion_sampled,
    network_summary,
    ramanujan_bound,
    spectral_report,
)
from .shared import SharedNetworkPack, cleanup_orphans
from .smallworld import (
    SmallWorldNetwork,
    ball_chunk,
    build_small_world,
    lattice_parameter,
)
from .wattsstrogatz import WattsStrogatzGraph, generate_watts_strogatz

__all__ = [
    "AppliedDelta",
    "HGraph",
    "ResidentGraph",
    "ball_chunk",
    "generate_hgraph",
    "hgraph_from_cycles",
    "SmallWorldNetwork",
    "SharedNetworkPack",
    "cleanup_orphans",
    "build_small_world",
    "lattice_parameter",
    "NodeSets",
    "classify_nodes",
    "tree_radius",
    "full_tree_ball_size",
    "is_locally_tree_like",
    "ltl_mask",
    "ball",
    "ball_sizes",
    "bfs_distances",
    "sphere",
    "eccentricity",
    "gather_neighbors",
    "distances_to_set",
    "connected_components",
    "largest_component_mask",
    "SpectralReport",
    "spectral_report",
    "ramanujan_bound",
    "edge_expansion_sampled",
    "cut_expansion",
    "average_clustering",
    "eccentricity_sample",
    "diameter",
    "DegreeStats",
    "degree_stats",
    "network_summary",
    "WattsStrogatzGraph",
    "generate_watts_strogatz",
]
