"""Equality-oracle adjacency protocols, bag decompositions of bipartite
graphs, exact geometric realizations, and compiled adjacency labels."""

from .graphs import (
    BipartiteGraph,
    Graph,
    GraphFormatError,
    bipartite_complement,
    connected_components,
    format_graph_text,
    is_connected,
    parse_graph_text,
)
from .gyarfas import Decomposition, decompose, decompose_neighbors
from .oracles import verify_decomposition
from .protocol import (
    BipartiteProtocol,
    ProtocolError,
    Run,
    SignRankProtocol,
    UnitDiskProtocol,
)
from .labeling import (
    CostCeilingExceeded,
    LabelError,
    LabelFile,
    build_labels,
    decode_pair,
    measure,
    read_labels,
    write_labels,
)
from .geometry import (
    Scene,
    SignRank3Decomposition,
    UdgRealization,
    incidence_graph,
    signrank3_decompose,
    signrank_graph,
    unit_disk_graph,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph",
    "BipartiteProtocol",
    "CostCeilingExceeded",
    "Decomposition",
    "Graph",
    "GraphFormatError",
    "LabelError",
    "LabelFile",
    "ProtocolError",
    "Run",
    "Scene",
    "SignRank3Decomposition",
    "SignRankProtocol",
    "UdgRealization",
    "UnitDiskProtocol",
    "bipartite_complement",
    "build_labels",
    "connected_components",
    "decode_pair",
    "decompose",
    "decompose_neighbors",
    "format_graph_text",
    "incidence_graph",
    "is_connected",
    "measure",
    "parse_graph_text",
    "read_labels",
    "signrank3_decompose",
    "signrank_graph",
    "unit_disk_graph",
    "verify_decomposition",
    "write_labels",
]
