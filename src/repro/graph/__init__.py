"""Transaction-graph substrate: edge construction and CSR adjacency."""
from repro.graph.adjacency import Adjacency, to_adjacency, adjacency_from_pandas  # noqa: F401
from repro.graph.build import build_tx_graph, tx_accounts  # noqa: F401
from repro.graph.build_pandas import (  # noqa: F401
    aggregate_tx_edges,
    build_tx_graph_pandas,
    expand_tx_edges,
)
