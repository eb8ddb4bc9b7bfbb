"""Transaction-graph substrate: edge counts, their fold, CSR adjacency."""
from repro.graph.adjacency import Adjacency, adjacency_from_pandas  # noqa: F401
from repro.graph.build_pandas import (  # noqa: F401
    build_tx_graph_pandas,
    count_tx_edges,
    fold_tx_counts,
    merge_tx_counts,
)
