"""Transaction-graph substrate: edge counts, their fold, CSR adjacency."""
from repro.graph.adjacency import adjacency_from_pandas  # noqa: F401
from repro.graph.build_pandas import build_tx_graph_pandas  # noqa: F401
