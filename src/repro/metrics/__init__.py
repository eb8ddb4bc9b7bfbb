"""Performance metrics of an account-shard mapping (paper §III)."""
from repro.metrics.blockchain import AllocationMetrics, rollup, shard_stats  # noqa: F401
from repro.metrics.formulas import clip_throughput, latency_zeta, rho  # noqa: F401
from repro.metrics.graphlevel import community_state, graph_gamma, graph_metrics  # noqa: F401
from repro.metrics.pandas_eval import evaluate_pandas  # noqa: F401
