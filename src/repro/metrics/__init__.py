"""Performance metrics of an account-shard mapping (paper §III)."""
from repro.metrics.blockchain import rollup  # noqa: F401
from repro.metrics.pandas_eval import evaluate_pandas  # noqa: F401
