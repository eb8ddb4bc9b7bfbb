"""TxAllo: throughput-optimizing account-shard allocation (paper §V)."""
from repro.txallo.a_txallo import a_txallo  # noqa: F401
from repro.txallo.g_txallo import g_txallo  # noqa: F401
