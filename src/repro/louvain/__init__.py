"""Deterministic weighted Louvain community detection (G-TxAllo init)."""
from repro.louvain.louvain import louvain  # noqa: F401
