"""Hash-based random account allocation (the traditional baseline).

OmniLedger/RapidChain/Chainspace/Monoxide allocate accounts by a hash of
their address (e.g. ``SHA256(address) mod k``, paper §II-C). Any uniform
hash yields statistically identical allocations for every metric studied,
so we use splitmix64 — deterministic, dependency-free, vectorizable
(substitution documented in DESIGN.md §2).
"""
from __future__ import annotations

import numpy as np

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer — a high-quality 64-bit mix."""
    z = (x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)) & _MASK
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK
    return z ^ (z >> np.uint64(31))


def hash_alloc(accounts: np.ndarray, k: int) -> np.ndarray:
    """Shard labels in ``[0, k)`` for each account id (uniform, stateless)."""
    with np.errstate(over="ignore"):
        h = _splitmix64(np.asarray(accounts, dtype=np.int64).view(np.uint64))
    return (h % np.uint64(k)).astype(np.int64)
