"""Method dispatch of the static experiments (T1-T6): one timed run of one
of the four allocators. η-aware allocators (``ETA_AWARE``) are re-run per
η, matching the paper's protocol where each point of Figs. 2-8 is a full
run at that (k, η); :func:`repro.spark.sweep` runs the grid.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.baselines import hash_alloc, metis_like, shard_scheduler
from repro.graph.adjacency import Adjacency, index_of
from repro.metrics.blockchain import Stats
from repro.txallo import g_txallo

METHODS = ("random", "metis", "scheduler", "txallo")
ETA_AWARE = frozenset({"scheduler", "txallo"})


@dataclass
class AllocResult:
    """One allocator run: labels aligned to ``adj.nodes`` + timing.

    ``stream_stats`` is set for the transaction-level scheduler only —
    the (n_txs, n_cross, per-shard stats) triple measured at processing
    time, used in place of a final-map Spark evaluation.
    """

    labels: np.ndarray
    seconds: float
    stream_stats: Stats | None = None


def allocate(
    method: str,
    adj: Adjacency,
    *,
    k: int,
    eta: float,
    lam: float,
    tx_pdf: pd.DataFrame | None = None,
) -> AllocResult:
    """Run one allocator; ``tx_pdf`` (the chronological stream) is
    required for the transaction-level ``scheduler`` method only."""
    t0 = time.perf_counter()
    if method == "random":
        labels = hash_alloc(adj.nodes, k)
    elif method == "metis":
        labels = metis_like(adj, k)
    elif method == "txallo":
        labels = g_txallo(adj, k=k, eta=eta, lam=lam)
    elif method == "scheduler":
        if tx_pdf is None:
            raise ValueError("scheduler needs the transaction stream tx_pdf")
        res = shard_scheduler(tx_pdf, k, eta=eta, lam=lam)
        labels = res.shards[index_of(res.accounts, adj.nodes)]
        return AllocResult(labels, time.perf_counter() - t0, res.stats())
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return AllocResult(labels, time.perf_counter() - t0)

