"""Pandas mirror of :mod:`repro.metrics.blockchain`, vectorised over the
stream's transaction→account incidence array
(:func:`repro.chain.ethdata.tx_incidence`).

Used by the per-step adaptive simulation (Figs. 9-10) where the evaluation
window is small and a Spark job per step would dominate the measured
algorithm run time. ``tests/test_metrics.py::TestPandasMirror`` pins it to
the Spark evaluator on identical inputs.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.chain.ethdata import tx_incidence
from repro.graph.adjacency import index_of
from repro.metrics.blockchain import AllocationMetrics, rollup, shard_stats


def evaluate_pandas(
    tx_pdf: pd.DataFrame,
    labels: np.ndarray,
    *,
    k: int,
    eta: float,
    lam: float | None = None,
    accounts: np.ndarray,
) -> AllocationMetrics:
    """Evaluate an allocation on a pandas transaction frame.

    ``labels[i]`` is the shard of account ``accounts[i]``; ``accounts`` is
    sorted and must cover every account of the stream (``KeyError``
    otherwise).

    Every incidence entry is mapped to its shard; sorting the
    ``(tx, shard)`` pairs and dropping repeats leaves each transaction's
    shard set, so μ is a count per transaction. The evaluation state is
    :func:`repro.metrics.blockchain.shard_stats` of the integer
    ``(shard, μ)`` counts, the fold the Spark evaluator uses.
    """
    offsets, incidence = tx_incidence(tx_pdf)
    shard = np.asarray(labels, dtype=np.int64)[index_of(accounts, incidence)]
    tx = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    order = np.lexsort((shard, tx))
    tx, shard = tx[order], shard[order]
    first = np.ones(len(tx), dtype=bool)
    first[1:] = (tx[1:] != tx[:-1]) | (shard[1:] != shard[:-1])
    tx, shard = tx[first], shard[first]

    mu = np.bincount(tx)  # every transaction has an account
    base = int(mu.max(initial=0)) + 1
    count = np.bincount(shard * base + mu[tx])
    key = np.flatnonzero(count)
    stats = shard_stats(key // base, key % base, count[key])
    return rollup(*stats, k=k, eta=eta, lam=lam)
