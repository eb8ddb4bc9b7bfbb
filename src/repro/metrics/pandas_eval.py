"""Pandas mirror of the Spark evaluation query (:mod:`repro.spark`),
vectorised over the stream's transaction→account incidence array
(:func:`repro.chain.ethdata.tx_incidence`).

Used by the per-step adaptive simulation (Figs. 9-10) where the evaluation
window is small and a Spark job per step would dominate the measured
algorithm run time. ``tests/test_metrics.py::TestPandasMirror`` pins it to
the Spark evaluator on identical inputs.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.chain.ethdata import owner_sets, tx_incidence
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
    ``(tx, shard)`` pairs and dropping repeats
    (:func:`~repro.chain.ethdata.owner_sets`) leaves each transaction's
    shard set, so μ is its size. The evaluation state is
    :func:`repro.metrics.blockchain.shard_stats` of the integer
    ``(shard, μ)`` counts, the fold the Spark evaluator uses.
    """
    offsets, incidence = tx_incidence(tx_pdf)
    n = len(offsets) - 1
    shard = np.asarray(labels, dtype=np.int64)[index_of(accounts, incidence)]
    offsets, shard = owner_sets(np.repeat(np.arange(n), np.diff(offsets)), shard, n)

    mu = np.diff(offsets)  # every transaction has an account
    base = int(mu.max(initial=0)) + 1
    count = np.bincount(shard * base + np.repeat(mu, mu))
    key = np.flatnonzero(count)
    stats = shard_stats(key // base, key % base, count[key])
    return rollup(*stats, k=k, eta=eta, lam=lam)
