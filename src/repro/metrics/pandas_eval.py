"""The one evaluator of account mappings, vectorised over the stream's
transaction→account incidence (:func:`repro.chain.ethdata.tx_incidence`):
:func:`evaluate_pandas` runs it on the driver for one mapping (per step in
the adaptive simulation, Figs. 9-10, where a Spark job would dominate the
measured run time), and :mod:`repro.spark` on each batch of the stream for
every mapping of a sweep.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.chain.ethdata import owner_sets, tx_incidence
from repro.graph.adjacency import index_of
from repro.metrics.blockchain import AllocationMetrics, rollup, shard_stats


def span_counts(offsets: np.ndarray, accounts: np.ndarray, nodes: np.ndarray, labels: np.ndarray):
    """Transactions per ``(alloc, shard, μ)`` of the incidence ``(offsets,
    accounts)`` under each row of the ``(n_alloc, len(nodes))`` label matrix:
    four int64 arrays, sorted. ``labels[a, i]`` is the shard of account
    ``nodes[i]`` in mapping ``a``; ``KeyError`` if ``nodes`` lacks an account.

    Sorting the ``((alloc, tx), shard)`` pairs and dropping repeats
    (:func:`~repro.chain.ethdata.owner_sets`) leaves each transaction's
    shard set, so μ is its size and it counts once in each of its μ shards.
    """
    n_alloc, n = len(labels), len(offsets) - 1
    shard = np.take(labels, index_of(nodes, accounts), axis=1).astype(np.int64, copy=False).ravel()
    owner = np.repeat(np.arange(n_alloc * n), np.tile(np.diff(offsets), n_alloc))
    offsets, shard = owner_sets(owner, shard, n_alloc * n)

    mu = np.diff(offsets)
    base = int(mu.max(initial=0)) + 1
    width = (int(np.max(labels, initial=0)) + 1) * base
    key = shard * base + np.repeat(mu, mu)
    if n_alloc > 1:  # owner a·n + tx belongs to mapping a
        key += np.repeat(np.arange(n_alloc * n) // n * width, mu)
    count = np.bincount(key)
    key = np.flatnonzero(count)
    return key // width, key % width // base, key % base, count[key]


def evaluate_pandas(
    tx_pdf: pd.DataFrame,
    labels: np.ndarray,
    *,
    k: int,
    eta: float,
    lam: float | None = None,
    accounts: np.ndarray,
) -> AllocationMetrics:
    """Evaluate an allocation on a pandas transaction frame: the
    :func:`~repro.metrics.blockchain.shard_stats` of its :func:`span_counts`.

    ``labels[i]`` is the shard of account ``accounts[i]``; ``accounts`` is
    sorted and must cover every account of the stream (``KeyError``
    otherwise).
    """
    _, shard, mu, count = span_counts(*tx_incidence(tx_pdf), accounts, np.asarray(labels)[None])
    return rollup(*shard_stats(shard, mu, count), k=k, eta=eta, lam=lam)
