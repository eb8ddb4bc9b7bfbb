"""Pandas mirror of :mod:`repro.metrics.blockchain`.

Used by the per-step adaptive simulation (Figs. 9-10) where the evaluation
window is small and a Spark job per step would dominate the measured
algorithm run time. ``tests/test_metrics.py::TestPandasMirror`` pins it to
the Spark evaluator on identical inputs.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.metrics import formulas
from repro.metrics.blockchain import AllocationMetrics, _rollup


def evaluate_pandas(
    tx_pdf: pd.DataFrame,
    shard_of: dict[int, int] | np.ndarray,
    *,
    k: int,
    eta: float,
    lam: float | None = None,
    accounts: np.ndarray | None = None,
) -> AllocationMetrics:
    """Evaluate an allocation on a pandas transaction frame.

    ``shard_of`` is either a dict ``account -> shard`` or a label array
    aligned with the sorted unique account ids in ``accounts``.
    """
    n_txs = len(tx_pdf)
    if lam is None:
        lam = n_txs / k

    if isinstance(shard_of, dict):
        lookup = shard_of.__getitem__
    else:
        if accounts is None:
            raise ValueError("label-array form requires the sorted `accounts` array")
        acc_sorted = accounts

        def lookup(a: int) -> int:
            i = int(np.searchsorted(acc_sorted, a))
            if i >= len(acc_sorted) or acc_sorted[i] != a:
                raise KeyError(a)
            return int(shard_of[i])

    n_intra = np.zeros(k, dtype=np.float64)
    n_cross = np.zeros(k, dtype=np.float64)
    lam_hat = np.zeros(k, dtype=np.float64)
    n_cross_total = 0
    for acc_list in tx_pdf["accounts"]:
        shards = {lookup(int(a)) for a in acc_list}
        mu = len(shards)
        if mu == 1:
            (s,) = shards
            n_intra[s] += 1
            lam_hat[s] += 1.0
        else:
            n_cross_total += 1
            for s in shards:
                n_cross[s] += 1
                lam_hat[s] += 1.0 / mu

    stats = pd.DataFrame(
        {
            "shard": np.arange(k),
            "n_intra": n_intra,
            "n_cross": n_cross,
            "lam_hat": lam_hat,
        }
    )
    return _rollup(stats, k=k, eta=eta, lam=lam, n_txs=n_txs, n_cross_total=n_cross_total)
