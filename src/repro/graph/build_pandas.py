"""Pandas mirror of :mod:`repro.graph.build`.

The adaptive simulation (paper Figs. 9-10) grows the transaction graph by
one small slice of blocks per time step; launching a Spark job per step
would dominate the measured A-TxAllo run time, so the incremental path
uses this mirror. ``tests/test_graph_build.py`` pins it row-for-row to the
Spark builder.

The build is two stages, :func:`expand_tx_edges` (one raw pair row per
transaction pair) and :func:`aggregate_tx_edges` (sum per pair), so that
the simulation can expand each step's transactions once and keep the raw
rows across steps.
"""
from itertools import combinations

import numpy as np
import pandas as pd


def expand_tx_edges(tx_pdf: pd.DataFrame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw pair rows ``(src, dst, weight)`` with ``src <= dst``, unaggregated.

    A tx with ``n`` distinct accounts yields ``C(n,2)`` pairs of weight
    ``2/(n(n-1))`` each; a single-account tx yields a weight-1 self-loop.
    Rows come in transaction order, and within a transaction in
    ``combinations`` order of its sorted accounts, so expanding two
    consecutive slices and concatenating gives the same rows as expanding
    their concatenation.
    """
    srcs: list[int] = []
    dsts: list[int] = []
    ws: list[float] = []
    for accounts in tx_pdf["accounts"]:
        acc = sorted(set(accounts))
        n = len(acc)
        if n == 1:
            srcs.append(acc[0])
            dsts.append(acc[0])
            ws.append(1.0)
            continue
        w = 2.0 / (n * (n - 1))
        for u, v in combinations(acc, 2):
            srcs.append(u)
            dsts.append(v)
            ws.append(w)
    return (
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        np.asarray(ws, dtype=np.float64),
    )


def aggregate_tx_edges(src: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> pd.DataFrame:
    """Sum raw pair rows into unique ``(src, dst, weight)`` edges, sorted.

    The grouped sum adds each pair's weights in row order, so the result
    depends bit for bit on the row sequence, not only on the row set.
    """
    edges = pd.DataFrame({"src": src, "dst": dst, "weight": weight})
    return edges.groupby(["src", "dst"], as_index=False, sort=True)["weight"].sum()


def build_tx_graph_pandas(tx_pdf: pd.DataFrame) -> pd.DataFrame:
    """Aggregated weighted edges ``(src, dst, weight)`` with ``src <= dst``.

    Same contract as :func:`repro.graph.build.build_tx_graph`; see
    :func:`expand_tx_edges` for the per-transaction pair weights.
    """
    return aggregate_tx_edges(*expand_tx_edges(tx_pdf))
