"""Pandas mirror of :mod:`repro.graph.build`.

The adaptive simulation (paper Figs. 9-10) grows the transaction graph by
one small slice of blocks per time step; launching a Spark job per step
would dominate the measured A-TxAllo run time, so the incremental path
uses this mirror. ``tests/test_graph_build.py`` pins it row-for-row to the
Spark builder.

The build is two stages, :func:`expand_tx_edges` (one raw pair row per
transaction pair, read from the stream's incidence array
:func:`repro.chain.ethdata.tx_incidence`) and :func:`aggregate_tx_edges`
(sum per pair), so that the simulation can expand each step's
transactions once and keep the raw rows across steps.
"""
import numpy as np
import pandas as pd

from repro.chain.ethdata import tx_incidence


def expand_tx_edges(tx_pdf: pd.DataFrame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw pair rows ``(src, dst, weight)`` with ``src <= dst``, unaggregated.

    A tx with ``n`` distinct accounts yields ``C(n,2)`` pairs of weight
    ``2/(n(n-1))`` each; a single-account tx yields a weight-1 self-loop.
    Rows come in transaction order, and within a transaction in
    ``combinations`` order of its sorted accounts, so expanding two
    consecutive slices and concatenating gives the same rows as expanding
    their concatenation. Transactions of one arity ``n`` are expanded
    together: ``np.triu_indices(n, 1)`` is the ``combinations`` order.
    """
    offsets, accounts = tx_incidence(tx_pdf)
    arity = np.diff(offsets)
    n_rows = np.where(arity == 1, 1, arity * (arity - 1) // 2)
    first_row = np.concatenate([[0], np.cumsum(n_rows)])
    src = np.empty(first_row[-1], dtype=np.int64)
    dst = np.empty(first_row[-1], dtype=np.int64)
    weight = np.empty(first_row[-1], dtype=np.float64)
    for n in np.unique(arity).tolist():
        iu, ju = np.triu_indices(n, 1 if n > 1 else 0)  # n == 1: the self-loop (0, 0)
        w = 2.0 / (n * (n - 1)) if n > 1 else 1.0
        txs = np.nonzero(arity == n)[0]
        rows = first_row[txs, None] + np.arange(len(iu))
        base = offsets[txs, None]
        src[rows] = accounts[base + iu]
        dst[rows] = accounts[base + ju]
        weight[rows] = w
    return src, dst, weight


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
