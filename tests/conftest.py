"""Shared fixtures for the TxAllo reproduction test suite.

The session-scoped ``spark`` fixture comes from the repo-root conftest.
Everything here is driver-side data reused across test modules; all of
it is deterministic in the generator seed.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.chain import EthParams, eth_transactions_pandas
from repro.graph import adjacency_from_pandas, build_tx_graph_pandas

SMALL = EthParams(sf=0.005, seed=7)  # ~10k txs, ~1.2k accounts, 10 blocks


@pytest.fixture(scope="session")
def tx_pdf() -> pd.DataFrame:
    return eth_transactions_pandas(SMALL)


@pytest.fixture(scope="session")
def adj(tx_pdf):
    return adjacency_from_pandas(build_tx_graph_pandas(tx_pdf))


@pytest.fixture(scope="session")
def tx_df(spark, tx_pdf):
    from repro.spark import spark_transactions

    df = spark_transactions(spark, tx_pdf).cache()
    df.count()
    return df


@pytest.fixture(scope="session")
def tiny_adj():
    return adjacency_from_pandas(build_tx_graph_pandas(tiny_tx_pdf()))


@pytest.fixture(scope="session")
def tiny_df(spark):
    from repro.spark import TX_SCHEMA

    return spark.createDataFrame(tiny_tx_pdf().to_dict("records"), schema=TX_SCHEMA)


def label_digest(labels: np.ndarray) -> str:
    """SHA-256 of a label array as int64, for pinning labels bit for bit."""
    return hashlib.sha256(np.ascontiguousarray(labels, dtype=np.int64).tobytes()).hexdigest()


def tiny_tx_pdf() -> pd.DataFrame:
    """A hand-written 8-tx stream with every edge case.

    Accounts 1..6. Includes a self-loop tx, a 3-account tx, a 4-account
    tx and repeated pairs — small enough that every metric can be
    verified by hand in the tests.
    """
    rows = [
        (0, 0, [1, 2]),
        (1, 0, [1, 2]),      # repeated pair -> edge weight accumulates
        (2, 0, [3]),         # self-loop (|A_Tx| = 1)
        (3, 0, [1, 3]),
        (4, 1, [4, 5, 6]),   # pi = 3, weight 1/3 per pair
        (5, 1, [2, 4]),
        (6, 1, [1, 2, 3, 4]),  # pi = 6, weight 1/6 per pair
        (7, 1, [5, 6]),
    ]
    return pd.DataFrame(rows, columns=["tx_id", "block", "accounts"])


def two_cliques_edges(n: int = 5, bridge_w: float = 0.1) -> pd.DataFrame:
    """Two n-cliques joined by one weak bridge — canonical community case."""
    rows = []
    for base in (0, n):
        for i in range(n):
            for j in range(i + 1, n):
                rows.append((base + i, base + j, 1.0))
    rows.append((0, n, bridge_w))
    return pd.DataFrame(rows, columns=["src", "dst", "weight"])
