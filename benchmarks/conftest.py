"""Shared fixtures for the per-table benchmarks.

Benchmarks run at SF=0.02 (~40k txs) so each bench round finishes in
seconds; the headline numbers in EXPERIMENTS.md come from the jobs at
SF=0.1. Heavy benches use ``benchmark.pedantic`` with few rounds.
"""
from __future__ import annotations

import pandas as pd
import pytest

from repro.chain import EthParams, eth_transactions_pandas
from repro.graph import adjacency_from_pandas, build_tx_graph_pandas

BENCH_PARAMS = EthParams(sf=0.02, seed=7)
K = 20
ETA = 2.0


@pytest.fixture(scope="session")
def bench_tx_pdf() -> pd.DataFrame:
    return eth_transactions_pandas(BENCH_PARAMS)


@pytest.fixture(scope="session")
def bench_adj(bench_tx_pdf):
    return adjacency_from_pandas(build_tx_graph_pandas(bench_tx_pdf))


@pytest.fixture(scope="session")
def bench_lam(bench_tx_pdf):
    return len(bench_tx_pdf) / K


@pytest.fixture(scope="session")
def bench_tx_df(spark, bench_tx_pdf):
    from repro.chain import spark_transactions

    df = spark_transactions(spark, bench_tx_pdf).cache()
    df.count()
    return df


@pytest.fixture(scope="session")
def bench_txallo_labels(bench_adj, bench_lam):
    from repro.txallo import g_txallo

    return g_txallo(bench_adj, k=K, eta=ETA, lam=bench_lam)
