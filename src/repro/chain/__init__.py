"""Blockchain substrate: synthetic Ethereum-like transaction stream."""
from repro.chain.ethdata import (  # noqa: F401
    EthParams,
    eth_transactions_pandas,
    spark_transactions,
    tx_incidence,
)
