"""Blockchain substrate: synthetic Ethereum-like transaction stream."""
from repro.chain.ethdata import EthParams, eth_transactions_pandas  # noqa: F401
