"""Shared plumbing for the spark-submit experiment entrypoints.

Each ``jobs/t*.py`` reproduces one evaluation table (DESIGN.md §4). Run
directly (``python jobs/t1_cross_shard.py``) or via ``spark-submit``.
All jobs print GitHub-flavoured markdown tables so their output can be
pasted into EXPERIMENTS.md verbatim.
"""
from __future__ import annotations

import argparse
import os
import sys

import pandas as pd

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def make_session(app: str):
    """A local SparkSession matching the conftest fixture's settings."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def base_parser(desc: str) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=desc)
    ap.add_argument("--sf", type=float, default=0.1, help="scale factor (0.1 ~ 200k txs)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--ks", type=int, nargs="+", default=[4, 10, 20, 40, 60])
    ap.add_argument("--etas", type=float, nargs="+", default=[2.0, 6.0, 10.0])
    return ap


def case_parser(desc: str) -> argparse.ArgumentParser:
    """:func:`base_parser` plus the (k, η) of the T3/T7/T8 case studies."""
    ap = base_parser(desc)
    ap.add_argument("--k", type=int, default=20, help="k for the T3/T7/T8 case studies")
    ap.add_argument("--eta", type=float, default=2.0, help="η for the T3/T7/T8 case studies")
    return ap


def load_workload(spark, sf: float, seed: int):
    """(tx_df, tx_pdf, adj) for the Ethereum-like stream at ``sf``; the
    stream is generated once and handed to Spark through Arrow."""
    from repro.chain import EthParams, eth_transactions_pandas, spark_transactions
    from repro.graph import build_tx_graph, to_adjacency

    tx_pdf = eth_transactions_pandas(EthParams(sf=sf, seed=seed))
    tx_df = spark_transactions(spark, tx_pdf).cache()
    adj = to_adjacency(build_tx_graph(tx_df))
    return tx_df, tx_pdf, adj


def run_adaptive(args, tau2_steps) -> pd.DataFrame:
    """The T7/T8 adaptive simulation (all variants incl. pure G) at the
    case-study (k, η); per-step pandas, no Spark."""
    from repro.chain import EthParams, eth_transactions_pandas
    from repro.sim.adaptive import adaptive_simulation

    return adaptive_simulation(
        eth_transactions_pandas(EthParams(sf=args.sf, seed=args.seed)),
        k=args.k,
        eta=args.eta,
        step_blocks=args.step_blocks,
        tau2_steps=tuple(tau2_steps),
    )


def print_markdown(df: pd.DataFrame, title: str, floatfmt: str = "{:.3f}") -> None:
    """Print a DataFrame as a markdown table."""
    print(f"\n### {title}\n")
    fmt = df.copy()
    for c in fmt.columns:
        if fmt[c].dtype.kind == "f":
            fmt[c] = fmt[c].map(lambda v: floatfmt.format(v))
    header = "| " + " | ".join(str(c) for c in fmt.columns) + " |"
    sep = "|" + "|".join("---" for _ in fmt.columns) + "|"
    print(header)
    print(sep)
    for _, row in fmt.iterrows():
        print("| " + " | ".join(str(v) for v in row) + " |")
    sys.stdout.flush()
