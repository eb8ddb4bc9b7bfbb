"""Shared driver for the static-sweep tables T1-T6 (paper Figs. 2-8).

Runs the (method × k × η) sweep once and renders any subset of the six
tables from it; the thin per-table jobs (t1..t6) call into this module.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from _common import base_parser, load_workload, make_session, print_markdown


def run_sweep(args) -> pd.DataFrame:
    spark = make_session("txallo-static-tables")
    from repro.sim.runner import sweep

    tx_df, tx_pdf, adj = load_workload(spark, args.sf, args.seed)
    return sweep(spark, tx_df, adj, ks=args.ks, etas=args.etas, tx_pdf=tx_pdf)


def _pivot(df: pd.DataFrame, value: str, eta: float) -> pd.DataFrame:
    sub = df[df["eta"] == eta]
    out = sub.pivot(index="k", columns="method", values=value).reset_index()
    out.columns.name = None
    return out[["k", "random", "metis", "scheduler", "txallo"]]


def print_t1(df: pd.DataFrame) -> None:
    for eta in sorted(df["eta"].unique()):
        print_markdown(
            _pivot(df, "gamma", eta),
            f"T1 (Fig. 2) cross-shard transaction ratio γ, η={eta:g}",
        )


def print_t2(df: pd.DataFrame) -> None:
    for eta in sorted(df["eta"].unique()):
        print_markdown(
            _pivot(df, "norm_rho", eta),
            f"T2 (Fig. 3) workload balance ρ/λ, η={eta:g}",
        )


def print_t4(df: pd.DataFrame) -> None:
    for eta in sorted(df["eta"].unique()):
        print_markdown(
            _pivot(df, "norm_throughput", eta),
            f"T4 (Fig. 5) normalized throughput Λ/λ, η={eta:g}",
        )


def print_t5(df: pd.DataFrame) -> None:
    for eta in sorted(df["eta"].unique()):
        print_markdown(
            _pivot(df, "avg_latency", eta),
            f"T5a (Fig. 6) average confirmation latency ζ (time units), η={eta:g}",
        )
        print_markdown(
            _pivot(df, "worst_latency", eta),
            f"T5b (Fig. 7) worst-case latency (time units), η={eta:g}",
        )


def print_t3(df: pd.DataFrame, k: int, eta: float) -> None:
    """T3 (Fig. 4) from the sweep's rows at (k, η): each method's
    per-shard σ/λ, summarised, then listed in descending order."""
    sub = df[(df["k"] == k) & (df["eta"] == eta)]
    dists = {row.method: np.sort(row.norm_sigmas)[::-1] for row in sub.itertuples()}
    rows = [
        {
            "method": method,
            "max σ/λ": float(s[0]),
            "p90 σ/λ": float(np.quantile(s, 0.9)),
            "median σ/λ": float(np.median(s)),
            "min σ/λ": float(s[-1]),
            "overloaded shards": int((s > 1.0).sum()),
            "total σ/kλ": float(s.sum() / k),
        }
        for method, s in dists.items()
    ]
    print_markdown(
        pd.DataFrame(rows), f"T3 (Fig. 4) per-shard normalized workload, η={eta:g}, k={k}"
    )
    print("\nPer-shard σ/λ (sorted desc):")
    for method, s in dists.items():
        print(f"  {method:10s} " + " ".join(f"{v:.2f}" for v in s))


def print_t6(df: pd.DataFrame) -> None:
    eta = sorted(df["eta"].unique())[0]
    print_markdown(
        _pivot(df, "alloc_seconds", eta),
        f"T6 (Fig. 8) allocation running time (seconds), η={eta:g}",
    )


if __name__ == "__main__":
    ap = base_parser("All static tables T1-T6 from one sweep")
    args = ap.parse_args()
    df = run_sweep(args)
    print("\n<!-- raw sweep -->")
    print(df.to_string(index=False))
    for fn in (print_t1, print_t2, print_t4, print_t5, print_t6):
        fn(df)
