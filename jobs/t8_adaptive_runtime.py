"""T8 (paper Fig. 10): per-step running time, hybrid A-TxAllo vs pure G.

Paper: with τ₁ = 300 blocks (~1 h), A-TxAllo takes ~0.55 s per step vs
~122 s for G-TxAllo — the A steps are negligible; only the periodic τ₂
refreshes pay the global cost.
"""
import pandas as pd

from _common import case_parser, print_markdown, run_adaptive


def print_t8(df: pd.DataFrame, k: int) -> None:
    """T8a/b from an ``adaptive_simulation`` frame."""
    per_step = df.pivot(index="step", columns="variant", values="seconds").reset_index()
    per_step.columns.name = None
    print_markdown(per_step, f"T8a (Fig. 10) per-step algorithm seconds, k={k}")
    agg = (
        df.groupby(["variant", "algo"])
        .agg(
            count=("seconds", "count"),
            mean=("seconds", "mean"),
            max=("seconds", "max"),
            upkeep_mean=("upkeep_seconds", "mean"),
        )
        .reset_index()
    )
    print_markdown(
        agg, "T8b per-variant run-time summary (A vs G steps; graph upkeep not in `mean`)"
    )


if __name__ == "__main__":
    ap = case_parser(__doc__)
    ap.add_argument("--step-blocks", type=int, default=2)
    ap.add_argument("--tau2", type=int, default=4)
    args = ap.parse_args()
    print_t8(run_adaptive(args, (args.tau2,)), args.k)
