"""T7 (paper Fig. 9): A-TxAllo throughput evolution vs global gap τ₂.

9:1 history/eval split; τ₁ = one time step. Paper shape: pure A-TxAllo's
throughput decays only slowly over ~200 steps, and the *average*
throughput is essentially flat across τ₂ ∈ {20, 40, 100, 200} steps.
Our stream is shorter, so τ₂ is scaled down (DESIGN.md §6).
"""
import pandas as pd

from _common import case_parser, print_markdown, run_adaptive


def print_t7(df: pd.DataFrame, k: int, eta: float) -> None:
    """T7a/b from an ``adaptive_simulation`` frame."""
    evo = df.pivot(index="step", columns="variant", values="norm_throughput").reset_index()
    evo.columns.name = None
    print_markdown(evo, f"T7a (Fig. 9a) per-step normalized throughput, k={k}, η={eta:g}")
    avg = (
        df.groupby("variant")
        .agg(**{"avg Λ/λ": ("norm_throughput", "mean"), "avg γ": ("gamma", "mean")})
        .reset_index()
    )
    print_markdown(avg, "T7b (Fig. 9b) average throughput per variant")


if __name__ == "__main__":
    ap = case_parser(__doc__)
    ap.add_argument("--step-blocks", type=int, default=2)
    ap.add_argument("--tau2", type=int, nargs="+", default=[2, 4, 10])
    args = ap.parse_args()
    print_t7(run_adaptive(args, args.tau2), args.k, args.eta)
