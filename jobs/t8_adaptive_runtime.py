"""T8 (paper Fig. 10): per-step running time, hybrid A-TxAllo vs pure G.

Paper: with τ₁ = 300 blocks (~1 h), A-TxAllo takes ~0.55 s per step vs
~122 s for G-TxAllo — the A steps are negligible; only the periodic τ₂
refreshes pay the global cost.
"""
from _common import base_parser, make_session, print_markdown


def main() -> None:
    ap = base_parser(__doc__)
    ap.add_argument("--k", type=int, default=20)
    ap.add_argument("--eta", type=float, default=2.0)
    ap.add_argument("--step-blocks", type=int, default=2)
    ap.add_argument("--tau2", type=int, default=4)
    args = ap.parse_args()

    make_session("txallo-t8")
    from repro.chain import EthParams, eth_transactions_pandas
    from repro.sim.adaptive import adaptive_simulation

    tx_pdf = eth_transactions_pandas(EthParams(sf=args.sf, seed=args.seed))
    df = adaptive_simulation(
        tx_pdf,
        k=args.k,
        eta=args.eta,
        step_blocks=args.step_blocks,
        tau2_steps=(args.tau2,),
        include_pure_g=True,
    )
    per_step = df.pivot(index="step", columns="variant", values="seconds").reset_index()
    per_step.columns.name = None
    print_markdown(per_step, f"T8a (Fig. 10) per-step algorithm seconds, k={args.k}")
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
    main()
