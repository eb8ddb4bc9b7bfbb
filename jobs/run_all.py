"""Run every experiment table (T1-T8) in one process and print them all.

This is the entrypoint used to fill EXPERIMENTS.md:

    python jobs/run_all.py --sf 0.1

T3 is read from the sweep's rows at (--k, --eta), which must lie on the
(--ks × --etas) grid; T7 and T8 come from one adaptive run.
"""
from _common import case_parser, run_adaptive
from static_tables import print_t1, print_t2, print_t3, print_t4, print_t5, print_t6, run_sweep
from t7_adaptive_throughput import print_t7
from t8_adaptive_runtime import print_t8


def main() -> None:
    ap = case_parser(__doc__)
    ap.add_argument("--step-blocks", type=int, default=2)
    args = ap.parse_args()
    if args.k not in args.ks or args.eta not in args.etas:
        ap.error("--k and --eta must be among --ks and --etas (T3 reads the sweep)")

    df = run_sweep(args)
    for fn in (print_t1, print_t2, print_t4, print_t5, print_t6):
        fn(df)
    print_t3(df, args.k, args.eta)

    adf = run_adaptive(args, (2, 4, 10))
    print_t7(adf, args.k, args.eta)
    print_t8(adf, args.k)


if __name__ == "__main__":
    main()
