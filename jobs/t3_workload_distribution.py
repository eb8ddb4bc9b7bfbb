"""T3 (paper Fig. 4): per-shard workload distribution case study.

η=2, k=20. The paper shows normalized per-shard workload σ_i/λ bars:
the hub shard stands out for random/METIS/TxAllo (the most active
account holds ~11% of txs), while Shard Scheduler stays flat at ~1.
"""
from _common import case_parser
from static_tables import print_t3, run_sweep

if __name__ == "__main__":
    args = case_parser(__doc__).parse_args()
    args.ks, args.etas = [args.k], [args.eta]  # the sweep at the case-study point only
    print_t3(run_sweep(args), args.k, args.eta)
