"""T2 bench (Fig. 3): the Spark metric pipeline, timed as one stacked
``collect_stats`` over the G-TxAllo and hash allocations at k = K, each
then rolled up to ρ and the rest of the per-shard stats."""
from benchmarks.conftest import ETA, K


def test_t2_spark_metric_pipeline(benchmark, spark, bench_tx_df, bench_adj, bench_txallo_labels):
    from repro.baselines import hash_alloc
    from repro.metrics.blockchain import collect_stats, rollup
    from repro.sim.runner import alloc_to_df

    labels = [bench_txallo_labels, hash_alloc(bench_adj.nodes, K)]
    alloc_df = alloc_to_df(spark, bench_adj, labels)

    def run():
        return collect_stats(bench_tx_df, alloc_df)

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert sorted(stats) == [0, 1]
    for triple in stats.values():
        m = rollup(*triple, k=K, eta=ETA)
        assert m.rho >= 0.0
        assert len(m.sigmas) == K
