"""Tests for the synthetic Ethereum-like transaction generator."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.chain import EthParams, eth_transactions_pandas, spark_transactions, tx_incidence
from repro.chain.ethdata import (
    _activity_weights,
    _community_assignment,
    _relationship_universe,
)


@pytest.fixture(scope="module")
def small():
    return eth_transactions_pandas(EthParams(sf=0.005, seed=7))


class TestParams:
    def test_scale_factor_counts(self):
        p = EthParams(sf=0.1)
        assert p.n_txs == 200_000
        assert p.n_accounts == 30_000
        assert p.n_blocks == 200

    def test_minimums_at_tiny_sf(self):
        p = EthParams(sf=1e-9)
        assert p.n_txs >= 10
        assert p.n_accounts >= 8
        assert p.n_blocks >= 1
        assert p.n_communities >= 2

    def test_params_and_kwargs_mutually_exclusive(self):
        with pytest.raises(TypeError):
            eth_transactions_pandas(EthParams(sf=0.001), sf=0.001)

    def test_kwargs_form(self):
        a = eth_transactions_pandas(sf=0.001, seed=3)
        b = eth_transactions_pandas(EthParams(sf=0.001, seed=3))
        pd.testing.assert_frame_equal(a, b)


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_same_seed_same_stream(self, seed):
        a = eth_transactions_pandas(EthParams(sf=0.002, seed=seed))
        b = eth_transactions_pandas(EthParams(sf=0.002, seed=seed))
        pd.testing.assert_frame_equal(a, b)

    def test_stream_pinned(self):
        """The generator's draws and account sets must not move: SHA-256 of
        ``(tx_id, block, offsets, accounts)`` at SF 0.02, seed 7."""
        pdf = eth_transactions_pandas(EthParams(sf=0.02, seed=7))
        h = hashlib.sha256()
        for a in (pdf["tx_id"].to_numpy(), pdf["block"].to_numpy(), *tx_incidence(pdf)):
            h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
        assert h.hexdigest() == (
            "40d0a0d666c29da57324182dcca8b4af3cfae0dd4555a1a332f24bad83490a03"
        )

    def test_different_seed_different_stream(self):
        a = eth_transactions_pandas(EthParams(sf=0.002, seed=1))
        b = eth_transactions_pandas(EthParams(sf=0.002, seed=2))
        assert not a["accounts"].equals(b["accounts"])


class TestSchema:
    def test_columns(self, small):
        assert list(small.columns) == ["tx_id", "block", "accounts"]

    def test_tx_ids_are_chronological_sequence(self, small):
        np.testing.assert_array_equal(small["tx_id"].to_numpy(), np.arange(len(small)))

    def test_blocks_non_decreasing(self, small):
        assert (np.diff(small["block"].to_numpy()) >= 0).all()

    def test_block_count(self, small):
        p = EthParams(sf=0.005, seed=7)
        assert small["block"].nunique() == p.n_blocks

    def test_accounts_sorted_unique_nonempty(self, small):
        for acc in small["accounts"]:
            assert len(acc) >= 1
            assert list(acc) == sorted(set(acc))

    def test_account_ids_in_range(self, small):
        p = EthParams(sf=0.005, seed=7)
        flat = [a for lst in small["accounts"] for a in lst]
        assert min(flat) >= 0
        assert max(flat) < p.n_accounts


class TestIncidence:
    def test_sorts_and_deduplicates_each_transaction(self):
        pdf = pd.DataFrame({"tx_id": [0, 1, 2], "accounts": [[3, 1, 3], [2], [5, 4]]})
        offsets, accounts = tx_incidence(pdf)
        assert offsets.tolist() == [0, 2, 3, 5]
        assert accounts.tolist() == [1, 3, 2, 4, 5]

    def test_matches_generated_lists(self, small):
        offsets, accounts = tx_incidence(small)
        parts = np.split(accounts, offsets[1:-1])
        assert [p.tolist() for p in parts] == [list(a) for a in small["accounts"]]


class TestShape:
    @pytest.mark.parametrize("seed", [7, 11])
    def test_hub_share_near_11_percent(self, seed):
        p = EthParams(sf=0.01, seed=seed)
        pdf = eth_transactions_pandas(p)
        share = sum(1 for lst in pdf["accounts"] if 0 in lst) / len(pdf)
        assert 0.08 <= share <= 0.15

    def test_self_loop_rate(self, small):
        rate = sum(1 for lst in small["accounts"] if len(lst) == 1) / len(small)
        assert 0.002 <= rate <= 0.03  # p_self = 1%

    def test_multi_account_rate(self, small):
        rate = sum(1 for lst in small["accounts"] if len(lst) > 2) / len(small)
        assert 0.005 <= rate <= 0.08  # p_multi = 3%

    def test_max_accounts_per_tx(self, small):
        assert max(len(lst) for lst in small["accounts"]) <= 5  # pair + up to 3 extras

    def test_long_tail_activity(self, small):
        counts = pd.Series([a for lst in small["accounts"] for a in lst]).value_counts()
        # Most accounts appear rarely; the hub dominates.
        assert counts.iloc[0] > 10 * counts.median()

    def test_edge_reuse(self, small):
        # Persistent relationships: far fewer distinct pairs than txs.
        pairs = {
            (lst[0], lst[-1]) for lst in small["accounts"] if len(lst) == 2
        }
        n_pairs_txs = sum(1 for lst in small["accounts"] if len(lst) == 2)
        assert len(pairs) < 0.6 * n_pairs_txs


class TestInternals:
    def test_community_assignment_covers_all(self):
        p = EthParams(sf=0.005)
        comm = _community_assignment(p)
        assert len(comm) == p.n_accounts
        assert comm.min() == 0
        assert comm[0] == 0  # hub pinned to community 0

    def test_community_sizes_long_tailed(self):
        p = EthParams(sf=0.01)
        sizes = np.bincount(_community_assignment(p))
        assert sizes.max() > 2 * np.median(sizes[sizes > 0])

    def test_activity_weights_sum_to_one(self):
        p = EthParams(sf=0.005)
        w = _activity_weights(p)
        assert w.sum() == pytest.approx(1.0)
        assert w[0] == w.max()  # hub is the most active account

    def test_relationship_universe_no_self_pairs(self):
        p = EthParams(sf=0.005)
        g = np.random.default_rng(p.seed)
        src, dst, pop = _relationship_universe(
            p, g, _community_assignment(p), _activity_weights(p)
        )
        assert (src != dst).all()
        assert pop.sum() == pytest.approx(1.0)

    def test_relationship_hub_popularity_pinned(self):
        p = EthParams(sf=0.005)
        g = np.random.default_rng(p.seed)
        src, dst, pop = _relationship_universe(
            p, g, _community_assignment(p), _activity_weights(p)
        )
        hub = (src == 0) | (dst == 0)
        assert pop[hub].sum() == pytest.approx(p.hub_share)


class TestSparkWrapper:
    def test_schema_and_count(self, spark):
        df = spark_transactions(spark, eth_transactions_pandas(EthParams(sf=0.001, seed=7)))
        assert df.count() == EthParams(sf=0.001).n_txs
        assert [f.name for f in df.schema.fields] == ["tx_id", "block", "accounts"]

    def test_matches_pandas(self, spark):
        want = eth_transactions_pandas(EthParams(sf=0.001, seed=7))
        got = (
            spark_transactions(spark, want)
            .toPandas()
            .sort_values("tx_id")
            .reset_index(drop=True)
        )
        assert got["tx_id"].tolist() == want["tx_id"].tolist()
        assert [list(a) for a in got["accounts"]] == [list(a) for a in want["accounts"]]
