"""Tests for the block-stepped adaptive simulation (sim.adaptive)."""
import dataclasses
import hashlib

import numpy as np
import pandas as pd
import pytest

import repro.sim.adaptive as adaptive
from repro.chain import EthParams, eth_transactions_pandas
from repro.graph import adjacency_from_pandas, build_tx_graph_pandas
from repro.sim.adaptive import adaptive_simulation
from tests.conftest import tiny_tx_pdf


@pytest.fixture(scope="module")
def stream():
    return eth_transactions_pandas(EthParams(sf=0.005, seed=9))


@pytest.fixture(scope="module")
def sim(stream):
    return adaptive_simulation(
        stream, k=6, eta=2.0, step_blocks=1, split=0.7, tau2_steps=(2,), include_pure_g=True
    )


class TestStructure:
    def test_variants_present(self, sim):
        assert set(sim["variant"]) == {"A/G tau2=2", "A only", "G every step"}

    def test_steps_cover_eval_split(self, sim, stream):
        blocks = np.sort(stream["block"].unique())
        n_eval = len(blocks) - int(len(blocks) * 0.7)
        assert sim["step"].nunique() == n_eval

    def test_columns(self, sim):
        assert set(sim.columns) == {
            "step", "variant", "algo", "seconds", "upkeep_seconds", "norm_throughput", "gamma",
        }

    def test_upkeep_shared_by_variants_of_a_step(self, sim):
        assert (sim["upkeep_seconds"] >= 0).all()
        assert (sim.groupby("step")["upkeep_seconds"].nunique() == 1).all()

    def test_algo_tags(self, sim):
        g = sim[sim.variant == "G every step"]
        assert (g["algo"] == "G").all()
        a = sim[sim.variant == "A only"]
        assert (a["algo"] == "A").all()
        hybrid = sim[sim.variant == "A/G tau2=2"]
        # step 0 is A (the base G ran before the loop); every tau2-th is G.
        assert set(hybrid["algo"]) == {"A", "G"}

    def test_hybrid_refresh_cadence(self, sim):
        hybrid = sim[sim.variant == "A/G tau2=2"].sort_values("step")
        for _, row in hybrid.iterrows():
            expected = "G" if (row["step"] > 0 and row["step"] % 2 == 0) else "A"
            assert row["algo"] == expected


class TestBehaviour:
    def test_metrics_sane(self, sim):
        assert sim["gamma"].between(0, 1).all()
        assert (sim["norm_throughput"] > 0).all()
        assert (sim["seconds"] >= 0).all()

    def test_a_steps_faster_than_g_steps(self, sim):
        a_mean = sim[sim.algo == "A"]["seconds"].mean()
        g_mean = sim[sim.algo == "G"]["seconds"].mean()
        assert a_mean < g_mean

    def test_adaptive_tracks_global_throughput(self, sim):
        """Fig. 9b: average throughput of the variants is comparable."""
        avg = sim.groupby("variant")["norm_throughput"].mean()
        assert avg["A only"] >= 0.75 * avg["G every step"]

    def test_deterministic(self, stream):
        kw = dict(k=4, eta=2.0, step_blocks=2, split=0.8, tau2_steps=(3,), include_pure_g=False)
        a = adaptive_simulation(stream, **kw)
        b = adaptive_simulation(stream, **kw)
        timing = ["seconds", "upkeep_seconds"]
        pd.testing.assert_frame_equal(a.drop(columns=timing), b.drop(columns=timing))

    def test_empty_eval_split_rejected(self, stream):
        with pytest.raises(ValueError):
            adaptive_simulation(stream, k=4, eta=2.0, step_blocks=1, tau2_steps=(), split=1.0)

    def test_zero_split_rejected(self, stream):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            adaptive_simulation(stream, k=4, eta=2.0, step_blocks=1, tau2_steps=(), split=0.0)

    def test_split_below_one_block_rejected(self, stream):
        n_blocks = stream["block"].nunique()
        with pytest.raises(ValueError, match="history split is empty"):
            adaptive_simulation(
                stream, k=4, eta=2.0, step_blocks=1, tau2_steps=(), split=0.5 / n_blocks
            )


def _frame_digest(df: pd.DataFrame) -> str:
    """SHA-256 of the simulation frame's non-timing columns, bit for bit."""
    h = hashlib.sha256()
    for col in ("step", "variant", "algo", "norm_throughput", "gamma"):
        vals = df[col].to_numpy()
        h.update(col.encode())
        if vals.dtype == object:
            h.update("\x00".join(vals).encode())
        else:
            h.update(np.ascontiguousarray(vals).tobytes())
    return h.hexdigest()


class TestIncrementalUpkeep:
    """The graph kept across steps equals a from-scratch rebuild, bit for bit."""

    def test_kept_graph_equals_rebuild_every_step(self, stream, monkeypatch):
        built = []

        def recording(edges):
            adj = adjacency_from_pandas(edges)
            built.append(adj)
            return adj

        monkeypatch.setattr(adaptive, "adjacency_from_pandas", recording)
        adaptive_simulation(
            stream, k=6, eta=2.0, step_blocks=1, split=0.7, tau2_steps=(), include_pure_g=False
        )
        blocks = np.sort(stream["block"].unique())
        n_hist = int(len(blocks) * 0.7)
        assert len(built) == len(blocks) - n_hist + 1  # history, then one per step
        for i, kept in enumerate(built):
            cum = stream[stream["block"] <= blocks[n_hist - 1 + i]]
            fresh = adjacency_from_pandas(build_tx_graph_pandas(cum))
            for f in dataclasses.fields(fresh):
                assert np.array_equal(getattr(kept, f.name), getattr(fresh, f.name)), (i, f.name)

    def test_frame_digest_pinned(self, stream):
        """Digest taken with integer edge counts and the integer Λ̂ fold."""
        df = adaptive_simulation(
            stream, k=4, eta=2.0, step_blocks=1, split=0.6, tau2_steps=(2,), include_pure_g=True
        )
        assert _frame_digest(df) == (
            "b67f1cdf597d5b9893e601e2cb6b40ddb474e3c87691c3586f3ff98b9059fb4c"
        )


class TestEdgeCases:
    def test_block_gaps_make_no_empty_step(self, stream, monkeypatch):
        """Block ranges without transactions form no step; the kept graph
        still equals a rebuild after every step."""
        blocks = np.sort(stream["block"].unique())
        gappy = stream[~stream["block"].isin(blocks[7::2])].reset_index(drop=True)
        built = []

        def recording(edges):
            built.append(adjacency_from_pandas(edges))
            return built[-1]

        monkeypatch.setattr(adaptive, "adjacency_from_pandas", recording)
        out = adaptive_simulation(
            gappy, k=4, eta=2.0, step_blocks=1, split=0.7, tau2_steps=(), include_pure_g=False
        )
        present = np.sort(gappy["block"].unique())
        n_hist = int(len(present) * 0.7)
        assert out["step"].tolist() == list(range(len(present) - n_hist))
        fresh = adjacency_from_pandas(build_tx_graph_pandas(gappy))
        for f in dataclasses.fields(fresh):
            assert np.array_equal(getattr(built[-1], f.name), getattr(fresh, f.name)), f.name

    def test_k_above_account_count(self):
        """Six accounts, ten shards: every label stays in [0, k)."""
        k = 10
        out = adaptive_simulation(
            tiny_tx_pdf(), k=k, eta=2.0, step_blocks=1, split=0.5, tau2_steps=(2, 4, 10)
        )
        assert out["gamma"].between(0, 1).all()
        assert (out["norm_throughput"] > 0).all()
        adj = adjacency_from_pandas(build_tx_graph_pandas(tiny_tx_pdf()))
        g = adaptive.g_txallo(adj, k=k, eta=2.0, lam=8 / k)
        a = adaptive.a_txallo(adj, g, np.arange(adj.n), k=k, eta=2.0, lam=8 / k)
        for labels in (g, a):
            assert len(labels) == adj.n and labels.min() >= 0 and labels.max() < k
