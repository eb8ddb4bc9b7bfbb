"""The benchmark's patch points (``perfbench/workloads.py::layer_hooks``).

``perfbench`` wraps each layer's public functions under the names their
callers use and reads their arguments and results for its correctness
checks. A refactor that renames or stops calling one of those names turns
a checked layer into a missing one, so both are pinned here.
"""
from pathlib import Path

import pytest

from repro.chain import EthParams, eth_transactions_pandas

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# The simulation keeps an edge-count table across steps and folds it
# itself, so it does not call this name.
KNOWN_ABSENT = {"repro.sim.adaptive.build_tx_graph_pandas"}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    return spans, workloads


def test_every_patch_point_present(perfbench):
    spans, workloads = perfbench
    rec = workloads.Recorder()
    with spans.Patches(workloads.layer_hooks(rec), spans.Tracer()) as patches:
        pass
    assert set(patches.absent) <= KNOWN_ABSENT


def test_adaptive_simulation_reaches_observed_layers(perfbench):
    """``adaptive_steps`` checks the last graph, the G-TxAllo run and every
    A-TxAllo call through these hooks."""
    spans, workloads = perfbench
    import repro.sim.adaptive as adaptive

    stream = eth_transactions_pandas(EthParams(sf=0.002, seed=7))
    rec = workloads.Recorder()
    with spans.Patches(workloads.layer_hooks(rec)):
        out = adaptive.adaptive_simulation(
            stream, k=4, eta=2.0, step_blocks=1, split=0.5, tau2_steps=(), include_pure_g=False
        )
    assert workloads.weight_ok(rec.last_adj, len(stream))
    assert len(rec.g_labels) == 1
    assert len(rec.a_calls) == len(out) > 0
