"""Block-stepped adaptive simulation (paper §VI-C, Figs. 9-10).

Protocol (mirroring the paper): the stream is split 9:1 by block. G-TxAllo
runs on the history split to produce the initial mapping; the evaluation
split is consumed in time steps of ``step_blocks`` blocks (the paper's
τ₁ = 300 blocks ≈ 1 hour). At each step a variant updates its mapping:

- ``A∞``  — pure A-TxAllo every step (never re-globalized);
- ``A/G τ`` — hybrid: A-TxAllo each step, but every τ steps a fresh
  G-TxAllo over the full accumulated history (the paper's τ₂ sweep);
- ``G``   — pure G-TxAllo every step (the paper's fluctuating reference).

After updating, the step's transactions are evaluated against the updated
mapping with per-step capacity λ = |T_step|/k. Per-step algorithm run
time is recorded in ``seconds``, as in the paper, which reports algorithm
execution time; graph upkeep is reported in its own column,
``upkeep_seconds``, and is not counted in ``seconds``.

Graph upkeep keeps the integer edge-count table of the accumulated
stream (:mod:`repro.graph.build_pandas`): the history is counted before
the first step, and each step counts only its own transactions, merges
those counts in and folds the table into the step's weighted edges. The
hot accounts V̂ are the accounts of the step's count table. Integer counts
add exactly and the fold depends on the counts alone, so the kept graph
(and every label computed from it) equals a from-scratch
:func:`repro.graph.build_pandas.build_tx_graph_pandas` of the accumulated
stream bit for bit.

The per-step dataflow is pandas (equivalence-tested mirrors of the Spark
builders) because a Spark job per step would dominate the measured
sub-second A-TxAllo run times — see DESIGN.md §5.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.graph.adjacency import adjacency_from_pandas
from repro.graph.build_pandas import count_tx_edges, fold_tx_counts, merge_tx_counts
from repro.metrics.pandas_eval import evaluate_pandas
from repro.txallo import a_txallo, g_txallo
from repro.txallo.a_txallo import map_prev_labels


@dataclass
class _VariantState:
    """One variant's evolving mapping: labels (aligned to the previous
    step's graph nodes) + refresh gap."""

    name: str
    tau2: int | None  # steps between G-TxAllo refreshes; None = never
    pure_g: bool
    labels: np.ndarray


def adaptive_simulation(
    tx_pdf: pd.DataFrame,
    *,
    k: int,
    eta: float,
    step_blocks: int = 10,
    split: float = 0.9,
    tau2_steps: tuple[int, ...] = (2, 4, 10),
    include_pure_g: bool = True,
) -> pd.DataFrame:
    """Run the §VI-C simulation; one row per (step, variant).

    Columns: step, variant, algo ('A'|'G'), seconds (algorithm time for
    this step), upkeep_seconds (time to add the step's transactions to the
    graph; the same for every variant of a step), norm_throughput and
    gamma of the step's transactions under the variant's updated mapping.

    The first ``int(n_blocks * split)`` blocks form the history; ``split``
    must lie in (0, 1) and leave at least one block of history.
    """
    if not 0.0 < split < 1.0:
        raise ValueError(f"`split` must lie strictly between 0 and 1, got {split}")
    blocks = np.sort(tx_pdf["block"].unique())
    n_hist = int(len(blocks) * split)
    if n_hist == 0:
        raise ValueError(
            f"history split is empty: split={split} of {len(blocks)} blocks keeps no "
            "block; raise `split` or add blocks"
        )
    split_block = blocks[n_hist - 1]
    hist = tx_pdf[tx_pdf["block"] <= split_block].reset_index(drop=True)
    rest = tx_pdf[tx_pdf["block"] > split_block].reset_index(drop=True)

    counts = count_tx_edges(hist)
    adj0 = adjacency_from_pandas(fold_tx_counts(*counts))
    lam0 = len(hist) / k
    base_labels = g_txallo(adj0, k=k, eta=eta, lam=lam0)

    variants = [_VariantState(f"A/G tau2={t}", t, False, base_labels.copy()) for t in tau2_steps]
    variants.append(_VariantState("A only", None, False, base_labels.copy()))
    if include_pure_g:
        variants.append(_VariantState("G every step", None, True, base_labels.copy()))
    prev_nodes = adj0.nodes  # the accounts every variant's labels are aligned to

    eval_blocks = np.sort(rest["block"].unique())
    n_steps = max(1, len(eval_blocks) // step_blocks)
    n_txs = len(hist)
    rows: list[dict] = []
    for step in range(n_steps):
        lo = eval_blocks[step * step_blocks]
        hi_idx = min((step + 1) * step_blocks, len(eval_blocks)) - 1
        hi = eval_blocks[hi_idx]
        step_pdf = rest[(rest["block"] >= lo) & (rest["block"] <= hi)].reset_index(drop=True)
        if step_pdf.empty:
            continue
        t0 = time.perf_counter()
        step_counts = count_tx_edges(step_pdf)
        counts = merge_tx_counts(counts, step_counts)
        adj = adjacency_from_pandas(fold_tx_counts(*counts))
        upkeep = time.perf_counter() - t0
        n_txs += len(step_pdf)
        lam_full = n_txs / k
        hot = adj.index_of(np.unique(np.concatenate(step_counts[:2])))
        lam_step = len(step_pdf) / k

        for v in variants:
            use_g = v.pure_g or (v.tau2 is not None and step > 0 and step % v.tau2 == 0)
            t0 = time.perf_counter()
            if use_g:
                labels = g_txallo(adj, k=k, eta=eta, lam=lam_full)
                algo = "G"
            else:
                prev = map_prev_labels(adj, prev_nodes, v.labels)
                labels = a_txallo(adj, prev, hot, k=k, eta=eta, lam=lam_full)
                algo = "A"
            secs = time.perf_counter() - t0
            v.labels = labels

            m = evaluate_pandas(
                step_pdf, labels, k=k, eta=eta, lam=lam_step, accounts=adj.nodes
            )
            rows.append(
                {
                    "step": step,
                    "variant": v.name,
                    "algo": algo,
                    "seconds": secs,
                    "upkeep_seconds": upkeep,
                    "norm_throughput": m.norm_throughput,
                    "gamma": m.gamma,
                }
            )
        prev_nodes = adj.nodes
    return pd.DataFrame(rows)
