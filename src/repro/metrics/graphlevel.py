"""Graph-level metrics on the transaction graph (paper §III-C).

These operate on a CSR :class:`~repro.graph.adjacency.Adjacency` plus a
per-node community label array and are the quantities G-/A-TxAllo
maintains incrementally: per-community workload σ (Eq. 5),
capacity-free throughput Λ̂, and the inter-community weight ratio γ.

Label conventions: labels are int; negative labels mean "unassigned"
(A-TxAllo's brand-new nodes) — edges incident to an unassigned node count
as *cross* weight for the assigned side and the unassigned node itself
contributes nothing.
"""
from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Adjacency
from repro.metrics import formulas


def community_state(
    adj: Adjacency, labels: np.ndarray, n_comm: int, *, eta: float
) -> tuple[np.ndarray, np.ndarray]:
    """From-scratch (σ, Λ̂) per community, each an array of length ``n_comm``.

    σ_q = (self-loops in q) + (intra edge weight, each edge once)
        + η · (cut weight incident to q)                       — Eq. (5)
    Λ̂_q = (self-loops) + (intra weight) + (cut weight)/2       — §III-C
    """
    labels = np.asarray(labels)
    assigned_e = labels[adj.ev] >= 0
    same = assigned_e & (labels[adj.ev] == labels[adj.indices])
    cross = assigned_e & ~same

    lab_ev = np.where(labels[adj.ev] >= 0, labels[adj.ev], 0)
    # Each undirected intra edge appears twice in the directed arrays with
    # the same community on both rows -> bincount gives 2x intra weight.
    intra2 = np.bincount(lab_ev[same], weights=adj.weights[same], minlength=n_comm)
    cut = np.bincount(lab_ev[cross], weights=adj.weights[cross], minlength=n_comm)

    node_assigned = labels >= 0
    selfsum = np.bincount(
        labels[node_assigned], weights=adj.self_w[node_assigned], minlength=n_comm
    )
    sigma = selfsum + intra2 / 2.0 + eta * cut
    lam_hat = selfsum + intra2 / 2.0 + cut / 2.0
    return sigma, lam_hat


def graph_gamma(adj: Adjacency, labels: np.ndarray) -> float:
    """Inter-community weight ratio (graph-level γ, §III-C).

    Note this is the *edge-weight* ratio; the transaction-level γ reported
    in the evaluation counts whole transactions and is computed by
    :mod:`repro.metrics.blockchain`. The two coincide when every
    transaction has exactly two accounts.
    """
    labels = np.asarray(labels)
    cross = labels[adj.ev] != labels[adj.indices]
    cut_w = adj.weights[cross].sum() / 2.0
    total = adj.total_weight
    return float(cut_w / total) if total else 0.0


def graph_metrics(
    adj: Adjacency, labels: np.ndarray, k: int, *, eta: float, lam: float
) -> dict[str, float]:
    """Convenience rollup of graph-level σ/Λ̂ into Λ, ρ, γ for tests."""
    sigma, lam_hat = community_state(adj, labels, k, eta=eta)
    lam_i = formulas.clip_throughput(sigma, lam_hat, lam)
    return {
        "throughput": float(lam_i.sum()),
        "norm_throughput": float(lam_i.sum() / lam),
        "rho": formulas.rho(sigma),
        "gamma": graph_gamma(adj, labels),
    }
