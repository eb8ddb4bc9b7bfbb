"""Graph-level metrics on the transaction graph (paper §III-C).

These operate on a CSR :class:`~repro.graph.adjacency.Adjacency` plus a
per-node community label array and are the quantities G-/A-TxAllo
maintains incrementally: per-community workload σ (Eq. 5) and
capacity-free throughput Λ̂.

Label conventions: labels are int; negative labels mean "unassigned"
(A-TxAllo's brand-new nodes) — edges incident to an unassigned node count
as *cross* weight for the assigned side and the unassigned node itself
contributes nothing.
"""
from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Adjacency


def community_state(
    adj: Adjacency, labels: np.ndarray, n_comm: int, *, eta: float
) -> tuple[np.ndarray, np.ndarray]:
    """From-scratch (σ, Λ̂) per community, each an array of length ``n_comm``.

    σ_q = (self-loops in q) + (intra edge weight, each edge once)
        + η · (cut weight incident to q)                       — Eq. (5)
    Λ̂_q = (self-loops) + (intra weight) + (cut weight)/2       — §III-C
    """
    labels = np.asarray(labels)
    lab_src = labels[adj.ev]
    assigned_e = lab_src >= 0
    same = assigned_e & (lab_src == labels[adj.indices])
    cross = assigned_e & ~same

    lab_ev = np.where(assigned_e, lab_src, 0)
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

