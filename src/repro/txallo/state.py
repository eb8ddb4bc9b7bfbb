"""Incremental community state and throughput-gain math (paper §V-B).

Maintains per-community workload σ_q and capacity-free throughput Λ̂_q
under single-node moves, implementing Eqs. (6)-(8) and Lemma 1 (only the
source and target communities change). Used by both G-TxAllo and
A-TxAllo; tests cross-check every incremental update against the
from-scratch :func:`repro.metrics.graphlevel.community_state`.

Move deltas (v has self-loop w_vv, off-self strength s_v, and weight
w_vq to community q):

    join q   : σ'_q = σ_q + w_vv + η(s_v − w_vq) + (1−η)·w_vq
               Λ̂'_q = Λ̂_q + w_vv + s_v/2
    leave p  : σ'_p = σ_p − w_vv − η(s_v − w_vp) − (1−η)·w_vp
               Λ̂'_p = Λ̂_p − w_vv − s_v/2

(the leave deltas are the exact inverses of the join deltas, as they must
be for the state to stay consistent under arbitrary move sequences).
The sweeps and the moves run in C (``txallo_sweep`` and ``txallo_move``
in ``repro/kernels.c``) on numpy arrays that they update in place.
"""
from __future__ import annotations

import numpy as np

from repro import kernels
from repro.graph.adjacency import Adjacency
from repro.metrics.formulas import clip_throughput
from repro.metrics.graphlevel import community_state


class TxAlloState:
    """Mutable allocation state over ``k`` communities.

    ``labels[v]`` is the community of node index ``v``; ``-1`` marks an
    unassigned node (contributes nothing; its incident edges count as
    cross for assigned neighbors, consistent with
    :func:`~repro.metrics.graphlevel.community_state`). ``labels``,
    ``sigma`` and ``lam_hat`` are copies of the arrays that :meth:`move`
    and :meth:`sweep` update.
    """

    def __init__(
        self, adj: Adjacency, labels: np.ndarray, k: int, *, eta: float, lam: float
    ) -> None:
        self.adj = adj
        self.k = int(k)
        self.eta = float(eta)
        self.lam = float(lam)
        labels = np.array(labels, dtype=np.int64)  # a copy: the kernel moves nodes in it
        if len(labels) != adj.n:
            raise ValueError(f"{len(labels)} labels for {adj.n} nodes")
        if len(labels) and not -1 <= labels.min() <= labels.max() < k:
            raise ValueError("labels must lie in [0, k), or be -1 for unassigned")
        sigma, lam_hat = community_state(adj, labels, k, eta=eta)
        lam_q = clip_throughput(sigma, lam_hat, self.lam)
        self._labels, self._sig, self._lh, self._lam_q = labels, sigma, lam_hat, lam_q
        ptr = kernels.ptr
        n, indptr, indices, weights = kernels.csr_args(adj)
        # Each pointer keeps its array alive; the struct's copies of them do not.
        self._ptrs = {
            "indptr": indptr, "indices": indices, "weights": weights,
            "self_w": ptr(adj.self_w, n), "strength": ptr(adj.strength, n),
            "labels": ptr(labels, n),
            "sigma": ptr(sigma, k), "lam_hat": ptr(lam_hat, k), "lam_q": ptr(lam_q, k),
        }
        self._c = kernels.ffi.new(
            "struct txallo_state *",
            {"n": n, "k": self.k, "eta": self.eta, "lam": self.lam, **self._ptrs},
        )

    @property
    def labels(self) -> np.ndarray:
        return self._labels.copy()

    @property
    def sigma(self) -> np.ndarray:
        return self._sig.copy()

    @property
    def lam_hat(self) -> np.ndarray:
        return self._lh.copy()

    def sweep(self, nodes, *, join_only: bool = False) -> float:
        """One pass over the node indices ``nodes`` in order; returns the ΔΛ
        of its moves.

        Each node moves to the candidate with the largest gain: Eq. (8)
        over ℂ_v, moving only on a positive gain (Alg. 1 lines 11-18;
        a node with empty ℂ_v stays, line 13's skip). With ``join_only``
        (the absorb phase, Alg. 1 lines 2-9) the gain is Eq. (6), the
        leave side is skipped, empty ℂ_v falls back to all k, and the
        node always joins its best candidate."""
        nodes = np.ascontiguousarray(nodes, dtype=np.int64)
        if len(nodes) and not 0 <= nodes.min() <= nodes.max() < self.adj.n:
            raise ValueError(f"sweep node indices must lie in [0, {self.adj.n})")
        delta = kernels.ffi.new("double *")
        nodes_p = kernels.ptr(nodes, len(nodes))
        if kernels.lib.txallo_sweep(self._c, nodes_p, len(nodes), join_only, delta):
            raise MemoryError("txallo_sweep: out of memory")
        return delta[0]

    # -- mutation ----------------------------------------------------------
    def move(self, v: int, q: int, w_vq: float, w_vp: float) -> None:
        """Move v to community q, updating σ, Λ̂ and the clipped Λ of the
        source and target only (Lemma 1 guarantees other communities are
        unaffected). ``w_vq`` and ``w_vp`` are v's weights into q and into
        its current community (unused while v is unassigned)."""
        if not (0 <= v < self.adj.n and 0 <= q < self.k):
            raise ValueError(f"move of node {v} to community {q} is out of range")
        kernels.lib.txallo_move(self._c, v, q, w_vq, w_vp)
