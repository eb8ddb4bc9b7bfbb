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
"""
from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Adjacency, label_weights
from repro.metrics.formulas import clip_throughput
from repro.metrics.graphlevel import community_state


class TxAlloState:
    """Mutable allocation state over ``k`` communities.

    ``labels[v]`` is the community of node index ``v``; ``-1`` marks an
    unassigned node (contributes nothing; its incident edges count as
    cross for assigned neighbors, consistent with
    :func:`~repro.metrics.graphlevel.community_state`). Change
    ``labels`` only through :meth:`move`.
    """

    def __init__(
        self, adj: Adjacency, labels: np.ndarray, k: int, *, eta: float, lam: float
    ) -> None:
        self.adj = adj
        self.k = int(k)
        self.eta = float(eta)
        self.lam = float(lam)
        self.labels = np.asarray(labels, dtype=np.int64).copy()
        if self.labels.max(initial=-1) >= k:
            raise ValueError("labels must be < k (or -1 for unassigned)")
        self.sigma, self.lam_hat = community_state(adj, self.labels, k, eta=eta)
        self._s = adj.strength
        # Python-list copies for the per-node scan of `best_move`;
        # `move` keeps `_labels_l` equal to `labels`.
        self._indptr_l = adj.indptr.tolist()
        self._ind_l = adj.indices.tolist()
        self._w_l = adj.weights.tolist()
        self._self_l = adj.self_w.tolist()
        self._s_l = self._s.tolist()
        self._labels_l = self.labels.tolist()

    # -- read-side helpers -------------------------------------------------
    def throughput(self) -> float:
        """Current Λ = Σ_q Λ_q with the capacity clip (Eqs. 2-3)."""
        return float(clip_throughput(self.sigma, self.lam_hat, self.lam).sum())

    def neighbor_communities(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Candidate communities ℂ_v (Eq. 9) and their weights w_{v,q}.

        Returns the sorted community labels that v connects to (excluding
        v's own community and unassigned neighbors) and the corresponding
        weight. ``w_own`` is exposed via :meth:`own_weight`.
        """
        nbr, w = self.adj.neighbors(v)
        labs = self.labels[nbr]
        ok = labs >= 0
        labs, w = labs[ok], w[ok]
        uniq, inv = np.unique(labs, return_inverse=True)
        wsum = np.bincount(inv, weights=w)
        own = self.labels[v]
        keep = uniq != own
        return uniq[keep], wsum[keep]

    def own_weight(self, v: int) -> float:
        """w_{v, V_p \\ v}: weight from v to other members of its community."""
        nbr, w = self.adj.neighbors(v)
        return float(w[self.labels[nbr] == self.labels[v]].sum())

    # -- gain math ---------------------------------------------------------
    def _clip(self, sigma, lam_hat):
        return clip_throughput(sigma, lam_hat, self.lam)

    def join_gain(self, v: int, targets: np.ndarray, w_vq: np.ndarray) -> np.ndarray:
        """Δ_join Λ_q for joining each target community (Eq. 6), vectorized."""
        s_v = float(self._s[v])
        w_vv = float(self.adj.self_w[v])
        sig_q = self.sigma[targets]
        lh_q = self.lam_hat[targets]
        sig_q2 = sig_q + w_vv + self.eta * (s_v - w_vq) + (1.0 - self.eta) * w_vq
        lh_q2 = lh_q + w_vv + s_v / 2.0
        return self._clip(sig_q2, lh_q2) - self._clip(sig_q, lh_q)

    def leave_gain(self, v: int) -> float:
        """Δ_leave Λ_p for v leaving its current community (§V-B)."""
        p = int(self.labels[v])
        if p < 0:
            return 0.0
        s_v = float(self._s[v])
        w_vv = float(self.adj.self_w[v])
        w_vp = self.own_weight(v)
        sig_p2 = self.sigma[p] - w_vv - self.eta * (s_v - w_vp) - (1.0 - self.eta) * w_vp
        lh_p2 = self.lam_hat[p] - w_vv - s_v / 2.0
        return float(
            self._clip(sig_p2, lh_p2) - self._clip(self.sigma[p], self.lam_hat[p])
        )

    def move_gain(self, v: int, targets: np.ndarray, w_vq: np.ndarray) -> np.ndarray:
        """Δ_(v,p,q) Λ = Δ_leave Λ_p + Δ_join Λ_q (Eq. 8), per target."""
        return self.leave_gain(v) + self.join_gain(v, targets, w_vq)

    # -- sweep path --------------------------------------------------------
    #
    # The numpy methods above are the readable reference (and the test
    # oracle); the sweep loops call `best_move`, which gets ℂ_v and the
    # w_{v,q} from `label_weights`, the neighbour-label scan that Louvain
    # and METIS-like share, and evaluates Eq. (8) in pure Python. For the
    # low-degree nodes that dominate transaction graphs, per-node
    # numpy-call overhead (~25 µs) dwarfs the actual work; this path runs
    # an order of magnitude faster and is bit-identical in its decisions
    # (ties broken toward the smallest shard label in both).

    def _clip1(self, sig: float, lh: float) -> float:
        if sig <= self.lam:
            return lh
        return self.lam / sig * lh

    def best_move(
        self, v: int, *, join_only: bool = False
    ) -> tuple[int, float, float, float] | None:
        """The best target for node v: ``(q, gain, w_vq, w_vp)`` per
        Eq. (8) (or Eq. (6) when ``join_only`` — the init/new-node
        phase, where the leave side is skipped and empty ℂ_v falls back
        to all k). ``w_vp`` is v's weight into its current community,
        returned so the subsequent :meth:`move` avoids recomputing it.

        Returns None when ℂ_v is empty and ``join_only`` is False (the
        node stays, Alg. 1 line 13's skip)."""
        sigma, lam_hat = self.sigma, self.lam_hat
        p = self._labels_l[v]
        acc = label_weights(v, self._indptr_l, self._ind_l, self._w_l, self._labels_l)
        acc.pop(-1, None)  # unassigned neighbours
        w_own = acc.pop(p, 0.0)
        if not acc:
            if not join_only:
                return None
            acc = {q: 0.0 for q in range(self.k)}
            acc.pop(p, None)
            if not acc:
                return None

        s_v = self._s_l[v]
        w_vv = self._self_l[v]
        eta, lam = self.eta, self.lam
        if join_only or p < 0:
            leave = 0.0
        else:
            sig_p, lh_p = sigma[p], lam_hat[p]
            sig_p2 = sig_p - w_vv - eta * (s_v - w_own) - (1.0 - eta) * w_own
            lh_p2 = lh_p - w_vv - s_v / 2.0
            leave = self._clip1(sig_p2, lh_p2) - self._clip1(sig_p, lh_p)

        best_q, best_gain, best_w = -1, -np.inf, 0.0
        for q in sorted(acc):  # ascending labels -> first-max tie-break
            w_vq = acc[q]
            sig_q, lh_q = sigma[q], lam_hat[q]
            sig_q2 = sig_q + w_vv + eta * (s_v - w_vq) + (1.0 - eta) * w_vq
            lh_q2 = lh_q + w_vv + s_v / 2.0
            gain = leave + self._clip1(sig_q2, lh_q2) - self._clip1(sig_q, lh_q)
            if gain > best_gain:
                best_q, best_gain, best_w = q, gain, w_vq
        return best_q, best_gain, best_w, w_own

    # -- mutation ----------------------------------------------------------
    def move(
        self, v: int, q: int, w_vq: float | None = None, w_vp: float | None = None
    ) -> None:
        """Move v to community q, updating (σ, Λ̂) of source and target only
        (Lemma 1 guarantees other communities are unaffected). ``w_vq``
        and ``w_vp`` may be passed through from :meth:`best_move` to
        skip recomputing the community weights."""
        p = int(self.labels[v])
        if p == q:
            return
        s_v = float(self._s[v])
        w_vv = float(self.adj.self_w[v])
        if p >= 0:
            if w_vp is None:
                w_vp = self.own_weight(v)
            self.sigma[p] -= w_vv + self.eta * (s_v - w_vp) + (1.0 - self.eta) * w_vp
            self.lam_hat[p] -= w_vv + s_v / 2.0
        if w_vq is None:
            nbr, w = self.adj.neighbors(v)
            w_vq = float(w[self.labels[nbr] == q].sum())
        self.sigma[q] += w_vv + self.eta * (s_v - w_vq) + (1.0 - self.eta) * w_vq
        self.lam_hat[q] += w_vv + s_v / 2.0
        self.labels[v] = q
        self._labels_l[v] = int(q)
