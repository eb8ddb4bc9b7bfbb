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
    :func:`~repro.metrics.graphlevel.community_state`). ``labels``,
    ``sigma`` and ``lam_hat`` are numpy snapshots of the Python lists
    that :meth:`move` and :meth:`sweep` update.
    """

    def __init__(
        self, adj: Adjacency, labels: np.ndarray, k: int, *, eta: float, lam: float
    ) -> None:
        self.adj = adj
        self.k = int(k)
        self.eta = float(eta)
        self.lam = float(lam)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.max(initial=-1) >= k:
            raise ValueError("labels must be < k (or -1 for unassigned)")
        sigma, lam_hat = community_state(adj, labels, k, eta=eta)
        # Per-shard σ_q, Λ̂_q and Λ_q = clip(σ_q, Λ̂_q) as Python floats,
        # and Python-list copies of the CSR and labels for `sweep`.
        self._sig = sigma.tolist()
        self._lh = lam_hat.tolist()
        self._lam_q = clip_throughput(sigma, lam_hat, self.lam).tolist()
        self._indptr_l = adj.indptr.tolist()
        self._ind_l = adj.indices.tolist()
        self._w_l = adj.weights.tolist()
        self._self_l = adj.self_w.tolist()
        self._s_l = adj.strength.tolist()
        self._labels_l = labels.tolist()

    @property
    def labels(self) -> np.ndarray:
        return np.array(self._labels_l, dtype=np.int64)

    @property
    def sigma(self) -> np.ndarray:
        return np.array(self._sig)

    @property
    def lam_hat(self) -> np.ndarray:
        return np.array(self._lh)

    def sweep(self, nodes: list, *, join_only: bool = False) -> float:
        """One pass over ``nodes`` in order; returns the ΔΛ of its moves.

        Each node moves to the candidate with the largest gain: Eq. (8)
        over ℂ_v, moving only on a positive gain (Alg. 1 lines 11-18;
        a node with empty ℂ_v stays, line 13's skip). With ``join_only``
        (the absorb phase, Alg. 1 lines 2-9) the gain is Eq. (6), the
        leave side is skipped, empty ℂ_v falls back to all k, and the
        node always joins its best candidate."""
        indptr, ind, wts, labels = self._indptr_l, self._ind_l, self._w_l, self._labels_l
        sig, lh, lam_q, s_l, self_l = self._sig, self._lh, self._lam_q, self._s_l, self._self_l
        eta, eta1, lam = self.eta, 1.0 - self.eta, self.lam
        delta = 0.0
        for v in nodes:
            p = labels[v]
            acc = label_weights(v, indptr, ind, wts, labels)
            acc.pop(-1, None)  # unassigned neighbours
            w_own = acc.pop(p, 0.0)
            if not acc:
                if not join_only:
                    continue
                acc = dict.fromkeys(range(self.k), 0.0)
                acc.pop(p, None)
                if not acc:
                    continue
            s_v = s_l[v]
            w_vv = self_l[v]
            half = s_v / 2.0
            if join_only or p < 0:
                leave = 0.0
            else:
                sig_p2 = sig[p] - w_vv - eta * (s_v - w_own) - eta1 * w_own
                lh_p2 = lh[p] - w_vv - half
                leave = (lh_p2 if sig_p2 <= lam else lam / sig_p2 * lh_p2) - lam_q[p]
            best_q, best_gain, best_w = -1, -np.inf, 0.0
            for q in sorted(acc):  # ascending labels -> first-max tie-break
                w_vq = acc[q]
                sig_q2 = sig[q] + w_vv + eta * (s_v - w_vq) + eta1 * w_vq
                lh_q2 = lh[q] + w_vv + half
                gain = leave + (lh_q2 if sig_q2 <= lam else lam / sig_q2 * lh_q2) - lam_q[q]
                if gain > best_gain:
                    best_q, best_gain, best_w = q, gain, w_vq
            if join_only or best_gain > 0.0:
                self.move(v, best_q, best_w, w_own)
                delta += best_gain
        return delta

    # -- mutation ----------------------------------------------------------
    def move(self, v: int, q: int, w_vq: float, w_vp: float) -> None:
        """Move v to community q, updating σ, Λ̂ and the clipped Λ of the
        source and target only (Lemma 1 guarantees other communities are
        unaffected). ``w_vq`` and ``w_vp`` are v's weights into q and into
        its current community (unused while v is unassigned)."""
        p = self._labels_l[v]
        if p == q:
            return
        sig, lh, lam_q, lam = self._sig, self._lh, self._lam_q, self.lam
        eta = self.eta
        s_v = self._s_l[v]
        w_vv = self._self_l[v]
        if p >= 0:
            sig[p] -= w_vv + eta * (s_v - w_vp) + (1.0 - eta) * w_vp
            lh[p] -= w_vv + s_v / 2.0
            lam_q[p] = lh[p] if sig[p] <= lam else lam / sig[p] * lh[p]
        sig[q] += w_vv + eta * (s_v - w_vq) + (1.0 - eta) * w_vq
        lh[q] += w_vv + s_v / 2.0
        lam_q[q] = lh[q] if sig[q] <= lam else lam / sig[q] * lh[q]
        self._labels_l[v] = int(q)
