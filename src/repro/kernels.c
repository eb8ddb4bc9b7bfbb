/* Sequential sweeps of Louvain, METIS-like and TxAllo over CSR arrays, and
 * the Shard Scheduler's pass over the transaction stream.
 *
 * Paper §IV-A makes these deterministic serial loops, so they run here in
 * C on the driver's numpy arrays (read in place, never copied), called by
 * repro.louvain.louvain, repro.baselines.metis_like,
 * repro.txallo.state.TxAlloState and repro.baselines.shard_scheduler.
 * Every float expression is written in the operation order of the
 * documented algorithm and evaluated in plain IEEE double, so the labels
 * do not depend on the compiler. Build with -ffp-contract=off: a fused
 * multiply-add rounds once where separate operations round twice.
 *
 * The neighbour-label scan: a node's weight into each label is summed in
 * CSR slot order into a dense accumulator starting from 0.0, skipping
 * unassigned (negative) labels, and the touched labels are then visited
 * in ascending order, so a strict > keeps the smallest label on ties.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#include "kernels.h"

static int cmp_i64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Add the weight from v into each label of its neighbours to acc[],
 * skipping neighbours with a negative label; returns how many distinct
 * labels it touched, listed in ascending order in touched[].
 * stamp[lab] == visit marks a label already touched in this visit; visit
 * must differ from every earlier visit's. */
static int64_t scan_labels(int64_t v, int64_t visit, const int64_t *indptr,
                           const int32_t *indices, const double *weights,
                           const int64_t *labels, double *acc, int64_t *touched,
                           int64_t *stamp)
{
    int64_t t = 0;
    for (int64_t i = indptr[v]; i < indptr[v + 1]; i++) {
        int64_t lab = labels[indices[i]];
        if (lab < 0)
            continue;
        if (stamp[lab] != visit) {
            stamp[lab] = visit;
            acc[lab] = 0.0;
            touched[t++] = lab;
        }
        acc[lab] += weights[i];
    }
    qsort(touched, (size_t)t, sizeof *touched, cmp_i64);
    return t;
}

/* Louvain local moves on one level until a sweep moves nothing, at most
 * max_sweeps sweeps. labels[v] starts at v; a node's label becomes the
 * index of the node whose community it joined. Returns 0, or -1 when out
 * of memory. */
int louvain_sweep(int64_t n, const int64_t *indptr, const int32_t *indices,
                  const double *weights, const double *deg, double m2, int64_t max_sweeps,
                  int64_t *labels)
{
    double *comm_deg = malloc((size_t)n * sizeof *comm_deg);
    double *acc = malloc((size_t)n * sizeof *acc);
    int64_t *touched = malloc((size_t)n * sizeof *touched);
    int64_t *stamp = malloc((size_t)n * sizeof *stamp);
    if (!comm_deg || !acc || !touched || !stamp) {
        free(comm_deg), free(acc), free(touched), free(stamp);
        return -1;
    }
    for (int64_t v = 0; v < n; v++) {
        labels[v] = v;
        comm_deg[v] = deg[v];
        acc[v] = 0.0;
        stamp[v] = -1;
    }
    for (int64_t sweep = 0, visit = 0; sweep < max_sweeps; sweep++) {
        int64_t moved = 0;
        for (int64_t v = 0; v < n; v++, visit++) {
            int64_t t = scan_labels(v, visit, indptr, indices, weights, labels, acc, touched,
                                    stamp);
            double dv = deg[v];
            int64_t c_old = labels[v];
            comm_deg[c_old] -= dv;
            double w_old = stamp[c_old] == visit ? acc[c_old] : 0.0;
            double own_gain = w_old - dv * comm_deg[c_old] / m2;
            int64_t best = c_old;
            double best_gain = -INFINITY;
            for (int64_t j = 0; j < t; j++) {
                int64_t c = touched[j];
                double gain = acc[c] - dv * comm_deg[c] / m2;
                if (gain > best_gain) {
                    best = c;
                    best_gain = gain;
                }
            }
            if (best_gain > own_gain + 1e-12 && best != c_old) {
                labels[v] = best;
                comm_deg[best] += dv;
                moved++;
            } else {
                comm_deg[c_old] += dv;
            }
        }
        if (!moved)
            break;
    }
    free(comm_deg), free(acc), free(touched), free(stamp);
    return 0;
}

/* Heavy-edge matching: visit nodes in ascending order and match each
 * unmatched node with its first heaviest unmatched neighbour whose
 * combined vertex weight stays within max_vw. cmap[v] gets the coarse
 * node of v, numbered in ascending order of each pair's smaller node.
 * Returns the number of coarse nodes. */
int64_t heavy_edge_matching(int64_t n, const int64_t *indptr, const int32_t *indices,
                            const double *weights, const double *vw, double max_vw,
                            int64_t *cmap)
{
    int64_t nc = 0;
    for (int64_t v = 0; v < n; v++)
        cmap[v] = -1;
    for (int64_t v = 0; v < n; v++) {
        if (cmap[v] >= 0)
            continue;
        cmap[v] = nc;
        int64_t best = -1;
        double best_w = -INFINITY;
        for (int64_t i = indptr[v]; i < indptr[v + 1]; i++) {
            int64_t u = indices[i];
            if (cmap[u] < 0 && vw[u] + vw[v] <= max_vw && weights[i] > best_w) {
                best = u;
                best_w = weights[i];
            }
        }
        if (best >= 0)
            cmap[best] = nc;
        nc++;
    }
    return nc;
}

/* Boundary FM-style refinement of a k-way labelling: each node moves to
 * the neighbouring part of largest edge-cut gain above 1e-12 that keeps
 * the part's vertex weight within cap; at most passes passes, stopping
 * after a pass with no move. part_w holds each part's weight and is
 * updated. Returns 0, or -1 when out of memory. */
int refine(int64_t n, const int64_t *indptr, const int32_t *indices, const double *weights,
           const double *vw, int64_t k, double cap, int64_t passes, int64_t *labels,
           double *part_w)
{
    double *acc = malloc((size_t)k * sizeof *acc);
    int64_t *touched = malloc((size_t)k * sizeof *touched);
    int64_t *stamp = malloc((size_t)k * sizeof *stamp);
    if (!acc || !touched || !stamp) {
        free(acc), free(touched), free(stamp);
        return -1;
    }
    for (int64_t q = 0; q < k; q++)
        stamp[q] = -1;
    for (int64_t pass = 0, visit = 0; pass < passes; pass++) {
        int64_t moved = 0;
        for (int64_t v = 0; v < n; v++, visit++) {
            int64_t t = scan_labels(v, visit, indptr, indices, weights, labels, acc, touched,
                                    stamp);
            int64_t p = labels[v];
            double own = stamp[p] == visit ? acc[p] : 0.0;
            int64_t best = -1;
            double best_gain = 1e-12;
            for (int64_t j = 0; j < t; j++) {
                int64_t q = touched[j];
                if (q == p)
                    continue;
                double gain = acc[q] - own;
                if (gain > best_gain && part_w[q] + vw[v] <= cap) {
                    best = q;
                    best_gain = gain;
                }
            }
            if (best < 0)
                continue;
            part_w[p] -= vw[v];
            part_w[best] += vw[v];
            labels[v] = best;
            moved++;
        }
        if (!moved)
            break;
    }
    free(acc), free(touched), free(stamp);
    return 0;
}

/* Lam_q = clip(sigma_q, lam_hat_q): Eq. 3's throughput of one shard. */
static double clip(double sigma, double lam_hat, double lam)
{
    return sigma <= lam ? lam_hat : lam / sigma * lam_hat;
}

/* Move v to shard q and update sigma, lam_hat and lam_q of its old shard
 * p (when assigned) and of q only (Lemma 1). w_vq and w_vp are v's
 * weights into q and into p. */
void txallo_move(const struct txallo_state *s, int64_t v, int64_t q, double w_vq, double w_vp)
{
    int64_t p = s->labels[v];
    if (p == q)
        return;
    double eta = s->eta, s_v = s->strength[v], w_vv = s->self_w[v];
    if (p >= 0) {
        s->sigma[p] -= w_vv + eta * (s_v - w_vp) + (1.0 - eta) * w_vp;
        s->lam_hat[p] -= w_vv + s_v / 2.0;
        s->lam_q[p] = clip(s->sigma[p], s->lam_hat[p], s->lam);
    }
    s->sigma[q] += w_vv + eta * (s_v - w_vq) + (1.0 - eta) * w_vq;
    s->lam_hat[q] += w_vv + s_v / 2.0;
    s->lam_q[q] = clip(s->sigma[q], s->lam_hat[q], s->lam);
    s->labels[v] = q;
}

/* One TxAllo pass over nodes[] in order (paper Alg. 1 lines 2-19, Alg. 2):
 * each node moves to the candidate shard of largest Eq. 8 gain when that
 * gain is positive; a node with no candidate stays. With join_only the
 * gain is Eq. 6 (no leave term), a node with no candidate takes every
 * other shard as one with weight 0.0, and the node always joins its best
 * candidate. *delta gets the summed gain of the moves. Returns 0, or -1
 * when out of memory. */
int txallo_sweep(const struct txallo_state *s, const int64_t *nodes, int64_t n_nodes,
                 int join_only, double *delta)
{
    int64_t k = s->k;
    double *acc = malloc((size_t)k * sizeof *acc);
    int64_t *touched = malloc((size_t)k * sizeof *touched);
    int64_t *stamp = malloc((size_t)k * sizeof *stamp);
    if (!acc || !touched || !stamp) {
        free(acc), free(touched), free(stamp);
        return -1;
    }
    for (int64_t q = 0; q < k; q++)
        stamp[q] = -1;
    double eta = s->eta, eta1 = 1.0 - eta, lam = s->lam, total = 0.0;
    double *sig = s->sigma, *lh = s->lam_hat, *lam_q = s->lam_q;
    for (int64_t j = 0; j < n_nodes; j++) {
        int64_t v = nodes[j];
        int64_t t = scan_labels(v, j, s->indptr, s->indices, s->weights, s->labels, acc,
                                touched, stamp);
        int64_t p = s->labels[v];
        double w_own = p >= 0 && stamp[p] == j ? acc[p] : 0.0;
        int64_t c = 0; /* the candidates: touched[] without p */
        for (int64_t i = 0; i < t; i++)
            if (touched[i] != p)
                touched[c++] = touched[i];
        if (!c) {
            if (!join_only)
                continue;
            for (int64_t q = 0; q < k; q++)
                if (q != p) {
                    acc[q] = 0.0;
                    touched[c++] = q;
                }
            if (!c)
                continue;
        }
        double s_v = s->strength[v], w_vv = s->self_w[v], half = s_v / 2.0, leave = 0.0;
        if (!join_only && p >= 0) {
            double sig_p2 = sig[p] - w_vv - eta * (s_v - w_own) - eta1 * w_own;
            double lh_p2 = lh[p] - w_vv - half;
            leave = clip(sig_p2, lh_p2, lam) - lam_q[p];
        }
        int64_t best_q = -1;
        double best_gain = -INFINITY, best_w = 0.0;
        for (int64_t i = 0; i < c; i++) {
            int64_t q = touched[i];
            double w_vq = acc[q];
            double sig_q2 = sig[q] + w_vv + eta * (s_v - w_vq) + eta1 * w_vq;
            double lh_q2 = lh[q] + w_vv + half;
            double gain = leave + clip(sig_q2, lh_q2, lam) - lam_q[q];
            if (gain > best_gain) {
                best_q = q;
                best_gain = gain;
                best_w = w_vq;
            }
        }
        /* best_q < 0 only when every gain is NaN */
        if (best_q >= 0 && (join_only || best_gain > 0.0)) {
            txallo_move(s, v, best_q, best_w, w_own);
            total += best_gain;
        }
    }
    free(acc), free(touched), free(stamp);
    *delta = total;
    return 0;
}

/* The Shard Scheduler's stream: transaction t touches the dense account
 * ids accounts[offsets[t]..offsets[t+1]), ascending and distinct, and the
 * transactions come in chronological order. shard_of[a] is each account's
 * shard (-1 = unseen), load[] each shard's accumulated load and
 * count[s * base + mu] the transactions of span mu charged to shard s;
 * all three are updated in place. Per transaction: count each shard's
 * affinity (accounts already there), take as target the under-cap shard
 * of largest affinity, ties by lower load then lower id, or else the
 * first least-loaded shard; place unseen accounts on the target, migrate
 * the first account (in id order) that sits in a full shard, and add 1.0,
 * or eta when the span mu exceeds 1, to the load of each distinct shard
 * the transaction then spans. Returns 0, or -1 when out of memory. */
int shard_scheduler(int64_t n_txs, const int64_t *offsets, const int32_t *accounts, int64_t k,
                    double cap, double eta, int64_t base, int16_t *shard_of, double *load,
                    int64_t *count)
{
    int64_t *aff = malloc((size_t)k * sizeof *aff);
    int64_t *touched = malloc((size_t)k * sizeof *touched);
    int64_t *stamp = malloc((size_t)k * sizeof *stamp);
    if (!aff || !touched || !stamp) {
        free(aff), free(touched), free(stamp);
        return -1;
    }
    for (int64_t q = 0; q < k; q++) {
        aff[q] = 0;
        stamp[q] = -1;
    }
    for (int64_t t = 0; t < n_txs; t++) {
        int64_t lo = offsets[t], hi = offsets[t + 1];
        for (int64_t i = lo; i < hi; i++) {
            int64_t s = shard_of[accounts[i]];
            if (s >= 0)
                aff[s]++;
        }
        int64_t least = 0, best = -1, best_aff = 0;
        double least_load = load[0], best_load = 0.0;
        for (int64_t q = 0; q < k; q++) {
            double lq = load[q];
            int64_t a = aff[q];
            aff[q] = 0; /* ready for the next transaction */
            if (lq < least_load) {
                least = q;
                least_load = lq;
            }
            if (a > 0 && lq < cap
                && (best < 0 || a > best_aff || (a == best_aff && lq < best_load))) {
                best = q;
                best_aff = a;
                best_load = lq;
            }
        }
        int16_t target = (int16_t)(best < 0 ? least : best);
        int migrated = 0;
        for (int64_t i = lo; i < hi; i++) {
            int16_t *s = &shard_of[accounts[i]];
            if (*s < 0) {
                *s = target;
            } else if (*s != target && load[*s] >= cap && !migrated) {
                *s = target;
                migrated = 1;
            }
        }
        int64_t mu = 0;
        for (int64_t i = lo; i < hi; i++) {
            int64_t s = shard_of[accounts[i]];
            if (stamp[s] != t) {
                stamp[s] = t;
                touched[mu++] = s;
            }
        }
        double w = mu == 1 ? 1.0 : eta;
        for (int64_t j = 0; j < mu; j++) {
            load[touched[j]] += w;
            count[touched[j] * base + mu]++;
        }
    }
    free(aff), free(touched), free(stamp);
    return 0;
}
