/* The kernels of kernels.c; also the declarations that repro.kernels gives cffi. */
int louvain_sweep(int64_t n, const int64_t *indptr, const int32_t *indices,
                  const double *weights, const double *deg, double m2, int64_t max_sweeps,
                  int64_t *labels);
int64_t heavy_edge_matching(int64_t n, const int64_t *indptr, const int32_t *indices,
                            const double *weights, const double *vw, double max_vw,
                            int64_t *cmap);
int refine(int64_t n, const int64_t *indptr, const int32_t *indices, const double *weights,
           const double *vw, int64_t k, double cap, int64_t passes, int64_t *labels,
           double *part_w);
/* A TxAllo allocation over k shards: the CSR, each node's self-loop
 * weight w_vv and strength s_v, and the state a move updates in place:
 * each node's shard (-1 = unassigned) and each shard's sigma, lam_hat and
 * clipped lam_q. */
struct txallo_state {
    int64_t n, k;
    const int64_t *indptr;
    const int32_t *indices;
    const double *weights, *self_w, *strength;
    double eta, lam;
    int64_t *labels;
    double *sigma, *lam_hat, *lam_q;
};
void txallo_move(const struct txallo_state *s, int64_t v, int64_t q, double w_vq, double w_vp);
int txallo_sweep(const struct txallo_state *s, const int64_t *nodes, int64_t n_nodes,
                 int join_only, double *delta);
int shard_scheduler(int64_t n_txs, const int64_t *offsets, const int32_t *accounts, int64_t k,
                    double cap, double eta, int64_t base, int16_t *shard_of, double *load,
                    int64_t *count);
