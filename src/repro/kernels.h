/* The kernels of kernels.c; also the declarations that repro.kernels gives cffi. */
int louvain_sweep(int64_t n, const int64_t *indptr, const int64_t *indices,
                  const double *weights, const double *deg, double m2, int64_t max_sweeps,
                  int64_t *labels);
int64_t heavy_edge_matching(int64_t n, const int64_t *indptr, const int64_t *indices,
                            const double *weights, const double *vw, double max_vw,
                            int64_t *cmap);
int refine(int64_t n, const int64_t *indptr, const int64_t *indices, const double *weights,
           const double *vw, int64_t k, double cap, int64_t passes, int64_t *labels,
           double *part_w);
