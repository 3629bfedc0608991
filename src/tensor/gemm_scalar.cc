/**
 * @file
 * Portable scalar backend of the lane-based kernel contract.
 *
 * Compiled with the project's default flags on every architecture;
 * this is both the fallback target and the executable definition of
 * the contract the SIMD backends must match bit-for-bit.  The eight
 * explicit accumulator chains in dot_lanes and gemm_nn recover the
 * instruction-level parallelism the SIMD backends get from vector
 * registers.
 */

#include "tensor/gemm_kernels.hh"

namespace pipelayer {
namespace gemmk {

namespace {

float
dotLanesScalar(const float *a, const float *b, int64_t k, double bias)
{
    double lanes[kLanes] = {};
    int64_t t = 0;
    for (; t + kLanes <= k; t += kLanes) {
        lanes[0] += static_cast<double>(a[t + 0] * b[t + 0]);
        lanes[1] += static_cast<double>(a[t + 1] * b[t + 1]);
        lanes[2] += static_cast<double>(a[t + 2] * b[t + 2]);
        lanes[3] += static_cast<double>(a[t + 3] * b[t + 3]);
        lanes[4] += static_cast<double>(a[t + 4] * b[t + 4]);
        lanes[5] += static_cast<double>(a[t + 5] * b[t + 5]);
        lanes[6] += static_cast<double>(a[t + 6] * b[t + 6]);
        lanes[7] += static_cast<double>(a[t + 7] * b[t + 7]);
    }
    dotLanesTail(lanes, a, b, t, k);
    return reduceLanes(lanes, bias);
}

/**
 * One gemm_nn output, a[p] * b[p*ldb] for p in [0, k).  Eight named
 * add chains keep the lanes in registers and let their adds overlap;
 * the lane array serves only the tail and the tree.
 */
float
gemmNNColumn(const float *a, const float *b, int64_t ldb, int64_t k,
             double bias)
{
    double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
    double l4 = 0.0, l5 = 0.0, l6 = 0.0, l7 = 0.0;
    int64_t p = 0;
    for (; p + kLanes <= k; p += kLanes) {
        const float *bp = b + p * ldb;
        l0 += static_cast<double>(a[p + 0] * bp[0]);
        l1 += static_cast<double>(a[p + 1] * bp[ldb]);
        l2 += static_cast<double>(a[p + 2] * bp[2 * ldb]);
        l3 += static_cast<double>(a[p + 3] * bp[3 * ldb]);
        l4 += static_cast<double>(a[p + 4] * bp[4 * ldb]);
        l5 += static_cast<double>(a[p + 5] * bp[5 * ldb]);
        l6 += static_cast<double>(a[p + 6] * bp[6 * ldb]);
        l7 += static_cast<double>(a[p + 7] * bp[7 * ldb]);
    }
    double lanes[kLanes] = {l0, l1, l2, l3, l4, l5, l6, l7};
    for (; p < k; ++p)
        lanes[p & (kLanes - 1)] += static_cast<double>(a[p] * b[p * ldb]);
    return reduceLanes(lanes, bias);
}

void
gemmNNScalar(int64_t m, int64_t n, int64_t k, const float *a, int64_t lda,
             const float *b, int64_t ldb, const float *bias, float *c,
             int64_t ldc)
{
    // Column-outer, so one column of B serves every row of A from L1.
    for (int64_t j = 0; j < n; ++j) {
        for (int64_t i = 0; i < m; ++i) {
            const double bi = bias ? static_cast<double>(bias[i]) : 0.0;
            c[i * ldc + j] = gemmNNColumn(a + i * lda, b + j, ldb, k, bi);
        }
    }
}

void
axpyF32Scalar(float *y, const float *row, float xi, int64_t n)
{
    for (int64_t j = 0; j < n; ++j)
        y[j] += row[j] * xi;
}

void
scaleF32Scalar(float *row, const float *y, float xi, int64_t n)
{
    for (int64_t j = 0; j < n; ++j)
        row[j] = xi * y[j];
}

void
axpyU8I64Scalar(int64_t *out, const uint8_t *cells, int64_t w, int64_t n)
{
    for (int64_t c = 0; c < n; ++c)
        out[c] += w * cells[c];
}

void
reluF32Scalar(float *out, const float *in, int64_t n)
{
    for (int64_t j = 0; j < n; ++j)
        out[j] = in[j] > 0.0f ? in[j] : 0.0f;
}

void
reluMaskF32Scalar(float *grad, const float *ref, int64_t n)
{
    for (int64_t j = 0; j < n; ++j)
        grad[j] = ref[j] > 0.0f ? grad[j] : 0.0f;
}

} // namespace

const Kernels &
scalarKernels()
{
    static const Kernels table = {
        dotLanesScalar,  gemmNNScalar,  axpyF32Scalar,     scaleF32Scalar,
        axpyU8I64Scalar, reluF32Scalar, reluMaskF32Scalar,
    };
    return table;
}

} // namespace gemmk
} // namespace pipelayer
