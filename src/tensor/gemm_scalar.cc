/**
 * @file
 * Portable scalar backend of the lane-based kernel contract.
 *
 * Compiled with the project's default flags on every architecture;
 * this is both the fallback target and the executable definition of
 * the contract the SIMD backends must match bit-for-bit.  The eight
 * explicit accumulator chains in dot_lanes recover the
 * instruction-level parallelism the SIMD backends get from vector
 * registers; gemm_nn reuses them on a gathered column of B.
 */

#include "tensor/gemm_kernels.hh"

#include <vector>

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

void
gemmNNScalar(int64_t m, int64_t n, int64_t k, const float *a, int64_t lda,
             const float *b, int64_t ldb, const float *bias, float *c,
             int64_t ldc)
{
    // Column-outer: column j of B is gathered once into contiguous
    // scratch, so every row of A reduces against it through
    // dot_lanes' own loop (the same products, lanes and tree).  The
    // scratch is per thread, grows to the longest reduction and is
    // kept, so steady-state calls allocate nothing.
    thread_local std::vector<float> column;
    if (column.size() < static_cast<size_t>(k))
        column.resize(static_cast<size_t>(k));
    float *col = column.data();
    for (int64_t j = 0; j < n; ++j) {
        for (int64_t p = 0; p < k; ++p)
            col[p] = b[p * ldb + j];
        for (int64_t i = 0; i < m; ++i) {
            const double bi = bias ? static_cast<double>(bias[i]) : 0.0;
            c[i * ldc + j] = dotLanesScalar(a + i * lda, col, k, bi);
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
gemmI32I64Scalar(int64_t nb, int64_t n, const int32_t *x, int64_t ldx,
                 const int32_t *w, int64_t ldw, const int64_t *rows,
                 int64_t nrows, int64_t *out, int64_t ldo)
{
    // One window at a time, one word line at a time: a rank-1 update
    // of the window's outputs by the line's row of codes.
    for (int64_t b = 0; b < nb; ++b) {
        int64_t *o = out + b * ldo;
        for (int64_t k = 0; k < nrows; ++k) {
            const int64_t r = rows[k];
            const int64_t xv = x[b * ldx + r];
            if (xv == 0)
                continue;
            const int32_t *wr = w + r * ldw;
            for (int64_t c = 0; c < n; ++c)
                o[c] += xv * wr[c];
        }
    }
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

float
absmaxF32Scalar(const float *x, int64_t n, bool *nonfinite)
{
    bool bad = false;
    const float m = absmaxTail(x, 0, n, 0.0f, bad);
    if (nonfinite)
        *nonfinite = bad;
    return m;
}

void
quantizeI32Scalar(const float *x, int64_t n, float scale, int32_t levels,
                  int32_t *codes, CodeCounts *counts, int64_t *drive)
{
    quantizeTail(x, 0, n, scale, levels, codes, counts, drive);
}

} // namespace

const Kernels &
scalarKernels()
{
    static const Kernels table = {
        dotLanesScalar,  gemmNNScalar,      axpyF32Scalar,
        scaleF32Scalar,  gemmI32I64Scalar,  reluF32Scalar,
        reluMaskF32Scalar, absmaxF32Scalar, quantizeI32Scalar,
    };
    return table;
}

} // namespace gemmk
} // namespace pipelayer
