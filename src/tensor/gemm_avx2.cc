/**
 * @file
 * AVX2 backend of the lane-based kernel contract.
 *
 * Compiled with -mavx2 (per-TU flag, see src/tensor/CMakeLists.txt);
 * only executed after isa::supported(Avx2) confirmed the host has it.
 *
 * dot_lanes maps the contract directly onto the registers: one 8-wide
 * float multiply per block (VMULPS rounds each product to float,
 * exactly like the scalar backend — FMA is deliberately not used),
 * the low/high product halves widened to two 4-wide double
 * accumulators holding lanes 0..3 and 4..7.  Per lane the adds happen
 * in ascending t, so the bits match the scalar chains.
 *
 * gemm_nn turns the registers the other way: four adjacent outputs
 * share each 4-wide double register, and eight such registers hold
 * the eight contract lanes, so the same products meet the same lanes
 * in the same order for every output, four at a time.
 *
 * The integer kernel is exact in any order: gemm_i32_i64 keeps four
 * windows x eight outputs in eight registers across the driven word
 * lines (VPMULDQ, signed 32 x 32 -> 64).
 */

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include "tensor/gemm_kernels.hh"

namespace pipelayer {
namespace gemmk {

namespace {

float
dotLanesAvx2(const float *a, const float *b, int64_t k, double bias)
{
    __m256d acc03 = _mm256_setzero_pd(); // lanes 0..3
    __m256d acc47 = _mm256_setzero_pd(); // lanes 4..7
    int64_t t = 0;
    for (; t + 8 <= k; t += 8) {
        const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(a + t),
                                          _mm256_loadu_ps(b + t));
        acc03 = _mm256_add_pd(
            acc03, _mm256_cvtps_pd(_mm256_castps256_ps128(prod)));
        acc47 = _mm256_add_pd(
            acc47, _mm256_cvtps_pd(_mm256_extractf128_ps(prod, 1)));
    }
    alignas(32) double lanes[kLanes];
    _mm256_store_pd(lanes + 0, acc03);
    _mm256_store_pd(lanes + 4, acc47);
    dotLanesTail(lanes, a, b, t, k);
    return reduceLanes(lanes, bias);
}

/** float(a * b[0..4)), widened: one reduction element of 4 outputs. */
inline __m256d
productAvx2(float a, const float *b)
{
    return _mm256_cvtps_pd(_mm_mul_ps(_mm_set1_ps(a), _mm_loadu_ps(b)));
}

void
gemmNNAvx2(int64_t m, int64_t n, int64_t k, const float *a, int64_t lda,
           const float *b, int64_t ldb, const float *bias, float *c,
           int64_t ldc)
{
    const int64_t k8 = k & ~int64_t{kLanes - 1};
    const int64_t rest = k - k8;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
        for (int64_t i = 0; i < m; ++i) {
            const float *ai = a + i * lda;
            const float *bp = b + j;
            __m256d l0 = _mm256_setzero_pd(), l1 = _mm256_setzero_pd();
            __m256d l2 = _mm256_setzero_pd(), l3 = _mm256_setzero_pd();
            __m256d l4 = _mm256_setzero_pd(), l5 = _mm256_setzero_pd();
            __m256d l6 = _mm256_setzero_pd(), l7 = _mm256_setzero_pd();
            for (int64_t p = 0; p < k8; p += kLanes, bp += kLanes * ldb) {
                l0 = _mm256_add_pd(l0, productAvx2(ai[p + 0], bp));
                l1 = _mm256_add_pd(l1, productAvx2(ai[p + 1], bp + ldb));
                l2 = _mm256_add_pd(l2, productAvx2(ai[p + 2], bp + 2 * ldb));
                l3 = _mm256_add_pd(l3, productAvx2(ai[p + 3], bp + 3 * ldb));
                l4 = _mm256_add_pd(l4, productAvx2(ai[p + 4], bp + 4 * ldb));
                l5 = _mm256_add_pd(l5, productAvx2(ai[p + 5], bp + 5 * ldb));
                l6 = _mm256_add_pd(l6, productAvx2(ai[p + 6], bp + 6 * ldb));
                l7 = _mm256_add_pd(l7, productAvx2(ai[p + 7], bp + 7 * ldb));
            }
            // Element k8 + r of the reduction goes to lane r (r < 7).
            const float *at = ai + k8;
            if (rest > 0)
                l0 = _mm256_add_pd(l0, productAvx2(at[0], bp));
            if (rest > 1)
                l1 = _mm256_add_pd(l1, productAvx2(at[1], bp + ldb));
            if (rest > 2)
                l2 = _mm256_add_pd(l2, productAvx2(at[2], bp + 2 * ldb));
            if (rest > 3)
                l3 = _mm256_add_pd(l3, productAvx2(at[3], bp + 3 * ldb));
            if (rest > 4)
                l4 = _mm256_add_pd(l4, productAvx2(at[4], bp + 4 * ldb));
            if (rest > 5)
                l5 = _mm256_add_pd(l5, productAvx2(at[5], bp + 5 * ldb));
            if (rest > 6)
                l6 = _mm256_add_pd(l6, productAvx2(at[6], bp + 6 * ldb));
            const __m256d tree = _mm256_add_pd(
                _mm256_add_pd(_mm256_add_pd(l0, l1), _mm256_add_pd(l2, l3)),
                _mm256_add_pd(_mm256_add_pd(l4, l5), _mm256_add_pd(l6, l7)));
            const __m256d bi =
                _mm256_set1_pd(bias ? static_cast<double>(bias[i]) : 0.0);
            _mm_storeu_ps(c + i * ldc + j,
                          _mm256_cvtpd_ps(_mm256_add_pd(bi, tree)));
        }
    }
    // Columns that do not fill a vector take the scalar definition.
    if (j < n)
        scalarKernels().gemm_nn(m, n - j, k, a, lda, b + j, ldb, bias,
                                c + j, ldc);
}

void
axpyF32Avx2(float *y, const float *row, float xi, int64_t n)
{
    const __m256 x = _mm256_set1_ps(xi);
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(row + j), x);
        _mm256_storeu_ps(y + j,
                         _mm256_add_ps(_mm256_loadu_ps(y + j), prod));
    }
    for (; j < n; ++j)
        y[j] += row[j] * xi;
}

void
scaleF32Avx2(float *row, const float *y, float xi, int64_t n)
{
    const __m256 x = _mm256_set1_ps(xi);
    int64_t j = 0;
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(row + j,
                         _mm256_mul_ps(x, _mm256_loadu_ps(y + j)));
    for (; j < n; ++j)
        row[j] = xi * y[j];
}

/**
 * NB windows x 8 adjacent outputs in 2·NB registers, summed over
 * every listed word line.  With @p kTail only the first @p live
 * (< 8) outputs are loaded and stored.
 */
template <int NB, bool kTail>
void
productTileAvx2(const int32_t *x, int64_t ldx, const int32_t *w,
                int64_t ldw, const int64_t *rows, int64_t nrows,
                int64_t *out, int64_t ldo, int64_t live)
{
    // Lane j of a mask is set when output j of the pair exists.
    const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i in32 = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int32_t>(live)), lanes);
    const __m128i lo32 = _mm256_castsi256_si128(in32);
    const __m128i hi32 = _mm256_extracti128_si256(in32, 1);
    const __m256i lo64 = _mm256_cvtepi32_epi64(lo32);
    const __m256i hi64 = _mm256_cvtepi32_epi64(hi32);
    __m256i acc[NB][2];
#pragma GCC unroll 4
    for (int b = 0; b < NB; ++b) {
        acc[b][0] = _mm256_setzero_si256();
        acc[b][1] = _mm256_setzero_si256();
    }
    for (int64_t k = 0; k < nrows; ++k) {
        const int64_t r = rows[k];
        const int32_t *wr = w + r * ldw;
        __m128i w0, w1;
        if (kTail) {
            w0 = _mm_maskload_epi32(wr, lo32);
            w1 = _mm_maskload_epi32(wr + 4, hi32);
        } else {
            w0 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(wr));
            w1 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(wr + 4));
        }
        const __m256i v0 = _mm256_cvtepi32_epi64(w0);
        const __m256i v1 = _mm256_cvtepi32_epi64(w1);
#pragma GCC unroll 4
        for (int b = 0; b < NB; ++b) {
            // VPMULDQ multiplies the low dwords of each qword, signed:
            // a dword broadcast puts the window's code there.
            const __m256i xv = _mm256_set1_epi32(x[b * ldx + r]);
            acc[b][0] = _mm256_add_epi64(acc[b][0], _mm256_mul_epi32(xv, v0));
            acc[b][1] = _mm256_add_epi64(acc[b][1], _mm256_mul_epi32(xv, v1));
        }
    }
#pragma GCC unroll 4
    for (int b = 0; b < NB; ++b) {
        long long *o = reinterpret_cast<long long *>(out + b * ldo);
        if (kTail) {
            _mm256_maskstore_epi64(
                o, lo64,
                _mm256_add_epi64(_mm256_maskload_epi64(o, lo64), acc[b][0]));
            _mm256_maskstore_epi64(
                o + 4, hi64,
                _mm256_add_epi64(_mm256_maskload_epi64(o + 4, hi64),
                                 acc[b][1]));
        } else {
            __m256i *o0 = reinterpret_cast<__m256i *>(o);
            _mm256_storeu_si256(
                o0, _mm256_add_epi64(_mm256_loadu_si256(o0), acc[b][0]));
            _mm256_storeu_si256(
                o0 + 1,
                _mm256_add_epi64(_mm256_loadu_si256(o0 + 1), acc[b][1]));
        }
    }
}

/** Every window of one block of 8 (or, with @p kTail, fewer) outputs. */
template <bool kTail>
void
productColumnsAvx2(int64_t nb, const int32_t *x, int64_t ldx,
                   const int32_t *w, int64_t ldw, const int64_t *rows,
                   int64_t nrows, int64_t *out, int64_t ldo, int64_t live)
{
    int64_t b = 0;
    for (; b + 4 <= nb; b += 4)
        productTileAvx2<4, kTail>(x + b * ldx, ldx, w, ldw, rows, nrows,
                                  out + b * ldo, ldo, live);
    for (; b < nb; ++b)
        productTileAvx2<1, kTail>(x + b * ldx, ldx, w, ldw, rows, nrows,
                                  out + b * ldo, ldo, live);
}

void
gemmI32I64Avx2(int64_t nb, int64_t n, const int32_t *x, int64_t ldx,
               const int32_t *w, int64_t ldw, const int64_t *rows,
               int64_t nrows, int64_t *out, int64_t ldo)
{
    // Blocks of four windows x eight outputs stay in registers across
    // the listed word lines; each line's eight codes are widened once
    // (VPMOVSXDQ) and multiplied into every window of the block.
    int64_t c = 0;
    for (; c + 8 <= n; c += 8)
        productColumnsAvx2<false>(nb, x, ldx, w + c, ldw, rows, nrows,
                                  out + c, ldo, 8);
    if (c < n)
        productColumnsAvx2<true>(nb, x, ldx, w + c, ldw, rows, nrows,
                                 out + c, ldo, n - c);
}

void
reluF32Avx2(float *out, const float *in, int64_t n)
{
    // Select, not max: AND with the x > 0 mask keeps the exact input
    // bits and sends -0.0f / NaN to +0.0f like the scalar ternary
    // (VMAXPS would pass NaN through).
    const __m256 zero = _mm256_setzero_ps();
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 x = _mm256_loadu_ps(in + j);
        const __m256 keep = _mm256_cmp_ps(x, zero, _CMP_GT_OQ);
        _mm256_storeu_ps(out + j, _mm256_and_ps(x, keep));
    }
    for (; j < n; ++j)
        out[j] = in[j] > 0.0f ? in[j] : 0.0f;
}

void
reluMaskF32Avx2(float *grad, const float *ref, int64_t n)
{
    const __m256 zero = _mm256_setzero_ps();
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 keep =
            _mm256_cmp_ps(_mm256_loadu_ps(ref + j), zero, _CMP_GT_OQ);
        _mm256_storeu_ps(
            grad + j, _mm256_and_ps(_mm256_loadu_ps(grad + j), keep));
    }
    for (; j < n; ++j)
        grad[j] = ref[j] > 0.0f ? grad[j] : 0.0f;
}

} // namespace

const Kernels &
avx2Kernels()
{
    static const Kernels table = {
        dotLanesAvx2, gemmNNAvx2,     axpyF32Avx2,
        scaleF32Avx2, gemmI32I64Avx2,
        reluF32Avx2,  reluMaskF32Avx2,
    };
    return table;
}

} // namespace gemmk
} // namespace pipelayer

#endif // x86-64
