/**
 * @file
 * AVX-512 (F + DQ) backend of the lane-based kernel contract.
 *
 * Compiled with -mavx512f -mavx512dq (per-TU flags); only executed
 * after isa::supported(Avx512) confirmed both features.
 *
 * One 512-bit double vector holds all eight contract lanes, so a
 * block of 8 floats is exactly one VMULPS (256-bit) + VCVTPS2PD +
 * VADDPD; two blocks per iteration keep lane order (t, then t+8)
 * ascending.  No FMA anywhere — products must round to float first.
 * The conversions are the zero-masked forms under a full mask (the
 * same lanes): GCC 12 seeds the plain _mm512_cvtps_pd/_mm512_cvtpd_ps
 * results with an undefined vector, which -Wmaybe-uninitialized
 * reports.
 *
 * gemm_nn holds eight adjacent outputs per 512-bit register and the
 * eight contract lanes in eight such registers; each reduction
 * element is one broadcast, one 256-bit multiply, one widening and
 * one add for all eight outputs.
 */

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include "tensor/gemm_kernels.hh"

namespace pipelayer {
namespace gemmk {

namespace {

float
dotLanesAvx512(const float *a, const float *b, int64_t k, double bias)
{
    __m512d acc = _mm512_setzero_pd(); // lanes 0..7
    int64_t t = 0;
    for (; t + 16 <= k; t += 16) {
        const __m256 p0 = _mm256_mul_ps(_mm256_loadu_ps(a + t),
                                        _mm256_loadu_ps(b + t));
        const __m256 p1 = _mm256_mul_ps(_mm256_loadu_ps(a + t + 8),
                                        _mm256_loadu_ps(b + t + 8));
        acc = _mm512_add_pd(acc, _mm512_maskz_cvtps_pd(0xFF, p0));
        acc = _mm512_add_pd(acc, _mm512_maskz_cvtps_pd(0xFF, p1));
    }
    for (; t + 8 <= k; t += 8) {
        const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(a + t),
                                          _mm256_loadu_ps(b + t));
        acc = _mm512_add_pd(acc, _mm512_maskz_cvtps_pd(0xFF, prod));
    }
    alignas(64) double lanes[kLanes];
    _mm512_store_pd(lanes, acc);
    dotLanesTail(lanes, a, b, t, k);
    return reduceLanes(lanes, bias);
}

/** float(a * b[0..8)), widened: one reduction element of 8 outputs. */
inline __m512d
productAvx512(float a, const float *b)
{
    return _mm512_maskz_cvtps_pd(
        0xFF, _mm256_mul_ps(_mm256_set1_ps(a), _mm256_loadu_ps(b)));
}

void
gemmNNAvx512(int64_t m, int64_t n, int64_t k, const float *a, int64_t lda,
             const float *b, int64_t ldb, const float *bias, float *c,
             int64_t ldc)
{
    const int64_t k8 = k & ~int64_t{kLanes - 1};
    const int64_t rest = k - k8;
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        for (int64_t i = 0; i < m; ++i) {
            const float *ai = a + i * lda;
            const float *bp = b + j;
            __m512d l0 = _mm512_setzero_pd(), l1 = _mm512_setzero_pd();
            __m512d l2 = _mm512_setzero_pd(), l3 = _mm512_setzero_pd();
            __m512d l4 = _mm512_setzero_pd(), l5 = _mm512_setzero_pd();
            __m512d l6 = _mm512_setzero_pd(), l7 = _mm512_setzero_pd();
            for (int64_t p = 0; p < k8; p += kLanes, bp += kLanes * ldb) {
                l0 = _mm512_add_pd(l0, productAvx512(ai[p + 0], bp));
                l1 = _mm512_add_pd(l1, productAvx512(ai[p + 1], bp + ldb));
                l2 = _mm512_add_pd(l2, productAvx512(ai[p + 2], bp + 2 * ldb));
                l3 = _mm512_add_pd(l3, productAvx512(ai[p + 3], bp + 3 * ldb));
                l4 = _mm512_add_pd(l4, productAvx512(ai[p + 4], bp + 4 * ldb));
                l5 = _mm512_add_pd(l5, productAvx512(ai[p + 5], bp + 5 * ldb));
                l6 = _mm512_add_pd(l6, productAvx512(ai[p + 6], bp + 6 * ldb));
                l7 = _mm512_add_pd(l7, productAvx512(ai[p + 7], bp + 7 * ldb));
            }
            // Element k8 + r of the reduction goes to lane r (r < 7).
            const float *at = ai + k8;
            if (rest > 0)
                l0 = _mm512_add_pd(l0, productAvx512(at[0], bp));
            if (rest > 1)
                l1 = _mm512_add_pd(l1, productAvx512(at[1], bp + ldb));
            if (rest > 2)
                l2 = _mm512_add_pd(l2, productAvx512(at[2], bp + 2 * ldb));
            if (rest > 3)
                l3 = _mm512_add_pd(l3, productAvx512(at[3], bp + 3 * ldb));
            if (rest > 4)
                l4 = _mm512_add_pd(l4, productAvx512(at[4], bp + 4 * ldb));
            if (rest > 5)
                l5 = _mm512_add_pd(l5, productAvx512(at[5], bp + 5 * ldb));
            if (rest > 6)
                l6 = _mm512_add_pd(l6, productAvx512(at[6], bp + 6 * ldb));
            const __m512d tree = _mm512_add_pd(
                _mm512_add_pd(_mm512_add_pd(l0, l1), _mm512_add_pd(l2, l3)),
                _mm512_add_pd(_mm512_add_pd(l4, l5), _mm512_add_pd(l6, l7)));
            const __m512d bi =
                _mm512_set1_pd(bias ? static_cast<double>(bias[i]) : 0.0);
            _mm256_storeu_ps(
                c + i * ldc + j,
                _mm512_maskz_cvtpd_ps(0xFF, _mm512_add_pd(bi, tree)));
        }
    }
    // Columns that do not fill a vector take the scalar definition.
    if (j < n)
        scalarKernels().gemm_nn(m, n - j, k, a, lda, b + j, ldb, bias,
                                c + j, ldc);
}

void
axpyF32Avx512(float *y, const float *row, float xi, int64_t n)
{
    const __m512 x = _mm512_set1_ps(xi);
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512 prod = _mm512_mul_ps(_mm512_loadu_ps(row + j), x);
        _mm512_storeu_ps(y + j,
                         _mm512_add_ps(_mm512_loadu_ps(y + j), prod));
    }
    for (; j < n; ++j)
        y[j] += row[j] * xi;
}

void
scaleF32Avx512(float *row, const float *y, float xi, int64_t n)
{
    const __m512 x = _mm512_set1_ps(xi);
    int64_t j = 0;
    for (; j + 16 <= n; j += 16)
        _mm512_storeu_ps(row + j,
                         _mm512_mul_ps(x, _mm512_loadu_ps(y + j)));
    for (; j < n; ++j)
        row[j] = xi * y[j];
}

void
reluF32Avx512(float *out, const float *in, int64_t n)
{
    // Masked move, not VMAXPS: zeroing where x > 0 fails keeps the
    // exact input bits elsewhere and sends -0.0f / NaN to +0.0f like
    // the scalar ternary.
    const __m512 zero = _mm512_setzero_ps();
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512 x = _mm512_loadu_ps(in + j);
        const __mmask16 keep =
            _mm512_cmp_ps_mask(x, zero, _CMP_GT_OQ);
        _mm512_storeu_ps(out + j, _mm512_maskz_mov_ps(keep, x));
    }
    for (; j < n; ++j)
        out[j] = in[j] > 0.0f ? in[j] : 0.0f;
}

void
reluMaskF32Avx512(float *grad, const float *ref, int64_t n)
{
    const __m512 zero = _mm512_setzero_ps();
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __mmask16 keep = _mm512_cmp_ps_mask(
            _mm512_loadu_ps(ref + j), zero, _CMP_GT_OQ);
        _mm512_storeu_ps(
            grad + j,
            _mm512_maskz_mov_ps(keep, _mm512_loadu_ps(grad + j)));
    }
    for (; j < n; ++j)
        grad[j] = ref[j] > 0.0f ? grad[j] : 0.0f;
}

} // namespace

const Kernels &
avx512Kernels()
{
    // The crossbar's integer kernel is AVX2's: a 512-bit widening
    // byte-cell version ran crossbar_device no faster (within 2 %).
    static const Kernels table = {
        dotLanesAvx512, gemmNNAvx512,
        axpyF32Avx512,  scaleF32Avx512,
        avx2Kernels().ger_slices_i64,
        reluF32Avx512,  reluMaskF32Avx512,
    };
    return table;
}

} // namespace gemmk
} // namespace pipelayer

#endif // x86-64
