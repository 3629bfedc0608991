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
 */

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

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

/** out[0..3] += w * @p mag4, four magnitudes widened to qwords. */
inline void
addProductAvx2(int64_t *out, __m256i mag4, __m256i wv)
{
    __m256i *o = reinterpret_cast<__m256i *>(out);
    _mm256_storeu_si256(o, _mm256_add_epi64(_mm256_loadu_si256(o),
                                            _mm256_mul_epu32(mag4, wv)));
}

void
gerSlicesAvx2(int64_t *out, int64_t ldo, const int64_t *w, int64_t ldw,
              int64_t nb, const uint8_t *const *cells, int groups,
              int shift, int64_t n, int64_t *sums)
{
    // Up to 128 bit lines at a time: each slice's bytes are widened to
    // dwords (VPMOVZXBD), shifted into place and ORed into the
    // magnitudes, and summed on the way (VPSADBW); the magnitudes are
    // widened once more to qwords, four to a register, and every
    // window then takes its multiply-adds from them.  AVX2 has no
    // 64x64 multiply, but VPMULUDQ's 32x32 -> 64 product is exact
    // under the kernel contract.
    constexpr int64_t kChunk = 128;
    __m256i mag[kChunk / 4];
    int64_t tail[3];
    std::fill(sums, sums + groups, int64_t{0});
    const __m128i zero = _mm_setzero_si128();
    for (int64_t c0 = 0; c0 < n; c0 += kChunk) {
        const int64_t len = std::min(kChunk, n - c0);
        int64_t c = 0;
        for (; c + 16 <= len; c += 16) {
            __m256i lo = _mm256_setzero_si256();
            __m256i hi = _mm256_setzero_si256();
            for (int g = 0; g < groups; ++g) {
                const __m128i bytes = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(cells[g] + c0 + c));
                const __m128i sh = _mm_cvtsi32_si128(g * shift);
                lo = _mm256_or_si256(
                    lo, _mm256_sll_epi32(_mm256_cvtepu8_epi32(bytes), sh));
                hi = _mm256_or_si256(
                    hi, _mm256_sll_epi32(
                            _mm256_cvtepu8_epi32(_mm_srli_si128(bytes, 8)),
                            sh));
                const __m128i sad = _mm_sad_epu8(bytes, zero);
                sums[g] += _mm_cvtsi128_si64(sad) + _mm_extract_epi64(sad, 1);
            }
            __m256i *m = mag + c / 4;
            m[0] = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(lo));
            m[1] = _mm256_cvtepu32_epi64(_mm256_extracti128_si256(lo, 1));
            m[2] = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(hi));
            m[3] = _mm256_cvtepu32_epi64(_mm256_extracti128_si256(hi, 1));
        }
        for (; c + 4 <= len; c += 4) {
            __m256i m = _mm256_setzero_si256();
            for (int g = 0; g < groups; ++g) {
                const uint8_t *cell = cells[g] + c0 + c;
                int32_t quad;
                std::memcpy(&quad, cell, sizeof quad);
                m = _mm256_or_si256(
                    m, _mm256_sll_epi64(
                           _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(quad)),
                           _mm_cvtsi32_si128(g * shift)));
                sums[g] += cell[0] + cell[1] + cell[2] + cell[3];
            }
            mag[c / 4] = m;
        }
        const int64_t quads = c / 4;
        for (int64_t k = c; k < len; ++k) {
            tail[k - c] = 0;
            for (int g = 0; g < groups; ++g) {
                const uint8_t cell = cells[g][c0 + k];
                tail[k - c] |= int64_t{cell} << (g * shift);
                sums[g] += cell;
            }
        }
        for (int64_t b = 0; b < nb; ++b) {
            const int64_t wb = w[b * ldw];
            if (wb == 0)
                continue;
            const __m256i wv = _mm256_set1_epi64x(wb);
            int64_t *o = out + b * ldo + c0;
            for (int64_t q = 0; q < quads; ++q)
                addProductAvx2(o + 4 * q, mag[q], wv);
            for (int64_t k = c; k < len; ++k)
                o[k] += wb * tail[k - c];
        }
    }
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
        dotLanesAvx2,  gemmNNAvx2,  axpyF32Avx2,     scaleF32Avx2,
        gerSlicesAvx2, reluF32Avx2, reluMaskF32Avx2,
    };
    return table;
}

} // namespace gemmk
} // namespace pipelayer

#endif // x86-64
