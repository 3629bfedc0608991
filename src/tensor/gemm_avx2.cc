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
 *
 * quantize_i32 runs quantizeCode() eight lanes at a time (VDIVPS,
 * VMAXPS/VMINPS, whose NaN rule is the scalar ternaries', VCVTTPS2DQ
 * and the two fraction compares) and counts in dword lanes flushed
 * into int64 before a lane sum could reach 2^31; two vectors of
 * magnitudes share one nibble-table popcount.
 */

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <limits>

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

float
absmaxF32Avx2(const float *x, int64_t n, bool *nonfinite)
{
    const __m256 magnitude = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
    const __m256 largest =
        _mm256_set1_ps(std::numeric_limits<float>::max());
    __m256 m = _mm256_setzero_ps();
    __m256 bad = _mm256_setzero_ps();
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 a = _mm256_and_ps(_mm256_loadu_ps(x + j), magnitude);
        // Unordered-or-greater: the NaN and ±inf lanes.
        const __m256 nf = _mm256_cmp_ps(a, largest, _CMP_NLE_UQ);
        m = _mm256_max_ps(m, _mm256_andnot_ps(nf, a));
        bad = _mm256_or_ps(bad, nf);
    }
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, m);
    float best = 0.0f;
    for (const float v : lanes)
        best = std::max(best, v);
    bool any_bad = _mm256_movemask_ps(bad) != 0;
    best = absmaxTail(x, j, n, best, any_bad);
    if (nonfinite)
        *nonfinite = any_bad;
    return best;
}

/**
 * Dword lane sums of codes below 2^15 stay below 2^31 over this many
 * vectors.
 */
constexpr int64_t kQuantizeFlush = int64_t{1} << 15;

/** The sum of the 8 dword lanes of @p v, in int64. */
inline int64_t
sumLanes(__m256i v)
{
    const __m256i s =
        _mm256_add_epi64(_mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)),
                         _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1)));
    const __m128i q = _mm_add_epi64(_mm256_castsi256_si128(s),
                                    _mm256_extracti128_si256(s, 1));
    return _mm_cvtsi128_si64(q) + _mm_extract_epi64(q, 1);
}

/** The largest of the 8 dword lanes of @p v. */
inline int32_t
maxLanes(__m256i v)
{
    __m128i q = _mm_max_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    q = _mm_max_epi32(q, _mm_shuffle_epi32(q, 0x4E));
    q = _mm_max_epi32(q, _mm_shuffle_epi32(q, 0xB1));
    return _mm_cvtsi128_si32(q);
}

/**
 * The set bits of @p v per 64-bit lane: a nibble table (VPSHUFB)
 * summed by VPSADBW.  Two vectors of 15-bit magnitudes share one
 * count: lo | hi << 16.
 */
inline __m256i
popcountQwords(__m256i v)
{
    const __m256i table = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2,
                                           3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2,
                                           2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i nibble = _mm256_set1_epi8(0x0F);
    const __m256i bits = _mm256_add_epi8(
        _mm256_shuffle_epi8(table, _mm256_and_si256(v, nibble)),
        _mm256_shuffle_epi8(
            table, _mm256_and_si256(_mm256_srli_epi32(v, 4), nibble)));
    return _mm256_sad_epu8(bits, _mm256_setzero_si256());
}

/** quantizeCode() eight lanes at a time, for one scale and range. */
struct Quantize8
{
    __m256 scale, lo, hi, half, neg_half;
    __m256i top, bottom;

    Quantize8(float s, int32_t levels)
        : scale(_mm256_set1_ps(s)),
          lo(_mm256_set1_ps(-static_cast<float>(levels + 1))),
          hi(_mm256_set1_ps(static_cast<float>(levels + 1))),
          half(_mm256_set1_ps(0.5f)), neg_half(_mm256_set1_ps(-0.5f)),
          top(_mm256_set1_epi32(levels)), bottom(_mm256_set1_epi32(-levels))
    {
    }

    /** The codes of x[0..8), stored to out[0..8) and returned. */
    __m256i operator()(const float *x, int32_t *out) const
    {
        // The clamped quotient, its truncation, and ±1 where the
        // fraction reaches ±0.5 (a true compare is -1).
        const __m256 q = _mm256_min_ps(
            _mm256_max_ps(_mm256_div_ps(_mm256_loadu_ps(x), scale), lo), hi);
        __m256i code = _mm256_cvttps_epi32(q);
        const __m256 frac = _mm256_sub_ps(q, _mm256_cvtepi32_ps(code));
        code = _mm256_sub_epi32(
            code,
            _mm256_castps_si256(_mm256_cmp_ps(frac, half, _CMP_GE_OQ)));
        code = _mm256_add_epi32(
            code,
            _mm256_castps_si256(_mm256_cmp_ps(frac, neg_half, _CMP_LE_OQ)));
        code = _mm256_min_epi32(_mm256_max_epi32(code, bottom), top);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out), code);
        return code;
    }
};

/** drive[0..8) += the 8 magnitudes of @p mag. */
inline void
addDrive(int64_t *drive, __m256i mag)
{
    auto *d = reinterpret_cast<__m256i *>(drive);
    _mm256_storeu_si256(
        d, _mm256_add_epi64(_mm256_loadu_si256(d),
                            _mm256_cvtepi32_epi64(_mm256_castsi256_si128(mag))));
    _mm256_storeu_si256(
        d + 1,
        _mm256_add_epi64(_mm256_loadu_si256(d + 1),
                         _mm256_cvtepi32_epi64(_mm256_extracti128_si256(mag, 1))));
}

template <bool kCounts, bool kDrive>
void
quantizeI32Avx2Body(const float *x, int64_t n, float scale, int32_t levels,
                    int32_t *codes, CodeCounts *counts, int64_t *drive)
{
    // 16 values per step, or 8 for an odd last vector; two vectors of
    // magnitudes share one popcount.
    const Quantize8 quantize(scale, levels);
    const __m256i zero = _mm256_setzero_si256();
    const int64_t n8 = n & ~int64_t{7};
    int64_t j = 0;
    while (j < n8) {
        const int64_t end = std::min(n8, j + 8 * kQuantizeFlush);
        __m256i spikes = zero, pos = zero, mags = zero, most = zero;
        while (j < end) {
            const bool pair = j + 16 <= end;
            const __m256i c0 = quantize(x + j, codes + j);
            const __m256i c1 =
                pair ? quantize(x + j + 8, codes + j + 8) : zero;
            if constexpr (kCounts) {
                const __m256i m0 = _mm256_abs_epi32(c0);
                const __m256i m1 = _mm256_abs_epi32(c1);
                pos = _mm256_add_epi32(
                    pos, _mm256_add_epi32(_mm256_max_epi32(c0, zero),
                                          _mm256_max_epi32(c1, zero)));
                mags = _mm256_add_epi32(mags, _mm256_add_epi32(m0, m1));
                most = _mm256_max_epi32(most, _mm256_max_epi32(m0, m1));
                spikes = _mm256_add_epi64(
                    spikes, popcountQwords(_mm256_or_si256(
                                m0, _mm256_slli_epi32(m1, 16))));
                if constexpr (kDrive) {
                    addDrive(drive + j, m0);
                    if (pair)
                        addDrive(drive + j + 8, m1);
                }
            }
            j += pair ? 16 : 8;
        }
        if constexpr (kCounts) {
            const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(spikes),
                                            _mm256_extracti128_si256(spikes, 1));
            counts->spikes += _mm_cvtsi128_si64(s) + _mm_extract_epi64(s, 1);
            const int64_t p = sumLanes(pos);
            counts->pos_sum += p;
            counts->neg_sum += sumLanes(mags) - p;
            counts->max_abs = std::max(counts->max_abs, maxLanes(most));
        }
    }
    quantizeTail(x, j, n, scale, levels, codes, counts, drive);
}

void
quantizeI32Avx2(const float *x, int64_t n, float scale, int32_t levels,
                int32_t *codes, CodeCounts *counts, int64_t *drive)
{
    if (!counts)
        quantizeI32Avx2Body<false, false>(x, n, scale, levels, codes,
                                          nullptr, nullptr);
    else if (!drive)
        quantizeI32Avx2Body<true, false>(x, n, scale, levels, codes,
                                         counts, nullptr);
    else
        quantizeI32Avx2Body<true, true>(x, n, scale, levels, codes, counts,
                                        drive);
}

} // namespace

const Kernels &
avx2Kernels()
{
    static const Kernels table = {
        dotLanesAvx2,    gemmNNAvx2,     axpyF32Avx2,
        scaleF32Avx2,    gemmI32I64Avx2, reluF32Avx2,
        reluMaskF32Avx2, absmaxF32Avx2,  quantizeI32Avx2,
    };
    return table;
}

} // namespace gemmk
} // namespace pipelayer

#endif // x86-64
