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
 * The conversions and multiplies are the zero-masked forms under a
 * full mask (the same lanes): GCC 12 seeds the plain _mm512_cvtps_pd,
 * _mm512_cvtpd_ps, _mm512_cvtepi32_epi64 and _mm512_mul_epi32 results
 * with an undefined vector, which -Wmaybe-uninitialized reports.
 *
 * gemm_nn holds eight adjacent outputs per 512-bit register and the
 * eight contract lanes in eight such registers; each reduction
 * element is one broadcast, one 256-bit multiply, one widening and
 * one add for all eight outputs.
 *
 * gemm_i32_i64 holds four windows x 32 adjacent int64 outputs in 16
 * registers; each word line costs four widenings of its codes, four
 * dword broadcasts and 16 VPMULDQ + VPADDQ pairs.
 *
 * absmax_f32 and quantize_i32 take a span's last partial vector with
 * masked loads and stores, so they need no scalar tail: a missing
 * lane reads +0, whose magnitude and code add nothing.  quantize_i32
 * runs quantizeCode() 16 lanes at a time, the fraction tests as mask
 * registers that add and subtract one; it counts in dword lanes
 * flushed into int64 before a lane sum could reach 2^31, and two
 * vectors of magnitudes share one SWAR popcount (VPOPCNTD and the
 * byte shuffles are not in F + DQ).
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

/**
 * NB windows x @p live (<= 8·NV) adjacent outputs in NB·NV registers,
 * summed over every listed word line.  Outputs past @p live are
 * neither loaded nor stored.
 */
template <int NB, int NV>
void
productTileAvx512(const int32_t *x, int64_t ldx, const int32_t *w,
                  int64_t ldw, const int64_t *rows, int64_t nrows,
                  int64_t *out, int64_t ldo, int64_t live)
{
    // The last vector's lanes: a VPMASKMOVD mask, and a store mask.
    const int64_t last = live - 8 * (NV - 1);
    const bool whole = last == 8;
    const __m256i tail = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int32_t>(last)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    const auto tail_store = static_cast<__mmask8>((1u << last) - 1);
    __m512i acc[NB][NV];
#pragma GCC unroll 4
    for (int b = 0; b < NB; ++b)
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v)
            acc[b][v] = _mm512_setzero_si512();
    for (int64_t k = 0; k < nrows; ++k) {
        const int64_t r = rows[k];
        const int32_t *wr = w + r * ldw;
        __m512i wv[NV];
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) {
            // A masked load does not touch the lanes it leaves out.
            const __m256i codes =
                v < NV - 1 || whole
                    ? _mm256_loadu_si256(
                          reinterpret_cast<const __m256i *>(wr + 8 * v))
                    : _mm256_maskload_epi32(wr + 8 * v, tail);
            wv[v] = _mm512_maskz_cvtepi32_epi64(0xFF, codes);
        }
#pragma GCC unroll 4
        for (int b = 0; b < NB; ++b) {
            // VPMULDQ multiplies the low dwords of each qword, signed:
            // a dword broadcast puts the window's code there.
            const __m512i xv = _mm512_set1_epi32(x[b * ldx + r]);
#pragma GCC unroll 4
            for (int v = 0; v < NV; ++v)
                acc[b][v] = _mm512_add_epi64(
                    acc[b][v], _mm512_maskz_mul_epi32(0xFF, xv, wv[v]));
        }
    }
#pragma GCC unroll 4
    for (int b = 0; b < NB; ++b) {
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) {
            const __mmask8 m = v < NV - 1 ? 0xFF : tail_store;
            int64_t *o = out + b * ldo + 8 * v;
            _mm512_mask_storeu_epi64(
                o, m,
                _mm512_add_epi64(_mm512_maskz_loadu_epi64(m, o),
                                 acc[b][v]));
        }
    }
}

/** Every window of one block of @p live (<= 8·NV) outputs. */
template <int NV>
void
productColumnsAvx512(int64_t nb, const int32_t *x, int64_t ldx,
                     const int32_t *w, int64_t ldw, const int64_t *rows,
                     int64_t nrows, int64_t *out, int64_t ldo, int64_t live)
{
    int64_t b = 0;
    for (; b + 4 <= nb; b += 4)
        productTileAvx512<4, NV>(x + b * ldx, ldx, w, ldw, rows, nrows,
                                 out + b * ldo, ldo, live);
    for (; b < nb; ++b)
        productTileAvx512<1, NV>(x + b * ldx, ldx, w, ldw, rows, nrows,
                                 out + b * ldo, ldo, live);
}

void
gemmI32I64Avx512(int64_t nb, int64_t n, const int32_t *x, int64_t ldx,
                 const int32_t *w, int64_t ldw, const int64_t *rows,
                 int64_t nrows, int64_t *out, int64_t ldo)
{
    // Blocks of four windows x 32 outputs stay in 16 registers across
    // the listed word lines; each line's codes are widened once
    // (VPMOVSXDQ) and multiplied into every window of the block.  The
    // last block takes as many vectors as its outputs need.
    int64_t c = 0;
    for (; c + 32 <= n; c += 32)
        productColumnsAvx512<4>(nb, x, ldx, w + c, ldw, rows, nrows,
                                out + c, ldo, 32);
    const int64_t rest = n - c;
    switch ((rest + 7) / 8) {
    case 0:
        break;
    case 1:
        productColumnsAvx512<1>(nb, x, ldx, w + c, ldw, rows, nrows,
                                out + c, ldo, rest);
        break;
    case 2:
        productColumnsAvx512<2>(nb, x, ldx, w + c, ldw, rows, nrows,
                                out + c, ldo, rest);
        break;
    case 3:
        productColumnsAvx512<3>(nb, x, ldx, w + c, ldw, rows, nrows,
                                out + c, ldo, rest);
        break;
    default:
        productColumnsAvx512<4>(nb, x, ldx, w + c, ldw, rows, nrows,
                                out + c, ldo, rest);
        break;
    }
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

/** Lanes [0, min(rest, 16)) of a 16-lane vector; none when rest <= 0. */
inline __mmask16
laneMask(int64_t rest)
{
    return rest >= 16 ? __mmask16{0xFFFF}
         : rest <= 0  ? __mmask16{0}
                      : static_cast<__mmask16>((1u << rest) - 1);
}

float
absmaxF32Avx512(const float *x, int64_t n, bool *nonfinite)
{
    // The last vector's missing lanes load as +0: finite, and no
    // larger than any magnitude.
    const __m512i magnitude = _mm512_set1_epi32(0x7FFFFFFF);
    const __m512 largest =
        _mm512_set1_ps(std::numeric_limits<float>::max());
    __m512 m = _mm512_setzero_ps();
    __mmask16 finite = 0xFFFF;
    for (int64_t j = 0; j < n; j += 16) {
        const __m512 a = _mm512_castsi512_ps(_mm512_and_si512(
            _mm512_castps_si512(_mm512_maskz_loadu_ps(laneMask(n - j), x + j)),
            magnitude));
        // Ordered and at most the largest float: not NaN, not ±inf.
        const __mmask16 ok = _mm512_cmp_ps_mask(a, largest, _CMP_LE_OQ);
        m = _mm512_mask_max_ps(m, ok, m, a);
        finite &= ok;
    }
    alignas(64) float lanes[16];
    _mm512_store_ps(lanes, m);
    float best = 0.0f;
    for (const float v : lanes)
        best = std::max(best, v);
    if (nonfinite)
        *nonfinite = finite != 0xFFFF;
    return best;
}

/**
 * Dword lane sums of codes below 2^15 stay below 2^31 over this many
 * vectors.
 */
constexpr int64_t kQuantizeFlush = int64_t{1} << 15;

/** Dwords [8·half, 8·half + 8) of a 16-lane vector, widened to int64. */
inline __m512i
widenHalf(__m512i v, int half)
{
    const __m256i part = half == 0
                             ? _mm512_maskz_extracti64x4_epi64(0xF, v, 0)
                             : _mm512_maskz_extracti64x4_epi64(0xF, v, 1);
    return _mm512_maskz_cvtepi32_epi64(0xFF, part);
}

/** The sum of the 16 dword lanes of @p v, in int64. */
inline int64_t
sumLanes(__m512i v)
{
    const __m512i s = _mm512_add_epi64(widenHalf(v, 0), widenHalf(v, 1));
    const __m256i h =
        _mm256_add_epi64(_mm512_maskz_extracti64x4_epi64(0xF, s, 0),
                         _mm512_maskz_extracti64x4_epi64(0xF, s, 1));
    const __m128i q = _mm_add_epi64(_mm256_castsi256_si128(h),
                                    _mm256_extracti128_si256(h, 1));
    return _mm_cvtsi128_si64(q) + _mm_extract_epi64(q, 1);
}

/** The largest of the 16 dword lanes of @p v. */
inline int32_t
maxLanes(__m512i v)
{
    const __m256i h =
        _mm256_max_epi32(_mm512_maskz_extracti64x4_epi64(0xF, v, 0),
                         _mm512_maskz_extracti64x4_epi64(0xF, v, 1));
    __m128i q = _mm_max_epi32(_mm256_castsi256_si128(h),
                              _mm256_extracti128_si256(h, 1));
    q = _mm_max_epi32(q, _mm_shuffle_epi32(q, 0x4E));
    q = _mm_max_epi32(q, _mm_shuffle_epi32(q, 0xB1));
    return _mm_cvtsi128_si32(q);
}

/**
 * Per dword lane, the set bits of its two 16-bit halves together
 * (SWAR; at most 32).  Two vectors of 15-bit magnitudes share one
 * count: lo | hi << 16.
 */
inline __m512i
popcountPairs(__m512i v)
{
    constexpr __mmask16 kAll = 0xFFFF;
    v = _mm512_sub_epi32(v, _mm512_and_si512(_mm512_maskz_srli_epi32(kAll, v, 1),
                                             _mm512_set1_epi32(0x55555555)));
    v = _mm512_add_epi32(
        _mm512_and_si512(v, _mm512_set1_epi32(0x33333333)),
        _mm512_and_si512(_mm512_maskz_srli_epi32(kAll, v, 2),
                         _mm512_set1_epi32(0x33333333)));
    v = _mm512_and_si512(
        _mm512_add_epi32(v, _mm512_maskz_srli_epi32(kAll, v, 4)),
        _mm512_set1_epi32(0x0F0F0F0F));
    v = _mm512_add_epi32(v, _mm512_maskz_srli_epi32(kAll, v, 8));
    v = _mm512_add_epi32(v, _mm512_maskz_srli_epi32(kAll, v, 16));
    return _mm512_and_si512(v, _mm512_set1_epi32(0x3F));
}

/** quantizeCode() 16 lanes at a time, for one scale and range. */
struct Quantize16
{
    static constexpr __mmask16 kAll = 0xFFFF;
    __m512 scale, lo, hi, half, neg_half;
    __m512i one, top, bottom;

    Quantize16(float s, int32_t levels)
        : scale(_mm512_set1_ps(s)),
          lo(_mm512_set1_ps(-static_cast<float>(levels + 1))),
          hi(_mm512_set1_ps(static_cast<float>(levels + 1))),
          half(_mm512_set1_ps(0.5f)), neg_half(_mm512_set1_ps(-0.5f)),
          one(_mm512_set1_epi32(1)), top(_mm512_set1_epi32(levels)),
          bottom(_mm512_set1_epi32(-levels))
    {
    }

    /**
     * The codes of the lanes of x[0..16) in @p lanes, stored to the
     * same lanes of out[0..16) and returned; the other lanes read as
     * +0 and code 0, and neither memory side is touched there.
     */
    __m512i operator()(const float *x, int32_t *out, __mmask16 lanes) const
    {
        // The clamped quotient, its truncation, and ±1 where the
        // fraction reaches ±0.5.
        const __m512 q = _mm512_maskz_min_ps(
            kAll,
            _mm512_maskz_max_ps(
                kAll, _mm512_div_ps(_mm512_maskz_loadu_ps(lanes, x), scale),
                lo),
            hi);
        __m512i code = _mm512_maskz_cvttps_epi32(kAll, q);
        const __m512 frac =
            _mm512_sub_ps(q, _mm512_maskz_cvtepi32_ps(kAll, code));
        code = _mm512_mask_add_epi32(
            code, _mm512_cmp_ps_mask(frac, half, _CMP_GE_OQ), code, one);
        code = _mm512_mask_sub_epi32(
            code, _mm512_cmp_ps_mask(frac, neg_half, _CMP_LE_OQ), code, one);
        code = _mm512_maskz_min_epi32(
            kAll, _mm512_maskz_max_epi32(kAll, code, bottom), top);
        _mm512_mask_storeu_epi32(out, lanes, code);
        return code;
    }
};

/** drive[0..16) += the magnitudes of @p mag, in @p lanes only. */
inline void
addDrive(int64_t *drive, __m512i mag, __mmask16 lanes)
{
    const auto lo = static_cast<__mmask8>(lanes);
    const auto hi = static_cast<__mmask8>(lanes >> 8);
    _mm512_mask_storeu_epi64(
        drive, lo,
        _mm512_add_epi64(_mm512_maskz_loadu_epi64(lo, drive),
                         widenHalf(mag, 0)));
    _mm512_mask_storeu_epi64(
        drive + 8, hi,
        _mm512_add_epi64(_mm512_maskz_loadu_epi64(hi, drive + 8),
                         widenHalf(mag, 1)));
}

template <bool kCounts, bool kDrive>
void
quantizeI32Avx512Body(const float *x, int64_t n, float scale,
                      int32_t levels, int32_t *codes, CodeCounts *counts,
                      int64_t *drive)
{
    // 32 values per step, the missing lanes of the last one masked
    // off: they read +0 and count nothing.  Two vectors of magnitudes
    // share one popcount.
    constexpr __mmask16 kAll = 0xFFFF;
    const Quantize16 quantize(scale, levels);
    const __m512i zero = _mm512_setzero_si512();
    int64_t j = 0;
    while (j < n) {
        const int64_t end = std::min(n, j + 16 * kQuantizeFlush);
        __m512i spikes = zero, pos = zero, mags = zero, most = zero;
        for (; j < end; j += 32) {
            const __mmask16 k0 = laneMask(end - j);
            const __mmask16 k1 = laneMask(end - j - 16);
            const __m512i c0 = quantize(x + j, codes + j, k0);
            const __m512i c1 = quantize(x + j + 16, codes + j + 16, k1);
            if constexpr (kCounts) {
                const __m512i m0 = _mm512_maskz_abs_epi32(kAll, c0);
                const __m512i m1 = _mm512_maskz_abs_epi32(kAll, c1);
                pos = _mm512_add_epi32(
                    pos, _mm512_add_epi32(
                             _mm512_maskz_max_epi32(kAll, c0, zero),
                             _mm512_maskz_max_epi32(kAll, c1, zero)));
                mags = _mm512_add_epi32(mags, _mm512_add_epi32(m0, m1));
                most = _mm512_maskz_max_epi32(
                    kAll, most, _mm512_maskz_max_epi32(kAll, m0, m1));
                spikes = _mm512_add_epi32(
                    spikes, popcountPairs(_mm512_or_si512(
                                m0, _mm512_maskz_slli_epi32(kAll, m1, 16))));
                if constexpr (kDrive) {
                    addDrive(drive + j, m0, k0);
                    addDrive(drive + j + 16, m1, k1);
                }
            }
        }
        if constexpr (kCounts) {
            counts->spikes += sumLanes(spikes);
            const int64_t p = sumLanes(pos);
            counts->pos_sum += p;
            counts->neg_sum += sumLanes(mags) - p;
            counts->max_abs = std::max(counts->max_abs, maxLanes(most));
        }
    }
}

void
quantizeI32Avx512(const float *x, int64_t n, float scale, int32_t levels,
                  int32_t *codes, CodeCounts *counts, int64_t *drive)
{
    if (!counts)
        quantizeI32Avx512Body<false, false>(x, n, scale, levels, codes,
                                            nullptr, nullptr);
    else if (!drive)
        quantizeI32Avx512Body<true, false>(x, n, scale, levels, codes,
                                           counts, nullptr);
    else
        quantizeI32Avx512Body<true, true>(x, n, scale, levels, codes,
                                          counts, drive);
}

} // namespace

const Kernels &
avx512Kernels()
{
    static const Kernels table = {
        dotLanesAvx512,    gemmNNAvx512,     axpyF32Avx512,
        scaleF32Avx512,    gemmI32I64Avx512, reluF32Avx512,
        reluMaskF32Avx512, absmaxF32Avx512,  quantizeI32Avx512,
    };
    return table;
}

} // namespace gemmk
} // namespace pipelayer

#endif // x86-64
