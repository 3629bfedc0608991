/**
 * @file
 * Per-ISA inner kernels behind the gemm:: entry points.
 *
 * Each instruction-set backend (one translation unit per target,
 * compiled with that target's flags) fills a Kernels table with the
 * same nine primitives; gemm.cc, nn::ReluLayer, quant::Quantizer and
 * reram::ArrayGroup pick a table at runtime via isa::active().
 * Every backend implements the *same* lane-based reduction contract
 * (DESIGN.md §7), so switching targets changes wall clock only, never
 * a single output bit:
 *
 *  - dot_lanes: kLanes (8) double accumulator lanes; element t of the
 *    reduction goes to lane t mod 8 (products rounded to float first,
 *    then widened), each lane sees its elements in ascending t, and
 *    the lanes are reduced in the pinned tree order
 *    ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), bias added last.
 *  - gemm_nn: the same recipe for every output of a C = A·B stripe
 *    whose reduction operand is a column of B (stride ldb), vectorised
 *    across *adjacent outputs* instead of along the reduction: output
 *    j of a vector keeps its eight lanes in element j of eight lane
 *    registers, so the tree and the last-added bias run vector-wide
 *    and every output sees dot_lanes' products in dot_lanes' order.
 *    The scalar entry (also the SIMD tables' leftover columns)
 *    gathers each column of B once and runs its dot_lanes on it.
 *  - axpy_f32 / scale_f32: element-wise maps over *independent*
 *    outputs — a float multiply then a float add per element, which
 *    vectorises without reordering any per-output reduction.  They
 *    also run Tensor's +=, -= (xi = ±1), *= and the SGD step.
 *  - relu_f32 / relu_mask_f32: branchless rectification primitives
 *    behind nn::ReluLayer.  Pure selects (x > 0 keeps the exact input
 *    bits, else +0.0f) with no arithmetic at all, so every backend is
 *    trivially bit-identical; -0.0f and NaN inputs both rectify to
 *    +0.0f, exactly like the scalar ternary.
 *  - gemm_i32_i64: a mapped weight matrix's signed product
 *    (W⁺ - W⁻)(x⁺ - x⁻) over the codes its cells store (DESIGN.md
 *    §7), register-blocked over windows and adjacent outputs and
 *    restricted to the word lines some window drives.  int32 ×
 *    int32 products are exact in int64; the caller keeps every
 *    partial sum below 2^63 in magnitude.  Integer sums are
 *    order-independent, so every backend and every chunking gives
 *    the same counts.
 *  - absmax_f32: the largest finite |x| of a span, the magnitude a
 *    quantiser's scale comes from.  A maximum is exact in any order,
 *    and |x| of a zero is +0, so every backend returns the same bits.
 *  - quantize_i32: a span's symmetric integer codes, each value's
 *    code by quantizeCode() below: an IEEE division by the scale (it
 *    rounds the same in a vector lane as in scalar code), the
 *    quotient clamped to ±(levels + 1), which leaves it below 2^23,
 *    where truncation and the ±0.5 fraction test are exact, and the
 *    code clamped to ±levels.  The counts it can add in the same
 *    pass are integer sums and maxima, exact in any order: a code's
 *    LSB-first spike train carries popcount(|code|) spikes (paper
 *    §4.2.2), so a window's spikes, its x⁺ and x⁻ code sums and each
 *    word line's drive follow from its codes with no spike encoding.
 *    The AVX-512 bodies mask off a span's missing last lanes (a zero
 *    adds nothing to a maximum or a count), so they need no scalar
 *    tail.
 *
 * The scalar tails, the quantiser's rounding rule and the tree
 * reduction are shared inline helpers so no backend can drift from
 * the contract by re-implementing them.
 */

#ifndef PIPELAYER_TENSOR_GEMM_KERNELS_HH_
#define PIPELAYER_TENSOR_GEMM_KERNELS_HH_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/isa.hh"

namespace pipelayer {
namespace gemmk {

/** Accumulator lanes in the reduction contract (DESIGN.md §7). */
constexpr int kLanes = 8;

/**
 * What quantize_i32 adds up over the codes c it writes, when asked:
 * the sums of the x⁺ and x⁻ passes (paper §4.2.3) and their spikes.
 */
struct CodeCounts
{
    int64_t spikes = 0;  //!< Σ popcount(|c|): the LSB-first spikes
    int64_t pos_sum = 0; //!< Σ max(c, 0): the x⁺ pass's code sum
    int64_t neg_sum = 0; //!< Σ max(-c, 0): the x⁻ pass's code sum
    int32_t max_abs = 0; //!< max |c|
};

/** The per-ISA primitive table; see the file comment for contracts. */
struct Kernels
{
    /** Lane-based dot product: float(bias + tree(lanes)). */
    float (*dot_lanes)(const float *a, const float *b, int64_t k,
                       double bias);
    /**
     * c[i*ldc + j] = float(bias_i + tree(lanes)) for i in [0,m),
     * j in [0,n), element p of output (i, j) being
     * a[i*lda + p] * b[p*ldb + j] in lane p mod 8; bias_i is bias[i],
     * or +0.0 when @p bias is null.  The SIMD backends hand the
     * columns that do not fill a vector to the scalar entry.
     */
    void (*gemm_nn)(int64_t m, int64_t n, int64_t k, const float *a,
                    int64_t lda, const float *b, int64_t ldb,
                    const float *bias, float *c, int64_t ldc);
    /** y[j] += row[j] * xi (float multiply, float add), j in [0,n). */
    void (*axpy_f32)(float *y, const float *row, float xi, int64_t n);
    /** row[j] = xi * y[j], j in [0,n); row == y allowed. */
    void (*scale_f32)(float *row, const float *y, float xi, int64_t n);
    /**
     * out[b*ldo + c] += Σ_k x[b*ldx + r_k] * w[r_k*ldw + c] (exact
     * int64) with r_k = rows[k], b in [0,nb), c in [0,n), k in
     * [0,nrows).
     */
    void (*gemm_i32_i64)(int64_t nb, int64_t n, const int32_t *x,
                         int64_t ldx, const int32_t *w, int64_t ldw,
                         const int64_t *rows, int64_t nrows, int64_t *out,
                         int64_t ldo);
    /** out[j] = in[j] > 0 ? in[j] : +0.0f; in == out allowed. */
    void (*relu_f32)(float *out, const float *in, int64_t n);
    /** grad[j] = ref[j] > 0 ? grad[j] : +0.0f (in-place mask). */
    void (*relu_mask_f32)(float *grad, const float *ref, int64_t n);
    /**
     * The largest |x[j]|, j in [0,n), over the finite x[j] (+0.0f when
     * none is); *nonfinite, when given, is set to whether some x[j] is
     * NaN or ±inf.
     */
    float (*absmax_f32)(const float *x, int64_t n, bool *nonfinite);
    /**
     * codes[j] = quantizeCode(x[j], scale, levels), j in [0,n).  When
     * @p counts is given, the codes' CodeCounts are added into it
     * (max_abs by maximum), and when @p drive is too, drive[j] +=
     * |codes[j]|.
     * @pre 0 <= levels <= 2^15 - 1 (the quantiser's 16 bits: the
     *      vector backends count 15-bit magnitudes); drive only with
     *      counts.
     */
    void (*quantize_i32)(const float *x, int64_t n, float scale,
                         int32_t levels, int32_t *codes,
                         CodeCounts *counts, int64_t *drive);
};

const Kernels &scalarKernels();
#if defined(__x86_64__) || defined(_M_X64)
const Kernels &avx2Kernels();
const Kernels &avx512Kernels();
#endif

/**
 * The table for @p t.  Asserts the target is compiled into this
 * binary (isa::supported() implies it is).
 */
const Kernels &kernelsFor(isa::Target t);

/** The table for the runtime-dispatched target. */
inline const Kernels &
activeKernels()
{
    return kernelsFor(isa::active());
}

/**
 * Scalar tail of the lane contract: elements [t0, k) into
 * lanes[t mod 8], ascending.  Every backend uses this for k % 8.
 */
inline void
dotLanesTail(double lanes[kLanes], const float *a, const float *b,
             int64_t t0, int64_t k)
{
    for (int64_t t = t0; t < k; ++t)
        lanes[t & (kLanes - 1)] += static_cast<double>(a[t] * b[t]);
}

/**
 * The quantiser's rounding rule for one value: round-half-away-from-
 * zero of @p v / @p scale (IEEE division), clamped to ±@p levels.
 * The quotient is clamped to ±(levels + 1) first, so truncation and
 * the fraction x - trunc(x) are exact and no quotient, however large,
 * overflows; a NaN quotient clamps to -(levels + 1), as the vector
 * max/min do, and so codes -levels.
 * @pre 0 <= levels < 2^23.
 */
inline int32_t
quantizeCode(float v, float scale, int32_t levels)
{
    const auto bound = static_cast<float>(levels + 1);
    float x = v / scale;
    x = x > -bound ? x : -bound;
    x = x < bound ? x : bound;
    auto code = static_cast<int32_t>(x);
    const float frac = x - static_cast<float>(code);
    code += static_cast<int32_t>(frac >= 0.5f) -
            static_cast<int32_t>(frac <= -0.5f);
    return std::clamp(code, -levels, levels);
}

/** The set bits of @p v (SWAR; inline without -mpopcnt). */
inline int32_t
popcount32(uint32_t v)
{
    v -= (v >> 1) & 0x55555555u;
    v = (v & 0x33333333u) + ((v >> 2) & 0x33333333u);
    v = (v + (v >> 4)) & 0x0F0F0F0Fu;
    return static_cast<int32_t>((v * 0x01010101u) >> 24);
}

/**
 * Scalar tail of quantize_i32: elements [j0, n), with the counts and
 * drive of its contract.  The scalar backend is this loop, and AVX2
 * runs it on the values that do not fill a vector.
 */
inline void
quantizeTail(const float *x, int64_t j0, int64_t n, float scale,
             int32_t levels, int32_t *codes, CodeCounts *counts,
             int64_t *drive)
{
    if (!counts) {
        for (int64_t j = j0; j < n; ++j)
            codes[j] = quantizeCode(x[j], scale, levels);
        return;
    }
    CodeCounts local; // in registers: drive may alias *counts' type
    for (int64_t j = j0; j < n; ++j) {
        const int32_t c = quantizeCode(x[j], scale, levels);
        codes[j] = c;
        const int32_t mag = c < 0 ? -c : c;
        local.spikes += popcount32(static_cast<uint32_t>(mag));
        local.pos_sum += c > 0 ? c : 0;
        local.neg_sum += c < 0 ? -c : 0;
        local.max_abs = std::max(local.max_abs, mag);
        if (drive)
            drive[j] += mag;
    }
    counts->spikes += local.spikes;
    counts->pos_sum += local.pos_sum;
    counts->neg_sum += local.neg_sum;
    counts->max_abs = std::max(counts->max_abs, local.max_abs);
}

/**
 * Scalar tail of absmax_f32: the running maximum @p m over the finite
 * |x[j]|, j in [j0, n), and whether any x[j] is not finite.
 */
inline float
absmaxTail(const float *x, int64_t j0, int64_t n, float m, bool &nonfinite)
{
    for (int64_t j = j0; j < n; ++j) {
        const float a = std::fabs(x[j]);
        if (a <= std::numeric_limits<float>::max()) // false for NaN, inf
            m = std::max(m, a);
        else
            nonfinite = true;
    }
    return m;
}

/** The pinned tree reduction of the lane contract, bias added last. */
inline float
reduceLanes(const double lanes[kLanes], double bias)
{
    const double l01 = lanes[0] + lanes[1];
    const double l23 = lanes[2] + lanes[3];
    const double l45 = lanes[4] + lanes[5];
    const double l67 = lanes[6] + lanes[7];
    return static_cast<float>(bias + ((l01 + l23) + (l45 + l67)));
}

} // namespace gemmk
} // namespace pipelayer

#endif // PIPELAYER_TENSOR_GEMM_KERNELS_HH_
