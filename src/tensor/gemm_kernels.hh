/**
 * @file
 * Per-ISA inner kernels behind the gemm:: entry points.
 *
 * Each instruction-set backend (one translation unit per target,
 * compiled with that target's flags) fills a Kernels table with the
 * same seven primitives; gemm.cc, nn::ReluLayer and reram::ArrayGroup
 * pick a table at runtime via isa::active().
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
 *
 * The scalar tail and the tree reduction are shared inline helpers so
 * no backend can drift from the contract by re-implementing them.
 */

#ifndef PIPELAYER_TENSOR_GEMM_KERNELS_HH_
#define PIPELAYER_TENSOR_GEMM_KERNELS_HH_

#include <cstdint>

#include "common/isa.hh"

namespace pipelayer {
namespace gemmk {

/** Accumulator lanes in the reduction contract (DESIGN.md §7). */
constexpr int kLanes = 8;

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
