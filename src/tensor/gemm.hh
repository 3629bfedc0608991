/**
 * @file
 * Shared GEMM/GEMV kernel core behind every tensor hot path.
 *
 * The functional substrate's compute cost concentrates in a few loop
 * nests — the convolution forward and error backward (a patch-major
 * window panel times the kernels), the convolution kernel gradient,
 * and the matrix-vector products of inner-product layers.  This layer
 * gives them one SIMD-friendly inner loop each, instead of
 * hand-rolled nests, while preserving the exact floating-point
 * results of the original naive loops.
 *
 * ## Lane-based accumulation-order contract (DESIGN.md §7)
 *
 * Every kernel documents — and tests/test_gemm.cc enforces — a fixed
 * accumulation recipe, chosen to be *bit-identical* to the naive
 * reference loops in ops::reference at every thread count AND every
 * SIMD dispatch target (scalar/AVX2/AVX-512, see common/isa.hh):
 *
 *  - Reducing kernels (gemmNN, gemv) use 8 fixed double-
 *    accumulator lanes per output: reduction element t is multiplied
 *    in float (the product rounds to float), widened to double, and
 *    added to lane t mod 8; each lane sees its elements in ascending
 *    t.  The lanes are then reduced in the pinned tree order
 *    ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), the bias is added last,
 *    and the total rounds to float once on store.  The lane width 8
 *    is part of the contract — narrower targets (scalar, AVX2) use
 *    more registers, wider ones (AVX-512) fewer, but the arithmetic
 *    never changes.  gemv vectorises along the reduction (one
 *    output, eight lanes in vector elements); gemmNN reads B's
 *    columns in place and vectorises across adjacent outputs instead
 *    (eight lane registers, one output per vector element), with the
 *    tree and the bias applied vector-wide.  The scalar gemmNN gathers
 *    one column of B and runs dot_lanes' loop against it.
 *  - gevm accumulates in float with rows ascending (the historical
 *    matVecT loop): it vectorises across *independent outputs*, so
 *    SIMD never reorders a reduction.  ger has no reduction.
 *  - No FMA anywhere: -ffp-contract=off is pinned globally and the
 *    SIMD backends use separate multiply/add intrinsics, so products
 *    round to float identically on every target.
 *
 * parallel_for chunking only distributes *independent outputs*; the
 * per-output reduction order never changes, so results are
 * bit-identical at any PL_THREADS, any PL_ISA, and to the serial
 * reference.
 *
 * Signed zero: a kernel that multiplies explicit zero padding (e.g.
 * conv2d via its window panel) adds `w * 0.0f = ±0.0f` terms a
 * branch-skipping reference never evaluates.  Lanes start at +0.0
 * and, under IEEE-754 round-to-nearest, x + (±0.0) == x for every x
 * except x == -0.0 — which a lane can never hold (a sum of two
 * nonzero addends is never -0.0, and +0.0 + (-0.0) == +0.0).  The
 * reference loops may therefore skip padding taps as long as they
 * still *count* them when assigning lanes (lane index = tap position
 * mod 8, padding included).
 *
 * Callers provide outputs and operands in the layouts below; no entry
 * packs an operand or allocates per call.
 */

#ifndef PIPELAYER_TENSOR_GEMM_HH_
#define PIPELAYER_TENSOR_GEMM_HH_

#include <cstdint>

namespace pipelayer {
namespace gemm {

/**
 * C = A · B + bias:
 *   C[i*ldc + j] = bias[i] + Σ_p A[i*lda + p] * B[p*ldb + j]
 * with p distributed over the 8 contract lanes (element p into lane
 * p mod 8, ascending per lane, pinned tree reduction, bias last):
 * bit for bit dot_lanes of row i of A against column j of B.  B is
 * read in place (the conv forms: kernels times a patch-major window
 * panel, and ∂W as that panel times δᵀ).
 *
 * @param bias per-row-i addend, or nullptr for none.  Parallel over
 *        columns j; outputs are disjoint per chunk.
 */
void gemmNN(int64_t m, int64_t n, int64_t k, const float *a,
            int64_t lda, const float *b, int64_t ldb, const float *bias,
            float *c, int64_t ldc);

/**
 * y = W x:  y[i] = Σ_j W[i*ldw + j] * x[j], j distributed over the 8
 * contract lanes (j mod 8, ascending per lane, pinned tree
 * reduction).  Parallel over rows.
 */
void gemv(int64_t m, int64_t n, const float *w, int64_t ldw,
          const float *x, float *y);

/**
 * y += Wᵀ x:  y[j] += W[i*ldw + j] * x[i] for i ascending, float
 * accumulation directly in y (y must be initialised by the caller).
 * Parallel over columns; every y[j] sees rows in ascending order.
 */
void gevm(int64_t m, int64_t n, const float *w, int64_t ldw,
          const float *x, float *y);

/** Rank-1 outer product: C[i*ldc + j] = x[i] * y[j].  No reduction. */
void ger(int64_t m, int64_t n, const float *x, const float *y, float *c,
         int64_t ldc);

} // namespace gemm
} // namespace pipelayer

#endif // PIPELAYER_TENSOR_GEMM_HH_
