/**
 * @file
 * Naive reference kernels: the original serial loop nests, kept
 * verbatim as the semantic ground truth for the GEMM-backed fast
 * paths in ops.cc.
 *
 * Every function here computes bit-for-bit what its ops:: counterpart
 * must produce (same float-product / accumulator recipe, same
 * reduction order), with no parallelism, no profiling scopes and no
 * scratch buffer — deliberately boring.  tests/test_gemm.cc fuzzes
 * fast vs reference over randomized shapes and asserts bit-exact
 * equality; the micro benches time fast against reference to report
 * speedups.  Do not "optimise" these.
 *
 * Part of the pl_test_support library (tests/support): only the
 * tests and the micro benches link it, no program runs it.
 */

#ifndef PIPELAYER_TESTS_SUPPORT_OPS_REFERENCE_HH_
#define PIPELAYER_TESTS_SUPPORT_OPS_REFERENCE_HH_

#include <cstdint>

#include "tensor/tensor.hh"

namespace pipelayer {
namespace ops {
namespace reference {

/** Naive direct convolution; see ops::conv2d for the contract. */
Tensor conv2d(const Tensor &input, const Tensor &kernel,
              const Tensor &bias, int64_t stride = 1, int64_t pad = 0);

/** Naive full-convolution error backward; see ops::conv2dBackwardInput. */
Tensor conv2dBackwardInput(const Tensor &delta_out, const Tensor &kernel,
                           int64_t pad = 0);

/** Naive kernel-gradient loops; see ops::conv2dBackwardKernel. */
Tensor conv2dBackwardKernel(const Tensor &input, const Tensor &delta_out,
                            int64_t kh, int64_t kw, int64_t pad = 0);

/** Naive row-major dot products; see ops::matVec. */
Tensor matVec(const Tensor &weight, const Tensor &x);

/** Naive transposed product, float accumulation; see ops::matVecT. */
Tensor matVecT(const Tensor &weight, const Tensor &y);

/** Naive outer product; see ops::outer. */
Tensor outer(const Tensor &d, const Tensor &delta);

/** Naive window unroll; see ops::im2col. */
Tensor im2col(const Tensor &input, int64_t kh, int64_t kw,
              int64_t stride = 1, int64_t pad = 0);

} // namespace reference
} // namespace ops
} // namespace pipelayer

#endif // PIPELAYER_TESTS_SUPPORT_OPS_REFERENCE_HH_
