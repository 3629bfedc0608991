/**
 * @file
 * Tensor primitives used by both the functional CNN substrate and the
 * ReRAM functional model: convolution (including the "full" variant
 * with rotated kernels used for error backward, paper §4.3), pooling,
 * padding and matrix products.
 */

#ifndef PIPELAYER_TENSOR_OPS_HH_
#define PIPELAYER_TENSOR_OPS_HH_

#include <cstdint>

#include "tensor/tensor.hh"

namespace pipelayer {
namespace ops {

/**
 * 2-D convolution, paper Eq. (1): the kernels times a patch-major
 * window panel (one row per tap (ci, ky, kx), one column per output
 * pixel) in one output-vectorised gemm::gemmNN.
 *
 * @param input  (Cin, H, W) feature cube d_l.
 * @param kernel (Cout, Cin, Kh, Kw) kernel K.
 * @param bias   (Cout) bias, or an empty tensor for no bias.
 * @param stride spatial stride (same in both axes).
 * @param pad    zero padding added to each edge.
 * @return       (Cout, Ho, Wo) where Ho = (H + 2 pad - Kh)/stride + 1.
 */
Tensor conv2d(const Tensor &input, const Tensor &kernel,
              const Tensor &bias, int64_t stride = 1, int64_t pad = 0);

/**
 * Error backward through a convolution (paper Fig. 10c / Fig. 11):
 * delta_l = conv2(delta_{l+1}, rot180(K), 'full') with the forward
 * padding cropped off, computed directly as conv2d(delta_{l+1},
 * rot180(K)) at stride 1 and padding K - 1 - pad per axis (negative
 * for pad > K - 1: the windows start inside delta).  Bit-identical
 * to the pad, full-convolve and crop route (DESIGN.md §7).  Stride-1
 * convolutions only.
 *
 * @param delta_out (Cout, Ho, Wo) error at the layer output.
 * @param kernel    (Cout, Cin, Kh, Kw) forward kernel.
 * @param pad       padding used in the forward pass.
 * @return          (Cin, H, W) error at the layer input.
 */
Tensor conv2dBackwardInput(const Tensor &delta_out, const Tensor &kernel,
                           int64_t pad = 0);

/**
 * Kernel gradient of a convolution (paper §4.4.1, Fig. 12):
 * dW[c_out, c_in] = conv(d_{l-1}[c_in], delta_l[c_out]), as
 * gemm::gemmNN of the forward's window panel times δᵀ, vectorised
 * over output channels, between two transposes.  Stride-1
 * convolutions only.
 *
 * @param input     (Cin, H, W) forward input d_{l-1}.
 * @param delta_out (Cout, Ho, Wo) output error delta_l.
 * @param pad       padding used in the forward pass.
 * @return          (Cout, Cin, Kh, Kw) kernel gradient.
 */
Tensor conv2dBackwardKernel(const Tensor &input, const Tensor &delta_out,
                            int64_t kh, int64_t kw, int64_t pad = 0);

/** Rotate a kernel 180 degrees spatially and swap in/out channels. */
Tensor rot180(const Tensor &kernel);

/** Zero-pad a (C, H, W) cube by @p pad on each spatial edge. */
Tensor zeroPad(const Tensor &input, int64_t pad);

/**
 * Max pooling with window == stride == @p k, paper §2.1.
 *
 * @param input   (C, H, W); H and W must be divisible by k.
 * @param indices out-parameter: flat argmax index per output element,
 *                used for the error-routing backward (Fig. 10b).
 */
Tensor maxPool(const Tensor &input, int64_t k, Tensor *indices);

/** Route output error to argmax positions (paper Fig. 10b). */
Tensor maxPoolBackward(const Tensor &delta_out, const Tensor &indices,
                       const Shape &input_shape);

/** Average pooling with window == stride == @p k, paper Eq. (2). */
Tensor avgPool(const Tensor &input, int64_t k);

/** Spread output error uniformly over each window. */
Tensor avgPoolBackward(const Tensor &delta_out, int64_t k,
                       const Shape &input_shape);

/** Matrix-vector product W x, paper Eq. (3) without bias. */
Tensor matVec(const Tensor &weight, const Tensor &x);

/** Transposed matrix-vector product W^T y (error backward, §2.2). */
Tensor matVecT(const Tensor &weight, const Tensor &y);

/** Outer product d δ^T: the inner-product weight gradient (§2.2). */
Tensor outer(const Tensor &d, const Tensor &delta);

/**
 * im2col: unroll convolution windows into rows so a convolution
 * becomes one matrix product.  This is exactly the data-input
 * ordering of paper Fig. 4 (each yellow bar is one row), and the
 * transpose of the patch-major panel conv2d packs.
 *
 * @return (num_windows, Cin*Kh*Kw) matrix.
 */
Tensor im2col(const Tensor &input, int64_t kh, int64_t kw,
              int64_t stride = 1, int64_t pad = 0);

} // namespace ops
} // namespace pipelayer

#endif // PIPELAYER_TENSOR_OPS_HH_
