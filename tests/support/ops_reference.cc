#include "support/ops_reference.hh"

#include "common/logging.hh"
#include "tensor/ops.hh"

namespace pipelayer {
namespace ops {
namespace reference {

namespace {

int64_t
convExtent(int64_t in, int64_t k, int64_t stride, int64_t pad)
{
    const int64_t padded = in + 2 * pad;
    PL_ASSERT(padded >= k, "kernel %lld larger than padded input %lld",
              (long long)k, (long long)padded);
    return (padded - k) / stride + 1;
}

} // namespace

Tensor
conv2d(const Tensor &input, const Tensor &kernel, const Tensor &bias,
       int64_t stride, int64_t pad)
{
    PL_ASSERT(input.rank() == 3, "conv2d input must be (C, H, W)");
    PL_ASSERT(kernel.rank() == 4, "conv2d kernel must be (Co, Ci, Kh, Kw)");
    PL_ASSERT(stride >= 1 && pad >= 0, "bad stride/pad");
    const int64_t ci = input.dim(0), h = input.dim(1), w = input.dim(2);
    const int64_t co = kernel.dim(0);
    const int64_t kh = kernel.dim(2), kw = kernel.dim(3);
    PL_ASSERT(ci == kernel.dim(1), "channel mismatch");
    const bool has_bias = bias.numel() > 0;

    const int64_t ho = convExtent(h, kh, stride, pad);
    const int64_t wo = convExtent(w, kw, stride, pad);
    // The lane-based reduction contract (DESIGN.md §7, tensor/gemm.hh)
    // written out naively: tap p of the (ci, ky, kx)-ordered patch —
    // padding positions *counted*, since the fast path's im2col row
    // materialises them — feeds double lane p mod 8 with its
    // float-rounded product; lanes reduce in the pinned tree order
    // and the bias is added last.  Out-of-bounds taps multiply an
    // explicit 0.0f in the fast path; adding ±0.0f never changes a
    // lane (lanes cannot hold -0.0), so skipping them here is exact
    // as long as p still advances.
    Tensor out({co, ho, wo});
    for (int64_t oc = 0; oc < co; ++oc) {
        const double b =
            has_bias ? static_cast<double>(bias.at(oc)) : 0.0;
        for (int64_t oy = 0; oy < ho; ++oy) {
            for (int64_t ox = 0; ox < wo; ++ox) {
                double lanes[8] = {};
                int64_t p = 0;
                for (int64_t icn = 0; icn < ci; ++icn) {
                    for (int64_t ky = 0; ky < kh; ++ky) {
                        const int64_t iy = oy * stride + ky - pad;
                        for (int64_t kx = 0; kx < kw; ++kx, ++p) {
                            const int64_t ix = ox * stride + kx - pad;
                            if (iy < 0 || iy >= h || ix < 0 || ix >= w)
                                continue;
                            lanes[p & 7] += static_cast<double>(
                                kernel(oc, icn, ky, kx) *
                                input(icn, iy, ix));
                        }
                    }
                }
                const double l01 = lanes[0] + lanes[1];
                const double l23 = lanes[2] + lanes[3];
                const double l45 = lanes[4] + lanes[5];
                const double l67 = lanes[6] + lanes[7];
                out(oc, oy, ox) = static_cast<float>(
                    b + ((l01 + l23) + (l45 + l67)));
            }
        }
    }
    return out;
}

Tensor
conv2dBackwardInput(const Tensor &delta_out, const Tensor &kernel,
                    int64_t pad)
{
    PL_ASSERT(delta_out.rank() == 3 && kernel.rank() == 4,
              "bad ranks in conv2dBackwardInput");
    // "full" convolution: pad the output error by K - 1 on each axis,
    // convolve with the rotated kernel, then crop the forward padding
    // back off.
    const int64_t kh = kernel.dim(2), kw = kernel.dim(3);
    const int64_t co = delta_out.dim(0);
    const int64_t ho = delta_out.dim(1), wo = delta_out.dim(2);
    Tensor padded({co, ho + 2 * (kh - 1), wo + 2 * (kw - 1)});
    for (int64_t c = 0; c < co; ++c)
        for (int64_t y = 0; y < ho; ++y)
            for (int64_t x = 0; x < wo; ++x)
                padded(c, y + kh - 1, x + kw - 1) = delta_out(c, y, x);
    const Tensor rot = ops::rot180(kernel);
    const Tensor full = reference::conv2d(padded, rot, Tensor(), 1, 0);
    const int64_t ci = full.dim(0);
    const int64_t h = full.dim(1) - 2 * pad, w = full.dim(2) - 2 * pad;
    Tensor out({ci, h, w});
    for (int64_t c = 0; c < ci; ++c)
        for (int64_t y = 0; y < h; ++y)
            for (int64_t x = 0; x < w; ++x)
                out(c, y, x) = full(c, y + pad, x + pad);
    return out;
}

Tensor
conv2dBackwardKernel(const Tensor &input, const Tensor &delta_out,
                     int64_t kh, int64_t kw, int64_t pad)
{
    PL_ASSERT(input.rank() == 3 && delta_out.rank() == 3,
              "bad ranks in conv2dBackwardKernel");
    const Tensor padded = ops::zeroPad(input, pad);
    const int64_t ci = padded.dim(0);
    const int64_t h = padded.dim(1), w = padded.dim(2);
    const int64_t co = delta_out.dim(0);
    const int64_t ho = delta_out.dim(1), wo = delta_out.dim(2);
    PL_ASSERT(ho == h - kh + 1 && wo == w - kw + 1,
              "delta shape inconsistent with stride-1 convolution");
    (void)h;

    // Lane-based reduction contract (see reference::conv2d): output
    // pixel t = oy*wo + ox feeds double lane t mod 8 with its
    // float-rounded product, lanes reduce in the pinned tree order,
    // no bias.  This is gemm::gemmNN's recipe written out naively.
    Tensor grad({co, ci, kh, kw});
    for (int64_t oc = 0; oc < co; ++oc) {
        for (int64_t icn = 0; icn < ci; ++icn) {
            for (int64_t ky = 0; ky < kh; ++ky) {
                for (int64_t kx = 0; kx < kw; ++kx) {
                    double lanes[8] = {};
                    int64_t t = 0;
                    for (int64_t oy = 0; oy < ho; ++oy)
                        for (int64_t ox = 0; ox < wo; ++ox, ++t)
                            lanes[t & 7] += static_cast<double>(
                                delta_out(oc, oy, ox) *
                                padded(icn, oy + ky, ox + kx));
                    const double l01 = lanes[0] + lanes[1];
                    const double l23 = lanes[2] + lanes[3];
                    const double l45 = lanes[4] + lanes[5];
                    const double l67 = lanes[6] + lanes[7];
                    grad(oc, icn, ky, kx) = static_cast<float>(
                        0.0 + ((l01 + l23) + (l45 + l67)));
                }
            }
        }
    }
    return grad;
}

Tensor
matVec(const Tensor &weight, const Tensor &x)
{
    PL_ASSERT(weight.rank() == 2 && x.rank() == 1,
              "matVec needs (n,m), (m)");
    const int64_t n = weight.dim(0), m = weight.dim(1);
    PL_ASSERT(x.dim(0) == m, "matVec inner-dim mismatch");
    // Lane-based reduction contract: element j into double lane
    // j mod 8, pinned tree reduction (see reference::conv2d).
    Tensor out({n});
    for (int64_t i = 0; i < n; ++i) {
        double lanes[8] = {};
        for (int64_t j = 0; j < m; ++j)
            lanes[j & 7] +=
                static_cast<double>(weight(i, j) * x.at(j));
        const double l01 = lanes[0] + lanes[1];
        const double l23 = lanes[2] + lanes[3];
        const double l45 = lanes[4] + lanes[5];
        const double l67 = lanes[6] + lanes[7];
        out.at(i) =
            static_cast<float>(0.0 + ((l01 + l23) + (l45 + l67)));
    }
    return out;
}

Tensor
matVecT(const Tensor &weight, const Tensor &y)
{
    PL_ASSERT(weight.rank() == 2 && y.rank() == 1,
              "matVecT needs (n,m), (n)");
    const int64_t n = weight.dim(0), m = weight.dim(1);
    PL_ASSERT(y.dim(0) == n, "matVecT inner-dim mismatch");
    Tensor out({m});
    // Float accumulation, rows ascending — this order and precision
    // are part of the contract the fast path reproduces.
    for (int64_t i = 0; i < n; ++i) {
        const float yi = y.at(i);
        for (int64_t j = 0; j < m; ++j)
            out.at(j) += weight(i, j) * yi;
    }
    return out;
}

Tensor
outer(const Tensor &d, const Tensor &delta)
{
    PL_ASSERT(d.rank() == 1 && delta.rank() == 1, "outer needs vectors");
    const int64_t m = d.dim(0), n = delta.dim(0);
    Tensor out({n, m});
    for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < m; ++j)
            out(i, j) = delta.at(i) * d.at(j);
    return out;
}

Tensor
im2col(const Tensor &input, int64_t kh, int64_t kw, int64_t stride,
       int64_t pad)
{
    PL_ASSERT(input.rank() == 3, "im2col expects (C, H, W)");
    const Tensor padded = ops::zeroPad(input, pad);
    const int64_t c = padded.dim(0), h = padded.dim(1), w = padded.dim(2);
    (void)h;
    const int64_t ho = convExtent(padded.dim(1), kh, stride, 0);
    const int64_t wo = convExtent(w, kw, stride, 0);
    Tensor out({ho * wo, c * kh * kw});
    for (int64_t oy = 0; oy < ho; ++oy) {
        for (int64_t ox = 0; ox < wo; ++ox) {
            const int64_t row = oy * wo + ox;
            int64_t col = 0;
            for (int64_t cc = 0; cc < c; ++cc)
                for (int64_t ky = 0; ky < kh; ++ky)
                    for (int64_t kx = 0; kx < kw; ++kx)
                        out(row, col++) =
                            padded(cc, oy * stride + ky, ox * stride + kx);
        }
    }
    return out;
}

} // namespace reference
} // namespace ops
} // namespace pipelayer
