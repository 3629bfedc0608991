#include "tensor/ops.hh"

#include <algorithm>
#include <cstring>

#include "common/arena.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/prof.hh"
#include "tensor/gemm.hh"

namespace pipelayer {
namespace ops {

namespace {

/** Output extent of a strided, padded convolution along one axis. */
int64_t
convExtent(int64_t in, int64_t k, int64_t stride, int64_t pad)
{
    const int64_t padded = in + 2 * pad;
    PL_ASSERT(padded >= k, "kernel %lld larger than padded input %lld",
              (long long)k, (long long)padded);
    return (padded - k) / stride + 1;
}

/**
 * Pack the convolution windows of a (c, h, w) cube: tap p = (ci, ky,
 * kx) of output pixel j = (oy, ox) goes to out[p * tap_step +
 * j * pixel_step], the tap order being the add order of the naive
 * convolution loop.  The conv ops pack the patch-major panel
 * (tap_step = ho*wo, pixel_step = 1): gemmNN then reduces each output
 * over its window column in exactly the naive sequence, and the panel
 * is the A whose rows ∂W reduces against δᵀ.  There a tap row holds,
 * per output row, one run of an input row between zero borders — a
 * single copy at stride 1.  When the rows are as wide as the input
 * (wo == w, every 'same'-padded conv), the whole tap row is channel
 * ci shifted by (ky - pad_y, kx - pad_x): one copy of the plane, then
 * the border cells are zeroed.  ops::im2col packs its transpose, one
 * window per row (tap_step = 1, pixel_step = c*kh*kw), in place.
 * Padding positions are materialised as +0.0f (adding w * ±0.0f to an
 * accumulator is exact; see gemm.hh).  A negative pad starts every
 * window inside the cube, which is how conv2dBackwardInput crops.
 *
 * @p out spans c*kh*kw * ho*wo floats at those steps and is
 * allocated by the caller on the calling thread (chunk bodies only
 * write).
 */
void
packWindows(const float *in_p, int64_t c, int64_t h, int64_t w,
            int64_t kh, int64_t kw, int64_t stride, int64_t pad_y,
            int64_t pad_x, int64_t ho, int64_t wo, float *out,
            int64_t tap_step, int64_t pixel_step)
{
    PL_PROF_SCOPE("tensor.im2col");
    parallel_for(0, c * kh * kw, /*work_per_index=*/ho * wo,
                 [&](int64_t p0, int64_t p1) {
        for (int64_t p = p0; p < p1; ++p) {
            const int64_t kx = p % kw;
            const int64_t ky = p / kw % kh;
            const float *in_c = in_p + p / (kw * kh) * h * w;
            // Output column ox reads input column ox * stride + x0;
            // [ox_lo, ox_hi) are the columns inside the cube.
            const int64_t x0 = kx - pad_x;
            const int64_t ox_lo =
                std::min(wo, x0 >= 0 ? 0 : (stride - 1 - x0) / stride);
            const int64_t ox_hi = std::clamp(
                x0 < w ? (w - 1 - x0) / stride + 1 : 0, ox_lo, wo);
            float *dst = out + p * tap_step;
            if (pixel_step == 1 && stride == 1 && wo == w) {
                // Cell (oy, ox) reads input cell (oy + dy, ox + x0),
                // dy*w + x0 further on, for oy in [oy_lo, oy_hi).
                // Between two such rows the border cells (ox >= ox_hi,
                // then ox < ox_lo) are one run that the copy fills
                // from the wrong place, so it is zeroed afterwards.
                const int64_t dy = ky - pad_y;
                const int64_t oy_lo = std::clamp(-dy, int64_t{0}, ho);
                const int64_t oy_hi = std::clamp(h - dy, oy_lo, ho);
                if (oy_lo == oy_hi || ox_lo == ox_hi) {
                    std::fill(dst, dst + ho * wo, 0.0f);
                    continue;
                }
                const int64_t first = oy_lo * wo + ox_lo;
                const int64_t last = (oy_hi - 1) * wo + ox_hi;
                std::fill(dst, dst + first, 0.0f);
                std::memcpy(dst + first, in_c + first + dy * w + x0,
                            static_cast<size_t>(last - first) *
                                sizeof(float));
                std::fill(dst + last, dst + ho * wo, 0.0f);
                for (int64_t oy = oy_lo; oy + 1 < oy_hi; ++oy)
                    std::fill(dst + oy * wo + ox_hi,
                              dst + (oy + 1) * wo + ox_lo, 0.0f);
                continue;
            }
            for (int64_t oy = 0; oy < ho; ++oy, dst += wo * pixel_step) {
                const int64_t iy = oy * stride + ky - pad_y;
                const bool row_inside = iy >= 0 && iy < h;
                const int64_t lo = row_inside ? ox_lo : wo;
                const int64_t hi = row_inside ? ox_hi : wo;
                const float *in_row = in_c + (row_inside ? iy * w : 0);
                if (pixel_step == 1 && stride == 1) {
                    std::fill(dst, dst + lo, 0.0f);
                    if (hi > lo)
                        std::memcpy(dst + lo, in_row + lo + x0,
                                    static_cast<size_t>(hi - lo) *
                                        sizeof(float));
                    std::fill(dst + hi, dst + wo, 0.0f);
                } else {
                    for (int64_t ox = 0; ox < wo; ++ox)
                        dst[ox * pixel_step] = ox >= lo && ox < hi
                            ? in_row[ox * stride + x0]
                            : 0.0f;
                }
            }
        }
    });
}

/**
 * Convolve @p input with @p co kernels of (Cin, kh, kw) at @p kernel:
 * one patch-major panel and one gemmNN, so output (oc, oy, ox) is the
 * lane-contract dot product of kernel row oc with window column
 * (oy, ox), bias added last.  The pads are per axis and may be
 * negative (conv2dBackwardInput).
 */
Tensor
convByPanel(const Tensor &input, const float *kernel, int64_t co,
            int64_t kh, int64_t kw, const float *bias, int64_t stride,
            int64_t pad_y, int64_t pad_x)
{
    PL_PROF_SCOPE("tensor.conv2d_fwd");
    const int64_t ci = input.dim(0), h = input.dim(1), w = input.dim(2);
    const int64_t ho = convExtent(h, kh, stride, pad_y);
    const int64_t wo = convExtent(w, kw, stride, pad_x);
    Tensor out({co, ho, wo});
    const int64_t patch = ci * kh * kw;
    const int64_t pixels = ho * wo;
    const arena::Scratch scratch({patch * pixels});
    float *const panel = scratch[0];
    packWindows(input.data(), ci, h, w, kh, kw, stride, pad_y, pad_x, ho,
                wo, panel, /*tap_step=*/pixels, /*pixel_step=*/1);
    gemm::gemmNN(co, pixels, patch, kernel, patch, panel, pixels, bias,
                 out.data(), pixels);
    return out;
}

} // namespace

Tensor
conv2d(const Tensor &input, const Tensor &kernel, const Tensor &bias,
       int64_t stride, int64_t pad)
{
    PL_ASSERT(input.rank() == 3, "conv2d input must be (C, H, W)");
    PL_ASSERT(kernel.rank() == 4, "conv2d kernel must be (Co, Ci, Kh, Kw)");
    PL_ASSERT(stride >= 1 && pad >= 0, "bad stride/pad");
    const int64_t co = kernel.dim(0);
    PL_ASSERT(input.dim(0) == kernel.dim(1),
              "channel mismatch: input %lld vs kernel %lld",
              (long long)input.dim(0), (long long)kernel.dim(1));
    const bool has_bias = bias.numel() > 0;
    if (has_bias) {
        PL_ASSERT(bias.rank() == 1 && bias.dim(0) == co,
                  "bias must be (Cout)");
    }
    return convByPanel(input, kernel.data(), co, kernel.dim(2),
                       kernel.dim(3), has_bias ? bias.data() : nullptr,
                       stride, pad, pad);
}

Tensor
rot180(const Tensor &kernel)
{
    PL_ASSERT(kernel.rank() == 4, "rot180 expects (Co, Ci, Kh, Kw)");
    const int64_t co = kernel.dim(0), ci = kernel.dim(1);
    const int64_t kh = kernel.dim(2), kw = kernel.dim(3);
    // Output is indexed (Ci, Co, Kh, Kw): channel roles swap in the
    // backward pass, and the spatial taps are reversed.
    Tensor out({ci, co, kh, kw});
    const float *src = kernel.data();
    float *dst = out.data();
    for (int64_t oc = 0; oc < co; ++oc)
        for (int64_t icn = 0; icn < ci; ++icn)
            for (int64_t ky = 0; ky < kh; ++ky)
                for (int64_t kx = 0; kx < kw; ++kx)
                    dst[((icn * co + oc) * kh + kh - 1 - ky) * kw + kw -
                        1 - kx] = *src++;
    return out;
}

Tensor
zeroPad(const Tensor &input, int64_t pad)
{
    PL_ASSERT(input.rank() == 3, "zeroPad expects (C, H, W)");
    PL_ASSERT(pad >= 0, "negative pad");
    if (pad == 0)
        return input;
    const int64_t c = input.dim(0), h = input.dim(1), w = input.dim(2);
    Tensor out({c, h + 2 * pad, w + 2 * pad});
    for (int64_t cc = 0; cc < c; ++cc)
        for (int64_t y = 0; y < h; ++y)
            for (int64_t x = 0; x < w; ++x)
                out(cc, y + pad, x + pad) = input(cc, y, x);
    return out;
}

Tensor
conv2dBackwardInput(const Tensor &delta_out, const Tensor &kernel,
                    int64_t pad)
{
    // The "full" convolution of paper Fig. 11 with the forward padding
    // cropped off is one convolution of δ with rot180(K) at padding
    // K−1−pad per axis: output (y, x) reads the δ taps of full output
    // (y + pad, x + pad) in the same (co, ky, kx) order, and the taps
    // outside δ are the same +0.0f, so the bits are the full conv's.
    // For pad > K−1 the windows start inside δ.  Like the full conv,
    // it counts one tensor.conv2d_fwd and one tensor.im2col site hit.
    PL_PROF_SCOPE("tensor.conv2d_bwd_input");
    PL_ASSERT(delta_out.rank() == 3 && kernel.rank() == 4,
              "bad ranks in conv2dBackwardInput");
    PL_ASSERT(pad >= 0, "negative pad");
    PL_ASSERT(delta_out.dim(0) == kernel.dim(0),
              "channel mismatch: delta %lld vs kernel %lld",
              (long long)delta_out.dim(0), (long long)kernel.dim(0));
    const int64_t kh = kernel.dim(2), kw = kernel.dim(3);
    const Tensor rot = rot180(kernel);
    return convByPanel(delta_out, rot.data(), rot.dim(0), kh, kw,
                       /*bias=*/nullptr, /*stride=*/1, kh - 1 - pad,
                       kw - 1 - pad);
}

Tensor
conv2dBackwardKernel(const Tensor &input, const Tensor &delta_out,
                     int64_t kh, int64_t kw, int64_t pad)
{
    PL_PROF_SCOPE("tensor.conv2d_bwd_kernel");
    PL_ASSERT(input.rank() == 3 && delta_out.rank() == 3,
              "bad ranks in conv2dBackwardKernel");
    const int64_t ci = input.dim(0);
    const int64_t h = input.dim(1) + 2 * pad;
    const int64_t w = input.dim(2) + 2 * pad;
    const int64_t co = delta_out.dim(0);
    const int64_t ho = delta_out.dim(1), wo = delta_out.dim(2);
    PL_ASSERT(ho == h - kh + 1 && wo == w - kw + 1,
              "delta shape inconsistent with stride-1 convolution");

    // grad[oc, t] = Σ_p panel[t, p] * delta[oc, p] over the output
    // pixels p: gemmNN(panel, δᵀ) reduces each (t, oc) through the
    // 8-lane contract exactly like the reference tap loops, vectorised
    // over output channels, between two transposes.
    const int64_t patch = ci * kh * kw;
    const int64_t pixels = ho * wo;
    const arena::Scratch scratch({patch * pixels, pixels * co, patch * co});
    float *const panel = scratch[0];
    float *const dt = scratch[1];
    float *const gt = scratch[2];
    packWindows(input.data(), ci, input.dim(1), input.dim(2), kh, kw,
                /*stride=*/1, pad, pad, ho, wo, panel, /*tap_step=*/pixels,
                /*pixel_step=*/1);
    const float *d = delta_out.data();
    for (int64_t oc = 0; oc < co; ++oc)
        for (int64_t p = 0; p < pixels; ++p)
            dt[p * co + oc] = *d++;
    gemm::gemmNN(patch, co, pixels, panel, pixels, dt, co,
                 /*bias=*/nullptr, gt, co);
    Tensor grad({co, ci, kh, kw});
    float *g = grad.data();
    for (int64_t oc = 0; oc < co; ++oc)
        for (int64_t t = 0; t < patch; ++t)
            *g++ = gt[t * co + oc];
    return grad;
}

Tensor
maxPool(const Tensor &input, int64_t k, Tensor *indices)
{
    PL_ASSERT(input.rank() == 3, "maxPool expects (C, H, W)");
    const int64_t c = input.dim(0), h = input.dim(1), w = input.dim(2);
    PL_ASSERT(h % k == 0 && w % k == 0,
              "pooling window %lld does not tile %lldx%lld", (long long)k,
              (long long)h, (long long)w);
    const int64_t ho = h / k, wo = w / k;
    Tensor out({c, ho, wo});
    if (indices)
        *indices = Tensor({c, ho, wo});
    const float *in = input.data();
    float *o = out.data();
    float *idx = indices ? indices->data() : nullptr;
    for (int64_t cc = 0; cc < c; ++cc) {
        for (int64_t oy = 0; oy < ho; ++oy) {
            for (int64_t ox = 0; ox < wo; ++ox) {
                // The window's first element wins ties.
                const int64_t corner = (cc * h + oy * k) * w + ox * k;
                int64_t best_flat = corner;
                for (int64_t ky = 0; ky < k; ++ky) {
                    for (int64_t kx = 0; kx < k; ++kx) {
                        const int64_t flat = corner + ky * w + kx;
                        if (in[flat] > in[best_flat])
                            best_flat = flat;
                    }
                }
                *o++ = in[best_flat];
                if (idx)
                    *idx++ = static_cast<float>(best_flat);
            }
        }
    }
    return out;
}

Tensor
maxPoolBackward(const Tensor &delta_out, const Tensor &indices,
                const Shape &input_shape)
{
    PL_ASSERT(delta_out.numel() == indices.numel(),
              "indices/delta mismatch in maxPoolBackward");
    Tensor grad(input_shape);
    const int64_t limit = grad.numel();
    const float *idx = indices.data();
    const float *d = delta_out.data();
    float *g = grad.data();
    for (int64_t i = 0; i < delta_out.numel(); ++i) {
        const int64_t flat = static_cast<int64_t>(idx[i]);
        // A stale or corrupted index tensor would otherwise scatter
        // into foreign gradient slots (or crash) with no diagnosis.
        PL_ASSERT(flat >= 0 && flat < limit,
                  "maxPoolBackward index %lld at position %lld outside "
                  "input of %lld elements — stale pooling indices?",
                  (long long)flat, (long long)i, (long long)limit);
        g[flat] += d[i];
    }
    return grad;
}

Tensor
avgPool(const Tensor &input, int64_t k)
{
    PL_ASSERT(input.rank() == 3, "avgPool expects (C, H, W)");
    const int64_t c = input.dim(0), h = input.dim(1), w = input.dim(2);
    PL_ASSERT(h % k == 0 && w % k == 0,
              "pooling window %lld does not tile %lldx%lld", (long long)k,
              (long long)h, (long long)w);
    const int64_t ho = h / k, wo = w / k;
    const float inv = 1.0f / static_cast<float>(k * k);
    Tensor out({c, ho, wo});
    const float *in = input.data();
    float *o = out.data();
    for (int64_t cc = 0; cc < c; ++cc)
        for (int64_t oy = 0; oy < ho; ++oy)
            for (int64_t ox = 0; ox < wo; ++ox) {
                const float *win = in + (cc * h + oy * k) * w + ox * k;
                double acc = 0.0;
                for (int64_t ky = 0; ky < k; ++ky)
                    for (int64_t kx = 0; kx < k; ++kx)
                        acc += win[ky * w + kx];
                *o++ = static_cast<float>(acc) * inv;
            }
    return out;
}

Tensor
avgPoolBackward(const Tensor &delta_out, int64_t k,
                const Shape &input_shape)
{
    PL_ASSERT(delta_out.rank() == 3, "avgPoolBackward expects (C, H, W)");
    const int64_t c = delta_out.dim(0);
    const int64_t ho = delta_out.dim(1), wo = delta_out.dim(2);
    PL_ASSERT(input_shape == Shape({c, ho * k, wo * k}),
              "avgPoolBackward: window %lld of %s does not give %s",
              (long long)k, shapeToString(input_shape).c_str(),
              shapeToString(delta_out.shape()).c_str());
    Tensor grad(input_shape);
    const int64_t w = wo * k;
    const float inv = 1.0f / static_cast<float>(k * k);
    const float *d = delta_out.data();
    float *g = grad.data();
    for (int64_t cc = 0; cc < c; ++cc)
        for (int64_t oy = 0; oy < ho; ++oy)
            for (int64_t ox = 0; ox < wo; ++ox) {
                const float v = *d++ * inv;
                float *win = g + (cc * ho * k + oy * k) * w + ox * k;
                for (int64_t ky = 0; ky < k; ++ky)
                    for (int64_t kx = 0; kx < k; ++kx)
                        win[ky * w + kx] += v;
            }
    return grad;
}

Tensor
matVec(const Tensor &weight, const Tensor &x)
{
    PL_PROF_SCOPE("tensor.matvec");
    PL_ASSERT(weight.rank() == 2 && x.rank() == 1, "matVec needs (n,m), (m)");
    const int64_t n = weight.dim(0), m = weight.dim(1);
    PL_ASSERT(x.dim(0) == m, "matVec inner-dim mismatch");
    Tensor out({n});
    gemm::gemv(n, m, weight.data(), m, x.data(), out.data());
    return out;
}

Tensor
matVecT(const Tensor &weight, const Tensor &y)
{
    PL_PROF_SCOPE("tensor.matvect");
    PL_ASSERT(weight.rank() == 2 && y.rank() == 1, "matVecT needs (n,m), (n)");
    const int64_t n = weight.dim(0), m = weight.dim(1);
    PL_ASSERT(y.dim(0) == n, "matVecT inner-dim mismatch");
    Tensor out({m}); // zero-initialised: gevm accumulates into it
    gemm::gevm(n, m, weight.data(), m, y.data(), out.data());
    return out;
}

Tensor
outer(const Tensor &d, const Tensor &delta)
{
    PL_PROF_SCOPE("tensor.outer");
    PL_ASSERT(d.rank() == 1 && delta.rank() == 1, "outer needs vectors");
    const int64_t m = d.dim(0), n = delta.dim(0);
    Tensor out({n, m});
    gemm::ger(n, m, delta.data(), d.data(), out.data(), m);
    return out;
}

Tensor
im2col(const Tensor &input, int64_t kh, int64_t kw, int64_t stride,
       int64_t pad)
{
    PL_ASSERT(input.rank() == 3, "im2col expects (C, H, W)");
    PL_ASSERT(stride >= 1 && pad >= 0, "bad stride/pad");
    const int64_t c = input.dim(0), h = input.dim(1), w = input.dim(2);
    const int64_t ho = convExtent(h, kh, stride, pad);
    const int64_t wo = convExtent(w, kw, stride, pad);
    const int64_t patch = c * kh * kw;
    Tensor out({ho * wo, patch});
    packWindows(input.data(), c, h, w, kh, kw, stride, pad, pad, ho, wo,
                out.data(), /*tap_step=*/1, /*pixel_step=*/patch);
    return out;
}

} // namespace ops
} // namespace pipelayer
