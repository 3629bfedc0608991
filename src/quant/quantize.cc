#include "quant/quantize.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "nn/network.hh"

namespace pipelayer {
namespace quant {

Quantizer
Quantizer::forTensor(std::span<const float> values, int bits)
{
    // NaN and ±inf pass through, setting no scale.
    return forMaxAbs(
        bits == 0 ? 0.0f
                  : gemmk::activeKernels().absmax_f32(
                        values.data(), static_cast<int64_t>(values.size()),
                        nullptr),
        bits);
}

Quantizer
Quantizer::forMaxAbs(float max_abs, int bits)
{
    PL_ASSERT(bits == 0 || (bits >= 2 && bits <= 16),
              "unsupported bit width %d", bits);
    Quantizer q;
    q.bits = bits;
    if (bits == 0)
        return q;
    const auto levels = static_cast<float>(q.positiveLevels());
    // Below about levels * 2^-150 the quotient underflows to 0, and a
    // zero scale would send every v / scale to ±inf or NaN.
    q.scale = max_abs > 0.0f
                  ? std::max(max_abs / levels,
                             std::numeric_limits<float>::denorm_min())
                  : 1.0f;
    return q;
}

Tensor
quantizeTensor(const Tensor &t, int bits)
{
    const int64_t n = t.numel();
    const Quantizer q =
        Quantizer::forTensor({t.data(), static_cast<size_t>(n)}, bits);
    if (bits == 0)
        return t;
    const gemmk::Kernels &kern = gemmk::activeKernels();
    const auto levels = static_cast<int32_t>(q.positiveLevels());
    Tensor out(t.shape());
    const float *in = t.data();
    float *o = out.data();
    constexpr int64_t kChunk = 256;
    int32_t codes[kChunk];
    for (int64_t j0 = 0; j0 < n; j0 += kChunk) {
        const int64_t len = std::min(kChunk, n - j0);
        kern.quantize_i32(in + j0, len, q.scale, levels, codes, nullptr,
                          nullptr);
        for (int64_t j = 0; j < len; ++j) {
            const float v = in[j0 + j];
            o[j0 + j] = std::isfinite(v)
                            ? static_cast<float>(codes[j]) * q.scale
                            : v;
        }
    }
    return out;
}

void
quantizeNetworkWeights(nn::Network &net, int bits)
{
    if (bits == 0)
        return;
    for (size_t i = 0; i < net.numLayers(); ++i) {
        for (Tensor *p : net.layer(i).parameters())
            *p = quantizeTensor(*p, bits);
    }
}

} // namespace quant
} // namespace pipelayer
