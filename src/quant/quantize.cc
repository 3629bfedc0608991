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
    PL_ASSERT(bits == 0 || (bits >= 2 && bits <= 16),
              "unsupported bit width %d", bits);
    Quantizer q;
    q.bits = bits;
    if (bits == 0)
        return q;
    float max_abs = 0.0f; // NaN and ±inf pass through, setting no scale
    for (const float v : values) {
        if (std::isfinite(v))
            max_abs = std::max(max_abs, std::fabs(v));
    }
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
    const Quantizer q = Quantizer::forTensor(
        {t.data(), static_cast<size_t>(t.numel())}, bits);
    Tensor out = t;
    for (float *v = out.data(); v != out.data() + out.numel(); ++v)
        *v = q.apply(*v);
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
