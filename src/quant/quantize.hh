/**
 * @file
 * Quantisation support for the resolution-vs-accuracy study
 * (paper §5.1, Fig. 13) and for the ReRAM functional model.
 *
 * PipeLayer stores weights in limited-precision ReRAM cells; this
 * module models that by symmetric uniform quantisation of trained
 * weights to a chosen bit width.
 */

#ifndef PIPELAYER_QUANT_QUANTIZE_HH_
#define PIPELAYER_QUANT_QUANTIZE_HH_

#include <cmath>
#include <cstdint>
#include <span>

#include "tensor/gemm_kernels.hh"
#include "tensor/tensor.hh"

namespace pipelayer {

namespace nn { class Network; }

namespace quant {

/**
 * Symmetric uniform quantiser.
 *
 * Values are mapped to integers in [-(2^(bits-1) - 1), 2^(bits-1) - 1]
 * with a scale chosen from the maximum finite magnitude, then
 * dequantised.  bits == 0 is a pass-through ("float" in Fig. 13).
 */
struct Quantizer
{
    int bits = 0;     //!< 0 means full precision
    float scale = 1.0f; //!< LSB step size

    /**
     * Build a quantiser whose range covers the largest finite
     * magnitude of @p values (read in place by the dispatched
     * gemmk::Kernels::absmax_f32; NaN and ±inf set no scale).
     * @pre bits == 0 or 2 <= bits <= 16.
     */
    static Quantizer forTensor(std::span<const float> values, int bits);

    /**
     * The quantiser forTensor() builds for values whose largest finite
     * magnitude is @p max_abs.
     * @pre bits == 0 or 2 <= bits <= 16; max_abs finite and >= 0.
     */
    static Quantizer forMaxAbs(float max_abs, int bits);

    /** Number of positive quantisation levels (2^(bits-1) - 1). */
    int64_t positiveLevels() const
    {
        return bits == 0 ? 0 : (int64_t{1} << (bits - 1)) - 1;
    }

    /**
     * Quantise one value (round-to-nearest, clamp to range).  NaN and
     * ±inf pass through unchanged, so a diverged weight stays visible.
     */
    float apply(float v) const
    {
        if (bits == 0 || !std::isfinite(v))
            return v;
        return static_cast<float>(code(v)) * scale;
    }

    /**
     * Signed integer code for one value (for the crossbar model):
     * gemmk::quantizeCode, the rule every backend's quantize_i32
     * runs.  A quotient beyond the range, ±inf included, saturates at
     * ±positiveLevels(); NaN codes -positiveLevels(), so callers keep
     * it out (the crossbars reject it at their boundary).
     */
    int64_t code(float v) const
    {
        return gemmk::quantizeCode(v, scale,
                                   static_cast<int32_t>(positiveLevels()));
    }
};

/**
 * Return a copy of @p t quantised to @p bits (0 = unchanged), through
 * the dispatched quantize_i32; NaN and ±inf pass through.
 */
Tensor quantizeTensor(const Tensor &t, int bits);

/**
 * In-place quantisation of every parameter tensor of @p net to
 * @p bits, modelling deployment onto @p bits-resolution ReRAM cells.
 * Each tensor gets its own scale (per-tensor quantisation).
 */
void quantizeNetworkWeights(nn::Network &net, int bits);

} // namespace quant
} // namespace pipelayer

#endif // PIPELAYER_QUANT_QUANTIZE_HH_
