/**
 * @file
 * NEON (aarch64 Advanced SIMD) backend of the lane-based kernel
 * contract.  Advanced SIMD is baseline on aarch64, so no per-TU flag
 * is needed; the TU is simply absent from non-ARM builds.
 *
 * Four 2-wide double accumulators hold contract lanes {0,1}, {2,3},
 * {4,5}, {6,7}; a block of 8 floats is two 4-wide float multiplies
 * whose halves are widened pairwise.  vmulq_f32 rounds each product
 * to float exactly like the scalar backend; no fused multiply-add.
 */

#if defined(__aarch64__)

#include <arm_neon.h>

#include "tensor/gemm_kernels.hh"

namespace pipelayer {
namespace gemmk {

namespace {

float
dotLanesNeon(const float *a, const float *b, int64_t k, double bias)
{
    float64x2_t acc01 = vdupq_n_f64(0.0);
    float64x2_t acc23 = vdupq_n_f64(0.0);
    float64x2_t acc45 = vdupq_n_f64(0.0);
    float64x2_t acc67 = vdupq_n_f64(0.0);
    int64_t t = 0;
    for (; t + 8 <= k; t += 8) {
        const float32x4_t p0 = vmulq_f32(vld1q_f32(a + t),
                                         vld1q_f32(b + t));
        const float32x4_t p1 = vmulq_f32(vld1q_f32(a + t + 4),
                                         vld1q_f32(b + t + 4));
        acc01 = vaddq_f64(acc01, vcvt_f64_f32(vget_low_f32(p0)));
        acc23 = vaddq_f64(acc23, vcvt_f64_f32(vget_high_f32(p0)));
        acc45 = vaddq_f64(acc45, vcvt_f64_f32(vget_low_f32(p1)));
        acc67 = vaddq_f64(acc67, vcvt_f64_f32(vget_high_f32(p1)));
    }
    double lanes[kLanes];
    vst1q_f64(lanes + 0, acc01);
    vst1q_f64(lanes + 2, acc23);
    vst1q_f64(lanes + 4, acc45);
    vst1q_f64(lanes + 6, acc67);
    dotLanesTail(lanes, a, b, t, k);
    return reduceLanes(lanes, bias);
}

void
axpyF32Neon(float *y, const float *row, float xi, int64_t n)
{
    const float32x4_t x = vdupq_n_f32(xi);
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const float32x4_t prod = vmulq_f32(vld1q_f32(row + j), x);
        vst1q_f32(y + j, vaddq_f32(vld1q_f32(y + j), prod));
    }
    for (; j < n; ++j)
        y[j] += row[j] * xi;
}

void
scaleF32Neon(float *row, const float *y, float xi, int64_t n)
{
    const float32x4_t x = vdupq_n_f32(xi);
    int64_t j = 0;
    for (; j + 4 <= n; j += 4)
        vst1q_f32(row + j, vmulq_f32(x, vld1q_f32(y + j)));
    for (; j < n; ++j)
        row[j] = xi * y[j];
}

void
axpyU8I64Neon(int64_t *out, const uint8_t *cells, int64_t w, int64_t n)
{
    // NEON has no 64x64 vector multiply; the scalar loop is exact and
    // the compiler schedules it well.
    for (int64_t c = 0; c < n; ++c)
        out[c] += w * cells[c];
}

void
reluF32Neon(float *out, const float *in, int64_t n)
{
    // AND with the x > 0 mask (not vmaxq_f32): keeps the exact input
    // bits and sends -0.0f / NaN to +0.0f like the scalar ternary.
    const float32x4_t zero = vdupq_n_f32(0.0f);
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const float32x4_t x = vld1q_f32(in + j);
        const uint32x4_t keep = vcgtq_f32(x, zero);
        vst1q_f32(out + j,
                  vreinterpretq_f32_u32(
                      vandq_u32(vreinterpretq_u32_f32(x), keep)));
    }
    for (; j < n; ++j)
        out[j] = in[j] > 0.0f ? in[j] : 0.0f;
}

void
reluMaskF32Neon(float *grad, const float *ref, int64_t n)
{
    const float32x4_t zero = vdupq_n_f32(0.0f);
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const uint32x4_t keep = vcgtq_f32(vld1q_f32(ref + j), zero);
        const float32x4_t g = vld1q_f32(grad + j);
        vst1q_f32(grad + j,
                  vreinterpretq_f32_u32(
                      vandq_u32(vreinterpretq_u32_f32(g), keep)));
    }
    for (; j < n; ++j)
        grad[j] = ref[j] > 0.0f ? grad[j] : 0.0f;
}

} // namespace

const Kernels &
neonKernels()
{
    // gemm_nn is the scalar kernel: no CI job executes NEON, so no
    // NEON version of it could be measured or run against the others.
    static const Kernels table = {
        dotLanesNeon,  scalarKernels().gemm_nn, axpyF32Neon,
        scaleF32Neon,  axpyU8I64Neon,           reluF32Neon,
        reluMaskF32Neon,
    };
    return table;
}

} // namespace gemmk
} // namespace pipelayer

#endif // aarch64
