#include "nn/layers.hh"

#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"
#include "tensor/gemm_kernels.hh"
#include "tensor/ops.hh"

namespace pipelayer {
namespace nn {

namespace {

/** He-style initialisation scale for a fan-in of @p fan_in. */
float
initStddev(int64_t fan_in)
{
    return std::sqrt(2.0f / static_cast<float>(fan_in));
}

/**
 * The paper's plain SGD step (§4.4.2): p <- p - (lr / B) g, as the
 * dispatched axpy p + g·(−s), which is p − s·g for every float.
 */
void
sgdStep(Tensor &param, const Tensor &grad, float lr, int64_t batch_size)
{
    const float scale = lr * (1.0f / static_cast<float>(batch_size));
    gemmk::activeKernels().axpy_f32(param.data(), grad.data(), -scale,
                                    param.numel());
}

/**
 * (C, H/k, W/k) for a k-window pooling layer; rejects, as ops::maxPool
 * and ops::avgPool would, an input the windows do not tile.
 */
Shape
poolOutputShape(const Shape &input_shape, int64_t k)
{
    PL_ASSERT(input_shape.size() == 3, "pool input must be (C, H, W)");
    PL_ASSERT(input_shape[1] % k == 0 && input_shape[2] % k == 0,
              "pooling window %lld does not tile %lldx%lld", (long long)k,
              (long long)input_shape[1], (long long)input_shape[2]);
    return {input_shape[0], input_shape[1] / k, input_shape[2] / k};
}

} // namespace

// ---------------------------------------------------------------------
// ConvLayer
// ---------------------------------------------------------------------

ConvLayer::ConvLayer(int64_t in_channels, int64_t out_channels,
                     int64_t kernel, int64_t stride, int64_t pad, Rng &rng)
    : in_channels_(in_channels), out_channels_(out_channels),
      kernel_(kernel), stride_(stride), pad_(pad),
      weight_(Tensor::randn({out_channels, in_channels, kernel, kernel},
                            rng, 0.0f,
                            initStddev(in_channels * kernel * kernel))),
      bias_({out_channels}),
      weight_grad_({out_channels, in_channels, kernel, kernel}),
      bias_grad_({out_channels})
{
    PL_ASSERT(in_channels > 0 && out_channels > 0 && kernel > 0 &&
              stride > 0 && pad >= 0, "bad ConvLayer geometry");
}

std::string
ConvLayer::describe() const
{
    std::ostringstream os;
    os << "conv" << kernel_ << "x" << out_channels_;
    if (stride_ != 1)
        os << "/s" << stride_;
    if (pad_ != 0)
        os << "/p" << pad_;
    return os.str();
}

Shape
ConvLayer::outputShape(const Shape &input_shape) const
{
    PL_ASSERT(input_shape.size() == 3, "conv input must be (C, H, W)");
    PL_ASSERT(input_shape[0] == in_channels_,
              "conv expects %lld channels, got %lld",
              (long long)in_channels_, (long long)input_shape[0]);
    const int64_t ho = (input_shape[1] + 2 * pad_ - kernel_) / stride_ + 1;
    const int64_t wo = (input_shape[2] + 2 * pad_ - kernel_) / stride_ + 1;
    return {out_channels_, ho, wo};
}

Tensor
ConvLayer::forward(const Tensor &input, Saved *) const
{
    return ops::conv2d(input, weight_, bias_, stride_, pad_);
}

Tensor
ConvLayer::backward(const Tensor &delta_out, const Saved &) const
{
    PL_ASSERT(stride_ == 1, "conv backward implemented for stride 1 only");
    return ops::conv2dBackwardInput(delta_out, weight_, pad_);
}

std::vector<Tensor>
ConvLayer::imageGrads(const Tensor &input, const Tensor &delta_out) const
{
    PL_ASSERT(stride_ == 1, "conv backward implemented for stride 1 only");
    PL_ASSERT(delta_out.rank() == 3 && delta_out.dim(0) == out_channels_,
              "conv delta must be (%lld, H, W), got %s",
              (long long)out_channels_,
              shapeToString(delta_out.shape()).c_str());
    // ∂J/∂b_c = Σ_{u,v} δ[c, u, v]  (paper §4.4.1).
    Tensor bias_grad({out_channels_});
    const int64_t pixels = delta_out.dim(1) * delta_out.dim(2);
    const float *d = delta_out.data();
    for (int64_t c = 0; c < out_channels_; ++c) {
        double acc = 0.0;
        for (int64_t i = 0; i < pixels; ++i)
            acc += *d++;
        bias_grad.data()[c] = static_cast<float>(acc);
    }
    // Built by moves: a braced list would copy each tensor once more.
    std::vector<Tensor> grads;
    grads.reserve(2);
    grads.push_back(ops::conv2dBackwardKernel(input, delta_out, kernel_,
                                              kernel_, pad_));
    grads.push_back(std::move(bias_grad));
    return grads;
}

void
ConvLayer::zeroGrads()
{
    weight_grad_.fill(0.0f);
    bias_grad_.fill(0.0f);
}

void
ConvLayer::applyUpdate(float lr, int64_t batch_size)
{
    sgdStep(weight_, weight_grad_, lr, batch_size);
    sgdStep(bias_, bias_grad_, lr, batch_size);
}

std::vector<Tensor *>
ConvLayer::parameters()
{
    return {&weight_, &bias_};
}

std::vector<Tensor *>
ConvLayer::gradients()
{
    return {&weight_grad_, &bias_grad_};
}

// ---------------------------------------------------------------------
// MaxPoolLayer
// ---------------------------------------------------------------------

MaxPoolLayer::MaxPoolLayer(int64_t window) : window_(window)
{
    PL_ASSERT(window > 1, "pooling window must exceed 1");
}

std::string
MaxPoolLayer::describe() const
{
    std::ostringstream os;
    os << "maxpool" << window_;
    return os.str();
}

Shape
MaxPoolLayer::outputShape(const Shape &input_shape) const
{
    return poolOutputShape(input_shape, window_);
}

Tensor
MaxPoolLayer::forward(const Tensor &input, Saved *saved) const
{
    if (saved)
        saved->input_shape = input.shape();
    return ops::maxPool(input, window_, saved ? &saved->indices : nullptr);
}

Tensor
MaxPoolLayer::backward(const Tensor &delta_out, const Saved &saved) const
{
    return ops::maxPoolBackward(delta_out, saved.indices,
                                saved.input_shape);
}

// ---------------------------------------------------------------------
// AvgPoolLayer
// ---------------------------------------------------------------------

AvgPoolLayer::AvgPoolLayer(int64_t window) : window_(window)
{
    PL_ASSERT(window > 1, "pooling window must exceed 1");
}

std::string
AvgPoolLayer::describe() const
{
    std::ostringstream os;
    os << "avgpool" << window_;
    return os.str();
}

Shape
AvgPoolLayer::outputShape(const Shape &input_shape) const
{
    return poolOutputShape(input_shape, window_);
}

Tensor
AvgPoolLayer::forward(const Tensor &input, Saved *saved) const
{
    if (saved)
        saved->input_shape = input.shape();
    return ops::avgPool(input, window_);
}

Tensor
AvgPoolLayer::backward(const Tensor &delta_out, const Saved &saved) const
{
    return ops::avgPoolBackward(delta_out, window_, saved.input_shape);
}

// ---------------------------------------------------------------------
// InnerProductLayer
// ---------------------------------------------------------------------

InnerProductLayer::InnerProductLayer(int64_t in_size, int64_t out_size,
                                     Rng &rng)
    : in_size_(in_size), out_size_(out_size),
      weight_(Tensor::randn({out_size, in_size}, rng, 0.0f,
                            initStddev(in_size))),
      bias_({out_size}),
      weight_grad_({out_size, in_size}),
      bias_grad_({out_size})
{
    PL_ASSERT(in_size > 0 && out_size > 0, "bad InnerProduct geometry");
}

std::string
InnerProductLayer::describe() const
{
    std::ostringstream os;
    os << in_size_ << "-" << out_size_;
    return os.str();
}

Shape
InnerProductLayer::outputShape(const Shape &input_shape) const
{
    PL_ASSERT(shapeNumel(input_shape) == in_size_,
              "inner product expects %lld inputs, got %s",
              (long long)in_size_, shapeToString(input_shape).c_str());
    return {out_size_};
}

Tensor
InnerProductLayer::forward(const Tensor &input, Saved *) const
{
    Tensor out = ops::matVec(weight_, input.reshape({in_size_}));
    out += bias_;
    return out;
}

Tensor
InnerProductLayer::backward(const Tensor &delta_out, const Saved &) const
{
    return ops::matVecT(weight_, delta_out);
}

std::vector<Tensor>
InnerProductLayer::imageGrads(const Tensor &input,
                              const Tensor &delta_out) const
{
    std::vector<Tensor> grads;
    grads.reserve(2);
    grads.push_back(ops::outer(input.reshape({in_size_}), delta_out));
    grads.push_back(delta_out);
    return grads;
}

void
InnerProductLayer::zeroGrads()
{
    weight_grad_.fill(0.0f);
    bias_grad_.fill(0.0f);
}

void
InnerProductLayer::applyUpdate(float lr, int64_t batch_size)
{
    sgdStep(weight_, weight_grad_, lr, batch_size);
    sgdStep(bias_, bias_grad_, lr, batch_size);
}

std::vector<Tensor *>
InnerProductLayer::parameters()
{
    return {&weight_, &bias_};
}

std::vector<Tensor *>
InnerProductLayer::gradients()
{
    return {&weight_grad_, &bias_grad_};
}

// ---------------------------------------------------------------------
// ReluLayer
// ---------------------------------------------------------------------

Shape
ReluLayer::outputShape(const Shape &input_shape) const
{
    return input_shape;
}

Tensor
ReluLayer::forward(const Tensor &input, Saved *saved) const
{
    // Dispatched relu_f32 (pure select, bit-identical on every
    // target), so --isa covers the whole forward pass, not just the
    // GEMM-backed layers.
    Tensor out = input;
    gemmk::activeKernels().relu_f32(out.data(), out.data(),
                                    out.numel());
    if (saved)
        saved->output = out;
    return out;
}

Tensor
ReluLayer::backward(const Tensor &delta_out, const Saved &saved) const
{
    // δ_in = δ_out ⊙ [d > 0]: the AND-with-mask of paper Fig. 10(a).
    Tensor grad = delta_out;
    gemmk::activeKernels().relu_mask_f32(
        grad.data(), saved.output.data(), grad.numel());
    return grad;
}

// ---------------------------------------------------------------------
// SigmoidLayer
// ---------------------------------------------------------------------

Shape
SigmoidLayer::outputShape(const Shape &input_shape) const
{
    return input_shape;
}

Tensor
SigmoidLayer::forward(const Tensor &input, Saved *saved) const
{
    Tensor out = input;
    float *o = out.data();
    for (int64_t i = 0; i < out.numel(); ++i)
        o[i] = 1.0f / (1.0f + std::exp(-o[i]));
    if (saved)
        saved->output = out;
    return out;
}

Tensor
SigmoidLayer::backward(const Tensor &delta_out, const Saved &saved) const
{
    // f'(u) = f(u)(1 - f(u)), computable from the saved output.
    PL_ASSERT(saved.output.numel() == delta_out.numel(),
              "sigmoid delta has %lld elements, saved output %lld",
              (long long)delta_out.numel(),
              (long long)saved.output.numel());
    Tensor grad = delta_out;
    float *g = grad.data();
    const float *out = saved.output.data();
    for (int64_t i = 0; i < grad.numel(); ++i)
        g[i] *= out[i] * (1.0f - out[i]);
    return grad;
}

// ---------------------------------------------------------------------
// FlattenLayer
// ---------------------------------------------------------------------

Shape
FlattenLayer::outputShape(const Shape &input_shape) const
{
    return {shapeNumel(input_shape)};
}

Tensor
FlattenLayer::forward(const Tensor &input, Saved *saved) const
{
    if (saved)
        saved->input_shape = input.shape();
    return input.reshape({input.numel()});
}

Tensor
FlattenLayer::backward(const Tensor &delta_out, const Saved &saved) const
{
    return delta_out.reshape(saved.input_shape);
}

} // namespace nn
} // namespace pipelayer
