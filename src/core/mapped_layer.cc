#include "core/mapped_layer.hh"

#include <algorithm>

#include "common/logging.hh"
#include "tensor/ops.hh"

namespace pipelayer {
namespace core {

namespace {

/**
 * [M | col]: @p mat read as col.numel() row-major rows (a weight
 * tensor has its output rows first), each extended by its entry of
 * @p col.
 */
Tensor
withColumn(const Tensor &mat, const Tensor &col)
{
    const int64_t rows = col.numel(), m = mat.numel() / rows;
    Tensor out({rows, m + 1});
    float *o = out.data();
    for (int64_t r = 0; r < rows; ++r) {
        std::copy_n(mat.data() + r * m, m, o + r * (m + 1));
        o[r * (m + 1) + m] = col.data()[r];
    }
    return out;
}

/**
 * Drive @p group with each row of @p windows plus the constant-1 bias
 * input: (batch, m) -> (batch, n).  All windows go through the arrays
 * as one batch, each crossbar sweeping its cells once for all of them
 * (a window's result does not depend on the batch; see
 * ArrayGroup::matVecBatch).
 */
Tensor
biasedMatVec(reram::ArrayGroup &group, const Tensor &windows)
{
    return group.matVecBatch(
        withColumn(windows, Tensor({windows.dim(0)}, 1.0f)));
}

} // namespace

// ---------------------------------------------------------------------
// MappedLayer
// ---------------------------------------------------------------------

MappedLayer::MappedLayer(const reram::DeviceParams &params,
                         nn::Layer &host, bool training)
    : training_(training), params_(params), host_(host)
{
    const std::vector<Tensor *> p = host.parameters();
    PL_ASSERT(p.size() == 2 && p[1]->rank() == 1 &&
                  p[0]->dim(0) == p[1]->dim(0),
              "mapped layer needs a (weight, bias) host layer");
    weight_shape_ = p[0]->shape();
    forward_group_ = std::make_unique<reram::ArrayGroup>(
        params_, withColumn(*p[0], *p[1]));
    if (training_)
        rebuildBackward();
}

void
MappedLayer::rebuildBackward()
{
    // The reordered kernels (W)* with a zero bias row: rot180 swaps
    // the channel roles and reverses the taps (paper Fig. 11), and
    // reversing a K x K kernel's row-major taps is t -> K*K - 1 - t.
    // An inner product is a 1x1 convolution, whose (W)* is W^T (§2.2).
    const Tensor mat = forward_group_->readWeights();
    const int64_t co = weight_shape_[0], ci = weight_shape_[1];
    const int64_t taps = shapeNumel(weight_shape_) / (co * ci);
    Tensor packed({ci, co * taps + 1});
    const float *src = mat.data();
    float *dst = packed.data();
    for (int64_t oc = 0; oc < co; ++oc)
        for (int64_t icn = 0; icn < ci; ++icn) {
            const float *kernel = src + oc * (ci * taps + 1) + icn * taps;
            float *reversed = dst + icn * (co * taps + 1) + oc * taps;
            std::reverse_copy(kernel, kernel + taps, reversed);
        }
    // Free the retired arrays before programming their successors,
    // so the two sets are never resident together.
    if (backward_group_)
        retired_ += backward_group_->totalActivity();
    backward_group_.reset();
    backward_group_ = std::make_unique<reram::ArrayGroup>(params_, packed);
}

void
MappedLayer::applyUpdate(float lr, int64_t batch_size)
{
    const std::vector<Tensor *> g = host_.gradients();
    forward_group_->updateWeights(withColumn(*g[0], *g[1]), lr,
                                  batch_size);
    if (training_)
        rebuildBackward();
}

Tensor
MappedLayer::storedWeight() const
{
    const Tensor mat = forward_group_->readWeights();
    const int64_t rows = mat.dim(0), m = mat.dim(1) - 1;
    Tensor weight(weight_shape_);
    for (int64_t i = 0; i < rows; ++i)
        std::copy_n(mat.data() + i * (m + 1), m, weight.data() + i * m);
    return weight;
}

Tensor
MappedLayer::storedBias() const
{
    const Tensor mat = forward_group_->readWeights();
    const int64_t rows = mat.dim(0), m = mat.dim(1);
    Tensor bias({rows});
    for (int64_t i = 0; i < rows; ++i)
        bias.data()[i] = mat.data()[i * m + m - 1];
    return bias;
}

int64_t
MappedLayer::arrayCount() const
{
    int64_t n = forward_group_->arrayCount();
    if (backward_group_)
        n += backward_group_->arrayCount();
    return n;
}

reram::ArrayActivity
MappedLayer::activity() const
{
    reram::ArrayActivity total = forward_group_->totalActivity();
    total += retired_;
    if (backward_group_)
        total += backward_group_->totalActivity();
    return total;
}

// ---------------------------------------------------------------------
// MappedConvLayer
// ---------------------------------------------------------------------

MappedConvLayer::MappedConvLayer(const reram::DeviceParams &params,
                                 nn::ConvLayer &host, bool training)
    : MappedLayer(params, host, training), in_c_(host.inChannels()),
      out_c_(host.outChannels()), kernel_(host.kernel()), pad_(host.pad())
{
    PL_ASSERT(host.stride() == 1,
              "PipeLayer maps stride-1 convolutions; got %lld",
              (long long)host.stride());
}

Tensor
MappedConvLayer::forward(const Tensor &input, nn::Saved *) const
{
    PL_ASSERT(input.rank() == 3 && input.dim(0) == in_c_,
              "conv input mismatch");
    const Tensor cols = ops::im2col(input, kernel_, kernel_, 1, pad_);
    const int64_t windows = cols.dim(0);
    const int64_t out_h = input.dim(1) + 2 * pad_ - kernel_ + 1;
    const int64_t out_w = input.dim(2) + 2 * pad_ - kernel_ + 1;
    PL_ASSERT(windows == out_h * out_w, "window count mismatch");

    // (windows, out_c) -> (out_c, out_h, out_w): a transpose.
    const Tensor result = biasedMatVec(*forward_group_, cols);
    Tensor out({out_c_, out_h, out_w});
    const float *res = result.data();
    float *o = out.data();
    for (int64_t w = 0; w < windows; ++w)
        for (int64_t oc = 0; oc < out_c_; ++oc)
            o[oc * windows + w] = res[w * out_c_ + oc];
    return out;
}

Tensor
MappedConvLayer::backward(const Tensor &delta_out, const nn::Saved &) const
{
    PL_ASSERT(training_, "backward on a testing-mode layer");
    PL_ASSERT(delta_out.rank() == 3 && delta_out.dim(0) == out_c_,
              "conv delta mismatch");
    const Tensor padded = ops::zeroPad(delta_out, kernel_ - 1);
    const Tensor cols = ops::im2col(padded, kernel_, kernel_, 1, 0);
    const int64_t full_h = padded.dim(1) - kernel_ + 1;
    const int64_t full_w = padded.dim(2) - kernel_ + 1;

    // (windows, in_c) -> (in_c, full_h, full_w), then the crop.
    const Tensor result = biasedMatVec(*backward_group_, cols);
    const int64_t windows = cols.dim(0);
    Tensor full({in_c_, full_h, full_w});
    const float *res = result.data();
    float *f = full.data();
    for (int64_t w = 0; w < windows; ++w)
        for (int64_t icn = 0; icn < in_c_; ++icn)
            f[icn * windows + w] = res[w * in_c_ + icn];

    if (pad_ == 0)
        return full;
    const int64_t out_h = full_h - 2 * pad_, out_w = full_w - 2 * pad_;
    Tensor out({in_c_, out_h, out_w});
    for (int64_t c = 0; c < in_c_; ++c)
        for (int64_t y = 0; y < out_h; ++y)
            std::copy_n(f + (c * full_h + y + pad_) * full_w + pad_, out_w,
                        out.data() + (c * out_h + y) * out_w);
    return out;
}

// ---------------------------------------------------------------------
// MappedIpLayer
// ---------------------------------------------------------------------

MappedIpLayer::MappedIpLayer(const reram::DeviceParams &params,
                             nn::InnerProductLayer &host, bool training)
    : MappedLayer(params, host, training), n_(host.outSize()),
      m_(host.inSize())
{
}

Tensor
MappedIpLayer::forward(const Tensor &input, nn::Saved *) const
{
    PL_ASSERT(input.numel() == m_, "ip input mismatch");
    return biasedMatVec(*forward_group_, input.reshape({1, m_}))
        .reshape({n_});
}

Tensor
MappedIpLayer::backward(const Tensor &delta_out, const nn::Saved &) const
{
    PL_ASSERT(training_, "backward on a testing-mode layer");
    PL_ASSERT(delta_out.numel() == n_, "ip delta mismatch");
    return biasedMatVec(*backward_group_, delta_out.reshape({1, n_}))
        .reshape({m_});
}

// ---------------------------------------------------------------------
// LutSigmoidLayer
// ---------------------------------------------------------------------

LutSigmoidLayer::LutSigmoidLayer(int lut_bits)
    : lut_(reram::ActivationUnit::sigmoidLut(lut_bits))
{
}

Tensor
LutSigmoidLayer::forward(const Tensor &input, nn::Saved *saved) const
{
    Tensor out = input;
    lut_.applyInPlace(out.data(), out.numel());
    if (saved)
        saved->output = out;
    return out;
}

} // namespace core
} // namespace pipelayer
