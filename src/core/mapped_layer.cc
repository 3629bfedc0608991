#include "core/mapped_layer.hh"

#include "common/logging.hh"
#include "tensor/ops.hh"

namespace pipelayer {
namespace core {

namespace {

/** Extend @p x with a trailing constant-1 bias input. */
Tensor
withBiasInput(const Tensor &x)
{
    Tensor out({x.numel() + 1});
    for (int64_t i = 0; i < x.numel(); ++i)
        out(i) = x.at(i);
    out(x.numel()) = 1.0f;
    return out;
}

/** Extend each row of an im2col matrix with a constant-1 bias column. */
Tensor
withBiasColumn(const Tensor &cols)
{
    const int64_t rows = cols.dim(0), m = cols.dim(1);
    Tensor out({rows, m + 1});
    for (int64_t r = 0; r < rows; ++r) {
        for (int64_t j = 0; j < m; ++j)
            out(r, j) = cols(r, j);
        out(r, m) = 1.0f;
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// MappedConvLayer
// ---------------------------------------------------------------------

MappedConvLayer::MappedConvLayer(const reram::DeviceParams &params,
                                 const Tensor &weight, const Tensor &bias,
                                 int64_t pad, bool training)
    : params_(params), in_c_(weight.dim(1)), out_c_(weight.dim(0)),
      kernel_(weight.dim(2)), pad_(pad), training_(training)
{
    PL_ASSERT(weight.rank() == 4 && weight.dim(2) == weight.dim(3),
              "conv weight must be (Co, Ci, K, K)");
    PL_ASSERT(bias.rank() == 1 && bias.dim(0) == out_c_, "bad conv bias");
    forward_group_ = std::make_unique<reram::ArrayGroup>(
        params_, packForward(weight, bias));
    if (training_)
        rebuildBackward();
}

Tensor
MappedConvLayer::packForward(const Tensor &weight, const Tensor &bias)
{
    const int64_t co = weight.dim(0), ci = weight.dim(1);
    const int64_t k = weight.dim(2);
    const int64_t m = ci * k * k;
    Tensor mat({co, m + 1});
    for (int64_t oc = 0; oc < co; ++oc) {
        int64_t col = 0;
        for (int64_t icn = 0; icn < ci; ++icn)
            for (int64_t ky = 0; ky < k; ++ky)
                for (int64_t kx = 0; kx < k; ++kx)
                    mat(oc, col++) = weight(oc, icn, ky, kx);
        mat(oc, m) = bias(oc);
    }
    return mat;
}

Tensor
MappedConvLayer::packBackward(const Tensor &weight)
{
    // rot180 swaps channel roles and reverses taps: the backward
    // stage convolves the padded error with these reordered kernels
    // (paper Fig. 11), so pack (Ci, Co*K*K + 1) with a zero bias row.
    const Tensor rot = ops::rot180(weight);
    const int64_t ci = rot.dim(0), co = rot.dim(1), k = rot.dim(2);
    const int64_t m = co * k * k;
    Tensor mat({ci, m + 1});
    for (int64_t icn = 0; icn < ci; ++icn) {
        int64_t col = 0;
        for (int64_t oc = 0; oc < co; ++oc)
            for (int64_t ky = 0; ky < k; ++ky)
                for (int64_t kx = 0; kx < k; ++kx)
                    mat(icn, col++) = rot(icn, oc, ky, kx);
        mat(icn, m) = 0.0f;
    }
    return mat;
}

void
MappedConvLayer::rebuildBackward()
{
    if (backward_group_)
        retired_ += backward_group_->totalActivity();
    backward_group_ = std::make_unique<reram::ArrayGroup>(
        params_, packBackward(storedWeight()));
}

Tensor
MappedConvLayer::forward(const Tensor &input)
{
    PL_ASSERT(input.rank() == 3 && input.dim(0) == in_c_,
              "conv input mismatch");
    const Tensor cols = ops::im2col(input, kernel_, kernel_, 1, pad_);
    const int64_t windows = cols.dim(0);
    const int64_t out_h = input.dim(1) + 2 * pad_ - kernel_ + 1;
    const int64_t out_w = input.dim(2) + 2 * pad_ - kernel_ + 1;
    PL_ASSERT(windows == out_h * out_w, "window count mismatch");

    // All windows of the feature map go through the arrays as one
    // batch: each crossbar sweeps its cells once for the whole map
    // instead of once per window (results are bit-identical to the
    // per-window loop; see ArrayGroup::matVecBatch).
    const Tensor result = forward_group_->matVecBatch(withBiasColumn(cols));
    Tensor out({out_c_, out_h, out_w});
    for (int64_t w = 0; w < windows; ++w)
        for (int64_t oc = 0; oc < out_c_; ++oc)
            out(oc, w / out_w, w % out_w) = result(w, oc);
    return out;
}

Tensor
MappedConvLayer::backwardError(const Tensor &delta_out)
{
    PL_ASSERT(training_, "backwardError on a testing-mode layer");
    PL_ASSERT(delta_out.rank() == 3 && delta_out.dim(0) == out_c_,
              "conv delta mismatch");
    const Tensor padded = ops::zeroPad(delta_out, kernel_ - 1);
    const Tensor cols = ops::im2col(padded, kernel_, kernel_, 1, 0);
    const int64_t full_h = padded.dim(1) - kernel_ + 1;
    const int64_t full_w = padded.dim(2) - kernel_ + 1;

    const Tensor result =
        backward_group_->matVecBatch(withBiasColumn(cols));
    Tensor full({in_c_, full_h, full_w});
    for (int64_t w = 0; w < cols.dim(0); ++w)
        for (int64_t icn = 0; icn < in_c_; ++icn)
            full(icn, w / full_w, w % full_w) = result(w, icn);

    if (pad_ == 0)
        return full;
    Tensor out({in_c_, full_h - 2 * pad_, full_w - 2 * pad_});
    for (int64_t c = 0; c < in_c_; ++c)
        for (int64_t y = 0; y < out.dim(1); ++y)
            for (int64_t x = 0; x < out.dim(2); ++x)
                out(c, y, x) = full(c, y + pad_, x + pad_);
    return out;
}

void
MappedConvLayer::applyUpdate(const Tensor &weight_grad,
                             const Tensor &bias_grad, float lr,
                             int64_t batch_size)
{
    forward_group_->updateWeights(packForward(weight_grad, bias_grad), lr,
                                  batch_size);
    if (training_)
        rebuildBackward();
}

Tensor
MappedConvLayer::storedWeight() const
{
    const Tensor mat = forward_group_->readWeights();
    Tensor weight({out_c_, in_c_, kernel_, kernel_});
    for (int64_t oc = 0; oc < out_c_; ++oc) {
        int64_t col = 0;
        for (int64_t icn = 0; icn < in_c_; ++icn)
            for (int64_t ky = 0; ky < kernel_; ++ky)
                for (int64_t kx = 0; kx < kernel_; ++kx)
                    weight(oc, icn, ky, kx) = mat(oc, col++);
    }
    return weight;
}

Tensor
MappedConvLayer::storedBias() const
{
    const Tensor mat = forward_group_->readWeights();
    Tensor bias({out_c_});
    for (int64_t oc = 0; oc < out_c_; ++oc)
        bias(oc) = mat(oc, mat.dim(1) - 1);
    return bias;
}

int64_t
MappedConvLayer::arrayCount() const
{
    int64_t n = forward_group_->arrayCount();
    if (backward_group_)
        n += backward_group_->arrayCount();
    return n;
}

reram::ArrayActivity
MappedConvLayer::activity() const
{
    reram::ArrayActivity total = forward_group_->totalActivity();
    total += retired_;
    if (backward_group_)
        total += backward_group_->totalActivity();
    return total;
}

// ---------------------------------------------------------------------
// MappedIpLayer
// ---------------------------------------------------------------------

MappedIpLayer::MappedIpLayer(const reram::DeviceParams &params,
                             const Tensor &weight, const Tensor &bias,
                             bool training)
    : params_(params), n_(weight.dim(0)), m_(weight.dim(1)),
      training_(training)
{
    PL_ASSERT(weight.rank() == 2, "ip weight must be a matrix");
    PL_ASSERT(bias.rank() == 1 && bias.dim(0) == n_, "bad ip bias");
    forward_group_ = std::make_unique<reram::ArrayGroup>(
        params_, packForward(weight, bias));
    if (training_)
        rebuildBackward();
}

Tensor
MappedIpLayer::packForward(const Tensor &weight, const Tensor &bias)
{
    const int64_t n = weight.dim(0), m = weight.dim(1);
    Tensor mat({n, m + 1});
    for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < m; ++j)
            mat(i, j) = weight(i, j);
        mat(i, m) = bias(i);
    }
    return mat;
}

Tensor
MappedIpLayer::packBackward(const Tensor &weight)
{
    // W^T with a zero bias row: δ_in = (W)^T δ_out (paper §2.2).
    const int64_t n = weight.dim(0), m = weight.dim(1);
    Tensor mat({m, n + 1});
    for (int64_t j = 0; j < m; ++j) {
        for (int64_t i = 0; i < n; ++i)
            mat(j, i) = weight(i, j);
        mat(j, n) = 0.0f;
    }
    return mat;
}

void
MappedIpLayer::rebuildBackward()
{
    if (backward_group_)
        retired_ += backward_group_->totalActivity();
    backward_group_ = std::make_unique<reram::ArrayGroup>(
        params_, packBackward(storedWeight()));
}

Tensor
MappedIpLayer::forward(const Tensor &input)
{
    PL_ASSERT(input.numel() == m_, "ip input mismatch");
    return forward_group_->matVec(
        withBiasInput(input.reshape({input.numel()})));
}

Tensor
MappedIpLayer::backwardError(const Tensor &delta_out)
{
    PL_ASSERT(training_, "backwardError on a testing-mode layer");
    PL_ASSERT(delta_out.numel() == n_, "ip delta mismatch");
    return backward_group_->matVec(
        withBiasInput(delta_out.reshape({delta_out.numel()})));
}

void
MappedIpLayer::applyUpdate(const Tensor &weight_grad,
                           const Tensor &bias_grad, float lr,
                           int64_t batch_size)
{
    forward_group_->updateWeights(packForward(weight_grad, bias_grad), lr,
                                  batch_size);
    if (training_)
        rebuildBackward();
}

Tensor
MappedIpLayer::storedWeight() const
{
    const Tensor mat = forward_group_->readWeights();
    Tensor weight({n_, m_});
    for (int64_t i = 0; i < n_; ++i)
        for (int64_t j = 0; j < m_; ++j)
            weight(i, j) = mat(i, j);
    return weight;
}

Tensor
MappedIpLayer::storedBias() const
{
    const Tensor mat = forward_group_->readWeights();
    Tensor bias({n_});
    for (int64_t i = 0; i < n_; ++i)
        bias(i) = mat(i, m_);
    return bias;
}

int64_t
MappedIpLayer::arrayCount() const
{
    int64_t n = forward_group_->arrayCount();
    if (backward_group_)
        n += backward_group_->arrayCount();
    return n;
}

reram::ArrayActivity
MappedIpLayer::activity() const
{
    reram::ArrayActivity total = forward_group_->totalActivity();
    total += retired_;
    if (backward_group_)
        total += backward_group_->totalActivity();
    return total;
}

} // namespace core
} // namespace pipelayer
