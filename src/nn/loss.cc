#include "nn/loss.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace pipelayer {
namespace nn {

LossResult
l2Loss(const Tensor &output, const Tensor &target)
{
    PL_ASSERT(output.numel() == target.numel(),
              "output/target shape mismatch in l2Loss");
    Tensor delta = output - target;
    double loss = 0.0;
    for (int64_t i = 0; i < delta.numel(); ++i)
        loss += 0.5 * delta.at(i) * delta.at(i);
    return {loss, std::move(delta)};
}

Tensor
softmax(const Tensor &logits)
{
    PL_ASSERT(logits.rank() == 1, "softmax expects a vector");
    Tensor out = logits;
    float max_v = out.at(0);
    for (int64_t i = 1; i < out.numel(); ++i)
        max_v = std::max(max_v, out.at(i));
    double denom = 0.0;
    for (int64_t i = 0; i < out.numel(); ++i) {
        out.at(i) = std::exp(out.at(i) - max_v);
        denom += out.at(i);
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (int64_t i = 0; i < out.numel(); ++i)
        out.at(i) *= inv;
    return out;
}

LossResult
softmaxLoss(const Tensor &output, int64_t label)
{
    PL_ASSERT(label >= 0 && label < output.numel(),
              "label %lld out of range %lld", (long long)label,
              (long long)output.numel());
    Tensor probs = softmax(output);
    const double p = std::max(1e-12, (double)probs.at(label));
    const double loss = -std::log(p);
    Tensor delta = probs;
    delta.at(label) -= 1.0f;
    return {loss, std::move(delta)};
}

LossResult
lossFor(LossKind kind, const Tensor &output, int64_t label)
{
    if (kind == LossKind::Softmax)
        return softmaxLoss(output, label);
    Tensor target(output.shape());
    target.at(label) = 1.0f;
    return l2Loss(output, target);
}

} // namespace nn
} // namespace pipelayer
