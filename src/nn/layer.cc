#include "nn/layer.hh"

#include "common/logging.hh"

namespace pipelayer {
namespace nn {

const char *
layerKindName(LayerKind kind)
{
    switch (kind) {
      case LayerKind::Conv: return "conv";
      case LayerKind::MaxPool: return "maxpool";
      case LayerKind::AvgPool: return "avgpool";
      case LayerKind::InnerProduct: return "ip";
      case LayerKind::ReLU: return "relu";
      case LayerKind::Sigmoid: return "sigmoid";
      case LayerKind::Flatten: return "flatten";
    }
    panic("unknown LayerKind %d", static_cast<int>(kind));
}

void
Layer::addGrads(const std::vector<Tensor> &partial)
{
    const std::vector<Tensor *> grads = gradients();
    PL_ASSERT(partial.size() == grads.size(),
              "%zu gradient partials for %zu accumulators",
              partial.size(), grads.size());
    for (size_t k = 0; k < grads.size(); ++k)
        *grads[k] += partial[k];
}

void
Layer::applyUpdate(float lr, int64_t batch_size)
{
    (void)lr;
    (void)batch_size;
}

int64_t
Layer::parameterCount()
{
    int64_t n = 0;
    for (const Tensor *p : parameters())
        n += p->numel();
    return n;
}

} // namespace nn
} // namespace pipelayer
