#include "nn/network.hh"

#include <sstream>

#include "common/logging.hh"

namespace pipelayer {
namespace nn {

Network::Network(std::string name, Shape input_shape, LossKind loss)
    : name_(std::move(name)), input_shape_(std::move(input_shape)),
      loss_(loss)
{
    shapes_.push_back(input_shape_);
}

void
Network::add(LayerPtr layer)
{
    PL_ASSERT(layer != nullptr, "null layer added to network %s",
              name_.c_str());
    Shape out = layer->outputShape(shapes_.back());
    layers_.push_back(std::move(layer));
    shapes_.push_back(std::move(out));
}

Tensor
Network::forward(const Tensor &input)
{
    PL_ASSERT(input.shape() == input_shape_,
              "network %s expects input %s, got %s", name_.c_str(),
              shapeToString(input_shape_).c_str(),
              shapeToString(input.shape()).c_str());
    inputs_.resize(layers_.size());
    saved_.resize(layers_.size());
    Tensor x = input;
    for (size_t i = 0; i < layers_.size(); ++i) {
        Tensor out = layers_[i]->forward(x, &saved_[i]);
        inputs_[i] = std::move(x);
        x = std::move(out);
    }
    return x;
}

Tensor
Network::infer(const Tensor &input) const
{
    Tensor x = input;
    for (const auto &layer : layers_)
        x = layer->forward(x);
    return x;
}

void
Network::backward(const Tensor &delta_out)
{
    PL_ASSERT(inputs_.size() == layers_.size(),
              "backward before forward on network %s", name_.c_str());
    Tensor delta = delta_out;
    for (size_t i = layers_.size(); i-- > 0;) {
        layers_[i]->accumulateGrads(inputs_[i], delta);
        if (i > 0)
            delta = layers_[i]->backward(delta, saved_[i]);
    }
}

void
Network::zeroGrads()
{
    for (auto &layer : layers_)
        layer->zeroGrads();
}

void
Network::applyUpdate(float lr, int64_t batch_size)
{
    for (auto &layer : layers_)
        layer->applyUpdate(lr, batch_size);
}

void
Network::setMomentum(float momentum)
{
    for (auto &layer : layers_)
        layer->setMomentum(momentum);
}

double
Network::trainBatch(const std::vector<Tensor> &inputs,
                    const std::vector<int64_t> &labels, float lr)
{
    PL_ASSERT(inputs.size() == labels.size() && !inputs.empty(),
              "bad batch in trainBatch");
    zeroGrads();
    double total_loss = 0.0;
    for (size_t i = 0; i < inputs.size(); ++i) {
        const LossResult seed =
            lossFor(loss_, forward(inputs[i]), labels[i]);
        total_loss += seed.loss;
        backward(seed.delta);
    }
    applyUpdate(lr, static_cast<int64_t>(inputs.size()));
    return total_loss / static_cast<double>(inputs.size());
}

int64_t
Network::predict(const Tensor &input) const
{
    return infer(input).argmax();
}

double
Network::accuracy(const std::vector<Tensor> &inputs,
                  const std::vector<int64_t> &labels) const
{
    PL_ASSERT(inputs.size() == labels.size(), "bad eval set");
    if (inputs.empty())
        return 0.0;
    int64_t correct = 0;
    for (size_t i = 0; i < inputs.size(); ++i) {
        if (predict(inputs[i]) == labels[i])
            ++correct;
    }
    return static_cast<double>(correct) /
           static_cast<double>(inputs.size());
}

Layer &
Network::layer(size_t i)
{
    PL_ASSERT(i < layers_.size(), "layer index %zu out of range", i);
    return *layers_[i];
}

const Layer &
Network::layer(size_t i) const
{
    PL_ASSERT(i < layers_.size(), "layer index %zu out of range", i);
    return *layers_[i];
}

const Shape &
Network::layerInputShape(size_t i) const
{
    PL_ASSERT(i < layers_.size(), "layer index %zu out of range", i);
    return shapes_[i];
}

const Shape &
Network::outputShape() const
{
    return shapes_.back();
}

int64_t
Network::parameterCount() const
{
    int64_t n = 0;
    for (const auto &layer : layers_)
        n += const_cast<Layer &>(*layer).parameterCount();
    return n;
}

std::string
Network::describe() const
{
    std::ostringstream os;
    os << name_ << ": " << shapeToString(input_shape_);
    for (const auto &layer : layers_)
        os << " -> " << layer->describe();
    return os.str();
}

} // namespace nn
} // namespace pipelayer
