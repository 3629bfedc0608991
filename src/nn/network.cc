#include "nn/network.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "common/parallel.hh"

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
    if (first_trained_ == kNone && !layer->gradients().empty())
        first_trained_ = layers_.size();
    layers_.push_back(std::move(layer));
    shapes_.push_back(std::move(out));
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

double
Network::trainImage(const Tensor &input, int64_t label,
                    std::vector<Tensor> &layer_inputs,
                    std::vector<Saved> &saved,
                    std::vector<std::vector<Tensor>> *partials)
{
    PL_ASSERT(input.shape() == input_shape_,
              "network %s expects input %s, got %s", name_.c_str(),
              shapeToString(input_shape_).c_str(),
              shapeToString(input.shape()).c_str());
    Tensor x = input;
    for (size_t l = 0; l < layers_.size(); ++l) {
        Tensor out = layers_[l]->forward(x, &saved[l]);
        layer_inputs[l] = std::move(x);
        x = std::move(out);
    }
    LossResult seed = lossFor(loss_, x, label);
    Tensor delta = std::move(seed.delta);
    for (size_t l = layers_.size(); l-- > first_trained_;) {
        if (partials)
            (*partials)[l] = layers_[l]->imageGrads(layer_inputs[l], delta);
        else
            layers_[l]->accumulateGrads(layer_inputs[l], delta);
        if (l > first_trained_)
            delta = layers_[l]->backward(delta, saved[l]);
    }
    return seed.loss;
}

double
Network::trainBatch(const std::vector<Tensor> &inputs,
                    const std::vector<int64_t> &labels, float lr,
                    std::vector<double> *image_losses)
{
    PL_ASSERT(inputs.size() == labels.size() && !inputs.empty(),
              "bad batch in trainBatch");
    const size_t batch = inputs.size();
    zeroGrads();
    std::vector<double> own_losses;
    std::vector<double> &losses = image_losses ? *image_losses : own_losses;
    losses.assign(batch, 0.0);
    // partials[i][l]: image i's gradients of layer l, for the images
    // outside the first chunk.
    std::vector<std::vector<std::vector<Tensor>>> partials(batch);
    parallel_for(0, static_cast<int64_t>(batch),
                 [&](int64_t first, int64_t last) {
        std::vector<Tensor> layer_inputs(layers_.size());
        // Sized by resize(): GCC 12's -O3 -Wfree-nonheap-object
        // misreads the inlined size constructor here.
        std::vector<Saved> saved;
        saved.resize(layers_.size());
        for (auto i = static_cast<size_t>(first);
             i < static_cast<size_t>(last); ++i) {
            // The chunk holding image 0 adds to the accumulators in
            // place, as the serial loop does; later chunks keep
            // partials.
            std::vector<std::vector<Tensor>> *partial = nullptr;
            if (first != 0) {
                partials[i].resize(layers_.size());
                partial = &partials[i];
            }
            losses[i] = trainImage(inputs[i], labels[i], layer_inputs,
                                   saved, partial);
        }
    });
    // Serial ascending-image reduction of the later chunks' partials.
    double total_loss = 0.0;
    for (size_t i = 0; i < batch; ++i) {
        total_loss += losses[i];
        for (size_t l = 0; l < partials[i].size(); ++l)
            layers_[l]->addGrads(partials[i][l]);
    }
    applyUpdate(lr, static_cast<int64_t>(batch));
    return total_loss / static_cast<double>(batch);
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
    std::vector<uint8_t> hit(inputs.size());
    parallel_for(0, static_cast<int64_t>(inputs.size()),
                 [&](int64_t first, int64_t last) {
        for (auto i = static_cast<size_t>(first);
             i < static_cast<size_t>(last); ++i)
            hit[i] = predict(inputs[i]) == labels[i] ? 1 : 0;
    });
    const auto correct = std::count(hit.begin(), hit.end(), 1);
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
