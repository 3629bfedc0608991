/**
 * @file
 * A feed-forward network: an ordered stack of layers plus a loss.
 *
 * This is the functional golden model that PipeLayerDevice (src/core)
 * maps onto ReRAM subarrays; the unit tests cross-check the two.
 */

#ifndef PIPELAYER_NN_NETWORK_HH_
#define PIPELAYER_NN_NETWORK_HH_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hh"
#include "nn/loss.hh"
#include "tensor/tensor.hh"

namespace pipelayer {

class Rng;

namespace nn {

/**
 * A sequential network.
 *
 * Training protocol (matches the paper's batched pipeline, §3.3):
 * @code
 *   net.zeroGrads();
 *   for (input, label in batch) {
 *       auto out = net.forward(input);
 *       auto [loss, delta] = lossFor(net.lossKind(), out, label);
 *       net.backward(delta);
 *   }
 *   net.applyUpdate(lr, batch_size);
 * @endcode
 *
 * The layers themselves are stateless per image (layer.hh): forward()
 * keeps each layer's input and Saved state for the one image in
 * flight, and backward() consumes them.  PipelinedTrainer drives the
 * same layers with many images in flight, holding that state in its
 * stage buffers instead.
 */
class Network
{
  public:
    /** Create an empty network with a descriptive name. */
    explicit Network(std::string name, Shape input_shape,
                     LossKind loss = LossKind::Softmax);

    Network(Network &&) = default;
    Network &operator=(Network &&) = default;

    /** Append a layer; shapes are validated immediately. */
    void add(LayerPtr layer);

    /**
     * Forward one sample through every layer (training mode),
     * keeping what backward() needs for it.
     */
    Tensor forward(const Tensor &input);

    /** Forward one sample, keeping nothing (inference mode). */
    Tensor infer(const Tensor &input) const;

    /**
     * Backward the output error of the last forward() sample through
     * every layer, accumulating each layer's gradients.  Layer 0's
     * input error is not computed: nothing reads it.
     */
    void backward(const Tensor &delta_out);

    /** Clear all accumulated gradients. */
    void zeroGrads();

    /** Apply batch-averaged SGD update to all layers. */
    void applyUpdate(float lr, int64_t batch_size);

    /** Enable SGD momentum on every parameterised layer. */
    void setMomentum(float momentum);

    /** One full training step over a batch; returns the mean loss. */
    double trainBatch(const std::vector<Tensor> &inputs,
                      const std::vector<int64_t> &labels, float lr);

    /** Predicted class of one input. */
    int64_t predict(const Tensor &input) const;

    /** Fraction of samples classified correctly. */
    double accuracy(const std::vector<Tensor> &inputs,
                    const std::vector<int64_t> &labels) const;

    const std::string &name() const { return name_; }
    const Shape &inputShape() const { return input_shape_; }
    LossKind lossKind() const { return loss_; }

    size_t numLayers() const { return layers_.size(); }
    Layer &layer(size_t i);
    const Layer &layer(size_t i) const;

    /** Shape flowing *into* layer @p i (layer 0 sees inputShape()). */
    const Shape &layerInputShape(size_t i) const;

    /** Shape flowing out of the last layer. */
    const Shape &outputShape() const;

    /** Total trainable parameters over all layers. */
    int64_t parameterCount() const;

    /** One-line topology summary ("conv5x20 -> maxpool2 -> ..."). */
    std::string describe() const;

  private:
    std::string name_;
    Shape input_shape_;
    LossKind loss_;
    std::vector<LayerPtr> layers_;
    std::vector<Shape> shapes_; //!< shapes_[i] feeds layer i; back() is out
    std::vector<Tensor> inputs_; //!< layer i's input in the last forward()
    std::vector<Saved> saved_;   //!< layer i's Saved from the last forward()
};

} // namespace nn
} // namespace pipelayer

#endif // PIPELAYER_NN_NETWORK_HH_
