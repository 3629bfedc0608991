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
 * Training protocol (matches the paper's batched update, §4.4):
 * trainBatch() zeroes the gradient accumulators, runs forward → loss
 * → error pass for every image of the minibatch, adds each image's
 * ∂W/∂b to the accumulators in ascending image order, and applies one
 * batch-averaged update.  The images are independent until that sum,
 * so trainBatch runs them as one pool job over contiguous image
 * chunks: the chunk holding image 0 accumulates in place, the others
 * keep each image's Layer::imageGrads() as partials, and after the
 * join those are added serially in image order.  Every accumulator
 * thus sees ((0 + g0) + g1) + ... at any thread count (DESIGN.md §7).
 * accuracy() scores its images the same way, one hit per image.
 *
 * The layers themselves are stateless per image (layer.hh): each
 * chunk keeps one image's layer inputs and Saved state at a time.
 * PipelinedTrainer drives the same layers with many images in
 * flight, holding that state in its stage buffers instead.
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

    /** Forward one sample, keeping nothing (inference mode). */
    Tensor infer(const Tensor &input) const;

    /** Clear all accumulated gradients. */
    void zeroGrads();

    /** Apply batch-averaged SGD update to all layers. */
    void applyUpdate(float lr, int64_t batch_size);

    /**
     * One full training step over a batch (the protocol above);
     * returns the mean loss.  @p image_losses, when given, receives
     * each image's loss in image order.
     */
    double trainBatch(const std::vector<Tensor> &inputs,
                      const std::vector<int64_t> &labels, float lr,
                      std::vector<double> *image_losses = nullptr);

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
    /**
     * Forward, loss and error pass of one training image; returns its
     * loss.  @p layer_inputs and @p saved hold layer l's input and
     * Saved state, reused across a chunk's images.  Layer l's
     * gradients are added to its accumulators when @p partials is
     * null, else stored in (*partials)[l].  The error pass stops at
     * the lowest layer with gradients: its input error feeds no
     * gradient, so it is not computed (on an MLP that starts with a
     * flatten, that is the first inner product's).
     */
    double trainImage(const Tensor &input, int64_t label,
                      std::vector<Tensor> &layer_inputs,
                      std::vector<Saved> &saved,
                      std::vector<std::vector<Tensor>> *partials);

    std::string name_;
    Shape input_shape_;
    LossKind loss_;
    std::vector<LayerPtr> layers_;
    std::vector<Shape> shapes_; //!< shapes_[i] feeds layer i; back() is out

    static constexpr size_t kNone = static_cast<size_t>(-1);
    size_t first_trained_ = kNone; //!< lowest layer with gradients
};

} // namespace nn
} // namespace pipelayer

#endif // PIPELAYER_NN_NETWORK_HH_
