/**
 * @file
 * Layer interface of the functional CNN substrate.
 *
 * The substrate implements exactly the forward/backward dataflow of
 * paper §2.1-§2.2: forward u_l = W_l d_{l-1} + b_l, d_l = f(u_l);
 * backward δ_l = (W_{l+1})^T δ_{l+1} ⊙ f'(u_l), ∂J/∂W_l = d_{l-1} δ_l^T.
 * PipeLayer's accelerator model maps these same computations onto
 * ReRAM subarrays; this module is the golden functional reference.
 */

#ifndef PIPELAYER_NN_LAYER_HH_
#define PIPELAYER_NN_LAYER_HH_

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hh"

namespace pipelayer {
namespace nn {

/** Classification of layers, used by the architectural mapper. */
enum class LayerKind {
    Conv,
    MaxPool,
    AvgPool,
    InnerProduct,
    ReLU,
    Sigmoid,
    Flatten,
};

/** Human-readable layer-kind name. */
const char *layerKindName(LayerKind kind);

/**
 * What one image's forward pass leaves for its error pass.  Only the
 * layers that need state fill it: ReLU and Sigmoid keep their output
 * d = f(u), from which f'(u) follows (paper §4.3); MaxPool keeps the
 * argmax of each window and its input shape; AvgPool and Flatten keep
 * the input shape.  Conv and InnerProduct leave it empty.
 */
struct Saved
{
    Tensor output;     //!< ReLU/Sigmoid: the forward output
    Tensor indices;    //!< MaxPool: flat input index of each window max
    Shape input_shape; //!< MaxPool/AvgPool/Flatten: the input's shape
};

/**
 * Abstract neural-network layer.
 *
 * Layers are stateless per image: forward() returns what backward()
 * needs in a caller-held Saved, so any number of images can be in
 * flight through one layer (the pipelined schedule of Fig. 6 keeps
 * several per layer, Network::trainBatch runs a minibatch's images on
 * several threads).  The only mutable state is the parameters and
 * their gradient accumulators: a batch is zeroGrads(), one image's
 * gradients added per image in ascending image order, then one
 * applyUpdate(), matching the paper's batched weight update in §4.4.
 *
 * An image's gradients are computed once, by the const imageGrads();
 * accumulateGrads() is imageGrads() followed by addGrads().  A caller
 * that computes several images' gradients concurrently keeps them as
 * partials and calls addGrads() serially in image order, which adds
 * exactly the floats accumulateGrads() would have.
 */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** The layer kind (for mapping and reporting). */
    virtual LayerKind kind() const = 0;

    /** Short description like "conv5x20" or "500-10". */
    virtual std::string describe() const = 0;

    /** Compute the output shape for a given input shape. */
    virtual Shape outputShape(const Shape &input_shape) const = 0;

    /**
     * Forward pass for one image.  When @p saved is given, it
     * receives what backward() needs for this image; inference
     * passes none.
     */
    virtual Tensor forward(const Tensor &input,
                           Saved *saved = nullptr) const = 0;

    /**
     * Error pass: map the error at this layer's output to the error
     * at its input, from the image's @p saved forward state.  Touches
     * no gradient.
     */
    virtual Tensor backward(const Tensor &delta_out,
                            const Saved &saved) const = 0;

    /**
     * One image's parameter gradients, paper §2.2:
     * ∂J/∂W_l = d_{l-1} δ_l^T from the layer's @p input d_{l-1} and
     * the error @p delta_out at its output, and ∂J/∂b_l = δ_l; one
     * tensor per gradients() entry, in the same order.  Empty for
     * parameter-free layers.  Touches no accumulator.
     */
    virtual std::vector<Tensor> imageGrads(const Tensor &input,
                                           const Tensor &delta_out) const
    {
        (void)input;
        (void)delta_out;
        return {};
    }

    /** Add one image's imageGrads() to the accumulators. */
    void addGrads(const std::vector<Tensor> &partial);

    /** addGrads(imageGrads(input, delta_out)). */
    void accumulateGrads(const Tensor &input, const Tensor &delta_out)
    {
        addGrads(imageGrads(input, delta_out));
    }

    /** Clear accumulated gradients (start of a batch). */
    virtual void zeroGrads() {}

    /**
     * Apply the batch-averaged gradient update
     * W <- W - lr * (1/B) Σ ∂J/∂W  (paper §4.4.2).
     */
    virtual void applyUpdate(float lr, int64_t batch_size);

    /**
     * Mutable views of this layer's parameter tensors (weights then
     * bias), empty for parameter-free layers.  Used by the
     * quantisation study and by PipeLayerDevice::Weight_load.
     */
    virtual std::vector<Tensor *> parameters() { return {}; }

    /**
     * The gradient accumulators, one per parameter tensor (weights
     * then bias).  A crossbar layer (core::MappedLayer) returns its
     * host layer's, applies them to its arrays, and has no
     * parameters() of its own: its weights live in the arrays.
     */
    virtual std::vector<Tensor *> gradients() { return {}; }

    /** Number of trainable parameters. */
    int64_t parameterCount();
};

using LayerPtr = std::unique_ptr<Layer>;

} // namespace nn
} // namespace pipelayer

#endif // PIPELAYER_NN_LAYER_HH_
