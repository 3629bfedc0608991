/**
 * @file
 * Network layers mapped onto ReRAM array groups.
 *
 * A mapped layer is the nn::Layer of one array stage of the device's
 * crossbar network (PipeLayerDevice::network()).  It owns the stage's
 * morphable subarrays: a forward array group A_l holding [W | b]
 * (bias as an extra input row driven by a constant-1 spike train,
 * paper Fig. 4's 513th word line) and, when training, a backward
 * array group A_l2 holding the reordered kernels (W)* used for error
 * backward (paper §4.3).  forward() and backward() are array MVMs and
 * keep no nn::Saved state, so nn::Network::trainBatch and
 * PipelinedTrainer drive a mapped layer exactly as they drive its
 * host layer, with several images in flight.  The MVMs are const for
 * that contract yet add to the arrays' activity tallies, which
 * CrossbarArray keeps exact under concurrent calls.
 *
 * Forward convolution streams im2col windows through the arrays —
 * exactly the data-input scheme of paper Fig. 4/5.  Error backward
 * for convolutions streams windows of the zero-padded error through
 * the rot180-reordered kernel arrays (Fig. 11).  The partial
 * derivatives are the borrowed host layer's math on the quantised
 * signals (imageGrads, gradients), applied to the arrays by
 * read-subtract-write (the timing/energy of the paper's in-array
 * method is modelled in src/sim; see DESIGN.md §2).
 *
 * LutSigmoidLayer is the Fig.-9c activation unit that stands in for
 * an exact sigmoid.
 */

#ifndef PIPELAYER_CORE_MAPPED_LAYER_HH_
#define PIPELAYER_CORE_MAPPED_LAYER_HH_

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.hh"
#include "reram/activation.hh"
#include "reram/array_group.hh"
#include "reram/params.hh"
#include "tensor/tensor.hh"

namespace pipelayer {
namespace core {

/**
 * The array groups of one weight layer, and what the conv and
 * inner-product stages share: shapes, gradients and the kind from
 * the host layer, the in-ReRAM weight update and the activity tally.
 *
 * The host layer is borrowed and must outlive the mapped layer; its
 * parameters are read once, when the arrays are programmed, and its
 * gradient accumulators hold the batch's ∂W.  parameters() is empty:
 * the weights live in the arrays (storedWeight(), storedBias()).
 */
class MappedLayer : public nn::Layer
{
  public:
    nn::LayerKind kind() const override { return host_.kind(); }
    std::string describe() const override { return host_.describe(); }
    Shape outputShape(const Shape &input_shape) const override
    {
        return host_.outputShape(input_shape);
    }
    std::vector<Tensor> imageGrads(const Tensor &input,
                                   const Tensor &delta_out) const override
    {
        return host_.imageGrads(input, delta_out);
    }
    void zeroGrads() override { host_.zeroGrads(); }
    std::vector<Tensor *> gradients() override
    {
        return host_.gradients();
    }

    /**
     * Apply the host layer's accumulated gradients in ReRAM
     * (read-subtract-write, §4.4.2) and reprogram the backward arrays.
     */
    void applyUpdate(float lr, int64_t batch_size) override;

    /** Weights as currently stored (quantised), in the host's shape. */
    Tensor storedWeight() const;

    /** Bias as currently stored (quantised). */
    Tensor storedBias() const;

    int64_t arrayCount() const;

    /**
     * Accumulated spike/write activity of all backing arrays since
     * construction, including backward arrays retired by updates.
     */
    reram::ArrayActivity activity() const;

  protected:
    /**
     * Program the host layer's weights (first parameter, with output
     * rows first) and bias into the forward arrays and, when
     * @p training, the reordered weights into the backward arrays.
     */
    MappedLayer(const reram::DeviceParams &params, nn::Layer &host,
                bool training);

    const bool training_;
    std::unique_ptr<reram::ArrayGroup> forward_group_;
    std::unique_ptr<reram::ArrayGroup> backward_group_;

  private:
    void rebuildBackward();

    reram::DeviceParams params_;
    nn::Layer &host_;
    Shape weight_shape_; //!< the host weight's shape
    /** Activity of the backward groups rebuildBackward() replaced. */
    reram::ArrayActivity retired_;
};

/** A stride-1 convolution stage resident in morphable subarrays. */
class MappedConvLayer : public MappedLayer
{
  public:
    /** @param training also build the reordered backward arrays. */
    MappedConvLayer(const reram::DeviceParams &params, nn::ConvLayer &host,
                    bool training);

    /** Forward convolution through the arrays: (Cin,H,W) -> cube. */
    Tensor forward(const Tensor &input,
                   nn::Saved *saved = nullptr) const override;

    /** Error backward through the reordered arrays (training only). */
    Tensor backward(const Tensor &delta_out,
                    const nn::Saved &saved) const override;

  private:
    int64_t in_c_, out_c_, kernel_, pad_;
};

/** An inner-product stage resident in morphable subarrays. */
class MappedIpLayer : public MappedLayer
{
  public:
    MappedIpLayer(const reram::DeviceParams &params,
                  nn::InnerProductLayer &host, bool training);

    /** Forward product through the arrays: (m) -> (n). */
    Tensor forward(const Tensor &input,
                   nn::Saved *saved = nullptr) const override;

    /** δ_in = W^T δ_out through the transposed arrays. */
    Tensor backward(const Tensor &delta_out,
                    const nn::Saved &saved) const override;

  private:
    int64_t n_, m_;
};

/**
 * A sigmoid realised by the Fig.-9c LUT activation unit.  forward()
 * saves the LUT's output, from which the inherited error pass derives
 * s(1-s).
 */
class LutSigmoidLayer : public nn::SigmoidLayer
{
  public:
    /** @param lut_bits table address width (entries = 2^lut_bits). */
    explicit LutSigmoidLayer(int lut_bits);

    Tensor forward(const Tensor &input,
                   nn::Saved *saved = nullptr) const override;

  private:
    reram::ActivationUnit lut_;
};

} // namespace core
} // namespace pipelayer

#endif // PIPELAYER_CORE_MAPPED_LAYER_HH_
