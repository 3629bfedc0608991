/**
 * @file
 * Network layers mapped onto ReRAM array groups.
 *
 * A mapped layer owns the morphable subarrays of one pipeline stage:
 * a forward array group A_l holding [W | b] (bias as an extra input
 * row driven by a constant-1 spike train, paper Fig. 4's 513th word
 * line) and, when training, a backward array group A_l2 holding the
 * reordered kernels (W)* used for error backward (paper §4.3).
 *
 * Forward convolution streams im2col windows through the arrays —
 * exactly the data-input scheme of paper Fig. 4/5.  Error backward
 * for convolutions streams windows of the zero-padded error through
 * the rot180-reordered kernel arrays (Fig. 11).  The partial
 * derivatives are computed at host precision from the quantised
 * signals (the timing/energy of the paper's in-array method is
 * modelled in src/sim; see DESIGN.md §2).
 */

#ifndef PIPELAYER_CORE_MAPPED_LAYER_HH_
#define PIPELAYER_CORE_MAPPED_LAYER_HH_

#include <memory>

#include "nn/layers.hh"
#include "reram/array_group.hh"
#include "reram/params.hh"
#include "tensor/tensor.hh"

namespace pipelayer {
namespace core {

/**
 * A convolution stage resident in morphable subarrays.
 */
class MappedConvLayer
{
  public:
    /**
     * Program the layer's weights into ReRAM.
     *
     * @param weight (Cout, Cin, K, K) kernel.
     * @param bias   (Cout) bias.
     * @param training also build the reordered backward arrays.
     */
    MappedConvLayer(const reram::DeviceParams &params,
                    const Tensor &weight, const Tensor &bias,
                    int64_t pad, bool training);

    /** Forward convolution through the arrays: (Cin,H,W) -> cube. */
    Tensor forward(const Tensor &input);

    /** Error backward through the reordered arrays (training only). */
    Tensor backwardError(const Tensor &delta_out);

    /**
     * Apply the batch-averaged gradients in ReRAM (read-subtract-
     * write, §4.4.2) and refresh the backward arrays.
     */
    void applyUpdate(const Tensor &weight_grad, const Tensor &bias_grad,
                     float lr, int64_t batch_size);

    /** Weights as currently stored (quantised), (Cout, Cin, K, K). */
    Tensor storedWeight() const;

    /** Bias as currently stored (quantised), (Cout). */
    Tensor storedBias() const;

    int64_t arrayCount() const;

    /**
     * Accumulated spike/write activity of all backing arrays since
     * construction, including backward arrays retired by updates.
     */
    reram::ArrayActivity activity() const;

  private:
    /** Pack kernel+bias into the (Cout, Cin*K*K + 1) array matrix. */
    static Tensor packForward(const Tensor &weight, const Tensor &bias);

    /** Pack rot180 kernels into the (Cin, Cout*K*K + 1) matrix. */
    static Tensor packBackward(const Tensor &weight);

    void rebuildBackward();

    reram::DeviceParams params_;
    int64_t in_c_, out_c_, kernel_, pad_;
    bool training_;
    std::unique_ptr<reram::ArrayGroup> forward_group_;
    std::unique_ptr<reram::ArrayGroup> backward_group_;
    /** Activity of the backward groups rebuildBackward() replaced. */
    reram::ArrayActivity retired_;
};

/**
 * An inner-product stage resident in morphable subarrays.
 */
class MappedIpLayer
{
  public:
    /** @param weight (n, m) matrix; @param bias (n). */
    MappedIpLayer(const reram::DeviceParams &params, const Tensor &weight,
                  const Tensor &bias, bool training);

    /** Forward product through the arrays: (m) -> (n). */
    Tensor forward(const Tensor &input);

    /** δ_in = W^T δ_out through the transposed arrays. */
    Tensor backwardError(const Tensor &delta_out);

    /** In-ReRAM weight update (§4.4.2). */
    void applyUpdate(const Tensor &weight_grad, const Tensor &bias_grad,
                     float lr, int64_t batch_size);

    Tensor storedWeight() const; //!< (n, m), quantised
    Tensor storedBias() const;   //!< (n), quantised

    int64_t arrayCount() const;

    /**
     * Accumulated spike/write activity of all backing arrays since
     * construction, including backward arrays retired by updates.
     */
    reram::ArrayActivity activity() const;

  private:
    static Tensor packForward(const Tensor &weight, const Tensor &bias);
    static Tensor packBackward(const Tensor &weight);

    void rebuildBackward();

    reram::DeviceParams params_;
    int64_t n_, m_;
    bool training_;
    std::unique_ptr<reram::ArrayGroup> forward_group_;
    std::unique_ptr<reram::ArrayGroup> backward_group_;
    /** Activity of the backward groups rebuildBackward() replaced. */
    reram::ArrayActivity retired_;
};

} // namespace core
} // namespace pipelayer

#endif // PIPELAYER_CORE_MAPPED_LAYER_HH_
